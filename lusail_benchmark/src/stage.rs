//! The four workloads and how each one's federation is set up.

use crate::pool;
use crate::trace::{TraceSink, TracedEndpoint};
use lusail_core::{LusailConfig, LusailEngine, QueryCache};
use lusail_federation::{
    Federation, HttpEndpoint, NetworkProfile, SimulatedEndpoint, SparqlEndpoint,
};
use lusail_rdf::Graph;
use lusail_server::federate::{FederateConfig, FederationService};
use lusail_server::{ServerConfig, ServerHandle, SparqlServer};
use lusail_store::Store;
use lusail_workloads::largerdf::{self, LargeRdfConfig};
use lusail_workloads::lubm::{self, LubmConfig};
use lusail_workloads::qfed::{self, QfedConfig};
use lusail_workloads::BenchQuery;
use std::sync::Arc;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["oneshot_wan", "oneshot_cpu", "http_session", "serve_mixed"];

/// How the engine reaches the endpoints.
#[derive(Clone, Copy)]
pub enum Transport {
    /// In-process `SimulatedEndpoint`s behind a simulated link.
    Simulated(NetworkProfile),
    /// Real loopback `SparqlServer`s reached through `HttpEndpoint`; the
    /// first `json_only` servers never offer the binary codec.
    Loopback { json_only: usize },
}

/// Who issues the queries.
pub enum Driver {
    /// One in-process caller of `LusailEngine`. A pass runs every query
    /// once, in catalog order: what follows what decides what the
    /// integrity layer learns and cross-checks, and with it the request
    /// count, so the order is not left to the seed. With `fresh_engine`
    /// every pass starts from an empty analysis cache; otherwise one
    /// engine, warmed by the warm-up pass, serves the whole run.
    Engine {
        queries: Vec<BenchQuery>,
        fresh_engine: bool,
    },
    /// `clients` closed-loop HTTP clients of a `FederationService`, each
    /// drawing `draws_per_pass` queries per pass from `pool` by Zipf rank.
    Service {
        pool: Vec<String>,
        clients: usize,
        draws_per_pass: usize,
    },
}

pub struct Plan {
    pub name: &'static str,
    pub transport: Transport,
    pub driver: Driver,
    graphs: Box<dyn Fn() -> Vec<(String, Graph)>>,
}

pub const ZIPF_EXPONENT: f64 = 0.5;

/// The service clients' rank streams are the same in every run: client
/// `c` draws from `Zipf` seeded with `STREAM_SEED + c`. Four of the 600
/// queries return tens of kilobytes, so how often chance draws them, and
/// whether the result cache still holds them, decides `wire_kb_per_query`
/// (±20 % between independently drawn streams). `--seed` changes which
/// texts the ranks stand for, not the ranks drawn.
pub const STREAM_SEED: u64 = 0x5eed;

impl Plan {
    /// The graphs are the generators' default-seed datasets — the ones the
    /// product's own correctness suites cover, so the gate's `failed == 0`
    /// rests on data known to be answered exactly. `seed` picks the
    /// entities of the `serve_mixed` query pool; the engine-driven
    /// workloads run their fixed catalogs and do not depend on it.
    pub fn new(workload: &str, seed: u64) -> Option<Plan> {
        let largerdf_plan = |name, scale, profile, fresh_engine| Plan {
            name,
            transport: Transport::Simulated(profile),
            driver: Driver::Engine {
                queries: largerdf::all_queries(),
                fresh_engine,
            },
            graphs: Box::new(move || {
                largerdf::generate_all(&LargeRdfConfig {
                    scale,
                    ..Default::default()
                })
            }),
        };
        Some(match workload {
            "oneshot_wan" => {
                largerdf_plan("oneshot_wan", 1.0, NetworkProfile::geo_distributed(), true)
            }
            "oneshot_cpu" => largerdf_plan("oneshot_cpu", 4.0, NetworkProfile::instant(), false),
            "http_session" => {
                let d = QfedConfig::default();
                let cfg = QfedConfig {
                    drugs: d.drugs * 3,
                    diseases: d.diseases * 3,
                    side_effects: d.side_effects * 3,
                    labels: d.labels * 3,
                    seed: d.seed,
                };
                Plan {
                    name: "http_session",
                    transport: Transport::Loopback { json_only: 2 },
                    driver: Driver::Engine {
                        queries: qfed::queries(),
                        fresh_engine: false,
                    },
                    graphs: Box::new(move || qfed::generate_all(&cfg)),
                }
            }
            "serve_mixed" => {
                let cfg = LubmConfig {
                    universities: 4,
                    scale: 3.0,
                    ..Default::default()
                };
                Plan {
                    name: "serve_mixed",
                    transport: Transport::Loopback { json_only: 0 },
                    driver: Driver::Service {
                        pool: pool::build(&cfg, seed),
                        clients: 2,
                        draws_per_pass: 100,
                    },
                    graphs: Box::new(move || lubm::generate_all(&cfg)),
                }
            }
            _ => return None,
        })
    }

    /// `(name, text)` of every distinct query, in the order `Sample::query`
    /// indexes them.
    pub fn queries(&self) -> Vec<(String, &str)> {
        match &self.driver {
            Driver::Engine { queries, .. } => queries
                .iter()
                .map(|q| (q.name.to_string(), q.text.as_str()))
                .collect(),
            Driver::Service { pool, .. } => pool
                .iter()
                .enumerate()
                .map(|(rank, text)| (format!("rank{rank}"), text.as_str()))
                .collect(),
        }
    }

    pub fn clients(&self) -> usize {
        match &self.driver {
            Driver::Engine { .. } => 1,
            Driver::Service { clients, .. } => *clients,
        }
    }
}

/// The engine configuration of every workload: the product's defaults.
pub fn engine_config() -> LusailConfig {
    LusailConfig::default()
}

/// The `FederationService` behind its own loopback server.
pub struct FrontDoor {
    pub service: Arc<FederationService>,
    pub server: ServerHandle,
}

impl FrontDoor {
    /// Mount a default-configured service over `federation`, as
    /// `lusail serve --federate` does.
    pub fn open(federation: Federation) -> FrontDoor {
        let config = FederateConfig::default();
        let engine = LusailEngine::with_cache(
            federation,
            engine_config(),
            QueryCache::with_limits(config.cache_limits()),
        );
        let service = Arc::new(FederationService::new(engine, config));
        let server = SparqlServer::with_backend(
            "127.0.0.1:0",
            service.clone(),
            ServerConfig {
                name: "front".to_string(),
                ..Default::default()
            },
        )
        .expect("bind the front-door server")
        .spawn();
        FrontDoor { service, server }
    }

    pub fn close(self) {
        self.server.shutdown();
    }
}

/// Everything a workload runs against, built by [`Stage::set_up`].
pub struct Stage {
    pub graphs: Vec<(String, Graph)>,
    pub federation: Federation,
    backends: Vec<ServerHandle>,
    /// The warm engine of an `Engine { fresh_engine: false }` driver.
    pub engine: Option<LusailEngine>,
    pub front: Option<FrontDoor>,
    pub generate_s: f64,
    pub load_s: f64,
    pub setup_s: f64,
}

impl Stage {
    /// Generate the graphs, load the stores, start the servers and build
    /// the engine or service. With `sink`, every endpoint is wrapped in a
    /// [`TracedEndpoint`].
    pub fn set_up(plan: &Plan, sink: Option<&Arc<TraceSink>>) -> Stage {
        let start = Instant::now();
        let graphs = (plan.graphs)();
        let generate_s = start.elapsed().as_secs_f64();

        let mut load_s = 0.0;
        let mut backends = Vec::new();
        let mut endpoints: Vec<Arc<dyn SparqlEndpoint>> = Vec::new();
        for (i, (name, graph)) in graphs.iter().enumerate() {
            let t = Instant::now();
            let store = Store::from_graph(graph);
            load_s += t.elapsed().as_secs_f64();
            let endpoint: Arc<dyn SparqlEndpoint> = match plan.transport {
                Transport::Simulated(profile) => {
                    Arc::new(SimulatedEndpoint::new(name.clone(), store, profile))
                }
                Transport::Loopback { json_only } => {
                    let server = SparqlServer::bind(
                        "127.0.0.1:0",
                        store,
                        ServerConfig {
                            name: name.clone(),
                            offer_binary: i >= json_only,
                            ..Default::default()
                        },
                    )
                    .expect("bind a loopback backend")
                    .spawn();
                    let endpoint =
                        HttpEndpoint::new(name.clone(), &server.url()).expect("loopback url");
                    backends.push(server);
                    Arc::new(endpoint)
                }
            };
            endpoints.push(match sink {
                Some(sink) => Arc::new(TracedEndpoint::new(endpoint, i, sink.clone())),
                None => endpoint,
            });
        }
        let federation = Federation::new(endpoints);

        let (engine, front) = match &plan.driver {
            Driver::Engine { fresh_engine, .. } => (
                (!fresh_engine).then(|| LusailEngine::new(federation.clone(), engine_config())),
                None,
            ),
            Driver::Service { .. } => (None, Some(FrontDoor::open(federation.clone()))),
        };
        Stage {
            graphs,
            federation,
            backends,
            engine,
            front,
            generate_s,
            load_s,
            setup_s: start.elapsed().as_secs_f64(),
        }
    }

    pub fn triples(&self) -> usize {
        self.graphs.iter().map(|(_, g)| g.len()).sum()
    }

    /// `(served, shed, errors)` summed over the loopback backends.
    pub fn backend_counts(&self) -> (u64, u64, u64) {
        self.backends.iter().fold((0, 0, 0), |acc, b| {
            let c = b.stats();
            (acc.0 + c.served, acc.1 + c.shed, acc.2 + c.errors)
        })
    }

    /// The URL of one loopback backend, when the workload has any.
    pub fn backend_url(&self) -> Option<String> {
        self.backends.first().map(|b| b.url())
    }

    /// Stop every server and join its threads. The federation (and with
    /// it every pooled client connection) goes first, so no keep-alive
    /// connection holds a server worker past shutdown.
    pub fn tear_down(self) {
        let Stage {
            federation,
            backends,
            engine,
            front,
            ..
        } = self;
        if let Some(front) = front {
            front.close();
        }
        drop(engine);
        drop(federation);
        for b in backends {
            b.shutdown();
        }
    }
}
