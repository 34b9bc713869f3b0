//! The load generator: whole passes of a workload's queries, timed per
//! query, verified after each pass against the merged-graph answers.

use crate::client::{Connection, Response};
use crate::draw::Zipf;
use crate::procfs;
use crate::stage::{engine_config, Driver, Plan, Stage, STREAM_SEED, ZIPF_EXPONENT};
use crate::stats::ratio;
use crate::trace::TraceSink;
use crate::truth::{self, Expected};
use lusail_core::{CacheStats, ExecutionProfile, LusailEngine};
use lusail_federation::results_json;
use lusail_sparql::parse_query;
use lusail_sparql::solution::Relation;
use lusail_store::eval::QueryResult;
use lusail_store::Store;
use std::sync::Arc;
use std::time::Instant;

/// One client-observed query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Client query id; spans of in-process workloads carry it as group.
    pub id: u64,
    /// Index into the workload's distinct queries.
    pub query: usize,
    /// What this sample is a repetition of: the query for an engine
    /// driver (every pass runs every query once), the sample itself for a
    /// service driver (every pass draws afresh, and one text can be a
    /// result-cache hit in one draw and a miss in another).
    pub slot: u64,
    pub start_us: u64,
    pub end_us: u64,
    /// Whether endpoint spans were recorded while it ran.
    pub traced: bool,
}

impl Sample {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1000.0
    }
}

/// Totals of the timed passes on one side of the traced/untraced split.
#[derive(Debug, Clone, Copy, Default)]
pub struct Side {
    pub queries: usize,
    pub wall_s: f64,
    pub cpu_ms: f64,
    /// `Federation::total_traffic` deltas.
    pub requests: u64,
    pub bytes_received: u64,
}

impl Side {
    pub fn queries_per_s(&self) -> f64 {
        ratio(self.queries as f64, self.wall_s)
    }
}

/// Everything the timed passes produced.
#[derive(Default)]
pub struct Measured {
    pub samples: Vec<Sample>,
    /// Errors, refusals and wrong answers among `samples`.
    pub failed: usize,
    /// `[untraced, traced]`.
    pub sides: [Side; 2],
    /// One per successful in-process query.
    pub profiles: Vec<ExecutionProfile>,
    /// Analysis-cache lookups during the timed passes.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// HTTP refusals seen by the service clients.
    pub shed_503: usize,
    pub rejected_429: usize,
}

impl Measured {
    pub fn all(&self) -> Side {
        let [a, b] = self.sides;
        Side {
            queries: a.queries + b.queries,
            wall_s: a.wall_s + b.wall_s,
            cpu_ms: a.cpu_ms + b.cpu_ms,
            requests: a.requests + b.requests,
            bytes_received: a.bytes_received + b.bytes_received,
        }
    }
}

/// What one query of a pass came back with, kept until the pass is over so
/// verification never sits inside a timed region.
enum Answer {
    Rows(Relation, Box<ExecutionProfile>),
    Http(Response),
    Error(String),
}

struct Attempt {
    sample: Sample,
    answer: Answer,
}

/// One service client: its connection and its own query stream.
struct ServiceClient {
    connection: Connection,
    stream: Zipf,
    name: String,
}

pub struct Runner<'a> {
    plan: &'a Plan,
    stage: &'a Stage,
    clock: Arc<TraceSink>,
    /// Query texts and expected answers, indexed like `Sample::query`.
    texts: Vec<&'a str>,
    names: Vec<String>,
    expected: Vec<Expected>,
    seed: u64,
    next_id: u64,
    service_clients: Vec<ServiceClient>,
    pub measured: Measured,
}

impl<'a> Runner<'a> {
    /// Computes the expected answer of every distinct query on `merged`.
    pub fn new(
        plan: &'a Plan,
        stage: &'a Stage,
        merged: &Store,
        clock: Arc<TraceSink>,
        seed: u64,
    ) -> Runner<'a> {
        let (names, texts): (Vec<String>, Vec<&str>) = plan.queries().into_iter().unzip();
        let expected = texts
            .iter()
            .map(|t| truth::expected(merged, &parse_query(t).expect("catalog query parses")))
            .collect();
        let service_clients = match (&plan.driver, &stage.front) {
            (Driver::Service { pool, clients, .. }, Some(front)) => (0..*clients)
                .map(|c| ServiceClient {
                    connection: Connection::open(front.server.local_addr())
                        .expect("connect to the front door"),
                    stream: Zipf::new(pool.len(), ZIPF_EXPONENT, STREAM_SEED + c as u64),
                    name: format!("bench{c}"),
                })
                .collect(),
            _ => Vec::new(),
        };
        Runner {
            plan,
            stage,
            clock,
            texts,
            names,
            expected,
            seed,
            next_id: 1,
            service_clients,
            measured: Measured::default(),
        }
    }

    /// One untimed warm-up pass, then whole passes until `seconds` of
    /// timed wall clock have accumulated. With `trace`, odd passes run
    /// with span recording on and the pass count is kept even, so the two
    /// sides are the same size.
    pub fn run(&mut self, seconds: f64, trace: bool) {
        self.pass(false, false);
        let mut passes = 0;
        while self.measured.all().wall_s < seconds || (trace && passes % 2 == 1) {
            self.pass(trace && passes % 2 == 1, true);
            passes += 1;
        }
    }

    fn analysis_cache(&self, fresh: Option<&LusailEngine>) -> CacheStats {
        let engine = fresh.or(self.stage.engine.as_ref()).or(self
            .stage
            .front
            .as_ref()
            .map(|f| f.service.engine()));
        engine.map(|e| e.cache().stats()).unwrap_or_default()
    }

    fn pass(&mut self, traced: bool, record: bool) {
        self.clock.set_enabled(traced);
        let fresh = match &self.plan.driver {
            Driver::Engine {
                fresh_engine: true, ..
            } => Some(LusailEngine::new(
                self.stage.federation.clone(),
                engine_config(),
            )),
            _ => None,
        };
        let cache_before = self.analysis_cache(fresh.as_ref());
        let traffic_before = self.stage.federation.total_traffic();
        let cpu_before = procfs::cpu_ms();
        let started = Instant::now();

        let attempts = match &self.plan.driver {
            Driver::Engine { .. } => {
                let engine = fresh
                    .as_ref()
                    .or(self.stage.engine.as_ref())
                    .expect("an engine driver has an engine");
                self.engine_pass(engine, traced)
            }
            Driver::Service { draws_per_pass, .. } => self.service_pass(*draws_per_pass, traced),
        };

        let wall_s = started.elapsed().as_secs_f64();
        let cpu_ms = procfs::cpu_ms() - cpu_before;
        let traffic = self.stage.federation.total_traffic().since(traffic_before);
        let cache_after = self.analysis_cache(fresh.as_ref());
        self.clock.set_enabled(false);
        if !record {
            return;
        }

        let side = &mut self.measured.sides[usize::from(traced)];
        side.queries += attempts.len();
        side.wall_s += wall_s;
        side.cpu_ms += cpu_ms;
        side.requests += traffic.requests;
        side.bytes_received += traffic.bytes_received;
        self.measured.cache_hits += cache_after.hits - cache_before.hits;
        self.measured.cache_misses += cache_after.misses - cache_before.misses;
        for attempt in attempts {
            self.verify(attempt);
        }
    }

    fn engine_pass(&mut self, engine: &LusailEngine, traced: bool) -> Vec<Attempt> {
        let mut attempts = Vec::with_capacity(self.texts.len());
        for (query, text) in self.texts.iter().enumerate() {
            let id = self.next_id;
            self.next_id += 1;
            self.clock.begin_query(id);
            let start_us = self.clock.now_us();
            // Parsing is inside the clock: the `lusail query` user pays it.
            let answer = match parse_query(text) {
                Err(e) => Answer::Error(format!("parse error: {e}")),
                Ok(parsed) => match engine.execute_profiled(&parsed) {
                    Ok((rel, profile)) => Answer::Rows(rel, Box::new(profile)),
                    Err(e) => Answer::Error(e.to_string()),
                },
            };
            let end_us = self.clock.now_us();
            attempts.push(Attempt {
                sample: Sample {
                    id,
                    query,
                    slot: query as u64,
                    start_us,
                    end_us,
                    traced,
                },
                answer,
            });
        }
        attempts
    }

    fn service_pass(&mut self, draws: usize, traced: bool) -> Vec<Attempt> {
        let first_id = self.next_id;
        self.next_id += (draws * self.service_clients.len()) as u64;
        let clock = &self.clock;
        let texts = &self.texts;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .service_clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        (0..draws)
                            .map(|i| {
                                let query = client.stream.next();
                                let start_us = clock.now_us();
                                let reply =
                                    client.connection.post_query(texts[query], &client.name);
                                let end_us = clock.now_us();
                                let id = first_id + (c * draws + i) as u64;
                                Attempt {
                                    sample: Sample {
                                        id,
                                        query,
                                        slot: id,
                                        start_us,
                                        end_us,
                                        traced,
                                    },
                                    answer: match reply {
                                        Ok(r) => Answer::Http(r),
                                        Err(e) => Answer::Error(format!("transport: {e}")),
                                    },
                                }
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("service client panicked"))
                .collect()
        })
    }

    fn verify(&mut self, attempt: Attempt) {
        let Attempt { sample, answer } = attempt;
        let expected = &self.expected[sample.query];
        let verdict = match answer {
            Answer::Error(e) => Err(e),
            Answer::Rows(rel, profile) => {
                self.measured.profiles.push(*profile);
                truth::check(expected, &rel)
            }
            Answer::Http(response) => {
                match response.status {
                    503 => self.measured.shed_503 += 1,
                    429 => self.measured.rejected_429 += 1,
                    _ => {}
                }
                if response.status != 200 {
                    Err(format!("HTTP {}", response.status))
                } else {
                    match std::str::from_utf8(&response.body)
                        .map_err(|e| e.to_string())
                        .and_then(|t| {
                            results_json::parse_capped(t, None).map_err(|e| e.to_string())
                        }) {
                        Ok(parsed) => match parsed.result {
                            QueryResult::Solutions(rel) => truth::check(expected, &rel),
                            QueryResult::Boolean(_) => Err("boolean for a SELECT".to_string()),
                        },
                        Err(e) => Err(format!("undecodable body: {e}")),
                    }
                }
            }
        };
        if let Err(why) = verdict {
            self.measured.failed += 1;
            eprintln!(
                "FAILED {} query {} (seed {}): {why}; expected {} rows",
                self.plan.name, self.names[sample.query], self.seed, expected.rows
            );
        }
        self.measured.samples.push(sample);
    }
}
