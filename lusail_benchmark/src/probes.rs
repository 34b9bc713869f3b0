//! Direct timed calls into public functions of single layers, on inputs a
//! traced run captured: the codecs, the joins, the parser and serializer,
//! the endpoint evaluator, and the HTTP and front-door floors.

use crate::client::Connection;
use crate::stage::{engine_config, FrontDoor, Plan, Stage};
use crate::stats::ratio;
use crate::trace::Captured;
use lusail_core::sape::join::{budgeted_join, parallel_join};
use lusail_core::{ExecutionProfile, LusailEngine, MemoryBudget};
use lusail_federation::http::percent_encode;
use lusail_federation::{results_bin, results_json, HttpEndpoint, RequestHandler, SparqlEndpoint};
use lusail_server::{ServerConfig, SparqlServer};
use lusail_sparql::serializer::serialize_query;
use lusail_sparql::solution::Relation;
use lusail_sparql::{parse_query, Query};
use lusail_store::eval::QueryResult;
use lusail_store::{Evaluator, Store};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Where the benchmark may write: under the build directory, which the
/// driver places inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("lusail_benchmark")
}

/// Spilling joins write their runs to `std::env::temp_dir()`; point that
/// inside the checkout. Call before any thread starts.
pub fn keep_spills_in_checkout() {
    let tmp = out_dir().join("tmp");
    if std::fs::create_dir_all(&tmp).is_ok() {
        std::env::set_var("TMPDIR", &tmp);
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// The `n` largest captured responses, by wire size.
fn largest(captured: &Captured, n: usize) -> Vec<&Relation> {
    let mut rels: Vec<&Relation> = captured.relations.iter().map(|(_, r)| r).collect();
    rels.sort_by_key(|r| std::cmp::Reverse(r.wire_size()));
    rels.truncate(n);
    rels
}

pub struct CodecRates {
    pub json_encode_mb_s: f64,
    pub json_decode_mb_s: f64,
    pub bin_encode_mb_s: f64,
    pub bin_decode_mb_s: f64,
    /// Binary bytes per JSON byte, same relations.
    pub bytes_ratio: f64,
}

/// Encode and decode the largest captured responses with both codecs,
/// decoding with the streaming parsers `HttpEndpoint` uses.
pub fn codecs(captured: &Captured) -> CodecRates {
    let (mut json_bytes, mut bin_bytes) = (0usize, 0usize);
    let mut seconds = [0.0f64; 4];
    for rel in largest(captured, 24) {
        let result = QueryResult::Solutions(rel.clone());
        let t = Instant::now();
        let json = results_json::serialize(&result);
        seconds[0] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(results_json::parse_stream(json.as_bytes(), None).expect("own JSON decodes"));
        seconds[1] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let bin = results_bin::serialize(&result);
        seconds[2] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(results_bin::parse_stream(bin.as_slice(), None).expect("own binary decodes"));
        seconds[3] += t.elapsed().as_secs_f64();
        json_bytes += json.len();
        bin_bytes += bin.len();
    }
    let mb = |bytes: usize| bytes as f64 / 1e6;
    CodecRates {
        json_encode_mb_s: ratio(mb(json_bytes), seconds[0]),
        json_decode_mb_s: ratio(mb(json_bytes), seconds[1]),
        bin_encode_mb_s: ratio(mb(bin_bytes), seconds[2]),
        bin_decode_mb_s: ratio(mb(bin_bytes), seconds[3]),
        bytes_ratio: ratio(bin_bytes as f64, json_bytes as f64),
    }
}

/// `(in-memory, spilling)` join throughput in million rows (both inputs
/// plus output) per second, over the largest pairs of responses to one
/// query that share a variable. The spilling figure forces
/// `budgeted_join` onto its sort-merge path with a budget just under
/// twice the smaller side; it is 0 when no pair could be made to spill.
pub fn joins(captured: &Captured) -> (f64, f64) {
    let mut pairs: Vec<(&Relation, &Relation)> = captured
        .relations
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| (&w[0].1, &w[1].1))
        .filter(|(a, b)| a.vars().iter().any(|v| b.index_of(v).is_some()))
        .collect();
    pairs.sort_by_key(|(a, b)| std::cmp::Reverse(a.len() + b.len()));
    pairs.truncate(12);

    let handler = RequestHandler::per_core();
    let (mut rows, mut seconds) = (0usize, 0.0);
    let (mut spill_rows, mut spill_seconds) = (0usize, 0.0);
    for (a, b) in pairs {
        let t = Instant::now();
        let out = parallel_join(a, b, &handler);
        seconds += t.elapsed().as_secs_f64();
        rows += a.len() + b.len() + out.len();

        let smaller = a.wire_size().min(b.wire_size());
        let budget = MemoryBudget::new(Some((2 * smaller).saturating_sub(1).max(1)));
        let t = Instant::now();
        let outcome = budgeted_join(a, b, &handler, &budget, true);
        let elapsed = t.elapsed().as_secs_f64();
        if let Ok(outcome) = outcome {
            if budget.stats().spill_count > 0 {
                spill_seconds += elapsed;
                spill_rows += a.len() + b.len() + outcome.relation.len();
            }
        }
    }
    (
        ratio(rows as f64 / 1e6, seconds),
        ratio(spill_rows as f64 / 1e6, spill_seconds),
    )
}

/// Distinct captured requests as `(endpoint, text, query)`, first seen
/// first, at most `n`.
fn distinct_requests(captured: &Captured, n: usize) -> Vec<(usize, String, &Query)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (endpoint, query) in &captured.queries {
        let text = serialize_query(query);
        if seen.insert((*endpoint, text.clone())) {
            out.push((*endpoint, text, query));
            if out.len() == n {
                break;
            }
        }
    }
    out
}

/// `(parse µs, serialize µs)` per captured request.
pub fn sparql_text(captured: &Captured) -> (Vec<f64>, Vec<f64>) {
    let mut parse_us = Vec::new();
    let mut serialize_us = Vec::new();
    for (_, text, query) in distinct_requests(captured, 400) {
        let t = Instant::now();
        black_box(serialize_query(black_box(query)));
        serialize_us.push(ms_since(t) * 1000.0);
        let t = Instant::now();
        black_box(parse_query(black_box(&text)).expect("serialized request parses"));
        parse_us.push(ms_since(t) * 1000.0);
    }
    (parse_us, serialize_us)
}

pub struct StoreReplay {
    pub eval_ms: Vec<f64>,
    pub rows_per_ms: f64,
}

/// Replay captured requests on `Evaluator`, each against a fresh load of
/// the store of the endpoint that received it.
pub fn store_replay(stage: &Stage, captured: &Captured) -> StoreReplay {
    let mut requests = distinct_requests(captured, 600);
    requests.sort_by_key(|r| r.0);
    let mut eval_ms = Vec::new();
    let mut rows = 0usize;
    let mut loaded: Option<(usize, Store)> = None;
    for (endpoint, _, query) in requests {
        if loaded.as_ref().map(|l| l.0) != Some(endpoint) {
            loaded = Some((endpoint, Store::from_graph(&stage.graphs[endpoint].1)));
        }
        let store = &loaded.as_ref().expect("just loaded").1;
        let t = Instant::now();
        let result = Evaluator::new(store).query(query);
        eval_ms.push(ms_since(t));
        if let QueryResult::Solutions(r) = &result {
            rows += r.len();
        }
        black_box(result);
    }
    StoreReplay {
        rows_per_ms: ratio(rows as f64, eval_ms.iter().sum()),
        eval_ms,
    }
}

const FLOOR_REQUESTS: usize = 300;
const FLOOR_QUERY: &str = "ASK { ?s ?p ?o }";

pub struct Floors {
    /// `HttpEndpoint::ask` of a constant query on a warm connection.
    pub http_ms: Vec<f64>,
    /// The same query as a raw keep-alive GET from the benchmark's client.
    pub server_ms: Vec<f64>,
}

/// Round-trip floors against one plain store-backed server: a loopback
/// backend of the workload when it has one, else a temporary server over
/// the workload's smallest graph.
pub fn floors(stage: &Stage) -> Floors {
    let temporary = stage.backend_url().is_none().then(|| {
        let smallest = stage
            .graphs
            .iter()
            .min_by_key(|(_, g)| g.len())
            .expect("a federation has endpoints");
        SparqlServer::bind(
            "127.0.0.1:0",
            Store::from_graph(&smallest.1),
            ServerConfig::default(),
        )
        .expect("bind the floor-probe server")
        .spawn()
    });
    let url = stage
        .backend_url()
        .or(temporary.as_ref().map(|s| s.url()))
        .expect("one of the two exists");

    let ask = parse_query(FLOOR_QUERY).expect("constant query parses");
    let endpoint = HttpEndpoint::new("floor", &url).expect("loopback url");
    let mut http_ms = Vec::with_capacity(FLOOR_REQUESTS);
    for i in 0..=FLOOR_REQUESTS {
        let t = Instant::now();
        black_box(endpoint.ask(&ask).expect("floor ASK succeeds"));
        // The first request pays the connect.
        if i > 0 {
            http_ms.push(ms_since(t));
        }
    }
    drop(endpoint);

    let address = url
        .trim_start_matches("http://")
        .split('/')
        .next()
        .and_then(|a| a.parse().ok())
        .expect("loopback url has a socket address");
    let target = format!("/sparql?query={}", percent_encode(FLOOR_QUERY));
    let mut connection = Connection::open(address).expect("connect for the floor probe");
    let mut server_ms = Vec::with_capacity(FLOOR_REQUESTS);
    for i in 0..=FLOOR_REQUESTS {
        let t = Instant::now();
        let response = connection.get(&target).expect("floor GET succeeds");
        assert_eq!(response.status, 200, "floor GET status");
        if i > 0 {
            server_ms.push(ms_since(t));
        }
    }
    drop(connection);
    if let Some(server) = temporary {
        server.shutdown();
    }
    Floors { http_ms, server_ms }
}

const FRONT_DOOR_QUERIES: usize = 8;

#[derive(Default)]
pub struct FrontDoorProbe {
    /// Result-cache hit latency through the front door.
    pub hit_ms: Vec<f64>,
    /// Result-cache miss latency through the front door (analysis cache
    /// warm).
    pub miss_ms: Vec<f64>,
    /// Miss latency minus the in-process `execute` latency of the same
    /// query over the same endpoints.
    pub overhead_ms: Vec<f64>,
    /// Profiles of the in-process executions.
    pub profiles: Vec<ExecutionProfile>,
}

/// Send a few of the workload's queries through a `FederationService`
/// front door — the workload's own, or a temporary one over the same
/// federation — and in-process through a warm engine.
pub fn front_door(plan: &Plan, stage: &Stage) -> FrontDoorProbe {
    let temporary = stage
        .front
        .is_none()
        .then(|| FrontDoor::open(stage.federation.clone()));
    let front = stage
        .front
        .as_ref()
        .or(temporary.as_ref())
        .expect("one of the two exists");
    let queries = plan.queries();
    let step = (queries.len() / FRONT_DOOR_QUERIES).max(1);
    let chosen: Vec<&str> = queries
        .iter()
        .step_by(step)
        .take(FRONT_DOOR_QUERIES)
        .map(|(_, text)| *text)
        .collect();

    let mut connection =
        Connection::open(front.server.local_addr()).expect("connect to the front door");
    let mut round = || -> Vec<f64> {
        chosen
            .iter()
            .map(|text| {
                let t = Instant::now();
                let response = connection
                    .post_query(text, "probe")
                    .expect("front-door probe request");
                let ms = ms_since(t);
                assert_eq!(response.status, 200, "front-door probe status");
                ms
            })
            .collect()
    };
    // Warm the service's analysis cache, then time a miss and a hit each.
    round();
    front.service.results().invalidate();
    let mut probe = FrontDoorProbe {
        miss_ms: round(),
        hit_ms: round(),
        ..Default::default()
    };
    drop(connection);

    let engine = LusailEngine::new(stage.federation.clone(), engine_config());
    for (text, miss_ms) in chosen.iter().zip(&probe.miss_ms) {
        let parsed = parse_query(text).expect("catalog query parses");
        engine.execute(&parsed).expect("probe query succeeds");
        let t = Instant::now();
        let (rel, profile) = engine
            .execute_profiled(&parsed)
            .expect("probe query succeeds");
        probe.overhead_ms.push(miss_ms - ms_since(t));
        black_box(rel);
        probe.profiles.push(profile);
    }
    drop(engine);
    if let Some(front) = temporary {
        front.close();
    }
    probe
}
