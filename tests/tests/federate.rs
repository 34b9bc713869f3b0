//! End-to-end tests for the federation service (`lusail serve
//! --federate`): real backend `lusail-server` processes on loopback
//! ports, a front-door service executing the full LADE/SAPE pipeline,
//! and raw HTTP clients on the other side.
//!
//! Covered here, mirroring the service's contract:
//! * parallel clients all receive exactly the single-shot answer;
//! * a repeated hot query is served from the shared result cache with
//!   **zero** outbound endpoint requests (asserted via the backends'
//!   request counters);
//! * a saturated admission pool sheds with 503 + `Retry-After`, never
//!   exceeds the configured ledger count, and keeps serving cached
//!   answers while saturated;
//! * one client cannot exceed its in-flight quota (429);
//! * chaos: a dead endpoint (chosen by `LUSAIL_CHAOS_SEED`) behind the
//!   service still yields partial results with warnings to the client.

use integration::{assert_same_solutions, ground_truth};
use lusail_cli::{parse_args, start_federated_server, Command};
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::{
    Federation, HttpEndpoint, NetworkProfile, SimulatedEndpoint, SparqlEndpoint,
};
use lusail_rdf::{Graph, Term};
use lusail_server::federate::{FederateConfig, FederationService};
use lusail_server::{ServerConfig, ServerHandle, SparqlServer};
use lusail_store::Store;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn chaos_seed() -> u64 {
    std::env::var("LUSAIL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Three graphs whose answers require cross-endpoint joins: people on one
/// endpoint, advisor edges on another, departments on a third.
fn shards() -> Vec<(String, Graph)> {
    let mut people = Graph::new();
    let mut advisors = Graph::new();
    let mut depts = Graph::new();
    for i in 0..5 {
        people.add(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/name"),
            Term::literal(format!("name-{i}")),
        );
    }
    for i in 0..3 {
        advisors.add(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/advisor"),
            Term::iri(format!("http://x/a{i}")),
        );
        depts.add(
            Term::iri(format!("http://x/a{i}")),
            Term::iri("http://x/dept"),
            Term::iri(format!("http://x/d{}", i % 2)),
        );
    }
    vec![
        ("people".to_string(), people),
        ("advisors".to_string(), advisors),
        ("depts".to_string(), depts),
    ]
}

const QUERIES: &[&str] = &[
    "SELECT ?s ?n WHERE { ?s <http://x/name> ?n }",
    "SELECT ?s ?a WHERE { ?s <http://x/advisor> ?a }",
    "SELECT ?n ?d WHERE { ?s <http://x/name> ?n . ?s <http://x/advisor> ?a . \
     ?a <http://x/dept> ?d }",
];

/// One `lusail-server` per shard; returns the handles and their URLs.
fn backend_servers(graphs: &[(String, Graph)]) -> (Vec<ServerHandle>, Vec<String>) {
    let mut handles = Vec::new();
    let mut urls = Vec::new();
    for (_, g) in graphs {
        let server =
            SparqlServer::bind("127.0.0.1:0", Store::from_graph(g), ServerConfig::default())
                .expect("bind ephemeral port");
        let handle = server.spawn();
        urls.push(handle.url());
        handles.push(handle);
    }
    (handles, urls)
}

/// `lusail serve --federate` over `urls` plus `flags`, started from argv as
/// the binary parses it; returns the handle and the endpoint count.
fn front_door(urls: &[String], flags: &[&str]) -> (ServerHandle, usize) {
    let mut args: Vec<String> = ["serve", "--federate"]
        .iter()
        .chain(flags)
        .map(|a| a.to_string())
        .collect();
    for url in urls {
        args.extend(["--endpoint".to_string(), url.clone()]);
    }
    match parse_args(&args).expect("front-door flags parse") {
        Command::Federate {
            federation,
            addr,
            server,
            service,
        } => {
            start_federated_server(&federation, &addr, server, service).expect("front door starts")
        }
        other => panic!("serve --federate parsed as {other:?}"),
    }
}

/// Raw one-shot HTTP exchange; returns (status line, full response text).
fn raw_roundtrip(addr: SocketAddr, request: &str) -> (String, String) {
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.write_all(request.as_bytes()).expect("send");
    let mut text = String::new();
    sock.read_to_string(&mut text).expect("read");
    let status = text.lines().next().unwrap_or("").to_string();
    (status, text)
}

fn get_request(query: &str) -> String {
    format!(
        "GET /sparql?query={} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        lusail_federation::http::percent_encode(query)
    )
}

/// Pull `"key":N` out of a flat JSON blob.
fn json_u64(text: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let start = text
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {text}"))
        + needle.len();
    text[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {key} in {text}"))
}

#[test]
fn parallel_clients_all_get_the_single_shot_answer() {
    let graphs = shards();
    let (backends, urls) = backend_servers(&graphs);
    // Every loopback client shares the peer-IP identity; keep the quota
    // out of this test's way.
    let (front, endpoints) = front_door(&urls, &["--workers", "4", "--client-max-inflight", "64"]);
    assert_eq!(endpoints, 3);

    // The single-shot reference: the same federation queried by one
    // in-process engine run per query (what `lusail query` would print).
    let sim_fed = {
        let eps: Vec<Arc<dyn SparqlEndpoint>> = graphs
            .iter()
            .map(|(name, g)| {
                Arc::new(SimulatedEndpoint::new(
                    name.clone(),
                    Store::from_graph(g),
                    NetworkProfile::instant(),
                )) as Arc<dyn SparqlEndpoint>
            })
            .collect();
        Federation::new(eps)
    };
    let single_shot = LusailEngine::new(sim_fed, LusailConfig::default());

    let front_url = front.url();
    std::thread::scope(|scope| {
        for client in 0..6 {
            let front_url = &front_url;
            let graphs = &graphs;
            let single_shot = &single_shot;
            scope.spawn(move || {
                let ep = HttpEndpoint::new(format!("client-{client}"), front_url)
                    .expect("valid front-door URL");
                for (qi, text) in QUERIES.iter().enumerate() {
                    let query = lusail_sparql::parse_query(text).expect("test query parses");
                    let via_service = ep.select(&query).expect("service answers");
                    assert_same_solutions(
                        &format!("client {client} q{qi} vs single-shot"),
                        &via_service,
                        &single_shot.execute(&query).expect("single-shot runs"),
                    );
                    assert_same_solutions(
                        &format!("client {client} q{qi} vs ground truth"),
                        &via_service,
                        &ground_truth(graphs, &query),
                    );
                }
            });
        }
    });
    front.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn hot_query_is_answered_with_zero_outbound_requests() {
    let graphs = shards();
    let (backends, urls) = backend_servers(&graphs);
    let (front, _) = front_door(&urls, &["--workers", "2"]);

    let ep = HttpEndpoint::new("client", &front.url()).expect("valid front-door URL");
    let query = lusail_sparql::parse_query(QUERIES[2]).expect("test query parses");
    let first = ep.select(&query).expect("cold query runs");
    assert!(!first.is_empty(), "the join must produce rows");

    // The acceptance bar: the repeat must not cost a single outbound
    // endpoint request — each backend's own counter stays frozen.
    let before: Vec<u64> = backends.iter().map(|b| b.requests_served()).collect();
    let second = ep.select(&query).expect("hot query runs");
    let after: Vec<u64> = backends.iter().map(|b| b.requests_served()).collect();
    assert_same_solutions("hot-vs-cold", &second, &first);
    assert_eq!(
        before, after,
        "a result-cache hit must reach no backend endpoint"
    );

    let (status, stats) = raw_roundtrip(
        front.local_addr(),
        "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains("200"), "{stats}");
    assert!(json_u64(&stats, "hits") >= 1, "{stats}");
    front.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// A service whose pool the test can drain directly: one ledger, no queue.
fn tiny_pool_service(latency: Duration) -> (Arc<FederationService>, lusail_server::ServerHandle) {
    let mut g = Graph::new();
    for i in 0..4 {
        g.add(
            Term::iri(format!("http://x/s{i}")),
            Term::iri("http://x/p"),
            Term::iri(format!("http://x/o{i}")),
        );
    }
    let ep = SimulatedEndpoint::new(
        "slowish",
        Store::from_graph(&g),
        NetworkProfile {
            latency,
            ..NetworkProfile::instant()
        },
    );
    let engine = LusailEngine::new(Federation::new(vec![Arc::new(ep)]), LusailConfig::default());
    let service = Arc::new(FederationService::new(
        engine,
        FederateConfig {
            pool_bytes: 4096,
            query_budget_bytes: 4096, // exactly one ledger
            max_waiting: 0,
            queue_timeout: Duration::from_millis(50),
            client_max_inflight: 1,
            ..Default::default()
        },
    ));
    let server = SparqlServer::with_backend(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn lusail_server::QueryBackend>,
        ServerConfig::default(),
    )
    .expect("bind front door");
    (service, server.spawn())
}

#[test]
fn saturated_service_sheds_503_but_keeps_serving_cached_answers() {
    let (service, front) = tiny_pool_service(Duration::ZERO);
    let addr = front.local_addr();
    let hot = "SELECT ?s WHERE { ?s <http://x/p> ?o }";

    // Prime the result cache while the pool is healthy.
    let (status, _) = raw_roundtrip(addr, &get_request(hot));
    assert!(status.contains("200"), "{status}");

    // Drain the pool: hold its only ledger, as a long-running query would.
    let held = service.pool().try_carve().expect("the pool starts full");

    // A fresh query cannot be admitted: explicit shed, with Retry-After.
    let cold = "SELECT ?s WHERE { ?s <http://x/p> <http://x/o1> }";
    let (status, text) = raw_roundtrip(addr, &get_request(cold));
    assert!(status.contains("503"), "{text}");
    assert!(text.contains("Retry-After:"), "{text}");
    assert!(text.contains("service saturated"), "{text}");

    // …but the hot query still flows: cache hits never need a ledger.
    let (status, text) = raw_roundtrip(addr, &get_request(hot));
    assert!(
        status.contains("200"),
        "cached answer under saturation: {text}"
    );

    drop(held);
    // With the ledger back, the shed query is admitted and runs.
    let (status, _) = raw_roundtrip(addr, &get_request(cold));
    assert!(status.contains("200"), "{status}");

    // The pool invariant: ledgers outstanding never exceeded the pool.
    let stats = service.pool().stats();
    assert!(stats.shed >= 1);
    assert!(
        stats.peak_ledgers <= service.pool().max_ledgers(),
        "peak {} vs max {}",
        stats.peak_ledgers,
        service.pool().max_ledgers()
    );
    assert!(front.stats().shed >= 1, "the shed shows in server counters");
    front.shutdown();
}

#[test]
fn one_client_cannot_exceed_its_inflight_quota() {
    // A slow endpoint so the first query reliably holds its quota slot
    // while the second arrives (every loopback client shares the peer-IP
    // identity, and the quota is one in flight).
    let (_service, front) = tiny_pool_service(Duration::from_millis(200));
    let addr = front.local_addr();

    let slow = get_request("SELECT ?s WHERE { ?s <http://x/p> ?o }");
    let racer = std::thread::spawn(move || raw_roundtrip(addr, &slow).0);
    std::thread::sleep(Duration::from_millis(60));
    let (status, text) = raw_roundtrip(
        addr,
        &get_request("SELECT ?o WHERE { <http://x/s2> <http://x/p> ?o }"),
    );
    assert!(status.contains("429"), "{text}");
    assert!(text.contains("Retry-After:"), "{text}");
    assert!(text.contains("in flight"), "{text}");
    let first = racer.join().expect("racer thread");
    assert!(first.contains("200"), "{first}");
    assert!(front.stats().shed >= 1, "429s count as sheds");
    front.shutdown();
}

#[test]
fn dead_endpoint_still_yields_partial_results_with_warnings() {
    let graphs = shards();
    let (mut backends, mut urls) = backend_servers(&graphs);

    // The seed picks which endpoint dies; its port is bound then freed so
    // connections are refused outright.
    let victim = (chaos_seed() as usize) % urls.len();
    let dead_port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        l.local_addr().expect("probe addr").port()
    };
    backends.remove(victim).shutdown();
    urls[victim] = format!("http://127.0.0.1:{dead_port}/sparql");
    let live_graphs: Vec<(String, Graph)> = graphs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, g)| g.clone())
        .collect();

    let (front, _) = front_door(
        &urls,
        &[
            "--workers",
            "2",
            "--retries",
            "0",
            "--backoff",
            "1",
            "--partial",
        ],
    );

    // A query that only needs the two survivors must answer exactly as if
    // the victim never existed — and the response head must say what was
    // skipped.
    let survivor_query = match victim {
        0 => "SELECT ?s ?a WHERE { ?s <http://x/advisor> ?a }",
        _ => "SELECT ?s ?n WHERE { ?s <http://x/name> ?n }",
    };
    let query = lusail_sparql::parse_query(survivor_query).expect("test query parses");
    let ep = HttpEndpoint::new("client", &front.url()).expect("valid front-door URL");
    let rel = ep.select(&query).expect("partial mode still answers");
    assert_same_solutions(
        &format!("partial-vs-live (victim {victim})"),
        &rel,
        &ground_truth(&live_graphs, &query),
    );
    assert!(!rel.is_empty(), "the survivors hold rows for this query");

    let (status, text) = raw_roundtrip(front.local_addr(), &get_request(survivor_query));
    assert!(status.contains("200"), "{text}");
    assert!(
        text.contains("\"warnings\""),
        "the degradation must be declared in the head: {text}"
    );
    assert!(text.contains("skipped"), "{text}");

    // Degraded answers are never cached: the repeat reaches the live
    // backends again instead of pinning the outage.
    let before: Vec<u64> = backends.iter().map(|b| b.requests_served()).collect();
    let _ = ep.select(&query).expect("repeat still answers");
    let after: Vec<u64> = backends.iter().map(|b| b.requests_served()).collect();
    assert_ne!(
        before, after,
        "a warned result must not be served from the cache"
    );

    front.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// The stats golden: `GET /stats` keeps its key order (suites and
/// operators' scripts grep it), and `lusail query --stats` speaks the same
/// vocabulary — both are printed from one `Json` value built by the
/// structs' own `to_json`.
#[test]
fn stats_document_key_order_and_text_parity() {
    use lusail_federation::json::{render_text, Json};
    use lusail_federation::{FaultProfile, FaultyEndpoint, ReplicaConfig, ReplicaGroup};

    // Two simulated endpoints — one silently capping at 2 rows, so the
    // integrity section has a row — and one replica group of two HTTP
    // mirrors, so codec and members have rows.
    let graphs = shards();
    let simulated = |i: usize| {
        Arc::new(SimulatedEndpoint::new(
            graphs[i].0.clone(),
            Store::from_graph(&graphs[i].1),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>
    };
    let mirror_graphs = vec![graphs[2].clone(), graphs[2].clone()];
    let (mirrors, urls) = backend_servers(&mirror_graphs);
    let members = urls
        .iter()
        .map(|u| Arc::new(HttpEndpoint::new(u, u).expect("valid url")) as Arc<dyn SparqlEndpoint>)
        .collect();
    let federation = Federation::new(vec![
        Arc::new(FaultyEndpoint::new(
            simulated(0),
            chaos_seed(),
            FaultProfile::silent_truncate(2),
        )),
        simulated(1),
        Arc::new(ReplicaGroup::new(
            "depts",
            members,
            ReplicaConfig::default(),
        )),
    ]);
    let service = Arc::new(FederationService::new(
        LusailEngine::new(
            federation,
            LusailConfig {
                verify_every_response: true,
                ..Default::default()
            },
        ),
        FederateConfig::default(),
    ));
    let front = SparqlServer::with_backend(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn lusail_server::QueryBackend>,
        ServerConfig::default(),
    )
    .expect("bind front door")
    .spawn();
    let (status, text) = raw_roundtrip(front.local_addr(), &get_request(QUERIES[2]));
    assert!(status.contains("200"), "{text}");

    let (status, text) = raw_roundtrip(
        front.local_addr(),
        "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
    );
    assert!(status.contains("200"), "{text}");
    let body = text.split("\r\n\r\n").nth(1).expect("a body");
    let doc = Json::parse(body).expect("GET /stats is JSON");
    let at = |path: &[&str]| {
        path.iter().fold(&doc, |node, key| {
            node.get(key)
                .unwrap_or_else(|| panic!("{path:?} in {body}"))
        })
    };
    let keys = |path: &[&str]| -> Vec<&str> {
        at(path).fields().iter().map(|(k, _)| k.as_str()).collect()
    };
    const HEALTH: [&str; 7] = [
        "admitted",
        "failures",
        "retries",
        "open_rejections",
        "breaker",
        "latency_ewma_ms",
        "quarantined",
    ];
    const TRAFFIC: [&str; 4] = [
        "requests",
        "bytes_sent",
        "bytes_received",
        "simulated_network_ms",
    ];
    const CODEC: [&str; 7] = [
        "negotiated",
        "binary_responses",
        "json_responses",
        "binary_bytes_in",
        "json_bytes_in",
        "dict_terms",
        "fallbacks",
    ];
    assert_eq!(keys(&[]), ["endpoint", "requests", "service"]);
    assert_eq!(keys(&["requests"]), ["served", "shed", "errors"]);
    assert_eq!(
        keys(&["service"]),
        [
            "pool",
            "result_cache",
            "analysis_cache",
            "clients",
            "lifecycle",
            "codec",
            "integrity",
            "endpoints",
            "erh"
        ]
    );
    assert_eq!(
        keys(&["service", "pool"]),
        [
            "capacity",
            "ledger_bytes",
            "max_ledgers",
            "in_use",
            "waiting",
            "carved",
            "queued",
            "shed",
            "peak_ledgers"
        ]
    );
    assert_eq!(
        keys(&["service", "result_cache"]),
        [
            "entries",
            "hits",
            "misses",
            "insertions",
            "evictions",
            "expirations",
            "invalidations"
        ]
    );
    assert_eq!(
        keys(&["service", "analysis_cache"]),
        [
            "entries",
            "hits",
            "misses",
            "insertions",
            "evictions",
            "expirations",
            "invalidations"
        ]
    );
    assert_eq!(keys(&["service", "clients"]), ["127.0.0.1"]);
    assert_eq!(
        keys(&["service", "clients", "127.0.0.1"]),
        ["inflight", "admitted", "rejected", "cache_hits"]
    );
    assert_eq!(
        keys(&["service", "lifecycle"]),
        [
            "inflight",
            "cancelled",
            "watchdog_reaps",
            "panics_contained",
            "drains",
            "drain_force_cancelled"
        ]
    );
    assert_eq!(
        keys(&["service", "lifecycle", "cancelled"]),
        [
            "client_disconnected",
            "admin_cancelled",
            "watchdog_reaped",
            "server_draining"
        ]
    );
    assert_eq!(
        keys(&["service", "codec"]),
        [&CODEC[..], &["endpoints"]].concat()
    );
    assert_eq!(keys(&["service", "codec", "endpoints"]), ["depts"]);
    assert_eq!(keys(&["service", "codec", "endpoints", "depts"]), CODEC);
    // Paranoid mode verifies everyone; rows sort by name.
    assert_eq!(
        keys(&["service", "integrity"]),
        ["advisors", "depts", "people"]
    );
    assert_eq!(
        keys(&["service", "integrity", "people"]),
        [
            "verifications",
            "truncations_detected",
            "pages_fetched",
            "rows_recovered",
            "count_divergences",
            "quarantine_entries",
            "quarantine_exits",
            "quarantined",
            "learned_cap"
        ]
    );
    assert_eq!(
        keys(&["service", "endpoints"]),
        ["people", "advisors", "depts"]
    );
    let row = [&TRAFFIC[..], &HEALTH[..]].concat();
    assert_eq!(keys(&["service", "endpoints", "people"]), row);
    assert_eq!(keys(&["service", "endpoints", "advisors"]), row);
    assert_eq!(
        keys(&["service", "endpoints", "depts"]),
        [&row[..], &["members"]].concat()
    );
    let members = keys(&["service", "endpoints", "depts", "members"]);
    assert_eq!(members, [urls[0].as_str(), urls[1].as_str()]);
    assert_eq!(
        keys(&["service", "endpoints", "depts", "members", members[0]]),
        [
            &["dispatches", "failovers", "hedges_launched", "hedges_won"][..],
            &HEALTH[..]
        ]
        .concat()
    );
    assert_eq!(
        keys(&["service", "erh"]),
        ["waves", "peak_width", "floor", "ceiling"]
    );
    // What an operator could not see before: the capping endpoint's
    // recovery, and which mirror carried the group.
    let zero = Json::Number(0.0);
    let truncations = ["service", "integrity", "people", "truncations_detected"];
    assert_ne!(at(&truncations), &zero, "{body}");
    let carried = |member: &&str| {
        at(&[
            "service",
            "endpoints",
            "depts",
            "members",
            member,
            "dispatches",
        ]) != &zero
    };
    assert!(members.iter().any(carried), "{body}");

    // Parity: every key (and row label) of the engine's document is a
    // label in the text `--stats` prints from the same value.
    fn labels(doc: &Json, into: &mut Vec<String>) {
        for (key, value) in doc.fields() {
            into.push(key.clone());
            labels(value, into);
        }
    }
    let stats = service.engine().stats();
    let mut rendered = Vec::new();
    render_text(&mut rendered, &stats).expect("write to a Vec");
    let rendered = String::from_utf8(rendered).expect("utf-8");
    let mut wanted = Vec::new();
    labels(&stats, &mut wanted);
    assert!(wanted.len() > 60, "{wanted:?}");
    for label in wanted {
        let (section, pair) = (format!("{label}:"), format!("{label}="));
        let named = |word: &str| word == section || word.starts_with(&pair);
        assert!(
            rendered.split_whitespace().any(named),
            "{label} missing from:\n{rendered}"
        );
    }

    front.shutdown();
    for m in mirrors {
        m.shutdown();
    }
}

/// The analysis probes a recorder received, in order, and whether each
/// carried the endpoint's vocabulary lists.
fn probes_listing(recorder: &integration::RecordingEndpoint) -> Vec<bool> {
    let sent = recorder.sent();
    let probes = sent
        .iter()
        .filter(|q| q.starts_with("SELECT * WHERE") && q.contains("(COUNT(*) AS ?c"));
    probes.map(|q| q.contains("SELECT DISTINCT ?p")).collect()
}

/// `POST /cache/invalidate` drops what each endpoint listed with the rest
/// of the analysis cache: the next probe to every endpoint lists again.
#[test]
fn invalidation_makes_the_next_probe_to_each_endpoint_list_again() {
    let graphs = shards();
    let endpoints = graphs.iter().map(|(name, g)| {
        Arc::new(SimulatedEndpoint::new(
            name.clone(),
            Store::from_graph(g),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>
    });
    let (recorders, federation) = integration::RecordingEndpoint::federation(endpoints);
    let engine = LusailEngine::new(federation, LusailConfig::default());
    let service = Arc::new(FederationService::new(engine, FederateConfig::default()));
    let front = SparqlServer::with_backend(
        "127.0.0.1:0",
        Arc::clone(&service) as Arc<dyn lusail_server::QueryBackend>,
        ServerConfig::default(),
    )
    .expect("bind front door")
    .spawn();
    let ask = |query: &str| {
        let (status, text) = raw_roundtrip(front.local_addr(), &get_request(query));
        assert!(status.contains("200"), "{text}");
    };
    let listing = || {
        recorders
            .iter()
            .map(|r| probes_listing(r))
            .collect::<Vec<_>>()
    };

    // Cold: every endpoint is probed once, with its lists.
    ask(QUERIES[2]);
    assert_eq!(listing(), [[true], [true], [true]]);
    // Warm: a new pattern is probed only where its predicate is listed,
    // and lists nothing again.
    ask("SELECT ?a WHERE { ?a <http://x/dept> <http://x/d0> }");
    assert_eq!(listing(), [vec![true], vec![true], vec![true, false]]);

    let (status, text) = raw_roundtrip(
        front.local_addr(),
        "POST /cache/invalidate HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\
         Connection: close\r\n\r\n",
    );
    assert!(status.contains("200"), "{text}");
    ask(QUERIES[1]);
    let after: Vec<Vec<bool>> = listing();
    assert_eq!(
        after,
        [vec![true, true], vec![true, true], vec![true, false, true]]
    );
    front.shutdown();
}
