//! Failure injection: how the engines behave against endpoints that
//! enforce real-server operational limits (the paper's Table 2 runs
//! against real public endpoints, where FedX hits runtime exceptions and
//! zero-results errors).

use integration::{assert_same_solutions, RecordingEndpoint};
use lusail_baselines::{FedX, FedXConfig, FederatedEngine};
use lusail_core::{EngineError, LusailConfig, LusailEngine, ResultPolicy};
use lusail_federation::{
    EndpointLimits, FaultProfile, FaultyEndpoint, Federation, HttpConfig, HttpEndpoint,
    NetworkProfile, ReplicaConfig, ReplicaGroup, SimulatedEndpoint, SparqlEndpoint,
};
use lusail_rdf::{Graph, Term};
use lusail_server::{ServerConfig, SparqlServer};
use lusail_sparql::parse_query;
use lusail_sparql::solution::Relation;
use lusail_store::Store;
use lusail_workloads::{federation_from_graphs, federation_from_graphs_limited, largerdf};
use std::sync::Arc;

fn chain_graphs(n: usize) -> Vec<(String, Graph)> {
    // Endpoint "left" holds n links with long IRIs; "right" holds many
    // more details (so SAPE delays the weight subquery and bound-joins it
    // on the ?d values found on the left).
    let mut g1 = Graph::new();
    let mut g2 = Graph::new();
    for i in 0..n {
        let left = Term::iri(format!(
            "http://left.example.org/some/rather/long/entity/path/item-number-{i:05}"
        ));
        let right = Term::iri(format!(
            "http://right.example.org/some/rather/long/entity/path/detail-number-{i:05}"
        ));
        g1.add(left.clone(), Term::iri("http://x/linked"), right.clone());
    }
    for i in 0..n * 6 {
        let right = Term::iri(format!(
            "http://right.example.org/some/rather/long/entity/path/detail-number-{i:05}"
        ));
        g2.add(right, Term::iri("http://x/weight"), Term::integer(i as i64));
    }
    vec![("left".to_string(), g1), ("right".to_string(), g2)]
}

const CHAIN_QUERY: &str =
    "SELECT ?s ?d ?w WHERE { ?s <http://x/linked> ?d . ?d <http://x/weight> ?w }";

#[test]
fn lusail_respects_request_size_limits_via_block_chunking() {
    // 600 bindings × ~75-byte IRIs would blow an 8 KiB request in one
    // VALUES block; byte-capped chunking must keep every request legal.
    let graphs = chain_graphs(600);
    let fed = federation_from_graphs_limited(
        graphs,
        NetworkProfile::instant(),
        EndpointLimits {
            max_request_bytes: Some(8_192),
            max_result_rows: None,
        },
    );
    let engine = LusailEngine::new(fed, LusailConfig::default());
    let q = parse_query(CHAIN_QUERY).unwrap();
    let rel = engine.execute(&q).unwrap();
    assert_eq!(rel.len(), 600);
}

#[test]
fn oversized_block_config_surfaces_endpoint_error() {
    // A 2 KiB ceiling is read from the endpoints like any other: 600
    // bindings go out in blocks that fit it.
    let limits = EndpointLimits {
        max_request_bytes: Some(2_048),
        max_result_rows: None,
    };
    let q = parse_query(CHAIN_QUERY).unwrap();
    let fed = federation_from_graphs_limited(chain_graphs(600), NetworkProfile::instant(), limits);
    let engine = LusailEngine::new(fed, LusailConfig::default());
    assert_eq!(engine.execute(&q).unwrap().len(), 600);

    // A single binding larger than the ceiling cannot be cut any smaller:
    // it ships alone, and the engine must report the endpoint's rejection
    // instead of silently dropping the binding.
    let mut graphs = chain_graphs(60);
    let huge = Term::iri(format!("http://right.example.org/{}", "x".repeat(3_000)));
    graphs[0].1.add(
        Term::iri("http://left.example.org/huge"),
        Term::iri("http://x/linked"),
        huge.clone(),
    );
    graphs[1]
        .1
        .add(huge, Term::iri("http://x/weight"), Term::integer(-1));
    let fed = federation_from_graphs_limited(graphs, NetworkProfile::instant(), limits);
    let engine = LusailEngine::new(fed, LusailConfig::default());
    match engine.execute(&q) {
        Err(EngineError::Endpoint(e)) => assert!(e.message.contains("exceeds"), "{e}"),
        other => panic!("expected endpoint error, got {other:?}"),
    }
}

/// A simulated endpoint over `graph`, limited to `max_request_bytes`.
fn limited(name: &str, graph: &Graph, max_request_bytes: Option<usize>) -> Arc<dyn SparqlEndpoint> {
    Arc::new(
        SimulatedEndpoint::new(name, Store::from_graph(graph), NetworkProfile::instant())
            .with_limits(EndpointLimits {
                max_request_bytes,
                max_result_rows: None,
            }),
    )
}

/// The chain query's answer over an unlimited federation of `graphs`.
fn unlimited_answer(graphs: Vec<(String, Graph)>) -> Relation {
    let fed = federation_from_graphs(graphs, NetworkProfile::instant());
    LusailEngine::new(fed, LusailConfig::default())
        .execute(&parse_query(CHAIN_QUERY).unwrap())
        .unwrap()
}

#[test]
fn a_wave_over_limited_and_unlimited_sources_fits_the_smaller_ceiling() {
    // The weights live at two endpoints, so each VALUES block goes to
    // both: one accepts 2 KiB requests, the other anything.
    let mut graphs = chain_graphs(600);
    let mut odd = Graph::new();
    for i in (1..3_600).step_by(2) {
        let right = Term::iri(format!(
            "http://right.example.org/some/rather/long/entity/path/detail-number-{i:05}"
        ));
        odd.add(
            right,
            Term::iri("http://x/weight"),
            Term::integer(-(i as i64)),
        );
    }
    graphs.push(("right-odd".to_string(), odd));
    let (recorders, fed) = RecordingEndpoint::federation(
        graphs
            .iter()
            .map(|(name, g)| limited(name, g, (name == "right").then_some(2_048))),
    );
    let engine = LusailEngine::new(fed, LusailConfig::default());
    let rel = engine.execute(&parse_query(CHAIN_QUERY).unwrap()).unwrap();
    assert_same_solutions("limited vs unlimited", &rel, &unlimited_answer(graphs));
    assert_eq!(rel.len(), 900);
    // Requests of one wave arrive in any order.
    let sorted = |mut requests: Vec<String>| {
        requests.sort();
        requests
    };
    let (at_limited, at_unlimited) = (
        sorted(recorders[1].bound_requests()),
        sorted(recorders[2].bound_requests()),
    );
    assert!(!at_limited.is_empty());
    assert_eq!(at_limited, at_unlimited, "the same blocks go to both");
    assert!(at_unlimited.iter().all(|q| q.len() <= 2_048));
}

#[test]
fn a_replica_group_carries_what_its_most_limited_member_does() {
    let graphs = chain_graphs(600);
    let group = ReplicaGroup::new(
        "right",
        vec![
            limited("right-a", &graphs[1].1, Some(8_192)),
            limited("right-b", &graphs[1].1, Some(2_048)),
            limited("right-c", &graphs[1].1, None),
        ],
        ReplicaConfig::default(),
    );
    assert_eq!(group.max_request_bytes(), Some(2_048));
    let right = Arc::new(RecordingEndpoint::new(Arc::new(group)));
    let fed = Federation::new(vec![limited("left", &graphs[0].1, None), right.clone()]);
    let engine = LusailEngine::new(fed, LusailConfig::default());
    let rel = engine.execute(&parse_query(CHAIN_QUERY).unwrap()).unwrap();
    assert_same_solutions("replica group", &rel, &unlimited_answer(graphs));
    let bound = right.bound_requests();
    assert!(!bound.is_empty());
    assert!(
        bound.iter().all(|q| q.len() <= 2_048),
        "any member may serve"
    );
}

#[test]
fn a_fault_wrapper_forwards_the_ceiling_of_the_endpoint_it_wraps() {
    let graphs = chain_graphs(600);
    let right = FaultyEndpoint::new(
        limited("right", &graphs[1].1, Some(2_048)),
        7,
        FaultProfile::none(),
    );
    assert_eq!(right.max_request_bytes(), Some(2_048));
    let fed = Federation::new(vec![limited("left", &graphs[0].1, None), Arc::new(right)]);
    let engine = LusailEngine::new(fed, LusailConfig::default());
    let rel = engine.execute(&parse_query(CHAIN_QUERY).unwrap()).unwrap();
    assert_same_solutions("fault wrapper", &rel, &unlimited_answer(graphs));
}

#[test]
fn http_get_blocks_fit_the_request_line() {
    // Real servers that accept 3000-byte queries. A POST body has no
    // ceiling the client knows of; a GET sizes its blocks so that the
    // percent-encoded request line fits, which keeps the query under
    // the servers' limit too.
    let graphs = chain_graphs(600);
    let handles: Vec<_> = graphs
        .iter()
        .map(|(_, g)| {
            let config = ServerConfig {
                max_query_bytes: 3_000,
                ..Default::default()
            };
            SparqlServer::bind("127.0.0.1:0", Store::from_graph(g), config)
                .expect("bind ephemeral port")
                .spawn()
        })
        .collect();
    let (recorders, fed) =
        RecordingEndpoint::federation(graphs.iter().zip(&handles).map(|((name, _), handle)| {
            let http = HttpEndpoint::new(name.clone(), &handle.url())
                .expect("valid loopback URL")
                .with_config(HttpConfig {
                    use_get: true,
                    ..Default::default()
                });
            Arc::new(http) as Arc<dyn SparqlEndpoint>
        }));
    let engine = LusailEngine::new(fed, LusailConfig::default());
    let rel = engine.execute(&parse_query(CHAIN_QUERY).unwrap()).unwrap();
    assert_same_solutions("http get", &rel, &unlimited_answer(graphs));
    let bound = recorders[1].bound_requests();
    assert!(bound.len() > 1, "600 bindings do not fit one request line");
    for q in &bound {
        let line = lusail_federation::http::percent_encode(q).len();
        assert!(line < 8_192 - 32, "request line of {line} bytes");
    }
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn fedx_also_propagates_endpoint_errors() {
    // FedX's grouped query with a large VALUES block (big bind_block_size)
    // trips the same limit.
    let graphs = chain_graphs(600);
    let fed = federation_from_graphs_limited(
        graphs,
        NetworkProfile::instant(),
        EndpointLimits {
            max_request_bytes: Some(2_048),
            max_result_rows: None,
        },
    );
    let fedx = FedX::new(
        fed,
        FedXConfig {
            bind_block_size: 500,
            ..Default::default()
        },
    );
    let q = parse_query(CHAIN_QUERY).unwrap();
    assert!(matches!(fedx.execute(&q), Err(EngineError::Endpoint(_))));
    // With its standard small blocks, FedX stays under the limit.
    let graphs = chain_graphs(600);
    let fed = federation_from_graphs_limited(
        graphs,
        NetworkProfile::instant(),
        EndpointLimits {
            max_request_bytes: Some(2_048),
            max_result_rows: None,
        },
    );
    let fedx = FedX::new(fed, FedXConfig::default());
    assert_eq!(fedx.execute(&q).unwrap().len(), 600);
}

#[test]
fn lusail_answers_c9_under_real_server_limits() {
    // The Table 2 scenario: LargeRDFBench C9 against endpoints with an
    // 8 KiB request ceiling. Lusail must still answer correctly.
    let cfg = largerdf::LargeRdfConfig {
        scale: 0.5,
        ..Default::default()
    };
    let graphs = largerdf::generate_all(&cfg);
    let limited = federation_from_graphs_limited(
        graphs.clone(),
        NetworkProfile::instant(),
        EndpointLimits {
            max_request_bytes: Some(8_192),
            max_result_rows: Some(100_000),
        },
    );
    let engine = LusailEngine::new(limited, LusailConfig::default());
    let q = largerdf::all_queries()
        .into_iter()
        .find(|q| q.name == "C9")
        .unwrap()
        .parse();
    let limited_result = engine.execute(&q).unwrap();

    let unlimited = LusailEngine::new(
        lusail_workloads::federation_from_graphs(graphs, NetworkProfile::instant()),
        LusailConfig::default(),
    );
    let unlimited_result = unlimited.execute(&q).unwrap();
    assert_eq!(limited_result.len(), unlimited_result.len());
    assert!(!limited_result.is_empty());
}

#[test]
fn a_union_branch_on_a_dying_endpoint_fails_the_query_or_degrades_only_itself() {
    // Branch one is answered by "a" alone. Branch two's only source, "b",
    // answers the analysis probe and is dead from then on: the query's
    // outcome is branch two's failure, whichever branch's thread ran
    // first, and under --partial branch one's rows with one warning.
    let mut a = Graph::new();
    let mut b = Graph::new();
    for i in 0..40 {
        let s = Term::iri(format!("http://x/s{i}"));
        a.add(s.clone(), Term::iri("http://x/p"), Term::integer(i));
        b.add(s, Term::iri("http://x/q"), Term::integer(-i));
    }
    let engine = |threads, result_policy| {
        let simulated = |name: &str, g: &Graph| {
            let network = NetworkProfile {
                latency: std::time::Duration::from_millis(1),
                bytes_per_sec: u64::MAX,
            };
            Arc::new(SimulatedEndpoint::new(name, Store::from_graph(g), network))
        };
        let dying = FaultyEndpoint::new(simulated("b", &b), 7, FaultProfile::dies_after(1));
        let federation = Federation::new(vec![
            simulated("a", &a) as Arc<dyn SparqlEndpoint>,
            Arc::new(dying),
        ]);
        let config = LusailConfig {
            threads,
            result_policy,
            ..Default::default()
        };
        LusailEngine::new(federation, config)
    };
    let q =
        parse_query("SELECT ?s ?v WHERE { { ?s <http://x/p> ?v } UNION { ?s <http://x/q> ?v } }")
            .unwrap();
    for repeat in 0..20 {
        for threads in [None, Some(1)] {
            match engine(threads, ResultPolicy::FailFast).execute(&q) {
                Err(EngineError::Endpoint(e)) => assert_eq!(e.endpoint, "b", "{e}"),
                other => panic!("repeat {repeat}, threads {threads:?}: {other:?}"),
            }
            let (rel, profile) = engine(threads, ResultPolicy::Partial)
                .execute_profiled(&q)
                .unwrap();
            assert_eq!(rel.len(), 40, "repeat {repeat}, threads {threads:?}");
            let warned: Vec<&str> = (profile.warnings.iter())
                .map(|w| w.endpoint.as_str())
                .collect();
            assert_eq!(warned, ["b"], "{:?}", profile.warnings);
        }
    }
}
