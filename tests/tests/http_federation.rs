//! Loopback end-to-end tests for the wire-protocol subsystem: real
//! `lusail-server` instances on ephemeral ports, queried through
//! `HttpEndpoint` by the full Lusail engine (LADE decomposition + SAPE
//! scheduling). The HTTP path must produce solutions bit-identical to the
//! simulated in-process federation and to the merged-graph ground truth.

use integration::{assert_same_solutions, ground_truth};
use lusail_core::LusailEngine;
use lusail_federation::{Federation, HttpConfig, HttpEndpoint, NetworkProfile, SparqlEndpoint};
use lusail_rdf::{Graph, Literal, Term};
use lusail_server::{ServerConfig, ServerHandle, SparqlServer};
use lusail_store::Store;
use lusail_workloads::{federation_from_graphs, lubm, qfed};
use std::sync::Arc;

/// Start one `lusail-server` per endpoint graph and wire a federation of
/// HTTP clients to them. The handles keep the servers alive for the test.
fn http_federation(graphs: &[(String, Graph)]) -> (Vec<ServerHandle>, Federation) {
    let mut handles = Vec::new();
    let mut endpoints: Vec<Arc<dyn SparqlEndpoint>> = Vec::new();
    for (name, g) in graphs {
        let server =
            SparqlServer::bind("127.0.0.1:0", Store::from_graph(g), ServerConfig::default())
                .expect("bind ephemeral port");
        let handle = server.spawn();
        endpoints.push(Arc::new(
            HttpEndpoint::new(name.clone(), &handle.url()).expect("valid loopback URL"),
        ));
        handles.push(handle);
    }
    (handles, Federation::new(endpoints))
}

fn shutdown_all(handles: Vec<ServerHandle>) {
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn lubm_over_http_matches_simulated_federation() {
    let graphs = lubm::generate_all(&lubm::LubmConfig::with_universities(3));
    let (handles, http_fed) = http_federation(&graphs);
    assert!(
        handles.len() >= 3,
        "the e2e must span at least three server processes"
    );
    let sim_fed = federation_from_graphs(graphs.clone(), NetworkProfile::instant());

    // Default config = LADE decomposition + full SAPE scheduling.
    let http_engine = LusailEngine::new(http_fed.clone(), Default::default());
    let sim_engine = LusailEngine::new(sim_fed, Default::default());

    for q in lubm::queries() {
        let parsed = q.parse();
        let over_http = http_engine.execute(&parsed).expect(q.name);
        let simulated = sim_engine.execute(&parsed).expect(q.name);
        assert_same_solutions(
            &format!("{} http-vs-simulated", q.name),
            &over_http,
            &simulated,
        );
        assert_same_solutions(
            &format!("{} http-vs-ground-truth", q.name),
            &over_http,
            &ground_truth(&graphs, &parsed),
        );
    }
    let traffic = http_fed.total_traffic();
    assert!(
        traffic.requests > 0,
        "the engine must actually have gone over the wire"
    );
    assert!(traffic.bytes_received > 0);
    shutdown_all(handles);
}

#[test]
fn qfed_over_http_matches_simulated_federation() {
    let graphs = qfed::generate_all(&qfed::QfedConfig::default());
    let (handles, http_fed) = http_federation(&graphs);
    assert_eq!(handles.len(), 4, "QFed federates four life-science sources");
    let sim_fed = federation_from_graphs(graphs.clone(), NetworkProfile::instant());

    let http_engine = LusailEngine::new(http_fed, Default::default());
    let sim_engine = LusailEngine::new(sim_fed, Default::default());

    for q in qfed::queries() {
        let parsed = q.parse();
        let over_http = http_engine.execute(&parsed).expect(q.name);
        let simulated = sim_engine.execute(&parsed).expect(q.name);
        assert!(!over_http.is_empty(), "{} should return solutions", q.name);
        assert_same_solutions(
            &format!("{} http-vs-simulated", q.name),
            &over_http,
            &simulated,
        );
    }
    shutdown_all(handles);
}

#[test]
fn every_term_kind_survives_the_wire() {
    // A deliberately nasty graph: every term kind, JSON-hostile lexical
    // forms, and data split across two endpoints so the engine must join
    // over HTTP.
    let mut left = Graph::new();
    left.add(
        Term::iri("http://a/x?y=1&z=\"2\""),
        Term::iri("http://a/p"),
        Term::literal("line1\nline2\t\"quoted\\\""),
    );
    left.add(
        Term::iri("http://a/x?y=1&z=\"2\""),
        Term::iri("http://a/q"),
        Term::bnode("b0"),
    );
    let mut right = Graph::new();
    right.add(
        Term::iri("http://a/x?y=1&z=\"2\""),
        Term::iri("http://a/r"),
        Term::Literal(Literal::lang("grüße 😀", "de")),
    );
    right.add(
        Term::iri("http://a/x?y=1&z=\"2\""),
        Term::iri("http://a/s"),
        Term::integer(-42),
    );
    let graphs = vec![("left".to_string(), left), ("right".to_string(), right)];

    let (handles, http_fed) = http_federation(&graphs);
    let engine = LusailEngine::new(http_fed, Default::default());
    let query = lusail_sparql::parse_query(
        "SELECT ?v ?b ?l ?n WHERE { \
           ?x <http://a/p> ?v . ?x <http://a/q> ?b . \
           ?x <http://a/r> ?l . ?x <http://a/s> ?n }",
    )
    .unwrap();
    let rel = engine.execute(&query).unwrap();
    assert_same_solutions("nasty-terms", &rel, &ground_truth(&graphs, &query));
    let row = &rel.rows()[0];
    assert_eq!(row[0], Some(Term::literal("line1\nline2\t\"quoted\\\"")));
    assert_eq!(row[2], Some(Term::Literal(Literal::lang("grüße 😀", "de"))));
    assert_eq!(row[3], Some(Term::integer(-42)));
    shutdown_all(handles);
}

#[test]
fn oversized_query_surfaces_as_endpoint_error() {
    let mut g = Graph::new();
    g.add(
        Term::iri("http://x/s"),
        Term::iri("http://x/p"),
        Term::iri("http://x/o"),
    );
    let server = SparqlServer::bind(
        "127.0.0.1:0",
        Store::from_graph(&g),
        ServerConfig {
            max_query_bytes: 128,
            ..Default::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    let ep = HttpEndpoint::new("tiny", &handle.url()).unwrap();

    let small = lusail_sparql::parse_query("ASK { ?s ?p ?o }").unwrap();
    assert!(ep.ask(&small).unwrap());

    let big = lusail_sparql::parse_query(&format!(
        "SELECT ?s WHERE {{ ?s <http://very.long.example.org/{}> ?o }}",
        "p".repeat(200)
    ))
    .unwrap();
    let err = ep.execute(&big).unwrap_err();
    assert_eq!(err.endpoint, "tiny");
    assert!(err.message.contains("413"), "{err}");
    // 4xx is the server rejecting the query — the client must not retry.
    assert_eq!(ep.traffic().requests, 2);
    handle.shutdown();
}

#[test]
fn dead_endpoint_fails_fast_with_transport_error() {
    // Bind then immediately free a port so nothing listens on it.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let ep = HttpEndpoint::new("ghost", &format!("http://127.0.0.1:{port}/sparql"))
        .unwrap()
        .with_config(HttpConfig {
            retries: 1,
            backoff: std::time::Duration::from_millis(1),
            ..Default::default()
        });
    let q = lusail_sparql::parse_query("ASK { ?s ?p ?o }").unwrap();
    let err = ep.execute(&q).unwrap_err();
    assert!(err.message.contains("2 attempts"), "{err}");
    assert!(err.message.contains("transport error"), "{err}");
}

/// A client row cap smaller than an endpoint's vocabulary makes its listing
/// probe fail (`--max-result-rows` rejects the answer while parsing). The
/// counts are asked again without the lists, the vocabulary is cached as
/// unlisted, and no later probe lists or prunes there: every query still
/// answers as the merged graph does.
#[test]
fn a_row_cap_below_the_vocabulary_costs_the_lists_not_the_query() {
    let x = |l: String| Term::iri(format!("http://x/{l}"));
    let mut wide = Graph::new();
    for i in 0..40 {
        wide.add(x(format!("s{i}")), x(format!("p{i}")), x(format!("o{i}")));
    }
    let mut plain = Graph::new();
    plain.add(x("t".into()), x("p3".into()), x("u".into()));
    let graphs = vec![("wide".to_string(), wide), ("plain".to_string(), plain)];
    let mut handles = Vec::new();
    let endpoints = graphs.iter().map(|(name, g)| {
        let server =
            SparqlServer::bind("127.0.0.1:0", Store::from_graph(g), ServerConfig::default())
                .expect("bind ephemeral port");
        let handle = server.spawn();
        let endpoint = HttpEndpoint::new(name.clone(), &handle.url())
            .expect("valid loopback URL")
            .with_config(HttpConfig {
                max_result_rows: Some(10),
                ..Default::default()
            });
        handles.push(handle);
        Arc::new(endpoint) as Arc<dyn SparqlEndpoint>
    });
    let (recorders, federation) = integration::RecordingEndpoint::federation(endpoints);
    let engine = LusailEngine::new(federation, Default::default());
    // Per endpoint, whether each analysis probe carried the lists.
    let listing = || {
        let probes = |r: &integration::RecordingEndpoint| {
            let sent = r.sent().into_iter();
            let probes = sent.filter(|q| q.contains("(COUNT(*) AS ?c"));
            probes
                .map(|q| q.contains("DISTINCT ?p"))
                .collect::<Vec<_>>()
        };
        recorders.iter().map(|r| probes(r)).collect::<Vec<_>>()
    };

    for (i, p) in ["p3", "p7", "p30"].into_iter().enumerate() {
        let q = lusail_sparql::parse_query(&format!("SELECT * WHERE {{ ?s <http://x/{p}> ?o }}"))
            .unwrap();
        let got = engine.execute(&q).expect("the cap fails only the lists");
        assert_same_solutions(p, &got, &ground_truth(&graphs, &q));
        if i == 0 {
            // wide: the listing probe, refused, then the bare one.
            assert_eq!(listing(), [vec![true, false], vec![true]]);
        }
    }
    let cache = engine.cache();
    let vocabulary = |ep| cache.get_vocabulary(ep).expect("both endpoints probed");
    assert_eq!(vocabulary(0).predicates, None, "wide is unlisted");
    assert_eq!(vocabulary(1).predicates.as_ref().map(|l| l.len()), Some(1));
    // Later probes ask wide again (its list prunes nothing), never listing;
    // plain's list spares it p7 and p30.
    assert_eq!(listing(), [vec![true, false, false, false], vec![true]]);
    shutdown_all(handles);
}

/// SPLENDID and HiBISCuS build their index from each endpoint's statistics,
/// which an `HttpEndpoint` does not offer. Over `lusail serve` backends both
/// fail naming the first endpoint, where an empty index would answer wrong:
/// SPLENDID with no rows, HiBISCuS by pruning every source of a pattern with
/// a constant subject. Over `--data` files both answer.
#[test]
fn index_based_engines_refuse_endpoints_without_statistics() {
    let x = |l: &str| Term::iri(format!("http://x/{l}"));
    let mut a = Graph::new();
    a.add(x("a1"), x("knows"), x("b1"));
    let mut b = Graph::new();
    b.add(x("b1"), x("name"), Term::literal("Bob"));
    let graphs = vec![("a".to_string(), a), ("b".to_string(), b)];

    let dir = std::env::temp_dir().join(format!("lusail-unindexed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut data = Vec::new();
    for (name, g) in &graphs {
        let path = dir.join(format!("{name}.nt"));
        std::fs::write(&path, lusail_rdf::ntriples::serialize(g)).unwrap();
        data.extend(["--data".to_string(), path.display().to_string()]);
    }
    let handles: Vec<ServerHandle> = (graphs.iter())
        .map(|(_, g)| {
            SparqlServer::bind("127.0.0.1:0", Store::from_graph(g), ServerConfig::default())
                .expect("bind ephemeral port")
                .spawn()
        })
        .collect();
    let urls: Vec<String> = (handles.iter())
        .flat_map(|h| ["--endpoint".to_string(), h.url()])
        .collect();
    let query = |engine: &str, sources: &[String], text: &str| {
        let mut args: Vec<String> = ["query", "--engine", engine, "--format", "csv"]
            .map(str::to_string)
            .to_vec();
        args.extend(["--query-text".to_string(), text.to_string()]);
        args.extend(sources.iter().cloned());
        let mut out = Vec::new();
        lusail_cli::run(&args, &mut out).map(|()| String::from_utf8(out).unwrap())
    };

    let texts = [
        "SELECT ?n WHERE { ?a <http://x/knows> ?b . ?b <http://x/name> ?n }",
        "SELECT ?n WHERE { <http://x/a1> <http://x/knows> ?b . ?b <http://x/name> ?n }",
    ];
    for engine in ["splendid", "hibiscus"] {
        for text in texts {
            let want = ground_truth(&graphs, &lusail_sparql::parse_query(text).unwrap());
            assert_eq!(want.len(), 1, "{text}");
            let answered = query(engine, &data, text).unwrap_or_else(|e| panic!("{engine}: {e}"));
            let rows: Vec<&str> = answered.lines().skip(1).collect();
            assert_eq!(rows.len(), 1, "{engine} over --data: {answered}");
            assert!(rows[0].contains("Bob"), "{engine} over --data: {answered}");

            match query(engine, &urls, text) {
                Err(lusail_cli::CliError::Engine(lusail_core::EngineError::Endpoint(e))) => {
                    assert_eq!(e.endpoint, handles[0].url(), "{engine}");
                    assert!(e.message.contains("index cannot be built"), "{engine}: {e}");
                }
                other => panic!("{engine} over --endpoint: {other:?}"),
            }
        }
    }
    shutdown_all(handles);
    std::fs::remove_dir_all(&dir).unwrap();
}
