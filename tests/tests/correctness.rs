//! Cross-crate correctness: every federated engine must return exactly the
//! solutions a single store holding the merged decentralized graph returns
//! (Lemmas 1 and 2 of the paper promise this for Lusail).

use integration::{assert_same_solutions, ground_truth, request_rounds, RecordingEndpoint};
use lusail_baselines::{FedX, FedXConfig, FederatedEngine, HiBiscus, Splendid};
use lusail_core::{DelayThreshold, LusailConfig, LusailEngine, SapeMode};
use lusail_federation::{NetworkProfile, SimulatedEndpoint, SparqlEndpoint};
use lusail_store::Store;
use lusail_workloads::{bio2rdf, federation_from_graphs, largerdf, lubm, qfed};
use std::collections::BTreeMap;
use std::sync::Arc;

fn lusail(graphs: Vec<(String, lusail_rdf::Graph)>) -> LusailEngine {
    LusailEngine::new(
        federation_from_graphs(graphs, NetworkProfile::instant()),
        LusailConfig::default(),
    )
}

// ---- LUBM -------------------------------------------------------------

#[test]
fn lusail_matches_ground_truth_on_lubm() {
    let cfg = lubm::LubmConfig::with_universities(4);
    let graphs = lubm::generate_all(&cfg);
    let engine = lusail(graphs.clone());
    for q in lubm::queries() {
        let query = q.parse();
        let actual = engine.execute(&query).unwrap();
        let expected = ground_truth(&graphs, &query);
        assert_same_solutions(q.name, &actual, &expected);
        assert!(!actual.is_empty(), "{} must have answers", q.name);
    }
}

#[test]
fn lusail_matches_ground_truth_on_qa() {
    let cfg = lubm::LubmConfig::with_universities(3);
    let graphs = lubm::generate_all(&cfg);
    let engine = lusail(graphs.clone());
    let q = lubm::query_qa();
    let query = q.parse();
    let actual = engine.execute(&query).unwrap();
    let expected = ground_truth(&graphs, &query);
    assert_same_solutions("Qa", &actual, &expected);
}

#[test]
fn all_engines_agree_on_lubm() {
    let cfg = lubm::LubmConfig::with_universities(2);
    let graphs = lubm::generate_all(&cfg);
    let engines: Vec<Box<dyn FederatedEngine>> = vec![
        Box::new(lusail(graphs.clone())),
        Box::new(FedX::new(
            federation_from_graphs(graphs.clone(), NetworkProfile::instant()),
            FedXConfig::default(),
        )),
        Box::new(Splendid::new(federation_from_graphs(
            graphs.clone(),
            NetworkProfile::instant(),
        ))),
        Box::new(HiBiscus::new(
            federation_from_graphs(graphs.clone(), NetworkProfile::instant()),
            FedXConfig::default(),
        )),
    ];
    for q in lubm::queries() {
        let query = q.parse();
        let expected = ground_truth(&graphs, &query);
        for engine in &engines {
            let actual = engine
                .execute(&query)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", engine.name(), q.name));
            assert_same_solutions(
                &format!("{} on {}", engine.name(), q.name),
                &actual,
                &expected,
            );
        }
    }
}

// ---- QFed -------------------------------------------------------------

#[test]
fn lusail_matches_ground_truth_on_qfed() {
    let cfg = qfed::QfedConfig {
        drugs: 80,
        diseases: 25,
        side_effects: 40,
        labels: 40,
        seed: 7,
    };
    let graphs = qfed::generate_all(&cfg);
    let engine = lusail(graphs.clone());
    for q in qfed::queries() {
        let query = q.parse();
        let actual = engine.execute(&query).unwrap();
        let expected = ground_truth(&graphs, &query);
        assert_same_solutions(q.name, &actual, &expected);
        assert!(!actual.is_empty(), "{} must have answers", q.name);
    }
}

#[test]
fn fedx_matches_lusail_on_qfed_base_queries() {
    let cfg = qfed::QfedConfig {
        drugs: 50,
        diseases: 15,
        side_effects: 25,
        labels: 25,
        seed: 7,
    };
    let graphs = qfed::generate_all(&cfg);
    let engine = lusail(graphs.clone());
    let fedx = FedX::new(
        federation_from_graphs(graphs.clone(), NetworkProfile::instant()),
        FedXConfig::default(),
    );
    for q in qfed::queries() {
        let query = q.parse();
        let a = engine.execute(&query).unwrap();
        let b = fedx.execute(&query).unwrap();
        assert_same_solutions(&format!("FedX vs Lusail on {}", q.name), &b, &a);
    }
}

// ---- LargeRDFBench -----------------------------------------------------

#[test]
fn lusail_matches_ground_truth_on_largerdfbench() {
    let cfg = largerdf::LargeRdfConfig {
        scale: 0.4,
        ..Default::default()
    };
    let graphs = largerdf::generate_all(&cfg);
    let engine = lusail(graphs.clone());
    for q in largerdf::all_queries() {
        let query = q.parse();
        let actual = engine
            .execute(&query)
            .unwrap_or_else(|e| panic!("Lusail failed on {}: {e}", q.name));
        let expected = ground_truth(&graphs, &query);
        // C4 carries LIMIT: row counts match but the chosen rows may
        // differ between evaluation orders; compare counts only.
        if q.name == "C4" {
            assert_eq!(actual.len(), expected.len(), "C4 row count");
            continue;
        }
        assert_same_solutions(q.name, &actual, &expected);
        assert!(!actual.is_empty(), "{} must have answers", q.name);
    }
}

#[test]
fn baselines_reject_only_the_disjoint_queries() {
    let cfg = largerdf::LargeRdfConfig {
        scale: 0.2,
        ..Default::default()
    };
    let graphs = largerdf::generate_all(&cfg);
    let fedx = FedX::new(
        federation_from_graphs(graphs.clone(), NetworkProfile::instant()),
        FedXConfig::default(),
    );
    for q in largerdf::all_queries() {
        let query = q.parse();
        let outcome = fedx.execute(&query);
        let disjoint = matches!(q.name, "C5" | "B5" | "B6");
        match (disjoint, outcome) {
            (true, Err(lusail_core::EngineError::Unsupported(_))) => {}
            (true, other) => panic!("{} should be unsupported by FedX, got {other:?}", q.name),
            (false, Ok(_)) => {}
            (false, Err(e)) => panic!("FedX failed on supported query {}: {e}", q.name),
        }
    }
}

#[test]
fn lusail_supports_the_disjoint_queries() {
    // The paper: "C5 contains two disjoint subgraphs joined by a filter
    // variable, a query not supported by Lusail's competitors."
    let cfg = largerdf::LargeRdfConfig {
        scale: 0.3,
        ..Default::default()
    };
    let graphs = largerdf::generate_all(&cfg);
    let engine = lusail(graphs.clone());
    for name in ["C5", "B5", "B6"] {
        let q = largerdf::all_queries()
            .into_iter()
            .find(|q| q.name == name)
            .unwrap();
        let query = q.parse();
        let actual = engine.execute(&query).unwrap();
        let expected = ground_truth(&graphs, &query);
        assert_same_solutions(name, &actual, &expected);
        assert!(!actual.is_empty(), "{name} must have answers");
    }
}

#[test]
fn elastic_erh_reschedules_requests_without_changing_them() {
    // 13 endpoints at a 5 ms round trip. The elastic handler runs a wave
    // on up to 13 threads, UNION branches side by side and ready delayed
    // subqueries in one wave; a handler pinned to 4 threads cannot do the
    // first, one pinned to 1 runs everything inline, one request after
    // the other. Neither the answer nor a single request may differ.
    let graphs = largerdf::generate_all(&largerdf::LargeRdfConfig {
        scale: 0.2,
        ..Default::default()
    });
    let profile = NetworkProfile {
        latency: std::time::Duration::from_millis(5),
        bytes_per_sec: u64::MAX,
    };
    let engine = |threads| {
        let (recorders, federation) =
            RecordingEndpoint::federation(graphs.iter().map(|(name, g)| {
                Arc::new(SimulatedEndpoint::new(
                    name.clone(),
                    Store::from_graph(g),
                    profile,
                )) as Arc<dyn SparqlEndpoint>
            }));
        let config = LusailConfig {
            threads,
            ..Default::default()
        };
        (recorders, LusailEngine::new(federation, config))
    };
    let (elastic_log, elastic) = engine(None);
    let (_, pinned) = engine(Some(4));
    let (inline_log, inline) = engine(Some(1));
    assert_eq!(elastic.federation().len(), 13);
    // What each endpoint was sent from its `from`-th request on, as a
    // multiset. How many `VALUES` blocks a bound join's bindings are cut
    // into follows the handler's width (13 against 1 here), so the blocks
    // of one request shape are pooled: the same bindings must reach the
    // same endpoint.
    type Sent = BTreeMap<String, Vec<String>>;
    let sent_since = |log: &[Arc<RecordingEndpoint>], from: &[usize]| -> Vec<Sent> {
        (log.iter().zip(from))
            .map(|(r, &from)| {
                let mut sent = Sent::new();
                for text in r.sent().split_off(from) {
                    let block = text.split_once(" ) { (").and_then(|(head, rest)| {
                        let (bindings, tail) = rest.split_once(" ) }")?;
                        Some((format!("{head} … {tail}"), bindings.split(" ) (")))
                    });
                    match block {
                        Some((shape, bindings)) => {
                            let pooled = sent.entry(shape).or_default();
                            pooled.extend(bindings.map(str::to_string));
                        }
                        None => sent.entry(text).or_default().push(String::new()),
                    }
                }
                sent.values_mut().for_each(|bindings| bindings.sort());
                sent
            })
            .collect()
    };
    let lengths = |log: &[Arc<RecordingEndpoint>]| -> Vec<usize> {
        log.iter().map(|r| r.sent().len()).collect()
    };
    let queries = largerdf::all_queries();
    for name in ["S2", "S10", "C2", "B1", "C5", "C6", "C7", "B6"] {
        let query = queries.iter().find(|q| q.name == name).unwrap().parse();
        let (elastic_from, inline_from) = (lengths(&elastic_log), lengths(&inline_log));
        let (rounds, waves) = (request_rounds(&elastic_log), elastic.erh().waves);
        let a = elastic.execute(&query).unwrap();
        assert_same_solutions(name, &a, &pinned.execute(&query).unwrap());
        assert_same_solutions(name, &a, &inline.execute(&query).unwrap());
        assert_eq!(
            sent_since(&elastic_log, &elastic_from),
            sent_since(&inline_log, &inline_from),
            "{name}: the requests of some endpoint differ"
        );
        if name == "B1" {
            // Its two branches' waves overlap: fewer rounds of requests
            // than waves that carried them (one wave is the fan-out).
            let rounds = request_rounds(&elastic_log) - rounds;
            let waves = (elastic.erh().waves - waves) as usize - 1;
            assert!(rounds < waves, "B1: {rounds} rounds for {waves} waves");
        }
    }
    let (e, p, i) = (elastic.erh(), pinned.erh(), inline.erh());
    assert_eq!((e.peak_width, e.ceiling), (13, 13), "{e:?}");
    assert!(p.peak_width <= 4 && p.ceiling == 4, "{p:?}");
    assert_eq!(i.peak_width, 1, "{i:?}");
    assert_eq!((e.waves, p.waves), (i.waves, i.waves));
}

// ---- Bio2RDF ------------------------------------------------------------

#[test]
fn lusail_matches_ground_truth_on_bio2rdf() {
    let cfg = bio2rdf::Bio2RdfConfig::default();
    let graphs = bio2rdf::generate_all(&cfg);
    let engine = lusail(graphs.clone());
    for q in bio2rdf::queries() {
        let query = q.parse();
        let actual = engine.execute(&query).unwrap();
        let expected = ground_truth(&graphs, &query);
        assert_same_solutions(q.name, &actual, &expected);
    }
}

// ---- Configuration space -------------------------------------------------

#[test]
fn every_threshold_and_mode_is_correct_on_qa() {
    let cfg = lubm::LubmConfig::with_universities(3);
    let graphs = lubm::generate_all(&cfg);
    let q = lubm::query_qa().parse();
    let expected = ground_truth(&graphs, &q);
    for threshold in [
        DelayThreshold::Mu,
        DelayThreshold::MuSigma,
        DelayThreshold::Mu2Sigma,
        DelayThreshold::OutliersOnly,
    ] {
        for mode in [SapeMode::Full, SapeMode::LadeOnly] {
            for block in [3, 512] {
                let engine = LusailEngine::new(
                    federation_from_graphs(graphs.clone(), NetworkProfile::instant()),
                    LusailConfig {
                        delay_threshold: threshold,
                        sape_mode: mode,
                        bound_block_size: block,
                        ..Default::default()
                    },
                );
                let actual = engine.execute(&q).unwrap();
                assert_same_solutions(
                    &format!("{threshold:?}/{mode:?}/block{block}"),
                    &actual,
                    &expected,
                );
            }
        }
    }
}

#[test]
fn cache_disabled_still_correct() {
    let cfg = lubm::LubmConfig::with_universities(2);
    let graphs = lubm::generate_all(&cfg);
    let engine = LusailEngine::new(
        federation_from_graphs(graphs.clone(), NetworkProfile::instant()),
        LusailConfig::without_cache(),
    );
    for q in lubm::queries() {
        let query = q.parse();
        let actual = engine.execute(&query).unwrap();
        let expected = ground_truth(&graphs, &query);
        assert_same_solutions(q.name, &actual, &expected);
    }
}

#[test]
fn network_profile_does_not_change_results() {
    let cfg = lubm::LubmConfig::with_universities(2);
    let graphs = lubm::generate_all(&cfg);
    let q = lubm::queries().remove(3).parse(); // Q4, cross-endpoint
    let instant = lusail(graphs.clone()).execute(&q).unwrap();
    let geo = LusailEngine::new(
        federation_from_graphs(graphs, NetworkProfile::geo_distributed()),
        LusailConfig::default(),
    )
    .execute(&q)
    .unwrap();
    assert_same_solutions("geo vs instant", &geo, &instant);
}
