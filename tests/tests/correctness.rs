//! Cross-crate correctness: every federated engine must return exactly the
//! solutions a single store holding the merged decentralized graph returns
//! (Lemmas 1 and 2 of the paper promise this for Lusail).

use integration::{assert_same_solutions, ground_truth};
use lusail_baselines::{FedX, FedXConfig, FederatedEngine, HiBiscus, Splendid};
use lusail_core::{DelayThreshold, LusailConfig, LusailEngine, SapeMode};
use lusail_federation::NetworkProfile;
use lusail_workloads::{bio2rdf, federation_from_graphs, largerdf, lubm, qfed};

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
    // 13 endpoints at a 5 ms round trip: the elastic handler widens its
    // waves past 4 threads, the pinned one cannot, and neither the answer
    // nor a single request may differ.
    let graphs = largerdf::generate_all(&largerdf::LargeRdfConfig {
        scale: 0.2,
        ..Default::default()
    });
    let profile = NetworkProfile {
        latency: std::time::Duration::from_millis(5),
        bytes_per_sec: u64::MAX,
    };
    let engine = |threads| {
        LusailEngine::new(
            federation_from_graphs(graphs.clone(), profile),
            LusailConfig {
                threads,
                ..Default::default()
            },
        )
    };
    let (elastic, pinned) = (engine(None), engine(Some(4)));
    assert_eq!(elastic.federation().len(), 13);
    let queries = largerdf::all_queries();
    for q in queries
        .iter()
        .filter(|q| matches!(q.name, "S2" | "S10" | "C2"))
    {
        let query = q.parse();
        let a = elastic.execute(&query).unwrap();
        let b = pinned.execute(&query).unwrap();
        assert_same_solutions(q.name, &a, &b);
        assert_eq!(
            elastic.federation().total_traffic().requests,
            pinned.federation().total_traffic().requests,
            "{}: request counts diverged",
            q.name
        );
    }
    let (e, p) = (elastic.erh(), pinned.erh());
    assert!(e.ramped_waves > 0 && e.peak_width > 4, "{e:?}");
    assert_eq!((p.ramped_waves, p.ceiling), (0, 4), "{p:?}");
    assert!(p.peak_width <= 4, "{p:?}");
    assert_eq!(e.waves, p.waves);
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
