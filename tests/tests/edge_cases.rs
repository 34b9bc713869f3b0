//! Engine-level edge cases across the full stack.

use integration::{assert_same_solutions, ground_truth};
use lusail_baselines::{FedX, FedXConfig, FederatedEngine, Splendid};
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::{Federation, NetworkProfile, SimulatedEndpoint, SparqlEndpoint};
use lusail_rdf::{Graph, Literal, Term};
use lusail_sparql::parse_query;
use lusail_store::Store;
use std::sync::Arc;

fn graphs() -> Vec<(String, Graph)> {
    let mut g1 = Graph::new();
    for i in 0..10 {
        let s = Term::iri(format!("http://a/item{i}"));
        g1.add(s.clone(), Term::iri("http://x/value"), Term::integer(i));
        g1.add(
            s.clone(),
            Term::iri("http://x/label"),
            Term::literal(format!("item {i}")),
        );
        if i % 2 == 0 {
            g1.add(s, Term::iri("http://x/tag"), Term::literal("even"));
        }
    }
    let mut g2 = Graph::new();
    for i in 0..10 {
        g2.add(
            Term::iri(format!("http://a/item{i}")),
            Term::iri("http://x/linked"),
            Term::iri(format!("http://b/detail{i}")),
        );
        g2.add(
            Term::iri(format!("http://b/detail{i}")),
            Term::iri("http://x/weight"),
            Term::Literal(Literal::double(i as f64 * 1.5)),
        );
    }
    vec![("a".to_string(), g1), ("b".to_string(), g2)]
}

fn engine() -> LusailEngine {
    let fed = lusail_workloads::federation_from_graphs(graphs(), NetworkProfile::instant());
    LusailEngine::new(fed, LusailConfig::default())
}

fn check(q: &str) {
    let query = parse_query(q).unwrap();
    let actual = engine().execute(&query).unwrap();
    let expected = ground_truth(&graphs(), &query);
    assert_same_solutions(q, &actual, &expected);
}

#[test]
fn limit_zero() {
    let q = parse_query("SELECT ?s WHERE { ?s <http://x/value> ?v } LIMIT 0").unwrap();
    assert!(engine().execute(&q).unwrap().is_empty());
}

#[test]
fn offset_beyond_result() {
    let q = parse_query("SELECT ?s WHERE { ?s <http://x/value> ?v } OFFSET 99").unwrap();
    assert!(engine().execute(&q).unwrap().is_empty());
}

#[test]
fn offset_and_limit_slice() {
    let q = parse_query("SELECT ?v WHERE { ?s <http://x/value> ?v } ORDER BY ?v LIMIT 3 OFFSET 2")
        .unwrap();
    let rel = engine().execute(&q).unwrap();
    let vals: Vec<_> = rel.rows().iter().map(|r| r[0].clone().unwrap()).collect();
    assert_eq!(
        vals,
        vec![Term::integer(2), Term::integer(3), Term::integer(4)]
    );
}

#[test]
fn order_by_desc_numeric() {
    let q = parse_query("SELECT ?v WHERE { ?s <http://x/value> ?v } ORDER BY DESC(?v) LIMIT 1")
        .unwrap();
    let rel = engine().execute(&q).unwrap();
    assert_eq!(rel.rows()[0][0], Some(Term::integer(9)));
}

#[test]
fn projection_of_never_bound_variable() {
    let q = parse_query("SELECT ?s ?ghost WHERE { ?s <http://x/tag> \"even\" }").unwrap();
    let rel = engine().execute(&q).unwrap();
    assert_eq!(rel.len(), 5);
    assert!(rel.rows().iter().all(|r| r[1].is_none()));
}

#[test]
fn cross_endpoint_chains_match_ground_truth() {
    check("SELECT ?s ?w WHERE { ?s <http://x/value> ?v . ?s <http://x/linked> ?d . ?d <http://x/weight> ?w }");
    check(
        "SELECT ?s ?w WHERE { ?s <http://x/linked> ?d . ?d <http://x/weight> ?w . FILTER(?w > 6) }",
    );
    check(
        "SELECT ?s ?t ?w WHERE { ?s <http://x/linked> ?d . ?d <http://x/weight> ?w OPTIONAL { ?s <http://x/tag> ?t } }",
    );
}

#[test]
fn numeric_comparison_across_datatypes() {
    // integer ?v vs double ?w comparisons coerce numerically.
    check(
        "SELECT ?s WHERE { ?s <http://x/value> ?v . ?s <http://x/linked> ?d . ?d <http://x/weight> ?w . FILTER(?w > ?v) }",
    );
}

#[test]
fn values_multi_variable_rows() {
    let q = parse_query(
        "SELECT ?s ?v WHERE { ?s <http://x/value> ?v . \
         VALUES (?s ?v) { (<http://a/item1> 1) (<http://a/item2> 99) (UNDEF 3) } }",
    )
    .unwrap();
    let rel = engine().execute(&q).unwrap();
    // item1/1 matches; item2/99 contradicts the data; UNDEF/3 matches item3.
    assert_eq!(rel.len(), 2);
}

#[test]
fn filter_regex_at_endpoint() {
    check("SELECT ?s WHERE { ?s <http://x/label> ?l . FILTER(REGEX(?l, \"item [3-5]\")) }");
}

#[test]
fn union_of_disjoint_variable_sets() {
    let q = parse_query(
        "SELECT ?a ?b WHERE { { ?a <http://x/tag> \"even\" } UNION { ?b <http://x/weight> ?w . FILTER(?w > 12) } }",
    )
    .unwrap();
    let rel = engine().execute(&q).unwrap();
    // 5 even items (bind ?a only) + 1 heavy detail (bind ?b only).
    assert_eq!(rel.len(), 6);
    assert!(rel.rows().iter().any(|r| r[0].is_some() && r[1].is_none()));
    assert!(rel.rows().iter().any(|r| r[0].is_none() && r[1].is_some()));
}

#[test]
fn ask_false_when_filter_excludes_all() {
    let q = parse_query("ASK { ?s <http://x/value> ?v . FILTER(?v > 100) }").unwrap();
    assert!(!engine().execute_ask(&q).unwrap());
}

#[test]
fn count_with_variable() {
    let q = parse_query(
        "SELECT (COUNT(?t) AS ?c) WHERE { ?s <http://x/value> ?v OPTIONAL { ?s <http://x/tag> ?t } }",
    )
    .unwrap();
    let rel = engine().execute(&q).unwrap();
    // COUNT(?t) counts only bound tags: the 5 even items.
    assert_eq!(rel.rows()[0][0], Some(Term::integer(5)));
}

#[test]
fn splendid_agrees_on_cross_endpoint_chain() {
    let q = parse_query(
        "SELECT ?s ?w WHERE { ?s <http://x/value> ?v . ?s <http://x/linked> ?d . ?d <http://x/weight> ?w }",
    )
    .unwrap();
    let fed = lusail_workloads::federation_from_graphs(graphs(), NetworkProfile::instant());
    let splendid = Splendid::new(fed);
    let expected = ground_truth(&graphs(), &q);
    let actual = splendid.execute(&q).unwrap();
    assert_same_solutions("splendid chain", &actual, &expected);
}

#[test]
fn fedx_block_size_one_still_correct() {
    let q = parse_query(
        "SELECT ?s ?w WHERE { ?s <http://x/value> ?v . ?s <http://x/linked> ?d . ?d <http://x/weight> ?w }",
    )
    .unwrap();
    let fed = lusail_workloads::federation_from_graphs(graphs(), NetworkProfile::instant());
    let fedx = FedX::new(
        fed,
        FedXConfig {
            bind_block_size: 1,
            ..Default::default()
        },
    );
    let expected = ground_truth(&graphs(), &q);
    let actual = fedx.execute(&q).unwrap();
    assert_same_solutions("fedx block=1", &actual, &expected);
}

#[test]
fn duplicate_triples_across_endpoints_preserve_bag_semantics() {
    // The same triple in two endpoints: a single-pattern query returns it
    // twice (union of endpoint results, bag semantics), exactly like a
    // real federation would.
    let mut g = Graph::new();
    g.add(
        Term::iri("http://a/x"),
        Term::iri("http://x/p"),
        Term::integer(1),
    );
    let fed = Federation::new(vec![
        Arc::new(SimulatedEndpoint::new(
            "e1",
            Store::from_graph(&g),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>,
        Arc::new(SimulatedEndpoint::new(
            "e2",
            Store::from_graph(&g),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>,
    ]);
    let engine = LusailEngine::new(fed, LusailConfig::default());
    let q = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?v }").unwrap();
    assert_eq!(engine.execute(&q).unwrap().len(), 2);
    let q = parse_query("SELECT DISTINCT ?s WHERE { ?s <http://x/p> ?v }").unwrap();
    assert_eq!(engine.execute(&q).unwrap().len(), 1);
}

#[test]
fn filter_bridge_joins_disjoint_subgraphs_without_cross_product() {
    // Two disconnected subqueries of 2 000 rows each, bridged by
    // FILTER(?v = ?w): the equi-join bridge must avoid the 4-million-row
    // product (observable through runtime and, indirectly, memory).
    let mut g1 = Graph::new();
    let mut g2 = Graph::new();
    for i in 0..2000 {
        g1.add(
            Term::iri(format!("http://a/l{i}")),
            Term::iri("http://x/va"),
            Term::integer(i % 500),
        );
        g2.add(
            Term::iri(format!("http://b/r{i}")),
            Term::iri("http://x/vb"),
            Term::integer((i + 250) % 500),
        );
    }
    let graphs = vec![("a".to_string(), g1), ("b".to_string(), g2)];
    let fed = lusail_workloads::federation_from_graphs(graphs.clone(), NetworkProfile::instant());
    let engine = LusailEngine::new(fed, LusailConfig::default());
    let q = parse_query(
        "SELECT ?l ?r WHERE { ?l <http://x/va> ?v . ?r <http://x/vb> ?w . FILTER(?v = ?w) }",
    )
    .unwrap();
    let start = std::time::Instant::now();
    let rel = engine.execute(&q).unwrap();
    let elapsed = start.elapsed();
    // Each value 0..500 appears 4× on each side → 500 × 4 × 4 = 8 000 rows.
    assert_eq!(rel.len(), 8000);
    // Generous bound even for debug builds; the 4M-row cross product takes
    // minutes there.
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "bridge join took {elapsed:?} — cross product suspected"
    );
}

#[test]
fn filter_bridge_pairs_values_not_terms() {
    // An integer on one endpoint and a double on the other: `=` is
    // numeric, so 0 = 0.0, 3 = 3.0E0, 6 = 6.0E0 and 9 = 9.0E0 join across
    // the bridge although no two of those terms are the same term.
    let q = "SELECT ?s ?d WHERE { ?s <http://x/value> ?v . ?d <http://x/weight> ?w . \
             FILTER(?v = ?w) }";
    let query = parse_query(q).unwrap();
    assert_eq!(ground_truth(&graphs(), &query).len(), 4);
    check(q);
    let fed = || lusail_workloads::federation_from_graphs(graphs(), NetworkProfile::instant());
    let fedx = FedX::new(fed(), FedXConfig::default());
    let splendid = Splendid::new(fed());
    for (name, result) in [
        ("fedx", fedx.execute(&query)),
        ("splendid", splendid.execute(&query)),
    ] {
        assert!(
            matches!(result, Err(lusail_core::EngineError::Unsupported(_))),
            "{name}: {result:?}"
        );
    }
}

#[test]
fn case2_shared_instances_need_paranoid_locality() {
    // The paper's §3.3 "Case 2": the same object (`hub`) occurs at two
    // endpoints, each of which can join the pair locally — the
    // per-endpoint locality check passes, yet the cross-endpoint
    // combination (a from ep0, b from ep1) is a real answer of the merged
    // graph. The default (paper-faithful) mode returns the per-endpoint
    // answers; the sound paranoid mode recovers all of them.
    let hub = Term::iri("http://shared/hub");
    let mut g0 = Graph::new();
    g0.add(
        Term::iri("http://ep0/a"),
        Term::iri("http://x/p"),
        hub.clone(),
    );
    g0.add(
        Term::iri("http://ep0/a2"),
        Term::iri("http://x/q"),
        hub.clone(),
    );
    let mut g1 = Graph::new();
    g1.add(
        Term::iri("http://ep1/b"),
        Term::iri("http://x/p"),
        hub.clone(),
    );
    g1.add(
        Term::iri("http://ep1/b2"),
        Term::iri("http://x/q"),
        hub.clone(),
    );
    let graphs = vec![("ep0".to_string(), g0), ("ep1".to_string(), g1)];
    let q = parse_query("SELECT ?x ?y WHERE { ?x <http://x/p> ?v . ?y <http://x/q> ?v }").unwrap();

    // Ground truth over the merged graph: 2 × 2 combinations.
    let expected = ground_truth(&graphs, &q);
    assert_eq!(expected.len(), 4);

    // Default mode: the paper's behaviour — each endpoint's local pair
    // only (2 rows).
    let default_engine = LusailEngine::new(
        lusail_workloads::federation_from_graphs(graphs.clone(), NetworkProfile::instant()),
        LusailConfig::default(),
    );
    assert_eq!(default_engine.execute(&q).unwrap().len(), 2);

    // Paranoid mode: exact.
    let paranoid = LusailEngine::new(
        lusail_workloads::federation_from_graphs(graphs, NetworkProfile::instant()),
        LusailConfig {
            paranoid_locality: true,
            ..Default::default()
        },
    );
    let actual = paranoid.execute(&q).unwrap();
    assert_same_solutions("paranoid case2", &actual, &expected);
}

#[test]
fn single_endpoint_federation_degenerates_gracefully() {
    let (name, g) = graphs().remove(0);
    let fed = Federation::new(vec![Arc::new(SimulatedEndpoint::new(
        name,
        Store::from_graph(&g),
        NetworkProfile::instant(),
    )) as Arc<dyn SparqlEndpoint>]);
    let engine = LusailEngine::new(fed, LusailConfig::default());
    let q = parse_query(
        "SELECT ?s ?l WHERE { ?s <http://x/value> ?v . ?s <http://x/label> ?l . FILTER(?v >= 8) }",
    )
    .unwrap();
    let (rel, profile) = engine.execute_profiled(&q).unwrap();
    assert_eq!(rel.len(), 2);
    // One endpoint, co-located data → a single subquery, nothing global.
    assert!(profile.gjvs.is_empty());
    assert_eq!(profile.subqueries, 1);
}
