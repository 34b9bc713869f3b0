//! Federated evaluation of the SPARQL 1.1 extensions — GROUP BY
//! aggregates, BIND, MINUS — against the merged-store ground truth, for
//! Lusail and the baselines; and the finishing path (projection,
//! aggregates, ORDER BY / DISTINCT / OFFSET / LIMIT), where the answer
//! must also come in the merged graph's *order*. The finishing-path loop
//! is seeded: export `LUSAIL_CHAOS_SEED` to try other federations and
//! queries; a failure prints the line that replays it.

use integration::{assert_same_solutions, ground_truth};
use lusail_baselines::{FedX, FedXConfig, FederatedEngine, HiBiscus, Splendid};
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::NetworkProfile;
use lusail_rdf::{Graph, Literal, Term};
use lusail_sparql::ast::{Projection, Query, QueryForm};
use lusail_sparql::parse_query;
use lusail_sparql::solution::{compare_terms, Relation};
use lusail_workloads::federation_from_graphs;
use lusail_workloads::prng::SplitMix64;

fn graphs() -> Vec<(String, Graph)> {
    let mut g1 = Graph::new();
    let mut g2 = Graph::new();
    for i in 0..12 {
        let item = Term::iri(format!("http://a/item{i}"));
        g1.add(
            item.clone(),
            Term::iri("http://x/group"),
            Term::literal(format!("g{}", i % 3)),
        );
        g1.add(item.clone(), Term::iri("http://x/value"), Term::integer(i));
        if i % 4 == 0 {
            g1.add(
                item.clone(),
                Term::iri("http://x/flagged"),
                Term::literal("yes"),
            );
        }
        g2.add(item, Term::iri("http://x/score"), Term::integer(i * 10));
    }
    vec![("a".to_string(), g1), ("b".to_string(), g2)]
}

fn lusail() -> LusailEngine {
    LusailEngine::new(
        federation_from_graphs(graphs(), NetworkProfile::instant()),
        LusailConfig::default(),
    )
}

fn check_all_engines(q: &str) {
    let query = parse_query(q).unwrap();
    let expected = ground_truth(&graphs(), &query);
    for engine in federated_engines(&graphs()) {
        let actual = engine.execute(&query).unwrap();
        assert_same_solutions(&format!("{} on {q}", engine.name()), &actual, &expected);
    }
}

#[test]
fn federated_group_by_sum() {
    // Cross-endpoint join, grouped at the federator.
    check_all_engines(
        "SELECT ?g (SUM(?s) AS ?total) WHERE { ?i <http://x/group> ?g . ?i <http://x/score> ?s } GROUP BY ?g",
    );
}

#[test]
fn federated_group_by_count_avg_min_max() {
    check_all_engines(
        "SELECT ?g (COUNT(*) AS ?n) (AVG(?v) AS ?avg) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) \
         WHERE { ?i <http://x/group> ?g . ?i <http://x/value> ?v } GROUP BY ?g",
    );
}

#[test]
fn federated_bind() {
    check_all_engines(
        "SELECT ?i ?double WHERE { ?i <http://x/value> ?v . ?i <http://x/score> ?s . BIND(?v * 2 AS ?double) }",
    );
}

#[test]
fn federated_bind_feeds_filter() {
    check_all_engines(
        "SELECT ?i ?sum WHERE { ?i <http://x/value> ?v . ?i <http://x/score> ?s . \
         BIND(?v + ?s AS ?sum) FILTER(?sum > 50) }",
    );
}

#[test]
fn federated_minus() {
    // Items with scores, minus the flagged ones (flags live on endpoint a,
    // scores on endpoint b — the MINUS group is itself federated).
    check_all_engines(
        "SELECT ?i ?s WHERE { ?i <http://x/score> ?s MINUS { ?i <http://x/flagged> ?f } }",
    );
}

#[test]
fn minus_results_sane() {
    let q = parse_query(
        "SELECT ?i ?s WHERE { ?i <http://x/score> ?s MINUS { ?i <http://x/flagged> ?f } }",
    )
    .unwrap();
    let rel = lusail().execute(&q).unwrap();
    // 12 items, 3 flagged (0, 4, 8) → 9 survivors.
    assert_eq!(rel.len(), 9);
}

#[test]
fn grouped_aggregate_values_sane() {
    let q = parse_query(
        "SELECT ?g (SUM(?v) AS ?total) WHERE { ?i <http://x/group> ?g . ?i <http://x/value> ?v } GROUP BY ?g",
    )
    .unwrap();
    let rel = lusail().execute(&q).unwrap();
    assert_eq!(rel.len(), 3);
    // g0 holds values {0,3,6,9} → 18.
    let g0 = rel
        .rows()
        .iter()
        .find(|r| r[0] == Some(Term::literal("g0")))
        .expect("group g0 present");
    assert_eq!(g0[1], Some(Term::integer(18)));
}

// ---- The finishing path -----------------------------------------------------

/// Lusail and the three baselines over `graphs`, instant network.
fn federated_engines(graphs: &[(String, Graph)]) -> Vec<Box<dyn FederatedEngine>> {
    let fed = || federation_from_graphs(graphs.to_vec(), NetworkProfile::instant());
    vec![
        Box::new(LusailEngine::new(fed(), LusailConfig::default())),
        Box::new(FedX::new(fed(), FedXConfig::default())),
        Box::new(Splendid::new(fed())),
        Box::new(HiBiscus::new(fed(), FedXConfig::default())),
    ]
}

/// Every federated engine finishes `text` the way the store finishes it on
/// the merged graph. Grouped and `COUNT` answers have a defined order, so
/// they must match row for row; so must a plain `SELECT` whose `ORDER BY`
/// keys never tie. One whose keys do tie may break the ties differently:
/// it must match on the key columns (up to [`compare_terms`] equality),
/// and as a bag when nothing is sliced off.
fn assert_finished_alike(
    graphs: &[(String, Graph)],
    engines: &[Box<dyn FederatedEngine>],
    text: &str,
    replay: &str,
) {
    let query = parse_query(text).unwrap();
    let QueryForm::Select(select) = &query.form else {
        panic!("not a SELECT: {text}");
    };
    let key_idx = |rel: &Relation| -> Vec<usize> {
        (select.order_by.iter())
            .map(|(v, _)| rel.index_of(v).expect("ORDER BY key is projected"))
            .collect()
    };
    let tie = |a: &[Option<Term>], b: &[Option<Term>], idx: &[usize]| {
        (idx.iter()).all(|&i| compare_terms(a[i].as_ref(), b[i].as_ref()).is_eq())
    };
    let expected = ground_truth(graphs, &query);
    let total = match select.projection {
        Projection::Count { .. } | Projection::Aggregate { .. } => true,
        Projection::All | Projection::Vars(_) => {
            let mut unsliced = select.clone();
            (unsliced.offset, unsliced.limit) = (None, None);
            let all = ground_truth(graphs, &Query::select(unsliced));
            let idx = key_idx(&all);
            !idx.is_empty() && all.rows().windows(2).all(|w| !tie(&w[0], &w[1], &idx))
        }
    };
    let sliced = select.offset.is_some() || select.limit.is_some();
    for engine in engines {
        let label = format!("{} on {text}\n{replay}", engine.name());
        let actual = engine.execute(&query).unwrap();
        assert_eq!(actual.vars(), expected.vars(), "{label}: header");
        if total {
            assert_eq!(actual.rows(), expected.rows(), "{label}: rows, in order");
            continue;
        }
        assert_eq!(actual.len(), expected.len(), "{label}: row count");
        let idx = key_idx(&expected);
        for (a, e) in actual.rows().iter().zip(expected.rows()) {
            assert!(tie(a, e, &idx), "{label}: ORDER BY keys {a:?} vs {e:?}");
        }
        if !sliced {
            assert_same_solutions(&label, &actual, &expected);
        }
    }
}

/// The federation of ISSUE 17: six people, ages 9, 10, 10 at one endpoint
/// and 100, 9, 25 at the other (12 triples).
fn ages() -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    for (ep, ages) in [[9, 10, 10], [100, 9, 25]].into_iter().enumerate() {
        let mut g = Graph::new();
        for (i, age) in ages.into_iter().enumerate() {
            let p = Term::iri(format!("http://ep{ep}.example.org/p{i}"));
            g.add_type(p.clone(), "http://x/Person");
            g.add(p, Term::iri("http://x/age"), Term::integer(age));
        }
        graphs.push((format!("ep{ep}"), g));
    }
    graphs
}

const BY_AGE: &str = "SELECT ?age (COUNT(?p) AS ?n) \
    WHERE { ?p a <http://x/Person> . ?p <http://x/age> ?age } GROUP BY ?age";

/// `text` on the [`ages`] federation: all five evaluators agree row for
/// row, and column `col` of the answer reads `want`.
fn check_ages(text: &str, col: usize, want: &[i64]) {
    let graphs = ages();
    assert_finished_alike(&graphs, &federated_engines(&graphs), text, "");
    let rel = ground_truth(&graphs, &parse_query(text).unwrap());
    let got: Vec<Option<Term>> = rel.rows().iter().map(|r| r[col].clone()).collect();
    let want: Vec<Option<Term>> = want.iter().map(|&n| Some(Term::integer(n))).collect();
    assert_eq!(got, want, "{text}");
}

#[test]
fn group_by_limit_keeps_the_first_groups_in_term_order() {
    // 9 < 10 numerically; as strings "10" < "100" < "25" < "9".
    check_ages(&format!("{BY_AGE} LIMIT 2"), 0, &[9, 10]);
}

#[test]
fn group_by_orders_by_an_aggregate_alias() {
    // Ages 9 and 10 both count 2; the default group order breaks the tie.
    check_ages(&format!("{BY_AGE} ORDER BY DESC(?n) LIMIT 1"), 1, &[2]);
    check_ages(&format!("{BY_AGE} ORDER BY DESC(?n) LIMIT 1"), 0, &[9]);
}

#[test]
fn group_by_orders_by_its_key_descending() {
    check_ages(
        &format!("{BY_AGE} ORDER BY DESC(?age)"),
        0,
        &[100, 25, 10, 9],
    );
}

#[test]
fn group_by_applies_offset_before_limit() {
    check_ages(&format!("{BY_AGE} OFFSET 1 LIMIT 2"), 0, &[10, 25]);
}

fn chaos_seed() -> u64 {
    std::env::var("LUSAIL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn pick<'a, T>(rng: &mut SplitMix64, from: &'a [T]) -> &'a T {
    &from[rng.gen_range(0..from.len())]
}

/// Two or three endpoints of items with one `key` and one or two `val`s
/// each. An item's `val`s sit together, at its `key`'s endpoint or at
/// another one (a cross-endpoint join); every fourth item or so has no
/// key at all. Keys are drawn from one kind of term per federation —
/// or from all of them.
fn gen_federation(rng: &mut SplitMix64) -> Vec<(String, Graph)> {
    let int = Term::integer;
    let lang = |s: &str, tag: &str| Term::Literal(Literal::lang(s, tag));
    let kinds: [Vec<Term>; 4] = [
        vec![int(9), int(10), int(100), int(25)],
        vec![
            Term::iri("http://k/a"),
            Term::iri("http://k/b"),
            Term::iri("http://k/B"),
        ],
        vec![
            Term::literal("a"),
            lang("a", "en"),
            Term::literal("b"),
            lang("B", "de"),
        ],
        vec![
            int(9),
            Term::literal("9"),
            Term::iri("http://k/9"),
            lang("9", "en"),
            int(10),
        ],
    ];
    let flavour = rng.gen_range(0..kinds.len() + 1);
    let keys: Vec<Term> = match kinds.get(flavour) {
        Some(kind) => kind.clone(),
        None => kinds.concat(),
    };
    let endpoints = rng.gen_range(2..4usize);
    let mut graphs: Vec<Graph> = (0..endpoints).map(|_| Graph::new()).collect();
    for i in 0..rng.gen_range(6..15usize) {
        let home = rng.gen_range(0..endpoints);
        let item = Term::iri(format!("http://ep{home}.example.org/item{i}"));
        if !rng.gen_bool(0.25) {
            let key = pick(rng, &keys).clone();
            graphs[home].add(item.clone(), Term::iri("http://x/key"), key);
        }
        let at = if rng.gen_bool(0.6) {
            home
        } else {
            rng.gen_range(0..endpoints)
        };
        for _ in 0..rng.gen_range(1..3usize) {
            let val = int(rng.gen_range(0..8i64));
            graphs[at].add(item.clone(), Term::iri("http://x/val"), val);
        }
    }
    (graphs.into_iter().enumerate())
        .map(|(e, g)| (format!("ep{e}"), g))
        .collect()
}

/// One query of the crossing {plain, COUNT, GROUP BY} × {ORDER BY} ×
/// {DISTINCT} × {OFFSET} × {LIMIT}, as text.
fn gen_finishing_query(rng: &mut SplitMix64) -> String {
    let body = *pick(
        rng,
        &[
            "?i <http://x/key> ?k . ?i <http://x/val> ?v",
            "?i <http://x/val> ?v OPTIONAL { ?i <http://x/key> ?k }",
        ],
    );
    let distinct = if rng.gen_bool(0.3) { "DISTINCT " } else { "" };
    let dir = |rng: &mut SplitMix64, v: &str| match rng.gen_range(0..3u32) {
        0 => format!("?{v}"),
        1 => format!("ASC(?{v})"),
        _ => format!("DESC(?{v})"),
    };
    let (select, group, order_vars): (String, String, Vec<&str>) = match rng.gen_range(0..4u32) {
        0 => {
            let count = *pick(rng, &["COUNT(*)", "COUNT(?k)", "COUNT(DISTINCT ?k)"]);
            return format!("SELECT ({count} AS ?n) WHERE {{ {body} }}");
        }
        1 => ("?k ?v".into(), String::new(), vec!["k", "v"]),
        _ => {
            // Group by the key and aggregate the value, or the other way
            // round (MIN / MAX over mixed kinds of term).
            let (g, x) = *pick(rng, &[("k", "v"), ("v", "k")]);
            let inner = if rng.gen_bool(0.3) { "DISTINCT " } else { "" };
            let func = *pick(rng, &["COUNT", "SUM", "AVG", "MIN", "MAX"]);
            let mut select = format!("?{g} ({func}({inner}?{x}) AS ?a)");
            if rng.gen_bool(0.5) {
                select.push_str(" (COUNT(*) AS ?n)");
            }
            (select, format!(" GROUP BY ?{g}"), vec![g, "a"])
        }
    };
    let mut text = format!("SELECT {distinct}{select} WHERE {{ {body} }}{group}");
    let ordered = rng.gen_bool(0.6);
    if ordered {
        let first = *pick(rng, &order_vars);
        text.push_str(&format!(" ORDER BY {}", dir(rng, first)));
        if rng.gen_bool(0.3) {
            let second = *pick(rng, &order_vars);
            text.push_str(&format!(" {}", dir(rng, second)));
        }
    }
    // Slicing an unordered plain SELECT keeps arbitrary rows; the loop
    // has nothing to hold it to.
    if ordered || !group.is_empty() {
        if rng.gen_bool(0.4) {
            text.push_str(&format!(" OFFSET {}", rng.gen_range(0..4u32)));
        }
        if rng.gen_bool(0.5) {
            text.push_str(&format!(" LIMIT {}", rng.gen_range(0..6u32)));
        }
    }
    text
}

#[test]
fn finishing_path_matches_merged_graph() {
    let seed = chaos_seed();
    let replay = format!(
        "replay with: LUSAIL_CHAOS_SEED={seed} cargo test -p integration --test sparql11 \\\n    finishing_path_matches_merged_graph"
    );
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xF1A1);
    for case in 0..24 {
        let graphs = gen_federation(&mut rng);
        let engines = federated_engines(&graphs);
        for _ in 0..8 {
            let text = gen_finishing_query(&mut rng);
            assert_finished_alike(&graphs, &engines, &text, &format!("case {case}; {replay}"));
        }
    }
}

// ---- The branch assembly ----------------------------------------------------

/// Two or three endpoints of items with one or two `val`s each (the
/// required pattern) and, each at an endpoint of its own draw: a `key`
/// and a `tag` (the OPTIONAL blocks), a `flag`, a `was` — an old key, also
/// of items that have no key now — and a few `banned` keys (the MINUS
/// blocks).
fn gen_block_federation(rng: &mut SplitMix64) -> Vec<(String, Graph)> {
    let keys = [
        Term::integer(9),
        Term::integer(10),
        Term::iri("http://k/a"),
        Term::literal("b"),
    ];
    let endpoints = rng.gen_range(2..4usize);
    let mut graphs: Vec<Graph> = (0..endpoints).map(|_| Graph::new()).collect();
    let x = |p: &str| Term::iri(format!("http://x/{p}"));
    for i in 0..rng.gen_range(6..15usize) {
        let home = rng.gen_range(0..endpoints);
        let item = Term::iri(format!("http://ep{home}.example.org/item{i}"));
        for _ in 0..rng.gen_range(1..3usize) {
            let val = Term::integer(rng.gen_range(0..8i64));
            graphs[home].add(item.clone(), x("val"), val);
        }
        let optional: [(&str, f64, Term); 4] = [
            ("key", 0.6, pick(rng, &keys).clone()),
            (
                "tag",
                0.5,
                Term::literal(format!("t{}", rng.gen_range(0..3u32))),
            ),
            ("flag", 0.3, Term::literal("yes")),
            ("was", 0.4, pick(rng, &keys).clone()),
        ];
        for (p, share, o) in optional {
            if rng.gen_bool(share) {
                graphs[rng.gen_range(0..endpoints)].add(item.clone(), x(p), o);
            }
        }
    }
    for b in 0..rng.gen_range(0..3usize) {
        let list = Term::iri(format!("http://x/list{b}"));
        graphs[rng.gen_range(0..endpoints)].add(list, x("banned"), pick(rng, &keys).clone());
    }
    (graphs.into_iter().enumerate())
        .map(|(e, g)| (format!("ep{e}"), g))
        .collect()
}

/// One query of the crossing {0–2 OPTIONAL blocks, one with an inner
/// FILTER} × {0–2 MINUS blocks: sharing a required variable, a required
/// and an OPTIONAL-introduced one, only an OPTIONAL-introduced one, none}
/// × {VALUES with and without UNDEF} × {BIND} × {residual FILTER}, written
/// in the order the branch assembly applies them.
fn gen_branch_query(rng: &mut SplitMix64) -> String {
    fn some_of(rng: &mut SplitMix64, from: &[&str]) -> Vec<String> {
        let mut left: Vec<&str> = from.to_vec();
        (0..rng.gen_range(0..3usize))
            .map(|_| left.swap_remove(rng.gen_range(0..left.len())).to_string())
            .collect()
    }
    let mut parts = vec!["?i <http://x/val> ?v".to_string()];
    parts.extend(some_of(
        rng,
        &[
            "OPTIONAL { ?i <http://x/key> ?k }",
            "OPTIONAL { ?i <http://x/tag> ?t FILTER(?t != \"t0\") }",
        ],
    ));
    match rng.gen_range(0..3u32) {
        0 => {}
        1 => parts.push("VALUES ?v { 1 2 3 5 }".into()),
        _ => parts.push("VALUES (?v ?k) { (1 UNDEF) (UNDEF 9) (2 <http://k/a>) (3 \"b\") }".into()),
    }
    parts.extend(some_of(
        rng,
        &[
            "MINUS { ?i <http://x/flag> ?f }",
            "MINUS { ?i <http://x/was> ?k }",
            "MINUS { ?l <http://x/banned> ?k }",
            "MINUS { ?a <http://x/flag> ?b }",
        ],
    ));
    let bind = rng.gen_bool(0.5);
    if bind {
        parts.push("BIND(?v + 1 AS ?w)".into());
    }
    let filters = [
        "FILTER(?v > 1)",
        "FILTER(BOUND(?k))",
        "FILTER(!BOUND(?k) || ?v < 5)",
        "FILTER(?w > 3)",
    ];
    if rng.gen_bool(0.5) {
        parts.push(filters[rng.gen_range(0..filters.len() - usize::from(!bind))].into());
    }
    format!("SELECT * WHERE {{ {} }}", parts.join(" "))
}

/// Lusail, FedX, SPLENDID and HiBISCuS each give a conjunctive branch the
/// meaning the store gives it on the merged graph, whatever mix of
/// OPTIONAL, VALUES, MINUS, BIND and FILTER it carries.
#[test]
fn branch_assembly_matches_merged_graph() {
    let seed = chaos_seed();
    let replay = format!(
        "replay with: LUSAIL_CHAOS_SEED={seed} cargo test -p integration --test sparql11 \\\n    branch_assembly_matches_merged_graph"
    );
    let check = |graphs: &[(String, Graph)], engines: &[Box<dyn FederatedEngine>], text: &str| {
        let query = parse_query(text).unwrap();
        let expected = ground_truth(graphs, &query);
        for engine in engines {
            let label = format!("{} on {text}\n{replay}", engine.name());
            let actual = engine
                .execute(&query)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_same_solutions(&label, &actual, &expected);
        }
    };
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xB10C);
    for _ in 0..24 {
        let graphs = gen_block_federation(&mut rng);
        let engines = federated_engines(&graphs);
        // What the bind-variable rule exists for: rows whose ?k an
        // OPTIONAL left unbound, and a MINUS block sharing ?k and ?i. Its
        // rows must not be restricted to the keys found so far.
        check(
            &graphs,
            &engines,
            "SELECT * WHERE { ?i <http://x/val> ?v OPTIONAL { ?i <http://x/key> ?k } \
             MINUS { ?i <http://x/was> ?k } }",
        );
        for _ in 0..8 {
            check(&graphs, &engines, &gen_branch_query(&mut rng));
        }
    }
}
