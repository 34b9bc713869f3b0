//! Property-style tests over the core data structures and the federated
//! evaluation pipeline.
//!
//! These were originally `proptest` strategies; they are now seeded-loop
//! generators over the in-tree [`SplitMix64`] PRNG (the offline build has
//! no crates.io access). Each test fixes a base seed and derives one seed
//! per case, so failures reproduce exactly: re-run the named test and the
//! failing case number printed in the assertion message identifies the
//! input. The shrunk counterexamples proptest found historically (the old
//! `properties.proptest-regressions` seeds) are pinned as the explicit
//! `regression_*` tests at the bottom.

use integration::{assert_same_solutions, ground_truth};
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::NetworkProfile;
use lusail_rdf::{Dictionary, Graph, Term};
use lusail_sparql::ast::{
    Expression, GraphPattern, Projection, Query, SelectQuery, TermPattern, TriplePattern, Variable,
};
use lusail_sparql::solution::Relation;
use lusail_sparql::{parse_query, serializer::serialize_query};
use lusail_workloads::federation_from_graphs;
use lusail_workloads::prng::SplitMix64;

// ---- small generators --------------------------------------------------

fn gen_iri(rng: &mut SplitMix64) -> Term {
    let e = rng.gen_range(0..12usize);
    let ns = rng.gen_range(0..6usize);
    Term::iri(format!("http://ns{ns}.example.org/e{e}"))
}

fn gen_lowercase(rng: &mut SplitMix64, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u32) as u8) as char)
        .collect()
}

fn gen_literal(rng: &mut SplitMix64) -> Term {
    if rng.gen_bool(0.5) {
        Term::literal(gen_lowercase(rng, 8))
    } else {
        Term::integer(rng.gen_range(-50..50))
    }
}

/// 3:1 IRIs to literals, like the original `prop_oneof!` weights.
fn gen_term(rng: &mut SplitMix64) -> Term {
    if rng.gen_range(0..4u32) < 3 {
        gen_iri(rng)
    } else {
        gen_literal(rng)
    }
}

fn gen_predicate(rng: &mut SplitMix64) -> Term {
    Term::iri(format!(
        "http://vocab.example.org/p{}",
        rng.gen_range(0..5usize)
    ))
}

/// Subjects are namespaced per endpoint (`ep`): each endpoint owns its
/// subjects, as in real decentralized RDF, so no triple is replicated
/// across endpoints. (With replication, a federation correctly returns
/// the triple once *per holding endpoint* — bag semantics — while the
/// merged ground-truth store deduplicates; see the
/// `duplicate_triples_across_endpoints_preserve_bag_semantics` edge-case
/// test for that behaviour.)
fn gen_triple(rng: &mut SplitMix64, ep: usize) -> lusail_rdf::Triple {
    lusail_rdf::Triple {
        subject: Term::iri(format!(
            "http://ep{ep}.example.org/e{}",
            rng.gen_range(0..12usize)
        )),
        predicate: gen_predicate(rng),
        object: gen_term(rng),
    }
}

fn gen_graph_for(rng: &mut SplitMix64, ep: usize, max: usize) -> Graph {
    let n = rng.gen_range(1..max);
    (0..n).map(|_| gen_triple(rng, ep)).collect()
}

/// A connected chain BGP: ?v0 p ?v1 . ?v1 p ?v2 . … (sometimes with a
/// constant object at the end).
fn gen_chain_query(rng: &mut SplitMix64) -> Query {
    let links = rng.gen_range(1..4usize);
    let mut tps = Vec::new();
    for i in 0..links {
        let subj = TermPattern::var(format!("v{i}"));
        let obj = TermPattern::var(format!("v{}", i + 1));
        let pred = TermPattern::iri(format!(
            "http://vocab.example.org/p{}",
            rng.gen_range(0..5usize)
        ));
        tps.push(if rng.gen_bool(0.5) {
            TriplePattern::new(obj, pred, subj)
        } else {
            TriplePattern::new(subj, pred, obj)
        });
    }
    if rng.gen_bool(0.5) {
        let t = gen_term(rng);
        let last = tps.len();
        tps.push(TriplePattern::new(
            TermPattern::var(format!("v{last}")),
            TermPattern::iri("http://vocab.example.org/p0"),
            TermPattern::Term(t),
        ));
    }
    Query::select(SelectQuery::new(Projection::All, GraphPattern::Bgp(tps)))
}

/// A richer query: a chain BGP, optionally extended with an OPTIONAL
/// block, a numeric FILTER, a UNION arm, or a BIND.
fn gen_rich_query(rng: &mut SplitMix64) -> Query {
    let links = rng.gen_range(1..3usize);
    let mut tps = Vec::new();
    for i in 0..links {
        let subj = TermPattern::var(format!("v{i}"));
        let obj = TermPattern::var(format!("v{}", i + 1));
        let pred = TermPattern::iri(format!(
            "http://vocab.example.org/p{}",
            rng.gen_range(0..5usize)
        ));
        tps.push(if rng.gen_bool(0.5) {
            TriplePattern::new(obj, pred, subj)
        } else {
            TriplePattern::new(subj, pred, obj)
        });
    }
    let mut pattern = GraphPattern::Bgp(tps);
    if rng.gen_bool(0.5) {
        let p = rng.gen_range(0..5usize);
        let opt = GraphPattern::Bgp(vec![TriplePattern::new(
            TermPattern::var("v0"),
            TermPattern::iri(format!("http://vocab.example.org/p{p}")),
            TermPattern::var("opt"),
        )]);
        pattern = GraphPattern::LeftJoin(Box::new(pattern), Box::new(opt));
    }
    if rng.gen_bool(0.5) {
        let p = rng.gen_range(0..5usize);
        let arm = GraphPattern::Bgp(vec![TriplePattern::new(
            TermPattern::var("v0"),
            TermPattern::iri(format!("http://vocab.example.org/p{p}")),
            TermPattern::var("u"),
        )]);
        pattern = GraphPattern::Union(Box::new(pattern), Box::new(arm));
    }
    if rng.gen_bool(0.5) {
        pattern = GraphPattern::Bind(
            Box::new(pattern),
            Expression::Str(Box::new(Expression::Var(Variable::new("v0")))),
            Variable::new("bound"),
        );
    }
    if rng.gen_bool(0.5) {
        let b = rng.gen_range(-20..20i64);
        pattern = GraphPattern::Filter(
            Box::new(pattern),
            Expression::Or(
                Box::new(Expression::Gt(
                    Box::new(Expression::Var(Variable::new("v1"))),
                    Box::new(Expression::Term(Term::integer(b))),
                )),
                Box::new(Expression::Not(Box::new(Expression::Bound(Variable::new(
                    "v1",
                ))))),
            ),
        );
    }
    Query::select(SelectQuery::new(Projection::All, pattern))
}

/// Derive one PRNG per case from a test-specific base seed.
fn case_rng(base: u64, case: usize) -> SplitMix64 {
    SplitMix64::seed_from_u64(base.wrapping_mul(0x9E37_79B9).wrapping_add(case as u64))
}

fn paranoid_engine(graphs: &[(String, Graph)]) -> LusailEngine {
    paranoid_engine_with(graphs, Some(2))
}

fn paranoid_engine_with(graphs: &[(String, Graph)], threads: Option<usize>) -> LusailEngine {
    // Arbitrary graphs may repeat instances across endpoints (§3.3 Case 2),
    // so the sound paranoid-locality mode is required for exact
    // merged-store equality; the default mode is exercised by the
    // benchmark-workload integration tests, whose data satisfies the
    // paper's endpoint-exclusivity assumption.
    LusailEngine::new(
        federation_from_graphs(graphs.to_vec(), NetworkProfile::instant()),
        LusailConfig {
            threads,
            paranoid_locality: true,
            ..Default::default()
        },
    )
}

// ---- properties ---------------------------------------------------------

/// The paper's correctness claim, fuzzed: on arbitrary decentralized
/// graphs, Lusail's answer equals evaluating the merged graph.
#[test]
fn lusail_equals_merged_store_on_random_federations() {
    for case in 0..24 {
        let rng = &mut case_rng(0xFED0, case);
        let graphs = vec![
            ("ep0".to_string(), gen_graph_for(rng, 0, 30)),
            ("ep1".to_string(), gen_graph_for(rng, 1, 30)),
            ("ep2".to_string(), gen_graph_for(rng, 2, 20)),
        ];
        let query = gen_chain_query(rng);
        let actual = paranoid_engine(&graphs).execute(&query).unwrap();
        let expected = ground_truth(&graphs, &query);
        assert_same_solutions(
            &format!("random federation (case {case})"),
            &actual,
            &expected,
        );
    }
}

/// Rich query shapes (OPTIONAL / UNION / FILTER / BIND) on random
/// federations still match the merged-store ground truth.
#[test]
fn lusail_rich_queries_match_ground_truth() {
    for case in 0..16 {
        let rng = &mut case_rng(0xFED1, case);
        let graphs = vec![
            ("ep0".to_string(), gen_graph_for(rng, 0, 25)),
            ("ep1".to_string(), gen_graph_for(rng, 1, 25)),
        ];
        let query = gen_rich_query(rng);
        let actual = paranoid_engine(&graphs).execute(&query).unwrap();
        let expected = ground_truth(&graphs, &query);
        assert_same_solutions(
            &format!("rich random federation (case {case})"),
            &actual,
            &expected,
        );
    }
}

/// The `UNION` shapes among them, with the branches run side by side
/// (`threads: None`) and inline in branch order (`Some(1)`).
#[test]
fn union_queries_match_ground_truth_side_by_side_and_inline() {
    fn has_union(pattern: &GraphPattern) -> bool {
        match pattern {
            GraphPattern::Union(..) => true,
            GraphPattern::Filter(inner, _) | GraphPattern::Bind(inner, ..) => has_union(inner),
            _ => false,
        }
    }
    let mut unions = 0;
    for case in 0..48 {
        let rng = &mut case_rng(0xFED1, case);
        let graphs = vec![
            ("ep0".to_string(), gen_graph_for(rng, 0, 25)),
            ("ep1".to_string(), gen_graph_for(rng, 1, 25)),
        ];
        let query = gen_rich_query(rng);
        if !has_union(query.pattern()) {
            continue;
        }
        unions += 1;
        let expected = ground_truth(&graphs, &query);
        for threads in [None, Some(1)] {
            let actual = paranoid_engine_with(&graphs, threads)
                .execute(&query)
                .unwrap();
            let label = format!("UNION query (case {case}, threads {threads:?})");
            assert_same_solutions(&label, &actual, &expected);
        }
    }
    assert!(unions >= 16, "only {unions} of 48 cases drew a UNION");
}

/// Serializer/parser round trip on generated queries.
#[test]
fn query_roundtrip() {
    for case in 0..64 {
        let rng = &mut case_rng(0xFED2, case);
        let query = gen_chain_query(rng);
        let text = serialize_query(&query);
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(query, reparsed, "case {case}: {text}");
    }
}

/// Dictionary encode/decode is a bijection on interned terms.
#[test]
fn dictionary_roundtrip() {
    for case in 0..64 {
        let rng = &mut case_rng(0xFED3, case);
        let terms: Vec<Term> = (0..rng.gen_range(1..50usize))
            .map(|_| gen_term(rng))
            .collect();
        let mut dict = Dictionary::new();
        let ids: Vec<_> = terms.iter().map(|t| dict.encode(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(dict.decode(*id), t, "case {case}");
            assert_eq!(dict.get(t), Some(*id), "case {case}");
        }
        // Distinct terms get distinct ids.
        let mut unique: Vec<&Term> = Vec::new();
        for t in &terms {
            if !unique.contains(&t) {
                unique.push(t);
            }
        }
        assert_eq!(dict.len(), unique.len(), "case {case}");
    }
}

/// N-Triples serialize/parse round trip.
#[test]
fn ntriples_roundtrip() {
    for case in 0..64 {
        let rng = &mut case_rng(0xFED4, case);
        let g = gen_graph_for(rng, 0, 40);
        let text = lusail_rdf::ntriples::serialize(&g);
        let back = lusail_rdf::ntriples::parse(&text).unwrap();
        assert_eq!(g.triples(), back.triples(), "case {case}");
    }
}

/// Join row counts are symmetric, and every output row is compatible
/// with the shared variables.
#[test]
fn join_is_symmetric_in_cardinality() {
    let v = |n: &str| Variable::new(n);
    let t = |i: u32| Term::integer(i as i64);
    for case in 0..64 {
        let rng = &mut case_rng(0xFED5, case);
        let mut a = Relation::new(vec![v("x"), v("y")]);
        for _ in 0..rng.gen_range(0..20usize) {
            a.push(vec![
                Some(t(rng.gen_range(0..6u32))),
                Some(t(rng.gen_range(0..6u32))),
            ]);
        }
        let mut b = Relation::new(vec![v("y"), v("z")]);
        for _ in 0..rng.gen_range(0..20usize) {
            b.push(vec![
                Some(t(rng.gen_range(0..6u32))),
                Some(t(rng.gen_range(0..6u32))),
            ]);
        }
        let ab = a.join(&b);
        let ba = b.join(&a);
        assert_eq!(ab.len(), ba.len(), "case {case}");
        let yi = ab.index_of(&v("y")).unwrap();
        for row in ab.rows() {
            assert!(row[yi].is_some(), "case {case}");
        }
    }
}

/// Left join never loses left rows.
#[test]
fn left_join_preserves_left_cardinality_lower_bound() {
    let v = |n: &str| Variable::new(n);
    let t = |i: u32| Term::integer(i as i64);
    for case in 0..64 {
        let rng = &mut case_rng(0xFED6, case);
        let xs: Vec<u32> = (0..rng.gen_range(1..15usize))
            .map(|_| rng.gen_range(0..6u32))
            .collect();
        let mut a = Relation::new(vec![v("x")]);
        for x in &xs {
            a.push(vec![Some(t(*x))]);
        }
        let mut b = Relation::new(vec![v("x"), v("z")]);
        for _ in 0..rng.gen_range(0..15usize) {
            b.push(vec![
                Some(t(rng.gen_range(0..6u32))),
                Some(t(rng.gen_range(0..6u32))),
            ]);
        }
        let lj = a.left_join(&b);
        assert!(lj.len() >= a.len(), "case {case}");
        // Every left value appears in the output.
        let xi = lj.index_of(&v("x")).unwrap();
        for x in &xs {
            assert!(
                lj.rows().iter().any(|r| r[xi] == Some(t(*x))),
                "case {case}"
            );
        }
    }
}

/// q-error is always ≥ 1 (or infinite) and symmetric.
#[test]
fn q_error_properties() {
    for case in 0..256 {
        let rng = &mut case_rng(0xFED7, case);
        let e = rng.gen_range(0..1000usize);
        let a = rng.gen_range(0..1000usize);
        let q = lusail_core::sape::q_error(e, a);
        assert!(q >= 1.0, "case {case}: q_error({e}, {a}) = {q}");
        assert_eq!(q, lusail_core::sape::q_error(a, e), "case {case}");
    }
}

/// Chauvenet never rejects points of a constant sample, and the
/// cleaned mean lies within the sample range.
#[test]
fn chauvenet_sanity() {
    for case in 0..64 {
        let rng = &mut case_rng(0xFED8, case);
        let xs: Vec<f64> = (0..rng.gen_range(3..40usize))
            .map(|_| rng.gen_range(0.0..1e6f64))
            .collect();
        let outliers = lusail_core::sape::stats::chauvenet_outliers(&xs);
        assert_eq!(outliers.len(), xs.len(), "case {case}");
        let kept: Vec<f64> = xs
            .iter()
            .zip(&outliers)
            .filter(|(_, &o)| !o)
            .map(|(&x, _)| x)
            .collect();
        assert!(
            !kept.is_empty(),
            "case {case}: Chauvenet must not reject everything"
        );
        let (mu, _) = lusail_core::sape::stats::clean_mean_std(&xs);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            mu >= min && mu <= max,
            "case {case}: mean {mu} outside [{min}, {max}]"
        );
    }
}

/// The tiny regex engine agrees with plain substring search on
/// metacharacter-free patterns.
#[test]
fn regex_matches_contains_for_plain_patterns() {
    for case in 0..256 {
        let rng = &mut case_rng(0xFED9, case);
        let mut pat = gen_lowercase(rng, 6);
        if pat.is_empty() {
            pat.push('a');
        }
        let text = gen_lowercase(rng, 24);
        let re = lusail_store::regex_lite::Regex::new(&pat, "").unwrap();
        assert_eq!(
            re.is_match(&text),
            text.contains(&pat),
            "case {case}: /{pat}/ on {text:?}"
        );
    }
}

/// FILTER expression evaluation is deterministic and total (never
/// panics) on arbitrary comparison expressions over integers.
#[test]
fn expressions_are_total() {
    use lusail_store::expr::{eval_ebv, ExprContext};
    struct Ctx(i64, i64);
    impl ExprContext for Ctx {
        fn value_of(&self, v: &Variable) -> Option<Term> {
            match v.name() {
                "x" => Some(Term::integer(self.0)),
                "y" => Some(Term::integer(self.1)),
                _ => None,
            }
        }
        fn exists(&mut self, _p: &GraphPattern) -> bool {
            false
        }
    }
    for case in 0..256 {
        let rng = &mut case_rng(0xFEDA, case);
        let x = rng.gen_range(-100..100i64);
        let y = rng.gen_range(-100..100i64);
        let op = rng.gen_range(0..6u32);
        let lhs = Box::new(Expression::Var(Variable::new("x")));
        let rhs = Box::new(Expression::Var(Variable::new("y")));
        let e = match op {
            0 => Expression::Eq(lhs, rhs),
            1 => Expression::Ne(lhs, rhs),
            2 => Expression::Lt(lhs, rhs),
            3 => Expression::Le(lhs, rhs),
            4 => Expression::Gt(lhs, rhs),
            _ => Expression::Ge(lhs, rhs),
        };
        let expected = match op {
            0 => x == y,
            1 => x != y,
            2 => x < y,
            3 => x <= y,
            4 => x > y,
            _ => x >= y,
        };
        assert_eq!(
            eval_ebv(&e, &mut Ctx(x, y)),
            expected,
            "case {case}: op {op} on ({x}, {y})"
        );
    }
}

// ---- hostile-input fuzzing ----------------------------------------------
//
// The federation layer parses bytes that arrive off the wire from
// endpoints it does not control. These seeded byte-mutation loops prove
// the JSON and results parsers are total: any outcome is fine except a
// panic (or unbounded memory, covered by the streaming cap tests).

/// A well-formed SPARQL results document to mutate, exercising every
/// term shape the serializer can emit (IRI, plain/typed/tagged literal,
/// unbound cells, escapes).
fn seed_results_document(rng: &mut SplitMix64) -> String {
    let mut doc = String::from("{\"head\":{\"vars\":[\"s\",\"o\"]},\"results\":{\"bindings\":[");
    let rows = rng.gen_range(1..6usize);
    for i in 0..rows {
        if i > 0 {
            doc.push(',');
        }
        let o = match rng.gen_range(0..4u32) {
            0 => format!(
                "{{\"type\":\"literal\",\"value\":\"{}\"}}",
                gen_lowercase(rng, 6)
            ),
            1 => format!(
                "{{\"type\":\"literal\",\"value\":\"{}\",\"datatype\":\
                 \"http://www.w3.org/2001/XMLSchema#integer\"}}",
                rng.gen_range(0..99u32)
            ),
            2 => "{\"type\":\"literal\",\"value\":\"caf\\u00e9 \\\"q\\\" \
                  \\uD83D\\uDE00\",\"xml:lang\":\"en\"}"
                .to_string(),
            _ => format!(
                "{{\"type\":\"uri\",\"value\":\"http://x.example.org/{}\"}}",
                gen_lowercase(rng, 5)
            ),
        };
        doc.push_str(&format!(
            "{{\"s\":{{\"type\":\"uri\",\"value\":\"http://x.example.org/s{i}\"}},\
             \"o\":{o}}}"
        ));
    }
    doc.push_str("]}}");
    doc
}

/// Apply one of four byte-level corruptions: truncate, flip bytes,
/// insert noise, or splice a chunk from elsewhere in the document.
fn mutate_bytes(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    match rng.gen_range(0..4u32) {
        0 => {
            let at = rng.gen_range(0..bytes.len());
            bytes.truncate(at);
        }
        1 => {
            for _ in 0..rng.gen_range(1..8usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0..256u32) as u8;
            }
        }
        2 => {
            let at = rng.gen_range(0..=bytes.len());
            let noise: Vec<u8> = (0..rng.gen_range(1..12usize))
                .map(|_| rng.gen_range(0..256u32) as u8)
                .collect();
            bytes.splice(at..at, noise);
        }
        _ => {
            let from = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(1..=(bytes.len() - from).min(16));
            let chunk: Vec<u8> = bytes[from..from + len].to_vec();
            let at = rng.gen_range(0..=bytes.len());
            bytes.splice(at..at, chunk);
        }
    }
}

/// Results parsers (DOM, DOM-with-warnings, and the streaming capped
/// parser) never panic on arbitrarily corrupted documents, and agree on
/// acceptance: any document the DOM parser accepts, the streaming parser
/// accepts too.
#[test]
fn results_json_parsers_are_total_on_mutated_bytes() {
    use lusail_federation::results_json;
    for case in 0..512 {
        let rng = &mut case_rng(0xFEDB, case);
        let mut bytes = seed_results_document(rng).into_bytes();
        for _ in 0..rng.gen_range(1..4usize) {
            mutate_bytes(rng, &mut bytes);
        }
        // Exercise the streaming parser on raw (possibly non-UTF-8)
        // bytes, and the &str entry points on the lossy decoding.
        let cap = [None, Some(0), Some(2)][case % 3];
        let _ = results_json::parse_stream(&bytes[..], cap);
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let dom = results_json::parse(&text);
        let full = results_json::parse_full(&text);
        let streamed = results_json::parse_capped(&text, None);
        assert_eq!(dom.is_ok(), full.is_ok(), "case {case}: {text:?}");
        if let (Ok(dom), Ok(streamed)) = (&dom, &streamed) {
            assert_eq!(dom, &streamed.result, "case {case}: {text:?}");
        }
    }
}

/// The generic JSON parser never panics on mutated documents or raw
/// garbage.
#[test]
fn json_parser_is_total_on_mutated_bytes() {
    use lusail_federation::json::Json;
    for case in 0..512 {
        let rng = &mut case_rng(0xFEDC, case);
        let mut bytes = if rng.gen_bool(0.5) {
            seed_results_document(rng).into_bytes()
        } else {
            (0..rng.gen_range(1..120usize))
                .map(|_| rng.gen_range(0..256u32) as u8)
                .collect()
        };
        for _ in 0..rng.gen_range(0..4usize) {
            mutate_bytes(rng, &mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = Json::parse(&text);
    }
}

/// A random JSON document: nesting up to `depth` more levels, strings
/// with escapes, control characters and astral-plane characters (which
/// travel as surrogate pairs when escaped), integers at the edges a
/// counter can reach, and fractions.
fn gen_json(rng: &mut SplitMix64, depth: usize) -> lusail_federation::json::Json {
    use lusail_federation::json::Json;
    fn gen_string(rng: &mut SplitMix64) -> String {
        const ALPHABET: [char; 12] = [
            'a', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '\u{FFFF}', '😀',
        ];
        (0..rng.gen_range(0..8usize))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    }
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Number(match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => u32::MAX as f64,
            2 => ((1u64 << 53) - 1) as f64,
            3 => -(rng.gen_range(0..1_000_000u32) as f64),
            4 => rng.next_f64() * 1e6 - 5e5,
            _ => rng.next_f64() * 1e300,
        }),
        3 => Json::String(gen_string(rng)),
        4 => Json::Array(
            (0..rng.gen_range(0..4usize))
                .map(|_| gen_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.gen_range(0..4usize))
                .map(|_| (gen_string(rng), gen_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// The JSON writer and parser are inverses: whatever document the stats
/// builders could assemble parses back to itself.
#[test]
fn json_writer_round_trips_through_the_parser() {
    use lusail_federation::json::Json;
    for case in 0..512 {
        let rng = &mut case_rng(0x15_0A, case);
        let depth = rng.gen_range(0..6usize);
        let doc = gen_json(rng, depth);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).as_ref(), Ok(&doc), "case {case}: {text}");
    }
    // Nesting right up to the parser's depth cap (64 containers).
    let mut deep = Json::Number(7.0);
    for level in 0..64 {
        deep = if level % 2 == 0 {
            Json::Array(vec![deep])
        } else {
            Json::Object(vec![("k".to_string(), deep)])
        };
    }
    assert_eq!(Json::parse(&deep.to_string()), Ok(deep));
    // Counters print exactly, as integers.
    for (n, text) in [
        (0u64, "0"),
        (u32::MAX as u64, "4294967295"),
        ((1 << 53) - 1, "9007199254740991"),
    ] {
        assert_eq!(Json::from(n).to_string(), text);
    }
    // JSON has no spelling for a non-finite number.
    for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::Array(vec![Json::Number(n)]).to_string(), "[null]");
    }
}

/// Degenerate nesting must be rejected with an error, not a stack
/// overflow: both parsers cap recursion depth.
#[test]
fn deeply_nested_input_errors_instead_of_overflowing() {
    use lusail_federation::json::Json;
    use lusail_federation::results_json;
    // 65 is the first depth past both parsers' MAX_DEPTH of 64.
    for depth in [65usize, 512, 100_000] {
        let deep = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&deep).is_err(), "depth {depth}");
        // An unknown head member forces the streaming parser down its
        // depth-capped skip_value path.
        let doc = format!(
            "{{\"head\":{{\"junk\":{deep},\"vars\":[]}},\
             \"results\":{{\"bindings\":[]}}}}"
        );
        assert!(
            results_json::parse_capped(&doc, None).is_err(),
            "depth {depth}"
        );
        let mixed = format!("{}\"x\"{}", "{\"k\":[".repeat(depth), "]}".repeat(depth));
        assert!(Json::parse(&mixed).is_err(), "depth {depth}");
    }
}

// ---- pinned regressions -------------------------------------------------
//
// Shrunk counterexamples proptest found historically, preserved as exact
// deterministic inputs (formerly `properties.proptest-regressions`).

fn iri(s: &str) -> Term {
    Term::iri(s)
}

fn triple(s: &str, p: &str, o: &str) -> lusail_rdf::Triple {
    lusail_rdf::Triple {
        subject: iri(s),
        predicate: iri(p),
        object: iri(o),
    }
}

fn run_regression(graphs: Vec<(String, Graph)>, query: Query, label: &str) {
    let actual = paranoid_engine(&graphs).execute(&query).unwrap();
    let expected = ground_truth(&graphs, &query);
    assert_same_solutions(label, &actual, &expected);
}

/// The same triple held at two endpoints: under SPARQL bag semantics the
/// federation returns it once *per holding endpoint* (the merged store
/// would deduplicate — these inputs predate the per-endpoint subject
/// namespacing of the random generator, so they pin the bag behaviour).
#[test]
fn regression_replicated_triple_across_endpoints() {
    let g1: Graph = [triple(
        "http://ns0.example.org/e0",
        "http://vocab.example.org/p4",
        "http://ns2.example.org/e2",
    )]
    .into_iter()
    .collect();
    let g2: Graph = [triple(
        "http://ns0.example.org/e0",
        "http://vocab.example.org/p0",
        "http://ns0.example.org/e0",
    )]
    .into_iter()
    .collect();
    let g3: Graph = [triple(
        "http://ns0.example.org/e0",
        "http://vocab.example.org/p4",
        "http://ns2.example.org/e2",
    )]
    .into_iter()
    .collect();
    let query = Query::select(SelectQuery::new(
        Projection::All,
        GraphPattern::Bgp(vec![TriplePattern::new(
            TermPattern::var("v1"),
            TermPattern::iri("http://vocab.example.org/p4"),
            TermPattern::var("v0"),
        )]),
    ));
    let graphs = vec![
        ("ep0".to_string(), g1),
        ("ep1".to_string(), g2),
        ("ep2".to_string(), g3),
    ];
    let actual = paranoid_engine(&graphs).execute(&query).unwrap();
    // One row per endpoint holding the `e0 p4 e2` triple (ep0 and ep2).
    assert_eq!(
        actual.len(),
        2,
        "bag semantics: one solution per holding endpoint"
    );
    let v1 = actual.index_of(&Variable::new("v1")).unwrap();
    let v0 = actual.index_of(&Variable::new("v0")).unwrap();
    for row in actual.rows() {
        assert_eq!(row[v1], Some(iri("http://ns0.example.org/e0")));
        assert_eq!(row[v0], Some(iri("http://ns2.example.org/e2")));
    }
}

/// BIND over a LEFT JOIN with the required pattern replicated at two
/// endpoints: like the test above, the federation answers once per
/// holding endpoint under bag semantics.
#[test]
fn regression_bind_over_left_join() {
    let g1: Graph = [triple(
        "http://ns5.example.org/e6",
        "http://vocab.example.org/p2",
        "http://ns4.example.org/e3",
    )]
    .into_iter()
    .collect();
    let g2: Graph = [
        triple(
            "http://ns0.example.org/e0",
            "http://vocab.example.org/p0",
            "http://ns4.example.org/e3",
        ),
        triple(
            "http://ns5.example.org/e6",
            "http://vocab.example.org/p2",
            "http://ns4.example.org/e3",
        ),
    ]
    .into_iter()
    .collect();
    let pattern = GraphPattern::Bind(
        Box::new(GraphPattern::LeftJoin(
            Box::new(GraphPattern::Bgp(vec![TriplePattern::new(
                TermPattern::var("v0"),
                TermPattern::iri("http://vocab.example.org/p2"),
                TermPattern::var("v1"),
            )])),
            Box::new(GraphPattern::Bgp(vec![TriplePattern::new(
                TermPattern::var("v0"),
                TermPattern::iri("http://vocab.example.org/p4"),
                TermPattern::var("opt"),
            )])),
        )),
        Expression::Str(Box::new(Expression::Var(Variable::new("v0")))),
        Variable::new("bound"),
    );
    let graphs = vec![("ep0".to_string(), g1), ("ep1".to_string(), g2)];
    let query = Query::select(SelectQuery::new(Projection::All, pattern));
    let actual = paranoid_engine(&graphs).execute(&query).unwrap();
    // `e6 p2 e3` is held at both endpoints; neither has a `p4` match, so
    // both rows keep `?opt` unbound and BIND stringifies the subject.
    assert_eq!(
        actual.len(),
        2,
        "bag semantics: one solution per holding endpoint"
    );
    let idx = |n: &str| actual.index_of(&Variable::new(n)).unwrap();
    for row in actual.rows() {
        assert_eq!(row[idx("v0")], Some(iri("http://ns5.example.org/e6")));
        assert_eq!(row[idx("v1")], Some(iri("http://ns4.example.org/e3")));
        assert_eq!(row[idx("opt")], None);
        assert_eq!(
            row[idx("bound")],
            Some(Term::literal("http://ns5.example.org/e6"))
        );
    }
}

/// A three-pattern star whose join crosses all three endpoints: two
/// patterns share `?v1`, the third shares `?v2` with the second.
#[test]
fn regression_cross_endpoint_star_join() {
    let g1: Graph = [
        triple(
            "http://ep0.example.org/e7",
            "http://vocab.example.org/p2",
            "http://ns0.example.org/e0",
        ),
        triple(
            "http://ep0.example.org/e7",
            "http://vocab.example.org/p0",
            "http://ns2.example.org/e11",
        ),
    ]
    .into_iter()
    .collect();
    let g2: Graph = [triple(
        "http://ep1.example.org/e0",
        "http://vocab.example.org/p0",
        "http://ns0.example.org/e0",
    )]
    .into_iter()
    .collect();
    let g3: Graph = [triple(
        "http://ep2.example.org/e0",
        "http://vocab.example.org/p0",
        "http://ns2.example.org/e11",
    )]
    .into_iter()
    .collect();
    let query = Query::select(SelectQuery::new(
        Projection::All,
        GraphPattern::Bgp(vec![
            TriplePattern::new(
                TermPattern::var("v0"),
                TermPattern::iri("http://vocab.example.org/p0"),
                TermPattern::var("v1"),
            ),
            TriplePattern::new(
                TermPattern::var("v2"),
                TermPattern::iri("http://vocab.example.org/p0"),
                TermPattern::var("v1"),
            ),
            TriplePattern::new(
                TermPattern::var("v2"),
                TermPattern::iri("http://vocab.example.org/p2"),
                TermPattern::var("v3"),
            ),
        ]),
    ));
    run_regression(
        vec![("ep0".into(), g1), ("ep1".into(), g2), ("ep2".into(), g3)],
        query,
        "regression: cross-endpoint star join",
    );
}

// ---- binary results codec ----------------------------------------------
//
// The binary interchange codec must be a drop-in replacement for SPARQL
// JSON: whatever a JSON round-trip preserves, the binary round-trip must
// preserve byte-for-byte equal, and its decoder must be as total as the
// JSON parsers under hostile bytes.

/// Any term shape the wire can carry: IRIs, blank nodes, plain, typed,
/// and language-tagged literals — with escapes and non-ASCII mixed in.
fn gen_wire_term(rng: &mut SplitMix64) -> Term {
    match rng.gen_range(0..6u32) {
        0 => Term::iri(format!(
            "http://ns{}.example.org/e{}",
            rng.gen_range(0..6u32),
            rng.gen_range(0..40u32)
        )),
        1 => Term::bnode(format!("b{}", rng.gen_range(0..9u32))),
        2 => Term::literal(format!(
            "caf\u{e9} \"{}\" \u{1F600}\n",
            gen_lowercase(rng, 5)
        )),
        3 => Term::integer(rng.gen_range(-99..99)),
        4 => Term::Literal(lusail_rdf::Literal::typed(
            gen_lowercase(rng, 8),
            format!("http://types.example.org/t{}", rng.gen_range(0..4u32)),
        )),
        _ => Term::Literal(lusail_rdf::Literal {
            lexical: gen_lowercase(rng, 8).into(),
            datatype: None,
            language: Some("en-US".into()),
        }),
    }
}

/// A relation with arbitrary wire terms and unbound cells.
fn gen_wire_relation(rng: &mut SplitMix64) -> Relation {
    let arity = rng.gen_range(1..5usize);
    let vars: Vec<Variable> = (0..arity).map(|i| Variable::new(format!("v{i}"))).collect();
    let mut rel = Relation::new(vars);
    for _ in 0..rng.gen_range(0..12usize) {
        rel.push(
            (0..arity)
                .map(|_| rng.gen_bool(0.8).then(|| gen_wire_term(rng)))
                .collect(),
        );
    }
    rel
}

/// Round trip through the binary codec ≡ round trip through SPARQL JSON,
/// for arbitrary relations (and booleans): same solutions, same warnings,
/// and the binary decoder reports the true dictionary size.
#[test]
fn binary_codec_roundtrip_matches_json() {
    use lusail_federation::{results_bin, results_json};
    use lusail_store::eval::QueryResult;
    for case in 0..256 {
        let rng = &mut case_rng(0xB14A, case);
        let result = if case % 16 == 0 {
            QueryResult::Boolean(rng.gen_bool(0.5))
        } else {
            QueryResult::Solutions(gen_wire_relation(rng))
        };
        let warnings: Vec<String> = (0..rng.gen_range(0..3usize))
            .map(|i| format!("warning {i}: {}", gen_lowercase(rng, 6)))
            .collect();

        let bin = results_bin::serialize_with_warnings(&result, &warnings);
        let decoded = results_bin::parse(&bin).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(decoded.result, result, "case {case}: binary round trip");
        if matches!(result, QueryResult::Solutions(_)) {
            // ASK documents carry no warnings in either codec.
            assert_eq!(decoded.warnings, warnings, "case {case}: warnings");
        }
        assert!(!decoded.truncated, "case {case}: spurious truncation");

        let json = results_json::serialize(&result);
        let via_json = results_json::parse(&json).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            decoded.result, via_json,
            "case {case}: binary and JSON decodes disagree"
        );

        // The decoder's dictionary size must match the encoder's: every
        // distinct term shipped exactly once.
        if let QueryResult::Solutions(rel) = &result {
            let mut enc = results_bin::Encoder::new();
            enc.head(rel.vars(), &warnings);
            for row in rel.rows() {
                enc.row(row);
            }
            assert_eq!(
                decoded.dict_terms,
                enc.dict_terms(),
                "case {case}: dict size"
            );
        }
    }
}

/// The binary decoder is total on corrupted documents: truncations, bit
/// flips, splices, and inserted noise yield `Err` (or a shorter decode),
/// never a panic — mirroring the JSON parsers' treatment above. Row caps
/// must hold on corrupted documents too.
#[test]
fn binary_decoder_is_total_on_mutated_bytes() {
    use lusail_federation::results_bin;
    use lusail_store::eval::QueryResult;
    for case in 0..512 {
        let rng = &mut case_rng(0xB14B, case);
        let mut bytes = if rng.gen_bool(0.9) {
            results_bin::serialize(&QueryResult::Solutions(gen_wire_relation(rng)))
        } else {
            (0..rng.gen_range(1..120usize))
                .map(|_| rng.gen_range(0..256u32) as u8)
                .collect()
        };
        for _ in 0..rng.gen_range(1..4usize) {
            mutate_bytes(rng, &mut bytes);
        }
        let cap = [None, Some(0), Some(2)][case % 3];
        if let Ok(streamed) = results_bin::parse_stream(&bytes[..], cap) {
            if let (Some(cap), QueryResult::Solutions(rel)) = (cap, &streamed.result) {
                assert!(rel.len() <= cap, "case {case}: row cap exceeded");
            }
        }
    }
}

// ---- read boundaries -----------------------------------------------------
//
// The streaming decoders see the body one `read` at a time. A decoder that
// scans runs of bytes breaks exactly where a run, an escape or a UTF-8
// sequence is split between two reads, so these documents go through a
// reader that hands out 1–17 bytes per call.

/// A reader returning the next 1–17 bytes of `bytes` per call.
struct Dribble<'a> {
    bytes: &'a [u8],
    rng: SplitMix64,
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .rng
            .gen_range(1..=17usize)
            .min(out.len())
            .min(self.bytes.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// The inside of a JSON string: plain runs, multi-byte UTF-8, every escape
/// JSON has and surrogate pairs; with `lone`, unpaired surrogates too. A
/// `long` one outgrows the JSON decoder's 8 KiB read buffer.
fn gen_escaped_text(rng: &mut SplitMix64, long: bool, lone: bool) -> String {
    const PIECES: [&str; 17] = [
        "a plain run",
        " ",
        "\u{e9}",
        "\u{4e2d}\u{6587}",
        "\u{1F600}",
        "\\\"",
        "\\\\",
        "\\/",
        "\\b",
        "\\f",
        "\\n",
        "\\r",
        "\\t",
        "\\u00e9",
        "\\u001F",
        "\\ud83d\\ude00",
        "\\uD83D\\uDE00",
    ];
    const LONE: [&str; 2] = ["\\ud800", "\\udc00"];
    let len = if long {
        rng.gen_range(8_200..20_000usize)
    } else {
        rng.gen_range(0..40usize)
    };
    let mut out = String::new();
    while out.len() < len {
        if lone && rng.gen_range(0..8u32) == 0 {
            out.push_str(LONE[rng.gen_range(0..LONE.len())]);
        } else {
            out.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
        }
    }
    out
}

/// A SPARQL-JSON results document written by hand rather than by the
/// encoder: every term kind and the legacy `typed-literal`, members in
/// any order, optional whitespace, escaped keys, head warnings, unbound
/// cells.
fn gen_boundary_document(rng: &mut SplitMix64, lone: bool) -> String {
    fn ws(rng: &mut SplitMix64) -> &'static str {
        ["", "", "", " ", "\n\t "][rng.gen_range(0..5usize)]
    }
    let mut doc = format!(
        "{{\"head\":{{\"vars\":[\"s\",\"o\",\"x\"],\"warnings\":[\"{}\"]}},{}\"results\":{{\"bindings\":[",
        gen_escaped_text(rng, false, lone),
        ws(rng),
    );
    for row in 0..rng.gen_range(0..6usize) {
        if row > 0 {
            doc.push(',');
        }
        let mut cells = Vec::new();
        // "o" as `o`: keys are matched after unescaping.
        for var in ["s", "\\u006f", "x"] {
            if rng.gen_bool(0.2) {
                continue;
            }
            let long = rng.gen_range(0..8u32) == 0;
            let value = gen_escaped_text(rng, long, lone);
            let mut members = vec![format!("\"value\":\"{value}\"")];
            members.push(
                match rng.gen_range(0..6u32) {
                    0 => "\"type\":\"uri\"",
                    1 => "\"type\":\"bnode\"",
                    2 => "\"type\":\"typed-literal\"",
                    _ => "\"type\":\"literal\"",
                }
                .to_string(),
            );
            match rng.gen_range(0..4u32) {
                0 => members.push(format!(
                    "\"datatype\":\"http://types.example.org/t{}\"",
                    rng.gen_range(0..2u32)
                )),
                1 => members.push(format!(
                    "\"xml:lang\":\"{}\"",
                    gen_escaped_text(rng, false, false)
                )),
                2 => members.push("\"extra\":[1,{\"k\":null}]".to_string()),
                _ => {}
            }
            let turn = rng.gen_range(0..members.len());
            members.rotate_left(turn);
            let sep = format!(",{}", ws(rng));
            cells.push(format!("\"{var}\":{}{{{}}}", ws(rng), members.join(&sep)));
        }
        doc.push_str(&format!("{{{}}}", cells.join(",")));
    }
    doc.push_str("]}}");
    doc
}

/// Both streaming decoders give the same answer however the input is cut
/// into reads: the JSON decoder matches itself over the whole text (and
/// the DOM parser wherever that accepts), the binary decoder matches
/// itself over the whole buffer, at every row cap.
#[test]
fn streaming_decoders_agree_across_read_boundaries() {
    use lusail_federation::{results_bin, results_json};
    for case in 0..96 {
        let rng = &mut case_rng(0xB0DA, case);
        let lone = case % 4 == 3;
        let text = gen_boundary_document(rng, lone);
        let dribble = |bytes| Dribble {
            bytes,
            rng: case_rng(0xB0DB, case),
        };
        for cap in [None, Some(0), Some(2)] {
            let whole = results_json::parse_capped(&text, cap)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            let split = results_json::parse_stream(dribble(text.as_bytes()), cap)
                .unwrap_or_else(|e| panic!("case {case} cap {cap:?}: {e}"));
            assert_eq!(split, whole, "case {case} cap {cap:?}");
        }
        let full = results_json::parse_capped(&text, None).unwrap();
        // The DOM parser rejects an unpaired surrogate the streaming
        // decoder replaces; every other document it must read the same.
        match results_json::parse(&text) {
            Ok(dom) => assert_eq!(dom, full.result, "case {case}"),
            Err(e) => assert!(lone, "case {case}: DOM parse failed: {e}"),
        }

        let bin = results_bin::serialize_with_warnings(&full.result, &full.warnings);
        for cap in [None, Some(0), Some(2)] {
            let whole = results_bin::parse_stream(&bin[..], cap)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            let split = results_bin::parse_stream(dribble(&bin), cap)
                .unwrap_or_else(|e| panic!("case {case} cap {cap:?}: {e}"));
            assert_eq!(split, whole, "case {case} cap {cap:?}");
        }
        assert_eq!(results_bin::parse(&bin).unwrap().result, full.result);
    }
}
