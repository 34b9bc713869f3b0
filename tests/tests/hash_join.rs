//! The one hash-join kernel (`sparql::solution::HashTable`) against
//! nested-loop oracles written from the SPARQL definitions.
//!
//! Random relations of 0–40 rows over 0–3 shared variables, with UNDEF
//! cells, duplicate rows and empty sides, go through `Relation::{join,
//! left_join, minus, equi_join, join_in_parts}` and through the store's
//! evaluator (`VALUES ⋈ VALUES`, `MINUS`, a bridged `FILTER(?a = ?b)`).
//! Every result must be bag-equal to its oracle, and order-equal wherever
//! no shared cell is unbound: the probe side's rows in order, each followed
//! by its matches in build order. Cases are drawn from `LUSAIL_CHAOS_SEED`
//! (default 42); a failure names the seed and the case.

use lusail_federation::RequestHandler;
use lusail_rdf::{Graph, Literal, Term};
use lusail_sparql::ast::Variable;
use lusail_sparql::parse_query;
use lusail_sparql::solution::{Relation, Row};
use lusail_store::{Evaluator, Store};
use lusail_workloads::prng::SplitMix64;

const CASES: u64 = 300;

fn chaos_seed() -> u64 {
    let seed = std::env::var("LUSAIL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    println!("replay: LUSAIL_CHAOS_SEED={seed} cargo test -p integration --test hash_join");
    seed
}

fn case_rng(seed: u64, case: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

// ---- generators ----------------------------------------------------------

fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Two headers sharing 0–3 variables, each with 0–2 of its own, in
/// shuffled orders. With `nonempty`, neither header is empty.
fn headers(rng: &mut SplitMix64, nonempty: bool) -> (Vec<Variable>, Vec<Variable>) {
    let shared = rng.gen_range(0..=3usize);
    let side = |rng: &mut SplitMix64, own: &str| {
        let mut vars: Vec<Variable> = (0..shared)
            .map(|i| Variable::new(format!("s{i}")))
            .collect();
        let extra = rng.gen_range(usize::from(nonempty && shared == 0)..=2);
        vars.extend((0..extra).map(|i| Variable::new(format!("{own}{i}"))));
        shuffle(rng, &mut vars);
        vars
    };
    (side(rng, "l"), side(rng, "r"))
}

fn iri(i: usize) -> Term {
    Term::iri(format!("http://x/{i}"))
}

fn double(lexical: &str) -> Term {
    Term::Literal(Literal::typed(
        lexical,
        "http://www.w3.org/2001/XMLSchema#double",
    ))
}

/// 0–40 rows over `vars`, cells from a small domain so keys repeat, each
/// unbound with probability `undef`; about one row in ten repeats an
/// earlier one.
fn relation(rng: &mut SplitMix64, vars: Vec<Variable>, undef: f64) -> Relation {
    let n = if rng.gen_bool(0.1) {
        0
    } else {
        rng.gen_range(0..=40usize)
    };
    let mut rel = Relation::new(vars);
    for _ in 0..n {
        let row: Row = if !rel.is_empty() && rng.gen_bool(0.1) {
            rel.rows()[rng.gen_range(0..rel.len())].clone()
        } else {
            (0..rel.vars().len())
                .map(|_| {
                    (!rng.gen_bool(undef)).then(|| match rng.gen_range(0..5u32) {
                        0..=2 => iri(rng.gen_range(0..4usize)),
                        3 => Term::integer(rng.gen_range(0..2)),
                        _ => Term::literal("x"),
                    })
                })
                .collect()
        };
        rel.push(row);
    }
    rel
}

/// A cell for an `=` join: `1`, `"1.0"^^xsd:double`, `"1"`, NaN, `2`, an
/// IRI, or unbound (only where `undef`).
fn eq_cell(rng: &mut SplitMix64, undef: bool) -> Option<Term> {
    match rng.gen_range(u32::from(!undef)..7) {
        0 => None,
        1 => Some(Term::integer(1)),
        2 => Some(double("1.0")),
        3 => Some(Term::literal("1")),
        4 => Some(double("NaN")),
        5 => Some(Term::integer(2)),
        _ => Some(iri(0)),
    }
}

// ---- oracles -------------------------------------------------------------

/// SPARQL compatibility of two rows, and whether they share a bound
/// variable (what `MINUS` also asks).
fn compatible(a: &Relation, ra: &Row, b: &Relation, rb: &Row) -> (bool, bool) {
    let mut overlap = false;
    for (i, v) in a.vars().iter().enumerate() {
        if let (Some(x), Some(y)) = (&ra[i], b.index_of(v).and_then(|j| rb[j].as_ref())) {
            if x != y {
                return (false, false);
            }
            overlap = true;
        }
    }
    (true, overlap)
}

fn header(a: &Relation, b: &Relation) -> Vec<Variable> {
    let mut vars = a.vars().to_vec();
    vars.extend(b.vars().iter().filter(|v| a.index_of(v).is_none()).cloned());
    vars
}

/// `ra` merged with `rb` (or alone), the bound cell winning.
fn merged(a: &Relation, ra: &Row, b: &Relation, rb: Option<&Row>) -> Row {
    (header(a, b).iter())
        .map(|v| {
            let left = a.index_of(v).and_then(|i| ra[i].clone());
            left.or_else(|| rb.and_then(|rb| b.index_of(v).and_then(|j| rb[j].clone())))
        })
        .collect()
}

/// Every pair `pairs` accepts, `a`'s rows outermost or `b`'s.
fn nested(
    a: &Relation,
    b: &Relation,
    b_outer: bool,
    pairs: impl Fn(&Row, &Row) -> bool,
) -> Relation {
    let mut out = Relation::new(header(a, b));
    let mut pair = |ra: &Row, rb: &Row| {
        if pairs(ra, rb) {
            out.push(merged(a, ra, b, Some(rb)));
        }
    };
    if b_outer {
        (b.rows().iter()).for_each(|rb| a.rows().iter().for_each(|ra| pair(ra, rb)));
    } else {
        (a.rows().iter()).for_each(|ra| b.rows().iter().for_each(|rb| pair(ra, rb)));
    }
    out
}

fn nested_join(a: &Relation, b: &Relation, b_outer: bool) -> Relation {
    nested(a, b, b_outer, |ra, rb| compatible(a, ra, b, rb).0)
}

fn nested_left_join(a: &Relation, b: &Relation) -> Relation {
    let mut out = Relation::new(header(a, b));
    for ra in a.rows() {
        let before = out.len();
        for rb in b.rows().iter().filter(|rb| compatible(a, ra, b, rb).0) {
            out.push(merged(a, ra, b, Some(rb)));
        }
        if out.len() == before {
            out.push(merged(a, ra, b, None));
        }
    }
    out
}

fn nested_minus(a: &Relation, b: &Relation) -> Relation {
    let rows = (a.rows().iter())
        .filter(|ra| {
            !b.rows()
                .iter()
                .any(|rb| compatible(a, ra, b, rb) == (true, true))
        })
        .cloned()
        .collect();
    Relation::from_rows(a.vars().to_vec(), rows)
}

/// SPARQL `=` on two cells: numbers by value (NaN equals nothing), other
/// literals by lexical form, anything else by identity; unbound never.
fn sparql_eq(x: Option<&Term>, y: Option<&Term>) -> bool {
    match (x, y) {
        (Some(Term::Literal(a)), Some(Term::Literal(b))) => match (a.as_f64(), b.as_f64()) {
            (Some(m), Some(n)) => m == n,
            (None, None) => a.lexical == b.lexical,
            _ => false,
        },
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

fn shared_unbound(a: &Relation, b: &Relation) -> bool {
    let unbound = |x: &Relation, y: &Relation| {
        (x.vars().iter().enumerate())
            .filter(|(_, v)| y.index_of(v).is_some())
            .any(|(i, _)| x.rows().iter().any(|r| r[i].is_none()))
    };
    unbound(a, b) || unbound(b, a)
}

/// `got` against `want`: the same header, the same bag, and with
/// `ordered` the same order. `got`'s columns are first put in `want`'s
/// order (the store's header order is its own).
fn check(label: &str, got: &Relation, want: &Relation, ordered: bool) {
    let mut got_vars = got.vars().to_vec();
    got_vars.sort();
    let mut want_vars = want.vars().to_vec();
    want_vars.sort();
    assert_eq!(got_vars, want_vars, "{label}: header");
    let got = got.project(want.vars());
    if ordered {
        assert_eq!(got.rows(), want.rows(), "{label}: rows in order");
    } else {
        let sorted = |r: &Relation| {
            let mut rows = r.rows().to_vec();
            rows.sort();
            rows
        };
        assert_eq!(sorted(&got), sorted(want), "{label}: bag");
    }
}

// ---- the relation side ---------------------------------------------------

#[test]
fn relation_joins_match_the_nested_loop_definitions() {
    let seed = chaos_seed();
    let handlers: Vec<RequestHandler> = (1..=4).map(RequestHandler::new).collect();
    for case in 0..CASES {
        let rng = &mut case_rng(seed, case);
        let label = format!("LUSAIL_CHAOS_SEED={seed} case {case}");
        let undef = [0.0, 0.05, 0.2][rng.gen_range(0..3usize)];
        let (va, vb) = headers(rng, false);
        let (a, b) = (relation(rng, va, undef), relation(rng, vb, undef));
        let ordered = !shared_unbound(&a, &b);
        // `join` hashes the smaller side; a product keeps `a` outermost.
        let shares = a.vars().iter().any(|v| b.index_of(v).is_some());
        let b_outer = shares && a.len() <= b.len();
        let joined = a.join(&b);
        check(
            &format!("{label} join"),
            &joined,
            &nested_join(&a, &b, b_outer),
            ordered,
        );
        check(
            &format!("{label} left_join"),
            &a.left_join(&b),
            &nested_left_join(&a, &b),
            ordered,
        );
        // MINUS keeps a subsequence of `a`, whatever is unbound.
        check(
            &format!("{label} minus"),
            &a.minus(&b),
            &nested_minus(&a, &b),
            true,
        );
        for handler in &handlers {
            let parts = handler.threads();
            let split = a.join_in_parts(&b, parts, |ranges, probe| handler.map(ranges, probe));
            assert_eq!(split, joined, "{label}: join_in_parts over {parts} parts");
        }
    }
}

/// `a` over `x0[, x1]` and `b` over `y0[, y1]` plus a payload column each,
/// the key cells drawn by [`eq_cell`]; the pairs are `(x_k, y_k)`.
fn eq_sides(rng: &mut SplitMix64) -> (Relation, Relation, Vec<(Variable, Variable)>) {
    let width = rng.gen_range(1..=2usize);
    let mut side = |key: &str, payload: &str| {
        let mut vars: Vec<Variable> = (0..width)
            .map(|k| Variable::new(format!("{key}{k}")))
            .collect();
        vars.push(Variable::new(payload));
        let mut rel = Relation::new(vars);
        for i in 0..rng.gen_range(0..=40usize) {
            let mut row: Row = (0..width).map(|_| eq_cell(rng, true)).collect();
            row.push(Some(iri(i)));
            rel.push(row);
        }
        rel
    };
    let (a, b) = (side("x", "pa"), side("y", "pb"));
    let pairs = (0..width)
        .map(|k| {
            (
                Variable::new(format!("x{k}")),
                Variable::new(format!("y{k}")),
            )
        })
        .collect();
    (a, b, pairs)
}

#[test]
fn equi_join_pairs_exactly_the_sparql_equal_rows() {
    let seed = chaos_seed();
    for case in 0..CASES {
        let rng = &mut case_rng(seed, case);
        let label = format!("LUSAIL_CHAOS_SEED={seed} case {case} equi_join");
        let (a, b, pairs) = eq_sides(rng);
        let keys: Vec<(usize, usize)> = (pairs.iter())
            .map(|(x, y)| (a.index_of(x).unwrap(), b.index_of(y).unwrap()))
            .collect();
        let want = nested(&a, &b, false, |ra, rb| {
            (keys.iter()).all(|&(i, j)| sparql_eq(ra[i].as_ref(), rb[j].as_ref()))
        });
        // `b` is hashed, so `a`'s order leads; no `=` key is ever loose.
        check(&label, &a.equi_join(&b, &pairs), &want, true);
    }
}

// ---- the store side ------------------------------------------------------

fn values(rel: &Relation) -> String {
    let vars: Vec<String> = rel.vars().iter().map(|v| v.to_string()).collect();
    let rows: Vec<String> = (rel.rows().iter())
        .map(|row| {
            let cells: Vec<String> = (row.iter())
                .map(|c| c.as_ref().map_or("UNDEF".to_string(), |t| t.to_string()))
                .collect();
            format!("({})", cells.join(" "))
        })
        .collect();
    format!("VALUES ({}) {{ {} }}", vars.join(" "), rows.join(" "))
}

fn select(store: &Store, text: &str) -> Relation {
    let query = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e:?}"));
    Evaluator::new(store).query(&query).into_solutions()
}

#[test]
fn store_joins_match_the_nested_loop_definitions() {
    let seed = chaos_seed();
    let store = Store::new();
    for case in 0..CASES {
        let rng = &mut case_rng(seed, case);
        let label = format!("LUSAIL_CHAOS_SEED={seed} case {case}");
        let undef = [0.0, 0.05, 0.2][rng.gen_range(0..3usize)];
        let (va, vb) = headers(rng, true);
        let (a, b) = (relation(rng, va, undef), relation(rng, vb, undef));
        let ordered = !shared_unbound(&a, &b);
        let (block_a, block_b) = (values(&a), values(&b));
        // The store hashes the right operand, so `a`'s order leads.
        check(
            &format!("{label} VALUES ⋈ VALUES"),
            &select(&store, &format!("SELECT * WHERE {{ {block_a} {block_b} }}")),
            &nested_join(&a, &b, false),
            ordered,
        );
        check(
            &format!("{label} MINUS"),
            &select(
                &store,
                &format!("SELECT * WHERE {{ {{ {block_a} }} MINUS {{ {block_b} }} }}"),
            ),
            &nested_minus(&a, &b),
            true,
        );
    }
}

#[test]
fn the_stores_bridged_filter_keeps_exactly_the_sparql_equal_pairs() {
    let seed = chaos_seed();
    for case in 0..CASES {
        let rng = &mut case_rng(seed, case);
        let label = format!("LUSAIL_CHAOS_SEED={seed} case {case} FILTER(?a = ?b)");
        let mut graph = Graph::new();
        for (subject, predicate) in [("s", "p"), ("t", "q")] {
            for i in 0..rng.gen_range(0..=20usize) {
                let object = eq_cell(rng, false).expect("bound");
                graph.add(
                    Term::iri(format!("http://x/{subject}{i}")),
                    Term::iri(format!("http://x/{predicate}")),
                    object,
                );
            }
        }
        let store = Store::from_graph(&graph);
        let left = select(&store, "SELECT * WHERE { ?s <http://x/p> ?a }");
        let right = select(&store, "SELECT * WHERE { ?t <http://x/q> ?b }");
        let (ia, ib) = (
            left.index_of(&Variable::new("a")),
            right.index_of(&Variable::new("b")),
        );
        let want = nested(&left, &right, false, |ra, rb| {
            sparql_eq(
                ia.and_then(|i| ra[i].as_ref()),
                ib.and_then(|j| rb[j].as_ref()),
            )
        });
        let text = "SELECT * WHERE { ?s <http://x/p> ?a . ?t <http://x/q> ?b . FILTER(?a = ?b) }";
        check(&label, &select(&store, text), &want, true);
    }
}
