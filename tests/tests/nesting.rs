//! The parser's one nesting limit (`sparql::parser::PARSE_LIMITS`): the
//! deepest query of each shape the parser accepts runs through every later
//! recursion over the tree on a 2 MiB thread — the stack a server worker
//! has — and one level more is a `ParseError`, not a stack overflow.

use lusail_core::normalize::normalize;
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::NetworkProfile;
use lusail_rdf::{Graph, Term};
use lusail_sparql::parser::PARSE_LIMITS;
use lusail_sparql::{parse_query, GraphPattern, Query};
use lusail_store::expr::filter_relation;
use lusail_store::{Evaluator, Store};

/// One triple pattern every query below is built from.
const T: &str = "?s <http://x/p> ?o";

/// `SELECT * { T FILTER(e) after }`.
fn filtered(e: String, after: &str) -> String {
    format!("SELECT * WHERE {{ {T} FILTER({e}) {after} }}")
}

/// A query shape: the query text as a function of how many times it nests.
type Shape = fn(usize) -> String;

/// Query shapes that nest.
fn shapes() -> Vec<(&'static str, Shape)> {
    vec![
        ("nested groups", |n| {
            let open = format!("{{ {T} . ").repeat(n);
            format!("SELECT * WHERE {{ {open}{T} {}}}", "} ".repeat(n))
        }),
        ("OPTIONAL chain", |n| {
            let chain = format!("OPTIONAL {{ {T} }} ").repeat(n);
            format!("SELECT * WHERE {{ {T} {chain}}}")
        }),
        ("UNION chain", |n| {
            let chain = format!("UNION {{ {T} }} ").repeat(n);
            format!("SELECT * WHERE {{ {{ {T} }} {chain}}}")
        }),
        ("nested OPTIONALs", |n| {
            let open = format!("{{ {T} OPTIONAL ").repeat(n);
            format!("SELECT * WHERE {open}{{ {T} }}{}", " }".repeat(n))
        }),
        ("nested EXISTS", |n| {
            let open = format!("{{ {T} FILTER EXISTS ").repeat(n);
            format!("SELECT * WHERE {open}{{ {T} }}{}", " }".repeat(n))
        }),
        ("nested subselects", |n| {
            let open = "{ SELECT * WHERE ".repeat(n);
            format!("SELECT * WHERE {open}{{ {T} }}{}", " }".repeat(n))
        }),
        ("parentheses", |n| {
            filtered(format!("{}?o = 1{}", "(".repeat(n), ")".repeat(n)), "")
        }),
        ("&& chain", |n| {
            filtered(format!("?o = 1{}", " && ?o = 1".repeat(n)), "")
        }),
        ("! chain", |n| {
            filtered(format!("{}BOUND(?o)", "!".repeat(n)), "")
        }),
        ("nested calls", |n| {
            filtered(
                format!("{}?o{} = \"1\"", "STR(".repeat(n), ")".repeat(n)),
                "",
            )
        }),
        ("+ chain", |n| {
            filtered(format!("?o{} > 0", " + ?o".repeat(n)), "")
        }),
        // The deepest tree per level of the counter: a deep first item
        // under a chain of as many more.
        ("deep expression under an OPTIONAL chain", |n| {
            let chain = format!("OPTIONAL {{ {T} }} ").repeat(n);
            filtered(format!("{}BOUND(?o)", "!".repeat(n)), &chain)
        }),
    ]
}

/// Each shape at the deepest nesting the parser accepts.
fn deepest() -> Vec<(&'static str, String)> {
    let limit = PARSE_LIMITS.max_nesting;
    shapes()
        .into_iter()
        .map(|(name, shape)| {
            let n = (0..=2 * limit)
                .take_while(|&n| parse_query(&shape(n)).is_ok())
                .last()
                .unwrap_or_else(|| panic!("{name}: even the shallowest query fails to parse"));
            assert!(n > 0 && n < 2 * limit, "{name}: accepted up to {n}");
            let err = parse_query(&shape(n + 1)).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{name}: {err}");
            (name, shape(n))
        })
        .collect()
}

/// Run `f` on a thread with a server worker's 2 MiB stack.
fn on_worker_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(scope, f)
            .unwrap()
            .join()
            .unwrap()
    })
}

/// One triple per endpoint, so no shape multiplies rows.
fn graphs() -> Vec<(String, Graph)> {
    let one = |o: Term| {
        let mut g = Graph::new();
        g.add(Term::iri("http://x/s"), Term::iri("http://x/p"), o);
        g
    };
    vec![
        ("a".to_string(), one(Term::integer(1))),
        ("b".to_string(), one(Term::iri("http://x/s"))),
    ]
}

/// For every shape at the limit: parse it on a worker stack and hand the
/// tree to `stage` there; the tree is dropped there too.
fn at_the_limit(stage: impl Fn(&Query) + Sync) {
    for (name, text) in deepest() {
        on_worker_stack(|| {
            let q = parse_query(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            stage(&q);
        });
    }
}

#[test]
fn the_parser_stops_at_the_limit_without_overflowing() {
    // Far past the limit, each shape is still a ParseError on a worker
    // stack: the parser gives up before it recurses that deep.
    for (name, shape) in shapes() {
        let text = shape(3_000);
        let err = on_worker_stack(|| parse_query(&text).map(|_| ()));
        assert!(err.is_err(), "{name}");
    }
    at_the_limit(|_| {});
}

#[test]
fn the_serializer_runs_at_the_limit() {
    at_the_limit(|q| assert!(!q.to_string().is_empty()));
}

#[test]
fn normalize_runs_at_the_limit() {
    at_the_limit(|q| {
        // Subselects are for check queries only: an error, not a crash.
        let _ = normalize(q.pattern());
    });
}

#[test]
fn lade_and_the_engine_run_at_the_limit() {
    let fed = lusail_workloads::federation_from_graphs(graphs(), NetworkProfile::instant());
    let engine = LusailEngine::new(fed, LusailConfig::default());
    at_the_limit(|q| {
        let _ = engine.execute(q);
    });
}

#[test]
fn the_store_evaluator_runs_at_the_limit() {
    let store = Store::from_graph(&graphs()[0].1);
    at_the_limit(|q| {
        Evaluator::new(&store).query(q);
    });
}

#[test]
fn expression_evaluation_runs_at_the_limit() {
    let store = Store::from_graph(&graphs()[0].1);
    at_the_limit(|q| {
        if let GraphPattern::Filter(inner, e) = q.pattern() {
            let rows = Evaluator::new(&store).query(&Query::select(
                lusail_sparql::SelectQuery::new(lusail_sparql::Projection::All, (**inner).clone()),
            ));
            filter_relation(rows.into_solutions(), e);
        }
    });
}

/// The analysis probe joins one `COUNT` subselect per pattern into one
/// group, and each is one more level of the limit: a branch wider than one
/// probe request can carry is probed in several, and answered as the
/// merged graph answers it.
#[test]
fn a_branch_too_wide_for_one_probe_request_is_answered() {
    let s = Term::iri("http://x/s");
    let mut a = Graph::new();
    for i in 0..80 {
        let p = Term::iri(format!("http://x/p{i}"));
        a.add(s.clone(), p, Term::literal(i.to_string()));
    }
    let mut b = Graph::new();
    b.add(
        Term::iri("http://x/t"),
        Term::iri("http://x/q"),
        Term::iri("http://x/u"),
    );
    let graphs = vec![("a".to_string(), a), ("b".to_string(), b)];
    for n in [60, 70] {
        // A fresh engine each time: a cached source list would spare the
        // probe its arms.
        let fed =
            lusail_workloads::federation_from_graphs(graphs.clone(), NetworkProfile::instant());
        let engine = LusailEngine::new(fed, LusailConfig::default());
        let patterns: String = (0..n)
            .map(|i| format!("?s <http://x/p{i}> ?o{i} . "))
            .collect();
        let q = parse_query(&format!("SELECT ?s WHERE {{ {patterns}}}")).unwrap();
        let want = integration::ground_truth(&graphs, &q);
        assert_eq!(want.len(), 1);
        let got = engine
            .execute(&q)
            .unwrap_or_else(|e| panic!("{n} patterns: {e}"));
        integration::assert_same_solutions(&format!("{n} patterns"), &got, &want);
    }
}
