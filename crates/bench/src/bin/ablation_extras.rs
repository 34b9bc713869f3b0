//! Additional design-choice ablations (DESIGN.md §"Key design decisions"):
//!
//! 1. **Bound-join block size** — how many bindings each `VALUES` block of
//!    a delayed subquery carries. Small blocks multiply requests (FedX
//!    ships 15 per block and pays for it at WAN latencies); Lusail's
//!    default is 512.
//! 2. **DP join ordering vs. input order** — the benefit of the paper's
//!    dynamic-programming enumeration over joining subquery results in
//!    arrival order.

use lusail_bench::bench_scale;
use lusail_core::sape::{dp_join_order, parallel_join};
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::{NetworkProfile, RequestHandler};
use lusail_rdf::Term;
use lusail_sparql::ast::Variable;
use lusail_sparql::solution::Relation;
use lusail_workloads::{federation_from_graphs, largerdf};
use std::time::Instant;

fn main() {
    block_size_sweep();
    join_order_comparison();
}

/// Sweep the `VALUES` block size on a delayed-subquery-heavy query (B3)
/// under the geo profile, reporting time and requests.
fn block_size_sweep() {
    let cfg = largerdf::LargeRdfConfig {
        scale: bench_scale(),
        ..Default::default()
    };
    let graphs = largerdf::generate_all(&cfg);
    let query = largerdf::all_queries()
        .into_iter()
        .find(|q| q.name == "B3")
        .unwrap()
        .parse();

    println!("Ablation 1: bound-join block size (LargeRDFBench B3, geo profile)");
    println!("{:<12}{:>12}{:>12}", "block size", "time (ms)", "requests");
    for block in [16usize, 64, 256, 512, 2048] {
        let engine = LusailEngine::new(
            federation_from_graphs(graphs.clone(), NetworkProfile::geo_distributed()),
            LusailConfig {
                bound_block_size: block,
                ..Default::default()
            },
        );
        engine.execute(&query).unwrap(); // warm caches
        engine.federation().reset_traffic();
        let t = Instant::now();
        engine.execute(&query).unwrap();
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        let reqs = engine.federation().total_traffic().requests;
        println!("{block:<12}{ms:>12.2}{reqs:>12}");
    }
    println!();
}

/// Join three chain relations of skewed sizes in DP order vs input order.
fn join_order_comparison() {
    let v = |n: &str| Variable::new(n);
    let mk = |vars: [&str; 2], pfx: [&str; 2], n: usize| {
        let mut r = Relation::new(vars.iter().map(|x| v(x)).collect());
        for i in 0..n {
            r.push(vec![
                Some(Term::iri(format!("http://{}/{}", pfx[0], i % 3000))),
                Some(Term::iri(format!("http://{}/{}", pfx[1], i % 3000))),
            ]);
        }
        r
    };
    // A bad input order: the two big relations first (their join fans out
    // before the small filter relation prunes it).
    let big_a = mk(["a", "b"], ["a", "b"], 6000);
    let big_b = mk(["b", "c"], ["b", "c"], 6000);
    let small = mk(["a", "d"], ["a", "d"], 60);
    let rels = [big_a, big_b, small];
    let handler = RequestHandler::per_core();

    let t = Instant::now();
    let mut acc = rels[0].clone();
    for r in &rels[1..] {
        acc = parallel_join(&acc, r, &handler);
    }
    let naive_ms = t.elapsed().as_secs_f64() * 1000.0;
    let naive_rows = acc.len();

    let order = dp_join_order(&rels.iter().collect::<Vec<_>>());
    let t = Instant::now();
    let mut acc = rels[order[0]].clone();
    for &i in &order[1..] {
        acc = parallel_join(&acc, &rels[i], &handler);
    }
    let dp_ms = t.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(acc.len(), naive_rows, "orders must agree on the result");

    println!("Ablation 2: join ordering (two 6k relations + one 60-row filter)");
    println!("{:<16}{:>12}{:>14}", "order", "time (ms)", "result rows");
    println!("{:<16}{:>12.2}{:>14}", "input order", naive_ms, naive_rows);
    println!("{:<16}{:>12.2}{:>14}", "DP (paper)", dp_ms, naive_rows);
    println!(
        "\nDP order chosen: {order:?} (the small relation joins early, pruning the build side)"
    );
}
