//! Additional design-choice ablations (DESIGN.md §"Key design decisions"):
//!
//! 1. **Bound-join blocks** — how the found bindings of a delayed subquery
//!    are cut into `VALUES` blocks. Small blocks multiply requests (FedX
//!    ships 15 per block and pays for it at WAN latencies); Lusail cuts as
//!    many blocks as fill one ERH wave. Written to `BENCH_bound_blocks.json`:
//!    the variant in `codec`, the requests of one warm run in `rows`.
//! 2. **DP join ordering vs. input order** — the benefit of the paper's
//!    dynamic-programming enumeration over joining subquery results in
//!    arrival order.

use lusail_bench::{bench_scale, write_bench_json, BenchRecord};
use lusail_core::sape::{parallel_join, plan_joins};
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::{EndpointLimits, NetworkProfile, RequestHandler};
use lusail_rdf::Term;
use lusail_sparql::ast::Variable;
use lusail_sparql::solution::Relation;
use lusail_workloads::{federation_from_graphs_limited, largerdf};
use std::time::Instant;

const SAMPLES: usize = 9;

fn main() {
    bound_block_ablation();
    join_order_comparison();
}

/// Time the two bound-join-heavy LargeRDFBench queries under each way of
/// cutting blocks the configuration can express: a count cap small enough
/// to bind (`cap16`, `cap64`); endpoints that accept little more than 4 KiB
/// per request, which reproduces the fixed 4 KiB cut of earlier versions
/// (`4KiB-ceiling`); and the default, blocks sized to fill one wave
/// (`wave-fill`).
fn bound_block_ablation() {
    let cfg = largerdf::LargeRdfConfig {
        scale: bench_scale(),
        ..Default::default()
    };
    let graphs = largerdf::generate_all(&cfg);
    let unlimited = EndpointLimits::default();
    let four_kib = EndpointLimits {
        max_request_bytes: Some(4096 + 256),
        max_result_rows: None,
    };
    let variants = [
        ("cap16", 16, unlimited),
        ("cap64", 64, unlimited),
        ("4KiB-ceiling", 512, four_kib),
        ("wave-fill", 512, unlimited),
    ];
    let profiles = [
        ("geo", NetworkProfile::geo_distributed()),
        ("instant", NetworkProfile::instant()),
    ];

    println!(
        "Ablation 1: bound-join blocks (LargeRDFBench, {SAMPLES} warm samples per row, \
         {} logical CPUs)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:<14}{:<16}{:>12}{:>10}{:>10}",
        "query", "blocks", "median(ms)", "p95(ms)", "requests"
    );
    let mut records = Vec::new();
    for name in ["B1", "B3"] {
        let query = largerdf::all_queries()
            .into_iter()
            .find(|q| q.name == name)
            .unwrap()
            .parse();
        for (profile_name, profile) in profiles {
            for (variant, block, limits) in variants {
                let engine = LusailEngine::new(
                    federation_from_graphs_limited(graphs.clone(), profile, limits),
                    LusailConfig {
                        bound_block_size: block,
                        ..Default::default()
                    },
                );
                engine.execute(&query).unwrap(); // warm caches
                let mut requests = 0;
                let mut samples_ms: Vec<f64> = (0..SAMPLES)
                    .map(|_| {
                        engine.federation().reset_traffic();
                        let t = Instant::now();
                        engine.execute(&query).unwrap();
                        let ms = t.elapsed().as_secs_f64() * 1000.0;
                        requests = engine.federation().total_traffic().requests;
                        ms
                    })
                    .collect();
                let record = BenchRecord::from_samples(
                    format!("{name}/{profile_name}"),
                    variant.to_string(),
                    requests,
                    &mut samples_ms,
                );
                println!(
                    "{:<14}{:<16}{:>12.2}{:>10.2}{:>10}",
                    record.query, record.codec, record.elapsed_ms, record.p95_ms, record.rows
                );
                records.push(record);
            }
        }
    }
    match write_bench_json("bound_blocks", &records) {
        Ok(path) => println!("wrote {path} ({} records)\n", records.len()),
        Err(e) => eprintln!("failed to write BENCH_bound_blocks.json: {e}\n"),
    }
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

    // Planning is timed with the joins: its statistics pass reads the rows.
    let t = Instant::now();
    let tree = plan_joins(&rels.iter().collect::<Vec<_>>(), &[]);
    let acc = tree
        .try_fold(
            |i| std::borrow::Cow::Borrowed(&rels[i]),
            |l, r, _| Ok::<_, ()>(std::borrow::Cow::Owned(parallel_join(&l, &r, &handler))),
        )
        .unwrap()
        .unwrap();
    let dp_ms = t.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(acc.len(), naive_rows, "orders must agree on the result");

    println!("Ablation 2: join ordering (two 6k relations + one 60-row filter)");
    println!("{:<16}{:>12}{:>14}", "order", "time (ms)", "result rows");
    println!("{:<16}{:>12.2}{:>14}", "input order", naive_ms, naive_rows);
    println!("{:<16}{:>12.2}{:>14}", "planned", dp_ms, naive_rows);
    println!("\nplan chosen: {tree} (the small relation joins early, pruning the build side)");
}
