//! Join-throughput microbench: string-keyed hashing vs the interned ID
//! path.
//!
//! The engine's joins intern both inputs into a query-scoped dictionary
//! and hash fixed-width `u32` slot ids; before that change every probe
//! re-hashed full term strings. This bench holds the data constant and
//! compares the two approaches directly: a baseline string-keyed hash
//! join (the old algorithm, reconstructed here) against `Relation::join`
//! (interned) and `parallel_join` (interned + partitioned). Results also
//! land in `BENCH_micro_joins.json` for cross-revision tracking.

use lusail_bench::{bench_scale, write_bench_json, BenchRecord};
use lusail_core::sape::parallel_join;
use lusail_federation::RequestHandler;
use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::Term;
use lusail_sparql::ast::Variable;
use lusail_sparql::solution::{Relation, Row};
use std::time::Instant;

/// Four-column relation shaped like a LUBM star-query branch: one join-key
/// variable whose IRIs repeat with multiplicity `mult` (a student appears
/// once per course taken), plus three payload columns unique per row.
fn make_rel(vars: [&str; 4], rows: usize, key_offset: usize, mult: usize) -> Relation {
    let mut rel = Relation::new(vars.iter().map(|v| Variable::new(*v)).collect());
    let distinct = (rows / mult).max(1);
    for i in 0..rows {
        let e = (i % distinct) + key_offset;
        rel.push(vec![
            Some(Term::iri(format!(
                "http://www.department{}.university{}.edu/entity{e}",
                e % 17,
                e % 23
            ))),
            Some(Term::iri(format!("http://example.org/{}/p{i}", vars[1]))),
            Some(Term::iri(format!("http://example.org/{}/p{i}", vars[2]))),
            Some(Term::literal(format!("payload value {i} for {}", vars[3]))),
        ]);
    }
    rel
}

/// The pre-interning join, reconstructed: hash full term strings for
/// build *and* probe, and merge each output row by scanning the input
/// headers per cell — exactly what `Relation::join` did before the
/// interned path landed.
fn string_join(a: &Relation, b: &Relation) -> Relation {
    let shared: Vec<Variable> = a
        .vars()
        .iter()
        .filter(|v| b.index_of(v).is_some())
        .cloned()
        .collect();
    let a_idx: Vec<usize> = shared.iter().map(|v| a.index_of(v).unwrap()).collect();
    let b_idx: Vec<usize> = shared.iter().map(|v| b.index_of(v).unwrap()).collect();
    let mut out_vars = a.vars().to_vec();
    for v in b.vars() {
        if !out_vars.contains(v) {
            out_vars.push(v.clone());
        }
    }
    let mut table: FxHashMap<Vec<&Term>, Vec<&Row>> = FxHashMap::default();
    for row in b.rows() {
        let key: Option<Vec<&Term>> = b_idx.iter().map(|&j| row[j].as_ref()).collect();
        if let Some(k) = key {
            table.entry(k).or_default().push(row);
        }
    }
    let mut out = Relation::new(out_vars.clone());
    for row in a.rows() {
        let key: Option<Vec<&Term>> = a_idx.iter().map(|&j| row[j].as_ref()).collect();
        let Some(matches) = key.as_ref().and_then(|k| table.get(k)) else {
            continue;
        };
        for brow in matches {
            let merged: Row = out_vars
                .iter()
                .map(|v| {
                    let from_a = a.index_of(v).and_then(|i| row[i].clone());
                    if from_a.is_some() {
                        from_a
                    } else {
                        b.index_of(v).and_then(|i| brow[i].clone())
                    }
                })
                .collect();
            out.push(merged);
        }
    }
    out
}

/// Three runs per the paper's protocol: first warms, last two average.
fn timed(mut f: impl FnMut() -> Relation) -> (Relation, f64) {
    let mut out = f();
    let mut total = 0.0;
    for _ in 0..2 {
        let start = Instant::now();
        out = f();
        total += start.elapsed().as_secs_f64() * 1000.0;
    }
    (out, total / 2.0)
}

fn main() {
    let scale = bench_scale();
    let handler = RequestHandler::new(4);
    let mut records = Vec::new();
    println!("=== join throughput: string-keyed vs interned IDs ===");
    println!(
        "{:<16}{:>12}{:>14}{:>12}{:>14}",
        "input", "codec", "elapsed(ms)", "out rows", "rows/sec"
    );
    for base in [10_000usize, 40_000] {
        let n = ((base as f64) * scale) as usize;
        // Each key appears 4× per side (star-query fan-out) and half the
        // distinct keys overlap, so matched keys emit 16 rows each: a
        // realistic output-heavy federated join.
        let mult = 4;
        let a = make_rel(["x", "y1", "y2", "y3"], n, 0, mult);
        let b = make_rel(["x", "z1", "z2", "z3"], n, n / (2 * mult), mult);
        let label = format!("join_{n}x{n}");
        let expected = string_join(&a, &b).len();
        let variants: [(&str, Box<dyn FnMut() -> Relation>); 3] = [
            ("string", Box::new(|| string_join(&a, &b))),
            ("id", Box::new(|| a.join(&b))),
            ("id-parallel", Box::new(|| parallel_join(&a, &b, &handler))),
        ];
        for (codec, f) in variants {
            let (out, ms) = timed(f);
            assert_eq!(out.len(), expected, "all variants must agree");
            let per_sec = if ms > 0.0 {
                out.len() as f64 / (ms / 1000.0)
            } else {
                f64::INFINITY
            };
            println!(
                "{:<16}{:>12}{:>14.2}{:>12}{:>14.0}",
                label,
                codec,
                ms,
                out.len(),
                per_sec
            );
            records.push(BenchRecord {
                query: label.clone(),
                wire_bytes: out.wire_size() as u64,
                rows: out.len() as u64,
                elapsed_ms: ms,
                codec: codec.to_string(),
                ..Default::default()
            });
        }
    }
    match write_bench_json("micro_joins", &records) {
        Ok(path) => println!("\nwrote {path} ({} records)", records.len()),
        Err(e) => eprintln!("\nfailed to write BENCH_micro_joins.json: {e}"),
    }
}
