//! Join-throughput microbench: string-keyed hashing vs the interned ID
//! path.
//!
//! The engine's joins intern both inputs into a query-scoped dictionary
//! and hash fixed-width `u32` slot ids; before that change every probe
//! re-hashed full term strings. This bench holds the data constant and
//! compares the two approaches directly: a baseline string-keyed hash
//! join (the old algorithm, reconstructed here) against `Relation::join`
//! (interned) and `parallel_join` (interned + partitioned). A second pair
//! of rows joins three chain relations of skewed sizes in input order and
//! in the order `plan_joins` picks, and `left_join` / `minus` rows time the
//! kernel's left-outer and anti probes. The `budgeted` rows time
//! `budgeted_join` under a budget one byte short of twice the smaller
//! side, beside the same join unbounded. Results land in
//! `BENCH_micro_joins.json` for cross-revision tracking.

use lusail_bench::{bench_scale, sample, write_records, Record};
use lusail_core::sape::join::budgeted_join;
use lusail_core::sape::{parallel_join, plan_joins};
use lusail_core::MemoryBudget;
use lusail_federation::RequestHandler;
use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::Term;
use lusail_sparql::ast::Variable;
use lusail_sparql::solution::{Relation, Row};
use std::borrow::Cow;
use std::convert::Infallible;

/// One warm-up run, then the samples.
const RUNS: usize = 10;

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

/// One row: `f` under [`sample`]; every variant must produce `expected`'s
/// rows (and so its wire size). Each run drops its relation inside the timed
/// call, so the next one reuses the memory instead of growing the heap.
fn row(label: &str, codec: &str, expected: &Relation, mut f: impl FnMut() -> Relation) -> Record {
    let Ok(sampled) = sample(RUNS, || Ok::<_, Infallible>(f().len()));
    let rows = sampled.outputs[0];
    assert_eq!(rows, expected.len(), "all variants must agree");
    let record = Record {
        wire_bytes: expected.wire_size() as u64,
        ..Record::new(codec, label, rows as u64, sampled.ms)
    };
    println!(
        "{:<24}{:>12}{:>14.2}{:>10.2}{:>12}{:>14.0}",
        label,
        codec,
        record.elapsed_ms,
        record.p95_ms,
        rows,
        rows as f64 / (record.elapsed_ms / 1000.0)
    );
    record
}

/// Two 6k-row relations and a 60-row filter relation, in a bad input order:
/// the two big ones first, so their join fans out before the small one
/// prunes it.
fn chain_relations() -> [Relation; 3] {
    let mk = |vars: [&str; 2], n: usize| {
        let mut r = Relation::new(vars.iter().map(|v| Variable::new(*v)).collect());
        for i in 0..n {
            r.push(
                vars.iter()
                    .map(|v| Some(Term::iri(format!("http://{v}/{}", i % 3000))))
                    .collect(),
            );
        }
        r
    };
    [
        mk(["a", "b"], 6000),
        mk(["b", "c"], 6000),
        mk(["a", "d"], 60),
    ]
}

fn main() {
    let scale = bench_scale();
    let handler = RequestHandler::new(4);
    let mut records = Vec::new();
    println!(
        "=== join throughput: string-keyed vs interned IDs ({} samples per row) ===",
        RUNS - 1
    );
    println!(
        "{:<24}{:>12}{:>14}{:>10}{:>12}{:>14}",
        "input", "codec", "median(ms)", "p95(ms)", "out rows", "rows/sec"
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
        let expected = string_join(&a, &b);
        records.push(row(&label, "string", &expected, || string_join(&a, &b)));
        records.push(row(&label, "id", &expected, || a.join(&b)));
        records.push(row(&label, "id-parallel", &expected, || {
            parallel_join(&a, &b, &handler)
        }));
    }

    // The other two probes of the same kernel, on the same data shape:
    // OPTIONAL keeps every left row, MINUS drops the matched ones.
    for n in [2_000usize, 10_000] {
        let n = ((n as f64) * scale) as usize;
        let a = make_rel(["x", "y1", "y2", "y3"], n, 0, 4);
        let b = make_rel(["x", "z1", "z2", "z3"], n, n / 8, 4);
        let label = format!("left_join_{n}x{n}");
        records.push(row(&label, "id", &a.left_join(&b), || a.left_join(&b)));
        let label = format!("minus_{n}x{n}");
        records.push(row(&label, "id", &a.minus(&b), || a.minus(&b)));
    }

    // A 1:1 join, half the keys overlapping, under a budget one byte short
    // of twice the smaller side: both sides and the output are resident
    // either way, only what the budgeted join does between them differs.
    for n in [10_000usize, 40_000] {
        let n = ((n as f64) * scale) as usize;
        let a = make_rel(["x", "y1", "y2", "y3"], n, 0, 1);
        let b = make_rel(["x", "z1", "z2", "z3"], n, n / 2, 1);
        let limit = (2 * a.wire_size().min(b.wire_size())).saturating_sub(1);
        let label = format!("budgeted_{n}x{n}");
        let expected = parallel_join(&a, &b, &handler);
        records.push(row(&label, "in-memory", &expected, || {
            parallel_join(&a, &b, &handler)
        }));
        records.push(row(&label, "budgeted", &expected, || {
            let budget = MemoryBudget::new(Some(limit));
            budgeted_join(&a, &b, &handler, &budget, false)
                .expect("the output fits the budget")
                .relation
        }));
    }

    let rels = chain_relations();
    let in_input_order = || {
        let joined = parallel_join(&rels[0], &rels[1], &handler);
        parallel_join(&joined, &rels[2], &handler)
    };
    // Planning is timed with the joins: its statistics pass reads the rows.
    let planned = || {
        plan_joins(&rels.iter().collect::<Vec<_>>(), &[])
            .try_fold(
                |i| Cow::Borrowed(&rels[i]),
                |l, r, _| Ok::<_, ()>(Cow::Owned(parallel_join(&l, &r, &handler))),
            )
            .unwrap()
            .unwrap()
            .into_owned()
    };
    let expected = in_input_order();
    let label = "join_order_6000x6000x60";
    records.push(row(label, "input-order", &expected, in_input_order));
    records.push(row(label, "planned", &expected, planned));
    println!(
        "plan chosen: {} (the small relation joins early, pruning the build side)",
        plan_joins(&rels.iter().collect::<Vec<_>>(), &[])
    );
    write_records("micro_joins", &records);
}
