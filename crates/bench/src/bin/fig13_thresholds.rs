//! Figure 13: evaluating the delayed-subquery threshold — μ, μ+σ, μ+2σ,
//! and outliers-only — on the geo-distributed LargeRDFBench deployment,
//! reporting the total time per query category.
//!
//! Expected shape (paper): μ+2σ and outliers-only delay too little and
//! lose on simple/complex queries (communication explodes); μ delays too
//! much and loses on large queries (parallelism starves); μ+σ is
//! consistently good — which is why it is Lusail's default.
//!
//! Writes `BENCH_fig13_thresholds.json`: per threshold (`codec`) one row
//! per query and one `<category>/total` row — the sum of its queries'
//! medians, p95s (an upper bound, not a percentile of the sum), requests,
//! bytes and rows; a query that did not end `ok` adds the time limit.

use lusail_bench::{
    bench_scale, largerdf_graphs, measure, write_records, EngineUnderTest, HarnessConfig, Record,
    Status, Summary,
};
use lusail_core::{DelayThreshold, LusailConfig};
use lusail_federation::NetworkProfile;
use lusail_workloads::{federation_from_graphs, largerdf};

/// The `<category>/total` row of one threshold's `cells`.
fn category_total(category: &str, cells: &[Record], harness: &HarnessConfig) -> Record {
    let limit = harness.timeout.as_secs_f64() * 1000.0;
    let ms = |of: fn(&Record) -> f64| -> f64 {
        cells
            .iter()
            .map(|r| if r.status == Status::Ok { of(r) } else { limit })
            .sum()
    };
    let sum = |of: fn(&Record) -> u64| -> u64 { cells.iter().map(of).sum() };
    let summary = Summary {
        median: ms(|r| r.elapsed_ms),
        p95: ms(|r| r.p95_ms),
        samples: cells.iter().map(|r| r.samples).min().unwrap_or(0),
    };
    Record {
        requests: sum(|r| r.requests),
        wire_bytes: sum(|r| r.wire_bytes),
        ..Record::new(
            cells[0].system.as_str(),
            format!("{category}/total"),
            sum(|r| r.rows),
            summary,
        )
    }
}

fn main() {
    let graphs = largerdf_graphs(bench_scale());
    let harness = HarnessConfig::default();
    let thresholds = [
        DelayThreshold::Mu,
        DelayThreshold::MuSigma,
        DelayThreshold::Mu2Sigma,
        DelayThreshold::OutliersOnly,
    ];

    println!(
        "Figure 13: total category time per delay threshold — seconds, sum of per-query \
         medians of {} runs (requests)",
        harness.runs - 1
    );
    print!("{:<10}", "category");
    for t in thresholds {
        print!("{:>20}", t.label());
    }
    println!();
    let mut records = Vec::new();
    for (category, queries) in [
        ("simple", largerdf::simple_queries()),
        ("complex", largerdf::complex_queries()),
        ("large", largerdf::big_queries()),
    ] {
        print!("{category:<10}");
        for threshold in thresholds {
            let under_test = EngineUnderTest::lusail(
                threshold.label(),
                federation_from_graphs(graphs.clone(), NetworkProfile::geo_distributed()),
                LusailConfig {
                    delay_threshold: threshold,
                    timeout: Some(harness.timeout),
                    ..Default::default()
                },
            );
            let cells: Vec<Record> = queries
                .iter()
                .map(|query| measure(&under_test, query, &harness))
                .collect();
            let total = category_total(category, &cells, &harness);
            match cells.iter().filter(|r| r.status != Status::Ok).count() {
                0 => print!("{:>20}", total.grid_cell()),
                n => print!("{:>20}", format!("{} {n} failed", total.grid_cell())),
            }
            records.extend(cells);
            records.push(total);
        }
        println!();
    }
    write_records("fig13_thresholds", &records);
}
