//! Figure 12(b, c): Lusail's phases for LUBM Q3 and Q4 while scaling the
//! number of endpoints (4 → 256 in the paper; `LUSAIL_BENCH_MAX_ENDPOINTS`
//! caps it here), with and without the analysis cache.
//!
//! Expected shape (paper): source selection grows with the endpoint count
//! and execution dominates at scale; the cache helps, especially for the
//! more complex Q4 and at large endpoint counts.
//!
//! Writes `BENCH_fig12_scaling.json`, the endpoint count in the query label
//! (`Q3@16`): a `Lusail` row (cache warmed by the discarded first run) with
//! `ProfileRow`'s phase keys, and a `Lusail w/o cache` row.

use lusail_bench::{
    bench_scale, measure, sample, write_bench_json, EngineUnderTest, HarnessConfig, ProfileRow,
    Record,
};
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::NetworkProfile;
use lusail_workloads::{federation_from_graphs, lubm};

fn main() {
    let max: usize = std::env::var("LUSAIL_BENCH_MAX_ENDPOINTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let harness = HarnessConfig::default();
    let mut rows = Vec::new();
    for (fig, qidx) in [("12(b)", 2usize), ("12(c)", 3)] {
        let query = &lubm::queries()[qidx];
        let parsed = query.parse();
        println!(
            "\nFigure {fig}: LUBM {}, scaling endpoints (median ms of {} runs)",
            query.name,
            harness.runs - 1
        );
        println!(
            "{:<10}{:>12}{:>12}{:>12}{:>14}{:>10}{:>16}{:>10}",
            "endpoints",
            "probe",
            "analysis",
            "execution",
            "total+cache",
            "requests",
            "total w/o cache",
            "requests"
        );
        for n in [4usize, 16, 64, 256].into_iter().filter(|&n| n <= max) {
            let graphs = lubm::generate_all(&lubm::LubmConfig {
                universities: n,
                scale: bench_scale(),
                ..Default::default()
            });
            let federation = federation_from_graphs(graphs, NetworkProfile::local_cluster());
            let label = format!("{}@{n}", query.name);

            let engine = LusailEngine::new(federation.clone(), LusailConfig::default());
            let sampled = sample(harness.runs, || {
                federation.reset_traffic();
                engine.execute_profiled(&parsed).map(|(_, profile)| profile)
            })
            .unwrap_or_else(|e| panic!("{label} failed: {e}"));
            let cached = ProfileRow::of("Lusail", &label, &sampled.outputs, &federation);

            // Without the cache every run pays the analysis traffic.
            let without_cache = EngineUnderTest::lusail(
                "Lusail w/o cache",
                federation.clone(),
                LusailConfig::without_cache(),
            );
            let uncached = Record {
                query: label.clone(),
                ..measure(&without_cache, query, &harness)
            };

            println!(
                "{:<10}{:>12.3}{:>12.3}{:>12.3}{:>14.3}{:>10}{:>16.3}{:>10}",
                n,
                cached.probe.median,
                cached.analysis.median,
                cached.execution.median,
                cached.record.elapsed_ms,
                cached.record.requests,
                uncached.elapsed_ms,
                uncached.requests,
            );
            rows.push(cached.to_json());
            rows.push(uncached.to_json());
        }
    }
    write_bench_json("fig12_scaling", &rows);
}
