//! Figure 12(a): profiling Lusail's phases on queries of increasing
//! complexity: S10 (simple), C4 (complex), B1 (large) — and C10, because
//! the paper's three decide their global join variables from the probe's
//! source lists alone and send no check query even cold.
//!
//! The phases are the ones `lusail query --explain` prints: the analysis
//! probe (source selection and `COUNT` statistics, one round trip per
//! endpoint), query analysis (LADE's check queries, decomposition and the
//! plan) and execution (SAPE). Every sample runs on a fresh engine — cold
//! caches — so the probe round and the check queries are actually sent.
//!
//! Expected shape (paper): execution dominates; analysis is lightweight
//! (often cheaper than source selection); B1's analysis is slightly
//! heavier because of its UNION over the largest endpoints.
//!
//! Writes `BENCH_fig12_profiling.json`: one row per query, the phase keys
//! of `ProfileRow` beside the record of the total.

use lusail_bench::{
    bench_scale, largerdf_graphs, query_named, sample, write_bench_json, HarnessConfig, ProfileRow,
};
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::NetworkProfile;
use lusail_workloads::{federation_from_graphs, largerdf};

fn main() {
    let graphs = largerdf_graphs(bench_scale());
    let federation = federation_from_graphs(graphs, NetworkProfile::local_cluster());
    let harness = HarnessConfig::default();

    println!(
        "Figure 12(a): Lusail phase profile, cold engine (median ms of {} runs)",
        harness.runs - 1
    );
    println!(
        "{:<8}{:>26}{:>26}{:>12}{:>10}{:>10}{:>8}{:>8}",
        "query",
        "probe (sources + counts)",
        "analysis (checks + plan)",
        "execution",
        "total",
        "requests",
        "subqs",
        "checks"
    );
    let mut rows = Vec::new();
    for name in ["S10", "C4", "B1", "C10"] {
        let parsed = query_named(largerdf::all_queries(), name).parse();
        let sampled = sample(harness.runs, || {
            let engine = LusailEngine::new(federation.clone(), LusailConfig::default());
            federation.reset_traffic();
            engine.execute_profiled(&parsed).map(|(_, profile)| profile)
        })
        .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        let row = ProfileRow::of("Lusail (cold)", name, &sampled.outputs, &federation);
        println!(
            "{:<8}{:>26.3}{:>26.3}{:>12.3}{:>10.3}{:>10}{:>8}{:>8}",
            name,
            row.probe.median,
            row.analysis.median,
            row.execution.median,
            row.record.elapsed_ms,
            row.record.requests,
            row.subqueries,
            row.check_queries,
        );
        rows.push(row.to_json());
    }
    write_bench_json("fig12_profiling", &rows);
}
