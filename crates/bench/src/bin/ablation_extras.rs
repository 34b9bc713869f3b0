//! Bound-join blocks (DESIGN.md §"Key design decisions") — how the found
//! bindings of a delayed subquery are cut into `VALUES` blocks. Small
//! blocks multiply requests (FedX ships 15 per block and pays for it at WAN
//! latencies); Lusail cuts as many blocks as fill one ERH wave.
//!
//! Times the two bound-join-heavy LargeRDFBench queries under each way of
//! cutting blocks the configuration can express: a count cap small enough
//! to bind (`cap16`, `cap64`); endpoints that accept little more than 4 KiB
//! per request, which reproduces the fixed 4 KiB cut of earlier versions
//! (`4KiB-ceiling`); and the default, blocks sized to fill one wave
//! (`wave-fill`). Written to `BENCH_bound_blocks.json`, the variant in
//! `codec`, the network profile in the query label (`B1/geo`).
//!
//! (The join-ordering comparison that used to run here is two rows of
//! `micro_joins`.)

use lusail_bench::{
    bench_scale, largerdf_graphs, measure, query_named, write_records, EngineUnderTest,
    HarnessConfig, Record,
};
use lusail_core::LusailConfig;
use lusail_federation::{EndpointLimits, NetworkProfile};
use lusail_workloads::{federation_from_graphs_limited, largerdf};

fn main() {
    let graphs = largerdf_graphs(bench_scale());
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
    let harness = HarnessConfig::default();

    println!(
        "Bound-join blocks (LargeRDFBench, {} warm samples per row, {} logical CPUs)",
        harness.runs - 1,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:<14}{:<16}{:>12}{:>10}{:>10}",
        "query", "blocks", "median(ms)", "p95(ms)", "requests"
    );
    let mut records = Vec::new();
    for name in ["B1", "B3"] {
        let query = query_named(largerdf::all_queries(), name);
        for (profile_name, profile) in profiles {
            for (variant, bound_block_size, limits) in variants {
                let under_test = EngineUnderTest::lusail(
                    variant,
                    federation_from_graphs_limited(graphs.clone(), profile, limits),
                    LusailConfig {
                        bound_block_size,
                        timeout: Some(harness.timeout),
                        ..Default::default()
                    },
                );
                let record = Record {
                    query: format!("{name}/{profile_name}"),
                    ..measure(&under_test, &query, &harness)
                };
                println!(
                    "{:<14}{:<16}{:>12.2}{:>10.2}{:>10}",
                    record.query, record.system, record.elapsed_ms, record.p95_ms, record.requests
                );
                records.push(record);
            }
        }
    }
    write_records("bound_blocks", &records);
}
