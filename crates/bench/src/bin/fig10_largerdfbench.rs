//! Figure 10: LargeRDFBench runtimes (13 endpoints) — simple, complex,
//! and large query categories.
//!
//! Expected shape (paper): on simple queries the systems are comparable
//! (index-based systems sometimes win; Lusail leads on S13/S14, the two
//! with larger intermediate results). On complex and large queries Lusail
//! wins broadly; C5/B5/B6 are `NS` for every baseline; FedX/HiBISCuS time
//! out on the heaviest (C1, C9, several B's).
//!
//! Writes `BENCH_fig10_largerdfbench.json`.

use lusail_bench::{
    bench_scale, largerdf_graphs, print_legend, run_grid, write_records, HarnessConfig, System,
};
use lusail_federation::NetworkProfile;
use lusail_workloads::{federation_from_graphs, largerdf};

fn main() {
    let graphs = largerdf_graphs(bench_scale());
    let harness = HarnessConfig::default();
    let mut records = Vec::new();
    for (part, category, queries) in [
        ("top", "simple", largerdf::simple_queries()),
        ("middle", "complex", largerdf::complex_queries()),
        ("bottom", "large", largerdf::big_queries()),
    ] {
        records.extend(run_grid(
            &format!("Figure 10 ({part}): LargeRDFBench {category} queries — seconds (requests)"),
            &|| federation_from_graphs(graphs.clone(), NetworkProfile::local_cluster()),
            &System::ALL,
            &queries,
            &harness,
        ));
    }
    print_legend(&harness);
    write_records("fig10_largerdfbench", &records);
}
