//! Figure 11: the geo-distributed federation (Azure, 7 regions in the
//! paper; the `geo_distributed` network profile here).
//!
//! Expected shape (paper): the higher communication cost hurts everyone,
//! but FedX/HiBISCuS — which ship bindings one block at a time — degrade
//! by an order of magnitude, while Lusail's runtimes grow only modestly.
//! Lusail is the only system answering every complex and large query.
//!
//! Writes `BENCH_fig11_geo.json`.

use lusail_bench::{
    bench_scale, largerdf_graphs, print_legend, run_grid, write_records, HarnessConfig, System,
};
use lusail_federation::NetworkProfile;
use lusail_workloads::{federation_from_graphs, largerdf, lubm};

fn main() {
    let harness = HarnessConfig::default();
    let lrb_graphs = largerdf_graphs(bench_scale());
    let lubm_graphs = lubm::generate_all(&lubm::LubmConfig::with_universities(2));
    let mut records = Vec::new();
    for (part, what, graphs, queries) in [
        (
            "a",
            "LargeRDFBench complex queries",
            &lrb_graphs,
            largerdf::complex_queries(),
        ),
        (
            "b",
            "LargeRDFBench large queries",
            &lrb_graphs,
            largerdf::big_queries(),
        ),
        ("c", "LUBM, 2 endpoints", &lubm_graphs, lubm::queries()),
    ] {
        records.extend(run_grid(
            &format!("Figure 11({part}): geo-distributed {what} — seconds (requests)"),
            &|| federation_from_graphs(graphs.clone(), NetworkProfile::geo_distributed()),
            &System::ALL,
            &queries,
            &harness,
        ));
    }
    print_legend(&harness);
    write_records("fig11_geo", &records);
}
