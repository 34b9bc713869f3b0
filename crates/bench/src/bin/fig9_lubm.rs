//! Figure 9: LUBM query runtimes on (a) two and (b) four endpoints.
//!
//! Expected shape (paper): the universities share one schema, so FedX and
//! HiBISCuS form no exclusive groups and fall back to per-pattern bound
//! joins — their request counts and runtimes explode as endpoints go from
//! 2 to 4, while Lusail ships Q1/Q2 whole to each endpoint and decomposes
//! Q3/Q4 into two subqueries with the generic one delayed. Lusail is up to
//! three orders of magnitude faster on Q1, Q2, and Q4.
//!
//! Writes `BENCH_fig9_lubm.json`, the endpoint count in the query label
//! (`2ep/Q1`, `4ep/Q1`).

use lusail_bench::{bench_scale, print_legend, run_grid, write_records, HarnessConfig, System};
use lusail_federation::NetworkProfile;
use lusail_workloads::{federation_from_graphs, lubm};

fn main() {
    let harness = HarnessConfig::default();
    let mut records = Vec::new();
    for (part, endpoints) in [("a", 2usize), ("b", 4)] {
        let graphs = lubm::generate_all(&lubm::LubmConfig {
            universities: endpoints,
            scale: bench_scale(),
            ..Default::default()
        });
        let grid = run_grid(
            &format!("Figure 9({part}): LUBM, {endpoints} endpoints — seconds (requests)"),
            &|| federation_from_graphs(graphs.clone(), NetworkProfile::local_cluster()),
            &System::ALL,
            &lubm::queries(),
            &harness,
        );
        let group = format!("{endpoints}ep");
        records.extend(grid.into_iter().map(|r| r.in_group(&group)));
    }
    print_legend(&harness);
    write_records("fig9_lubm", &records);
}
