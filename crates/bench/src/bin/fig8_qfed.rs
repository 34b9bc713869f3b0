//! Figure 8: query runtimes on the QFed benchmark (4 endpoints).
//!
//! Expected shape (paper): Lusail beats FedX and HiBISCuS on all queries;
//! filtered variants (…F) are fast for everyone; the big-literal variants
//! (C2P2B, C2P2BO) blow up FedX/HiBISCuS communication — they time out or
//! run orders of magnitude slower — while Lusail answers in seconds.
//! SPLENDID times out on everything except C2P2.
//!
//! Writes `BENCH_fig8_qfed.json`.

use lusail_bench::{
    bench_scale, print_legend, qfed_config, run_grid, write_records, HarnessConfig, System,
};
use lusail_federation::NetworkProfile;
use lusail_workloads::{federation_from_graphs, qfed};

fn main() {
    let graphs = qfed::generate_all(&qfed_config(bench_scale()));
    let harness = HarnessConfig::default();
    let records = run_grid(
        "Figure 8: QFed query runtimes, seconds (requests)",
        &|| federation_from_graphs(graphs.clone(), NetworkProfile::local_cluster()),
        &System::ALL,
        &qfed::queries(),
        &harness,
    );
    print_legend(&harness);
    write_records("fig8_qfed", &records);
}
