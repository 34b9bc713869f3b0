//! Figure 14: the effect of LADE and SAPE — FedX as baseline, Lusail with
//! LADE only, and Lusail with LADE + SAPE, on two queries from each
//! benchmark.
//!
//! Expected shape (paper): LADE alone already beats FedX by shifting
//! intermediate-result computation to the endpoints (up to three orders
//! of magnitude); adding SAPE always improves over LADE alone.
//!
//! Runs at `LUSAIL_BENCH_SCALE` and at four times that (by default scale 1
//! and scale 4, the `oneshot_cpu` data, where plan quality is visible) and
//! writes both to `BENCH_fig14_ablation.json`, scale and benchmark in the
//! query label (`scale4/LUBM/Q4`).

use lusail_bench::{
    bench_scale, largerdf_graphs, measure, qfed_config, queries_named, write_records,
    EngineUnderTest, HarnessConfig, System,
};
use lusail_core::{LusailConfig, SapeMode};
use lusail_federation::NetworkProfile;
use lusail_workloads::{federation_from_graphs, largerdf, lubm, qfed};

fn main() {
    let harness = HarnessConfig::default();
    let mut records = Vec::new();
    for scale in [bench_scale(), 4.0 * bench_scale()] {
        let qfed_graphs = qfed::generate_all(&qfed_config(scale));
        let lubm_graphs = lubm::generate_all(&lubm::LubmConfig {
            universities: 4,
            scale,
            ..Default::default()
        });
        let lrb_graphs = largerdf_graphs(scale);
        // Two queries per benchmark, as in the paper.
        let pick = |queries, names: [&str; 2]| queries_named(queries, &names);
        let workloads = [
            (
                "QFed",
                &qfed_graphs,
                pick(qfed::queries(), ["C2P2B", "C2P2OF"]),
            ),
            ("LUBM", &lubm_graphs, pick(lubm::queries(), ["Q2", "Q4"])),
            (
                "LargeRDFBench",
                &lrb_graphs,
                pick(largerdf::all_queries(), ["C9", "B3"]),
            ),
        ];

        println!(
            "\nFigure 14, scale {scale}: FedX vs LADE vs LADE+SAPE — median seconds of {} runs \
             (requests)",
            harness.runs - 1
        );
        println!(
            "{:<16}{:<10}{:>18}{:>18}{:>18}",
            "benchmark", "query", "FedX", "LADE", "LADE+SAPE"
        );
        for (benchmark, graphs, queries) in workloads {
            let federation =
                || federation_from_graphs(graphs.clone(), NetworkProfile::local_cluster());
            let lusail = |label: &str, sape_mode: SapeMode| {
                let config = LusailConfig {
                    sape_mode,
                    timeout: Some(harness.timeout),
                    ..Default::default()
                };
                EngineUnderTest::lusail(label, federation(), config)
            };
            let systems = [
                System::FedX.over(federation(), harness.timeout),
                lusail("LADE", SapeMode::LadeOnly),
                lusail("LADE+SAPE", SapeMode::Full),
            ];
            for query in &queries {
                print!("{:<16}{:<10}", benchmark, query.name);
                for under_test in &systems {
                    let r = measure(under_test, query, &harness);
                    print!("{:>18}", r.grid_cell());
                    records.push(r.in_group(&format!("scale{scale}/{benchmark}")));
                }
                println!();
            }
        }
    }
    write_records("fig14_ablation", &records);
}
