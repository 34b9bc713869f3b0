//! Table 1: datasets used in the experiments.
//!
//! Prints the endpoint/triple-count table for the three benchmarks at the
//! harness scale, next to the paper's original counts so the proportional
//! scaling is visible. Writes `BENCH_table1.json`, one row per printed
//! line (`benchmark`, `endpoint`, `triples`, `paper_triples`).

use lusail_bench::{bench_scale, largerdf_graphs, qfed_config, write_bench_json};
use lusail_federation::json::Json;
use lusail_workloads::{lubm, qfed};

const PAPER_QFED_TOTAL: usize = 1_215_627;
const PAPER_LARGERDF_TOTAL: usize = 1_003_960_176;

fn main() {
    let scale = bench_scale();
    println!("Table 1: Datasets used in experiments (scale factor {scale})");
    println!(
        "{:<16}{:<24}{:>12}{:>18}",
        "Benchmark", "Endpoint", "Triples", "Paper's triples"
    );
    let mut rows = Vec::new();
    let mut line = |benchmark: &str, endpoint: &str, triples: usize, paper: usize| {
        println!("{benchmark:<16}{endpoint:<24}{triples:>12}{paper:>18}");
        rows.push(Json::object([
            ("benchmark", benchmark.into()),
            ("endpoint", endpoint.into()),
            ("triples", triples.into()),
            ("paper_triples", paper.into()),
        ]));
    };

    // Paper order: DailyMed, Diseasome, DrugBank, Sider.
    let paper_qfed = [164_276usize, 91_182, 766_920, 193_249];
    let qfed_graphs = qfed::generate_all(&qfed_config(scale));
    for ((name, g), paper) in qfed_graphs.iter().zip(paper_qfed) {
        line("QFed", name, g.len(), paper);
    }
    let total = qfed_graphs.iter().map(|(_, g)| g.len()).sum();
    line("QFed", "Total Triples", total, PAPER_QFED_TOTAL);

    let paper_lrb: &[(&str, usize)] = &[
        ("LinkedTCGA-M", 415_030_327),
        ("LinkedTCGA-E", 344_576_146),
        ("LinkedTCGA-A", 35_329_868),
        ("ChEBI", 4_772_706),
        ("DBPedia-Subset", 42_849_609),
        ("DrugBank", 517_023),
        ("GeoNames", 107_950_085),
        ("Jamendo", 1_049_647),
        ("KEGG", 1_090_830),
        ("LinkedMDB", 6_147_996),
        ("NewYorkTimes", 335_198),
        ("SemanticWebDogFood", 103_595),
        ("Affymetrix", 44_207_146),
    ];
    let lrb_graphs = largerdf_graphs(scale);
    for (name, g) in &lrb_graphs {
        let paper = paper_lrb
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, c)| *c);
        line("LargeRDFBench", name, g.len(), paper);
    }
    let total = lrb_graphs.iter().map(|(_, g)| g.len()).sum();
    line(
        "LargeRDFBench",
        "Total Triples",
        total,
        PAPER_LARGERDF_TOTAL,
    );

    // LUBM: the paper uses 256 universities × ~138k triples. We print the
    // per-university size at this scale and the 256-university total.
    let one = lubm::generate_university(&lubm::LubmConfig::with_universities(4), 0).len();
    line("LUBM", "per university", one, 138_000);
    line("LUBM", "256 Universities", one * 256, 35_306_161);

    write_bench_json("table1", &rows);
}
