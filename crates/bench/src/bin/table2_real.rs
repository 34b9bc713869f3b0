//! Table 2: query runtimes on "real" independently deployed endpoints —
//! the Bio2RDF-style R1–R5 queries plus six LargeRDFBench queries, Lusail
//! vs FedX, over the geo-distributed network profile (real endpoints are
//! remote).
//!
//! Expected shape (paper): FedX wins the two trivially selective queries
//! (S3, S4) but fails or is 1–2 orders of magnitude slower elsewhere;
//! Lusail answers everything.
//!
//! Writes `BENCH_table2_real.json`.

use lusail_bench::{
    bench_scale, largerdf_graphs, print_legend, queries_named, run_grid, write_records,
    HarnessConfig, System,
};
use lusail_federation::{EndpointLimits, NetworkProfile};
use lusail_workloads::{bio2rdf, federation_from_graphs_limited, largerdf};

/// Real public endpoints impose operational limits; this is what turns
/// FedX's giant bound-join requests into the paper's "RE" rows. 8 KiB is
/// a typical HTTP GET query-string ceiling.
const REAL_ENDPOINT_LIMITS: EndpointLimits = EndpointLimits {
    max_request_bytes: Some(8_192),
    max_result_rows: Some(100_000),
};

fn main() {
    let harness = HarnessConfig::default();
    let bio_graphs = bio2rdf::generate_all(&bio2rdf::Bio2RdfConfig::default());
    let lrb_graphs = largerdf_graphs(bench_scale());
    let subset = queries_named(
        largerdf::all_queries(),
        &["S3", "S4", "S7", "S10", "S14", "C9"],
    );

    let mut records = Vec::new();
    for (title, graphs, queries) in [
        (
            "Table 2 (left): Bio2RDF R1–R5 — seconds (requests)",
            &bio_graphs,
            bio2rdf::queries(),
        ),
        (
            "Table 2 (right): LargeRDFBench subset — seconds (requests)",
            &lrb_graphs,
            subset,
        ),
    ] {
        records.extend(run_grid(
            title,
            &|| {
                federation_from_graphs_limited(
                    graphs.clone(),
                    NetworkProfile::geo_distributed(),
                    REAL_ENDPOINT_LIMITS,
                )
            },
            &[System::Lusail, System::FedX],
            &queries,
            &harness,
        ));
    }
    print_legend(&harness);
    println!(
        "Endpoints impose real-server limits ({} byte requests max).",
        REAL_ENDPOINT_LIMITS.max_request_bytes.unwrap()
    );
    write_records("table2_real", &records);
}
