//! Communication-cost comparison (the extended version of the paper, cited
//! as \[3\], shows Lusail reduces the number of remote requests and the
//! volume of communicated data versus FedX — the §1 motivation quantifies
//! it as up to 6 orders of magnitude more requests at 4 endpoints).
//!
//! Two grids, both written to `BENCH_comm_costs.json`:
//!
//! * per benchmark query, Lusail and FedX on the instant network: requests,
//!   bytes shipped to endpoints (queries + bindings, the extra `bytes_sent`
//!   key) and bytes shipped back (`wire_bytes`);
//! * the same LUBM and QFed federations served over real loopback HTTP
//!   sockets, Lusail with the binary codec negotiated (`binary`) and forced
//!   to SPARQL JSON (`json`): response bytes are counted on the wire, so
//!   the reduction is measured, not modelled.

use lusail_bench::{
    bench_scale, largerdf_graphs, measure, qfed_config, queries_named, write_bench_json,
    EngineUnderTest, HarnessConfig, Record, Status, System,
};
use lusail_core::LusailConfig;
use lusail_federation::json::Json;
use lusail_federation::{Federation, HttpConfig, HttpEndpoint, NetworkProfile, SparqlEndpoint};
use lusail_server::{ServerConfig, SparqlServer};
use lusail_store::Store;
use lusail_workloads::{federation_from_graphs, largerdf, lubm, qfed, BenchQuery};
use std::sync::Arc;
use std::time::Duration;

type Graphs = [(String, lusail_rdf::Graph)];

/// Requests and bytes of Lusail and FedX on the instant network.
fn report(
    group: &str,
    graphs: &Graphs,
    queries: &[BenchQuery],
    harness: &HarnessConfig,
    rows: &mut Vec<Json>,
) {
    let mut columns: Vec<Vec<(Record, u64)>> = Vec::new();
    for system in [System::Lusail, System::FedX] {
        let under_test = system.over(
            federation_from_graphs(graphs.to_vec(), NetworkProfile::instant()),
            harness.timeout,
        );
        columns.push(
            queries
                .iter()
                .map(|q| {
                    let record = measure(&under_test, q, harness);
                    // Still the counters of the record's run.
                    (record, under_test.federation.total_traffic().bytes_sent)
                })
                .collect(),
        );
    }
    println!("\n=== {group}: requests & bytes, Lusail vs FedX ===");
    println!(
        "{:<9}{:>10}{:>12}{:>12}{:>10}{:>12}{:>12}{:>9}",
        "query", "Lu reqs", "Lu out(B)", "Lu in(B)", "FX reqs", "FX out(B)", "FX in(B)", "ratio"
    );
    for (qi, q) in queries.iter().enumerate() {
        print!("{:<9}", q.name);
        for column in &columns {
            let (r, sent) = &column[qi];
            match r.status {
                Status::Ok => print!("{:>10}{:>12}{:>12}", r.requests, sent, r.wire_bytes),
                failed => print!("{0:>10}{0:>12}{0:>12}", failed.label()),
            }
        }
        let (lusail, fedx) = (&columns[0][qi].0, &columns[1][qi].0);
        match (lusail.status, fedx.status) {
            (Status::Ok, Status::Ok) => println!(
                "{:>8.1}x",
                fedx.requests as f64 / lusail.requests.max(1) as f64
            ),
            _ => println!("{:>9}", "-"),
        }
    }
    for (record, sent) in columns.into_iter().flatten() {
        rows.push(record.in_group(group).to_json().with("bytes_sent", sent));
    }
}

/// Wire bytes and time over loopback HTTP, binary codec against SPARQL
/// JSON.
fn loopback_codec_report(
    group: &str,
    graphs: &Graphs,
    queries: &[BenchQuery],
    harness: &HarnessConfig,
    rows: &mut Vec<Json>,
) {
    let handles: Vec<_> = graphs
        .iter()
        .map(|(_, g)| {
            SparqlServer::bind("127.0.0.1:0", Store::from_graph(g), ServerConfig::default())
                .expect("bind loopback server")
                .spawn()
        })
        .collect();
    let columns: Vec<Vec<Record>> = [("binary", true), ("json", false)]
        .into_iter()
        .map(|(codec, offer_binary)| {
            let endpoints = graphs.iter().zip(&handles).map(|((name, _), h)| {
                let config = HttpConfig {
                    offer_binary,
                    ..Default::default()
                };
                let endpoint = HttpEndpoint::new(name.clone(), &h.url()).expect("loopback url");
                Arc::new(endpoint.with_config(config)) as Arc<dyn SparqlEndpoint>
            });
            let config = LusailConfig {
                timeout: Some(harness.timeout),
                ..Default::default()
            };
            let under_test =
                EngineUnderTest::lusail(codec, Federation::new(endpoints.collect()), config);
            queries
                .iter()
                .map(|q| measure(&under_test, q, harness))
                .collect()
        })
        .collect();
    for h in handles {
        h.shutdown();
    }

    println!("\n=== {group}: wire bytes over loopback HTTP, binary codec vs SPARQL JSON ===");
    println!(
        "{:<9}{:>12}{:>12}{:>9}{:>10}{:>10}{:>8}",
        "query", "bin(B)", "json(B)", "saved", "bin(ms)", "json(ms)", "rows"
    );
    for (bin, json) in columns[0].iter().zip(&columns[1]) {
        let saved = match json.wire_bytes {
            0 => "-".to_string(),
            bytes => format!(
                "{:.0}%",
                100.0 * (1.0 - bin.wire_bytes as f64 / bytes as f64)
            ),
        };
        println!(
            "{:<9}{:>12}{:>12}{:>9}{:>10.1}{:>10.1}{:>8}",
            bin.query,
            bin.wire_bytes,
            json.wire_bytes,
            saved,
            bin.elapsed_ms,
            json.elapsed_ms,
            bin.rows
        );
    }
    // Query-major, as the file has always been.
    for (bin, json) in columns[0].iter().zip(&columns[1]) {
        rows.extend([bin, json].map(|r| r.clone().in_group(group).to_json()));
    }
}

fn main() {
    let scale = bench_scale();
    let harness = HarnessConfig {
        timeout: Duration::from_secs(60),
        ..Default::default()
    };
    let lubm_graphs = lubm::generate_all(&lubm::LubmConfig::with_universities(4));
    let qfed_graphs = qfed::generate_all(&qfed_config(scale));
    let lrb_graphs = largerdf_graphs(scale);
    let subset = queries_named(
        largerdf::all_queries(),
        &["S13", "C1", "C9", "B1", "B3", "B8"],
    );

    let mut rows = Vec::new();
    loopback_codec_report("lubm", &lubm_graphs, &lubm::queries(), &harness, &mut rows);
    loopback_codec_report("qfed", &qfed_graphs, &qfed::queries(), &harness, &mut rows);
    report("lubm", &lubm_graphs, &lubm::queries(), &harness, &mut rows);
    report("qfed", &qfed_graphs, &qfed::queries(), &harness, &mut rows);
    report("largerdfbench", &lrb_graphs, &subset, &harness, &mut rows);
    println!(
        "\n'ratio' = FedX requests / Lusail requests on the cached steady state. The paper's\n\
         §1 reports this growing to 6 orders of magnitude as endpoints scale; re-run with\n\
         more LUBM universities (see fig9_lubm/fig12_scaling) to watch the trend."
    );
    write_bench_json("comm_costs", &rows);
}
