//! Communication-cost comparison (the extended version of the paper, cited
//! as \[3\], shows Lusail reduces the number of remote requests and the
//! volume of communicated data versus FedX — the §1 motivation quantifies
//! it as up to 6 orders of magnitude more requests at 4 endpoints).
//!
//! This binary reports, per benchmark query: requests, bytes shipped to
//! endpoints (queries + bindings), and bytes shipped back (results), for
//! Lusail and FedX.

use lusail_bench::{bench_scale, build_with_federation, write_bench_json, BenchRecord, System};
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::{Federation, HttpConfig, HttpEndpoint, NetworkProfile, SparqlEndpoint};
use lusail_server::{ServerConfig, SparqlServer};
use lusail_store::Store;
use lusail_workloads::{largerdf, lubm, qfed, BenchQuery};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn report(title: &str, graphs: &[(String, lusail_rdf::Graph)], queries: &[BenchQuery]) {
    println!("\n=== {title} ===");
    println!(
        "{:<9}{:>10}{:>12}{:>12}{:>10}{:>12}{:>12}{:>9}",
        "query", "Lu reqs", "Lu out(B)", "Lu in(B)", "FX reqs", "FX out(B)", "FX in(B)", "ratio"
    );
    for q in queries {
        let parsed = q.parse();
        let mut cells = Vec::new();
        for system in [System::Lusail, System::FedX] {
            let under_test = build_with_federation(
                system,
                graphs,
                NetworkProfile::instant(),
                Duration::from_secs(60),
            );
            // Warm run loads caches; the measured run is the steady state.
            let _ = under_test.engine.execute(&parsed);
            under_test.federation.reset_traffic();
            let ok = under_test.engine.execute(&parsed).is_ok();
            let t = under_test.federation.total_traffic();
            cells.push((ok, t.requests, t.bytes_sent, t.bytes_received));
        }
        let (l_ok, l_req, l_out, l_in) = cells[0];
        let (f_ok, f_req, f_out, f_in) = cells[1];
        let ratio = if l_req > 0 && f_ok {
            f_req as f64 / l_req as f64
        } else {
            f64::NAN
        };
        let tag = |ok: bool, v: u64| if ok { v.to_string() } else { "ERR".to_string() };
        println!(
            "{:<9}{:>10}{:>12}{:>12}{:>10}{:>12}{:>12}{:>8.1}x",
            q.name,
            tag(l_ok, l_req),
            tag(l_ok, l_out),
            tag(l_ok, l_in),
            tag(f_ok, f_req),
            tag(f_ok, f_out),
            tag(f_ok, f_in),
            ratio
        );
    }
}

/// Timed runs behind each loopback row (median and p95 are recorded).
const SAMPLES: u64 = 7;

/// Loopback codec comparison: the same federation served over real HTTP
/// sockets, once with the binary codec negotiated and once forced to
/// SPARQL JSON. Result bytes on the wire (response bodies) come from the
/// endpoints' codec counters, so the reduction is measured, not modeled.
/// Times are the median of [`SAMPLES`] steady-state runs.
fn loopback_codec_report(
    tag: &str,
    graphs: &[(String, lusail_rdf::Graph)],
    queries: &[BenchQuery],
    records: &mut Vec<BenchRecord>,
) {
    let handles: Vec<_> = graphs
        .iter()
        .map(|(_, g)| {
            SparqlServer::bind("127.0.0.1:0", Store::from_graph(g), ServerConfig::default())
                .expect("bind loopback server")
                .spawn()
        })
        .collect();
    println!("\n=== {tag}: wire bytes over loopback HTTP, binary codec vs SPARQL JSON ===");
    println!(
        "{:<9}{:>12}{:>12}{:>9}{:>10}{:>10}{:>8}",
        "query", "bin(B)", "json(B)", "saved", "bin(ms)", "json(ms)", "rows"
    );
    for q in queries {
        let parsed = q.parse();
        let mut cells: Vec<(u64, f64, usize)> = Vec::new();
        for (codec, offer) in [("binary", true), ("json", false)] {
            let endpoints: Vec<Arc<dyn SparqlEndpoint>> = graphs
                .iter()
                .zip(&handles)
                .map(|((name, _), h)| {
                    Arc::new(
                        HttpEndpoint::new(name.clone(), &h.url())
                            .expect("loopback url")
                            .with_config(HttpConfig {
                                offer_binary: offer,
                                ..Default::default()
                            }),
                    ) as Arc<dyn SparqlEndpoint>
                })
                .collect();
            let fed = Federation::new(endpoints);
            let engine = LusailEngine::new(
                fed.clone(),
                LusailConfig {
                    timeout: Some(Duration::from_secs(60)),
                    ..Default::default()
                },
            );
            // Warm run loads caches; the sampled runs are the steady state
            // (same requests, same bytes every time).
            let _ = engine.execute(&parsed);
            let before = fed.total_codec().unwrap_or_default();
            let mut rows = 0;
            let mut samples_ms: Vec<f64> = (0..SAMPLES)
                .map(|_| {
                    let start = Instant::now();
                    rows = engine.execute(&parsed).map(|r| r.len()).unwrap_or(0);
                    start.elapsed().as_secs_f64() * 1000.0
                })
                .collect();
            let after = fed.total_codec().unwrap_or_default();
            let wire = ((after.binary_bytes_in + after.json_bytes_in)
                - (before.binary_bytes_in + before.json_bytes_in))
                / SAMPLES;
            let mut record = BenchRecord::from_samples(
                format!("{tag}/{}", q.name),
                codec.to_string(),
                rows as u64,
                &mut samples_ms,
            );
            record.wire_bytes = wire;
            cells.push((wire, record.elapsed_ms, rows));
            records.push(record);
        }
        let (bin_b, bin_ms, rows) = cells[0];
        let (json_b, json_ms, _) = cells[1];
        let saved = if json_b > 0 {
            format!("{:.0}%", 100.0 * (1.0 - bin_b as f64 / json_b as f64))
        } else {
            "-".to_string()
        };
        println!(
            "{:<9}{:>12}{:>12}{:>9}{:>10.1}{:>10.1}{:>8}",
            q.name, bin_b, json_b, saved, bin_ms, json_ms, rows
        );
    }
    for h in handles {
        h.shutdown();
    }
}

fn main() {
    let scale = bench_scale();
    let lubm_graphs = lubm::generate_all(&lubm::LubmConfig::with_universities(4));
    report(
        "LUBM (4 endpoints): requests & bytes, Lusail vs FedX",
        &lubm_graphs,
        &lubm::queries(),
    );

    let qcfg = qfed::QfedConfig {
        drugs: (400.0 * scale) as usize,
        diseases: (120.0 * scale) as usize,
        side_effects: (200.0 * scale) as usize,
        labels: (150.0 * scale) as usize,
        seed: 7,
    };
    let qfed_graphs = qfed::generate_all(&qcfg);
    report(
        "QFed: requests & bytes, Lusail vs FedX",
        &qfed_graphs,
        &qfed::queries(),
    );

    let mut records = Vec::new();
    loopback_codec_report("lubm", &lubm_graphs, &lubm::queries(), &mut records);
    loopback_codec_report("qfed", &qfed_graphs, &qfed::queries(), &mut records);
    match write_bench_json("comm_costs", &records) {
        Ok(path) => println!("\nwrote {path} ({} records)", records.len()),
        Err(e) => eprintln!("\nfailed to write BENCH_comm_costs.json: {e}"),
    }

    let lcfg = largerdf::LargeRdfConfig {
        scale,
        ..Default::default()
    };
    let lrb_graphs = largerdf::generate_all(&lcfg);
    let subset: Vec<BenchQuery> = largerdf::all_queries()
        .into_iter()
        .filter(|q| ["S13", "C1", "C9", "B1", "B3", "B8"].contains(&q.name))
        .collect();
    report(
        "LargeRDFBench subset: requests & bytes, Lusail vs FedX",
        &lrb_graphs,
        &subset,
    );

    println!(
        "\n'ratio' = FedX requests / Lusail requests on the cached steady state. The paper's\n\
         §1 reports this growing to 6 orders of magnitude as endpoints scale; re-run with\n\
         more LUBM universities (see fig9_lubm/fig12_scaling) to watch the trend."
    );
}
