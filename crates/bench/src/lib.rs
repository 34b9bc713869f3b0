//! # lusail-bench
//!
//! The benchmark harness: everything needed to regenerate each table and
//! figure of the paper's evaluation (Section 5). One binary per artifact —
//! see DESIGN.md's per-experiment index — plus plain-`Instant` timing
//! benches under `benches/` driven by the [`timing`] harness.
//!
//! The harness follows the paper's protocol: every query runs three times
//! and the average of the last two runs is reported; a per-query time
//! limit marks slow queries as timed out (the paper's limit is one hour;
//! ours defaults to 20 s on the compressed network timescale and can be
//! overridden with `LUSAIL_BENCH_TIMEOUT_SECS`). Workload scale can be
//! adjusted with `LUSAIL_BENCH_SCALE`.

pub mod timing;

use lusail_baselines::{FedX, FedXConfig, FederatedEngine, HiBiscus, Splendid};
use lusail_core::{EngineError, LusailConfig, LusailEngine};
use lusail_federation::{Federation, NetworkProfile};
use lusail_rdf::Graph;
use lusail_workloads::federation_from_graphs;
use lusail_workloads::BenchQuery;
use std::time::{Duration, Instant};

/// How a measured query run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Completed with this many result rows.
    Ok(usize),
    /// Hit the time limit (the paper's ✗ / "TO" entries).
    Timeout,
    /// The engine cannot evaluate the query (C5/B5/B6 on the baselines).
    Unsupported,
    /// An endpoint rejected a request mid-query (the paper's "RE" rows).
    RuntimeError,
}

/// One measured cell of a results table.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub system: String,
    pub query: String,
    pub status: Status,
    /// Average of the last two of three runs (the paper's protocol), or
    /// the single failing run's duration.
    pub elapsed: Duration,
    /// Endpoint requests issued during the measured runs (per run).
    pub requests: u64,
    /// Bytes shipped from endpoints to the federator (per run).
    pub bytes_received: u64,
}

impl Measurement {
    /// The table cell text: seconds with three decimals, `TO`, or `NS`.
    pub fn cell(&self) -> String {
        match self.status {
            Status::Ok(_) => format!("{:.3}", self.elapsed.as_secs_f64()),
            Status::Timeout => "TO".to_string(),
            Status::Unsupported => "NS".to_string(),
            Status::RuntimeError => "RE".to_string(),
        }
    }
}

/// Benchmark-wide settings.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    pub timeout: Duration,
    /// Runs per query; the first is a warm-up, the rest are averaged.
    pub runs: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        let timeout = std::env::var("LUSAIL_BENCH_TIMEOUT_SECS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Duration::from_secs)
            .unwrap_or(Duration::from_secs(20));
        HarnessConfig { timeout, runs: 3 }
    }
}

/// The benchmark-wide scale factor (`LUSAIL_BENCH_SCALE`, default 1.0).
pub fn bench_scale() -> f64 {
    std::env::var("LUSAIL_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// The systems compared in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Lusail,
    FedX,
    HiBiscus,
    Splendid,
}

impl System {
    pub const ALL: [System; 4] = [
        System::Lusail,
        System::FedX,
        System::HiBiscus,
        System::Splendid,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            System::Lusail => "Lusail",
            System::FedX => "FedX",
            System::HiBiscus => "HiBISCuS",
            System::Splendid => "SPLENDID",
        }
    }

    /// Build this system over a fresh federation of `graphs`. Each engine
    /// gets its own endpoints so traffic counters don't interfere.
    pub fn build(
        &self,
        graphs: &[(String, Graph)],
        profile: NetworkProfile,
        timeout: Duration,
    ) -> Box<dyn FederatedEngine> {
        let fed = federation_from_graphs(graphs.to_vec(), profile);
        match self {
            System::Lusail => Box::new(LusailEngine::new(
                fed,
                LusailConfig {
                    timeout: Some(timeout),
                    ..Default::default()
                },
            )),
            System::FedX => Box::new(FedX::new(
                fed,
                FedXConfig {
                    timeout: Some(timeout),
                    ..Default::default()
                },
            )),
            System::HiBiscus => Box::new(HiBiscus::new(
                fed,
                FedXConfig {
                    timeout: Some(timeout),
                    ..Default::default()
                },
            )),
            System::Splendid => {
                let mut s = Splendid::new(fed);
                s.timeout = Some(timeout);
                Box::new(s)
            }
        }
    }
}

/// Engines must expose their federation for traffic accounting; this
/// helper rebuilds one per run so request counts are per-engine.
pub struct EngineUnderTest {
    pub engine: Box<dyn FederatedEngine>,
    pub federation: Federation,
}

/// Build an engine over an existing federation (endpoints may carry
/// custom limits).
pub fn build_on_federation(system: System, fed: Federation, timeout: Duration) -> EngineUnderTest {
    let engine: Box<dyn FederatedEngine> = match system {
        System::Lusail => Box::new(LusailEngine::new(
            fed.clone(),
            LusailConfig {
                timeout: Some(timeout),
                ..Default::default()
            },
        )),
        System::FedX => Box::new(FedX::new(
            fed.clone(),
            FedXConfig {
                timeout: Some(timeout),
                ..Default::default()
            },
        )),
        System::HiBiscus => Box::new(HiBiscus::new(
            fed.clone(),
            FedXConfig {
                timeout: Some(timeout),
                ..Default::default()
            },
        )),
        System::Splendid => {
            let mut s = Splendid::new(fed.clone());
            s.timeout = Some(timeout);
            Box::new(s)
        }
    };
    EngineUnderTest {
        engine,
        federation: fed,
    }
}

/// Build an engine together with a handle on its federation.
pub fn build_with_federation(
    system: System,
    graphs: &[(String, Graph)],
    profile: NetworkProfile,
    timeout: Duration,
) -> EngineUnderTest {
    build_on_federation(
        system,
        federation_from_graphs(graphs.to_vec(), profile),
        timeout,
    )
}

/// Run one query under the paper's protocol (3 runs, average of last two).
pub fn measure(
    under_test: &EngineUnderTest,
    query: &BenchQuery,
    config: &HarnessConfig,
) -> Measurement {
    let parsed = query.parse();
    let mut timings = Vec::new();
    let mut status = Status::Ok(0);
    let mut requests = 0;
    let mut bytes = 0;
    for run in 0..config.runs.max(2) {
        under_test.federation.reset_traffic();
        let start = Instant::now();
        let outcome = under_test.engine.execute(&parsed);
        let elapsed = start.elapsed();
        let traffic = under_test.federation.total_traffic();
        match outcome {
            Ok(rel) => {
                status = Status::Ok(rel.len());
                if run > 0 {
                    timings.push(elapsed);
                    requests = traffic.requests;
                    bytes = traffic.bytes_received;
                }
            }
            Err(EngineError::Timeout(_)) => {
                return Measurement {
                    system: under_test.engine.name().to_string(),
                    query: query.name.to_string(),
                    status: Status::Timeout,
                    elapsed,
                    requests: traffic.requests,
                    bytes_received: traffic.bytes_received,
                };
            }
            Err(EngineError::Unsupported(_)) => {
                return Measurement {
                    system: under_test.engine.name().to_string(),
                    query: query.name.to_string(),
                    status: Status::Unsupported,
                    elapsed,
                    requests: traffic.requests,
                    bytes_received: traffic.bytes_received,
                };
            }
            Err(EngineError::Endpoint(_))
            | Err(EngineError::BudgetExceeded { .. })
            | Err(EngineError::Cancelled(_)) => {
                return Measurement {
                    system: under_test.engine.name().to_string(),
                    query: query.name.to_string(),
                    status: Status::RuntimeError,
                    elapsed,
                    requests: traffic.requests,
                    bytes_received: traffic.bytes_received,
                };
            }
        }
    }
    let avg = timings.iter().sum::<Duration>() / timings.len().max(1) as u32;
    Measurement {
        system: under_test.engine.name().to_string(),
        query: query.name.to_string(),
        status,
        elapsed: avg,
        requests,
        bytes_received: bytes,
    }
}

/// One machine-readable benchmark data point, written to a
/// `BENCH_<name>.json` file alongside the human-readable tables so the
/// perf trajectory is trackable across revisions.
#[derive(Debug, Clone, Default)]
pub struct BenchRecord {
    pub query: String,
    /// Result bytes that crossed the wire (or the in-memory relation's
    /// wire size for microbenches with no socket).
    pub wire_bytes: u64,
    pub rows: u64,
    /// The one measurement of a single-shot row; the median of a sampled
    /// row (see [`BenchRecord::from_samples`]).
    pub elapsed_ms: f64,
    /// 95th percentile of a sampled row.
    pub p95_ms: f64,
    /// Samples behind `elapsed_ms`/`p95_ms`; 0 marks a single-shot row.
    pub samples: u64,
    /// Which result codec carried the bytes: "binary", "json", or for
    /// join microbenches the solution representation ("id", "string").
    pub codec: String,
}

impl BenchRecord {
    /// A row summarising repeated wall-time samples (milliseconds) by their
    /// median and nearest-rank 95th percentile.
    pub fn from_samples(query: String, codec: String, rows: u64, samples_ms: &mut [f64]) -> Self {
        assert!(!samples_ms.is_empty(), "a sampled row needs samples");
        samples_ms.sort_by(f64::total_cmp);
        let rank = |p: f64| samples_ms[((samples_ms.len() as f64 * p).ceil() as usize).max(1) - 1];
        BenchRecord {
            query,
            rows,
            elapsed_ms: rank(0.5),
            p95_ms: rank(0.95),
            samples: samples_ms.len() as u64,
            codec,
            ..Default::default()
        }
    }
}

/// Write records as a JSON array to `BENCH_<name>.json` in the current
/// directory, overwriting any previous run's file.
pub fn write_bench_json(name: &str, records: &[BenchRecord]) -> std::io::Result<String> {
    let body = records
        .iter()
        .map(|r| {
            let sampled = match r.samples {
                0 => String::new(),
                n => format!(",\"p95_ms\":{:.3},\"samples\":{n}", r.p95_ms),
            };
            format!(
                "{{\"query\":\"{}\",\"wire_bytes\":{},\"rows\":{},\"elapsed_ms\":{:.3}{sampled},\"codec\":\"{}\"}}",
                r.query.replace('"', "\\\""),
                r.wire_bytes,
                r.rows,
                r.elapsed_ms,
                r.codec.replace('"', "\\\"")
            )
        })
        .collect::<Vec<_>>()
        .join(",\n  ");
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, format!("[\n  {body}\n]\n"))?;
    Ok(path)
}

/// Render a figure/table as fixed-width text: one row per query, one
/// column per system.
pub fn print_table(title: &str, queries: &[&str], systems: &[&str], cells: &[Vec<String>]) {
    println!("\n=== {title} ===");
    print!("{:<10}", "query");
    for s in systems {
        print!("{s:>18}");
    }
    println!();
    for (qi, qname) in queries.iter().enumerate() {
        print!("{qname:<10}");
        for cell in &cells[qi] {
            print!("{cell:>18}");
        }
        println!();
    }
}

/// Run a full system × query grid and print it paper-style. Returns the
/// measurements for further reporting.
pub fn run_grid(
    title: &str,
    graphs: &[(String, Graph)],
    profile: NetworkProfile,
    systems: &[System],
    queries: &[BenchQuery],
    config: &HarnessConfig,
) -> Vec<Measurement> {
    let mut all = Vec::new();
    let mut cells: Vec<Vec<String>> = vec![Vec::new(); queries.len()];
    for system in systems {
        let under_test = build_with_federation(*system, graphs, profile, config.timeout);
        for (qi, query) in queries.iter().enumerate() {
            let m = measure(&under_test, query, config);
            cells[qi].push(format!("{} ({} rq)", m.cell(), m.requests));
            all.push(m);
        }
    }
    let query_names: Vec<&str> = queries.iter().map(|q| q.name).collect();
    let system_names: Vec<&str> = systems.iter().map(|s| s.label()).collect();
    print_table(title, &query_names, &system_names, &cells);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_workloads::lubm;

    #[test]
    fn measure_runs_protocol() {
        let cfg = lubm::LubmConfig::with_universities(2);
        let graphs = lubm::generate_all(&cfg);
        let under_test = build_with_federation(
            System::Lusail,
            &graphs,
            NetworkProfile::instant(),
            Duration::from_secs(30),
        );
        let q = &lubm::queries()[2]; // Q3, small
        let m = measure(&under_test, q, &HarnessConfig::default());
        match m.status {
            Status::Ok(rows) => assert!(rows > 0),
            other => panic!("unexpected status {other:?}"),
        }
        assert!(m.requests > 0);
    }

    #[test]
    fn all_systems_build() {
        let cfg = lubm::LubmConfig::with_universities(2);
        let graphs = lubm::generate_all(&cfg);
        for system in System::ALL {
            let e = system.build(&graphs, NetworkProfile::instant(), Duration::from_secs(5));
            assert!(!e.name().is_empty());
        }
    }
}
