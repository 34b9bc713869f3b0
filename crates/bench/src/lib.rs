//! # lusail-bench
//!
//! The benchmark harness: everything needed to regenerate each table and
//! figure of the paper's evaluation (Section 5). One binary per artifact —
//! see DESIGN.md's per-experiment index — and every one of them measures
//! the same way:
//!
//! * [`sample`] is the one timing loop: `runs` calls, the first discarded
//!   as warm-up, the rest summarised by their median and nearest-rank 95th
//!   percentile ([`Summary`]).
//! * [`measure`] runs one query on one engine under that loop and returns
//!   one [`Record`]: who ran what, how it ended (`ok`, `TO`, `NS`, `RE`),
//!   rows, the exact requests and bytes received of one run, median, p95
//!   and the number of samples behind them.
//! * [`run_grid`] measures a system × query grid and prints the paper-style
//!   table from the records; [`write_bench_json`] writes records, one per
//!   line, to `BENCH_<name>.json` through [`Json`]'s `Display`.
//!
//! A per-query time limit marks slow queries as timed out (the paper's
//! limit is one hour; ours defaults to 20 s on the compressed network
//! timescale, `LUSAIL_BENCH_TIMEOUT_SECS` overrides it). Workload scale is
//! `LUSAIL_BENCH_SCALE`.

use lusail_baselines::{FedX, FedXConfig, FederatedEngine, HiBiscus, Splendid};
use lusail_core::{EngineError, ExecutionProfile, LusailConfig, LusailEngine};
use lusail_federation::json::Json;
use lusail_federation::Federation;
use lusail_rdf::Graph;
use lusail_workloads::qfed::QfedConfig;
use lusail_workloads::{largerdf, BenchQuery};
use std::time::{Duration, Instant};

/// How a measured query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// Hit the time limit (the paper's ✗ / "TO" entries).
    Timeout,
    /// The engine cannot evaluate the query (C5/B5/B6 on the baselines).
    Unsupported,
    /// An endpoint rejected a request mid-query (the paper's "RE" rows).
    RuntimeError,
}

impl Status {
    /// The table cell and the JSON `status` value.
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Timeout => "TO",
            Status::Unsupported => "NS",
            Status::RuntimeError => "RE",
        }
    }

    fn of(error: &EngineError) -> Status {
        match error {
            EngineError::Timeout(_) => Status::Timeout,
            EngineError::Unsupported(_) => Status::Unsupported,
            EngineError::Endpoint(_)
            | EngineError::BudgetExceeded { .. }
            | EngineError::Cancelled(_) => Status::RuntimeError,
        }
    }
}

/// Median and nearest-rank 95th percentile of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p95: f64,
    pub samples: u64,
}

impl Summary {
    /// Summarise `values` (sorted in place). Wall times in milliseconds for
    /// every caller but `qerror`, whose samples are per-node q-errors.
    pub fn of(values: &mut [f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs samples");
        values.sort_by(f64::total_cmp);
        let rank = |p: f64| values[((values.len() as f64 * p).ceil() as usize).max(1) - 1];
        Summary {
            median: rank(0.5),
            p95: rank(0.95),
            samples: values.len() as u64,
        }
    }

    /// The same summary with both percentiles multiplied by `k`.
    pub fn times(self, k: f64) -> Summary {
        Summary {
            median: self.median * k,
            p95: self.p95 * k,
            ..self
        }
    }
}

/// What [`sample`] returns: what each timed run produced, in run order, and
/// the wall time of those runs in milliseconds.
#[derive(Debug)]
pub struct Sampled<T> {
    pub outputs: Vec<T>,
    pub ms: Summary,
}

/// The one timing loop. Calls `f` `runs` times, discards the first call as
/// warm-up and summarises the wall time of the rest. The first `Err` ends
/// the loop and is returned as it is: a failed cell has no percentile.
pub fn sample<T, E>(runs: usize, mut f: impl FnMut() -> Result<T, E>) -> Result<Sampled<T>, E> {
    assert!(
        runs >= 2,
        "sample needs a warm-up run and a timed one, got runs = {runs}"
    );
    let mut outputs = Vec::with_capacity(runs - 1);
    let mut ms = Vec::with_capacity(runs - 1);
    for run in 0..runs {
        let start = Instant::now();
        let output = f()?;
        let elapsed = start.elapsed();
        if run > 0 {
            outputs.push(output);
            ms.push(elapsed.as_secs_f64() * 1000.0);
        }
    }
    Ok(Sampled {
        outputs,
        ms: Summary::of(&mut ms),
    })
}

/// One measured cell: a row of a `BENCH_*.json` file and a cell of the
/// table printed beside it.
///
/// JSON keys, in order: `codec` ([`Record::system`] — the key is older than
/// the figure files and first named the result codec of `comm_costs`),
/// `query`, `status`, `rows`, `requests`, `wire_bytes`, `elapsed_ms` (the
/// median), `p95_ms`, `samples`. A cell that did not end `ok` has `null`
/// for both times and `0` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The engine of a figure grid (`Lusail`, `FedX`, …) or the variant a
    /// microbench compares (`binary`, `cap16`, `erh-4..13`, …).
    pub system: String,
    pub query: String,
    pub status: Status,
    pub rows: u64,
    /// Endpoint requests of one run (the last timed one; the failing one of
    /// a cell that failed). Exact, not simulated.
    pub requests: u64,
    /// Bytes the endpoints shipped back during that run.
    pub wire_bytes: u64,
    pub elapsed_ms: f64,
    pub p95_ms: f64,
    pub samples: u64,
}

impl Record {
    /// An `ok` row of `samples`.
    pub fn new(
        system: impl Into<String>,
        query: impl Into<String>,
        rows: u64,
        ms: Summary,
    ) -> Self {
        Record {
            system: system.into(),
            query: query.into(),
            status: Status::Ok,
            rows,
            requests: 0,
            wire_bytes: 0,
            elapsed_ms: ms.median,
            p95_ms: ms.p95,
            samples: ms.samples,
        }
    }

    /// This row with its query label under `group` (`lubm/Q3`, `2ep/Q3`).
    pub fn in_group(mut self, group: &str) -> Self {
        self.query = format!("{group}/{}", self.query);
        self
    }

    /// The table cell text: median seconds with three decimals, or `TO`,
    /// `NS`, `RE`.
    pub fn cell(&self) -> String {
        match self.status {
            Status::Ok => format!("{:.3}", self.elapsed_ms / 1000.0),
            failed => failed.label().to_string(),
        }
    }

    /// The cell of a grid that also shows the run's requests.
    pub fn grid_cell(&self) -> String {
        format!("{} ({} rq)", self.cell(), self.requests)
    }

    pub fn to_json(&self) -> Json {
        Json::object([
            ("codec", self.system.as_str().into()),
            ("query", self.query.as_str().into()),
            ("status", self.status.label().into()),
            ("rows", self.rows.into()),
            ("requests", self.requests.into()),
            ("wire_bytes", self.wire_bytes.into()),
            ("elapsed_ms", round_ms(self.elapsed_ms)),
            ("p95_ms", round_ms(self.p95_ms)),
            ("samples", self.samples.into()),
        ])
    }
}

/// Milliseconds at microsecond resolution, as every `…_ms` key of the stats
/// model (a failed cell's NaN prints as `null`).
fn round_ms(ms: f64) -> Json {
    Json::Number((ms * 1000.0).round() / 1000.0)
}

/// The text of a `BENCH_*.json` file: an array, one row per line, each row
/// printed by [`Json`]'s `Display`.
pub fn bench_json(rows: &[Json]) -> String {
    let body: Vec<String> = rows.iter().map(Json::to_string).collect();
    format!("[\n  {}\n]\n", body.join(",\n  "))
}

/// Write `rows` to `BENCH_<name>.json` in the current directory, replacing
/// a previous run's file. A bin that cannot leave its artifact fails.
pub fn write_bench_json(name: &str, rows: &[Json]) {
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, bench_json(rows)).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path} ({} rows)", rows.len());
}

/// [`write_bench_json`] for rows that are plain records.
pub fn write_records(name: &str, records: &[Record]) {
    let rows: Vec<Json> = records.iter().map(Record::to_json).collect();
    write_bench_json(name, &rows);
}

/// Benchmark-wide settings.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    pub timeout: Duration,
    /// Runs per query; the first is a warm-up, the rest are the samples.
    pub runs: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        let timeout = std::env::var("LUSAIL_BENCH_TIMEOUT_SECS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Duration::from_secs)
            .unwrap_or(Duration::from_secs(20));
        HarnessConfig { timeout, runs: 11 }
    }
}

/// The benchmark-wide scale factor (`LUSAIL_BENCH_SCALE`, default 1.0).
pub fn bench_scale() -> f64 {
    std::env::var("LUSAIL_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// The QFed federation of the figures at `scale`.
pub fn qfed_config(scale: f64) -> QfedConfig {
    let d = QfedConfig::default();
    let at = |n: usize| (n as f64 * scale) as usize;
    QfedConfig {
        drugs: at(d.drugs),
        diseases: at(d.diseases),
        side_effects: at(d.side_effects),
        labels: at(d.labels),
        seed: d.seed,
    }
}

/// The LargeRDFBench federation of the figures at `scale`.
pub fn largerdf_graphs(scale: f64) -> Vec<(String, Graph)> {
    largerdf::generate_all(&largerdf::LargeRdfConfig {
        scale,
        ..Default::default()
    })
}

/// The catalog queries called `names`, in catalog order.
pub fn queries_named(queries: Vec<BenchQuery>, names: &[&str]) -> Vec<BenchQuery> {
    let picked: Vec<BenchQuery> = queries
        .into_iter()
        .filter(|q| names.contains(&q.name))
        .collect();
    assert_eq!(
        picked.len(),
        names.len(),
        "no catalog query for one of {names:?}"
    );
    picked
}

/// The catalog query called `name`.
pub fn query_named(queries: Vec<BenchQuery>, name: &str) -> BenchQuery {
    queries_named(queries, &[name]).remove(0)
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

    /// This system with its defaults over `federation`. Give every engine a
    /// federation of its own so the traffic counters are attributable.
    pub fn over(self, federation: Federation, timeout: Duration) -> EngineUnderTest {
        let fedx = FedXConfig {
            timeout: Some(timeout),
            ..Default::default()
        };
        let engine: Box<dyn FederatedEngine> = match self {
            System::Lusail => {
                let config = LusailConfig {
                    timeout: Some(timeout),
                    ..Default::default()
                };
                return EngineUnderTest::lusail(self.label(), federation, config);
            }
            System::FedX => Box::new(FedX::new(federation.clone(), fedx)),
            System::HiBiscus => Box::new(HiBiscus::new(federation.clone(), fedx)),
            System::Splendid => {
                let mut s = Splendid::new(federation.clone());
                s.timeout = Some(timeout);
                Box::new(s)
            }
        };
        EngineUnderTest {
            label: self.label().to_string(),
            engine,
            federation,
        }
    }
}

/// An engine, the name its rows carry and a handle on its federation for
/// traffic accounting.
pub struct EngineUnderTest {
    pub label: String,
    pub engine: Box<dyn FederatedEngine>,
    pub federation: Federation,
}

impl EngineUnderTest {
    /// Lusail under `config`, its rows labelled `label` (a threshold, an
    /// ablation mode, a block-cutting variant).
    pub fn lusail(label: &str, federation: Federation, config: LusailConfig) -> Self {
        EngineUnderTest {
            label: label.to_string(),
            engine: Box::new(LusailEngine::new(federation.clone(), config)),
            federation,
        }
    }
}

/// Measure one query on one engine: `config.runs` runs under [`sample`],
/// traffic counters reset before each.
pub fn measure(under_test: &EngineUnderTest, query: &BenchQuery, config: &HarnessConfig) -> Record {
    let parsed = query.parse();
    let federation = &under_test.federation;
    let sampled = sample(config.runs, || {
        federation.reset_traffic();
        under_test.engine.execute(&parsed).map(|rows| rows.len())
    });
    // Still the counters of the last run, timed or failed.
    let traffic = federation.total_traffic();
    let (status, rows, ms) = match sampled {
        Ok(sampled) => (Status::Ok, sampled.outputs[0], sampled.ms),
        Err(error) => {
            let none = Summary {
                median: f64::NAN,
                p95: f64::NAN,
                samples: 0,
            };
            (Status::of(&error), 0, none)
        }
    };
    Record {
        status,
        requests: traffic.requests,
        wire_bytes: traffic.bytes_received,
        ..Record::new(under_test.label.as_str(), query.name, rows as u64, ms)
    }
}

/// Measure a system × query grid — each system on a federation of its own
/// from `federation` — and print it paper-style from the records: one row
/// per query, one column per system, `median seconds (requests)`.
pub fn run_grid(
    title: &str,
    federation: &dyn Fn() -> Federation,
    systems: &[System],
    queries: &[BenchQuery],
    config: &HarnessConfig,
) -> Vec<Record> {
    let mut records = Vec::new();
    for system in systems {
        let under_test = system.over(federation(), config.timeout);
        for query in queries {
            records.push(measure(&under_test, query, config));
        }
    }
    println!("\n=== {title} ===");
    print!("{:<10}", "query");
    for system in systems {
        print!("{:>18}", system.label());
    }
    println!();
    for (qi, query) in queries.iter().enumerate() {
        print!("{:<10}", query.name);
        for column in records.chunks(queries.len()) {
            print!("{:>18}", column[qi].grid_cell());
        }
        println!();
    }
    records
}

/// The grid legend every figure bin prints under its tables.
pub fn print_legend(config: &HarnessConfig) {
    println!(
        "\nCells: median seconds of {} timed runs (requests of one run). TO = timed out \
         ({} s limit), NS = not supported, RE = an endpoint rejected a request.",
        config.runs - 1,
        config.timeout.as_secs()
    );
}

/// A Figure 12 row: Lusail's own profile of [`sample`]d runs.
pub struct ProfileRow {
    /// The runs' totals; requests and bytes of the last run.
    pub record: Record,
    /// The phases `lusail query --explain` prints, in milliseconds: the
    /// analysis probe (sources + counts), query analysis (checks + plan)
    /// and execution.
    pub probe: Summary,
    pub analysis: Summary,
    pub execution: Summary,
    pub subqueries: usize,
    /// Check queries the last run sent.
    pub check_queries: usize,
}

impl ProfileRow {
    /// Summarise `profiles`; the traffic is what `federation`'s counters
    /// hold, reset before each run by the caller.
    pub fn of(
        system: &str,
        query: &str,
        profiles: &[ExecutionProfile],
        federation: &Federation,
    ) -> Self {
        let ms = |of: fn(&ExecutionProfile) -> Duration| {
            let mut ms: Vec<f64> = profiles
                .iter()
                .map(|p| of(p).as_secs_f64() * 1000.0)
                .collect();
            Summary::of(&mut ms)
        };
        let last = profiles.last().expect("a sampled profile");
        let traffic = federation.total_traffic();
        ProfileRow {
            record: Record {
                requests: traffic.requests,
                wire_bytes: traffic.bytes_received,
                ..Record::new(system, query, last.result_rows as u64, ms(|p| p.total))
            },
            probe: ms(|p| p.source_selection),
            analysis: ms(|p| p.analysis),
            execution: ms(|p| p.execution),
            subqueries: last.subqueries,
            check_queries: last.check_queries,
        }
    }

    /// The record's keys, then `<phase>_ms` / `<phase>_p95_ms` per phase,
    /// `subqueries` and `check_queries`.
    pub fn to_json(&self) -> Json {
        let phases = [
            ("probe", self.probe),
            ("analysis", self.analysis),
            ("execution", self.execution),
        ];
        let mut row = self.record.to_json();
        for (phase, ms) in phases {
            row = row
                .with(&format!("{phase}_ms"), round_ms(ms.median))
                .with(&format!("{phase}_p95_ms"), round_ms(ms.p95));
        }
        row.with("subqueries", self.subqueries)
            .with("check_queries", self.check_queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_federation::NetworkProfile;
    use lusail_workloads::{federation_from_graphs, lubm};

    fn lubm2() -> Federation {
        let graphs = lubm::generate_all(&lubm::LubmConfig::with_universities(2));
        federation_from_graphs(graphs, NetworkProfile::instant())
    }

    fn config(runs: usize, timeout: Duration) -> HarnessConfig {
        HarnessConfig { timeout, runs }
    }

    /// `runs − 1` samples, ordered percentiles, and the exact request count
    /// of LUBM Q3 on two universities — the same on every sample.
    #[test]
    fn measure_runs_protocol() {
        let cfg = config(6, Duration::from_secs(30));
        let under_test = System::Lusail.over(lubm2(), cfg.timeout);
        let q3 = query_named(lubm::queries(), "Q3");
        let record = measure(&under_test, &q3, &cfg);
        assert_eq!((record.status, record.samples), (Status::Ok, 5));
        assert!(record.rows > 0);
        assert!(record.elapsed_ms <= record.p95_ms);
        assert_eq!(record.requests, 2, "one subquery per university, warm");

        let parsed = q3.parse();
        let per_run = sample(cfg.runs, || {
            under_test.federation.reset_traffic();
            under_test.engine.execute(&parsed)?;
            Ok::<_, EngineError>(under_test.federation.total_traffic().requests)
        })
        .unwrap();
        assert_eq!(per_run.outputs, [2; 5]);
        assert_eq!(per_run.ms.samples, 5);
    }

    #[test]
    fn all_systems_build() {
        for system in System::ALL {
            let under_test = system.over(lubm2(), Duration::from_secs(5));
            assert_eq!(under_test.engine.name(), system.label());
            assert_eq!(under_test.label, system.label());
        }
    }

    #[test]
    #[should_panic(expected = "runs = 1")]
    fn a_config_with_no_timed_run_fails_loudly() {
        let _ = sample(1, || Ok::<_, ()>(()));
    }

    /// C5 on a baseline and any query under a 0 s limit end `NS` / `TO`:
    /// the status is in the JSON and no percentile is.
    #[test]
    fn failed_cells_carry_their_status_and_no_percentile() {
        let graphs = largerdf_graphs(1.0);
        let fed = || federation_from_graphs(graphs.clone(), NetworkProfile::instant());
        let c5 = query_named(largerdf::all_queries(), "C5");
        let cells = [
            (System::FedX, Duration::from_secs(30), "NS"),
            (System::Lusail, Duration::ZERO, "TO"),
        ];
        for (system, timeout, status) in cells {
            let cfg = config(3, timeout);
            let record = measure(&system.over(fed(), timeout), &c5, &cfg);
            assert_eq!(record.cell(), status);
            assert_eq!(record.samples, 0);
            let row = Json::parse(&record.to_json().to_string()).unwrap();
            assert_eq!(row.get("status").and_then(Json::as_str), Some(status));
            assert_eq!(row.get("elapsed_ms"), Some(&Json::Null));
            assert_eq!(row.get("p95_ms"), Some(&Json::Null));
        }
    }

    /// Every record of a two-university grid survives the writer and
    /// `Json::parse` with the documented keys — under a label the old
    /// `format!` writer turned into invalid JSON.
    #[test]
    fn grid_records_round_trip_through_the_one_writer() {
        let label = "2ep \"quoted\" back\\slash\nnewline";
        let records: Vec<Record> = run_grid(
            "test grid",
            &lubm2,
            &System::ALL,
            &lubm::queries(),
            &config(3, Duration::from_secs(30)),
        )
        .into_iter()
        .map(|r| r.in_group(label))
        .collect();
        assert_eq!(records.len(), 16);

        let rows: Vec<Json> = records.iter().map(Record::to_json).collect();
        let parsed = Json::parse(&bench_json(&rows)).expect("valid JSON");
        let parsed = parsed.as_array().unwrap();
        assert_eq!(parsed.len(), records.len());
        for (row, record) in parsed.iter().zip(&records) {
            let keys: Vec<&str> = row.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "codec",
                    "query",
                    "status",
                    "rows",
                    "requests",
                    "wire_bytes",
                    "elapsed_ms",
                    "p95_ms",
                    "samples"
                ]
            );
            assert_eq!(
                row.get("query").and_then(Json::as_str),
                Some(&*record.query)
            );
            assert_eq!(
                row.get("codec").and_then(Json::as_str),
                Some(&*record.system)
            );
            assert_eq!(row.get("status").and_then(Json::as_str), Some("ok"));
            assert_eq!(row.get("samples"), Some(&Json::Number(2.0)));
            assert_eq!(row.get("requests"), Some(&record.requests.into()));
            assert!(record.requests > 0 && record.query.starts_with(label));
        }
    }
}
