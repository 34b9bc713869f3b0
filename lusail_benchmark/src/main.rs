//! `lusail_benchmark`: the repository's one benchmark. Four workloads
//! over the product crates' public APIs; end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced run. See `README.md`.

mod client;
mod draw;
mod layers;
mod pool;
mod probes;
mod procfs;
mod report;
mod run;
mod stage;
mod stats;
mod trace;
mod truth;

use run::Runner;
use stage::{Plan, Stage, WORKLOADS};
use std::process::ExitCode;
use trace::TraceSink;

/// A run sets its workload up several times and reports the median as
/// `setup_s`: at least `MIN_SETUPS` times, then on until `MAX_SETUPS` or
/// until set-up has used `SETUP_BUDGET_S` seconds.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 20.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One complete run: set up, verify-and-time, (trace) probe, tear down.
pub fn run(args: &Args) -> report::Report {
    let plan = Plan::new(&args.workload, args.seed).expect("workload checked by parse_args");
    let sink = TraceSink::new();
    let wrap = args.trace.then_some(&sink);

    let mut setup_s: Vec<f64> = Vec::new();
    let stage = loop {
        let stage = Stage::set_up(&plan, wrap);
        setup_s.push(stage.setup_s);
        let spent: f64 = setup_s.iter().sum();
        if setup_s.len() >= MAX_SETUPS || (setup_s.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S) {
            break stage;
        }
        stage.tear_down();
    };

    // Ground truth is part of the gate, not of the set-up being measured.
    let merged = truth::merged_store(&stage.graphs);
    let mut runner = Runner::new(&plan, &stage, &merged, sink.clone(), args.seed);
    drop(merged);
    runner.run(args.seconds, args.trace);
    let measured = runner.measured;

    let metrics = if args.trace {
        layers::per_layer(&plan, &stage, &sink, &measured)
    } else {
        layers::end_to_end(&measured, plan.clients(), stats::median(setup_s))
    };
    stage.tear_down();
    report::Report {
        workload: plan.name,
        seed: args.seed,
        clients: plan.clients(),
        traced: args.trace,
        attempted: measured.samples.len(),
        failed: measured.failed,
        timed_s: measured.all().wall_s,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lusail_benchmark: {e}");
            eprintln!(
                "usage: lusail_benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    probes::keep_spills_in_checkout();
    let report = run(&args);
    eprint!("{}", report.table());
    println!("{}", report.json_line());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "77",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 77, 15.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "oneshot_wan", "--trace", "yes"]).is_err());
        assert!(args(&["--workload", "oneshot_wan", "--seconds", "0"]).is_err());
    }

    /// The metric names `BENCHMARK.json` lists under `key`, in order.
    fn declared(key: &str) -> Vec<String> {
        use lusail_federation::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("a name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        names(key)
    }

    /// A short run of `workload`: every answer verified, and exactly the
    /// metrics `BENCHMARK.json` declares for that mode, in its order.
    fn smoke(workload: &str, trace: bool) {
        let report = run(&Args {
            workload: workload.to_string(),
            seed: 5,
            seconds: 0.5,
            trace,
        });
        assert!(report.attempted > 0);
        assert_eq!(report.failed, 0, "{workload}: wrong or failed answers");
        let printed: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            printed,
            declared(if trace { "per_layer" } else { "end_to_end" })
        );
        lusail_federation::json::Json::parse(&report.json_line()).expect("valid JSON line");
    }

    #[test]
    fn smoke_oneshot_wan() {
        smoke("oneshot_wan", true);
    }

    #[test]
    fn smoke_oneshot_cpu() {
        smoke("oneshot_cpu", false);
        smoke("oneshot_cpu", true);
    }

    #[test]
    fn smoke_http_session() {
        smoke("http_session", true);
    }

    #[test]
    fn smoke_serve_mixed() {
        smoke("serve_mixed", true);
    }
}
