//! Estimate accuracy on LargeRDFBench, before and after execution.
//!
//! 1. The §4.1 cardinality-estimation experiment: estimated vs actual
//!    cardinalities of multi-pattern subqueries, summarized by the q-error
//!    metric (`max(e/a, a/e)`). Expected shape (paper): the min/sum/max
//!    model is accurate — the paper reports a median q-error of 1.09
//!    (optimal is 1).
//! 2. The global join's planner on all 32 queries: per join node the
//!    q-error of its estimate (`|A|·|B| / max d(v)` over exact distinct
//!    counts) next to the q-error the paper's min rule has on the same two
//!    operands, and what planning costs against the joins it plans.
//!
//! Writes `BENCH_qerror.json`: per query a `join-plan-ms` and a
//! `join-exec-ms` row (median and p95 over the runs; `rows` is the number
//! of join nodes) and, where the global join has nodes, a `qerror-distinct`
//! and a `qerror-min-rule` row whose samples are the per-node q-errors
//! (`elapsed_ms` holds their median, `p95_ms` their nearest-rank p95).
//! The rows whose query is `all` summarise the file: the q-errors of every
//! multi-pattern subquery (`qerror-subquery`, the paper's §4.1 claim) and
//! of every join node, and the sums of the per-query planning and join
//! medians (their `p95_ms` the sum of the p95s — an upper bound).

use lusail_bench::{bench_scale, largerdf_graphs, sample, write_records, Record, Summary};
use lusail_core::sape::q_error;
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::NetworkProfile;
use lusail_workloads::{federation_from_graphs, largerdf};

/// One warm-up run per query, then the samples.
const RUNS: usize = 10;

fn main() {
    let graphs = largerdf_graphs(bench_scale());
    let engine = LusailEngine::new(
        federation_from_graphs(graphs, NetworkProfile::instant()),
        LusailConfig::default(),
    );

    let mut qerrors: Vec<(String, usize, usize, f64)> = Vec::new();
    let mut records: Vec<Record> = Vec::new();
    let mut steps_table: Vec<String> = Vec::new();
    let (mut all_new, mut all_min): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    // Sums of the per-query medians and p95s.
    let (mut plan_total, mut join_total) = ([0.0; 2], [0.0; 2]);

    for q in largerdf::all_queries() {
        let parsed = q.parse();
        let Ok(sampled) = sample(RUNS, || {
            engine.execute_profiled(&parsed).map(|(_, profile)| profile)
        }) else {
            continue;
        };
        let ms_of = |of: fn(&lusail_core::ExecutionProfile) -> std::time::Duration| {
            sampled
                .outputs
                .iter()
                .map(|p| of(p).as_secs_f64() * 1e3)
                .collect::<Vec<f64>>()
        };
        let (mut plan_ms, mut join_ms) = (ms_of(|p| p.join_planning), ms_of(|p| p.join_time));
        let profile = sampled.outputs.into_iter().last().expect("a timed run");
        for (sq, est, actual) in profile.estimates {
            qerrors.push((
                format!("{}#sq{sq}", q.name),
                est,
                actual,
                q_error(est, actual),
            ));
        }

        // Per join node: the planner's estimate, and the min rule's on the
        // same operands (their product where the node is a product).
        let (mut new, mut min_rule) = (Vec::new(), Vec::new());
        for (&(est, actual), &(l, r)) in profile.join_steps.iter().zip(&profile.join_inputs) {
            let product = est == l * r && actual == l * r;
            let by_min = if product { l * r } else { l.min(r) };
            new.push(q_error(est, actual));
            min_rule.push(q_error(by_min, actual));
            steps_table.push(format!(
                "{:<6}{l:>8}{r:>8}{actual:>9}{est:>11}{:>9.3}{by_min:>10}{:>9.3}",
                q.name,
                q_error(est, actual),
                q_error(by_min, actual)
            ));
        }
        let nodes = profile.join_steps.len() as u64;
        let name = q.name.to_string();
        for (codec, samples, total) in [
            ("join-plan-ms", &mut plan_ms, &mut plan_total),
            ("join-exec-ms", &mut join_ms, &mut join_total),
        ] {
            let record = Record::new(codec, name.as_str(), nodes, Summary::of(samples));
            total[0] += record.elapsed_ms;
            total[1] += record.p95_ms;
            records.push(record);
        }
        for (codec, errors, all) in [
            ("qerror-distinct", &mut new, &mut all_new),
            ("qerror-min-rule", &mut min_rule, &mut all_min),
        ] {
            errors.retain(|e| e.is_finite());
            all.extend(errors.iter());
            if !errors.is_empty() {
                records.push(Record::new(
                    codec,
                    name.as_str(),
                    nodes,
                    Summary::of(errors),
                ));
            }
        }
    }

    println!("Cardinality estimation accuracy (multi-pattern subqueries)");
    println!(
        "{:<14}{:>12}{:>12}{:>10}",
        "subquery", "estimated", "actual", "q-error"
    );
    for (name, est, actual, qe) in &qerrors {
        println!("{name:<14}{est:>12}{actual:>12}{qe:>10.3}");
    }

    // Over all queries: the `all` rows of the file.
    let mut all = |codec: &str, label: &str, errors: &mut [f64]| {
        if errors.is_empty() {
            return println!("\n{label}: none");
        }
        let summary = Summary::of(errors);
        println!(
            "\n{label}: {}   q-error: median {:.3}  p95 {:.3}  max {:.3}",
            summary.samples,
            summary.median,
            summary.p95,
            errors[errors.len() - 1]
        );
        records.push(Record::new(codec, "all", summary.samples, summary));
    };
    let mut finite: Vec<f64> = qerrors
        .iter()
        .map(|(_, _, _, q)| *q)
        .filter(|q| q.is_finite())
        .collect();
    all(
        "qerror-subquery",
        "multi-pattern subqueries (paper: median 1.09)",
        &mut finite,
    );

    println!("\nGlobal join: estimate per join node, planner vs the min rule on the same operands");
    println!(
        "{:<6}{:>8}{:>8}{:>9}{:>11}{:>9}{:>10}{:>9}",
        "query", "left", "right", "actual", "planner", "q-error", "min rule", "q-error"
    );
    for line in &steps_table {
        println!("{line}");
    }
    all("qerror-distinct", "join nodes, planner", &mut all_new);
    all("qerror-min-rule", "join nodes, min rule", &mut all_min);

    println!("\nPlanning cost (median of {} runs per query)", RUNS - 1);
    println!(
        "{:<6}{:>8}{:>14}{:>12}",
        "query", "nodes", "planning µs", "join µs"
    );
    for pair in records
        .iter()
        .filter(|r| r.system.starts_with("join-"))
        .collect::<Vec<_>>()
        .chunks(2)
    {
        println!(
            "{:<6}{:>8}{:>14.1}{:>12.1}",
            pair[0].query,
            pair[0].rows,
            pair[0].elapsed_ms * 1e3,
            pair[1].elapsed_ms * 1e3
        );
    }
    println!(
        "\nplanning {:.3} ms of {:.3} ms joined over all queries: {:.1} %",
        plan_total[0],
        join_total[0],
        100.0 * plan_total[0] / join_total[0].max(f64::MIN_POSITIVE)
    );
    for (codec, [median, p95]) in [("join-plan-ms", plan_total), ("join-exec-ms", join_total)] {
        let samples = (RUNS - 1) as u64;
        let sums = Summary {
            median,
            p95,
            samples,
        };
        records.push(Record::new(codec, "all", all_new.len() as u64, sums));
    }

    write_records("qerror", &records);
}
