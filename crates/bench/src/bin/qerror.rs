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

use lusail_bench::{bench_scale, write_bench_json, BenchRecord};
use lusail_core::sape::q_error;
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::NetworkProfile;
use lusail_workloads::{federation_from_graphs, largerdf};

/// Timed runs per query, after one warm-up run.
const RUNS: usize = 9;

fn main() {
    let cfg = largerdf::LargeRdfConfig {
        scale: bench_scale(),
        ..Default::default()
    };
    let graphs = largerdf::generate_all(&cfg);
    let engine = LusailEngine::new(
        federation_from_graphs(graphs, NetworkProfile::instant()),
        LusailConfig::default(),
    );

    let mut qerrors: Vec<(String, usize, usize, f64)> = Vec::new();
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut steps_table: Vec<String> = Vec::new();
    let (mut all_new, mut all_min): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let (mut plan_total, mut join_total) = (0.0, 0.0);

    for q in largerdf::all_queries() {
        let parsed = q.parse();
        let (mut plan_ms, mut join_ms) = (Vec::new(), Vec::new());
        let mut last = None;
        for run in 0..=RUNS {
            let Ok((_, profile)) = engine.execute_profiled(&parsed) else {
                break;
            };
            if run > 0 {
                plan_ms.push(profile.join_planning.as_secs_f64() * 1e3);
                join_ms.push(profile.join_time.as_secs_f64() * 1e3);
            }
            last = Some(profile);
        }
        let Some(profile) = last.filter(|_| !plan_ms.is_empty()) else {
            continue;
        };
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
            let record = BenchRecord::from_samples(name.clone(), codec.into(), nodes, samples);
            *total += record.elapsed_ms;
            records.push(record);
        }
        for (codec, errors, all) in [
            ("qerror-distinct", &mut new, &mut all_new),
            ("qerror-min-rule", &mut min_rule, &mut all_min),
        ] {
            errors.retain(|e| e.is_finite());
            all.extend(errors.iter());
            if !errors.is_empty() {
                records.push(BenchRecord::from_samples(
                    name.clone(),
                    codec.into(),
                    nodes,
                    errors,
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

    let mut finite: Vec<f64> = qerrors
        .iter()
        .map(|(_, _, _, q)| *q)
        .filter(|q| q.is_finite())
        .collect();
    finite.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if finite.is_empty() {
        println!("\nno multi-pattern subqueries produced estimates");
    } else {
        let median = finite[finite.len() / 2];
        let p90 = finite[(finite.len() * 9 / 10).min(finite.len() - 1)];
        println!(
            "\nsubqueries: {}   median q-error: {:.3}   p90: {:.3}   (paper: median 1.09)",
            finite.len(),
            median,
            p90
        );
    }

    println!("\nGlobal join: estimate per join node, planner vs the min rule on the same operands");
    println!(
        "{:<6}{:>8}{:>8}{:>9}{:>11}{:>9}{:>10}{:>9}",
        "query", "left", "right", "actual", "planner", "q-error", "min rule", "q-error"
    );
    for line in &steps_table {
        println!("{line}");
    }
    let summary = |errors: &mut Vec<f64>| {
        errors.sort_by(f64::total_cmp);
        let at = |p: f64| errors[((errors.len() as f64 * p).ceil() as usize).max(1) - 1];
        (at(0.5), at(0.9), errors.last().copied().unwrap_or(1.0))
    };
    if !all_new.is_empty() {
        let (p50, p90, max) = summary(&mut all_new);
        println!(
            "\njoin nodes: {}   planner q-error: median {p50:.3}  p90 {p90:.3}  max {max:.3}",
            all_new.len()
        );
        let (p50, p90, max) = summary(&mut all_min);
        println!("               min rule q-error: median {p50:.3}  p90 {p90:.3}  max {max:.3}");
    }

    println!("\nPlanning cost (median of {RUNS} runs per query)");
    println!(
        "{:<6}{:>8}{:>14}{:>12}",
        "query", "nodes", "planning µs", "join µs"
    );
    for pair in records
        .iter()
        .filter(|r| r.codec.starts_with("join-"))
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
        plan_total,
        join_total,
        100.0 * plan_total / join_total.max(f64::MIN_POSITIVE)
    );

    match write_bench_json("qerror", &records) {
        Ok(path) => println!("wrote {path} ({} records)", records.len()),
        Err(e) => eprintln!("failed to write BENCH_qerror.json: {e}"),
    }
}
