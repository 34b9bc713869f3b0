//! From measurements to named metrics: the end-to-end list of an untraced
//! run and the per-layer list of a traced one. Layer names are module
//! names of the product crates.

use crate::probes;
use crate::procfs;
use crate::report::Metric;
use crate::run::{Measured, Sample};
use crate::stage::{Driver, Plan, Stage};
use crate::stats::{mean, median, percentile, ratio, samples_beyond, sorted};
use crate::trace::{assign_groups, group_coverage, Kind, Span, TraceSink};
use lusail_core::sape::estimate::q_error;
use std::collections::HashMap;
use std::io::Write;

/// The floor latency of every sample: the lowest latency of its slot over
/// the timed passes. A wait that hits a slot in some passes and not in
/// others (today: 100 ms stalls on a host-dependent 5–70 % of loopback HTTP
/// requests) leaves it unmoved; anything a query pays in every pass moves
/// it. A sample that is its own slot keeps its own latency.
fn floor_ms(samples: &[Sample]) -> Vec<f64> {
    let mut floor: HashMap<u64, f64> = HashMap::new();
    for s in samples {
        let f = floor.entry(s.slot).or_insert(f64::INFINITY);
        *f = f.min(s.ms());
    }
    samples.iter().map(|s| floor[&s.slot]).collect()
}

/// The metrics a user of the system sees, from an untraced run. Latency
/// and throughput are taken over floor latencies (see [`floor_ms`]); the
/// raw figures are per-layer (`client.raw_*`).
pub fn end_to_end(measured: &Measured, clients: usize, setup_s: f64) -> Vec<Metric> {
    let all = measured.all();
    let floors = sorted(floor_ms(&measured.samples));
    if samples_beyond(floors.len(), 95.0) < 10 {
        eprintln!(
            "note: only {} of {} samples lie beyond query_ms_p95",
            samples_beyond(floors.len(), 95.0),
            floors.len()
        );
    }
    let queries = all.queries as f64;
    let correct = (measured.samples.len() - measured.failed) as f64;
    let busy_s = floors.iter().sum::<f64>() / 1000.0 / clients as f64;
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("queries_per_s", ratio(correct, busy_s), "1/s"),
        Metric::new("query_ms_p50", percentile(&floors, 50.0), "ms"),
        Metric::new("query_ms_p95", percentile(&floors, 95.0), "ms"),
        Metric::new(
            "requests_per_query",
            ratio(all.requests as f64, queries),
            "count",
        ),
        Metric::new(
            "wire_kb_per_query",
            ratio(all.bytes_received as f64 / 1024.0, queries),
            "kB",
        ),
        Metric::new("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
    ]
}

/// Share of samples at least 90 ms above the median of their own query:
/// the signature of a wait quantized to 100 ms.
fn stall_share(samples: &[Sample]) -> f64 {
    let mut by_query: HashMap<usize, Vec<f64>> = HashMap::new();
    for s in samples {
        by_query.entry(s.query).or_default().push(s.ms());
    }
    let stalled: usize = by_query
        .into_values()
        .map(|ms| {
            let ms = sorted(ms);
            let typical = percentile(&ms, 50.0);
            ms.iter().filter(|&&m| m >= typical + 90.0).count()
        })
        .sum();
    ratio(stalled as f64, samples.len() as f64)
}

/// The per-layer metrics of a traced run. Also writes the span file.
pub fn per_layer(plan: &Plan, stage: &Stage, sink: &TraceSink, measured: &Measured) -> Vec<Metric> {
    let spans = sink.take_spans();
    let captured = sink.take_captured();
    write_trace_file(plan.name, &spans, &measured.samples);

    let [untraced, traced] = measured.sides;
    let all = measured.all();
    let traced_samples: Vec<&Sample> = measured.samples.iter().filter(|s| s.traced).collect();
    let traced_queries = traced_samples.len() as f64;

    // Which spans belong to which client query.
    let coverage = group_coverage(&spans);
    let owner: HashMap<u64, u64> = match plan.driver {
        Driver::Engine { .. } => coverage.keys().map(|g| (*g, *g)).collect(),
        Driver::Service { .. } => assign_groups(
            &traced_samples
                .iter()
                .map(|s| (s.id, s.start_us, s.end_us))
                .collect::<Vec<_>>(),
            &coverage
                .iter()
                .map(|(g, c)| (*g, c.first_start_us, c.last_end_us))
                .collect::<Vec<_>>(),
        ),
    };
    let covered_by_query: HashMap<u64, u64> = owner
        .iter()
        .map(|(group, query)| (*query, coverage[group].covered_us))
        .collect();

    // Service state first: the front-door probe below empties the cache.
    let service = stage.front.as_ref().map(|f| {
        (
            f.service.results().stats(),
            f.service.pool().stats(),
            f.server.stats(),
        )
    });
    let front_door = probes::front_door(plan, stage);
    let floors = probes::floors(stage);
    let codecs = probes::codecs(&captured);
    let (join_mrows_s, spill_mrows_s) = probes::joins(&captured);
    let (parse_us, serialize_us) = probes::sparql_text(&captured);
    let replay = probes::store_replay(stage, &captured);

    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };

    // ---- client ------------------------------------------------------
    let ms = sorted(measured.samples.iter().map(Sample::ms).collect());
    put("client.raw_queries_per_s", all.queries_per_s(), "1/s");
    put("client.raw_query_ms_p95", percentile(&ms, 95.0), "ms");
    put("client.query_ms_p99", percentile(&ms, 99.0), "ms");
    put(
        "client.query_ms_max",
        ms.last().copied().unwrap_or(0.0),
        "ms",
    );
    put(
        "client.stall_share",
        stall_share(&measured.samples),
        "share",
    );
    put(
        "client.cpu_ms_per_query",
        ratio(all.cpu_ms, all.queries as f64),
        "ms",
    );
    let (hit_ms, miss_ms): (Vec<f64>, Vec<f64>) = match plan.driver {
        // Behind the service a traced query that sent no request was a
        // result-cache hit.
        Driver::Service { .. } => {
            let (miss, hit): (Vec<&Sample>, Vec<&Sample>) = traced_samples
                .iter()
                .partition(|s| covered_by_query.contains_key(&s.id));
            (
                hit.iter().map(|s| s.ms()).collect(),
                miss.iter().map(|s| s.ms()).collect(),
            )
        }
        Driver::Engine { .. } => (front_door.hit_ms.clone(), front_door.miss_ms.clone()),
    };
    put("client.hit_ms_p50", median(hit_ms), "ms");
    put("client.miss_ms_p50", median(miss_ms), "ms");
    put(
        "client.trace_overhead_share",
        1.0 - ratio(traced.queries_per_s(), untraced.queries_per_s()),
        "share",
    );
    put(
        "client.failed_share",
        ratio(measured.failed as f64, measured.samples.len() as f64),
        "share",
    );

    // ---- sparql ------------------------------------------------------
    put("sparql.parse_us", median(parse_us), "us");
    put("sparql.serialize_us", median(serialize_us), "us");

    // ---- core --------------------------------------------------------
    // The engine's own phase clocks: of the timed queries in process, of
    // the probe's in-process executions behind the service.
    let profiles = match plan.driver {
        Driver::Engine { .. } => &measured.profiles,
        Driver::Service { .. } => &front_door.profiles,
    };
    let phase_ms = |f: fn(&lusail_core::ExecutionProfile) -> std::time::Duration| {
        median(
            profiles
                .iter()
                .map(|p| f(p).as_secs_f64() * 1000.0)
                .collect(),
        )
    };
    put("core.source.ms_p50", phase_ms(|p| p.source_selection), "ms");
    put("core.lade.ms_p50", phase_ms(|p| p.analysis), "ms");
    put("core.sape.ms_p50", phase_ms(|p| p.execution), "ms");
    let self_ms: Vec<f64> = traced_samples
        .iter()
        .filter_map(|s| {
            let covered = covered_by_query.get(&s.id)?;
            Some((s.end_us - s.start_us).saturating_sub(*covered) as f64 / 1000.0)
        })
        .collect();
    put("core.engine.self_ms_p50", median(self_ms), "ms");
    let per_profile = |f: fn(&lusail_core::ExecutionProfile) -> usize| {
        mean(&profiles.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    put(
        "core.lade.check_queries_per_query",
        per_profile(|p| p.check_queries),
        "count",
    );
    put(
        "core.lade.subqueries_per_query",
        per_profile(|p| p.subqueries),
        "count",
    );
    put(
        "core.sape.delayed_per_query",
        per_profile(|p| p.delayed),
        "count",
    );
    let qerrors: Vec<f64> = profiles
        .iter()
        .flat_map(|p| p.estimates.iter().map(|(_, est, act)| q_error(*est, *act)))
        .filter(|q| q.is_finite())
        .collect();
    put("core.sape.qerror_p50", median(qerrors), "ratio");
    put("core.sape.join.mrows_per_s", join_mrows_s, "Mrows/s");
    put("core.sape.join.spill_mrows_per_s", spill_mrows_s, "Mrows/s");
    put(
        "core.cache.hit_share",
        ratio(
            measured.cache_hits as f64,
            (measured.cache_hits + measured.cache_misses) as f64,
        ),
        "share",
    );
    let peak_kb = sorted(
        profiles
            .iter()
            .map(|p| p.memory.peak_bytes as f64 / 1024.0)
            .collect(),
    );
    put("core.budget.peak_kb_p95", percentile(&peak_kb, 95.0), "kB");
    put(
        "core.budget.spills",
        profiles.iter().map(|p| p.memory.spill_count).sum::<u64>() as f64,
        "count",
    );

    // ---- federation.requests -------------------------------------------
    for kind in Kind::ALL {
        let of_kind: Vec<&Span> = spans.iter().filter(|s| s.kind == kind).collect();
        put(
            &format!("federation.requests.{}_per_query", kind.label()),
            ratio(of_kind.len() as f64, traced_queries),
            "count",
        );
        put(
            &format!("federation.requests.{}_ms_p50", kind.label()),
            median(of_kind.iter().map(|s| s.ms()).collect()),
            "ms",
        );
    }
    let span_rows: usize = spans.iter().map(|s| s.rows).sum();
    put(
        "federation.requests.rows_per_query",
        ratio(span_rows as f64, traced_queries),
        "count",
    );

    // ---- federation.erh ------------------------------------------------
    let bursts: usize = coverage.values().map(|c| c.bursts).sum();
    let covered_us: u64 = coverage.values().map(|c| c.covered_us).sum();
    let busy_us: u64 = spans.iter().map(|s| s.end_us - s.start_us).sum();
    put(
        "federation.erh.rounds_per_query",
        ratio(bursts as f64, traced_queries),
        "count",
    );
    put(
        "federation.erh.inflight_mean",
        ratio(busy_us as f64, covered_us as f64),
        "count",
    );
    put(
        "federation.erh.failed_requests",
        spans.iter().filter(|s| !s.ok).count() as f64,
        "count",
    );

    // ---- federation.http -------------------------------------------------
    let http_floor = sorted(floors.http_ms);
    put(
        "federation.http.floor_ms_p50",
        percentile(&http_floor, 50.0),
        "ms",
    );
    put(
        "federation.http.floor_ms_p99",
        percentile(&http_floor, 99.0),
        "ms",
    );
    put(
        "federation.http.stall_share",
        ratio(
            spans.iter().filter(|s| s.ms() >= 50.0).count() as f64,
            spans.len() as f64,
        ),
        "share",
    );
    let codec = stage.federation.total_codec().unwrap_or_default();
    put(
        "federation.http.binary_share",
        ratio(
            codec.binary_responses as f64,
            (codec.binary_responses + codec.json_responses) as f64,
        ),
        "share",
    );
    put("federation.http.fallbacks", codec.fallbacks as f64, "count");
    put(
        "federation.http.wire_bytes_per_row",
        ratio(traced.bytes_received as f64, span_rows as f64),
        "B",
    );

    // ---- federation.results_* ------------------------------------------
    put(
        "federation.results_json.encode_mb_s",
        codecs.json_encode_mb_s,
        "MB/s",
    );
    put(
        "federation.results_json.decode_mb_s",
        codecs.json_decode_mb_s,
        "MB/s",
    );
    put(
        "federation.results_bin.encode_mb_s",
        codecs.bin_encode_mb_s,
        "MB/s",
    );
    put(
        "federation.results_bin.decode_mb_s",
        codecs.bin_decode_mb_s,
        "MB/s",
    );
    put(
        "federation.results_bin.bytes_ratio",
        codecs.bytes_ratio,
        "ratio",
    );

    // ---- store ---------------------------------------------------------
    let eval_ms = sorted(replay.eval_ms);
    put("store.eval_ms_p50", percentile(&eval_ms, 50.0), "ms");
    put("store.eval_ms_p95", percentile(&eval_ms, 95.0), "ms");
    put("store.rows_per_ms", replay.rows_per_ms, "1/ms");
    put("store.load_s", stage.load_s, "s");

    // ---- server --------------------------------------------------------
    put("server.floor_ms_p50", median(floors.server_ms), "ms");
    let (mut served, mut shed, mut errors) = stage.backend_counts();
    if let Some((_, _, front)) = &service {
        served += front.served;
        shed += front.shed;
        errors += front.errors;
    }
    put("server.requests_served", served as f64, "count");
    put("server.shed", shed as f64, "count");
    put("server.errors", errors as f64, "count");

    // ---- server.federate -------------------------------------------------
    let (results, pool) = service.map(|(r, p, _)| (r, p)).unwrap_or_default();
    put(
        "server.federate.result_cache_hit_share",
        ratio(results.hits as f64, (results.hits + results.misses) as f64),
        "share",
    );
    put(
        "server.federate.result_cache_evictions",
        results.evictions as f64,
        "count",
    );
    put(
        "server.federate.overhead_ms_p50",
        median(front_door.overhead_ms),
        "ms",
    );
    put(
        "server.federate.pool_peak_ledgers",
        pool.peak_ledgers as f64,
        "count",
    );
    put(
        "server.federate.shed_503",
        measured.shed_503 as f64,
        "count",
    );
    put(
        "server.federate.rejected_429",
        measured.rejected_429 as f64,
        "count",
    );

    // ---- workloads -------------------------------------------------------
    put("workloads.generate_s", stage.generate_s, "s");
    put("workloads.triples", stage.triples() as f64, "count");

    eprintln!(
        "# trace: {} spans, {} traced queries; request time {:.1} ms, covered {:.1} ms of \
         {:.1} ms traced wall",
        spans.len(),
        traced_samples.len(),
        busy_us as f64 / 1000.0,
        covered_us as f64 / 1000.0,
        traced.wall_s * 1000.0
    );
    out
}

/// `<build dir>/lusail_benchmark/<workload>.trace.json`: every span and
/// every client sample of the run. Failing to write it loses the file,
/// not the run.
fn write_trace_file(workload: &str, spans: &[Span], samples: &[Sample]) {
    let dir = probes::out_dir();
    let path = dir.join(format!("{workload}.trace.json"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{{\"workload\":\"{workload}\",\"spans\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                f,
                "{{\"group\":{},\"endpoint\":{},\"kind\":\"{}\",\"start_us\":{},\"end_us\":{},\
                 \"rows\":{},\"bytes\":{},\"ok\":{}}}{sep}",
                s.group,
                s.endpoint,
                s.kind.label(),
                s.start_us,
                s.end_us,
                s.rows,
                s.bytes,
                s.ok
            )?;
        }
        writeln!(f, "],\"queries\":[")?;
        for (i, s) in samples.iter().enumerate() {
            let sep = if i + 1 == samples.len() { "" } else { "," };
            writeln!(
                f,
                "{{\"id\":{},\"query\":{},\"start_us\":{},\"end_us\":{},\"traced\":{}}}{sep}",
                s.id, s.query, s.start_us, s.end_us, s.traced
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    };
    match write() {
        Ok(()) => eprintln!("# trace file: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(query: usize, ms: u64) -> Sample {
        Sample {
            id: 0,
            query,
            slot: query as u64,
            start_us: 1000,
            end_us: 1000 + ms * 1000,
            traced: false,
        }
    }

    #[test]
    fn stalls_are_judged_against_the_same_query() {
        // Query 0 normally takes 3 ms, query 1 normally 200 ms.
        let samples = [
            sample(0, 3),
            sample(0, 3),
            sample(0, 107),
            sample(0, 4),
            sample(1, 200),
            sample(1, 205),
            sample(1, 199),
            sample(1, 310),
        ];
        assert_eq!(stall_share(&samples), 2.0 / 8.0);
        assert_eq!(stall_share(&[]), 0.0);
        // The floor latency of a slot ignores the stall.
        assert_eq!(floor_ms(&samples)[2], 3.0);
        assert_eq!(floor_ms(&samples)[7], 199.0);
    }
}
