//! Integrity cross-probes per wave: wall time of one bound-join step
//! (`SapeExecutor::execute` over a two-subquery plan) whose N `VALUES`-block
//! responses are all flagged by the learned-cap heuristic, against the same
//! step with nothing flagged and against N × the directly measured latency
//! of one `COUNT(*)` cross-probe — what a serial probe chain behind the
//! wave adds.
//!
//! The flagged step should cost the trusted step plus about one probe round
//! trip, whatever N is. The JSON rows carry the probes sent in `rows` and the
//! variant in `codec`.
//!
//! `cargo run -p lusail-bench --bin integrity_wave --release --offline`

use lusail_bench::{sample, write_records, Record, Summary};
use lusail_core::run::RunContext;
use lusail_core::sape::{recover, SapeExecutor, Schedule};
use lusail_core::{EngineError, IntegrityConfig, IntegrityRegistry, LusailConfig, Subquery};
use lusail_federation::{
    Deadline, Federation, NetworkProfile, RequestHandler, SimulatedEndpoint, SparqlEndpoint,
};
use lusail_rdf::{Graph, Term};
use lusail_sparql::ast::{TermPattern, TriplePattern, Variable};
use lusail_store::Store;
use std::sync::Arc;
use std::time::Duration;

/// One warm-up step (the thread stacks), then the samples.
const RUNS: usize = 26;
const ENDPOINTS: usize = 13;
/// Bindings per `VALUES` block; a block response has twice as many rows
/// (one row per binding would be explained by the request, never flagged).
const BLOCK: usize = 97;

fn subquery(id: usize, predicate: &str, object: &str, sources: Vec<usize>) -> Subquery {
    Subquery {
        id,
        patterns: vec![TriplePattern::new(
            TermPattern::var("d"),
            TermPattern::iri(predicate),
            TermPattern::var(object),
        )],
        filters: vec![],
        sources,
        projection: vec![Variable::new("d"), Variable::new(object)],
    }
}

fn main() {
    // Every endpoint holds two weights per subject, so a block of BLOCK
    // subjects answers with exactly 2 × BLOCK rows everywhere; the last
    // endpoint, never a source of the bound subquery, also holds the
    // `linked` triples the bindings come from.
    let network = NetworkProfile {
        latency: Duration::from_millis(4),
        bytes_per_sec: u64::MAX,
    };
    let federation_of = |subjects: usize| {
        let endpoints = (0..ENDPOINTS)
            .map(|e| {
                let mut g = Graph::new();
                for i in 0..subjects {
                    let d = Term::iri(format!("http://x/d{i:04}"));
                    for w in [1, 2] {
                        g.add(d.clone(), Term::iri("http://x/weight"), Term::integer(w));
                    }
                    if e == ENDPOINTS - 1 {
                        g.add(d, Term::iri("http://x/linked"), Term::integer(0));
                    }
                }
                Arc::new(SimulatedEndpoint::new(
                    format!("ep{e}"),
                    Store::from_graph(&g),
                    network,
                )) as Arc<dyn SparqlEndpoint>
            })
            .collect();
        Federation::new(endpoints)
    };
    let config = LusailConfig {
        bound_block_size: BLOCK,
        ..LusailConfig::without_cache()
    };
    let schedule = Schedule {
        non_delayed: vec![0],
        delayed: vec![1],
    };

    println!(
        "=== one bound-join step, N flagged block responses, {ENDPOINTS} endpoints at 4 ms, \
         {} samples per row ({} logical CPUs) ===",
        RUNS - 1,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:<8}{:>16}{:>12}{:>10}{:>10}",
        "wave", "variant", "median(ms)", "p95(ms)", "probes"
    );
    let mut records = Vec::new();
    // N responses = blocks × sources.
    for (blocks, sources) in [(1usize, 1usize), (1, 8), (2, 12)] {
        let n = blocks * sources;
        let federation = federation_of(blocks * BLOCK);
        let handler = RequestHandler::elastic(ENDPOINTS);
        let subqueries = [
            subquery(0, "http://x/linked", "l", vec![ENDPOINTS - 1]),
            subquery(1, "http://x/weight", "w", (0..sources).collect()),
        ];
        // One step on a ledger of its own; the probes it sent.
        let step = |flagged: bool| {
            let integrity = IntegrityRegistry::new(IntegrityConfig::default());
            if flagged {
                // The ledger has seen 2 × BLOCK rows three times from
                // every source: that is now each one's learned cap.
                for e in 0..sources {
                    for _ in 0..3 {
                        integrity.observe_rows(federation.endpoint(e).name(), 2 * BLOCK, None);
                    }
                }
            }
            let ctx = RunContext::unbounded();
            let executor = SapeExecutor {
                federation: &federation,
                handler: &handler,
                config: &config,
                ctx: &ctx,
                integrity: &integrity,
            };
            let outcome = executor.execute(&subqueries, &schedule, &[1, 1000], &[], &[])?;
            assert_eq!(outcome.relation.len(), 2 * n * BLOCK);
            let probes: u64 = integrity
                .snapshot()
                .iter()
                .map(|(_, s)| s.verifications)
                .sum();
            // Otherwise the two variants would time the same step.
            assert_eq!(probes, if flagged { n as u64 } else { 0 });
            Ok::<_, EngineError>(probes)
        };
        let probe = recover::count_star(&subqueries[1].to_query());
        let one_probe = || {
            federation
                .endpoint(0)
                .count_within(&probe, Deadline::none())
        };

        let mut row = |variant: &str, probes: u64, ms: Summary| {
            let record = Record::new(variant, format!("n{n}"), probes, ms);
            println!(
                "{:<8}{:>16}{:>12.3}{:>10.3}{:>10}",
                record.query, record.system, record.elapsed_ms, record.p95_ms, record.rows
            );
            records.push(record);
        };
        for (variant, flagged) in [("trusted", false), ("flagged", true)] {
            let sampled = sample(RUNS, || step(flagged)).expect("honest endpoints");
            row(variant, sampled.outputs[0], sampled.ms);
        }
        let sampled = sample(RUNS, one_probe).expect("honest endpoint");
        row("n-x-one-probe", n as u64, sampled.ms.times(n as f64));
    }
    write_records("integrity_wave", &records);
}
