//! What result integrity costs a federation that never lies: every catalog
//! query of a benchmark once per pass, two passes, default `LusailConfig`
//! (responses verified on suspicion only), instant network — requests
//! sent, `COUNT(*)` cross-probes among them (every one a false positive
//! here), the truncations and divergences they found (must be 0) and the
//! "caps" the ledger holds at the end.
//!
//! Read from the engine's public surfaces only (`engine.integrity()`,
//! `Federation::total_traffic()`), so the same file runs against any
//! revision. Writes `BENCH_integrity_census.json`, one row per line.
//!
//! `cargo run -p lusail-bench --bin integrity_census --release --offline`

use lusail_bench::write_bench_json;
use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::json::Json;
use lusail_federation::NetworkProfile;
use lusail_rdf::Graph;
use lusail_workloads::largerdf::{self, LargeRdfConfig};
use lusail_workloads::lubm::{self, LubmConfig};
use lusail_workloads::qfed::{self, QfedConfig};
use lusail_workloads::{federation_from_graphs, BenchQuery};

const PASSES: usize = 2;

/// What one engine sent and what its ledger recorded.
#[derive(Default)]
struct Tally {
    requests: u64,
    verifications: u64,
    truncations: u64,
    divergences: u64,
    /// `(endpoint, cap)` as the engine retired last holds them.
    caps: Vec<(String, usize)>,
}

impl Tally {
    fn retire(&mut self, engine: &LusailEngine) {
        self.requests += engine.federation().total_traffic().requests;
        self.caps.clear();
        for (name, snap) in engine.integrity().snapshot() {
            self.verifications += snap.verifications;
            self.truncations += snap.truncations_detected;
            self.divergences += snap.count_divergences;
            self.caps.extend(snap.learned_cap.map(|cap| (name, cap)));
        }
    }
}

/// Run `queries` [`PASSES`] times over `graphs`, on one engine throughout
/// or on a fresh one per pass.
fn census(
    label: &str,
    fresh: bool,
    graphs: &dyn Fn() -> Vec<(String, Graph)>,
    queries: &[BenchQuery],
) -> Json {
    let build = || {
        LusailEngine::new(
            federation_from_graphs(graphs(), NetworkProfile::instant()),
            LusailConfig::default(),
        )
    };
    let mut tally = Tally::default();
    let mut engine = build();
    for pass in 0..PASSES {
        if fresh && pass > 0 {
            tally.retire(&engine);
            engine = build();
        }
        for q in queries {
            if let Err(e) = engine.execute(&q.parse()) {
                panic!("{label}: {} failed on an honest federation: {e}", q.name);
            }
        }
    }
    tally.retire(&engine);
    assert_eq!(
        (tally.truncations, tally.divergences),
        (0, 0),
        "{label}: an honest federation was caught lying"
    );
    let lifetime = if fresh {
        "fresh per pass"
    } else {
        "one warm engine"
    };
    println!(
        "{label:<28}{lifetime:<18}{:>10}{:>15}   {}",
        tally.requests,
        tally.verifications,
        tally
            .caps
            .iter()
            .map(|(name, cap)| format!("{name} {cap}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Json::object([
        ("federation", label.into()),
        ("engine", lifetime.into()),
        ("passes", PASSES.into()),
        ("queries_per_pass", queries.len().into()),
        ("requests", tally.requests.into()),
        ("verifications", tally.verifications.into()),
        ("truncations_detected", tally.truncations.into()),
        ("count_divergences", tally.divergences.into()),
        (
            "learned_caps",
            Json::object(tally.caps.into_iter().map(|(name, cap)| (name, cap.into()))),
        ),
    ])
}

fn main() {
    let largerdf_at = |scale| {
        move || {
            largerdf::generate_all(&LargeRdfConfig {
                scale,
                ..Default::default()
            })
        }
    };
    let qfed_times = |k: usize| {
        let d = QfedConfig::default();
        move || {
            qfed::generate_all(&QfedConfig {
                drugs: d.drugs * k,
                diseases: d.diseases * k,
                side_effects: d.side_effects * k,
                labels: d.labels * k,
                seed: d.seed,
            })
        }
    };
    let lubm4 = || lubm::generate_all(&LubmConfig::with_universities(4));

    println!(
        "{:<28}{:<18}{:>10}{:>15}   learned caps held at the end",
        "federation", "engine", "requests", "verifications"
    );
    let largerdf_queries = largerdf::all_queries();
    let rows = [
        // `oneshot_wan`'s data and engine lifetime, `oneshot_cpu`'s, the
        // paper's QFed, `http_session`'s (×3, warm), and LUBM.
        census(
            "LargeRDFBench scale 1",
            true,
            &largerdf_at(1.0),
            &largerdf_queries,
        ),
        census(
            "LargeRDFBench scale 4",
            false,
            &largerdf_at(4.0),
            &largerdf_queries,
        ),
        census("QFed default", true, &qfed_times(1), &qfed::queries()),
        census("QFed default", false, &qfed_times(1), &qfed::queries()),
        census("QFed x3", false, &qfed_times(3), &qfed::queries()),
        census("LUBM 4 universities", false, &lubm4, &lubm::queries()),
    ];
    write_bench_json("integrity_census", &rows);
}
