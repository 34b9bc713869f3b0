//! Chaos suite: end-to-end federation behaviour under injected endpoint
//! faults. Three simulated endpoints hold disjoint shards of a two-pattern
//! chain; one of them is wrapped in a [`FaultyEndpoint`] so tests can take
//! it down, watch both result policies react, and verify the circuit
//! breaker re-closes once the outage clears.
//!
//! Every fault sequence is drawn from a seeded SplitMix64 stream; set
//! `LUSAIL_CHAOS_SEED` to replay a failing run (the `chaos` group in
//! `scripts/ci.sh` prints the seed it used on failure).

use integration::fastest_of_three;
use lusail_core::{EngineError, LusailConfig, LusailEngine, ResultPolicy};
use lusail_federation::{
    BreakerConfig, BreakerState, Deadline, FaultProfile, FaultyConfig, FaultyEndpoint, Federation,
    NetworkProfile, SimulatedEndpoint, SparqlEndpoint,
};
use lusail_rdf::{Graph, Term};
use lusail_sparql::parse_query;
use lusail_store::Store;
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERY: &str = "SELECT ?s ?d ?w WHERE { ?s <http://x/linked> ?d . ?d <http://x/weight> ?w }";

/// Rows each endpoint contributes to [`QUERY`].
const ROWS_PER_SHARD: usize = 10;

/// The endpoint the chaos tests take down.
const FAULTY_NAME: &str = "ep-2";

fn chaos_seed() -> u64 {
    std::env::var("LUSAIL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// One endpoint's shard: `ROWS_PER_SHARD` link/weight chains over IRIs
/// namespaced by endpoint, so the join is local to each shard and every
/// result row is attributable to exactly one endpoint.
fn shard(idx: usize) -> Graph {
    let mut g = Graph::new();
    for i in 0..ROWS_PER_SHARD {
        let s = Term::iri(format!("http://ep{idx}.example.org/s{i}"));
        let d = Term::iri(format!("http://ep{idx}.example.org/d{i}"));
        g.add(s, Term::iri("http://x/linked"), d.clone());
        g.add(
            d,
            Term::iri("http://x/weight"),
            Term::integer((idx * ROWS_PER_SHARD + i) as i64),
        );
    }
    g
}

struct ChaosRig {
    federation: Federation,
    /// Kept outside the federation so tests can switch faults and read the
    /// breaker mid-run.
    faulty: Arc<FaultyEndpoint>,
}

/// Three endpoints on the given network; `ep-2` is wrapped in a
/// fault injector starting with `profile` active.
fn rig(network: NetworkProfile, profile: FaultProfile, config: FaultyConfig) -> ChaosRig {
    let mut endpoints: Vec<Arc<dyn SparqlEndpoint>> = (0..2)
        .map(|idx| {
            Arc::new(SimulatedEndpoint::new(
                format!("ep-{idx}"),
                Store::from_graph(&shard(idx)),
                network,
            )) as Arc<dyn SparqlEndpoint>
        })
        .collect();
    let inner = Arc::new(SimulatedEndpoint::new(
        FAULTY_NAME,
        Store::from_graph(&shard(2)),
        network,
    )) as Arc<dyn SparqlEndpoint>;
    let faulty = Arc::new(FaultyEndpoint::with_config(
        inner,
        chaos_seed(),
        profile,
        config,
    ));
    endpoints.push(faulty.clone() as Arc<dyn SparqlEndpoint>);
    ChaosRig {
        federation: Federation::new(endpoints),
        faulty,
    }
}

/// Breaker tuned for test pace: opens after two strikes, re-probes fast.
fn snappy_faults() -> FaultyConfig {
    FaultyConfig {
        retries: 1,
        backoff: Duration::from_micros(100),
        failure_latency: Duration::from_micros(200),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
            ..BreakerConfig::default()
        },
    }
}

fn engine(rig: &ChaosRig, policy: ResultPolicy) -> LusailEngine {
    LusailEngine::new(
        rig.federation.clone(),
        LusailConfig {
            result_policy: policy,
            ..LusailConfig::without_cache()
        },
    )
}

#[test]
fn fail_fast_names_dead_endpoint_within_twice_healthy_latency() {
    // The geo-distributed profile gives each round trip a measurable 4 ms
    // cost, so "healthy latency" spans several request waves and the
    // comparison below has structural (not statistical) slack: failing
    // fast on the first wave is necessarily cheaper than finishing all of
    // them. Each side runs three times on fresh rigs, and the fastest runs
    // are compared.
    let network = NetworkProfile::geo_distributed();
    let q = parse_query(QUERY).unwrap();

    let mut healthy_requests = 0;
    let healthy_latency = fastest_of_three(|| {
        let healthy = rig(network, FaultProfile::none(), snappy_faults());
        let started = Instant::now();
        let rel = engine(&healthy, ResultPolicy::FailFast)
            .execute(&q)
            .unwrap();
        let elapsed = started.elapsed();
        assert_eq!(rel.len(), 3 * ROWS_PER_SHARD);
        healthy_requests = healthy.federation.total_traffic().requests;
        elapsed
    });

    let failing_latency = fastest_of_three(|| {
        let broken = rig(network, FaultProfile::hard_down(), snappy_faults());
        let started = Instant::now();
        let err = engine(&broken, ResultPolicy::FailFast)
            .execute(&q)
            .unwrap_err();
        let elapsed = started.elapsed();

        match &err {
            EngineError::Endpoint(e) => {
                assert_eq!(e.endpoint, FAULTY_NAME, "error must name the dead endpoint");
            }
            other => panic!("expected a structured endpoint error, got {other:?}"),
        }
        // The structural reason it is cheaper: it stops before the waves
        // the healthy run goes on to send.
        let requests = broken.federation.total_traffic().requests;
        assert!(
            requests < healthy_requests,
            "fail-fast sent {requests} requests, the healthy run {healthy_requests} (seed {})",
            chaos_seed()
        );
        elapsed
    });
    assert!(
        failing_latency < healthy_latency * 2,
        "fastest fail-fast run took {failing_latency:?}, over 2x the fastest healthy \
         {healthy_latency:?} (seed {})",
        chaos_seed()
    );
}

#[test]
fn partial_returns_reachable_subset_with_warnings_naming_dead_endpoint() {
    let rig = rig(
        NetworkProfile::local_cluster(),
        FaultProfile::hard_down(),
        snappy_faults(),
    );
    let q = parse_query(QUERY).unwrap();
    let (rel, profile) = engine(&rig, ResultPolicy::Partial)
        .execute_profiled(&q)
        .unwrap();

    // Exactly the two live shards' rows, nothing fabricated for ep-2.
    assert_eq!(rel.len(), 2 * ROWS_PER_SHARD, "seed {}", chaos_seed());
    let si = rel.index_of(&"s".into()).unwrap();
    for row in rel.rows() {
        let s = format!("{:?}", row[si]);
        assert!(
            !s.contains("ep2.example.org"),
            "row {s} leaked from the dead endpoint"
        );
    }

    // The degradation is explicit: warnings name the endpoint that was
    // skipped, and its breaker is open.
    assert!(
        !profile.warnings.is_empty(),
        "partial results must carry warnings"
    );
    assert!(
        profile.warnings.iter().all(|w| w.endpoint == FAULTY_NAME),
        "every warning should name {FAULTY_NAME}: {:?}",
        profile.warnings
    );
    let health = rig.faulty.health_snapshot();
    assert_eq!(health.breaker, BreakerState::Open);
    assert!(
        health.failures >= 2,
        "the outage should have recorded the strikes that opened the breaker"
    );
}

#[test]
fn breaker_recloses_and_full_results_return_after_faults_clear() {
    let rig = rig(
        NetworkProfile::local_cluster(),
        FaultProfile::hard_down(),
        snappy_faults(),
    );
    let q = parse_query(QUERY).unwrap();

    // Outage: partial mode rides it out, the breaker opens.
    let (rel, _) = engine(&rig, ResultPolicy::Partial)
        .execute_profiled(&q)
        .unwrap();
    assert_eq!(rel.len(), 2 * ROWS_PER_SHARD, "seed {}", chaos_seed());
    assert_eq!(rig.faulty.health_snapshot().breaker, BreakerState::Open);

    // The endpoint comes back; after the cooldown the next request is
    // admitted as the half-open probe and its success closes the breaker.
    rig.faulty.set_faults(FaultProfile::none());
    std::thread::sleep(snappy_faults().breaker.cooldown + Duration::from_millis(10));
    rig.faulty
        .execute_within(&q, Deadline::none())
        .expect("recovered endpoint should serve the half-open probe");
    assert_eq!(rig.faulty.health_snapshot().breaker, BreakerState::Closed);

    // Strict fail-fast now succeeds with all three shards again.
    let rel = engine(&rig, ResultPolicy::FailFast).execute(&q).unwrap();
    assert_eq!(rel.len(), 3 * ROWS_PER_SHARD);
}

#[test]
fn retry_budget_rides_out_intermittent_drops() {
    // A flaky (not dead) endpoint: each attempt drops 25% of the time, but
    // four retries make an all-attempts failure vanishingly rare, so even
    // fail-fast completes. The breaker threshold is lifted out of the way
    // so a short unlucky streak cannot open it mid-query.
    let flaky = FaultyConfig {
        retries: 4,
        backoff: Duration::from_micros(100),
        failure_latency: Duration::from_micros(200),
        breaker: BreakerConfig {
            failure_threshold: 64,
            ..BreakerConfig::default()
        },
    };
    let rig = rig(
        NetworkProfile::local_cluster(),
        FaultProfile {
            drop_rate: 0.25,
            ..FaultProfile::none()
        },
        flaky,
    );
    let q = parse_query(QUERY).unwrap();
    let rel = engine(&rig, ResultPolicy::FailFast)
        .execute(&q)
        .unwrap_or_else(|e| {
            panic!(
                "flaky endpoint exhausted retries (seed {}): {e}",
                chaos_seed()
            )
        });
    assert_eq!(rel.len(), 3 * ROWS_PER_SHARD, "seed {}", chaos_seed());
    assert!(
        rig.faulty.health_snapshot().retries > 0,
        "a 25% drop rate should have forced at least one retry (seed {})",
        chaos_seed()
    );
}
