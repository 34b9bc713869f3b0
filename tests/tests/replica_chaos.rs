//! Replica chaos suite: end-to-end federation behaviour when endpoints are
//! backed by replica groups and members die or slow down mid-query.
//!
//! The headline property: a LUBM query over a group with a dead (or dying)
//! member returns rows *identical* to the all-healthy run, with **zero**
//! `ExecutionWarning`s — failover hides the outage entirely, unlike partial
//! mode, which surfaces it as missing rows plus warnings. A fully dead group
//! still fails fast with a structured error naming every member tried, and a
//! slow member is rescued by hedging within the ≤2× amplification bound.
//!
//! Fault sequences are drawn from a seeded SplitMix64 stream; set
//! `LUSAIL_CHAOS_SEED` to replay a failing run (the `replica-chaos` group in
//! `scripts/ci.sh` prints the seed it used on failure).

use integration::{assert_same_solutions, fastest_of_three, ground_truth};
use lusail_core::{EngineError, LusailConfig, LusailEngine, ResultPolicy};
use lusail_federation::{
    BreakerConfig, FaultProfile, FaultyConfig, FaultyEndpoint, Federation, NetworkProfile,
    ReplicaConfig, ReplicaGroup, SimulatedEndpoint, SparqlEndpoint,
};
use lusail_sparql::parse_query;
use lusail_store::Store;
use lusail_workloads::lubm::{generate_all, queries, LubmConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn chaos_seed() -> u64 {
    std::env::var("LUSAIL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Replica-member fault handling tuned for failing over fast: no in-member
/// retries (the group's failover IS the retry), sub-millisecond failure
/// latency, and a breaker that opens after two strikes so later waves stop
/// dialing the dead member at all.
fn fast_failover_faults() -> FaultyConfig {
    FaultyConfig {
        retries: 0,
        backoff: Duration::ZERO,
        failure_latency: Duration::from_micros(200),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(30),
            ..BreakerConfig::default()
        },
    }
}

/// A plain healthy member endpoint.
fn member(name: String, store: Store, network: NetworkProfile) -> Arc<dyn SparqlEndpoint> {
    Arc::new(SimulatedEndpoint::new(name, store, network))
}

/// A member wrapped in a fault injector starting with `profile` active.
fn faulty_member(
    name: String,
    store: Store,
    network: NetworkProfile,
    profile: FaultProfile,
) -> Arc<dyn SparqlEndpoint> {
    let inner = member(name, store, network);
    Arc::new(FaultyEndpoint::with_config(
        inner,
        chaos_seed(),
        profile,
        fast_failover_faults(),
    ))
}

struct ReplicaRig {
    federation: Federation,
    /// One group per LUBM endpoint, kept out so tests can read stats.
    groups: Vec<Arc<ReplicaGroup>>,
}

/// A federation of two-member replica groups over the LUBM graphs. The
/// `fault` callback decides, per (endpoint index, member index), which
/// fault profile to inject — `None` means a plain healthy member. Member 0
/// is the initially preferred one (ranking is index-stable before any
/// health history exists), so injecting faults there forces failover.
fn rig(
    universities: usize,
    network: NetworkProfile,
    config: ReplicaConfig,
    fault: impl Fn(usize, usize) -> Option<FaultProfile>,
) -> (ReplicaRig, Vec<(String, lusail_rdf::Graph)>) {
    rig_with_networks(universities, [network; 2], config, fault)
}

/// [`rig`] with a network per member index.
fn rig_with_networks(
    universities: usize,
    networks: [NetworkProfile; 2],
    config: ReplicaConfig,
    fault: impl Fn(usize, usize) -> Option<FaultProfile>,
) -> (ReplicaRig, Vec<(String, lusail_rdf::Graph)>) {
    let graphs = generate_all(&LubmConfig::with_universities(universities));
    let mut endpoints: Vec<Arc<dyn SparqlEndpoint>> = Vec::new();
    let mut groups = Vec::new();
    for (e, (name, graph)) in graphs.iter().enumerate() {
        let store = Store::from_graph(graph);
        let members: Vec<Arc<dyn SparqlEndpoint>> = (0..2)
            .map(|m| {
                let member_name = format!("{name}/r{m}");
                let network = networks[m];
                match fault(e, m) {
                    Some(profile) => faulty_member(member_name, store.clone(), network, profile),
                    None => member(member_name, store.clone(), network),
                }
            })
            .collect();
        let group = Arc::new(ReplicaGroup::new(name.clone(), members, config));
        groups.push(group.clone());
        endpoints.push(group as Arc<dyn SparqlEndpoint>);
    }
    (
        ReplicaRig {
            federation: Federation::new(endpoints),
            groups,
        },
        graphs,
    )
}

fn engine(rig: &ReplicaRig, policy: ResultPolicy) -> LusailEngine {
    LusailEngine::new(
        rig.federation.clone(),
        LusailConfig {
            result_policy: policy,
            ..LusailConfig::without_cache()
        },
    )
}

/// Headline: one dead replica member on the preferred slot of every group.
/// The run must produce rows identical to the all-healthy run with zero
/// warnings (failover hides the outage — partial mode would instead drop
/// the shard and warn), within 2x the healthy wall-clock.
#[test]
fn dead_replica_member_is_invisible_to_results_and_warnings() {
    // Geo-distributed latency gives every healthy round trip a measurable
    // 4 ms cost, so the 2x comparison has structural slack: a failed
    // dispatch costs ~0.2 ms and the breaker stops them after two strikes.
    // Each side runs three times on fresh rigs (a fresh breaker each), and
    // the fastest runs are compared.
    let network = NetworkProfile::geo_distributed();
    let q = parse_query(&queries()[1].text).unwrap();

    let mut baseline = None;
    let healthy_latency = fastest_of_three(|| {
        let (healthy, graphs) = rig(2, network, ReplicaConfig::default(), |_, _| None);
        let started = Instant::now();
        let rel = engine(&healthy, ResultPolicy::FailFast)
            .execute(&q)
            .unwrap();
        let elapsed = started.elapsed();
        assert_same_solutions("healthy replica run", &rel, &ground_truth(&graphs, &q));
        baseline = Some(rel);
        elapsed
    });
    let baseline = baseline.expect("a healthy run");

    let threshold = u64::from(fast_failover_faults().breaker.failure_threshold);
    let failover_latency = fastest_of_three(|| {
        let (broken, _) = rig(2, network, ReplicaConfig::default(), |_, m| {
            (m == 0).then(FaultProfile::hard_down)
        });
        let started = Instant::now();
        let (rel, profile) = engine(&broken, ResultPolicy::Partial)
            .execute_profiled(&q)
            .unwrap();
        let elapsed = started.elapsed();

        assert_same_solutions("dead-member replica run", &rel, &baseline);
        assert!(
            profile.warnings.is_empty(),
            "failover must hide the outage, got warnings (seed {}): {:?}",
            chaos_seed(),
            profile.warnings
        );
        let failovers: u64 = broken.groups.iter().map(|g| g.stats().failovers).sum();
        assert!(
            failovers > 0,
            "the dead preferred members should have forced failovers (seed {})",
            chaos_seed()
        );
        // What keeps failover cheap is the breaker, not timing: after
        // `threshold` strikes the dead member ranks last, so only a request
        // dispatched while the last strike was in flight gets past it.
        for group in &broken.groups {
            let dead = &group
                .replica_members()
                .expect("a replica group has members")[0];
            assert!(
                dead.dispatches <= threshold + 1
                    && dead.dispatches < group.stats().logical_requests,
                "the open breaker should stop dispatches to {} after {threshold} strikes, \
                 got {} of {} (seed {})",
                dead.name,
                dead.dispatches,
                group.stats().logical_requests,
                chaos_seed()
            );
        }
        elapsed
    });
    assert!(
        failover_latency < healthy_latency * 2,
        "fastest failover run took {failover_latency:?}, over 2x the fastest healthy \
         {healthy_latency:?} (seed {})",
        chaos_seed()
    );
}

/// A member that dies *mid-run* — after serving its first few requests —
/// is equally invisible: the group fails over on the first post-death
/// dispatch and later waves go straight to the survivor.
#[test]
fn member_killed_mid_wave_fails_over_without_losing_rows() {
    const BUDGET: u64 = 3;
    let q = parse_query(&queries()[1].text).unwrap();
    // Health ranking picks the member of every dispatch by latency, so the
    // dying member is only sure to be dispatched past its budget if it is
    // the clearly faster one: the survivor sits a 20 ms round trip away.
    let far = NetworkProfile {
        latency: Duration::from_millis(20),
        ..NetworkProfile::local_cluster()
    };
    let (broken, graphs) = rig_with_networks(
        2,
        [NetworkProfile::local_cluster(), far],
        ReplicaConfig::default(),
        |_, m| (m == 0).then(|| FaultProfile::dies_after(BUDGET)),
    );
    let (rel, profile) = engine(&broken, ResultPolicy::Partial)
        .execute_profiled(&q)
        .unwrap();
    assert_same_solutions("mid-wave death run", &rel, &ground_truth(&graphs, &q));
    assert!(
        profile.warnings.is_empty(),
        "failover must hide the mid-wave death, got (seed {}): {:?}",
        chaos_seed(),
        profile.warnings
    );
    let stats: Vec<_> = broken.groups.iter().map(|g| g.stats()).collect();
    let died_mid_run = broken.groups.iter().any(|g| {
        let members = g.replica_members().expect("a replica group has members");
        members[0].dispatches > BUDGET
    });
    assert!(
        died_mid_run,
        "no dying member was dispatched past its {BUDGET} served requests (seed {}): {stats:?}",
        chaos_seed()
    );
    assert!(
        stats.iter().any(|s| s.failovers > 0),
        "dying members should have forced failovers (seed {}): {stats:?}",
        chaos_seed()
    );
}

/// When *every* member of a group is dead, the query fails fast with a
/// structured error naming the group and each member tried — no hanging,
/// no fabricated rows.
#[test]
fn fully_dead_group_fails_fast_naming_every_member() {
    let q = parse_query(&queries()[1].text).unwrap();
    let (broken, _) = rig(
        2,
        NetworkProfile::local_cluster(),
        ReplicaConfig::default(),
        |e, _| (e == 0).then(FaultProfile::hard_down),
    );
    let dead_group = broken.groups[0].clone();
    let started = Instant::now();
    let err = engine(&broken, ResultPolicy::FailFast)
        .execute(&q)
        .unwrap_err();
    let elapsed = started.elapsed();

    match &err {
        EngineError::Endpoint(e) => {
            assert_eq!(
                e.endpoint,
                dead_group.name(),
                "error must name the dead group (seed {})",
                chaos_seed()
            );
            for m in dead_group.members() {
                assert!(
                    e.message.contains(m.name()),
                    "error must name member {:?} (seed {}): {}",
                    m.name(),
                    chaos_seed(),
                    e.message
                );
            }
        }
        other => panic!("expected a structured endpoint error, got {other:?}"),
    }
    // Fail-fast: both members cost ~0.2 ms per failed dispatch and the
    // breakers open after two strikes, so the whole failure is quick.
    assert!(
        elapsed < Duration::from_secs(5),
        "fully dead group took {elapsed:?} to fail (seed {})",
        chaos_seed()
    );
}

/// A slow-but-alive preferred member is rescued by hedging: the duplicate
/// launched on the fast member wins, results stay correct, and request
/// amplification stays within the 2x bound.
#[test]
fn hedging_rescues_slow_member_within_amplification_bound() {
    let q = parse_query(&queries()[1].text).unwrap();
    let graphs = generate_all(&LubmConfig::with_universities(1));
    let (name, graph) = &graphs[0];
    let store = Store::from_graph(graph);
    // Member 0 (initially preferred: no health history, index-stable rank)
    // pays a 40 ms round trip on every request; member 1 is on the fast
    // local network. Hedging after 1 ms reaches the fast member long
    // before the slow one responds, even on a loaded test machine.
    let slow = member(
        format!("{name}/r0"),
        store.clone(),
        NetworkProfile {
            latency: Duration::from_millis(40),
            ..NetworkProfile::geo_distributed()
        },
    );
    let fast = member(
        format!("{name}/r1"),
        store.clone(),
        NetworkProfile::local_cluster(),
    );
    let group = Arc::new(ReplicaGroup::new(
        name.clone(),
        vec![slow, fast],
        ReplicaConfig {
            hedge_after: Some(Duration::from_millis(1)),
            ..ReplicaConfig::default()
        },
    ));
    let rig = ReplicaRig {
        federation: Federation::new(vec![group.clone() as Arc<dyn SparqlEndpoint>]),
        groups: vec![group.clone()],
    };
    let rel = engine(&rig, ResultPolicy::FailFast).execute(&q).unwrap();
    assert_same_solutions("hedged run", &rel, &ground_truth(&graphs, &q));

    let stats = group.stats();
    assert!(
        stats.hedges_launched > 0,
        "the slow member should have triggered hedges (seed {}): {stats:?}",
        chaos_seed()
    );
    assert!(
        stats.hedges_won > 0,
        "the fast member should have won hedges (seed {}): {stats:?}",
        chaos_seed()
    );
    assert!(
        stats.dispatches <= 2 * stats.logical_requests,
        "hedging must stay within 2x amplification (seed {}): {stats:?}",
        chaos_seed()
    );
}

/// A group forwards what its members know. A mirror behind `lusail serve
/// --max-result-rows` advertises every cut (`X-Lusail-Truncated`); through
/// the group the flag arrives with the winning answer, so the engine pages
/// the rest back without waiting for a heuristic to fire, and a quarantine
/// verdict on the group reaches each member's health registry.
#[test]
fn a_group_forwards_an_advertised_cut_and_the_engine_pages_the_rest_back() {
    use lusail_federation::{Deadline, HttpEndpoint};
    use lusail_rdf::{Graph, Term};
    use lusail_server::{ServerConfig, SparqlServer};

    const ROWS: usize = 40;
    const CAP: usize = 10;
    let mut g = Graph::new();
    for i in 0..ROWS {
        g.add(
            Term::iri(format!("http://x/s{i:02}")),
            Term::iri("http://x/p"),
            Term::integer(i as i64),
        );
    }
    let capped = ServerConfig {
        max_result_rows: Some(CAP),
        ..Default::default()
    };
    let servers: Vec<_> = (0..2)
        .map(|_| {
            SparqlServer::bind("127.0.0.1:0", Store::from_graph(&g), capped.clone())
                .expect("bind ephemeral port")
                .spawn()
        })
        .collect();
    let members = servers
        .iter()
        .enumerate()
        .map(|(i, server)| {
            let http = HttpEndpoint::new(format!("mirror{i}"), &server.url()).expect("valid URL");
            Arc::new(http) as Arc<dyn SparqlEndpoint>
        })
        .collect();
    let group = Arc::new(ReplicaGroup::new("data", members, ReplicaConfig::default()));

    let q = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
    let response = group.select_with_meta(&q, Deadline::none()).unwrap();
    assert_eq!(response.rows.len(), CAP);
    assert!(response.truncated, "the member's advertisement is dropped");

    // Default (trusting) integrity config: only the advertisement can
    // tell the engine that a first 10-row response is a prefix.
    let engine = LusailEngine::new(
        Federation::new(vec![group.clone() as Arc<dyn SparqlEndpoint>]),
        LusailConfig::without_cache(),
    );
    let (rel, profile) = engine.execute_profiled(&q).unwrap();
    let healthy = SimulatedEndpoint::new("data", Store::from_graph(&g), NetworkProfile::instant());
    let want = healthy.select(&q).unwrap();
    assert_same_solutions("paged back through the group", &rel, &want);
    assert!(profile.warnings.is_empty(), "{:?}", profile.warnings);
    let snap = engine.integrity().snapshot();
    let (_, s) = snap.iter().find(|(n, _)| n == "data").expect("stats");
    assert_eq!(s.truncations_detected, 1, "{s:?}");
    assert!(s.rows_recovered as usize >= ROWS - CAP, "{s:?}");

    group.set_quarantined(true);
    let quarantined = |m: &Arc<dyn SparqlEndpoint>| m.health().is_some_and(|h| h.quarantined);
    assert!(group.members().iter().all(quarantined));
    assert!(group.health().is_some_and(|h| h.quarantined));
    group.set_quarantined(false);
    assert!(!group.members().iter().any(quarantined));

    for server in servers {
        server.shutdown();
    }
}
