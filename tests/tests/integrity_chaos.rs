//! Integrity-chaos suite: end-to-end behaviour of the result-integrity
//! defense against endpoints that lie with a `200 OK`.
//!
//! Three lies are injected via [`FaultyEndpoint`]:
//!
//! * **silent truncation** — the endpoint caps every plain `SELECT` but
//!   answers `COUNT` probes honestly. The engine must detect the cut via
//!   its verification probe and transparently reconstruct the complete
//!   result through `ORDER BY`+`LIMIT/OFFSET` paging, byte-identical to
//!   an all-healthy run, with *no* warnings (recovery reconciled).
//! * **miscounting** — the endpoint inflates every `COUNT`. Paging then
//!   exhausts below the claim, which is an irreconcilable divergence:
//!   strikes accumulate into quarantine, surfaced as a non-skippable
//!   integrity warning under `--partial` and a structured
//!   [`FailureKind::Integrity`] error under fail-fast.
//! * **bounded recovery** — reconstruction must stop early (and say so)
//!   under a tight memory budget, and must respect the query deadline.
//!
//! Every fault sequence is drawn from a seeded SplitMix64 stream; set
//! `LUSAIL_CHAOS_SEED` to replay a failing run (the `integrity-chaos`
//! group in `scripts/ci.sh` prints the seed it used on failure).

use integration::{assert_same_solutions, ground_truth};
use lusail_core::integrity;
use lusail_core::{EngineError, LusailConfig, LusailEngine, ResultPolicy};
use lusail_federation::{
    results_json, Deadline, EndpointError, FailureKind, FaultProfile, FaultyConfig, FaultyEndpoint,
    Federation, NetworkProfile, SelectResponse, SimulatedEndpoint, SparqlEndpoint, TrafficSnapshot,
};
use lusail_rdf::{Graph, Term};
use lusail_sparql::ast::Query;
use lusail_sparql::parse_query;
use lusail_sparql::solution::Relation;
use lusail_store::{eval::QueryResult, Store};
use lusail_workloads::prng::SplitMix64;
use lusail_workloads::{federation_from_graphs, lubm, qfed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn chaos_seed() -> u64 {
    std::env::var("LUSAIL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Canonical bytes of a relation: rows sorted, then serialized as a
/// SPARQL JSON document. Two relations are byte-identical exactly when
/// these strings are equal.
fn canonical_bytes(rel: &Relation) -> String {
    let mut sorted = rel.clone();
    sorted.rows_mut().sort();
    results_json::serialize(&QueryResult::Solutions(sorted))
}

/// Paranoid engine config: verify *every* response against a `COUNT(*)`
/// probe so each injected lie is exercised, not just eventual ones.
fn paranoid(policy: ResultPolicy) -> LusailConfig {
    LusailConfig {
        result_policy: policy,
        verify_every_response: true,
        ..LusailConfig::without_cache()
    }
}

/// A federation where *every* endpoint lies the same way: each simulated
/// endpoint is wrapped in a fault injector carrying `profile`.
fn lying_federation(graphs: &[(String, Graph)], profile: FaultProfile) -> Federation {
    let endpoints: Vec<Arc<dyn SparqlEndpoint>> = graphs
        .iter()
        .map(|(name, g)| {
            let inner = Arc::new(SimulatedEndpoint::new(
                name.clone(),
                Store::from_graph(g),
                NetworkProfile::instant(),
            )) as Arc<dyn SparqlEndpoint>;
            Arc::new(FaultyEndpoint::with_config(
                inner,
                chaos_seed(),
                profile,
                FaultyConfig::default(),
            )) as Arc<dyn SparqlEndpoint>
        })
        .collect();
    Federation::new(endpoints)
}

/// The silent cap applied in the truncation tests. Small enough that
/// most workload subqueries overflow it (so recovery actually pages),
/// large enough that `max_pages` is never the binding constraint.
const CAP: usize = 16;

/// A truncating fleet must be indistinguishable from a healthy one:
/// every LUBM and QFed query comes back byte-identical to the all-healthy
/// run (and to the merged-graph ground truth), without a single warning,
/// because honest `COUNT`s let paging reconcile every cut. The endpoints
/// stay out of quarantine — truncation is a strike only when the claim
/// cannot be reconciled.
#[test]
fn truncating_endpoints_recover_byte_identical_on_lubm_and_qfed() {
    let workloads: Vec<(&str, Vec<(String, Graph)>, Vec<_>)> = vec![
        (
            "lubm",
            lubm::generate_all(&lubm::LubmConfig::with_universities(2)),
            lubm::queries(),
        ),
        (
            "qfed",
            qfed::generate_all(&qfed::QfedConfig::default()),
            qfed::queries(),
        ),
    ];
    let mut total_truncations = 0u64;
    let mut total_pages = 0u64;
    for (tag, graphs, queries) in workloads {
        let healthy_engine = LusailEngine::new(
            federation_from_graphs(graphs.clone(), NetworkProfile::instant()),
            paranoid(ResultPolicy::FailFast),
        );
        let lying_engine = LusailEngine::new(
            lying_federation(&graphs, FaultProfile::silent_truncate(CAP)),
            paranoid(ResultPolicy::FailFast),
        );
        for q in &queries {
            let parsed = q.parse();
            let want = healthy_engine.execute(&parsed).expect(q.name);
            let (got, profile) = lying_engine
                .execute_profiled(&parsed)
                .unwrap_or_else(|e| panic!("{tag}/{} (seed {}): {e}", q.name, chaos_seed()));
            assert_eq!(
                canonical_bytes(&got),
                canonical_bytes(&want),
                "{tag}/{}: truncating fleet differs from healthy run (seed {})",
                q.name,
                chaos_seed()
            );
            assert!(
                profile.warnings.is_empty(),
                "{tag}/{}: reconciled recovery must be silent, got {:?}",
                q.name,
                profile.warnings
            );
            assert_same_solutions(
                &format!("{tag}/{} vs ground truth", q.name),
                &got,
                &ground_truth(&graphs, &parsed),
            );
        }
        for (name, snap) in lying_engine.integrity().snapshot() {
            assert!(
                !snap.quarantined && snap.count_divergences == 0,
                "{tag}/{name}: honest counts must not strike ({snap:?})"
            );
            total_truncations += snap.truncations_detected;
            total_pages += snap.pages_fetched;
        }
    }
    assert!(
        total_truncations > 0 && total_pages > total_truncations,
        "the cap of {CAP} rows should have forced multi-page recoveries \
         (detected {total_truncations}, fetched {total_pages} pages, seed {})",
        chaos_seed()
    );
}

// ---- miscounting endpoint → quarantine ---------------------------------

/// Rows each endpoint contributes to [`QUERY`] in the shard rigs.
const ROWS_PER_SHARD: usize = 10;

const QUERY: &str = "SELECT ?s ?d ?w WHERE { ?s <http://x/linked> ?d . ?d <http://x/weight> ?w }";

/// The endpoint wrapped in the fault injector.
const FAULTY_NAME: &str = "ep-2";

/// One endpoint's shard: link/weight chains over IRIs namespaced by
/// endpoint, so the join is local to each shard and every result row is
/// attributable to exactly one endpoint.
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

struct Rig {
    federation: Federation,
    faulty: Arc<FaultyEndpoint>,
}

/// Three shard endpoints; `ep-2` lies according to `profile`.
fn rig(profile: FaultProfile) -> Rig {
    let mut endpoints: Vec<Arc<dyn SparqlEndpoint>> = (0..2)
        .map(|idx| {
            Arc::new(SimulatedEndpoint::new(
                format!("ep-{idx}"),
                Store::from_graph(&shard(idx)),
                NetworkProfile::instant(),
            )) as Arc<dyn SparqlEndpoint>
        })
        .collect();
    let inner = Arc::new(SimulatedEndpoint::new(
        FAULTY_NAME,
        Store::from_graph(&shard(2)),
        NetworkProfile::instant(),
    )) as Arc<dyn SparqlEndpoint>;
    let faulty = Arc::new(FaultyEndpoint::with_config(
        inner,
        chaos_seed(),
        profile,
        FaultyConfig::default(),
    ));
    endpoints.push(faulty.clone() as Arc<dyn SparqlEndpoint>);
    Rig {
        federation: Federation::new(endpoints),
        faulty,
    }
}

/// A miscounting endpoint under `--partial`: paging exhausts below the
/// inflated claim, each query records a divergence strike, and after
/// `quarantine_after` strikes the endpoint is quarantined — mirrored into
/// its health registry — while the *results stay complete*, because the
/// rows themselves were honest and recovery kept them.
#[test]
fn miscounting_endpoint_is_quarantined_under_partial_with_structured_warning() {
    let rig = rig(FaultProfile::miscounts(3.0));
    let engine = LusailEngine::new(rig.federation.clone(), paranoid(ResultPolicy::Partial));
    let q = parse_query(QUERY).unwrap();

    let mut last_warnings = Vec::new();
    for run in 0..2 {
        let (rel, profile) = engine
            .execute_profiled(&q)
            .unwrap_or_else(|e| panic!("run {run} (seed {}): {e}", chaos_seed()));
        // The lie was about the count, not the rows: all three shards'
        // rows are present in every run.
        assert_eq!(
            rel.len(),
            3 * ROWS_PER_SHARD,
            "run {run}, seed {}",
            chaos_seed()
        );
        last_warnings = profile.warnings;
    }

    // Two runs → two strikes → quarantined, everywhere it is surfaced.
    assert!(
        engine.integrity().is_quarantined(FAULTY_NAME),
        "seed {}",
        chaos_seed()
    );
    assert!(
        rig.faulty.health_snapshot().quarantined,
        "quarantine must be mirrored into the endpoint's health registry"
    );
    let snap = engine.integrity().snapshot();
    let (_, s) = snap
        .iter()
        .find(|(n, _)| n == FAULTY_NAME)
        .expect("stats must cover the lying endpoint");
    assert!(s.count_divergences >= 2, "{s:?}");
    assert!(s.quarantine_entries >= 1, "{s:?}");
    assert!(s.quarantined, "{s:?}");

    // The last run's warning is structured: it names the endpoint, both
    // counts, and the quarantine standing.
    let w = last_warnings
        .iter()
        .find(|w| w.endpoint == FAULTY_NAME && w.message.starts_with("integrity:"))
        .unwrap_or_else(|| panic!("no integrity warning in {last_warnings:?}"));
    assert!(
        w.message.contains("claimed 30 rows but delivered 10"),
        "warning must carry observed vs claimed counts: {}",
        w.message
    );
    assert!(
        w.message.contains("endpoint quarantined"),
        "warning must state the quarantine standing: {}",
        w.message
    );
}

/// The same lie under fail-fast is a hard error carrying the
/// non-skippable [`FailureKind::Integrity`], the endpoint name, and both
/// counts — the paper's "partial results are worse than no results"
/// stance applied to integrity.
#[test]
fn miscounting_endpoint_fails_fast_with_integrity_error() {
    let rig = rig(FaultProfile::miscounts(3.0));
    let engine = LusailEngine::new(rig.federation.clone(), paranoid(ResultPolicy::FailFast));
    let err = engine.execute(&parse_query(QUERY).unwrap()).unwrap_err();
    match err {
        EngineError::Endpoint(e) => {
            assert_eq!(e.endpoint, FAULTY_NAME, "seed {}", chaos_seed());
            assert_eq!(e.kind, FailureKind::Integrity);
            assert!(
                !e.is_skippable(),
                "integrity failures must not be skippable"
            );
            assert!(
                e.message.contains("claimed 30 rows but delivered 10"),
                "error must carry observed vs claimed counts: {}",
                e.message
            );
        }
        other => panic!("expected a structured integrity error, got {other:?}"),
    }
}

// ---- bounded recovery --------------------------------------------------

/// `n` distinct (subject, object) rows under one predicate.
fn wide_graph(n: usize) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        g.add(
            Term::iri(format!("http://x/s{i:05}")),
            Term::iri("http://x/p"),
            Term::iri(format!("http://x/o{i:05}")),
        );
    }
    g
}

fn single_endpoint_rig(rows: usize, profile: FaultProfile, network: NetworkProfile) -> Federation {
    let inner = Arc::new(SimulatedEndpoint::new(
        "trunky",
        Store::from_graph(&wide_graph(rows)),
        network,
    )) as Arc<dyn SparqlEndpoint>;
    Federation::new(vec![Arc::new(FaultyEndpoint::with_config(
        inner,
        chaos_seed(),
        profile,
        FaultyConfig::default(),
    )) as Arc<dyn SparqlEndpoint>])
}

/// Under `--partial` with a tight memory budget, a huge reconstruction
/// degrades *itself*, not the query: recovery stops once its pages would
/// claim more than half the remaining budget, the run still completes,
/// and exactly ONE integrity warning reports the stop — not one per page
/// (the per-page warning-dedup regression).
#[test]
fn recovery_is_bounded_by_the_memory_budget() {
    const ROWS: usize = 4000;
    let federation = single_endpoint_rig(
        ROWS,
        FaultProfile::silent_truncate(64),
        NetworkProfile::instant(),
    );
    let engine = LusailEngine::new(
        federation,
        LusailConfig {
            memory_budget: Some(32 * 1024),
            ..paranoid(ResultPolicy::Partial)
        },
    );
    let q = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
    let (rel, profile) = engine
        .execute_profiled(&q)
        .unwrap_or_else(|e| panic!("partial mode must survive the budget stop: {e}"));
    assert!(
        rel.len() < ROWS,
        "a 32 KiB budget cannot hold all {ROWS} rows, got {}",
        rel.len()
    );

    let integrity: Vec<_> = profile
        .warnings
        .iter()
        .filter(|w| w.message.starts_with("integrity:"))
        .collect();
    assert_eq!(
        integrity.len(),
        1,
        "a multi-page recovery must warn once per (endpoint, subquery), got {:?}",
        profile.warnings
    );
    assert!(
        integrity[0].message.contains("memory budget exhausted"),
        "the stop reason must be named: {}",
        integrity[0].message
    );

    let snap = engine.integrity().snapshot();
    let (_, s) = snap.iter().find(|(n, _)| n == "trunky").expect("stats");
    assert!(s.truncations_detected >= 1, "{s:?}");
    assert!(s.pages_fetched >= 2, "{s:?}");
    assert!(s.rows_recovered > 0, "{s:?}");
    // Stopping for our own budget is not the endpoint's lie: no strike.
    assert_eq!(s.count_divergences, 0, "{s:?}");
}

/// Recovery paging honours the query deadline: with a measurable per-
/// request network cost and a deadline far below the hundreds of pages a
/// full reconstruction needs, the query dies with `Timeout` instead of
/// paging forever.
#[test]
fn recovery_respects_the_deadline() {
    let federation = single_endpoint_rig(
        2000,
        FaultProfile::silent_truncate(CAP),
        NetworkProfile::geo_distributed(),
    );
    let engine = LusailEngine::new(
        federation,
        LusailConfig {
            timeout: Some(Duration::from_millis(80)),
            ..paranoid(ResultPolicy::Partial)
        },
    );
    let err = engine
        .execute(&parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Timeout(_)),
        "expected Timeout, got {err:?} (seed {})",
        chaos_seed()
    );
}

// ---- the analysis probe's count as the claim -----------------------------

/// Under the default (trusting) config the analysis probe's count is a
/// truncation signal of its own. A silently capped single-pattern subquery
/// delivers *fewer* rows than the analysis probe counted, so it is
/// cross-probed and paged back byte-identical to the healthy run; an
/// endpoint that inflates its counts inflates the analysis count too,
/// never reconciles, and is quarantined. (Caches off, so every count here
/// is fetched by the query that uses it; the cached-count case is the
/// next test.)
#[test]
fn a_disagreeing_analysis_count_still_probes_under_the_default_config() {
    let config = |policy| LusailConfig {
        result_policy: policy,
        ..LusailConfig::without_cache()
    };
    let stats = |engine: &LusailEngine, name: &str| {
        let snap = engine.integrity().snapshot();
        let (_, s) = snap.iter().find(|(n, _)| n == name).expect("stats");
        s.clone()
    };

    const ROWS: usize = 300;
    let q = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
    let healthy = LusailEngine::new(
        single_endpoint_rig(ROWS, FaultProfile::none(), NetworkProfile::instant()),
        config(ResultPolicy::FailFast),
    );
    let lying = LusailEngine::new(
        single_endpoint_rig(
            ROWS,
            FaultProfile::silent_truncate(64),
            NetworkProfile::instant(),
        ),
        config(ResultPolicy::FailFast),
    );
    let want = healthy.execute(&q).unwrap();
    let (got, profile) = lying.execute_profiled(&q).unwrap();
    assert_eq!(want.len(), ROWS);
    assert_eq!(canonical_bytes(&got), canonical_bytes(&want));
    assert!(profile.warnings.is_empty(), "{:?}", profile.warnings);
    let s = stats(&lying, "trunky");
    assert_eq!((s.verifications, s.truncations_detected), (1, 1), "{s:?}");

    let rig = rig(FaultProfile::miscounts(3.0));
    let engine = LusailEngine::new(rig.federation.clone(), config(ResultPolicy::Partial));
    let q = parse_query("SELECT ?s ?d WHERE { ?s <http://x/linked> ?d }").unwrap();
    for run in 0..2 {
        let rel = engine.execute(&q).unwrap();
        assert_eq!(rel.len(), 3 * ROWS_PER_SHARD, "run {run}");
    }
    let s = stats(&engine, FAULTY_NAME);
    assert!(s.quarantined && s.count_divergences == 2, "{s:?}");
    assert!(rig.faulty.health_snapshot().quarantined);
}

/// An endpoint whose data can be replaced between queries.
struct Swappable {
    name: String,
    current: Mutex<Arc<dyn SparqlEndpoint>>,
}

impl Swappable {
    fn current(&self) -> Arc<dyn SparqlEndpoint> {
        self.current.lock().unwrap().clone()
    }
}

impl SparqlEndpoint for Swappable {
    fn name(&self) -> &str {
        &self.name
    }
    fn execute_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<QueryResult, EndpointError> {
        self.current().execute_within(query, deadline)
    }
    fn select_with_meta(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<SelectResponse, EndpointError> {
        self.current().select_with_meta(query, deadline)
    }
    fn traffic(&self) -> TrafficSnapshot {
        self.current().traffic()
    }
    fn reset_traffic(&self) {
        self.current().reset_traffic()
    }
}

/// An analysis count equal to the rows delivered verifies nothing. Under
/// the default config the analysis count of a repeated query comes from
/// the cross-query count cache, and the data may have grown since: a
/// capping endpoint then still delivers exactly the cached count. That
/// response must be cross-probed and paged back in full, not settled
/// against the stale number.
#[test]
fn a_cached_analysis_count_never_settles_a_response() {
    const CAP: usize = 64;
    const GROWN: usize = 300;
    let capped = |rows| {
        let federation = single_endpoint_rig(
            rows,
            FaultProfile::silent_truncate(CAP),
            NetworkProfile::instant(),
        );
        federation.endpoint(0).clone()
    };
    let endpoint = Arc::new(Swappable {
        name: "trunky".into(),
        current: Mutex::new(capped(CAP)),
    });
    let config = LusailConfig {
        result_policy: ResultPolicy::FailFast,
        ..LusailConfig::default()
    };
    assert!(config.enable_cache);
    let engine = LusailEngine::new(Federation::new(vec![endpoint.clone()]), config.clone());
    let q = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
    let stats = || {
        let snap = engine.integrity().snapshot();
        let (_, s) = snap.iter().find(|(n, _)| n == "trunky").expect("stats");
        s.clone()
    };

    // Three runs over exactly CAP rows: the count is fetched once and
    // cached, the third identical row count teaches the cap. The flagged
    // response meets a *cached* count, so it is probed (and reconciles).
    for run in 0..3 {
        assert_eq!(engine.execute(&q).unwrap().len(), CAP, "run {run}");
    }
    let s = stats();
    assert_eq!(s.learned_cap, Some(CAP), "{s:?}");
    assert_eq!(s.verifications, 1, "{s:?}");

    // The data grows; the endpoint still delivers CAP rows.
    *endpoint.current.lock().unwrap() = capped(GROWN);
    let healthy = LusailEngine::new(
        single_endpoint_rig(GROWN, FaultProfile::none(), NetworkProfile::instant()),
        config,
    );
    let want = healthy.execute(&q).unwrap();
    let (got, profile) = engine.execute_profiled(&q).unwrap();
    assert_eq!(want.len(), GROWN);
    assert_eq!(canonical_bytes(&got), canonical_bytes(&want));
    assert!(profile.warnings.is_empty(), "{:?}", profile.warnings);
    let s = stats();
    assert_eq!(s.verifications, 2, "{s:?}");
    assert_eq!(s.truncations_detected, 1, "{s:?}");
}

// ---- OPTIONAL and MINUS blocks ------------------------------------------

/// Subjects at each endpoint of [`block_rig`].
const BLOCK_ROWS: usize = 40;

const MINUS_QUERY: &str =
    "SELECT ?s ?v WHERE { ?s <http://x/p> ?v MINUS { ?s <http://x/retired> ?y } }";
const OPTIONAL_QUERY: &str =
    "SELECT ?s ?v ?y WHERE { ?s <http://x/p> ?v OPTIONAL { ?s <http://x/retired> ?y } }";

/// Two endpoints over the same 40 subjects: `live` holds one `:p` value
/// each (the required pattern), `retired` one `:retired` mark each (the
/// block), so `MINUS` leaves nothing and `OPTIONAL` binds `?y` in every
/// row. Each endpoint lies its own way.
fn block_rig(live: FaultProfile, retired: FaultProfile) -> Federation {
    let mut graphs = [Graph::new(), Graph::new()];
    for i in 0..BLOCK_ROWS {
        let s = Term::iri(format!("http://x/s{i:02}"));
        graphs[0].add(s.clone(), Term::iri("http://x/p"), Term::integer(i as i64));
        graphs[1].add(s, Term::iri("http://x/retired"), Term::iri("http://x/yes"));
    }
    let endpoint = |name: &str, g: &Graph, profile| {
        let inner = SimulatedEndpoint::new(name, Store::from_graph(g), NetworkProfile::instant());
        Arc::new(FaultyEndpoint::with_config(
            Arc::new(inner),
            chaos_seed(),
            profile,
            FaultyConfig::default(),
        )) as Arc<dyn SparqlEndpoint>
    };
    Federation::new(vec![
        endpoint("live", &graphs[0], live),
        endpoint("retired", &graphs[1], retired),
    ])
}

/// Run `query` over [`block_rig`] under paranoid integrity.
fn run_block(
    query: &str,
    (live, retired): (FaultProfile, FaultProfile),
    policy: ResultPolicy,
) -> Result<(Relation, Vec<lusail_core::ExecutionWarning>), EngineError> {
    let engine = LusailEngine::new(block_rig(live, retired), paranoid(policy));
    let (rel, profile) = engine.execute_profiled(&parse_query(query).unwrap())?;
    Ok((rel, profile.warnings))
}

/// A block's rows are fetched like any subquery's: a fleet that silently
/// caps every `SELECT` at 10 rows still answers byte-identical to the
/// honest one. A `MINUS` block cut to 10 of its 40 rows would otherwise
/// let 30 rows through that the merged graph excludes — with no warning.
#[test]
fn a_truncated_minus_or_optional_block_is_recovered_byte_identical() {
    let honest = (FaultProfile::none(), FaultProfile::none());
    let capped = (
        FaultProfile::silent_truncate(10),
        FaultProfile::silent_truncate(10),
    );
    for (query, rows) in [(MINUS_QUERY, 0), (OPTIONAL_QUERY, BLOCK_ROWS)] {
        let (want, _) = run_block(query, honest, ResultPolicy::FailFast).unwrap();
        let (got, warnings) = run_block(query, capped, ResultPolicy::FailFast)
            .unwrap_or_else(|e| panic!("{query} (seed {}): {e}", chaos_seed()));
        assert_eq!(want.len(), rows, "{query}");
        assert!(want.rows().iter().all(|r| r.iter().all(Option::is_some)));
        assert_eq!(canonical_bytes(&got), canonical_bytes(&want), "{query}");
        assert!(warnings.is_empty(), "{query}: {warnings:?}");
    }
}

/// A block endpoint whose `COUNT` cannot be reconciled with what paging
/// drains is a lying endpoint wherever its rows were headed: a structured
/// integrity error under fail-fast, a non-skippable warning naming the
/// block under `--partial` (the rows it did deliver are kept).
#[test]
fn a_miscounted_block_is_an_integrity_error_or_a_non_skippable_warning() {
    let lying = (FaultProfile::none(), FaultProfile::miscounts(3.0));
    for (query, what, rows) in [
        (MINUS_QUERY, "MINUS block", 0),
        (OPTIONAL_QUERY, "subquery #1", BLOCK_ROWS),
    ] {
        match run_block(query, lying, ResultPolicy::FailFast) {
            Err(EngineError::Endpoint(e)) => {
                assert_eq!(e.kind, FailureKind::Integrity, "{query}: {e}");
                assert_eq!(e.endpoint, "retired", "{query}: {e}");
            }
            other => panic!("{query}: expected an integrity error, got {other:?}"),
        }
        let (rel, warnings) = run_block(query, lying, ResultPolicy::Partial).unwrap();
        assert_eq!(rel.len(), rows, "{query}");
        let named = |w: &lusail_core::ExecutionWarning| {
            w.endpoint == "retired" && w.subquery == what && w.message.contains("integrity")
        };
        assert!(warnings.iter().any(named), "{query}: {warnings:?}");
    }
}

/// A block endpoint that dies after the analysis probe, under `--partial`:
/// the block contributes nothing, which for `OPTIONAL` leaves `?y` unbound
/// and for `MINUS` removes nothing — a *superset* of the true answer — and
/// the warning says whose rows are missing from which block.
#[test]
fn a_dead_block_endpoint_under_partial_degrades_with_a_warning_naming_the_block() {
    let dying = (FaultProfile::none(), FaultProfile::dies_after(1));
    for (query, what) in [
        (MINUS_QUERY, "MINUS block"),
        (OPTIONAL_QUERY, "subquery #1"),
    ] {
        let (rel, warnings) = run_block(query, dying, ResultPolicy::Partial).unwrap();
        assert_eq!(rel.len(), BLOCK_ROWS, "{query}");
        let unbound = rel.rows().iter().flatten().filter(|c| c.is_none()).count();
        assert_eq!(unbound, rel.len() * (rel.vars().len() - 2), "{query}");
        let named =
            |w: &lusail_core::ExecutionWarning| w.endpoint == "retired" && w.subquery == what;
        assert!(warnings.iter().any(named), "{query}: {warnings:?}");
        assert!(
            run_block(query, dying, ResultPolicy::FailFast).is_err(),
            "{query}"
        );
    }
}

// ---- paging property ---------------------------------------------------

/// Seeded property: for arbitrary row counts, duplicate-heavy bags, page
/// sizes, and even overlapping re-fetches, the merged pages are
/// byte-identical to the unpaged result of the same ordered query. This
/// is the contract the recovery loop in `sape::execute` relies on.
#[test]
fn paged_refetch_merge_is_byte_identical_to_unpaged() {
    let mut rng = SplitMix64::seed_from_u64(chaos_seed() ^ 0x1f1d_ea11_cafe_f00d);
    for case in 0..25 {
        let n = rng.gen_range(0..300usize);
        let mut g = Graph::new();
        for i in 0..n {
            // A handful of distinct objects: projecting only ?o makes the
            // result a bag with heavy legitimate duplication.
            g.add(
                Term::iri(format!("http://x/s{i}")),
                Term::iri("http://x/p"),
                Term::integer(rng.gen_range(0..7i64)),
            );
        }
        let ep = SimulatedEndpoint::new("ep", Store::from_graph(&g), NetworkProfile::instant());
        let base = parse_query("SELECT ?o WHERE { ?s <http://x/p> ?o }").unwrap();
        let reference = ep
            .select_within(&integrity::paged_query(&base, n + 1, 0), Deadline::none())
            .unwrap();

        let mut pages = Vec::new();
        let mut offset = 0usize;
        loop {
            let limit = rng.gen_range(1..=17usize);
            let page = ep
                .select_within(
                    &integrity::paged_query(&base, limit, offset),
                    Deadline::none(),
                )
                .unwrap();
            let got = page.len();
            if got == 0 {
                break;
            }
            pages.push((offset, page));
            if offset > 0 && rng.gen_bool(0.25) {
                // An overlapping re-fetch of an already-covered window:
                // merge must drop it by offset arithmetic, not content.
                let back = rng.gen_range(0..offset);
                let re = ep
                    .select_within(
                        &integrity::paged_query(&base, limit, back),
                        Deadline::none(),
                    )
                    .unwrap();
                pages.push((back, re));
            }
            offset += got;
        }
        let merged = integrity::merge_pages(reference.vars().to_vec(), pages);
        assert_eq!(
            results_json::serialize(&QueryResult::Solutions(merged)),
            results_json::serialize(&QueryResult::Solutions(reference.clone())),
            "case {case}: merged pages diverge from the unpaged result (seed {})",
            chaos_seed()
        );
    }
}

/// An endpoint's vocabulary list, cut by a silent cap, prunes nothing: it
/// sums short of its own `COUNT(*)` total and is cached as unlisted, so a later
/// query on a predicate past the cut still asks that endpoint and comes back
/// as the merged graph answers it. A list trusted unverified would read the
/// endpoint as lacking the predicate and lose its rows.
#[test]
fn a_vocabulary_cut_by_a_silent_cap_prunes_nothing() {
    let x = |l: String| Term::iri(format!("http://x/{l}"));
    let mut wide = Graph::new();
    for i in 0..40 {
        wide.add(x(format!("s{i}")), x(format!("p{i}")), x(format!("o{i}")));
    }
    let mut plain = Graph::new();
    plain.add(x("t".into()), x("q".into()), x("u".into()));
    let graphs = vec![("wide".to_string(), wide), ("plain".to_string(), plain)];
    let endpoints: Vec<Arc<dyn SparqlEndpoint>> = graphs
        .iter()
        .map(|(name, g)| {
            let inner = Arc::new(SimulatedEndpoint::new(
                name.clone(),
                Store::from_graph(g),
                NetworkProfile::instant(),
            ));
            let profile = match name.as_str() {
                "wide" => FaultProfile::silent_truncate(16),
                _ => FaultProfile::none(),
            };
            Arc::new(FaultyEndpoint::with_config(
                inner,
                chaos_seed(),
                profile,
                FaultyConfig::default(),
            )) as Arc<dyn SparqlEndpoint>
        })
        .collect();
    let engine = LusailEngine::new(Federation::new(endpoints), LusailConfig::default());

    let first = parse_query("SELECT * WHERE { ?s <http://x/q> ?o }").unwrap();
    assert_same_solutions(
        "q",
        &engine.execute(&first).unwrap(),
        &ground_truth(&graphs, &first),
    );
    let cache = engine.cache();
    let vocabulary = |ep| cache.get_vocabulary(ep).expect("both endpoints listed");
    assert_eq!(vocabulary(0).predicates, None, "the cut list is unlisted");
    assert_eq!(vocabulary(1).predicates.as_ref().map(|l| l.len()), Some(1));

    for i in 0..40 {
        let q = parse_query(&format!("SELECT * WHERE {{ ?s <http://x/p{i}> ?o }}")).unwrap();
        let got = engine.execute(&q).unwrap();
        let want = ground_truth(&graphs, &q);
        assert_eq!(want.len(), 1);
        assert_same_solutions(&format!("p{i}"), &got, &want);
    }
}

/// An endpoint that miscounts while it lists its vocabulary lies in its
/// totals, not in the list rows: its counts no longer sum to them, so its
/// vocabulary is cached unlisted. It answers nothing from it, a later query
/// still probes that endpoint, and every answer is the merged graph's.
#[test]
fn a_vocabulary_listed_while_miscounting_is_unlisted_and_still_probed() {
    let x = |l: String| Term::iri(format!("http://x/{l}"));
    let mut liar = Graph::new();
    for i in 0..5 {
        liar.add(x(format!("s{i}")), x("p".into()), x(format!("o{i}")));
    }
    liar.add(x("t".into()), x("r".into()), x("u".into()));
    let mut honest = Graph::new();
    honest.add(x("a".into()), x("q".into()), x("b".into()));
    honest.add(x("c".into()), x("p".into()), x("d".into()));
    let graphs = vec![("liar".to_string(), liar), ("honest".to_string(), honest)];
    let endpoints: Vec<Arc<FaultyEndpoint>> = (graphs.iter())
        .map(|(name, g)| {
            let inner = SimulatedEndpoint::new(
                name.clone(),
                Store::from_graph(g),
                NetworkProfile::instant(),
            );
            Arc::new(FaultyEndpoint::with_config(
                Arc::new(inner),
                chaos_seed(),
                FaultProfile::none(),
                FaultyConfig::default(),
            ))
        })
        .collect();
    let as_dyn = |ep: &Arc<FaultyEndpoint>| Arc::clone(ep) as Arc<dyn SparqlEndpoint>;
    let federation = Federation::new(endpoints.iter().map(as_dyn).collect());
    let engine = LusailEngine::new(federation, LusailConfig::default());
    let run = |p: &str| {
        let q = parse_query(&format!("SELECT * WHERE {{ ?s <http://x/{p}> ?o }}")).unwrap();
        let before: Vec<u64> = endpoints.iter().map(|ep| ep.traffic().requests).collect();
        assert_same_solutions(p, &engine.execute(&q).unwrap(), &ground_truth(&graphs, &q));
        (endpoints.iter().zip(before))
            .map(|(ep, b)| ep.traffic().requests - b)
            .collect::<Vec<_>>()
    };

    // The listing request is the one the liar miscounts: `q` is not its
    // predicate, so its count for it (0) is true, but its totals are not.
    endpoints[0].set_faults(FaultProfile::miscounts(3.0));
    run("q");
    endpoints[0].set_faults(FaultProfile::none());
    let cache = engine.cache();
    let vocabulary = |ep| cache.get_vocabulary(ep).expect("both endpoints listed");
    assert_eq!(
        vocabulary(0).predicates,
        None,
        "the liar's list is unlisted"
    );
    let listed = vocabulary(1).predicates.clone().expect("honest is listed");
    assert_eq!(listed.len(), 2);

    // `p` is counted from honest's list and probed at the liar; `r`, which
    // honest did not list, likewise.
    for p in ["p", "r"] {
        let sent = run(p);
        assert!(sent[0] >= 1, "{p}: the liar is probed: {sent:?}");
        assert_eq!(
            sent[1],
            u64::from(p == "p"),
            "{p}: only subqueries: {sent:?}"
        );
    }
}
