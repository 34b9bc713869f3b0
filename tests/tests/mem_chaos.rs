//! Memory-budget chaos suite: a hostile endpoint that answers every
//! subquery with millions of well-formed rows (a "result bomb") must not
//! drive the engine past its `--memory-budget`. Fail-fast surfaces a
//! structured `BudgetExceeded` naming the endpoint; `--partial` degrades
//! to a truncated, visibly-warned result; and a join under a tight budget
//! returns exactly the rows of the in-memory join, in its order.
//!
//! Like `chaos.rs`, the fault stream is seeded: set `LUSAIL_CHAOS_SEED`
//! to replay a failing run (the `mem-chaos` group in `scripts/ci.sh`
//! prints the seed it used on failure).

use lusail_core::sape::join::budgeted_join;
use lusail_core::{EngineError, LusailConfig, LusailEngine, MemoryBudget, ResultPolicy};
use lusail_federation::{
    FaultProfile, FaultyConfig, FaultyEndpoint, Federation, NetworkProfile, RequestHandler,
    SimulatedEndpoint, SparqlEndpoint,
};
use lusail_rdf::{Graph, Term};
use lusail_sparql::ast::Variable;
use lusail_sparql::parse_query;
use lusail_sparql::solution::Relation;
use lusail_store::Store;
use std::sync::Arc;

const QUERY: &str = "SELECT ?s ?d ?w WHERE { ?s <http://x/linked> ?d . ?d <http://x/weight> ?w }";

/// Rows each endpoint contributes to [`QUERY`].
const ROWS_PER_SHARD: usize = 10;

/// The endpoint wrapped in the fault injector.
const FAULTY_NAME: &str = "ep-2";

/// The per-query budget the bomb must not breach.
const BUDGET: usize = 8 << 20;

/// Rows per bombed response: ~90 wire bytes each, so one response is
/// several times [`BUDGET`].
const BOMB_ROWS: usize = 200_000;

fn chaos_seed() -> u64 {
    std::env::var("LUSAIL_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

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

/// Three endpoints; `ep-2` answers every plain SELECT with `BOMB_ROWS`
/// rows when `profile` is a result bomb.
fn rig(profile: FaultProfile) -> Federation {
    let network = NetworkProfile::instant();
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
    endpoints.push(Arc::new(FaultyEndpoint::with_config(
        inner,
        chaos_seed(),
        profile,
        FaultyConfig::default(),
    )) as Arc<dyn SparqlEndpoint>);
    Federation::new(endpoints)
}

fn engine(federation: Federation, policy: ResultPolicy, budget: Option<usize>) -> LusailEngine {
    LusailEngine::new(
        federation,
        LusailConfig {
            result_policy: policy,
            memory_budget: budget,
            ..LusailConfig::without_cache()
        },
    )
}

/// Fail-fast under a bombed endpoint: execution stops with a structured
/// `BudgetExceeded` that names the offending endpoint, instead of
/// materializing the bomb.
#[test]
fn fail_fast_budget_exceeded_names_the_bombed_endpoint() {
    let q = parse_query(QUERY).unwrap();
    let eng = engine(
        rig(FaultProfile::result_bomb(BOMB_ROWS)),
        ResultPolicy::FailFast,
        Some(BUDGET),
    );
    let err = eng.execute(&q).unwrap_err();
    match &err {
        EngineError::BudgetExceeded {
            limit, endpoint, ..
        } => {
            assert_eq!(*limit, BUDGET);
            assert_eq!(endpoint, FAULTY_NAME);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert!(err.to_string().contains("memory budget"), "{err}");
}

/// `--partial` under the same bomb: the run completes, accounting never
/// exceeds the budget, the truncation is warned per subquery against the
/// bombed endpoint, and no bomb row leaks into the answer.
#[test]
fn partial_mode_truncates_the_bomb_within_budget() {
    let q = parse_query(QUERY).unwrap();
    let eng = engine(
        rig(FaultProfile::result_bomb(BOMB_ROWS)),
        ResultPolicy::Partial,
        Some(BUDGET),
    );
    let (rel, profile) = eng.execute_profiled(&q).unwrap();

    // (a) peak accounted bytes stay within budget plus at most one
    // admission chunk of slack (`try_charge` rejects without booking, so
    // in practice the peak never crosses the limit at all).
    let slack = lusail_core::run::ADMISSION_CHUNK_ROWS * 128;
    let peak = profile.memory.peak_bytes;
    assert!(peak > 0, "bomb admission must be accounted");
    assert!(
        peak <= BUDGET + slack,
        "peak {peak} exceeds budget {BUDGET} (+{slack} slack)"
    );
    assert!(profile.memory.wave_peak_bytes > 0);

    // (b) the degradation is visible and attributed.
    assert!(
        profile
            .warnings
            .iter()
            .any(|w| w.endpoint == FAULTY_NAME && w.message.contains("memory budget")),
        "expected a memory-budget warning naming {FAULTY_NAME}: {:?}",
        profile.warnings
    );

    // Bomb rows share no join key, so none may survive into the answer;
    // the healthy endpoints' chains must all be there.
    let wi = rel.index_of(&Variable::new("w")).unwrap();
    for row in rel.rows() {
        for cell in row.iter().flatten() {
            assert!(
                !format!("{cell:?}").contains("bomb.example.org"),
                "bomb row leaked into the answer"
            );
        }
        let _ = &row[wi];
    }
    for ep in 0..2 {
        let s0 = Term::iri(format!("http://ep{ep}.example.org/s0"));
        assert!(
            rel.rows().iter().any(|r| r[0].as_ref() == Some(&s0)),
            "healthy endpoint ep-{ep} missing from the partial answer"
        );
    }
}

/// Without a budget the bomb is materialized (the pre-budget behaviour);
/// with one, the accounted peak is bounded. This pins that the budget is
/// what makes the difference, not the bomb being too small to matter.
#[test]
fn budget_is_what_bounds_the_bomb() {
    let q = parse_query(QUERY).unwrap();
    let eng = engine(
        rig(FaultProfile::result_bomb(50_000)),
        ResultPolicy::Partial,
        None,
    );
    let (_, unbounded) = eng.execute_profiled(&q).unwrap();
    assert!(
        unbounded.memory.peak_bytes > BUDGET / 2,
        "a 50k-row bomb should dominate accounting when unbounded: {}",
        unbounded.memory.peak_bytes
    );

    let eng = engine(
        rig(FaultProfile::result_bomb(50_000)),
        ResultPolicy::Partial,
        Some(1 << 20),
    );
    let (_, bounded) = eng.execute_profiled(&q).unwrap();
    assert!(
        bounded.memory.peak_bytes <= 1 << 20,
        "budgeted peak {} exceeds 1 MiB",
        bounded.memory.peak_bytes
    );
}

/// Engine-side row caps (`--max-result-rows` past the transport): fail
/// fast rejects the oversized subquery result naming the cap; partial
/// truncates with a warning.
#[test]
fn engine_row_cap_rejects_or_truncates() {
    let q = parse_query(QUERY).unwrap();
    let config = |policy| LusailConfig {
        result_policy: policy,
        max_result_rows: Some(5),
        ..LusailConfig::without_cache()
    };

    let eng = LusailEngine::new(rig(FaultProfile::none()), config(ResultPolicy::FailFast));
    let err = eng.execute(&q).unwrap_err();
    assert!(err.to_string().contains("--max-result-rows"), "{err}");

    let eng = LusailEngine::new(rig(FaultProfile::none()), config(ResultPolicy::Partial));
    let (rel, profile) = eng.execute_profiled(&q).unwrap();
    assert!(
        rel.len() < 3 * ROWS_PER_SHARD,
        "cap of 5 rows per response must shrink the 30-row answer"
    );
    assert!(
        profile
            .warnings
            .iter()
            .any(|w| w.message.contains("--max-result-rows")),
        "{:?}",
        profile.warnings
    );
}

/// A budget too tight to hold twice either ~400 KiB side but wide enough
/// for the output changes nothing about the join: the same rows, in the
/// same order, and the ledger stays under the budget.
#[test]
fn a_join_under_a_tight_budget_is_the_in_memory_join() {
    let mut a = Relation::new(vec![Variable::new("x"), Variable::new("y")]);
    let mut b = Relation::new(vec![Variable::new("y"), Variable::new("z")]);
    for i in 0..6000 {
        a.push(vec![
            Some(Term::iri(format!("http://x.example.org/x{i}"))),
            Some(Term::iri(format!("http://x.example.org/k{i}"))),
        ]);
        // Keys k3000..k8999: half of `b` matches half of `a`.
        b.push(vec![
            Some(Term::iri(format!("http://x.example.org/k{}", i + 3000))),
            Some(Term::iri(format!("http://x.example.org/z{i}"))),
        ]);
    }
    let expected = a.join(&b);
    assert!(!expected.is_empty(), "the overlap must produce rows");

    let handler = RequestHandler::new(2);
    let budget = MemoryBudget::new(Some(512 * 1024));
    let joined = budgeted_join(&a, &b, &handler, &budget, false).unwrap();
    assert!(!joined.truncated);
    assert_eq!(joined.relation.vars(), expected.vars());
    assert_eq!(joined.relation.rows(), expected.rows());
    assert!(budget.stats().peak_bytes <= 512 * 1024);
}
