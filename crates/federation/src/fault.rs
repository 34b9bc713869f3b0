//! Deterministic fault injection for chaos testing.
//!
//! [`FaultyEndpoint`] wraps any [`SparqlEndpoint`] and injects the failure
//! modes real Linked Data endpoints exhibit — latency spikes, dropped
//! connections, or a hard outage —
//! driven by a seeded SplitMix64 stream so every run is reproducible from
//! its seed. Each injected fault is one attempt of the same attempt loop
//! every transport runs ([`EndpointHealth::run`]): a drop is a failed
//! attempt, retried and counted against the breaker, and whatever the
//! wrapped endpoint answers is the answer. Chaos tests therefore exercise
//! the retry, breaker and recording rules production requests see, not a
//! copy of them.
//!
//! The fault profile is switchable at runtime (`set_faults`), which is how
//! the chaos suite demonstrates breaker *recovery*: inject a hard outage,
//! watch the breaker open, clear the faults, and assert the half-open
//! probe closes it again.

use crate::endpoint::{EndpointError, SparqlEndpoint};
use crate::erh::{Attempt, BreakerConfig, Deadline, EndpointHealth, HealthSnapshot};
use crate::network::TrafficSnapshot;
use lusail_sparql::ast::{GraphPattern, Projection, Query, QueryForm};
use lusail_store::eval::QueryResult;
use lusail_store::StoreStats;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which faults to inject, with what probability. Rates are independent
/// per attempt and checked in field order; the first one that fires wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// The endpoint is completely down: every attempt is a dropped
    /// connection, regardless of the rates below.
    pub hard_down: bool,
    /// The endpoint accepts every request and then never responds: each
    /// attempt blocks until the query's deadline passes or its cancel
    /// token trips. The wedge the lifecycle watchdog exists to reap.
    pub hang: bool,
    /// Every forwarded plain `SELECT` (not ASK, not an aggregate — so
    /// analysis probes pass through) panics instead of answering, to
    /// prove the service's panic containment. The panic unwinds through
    /// the engine to whoever called it.
    pub panic_on_select: bool,
    /// Probability an attempt's connection drops mid-request.
    pub drop_rate: f64,
    /// Probability an attempt first stalls for [`spike`](Self::spike).
    pub spike_rate: f64,
    /// Length of an injected latency spike.
    pub spike: Duration,
    /// Deterministic mid-run death: after this many attempts have been
    /// forwarded to the wrapped endpoint, every further attempt drops as
    /// if [`hard_down`](Self::hard_down) — how the chaos suite kills an
    /// endpoint mid-wave at a reproducible point instead of a wall-clock
    /// one. `None` means the endpoint never dies this way.
    pub fail_after: Option<u64>,
    /// Result bomb: every plain `SELECT` (not ASK, not an aggregate — so
    /// analysis probes pass through untouched) answers with this many
    /// fabricated rows, regardless of the real data. Models a hostile or
    /// broken endpoint flooding the federator; drives the `mem-chaos`
    /// suite's proof that a budgeted engine survives it.
    pub bomb_rows: Option<usize>,
    /// Silent truncation: every plain `SELECT` answer is capped at this
    /// many rows with a clean `200 OK` and no error — the DBpedia-style
    /// result limit. ASK and aggregate (COUNT) queries pass through
    /// truthfully, exactly like a real capping server whose `COUNT`
    /// aggregates are computed server-side: the honest counts are what
    /// lets the integrity layer detect the truncation and page the rest.
    /// An analysis probe carrying vocabulary lists keeps its counts row
    /// and loses the list rows past the cap.
    pub silent_truncate: Option<usize>,
    /// Miscounting: every `COUNT` aggregate answer is multiplied by this
    /// factor (and plain `SELECT`s answer truthfully), modeling an
    /// endpoint whose statistics lie about its data. Recovery paging
    /// finds nothing beyond the real rows, the claim never reconciles,
    /// and the endpoint earns divergence strikes until quarantined.
    pub miscount_factor: Option<f64>,
}

impl FaultProfile {
    /// No faults: the wrapper forwards transparently.
    pub fn none() -> Self {
        FaultProfile {
            hard_down: false,
            hang: false,
            panic_on_select: false,
            drop_rate: 0.0,
            spike_rate: 0.0,
            spike: Duration::ZERO,
            fail_after: None,
            bomb_rows: None,
            silent_truncate: None,
            miscount_factor: None,
        }
    }

    /// A complete outage.
    pub fn hard_down() -> Self {
        FaultProfile {
            hard_down: true,
            ..FaultProfile::none()
        }
    }

    /// Accept requests but never answer them (see [`hang`](Self::hang)).
    pub fn hang() -> Self {
        FaultProfile {
            hang: true,
            ..FaultProfile::none()
        }
    }

    /// Panic on every forwarded plain `SELECT` (see
    /// [`panic_on_select`](Self::panic_on_select)).
    pub fn panics_on_select() -> Self {
        FaultProfile {
            panic_on_select: true,
            ..FaultProfile::none()
        }
    }

    /// Healthy for the first `served` forwarded attempts, hard-down after.
    pub fn dies_after(served: u64) -> Self {
        FaultProfile {
            fail_after: Some(served),
            ..FaultProfile::none()
        }
    }

    /// Answer every plain `SELECT` with `rows` fabricated rows.
    pub fn result_bomb(rows: usize) -> Self {
        FaultProfile {
            bomb_rows: Some(rows),
            ..FaultProfile::none()
        }
    }

    /// Silently cap every plain `SELECT` at `cap` rows, `200 OK` (see
    /// [`silent_truncate`](Self::silent_truncate)).
    pub fn silent_truncate(cap: usize) -> Self {
        FaultProfile {
            silent_truncate: Some(cap),
            ..FaultProfile::none()
        }
    }

    /// Multiply every `COUNT` answer by `factor` (see
    /// [`miscount_factor`](Self::miscount_factor)).
    pub fn miscounts(factor: f64) -> Self {
        FaultProfile {
            miscount_factor: Some(factor),
            ..FaultProfile::none()
        }
    }
}

/// Retry/backoff budget and the simulated cost of a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyConfig {
    /// Additional attempts after the first, on injected transport faults.
    pub retries: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
    /// Wall-clock cost of one failed attempt (the time a real client
    /// would spend discovering the connection is dead).
    pub failure_latency: Duration,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for FaultyConfig {
    fn default() -> Self {
        FaultyConfig {
            retries: 2,
            backoff: Duration::from_millis(2),
            failure_latency: Duration::from_millis(5),
            breaker: BreakerConfig::default(),
        }
    }
}

/// In-tree SplitMix64 step (the `workloads` crate depends on this one, so
/// its generator cannot be imported here).
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub(crate) fn roll(state: &mut u64) -> f64 {
    (splitmix_next(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

struct FaultState {
    profile: FaultProfile,
    rng: u64,
    /// Attempts forwarded to the wrapped endpoint so far (drives
    /// [`FaultProfile::fail_after`]).
    served: u64,
}

/// A fault-injecting wrapper around another endpoint (see module docs).
pub struct FaultyEndpoint {
    inner: Arc<dyn SparqlEndpoint>,
    config: FaultyConfig,
    state: Mutex<FaultState>,
    health: EndpointHealth,
}

impl FaultyEndpoint {
    /// Wrap `inner`, injecting `profile` faults from the seeded stream.
    pub fn new(inner: Arc<dyn SparqlEndpoint>, seed: u64, profile: FaultProfile) -> Self {
        FaultyEndpoint::with_config(inner, seed, profile, FaultyConfig::default())
    }

    /// Wrap `inner` with explicit retry/breaker tuning.
    pub fn with_config(
        inner: Arc<dyn SparqlEndpoint>,
        seed: u64,
        profile: FaultProfile,
        config: FaultyConfig,
    ) -> Self {
        let health = EndpointHealth::new(config.breaker);
        FaultyEndpoint {
            inner,
            config,
            state: Mutex::new(FaultState {
                profile,
                rng: seed,
                served: 0,
            }),
            health,
        }
    }

    /// Replace the fault profile at runtime (e.g. clear faults so a chaos
    /// test can watch the breaker recover). Resets the served-attempt
    /// counter, so a fresh `fail_after` window starts from zero.
    pub fn set_faults(&self, profile: FaultProfile) {
        let mut state = self.lock_state();
        state.profile = profile;
        state.served = 0;
    }

    /// This wrapper's health registry snapshot (also available through
    /// [`SparqlEndpoint::health`]).
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.health.snapshot()
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Inflate a successful plain-`SELECT` result to the profile's bomb
    /// size, keeping the real header so the response stays well-shaped —
    /// the point is to flood the federator with *valid* rows. ASK and
    /// aggregate (COUNT) queries pass through so source selection and
    /// cardinality probes behave normally and execution reaches the
    /// subquery wave.
    fn maybe_bomb(&self, query: &Query, result: QueryResult) -> QueryResult {
        let Some(rows) = self.lock_state().profile.bomb_rows else {
            return result;
        };
        let QueryResult::Solutions(rel) = &result else {
            return result;
        };
        if !is_plain_select(query) || rel.vars().is_empty() {
            return result;
        }
        let vars = rel.vars().to_vec();
        let mut bomb = lusail_sparql::solution::Relation::new(vars.clone());
        for i in 0..rows {
            bomb.push(
                (0..vars.len())
                    .map(|c| {
                        Some(lusail_rdf::Term::iri(format!(
                            "http://bomb.example.org/r{i:08}/c{c}"
                        )))
                    })
                    .collect(),
            );
        }
        QueryResult::Solutions(bomb)
    }

    /// Apply the lying-endpoint profile knobs to a successful answer:
    /// silently cap plain-`SELECT` rows at `silent_truncate` (a clean
    /// `200 OK`, no error anywhere), and multiply `COUNT` aggregate
    /// answers by `miscount_factor`. Both are pure functions of the
    /// profile — no randomness — so they are trivially deterministic
    /// under `LUSAIL_CHAOS_SEED`.
    fn maybe_lie(&self, query: &Query, mut result: QueryResult) -> QueryResult {
        let profile = self.lock_state().profile;
        if let Some(cap) = profile.silent_truncate {
            // The probe's counts row survives any cap; its list rows
            // after it are cut as a capped endpoint cuts any answer.
            let cap = match &query.form {
                QueryForm::Select(s) if counts_then_lists(&s.pattern) => Some(cap.max(1)),
                _ => is_plain_select(query).then_some(cap),
            };
            if let (Some(cap), QueryResult::Solutions(rel)) = (cap, &mut result) {
                rel.rows_mut().truncate(cap);
            }
        }
        if let Some(factor) = profile.miscount_factor {
            if is_count_select(query) {
                if let QueryResult::Solutions(rel) = &mut result {
                    // One cell for a plain COUNT, one per pattern (and per
                    // vocabulary list) in the analysis probe's counts row:
                    // the endpoint lies in all of them. The list columns
                    // that row leaves unbound stay unbound.
                    for cell in rel.rows_mut().iter_mut().take(1).flatten() {
                        let Some(real) = cell.as_ref() else { continue };
                        let real = real.as_literal().and_then(|l| l.as_i64()).unwrap_or(0);
                        let lied = ((real as f64) * factor).round().max(0.0) as i64;
                        *cell = Some(lusail_rdf::Term::integer(lied));
                    }
                }
            }
        }
        result
    }

    /// Decide what happens to one attempt, consuming randomness under the
    /// lock so concurrent requests still draw a deterministic stream.
    fn next_fault(&self) -> InjectedFault {
        let mut state = self.lock_state();
        let p = state.profile;
        if p.hang {
            return InjectedFault::Hang;
        }
        if p.hard_down {
            return InjectedFault::Drop;
        }
        if let Some(limit) = p.fail_after {
            if state.served >= limit {
                return InjectedFault::Drop;
            }
        }
        if p.drop_rate > 0.0 && roll(&mut state.rng) < p.drop_rate {
            return InjectedFault::Drop;
        }
        if p.spike_rate > 0.0 && roll(&mut state.rng) < p.spike_rate {
            state.served += 1;
            return InjectedFault::Spike(p.spike);
        }
        state.served += 1;
        InjectedFault::None
    }

    /// One attempt: the next fault from the seeded stream, then — unless
    /// it dropped the attempt or outlived the budget — the wrapped
    /// endpoint's own answer.
    fn attempt(&self, query: &Query, deadline: &Deadline) -> Attempt<QueryResult> {
        match self.next_fault() {
            InjectedFault::None => {}
            InjectedFault::Spike(spike) => deadline.pause(spike),
            // Accepted, never answered. A wedged upstream does not honor
            // our time budget, so with a cancel token attached only the
            // token frees the slot — the query wedges right past its
            // deadline, which is precisely the failure the service watchdog
            // exists to reap. Without a token, the hard deadline is the
            // sole escape (an unbounded deadline really does hang — that is
            // the fault being modeled).
            InjectedFault::Hang => match deadline.token() {
                Some(token) => while token.wait_timeout(Duration::from_millis(20)).is_none() {},
                None => {
                    while !deadline.expired() {
                        deadline.pause(Duration::from_millis(20));
                    }
                }
            },
            InjectedFault::Drop => {
                deadline.pause(self.config.failure_latency);
                return Attempt::Failed("connection dropped (injected fault)".to_string());
            }
        }
        if deadline.expired() {
            return Attempt::Answered(Err(EndpointError::expired(self.name(), deadline)));
        }
        // The wrapped endpoint's own answer, failures included, passes
        // through with its kind intact: the wrapper *is* the transport.
        Attempt::Answered(self.inner.execute_within(query, deadline.clone()))
    }
}

enum InjectedFault {
    None,
    Spike(Duration),
    Drop,
    Hang,
}

/// A plain `SELECT` — not ASK, not an aggregate, not the analysis probe —
/// i.e. the query shapes carrying real subquery work.
fn is_plain_select(query: &Query) -> bool {
    match &query.form {
        QueryForm::Ask(_) => false,
        QueryForm::Select(s) => {
            matches!(s.projection, Projection::All | Projection::Vars(_))
                && !joins_only_counts(&s.pattern)
                && !counts_then_lists(&s.pattern)
        }
    }
}

/// A `SELECT (COUNT(…) AS ?v)` — the shape of the integrity layer's
/// verification queries — or a projection of such subselects, the shape of
/// the engine's one-row analysis probe, with or without its vocabulary
/// lists after the counts row.
fn is_count_select(query: &Query) -> bool {
    match &query.form {
        QueryForm::Ask(_) => false,
        QueryForm::Select(s) => match s.projection {
            Projection::Count { .. } => true,
            Projection::All | Projection::Vars(_) => {
                joins_only_counts(&s.pattern) || counts_then_lists(&s.pattern)
            }
            Projection::Aggregate { .. } => false,
        },
    }
}

/// `{ SELECT (COUNT(…) AS ?a) … } { SELECT (COUNT(…) AS ?b) … } …`
fn joins_only_counts(pattern: &GraphPattern) -> bool {
    match pattern {
        GraphPattern::SubSelect(s) => matches!(s.projection, Projection::Count { .. }),
        GraphPattern::Join(a, b) => joins_only_counts(a) && joins_only_counts(b),
        _ => false,
    }
}

/// `{ <counts> } UNION { { SELECT ?p (COUNT(*) AS ?n) … GROUP BY ?p } UNION
/// … }`: the analysis probe carrying an endpoint's vocabulary lists, each
/// term with its count, after its counts row.
fn counts_then_lists(pattern: &GraphPattern) -> bool {
    fn only_lists(pattern: &GraphPattern) -> bool {
        match pattern {
            GraphPattern::SubSelect(s) => {
                !s.group_by.is_empty() && matches!(s.projection, Projection::Aggregate { .. })
            }
            GraphPattern::Union(a, b) => only_lists(a) && only_lists(b),
            _ => false,
        }
    }
    matches!(pattern, GraphPattern::Union(a, b) if joins_only_counts(a) && only_lists(b))
}

impl SparqlEndpoint for FaultyEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<QueryResult, EndpointError> {
        let (retries, backoff) = (self.config.retries, self.config.backoff);
        let attempt = || self.attempt(query, &deadline);
        let result = self
            .health
            .run(self.name(), retries, backoff, &deadline, attempt)?;
        if self.lock_state().profile.panic_on_select && is_plain_select(query) {
            panic!("injected fault: endpoint panicked evaluating a SELECT");
        }
        Ok(self.maybe_lie(query, self.maybe_bomb(query, result)))
    }

    fn traffic(&self) -> TrafficSnapshot {
        self.inner.traffic()
    }

    fn reset_traffic(&self) {
        self.inner.reset_traffic();
    }

    fn health(&self) -> Option<HealthSnapshot> {
        Some(self.health.snapshot())
    }

    fn set_quarantined(&self, on: bool) {
        self.health.set_quarantined(on);
    }

    fn max_request_bytes(&self) -> Option<usize> {
        self.inner.max_request_bytes()
    }

    fn collect_stats(&self) -> Option<StoreStats> {
        self.inner.collect_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{FailureKind, SimulatedEndpoint};
    use crate::erh::BreakerState;
    use crate::network::NetworkProfile;
    use lusail_rdf::{Graph, Term};
    use lusail_sparql::parse_query;
    use lusail_store::Store;
    use std::time::Instant;

    fn wrapped(seed: u64, profile: FaultProfile, config: FaultyConfig) -> FaultyEndpoint {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://x/a"),
            Term::iri("http://x/p"),
            Term::iri("http://x/b"),
        );
        let inner = Arc::new(SimulatedEndpoint::new(
            "chaotic",
            Store::from_graph(&g),
            NetworkProfile::instant(),
        ));
        FaultyEndpoint::with_config(inner, seed, profile, config)
    }

    fn fast_config() -> FaultyConfig {
        FaultyConfig {
            retries: 2,
            backoff: Duration::from_millis(1),
            failure_latency: Duration::from_millis(1),
            breaker: BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(30),
                ewma_alpha: 0.2,
            },
        }
    }

    fn query() -> Query {
        parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap()
    }

    /// The engine's analysis probe: one row, one count per subselect (the
    /// wrapped store holds one `p` triple and no `q` triple).
    fn probe() -> Query {
        parse_query(
            "SELECT * WHERE { { SELECT (COUNT(*) AS ?c0) WHERE { ?s <http://x/p> ?o } } \
             { SELECT (COUNT(*) AS ?c1) WHERE { ?s <http://x/q> ?o } } }",
        )
        .unwrap()
    }

    /// The analysis probe with an endpoint's vocabulary lists after its
    /// counts row: one `p` predicate counted once, no class.
    fn probe_with_lists() -> Query {
        parse_query(
            "SELECT * WHERE { { { SELECT (COUNT(*) AS ?c0) WHERE { ?s <http://x/p> ?o } } \
             { SELECT (COUNT(*) AS ?np) WHERE { ?s ?p ?o } } } \
             UNION { { SELECT DISTINCT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p LIMIT 9 } \
             UNION { SELECT DISTINCT ?t (COUNT(*) AS ?m) WHERE { ?s a ?t } GROUP BY ?t LIMIT 9 } } }",
        )
        .unwrap()
    }

    fn integers(cells: &[i64]) -> Vec<Option<Term>> {
        cells.iter().map(|&n| Some(Term::integer(n))).collect()
    }

    #[test]
    fn no_faults_forwards_transparently() {
        let ep = wrapped(1, FaultProfile::none(), fast_config());
        assert_eq!(ep.select(&query()).unwrap().len(), 1);
        assert_eq!(ep.name(), "chaotic");
        let h = ep.health_snapshot();
        assert_eq!((h.requests, h.failures), (1, 0));
    }

    #[test]
    fn hard_down_burns_retries_then_opens_breaker() {
        let ep = wrapped(2, FaultProfile::hard_down(), fast_config());
        let err = ep.select(&query()).unwrap_err();
        assert_eq!(err.kind, FailureKind::Transport);
        assert!(err.message.contains("3 attempts"), "{err}");
        assert!(err.message.contains("dropped"), "{err}");
        // Threshold 3 was hit during those attempts: now failing fast.
        let err = ep.select(&query()).unwrap_err();
        assert_eq!(err.kind, FailureKind::CircuitOpen);
        assert_eq!(ep.health_snapshot().breaker, BreakerState::Open);
    }

    #[test]
    fn recovery_after_faults_clear() {
        let ep = wrapped(3, FaultProfile::hard_down(), fast_config());
        assert!(ep.select(&query()).is_err());
        assert_eq!(ep.health_snapshot().breaker, BreakerState::Open);
        ep.set_faults(FaultProfile::none());
        std::thread::sleep(Duration::from_millis(40));
        // Cooldown elapsed: the probe goes through and closes the breaker.
        assert_eq!(ep.select(&query()).unwrap().len(), 1);
        assert_eq!(ep.health_snapshot().breaker, BreakerState::Closed);
    }

    #[test]
    fn a_rejection_is_an_answer_that_closes_the_breaker() {
        // The half-open probe reaches a working endpoint that refuses the
        // request, as a 413 does on HTTP: the transport worked.
        let limited = SimulatedEndpoint::new(
            "limited",
            Store::from_graph(&Graph::new()),
            NetworkProfile::instant(),
        )
        .with_limits(crate::endpoint::EndpointLimits {
            max_request_bytes: Some(16),
            max_result_rows: None,
        });
        let ep = FaultyEndpoint::with_config(
            Arc::new(limited),
            14,
            FaultProfile::hard_down(),
            fast_config(),
        );
        assert!(ep.select(&query()).is_err());
        assert_eq!(ep.health_snapshot().breaker, BreakerState::Open);
        ep.set_faults(FaultProfile::none());
        std::thread::sleep(Duration::from_millis(40));
        let err = ep.select(&query()).unwrap_err();
        assert_eq!(err.kind, FailureKind::Rejected, "{err}");
        assert_eq!(ep.health_snapshot().breaker, BreakerState::Closed);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let profile = FaultProfile {
            drop_rate: 0.4,
            ..FaultProfile::none()
        };
        let observe = |seed: u64| -> Vec<bool> {
            let ep = wrapped(seed, profile, fast_config());
            (0..30).map(|_| ep.select(&query()).is_ok()).collect()
        };
        assert_eq!(observe(42), observe(42), "equal seeds must replay");
        assert_ne!(observe(42), observe(43), "different seeds must diverge");
    }

    #[test]
    fn latency_spikes_delay_but_succeed() {
        let ep = wrapped(
            5,
            FaultProfile {
                spike_rate: 1.0,
                spike: Duration::from_millis(25),
                ..FaultProfile::none()
            },
            fast_config(),
        );
        let started = Instant::now();
        assert_eq!(ep.select(&query()).unwrap().len(), 1);
        assert!(started.elapsed() >= Duration::from_millis(25));
        // A spike that outlives the query budget turns into a deadline
        // error instead of stalling the full spike.
        let started = Instant::now();
        let err = ep
            .select_within(&query(), Deadline::within(Duration::from_millis(5)))
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::Deadline);
        assert!(started.elapsed() < Duration::from_millis(25));
    }

    #[test]
    fn fail_after_kills_the_endpoint_at_a_deterministic_point() {
        let ep = wrapped(7, FaultProfile::dies_after(3), fast_config());
        for _ in 0..3 {
            assert_eq!(ep.select(&query()).unwrap().len(), 1);
        }
        let err = ep.select(&query()).unwrap_err();
        assert_eq!(err.kind, FailureKind::Transport);
        assert!(err.message.contains("dropped"), "{err}");
        // Clearing the faults resets the served window.
        ep.set_faults(FaultProfile::dies_after(1));
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(ep.select(&query()).unwrap().len(), 1);
        assert!(ep.select(&query()).is_err());
    }

    #[test]
    fn result_bomb_inflates_selects_but_spares_ask_and_count() {
        let ep = wrapped(8, FaultProfile::result_bomb(5000), fast_config());
        let rel = ep.select(&query()).unwrap();
        assert_eq!(rel.len(), 5000, "SELECT must get the fabricated flood");
        assert_eq!(rel.vars().len(), 1, "the real header is preserved");
        assert!(
            rel.rows()[0][0]
                .as_ref()
                .and_then(|t| t.as_iri())
                .unwrap()
                .starts_with("http://bomb.example.org/"),
            "bomb rows are fabricated"
        );
        // Deterministic: the same row is fabricated every time.
        assert_eq!(ep.select(&query()).unwrap().rows()[0], rel.rows()[0]);

        // ASK probes (source selection) answer truthfully.
        let ask = parse_query("ASK WHERE { ?s <http://x/p> ?o }").unwrap();
        assert!(ep.ask(&ask).unwrap());
        // COUNT probes (cardinality estimation) answer truthfully.
        let count = parse_query("SELECT (COUNT(*) AS ?c) WHERE { ?s <http://x/p> ?o }").unwrap();
        let counted = ep.select(&count).unwrap();
        assert_eq!(counted.len(), 1, "aggregates must not be bombed");
        // So does the batched analysis probe, which is a projection of them.
        assert_eq!(ep.select(&probe()).unwrap().rows(), [integers(&[1, 0])]);
    }

    #[test]
    fn silent_truncate_caps_selects_but_answers_counts_truthfully() {
        let ep = wrapped(11, FaultProfile::silent_truncate(0), fast_config());
        // A clean 200 OK with zero rows — no error anywhere to catch.
        assert_eq!(ep.select(&query()).unwrap().len(), 0);
        // ASK and COUNT pass through truthfully: the honest COUNT is the
        // signal the integrity layer uses to detect the truncation.
        let ask = parse_query("ASK WHERE { ?s <http://x/p> ?o }").unwrap();
        assert!(ep.ask(&ask).unwrap());
        let count = parse_query("SELECT (COUNT(*) AS ?c) WHERE { ?s <http://x/p> ?o }").unwrap();
        assert_eq!(ep.count(&count).unwrap(), 1);
        // Even a cap of zero leaves the analysis probe its one row.
        assert_eq!(ep.select(&probe()).unwrap().rows(), [integers(&[1, 0])]);
        // A cap above the result size leaves it untouched; deterministic.
        let ep = wrapped(11, FaultProfile::silent_truncate(5), fast_config());
        assert_eq!(ep.select(&query()).unwrap().len(), 1);
        assert_eq!(
            ep.health_snapshot().failures,
            0,
            "200 OK means no breaker strikes"
        );
    }

    #[test]
    fn miscounts_inflates_counts_but_answers_selects_truthfully() {
        let ep = wrapped(12, FaultProfile::miscounts(20.0), fast_config());
        // SELECTs deliver the real single row.
        assert_eq!(ep.select(&query()).unwrap().len(), 1);
        // COUNT claims 20× the truth, twice in a row (deterministic).
        let count = parse_query("SELECT (COUNT(*) AS ?c) WHERE { ?s <http://x/p> ?o }").unwrap();
        assert_eq!(ep.count(&count).unwrap(), 20);
        assert_eq!(ep.count(&count).unwrap(), 20);
        // The analysis probe is lied to in every cell.
        assert_eq!(ep.select(&probe()).unwrap().rows(), [integers(&[20, 0])]);
        let h = ep.health_snapshot();
        assert_eq!(h.failures, 0, "a lying endpoint never trips the breaker");
    }

    #[test]
    fn the_probe_with_lists_is_lied_to_in_its_counts_row_and_cut_after_it() {
        let p = Some(Term::iri("http://x/p"));
        let answer = |profile| {
            let ep = wrapped(15, profile, fast_config());
            ep.select(&probe_with_lists()).unwrap().rows().to_vec()
        };
        let integer = |n| Some(Term::integer(n));
        let counts = |c0, np| vec![integer(c0), integer(np), None, None, None, None];
        let listed = vec![None, None, p, integer(1), None, None];
        let truthful = vec![counts(1, 1), listed.clone()];
        assert_eq!(answer(FaultProfile::none()), truthful);
        // The lie is in every count of the counts row; the list row keeps
        // its true count, so the list no longer sums to the lied total, and
        // the unbound list cells of the counts row stay unbound.
        assert_eq!(
            answer(FaultProfile::miscounts(20.0)),
            [counts(20, 20), listed]
        );
        // A cap keeps the counts row and cuts the lists after it.
        assert_eq!(answer(FaultProfile::silent_truncate(0)), [counts(1, 1)]);
        assert_eq!(answer(FaultProfile::silent_truncate(2)), truthful);
        // It is a probe, not subquery work: never bombed, never panicked on.
        assert_eq!(answer(FaultProfile::result_bomb(50)), truthful);
        assert_eq!(answer(FaultProfile::panics_on_select()), truthful);
    }

    #[test]
    fn quarantine_flag_round_trips_through_health() {
        let ep = wrapped(13, FaultProfile::none(), fast_config());
        assert!(!ep.health().unwrap().quarantined);
        ep.set_quarantined(true);
        assert!(ep.health().unwrap().quarantined);
        ep.set_quarantined(false);
        assert!(!ep.health().unwrap().quarantined);
    }

    #[test]
    fn hang_blocks_until_deadline_or_cancel() {
        use crate::cancel::{CancelReason, CancelToken};
        let ep = Arc::new(wrapped(9, FaultProfile::hang(), fast_config()));
        // Token-less: the hard time deadline is the only escape.
        let started = Instant::now();
        let err = ep
            .select_within(&query(), Deadline::within(Duration::from_millis(40)))
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::Deadline);
        assert!(started.elapsed() >= Duration::from_millis(40));
        // With a token attached the wedge ignores the clock: the call is
        // still blocked well past its deadline, and only the token frees
        // it — with the cancellation, not a timeout, as the verdict.
        let token = CancelToken::new();
        let deadline = Deadline::within(Duration::from_millis(40)).with_token(token.clone());
        let hung = std::thread::spawn({
            let ep = Arc::clone(&ep);
            move || ep.select_within(&query(), deadline).unwrap_err()
        });
        std::thread::sleep(Duration::from_millis(150));
        assert!(
            !hung.is_finished(),
            "a wedged endpoint must outlive its time deadline"
        );
        token.cancel(CancelReason::AdminCancelled);
        let err = hung.join().unwrap();
        assert_eq!(err.kind, FailureKind::Cancelled);
    }

    #[test]
    fn injected_panic_fires_on_select_but_spares_probes() {
        let ep = wrapped(10, FaultProfile::panics_on_select(), fast_config());
        // Analysis probes pass through untouched.
        let ask = parse_query("ASK WHERE { ?s <http://x/p> ?o }").unwrap();
        assert!(ep.ask(&ask).unwrap());
        let count = parse_query("SELECT (COUNT(*) AS ?c) WHERE { ?s <http://x/p> ?o }").unwrap();
        assert_eq!(ep.select(&count).unwrap().len(), 1);
        assert_eq!(ep.select(&probe()).unwrap().len(), 1);
        // The real subquery panics.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ep.select(&query())));
        assert!(caught.is_err(), "plain SELECT must panic");
    }
}
