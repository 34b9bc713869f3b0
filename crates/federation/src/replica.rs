//! Replica groups: N equivalent transports behind one [`SparqlEndpoint`].
//!
//! Real federations replicate fragments across mirrors (Montoya et al.,
//! "Efficient Query Processing for SPARQL Federations with Replicated
//! Fragments"), and endpoint instability is the dominant failure mode in
//! practice (Schwarte et al., FedX experience report). [`ReplicaGroup`]
//! makes a set of member endpoints — simulated, HTTP, or fault-injected —
//! look like one endpoint that survives its members:
//!
//! * **Selection.** Each request goes to the *preferred* member: members
//!   are ranked by circuit-breaker state (closed < half-open < open), then
//!   latency EWMA, then index — a pure function of the members'
//!   [`EndpointHealth`](crate::erh::EndpointHealth) snapshots, so selection
//!   is deterministic for a fixed health state (see [`rank_members`]).
//! * **Failover.** On a transport error or an open circuit, the request is
//!   transparently re-dispatched to the next-ranked member, with the
//!   caller's deadline still enforced and a per-request
//!   [`failover budget`](ReplicaConfig::failover_budget) so a fully dead
//!   group fails fast with a structured error naming every member tried.
//!   This loop runs over members; each member retries first in its own
//!   transport's attempt loop ([`crate::erh::EndpointHealth::run`]).
//!   `Rejected` and `Deadline` failures propagate immediately — an
//!   equivalent replica would reject the same request, and an expired
//!   budget is the query's fault, not the member's.
//! * **Hedging.** For idempotent requests (see [`hedge_safe`]), once the
//!   preferred member has been silent for
//!   [`hedge_after`](ReplicaConfig::hedge_after), one duplicate is launched
//!   on the second-best member and the first success wins. At most one
//!   duplicate is ever launched, bounding request amplification at 2×; the
//!   losing attempt's result is discarded (its lifetime is bounded by the
//!   same deadline, and queued work it would have spawned is cancelled by
//!   the ERH's deadline-aware `map_cancellable`).
//!
//! Members are assumed *equivalent*: same data, same answer for the same
//! request. The group never merges results across members — it picks one
//! answer — so a stale replica returns stale rows, not corrupt ones.

use crate::endpoint::{EndpointError, FailureKind, SelectResponse, SparqlEndpoint};
use crate::erh::{BreakerState, Deadline, HealthSnapshot};
use crate::json::Json;
use crate::network::TrafficSnapshot;
use lusail_sparql::ast::{GraphPattern, Query, QueryForm};
use lusail_store::eval::QueryResult;
use lusail_store::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Replica-group tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Maximum *additional* members a request may be re-dispatched to
    /// after its first attempt fails. `0` disables failover entirely.
    pub failover_budget: u32,
    /// After this long without an answer from the preferred member, launch
    /// one duplicate on the second-best member and take the first success.
    /// `None` disables hedging. Only idempotent requests (no `VALUES`
    /// blocks — see [`hedge_safe`]) are ever hedged.
    pub hedge_after: Option<Duration>,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            failover_budget: 3,
            hedge_after: None,
        }
    }
}

/// Per-member replica counters, exposed through `lusail query --stats` so
/// operators can see which replica is carrying the group.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaMemberSnapshot {
    /// The member endpoint's name.
    pub name: String,
    /// Requests dispatched to this member (first tries, failovers, and
    /// hedge duplicates).
    pub dispatches: u64,
    /// Dispatches that were failover re-dispatches (a sibling failed
    /// first).
    pub failovers: u64,
    /// Hedge duplicates launched on this member.
    pub hedges_launched: u64,
    /// Hedge duplicates on this member that won their race.
    pub hedges_won: u64,
    /// The member transport's own health registry snapshot.
    pub health: Option<HealthSnapshot>,
}

impl ReplicaMemberSnapshot {
    /// One row of a group's `members` stats table (keyed by `name`): the
    /// replica counters, then the member's own health columns.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("dispatches", self.dispatches.into()),
            ("failovers", self.failovers.into()),
            ("hedges_launched", self.hedges_launched.into()),
            ("hedges_won", self.hedges_won.into()),
        ])
        .merge(self.health.map_or(Json::Null, |h| h.to_json()))
    }
}

/// Group-level totals (sums of the member counters plus the logical
/// request count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaGroupStats {
    /// Logical requests the group accepted.
    pub logical_requests: u64,
    /// Total member dispatches (≥ logical; the ratio is the group's
    /// request amplification, ≤ 2 when only hedging fires).
    pub dispatches: u64,
    /// Failover re-dispatches taken.
    pub failovers: u64,
    /// Hedge duplicates launched.
    pub hedges_launched: u64,
    /// Hedge duplicates that won.
    pub hedges_won: u64,
}

#[derive(Default)]
struct MemberCounters {
    dispatches: AtomicU64,
    failovers: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
}

/// Rank member indices by health: closed breakers before half-open before
/// open; within each breaker class, integrity-quarantined members after
/// trusted ones (a quarantined endpoint is up but untrustworthy — still
/// usable, never preferred); then by latency EWMA (fresh members, with no
/// samples, report zero and sort first), then by index. A pure function of
/// the snapshots, so replica selection is deterministic for a fixed health
/// state.
pub fn rank_members(health: &[Option<HealthSnapshot>]) -> Vec<usize> {
    fn breaker_rank(b: BreakerState) -> u8 {
        match b {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
    let mut order: Vec<usize> = (0..health.len()).collect();
    order.sort_by_key(|&i| match &health[i] {
        Some(h) => (
            breaker_rank(h.breaker),
            h.quarantined as u8,
            h.latency_ewma.as_nanos(),
            i,
        ),
        None => (0, 0, 0, i),
    });
    order
}

/// Whether a query is safe to hedge: duplicating a request is only allowed
/// for plain read patterns. Bound-join requests (`VALUES` blocks anywhere
/// in the pattern) are excluded — they are the large, endpoint-straining
/// requests whose duplication doubles exactly the load the paper's
/// Table 2 shows endpoints rejecting, so they are not considered safe to
/// repeat speculatively.
pub fn hedge_safe(query: &Query) -> bool {
    fn pattern_safe(p: &GraphPattern) -> bool {
        match p {
            GraphPattern::Values(..) => false,
            GraphPattern::Bgp(_) => true,
            GraphPattern::Join(a, b)
            | GraphPattern::LeftJoin(a, b)
            | GraphPattern::Union(a, b)
            | GraphPattern::Minus(a, b) => pattern_safe(a) && pattern_safe(b),
            GraphPattern::Filter(a, _) | GraphPattern::Bind(a, _, _) => pattern_safe(a),
            GraphPattern::SubSelect(s) => pattern_safe(&s.pattern),
        }
    }
    match &query.form {
        QueryForm::Select(s) => pattern_safe(&s.pattern),
        QueryForm::Ask(p) => pattern_safe(p),
    }
}

/// A member's answer with its truncation advertisement: the flag stays
/// with the answer that wins, whichever member gave it.
type Answer = (QueryResult, bool);

/// One request to one member. A `SELECT` goes through the member's
/// `select_with_meta`, the only call that reports an advertised cut.
fn ask_member(
    member: &dyn SparqlEndpoint,
    query: &Query,
    deadline: Deadline,
) -> Result<Answer, EndpointError> {
    match &query.form {
        QueryForm::Select(_) => {
            let response = member.select_with_meta(query, deadline)?;
            Ok((QueryResult::Solutions(response.rows), response.truncated))
        }
        QueryForm::Ask(_) => Ok((member.execute_within(query, deadline)?, false)),
    }
}

/// One endpoint backed by N equivalent member transports (see module docs).
pub struct ReplicaGroup {
    name: String,
    members: Vec<Arc<dyn SparqlEndpoint>>,
    config: ReplicaConfig,
    counters: Vec<MemberCounters>,
    logical_requests: AtomicU64,
}

impl ReplicaGroup {
    /// Group `members` under one name. Panics on an empty member list (a
    /// group with nothing behind it is a configuration error).
    pub fn new(
        name: impl Into<String>,
        members: Vec<Arc<dyn SparqlEndpoint>>,
        config: ReplicaConfig,
    ) -> Self {
        assert!(
            !members.is_empty(),
            "replica group needs at least one member"
        );
        let counters = members.iter().map(|_| MemberCounters::default()).collect();
        ReplicaGroup {
            name: name.into(),
            members,
            config,
            counters,
            logical_requests: AtomicU64::new(0),
        }
    }

    /// The member endpoints, in declaration order.
    pub fn members(&self) -> &[Arc<dyn SparqlEndpoint>] {
        &self.members
    }

    /// The group's tuning.
    pub fn config(&self) -> ReplicaConfig {
        self.config
    }

    /// Group-level totals.
    pub fn stats(&self) -> ReplicaGroupStats {
        let mut s = ReplicaGroupStats {
            logical_requests: self.logical_requests.load(Ordering::Relaxed),
            ..Default::default()
        };
        for c in &self.counters {
            s.dispatches += c.dispatches.load(Ordering::Relaxed);
            s.failovers += c.failovers.load(Ordering::Relaxed);
            s.hedges_launched += c.hedges_launched.load(Ordering::Relaxed);
            s.hedges_won += c.hedges_won.load(Ordering::Relaxed);
        }
        s
    }

    /// Member indices in current preference order.
    fn ranked(&self) -> Vec<usize> {
        let health: Vec<Option<HealthSnapshot>> = self.members.iter().map(|m| m.health()).collect();
        rank_members(&health)
    }

    /// Dispatch to one member, counting it.
    fn dispatch(
        &self,
        member: usize,
        query: &Query,
        deadline: &Deadline,
        is_failover: bool,
    ) -> Result<Answer, EndpointError> {
        self.counters[member]
            .dispatches
            .fetch_add(1, Ordering::Relaxed);
        if is_failover {
            self.counters[member]
                .failovers
                .fetch_add(1, Ordering::Relaxed);
        }
        ask_member(self.members[member].as_ref(), query, deadline.clone())
    }

    /// The structured "everything failed" error naming every member tried.
    fn all_failed(&self, tried: &[(String, String)], untried: usize) -> EndpointError {
        let detail: Vec<String> = tried
            .iter()
            .map(|(name, msg)| format!("{name}: {msg}"))
            .collect();
        let budget_note = if untried > 0 {
            format!(" (failover budget exhausted with {untried} member(s) untried)")
        } else {
            String::new()
        };
        EndpointError::transport(
            &self.name,
            format!(
                "all {} replica member(s) tried failed{budget_note}: {}",
                tried.len(),
                detail.join("; ")
            ),
        )
    }

    /// Hedged first attempt: dispatch to `primary`; if it is still silent
    /// after the hedge delay, duplicate on `secondary` and take the first
    /// success. Returns `Err(tried)` with both members' failures when
    /// neither succeeds (terminal failures short-circuit as `Err` of the
    /// outer result).
    #[allow(clippy::type_complexity)]
    fn hedged_pair(
        &self,
        primary: usize,
        secondary: usize,
        query: &Query,
        deadline: &Deadline,
    ) -> Result<Result<Answer, Vec<(String, String)>>, EndpointError> {
        let hedge_after = self
            .config
            .hedge_after
            .expect("hedged_pair called without hedge_after");
        let (tx, rx) = mpsc::channel::<(usize, Result<Answer, EndpointError>)>();
        let launch = |member: usize| {
            let ep = Arc::clone(&self.members[member]);
            let q = query.clone();
            let tx = tx.clone();
            let deadline = deadline.clone();
            std::thread::spawn(move || {
                let r = ask_member(ep.as_ref(), &q, deadline);
                // The receiver is gone once a sibling won; the loser's
                // result is deliberately dropped.
                let _ = tx.send((member, r));
            });
        };

        self.counters[primary]
            .dispatches
            .fetch_add(1, Ordering::Relaxed);
        launch(primary);

        // We keep a sender alive, so the loop terminates on the
        // `outstanding` count, never on channel disconnection.
        let mut failures: Vec<(String, String)> = Vec::new();
        let mut outstanding = 1usize;
        let mut hedged = false;
        loop {
            let received = if hedged {
                // Bounded slices instead of an unconditional recv(): a
                // cancelled query stops waiting on its in-flight attempts
                // within one slice instead of blocking until a loser
                // thread reports in.
                loop {
                    match rx.recv_timeout(Duration::from_millis(100)) {
                        Ok(v) => break Some(v),
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if deadline.expired() {
                                return Err(EndpointError::expired(&self.name, deadline));
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => break None,
                    }
                }
            } else {
                match rx.recv_timeout(deadline.clamp(hedge_after)) {
                    Ok(v) => Some(v),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // The preferred member is slow: launch the one
                        // allowed duplicate (unless the query budget is
                        // already gone, in which case keep waiting — the
                        // in-flight attempt clamps to the same deadline).
                        if !deadline.expired() {
                            self.counters[secondary]
                                .dispatches
                                .fetch_add(1, Ordering::Relaxed);
                            self.counters[secondary]
                                .hedges_launched
                                .fetch_add(1, Ordering::Relaxed);
                            launch(secondary);
                            outstanding += 1;
                        }
                        hedged = true;
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => None,
                }
            };
            let Some((member, result)) = received else {
                // All attempt threads are gone without a success.
                break;
            };
            outstanding -= 1;
            match result {
                Ok(v) => {
                    if hedged && member == secondary {
                        self.counters[secondary]
                            .hedges_won
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(Ok(v));
                }
                Err(e) if e.kind == FailureKind::Rejected => {
                    // An equivalent replica would reject the same request.
                    return Err(e);
                }
                Err(e) if matches!(e.kind, FailureKind::Deadline | FailureKind::Cancelled) => {
                    return Err(EndpointError::expired(&self.name, deadline));
                }
                Err(e) => {
                    failures.push((self.members[member].name().to_string(), e.message));
                    if outstanding == 0 {
                        break;
                    }
                }
            }
        }
        Ok(Err(failures))
    }

    /// One logical request: the preferred member, hedged when allowed,
    /// then failover down the ranking within the budget.
    fn request(&self, query: &Query, deadline: Deadline) -> Result<Answer, EndpointError> {
        self.logical_requests.fetch_add(1, Ordering::Relaxed);
        if deadline.expired() {
            return Err(EndpointError::expired(&self.name, &deadline));
        }
        let order = self.ranked();
        let mut tried: Vec<(String, String)> = Vec::new();
        // Members the failover budget allows us to reach (first try + up
        // to `failover_budget` re-dispatches). The hedge duplicate is not
        // a failover: it targets a member the budget already covers when
        // possible, and is bounded to one per request regardless.
        let allowed = order.len().min(self.config.failover_budget as usize + 1);
        let mut next = 0usize;

        // First attempt, hedged when configured, safe, and a second
        // member exists to hedge onto.
        if self.config.hedge_after.is_some() && order.len() >= 2 && hedge_safe(query) {
            match self.hedged_pair(order[0], order[1], query, &deadline)? {
                Ok(v) => return Ok(v),
                Err(failures) => {
                    // Both the primary and (if launched) the hedge failed.
                    // The secondary consumed one failover slot: its answer
                    // was demanded after the primary's failure.
                    next = 1 + failures
                        .iter()
                        .filter(|(n, _)| n == self.members[order[1]].name())
                        .count();
                    tried.extend(failures);
                }
            }
        }

        while next < allowed {
            if deadline.expired() {
                return Err(EndpointError::expired(&self.name, &deadline));
            }
            let member = order[next];
            let is_failover = next > 0 || !tried.is_empty();
            match self.dispatch(member, query, &deadline, is_failover) {
                Ok(v) => return Ok(v),
                Err(e) if matches!(e.kind, FailureKind::Deadline | FailureKind::Cancelled) => {
                    return Err(EndpointError::expired(&self.name, &deadline));
                }
                // The member, not the request, is at fault: try the next.
                Err(e) if e.is_skippable() => {
                    tried.push((self.members[member].name().to_string(), e.message));
                }
                Err(e) => return Err(e),
            }
            next += 1;
        }
        Err(self.all_failed(&tried, order.len() - tried.len()))
    }
}

impl SparqlEndpoint for ReplicaGroup {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<QueryResult, EndpointError> {
        Ok(self.request(query, deadline)?.0)
    }

    fn select_with_meta(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<SelectResponse, EndpointError> {
        let (result, truncated) = self.request(query, deadline)?;
        Ok(SelectResponse {
            rows: result.into_solutions(),
            truncated,
        })
    }

    /// The verdict is about the data, which every member mirrors: each
    /// member's health registry takes it, so ranking and `--stats` see it.
    fn set_quarantined(&self, on: bool) {
        for m in &self.members {
            m.set_quarantined(on);
        }
    }

    fn traffic(&self) -> TrafficSnapshot {
        self.members
            .iter()
            .map(|m| m.traffic())
            .fold(TrafficSnapshot::default(), TrafficSnapshot::merge)
    }

    fn reset_traffic(&self) {
        for m in &self.members {
            m.reset_traffic();
        }
    }

    /// Codec counters summed across members; `None` when no member
    /// transport negotiates a codec (e.g. all simulated).
    fn codec(&self) -> Option<crate::network::CodecSnapshot> {
        let snapshots: Vec<_> = self.members.iter().filter_map(|m| m.codec()).collect();
        if snapshots.is_empty() {
            return None;
        }
        Some(
            snapshots
                .into_iter()
                .fold(Default::default(), crate::network::CodecSnapshot::merge),
        )
    }

    /// A merged view: counters summed across members, breaker state and
    /// latency taken from the currently preferred member.
    fn health(&self) -> Option<HealthSnapshot> {
        let preferred = *self.ranked().first()?;
        let mut merged = self.members[preferred].health()?;
        for (i, m) in self.members.iter().enumerate() {
            if i == preferred {
                continue;
            }
            if let Some(h) = m.health() {
                merged.requests += h.requests;
                merged.failures += h.failures;
                merged.retries += h.retries;
                merged.open_rejections += h.open_rejections;
            }
        }
        Some(merged)
    }

    fn replica_members(&self) -> Option<Vec<ReplicaMemberSnapshot>> {
        Some(
            self.members
                .iter()
                .zip(&self.counters)
                .map(|(m, c)| ReplicaMemberSnapshot {
                    name: m.name().to_string(),
                    dispatches: c.dispatches.load(Ordering::Relaxed),
                    failovers: c.failovers.load(Ordering::Relaxed),
                    hedges_launched: c.hedges_launched.load(Ordering::Relaxed),
                    hedges_won: c.hedges_won.load(Ordering::Relaxed),
                    health: m.health(),
                })
                .collect(),
        )
    }

    /// Any member may serve a request, so the group carries only what its
    /// most limited member does.
    fn max_request_bytes(&self) -> Option<usize> {
        self.members
            .iter()
            .filter_map(|m| m.max_request_bytes())
            .min()
    }

    fn collect_stats(&self) -> Option<StoreStats> {
        self.members.iter().find_map(|m| m.collect_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::SimulatedEndpoint;
    use crate::erh::BreakerConfig;
    use crate::fault::{FaultProfile, FaultyConfig, FaultyEndpoint};
    use crate::network::NetworkProfile;
    use lusail_rdf::{Graph, Term};
    use lusail_sparql::ast::{TermPattern, TriplePattern, Variable};
    use lusail_sparql::parse_query;
    use lusail_store::Store;
    use std::time::Instant;

    fn graph() -> Graph {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://x/a"),
            Term::iri("http://x/p"),
            Term::iri("http://x/b"),
        );
        g
    }

    fn sim(name: &str, profile: NetworkProfile) -> Arc<dyn SparqlEndpoint> {
        Arc::new(SimulatedEndpoint::new(
            name,
            Store::from_graph(&graph()),
            profile,
        ))
    }

    fn dead(name: &str) -> Arc<dyn SparqlEndpoint> {
        let inner = Arc::new(SimulatedEndpoint::new(
            name,
            Store::from_graph(&graph()),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>;
        Arc::new(FaultyEndpoint::with_config(
            inner,
            7,
            FaultProfile::hard_down(),
            FaultyConfig {
                retries: 0,
                backoff: Duration::ZERO,
                failure_latency: Duration::from_micros(100),
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_secs(30),
                    ewma_alpha: 0.2,
                },
            },
        ))
    }

    fn query() -> Query {
        parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap()
    }

    /// In-tree SplitMix64 step for the seeded property loops.
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chaos_seed() -> u64 {
        std::env::var("LUSAIL_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    #[test]
    fn healthy_group_serves_from_preferred_member() {
        let g = ReplicaGroup::new(
            "grp",
            vec![
                sim("m0", NetworkProfile::instant()),
                sim("m1", NetworkProfile::instant()),
            ],
            ReplicaConfig::default(),
        );
        assert_eq!(g.select(&query()).unwrap().len(), 1);
        let members = g.replica_members().unwrap();
        assert_eq!(members[0].dispatches, 1, "preferred member serves");
        assert_eq!(members[1].dispatches, 0);
        assert_eq!(g.stats().failovers, 0);
    }

    #[test]
    fn dead_preferred_member_fails_over_transparently() {
        let g = ReplicaGroup::new(
            "grp",
            vec![dead("m0"), sim("m1", NetworkProfile::instant())],
            ReplicaConfig::default(),
        );
        // Every call succeeds despite m0 being hard-down.
        for _ in 0..4 {
            assert_eq!(g.select(&query()).unwrap().len(), 1);
        }
        let s = g.stats();
        assert_eq!(s.logical_requests, 4);
        assert!(s.failovers >= 1, "{s:?}");
        // Once m0's breaker opens, ranking prefers m1 and failovers stop.
        let members = g.replica_members().unwrap();
        assert_eq!(members[1].dispatches, 4);
        assert!(
            members[0].dispatches < 4,
            "open breaker must stop first-try dispatches to the dead member: {members:?}"
        );
    }

    #[test]
    fn fully_dead_group_names_every_member_tried() {
        let g = ReplicaGroup::new(
            "grp",
            vec![dead("m0"), dead("m1"), dead("m2")],
            ReplicaConfig {
                failover_budget: 8,
                hedge_after: None,
            },
        );
        let err = g.select(&query()).unwrap_err();
        assert_eq!(err.endpoint, "grp");
        assert_eq!(err.kind, FailureKind::Transport);
        for m in ["m0", "m1", "m2"] {
            assert!(err.message.contains(m), "error must name {m}: {err}");
        }
    }

    #[test]
    fn failover_budget_bounds_dispatches_and_is_reported() {
        let g = ReplicaGroup::new(
            "grp",
            vec![dead("m0"), dead("m1"), dead("m2"), dead("m3")],
            ReplicaConfig {
                failover_budget: 1,
                hedge_after: None,
            },
        );
        let err = g.select(&query()).unwrap_err();
        assert!(err.message.contains("budget exhausted"), "{err}");
        let s = g.stats();
        assert_eq!(s.dispatches, 2, "budget 1 = first try + one failover");
        assert_eq!(s.failovers, 1);
    }

    #[test]
    fn deadline_propagates_as_group_deadline() {
        let g = ReplicaGroup::new(
            "grp",
            vec![sim("m0", NetworkProfile::instant())],
            ReplicaConfig::default(),
        );
        let err = g
            .select_within(&query(), Deadline::within(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::Deadline);
        assert_eq!(err.endpoint, "grp");
    }

    #[test]
    fn hedge_launches_on_slow_member_and_second_best_wins() {
        let slow = NetworkProfile {
            latency: Duration::from_millis(60),
            bytes_per_sec: u64::MAX,
        };
        let g = ReplicaGroup::new(
            "grp",
            vec![sim("slow", slow), sim("fast", NetworkProfile::instant())],
            ReplicaConfig {
                failover_budget: 1,
                hedge_after: Some(Duration::from_millis(5)),
            },
        );
        let started = Instant::now();
        assert_eq!(g.select(&query()).unwrap().len(), 1);
        assert!(
            started.elapsed() < Duration::from_millis(55),
            "hedge must beat the slow member: {:?}",
            started.elapsed()
        );
        let s = g.stats();
        assert_eq!(s.hedges_launched, 1);
        assert_eq!(s.hedges_won, 1);
        assert!(s.dispatches <= 2 * s.logical_requests, "{s:?}");
        let members = g.replica_members().unwrap();
        assert_eq!(members[1].hedges_won, 1);
    }

    #[test]
    fn values_requests_are_never_hedged() {
        let slow = NetworkProfile {
            latency: Duration::from_millis(30),
            bytes_per_sec: u64::MAX,
        };
        let g = ReplicaGroup::new(
            "grp",
            vec![sim("slow", slow), sim("fast", NetworkProfile::instant())],
            ReplicaConfig {
                failover_budget: 1,
                hedge_after: Some(Duration::from_millis(2)),
            },
        );
        // A bound-join-shaped request: BGP joined with a VALUES block.
        let bgp = GraphPattern::Bgp(vec![TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::iri("http://x/p"),
            TermPattern::var("o"),
        )]);
        let values = GraphPattern::Values(
            vec![Variable::new("s")],
            vec![vec![Some(Term::iri("http://x/a"))]],
        );
        let q = Query::select(lusail_sparql::ast::SelectQuery::new(
            lusail_sparql::ast::Projection::All,
            bgp.join(values),
        ));
        assert!(!hedge_safe(&q));
        assert_eq!(g.select(&q).unwrap().len(), 1);
        let s = g.stats();
        assert_eq!(s.hedges_launched, 0, "VALUES requests must not be hedged");
        assert_eq!(s.dispatches, 1);
    }

    #[test]
    fn hedge_safe_classifies_plain_queries() {
        assert!(hedge_safe(&query()));
        assert!(hedge_safe(
            &parse_query("ASK { ?s <http://x/p> ?o }").unwrap()
        ));
        let with_values =
            parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o VALUES ?s { <http://x/a> } }")
                .unwrap();
        assert!(!hedge_safe(&with_values));
    }

    #[test]
    fn rank_prefers_closed_then_fast_then_index() {
        let snap = |breaker: BreakerState, micros: u64| {
            Some(HealthSnapshot {
                requests: 1,
                failures: 0,
                retries: 0,
                open_rejections: 0,
                breaker,
                latency_ewma: Duration::from_micros(micros),
                quarantined: false,
            })
        };
        let health = vec![
            snap(BreakerState::Open, 10),
            snap(BreakerState::Closed, 500),
            snap(BreakerState::Closed, 100),
            snap(BreakerState::HalfOpen, 1),
            None,
        ];
        // None ranks as closed/zero-latency, ahead of measured members.
        assert_eq!(rank_members(&health), vec![4, 2, 1, 3, 0]);
    }

    #[test]
    fn rank_demotes_quarantined_below_healthy_but_above_half_open() {
        let snap = |breaker: BreakerState, micros: u64, quarantined: bool| {
            Some(HealthSnapshot {
                requests: 1,
                failures: 0,
                retries: 0,
                open_rejections: 0,
                breaker,
                latency_ewma: Duration::from_micros(micros),
                quarantined,
            })
        };
        let health = vec![
            snap(BreakerState::Closed, 1, true),    // fastest, but lying
            snap(BreakerState::Closed, 900, false), // slow and honest wins
            snap(BreakerState::HalfOpen, 1, false),
            snap(BreakerState::Open, 1, false),
        ];
        // Quarantine demotes below every healthy closed member, but a
        // lying-yet-up endpoint still beats breaker-degraded ones.
        assert_eq!(rank_members(&health), vec![1, 0, 2, 3]);
    }

    /// Seeded property loop: replica selection is a deterministic pure
    /// function of the health state, and always orders closed breakers
    /// before half-open before open.
    #[test]
    fn rank_property_deterministic_and_breaker_ordered() {
        let seed = chaos_seed();
        let mut rng = seed;
        for round in 0..500 {
            let n = 1 + (next_u64(&mut rng) % 6) as usize;
            let health: Vec<Option<HealthSnapshot>> = (0..n)
                .map(|_| {
                    if next_u64(&mut rng) % 8 == 0 {
                        return None;
                    }
                    let breaker = match next_u64(&mut rng) % 3 {
                        0 => BreakerState::Closed,
                        1 => BreakerState::HalfOpen,
                        _ => BreakerState::Open,
                    };
                    Some(HealthSnapshot {
                        requests: next_u64(&mut rng) % 100,
                        failures: next_u64(&mut rng) % 10,
                        retries: 0,
                        open_rejections: 0,
                        breaker,
                        latency_ewma: Duration::from_micros(next_u64(&mut rng) % 10_000),
                        quarantined: next_u64(&mut rng) % 4 == 0,
                    })
                })
                .collect();
            let a = rank_members(&health);
            let b = rank_members(&health);
            assert_eq!(
                a, b,
                "selection must be deterministic (seed={seed} round={round})"
            );
            let rank_of = |i: usize| match &health[i] {
                None => 0u8,
                Some(h) => match h.breaker {
                    BreakerState::Closed => 0,
                    BreakerState::HalfOpen => 1,
                    BreakerState::Open => 2,
                },
            };
            for w in a.windows(2) {
                assert!(
                    rank_of(w[0]) <= rank_of(w[1]),
                    "breaker ordering violated (seed={seed} round={round}): {a:?}"
                );
            }
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "must be a permutation");
        }
    }

    /// Seeded property loop: across random member liveness and budgets,
    /// failover never dispatches to more than `budget + 1` members and a
    /// live member inside the budget window always rescues the request.
    #[test]
    fn failover_property_respects_budget() {
        let seed = chaos_seed();
        let mut rng = seed;
        for round in 0..60 {
            let n = 2 + (next_u64(&mut rng) % 3) as usize;
            let budget = (next_u64(&mut rng) % n as u64) as u32;
            let alive: Vec<bool> = (0..n).map(|_| next_u64(&mut rng) % 2 == 0).collect();
            let members: Vec<Arc<dyn SparqlEndpoint>> = alive
                .iter()
                .enumerate()
                .map(|(i, &ok)| {
                    if ok {
                        sim(&format!("m{i}"), NetworkProfile::instant())
                    } else {
                        dead(&format!("m{i}"))
                    }
                })
                .collect();
            let g = ReplicaGroup::new(
                "grp",
                members,
                ReplicaConfig {
                    failover_budget: budget,
                    hedge_after: None,
                },
            );
            let result = g.select(&query());
            let s = g.stats();
            let ctx = format!("seed={seed} round={round} alive={alive:?} budget={budget}");
            assert!(
                s.dispatches <= budget as u64 + 1,
                "dispatches {} exceed budget+1 ({ctx})",
                s.dispatches
            );
            // Fresh group: ranking is by index, so the first `budget+1`
            // members are exactly the reachable window.
            let window_has_live = alive.iter().take(budget as usize + 1).any(|&a| a);
            assert_eq!(
                result.is_ok(),
                window_has_live,
                "result must match window liveness ({ctx}): {result:?}"
            );
        }
    }
}
