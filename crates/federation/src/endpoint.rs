//! SPARQL endpoints: the trait all federated engines program against, and
//! the simulated implementation used throughout the benchmarks.

use crate::cancel::CancelReason;
use crate::erh::{Attempt, BreakerConfig, Deadline, EndpointHealth, HealthSnapshot};
use crate::network::{NetworkProfile, RequestCounters, TrafficSnapshot};
use lusail_sparql::ast::Query;
use lusail_sparql::solution::Relation;
use lusail_store::eval::QueryResult;
use lusail_store::{Evaluator, Store, StoreStats};
use std::time::Duration;

/// A dense endpoint identifier within one [`Federation`](crate::Federation).
pub type EndpointId = usize;

/// How an endpoint request failed — the distinction drives both the
/// circuit breaker (only transport failures trip it) and the
/// partial-results policy (only transport/open-circuit failures may be
/// absorbed into warnings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Transport-level trouble: connect/read failures, 5xx responses,
    /// dropped connections. Retryable, and counts against the breaker.
    Transport,
    /// The server rejected this specific request (size limits, malformed
    /// query or results, 4xx). Retrying the same request cannot help, and
    /// the endpoint itself is healthy — never absorbed, never breaks.
    Rejected,
    /// Failed fast because the endpoint's circuit breaker is open.
    CircuitOpen,
    /// The query-level [`Deadline`] expired before or while the request
    /// ran. Maps to a query timeout, not an endpoint fault.
    Deadline,
    /// The query's [`CancelToken`](crate::cancel::CancelToken) tripped:
    /// the client disconnected, an operator cancelled it, the watchdog
    /// reaped it, or the server is draining. Like `Deadline`, this is a
    /// query-level outcome — never retried, never absorbed into partial
    /// results, and never counted against the endpoint's breaker.
    Cancelled,
    /// A result-integrity violation: the endpoint answered `200 OK` but
    /// its `COUNT` claims cannot be reconciled with the rows it actually
    /// delivers (even after recovery paging). The endpoint is *up* — the
    /// breaker is untouched — but its answers are wrong, so this is never
    /// skippable: silently joining a lying endpoint's prefix is exactly
    /// the failure the integrity layer exists to prevent.
    Integrity,
}

/// A failed endpoint request — the HTTP-level errors a real federation
/// sees (the paper's Table 2 records FedX failing with runtime exceptions
/// and zero-results errors against real endpoints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointError {
    /// The endpoint that failed.
    pub endpoint: String,
    /// What went wrong (e.g. "request exceeds 8192-byte limit").
    pub message: String,
    /// The failure class (see [`FailureKind`]).
    pub kind: FailureKind,
}

impl EndpointError {
    /// A transport-level failure (retryable; trips the breaker).
    pub fn transport(endpoint: impl Into<String>, message: impl Into<String>) -> Self {
        EndpointError {
            endpoint: endpoint.into(),
            message: message.into(),
            kind: FailureKind::Transport,
        }
    }

    /// A request the server rejected (not retryable).
    pub fn rejected(endpoint: impl Into<String>, message: impl Into<String>) -> Self {
        EndpointError {
            endpoint: endpoint.into(),
            message: message.into(),
            kind: FailureKind::Rejected,
        }
    }

    /// A fast failure from an open circuit breaker.
    pub fn circuit_open(endpoint: impl Into<String>, retry_in: Duration) -> Self {
        EndpointError {
            endpoint: endpoint.into(),
            message: format!("circuit breaker open; retry in {retry_in:?}"),
            kind: FailureKind::CircuitOpen,
        }
    }

    /// An expired query deadline observed at this endpoint.
    pub fn deadline(endpoint: impl Into<String>) -> Self {
        EndpointError {
            endpoint: endpoint.into(),
            message: "query deadline expired".to_string(),
            kind: FailureKind::Deadline,
        }
    }

    /// A query cancelled via its token, observed at this endpoint.
    pub fn cancelled(endpoint: impl Into<String>, reason: CancelReason) -> Self {
        EndpointError {
            endpoint: endpoint.into(),
            message: format!("query cancelled: {reason}"),
            kind: FailureKind::Cancelled,
        }
    }

    /// A result-integrity violation (lying endpoint). Never skippable.
    pub fn integrity(endpoint: impl Into<String>, message: impl Into<String>) -> Self {
        EndpointError {
            endpoint: endpoint.into(),
            message: message.into(),
            kind: FailureKind::Integrity,
        }
    }

    /// The right error for an exhausted deadline: `cancelled` with the
    /// token's reason when the token tripped, `deadline` otherwise. The
    /// shared exit for every `deadline.expired()` guard in the transports.
    pub fn expired(endpoint: impl Into<String>, deadline: &Deadline) -> Self {
        match deadline.cancel_reason() {
            Some(reason) => EndpointError::cancelled(endpoint, reason),
            None => EndpointError::deadline(endpoint),
        }
    }

    /// Whether the partial-results policy may absorb this failure into a
    /// warning: true for endpoint-down classes (transport, open circuit),
    /// false for rejections (a correctness problem) and deadline expiry
    /// (a query-level timeout).
    pub fn is_skippable(&self) -> bool {
        matches!(self.kind, FailureKind::Transport | FailureKind::CircuitOpen)
    }
}

impl std::fmt::Display for EndpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "endpoint {} failed: {}", self.endpoint, self.message)
    }
}

impl std::error::Error for EndpointError {}

/// Operational limits a real SPARQL server imposes. Requests violating
/// them fail with an [`EndpointError`], exactly like Virtuoso rejecting an
/// oversized HTTP query string or truncating a result set.
///
/// Bound-join engines are the ones that trip these: FedX's `VALUES`-laden
/// subqueries grow with the binding count, while Lusail's locality-grouped
/// subqueries stay small — which is how the paper's Lusail succeeds on the
/// real endpoints where FedX gets runtime exceptions. The request limit is
/// what [`SparqlEndpoint::max_request_bytes`] reports, so an engine that
/// asks can size its `VALUES` blocks to fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointLimits {
    /// Maximum accepted request size in bytes (`None` = unlimited).
    pub max_request_bytes: Option<usize>,
    /// Maximum rows returned per request (`None` = unlimited).
    pub max_result_rows: Option<usize>,
}

/// A `SELECT` response together with its transport-level integrity
/// metadata: whether the server *advertised* that it truncated the result
/// (our own server sends `X-Lusail-Truncated`; foreign servers truncate
/// silently and leave the flag false).
#[derive(Debug, Clone)]
pub struct SelectResponse {
    /// The delivered rows.
    pub rows: Relation,
    /// True when the server declared the result truncated — ground truth
    /// that skips the detection heuristics entirely.
    pub truncated: bool,
}

/// A SPARQL endpoint: something that accepts a query and returns a result.
///
/// Lusail, FedX, SPLENDID, and HiBISCuS all talk to endpoints exclusively
/// through this trait, mirroring the paper's setup where every federated
/// system queries the same standard, unmodified SPARQL servers.
pub trait SparqlEndpoint: Send + Sync {
    /// A stable human-readable name (e.g. `"DrugBank"` or `"univ3"`).
    fn name(&self) -> &str;

    /// Execute a query under a deadline budget and return its result, or
    /// an error when the endpoint rejects the request (size limits,
    /// server faults), its breaker is open, or the deadline expires.
    fn execute_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<QueryResult, EndpointError>;

    /// Execute a query with no deadline.
    fn execute(&self, query: &Query) -> Result<QueryResult, EndpointError> {
        self.execute_within(query, Deadline::none())
    }

    /// Traffic counters for this endpoint.
    fn traffic(&self) -> TrafficSnapshot;

    /// Reset traffic counters.
    fn reset_traffic(&self);

    /// This endpoint's health registry snapshot (breaker state, failure
    /// counters, latency EWMA), when the transport tracks one.
    fn health(&self) -> Option<HealthSnapshot> {
        None
    }

    /// VoID-style statistics. This models the *preprocessing* pass the
    /// index-based systems need; index-free systems (Lusail, FedX) never
    /// call it. The default implementation signals "not supported".
    fn collect_stats(&self) -> Option<StoreStats> {
        None
    }

    /// Data-plane codec counters (negotiated results codec, wire bytes
    /// per codec, dictionary sizes, JSON fallbacks), when the transport
    /// negotiates one. Simulated endpoints have no wire and return
    /// `None`.
    fn codec(&self) -> Option<crate::network::CodecSnapshot> {
        None
    }

    /// Per-member replica counters, when this endpoint is a
    /// [`ReplicaGroup`](crate::replica::ReplicaGroup) fronting several
    /// member transports. Single-transport endpoints return `None`; the
    /// `--stats` table uses this to print one sub-row per member.
    fn replica_members(&self) -> Option<Vec<crate::replica::ReplicaMemberSnapshot>> {
        None
    }

    /// Convenience: run an `ASK` query.
    fn ask(&self, query: &Query) -> Result<bool, EndpointError> {
        self.ask_within(query, Deadline::none())
    }

    /// Convenience: run an `ASK` query under a deadline.
    fn ask_within(&self, query: &Query, deadline: Deadline) -> Result<bool, EndpointError> {
        Ok(match self.execute_within(query, deadline)? {
            QueryResult::Boolean(b) => b,
            QueryResult::Solutions(r) => !r.is_empty(),
        })
    }

    /// Convenience: run a `SELECT` query.
    fn select(&self, query: &Query) -> Result<Relation, EndpointError> {
        self.select_within(query, Deadline::none())
    }

    /// Convenience: run a `SELECT` query under a deadline.
    fn select_within(&self, query: &Query, deadline: Deadline) -> Result<Relation, EndpointError> {
        Ok(self.execute_within(query, deadline)?.into_solutions())
    }

    /// Run a `SELECT` and report truncation metadata alongside the rows.
    /// Transports that can see a server's truncation advertisement
    /// (`HttpEndpoint` reading `X-Lusail-Truncated`) override this; the
    /// default reports no advertisement, which is what a silently-capping
    /// server looks like.
    fn select_with_meta(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<SelectResponse, EndpointError> {
        Ok(SelectResponse {
            rows: self.select_within(query, deadline)?,
            truncated: false,
        })
    }

    /// Mark or clear this endpoint's result-integrity quarantine in its
    /// health registry, so `--stats` and replica ranking see it. The
    /// default is a no-op for transports without a health registry.
    fn set_quarantined(&self, _on: bool) {}

    /// The largest serialized query, in bytes, this transport can carry,
    /// when it has a ceiling at all: a server's request-size limit, or
    /// the request line of an HTTP `GET`. Bound joins size their `VALUES`
    /// blocks to stay under it. `None` (the default) is a transport that
    /// carries any query, like an HTTP `POST` body.
    fn max_request_bytes(&self) -> Option<usize> {
        None
    }

    /// Convenience: run a `SELECT (COUNT(…) AS ?c)` query and extract the
    /// count. Returns 0 when the shape is unexpected.
    fn count(&self, query: &Query) -> Result<usize, EndpointError> {
        self.count_within(query, Deadline::none())
    }

    /// Convenience: run a COUNT query under a deadline.
    fn count_within(&self, query: &Query, deadline: Deadline) -> Result<usize, EndpointError> {
        Ok(match self.execute_within(query, deadline)? {
            QueryResult::Solutions(r) => r
                .rows()
                .first()
                .and_then(|row| row.first())
                .and_then(|c| c.as_ref())
                .and_then(|t| t.as_literal())
                .and_then(|l| l.as_i64())
                .map(|n| n.max(0) as usize)
                .unwrap_or(0),
            QueryResult::Boolean(_) => 0,
        })
    }
}

/// A simulated SPARQL endpoint: a local [`Store`] behind a simulated
/// network link.
///
/// Each `execute` serializes the query to text, charges the request to the
/// network profile (latency sleep + bandwidth-proportional transfer time
/// for request and response), re-parses the text, and evaluates it on the
/// store — the same observable behaviour as a remote Fuseki/Virtuoso
/// instance, compressed in time.
pub struct SimulatedEndpoint {
    name: String,
    store: Store,
    profile: NetworkProfile,
    limits: EndpointLimits,
    counters: RequestCounters,
    health: EndpointHealth,
}

impl SimulatedEndpoint {
    /// Wrap a store as an endpoint with the given network profile.
    pub fn new(name: impl Into<String>, store: Store, profile: NetworkProfile) -> Self {
        SimulatedEndpoint {
            name: name.into(),
            store,
            profile,
            limits: EndpointLimits::default(),
            counters: RequestCounters::new(),
            health: EndpointHealth::new(BreakerConfig::default()),
        }
    }

    /// Impose server-side limits (see [`EndpointLimits`]).
    pub fn with_limits(mut self, limits: EndpointLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The underlying store (test/inspection use only — federated engines
    /// must go through `execute`).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// This endpoint's network profile.
    pub fn profile(&self) -> NetworkProfile {
        self.profile
    }

    /// Replace the network profile (used by the geo-distribution benches to
    /// re-deploy the same data under a different network).
    pub fn set_profile(&mut self, profile: NetworkProfile) {
        self.profile = profile;
    }

    /// One attempt: the request over the simulated link to the store.
    fn answer(&self, query: &Query, deadline: &Deadline) -> Result<QueryResult, EndpointError> {
        // 1. The request travels as text.
        let text = lusail_sparql::serializer::serialize_query(query);
        let request_bytes = text.len();
        if let Some(max) = self.limits.max_request_bytes {
            if request_bytes > max {
                // The request still consumed a round trip.
                let cost = self.profile.request_cost(request_bytes, 0);
                deadline.pause(cost);
                self.counters.record(request_bytes, 0, cost);
                let head: String = text.chars().take(160).collect();
                return Err(EndpointError::rejected(
                    &self.name,
                    format!(
                        "request of {request_bytes} bytes exceeds the {max}-byte limit (starts: {head} …)"
                    ),
                ));
            }
        }

        // 2. The endpoint parses and evaluates it, like a real server.
        let parsed = lusail_sparql::parse_query(&text)
            .map_err(|e| EndpointError::rejected(&self.name, format!("malformed query: {e}")))?;
        let mut result = Evaluator::new(&self.store).query(&parsed);
        if let Some(max) = self.limits.max_result_rows {
            if let QueryResult::Solutions(r) = &mut result {
                // Real servers silently truncate at their result cap — the
                // source of the paper's "ZR: zero results error" anomalies.
                r.rows_mut().truncate(max);
            }
        }

        // 3. The response travels back; charge the link — but a client
        // whose deadline lapses mid-transfer hangs up instead of waiting
        // out the full simulated transfer.
        let response_bytes = match &result {
            QueryResult::Solutions(r) => r.wire_size(),
            QueryResult::Boolean(_) => 1,
        };
        let cost = self.profile.request_cost(request_bytes, response_bytes);
        let allowed = deadline.clamp(cost);
        deadline.pause(cost);
        if allowed < cost || deadline.cancel_reason().is_some() {
            self.counters.record(request_bytes, 0, allowed);
            return Err(EndpointError::expired(&self.name, deadline));
        }
        self.counters.record(request_bytes, response_bytes, cost);
        Ok(result)
    }
}

impl SparqlEndpoint for SimulatedEndpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<QueryResult, EndpointError> {
        // The simulated transport itself never fails, so it makes one
        // attempt; it still runs the attempt loop every transport runs, so
        // --stats shows a uniform health row per endpoint.
        self.health
            .run(&self.name, 0, Duration::ZERO, &deadline, || {
                Attempt::Answered(self.answer(query, &deadline))
            })
    }

    fn traffic(&self) -> TrafficSnapshot {
        self.counters.snapshot()
    }

    fn reset_traffic(&self) {
        self.counters.reset();
    }

    fn health(&self) -> Option<HealthSnapshot> {
        Some(self.health.snapshot())
    }

    fn set_quarantined(&self, on: bool) {
        self.health.set_quarantined(on);
    }

    fn max_request_bytes(&self) -> Option<usize> {
        self.limits.max_request_bytes
    }

    fn collect_stats(&self) -> Option<StoreStats> {
        Some(StoreStats::collect(&self.store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erh::BreakerState;
    use lusail_rdf::{Graph, Term};
    use lusail_sparql::parse_query;

    fn endpoint() -> SimulatedEndpoint {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://x/a"),
            Term::iri("http://x/p"),
            Term::iri("http://x/b"),
        );
        g.add(
            Term::iri("http://x/b"),
            Term::iri("http://x/p"),
            Term::iri("http://x/c"),
        );
        SimulatedEndpoint::new("ep0", Store::from_graph(&g), NetworkProfile::instant())
    }

    #[test]
    fn select_roundtrips_through_text() {
        let ep = endpoint();
        let q = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
        let r = ep.select(&q).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ask_and_count_helpers() {
        let ep = endpoint();
        let yes = parse_query("ASK { <http://x/a> <http://x/p> ?o }").unwrap();
        assert!(ep.ask(&yes).unwrap());
        let no = parse_query("ASK { <http://x/zz> <http://x/p> ?o }").unwrap();
        assert!(!ep.ask(&no).unwrap());
        let c = parse_query("SELECT (COUNT(*) AS ?c) WHERE { ?s <http://x/p> ?o }").unwrap();
        assert_eq!(ep.count(&c).unwrap(), 2);
    }

    #[test]
    fn traffic_is_counted() {
        let ep = endpoint();
        let q = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
        ep.select(&q).unwrap();
        ep.select(&q).unwrap();
        let t = ep.traffic();
        assert_eq!(t.requests, 2);
        assert!(t.bytes_sent > 0);
        assert!(t.bytes_received > 0);
        ep.reset_traffic();
        assert_eq!(ep.traffic().requests, 0);
    }

    #[test]
    fn latency_is_paid() {
        let mut ep = endpoint();
        ep.set_profile(NetworkProfile {
            latency: std::time::Duration::from_millis(5),
            bytes_per_sec: u64::MAX,
        });
        let q = parse_query("ASK { ?s ?p ?o }").unwrap();
        let start = std::time::Instant::now();
        ep.ask(&q).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
        assert!(ep.traffic().simulated_network_time >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn request_size_limit_rejects_big_queries() {
        let ep = endpoint();
        let ep = SimulatedEndpoint::new("lim", ep.store().clone(), NetworkProfile::instant())
            .with_limits(EndpointLimits {
                max_request_bytes: Some(64),
                max_result_rows: None,
            });
        let small = parse_query("ASK { ?s ?p ?o }").unwrap();
        assert!(ep.ask(&small).is_ok());
        let big = parse_query(
            "SELECT ?s WHERE { ?s <http://very.long.example.org/a/deeply/nested/predicate/name/for/testing> ?o }",
        )
        .unwrap();
        let err = ep.select(&big).unwrap_err();
        assert!(err.message.contains("exceeds"), "{err}");
        assert_eq!(err.endpoint, "lim");
        assert_eq!(err.kind, FailureKind::Rejected);
        // The failed request still counted against traffic.
        assert!(ep.traffic().requests >= 2);
    }

    #[test]
    fn result_row_limit_truncates() {
        let ep = endpoint();
        let ep = SimulatedEndpoint::new("cap", ep.store().clone(), NetworkProfile::instant())
            .with_limits(EndpointLimits {
                max_request_bytes: None,
                max_result_rows: Some(1),
            });
        let q = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
        let r = ep.select(&q).unwrap();
        assert_eq!(r.len(), 1, "server cap must truncate the 2-row result");
    }

    #[test]
    fn stats_supported() {
        let ep = endpoint();
        let stats = ep.collect_stats().unwrap();
        assert_eq!(stats.triples, 2);
        assert!(stats.has_predicate("http://x/p"));
    }

    #[test]
    fn expired_deadline_fails_before_evaluating() {
        let ep = endpoint();
        let q = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
        let err = ep
            .select_within(&q, Deadline::within(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::Deadline);
        assert_eq!(ep.traffic().requests, 0, "no traffic for a cancelled call");
    }

    #[test]
    fn deadline_shorter_than_simulated_cost_times_out() {
        let mut ep = endpoint();
        ep.set_profile(NetworkProfile {
            latency: Duration::from_millis(50),
            bytes_per_sec: u64::MAX,
        });
        let q = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
        let start = std::time::Instant::now();
        let err = ep
            .select_within(&q, Deadline::within(Duration::from_millis(10)))
            .unwrap_err();
        assert_eq!(err.kind, FailureKind::Deadline);
        assert!(
            start.elapsed() < Duration::from_millis(45),
            "client must hang up at the deadline, not wait out the transfer"
        );
    }

    #[test]
    fn health_snapshot_tracks_successes() {
        let ep = endpoint();
        let q = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
        ep.select(&q).unwrap();
        ep.select(&q).unwrap();
        let h = ep.health().unwrap();
        assert_eq!(h.requests, 2);
        assert_eq!(h.failures, 0);
        assert_eq!(h.breaker, BreakerState::Closed);
    }
}
