//! Outside-in tracing: a decorator over the public `SparqlEndpoint` trait
//! that records one span per endpoint request, and the interval
//! arithmetic that turns spans into per-layer numbers.
//!
//! Nothing here reaches into the engine. A span knows which client query
//! caused it in one of two ways: in-process workloads have one client, so
//! the client publishes its current query id in the sink; behind the
//! federation service every query carries its own `CancelToken` in the
//! request deadline, and spans sharing a token form one group that
//! [`assign_groups`] matches to the client query whose interval holds it.

use lusail_federation::erh::{Deadline, HealthSnapshot};
use lusail_federation::network::{CodecSnapshot, TrafficSnapshot};
use lusail_federation::replica::ReplicaMemberSnapshot;
use lusail_federation::{CancelToken, EndpointError, SelectResponse, SparqlEndpoint};
use lusail_sparql::ast::{Expression, GraphPattern, Projection, Query, QueryForm};
use lusail_sparql::solution::Relation;
use lusail_store::eval::QueryResult;
use lusail_store::StoreStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What an endpoint request is for, read off its `Query` AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Source selection: `ASK { tp }`.
    Ask,
    /// LADE locality check: `… FILTER NOT EXISTS { … } LIMIT 1`.
    Check,
    /// SAPE cardinality probe: `SELECT (COUNT(*) AS ?c)`.
    Count,
    /// A subquery fetched as is.
    Select,
    /// A bound join: a subquery carrying a `VALUES` block.
    Bound,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Ask,
        Kind::Check,
        Kind::Count,
        Kind::Select,
        Kind::Bound,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Ask => "ask",
            Kind::Check => "check",
            Kind::Count => "count",
            Kind::Select => "select",
            Kind::Bound => "bound",
        }
    }
}

fn has_values(p: &GraphPattern) -> bool {
    match p {
        GraphPattern::Values(..) => true,
        GraphPattern::Bgp(_) => false,
        GraphPattern::Join(a, b)
        | GraphPattern::LeftJoin(a, b)
        | GraphPattern::Union(a, b)
        | GraphPattern::Minus(a, b) => has_values(a) || has_values(b),
        GraphPattern::Filter(a, _) | GraphPattern::Bind(a, _, _) => has_values(a),
        GraphPattern::SubSelect(s) => has_values(&s.pattern),
    }
}

pub fn classify(query: &Query) -> Kind {
    let select = match &query.form {
        QueryForm::Ask(_) => return Kind::Ask,
        QueryForm::Select(s) => s,
    };
    if matches!(select.projection, Projection::Count { .. }) {
        return Kind::Count;
    }
    if select.limit == Some(1)
        && matches!(
            &select.pattern,
            GraphPattern::Filter(_, Expression::NotExists(_))
        )
    {
        return Kind::Check;
    }
    if has_values(&select.pattern) {
        Kind::Bound
    } else {
        Kind::Select
    }
}

/// One endpoint request as seen from outside the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The client query id (in-process) or token group (service).
    pub group: u64,
    pub endpoint: usize,
    pub kind: Kind,
    /// Microseconds since the sink's epoch.
    pub start_us: u64,
    pub end_us: u64,
    pub rows: usize,
    /// `Relation::wire_size` of the response rows (1 when it carries none).
    pub bytes: usize,
    pub ok: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1000.0
    }
}

/// Token groups are numbered from here so they never collide with the
/// client's own query ids.
pub const TOKEN_GROUP_BASE: u64 = 1 << 40;

/// How many requests keep their `Query`, and how many responses keep
/// their rows, for the direct-call probes.
const MAX_CAPTURED_QUERIES: usize = 4000;
const MAX_CAPTURED_RELATIONS: usize = 96;

/// Inputs captured for the direct-call probes.
#[derive(Default)]
pub struct Captured {
    /// `(endpoint, request)`.
    pub queries: Vec<(usize, Query)>,
    /// `(group, response rows)` of non-trivial SELECT responses.
    pub relations: Vec<(u64, Relation)>,
}

/// Shared by all [`TracedEndpoint`]s of one federation.
pub struct TraceSink {
    enabled: AtomicBool,
    epoch: Instant,
    current_query: AtomicU64,
    spans: Mutex<Vec<Span>>,
    tokens: Mutex<(u64, Vec<(CancelToken, u64)>)>,
    captured: Mutex<Captured>,
}

impl TraceSink {
    pub fn new() -> Arc<TraceSink> {
        Arc::new(TraceSink {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            current_query: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            tokens: Mutex::new((TOKEN_GROUP_BASE, Vec::new())),
            captured: Mutex::new(Captured::default()),
        })
    }

    /// Spans are recorded only while enabled; a disabled decorator costs
    /// one relaxed load per request.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The single in-process client announces the query it is about to run.
    pub fn begin_query(&self, id: u64) {
        self.current_query.store(id, Ordering::Relaxed);
    }

    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().expect("span buffer poisoned"))
    }

    pub fn take_captured(&self) -> Captured {
        std::mem::take(&mut self.captured.lock().expect("capture buffer poisoned"))
    }

    fn group_of(&self, deadline: &Deadline) -> u64 {
        let Some(token) = deadline.token() else {
            return self.current_query.load(Ordering::Relaxed);
        };
        let mut guard = self.tokens.lock().expect("token registry poisoned");
        let (next, recent) = &mut *guard;
        if let Some((_, id)) = recent.iter().find(|(t, _)| t.same_token(token)) {
            return *id;
        }
        // Only in-flight queries can still send requests, and the service
        // runs a handful at once: a short window is enough.
        if recent.len() == 16 {
            recent.remove(0);
        }
        *next += 1;
        recent.push((token.clone(), *next));
        *next
    }
}

/// The solution rows a response carries, if any (an `ASK` verdict and a
/// `COUNT` carry none).
trait Outcome {
    fn relation(&self) -> Option<&Relation>;
}

impl Outcome for Relation {
    fn relation(&self) -> Option<&Relation> {
        Some(self)
    }
}

impl Outcome for QueryResult {
    fn relation(&self) -> Option<&Relation> {
        match self {
            QueryResult::Solutions(r) => Some(r),
            QueryResult::Boolean(_) => None,
        }
    }
}

impl Outcome for SelectResponse {
    fn relation(&self) -> Option<&Relation> {
        Some(&self.rows)
    }
}

impl Outcome for bool {
    fn relation(&self) -> Option<&Relation> {
        None
    }
}

impl Outcome for usize {
    fn relation(&self) -> Option<&Relation> {
        None
    }
}

/// A `SparqlEndpoint` that forwards everything to `inner` and records a
/// span around each request method.
pub struct TracedEndpoint {
    inner: Arc<dyn SparqlEndpoint>,
    id: usize,
    sink: Arc<TraceSink>,
}

impl TracedEndpoint {
    pub fn new(inner: Arc<dyn SparqlEndpoint>, id: usize, sink: Arc<TraceSink>) -> Self {
        TracedEndpoint { inner, id, sink }
    }

    fn traced<T: Outcome>(
        &self,
        query: &Query,
        deadline: Deadline,
        call: impl FnOnce(Deadline) -> Result<T, EndpointError>,
    ) -> Result<T, EndpointError> {
        if !self.sink.enabled.load(Ordering::Relaxed) {
            return call(deadline);
        }
        let group = self.sink.group_of(&deadline);
        let kind = classify(query);
        let start_us = self.sink.now_us();
        let result = call(deadline);
        let end_us = self.sink.now_us();
        let relation = result.as_ref().ok().and_then(|r| r.relation());
        let (rows, bytes) = relation.map_or((0, 1), |r| (r.len(), r.wire_size()));
        self.sink
            .spans
            .lock()
            .expect("span buffer poisoned")
            .push(Span {
                group,
                endpoint: self.id,
                kind,
                start_us,
                end_us,
                rows,
                bytes,
                ok: result.is_ok(),
            });
        let mut captured = self.sink.captured.lock().expect("capture buffer poisoned");
        if captured.queries.len() < MAX_CAPTURED_QUERIES {
            captured.queries.push((self.id, query.clone()));
        }
        if matches!(kind, Kind::Select | Kind::Bound)
            && captured.relations.len() < MAX_CAPTURED_RELATIONS
        {
            if let Some(rel) = relation.filter(|r| r.len() >= 2) {
                captured.relations.push((group, rel.clone()));
            }
        }
        drop(captured);
        result
    }
}

impl SparqlEndpoint for TracedEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<QueryResult, EndpointError> {
        self.traced(query, deadline, |d| self.inner.execute_within(query, d))
    }

    fn ask_within(&self, query: &Query, deadline: Deadline) -> Result<bool, EndpointError> {
        self.traced(query, deadline, |d| self.inner.ask_within(query, d))
    }

    fn select_within(&self, query: &Query, deadline: Deadline) -> Result<Relation, EndpointError> {
        self.traced(query, deadline, |d| self.inner.select_within(query, d))
    }

    fn select_with_meta(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<SelectResponse, EndpointError> {
        self.traced(query, deadline, |d| self.inner.select_with_meta(query, d))
    }

    fn count_within(&self, query: &Query, deadline: Deadline) -> Result<usize, EndpointError> {
        self.traced(query, deadline, |d| self.inner.count_within(query, d))
    }

    fn traffic(&self) -> TrafficSnapshot {
        self.inner.traffic()
    }

    fn reset_traffic(&self) {
        self.inner.reset_traffic()
    }

    fn health(&self) -> Option<HealthSnapshot> {
        self.inner.health()
    }

    fn collect_stats(&self) -> Option<StoreStats> {
        self.inner.collect_stats()
    }

    fn codec(&self) -> Option<CodecSnapshot> {
        self.inner.codec()
    }

    fn replica_members(&self) -> Option<Vec<ReplicaMemberSnapshot>> {
        self.inner.replica_members()
    }

    fn set_quarantined(&self, on: bool) {
        self.inner.set_quarantined(on)
    }
}

// ---- Interval arithmetic over spans ---------------------------------

/// `(covered, bursts)`: the length of the union of the intervals, and the
/// number of maximal runs of overlapping intervals — the sequential
/// round trips on the critical path when the intervals are the requests
/// of one query.
pub fn coverage(intervals: &mut [(u64, u64)]) -> (u64, usize) {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut bursts = 0;
    let mut open: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match &mut open {
            Some((_, open_end)) if start <= *open_end => *open_end = (*open_end).max(end),
            _ => {
                if let Some((s, e)) = open {
                    covered += e - s;
                }
                bursts += 1;
                open = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = open {
        covered += e - s;
    }
    (covered, bursts)
}

/// What the spans of one group (one query) add up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCoverage {
    /// Time covered by at least one span.
    pub covered_us: u64,
    /// Maximal runs of overlapping spans: sequential round trips.
    pub bursts: usize,
    pub first_start_us: u64,
    pub last_end_us: u64,
}

pub fn group_coverage(spans: &[Span]) -> HashMap<u64, GroupCoverage> {
    let mut by_group: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        by_group
            .entry(s.group)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    by_group
        .into_iter()
        .map(|(group, mut intervals)| {
            let (covered_us, bursts) = coverage(&mut intervals);
            let summary = GroupCoverage {
                covered_us,
                bursts,
                first_start_us: intervals.first().map_or(0, |i| i.0),
                last_end_us: intervals.iter().map(|i| i.1).max().unwrap_or(0),
            };
            (group, summary)
        })
        .collect()
}

/// Match token groups to the client queries that caused them. A group
/// belongs to a query whose `[start, end]` holds the group's whole
/// interval; among several such queries (two clients in flight at once)
/// the earliest-sent unmatched one wins, groups taken in start order.
/// Exact with one client; with two it can swap two overlapping misses,
/// which leaves every total and nearly every median unchanged.
///
/// `queries` are `(id, start_us, end_us)`; `groups` are
/// `(group, first_start_us, last_end_us)`. Returns group → query id.
pub fn assign_groups(queries: &[(u64, u64, u64)], groups: &[(u64, u64, u64)]) -> HashMap<u64, u64> {
    let mut queries = queries.to_vec();
    queries.sort_unstable_by_key(|q| q.1);
    let mut groups = groups.to_vec();
    groups.sort_unstable_by_key(|g| g.1);
    let mut taken = vec![false; queries.len()];
    let mut out = HashMap::new();
    for (group, first, last) in groups {
        let owner = queries
            .iter()
            .enumerate()
            .find(|(i, (_, start, end))| !taken[*i] && *start <= first && last <= *end);
        if let Some((i, (id, _, _))) = owner {
            taken[i] = true;
            out.insert(group, *id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_core::lade::gjv::check_query;
    use lusail_core::sape::estimate::count_query;
    use lusail_core::source::ask_query;
    use lusail_federation::{NetworkProfile, SimulatedEndpoint};
    use lusail_rdf::{Graph, Term};
    use lusail_sparql::ast::{TermPattern, TriplePattern, Variable};
    use lusail_sparql::parse_query;
    use lusail_store::Store;

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        TriplePattern::new(
            TermPattern::var(s),
            TermPattern::iri(format!("http://x/{p}")),
            TermPattern::var(o),
        )
    }

    #[test]
    fn classifier_tells_the_five_kinds_apart() {
        let a = tp("s", "p", "o");
        let b = tp("o", "q", "z");
        assert_eq!(classify(&ask_query(&a)), Kind::Ask);
        assert_eq!(classify(&count_query(&a, &[])), Kind::Count);
        assert_eq!(
            classify(&check_query(&Variable::new("o"), &a, &b, None)),
            Kind::Check
        );
        let select = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
        assert_eq!(classify(&select), Kind::Select);
        let bound = parse_query(
            "SELECT ?s ?o WHERE { VALUES ?s { <http://x/a> <http://x/b> } ?s <http://x/p> ?o }",
        )
        .unwrap();
        assert_eq!(classify(&bound), Kind::Bound);
    }

    #[test]
    fn coverage_counts_union_length_and_bursts() {
        // Two overlapping requests, a gap, then one nested inside another.
        let mut iv = vec![(10, 20), (15, 30), (50, 90), (60, 70)];
        assert_eq!(coverage(&mut iv), (20 + 40, 2));
        // Touching intervals form one burst.
        assert_eq!(coverage(&mut [(0, 5), (5, 9)]), (9, 1));
        assert_eq!(coverage(&mut []), (0, 0));
    }

    #[test]
    fn group_coverage_splits_by_query() {
        let span = |group, start_us, end_us| Span {
            group,
            endpoint: 0,
            kind: Kind::Select,
            start_us,
            end_us,
            rows: 0,
            bytes: 0,
            ok: true,
        };
        let spans = [
            span(1, 0, 10),
            span(1, 20, 30),
            span(2, 5, 25),
            span(1, 25, 40),
        ];
        let cov = group_coverage(&spans);
        let summary = |c: GroupCoverage| (c.covered_us, c.bursts, c.first_start_us, c.last_end_us);
        assert_eq!(summary(cov[&1]), (10 + 20, 2, 0, 40));
        assert_eq!(summary(cov[&2]), (20, 1, 5, 25));
    }

    #[test]
    fn groups_go_to_the_query_that_contains_them() {
        // Client A runs q1 then q3; client B runs q2 meanwhile. q3 is a
        // cache hit (no group).
        let queries = [(1, 0, 100), (2, 10, 220), (3, 110, 112)];
        let groups = [(900, 5, 95), (901, 120, 200)];
        let m = assign_groups(&queries, &groups);
        assert_eq!(m.get(&900), Some(&1));
        assert_eq!(m.get(&901), Some(&2));
        // Two misses in flight together: send order breaks the tie.
        let queries = [(1, 0, 300), (2, 10, 310)];
        let groups = [(900, 20, 40), (901, 30, 50)];
        let m = assign_groups(&queries, &groups);
        assert_eq!((m[&900], m[&901]), (1, 2));
        // A group no query contains stays unassigned.
        assert!(assign_groups(&[(1, 0, 10)], &[(900, 5, 50)]).is_empty());
    }

    fn traced_endpoint() -> (TracedEndpoint, Arc<TraceSink>, Arc<SimulatedEndpoint>) {
        let mut g = Graph::new();
        for i in 0..3 {
            g.add(
                Term::iri(format!("http://x/s{i}")),
                Term::iri("http://x/p"),
                Term::integer(i),
            );
        }
        let inner = Arc::new(SimulatedEndpoint::new(
            "ep",
            Store::from_graph(&g),
            NetworkProfile::instant(),
        ));
        let sink = TraceSink::new();
        let traced = TracedEndpoint::new(inner.clone(), 7, sink.clone());
        (traced, sink, inner)
    }

    #[test]
    fn decorator_records_spans_only_while_enabled() {
        let (ep, sink, _) = traced_endpoint();
        let q = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
        assert_eq!(ep.select(&q).unwrap().len(), 3);
        assert!(sink.take_spans().is_empty());

        sink.set_enabled(true);
        sink.begin_query(42);
        let meta = ep.select_with_meta(&q, Deadline::none()).unwrap();
        assert_eq!((meta.rows.len(), meta.truncated), (3, false));
        assert!(ep.ask(&ask_query(&tp("s", "p", "o"))).unwrap());
        assert_eq!(ep.count(&count_query(&tp("s", "p", "o"), &[])).unwrap(), 3);
        let spans = sink.take_spans();
        assert_eq!(
            spans.iter().map(|s| s.kind).collect::<Vec<_>>(),
            [Kind::Select, Kind::Ask, Kind::Count]
        );
        assert!(spans
            .iter()
            .all(|s| s.group == 42 && s.endpoint == 7 && s.ok));
        assert_eq!(spans[0].rows, 3);
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        let captured = sink.take_captured();
        assert_eq!(captured.queries.len(), 3);
        assert_eq!(captured.relations.len(), 1);
    }

    #[test]
    fn decorator_groups_by_cancel_token() {
        let (ep, sink, _) = traced_endpoint();
        sink.set_enabled(true);
        let q = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
        let (a, b) = (CancelToken::new(), CancelToken::new());
        for token in [&a, &b, &a] {
            ep.select_within(&q, Deadline::none().with_token(token.clone()))
                .unwrap();
        }
        let groups: Vec<u64> = sink.take_spans().iter().map(|s| s.group).collect();
        assert!(groups[0] > TOKEN_GROUP_BASE);
        assert_eq!(groups[0], groups[2]);
        assert_ne!(groups[0], groups[1]);
    }

    #[test]
    fn decorator_forwards_the_optional_methods() {
        let (ep, _, inner) = traced_endpoint();
        assert_eq!(ep.name(), "ep");
        // health / set_quarantined reach the inner registry.
        assert!(!ep.health().unwrap().quarantined);
        ep.set_quarantined(true);
        assert!(inner.health().unwrap().quarantined);
        assert!(ep.health().unwrap().quarantined);
        ep.set_quarantined(false);
        // A simulated endpoint has no wire codec and no replicas, and the
        // decorator must not invent either.
        assert!(ep.codec().is_none());
        assert!(ep.replica_members().is_none());
        assert_eq!(ep.collect_stats().unwrap().triples, 3);
        // Traffic is the inner endpoint's.
        let q = parse_query("ASK { ?s <http://x/p> ?o }").unwrap();
        ep.ask(&q).unwrap();
        assert_eq!(ep.traffic().requests, inner.traffic().requests);
        assert!(ep.traffic().requests >= 1);
        ep.reset_traffic();
        assert_eq!(inner.traffic().requests, 0);
    }
}
