//! Shared helpers for the cross-crate integration tests.

use lusail_federation::{
    Deadline, EndpointError, Federation, HealthSnapshot, SelectResponse, SparqlEndpoint,
    TrafficSnapshot,
};
use lusail_rdf::Graph;
use lusail_sparql::ast::Query;
use lusail_sparql::serializer::serialize_query;
use lusail_sparql::solution::Relation;
use lusail_store::eval::QueryResult;
use lusail_store::{Evaluator, Store};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Evaluate a query over the *merged* graph of all endpoints — the ground
/// truth a federated engine must reproduce (the decentralized graph's
/// semantics is exactly the union of the endpoint graphs).
pub fn ground_truth(graphs: &[(String, Graph)], query: &Query) -> Relation {
    let mut merged = Graph::new();
    for (_, g) in graphs {
        merged.extend(g.clone());
    }
    let store = Store::from_graph(&merged);
    Evaluator::new(&store).query(query).into_solutions()
}

/// The fastest of three runs of `run`, which times itself. A latency
/// bound compares the fastest run of each side: one wall-clock sample can
/// be stretched several times over by whatever else the machine runs.
pub fn fastest_of_three(mut run: impl FnMut() -> Duration) -> Duration {
    (0..3).map(|_| run()).min().expect("three runs")
}

/// Compare two relations as bags, ignoring row and column order.
pub fn assert_same_solutions(label: &str, actual: &Relation, expected: &Relation) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "{label}: row count mismatch (actual {} vs expected {})",
        actual.len(),
        expected.len()
    );
    // Align columns: project the actual onto the expected header order.
    let projected = actual.project(expected.vars());
    let mut a: Vec<_> = projected.rows().to_vec();
    let mut e: Vec<_> = expected.rows().to_vec();
    a.sort();
    e.sort();
    assert_eq!(a, e, "{label}: solution bags differ");
}

/// An endpoint that forwards to `inner` and keeps the text of every query
/// it was sent, so a test can see what the engine put on the wire.
pub struct RecordingEndpoint {
    inner: Arc<dyn SparqlEndpoint>,
    sent: Mutex<Vec<String>>,
    /// When each request left and when its answer was back.
    spans: Mutex<Vec<(Instant, Instant)>>,
}

impl RecordingEndpoint {
    pub fn new(inner: Arc<dyn SparqlEndpoint>) -> Self {
        RecordingEndpoint {
            inner,
            sent: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Wrap every endpoint in a recorder and federate the recorders.
    pub fn federation(
        endpoints: impl IntoIterator<Item = Arc<dyn SparqlEndpoint>>,
    ) -> (Vec<Arc<RecordingEndpoint>>, Federation) {
        let recorders: Vec<Arc<RecordingEndpoint>> = endpoints
            .into_iter()
            .map(|ep| Arc::new(RecordingEndpoint::new(ep)))
            .collect();
        let federation = Federation::new(
            recorders
                .iter()
                .map(|r| r.clone() as Arc<dyn SparqlEndpoint>)
                .collect(),
        );
        (recorders, federation)
    }

    /// The queries sent so far, in arrival order.
    pub fn sent(&self) -> Vec<String> {
        self.sent.lock().unwrap().clone()
    }

    /// The bound-join requests among them: `VALUES` blocks that are not
    /// `COUNT(*)` cross-probes, recovery pages or `ASK` refinements.
    pub fn bound_requests(&self) -> Vec<String> {
        let mut sent = self.sent();
        sent.retain(|q| {
            q.starts_with("SELECT ?") && q.contains("VALUES (") && !q.contains(" OFFSET ")
        });
        sent
    }

    /// Record `query`, send it with `send` and time the round trip.
    fn record<T>(&self, query: &Query, send: impl FnOnce() -> T) -> T {
        self.sent.lock().unwrap().push(serialize_query(query));
        let left = Instant::now();
        let answer = send();
        self.spans.lock().unwrap().push((left, Instant::now()));
        answer
    }
}

/// How many request rounds the recorded endpoints served: requests whose
/// round trips overlap in time are one round. Only meaningful over
/// endpoints with real latency.
pub fn request_rounds(recorders: &[Arc<RecordingEndpoint>]) -> usize {
    let mut spans: Vec<(Instant, Instant)> = recorders
        .iter()
        .flat_map(|r| r.spans.lock().unwrap().clone())
        .collect();
    spans.sort();
    let mut rounds = 0;
    let mut round_ends: Option<Instant> = None;
    for (left, back) in spans {
        if round_ends.is_none_or(|ends| left > ends) {
            rounds += 1;
        }
        round_ends = round_ends.max(Some(back));
    }
    rounds
}

impl SparqlEndpoint for RecordingEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn execute_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<QueryResult, EndpointError> {
        self.record(query, || self.inner.execute_within(query, deadline))
    }
    fn select_with_meta(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<SelectResponse, EndpointError> {
        self.record(query, || self.inner.select_with_meta(query, deadline))
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
    fn set_quarantined(&self, on: bool) {
        self.inner.set_quarantined(on)
    }
    fn max_request_bytes(&self) -> Option<usize> {
        self.inner.max_request_bytes()
    }
}
