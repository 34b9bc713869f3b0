//! A federation: the set of endpoints a query is evaluated over.

use crate::endpoint::{EndpointId, SparqlEndpoint};
use crate::json::Json;
use crate::network::{CodecSnapshot, TrafficSnapshot};
use std::sync::Arc;

/// An immutable registry of endpoints. Engines address endpoints by
/// [`EndpointId`] (their position in the registry).
#[derive(Clone)]
pub struct Federation {
    endpoints: Vec<Arc<dyn SparqlEndpoint>>,
}

impl Federation {
    /// Build a federation from endpoints.
    pub fn new(endpoints: Vec<Arc<dyn SparqlEndpoint>>) -> Self {
        Federation { endpoints }
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True when the federation has no endpoints.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// The endpoint with id `id`. Panics on an invalid id (ids come from
    /// this federation, so that is a programming error).
    pub fn endpoint(&self, id: EndpointId) -> &Arc<dyn SparqlEndpoint> {
        &self.endpoints[id]
    }

    /// All endpoint ids.
    pub fn ids(&self) -> impl Iterator<Item = EndpointId> + '_ {
        0..self.endpoints.len()
    }

    /// Iterate `(id, endpoint)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EndpointId, &Arc<dyn SparqlEndpoint>)> {
        self.endpoints.iter().enumerate()
    }

    /// Aggregate traffic across all endpoints.
    pub fn total_traffic(&self) -> TrafficSnapshot {
        self.endpoints
            .iter()
            .map(|e| e.traffic())
            .fold(TrafficSnapshot::default(), TrafficSnapshot::merge)
    }

    /// Reset every endpoint's traffic counters.
    pub fn reset_traffic(&self) {
        for e in &self.endpoints {
            e.reset_traffic();
        }
    }

    /// Aggregate result-codec counters across the endpoints that have a
    /// wire (HTTP endpoints and replica groups); `None` when the whole
    /// federation is simulated.
    pub fn total_codec(&self) -> Option<CodecSnapshot> {
        self.endpoints
            .iter()
            .filter_map(|e| e.codec())
            .reduce(CodecSnapshot::merge)
    }

    /// The `codec` stats section: the federation total, then one row per
    /// endpoint with a wire under `endpoints`, in registry order.
    pub fn codec_stats(&self) -> Json {
        let rows = self
            .endpoints
            .iter()
            .filter_map(|e| Some((e.name(), e.codec()?.to_json())));
        self.total_codec()
            .unwrap_or_default()
            .to_json()
            .with("endpoints", Json::object(rows))
    }

    /// The `endpoints` stats section, one row per endpoint in registry
    /// order: traffic, then health where the transport tracks it, then a
    /// replica group's `members` table.
    pub fn endpoint_stats(&self) -> Json {
        Json::object(self.endpoints.iter().map(|e| {
            let mut row = e.traffic().to_json();
            if let Some(health) = e.health() {
                row = row.merge(health.to_json());
            }
            if let Some(members) = e.replica_members() {
                let members = members.iter().map(|m| (m.name.as_str(), m.to_json()));
                row = row.with("members", Json::object(members));
            }
            (e.name(), row)
        }))
    }

    /// Everything the federation can report about itself — what `--stats`
    /// prints for the baseline engines.
    pub fn stats(&self) -> Json {
        Json::object([
            ("codec", self.codec_stats()),
            ("endpoints", self.endpoint_stats()),
        ])
    }
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field(
                "endpoints",
                &self.endpoints.iter().map(|e| e.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::SimulatedEndpoint;
    use crate::network::NetworkProfile;
    use lusail_rdf::{Graph, Term};
    use lusail_sparql::parse_query;
    use lusail_store::Store;

    fn fed() -> Federation {
        let eps = (0..3)
            .map(|i| {
                let mut g = Graph::new();
                g.add(
                    Term::iri(format!("http://ep{i}/s")),
                    Term::iri("http://x/p"),
                    Term::integer(i),
                );
                Arc::new(SimulatedEndpoint::new(
                    format!("ep{i}"),
                    Store::from_graph(&g),
                    NetworkProfile::instant(),
                )) as Arc<dyn SparqlEndpoint>
            })
            .collect();
        Federation::new(eps)
    }

    #[test]
    fn registry_basics() {
        let f = fed();
        assert_eq!(f.len(), 3);
        assert_eq!(f.endpoint(1).name(), "ep1");
        assert_eq!(f.ids().count(), 3);
    }

    #[test]
    fn traffic_aggregation() {
        let f = fed();
        let q = parse_query("ASK { ?s <http://x/p> ?o }").unwrap();
        for id in f.ids() {
            assert!(f.endpoint(id).ask(&q).unwrap());
        }
        assert_eq!(f.total_traffic().requests, 3);
        f.reset_traffic();
        assert_eq!(f.total_traffic().requests, 0);
    }
}
