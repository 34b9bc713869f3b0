//! HiBISCuS-style source pruning over FedX (Saleem & Ngonga Ngomo,
//! ESWC 2014), used as in the paper: "HiBISCuS is an add-on to improve
//! performance; we use it on top of FedX".
//!
//! HiBISCuS summarizes, per endpoint and per predicate, the set of URI
//! *authorities* (scheme + host) of subjects and objects. During source
//! selection it prunes endpoints whose summaries cannot contribute:
//!
//! * a pattern with a constant subject/object needs an endpoint whose
//!   subject/object authority set contains that constant's authority;
//! * for a join variable occurring as object in one pattern and subject in
//!   another, an endpoint is relevant to the object side only if its
//!   object authorities intersect the union of subject authorities the
//!   other side's endpoints can produce (and vice versa). We implement the
//!   constant-based pruning, which is the part that fires on the
//!   benchmarks' heterogeneous datasets.
//!
//! The summaries are the `subject_authorities` / `object_authorities` of
//! the one statistics index both index-based engines read, SPLENDID's
//! [`VoidIndex`]: one preprocessing pass, one index to rebuild.

use crate::common::FederatedEngine;
use crate::fedx::{FedX, FedXConfig};
use crate::splendid::VoidIndex;
use lusail_core::EngineError;
use lusail_federation::{EndpointId, Federation};
use lusail_rdf::Term;
use lusail_sparql::ast::{Query, TriplePattern};
use lusail_sparql::solution::Relation;
use std::sync::Arc;
use std::time::Duration;

/// The HiBISCuS engine: FedX plus authority-based source pruning.
pub struct HiBiscus {
    inner: FedX,
    /// The statistics SPLENDID indexes, read for their URI authorities.
    index: Arc<VoidIndex>,
}

impl HiBiscus {
    /// Build the index (preprocessing) and wrap FedX with the pruner.
    pub fn new(federation: Federation, config: FedXConfig) -> Self {
        let index = Arc::new(VoidIndex::build(&federation));
        let summaries = Arc::clone(&index);
        let pruner = Box::new(move |tp: &TriplePattern, sources| prune(&summaries, tp, sources));
        HiBiscus {
            inner: FedX::with_pruner(federation, config, pruner, "HiBISCuS"),
            index,
        }
    }

    /// The underlying federation.
    pub fn federation(&self) -> &Federation {
        self.inner.federation()
    }
}

/// The `sources` of `tp` whose authorities can match its constant subject
/// and object. An endpoint the index lacks is kept: `execute` refuses
/// such a federation anyway.
fn prune(index: &VoidIndex, tp: &TriplePattern, sources: Vec<EndpointId>) -> Vec<EndpointId> {
    let Some(pred) = tp.predicate.as_term().and_then(|t| t.as_iri()) else {
        return sources;
    };
    let subject = tp.subject.as_term().and_then(Term::authority);
    let object = tp.object.as_term().and_then(Term::authority);
    let relevant = |&ep: &EndpointId| {
        let Some(stats) = &index.per_endpoint[ep] else {
            return true;
        };
        // The predicate is absent here: nothing can match a constant.
        let Some(p) = stats.predicates.get(pred) else {
            return subject.is_none() && object.is_none();
        };
        subject.is_none_or(|a| p.subject_authorities.contains(a))
            // Literal-only objects: authority unknown, kept (cannot prove
            // irrelevance).
            && object.is_none_or(|a| {
                p.object_authorities.is_empty() || p.object_authorities.contains(a)
            })
    };
    sources.into_iter().filter(relevant).collect()
}

impl FederatedEngine for HiBiscus {
    fn name(&self) -> &str {
        "HiBISCuS"
    }

    fn execute(&self, query: &Query) -> Result<Relation, EngineError> {
        let federation = self.inner.federation();
        self.index.require_complete("HiBISCuS", federation)?;
        self.inner.execute(query)
    }

    fn preprocessing_time(&self) -> Option<Duration> {
        Some(self.index.build_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_federation::{NetworkProfile, SimulatedEndpoint, SparqlEndpoint};
    use lusail_rdf::{vocab, Graph, Term};
    use lusail_sparql::parse_query;
    use lusail_store::Store;
    use std::sync::Arc;

    fn federation() -> Federation {
        let ub = |l: &str| Term::iri(format!("{}{l}", vocab::ub::NS));
        let u1 = |l: &str| Term::iri(format!("http://univ1.example.org/{l}"));
        let u2 = |l: &str| Term::iri(format!("http://univ2.example.org/{l}"));
        let mut g1 = Graph::new();
        g1.add(u1("MIT"), ub("address"), Term::literal("XXX"));
        g1.add(u1("Ann"), ub("PhDDegreeFrom"), u1("MIT"));
        let mut g2 = Graph::new();
        g2.add(u2("CMU"), ub("address"), Term::literal("CCCC"));
        g2.add(u2("Tim"), ub("PhDDegreeFrom"), u1("MIT"));
        Federation::new(vec![
            Arc::new(SimulatedEndpoint::new(
                "univ1",
                Store::from_graph(&g1),
                NetworkProfile::instant(),
            )) as Arc<dyn SparqlEndpoint>,
            Arc::new(SimulatedEndpoint::new(
                "univ2",
                Store::from_graph(&g2),
                NetworkProfile::instant(),
            )) as Arc<dyn SparqlEndpoint>,
        ])
    }

    #[test]
    fn produces_same_answers_as_fedx() {
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?p ?u ?a WHERE { ?p ub:PhDDegreeFrom ?u . ?u ub:address ?a }"#,
        )
        .unwrap();
        let hib = HiBiscus::new(federation(), FedXConfig::default());
        let fedx = FedX::new(federation(), FedXConfig::default());
        let mut r1 = hib.execute(&q).unwrap();
        let mut r2 = fedx.execute(&q).unwrap();
        r1.rows_mut().sort();
        r2.rows_mut().sort();
        assert_eq!(r1.rows(), r2.rows());
        assert_eq!(r1.len(), 2);
    }

    #[test]
    fn constant_subject_prunes_sources() {
        // ⟨univ2:Tim, PhDDegreeFrom, ?u⟩: subject authority univ2 → only
        // endpoint 1 survives pruning, so fewer requests than plain ASK
        // source selection would produce.
        let hib = HiBiscus::new(federation(), FedXConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?u WHERE { <http://univ2.example.org/Tim> ub:PhDDegreeFrom ?u }"#,
        )
        .unwrap();
        let rel = hib.execute(&q).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn deadline_and_cancel_reach_the_requests() {
        use crate::common::stalled;
        let endpoints = stalled::endpoints();
        let config = FedXConfig {
            timeout: Some(stalled::TIMEOUT),
            ..Default::default()
        };
        let hib = HiBiscus::new(stalled::federation(&endpoints), config);
        let run = |q: &Query, ctx: &_| crate::common::Baseline::run(&hib.inner, q, ctx);
        stalled::assert_stops_on_time(&endpoints, |q| hib.execute(q), run);
    }

    #[test]
    fn preprocessing_time_reported() {
        let hib = HiBiscus::new(federation(), FedXConfig::default());
        assert!(hib.preprocessing_time().is_some());
    }

    #[test]
    fn prune_respects_authorities() {
        use lusail_sparql::ast::TermPattern;
        use lusail_store::stats::{PredicateStats, StoreStats};
        let mut p = PredicateStats::default();
        p.subject_authorities.insert("http://a.org".into());
        let mut s0 = StoreStats::default();
        s0.predicates.insert("http://x/p".into(), p);
        let index = VoidIndex {
            per_endpoint: vec![Some(s0), Some(StoreStats::default())],
            build_time: Duration::ZERO,
        };
        let tp = TriplePattern::new(
            TermPattern::iri("http://a.org/s1"),
            TermPattern::iri("http://x/p"),
            TermPattern::var("o"),
        );
        // ep0 has the authority; ep1 lacks the predicate entirely.
        assert_eq!(prune(&index, &tp, vec![0, 1]), vec![0]);
        // Variable subject: no subject pruning → both kept.
        let tp2 = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::iri("http://x/p"),
            TermPattern::var("o"),
        );
        assert_eq!(prune(&index, &tp2, vec![0, 1]), vec![0, 1]);
    }
}
