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

use crate::common::{unindexed, FederatedEngine};
use crate::fedx::{FedX, FedXConfig};
use lusail_core::EngineError;
use lusail_federation::{EndpointId, Federation};
use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::fxhash::FxHashSet;
use lusail_sparql::ast::{Query, TermPattern, TriplePattern};
use lusail_sparql::solution::Relation;
use std::time::{Duration, Instant};

/// Per-endpoint authority summaries, built in a preprocessing pass.
#[derive(Debug, Default, Clone)]
struct AuthoritySummary {
    /// predicate IRI → subject authorities at this endpoint.
    subjects: FxHashMap<String, FxHashSet<String>>,
    /// predicate IRI → object authorities at this endpoint.
    objects: FxHashMap<String, FxHashSet<String>>,
}

/// The HiBISCuS engine: FedX plus authority-based source pruning.
pub struct HiBiscus {
    inner: FedX,
    build_time: Duration,
    /// The first endpoint that offered no statistics, so has no summary.
    unindexed: Option<String>,
}

impl HiBiscus {
    /// Build the summaries (preprocessing) and wrap FedX with the pruner.
    pub fn new(federation: Federation, config: FedXConfig) -> Self {
        let start = Instant::now();
        let summaries: Vec<Option<AuthoritySummary>> = federation
            .iter()
            .map(|(_, ep)| {
                let stats = ep.collect_stats()?;
                let mut s = AuthoritySummary::default();
                for (pred, pstats) in &stats.predicates {
                    s.subjects
                        .insert(pred.clone(), pstats.subject_authorities.clone());
                    s.objects
                        .insert(pred.clone(), pstats.object_authorities.clone());
                }
                Some(s)
            })
            .collect();
        let build_time = start.elapsed();
        let unindexed = (summaries.iter().position(Option::is_none))
            .map(|ep| federation.endpoint(ep).name().to_string());
        // Without every summary nothing is pruned: `execute` answers nothing.
        let summaries: Option<Vec<AuthoritySummary>> = summaries.into_iter().collect();
        let pruner = Box::new(
            move |tp: &TriplePattern, sources: Vec<EndpointId>| match &summaries {
                Some(summaries) => prune(summaries, tp, sources),
                None => sources,
            },
        );
        HiBiscus {
            inner: FedX::with_pruner(federation, config, pruner, "HiBISCuS"),
            build_time,
            unindexed,
        }
    }

    /// The underlying federation.
    pub fn federation(&self) -> &Federation {
        self.inner.federation()
    }
}

fn prune(
    summaries: &[AuthoritySummary],
    tp: &TriplePattern,
    sources: Vec<EndpointId>,
) -> Vec<EndpointId> {
    let Some(pred) = tp.predicate.as_term().and_then(|t| t.as_iri()) else {
        return sources;
    };
    let subject_auth = match &tp.subject {
        TermPattern::Term(t) => t.authority().map(str::to_string),
        TermPattern::Var(_) => None,
    };
    let object_auth = match &tp.object {
        TermPattern::Term(t) => t.authority().map(str::to_string),
        TermPattern::Var(_) => None,
    };
    sources
        .into_iter()
        .filter(|&ep| {
            let s = &summaries[ep];
            if let Some(auth) = &subject_auth {
                match s.subjects.get(pred) {
                    Some(set) if set.contains(auth) => {}
                    // The predicate exists but never with this authority
                    // as subject → prune.
                    Some(_) => return false,
                    None => return false,
                }
            }
            if let Some(auth) = &object_auth {
                match s.objects.get(pred) {
                    Some(set) if set.contains(auth) => {}
                    Some(set) if set.is_empty() => {
                        // Literal-only objects: authority unknown, keep
                        // (cannot prove irrelevance).
                    }
                    Some(_) => return false,
                    None => return false,
                }
            }
            true
        })
        .collect()
}

impl FederatedEngine for HiBiscus {
    fn name(&self) -> &str {
        "HiBISCuS"
    }

    fn execute(&self, query: &Query) -> Result<Relation, EngineError> {
        match &self.unindexed {
            Some(endpoint) => Err(unindexed("HiBISCuS", endpoint)),
            None => self.inner.execute(query),
        }
    }

    fn preprocessing_time(&self) -> Option<Duration> {
        Some(self.build_time)
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
        let run = |q: &Query, ctx: &_| hib.inner.run(q, ctx);
        stalled::assert_stops_on_time(&endpoints, |q| hib.execute(q), run);
    }

    #[test]
    fn preprocessing_time_reported() {
        let hib = HiBiscus::new(federation(), FedXConfig::default());
        assert!(hib.preprocessing_time().is_some());
    }

    #[test]
    fn prune_respects_authorities() {
        let mut s0 = AuthoritySummary::default();
        s0.subjects
            .entry("http://x/p".into())
            .or_default()
            .insert("http://a.org".into());
        s0.objects.entry("http://x/p".into()).or_default();
        let summaries = vec![s0, AuthoritySummary::default()];
        let tp = TriplePattern::new(
            TermPattern::iri("http://a.org/s1"),
            TermPattern::iri("http://x/p"),
            TermPattern::var("o"),
        );
        // ep0 has the authority; ep1 lacks the predicate entirely.
        assert_eq!(prune(&summaries, &tp, vec![0, 1]), vec![0]);
        // Variable subject: no subject pruning → both kept.
        let tp2 = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::iri("http://x/p"),
            TermPattern::var("o"),
        );
        assert_eq!(prune(&summaries, &tp2, vec![0, 1]), vec![0, 1]);
    }
}
