//! A SPLENDID-style index-based federated engine (Görlitz & Staab,
//! COLD 2011).
//!
//! SPLENDID builds a VoID-style index in a preprocessing pass — per
//! endpoint, per predicate: triple count and distinct subject/object
//! counts. Source selection reads the index instead of probing endpoints;
//! join planning uses index cardinalities; execution chooses per join step
//! between a bound join (few bindings) and independent evaluation plus a
//! hash join (many bindings).
//!
//! The preprocessing pass is the cost the paper's §5.1 "Data Preprocessing
//! Cost" table reports (25 s for QFed, 3513 s for LargeRDFBench on the
//! authors' hardware): it scales with data size, which is why index-free
//! engines are preferred for dynamic federations.

use crate::common::{
    connected_pattern_components, execute_groups, residual_filters, unindexed, ExecOptions,
    FederatedEngine, GroupPlan,
};
use lusail_core::normalize::{assemble_branch, assemble_select, ConjBranch};
use lusail_core::{EngineError, RunContext};
use lusail_federation::{EndpointId, Federation, RequestHandler};
use lusail_sparql::ast::{Query, TermPattern, TriplePattern, Variable};
use lusail_sparql::solution::Relation;
use lusail_store::stats::StoreStats;
use std::time::{Duration, Instant};

/// The VoID-style index: per-endpoint statistics gathered in the
/// preprocessing pass, `None` for an endpoint that offered none.
pub struct VoidIndex {
    per_endpoint: Vec<Option<StoreStats>>,
    build_time: Duration,
}

impl VoidIndex {
    /// Run the preprocessing pass over every endpoint in the federation.
    pub fn build(federation: &Federation) -> Self {
        let start = Instant::now();
        let per_endpoint = federation
            .iter()
            .map(|(_, ep)| ep.collect_stats())
            .collect();
        VoidIndex {
            per_endpoint,
            build_time: start.elapsed(),
        }
    }

    /// The first endpoint the index lacks: it offered no statistics.
    pub fn unindexed(&self) -> Option<EndpointId> {
        self.per_endpoint.iter().position(Option::is_none)
    }

    /// How long preprocessing took.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Index-based source selection for one pattern: endpoints whose index
    /// lists the pattern's predicate (every endpoint for variable
    /// predicates).
    pub fn sources_for(&self, tp: &TriplePattern) -> Vec<EndpointId> {
        match &tp.predicate {
            TermPattern::Term(t) => match t.as_iri() {
                Some(iri) => (0..self.per_endpoint.len())
                    .filter(|&i| {
                        let stats = self.per_endpoint[i].as_ref();
                        stats.is_some_and(|s| s.has_predicate(iri))
                    })
                    .collect(),
                None => (0..self.per_endpoint.len()).collect(),
            },
            TermPattern::Var(_) => (0..self.per_endpoint.len()).collect(),
        }
    }

    /// Index-based cardinality estimate for a pattern at one endpoint:
    /// the predicate count, narrowed by distinct subject/object counts
    /// when the subject/object is bound.
    pub fn estimate(&self, tp: &TriplePattern, ep: EndpointId) -> usize {
        let Some(stats) = &self.per_endpoint[ep] else {
            return 0;
        };
        let Some(iri) = tp.predicate.as_term().and_then(|t| t.as_iri()) else {
            return stats.triples;
        };
        let Some(p) = stats.predicates.get(iri) else {
            return 0;
        };
        let mut est = p.count as f64;
        if tp.subject.as_term().is_some() && p.distinct_subjects > 0 {
            est /= p.distinct_subjects as f64;
        }
        if tp.object.as_term().is_some() && p.distinct_objects > 0 {
            est /= p.distinct_objects as f64;
        }
        est.ceil() as usize
    }

    /// Total estimate over a pattern's relevant endpoints.
    pub fn total_estimate(&self, tp: &TriplePattern) -> usize {
        self.sources_for(tp)
            .into_iter()
            .map(|ep| self.estimate(tp, ep))
            .sum()
    }
}

/// The SPLENDID engine.
pub struct Splendid {
    federation: Federation,
    index: VoidIndex,
    handler: RequestHandler,
    /// Above this many bindings, a join step switches from bound join to
    /// independent evaluation + hash join.
    pub hash_join_threshold: usize,
    /// Bindings per bound-join block.
    pub bind_block_size: usize,
    pub timeout: Option<Duration>,
}

impl Splendid {
    /// Build the index (the preprocessing pass) and the engine.
    pub fn new(federation: Federation) -> Self {
        let index = VoidIndex::build(&federation);
        let handler = RequestHandler::elastic(federation.len());
        Splendid {
            federation,
            index,
            handler,
            hash_join_threshold: 500,
            bind_block_size: 100,
            timeout: None,
        }
    }

    /// The underlying federation.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// The VoID index.
    pub fn index(&self) -> &VoidIndex {
        &self.index
    }

    /// Run `query` under `ctx`: the one deadline (and cancel token) of
    /// every group wave. An index that lacks an endpoint answers nothing.
    fn run(&self, query: &Query, ctx: &RunContext) -> Result<Relation, EngineError> {
        if let Some(ep) = self.index.unindexed() {
            return Err(unindexed("SPLENDID", self.federation.endpoint(ep).name()));
        }
        assemble_select(query, |_, branches| {
            (branches.iter())
                .map(|branch| self.run_branch(branch, ctx))
                .collect()
        })
    }

    fn run_branch(&self, branch: &ConjBranch, ctx: &RunContext) -> Result<Relation, EngineError> {
        if connected_pattern_components(&branch.patterns) > 1 {
            return Err(EngineError::Unsupported(
                "disjoint subgraphs joined by a filter variable".into(),
            ));
        }
        // Index-based source selection; then group single-source patterns
        // per endpoint (SPLENDID also groups same-source patterns).
        let sources_of = |patterns: &[TriplePattern]| -> Vec<Vec<EndpointId>> {
            let of = |tp| self.index.sources_for(tp);
            patterns.iter().map(of).collect()
        };
        let sources = sources_of(&branch.patterns);
        let mut groups: Vec<GroupPlan> = Vec::new();
        for (i, tp) in branch.patterns.iter().enumerate() {
            let exclusive = sources[i].len() == 1;
            let slot = exclusive
                .then(|| {
                    groups
                        .iter()
                        .position(|g| g.sources.len() == 1 && g.sources == sources[i])
                })
                .flatten();
            match slot {
                Some(g) => groups[g].patterns.push(tp.clone()),
                None => groups.push(GroupPlan {
                    patterns: vec![tp.clone()],
                    filters: Vec::new(),
                    sources: sources[i].clone(),
                }),
            }
        }
        for f in &branch.filters {
            if matches!(
                f,
                lusail_sparql::ast::Expression::Exists(_)
                    | lusail_sparql::ast::Expression::NotExists(_)
            ) {
                continue;
            }
            let fvars = f.variables();
            if fvars.is_empty() {
                continue;
            }
            for g in &mut groups {
                let gvars = g.variables();
                if fvars.iter().all(|v| gvars.contains(v)) {
                    g.filters.push(f.clone());
                }
            }
        }

        // Cost-based ordering: cheapest estimated group first, then by
        // connectivity (greedy approximation of SPLENDID's DP planner).
        let estimate = |g: &GroupPlan| -> usize {
            g.patterns
                .iter()
                .map(|tp| self.index.total_estimate(tp))
                .min()
                .unwrap_or(0)
        };
        let mut ordered: Vec<GroupPlan> = Vec::with_capacity(groups.len());
        let mut bound: Vec<Variable> = Vec::new();
        while !groups.is_empty() {
            let idx = groups
                .iter()
                .enumerate()
                .min_by_key(|(_, g)| {
                    let connected =
                        g.variables().iter().any(|v| bound.contains(v)) || bound.is_empty();
                    (usize::from(!connected), estimate(g))
                })
                .map(|(i, _)| i)
                .unwrap();
            let g = groups.remove(idx);
            bound.extend(g.variables());
            ordered.push(g);
        }

        let opts = ExecOptions {
            block_size: self.bind_block_size,
            hash_join_threshold: Some(self.hash_join_threshold),
        };
        let run = |groups: &[GroupPlan]| {
            execute_groups(&self.federation, &self.handler, groups, ctx, &opts)
        };
        let residual = residual_filters(&branch.filters, &ordered);
        // OPTIONAL and MINUS blocks: evaluated whole at their sources.
        assemble_branch(branch, run(&ordered)?, residual, |_, _, block, _| {
            run(&[GroupPlan::for_block(block, &sources_of(&block.patterns))])
        })
    }
}

impl FederatedEngine for Splendid {
    fn name(&self) -> &str {
        "SPLENDID"
    }

    fn execute(&self, query: &Query) -> Result<Relation, EngineError> {
        self.run(query, &RunContext::fail_fast(self.timeout))
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
        g2.add(u2("Kim"), ub("advisor"), u2("Tim"));
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
    fn preprocessing_builds_index() {
        let s = Splendid::new(federation());
        assert!(s.preprocessing_time().is_some());
        let ask_traffic = s.federation().total_traffic().requests;
        // Index-based source selection issues no ASK probes.
        let tp = TriplePattern::new(
            TermPattern::var("u"),
            TermPattern::iri(format!("{}address", vocab::ub::NS)),
            TermPattern::var("a"),
        );
        assert_eq!(s.index().sources_for(&tp), vec![0, 1]);
        let adv = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::iri(format!("{}advisor", vocab::ub::NS)),
            TermPattern::var("p"),
        );
        assert_eq!(s.index().sources_for(&adv), vec![1]);
        assert_eq!(s.federation().total_traffic().requests, ask_traffic);
    }

    #[test]
    fn index_estimates() {
        let s = Splendid::new(federation());
        let tp = TriplePattern::new(
            TermPattern::var("u"),
            TermPattern::iri(format!("{}PhDDegreeFrom", vocab::ub::NS)),
            TermPattern::var("a"),
        );
        assert_eq!(s.index().total_estimate(&tp), 2);
        // Bound object narrows.
        let bound = TriplePattern::new(
            TermPattern::var("u"),
            TermPattern::iri(format!("{}PhDDegreeFrom", vocab::ub::NS)),
            TermPattern::iri("http://univ1.example.org/MIT"),
        );
        assert!(s.index().total_estimate(&bound) <= 2);
    }

    #[test]
    fn answers_cross_endpoint_join() {
        let s = Splendid::new(federation());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?p ?u ?a WHERE { ?p ub:PhDDegreeFrom ?u . ?u ub:address ?a }"#,
        )
        .unwrap();
        let rel = s.execute(&q).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn matches_lusail() {
        use lusail_core::{LusailConfig, LusailEngine};
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?s ?p ?u ?a WHERE {
                 ?s ub:advisor ?p . ?p ub:PhDDegreeFrom ?u . ?u ub:address ?a }"#,
        )
        .unwrap();
        let s = Splendid::new(federation());
        let lusail = LusailEngine::new(federation(), LusailConfig::default());
        let mut r1 = s.execute(&q).unwrap();
        let mut r2 = lusail.execute(&q).unwrap();
        r1.rows_mut().sort();
        r2.rows_mut().sort();
        assert_eq!(r1.len(), 1); // Kim → Tim → MIT → XXX
        assert_eq!(r1.rows(), r2.rows());
    }

    #[test]
    fn deadline_and_cancel_reach_the_requests() {
        use crate::common::stalled;
        let endpoints = stalled::endpoints();
        let mut s = Splendid::new(stalled::federation(&endpoints));
        s.timeout = Some(stalled::TIMEOUT);
        stalled::assert_stops_on_time(&endpoints, |q| s.execute(q), |q, ctx| s.run(q, ctx));
    }

    #[test]
    fn rejects_disconnected_subgraphs() {
        let s = Splendid::new(federation());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT * WHERE { ?a ub:address ?x . ?b ub:advisor ?c . FILTER(?x != ?c) }"#,
        )
        .unwrap();
        assert!(matches!(s.execute(&q), Err(EngineError::Unsupported(_))));
    }
}
