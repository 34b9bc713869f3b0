//! A faithful re-implementation of FedX's execution strategy
//! (Schwarte et al., ISWC 2011), the index-free baseline of the paper.
//!
//! FedX performs source selection with cached `ASK` probes, forms
//! *exclusive groups* from triple patterns whose only relevant endpoint is
//! the same single source, orders the resulting evaluation units with a
//! variable-counting heuristic, and executes them as a nested-loop bound
//! join: the current bindings are shipped to every relevant endpoint in
//! blocks (FedX's default block size is 15 bindings).
//!
//! When endpoints share a schema — LUBM's universities, or any benchmark
//! with replicated predicates — *no* exclusive groups form, every pattern
//! is relevant everywhere, and the number of remote requests scales with
//! `bindings / 15 × endpoints` per join step. That request explosion is
//! the behaviour Lusail's locality-aware decomposition removes.

use crate::common::{Baseline, Executor, FederatedEngine};
use lusail_core::cache::QueryCache;
use lusail_core::source::select_sources;
use lusail_core::subquery::Subquery;
use lusail_core::{EngineError, RunContext};
use lusail_federation::{EndpointId, Federation, RequestHandler};
use lusail_sparql::ast::{Query, TriplePattern, Variable};
use lusail_sparql::solution::Relation;
use std::time::Duration;

/// FedX configuration.
#[derive(Debug, Clone)]
pub struct FedXConfig {
    /// Bindings shipped per bound-join block (FedX ships 15).
    pub bind_block_size: usize,
    /// Per-query time limit.
    pub timeout: Option<Duration>,
    /// ERH width. `Some(n)` pins every wave to `n` threads; `None` is the
    /// elastic default (see `RequestHandler::elastic`), as in `LusailConfig`.
    pub threads: Option<usize>,
}

impl Default for FedXConfig {
    fn default() -> Self {
        FedXConfig {
            bind_block_size: 15,
            timeout: None,
            threads: None,
        }
    }
}

/// A source pruning hook: HiBISCuS narrows the `ASK`-selected sources of
/// each triple pattern using its authority summaries.
pub type SourcePruner =
    Box<dyn Fn(&TriplePattern, Vec<EndpointId>) -> Vec<EndpointId> + Send + Sync>;

/// The FedX engine.
pub struct FedX {
    federation: Federation,
    config: FedXConfig,
    cache: QueryCache,
    handler: RequestHandler,
    pruner: Option<SourcePruner>,
    name: &'static str,
}

impl FedX {
    /// A FedX engine over a federation.
    pub fn new(federation: Federation, config: FedXConfig) -> Self {
        let handler = match config.threads {
            Some(n) => RequestHandler::new(n),
            None => RequestHandler::elastic(federation.len()),
        };
        FedX {
            federation,
            config,
            cache: QueryCache::new(),
            handler,
            pruner: None,
            name: "FedX",
        }
    }

    /// FedX with a source-pruning add-on (used by HiBISCuS).
    pub(crate) fn with_pruner(
        federation: Federation,
        config: FedXConfig,
        pruner: SourcePruner,
        name: &'static str,
    ) -> Self {
        let mut engine = FedX::new(federation, config);
        engine.pruner = Some(pruner);
        engine.name = name;
        engine
    }

    /// The underlying federation.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }
}

impl Baseline for FedX {
    type Rank = (usize, usize, usize, usize);

    fn executor(&self) -> Executor<'_> {
        Executor {
            federation: &self.federation,
            handler: &self.handler,
            block_size: self.config.bind_block_size,
            hash_join_threshold: None,
        }
    }

    /// Cached `ASK` source selection, narrowed by the pruner when there is
    /// one.
    fn sources(
        &self,
        patterns: &[TriplePattern],
        ctx: &RunContext,
    ) -> Result<Vec<Vec<EndpointId>>, EngineError> {
        let cache = Some(&self.cache);
        let mut sources = select_sources(&self.federation, &self.handler, cache, patterns, ctx)?;
        if let Some(pruner) = &self.pruner {
            for (tp, s) in patterns.iter().zip(&mut sources) {
                *s = pruner(tp, std::mem::take(s));
            }
        }
        Ok(sources)
    }

    /// FedX's variable-counting join ordering: the unit with the fewest
    /// *free* (unbound) variables, then exclusive groups, then more
    /// constants, then fewer sources.
    fn rank(&self, unit: &Subquery, bound: &[Variable]) -> Self::Rank {
        let free = unit
            .projection
            .iter()
            .filter(|v| !bound.contains(v))
            .count();
        let constants: usize = unit.patterns.iter().map(|tp| 3 - tp.free_slots()).sum();
        let shared = usize::from(unit.sources.len() != 1);
        (free, shared, usize::MAX - constants, unit.sources.len())
    }
}

impl FederatedEngine for FedX {
    fn name(&self) -> &str {
        self.name
    }

    fn execute(&self, query: &Query) -> Result<Relation, EngineError> {
        self.run(query, &RunContext::fail_fast(self.config.timeout))
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

    /// Two-endpoint LUBM-style federation with a shared schema and an
    /// interlink (same data as the core engine tests).
    fn federation() -> Federation {
        let ub = |l: &str| Term::iri(format!("{}{l}", vocab::ub::NS));
        let u1 = |l: &str| Term::iri(format!("http://univ1.example.org/{l}"));
        let u2 = |l: &str| Term::iri(format!("http://univ2.example.org/{l}"));
        let mut g1 = Graph::new();
        g1.add_type(u1("MIT"), vocab::ub::UNIVERSITY);
        g1.add(u1("MIT"), ub("address"), Term::literal("XXX"));
        g1.add_type(u1("Bob"), vocab::ub::GRADUATE_STUDENT);
        g1.add(u1("Bob"), ub("advisor"), u1("Ann"));
        g1.add(u1("Ann"), ub("PhDDegreeFrom"), u1("MIT"));
        let mut g2 = Graph::new();
        g2.add_type(u2("CMU"), vocab::ub::UNIVERSITY);
        g2.add(u2("CMU"), ub("address"), Term::literal("CCCC"));
        g2.add_type(u2("Kim"), vocab::ub::GRADUATE_STUDENT);
        g2.add(u2("Kim"), ub("advisor"), u2("Tim"));
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
    fn answers_cross_endpoint_join() {
        let fedx = FedX::new(federation(), FedXConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?p ?u ?a WHERE {
                 ?p ub:PhDDegreeFrom ?u .
                 ?u ub:address ?a }"#,
        )
        .unwrap();
        let rel = fedx.execute(&q).unwrap();
        // Ann→MIT→XXX and Tim→MIT→XXX (the interlink).
        assert_eq!(rel.len(), 2);
        assert!(rel
            .rows()
            .iter()
            .any(|r| r[0] == Some(Term::iri("http://univ2.example.org/Tim"))));
    }

    #[test]
    fn matches_lusail_results() {
        use lusail_core::{LusailConfig, LusailEngine};
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               SELECT ?s ?p ?u WHERE {
                 ?s rdf:type ub:GraduateStudent .
                 ?s ub:advisor ?p .
                 ?p ub:PhDDegreeFrom ?u }"#,
        )
        .unwrap();
        let fedx = FedX::new(federation(), FedXConfig::default());
        let lusail = LusailEngine::new(federation(), LusailConfig::default());
        let mut r1 = fedx.execute(&q).unwrap();
        let mut r2 = lusail.execute(&q).unwrap();
        r1.rows_mut().sort();
        r2.rows_mut().sort();
        assert_eq!(r1.len(), 2);
        assert_eq!(r1.rows(), r2.rows());
    }

    #[test]
    fn sends_more_requests_than_lusail() {
        use lusail_core::{LusailConfig, LusailEngine};
        // A join over replicated predicates: FedX bound-joins TP by TP.
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?s ?p ?u ?a WHERE {
                 ?s ub:advisor ?p .
                 ?p ub:PhDDegreeFrom ?u .
                 ?u ub:address ?a }"#,
        )
        .unwrap();
        let fedx = FedX::new(federation(), FedXConfig::default());
        fedx.execute(&q).unwrap();
        let fedx_requests = fedx.federation().total_traffic().requests;

        let lusail = LusailEngine::new(federation(), LusailConfig::default());
        lusail.execute(&q).unwrap();
        let first = lusail.federation().total_traffic().requests;
        // Lusail's second (cached) run is the fair comparison for repeated
        // workloads; but even the first should not exceed FedX by much on
        // this tiny example. The paper's claim concerns scaling, tested in
        // the benches; here we just sanity-check both count requests.
        assert!(fedx_requests > 0 && first > 0);
    }

    #[test]
    fn rejects_disconnected_subgraphs() {
        let fedx = FedX::new(federation(), FedXConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT * WHERE {
                 ?a ub:address ?x . ?b ub:PhDDegreeFrom ?c . FILTER(?x != ?c) }"#,
        )
        .unwrap();
        match fedx.execute(&q) {
            Err(EngineError::Unsupported(_)) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn optional_and_filter() {
        let fedx = FedX::new(federation(), FedXConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?p ?u ?a WHERE {
                 ?p ub:PhDDegreeFrom ?u
                 OPTIONAL { ?u ub:address ?a }
                 FILTER(BOUND(?a)) }"#,
        )
        .unwrap();
        let rel = fedx.execute(&q).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn exclusive_groups_form_for_unique_predicates() {
        use crate::common::exclusive_groups;
        // Predicate only at univ1 → its patterns group exclusively.
        let ub = |l: &str| format!("{}{l}", vocab::ub::NS);
        let pats = vec![
            TriplePattern::new(
                lusail_sparql::ast::TermPattern::var("u"),
                lusail_sparql::ast::TermPattern::iri(ub("address")),
                lusail_sparql::ast::TermPattern::var("a"),
            ),
            TriplePattern::new(
                lusail_sparql::ast::TermPattern::var("u"),
                lusail_sparql::ast::TermPattern::iri(ub("name")),
                lusail_sparql::ast::TermPattern::var("n"),
            ),
        ];
        let sources = vec![vec![0], vec![0]];
        let groups = exclusive_groups(&pats, &sources, &[]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].patterns.len(), 2);
        // Mixed sources stay separate.
        let sources = vec![vec![0], vec![0, 1]];
        let groups = exclusive_groups(&pats, &sources, &[]);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn deadline_and_cancel_reach_the_requests() {
        use crate::common::stalled;
        let endpoints = stalled::endpoints();
        let config = FedXConfig {
            timeout: Some(stalled::TIMEOUT),
            ..Default::default()
        };
        let fedx = FedX::new(stalled::federation(&endpoints), config);
        stalled::assert_stops_on_time(&endpoints, |q| fedx.execute(q), |q, ctx| fedx.run(q, ctx));
    }

    #[test]
    fn timeout_fires() {
        let fedx = FedX::new(
            federation(),
            FedXConfig {
                timeout: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?p ?u WHERE { ?p ub:PhDDegreeFrom ?u . ?u ub:address ?a }"#,
        )
        .unwrap();
        assert!(matches!(fedx.execute(&q), Err(EngineError::Timeout(_))));
    }
}
