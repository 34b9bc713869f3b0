//! The engine-agnostic interface the benchmark harness drives, plus the
//! one branch runner the three baselines share.
//!
//! A baseline is its strategy — where each triple pattern is sent and which
//! unit runs next (the two hooks of `Baseline`) — and its join style
//! (`Executor`). Everything else is written once here, on core's
//! [`Subquery`]: refusing disjoint subgraphs, FedX's exclusive grouping,
//! FILTER push-down by core's one rule, the group-at-a-time bound join
//! (`Executor::execute_groups`), the residual filters and the whole-block
//! fetch of every `OPTIONAL` and `MINUS` block.

use lusail_core::normalize::{assemble_branch, assemble_select, ConjBranch};
use lusail_core::subquery::{pushed_filters, residual_filters, Subquery};
use lusail_core::{EngineError, LusailEngine, RunContext};
use lusail_federation::{EndpointId, Federation, RequestHandler};
use lusail_sparql::ast::{Expression, Query, TriplePattern, Variable};
use lusail_sparql::solution::Relation;

/// A federated SPARQL engine: Lusail or one of the baselines.
pub trait FederatedEngine {
    /// Display name used in benchmark tables.
    fn name(&self) -> &str;

    /// Execute a query against the engine's federation.
    fn execute(&self, query: &Query) -> Result<Relation, EngineError>;

    /// One-off preparation cost (index construction for the index-based
    /// systems). Index-free engines return `None`.
    fn preprocessing_time(&self) -> Option<std::time::Duration> {
        None
    }
}

impl FederatedEngine for LusailEngine {
    fn name(&self) -> &str {
        "Lusail"
    }

    fn execute(&self, query: &Query) -> Result<Relation, EngineError> {
        LusailEngine::execute(self, query)
    }
}

/// What one baseline engine supplies; [`Baseline::run`] is the rest.
pub(crate) trait Baseline {
    /// What [`rank`](Self::rank) orders units by, least first.
    type Rank: Ord;

    /// The federation, handler and join style the units run with.
    fn executor(&self) -> Executor<'_>;

    /// The relevant endpoints of each of `patterns`.
    fn sources(
        &self,
        patterns: &[TriplePattern],
        ctx: &RunContext,
    ) -> Result<Vec<Vec<EndpointId>>, EngineError>;

    /// How early `unit` should run once `bound` is bound: the units run
    /// least rank first, ties in grouping order.
    fn rank(&self, unit: &Subquery, bound: &[Variable]) -> Self::Rank;

    /// Run `query` under `ctx`: the one deadline (and cancel token) of
    /// every probe and group wave. The baselines have no partial mode.
    fn run(&self, query: &Query, ctx: &RunContext) -> Result<Relation, EngineError> {
        assemble_select(query, |_, branches| {
            (branches.iter())
                .map(|branch| run_branch(self, branch, ctx))
                .collect()
        })
    }
}

/// One conjunctive branch: the exclusive groups of its patterns in
/// `engine`'s order, the residual filters, then each `OPTIONAL` and
/// `MINUS` block as one unit sent whole to its sources.
fn run_branch<B: Baseline + ?Sized>(
    engine: &B,
    branch: &ConjBranch,
    ctx: &RunContext,
) -> Result<Relation, EngineError> {
    // The baselines cannot bridge disconnected required subgraphs through
    // a filter variable (the paper's C5 / B5 / B6).
    if connected_pattern_components(&branch.patterns) > 1 {
        return Err(EngineError::Unsupported(
            "disjoint subgraphs joined by a filter variable".into(),
        ));
    }
    let sources = engine.sources(&branch.patterns, ctx)?;
    let mut groups = exclusive_groups(&branch.patterns, &sources, &branch.filters);
    // Greedy: the least-ranked unit given what the ones before it bind.
    let (mut units, mut bound) = (Vec::with_capacity(groups.len()), Vec::new());
    while !groups.is_empty() {
        let rank = |(_, unit): &(usize, &Subquery)| engine.rank(unit, &bound);
        let (next, _) = groups.iter().enumerate().min_by_key(rank).unwrap();
        let unit = groups.remove(next);
        bound.extend(unit.projection.iter().cloned());
        units.push(unit);
    }
    let exec = engine.executor();
    let residual = residual_filters(&branch.filters, &units);
    let required = exec.execute_groups(&units, ctx)?;
    assemble_branch(branch, required, residual, |_, i, block, _| {
        let unit = Subquery::for_block(i, block, &engine.sources(&block.patterns, ctx)?);
        exec.execute_groups(&[unit], ctx)
    })
}

/// FedX grouping: triple patterns whose relevant source set is the *same
/// single endpoint* form one exclusive group; everything else is a
/// singleton unit sent to all its sources. Each unit takes every filter
/// core's push-down rule gives it.
pub(crate) fn exclusive_groups(
    patterns: &[TriplePattern],
    sources: &[Vec<EndpointId>],
    filters: &[Expression],
) -> Vec<Subquery> {
    let mut groups: Vec<(Vec<TriplePattern>, &Vec<EndpointId>)> = Vec::new();
    for (tp, sources) in patterns.iter().zip(sources) {
        let exclusive = sources.len() == 1;
        match groups.iter_mut().find(|(_, s)| exclusive && *s == sources) {
            Some((group, _)) => group.push(tp.clone()),
            None => groups.push((vec![tp.clone()], sources)),
        }
    }
    let unit = |(id, (patterns, sources)): (usize, (Vec<_>, &Vec<_>))| {
        let mut unit = Subquery::new(id, patterns, Vec::new(), sources.clone());
        unit.filters = pushed_filters(filters, &unit.projection);
        unit
    };
    groups.into_iter().enumerate().map(unit).collect()
}

/// How a baseline evaluates its units: every wave through `handler` to
/// `federation`, bindings shipped `block_size` per `VALUES` block.
pub(crate) struct Executor<'a> {
    pub federation: &'a Federation,
    pub handler: &'a RequestHandler,
    /// Bindings per `VALUES` block in a bound join (FedX ships 15).
    pub block_size: usize,
    /// When set, a step whose current bindings exceed this switches to
    /// independent evaluation plus a hash join (SPLENDID's strategy);
    /// `None` always bind-joins (FedX).
    pub hash_join_threshold: Option<usize>,
}

impl Executor<'_> {
    /// The nested-loop, group-at-a-time execution shared by FedX,
    /// HiBISCuS, and SPLENDID: evaluate the first unit, then repeatedly
    /// ship the current bindings to the next unit's sources in blocks.
    ///
    /// This is exactly the strategy §1 of the Lusail paper critiques: "the
    /// query being processed one triple pattern at a time", with requests
    /// multiplying as blocks × endpoints. Every wave leaves through
    /// [`RunContext::dispatch`], under the query's one deadline.
    pub fn execute_groups(
        &self,
        units: &[Subquery],
        ctx: &RunContext,
    ) -> Result<Relation, EngineError> {
        let mut current: Option<Relation> = None;
        for unit in units {
            let rel = match &current {
                None => self.evaluate_unbound(unit, ctx)?,
                Some(bindings) => {
                    let shared: Vec<Variable> = (unit.projection.iter())
                        .filter(|v| bindings.index_of(v).is_some())
                        .cloned()
                        .collect();
                    let use_hash = (self.hash_join_threshold).is_some_and(|l| bindings.len() > l);
                    if shared.is_empty() || use_hash {
                        self.evaluate_unbound(unit, ctx)?
                    } else {
                        self.evaluate_bound(unit, bindings, &shared, ctx)?
                    }
                }
            };
            current = Some(match current {
                None => rel,
                Some(acc) => acc.join(&rel),
            });
            if current.as_ref().is_some_and(|r| r.is_empty()) {
                // Keep the header complete for downstream projection.
                let r = current.unwrap();
                let mut vars = r.vars().to_vec();
                for v in units.iter().flat_map(Subquery::variables) {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                return Ok(Relation::new(vars));
            }
        }
        Ok(current.unwrap_or_else(|| Relation::from_rows(Vec::new(), vec![Vec::new()])))
    }

    /// One wave: `query`, `unit` unbound or over one block, at each of
    /// the unit's sources.
    fn fetch(
        &self,
        unit: &Subquery,
        query: Query,
        ctx: &RunContext,
    ) -> Result<Vec<Relation>, EngineError> {
        let select = |ep, deadline| self.federation.endpoint(ep).select_within(&query, deadline);
        let sent = ctx.dispatch(self.handler, "group wave", unit.sources.clone(), select)?;
        let settled = |rel| ctx.absorb("group wave", Relation::new(unit.projection.clone()), rel);
        sent.into_iter().map(settled).collect()
    }

    fn evaluate_unbound(&self, unit: &Subquery, ctx: &RunContext) -> Result<Relation, EngineError> {
        let mut out = Relation::new(unit.projection.clone());
        for rel in self.fetch(unit, unit.to_query(), ctx)? {
            out.append(rel);
        }
        Ok(out)
    }

    fn evaluate_bound(
        &self,
        unit: &Subquery,
        bindings: &Relation,
        shared: &[Variable],
        ctx: &RunContext,
    ) -> Result<Relation, EngineError> {
        // Distinct rows of the shared variables are the values to ship.
        let mut key_rows = bindings.project(shared);
        key_rows.dedup();
        let mut out = Relation::new(unit.projection.clone());
        // One wave per block: FedX-style sequential nested loop (each block
        // still fans out to all sources in parallel, but blocks are serial —
        // this is the parallelism limit the paper describes).
        for block in key_rows.rows().chunks(self.block_size.max(1)) {
            for rel in self.fetch(unit, unit.to_bound_query(shared, block), ctx)? {
                out.append(rel.project(out.vars()));
            }
        }
        Ok(out)
    }
}

/// Split patterns into connected components by shared variables. Baselines
/// reject queries whose required part is disconnected (the paper's C5, B5,
/// B6: "a query not supported by Lusail's competitors").
pub fn connected_pattern_components(patterns: &[TriplePattern]) -> usize {
    let n = patterns.len();
    if n == 0 {
        return 0;
    }
    let mut component: Vec<usize> = (0..n).collect();
    fn find(c: &mut Vec<usize>, i: usize) -> usize {
        if c[i] != i {
            let root = find(c, c[i]);
            c[i] = root;
        }
        c[i]
    }
    for i in 0..n {
        for j in i + 1..n {
            let connected = patterns[i]
                .variables()
                .iter()
                .any(|v| patterns[j].mentions(v))
                // Shared constants (subject/object IRIs) connect too.
                || [&patterns[i].subject, &patterns[i].object].iter().any(|s| {
                    s.as_term().is_some()
                        && [&patterns[j].subject, &patterns[j].object]
                            .iter()
                            .any(|t| t.as_term() == s.as_term())
                });
            if connected {
                let (ri, rj) = (find(&mut component, i), find(&mut component, j));
                if ri != rj {
                    component[ri] = rj;
                }
            }
        }
    }
    let mut roots: Vec<usize> = (0..n).map(|i| find(&mut component, i)).collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}

/// What the three engines' deadline tests share: a federation that can be
/// made to stall, and the run that must not wait for it.
#[cfg(test)]
pub(crate) mod stalled {
    use super::*;
    use lusail_core::{CancelReason, CancelToken};
    use lusail_federation::{
        FaultProfile, FaultyEndpoint, NetworkProfile, SimulatedEndpoint, SparqlEndpoint,
    };
    use lusail_rdf::Graph;
    use lusail_rdf::Term;
    use lusail_store::Store;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// The `--timeout` the engine under test is built with.
    pub const TIMEOUT: Duration = Duration::from_millis(100);
    const STALL: Duration = Duration::from_secs(2);

    /// Two healthy endpoints with a join across them.
    pub fn endpoints() -> Vec<Arc<FaultyEndpoint>> {
        let iri = |l: &str| Term::iri(format!("http://x/{l}"));
        let endpoint = |name: &str, person: &str| {
            let mut g = Graph::new();
            g.add(iri(person), iri("degreeFrom"), iri("MIT"));
            g.add(iri(name), iri("address"), Term::literal(name));
            let inner =
                SimulatedEndpoint::new(name, Store::from_graph(&g), NetworkProfile::instant());
            Arc::new(FaultyEndpoint::new(
                Arc::new(inner),
                7,
                FaultProfile::none(),
            ))
        };
        vec![endpoint("MIT", "Ann"), endpoint("CMU", "Tim")]
    }

    pub fn federation(endpoints: &[Arc<FaultyEndpoint>]) -> Federation {
        let as_dyn = |ep: &Arc<FaultyEndpoint>| Arc::clone(ep) as Arc<dyn SparqlEndpoint>;
        Federation::new(endpoints.iter().map(as_dyn).collect())
    }

    /// `execute` (the engine's public entry, built with [`TIMEOUT`]) and
    /// `run` (the same under a given context) answer while the endpoints
    /// are healthy. Once every request stalls for 2 s, the first is the
    /// query's `Timeout` and the second, its token tripped while requests
    /// are out, `Cancelled` — both long before one stall is over, because
    /// the requests themselves carry the deadline and the token.
    pub fn assert_stops_on_time(
        endpoints: &[Arc<FaultyEndpoint>],
        execute: impl Fn(&Query) -> Result<Relation, EngineError>,
        run: impl Fn(&Query, &RunContext) -> Result<Relation, EngineError>,
    ) {
        let q = "SELECT ?p ?a WHERE { ?p <http://x/degreeFrom> ?u . ?u <http://x/address> ?a }";
        let q = lusail_sparql::parse_query(q).unwrap();
        // Healthy (and, for FedX, the ASK cache warm: the stalled runs
        // start at a group wave).
        assert_eq!(execute(&q).unwrap().len(), 2);
        for ep in endpoints {
            ep.set_faults(FaultProfile {
                spike_rate: 1.0,
                spike: STALL,
                ..FaultProfile::none()
            });
        }

        let started = Instant::now();
        assert_eq!(execute(&q), Err(EngineError::Timeout(TIMEOUT)));
        assert!(started.elapsed() < STALL / 2, "{:?}", started.elapsed());

        let token = CancelToken::new();
        let ctx = RunContext::unbounded().with_cancel(token.clone());
        let started = Instant::now();
        let outcome = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(TIMEOUT / 2);
                token.cancel(CancelReason::ClientDisconnected);
            });
            run(&q, &ctx)
        });
        let cancelled = EngineError::Cancelled(CancelReason::ClientDisconnected);
        assert_eq!(outcome, Err(cancelled));
        assert!(started.elapsed() < STALL / 2, "{:?}", started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_core::LusailConfig;
    use lusail_federation::{NetworkProfile, SimulatedEndpoint, SparqlEndpoint};
    use lusail_rdf::Graph;
    use lusail_rdf::Term;
    use lusail_sparql::ast::TermPattern;
    use lusail_store::Store;
    use std::sync::Arc;

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let slot = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                TermPattern::var(v)
            } else {
                TermPattern::iri(x)
            }
        };
        TriplePattern::new(slot(s), slot(p), slot(o))
    }

    #[test]
    fn lusail_implements_trait() {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::iri("http://x/o"),
        );
        let fed = Federation::new(vec![Arc::new(SimulatedEndpoint::new(
            "ep",
            Store::from_graph(&g),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>]);
        let engine = LusailEngine::new(fed, LusailConfig::default());
        let dyn_engine: &dyn FederatedEngine = &engine;
        assert_eq!(dyn_engine.name(), "Lusail");
        assert!(dyn_engine.preprocessing_time().is_none());
        let q = lusail_sparql::parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
        assert_eq!(dyn_engine.execute(&q).unwrap().len(), 1);
    }

    #[test]
    fn component_counting() {
        assert_eq!(connected_pattern_components(&[]), 0);
        assert_eq!(
            connected_pattern_components(&[tp("?a", "http://p", "?b"), tp("?b", "http://q", "?c")]),
            1
        );
        assert_eq!(
            connected_pattern_components(&[tp("?a", "http://p", "?b"), tp("?x", "http://q", "?y")]),
            2
        );
        // Shared constant object connects.
        assert_eq!(
            connected_pattern_components(&[
                tp("?a", "http://p", "http://k"),
                tp("?x", "http://q", "http://k")
            ]),
            1
        );
    }
}
