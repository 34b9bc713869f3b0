//! The engine-agnostic interface the benchmark harness drives, plus the
//! shared group-at-a-time executor both baselines are built on.

use lusail_core::normalize::OptionalBlock;
use lusail_core::source::merged_sources;
use lusail_core::{EngineError, LusailEngine, RunContext};
use lusail_federation::{EndpointError, EndpointId, Federation, RequestHandler};
use lusail_rdf::Term;
use lusail_sparql::ast::{
    Expression, GraphPattern, Projection, Query, SelectQuery, TriplePattern, Variable,
};
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

/// Why an index-based engine does not answer: `endpoint` offered no
/// statistics (an `HttpEndpoint` never does), so `engine`'s index lacks it,
/// and an index that reads it as empty would answer wrong.
pub(crate) fn unindexed(engine: &str, endpoint: &str) -> EngineError {
    let why = format!("it offers no statistics, so the {engine} index cannot be built");
    EngineError::Endpoint(EndpointError::rejected(endpoint, why))
}

/// A bound-join payload: the shared variables and one block of their rows.
pub type BoundBlock<'a> = (&'a [Variable], &'a [Vec<Option<Term>>]);

/// One evaluation unit of a baseline plan: an exclusive group (one source)
/// or a single triple pattern (many sources).
#[derive(Debug, Clone)]
pub struct GroupPlan {
    pub patterns: Vec<TriplePattern>,
    /// Filters pushed into the group.
    pub filters: Vec<Expression>,
    pub sources: Vec<EndpointId>,
}

impl GroupPlan {
    /// An `OPTIONAL` or `MINUS` block as one unit, sent whole to every
    /// endpoint relevant to any of its patterns (`sources`, per pattern).
    pub fn for_block(block: &OptionalBlock, sources: &[Vec<EndpointId>]) -> Self {
        GroupPlan {
            patterns: block.patterns.clone(),
            filters: block.filters.clone(),
            sources: merged_sources(sources),
        }
    }

    /// All variables of the group.
    pub fn variables(&self) -> Vec<Variable> {
        let mut out = Vec::new();
        for tp in &self.patterns {
            for v in tp.variables() {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    fn to_query(&self, bound: Option<BoundBlock<'_>>) -> Query {
        let mut body = GraphPattern::Bgp(self.patterns.clone());
        for f in &self.filters {
            body = GraphPattern::Filter(Box::new(body), f.clone());
        }
        if let Some((vars, rows)) = bound {
            body = body.join(GraphPattern::Values(vars.to_vec(), rows.to_vec()));
        }
        Query::select(SelectQuery::new(Projection::Vars(self.variables()), body))
    }
}

/// The branch filters no group took: applied to the joined rows.
pub fn residual_filters<'a>(
    filters: &'a [Expression],
    groups: &[GroupPlan],
) -> Vec<&'a Expression> {
    let pushed = |f: &&Expression| groups.iter().any(|g| g.filters.contains(f));
    filters.iter().filter(|f| !pushed(f)).collect()
}

/// Knobs distinguishing the baselines' execution styles.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Bindings per `VALUES` block in a bound join (FedX ships 15).
    pub block_size: usize,
    /// When set, a step whose current bindings exceed this switches to
    /// independent evaluation plus a hash join (SPLENDID's strategy);
    /// `None` always bind-joins (FedX).
    pub hash_join_threshold: Option<usize>,
}

/// The nested-loop, group-at-a-time execution shared by FedX, HiBISCuS,
/// and SPLENDID: evaluate the first group, then repeatedly ship the
/// current bindings to the next group's sources in blocks.
///
/// This is exactly the strategy §1 of the Lusail paper critiques: "the
/// query being processed one triple pattern at a time", with requests
/// multiplying as blocks × endpoints. Every wave leaves through
/// [`RunContext::dispatch`], under the query's one deadline.
pub fn execute_groups(
    federation: &Federation,
    handler: &RequestHandler,
    groups: &[GroupPlan],
    ctx: &RunContext,
    opts: &ExecOptions,
) -> Result<Relation, EngineError> {
    let mut current: Option<Relation> = None;
    for group in groups {
        let rel = match &current {
            None => evaluate_unbound(federation, handler, group, ctx)?,
            Some(bindings) => {
                let shared: Vec<Variable> = group
                    .variables()
                    .into_iter()
                    .filter(|v| bindings.index_of(v).is_some())
                    .collect();
                let use_hash = match opts.hash_join_threshold {
                    Some(limit) => bindings.len() > limit,
                    None => false,
                };
                if shared.is_empty() || use_hash {
                    evaluate_unbound(federation, handler, group, ctx)?
                } else {
                    evaluate_bound(federation, handler, group, bindings, &shared, ctx, opts)?
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
            for g in groups {
                for v in g.variables() {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
            }
            return Ok(Relation::new(vars));
        }
    }
    Ok(current.unwrap_or_else(|| Relation::from_rows(Vec::new(), vec![Vec::new()])))
}

/// One wave: `group`, unbound or over one block, at each of its sources.
fn fetch(
    federation: &Federation,
    handler: &RequestHandler,
    group: &GroupPlan,
    bound: Option<BoundBlock<'_>>,
    ctx: &RunContext,
) -> Result<Vec<Relation>, EngineError> {
    let q = group.to_query(bound);
    let select = |ep, deadline| federation.endpoint(ep).select_within(&q, deadline);
    let sent = ctx.dispatch(handler, "group wave", group.sources.clone(), select)?;
    let settled = |rel| ctx.absorb("group wave", Relation::new(group.variables()), rel);
    sent.into_iter().map(settled).collect()
}

fn evaluate_unbound(
    federation: &Federation,
    handler: &RequestHandler,
    group: &GroupPlan,
    ctx: &RunContext,
) -> Result<Relation, EngineError> {
    let mut out = Relation::new(group.variables());
    for rel in fetch(federation, handler, group, None, ctx)? {
        out.append(rel);
    }
    Ok(out)
}

fn evaluate_bound(
    federation: &Federation,
    handler: &RequestHandler,
    group: &GroupPlan,
    bindings: &Relation,
    shared: &[Variable],
    ctx: &RunContext,
    opts: &ExecOptions,
) -> Result<Relation, EngineError> {
    // Distinct rows of the shared variables are the values to ship.
    let mut key_rows = bindings.project(shared);
    key_rows.dedup();
    let rows = key_rows.rows().to_vec();
    let mut out = Relation::new(group.variables());
    // One wave per block: FedX-style sequential nested loop (each block
    // still fans out to all sources in parallel, but blocks are serial —
    // this is the parallelism limit the paper describes).
    for block in rows.chunks(opts.block_size.max(1)) {
        for rel in fetch(federation, handler, group, Some((shared, block)), ctx)? {
            out.append(rel.project(out.vars()));
        }
    }
    Ok(out)
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
