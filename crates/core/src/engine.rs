//! The Lusail engine: source selection → LADE → SAPE → result assembly.

use crate::budget::MemoryStats;
use crate::cache::QueryCache;
use crate::config::{LusailConfig, SapeMode};
use crate::error::EngineError;
use crate::integrity::IntegrityRegistry;
use crate::lade::decompose::{decompose, SubqueryDraft};
use crate::lade::gjv::detect_gjvs_with;
use crate::normalize::{assemble_branch, assemble_select, BlockRole, ConjBranch};
use crate::run::{ExecutionWarning, RunContext};
use crate::sape::estimate::{subquery_cardinality, TpCounts};
use crate::sape::execute::SapeExecutor;
use crate::sape::schedule::{make_schedule, Schedule};
use crate::source::{probe, BranchStats};
use crate::subquery::{pattern_variables, pushed_filters, residual_filters, Subquery};
use lusail_federation::json::Json;
use lusail_federation::{EndpointId, Federation, RequestHandler, WaveSnapshot};
use lusail_rdf::fxhash::FxHashMap;
use lusail_sparql::ast::{Expression, Projection, Query, SelectQuery, Variable};
use lusail_sparql::solution::Relation;
use std::time::{Duration, Instant};

/// Timing and plan information for one executed query (the data behind the
/// paper's Figure 12 profiling plots).
#[derive(Debug, Clone, Default)]
pub struct ExecutionProfile {
    /// Time in the analysis probe round ([`crate::source::probe`]): source
    /// selection and the `COUNT` statistics of every triple pattern, from
    /// the caches or one request per endpoint.
    pub source_selection: Duration,
    /// Time in query analysis: GJV detection (check queries),
    /// decomposition and cardinality estimation — no `COUNT` requests.
    /// Summed over the `UNION` branches, which run side by side: on a
    /// query with several it can exceed [`branches`](Self::branches).
    pub analysis: Duration,
    /// Time executing subqueries and joining their results, summed over
    /// the branches like [`analysis`](Self::analysis).
    pub execution: Duration,
    /// Wall-clock time of the branch section: from the first branch's
    /// analysis to the last branch's assembled rows.
    pub branches: Duration,
    /// End-to-end time.
    pub total: Duration,
    /// Detected global join variables (across all branches).
    pub gjvs: Vec<String>,
    /// Total number of subqueries produced by LADE.
    pub subqueries: usize,
    /// How many subqueries SAPE delayed.
    pub delayed: usize,
    /// How many strands SAPE ran the branches' schedules as: groups of
    /// subqueries with no endpoint and no bind variable in common, each
    /// running its two phases on its own. Summed over the branches.
    pub strands: usize,
    /// Locality check queries actually sent (cache misses).
    pub check_queries: usize,
    /// `(subquery id, estimated, actual)` for non-delayed multi-pattern
    /// subqueries — input to the q-error analysis. Branch by branch.
    pub estimates: Vec<(usize, usize, usize)>,
    /// `(estimated, actual)` rows of every join node of the global join,
    /// in execution order, branch by branch.
    pub join_steps: Vec<(usize, usize)>,
    /// `(left, right)` rows that went into each node of `join_steps`.
    pub join_inputs: Vec<(usize, usize)>,
    /// Time the global join spent planning: the distinct-count statistics
    /// and the plan enumeration.
    pub join_planning: Duration,
    /// Time the global join spent executing its plan.
    pub join_time: Duration,
    /// Rows in the final result.
    pub result_rows: usize,
    /// Work skipped under [`crate::ResultPolicy::Partial`]: each entry
    /// names the unreachable endpoint and the affected subquery or probe.
    /// Empty for complete (non-degraded) results.
    pub warnings: Vec<ExecutionWarning>,
    /// Memory accounting: peak accounted bytes, overall and per phase,
    /// from the per-query [`crate::MemoryBudget`].
    pub memory: MemoryStats,
}

impl ExecutionProfile {
    /// Add what one branch recorded about itself: durations and counts
    /// sum, lists append, so merging in branch order keeps branch order.
    fn merge_branch(&mut self, branch: ExecutionProfile) {
        self.analysis += branch.analysis;
        self.execution += branch.execution;
        for v in branch.gjvs {
            if !self.gjvs.contains(&v) {
                self.gjvs.push(v);
            }
        }
        self.subqueries += branch.subqueries;
        self.delayed += branch.delayed;
        self.strands += branch.strands;
        self.check_queries += branch.check_queries;
        self.estimates.extend(branch.estimates);
        self.join_steps.extend(branch.join_steps);
        self.join_inputs.extend(branch.join_inputs);
        self.join_planning += branch.join_planning;
        self.join_time += branch.join_time;
    }
}

/// The Lusail federated SPARQL engine (see the crate docs for an overview).
pub struct LusailEngine {
    federation: Federation,
    config: LusailConfig,
    cache: QueryCache,
    handler: RequestHandler,
    integrity: IntegrityRegistry,
}

impl LusailEngine {
    /// Create an engine over a federation.
    pub fn new(federation: Federation, config: LusailConfig) -> Self {
        Self::with_cache(federation, config, QueryCache::new())
    }

    /// Create an engine with a caller-configured analysis cache — the
    /// federation service mounts a bounded, TTL-expiring cache here so a
    /// long-lived shared engine cannot accumulate stale endpoint facts.
    pub fn with_cache(federation: Federation, config: LusailConfig, cache: QueryCache) -> Self {
        let handler = match config.threads {
            Some(n) => RequestHandler::new(n),
            None => RequestHandler::elastic(federation.len()),
        };
        let integrity = IntegrityRegistry::new(config.verify_every_response);
        LusailEngine {
            federation,
            config,
            cache,
            handler,
            integrity,
        }
    }

    /// The underlying federation.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// The engine's analysis caches (shared across queries).
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The engine's configuration.
    pub fn config(&self) -> &LusailConfig {
        &self.config
    }

    /// The engine's result-integrity ledger: learned caps, truncation
    /// and recovery counters, and quarantine membership per endpoint,
    /// accumulated across queries.
    pub fn integrity(&self) -> &IntegrityRegistry {
        &self.integrity
    }

    /// The ERH's wave counters (waves run, widest wave) and its
    /// floor/ceiling, accumulated across queries.
    pub fn erh(&self) -> WaveSnapshot {
        self.handler.snapshot()
    }

    /// What the engine reports about itself across queries — the
    /// federation's `codec` and `endpoints` sections, `integrity` (one row
    /// per endpoint with any integrity activity) and `erh`. Printed as is
    /// by `lusail query --stats` and inside `GET /stats`.
    pub fn stats(&self) -> Json {
        let integrity = self.integrity.snapshot();
        Json::object([
            ("codec", self.federation.codec_stats()),
            (
                "integrity",
                Json::object(
                    integrity
                        .iter()
                        .map(|(name, s)| (name.as_str(), s.to_json())),
                ),
            ),
            ("endpoints", self.federation.endpoint_stats()),
            ("erh", self.erh().to_json()),
        ])
    }

    /// Execute a `SELECT` query, returning its solutions. `ASK` queries
    /// return a 0/1-row relation with no columns.
    pub fn execute(&self, query: &Query) -> Result<Relation, EngineError> {
        self.execute_profiled(query).map(|(rel, _)| rel)
    }

    /// Execute an `ASK` query.
    pub fn execute_ask(&self, query: &Query) -> Result<bool, EngineError> {
        let (rel, _) = self.execute_profiled(query)?;
        Ok(!rel.is_empty())
    }

    /// Execute with full phase profiling.
    pub fn execute_profiled(
        &self,
        query: &Query,
    ) -> Result<(Relation, ExecutionProfile), EngineError> {
        let ctx = RunContext::new(&self.config);
        self.execute_profiled_with(query, &ctx)
    }

    /// Execute under a caller-supplied [`RunContext`] — the entry point
    /// for `lusail serve --federate`, where the deadline, result policy,
    /// row cap, and memory ledger (carved from a shared pool) belong to
    /// the request, not to the engine. Engine-level knobs (SAPE mode,
    /// bound-join block sizes, analysis caches) still come from the
    /// engine's own config.
    pub fn execute_profiled_with(
        &self,
        query: &Query,
        ctx: &RunContext,
    ) -> Result<(Relation, ExecutionProfile), EngineError> {
        let start = Instant::now();
        let mut profile = ExecutionProfile::default();

        let result = assemble_select(query, |select_view, branches| {
            // ---- Source selection + pattern statistics, whole query ------
            let cache = self.config.enable_cache.then_some(&self.cache);
            let t = Instant::now();
            let probed = probe(&self.federation, &self.handler, cache, branches, ctx)?;
            profile.source_selection = t.elapsed();
            ctx.check()?;

            // ---- The branches, side by side ------------------------------
            let t = Instant::now();
            let each = branches.iter().zip(&probed).collect();
            let ran = ctx.fan_out(&self.handler, each, |(branch, stats), ctx| {
                self.execute_branch(branch, stats, select_view, ctx)
            })?;
            profile.branches = t.elapsed();
            Ok(ran
                .into_iter()
                .map(|(rel, branch_profile)| {
                    profile.merge_branch(branch_profile);
                    rel
                })
                .collect())
        })?;

        profile.result_rows = result.len();
        profile.warnings = ctx.take_warnings();
        profile.memory = ctx.memory.stats();
        profile.total = start.elapsed();
        Ok((result, profile))
    }

    /// Analyse, decompose and execute one branch; returns its rows and
    /// what it recorded about itself.
    fn execute_branch(
        &self,
        branch: &ConjBranch,
        stats: &BranchStats,
        select_view: &SelectQuery,
        ctx: &RunContext,
    ) -> Result<(Relation, ExecutionProfile), EngineError> {
        let mut profile = ExecutionProfile::default();
        let (sources, counts) = (&stats.required.sources, &stats.required.counts);

        // ---- LADE: GJV detection + decomposition ------------------------
        let t = Instant::now();
        let analysis = detect_gjvs_with(
            &self.federation,
            &self.handler,
            self.config.enable_cache.then_some(&self.cache),
            &branch.patterns,
            sources,
            self.config.paranoid_locality,
            ctx,
        )?;
        profile.check_queries = analysis.check_queries_sent;
        profile.gjvs = (analysis.gjvs.iter())
            .map(|v| v.name().to_string())
            .collect();
        ctx.check()?;

        let estimator = |drafts: &[SubqueryDraft]| -> f64 {
            drafts
                .iter()
                .map(|d| {
                    subquery_cardinality(&d.patterns, &d.sources, &branch.patterns, counts, &[])
                        as f64
                })
                .sum()
        };
        let decomposition = decompose(&branch.patterns, sources, &analysis, &estimator);
        let (subqueries, cardinalities) =
            self.build_subqueries(branch, select_view, &decomposition.subqueries, counts);
        let global_filters = residual_filters(&branch.filters, &subqueries);
        // Expected per-endpoint row counts, from the probe's COUNTs: exact
        // only for single-pattern subqueries, where the probe measured
        // the very query the wave will send. A delivery below the
        // expectation is the integrity layer's truncation signal.
        let expected: Vec<FxHashMap<EndpointId, usize>> = decomposition
            .subqueries
            .iter()
            .map(|draft| match draft.patterns[..] {
                [tp] => counts[tp].clone(),
                _ => FxHashMap::default(),
            })
            .collect();
        profile.analysis = t.elapsed();
        // Each OPTIONAL block is one more subquery, evaluated last and
        // bound (§4.1, category (iii)) by the branch assembly below.
        profile.subqueries = subqueries.len() + branch.optionals.len();

        // ---- SAPE: schedule + execute ------------------------------------
        let t = Instant::now();
        let schedule = match self.config.sape_mode {
            SapeMode::Full => {
                make_schedule(&subqueries, &cardinalities, self.config.delay_threshold)
            }
            // Ablation: everything runs concurrently with no delaying.
            SapeMode::LadeOnly => Schedule {
                non_delayed: (0..subqueries.len()).collect(),
                delayed: Vec::new(),
            },
        };
        profile.delayed = schedule.delayed.len() + branch.optionals.len();

        let executor = SapeExecutor {
            federation: &self.federation,
            handler: &self.handler,
            config: &self.config,
            ctx,
            integrity: &self.integrity,
        };
        // FILTER(?a = ?b) equalities bridge disconnected subqueries as
        // hash joins instead of cross products.
        let bridges: Vec<(Variable, Variable)> = global_filters
            .iter()
            .filter_map(|f| match f {
                Expression::Eq(a, b) => match (a.as_ref(), b.as_ref()) {
                    (Expression::Var(x), Expression::Var(y)) => Some((x.clone(), y.clone())),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        let outcome =
            executor.execute(&subqueries, &schedule, &cardinalities, &bridges, &expected)?;
        profile.estimates = outcome.estimates;
        profile.strands = outcome.strands;
        profile.join_steps = outcome.join.steps;
        profile.join_inputs = outcome.join.inputs;
        profile.join_planning = outcome.join.planning;
        profile.join_time = outcome.join.joining;

        // ---- Branch assembly: every block is one more bound subquery ----
        let fetch = |role, i: usize, block: &_, rows: &_| {
            let (stats, id, what) = match role {
                BlockRole::Optional => {
                    let id = subqueries.len() + i;
                    (&stats.optionals[i], id, format!("subquery #{id}"))
                }
                // Skipping a MINUS contribution under `--partial` removes
                // fewer rows, so a degraded result is a *superset* of the
                // true answer; the warning says whose exclusions are missing.
                BlockRole::Minus => {
                    let id = subqueries.len() + branch.optionals.len() + i;
                    (&stats.minuses[i], id, "MINUS block".to_string())
                }
            };
            executor.fetch_block(block, stats, id, &what, &branch.patterns, rows)
        };
        let rel = assemble_branch(branch, outcome.relation, global_filters, fetch)?;
        profile.execution = t.elapsed();
        Ok((rel, profile))
    }

    /// Materialize subquery drafts into [`Subquery`] values: compute
    /// projections, push filters, and estimate cardinalities. Returns the
    /// subqueries and their cardinalities.
    fn build_subqueries(
        &self,
        branch: &ConjBranch,
        select_view: &SelectQuery,
        drafts: &[SubqueryDraft],
        counts: &TpCounts,
    ) -> (Vec<Subquery>, Vec<usize>) {
        // Variables needed outside each subquery: the final projection,
        // global filters, optional blocks, VALUES, ORDER BY, and any
        // variable shared with another subquery.
        let final_vars: Vec<Variable> = match &select_view.projection {
            Projection::All => branch.variables(),
            Projection::Vars(vs) => vs.clone(),
            Projection::Count { inner, .. } => inner.iter().cloned().collect::<Vec<_>>(),
            Projection::Aggregate { keys, aggs } => {
                let mut vs = keys.clone();
                vs.extend(select_view.group_by.iter().cloned());
                vs.extend(aggs.iter().filter_map(|a| a.arg.clone()));
                vs.dedup();
                vs
            }
        };

        let mut subqueries = Vec::with_capacity(drafts.len());
        let mut cardinalities = Vec::with_capacity(drafts.len());

        for (id, draft) in drafts.iter().enumerate() {
            let patterns: Vec<_> = draft
                .patterns
                .iter()
                .map(|&i| branch.patterns[i].clone())
                .collect();
            let sq_vars = pattern_variables(&patterns);
            let filters = pushed_filters(&branch.filters, &sq_vars);

            // Projection: variables needed elsewhere. A filter another
            // subquery took binds only that subquery's variables, which
            // the last clause keeps anyway.
            let mut projection: Vec<Variable> = sq_vars
                .iter()
                .filter(|v| {
                    final_vars.contains(v)
                        || select_view.order_by.iter().any(|(ov, _)| &ov == v)
                        || (branch.filters.iter())
                            .any(|f| !filters.contains(f) && f.variables().contains(v))
                        || branch.optionals.iter().any(|o| o.variables().contains(v))
                        || branch.minuses.iter().any(|m| m.variables().contains(v))
                        || branch.binds.iter().any(|(e, _)| e.variables().contains(v))
                        || branch.values.iter().any(|(vs, _)| vs.contains(v))
                        || drafts.iter().enumerate().any(|(oid, other)| {
                            oid != id
                                && other
                                    .patterns
                                    .iter()
                                    .any(|&pi| branch.patterns[pi].mentions(v))
                        })
                })
                .cloned()
                .collect();
            if projection.is_empty() {
                projection = sq_vars.clone();
            }

            let card = subquery_cardinality(
                &draft.patterns,
                &draft.sources,
                &branch.patterns,
                counts,
                &projection,
            );
            subqueries.push(Subquery {
                id,
                patterns,
                filters,
                sources: draft.sources.clone(),
                projection,
            });
            cardinalities.push(card);
        }
        (subqueries, cardinalities)
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

    /// Build the paper's Figure 1 two-endpoint federation.
    ///
    /// EP1 (univ1): MIT with address, Ann (advisor who teaches nothing),
    /// Bob advised by Ann, courses.
    /// EP2 (univ2): CMU with address, Kim/Lee students, Joy/Tim/Ben
    /// professors; Tim's PhD is from MIT (the interlink).
    fn figure1_federation() -> Federation {
        let ub = |l: &str| Term::iri(format!("{}{l}", vocab::ub::NS));
        let u1 = |l: &str| Term::iri(format!("http://univ1.example.org/{l}"));
        let u2 = |l: &str| Term::iri(format!("http://univ2.example.org/{l}"));

        let mut g1 = Graph::new();
        g1.add_type(u1("MIT"), vocab::ub::UNIVERSITY);
        g1.add(u1("MIT"), ub("address"), Term::literal("XXX"));
        g1.add_type(u1("Ann"), vocab::ub::ASSOCIATE_PROFESSOR);
        g1.add_type(u1("Bob"), vocab::ub::GRADUATE_STUDENT);
        g1.add_type(u1("ml"), vocab::ub::GRADUATE_COURSE);
        g1.add(u1("Bob"), ub("advisor"), u1("Ann"));
        g1.add(u1("Bob"), ub("takesCourse"), u1("ml"));
        g1.add(u1("Ann"), ub("PhDDegreeFrom"), u1("MIT"));
        // Ann teaches nothing: the "extraneous computation" example that
        // makes ?P a GJV via the advisor/teacherOf check.

        let mut g2 = Graph::new();
        g2.add_type(u2("CMU"), vocab::ub::UNIVERSITY);
        g2.add(u2("CMU"), ub("address"), Term::literal("CCCC"));
        for s in ["Kim", "Lee"] {
            g2.add_type(u2(s), vocab::ub::GRADUATE_STUDENT);
        }
        for p in ["Joy", "Tim", "Ben"] {
            g2.add_type(u2(p), vocab::ub::ASSOCIATE_PROFESSOR);
        }
        for c in ["db", "os"] {
            g2.add_type(u2(c), vocab::ub::GRADUATE_COURSE);
        }
        g2.add(u2("Kim"), ub("advisor"), u2("Joy"));
        g2.add(u2("Kim"), ub("advisor"), u2("Tim"));
        g2.add(u2("Lee"), ub("advisor"), u2("Ben"));
        g2.add(u2("Joy"), ub("teacherOf"), u2("db"));
        g2.add(u2("Tim"), ub("teacherOf"), u2("os"));
        g2.add(u2("Ben"), ub("teacherOf"), u2("os"));
        g2.add(u2("Kim"), ub("takesCourse"), u2("db"));
        g2.add(u2("Kim"), ub("takesCourse"), u2("os"));
        g2.add(u2("Lee"), ub("takesCourse"), u2("os"));
        g2.add(u2("Joy"), ub("PhDDegreeFrom"), u2("CMU"));
        g2.add(u2("Tim"), ub("PhDDegreeFrom"), u1("MIT")); // interlink
        g2.add(u2("Ben"), ub("PhDDegreeFrom"), u2("CMU"));

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

    const QA: &str = r#"
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?S ?P ?U ?A WHERE {
  ?S ub:advisor ?P .
  ?P ub:teacherOf ?C .
  ?S ub:takesCourse ?C .
  ?P ub:PhDDegreeFrom ?U .
  ?S rdf:type ub:GraduateStudent .
  ?P rdf:type ub:AssociateProfessor .
  ?C rdf:type ub:GraduateCourse .
  ?U ub:address ?A . }"#;

    #[test]
    fn qa_returns_the_papers_three_answers() {
        let engine = LusailEngine::new(figure1_federation(), LusailConfig::default());
        let query = parse_query(QA).unwrap();
        let (rel, profile) = engine.execute_profiled(&query).unwrap();

        // The paper: (Kim, Joy, CMU, "CCCC"), (Kim, Tim, MIT, "XXX"),
        // (Lee, Ben, MIT→? no — Lee, Ben, CMU? Ben's PhD is from CMU).
        // Figure 2 caption lists (Kim,Joy,CMU,CCCC), (Kim,Tim,MIT,XXX),
        // (Lee,Ben,MIT,XXX) — in our data Ben's PhD is from CMU, giving
        // (Lee,Ben,CMU,CCCC); the structure (3 rows, one crossing the
        // interlink) is what matters.
        assert_eq!(rel.len(), 3, "{:?}", rel.rows());
        let tim_row = rel
            .rows()
            .iter()
            .find(|r| r[1] == Some(Term::iri("http://univ2.example.org/Tim")))
            .expect("the interlink answer (Kim, Tim, MIT, XXX) must be found");
        assert_eq!(tim_row[2], Some(Term::iri("http://univ1.example.org/MIT")));
        assert_eq!(tim_row[3], Some(Term::literal("XXX")));

        // ?U must be detected as a GJV (Tim's MIT is remote); ?P as well
        // (Ann advises but teaches nothing).
        assert!(
            profile.gjvs.contains(&"U".to_string()),
            "{:?}",
            profile.gjvs
        );
        assert!(
            profile.gjvs.contains(&"P".to_string()),
            "{:?}",
            profile.gjvs
        );
        assert!(profile.subqueries >= 3);
    }

    #[test]
    fn single_endpoint_query_single_subquery() {
        let engine = LusailEngine::new(figure1_federation(), LusailConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?s ?c WHERE { ?s ub:advisor ?p . ?s ub:takesCourse ?c }"#,
        )
        .unwrap();
        let (rel, profile) = engine.execute_profiled(&q).unwrap();
        // ?s is local (every advisee takes courses in the same endpoint):
        // one subquery, no GJVs.
        assert!(profile.gjvs.is_empty(), "{:?}", profile.gjvs);
        assert_eq!(profile.subqueries, 1);
        // Bob(1 course), Kim(2 advisors × 2 courses = 4), Lee(1) = 6 rows.
        assert_eq!(rel.len(), 6);
    }

    #[test]
    fn ask_query() {
        let engine = LusailEngine::new(figure1_federation(), LusailConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               ASK { ?p ub:PhDDegreeFrom ?u . ?u ub:address ?a }"#,
        )
        .unwrap();
        assert!(engine.execute_ask(&q).unwrap());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               ASK { ?p ub:emailAddress ?e }"#,
        )
        .unwrap();
        assert!(!engine.execute_ask(&q).unwrap());
    }

    #[test]
    fn optional_keeps_unmatched_rows() {
        let engine = LusailEngine::new(figure1_federation(), LusailConfig::default());
        // Professors' PhD universities; address is optional. MIT has one,
        // CMU has one; every row should appear.
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?p ?u ?a WHERE {
                 ?p ub:PhDDegreeFrom ?u
                 OPTIONAL { ?u ub:address ?a }
               }"#,
        )
        .unwrap();
        let rel = engine.execute(&q).unwrap();
        // Ann, Joy, Tim, Ben each have a PhD university; all four rows
        // appear and each finds an address — including Tim, whose ?u (MIT)
        // lives on the *other* endpoint and is resolved by the bound
        // optional subquery.
        assert_eq!(rel.len(), 4);
        let addr_of = |who: &str| {
            rel.rows()
                .iter()
                .find(|r| r[0] == Some(Term::iri(format!("http://univ2.example.org/{who}"))))
                .map(|r| r[2].clone())
        };
        assert_eq!(addr_of("Tim"), Some(Some(Term::literal("XXX"))));
        assert_eq!(addr_of("Joy"), Some(Some(Term::literal("CCCC"))));
    }

    #[test]
    fn union_branches_combine() {
        let engine = LusailEngine::new(figure1_federation(), LusailConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               SELECT ?x WHERE {
                 { ?x rdf:type ub:GraduateStudent } UNION { ?x rdf:type ub:University }
               }"#,
        )
        .unwrap();
        let rel = engine.execute(&q).unwrap();
        // Students: Bob, Kim, Lee. Universities: MIT, CMU.
        assert_eq!(rel.len(), 5);
    }

    #[test]
    fn filter_applies_globally_across_subqueries() {
        let engine = LusailEngine::new(figure1_federation(), LusailConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT ?p ?u ?a WHERE {
                 ?p ub:PhDDegreeFrom ?u .
                 ?u ub:address ?a .
                 FILTER(?a = "XXX")
               }"#,
        )
        .unwrap();
        let rel = engine.execute(&q).unwrap();
        // Only MIT rows: Ann and Tim.
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn distinct_order_limit() {
        let engine = LusailEngine::new(figure1_federation(), LusailConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT DISTINCT ?u WHERE { ?p ub:PhDDegreeFrom ?u } ORDER BY ?u LIMIT 1"#,
        )
        .unwrap();
        let rel = engine.execute(&q).unwrap();
        assert_eq!(rel.len(), 1);
        // Full-IRI ordering: http://univ1…MIT < http://univ2…CMU.
        assert_eq!(
            rel.rows()[0][0],
            Some(Term::iri("http://univ1.example.org/MIT"))
        );
    }

    #[test]
    fn count_projection() {
        let engine = LusailEngine::new(figure1_federation(), LusailConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               SELECT (COUNT(*) AS ?c) WHERE { ?s ub:advisor ?p }"#,
        )
        .unwrap();
        let rel = engine.execute(&q).unwrap();
        assert_eq!(rel.rows()[0][0], Some(Term::integer(4)));
    }

    #[test]
    fn cache_reduces_requests_on_repeat() {
        let engine = LusailEngine::new(figure1_federation(), LusailConfig::default());
        let query = parse_query(QA).unwrap();
        engine.execute(&query).unwrap();
        let first = engine.federation().total_traffic().requests;
        engine.execute(&query).unwrap();
        let second = engine.federation().total_traffic().requests - first;
        assert!(
            second < first,
            "cached run should send fewer requests ({second} vs {first})"
        );
        // And results stay identical.
        let r1 = engine.execute(&query).unwrap();
        assert_eq!(r1.len(), 3);
    }

    #[test]
    fn timeout_fires() {
        let cfg = LusailConfig {
            timeout: Some(Duration::ZERO),
            ..Default::default()
        };
        let engine = LusailEngine::new(figure1_federation(), cfg);
        let query = parse_query(QA).unwrap();
        match engine.execute(&query) {
            Err(EngineError::Timeout(_)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn values_restricts_results() {
        let engine = LusailEngine::new(figure1_federation(), LusailConfig::default());
        let q = parse_query(
            r#"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
               PREFIX u2: <http://univ2.example.org/>
               SELECT ?s ?p WHERE { ?s ub:advisor ?p . VALUES ?s { u2:Kim } }"#,
        )
        .unwrap();
        let rel = engine.execute(&q).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn lade_only_mode_matches_full_results() {
        let full = LusailEngine::new(figure1_federation(), LusailConfig::default());
        let lade = LusailEngine::new(
            figure1_federation(),
            LusailConfig {
                sape_mode: SapeMode::LadeOnly,
                ..Default::default()
            },
        );
        let query = parse_query(QA).unwrap();
        let r1 = full.execute(&query).unwrap();
        let r2 = lade.execute(&query).unwrap();
        assert_eq!(r1.len(), r2.len());
    }
}
