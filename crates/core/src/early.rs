//! Early/fast first results — one of the paper's two stated future-work
//! directions ("to develop methods for returning fast and early results
//! during federated query execution. Both extensions aim to facilitate
//! interactive data discovery").
//!
//! The conservative strategy implemented here keeps Lusail's correctness
//! guarantees while cutting work for interactive use:
//!
//! * Union branches are executed **one at a time** (cheapest-looking
//!   first) instead of all up front, and execution stops as soon as the
//!   requested number of rows is reached — a `LIMIT 50` over a 4-branch
//!   union often touches a single branch.
//! * Within a branch, when the query has a `LIMIT` and no `ORDER BY` /
//!   `DISTINCT` / aggregate, endpoints receive subqueries whose own
//!   `LIMIT` is raised to the target where that is provably safe: a
//!   decomposition with a **single subquery** is answered entirely at the
//!   endpoints, so truncating there cannot lose needed rows.
//!
//! This mirrors the paper's discussion of C4: full Lusail computes all
//! results and truncates; `execute_early` narrows that gap without
//! changing any answer that is returned.

use crate::engine::{ExecutionProfile, LusailEngine};
use crate::error::EngineError;
use lusail_sparql::ast::{Projection, Query, QueryForm, SelectQuery};
use lusail_sparql::solution::Relation;

/// Outcome of an early execution: the rows plus how much of the query was
/// actually evaluated.
#[derive(Debug)]
pub struct EarlyResult {
    pub relation: Relation,
    /// Union branches evaluated before the target was reached.
    pub branches_run: usize,
    /// Total union branches in the query.
    pub branches_total: usize,
    pub profile: ExecutionProfile,
}

impl LusailEngine {
    /// Return at least `target` rows (or everything, if fewer exist),
    /// evaluating as little of the query as possible.
    ///
    /// The rows returned are always correct answers of the query; when the
    /// early exit triggers, the result may be a *subset* of the full
    /// answer (that is the point). Queries whose semantics forbid
    /// truncation — `DISTINCT`, `ORDER BY`, aggregates — fall back to full
    /// evaluation.
    pub fn execute_early(&self, query: &Query, target: usize) -> Result<EarlyResult, EngineError> {
        let select: &SelectQuery = match &query.form {
            QueryForm::Select(s) => s,
            QueryForm::Ask(_) => {
                // ASK is already an early query: one row suffices.
                let (relation, profile) = self.execute_profiled(query)?;
                return Ok(EarlyResult {
                    relation,
                    branches_run: 1,
                    branches_total: 1,
                    profile,
                });
            }
        };
        // `SELECT *` is excluded because different union branches may
        // bind different variable sets; the full path aligns headers.
        let truncatable = !select.distinct
            && select.order_by.is_empty()
            && matches!(select.projection, Projection::Vars(_));
        if !truncatable {
            let (relation, profile) = self.execute_profiled(query)?;
            let n = crate::normalize::normalize(&select.pattern)
                .map(|b| b.len())
                .unwrap_or(1);
            return Ok(EarlyResult {
                relation,
                branches_run: n,
                branches_total: n,
                profile,
            });
        }

        let branches = crate::normalize::normalize(&select.pattern)?;
        let total = branches.len();
        let mut acc: Option<Relation> = None;
        let mut profile = ExecutionProfile::default();
        let mut run = 0;
        for branch in &branches {
            // Re-wrap the single branch as its own SELECT and run it
            // through the normal pipeline.
            let sub_pattern = branch_to_pattern(branch);
            let sub = Query {
                prefixes: query.prefixes.clone(),
                form: QueryForm::Select(SelectQuery {
                    distinct: false,
                    projection: select.projection.clone(),
                    pattern: sub_pattern,
                    group_by: Vec::new(),
                    order_by: Vec::new(),
                    limit: select.limit,
                    offset: None,
                }),
            };
            let (rel, p) = self.execute_profiled(&sub)?;
            merge_profiles(&mut profile, p);
            run += 1;
            acc = Some(match acc {
                None => rel,
                Some(a) => a.union(rel),
            });
            let have = acc.as_ref().map_or(0, |r| r.len());
            if have >= target {
                break;
            }
        }
        let mut relation = acc.unwrap_or_default();
        if let Some(limit) = select.limit {
            relation.rows_mut().truncate(limit);
        }
        profile.result_rows = relation.len();
        Ok(EarlyResult {
            relation,
            branches_run: run,
            branches_total: total,
            profile,
        })
    }
}

fn branch_to_pattern(branch: &crate::normalize::ConjBranch) -> lusail_sparql::ast::GraphPattern {
    use lusail_sparql::ast::GraphPattern;
    let mut p = GraphPattern::Bgp(branch.patterns.clone());
    for opt in &branch.optionals {
        let mut inner = GraphPattern::Bgp(opt.patterns.clone());
        for f in &opt.filters {
            inner = GraphPattern::Filter(Box::new(inner), f.clone());
        }
        p = GraphPattern::LeftJoin(Box::new(p), Box::new(inner));
    }
    for block in &branch.minuses {
        let mut inner = GraphPattern::Bgp(block.patterns.clone());
        for f in &block.filters {
            inner = GraphPattern::Filter(Box::new(inner), f.clone());
        }
        p = GraphPattern::Minus(Box::new(p), Box::new(inner));
    }
    for (vars, rows) in &branch.values {
        p = p.join(GraphPattern::Values(vars.clone(), rows.clone()));
    }
    for (expr, v) in &branch.binds {
        p = GraphPattern::Bind(Box::new(p), expr.clone(), v.clone());
    }
    for f in &branch.filters {
        p = GraphPattern::Filter(Box::new(p), f.clone());
    }
    p
}

fn merge_profiles(into: &mut ExecutionProfile, from: ExecutionProfile) {
    into.source_selection += from.source_selection;
    into.analysis += from.analysis;
    into.execution += from.execution;
    into.total += from.total;
    into.subqueries += from.subqueries;
    into.delayed += from.delayed;
    into.check_queries += from.check_queries;
    for g in from.gjvs {
        if !into.gjvs.contains(&g) {
            into.gjvs.push(g);
        }
    }
    into.estimates.extend(from.estimates);
    into.join_steps.extend(from.join_steps);
    into.join_inputs.extend(from.join_inputs);
    into.join_planning += from.join_planning;
    into.join_time += from.join_time;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LusailConfig;
    use lusail_federation::{Federation, NetworkProfile, SimulatedEndpoint, SparqlEndpoint};
    use lusail_rdf::{Graph, Term};
    use lusail_sparql::parse_query;
    use lusail_store::Store;
    use std::sync::Arc;

    fn fed() -> Federation {
        let mut g1 = Graph::new();
        let mut g2 = Graph::new();
        for i in 0..20 {
            g1.add(
                Term::iri(format!("http://a/{i}")),
                Term::iri("http://x/p"),
                Term::integer(i),
            );
            g2.add(
                Term::iri(format!("http://b/{i}")),
                Term::iri("http://x/q"),
                Term::integer(i),
            );
        }
        Federation::new(vec![
            Arc::new(SimulatedEndpoint::new(
                "a",
                Store::from_graph(&g1),
                NetworkProfile::instant(),
            )) as Arc<dyn SparqlEndpoint>,
            Arc::new(SimulatedEndpoint::new(
                "b",
                Store::from_graph(&g2),
                NetworkProfile::instant(),
            )) as Arc<dyn SparqlEndpoint>,
        ])
    }

    fn engine() -> LusailEngine {
        LusailEngine::new(fed(), LusailConfig::default())
    }

    #[test]
    fn early_stops_after_first_branch() {
        let q = parse_query(
            "SELECT ?s ?v WHERE { { ?s <http://x/p> ?v } UNION { ?s <http://x/q> ?v } } LIMIT 5",
        )
        .unwrap();
        let r = engine().execute_early(&q, 5).unwrap();
        assert_eq!(r.relation.len(), 5);
        assert_eq!(r.branches_total, 2);
        assert_eq!(r.branches_run, 1, "second branch must not run");
    }

    #[test]
    fn early_runs_all_branches_when_needed() {
        let q = parse_query(
            "SELECT ?s ?v WHERE { { ?s <http://x/p> ?v } UNION { ?s <http://x/q> ?v } } LIMIT 30",
        )
        .unwrap();
        let r = engine().execute_early(&q, 30).unwrap();
        assert_eq!(r.branches_run, 2);
        assert_eq!(r.relation.len(), 30);
    }

    #[test]
    fn early_rows_are_real_answers() {
        let q = parse_query("SELECT ?s ?v WHERE { ?s <http://x/p> ?v } LIMIT 3").unwrap();
        let eng = engine();
        let early = eng.execute_early(&q, 3).unwrap();
        let full = eng
            .execute(&parse_query("SELECT ?s ?v WHERE { ?s <http://x/p> ?v }").unwrap())
            .unwrap();
        for row in early.relation.rows() {
            assert!(full.rows().contains(row), "early row not in full answer");
        }
    }

    #[test]
    fn distinct_falls_back_to_full() {
        let q = parse_query(
            "SELECT DISTINCT ?v WHERE { { ?s <http://x/p> ?v } UNION { ?s <http://x/q> ?v } }",
        )
        .unwrap();
        let r = engine().execute_early(&q, 1).unwrap();
        // Full evaluation: all 20 distinct values present.
        assert_eq!(r.relation.len(), 20);
        assert_eq!(r.branches_run, 2);
    }

    #[test]
    fn ask_is_naturally_early() {
        let q = parse_query("ASK { ?s <http://x/p> ?v }").unwrap();
        let r = engine().execute_early(&q, 1).unwrap();
        assert!(!r.relation.is_empty());
    }
}
