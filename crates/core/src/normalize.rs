//! Query normalization: rewriting a [`GraphPattern`] tree into a list of
//! *conjunctive branches*.
//!
//! LADE (Section 3) is defined over conjunctions of triple patterns; the
//! paper notes that Lusail additionally supports `UNION`, `FILTER`,
//! `OPTIONAL`, and `LIMIT` by deciding *where* to attach those clauses
//! during decomposition and global join evaluation. We implement that by
//! first normalizing the query body:
//!
//! * `UNION` distributes: each union arm becomes its own branch, each
//!   branch is decomposed and executed independently, and the branch
//!   results are concatenated (bag union).
//! * `FILTER`s collect on their branch; LADE later pushes each filter into
//!   a subquery when the subquery covers the filter's variables, otherwise
//!   SAPE applies it after the global join.
//! * `OPTIONAL` groups become [`OptionalBlock`]s on their branch; SAPE
//!   treats them as *optional subqueries* (always delayed, per Section
//!   4.1's category (iii)) and left-joins their results.
//! * `VALUES` blocks collect on the branch and join in at the global
//!   level.

use crate::error::EngineError;
use lusail_rdf::Term;
use lusail_sparql::ast::{
    Expression, GraphPattern, Projection, Query, QueryForm, SelectQuery, TriplePattern, Variable,
};
use lusail_sparql::solution::{finalize_select, Relation};

/// An `OPTIONAL { … }` group: triple patterns plus filters scoped inside
/// the optional.
#[derive(Debug, Clone, PartialEq)]
pub struct OptionalBlock {
    pub patterns: Vec<TriplePattern>,
    pub filters: Vec<Expression>,
}

impl OptionalBlock {
    /// All variables bound inside the optional group.
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
}

/// An inline `VALUES` block: variables plus rows (`None` = `UNDEF`).
pub type ValuesBlock = (Vec<Variable>, Vec<Vec<Option<Term>>>);

/// One conjunctive branch of the (union-normalized) query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConjBranch {
    /// Required triple patterns.
    pub patterns: Vec<TriplePattern>,
    /// Filters applying to this branch.
    pub filters: Vec<Expression>,
    /// Optional groups.
    pub optionals: Vec<OptionalBlock>,
    /// `MINUS { … }` groups: evaluated like subqueries, anti-joined at the
    /// federator.
    pub minuses: Vec<OptionalBlock>,
    /// `BIND(expr AS ?v)` assignments, applied (in order) at the federator
    /// after the global join.
    pub binds: Vec<(Expression, Variable)>,
    /// Inline data blocks.
    pub values: Vec<ValuesBlock>,
}

impl ConjBranch {
    /// All variables bound by required patterns, optionals, or values.
    pub fn variables(&self) -> Vec<Variable> {
        let mut out = Vec::new();
        let push = |v: &Variable, out: &mut Vec<Variable>| {
            if !out.contains(v) {
                out.push(v.clone());
            }
        };
        for tp in &self.patterns {
            for v in tp.variables() {
                push(v, &mut out);
            }
        }
        for opt in &self.optionals {
            for v in opt.variables() {
                push(&v, &mut out);
            }
        }
        for (vars, _) in &self.values {
            for v in vars {
                push(v, &mut out);
            }
        }
        for (_, v) in &self.binds {
            push(v, &mut out);
        }
        out
    }

    fn merge(mut self, other: ConjBranch) -> ConjBranch {
        self.patterns.extend(other.patterns);
        self.filters.extend(other.filters);
        self.optionals.extend(other.optionals);
        self.minuses.extend(other.minuses);
        self.binds.extend(other.binds);
        self.values.extend(other.values);
        self
    }
}

/// The skeleton Lusail and the baselines share around their own branch
/// evaluation: view the query as a `SELECT` (`ASK { p }` is answered as
/// `SELECT * WHERE { p } LIMIT 1`, a witness row), normalize it into
/// branches, let `run_branches` evaluate them (one relation per branch),
/// fold the relations with [`Relation::union`] and finish with
/// [`finalize_select`] — so what turns joined rows into *the answer* is
/// the same code whichever engine joined them.
pub fn assemble_select(
    query: &Query,
    run_branches: impl FnOnce(&SelectQuery, &[ConjBranch]) -> Result<Vec<Relation>, EngineError>,
) -> Result<Relation, EngineError> {
    let select_view = match &query.form {
        QueryForm::Select(s) => s.clone(),
        QueryForm::Ask(p) => {
            let mut s = SelectQuery::new(Projection::All, p.clone());
            s.limit = Some(1);
            s
        }
    };
    let branches = normalize(&select_view.pattern)?;
    let combined = run_branches(&select_view, &branches)?
        .into_iter()
        .reduce(Relation::union)
        .unwrap_or_default();
    Ok(finalize_select(&select_view, combined))
}

/// Normalize a pattern tree into conjunctive branches (one per union arm).
pub fn normalize(pattern: &GraphPattern) -> Result<Vec<ConjBranch>, EngineError> {
    match pattern {
        GraphPattern::Bgp(tps) => Ok(vec![ConjBranch {
            patterns: tps.clone(),
            ..Default::default()
        }]),
        GraphPattern::Join(a, b) => {
            let left = normalize(a)?;
            let right = normalize(b)?;
            let mut out = Vec::with_capacity(left.len() * right.len());
            for l in &left {
                for r in &right {
                    out.push(l.clone().merge(r.clone()));
                }
            }
            Ok(out)
        }
        GraphPattern::Union(a, b) => {
            let mut out = normalize(a)?;
            out.extend(normalize(b)?);
            Ok(out)
        }
        GraphPattern::Filter(inner, e) => {
            let mut branches = normalize(inner)?;
            for b in &mut branches {
                b.filters.push(e.clone());
            }
            Ok(branches)
        }
        GraphPattern::LeftJoin(a, b) => {
            let mut branches = normalize(a)?;
            let opt = optional_block(b)?;
            for branch in &mut branches {
                branch.optionals.push(opt.clone());
            }
            Ok(branches)
        }
        GraphPattern::Values(vars, rows) => Ok(vec![ConjBranch {
            values: vec![(vars.clone(), rows.clone())],
            ..Default::default()
        }]),
        GraphPattern::Bind(inner, expr, var) => {
            let mut branches = normalize(inner)?;
            for b in &mut branches {
                b.binds.push((expr.clone(), var.clone()));
            }
            Ok(branches)
        }
        GraphPattern::Minus(a, b) => {
            let mut branches = normalize(a)?;
            let block = optional_block(b)?;
            for branch in &mut branches {
                branch.minuses.push(block.clone());
            }
            Ok(branches)
        }
        GraphPattern::SubSelect(_) => Err(EngineError::Unsupported(
            "subselects are only supported inside locality check queries".into(),
        )),
    }
}

fn optional_block(pattern: &GraphPattern) -> Result<OptionalBlock, EngineError> {
    match pattern {
        GraphPattern::Bgp(tps) => Ok(OptionalBlock {
            patterns: tps.clone(),
            filters: Vec::new(),
        }),
        GraphPattern::Join(a, b) => {
            let mut left = optional_block(a)?;
            let right = optional_block(b)?;
            left.patterns.extend(right.patterns);
            left.filters.extend(right.filters);
            Ok(left)
        }
        GraphPattern::Filter(inner, e) => {
            let mut block = optional_block(inner)?;
            block.filters.push(e.clone());
            Ok(block)
        }
        GraphPattern::Union(..) => Err(EngineError::Unsupported("UNION inside OPTIONAL".into())),
        GraphPattern::LeftJoin(..) => Err(EngineError::Unsupported("nested OPTIONAL".into())),
        GraphPattern::Values(..) => Err(EngineError::Unsupported("VALUES inside OPTIONAL".into())),
        GraphPattern::SubSelect(_) => {
            Err(EngineError::Unsupported("subselect inside OPTIONAL".into()))
        }
        GraphPattern::Bind(..) => Err(EngineError::Unsupported(
            "BIND inside OPTIONAL/MINUS".into(),
        )),
        GraphPattern::Minus(..) => Err(EngineError::Unsupported(
            "MINUS inside OPTIONAL/MINUS".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_sparql::parse_query;

    fn branches(q: &str) -> Vec<ConjBranch> {
        let query = parse_query(q).unwrap();
        normalize(query.pattern()).unwrap()
    }

    #[test]
    fn plain_bgp_is_one_branch() {
        let b = branches("SELECT * WHERE { ?a <http://p> ?b . ?b <http://q> ?c }");
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].patterns.len(), 2);
        assert_eq!(b[0].variables().len(), 3);
    }

    #[test]
    fn union_splits_branches() {
        let b = branches(
            "SELECT * WHERE { ?x <http://t> ?y { ?x a <http://A> } UNION { ?x a <http://B> } }",
        );
        assert_eq!(b.len(), 2);
        for branch in &b {
            assert_eq!(branch.patterns.len(), 2); // shared TP + arm TP
        }
    }

    #[test]
    fn nested_unions_multiply() {
        let b = branches(
            "SELECT * WHERE { { ?x a <http://A> } UNION { ?x a <http://B> } { ?y a <http://C> } UNION { ?y a <http://D> } }",
        );
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn filters_attach_to_branches() {
        let b = branches(
            "SELECT * WHERE { { ?x a <http://A> } UNION { ?x a <http://B> } FILTER(?x != <http://bad>) }",
        );
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|br| br.filters.len() == 1));
    }

    #[test]
    fn optional_collects_block() {
        let b = branches(
            "SELECT * WHERE { ?x a <http://A> OPTIONAL { ?x <http://n> ?n FILTER(?n != \"x\") } }",
        );
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].optionals.len(), 1);
        assert_eq!(b[0].optionals[0].patterns.len(), 1);
        assert_eq!(b[0].optionals[0].filters.len(), 1);
        assert!(b[0].variables().contains(&Variable::new("n")));
    }

    #[test]
    fn values_collects() {
        let b = branches("SELECT * WHERE { ?x a <http://A> . VALUES ?x { <http://1> } }");
        assert_eq!(b[0].values.len(), 1);
    }

    #[test]
    fn union_inside_optional_unsupported() {
        let q = parse_query(
            "SELECT * WHERE { ?x a <http://A> OPTIONAL { { ?x a <http://B> } UNION { ?x a <http://C> } } }",
        )
        .unwrap();
        assert!(matches!(
            normalize(q.pattern()),
            Err(EngineError::Unsupported(_))
        ));
    }
}
