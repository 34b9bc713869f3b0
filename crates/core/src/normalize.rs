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
//! * `OPTIONAL` and `MINUS` groups become [`OptionalBlock`]s on their
//!   branch, `VALUES` blocks and `BIND`s collect on it.
//!
//! What a branch then *means* is written once, in [`assemble_branch`]: the
//! required rows, left-joined with each `OPTIONAL` block, joined with each
//! `VALUES` block, anti-joined with each `MINUS` block, extended by each
//! `BIND` and cut by the filters no subquery took. Lusail and the three
//! baselines differ only in how they fetch a block's rows — Lusail's
//! *optional subqueries* are still evaluated last and bound (Section 4.1's
//! category (iii)), and so are its `MINUS` blocks.

use crate::error::EngineError;
use lusail_rdf::Term;
use lusail_sparql::ast::{
    Expression, GraphPattern, Projection, Query, QueryForm, SelectQuery, TriplePattern, Variable,
};
use lusail_sparql::solution::{finalize_select, Relation};
use lusail_store::expr::{bind_relation, filter_relation};

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

/// What [`assemble_branch`] does with the rows of a fetched block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRole {
    /// Left-joined: rows without a compatible block row stay, unextended.
    Optional,
    /// Anti-joined: rows with a compatible block row sharing a variable go.
    Minus,
}

/// What a conjunctive branch does to the joined rows of its `required`
/// patterns, in this order: left-join each `OPTIONAL` block, join each
/// `VALUES` block, anti-join each `MINUS` block, apply each `BIND`, keep
/// the rows passing each of `residual_filters` (the branch filters the
/// engine did not push into a subquery).
///
/// `fetch(role, i, block, rows)` is all an engine supplies: the rows of the
/// `i`-th block of that role, over the block's variables. `rows` is the
/// relation the block is about to meet, for an engine that evaluates
/// blocks bound; block rows compatible with none of it may be left out.
pub fn assemble_branch<'a>(
    branch: &ConjBranch,
    required: Relation,
    residual_filters: impl IntoIterator<Item = &'a Expression>,
    mut fetch: impl FnMut(BlockRole, usize, &OptionalBlock, &Relation) -> Result<Relation, EngineError>,
) -> Result<Relation, EngineError> {
    let mut rel = required;
    for (i, block) in branch.optionals.iter().enumerate() {
        rel = rel.left_join(&fetch(BlockRole::Optional, i, block, &rel)?);
    }
    for (vars, rows) in &branch.values {
        rel = rel.join(&Relation::from_rows(vars.clone(), rows.clone()));
    }
    for (i, block) in branch.minuses.iter().enumerate() {
        rel = rel.minus(&fetch(BlockRole::Minus, i, block, &rel)?);
    }
    for (expr, var) in &branch.binds {
        rel = bind_relation(rel, expr, var);
    }
    for f in residual_filters {
        rel = filter_relation(rel, f);
    }
    Ok(rel)
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

    fn rel(vars: &[&str], rows: &[&[Option<&str>]]) -> Relation {
        let term = |c: &Option<&str>| c.map(Term::literal);
        Relation::from_rows(
            vars.iter().map(|v| Variable::new(*v)).collect(),
            rows.iter().map(|r| r.iter().map(term).collect()).collect(),
        )
    }

    fn sorted(rel: &Relation) -> Vec<Vec<Option<Term>>> {
        let mut rows = rel.rows().to_vec();
        rows.sort();
        rows
    }

    #[test]
    fn assemble_branch_applies_its_five_steps_in_order() {
        // Every step reads what the one before it wrote: VALUES fills the
        // ?y the OPTIONAL left unbound, MINUS removes a value only VALUES
        // brought, BIND copies ?y and the filter reads the copy.
        let branch = &branches(
            "SELECT * WHERE { ?x <http://p> ?v OPTIONAL { ?x <http://q> ?y } \
             VALUES ?y { \"a\" \"b\" } MINUS { ?s <http://r> ?y } \
             BIND(?y AS ?z) FILTER(?z = \"a\") }",
        )[0];
        let required = rel(&["x"], &[&[Some("1")], &[Some("2")], &[Some("3")]]);
        let mut calls = Vec::new();
        let out = assemble_branch(branch, required, &branch.filters, |role, i, block, rows| {
            calls.push((role, i, rows.len()));
            Ok(match role {
                BlockRole::Optional => {
                    assert_eq!(block, &branch.optionals[0]);
                    rel(&["x", "y"], &[&[Some("1"), Some("a")]])
                }
                BlockRole::Minus => {
                    assert_eq!(block, &branch.minuses[0]);
                    rel(&["s", "y"], &[&[Some("s"), Some("b")]])
                }
            })
        })
        .unwrap();
        // The OPTIONAL block met the 3 required rows; the MINUS block the
        // 5 rows VALUES made of them (1·a, 2·a, 2·b, 3·a, 3·b).
        assert_eq!(
            calls,
            [(BlockRole::Optional, 0, 3), (BlockRole::Minus, 0, 5)]
        );
        let want = rel(
            &["x", "y", "z"],
            &[
                &[Some("1"), Some("a"), Some("a")],
                &[Some("2"), Some("a"), Some("a")],
                &[Some("3"), Some("a"), Some("a")],
            ],
        );
        assert_eq!(out.vars(), want.vars());
        assert_eq!(sorted(&out), sorted(&want));
    }

    #[test]
    fn assemble_branch_propagates_a_fetch_error() {
        let branch = &branches(
            "SELECT * WHERE { ?x <http://p> ?v OPTIONAL { ?x <http://q> ?y } \
             MINUS { ?x <http://r> ?w } }",
        )[0];
        let mut fetched = 0;
        let out = assemble_branch(branch, rel(&["x"], &[&[Some("1")]]), [], |role, _, _, _| {
            fetched += 1;
            match role {
                BlockRole::Optional => Err(EngineError::Unsupported("boom".into())),
                BlockRole::Minus => panic!("fetched past an error"),
            }
        });
        assert!(matches!(out, Err(EngineError::Unsupported(m)) if m == "boom"));
        assert_eq!(fetched, 1);
    }

    #[test]
    fn a_block_sharing_no_variable_multiplies_or_removes_nothing() {
        let branch = &branches(
            "SELECT * WHERE { ?x <http://p> ?v OPTIONAL { ?a <http://q> ?b } \
             MINUS { ?c <http://r> ?d } }",
        )[0];
        let required = rel(&["x"], &[&[Some("1")], &[Some("2")]]);
        let out = assemble_branch(branch, required, [], |role, _, _, _| {
            Ok(match role {
                BlockRole::Optional => rel(&["a"], &[&[Some("k")], &[Some("l")]]),
                BlockRole::Minus => rel(&["c"], &[&[Some("1")], &[Some("k")]]),
            })
        })
        .unwrap();
        // OPTIONAL with nothing shared is a product; MINUS with nothing
        // shared removes no row, whatever the values.
        let want = rel(
            &["x", "a"],
            &[
                &[Some("1"), Some("k")],
                &[Some("1"), Some("l")],
                &[Some("2"), Some("k")],
                &[Some("2"), Some("l")],
            ],
        );
        assert_eq!(sorted(&out), sorted(&want));
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
