//! The SPARQL abstract syntax tree / algebra.

use lusail_rdf::Term;
use std::fmt;
use std::sync::Arc;

/// A SPARQL variable. Stored without the leading `?`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variable(pub String);

impl Variable {
    /// Construct a variable from its bare name (`"x"`, not `"?x"`).
    pub fn new(name: impl Into<String>) -> Self {
        Variable(name.into())
    }

    /// The bare name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

impl From<&str> for Variable {
    fn from(s: &str) -> Self {
        Variable::new(s)
    }
}

/// A subject/predicate/object slot in a triple pattern: either a variable or
/// a concrete term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermPattern {
    Var(Variable),
    Term(Term),
}

impl TermPattern {
    /// Shorthand for a variable slot.
    pub fn var(name: impl Into<String>) -> Self {
        TermPattern::Var(Variable::new(name))
    }

    /// Shorthand for an IRI slot.
    pub fn iri(iri: impl Into<Arc<str>>) -> Self {
        TermPattern::Term(Term::iri(iri))
    }

    /// The variable, if this slot is one.
    pub fn as_var(&self) -> Option<&Variable> {
        match self {
            TermPattern::Var(v) => Some(v),
            TermPattern::Term(_) => None,
        }
    }

    /// The concrete term, if this slot is one.
    pub fn as_term(&self) -> Option<&Term> {
        match self {
            TermPattern::Var(_) => None,
            TermPattern::Term(t) => Some(t),
        }
    }

    /// True when the slot is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, TermPattern::Var(_))
    }
}

impl fmt::Display for TermPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermPattern::Var(v) => write!(f, "{v}"),
            TermPattern::Term(t) => write!(f, "{t}"),
        }
    }
}

/// A triple pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    pub subject: TermPattern,
    pub predicate: TermPattern,
    pub object: TermPattern,
}

impl TriplePattern {
    pub fn new(subject: TermPattern, predicate: TermPattern, object: TermPattern) -> Self {
        TriplePattern {
            subject,
            predicate,
            object,
        }
    }

    /// All variables in this pattern, in S,P,O order, deduplicated.
    pub fn variables(&self) -> Vec<&Variable> {
        let mut out: Vec<&Variable> = Vec::with_capacity(3);
        for slot in [&self.subject, &self.predicate, &self.object] {
            if let TermPattern::Var(v) = slot {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// True when `v` occurs in this pattern.
    pub fn mentions(&self, v: &Variable) -> bool {
        self.variables().contains(&v)
    }

    /// True when `v` is the subject slot.
    pub fn subject_is(&self, v: &Variable) -> bool {
        self.subject.as_var() == Some(v)
    }

    /// True when `v` is the object slot.
    pub fn object_is(&self, v: &Variable) -> bool {
        self.object.as_var() == Some(v)
    }

    /// Number of variable slots (0–3); a rough selectivity proxy.
    pub fn free_slots(&self) -> usize {
        [&self.subject, &self.predicate, &self.object]
            .iter()
            .filter(|s| s.is_var())
            .count()
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.subject, self.predicate, self.object)
    }
}

/// A SPARQL expression (the `FILTER` language).
#[derive(Debug, Clone, PartialEq)]
pub enum Expression {
    Var(Variable),
    Term(Term),
    And(Box<Expression>, Box<Expression>),
    Or(Box<Expression>, Box<Expression>),
    Not(Box<Expression>),
    Eq(Box<Expression>, Box<Expression>),
    Ne(Box<Expression>, Box<Expression>),
    Lt(Box<Expression>, Box<Expression>),
    Le(Box<Expression>, Box<Expression>),
    Gt(Box<Expression>, Box<Expression>),
    Ge(Box<Expression>, Box<Expression>),
    Add(Box<Expression>, Box<Expression>),
    Sub(Box<Expression>, Box<Expression>),
    Mul(Box<Expression>, Box<Expression>),
    Div(Box<Expression>, Box<Expression>),
    /// `BOUND(?v)`
    Bound(Variable),
    IsIri(Box<Expression>),
    IsLiteral(Box<Expression>),
    IsBlank(Box<Expression>),
    /// `STR(e)` — the lexical form / IRI string.
    Str(Box<Expression>),
    /// `LANG(e)` — the language tag or `""`.
    Lang(Box<Expression>),
    /// `DATATYPE(e)`.
    Datatype(Box<Expression>),
    /// `REGEX(text, pattern [, flags])`. We support a practical subset of
    /// regex syntax (see `lusail-store`'s evaluator).
    Regex(Box<Expression>, String, String),
    /// `CONTAINS(text, needle)`.
    Contains(Box<Expression>, Box<Expression>),
    /// `STRSTARTS(text, prefix)`.
    StrStarts(Box<Expression>, Box<Expression>),
    /// `SAMETERM(a, b)`.
    SameTerm(Box<Expression>, Box<Expression>),
    /// `EXISTS { … }`.
    Exists(Box<GraphPattern>),
    /// `NOT EXISTS { … }` — the core of Lusail's locality check queries.
    NotExists(Box<GraphPattern>),
}

impl Expression {
    /// All variables mentioned by the expression (excluding those scoped
    /// inside `EXISTS` patterns, which are correlated at evaluation time).
    pub fn variables(&self) -> Vec<Variable> {
        let mut out = Vec::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut Vec<Variable>) {
        use Expression::*;
        match self {
            Var(v) | Bound(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Term(_) => {}
            And(a, b)
            | Or(a, b)
            | Eq(a, b)
            | Ne(a, b)
            | Lt(a, b)
            | Le(a, b)
            | Gt(a, b)
            | Ge(a, b)
            | Add(a, b)
            | Sub(a, b)
            | Mul(a, b)
            | Div(a, b)
            | Contains(a, b)
            | StrStarts(a, b)
            | SameTerm(a, b) => {
                a.collect_variables(out);
                b.collect_variables(out);
            }
            Not(a) | IsIri(a) | IsLiteral(a) | IsBlank(a) | Str(a) | Lang(a) | Datatype(a) => {
                a.collect_variables(out)
            }
            Regex(a, _, _) => a.collect_variables(out),
            Exists(_) | NotExists(_) => {}
        }
    }
}

/// A graph pattern (the body of a `WHERE` clause).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphPattern {
    /// A basic graph pattern: a conjunction of triple patterns.
    Bgp(Vec<TriplePattern>),
    /// Sequential conjunction of two patterns.
    Join(Box<GraphPattern>, Box<GraphPattern>),
    /// `left OPTIONAL { right }`.
    LeftJoin(Box<GraphPattern>, Box<GraphPattern>),
    /// `{ left } UNION { right }`.
    Union(Box<GraphPattern>, Box<GraphPattern>),
    /// `pattern FILTER(expr)`.
    Filter(Box<GraphPattern>, Expression),
    /// Inline data: `VALUES (?a ?b) { (x y) … }`. `None` entries are `UNDEF`.
    Values(Vec<Variable>, Vec<Vec<Option<Term>>>),
    /// `BIND(expr AS ?v)`: extend every solution with a computed value.
    Bind(Box<GraphPattern>, Expression, Variable),
    /// `left MINUS { right }` (SPARQL 1.1 set difference).
    Minus(Box<GraphPattern>, Box<GraphPattern>),
    /// A nested `{ SELECT … }` subquery.
    SubSelect(Box<SelectQuery>),
}

impl GraphPattern {
    /// An empty BGP (the unit pattern).
    pub fn empty() -> Self {
        GraphPattern::Bgp(Vec::new())
    }

    /// All triple patterns anywhere in this pattern tree (including inside
    /// OPTIONAL / UNION arms, excluding EXISTS filters and subselects).
    pub fn all_triple_patterns(&self) -> Vec<&TriplePattern> {
        let mut out = Vec::new();
        self.collect_tps(&mut out);
        out
    }

    fn collect_tps<'a>(&'a self, out: &mut Vec<&'a TriplePattern>) {
        match self {
            GraphPattern::Bgp(tps) => out.extend(tps.iter()),
            GraphPattern::Join(a, b) | GraphPattern::LeftJoin(a, b) | GraphPattern::Union(a, b) => {
                a.collect_tps(out);
                b.collect_tps(out);
            }
            GraphPattern::Filter(p, _) | GraphPattern::Bind(p, _, _) => p.collect_tps(out),
            GraphPattern::Minus(a, b) => {
                a.collect_tps(out);
                b.collect_tps(out);
            }
            GraphPattern::Values(..) | GraphPattern::SubSelect(_) => {}
        }
    }

    /// All variables that can be bound by this pattern (its in-scope
    /// variables), in first-occurrence order.
    pub fn in_scope_variables(&self) -> Vec<Variable> {
        let mut out = Vec::new();
        self.collect_scope(&mut out);
        out
    }

    fn collect_scope(&self, out: &mut Vec<Variable>) {
        let push = |v: &Variable, out: &mut Vec<Variable>| {
            if !out.contains(v) {
                out.push(v.clone());
            }
        };
        match self {
            GraphPattern::Bgp(tps) => {
                for tp in tps {
                    for v in tp.variables() {
                        push(v, out);
                    }
                }
            }
            GraphPattern::Join(a, b) | GraphPattern::LeftJoin(a, b) | GraphPattern::Union(a, b) => {
                a.collect_scope(out);
                b.collect_scope(out);
            }
            GraphPattern::Filter(p, _) => p.collect_scope(out),
            GraphPattern::Bind(p, _, v) => {
                p.collect_scope(out);
                push(v, out);
            }
            // MINUS binds nothing from its right side.
            GraphPattern::Minus(a, _) => a.collect_scope(out),
            GraphPattern::Values(vars, _) => {
                for v in vars {
                    push(v, out);
                }
            }
            GraphPattern::SubSelect(q) => {
                for v in q.projected_variables() {
                    push(&v, out);
                }
            }
        }
    }

    /// Conjoin two patterns, flattening BGPs where possible.
    pub fn join(self, other: GraphPattern) -> GraphPattern {
        match (self, other) {
            (GraphPattern::Bgp(mut a), GraphPattern::Bgp(b)) => {
                a.extend(b);
                GraphPattern::Bgp(a)
            }
            (GraphPattern::Bgp(a), other) if a.is_empty() => other,
            (this, GraphPattern::Bgp(b)) if b.is_empty() => this,
            (a, b) => GraphPattern::Join(Box::new(a), Box::new(b)),
        }
    }
}

/// An aggregate function (SPARQL 1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// The SPARQL keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One `(AGG(?x) AS ?v)` item in a projection.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    pub func: AggFunc,
    /// The aggregated variable; `None` is `COUNT(*)`.
    pub arg: Option<Variable>,
    pub distinct: bool,
    pub as_var: Variable,
}

/// What a `SELECT` projects.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`.
    All,
    /// `SELECT ?a ?b …`.
    Vars(Vec<Variable>),
    /// `SELECT (COUNT(*) AS ?v)` or `SELECT (COUNT(?x) AS ?v)` — the
    /// whole-result count, kept separate from [`Projection::Aggregate`]
    /// because it is the shape Lusail's cardinality probes use.
    Count {
        inner: Option<Variable>,
        distinct: bool,
        as_var: Variable,
    },
    /// Grouped aggregation: `SELECT ?k1 … (AGG(?x) AS ?v) … WHERE { … }
    /// GROUP BY ?k1 …`. `keys` are the projected group keys (must appear
    /// in the query's `group_by`).
    Aggregate {
        keys: Vec<Variable>,
        aggs: Vec<AggSpec>,
    },
}

/// A `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    pub distinct: bool,
    pub projection: Projection,
    pub pattern: GraphPattern,
    /// `GROUP BY` keys (empty for ungrouped queries).
    pub group_by: Vec<Variable>,
    /// `ORDER BY` keys: (variable, ascending).
    pub order_by: Vec<(Variable, bool)>,
    pub limit: Option<usize>,
    pub offset: Option<usize>,
}

impl SelectQuery {
    /// A plain `SELECT <vars> WHERE { pattern }`.
    pub fn new(projection: Projection, pattern: GraphPattern) -> Self {
        SelectQuery {
            distinct: false,
            projection,
            pattern,
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// The variables this query outputs. For `*`, the pattern's in-scope
    /// variables; for an aggregate, the `AS` variable.
    pub fn projected_variables(&self) -> Vec<Variable> {
        match &self.projection {
            Projection::All => self.pattern.in_scope_variables(),
            Projection::Vars(vs) => vs.clone(),
            Projection::Count { as_var, .. } => vec![as_var.clone()],
            Projection::Aggregate { keys, aggs } => {
                let mut out = keys.clone();
                out.extend(aggs.iter().map(|a| a.as_var.clone()));
                out
            }
        }
    }
}

/// The query form.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryForm {
    Select(SelectQuery),
    /// `ASK WHERE { … }`.
    Ask(GraphPattern),
}

/// A parsed SPARQL query: prefix declarations plus a form.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `(prefix, namespace)` pairs, kept for serialization fidelity.
    pub prefixes: Vec<(String, String)>,
    pub form: QueryForm,
}

impl Query {
    /// Wrap a `SELECT` query with no prefixes.
    pub fn select(q: SelectQuery) -> Self {
        Query {
            prefixes: Vec::new(),
            form: QueryForm::Select(q),
        }
    }

    /// Wrap an `ASK` pattern with no prefixes.
    pub fn ask(pattern: GraphPattern) -> Self {
        Query {
            prefixes: Vec::new(),
            form: QueryForm::Ask(pattern),
        }
    }

    /// The `SELECT` body, if this is a select query.
    pub fn as_select(&self) -> Option<&SelectQuery> {
        match &self.form {
            QueryForm::Select(s) => Some(s),
            QueryForm::Ask(_) => None,
        }
    }

    /// The query's graph pattern (either form).
    pub fn pattern(&self) -> &GraphPattern {
        match &self.form {
            QueryForm::Select(s) => &s.pattern,
            QueryForm::Ask(p) => p,
        }
    }

    /// All triple patterns in the query's pattern tree.
    pub fn all_triple_patterns(&self) -> Vec<&TriplePattern> {
        self.pattern().all_triple_patterns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn triple_pattern_variables() {
        let t = tp("?s", "http://p", "?s");
        assert_eq!(t.variables().len(), 1);
        assert_eq!(t.free_slots(), 2);
        assert!(t.subject_is(&Variable::new("s")));
        assert!(t.object_is(&Variable::new("s")));
    }

    #[test]
    fn bgp_flattening_join() {
        let a = GraphPattern::Bgp(vec![tp("?s", "http://p", "?o")]);
        let b = GraphPattern::Bgp(vec![tp("?o", "http://q", "?z")]);
        let j = a.join(b);
        match &j {
            GraphPattern::Bgp(tps) => assert_eq!(tps.len(), 2),
            other => panic!("expected flattened BGP, got {other:?}"),
        }
        assert_eq!(j.in_scope_variables().len(), 3);
    }

    #[test]
    fn scope_of_union_and_optional() {
        let a = GraphPattern::Bgp(vec![tp("?s", "http://p", "?o")]);
        let b = GraphPattern::Bgp(vec![tp("?s", "http://q", "?z")]);
        let u = GraphPattern::Union(Box::new(a.clone()), Box::new(b.clone()));
        assert_eq!(u.in_scope_variables().len(), 3);
        let l = GraphPattern::LeftJoin(Box::new(a), Box::new(b));
        assert_eq!(l.in_scope_variables().len(), 3);
    }

    #[test]
    fn expression_variables() {
        let e = Expression::And(
            Box::new(Expression::Gt(
                Box::new(Expression::Var(Variable::new("x"))),
                Box::new(Expression::Term(Term::integer(3))),
            )),
            Box::new(Expression::Bound(Variable::new("y"))),
        );
        let vars = e.variables();
        assert_eq!(vars, vec![Variable::new("x"), Variable::new("y")]);
    }

    #[test]
    fn projected_variables_for_count() {
        let q = SelectQuery::new(
            Projection::Count {
                inner: None,
                distinct: false,
                as_var: Variable::new("c"),
            },
            GraphPattern::empty(),
        );
        assert_eq!(q.projected_variables(), vec![Variable::new("c")]);
    }
}
