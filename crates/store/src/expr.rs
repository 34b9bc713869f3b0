//! SPARQL `FILTER` expression evaluation.
//!
//! Expressions evaluate over [`Term`] values with SPARQL's three-valued
//! logic approximated as `Option`: `None` is the SPARQL *error* value, and a
//! `FILTER` whose expression errors drops the row (per the spec).

use lusail_rdf::{vocab, Literal, Term};
use lusail_sparql::ast::{Expression, GraphPattern, Variable};
use lusail_sparql::solution::Relation;
use std::sync::Arc;

/// The value lattice of expression evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    Num(f64),
    Term(Term),
}

/// The binding environment an expression is evaluated in, plus a hook for
/// correlated `EXISTS` / `NOT EXISTS` evaluation (implemented by the
/// evaluator, which owns the store).
pub trait ExprContext {
    /// The current row's binding of `v`, if any.
    fn value_of(&self, v: &Variable) -> Option<Term>;
    /// Evaluate `EXISTS { pattern }` under the current row.
    fn exists(&mut self, pattern: &GraphPattern) -> bool;
}

/// The context of one row of a materialized [`Relation`] — what a
/// federator has left after the global join, with no store behind it.
/// `EXISTS` therefore evaluates to false here: there is nothing to probe.
/// The engines keep that from mattering by evaluating pattern-level
/// semantics at the endpoints (whose evaluator has the live, correlated
/// `EXISTS`) and leaving only value expressions as residue.
pub struct RowCtx<'a> {
    pub vars: &'a [Variable],
    pub row: &'a [Option<Term>],
}

impl ExprContext for RowCtx<'_> {
    fn value_of(&self, v: &Variable) -> Option<Term> {
        let i = self.vars.iter().position(|x| x == v)?;
        self.row[i].clone()
    }

    fn exists(&mut self, _pattern: &GraphPattern) -> bool {
        false
    }
}

/// `FILTER(f)` over a materialized relation: keep the rows where `f` is
/// true (an error drops the row).
pub fn filter_relation(mut rel: Relation, f: &Expression) -> Relation {
    let vars = rel.vars().to_vec();
    rel.rows_mut()
        .retain(|row| eval_ebv(f, &mut RowCtx { vars: &vars, row }));
    rel
}

/// `BIND(expr AS ?var)` over a materialized relation. An evaluation error
/// leaves the variable unbound and keeps the row; re-binding a variable
/// that is already bound (SPARQL forbids it syntactically) keeps the row
/// only when the values agree — the store evaluator's rule.
pub fn bind_relation(mut rel: Relation, expr: &Expression, var: &Variable) -> Relation {
    let in_vars = rel.vars().to_vec();
    let out_idx = rel.index_of(var).unwrap_or(in_vars.len());
    let mut out_vars = in_vars.clone();
    if out_idx == in_vars.len() {
        out_vars.push(var.clone());
    }
    let mut out = Relation::new(out_vars);
    for mut row in std::mem::take(rel.rows_mut()) {
        let mut ctx = RowCtx {
            vars: &in_vars,
            row: &row,
        };
        let value = eval(expr, &mut ctx).and_then(value_to_term);
        row.resize(out.vars().len(), None);
        match (&row[out_idx], value) {
            (Some(old), Some(new)) if *old != new => continue,
            (None, value) => row[out_idx] = value,
            _ => {}
        }
        out.push(row);
    }
    out
}

/// Evaluate an expression to a [`Value`], or `None` on a SPARQL error.
pub fn eval(expr: &Expression, ctx: &mut dyn ExprContext) -> Option<Value> {
    use Expression::*;
    match expr {
        Var(v) => ctx.value_of(v).map(Value::Term),
        Term(t) => Some(Value::Term(t.clone())),
        And(a, b) => {
            // SPARQL logical-and with error propagation: if either side is
            // false the result is false even if the other errors.
            let ea = eval(a, ctx).and_then(ebv);
            let eb = eval(b, ctx).and_then(ebv);
            match (ea, eb) {
                (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                (Some(true), Some(true)) => Some(Value::Bool(true)),
                _ => None,
            }
        }
        Or(a, b) => {
            let ea = eval(a, ctx).and_then(ebv);
            let eb = eval(b, ctx).and_then(ebv);
            match (ea, eb) {
                (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                (Some(false), Some(false)) => Some(Value::Bool(false)),
                _ => None,
            }
        }
        Not(a) => {
            let v = eval(a, ctx).and_then(ebv)?;
            Some(Value::Bool(!v))
        }
        Eq(a, b) => compare(a, b, ctx, |o| o == std::cmp::Ordering::Equal, true),
        Ne(a, b) => compare(a, b, ctx, |o| o != std::cmp::Ordering::Equal, true),
        Lt(a, b) => compare(a, b, ctx, |o| o == std::cmp::Ordering::Less, false),
        Le(a, b) => compare(a, b, ctx, |o| o != std::cmp::Ordering::Greater, false),
        Gt(a, b) => compare(a, b, ctx, |o| o == std::cmp::Ordering::Greater, false),
        Ge(a, b) => compare(a, b, ctx, |o| o != std::cmp::Ordering::Less, false),
        Add(a, b) => arith(a, b, ctx, |x, y| x + y),
        Sub(a, b) => arith(a, b, ctx, |x, y| x - y),
        Mul(a, b) => arith(a, b, ctx, |x, y| x * y),
        Div(a, b) => {
            let x = numeric(eval(a, ctx)?)?;
            let y = numeric(eval(b, ctx)?)?;
            if y == 0.0 {
                None
            } else {
                Some(Value::Num(x / y))
            }
        }
        Bound(v) => Some(Value::Bool(ctx.value_of(v).is_some())),
        IsIri(a) => type_check(a, ctx, |t| t.is_iri()),
        IsLiteral(a) => type_check(a, ctx, |t| t.is_literal()),
        IsBlank(a) => type_check(a, ctx, |t| t.is_blank()),
        Str(a) => {
            let t = term_value(eval(a, ctx)?)?;
            let s = match t {
                lusail_rdf::Term::Iri(iri) => iri,
                lusail_rdf::Term::Literal(l) => l.lexical,
                lusail_rdf::Term::BlankNode(_) => return None,
            };
            Some(Value::Term(lusail_rdf::Term::literal(s)))
        }
        Lang(a) => {
            let t = term_value(eval(a, ctx)?)?;
            match t {
                lusail_rdf::Term::Literal(l) => Some(Value::Term(lusail_rdf::Term::literal(
                    l.language.unwrap_or_default(),
                ))),
                _ => None,
            }
        }
        Datatype(a) => {
            let t = term_value(eval(a, ctx)?)?;
            match t {
                lusail_rdf::Term::Literal(l) => {
                    let dt = l.datatype.unwrap_or_else(|| vocab::xsd::STRING.into());
                    Some(Value::Term(lusail_rdf::Term::iri(dt)))
                }
                _ => None,
            }
        }
        Regex(a, pattern, flags) => {
            let text = string_value(eval(a, ctx)?)?;
            let re = crate::regex_lite::Regex::new(pattern, flags).ok()?;
            Some(Value::Bool(re.is_match(&text)))
        }
        Contains(a, b) => {
            let hay = string_value(eval(a, ctx)?)?;
            let needle = string_value(eval(b, ctx)?)?;
            Some(Value::Bool(hay.contains(&*needle)))
        }
        StrStarts(a, b) => {
            let hay = string_value(eval(a, ctx)?)?;
            let prefix = string_value(eval(b, ctx)?)?;
            Some(Value::Bool(hay.starts_with(&*prefix)))
        }
        SameTerm(a, b) => {
            let x = term_value(eval(a, ctx)?)?;
            let y = term_value(eval(b, ctx)?)?;
            Some(Value::Bool(x == y))
        }
        Exists(p) => {
            let hit = ctx.exists(p);
            Some(Value::Bool(hit))
        }
        NotExists(p) => {
            let hit = ctx.exists(p);
            Some(Value::Bool(!hit))
        }
    }
}

/// Evaluate an expression and reduce it to its effective boolean value,
/// treating error as `false` (which is what `FILTER` does with rows).
pub fn eval_ebv(expr: &Expression, ctx: &mut dyn ExprContext) -> bool {
    eval(expr, ctx).and_then(ebv).unwrap_or(false)
}

/// SPARQL effective boolean value.
pub fn ebv(v: Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(b),
        Value::Num(n) => Some(n != 0.0 && !n.is_nan()),
        Value::Term(Term::Literal(l)) => {
            if l.datatype.as_deref() == Some(vocab::xsd::BOOLEAN) {
                Some(&*l.lexical == "true" || &*l.lexical == "1")
            } else if l.is_numeric() {
                l.as_f64().map(|n| n != 0.0 && !n.is_nan())
            } else {
                Some(!l.lexical.is_empty())
            }
        }
        Value::Term(_) => None,
    }
}

fn numeric(v: Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(n),
        Value::Bool(_) => None,
        Value::Term(Term::Literal(l)) => l.as_f64(),
        Value::Term(_) => None,
    }
}

/// Convert an evaluated [`Value`] to an RDF term (public counterpart of
/// the internal coercion, used by `BIND`).
pub fn value_to_term(v: Value) -> Option<Term> {
    term_value(v)
}

fn term_value(v: Value) -> Option<Term> {
    match v {
        Value::Term(t) => Some(t),
        Value::Bool(b) => Some(Term::Literal(Literal::typed(
            b.to_string(),
            vocab::xsd::BOOLEAN,
        ))),
        Value::Num(n) => Some(Term::Literal(Literal::double(n))),
    }
}

fn string_value(v: Value) -> Option<Arc<str>> {
    match term_value(v)? {
        Term::Literal(l) => Some(l.lexical),
        Term::Iri(iri) => Some(iri),
        Term::BlankNode(_) => None,
    }
}

fn type_check(
    a: &Expression,
    ctx: &mut dyn ExprContext,
    pred: impl Fn(&Term) -> bool,
) -> Option<Value> {
    let t = term_value(eval(a, ctx)?)?;
    Some(Value::Bool(pred(&t)))
}

fn arith(
    a: &Expression,
    b: &Expression,
    ctx: &mut dyn ExprContext,
    op: impl Fn(f64, f64) -> f64,
) -> Option<Value> {
    let x = numeric(eval(a, ctx)?)?;
    let y = numeric(eval(b, ctx)?)?;
    Some(Value::Num(op(x, y)))
}

/// SPARQL value comparison. Numeric if both sides are numeric; otherwise
/// both literals compare by lexical form; IRIs compare by string (an
/// extension the benchmarks rely on for `=`/`!=` only — for order
/// comparisons on non-literals we return an error unless `allow_any_eq`).
fn compare(
    a: &Expression,
    b: &Expression,
    ctx: &mut dyn ExprContext,
    test: impl Fn(std::cmp::Ordering) -> bool,
    allow_any_eq: bool,
) -> Option<Value> {
    let x = eval(a, ctx)?;
    let y = eval(b, ctx)?;
    if let (Some(nx), Some(ny)) = (numeric(x.clone()), numeric(y.clone())) {
        return nx.partial_cmp(&ny).map(|o| Value::Bool(test(o)));
    }
    let tx = term_value(x)?;
    let ty = term_value(y)?;
    match (&tx, &ty) {
        (Term::Literal(lx), Term::Literal(ly)) => {
            Some(Value::Bool(test(lx.lexical.cmp(&ly.lexical))))
        }
        _ if allow_any_eq => Some(Value::Bool(test(tx.cmp(&ty)))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_sparql::parse_query;
    use std::collections::HashMap;

    struct MapCtx(HashMap<String, Term>);

    impl ExprContext for MapCtx {
        fn value_of(&self, v: &Variable) -> Option<Term> {
            self.0.get(v.name()).cloned()
        }
        fn exists(&mut self, _pattern: &GraphPattern) -> bool {
            false
        }
    }

    /// Parse `FILTER(<e>)` out of a wrapper query to get an Expression.
    fn expr(e: &str) -> Expression {
        let q = parse_query(&format!("SELECT ?x WHERE {{ ?x ?p ?o . FILTER({e}) }}")).unwrap();
        match q.pattern() {
            GraphPattern::Filter(_, ex) => ex.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn ctx(pairs: &[(&str, Term)]) -> MapCtx {
        MapCtx(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn numeric_comparisons() {
        let mut c = ctx(&[("v", Term::integer(5))]);
        assert!(eval_ebv(&expr("?v > 3"), &mut c));
        assert!(eval_ebv(&expr("?v <= 5"), &mut c));
        assert!(!eval_ebv(&expr("?v = 4"), &mut c));
        assert!(eval_ebv(&expr("?v != 4"), &mut c));
        assert!(eval_ebv(&expr("(?v + 1) * 2 = 12"), &mut c));
        assert!(eval_ebv(&expr("?v / 2 = 2.5"), &mut c));
    }

    #[test]
    fn division_by_zero_errors_to_false() {
        let mut c = ctx(&[("v", Term::integer(5))]);
        assert!(!eval_ebv(&expr("?v / 0 = 1"), &mut c));
    }

    #[test]
    fn string_and_term_comparisons() {
        let mut c = ctx(&[("n", Term::literal("abc")), ("u", Term::iri("http://x/a"))]);
        assert!(eval_ebv(&expr("?n = \"abc\""), &mut c));
        assert!(eval_ebv(&expr("?n < \"abd\""), &mut c));
        assert!(eval_ebv(&expr("?u = <http://x/a>"), &mut c));
        assert!(eval_ebv(&expr("?u != <http://x/b>"), &mut c));
    }

    #[test]
    fn logic_with_unbound_vars() {
        let mut c = ctx(&[("v", Term::integer(1))]);
        // ?missing errors; AND with a false side is still false…
        assert!(!eval_ebv(&expr("?v = 0 && ?missing = 1"), &mut c));
        // …and OR with a true side is still true.
        assert!(eval_ebv(&expr("?v = 1 || ?missing = 1"), &mut c));
        // Pure error yields false under FILTER semantics.
        assert!(!eval_ebv(&expr("?missing = 1"), &mut c));
        assert!(eval_ebv(&expr("!BOUND(?missing)"), &mut c));
        assert!(eval_ebv(&expr("BOUND(?v)"), &mut c));
    }

    #[test]
    fn type_predicates_and_accessors() {
        let mut c = ctx(&[
            ("u", Term::iri("http://x/a")),
            ("l", Term::Literal(Literal::lang("ciao", "it"))),
            ("b", Term::bnode("n")),
        ]);
        assert!(eval_ebv(&expr("ISIRI(?u)"), &mut c));
        assert!(eval_ebv(&expr("ISLITERAL(?l)"), &mut c));
        assert!(eval_ebv(&expr("ISBLANK(?b)"), &mut c));
        assert!(eval_ebv(&expr("STR(?u) = \"http://x/a\""), &mut c));
        assert!(eval_ebv(&expr("LANG(?l) = \"it\""), &mut c));
        assert!(eval_ebv(&expr("SAMETERM(?u, ?u)"), &mut c));
        assert!(!eval_ebv(&expr("SAMETERM(?u, ?l)"), &mut c));
    }

    #[test]
    fn datatype_accessor() {
        let mut c = ctx(&[("i", Term::integer(3)), ("s", Term::literal("x"))]);
        assert!(eval_ebv(
            &expr("DATATYPE(?i) = <http://www.w3.org/2001/XMLSchema#integer>"),
            &mut c
        ));
        assert!(eval_ebv(
            &expr("DATATYPE(?s) = <http://www.w3.org/2001/XMLSchema#string>"),
            &mut c
        ));
    }

    #[test]
    fn regex_contains_strstarts() {
        let mut c = ctx(&[("n", Term::literal("Albert Einstein"))]);
        assert!(eval_ebv(&expr("REGEX(?n, \"^Alb\")"), &mut c));
        assert!(eval_ebv(&expr("REGEX(?n, \"^alb\", \"i\")"), &mut c));
        assert!(!eval_ebv(&expr("REGEX(?n, \"^bert\")"), &mut c));
        assert!(eval_ebv(&expr("CONTAINS(?n, \"Ein\")"), &mut c));
        assert!(eval_ebv(&expr("STRSTARTS(?n, \"Albert\")"), &mut c));
        assert!(!eval_ebv(&expr("STRSTARTS(?n, \"Einstein\")"), &mut c));
    }

    #[test]
    fn filter_and_bind_over_a_relation() {
        let v = Variable::new;
        let mut rel = Relation::new(vec![v("x")]);
        for i in [1, 10] {
            rel.push(vec![Some(Term::integer(i))]);
        }
        rel.push(vec![Some(Term::iri("http://x/a"))]);
        // The IRI row errors in the comparison and is dropped with the 1.
        let kept = filter_relation(rel.clone(), &expr("?x > 5"));
        assert_eq!(kept.rows(), &[vec![Some(Term::integer(10))]]);
        // EXISTS has nothing to probe at this level.
        assert!(filter_relation(rel.clone(), &expr("EXISTS { ?x ?p ?o }")).is_empty());
        // An erroring BIND keeps the row, unbound.
        let bound = bind_relation(rel.clone(), &expr("?x * 2"), &v("d"));
        assert_eq!(bound.vars(), &[v("x"), v("d")]);
        let doubled: Vec<Option<f64>> = bound
            .rows()
            .iter()
            .map(|r| r[1].as_ref().and_then(|t| t.as_literal()?.as_f64()))
            .collect();
        assert_eq!(doubled, [Some(2.0), Some(20.0), None]);
        // Re-binding keeps only the rows that agree.
        let again = bind_relation(rel, &Expression::Term(Term::integer(10)), &v("x"));
        assert_eq!(again.rows(), &[vec![Some(Term::integer(10))]]);
    }

    #[test]
    fn ebv_of_literals() {
        assert_eq!(ebv(Value::Term(Term::literal(""))), Some(false));
        assert_eq!(ebv(Value::Term(Term::literal("x"))), Some(true));
        assert_eq!(ebv(Value::Term(Term::integer(0))), Some(false));
        assert_eq!(ebv(Value::Term(Term::integer(7))), Some(true));
        assert_eq!(ebv(Value::Term(Term::iri("http://x"))), None);
        assert_eq!(
            ebv(Value::Term(Term::Literal(Literal::typed(
                "true",
                vocab::xsd::BOOLEAN
            )))),
            Some(true)
        );
    }
}
