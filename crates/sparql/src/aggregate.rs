//! Grouped aggregation (SPARQL 1.1 `GROUP BY`) over term rows, and the
//! value of one aggregate over one group. The federated engines never push
//! aggregates to endpoints (only the dedicated `COUNT` probes are, and
//! those use [`crate::ast::Projection::Count`]), so they group here, after
//! the global join; the store groups on dictionary ids and shares
//! [`aggregate_value`].

use crate::ast::{AggFunc, AggSpec, Variable};
use crate::solution::{compare_terms, Relation, Row};
use lusail_rdf::fxhash::{FxHashMap, FxHashSet};
use lusail_rdf::{Literal, Term};

/// Group `rel` by `group_by` (falling back to `keys` when empty) and
/// compute the aggregates. The output header is `keys ++ agg.as_var…`;
/// the rows come in no particular order — [`crate::solution::apply_modifiers`]
/// gives groups their default order.
pub fn aggregate_relation(
    rel: &Relation,
    group_by: &[Variable],
    keys: &[Variable],
    aggs: &[AggSpec],
) -> Relation {
    let group_keys: &[Variable] = if group_by.is_empty() { keys } else { group_by };
    let key_idx: Vec<Option<usize>> = group_keys.iter().map(|v| rel.index_of(v)).collect();
    let mut groups: FxHashMap<Vec<Option<&Term>>, Vec<&Row>> = FxHashMap::default();
    for row in rel.rows() {
        let key = key_idx
            .iter()
            .map(|i| i.and_then(|i| row[i].as_ref()))
            .collect();
        groups.entry(key).or_default().push(row);
    }
    if groups.is_empty() && group_keys.is_empty() {
        // Aggregating an empty, ungrouped result yields one row.
        groups.insert(Vec::new(), Vec::new());
    }

    let arg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| a.arg.as_ref().and_then(|v| rel.index_of(v)))
        .collect();
    let mut out_vars: Vec<Variable> = keys.to_vec();
    out_vars.extend(aggs.iter().map(|a| a.as_var.clone()));
    let mut out = Relation::new(out_vars);
    for (key, rows) in groups {
        let mut out_row: Row = keys
            .iter()
            .map(|v| {
                let pos = group_keys.iter().position(|k| k == v);
                pos.and_then(|p| key[p].cloned())
            })
            .collect();
        for (agg, idx) in aggs.iter().zip(&arg_idx) {
            let values = idx.map_or_else(Vec::new, |i| {
                rows.iter().filter_map(|row| row[i].as_ref()).collect()
            });
            out_row.push(aggregate_value(agg, rows.len(), values));
        }
        out.push(out_row);
    }
    out
}

/// The value of `agg` over one group: `rows` is the group's size (what
/// `COUNT(*)` counts) and `values` the bound values of the aggregate's
/// argument within the group, in any order. `DISTINCT` and `MIN` / `MAX`
/// compare terms: `MIN` / `MAX` by [`compare_terms`], ties broken by
/// `Term`'s own order so the pick does not depend on the input order.
pub fn aggregate_value(agg: &AggSpec, rows: usize, mut values: Vec<&Term>) -> Option<Term> {
    if agg.distinct {
        let mut seen = FxHashSet::default();
        values.retain(|t| seen.insert(*t));
    }
    let total = |a: &&Term, b: &&Term| compare_terms(Some(a), Some(b)).then_with(|| a.cmp(b));
    match agg.func {
        AggFunc::Count if agg.arg.is_none() => Some(Term::integer(rows as i64)),
        AggFunc::Count => Some(Term::integer(values.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            let nums: Vec<f64> = values
                .iter()
                .filter_map(|t| t.as_literal().and_then(|l| l.as_f64()))
                .collect();
            if nums.is_empty() {
                return Some(Term::integer(0));
            }
            let sum: f64 = nums.iter().sum();
            let v = if agg.func == AggFunc::Avg {
                sum / nums.len() as f64
            } else {
                sum
            };
            Some(if v.fract() == 0.0 {
                Term::integer(v as i64)
            } else {
                Term::Literal(Literal::double(v))
            })
        }
        AggFunc::Min => values.into_iter().min_by(total).cloned(),
        AggFunc::Max => values.into_iter().max_by(total).cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggSpec;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    fn sample() -> Relation {
        let mut r = Relation::new(vec![v("g"), v("x")]);
        for (g, x) in [("a", 1), ("a", 3), ("b", 5), ("b", 5), ("b", 7)] {
            r.push(vec![Some(Term::literal(g)), Some(Term::integer(x))]);
        }
        r
    }

    fn spec(func: AggFunc, arg: Option<&str>, distinct: bool) -> AggSpec {
        AggSpec {
            func,
            arg: arg.map(v),
            distinct,
            as_var: v("out"),
        }
    }

    fn agg_one(func: AggFunc, arg: Option<&str>, distinct: bool) -> Vec<(String, String)> {
        let out = aggregate_relation(
            &sample(),
            &[v("g")],
            &[v("g")],
            &[spec(func, arg, distinct)],
        );
        let lexical = |cell: &Option<Term>| {
            cell.as_ref()
                .unwrap()
                .as_literal()
                .unwrap()
                .lexical
                .to_string()
        };
        let mut pairs: Vec<(String, String)> = out
            .rows()
            .iter()
            .map(|r| (lexical(&r[0]), lexical(&r[1])))
            .collect();
        pairs.sort();
        pairs
    }

    #[test]
    fn count_per_group() {
        assert_eq!(
            agg_one(AggFunc::Count, None, false),
            vec![("a".into(), "2".into()), ("b".into(), "3".into())]
        );
        assert_eq!(
            agg_one(AggFunc::Count, Some("x"), true),
            vec![("a".into(), "2".into()), ("b".into(), "2".into())]
        );
    }

    #[test]
    fn sum_avg_min_max() {
        assert_eq!(
            agg_one(AggFunc::Sum, Some("x"), false),
            vec![("a".into(), "4".into()), ("b".into(), "17".into())]
        );
        assert_eq!(
            agg_one(AggFunc::Avg, Some("x"), false),
            vec![
                ("a".into(), "2".into()),
                ("b".into(), "5.666666666666667".into())
            ]
        );
        assert_eq!(
            agg_one(AggFunc::Min, Some("x"), false),
            vec![("a".into(), "1".into()), ("b".into(), "5".into())]
        );
        assert_eq!(
            agg_one(AggFunc::Max, Some("x"), false),
            vec![("a".into(), "3".into()), ("b".into(), "7".into())]
        );
        // DISTINCT sum: b's duplicate 5 counted once.
        assert_eq!(
            agg_one(AggFunc::Sum, Some("x"), true),
            vec![("a".into(), "4".into()), ("b".into(), "12".into())]
        );
    }

    #[test]
    fn min_max_and_distinct_compare_terms() {
        // 9 < 10 < 100 numerically (as strings "10" < "100" < "9"), and the
        // tie between "a" and "a"@en is broken the same way in any order.
        let nums = [Term::integer(100), Term::integer(9), Term::integer(10)];
        let tagged = Term::Literal(Literal::lang("a", "en"));
        let mixed = [tagged.clone(), Term::literal("a"), tagged.clone()];
        let value = |func, distinct, values: &[Term]| {
            let forward = values.iter().collect();
            let backward = values.iter().rev().collect();
            let agg = spec(func, Some("x"), distinct);
            let v = aggregate_value(&agg, values.len(), forward);
            assert_eq!(v, aggregate_value(&agg, values.len(), backward));
            v
        };
        assert_eq!(value(AggFunc::Min, false, &nums), Some(Term::integer(9)));
        assert_eq!(value(AggFunc::Max, false, &nums), Some(Term::integer(100)));
        assert_eq!(value(AggFunc::Min, false, &mixed), Some(Term::literal("a")));
        assert_eq!(value(AggFunc::Max, false, &mixed), Some(tagged));
        assert_eq!(value(AggFunc::Count, true, &mixed), Some(Term::integer(2)));
        assert_eq!(value(AggFunc::Max, false, &[]), None);
    }

    #[test]
    fn ungrouped_aggregate_over_empty_input() {
        let r = Relation::new(vec![v("x")]);
        let out = aggregate_relation(&r, &[], &[], &[spec(AggFunc::Count, None, false)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Some(Term::integer(0)));
    }
}
