//! Relation-level grouped aggregation (SPARQL 1.1 `GROUP BY`), applied at
//! the federator after the global join — aggregates are never pushed to
//! endpoints by the federated engines (only the dedicated `COUNT` probes
//! are, and those use [`crate::ast::Projection::Count`]).

use crate::ast::{AggFunc, AggSpec, Variable};
use crate::solution::Relation;
use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::{Literal, Term};

/// Group `rel` by `group_by` (falling back to `keys` when empty) and
/// compute the aggregates. The output header is `keys ++ agg.as_var…`,
/// rows sorted by key for determinism.
pub fn aggregate_relation(
    rel: &Relation,
    group_by: &[Variable],
    keys: &[Variable],
    aggs: &[AggSpec],
) -> Relation {
    let group_keys: &[Variable] = if group_by.is_empty() { keys } else { group_by };
    let key_idx: Vec<Option<usize>> = group_keys.iter().map(|v| rel.index_of(v)).collect();
    let mut groups: FxHashMap<Vec<Option<Term>>, Vec<usize>> = FxHashMap::default();
    for (ri, row) in rel.rows().iter().enumerate() {
        let key: Vec<Option<Term>> = key_idx
            .iter()
            .map(|i| i.and_then(|i| row[i].clone()))
            .collect();
        groups.entry(key).or_default().push(ri);
    }
    if groups.is_empty() && group_keys.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }

    let mut out_vars: Vec<Variable> = keys.to_vec();
    out_vars.extend(aggs.iter().map(|a| a.as_var.clone()));
    let mut out = Relation::new(out_vars);

    for (key, row_ids) in groups {
        let mut out_row: Vec<Option<Term>> = Vec::new();
        for v in keys {
            let pos = group_keys.iter().position(|k| k == v);
            out_row.push(pos.and_then(|p| key[p].clone()));
        }
        for agg in aggs {
            out_row.push(compute(rel, &row_ids, agg));
        }
        out.push(out_row);
    }
    out.rows_mut()
        .sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    out
}

fn compute(rel: &Relation, row_ids: &[usize], agg: &AggSpec) -> Option<Term> {
    let arg_idx = agg.arg.as_ref().and_then(|v| rel.index_of(v));
    let mut values: Vec<Option<&Term>> = match (&agg.arg, arg_idx) {
        (None, _) => row_ids.iter().map(|_| None).collect(), // COUNT(*)
        (Some(_), None) => Vec::new(),
        (Some(_), Some(i)) => row_ids
            .iter()
            .filter_map(|&ri| rel.rows()[ri][i].as_ref().map(Some))
            .collect(),
    };
    if agg.distinct && agg.arg.is_some() {
        let mut seen = lusail_rdf::fxhash::FxHashSet::default();
        values.retain(|v| seen.insert(v.map(|t| t.to_string())));
    }
    match agg.func {
        AggFunc::Count => Some(Term::integer(values.len() as i64)),
        AggFunc::Sum | AggFunc::Avg => {
            let nums: Vec<f64> = values
                .iter()
                .filter_map(|v| (*v)?.as_literal().and_then(|l| l.as_f64()))
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
        AggFunc::Min | AggFunc::Max => {
            let mut terms: Vec<&Term> = values.into_iter().flatten().collect();
            terms.sort_by(|a, b| {
                match (
                    a.as_literal().and_then(|l| l.as_f64()),
                    b.as_literal().and_then(|l| l.as_f64()),
                ) {
                    (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
                    _ => a.cmp(b),
                }
            });
            let pick = if agg.func == AggFunc::Min {
                terms.first()
            } else {
                terms.last()
            };
            pick.map(|t| (*t).clone())
        }
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
        out.rows()
            .iter()
            .map(|r| (lexical(&r[0]), lexical(&r[1])))
            .collect()
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
    fn ungrouped_aggregate_over_empty_input() {
        let r = Relation::new(vec![v("x")]);
        let out = aggregate_relation(&r, &[], &[], &[spec(AggFunc::Count, None, false)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Some(Term::integer(0)));
    }
}
