//! Paged re-fetch recovery for suspected-truncated endpoint responses.
//!
//! When a subquery response is suspected (or advertised) truncated, the
//! executor re-fetches the *whole* result through deterministic
//! `ORDER BY` + `LIMIT/OFFSET` paging: every page request orders by all
//! projected variables ascending, so successive `OFFSET` windows
//! partition the endpoint's result exactly and the merged pages
//! reconstruct what a single uncapped response would have contained.
//! This module holds the pure query-rewriting and merge arithmetic; the
//! driving loop (deadlines, budget pre-stops, divergence strikes) lives
//! in [`crate::sape::execute`].

use lusail_sparql::ast::{Projection, Query, QueryForm, Variable};
use lusail_sparql::solution::Relation;

/// The variable our verification `COUNT(*)` probes project, matching the
/// cardinality probes in [`crate::sape::estimate`].
const COUNT_VAR: &str = "lusail_c";

/// One page window of `base`: the same query with `ORDER BY` over all its
/// projected variables (ascending, unless the query already orders) and
/// the given `LIMIT`/`OFFSET`. Ordering by *every* projected variable
/// makes the sort key total over projected rows — any two rows that tie
/// on all keys are identical projections, so arbitrary tie-breaking at
/// the endpoint cannot move a row across a page boundary.
pub fn paged_query(base: &Query, limit: usize, offset: usize) -> Query {
    let mut q = base.clone();
    if let QueryForm::Select(s) = &mut q.form {
        if s.order_by.is_empty() {
            s.order_by = s
                .projected_variables()
                .into_iter()
                .map(|v| (v, true))
                .collect();
        }
        s.limit = Some(limit);
        s.offset = Some(offset);
    }
    q
}

/// The verification probe for `base`: the same pattern (including any
/// `VALUES` block of a bound subquery) with the projection replaced by
/// `COUNT(*)` and solution modifiers dropped. Under bag semantics the
/// count equals the row count of the unpaged `SELECT`, so a claim above
/// the delivered rows is evidence of truncation.
pub fn count_star(base: &Query) -> Query {
    let mut q = base.clone();
    if let QueryForm::Select(s) = &mut q.form {
        s.projection = Projection::Count {
            inner: None,
            distinct: s.distinct,
            as_var: Variable::new(COUNT_VAR),
        };
        s.distinct = false;
        s.order_by.clear();
        s.limit = None;
        s.offset = None;
    }
    q
}

/// The first page's `LIMIT`, sized from the rows the endpoint already
/// delivered: the observed count is the best available estimate of the
/// endpoint's silent cap, and requests at or under a silent cap pass
/// through it unharmed.
pub fn initial_limit(observed: usize) -> usize {
    if observed == 0 {
        256
    } else {
        observed.clamp(16, 4096)
    }
}

/// Adapt the page `LIMIT` after the first page: target a page that fits
/// in a quarter of the remaining memory budget (`None` = unbounded, keep
/// the current limit), floored at 16 rows so progress never stalls.
pub fn adaptive_limit(
    current: usize,
    page_rows: usize,
    page_bytes: usize,
    remaining_budget: Option<usize>,
) -> usize {
    let Some(remaining) = remaining_budget else {
        return current;
    };
    if page_rows == 0 || page_bytes == 0 {
        return current;
    }
    let per_row = (page_bytes / page_rows).max(1);
    ((remaining / 4) / per_row).clamp(16, 4096)
}

/// Merge fetched pages, each tagged with the `OFFSET` it was requested
/// at, into one relation. Overlapping windows (a re-fetched or
/// double-covered offset range) are deduplicated *by offset arithmetic*,
/// not by row content: rows falling in an already-covered range are
/// dropped, so legitimate duplicate rows in a bag result survive intact.
pub fn merge_pages(vars: Vec<Variable>, mut pages: Vec<(usize, Relation)>) -> Relation {
    pages.sort_by_key(|(offset, _)| *offset);
    let mut out = Relation::new(vars);
    let mut covered = 0usize;
    for (offset, mut page) in pages {
        let len = page.len();
        let skip = covered.saturating_sub(offset).min(len);
        page.rows_mut().drain(..skip);
        out.append(page);
        covered = covered.max(offset + len);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::Term;
    use lusail_sparql::ast::SelectQuery;
    use lusail_sparql::serializer::serialize_query;
    use lusail_sparql::{ast::GraphPattern, ast::TermPattern, ast::TriplePattern, parse_query};

    fn base_query() -> Query {
        Query::select(SelectQuery::new(
            Projection::Vars(vec![Variable::new("s"), Variable::new("o")]),
            GraphPattern::Bgp(vec![TriplePattern::new(
                TermPattern::var("s"),
                TermPattern::iri("http://x/p"),
                TermPattern::var("o"),
            )]),
        ))
    }

    #[test]
    fn paged_query_orders_by_all_projected_vars() {
        let q = paged_query(&base_query(), 100, 300);
        let text = serialize_query(&q);
        assert!(text.contains("ORDER BY ASC(?s) ASC(?o)"), "{text}");
        assert!(text.contains("LIMIT 100"), "{text}");
        assert!(text.contains("OFFSET 300"), "{text}");
        // Round-trips through the parser.
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(serialize_query(&reparsed), text);
    }

    #[test]
    fn paged_query_keeps_an_existing_order() {
        let mut base = base_query();
        if let QueryForm::Select(s) = &mut base.form {
            s.order_by = vec![(Variable::new("o"), false)];
        }
        let q = paged_query(&base, 10, 0);
        let text = serialize_query(&q);
        assert!(text.contains("ORDER BY DESC(?o)"), "{text}");
        assert!(!text.contains("ASC(?s)"), "{text}");
    }

    #[test]
    fn count_star_replaces_projection_and_drops_modifiers() {
        let paged = paged_query(&base_query(), 10, 20);
        let probe = count_star(&paged);
        let text = serialize_query(&probe);
        assert!(text.contains("COUNT(*)"), "{text}");
        assert!(!text.contains("ORDER BY"), "{text}");
        assert!(!text.contains("LIMIT"), "{text}");
        assert!(!text.contains("OFFSET"), "{text}");
        parse_query(&text).unwrap();
    }

    #[test]
    fn limits_are_clamped() {
        assert_eq!(initial_limit(0), 256);
        assert_eq!(initial_limit(3), 16);
        assert_eq!(initial_limit(977), 977);
        assert_eq!(initial_limit(1 << 20), 4096);
        // Unbounded budget keeps the current limit.
        assert_eq!(adaptive_limit(977, 977, 20_000, None), 977);
        // A tight budget shrinks the page, floored at 16.
        assert_eq!(adaptive_limit(977, 100, 10_000, Some(64)), 16);
        // A roomy budget grows it, capped at 4096.
        assert_eq!(adaptive_limit(16, 10, 100, Some(1 << 30)), 4096);
    }

    fn rel(vals: &[i64]) -> Relation {
        let mut r = Relation::new(vec![Variable::new("x")]);
        for v in vals {
            r.push(vec![Some(Term::integer(*v))]);
        }
        r
    }

    #[test]
    fn merge_concatenates_disjoint_windows() {
        let merged = merge_pages(
            vec![Variable::new("x")],
            vec![(0, rel(&[1, 2, 3])), (3, rel(&[4, 5])), (5, rel(&[6]))],
        );
        assert_eq!(merged.len(), 6);
        assert_eq!(merged.rows()[5][0], Some(Term::integer(6)));
    }

    #[test]
    fn merge_drops_overlap_by_offset_not_content() {
        // Pages [0..4) and [2..6) overlap by two rows; the result must
        // keep the duplicate *values* (2 appears twice in the data).
        let merged = merge_pages(
            vec![Variable::new("x")],
            vec![(0, rel(&[1, 2, 2, 3])), (2, rel(&[2, 3, 4, 5]))],
        );
        let vals: Vec<i64> = merged
            .rows()
            .iter()
            .map(|r| {
                r[0].as_ref()
                    .unwrap()
                    .as_literal()
                    .unwrap()
                    .as_i64()
                    .unwrap()
            })
            .collect();
        assert_eq!(vals, vec![1, 2, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_handles_unsorted_input_and_full_containment() {
        let merged = merge_pages(
            vec![Variable::new("x")],
            vec![
                (4, rel(&[5, 6])),
                (0, rel(&[1, 2, 3, 4])),
                (1, rel(&[2, 3])), // entirely inside covered range
            ],
        );
        let vals: Vec<i64> = merged
            .rows()
            .iter()
            .map(|r| {
                r[0].as_ref()
                    .unwrap()
                    .as_literal()
                    .unwrap()
                    .as_i64()
                    .unwrap()
            })
            .collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 5, 6]);
    }
}
