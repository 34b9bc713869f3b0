//! SAPE's cardinality model (Section 4.1).
//!
//! During query analysis, Lusail learns one `COUNT` per triple pattern per
//! relevant endpoint, with any filter that only touches that pattern's
//! variables pushed in; the counts arrive with source selection, in the one
//! batched request per endpoint of [`crate::source::probe`]. Composition
//! rules:
//!
//! * `C(sq, v, ep) = min over patterns of sq containing v of C(tp, ep)`
//! * `C(sq, v)     = Σ over relevant endpoints of C(sq, v, ep)`
//! * `C(sq)        = max over projected variables v of C(sq, v)`
//!
//! The same counts serve two purposes: they score candidate decompositions
//! inside Algorithm 2 (`estimateCost`) and they drive the delayed-subquery
//! split. The paper reports a median q-error of 1.09 for this model on
//! LargeRDFBench; the `qerror` bench reproduces that measurement.

use lusail_federation::EndpointId;
use lusail_rdf::fxhash::FxHashMap;
use lusail_sparql::ast::{
    Expression, GraphPattern, Projection, Query, SelectQuery, TriplePattern, Variable,
};

/// Per-pattern, per-endpoint counts: `counts[i][&ep]` is the number of
/// matches of pattern `i` (with its pushable filters) at endpoint `ep`.
pub type TpCounts = Vec<FxHashMap<EndpointId, usize>>;

/// The filters from `filters` that can be pushed into a probe for `tp`
/// (every variable covered by the pattern).
pub fn pushable_filters<'a>(tp: &TriplePattern, filters: &'a [Expression]) -> Vec<&'a Expression> {
    let tp_vars = tp.variables();
    filters
        .iter()
        .filter(|f| {
            let vars = f.variables();
            !vars.is_empty() && vars.iter().all(|v| tp_vars.contains(&v))
        })
        .collect()
}

/// `SELECT (COUNT(*) AS ?as_var) WHERE { tp [pushable FILTERs] }`: one arm
/// of the analysis probe ([`crate::source::probe`]).
pub fn count_select(tp: &TriplePattern, filters: &[Expression], as_var: Variable) -> SelectQuery {
    let mut p = GraphPattern::Bgp(vec![tp.clone()]);
    for f in pushable_filters(tp, filters) {
        p = GraphPattern::Filter(Box::new(p), f.clone());
    }
    SelectQuery::new(
        Projection::Count {
            inner: None,
            distinct: false,
            as_var,
        },
        p,
    )
}

/// The stand-alone `COUNT` query for one pattern: what the probe's arm for
/// it must answer, and the reference the tests compare the probe against.
pub fn count_query(tp: &TriplePattern, filters: &[Expression]) -> Query {
    Query::select(count_select(tp, filters, Variable::new("lusail_c")))
}

/// `C(sq, v)` for a draft subquery given as pattern indices.
pub fn variable_cardinality(
    member_patterns: &[usize],
    sq_sources: &[EndpointId],
    patterns: &[TriplePattern],
    counts: &TpCounts,
    v: &Variable,
) -> usize {
    let containing: Vec<usize> = member_patterns
        .iter()
        .copied()
        .filter(|&i| patterns[i].mentions(v))
        .collect();
    if containing.is_empty() {
        return 0;
    }
    sq_sources
        .iter()
        .map(|ep| {
            containing
                .iter()
                .map(|&i| counts[i].get(ep).copied().unwrap_or(0))
                .min()
                .unwrap_or(0)
        })
        .sum()
}

/// `C(sq)`: the max variable cardinality over `proj` (all subquery
/// variables when `proj` is empty or disjoint).
pub fn subquery_cardinality(
    member_patterns: &[usize],
    sq_sources: &[EndpointId],
    patterns: &[TriplePattern],
    counts: &TpCounts,
    proj: &[Variable],
) -> usize {
    let mut vars: Vec<Variable> = Vec::new();
    for &i in member_patterns {
        for v in patterns[i].variables() {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
    }
    let scoped: Vec<&Variable> = if proj.is_empty() {
        vars.iter().collect()
    } else {
        let filtered: Vec<&Variable> = vars.iter().filter(|v| proj.contains(v)).collect();
        if filtered.is_empty() {
            vars.iter().collect()
        } else {
            filtered
        }
    };
    if scoped.is_empty() {
        // Fully-ground subquery: max pattern count summed over sources.
        return sq_sources
            .iter()
            .map(|ep| {
                member_patterns
                    .iter()
                    .map(|&i| counts[i].get(ep).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0)
            })
            .sum();
    }
    scoped
        .iter()
        .map(|v| variable_cardinality(member_patterns, sq_sources, patterns, counts, v))
        .max()
        .unwrap_or(0)
}

/// The q-error metric of Moerkotte et al.: `max(e/a, a/e)`, with the
/// convention that a correct estimate of an empty result is 1.
pub fn q_error(estimated: usize, actual: usize) -> f64 {
    match (estimated, actual) {
        (0, 0) => 1.0,
        (0, _) | (_, 0) => f64::INFINITY,
        (e, a) => {
            let (e, a) = (e as f64, a as f64);
            (e / a).max(a / e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::Term;
    use lusail_sparql::ast::TermPattern;

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
    fn variable_cardinality_is_min_then_sum() {
        let pats = vec![tp("?s", "http://a", "?v"), tp("?v", "http://b", "?z")];
        // ep0: counts 100 and 10 → min 10; ep1: 5 and 50 → min 5.
        let counts: TpCounts = vec![
            [(0, 100), (1, 5)].into_iter().collect(),
            [(0, 10), (1, 50)].into_iter().collect(),
        ];
        assert_eq!(
            variable_cardinality(&[0, 1], &[0, 1], &pats, &counts, &Variable::new("v")),
            15
        );
        assert_eq!(
            variable_cardinality(&[0, 1], &[0, 1], &pats, &counts, &Variable::new("s")),
            105
        );
    }

    #[test]
    fn subquery_cardinality_is_max_over_projection() {
        let pats = vec![tp("?s", "http://a", "?v"), tp("?v", "http://b", "?z")];
        let counts: TpCounts = vec![
            [(0, 100)].into_iter().collect(),
            [(0, 10)].into_iter().collect(),
        ];
        assert_eq!(
            subquery_cardinality(&[0, 1], &[0], &pats, &counts, &[Variable::new("v")]),
            10
        );
        assert_eq!(
            subquery_cardinality(
                &[0, 1],
                &[0],
                &pats,
                &counts,
                &[Variable::new("s"), Variable::new("v")]
            ),
            100
        );
        // Empty projection falls back to all variables (s, v, z).
        assert_eq!(
            subquery_cardinality(&[0, 1], &[0], &pats, &counts, &[]),
            100
        );
    }

    #[test]
    fn pushable_filters_respect_coverage() {
        let pattern = tp("?s", "http://a", "?v");
        let on_v = Expression::Gt(
            Box::new(Expression::Var(Variable::new("v"))),
            Box::new(Expression::Term(Term::integer(3))),
        );
        let on_z = Expression::Bound(Variable::new("z"));
        let filters = vec![on_v.clone(), on_z];
        let pushed = pushable_filters(&pattern, &filters);
        assert_eq!(pushed, vec![&on_v]);
    }

    #[test]
    fn count_query_shape() {
        let q = count_query(
            &tp("?s", "http://a", "?v"),
            &[Expression::Bound(Variable::new("v"))],
        );
        let text = lusail_sparql::serializer::serialize_query(&q);
        assert!(text.contains("COUNT"), "{text}");
        assert!(text.contains("FILTER"), "{text}");
        lusail_sparql::parse_query(&text).unwrap();
    }

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(10, 10), 1.0);
        assert_eq!(q_error(20, 10), 2.0);
        assert_eq!(q_error(10, 20), 2.0);
        assert_eq!(q_error(0, 0), 1.0);
        assert!(q_error(0, 5).is_infinite());
    }
}
