//! Subqueries: the unit LADE produces and SAPE schedules.

use lusail_federation::EndpointId;
use lusail_rdf::fxhash::FxHashSet;
use lusail_rdf::Term;
use lusail_sparql::ast::{
    Expression, GraphPattern, Projection, Query, SelectQuery, TriplePattern, Variable,
};

/// One independent subquery: a group of triple patterns (plus any pushed
/// filters) that every relevant endpoint can answer completely on its own
/// (Lemma 1 of the paper guarantees no results are missed).
#[derive(Debug, Clone, PartialEq)]
pub struct Subquery {
    /// Position in the decomposition (stable identifier for planning).
    pub id: usize,
    /// The triple patterns evaluated together at the endpoints.
    pub patterns: Vec<TriplePattern>,
    /// Filters pushed into this subquery (all their variables are covered
    /// by `patterns`).
    pub filters: Vec<Expression>,
    /// The endpoints that can answer this subquery.
    pub sources: Vec<EndpointId>,
    /// Variables shipped back to the federator: those needed by the global
    /// join, un-pushed filters, or the query's projection.
    pub projection: Vec<Variable>,
}

impl Subquery {
    /// All variables appearing in the subquery's patterns.
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

    /// Does this subquery mention `v`?
    pub fn mentions(&self, v: &Variable) -> bool {
        self.patterns.iter().any(|tp| tp.mentions(v))
    }

    /// The graph pattern of this subquery (patterns + pushed filters).
    fn body(&self) -> GraphPattern {
        let mut p = GraphPattern::Bgp(self.patterns.clone());
        for f in &self.filters {
            p = GraphPattern::Filter(Box::new(p), f.clone());
        }
        p
    }

    /// The `SELECT` query shipped to each relevant endpoint.
    pub fn to_query(&self) -> Query {
        Query::select(SelectQuery::new(
            Projection::Vars(self.projection.clone()),
            self.body(),
        ))
    }

    /// The bound-join form: the subquery with a `VALUES` block binding
    /// `vars` to one block of already-found rows (Section 4.2 — SAPE
    /// "groups values from the hashmap into blocks and submits a subquery
    /// for each block").
    pub fn to_bound_query(&self, vars: &[Variable], block: &[Vec<Option<Term>>]) -> Query {
        let body = self
            .body()
            .join(GraphPattern::Values(vars.to_vec(), block.to_vec()));
        Query::select(SelectQuery::new(
            Projection::Vars(self.projection.clone()),
            body,
        ))
    }

    /// A `SELECT COUNT` probe for one triple pattern of this subquery,
    /// with this subquery's single-pattern filters pushed down for better
    /// estimates (Section 4.1).
    pub fn count_query(&self, tp: &TriplePattern) -> Query {
        let mut p = GraphPattern::Bgp(vec![tp.clone()]);
        let tp_vars = tp.variables();
        for f in &self.filters {
            if f.variables().iter().all(|v| tp_vars.contains(&v)) {
                p = GraphPattern::Filter(Box::new(p), f.clone());
            }
        }
        Query::select(SelectQuery::new(
            Projection::Count {
                inner: None,
                distinct: false,
                as_var: Variable::new("lusail_c"),
            },
            p,
        ))
    }
}

/// Group the subqueries `members` names into components connected by shared
/// projected variables: the variables their results can join on.
pub fn connected_components(members: &[usize], subqueries: &[Subquery]) -> Vec<Vec<usize>> {
    let mut unassigned: Vec<usize> = members.to_vec();
    let mut components = Vec::new();
    while let Some(seed) = unassigned.pop() {
        let mut component = vec![seed];
        let mut vars: FxHashSet<Variable> = subqueries[seed].projection.iter().cloned().collect();
        loop {
            let mut grew = false;
            unassigned.retain(|&i| {
                if subqueries[i].projection.iter().any(|v| vars.contains(v)) {
                    component.push(i);
                    vars.extend(subqueries[i].projection.iter().cloned());
                    grew = true;
                    false
                } else {
                    true
                }
            });
            if !grew {
                break;
            }
        }
        components.push(component);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_sparql::ast::TermPattern;
    use lusail_sparql::parse_query;

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

    fn sq() -> Subquery {
        Subquery {
            id: 0,
            patterns: vec![tp("?s", "http://x/p", "?o"), tp("?o", "http://x/q", "?z")],
            filters: vec![Expression::Ne(
                Box::new(Expression::Var(Variable::new("z"))),
                Box::new(Expression::Term(Term::iri("http://x/bad"))),
            )],
            sources: vec![0, 1],
            projection: vec![Variable::new("s"), Variable::new("z")],
        }
    }

    #[test]
    fn to_query_is_valid_sparql() {
        let q = sq().to_query();
        let text = lusail_sparql::serializer::serialize_query(&q);
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(reparsed.all_triple_patterns().len(), 2);
        assert_eq!(reparsed.as_select().unwrap().projected_variables().len(), 2);
    }

    #[test]
    fn bound_query_includes_values() {
        let q = sq().to_bound_query(
            &[Variable::new("o")],
            &[
                vec![Some(Term::iri("http://x/o1"))],
                vec![Some(Term::iri("http://x/o2"))],
            ],
        );
        let text = lusail_sparql::serializer::serialize_query(&q);
        assert!(text.contains("VALUES"), "{text}");
        assert!(parse_query(&text).is_ok());
    }

    #[test]
    fn count_query_pushes_single_pattern_filters() {
        let s = sq();
        // Filter on ?z applies to the second pattern only.
        let q1 = s.count_query(&s.patterns[0]);
        let t1 = lusail_sparql::serializer::serialize_query(&q1);
        assert!(!t1.contains("FILTER"), "{t1}");
        let q2 = s.count_query(&s.patterns[1]);
        let t2 = lusail_sparql::serializer::serialize_query(&q2);
        assert!(t2.contains("FILTER"), "{t2}");
        assert!(t2.contains("COUNT"));
    }

    #[test]
    fn variables_and_mentions() {
        let s = sq();
        assert_eq!(s.variables().len(), 3);
        assert!(s.mentions(&Variable::new("o")));
        assert!(!s.mentions(&Variable::new("nope")));
    }
}
