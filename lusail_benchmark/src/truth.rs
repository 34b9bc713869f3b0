//! The correctness gate: every answer is compared with the answer of
//! `store::Evaluator` over the merged graph of all endpoints.

use lusail_rdf::Graph;
use lusail_sparql::ast::Query;
use lusail_sparql::solution::Relation;
use lusail_store::{Evaluator, Store};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// What a correct answer to one query looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub rows: usize,
    /// `None` for `LIMIT` without `ORDER BY`: any `rows` solutions are
    /// correct, so only the count is comparable.
    pub digest: Option<u64>,
}

/// The union of all endpoint graphs as one store.
pub fn merged_store(graphs: &[(String, Graph)]) -> Store {
    let mut merged = Graph::new();
    for (_, g) in graphs {
        merged.extend(g.clone());
    }
    Store::from_graph(&merged)
}

pub fn expected(merged: &Store, query: &Query) -> Expected {
    let rel = Evaluator::new(merged).query(query).into_solutions();
    let free_choice = query
        .as_select()
        .is_some_and(|s| s.limit.is_some() && s.order_by.is_empty());
    Expected {
        rows: rel.len(),
        digest: (!free_choice).then(|| digest(&rel)),
    }
}

/// A hash of the solution bag that ignores row order and column order:
/// each row hashes its `(variable, term)` pairs in variable-name order,
/// and rows combine by wrapping addition.
pub fn digest(rel: &Relation) -> u64 {
    let mut cols: Vec<usize> = (0..rel.vars().len()).collect();
    cols.sort_by(|&a, &b| rel.vars()[a].name().cmp(rel.vars()[b].name()));
    rel.rows().iter().fold(0u64, |acc, row| {
        let mut h = DefaultHasher::new();
        for &c in &cols {
            rel.vars()[c].name().hash(&mut h);
            row[c].hash(&mut h);
        }
        acc.wrapping_add(h.finish())
    })
}

/// `Err` describes the mismatch (both counts, or a digest difference).
pub fn check(expected: &Expected, actual: &Relation) -> Result<(), String> {
    if actual.len() != expected.rows {
        return Err(format!("{} rows, expected {}", actual.len(), expected.rows));
    }
    match expected.digest {
        Some(d) if d != digest(actual) => Err(format!(
            "{} rows as expected, but the solution bags differ",
            actual.len()
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::Term;
    use lusail_sparql::ast::Variable;
    use lusail_sparql::parse_query;

    fn rel(vars: &[&str], rows: &[&[&str]]) -> Relation {
        Relation::from_rows(
            vars.iter().map(|v| Variable::new(*v)).collect(),
            rows.iter()
                .map(|r| r.iter().map(|t| Some(Term::iri(*t))).collect())
                .collect(),
        )
    }

    #[test]
    fn digest_ignores_row_and_column_order_but_not_content() {
        let a = rel(&["x", "y"], &[&["a", "b"], &["c", "d"]]);
        let b = rel(&["y", "x"], &[&["d", "c"], &["b", "a"]]);
        assert_eq!(digest(&a), digest(&b));
        let swapped = rel(&["x", "y"], &[&["b", "a"], &["c", "d"]]);
        assert_ne!(digest(&a), digest(&swapped));
        let duplicated = rel(&["x", "y"], &[&["a", "b"], &["a", "b"]]);
        assert_ne!(digest(&a), digest(&duplicated));
    }

    #[test]
    fn limit_without_order_compares_counts_only() {
        let mut g = Graph::new();
        for i in 0..5 {
            g.add(
                Term::iri(format!("http://x/s{i}")),
                Term::iri("http://x/p"),
                Term::iri("http://x/o"),
            );
        }
        let store = merged_store(&[("a".to_string(), g)]);
        let limited = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o } LIMIT 2").unwrap();
        let e = expected(&store, &limited);
        assert_eq!((e.rows, e.digest), (2, None));
        assert!(check(&e, &rel(&["s"], &[&["http://x/s3"], &["http://x/s4"]])).is_ok());
        assert!(check(&e, &rel(&["s"], &[&["http://x/s3"]])).is_err());

        let all = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
        let e = expected(&store, &all);
        assert_eq!(e.rows, 5);
        let wrong = rel(
            &["s"],
            &[
                &["http://x/s0"],
                &["http://x/s1"],
                &["http://x/s2"],
                &["http://x/s3"],
                &["http://x/zz"],
            ],
        );
        assert!(check(&e, &wrong).unwrap_err().contains("differ"));
    }
}
