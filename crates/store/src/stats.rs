//! Per-store statistics.
//!
//! Two consumers:
//!
//! * The SPLENDID-style baseline's *preprocessing* pass builds a VoID-like
//!   summary per endpoint from these statistics (predicate → triple count,
//!   distinct subjects/objects).
//! * The HiBISCuS-style baseline collects, per predicate, the set of
//!   *authorities* (URI prefixes) of subjects and objects.
//!
//! Lusail itself deliberately does **not** use precollected statistics — it
//! probes endpoints with `COUNT` queries at run time (Section 4.1 of the
//! paper). Those probes are served by the evaluator, not by this module.

use crate::store::Store;
use lusail_rdf::fxhash::{FxHashMap, FxHashSet};
use lusail_rdf::Term;

/// VoID-style statistics for one store.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Total triples.
    pub triples: usize,
    /// Per-predicate statistics keyed by predicate IRI.
    pub predicates: FxHashMap<String, PredicateStats>,
}

/// Statistics for one predicate within a store.
#[derive(Debug, Clone, Default)]
pub struct PredicateStats {
    /// Number of triples with this predicate.
    pub count: usize,
    /// Number of distinct subjects.
    pub distinct_subjects: usize,
    /// Number of distinct objects.
    pub distinct_objects: usize,
    /// Authorities (scheme + host) of subject IRIs.
    pub subject_authorities: FxHashSet<String>,
    /// Authorities of object IRIs (empty entry set when objects are
    /// literals only).
    pub object_authorities: FxHashSet<String>,
}

impl StoreStats {
    /// Scan a store and collect its statistics. This models the paper's
    /// "preprocessing phase … dominated by the dataset size": it is a full
    /// pass over the data, and the benchmarks report its cost separately.
    pub fn collect(store: &Store) -> Self {
        let mut stats = StoreStats {
            triples: store.len(),
            predicates: FxHashMap::default(),
        };
        let mut subjects: FxHashMap<String, FxHashSet<u32>> = FxHashMap::default();
        let mut objects: FxHashMap<String, FxHashSet<u32>> = FxHashMap::default();
        for (s, p, o) in store.iter_ids() {
            let pred = match store.decode(p) {
                Term::Iri(iri) => iri.to_string(),
                other => other.to_string(),
            };
            let entry = stats.predicates.entry(pred.clone()).or_default();
            entry.count += 1;
            subjects.entry(pred.clone()).or_default().insert(s);
            objects.entry(pred.clone()).or_default().insert(o);
            if let Some(auth) = store.decode(s).authority() {
                entry.subject_authorities.insert(auth.to_string());
            }
            if let Some(auth) = store.decode(o).authority() {
                entry.object_authorities.insert(auth.to_string());
            }
        }
        for (pred, set) in subjects {
            stats.predicates.get_mut(&pred).unwrap().distinct_subjects = set.len();
        }
        for (pred, set) in objects {
            stats.predicates.get_mut(&pred).unwrap().distinct_objects = set.len();
        }
        stats
    }

    /// Does this store contain any triple with the given predicate IRI?
    pub fn has_predicate(&self, iri: &str) -> bool {
        self.predicates.contains_key(iri)
    }

    /// The triple count for a predicate (0 when absent).
    pub fn predicate_count(&self, iri: &str) -> usize {
        self.predicates.get(iri).map_or(0, |p| p.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::{Graph, Term};

    fn sample() -> Store {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://a.org/s1"),
            Term::iri("http://x/p"),
            Term::iri("http://b.org/o1"),
        );
        g.add(
            Term::iri("http://a.org/s1"),
            Term::iri("http://x/p"),
            Term::iri("http://b.org/o2"),
        );
        g.add(
            Term::iri("http://a.org/s2"),
            Term::iri("http://x/q"),
            Term::literal("leaf"),
        );
        Store::from_graph(&g)
    }

    #[test]
    fn counts_and_distincts() {
        let stats = StoreStats::collect(&sample());
        assert_eq!(stats.triples, 3);
        assert_eq!(stats.predicate_count("http://x/p"), 2);
        let p = &stats.predicates["http://x/p"];
        assert_eq!(p.distinct_subjects, 1);
        assert_eq!(p.distinct_objects, 2);
        assert!(stats.has_predicate("http://x/q"));
        assert!(!stats.has_predicate("http://x/r"));
    }

    #[test]
    fn authorities() {
        let stats = StoreStats::collect(&sample());
        let p = &stats.predicates["http://x/p"];
        assert!(p.subject_authorities.contains("http://a.org"));
        assert!(p.object_authorities.contains("http://b.org"));
        let q = &stats.predicates["http://x/q"];
        assert!(q.object_authorities.is_empty()); // literal objects
    }
}
