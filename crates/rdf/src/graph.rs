//! A simple in-memory graph: the exchange format between generators,
//! parsers, and stores.

use crate::term::Term;
use crate::triple::Triple;

/// An in-memory bag of triples with convenience builders.
///
/// `Graph` is *not* a query structure — it exists so that data generators
/// and parsers have a uniform product to hand to
/// `lusail_store::Store::load`. Duplicate triples are preserved here and
/// deduplicated by the store's set-based indexes.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    triples: Vec<Triple>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one triple.
    pub fn insert(&mut self, triple: Triple) {
        self.triples.push(triple);
    }

    /// Add a triple from its three terms.
    pub fn add(&mut self, s: impl Into<Term>, p: impl Into<Term>, o: impl Into<Term>) {
        self.triples.push(Triple::new(s, p, o));
    }

    /// Add `(s, rdf:type, class)`.
    pub fn add_type(&mut self, s: impl Into<Term>, class: impl Into<String>) {
        self.add(
            s,
            Term::iri(crate::vocab::rdf::TYPE),
            Term::iri(class.into()),
        );
    }

    /// Number of triples (duplicates included).
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Iterate over the triples.
    pub fn iter(&self) -> std::slice::Iter<'_, Triple> {
        self.triples.iter()
    }

    /// Borrow the triples as a slice.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Merge another graph into this one.
    pub fn extend(&mut self, other: Graph) {
        self.triples.extend(other.triples);
    }
}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        Graph {
            triples: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Graph {
    type Item = Triple;
    type IntoIter = std::vec::IntoIter<Triple>;
    fn into_iter(self) -> Self::IntoIter {
        self.triples.into_iter()
    }
}

impl<'a> IntoIterator for &'a Graph {
    type Item = &'a Triple;
    type IntoIter = std::slice::Iter<'a, Triple>;
    fn into_iter(self) -> Self::IntoIter {
        self.triples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab;

    #[test]
    fn build_and_iterate() {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::literal("o"),
        );
        g.add_type(Term::iri("http://x/s"), vocab::ub::UNIVERSITY);
        assert_eq!(g.len(), 2);
        let preds: Vec<_> = g.iter().map(|t| t.predicate.clone()).collect();
        assert_eq!(preds[1], Term::iri(vocab::rdf::TYPE));
    }

    #[test]
    fn from_iterator_and_extend() {
        let g1: Graph = (0..3)
            .map(|i| Triple::iris(format!("http://x/{i}"), "http://x/p", "http://x/o"))
            .collect();
        let mut g2 = Graph::new();
        g2.extend(g1.clone());
        g2.extend(g1);
        assert_eq!(g2.len(), 6);
    }
}
