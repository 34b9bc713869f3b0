//! RDF triples.

use crate::term::Term;
use std::fmt;
use std::sync::Arc;

/// An RDF triple: (subject, predicate, object).
///
/// We do not enforce RDF's positional restrictions (e.g. literals as
/// subjects) at the type level; generators and parsers only produce valid
/// triples, and keeping one `Term` type everywhere keeps the query engine
/// simple.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    pub subject: Term,
    pub predicate: Term,
    pub object: Term,
}

impl Triple {
    /// Construct a triple from its three components.
    pub fn new(
        subject: impl Into<Term>,
        predicate: impl Into<Term>,
        object: impl Into<Term>,
    ) -> Self {
        Triple {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }

    /// Convenience constructor from three IRIs.
    pub fn iris(s: impl Into<Arc<str>>, p: impl Into<Arc<str>>, o: impl Into<Arc<str>>) -> Self {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }
}

impl From<(Term, Term, Term)> for Triple {
    fn from((s, p, o): (Term, Term, Term)) -> Self {
        Triple {
            subject: s,
            predicate: p,
            object: o,
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_ntriples_form() {
        let t = Triple::new(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::literal("o"),
        );
        assert_eq!(t.to_string(), "<http://x/s> <http://x/p> \"o\" .");
    }

    #[test]
    fn tuple_conversion() {
        let t: Triple = (Term::iri("a"), Term::iri("b"), Term::iri("c")).into();
        assert_eq!(t.predicate, Term::iri("b"));
    }
}
