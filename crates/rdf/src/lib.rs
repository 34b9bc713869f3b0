//! # lusail-rdf
//!
//! The RDF data model substrate for the Lusail federated SPARQL engine.
//!
//! This crate provides:
//!
//! * [`Term`] — RDF terms (IRIs, blank nodes, and literals with optional
//!   datatype or language tag).
//! * [`Triple`] — an RDF triple of terms.
//! * [`Dictionary`] — a string-interning dictionary mapping terms to dense
//!   `u32` identifiers, which the store and join operators use so that all
//!   hot-path comparisons are integer comparisons.
//! * [`Graph`] — a simple in-memory bag of triples used as the
//!   exchange format between data generators, parsers, and stores.
//! * [`syntax`] — the one reader of term syntax: a [`syntax::Cursor`]
//!   lexes IRIs, prefixed names, blank nodes, literals, numbers and
//!   booleans for the N-Triples and Turtle parsers here and for the SPARQL
//!   parser, so a term parses the same in a data file and in a query.
//! * N-Triples and Turtle-subset parsing/serialization ([`ntriples`],
//!   [`turtle`]).
//! * [`fxhash`] — a small Fx-style hasher; dictionary ids dominate our hash
//!   keys and SipHash is needlessly slow for them.
//! * [`vocab`] — well-known namespaces used by the benchmark workloads.
//!
//! The crate has no dependencies and is deliberately small: everything that
//! needs to be fast operates on interned ids, not on these owned values.

pub mod dict;
pub mod fxhash;
pub mod graph;
pub mod ntriples;
pub mod syntax;
pub mod term;
pub mod triple;
pub mod turtle;
pub mod vocab;

pub use dict::{Dictionary, TermId};
pub use graph::Graph;
pub use term::{Literal, Term};
pub use triple::Triple;
