//! # lusail-store
//!
//! An in-memory, dictionary-encoded RDF triple store with a full evaluator
//! for the SPARQL fragment in [`lusail_sparql`]. One `Store` plays the role
//! that Jena Fuseki or Virtuoso plays in the paper: the *standard, unmodified
//! engine at each endpoint* that the federated systems talk to.
//!
//! Layout follows the classic triple-store design: terms are interned to
//! dense `u32` ids ([`lusail_rdf::Dictionary`]) and three permutation
//! indexes (SPO, POS, OSP), each a sorted array of id triples, answer any
//! triple-pattern access path with a contiguous run found by binary search.
//!
//! The evaluator implements bag semantics, `FILTER` expressions (including
//! correlated `EXISTS` / `NOT EXISTS`, which Lusail's locality check queries
//! rely on), `OPTIONAL`, `UNION`, `VALUES`, sub-`SELECT`s, `DISTINCT`,
//! `ORDER BY`, `LIMIT`/`OFFSET`, and the `COUNT` aggregate.

pub mod eval;
pub mod expr;
pub mod regex_lite;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use eval::Evaluator;
pub use stats::StoreStats;
pub use store::Store;

/// SplitMix64: the seeded generator of the randomised tests.
#[cfg(test)]
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
