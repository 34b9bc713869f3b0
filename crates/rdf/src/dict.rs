//! Term dictionary: interning of [`Term`]s to dense `u32` ids.
//!
//! Each endpoint's store owns one dictionary. All query processing inside a
//! store happens on ids; terms are materialized only at the federation
//! boundary (results shipped between endpoints and the federator are terms,
//! since each endpoint has its own id space — exactly like real federated
//! SPARQL, where endpoints exchange lexical values).
//!
//! Beyond the per-store dictionaries, the federator's operators build
//! short-lived *query-scoped* dictionaries: a join, `DISTINCT`, `MINUS`,
//! or found-bindings merge interns the terms it touches once and then
//! works entirely on fixed-width ids — hashing and comparing `u32`s
//! instead of strings — materializing terms again only when producing its
//! output. The [`Dictionary::encode_slot`]/[`Dictionary::decode_slot`]
//! helpers cover the optionally-bound cells those operators deal in.

use crate::fxhash::FxHashMap;
use crate::term::Term;
use std::collections::hash_map::Entry;

/// A dense identifier for an interned term. `0` is a valid id.
pub type TermId = u32;

/// Fixed-width encoding of an optionally-bound solution cell:
/// `0` = unbound, anything else = [`TermId`] + 1. Equality of slots is
/// equality of cells, provided both were encoded by the *same*
/// dictionary.
pub type SlotId = u32;

/// The [`SlotId`] of an unbound cell.
pub const UNBOUND: SlotId = 0;

/// An interning dictionary mapping [`Term`] ↔ [`TermId`].
///
/// Lookup by term is hash-based; lookup by id is a direct vector index.
/// Ids are handed out contiguously starting at 0, so they can be used as
/// indexes into side arrays (e.g. per-term statistics).
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Term>,
    ids: FxHashMap<Term, TermId>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `term`, returning its id. Idempotent. The term is hashed
    /// once whether or not it is new, and the map key and the decode slot
    /// share the caller's string buffer.
    pub fn encode(&mut self, term: &Term) -> TermId {
        match self.ids.entry(term.clone()) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                let id = self.terms.len() as TermId;
                self.terms.push(slot.key().clone());
                slot.insert(id);
                id
            }
        }
    }

    /// Look up the id of an already-interned term, without interning.
    pub fn get(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// Resolve an id back to its term. Panics on an id this dictionary never
    /// produced (that is a logic error, not a data error).
    pub fn decode(&self, id: TermId) -> &Term {
        &self.terms[id as usize]
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms.iter().enumerate().map(|(i, t)| (i as TermId, t))
    }

    /// Intern an optionally-bound cell as a fixed-width [`SlotId`].
    pub fn encode_slot(&mut self, cell: Option<&Term>) -> SlotId {
        match cell {
            None => UNBOUND,
            Some(t) => self.encode(t) + 1,
        }
    }

    /// Resolve a slot back to its cell, cloning the term. Panics on a
    /// slot this dictionary never produced (a logic error).
    pub fn decode_slot(&self, slot: SlotId) -> Option<Term> {
        if slot == UNBOUND {
            None
        } else {
            Some(self.decode(slot - 1).clone())
        }
    }

    /// Intern a whole solution row as fixed-width slots.
    pub fn encode_row(&mut self, row: &[Option<Term>]) -> Vec<SlotId> {
        row.iter().map(|c| self.encode_slot(c.as_ref())).collect()
    }

    /// Materialize a slot row back into terms.
    pub fn decode_row(&self, slots: &[SlotId]) -> Vec<Option<Term>> {
        slots.iter().map(|&s| self.decode_slot(s)).collect()
    }
}

/// A zero-clone interner over *borrowed* terms, for operators that hash
/// and compare cells but never decode ids back — key-only joins, `MINUS`
/// agreement scans. Unlike [`Dictionary`] (which holds two shared handles
/// to every interned term so it can decode), this holds only references
/// into the source rows: each distinct term is string-hashed once and no
/// reference count is touched.
#[derive(Debug, Default)]
pub struct KeyInterner<'a> {
    ids: FxHashMap<&'a Term, SlotId>,
}

impl<'a> KeyInterner<'a> {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an optionally-bound cell as a fixed-width [`SlotId`]:
    /// unbound maps to [`UNBOUND`], bound terms get dense ids from 1 up.
    /// Slot equality is cell equality, provided both slots came from the
    /// *same* interner.
    pub fn encode_slot(&mut self, cell: Option<&'a Term>) -> SlotId {
        match cell {
            None => UNBOUND,
            Some(t) => {
                let next = self.ids.len() as SlotId + 1;
                *self.ids.entry(t).or_insert(next)
            }
        }
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode(&Term::iri("http://x/a"));
        let b = d.encode(&Term::iri("http://x/b"));
        let a2 = d.encode(&Term::iri("http://x/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn one_buffer_per_interned_term() {
        use std::sync::Arc;
        fn payload(t: &Term) -> &Arc<str> {
            match t {
                Term::Iri(s) | Term::BlankNode(s) => s,
                Term::Literal(l) => &l.lexical,
            }
        }
        let mut d = Dictionary::new();
        for t in [Term::iri("http://x/a"), Term::literal("abc")] {
            let id = d.encode(&t);
            // The caller's buffer, the decode slot and the map key are one
            // allocation.
            let (key, _) = d.ids.get_key_value(&t).unwrap();
            assert!(Arc::ptr_eq(payload(key), payload(d.decode(id))));
            assert!(Arc::ptr_eq(payload(&t), payload(d.decode(id))));
            assert_eq!(Arc::strong_count(payload(&t)), 3);

            // Interning an equal term from another allocation is a lookup:
            // the dictionary keeps its buffer and does not retain the new
            // one.
            let again = match &t {
                Term::Iri(s) => Term::iri(s.to_string()),
                other => Term::literal(payload(other).to_string()),
            };
            assert_eq!(d.encode(&again), id);
            assert_eq!(Arc::strong_count(payload(&again)), 1);
            assert_eq!(Arc::strong_count(payload(&t)), 3);
        }
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_roundtrip() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://x/a"),
            Term::literal("abc"),
            Term::bnode("b1"),
            Term::integer(5),
        ];
        let ids: Vec<_> = terms.iter().map(|t| d.encode(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.decode(*id), t);
            assert_eq!(d.get(t), Some(*id));
        }
    }

    #[test]
    fn get_does_not_intern() {
        let d = Dictionary::new();
        assert_eq!(d.get(&Term::iri("x")), None);
        assert!(d.is_empty());
    }

    #[test]
    fn ids_are_dense() {
        let mut d = Dictionary::new();
        for i in 0..100 {
            let id = d.encode(&Term::integer(i));
            assert_eq!(id, i as TermId);
        }
    }

    #[test]
    fn slot_rows_round_trip() {
        let mut d = Dictionary::new();
        let row = vec![Some(Term::iri("http://x/a")), None, Some(Term::integer(3))];
        let slots = d.encode_row(&row);
        assert_eq!(slots[1], UNBOUND);
        assert_ne!(slots[0], UNBOUND);
        assert_eq!(d.decode_row(&slots), row);
        // Same dictionary ⇒ same slots for equal cells.
        assert_eq!(d.encode_row(&row), slots);
    }

    #[test]
    fn literals_distinct_by_datatype_and_lang() {
        let mut d = Dictionary::new();
        let a = d.encode(&Term::literal("x"));
        let b = d.encode(&Term::Literal(crate::Literal::typed(
            "x",
            crate::vocab::xsd::STRING,
        )));
        let c = d.encode(&Term::Literal(crate::Literal::lang("x", "en")));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }
}
