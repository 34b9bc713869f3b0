//! The dictionary-encoded triple store.

use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::{Dictionary, Graph, Term, TermId};

/// One `(s, p, o)` id triple.
type IdTriple = (TermId, TermId, TermId);

/// Turns one row of an index back into `(s, p, o)` order.
type Orient = fn(&[TermId; 3]) -> IdTriple;

/// The matches of one pattern: a run of one index, each row oriented.
pub type Matches<'a> = std::iter::Map<std::slice::Iter<'a, [TermId; 3]>, Orient>;

/// One endpoint's triple store: a dictionary plus three permutation
/// indexes, each a sorted, deduplicated array built once.
///
/// RDF graphs are sets of triples, so duplicates collapse at build time.
/// All query processing inside the store works on `TermId`s; terms cross
/// the store boundary only in results. A bound prefix of a pattern is one
/// contiguous run of the index that starts with those slots, found by two
/// binary searches.
#[derive(Debug, Default, Clone)]
pub struct Store {
    dict: Dictionary,
    spo: Vec<[TermId; 3]>,
    pos: Vec<[TermId; 3]>,
    osp: Vec<[TermId; 3]>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store from a graph.
    pub fn from_graph(graph: &Graph) -> Self {
        let mut dict = Dictionary::new();
        let spo = graph
            .iter()
            .map(|t| {
                [
                    dict.encode(&t.subject),
                    dict.encode(&t.predicate),
                    dict.encode(&t.object),
                ]
            })
            .collect();
        Self::from_ids(dict, spo)
    }

    /// Build the three indexes over id triples (in any order, duplicates
    /// allowed) whose ids `dict` defines.
    pub(crate) fn from_ids(dict: Dictionary, mut spo: Vec<[TermId; 3]>) -> Self {
        spo.sort_unstable();
        spo.dedup();
        let permuted = |f: fn(&[TermId; 3]) -> [TermId; 3]| {
            let mut index: Vec<[TermId; 3]> = spo.iter().map(f).collect();
            index.sort_unstable();
            index
        };
        let pos = permuted(|&[s, p, o]| [p, o, s]);
        let osp = permuted(|&[s, p, o]| [o, s, p]);
        Store {
            dict,
            spo,
            pos,
            osp,
        }
    }

    /// Number of (distinct) triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// The term dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Intern-or-lookup a term id *without* inserting any triple. Returns
    /// `None` when the term does not occur in this store, which lets
    /// pattern matching short-circuit to an empty result.
    pub fn resolve(&self, term: &Term) -> Option<TermId> {
        self.dict.get(term)
    }

    /// Decode an id to its term.
    pub fn decode(&self, id: TermId) -> &Term {
        self.dict.decode(id)
    }

    /// The index run holding a pattern's matches, and how to read one of
    /// its rows back in `(s, p, o)` order.
    fn lookup(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> (&[[TermId; 3]], Orient) {
        fn spo(&[s, p, o]: &[TermId; 3]) -> IdTriple {
            (s, p, o)
        }
        fn pos(&[p, o, s]: &[TermId; 3]) -> IdTriple {
            (s, p, o)
        }
        fn osp(&[o, s, p]: &[TermId; 3]) -> IdTriple {
            (s, p, o)
        }
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => (run(&self.spo, &[s, p, o]), spo),
            (Some(s), Some(p), None) => (run(&self.spo, &[s, p]), spo),
            (Some(s), None, None) => (run(&self.spo, &[s]), spo),
            (None, Some(p), Some(o)) => (run(&self.pos, &[p, o]), pos),
            (None, Some(p), None) => (run(&self.pos, &[p]), pos),
            (Some(s), None, Some(o)) => (run(&self.osp, &[o, s]), osp),
            (None, None, Some(o)) => (run(&self.osp, &[o]), osp),
            (None, None, None) => (&self.spo, spo),
        }
    }

    /// Match a triple pattern of optional ids, yielding `(s, p, o)` id
    /// triples. Chooses the best permutation index for the bound slots.
    pub fn match_ids(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Matches<'_> {
        let (rows, orient) = self.lookup(s, p, o);
        rows.iter().map(orient)
    }

    /// Count the matches of a pattern: the length of its index run.
    pub fn count_ids(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        self.lookup(s, p, o).0.len()
    }

    /// Count the matches of a pattern of optional ids `[s, p, o]` by the id
    /// in slot `by` (0 for the subject, 1 the predicate, 2 the object), one
    /// `(id, count)` per distinct id. Where an index leads with the bound
    /// slots and then `by`, the counts are the lengths of its runs, each
    /// found by a binary search; elsewhere each match is counted.
    pub(crate) fn count_by(&self, ids: [Option<TermId>; 3], by: usize) -> Vec<(TermId, usize)> {
        let bound = ids.iter().flatten().count();
        // spo, pos and osp lead with the subject, predicate and object.
        for (lead, index) in [&self.spo, &self.pos, &self.osp].into_iter().enumerate() {
            let column = |i: usize| (lead + i) % 3;
            let key: Option<Vec<TermId>> = (0..bound).map(|i| ids[column(i)]).collect();
            let Some(key) = key.filter(|_| bound < 3 && column(bound) == by) else {
                continue;
            };
            let mut rows = run(index, &key);
            let mut counts = Vec::new();
            while let Some(first) = rows.first() {
                let len = rows.partition_point(|row| row[bound] == first[bound]);
                counts.push((first[bound], len));
                rows = &rows[len..];
            }
            return counts;
        }
        let mut counts: FxHashMap<TermId, usize> = FxHashMap::default();
        let [s, p, o] = ids;
        for (s, p, o) in self.match_ids(s, p, o) {
            *counts.entry([s, p, o][by]).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// Match a pattern of optional *terms*; terms unknown to the dictionary
    /// yield an empty result.
    pub fn match_terms(&self, s: Option<&Term>, p: Option<&Term>, o: Option<&Term>) -> Matches<'_> {
        let resolve = |t: Option<&Term>| -> Result<Option<TermId>, ()> {
            match t {
                None => Ok(None),
                Some(t) => self.resolve(t).map(Some).ok_or(()),
            }
        };
        match (resolve(s), resolve(p), resolve(o)) {
            (Ok(s), Ok(p), Ok(o)) => self.match_ids(s, p, o),
            _ => {
                let (rows, orient) = self.lookup(None, None, None);
                rows[..0].iter().map(orient)
            }
        }
    }

    /// Iterate all triples as id-triples in SPO order.
    pub fn iter_ids(&self) -> Matches<'_> {
        self.match_ids(None, None, None)
    }

    /// All distinct predicate ids.
    pub fn predicates(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        for row in &self.pos {
            if out.last() != Some(&row[0]) {
                out.push(row[0]);
            }
        }
        out
    }
}

/// The run of a sorted index whose rows start with `key`.
fn run<'a>(index: &'a [[TermId; 3]], key: &[TermId]) -> &'a [[TermId; 3]] {
    let k = key.len();
    let lo = index.partition_point(|row| row[..k] < *key);
    let len = index[lo..].partition_point(|row| row[..k] == *key);
    &index[lo..lo + len]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::{Literal, Term, Triple};

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::iris(
            format!("http://x/{s}"),
            format!("http://x/{p}"),
            format!("http://x/{o}"),
        )
    }

    fn store() -> Store {
        let g: Graph = [
            t("a", "p", "b"),
            t("a", "p", "c"),
            t("b", "q", "c"),
            t("c", "p", "b"),
        ]
        .into_iter()
        .collect();
        Store::from_graph(&g)
    }

    #[test]
    fn insert_deduplicates() {
        let mut g: Graph = [t("a", "p", "b"), t("a", "p", "c")].into_iter().collect();
        g.insert(t("a", "p", "b"));
        let st = Store::from_graph(&g);
        assert_eq!(st.len(), 2);
        assert_eq!(st.iter_ids().count(), 2);
    }

    #[test]
    fn all_access_paths_agree() {
        let st = store();
        let s = st.resolve(&Term::iri("http://x/a"));
        let p = st.resolve(&Term::iri("http://x/p"));
        let o = st.resolve(&Term::iri("http://x/b"));
        assert_eq!(st.match_ids(s, p, o).len(), 1);
        assert_eq!(st.match_ids(s, p, None).len(), 2);
        assert_eq!(st.match_ids(s, None, None).len(), 2);
        assert_eq!(st.match_ids(None, p, o).len(), 2); // a-p-b, c-p-b
        assert_eq!(st.match_ids(None, p, None).len(), 3);
        assert_eq!(st.match_ids(s, None, o).len(), 1);
        assert_eq!(st.match_ids(None, None, o).len(), 2);
        assert_eq!(st.match_ids(None, None, None).len(), 4);
    }

    #[test]
    fn counts_match_matches() {
        let st = store();
        let p = st.resolve(&Term::iri("http://x/p"));
        for (s, pp, o) in [
            (None, p, None),
            (None, None, None),
            (st.resolve(&Term::iri("http://x/a")), None, None),
        ] {
            assert_eq!(st.count_ids(s, pp, o), st.match_ids(s, pp, o).len());
        }
    }

    #[test]
    fn unknown_term_matches_nothing() {
        let st = store();
        assert_eq!(
            st.match_terms(Some(&Term::iri("http://nowhere/z")), None, None)
                .len(),
            0
        );
        assert_eq!(st.resolve(&Term::iri("http://nowhere/z")), None);
    }

    #[test]
    fn predicates_listing() {
        let st = store();
        let preds: Vec<_> = st
            .predicates()
            .into_iter()
            .map(|id| st.decode(id).clone())
            .collect();
        assert_eq!(preds.len(), 2);
        assert!(preds.contains(&Term::iri("http://x/p")));
        assert!(preds.contains(&Term::iri("http://x/q")));
    }

    #[test]
    fn match_returns_spo_orientation_from_every_index() {
        let st = store();
        // Whatever index serves the lookup, results are (s,p,o).
        let o = st.resolve(&Term::iri("http://x/c"));
        for (s, p, oo) in st.match_ids(None, None, o) {
            assert_eq!(oo, o.unwrap());
            assert!(st.match_ids(Some(s), Some(p), Some(oo)).len() == 1);
        }
    }

    /// A random store over a few subjects, predicates and objects, with
    /// every triple drawn twice as often as it is distinct: duplicates
    /// must collapse and every access path must see the same set.
    #[test]
    fn every_access_path_equals_a_filtered_scan() {
        let mut seed = 7u64;
        for round in 0..40 {
            let n = 1 + crate::splitmix(&mut seed) as usize % 60;
            let mut g = Graph::new();
            let mut pick = |k: u64| crate::splitmix(&mut seed) % k;
            for _ in 0..n {
                let s = format!("s{}", pick(5));
                let p = format!("p{}", pick(3));
                let o = format!("s{}", pick(6));
                g.insert(t(&s, &p, &o));
                if pick(2) == 0 {
                    g.insert(t(&s, &p, &o));
                }
            }
            let st = Store::from_graph(&g);
            let all: Vec<_> = st.iter_ids().collect();
            let mut distinct = all.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(
                all, distinct,
                "round {round}: iter_ids is sorted and duplicate-free"
            );
            assert_eq!(st.len(), all.len());

            // Every stored triple, and one made of an id no term has, under
            // each of the eight bound/unbound masks.
            let absent = st.dict().len() as TermId;
            for (s, p, o) in all.iter().copied().chain([(absent, absent, absent)]) {
                for mask in 0..8 {
                    let bound = |i: u32, id: TermId| (mask >> i & 1 == 1).then_some(id);
                    let (ks, kp, ko) = (bound(0, s), bound(1, p), bound(2, o));
                    let want: Vec<_> = (all.iter().copied())
                        .filter(|&(a, b, c)| {
                            ks.is_none_or(|x| x == a)
                                && kp.is_none_or(|x| x == b)
                                && ko.is_none_or(|x| x == c)
                        })
                        .collect();
                    let mut got: Vec<_> = st.match_ids(ks, kp, ko).collect();
                    got.sort_unstable();
                    assert_eq!(got, want, "round {round}, pattern {:?}", (ks, kp, ko));
                    assert_eq!(st.count_ids(ks, kp, ko), want.len());
                }
            }
            let loaded = crate::snapshot::load(&crate::snapshot::save(&st)).unwrap();
            let reloaded: Vec<_> = loaded.iter_ids().collect();
            assert_eq!(reloaded, all, "round {round}: snapshot round trip");
        }
    }

    #[test]
    fn literals_of_one_text_are_distinct_index_keys() {
        let x = Term::iri("http://x/x");
        let p = Term::iri("http://x/p");
        let mut g = Graph::new();
        g.add(x.clone(), p.clone(), Term::literal("5"));
        g.add(x.clone(), p.clone(), Term::integer(5));
        g.add(
            x.clone(),
            p.clone(),
            Term::Literal(Literal::lang("5", "en")),
        );
        g.add(x.clone(), p.clone(), Term::integer(5));
        let st = Store::from_graph(&g);
        assert_eq!(st.len(), 3);
        let o = st.resolve(&Term::integer(5));
        assert_eq!(st.count_ids(None, None, o), 1);
    }
}
