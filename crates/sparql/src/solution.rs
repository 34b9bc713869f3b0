//! Solution sequences: the tabular results exchanged between endpoints and
//! the federated query processor.
//!
//! The multiset operators run on *interned* cells: each builds a
//! query-scoped interner, encodes the cells it compares once into
//! fixed-width [`SlotId`]s, and then hashes and compares plain `u32`s
//! instead of term strings. Terms are cloned again only into output rows.
//!
//! Every join is one hash-join kernel: a [`KeyTable`] holds one side's key
//! cells, [`HashTable::build`] hashes the build side, and
//! [`HashTable::probe`] walks probe rows in order with an inner, left-outer
//! or anti [`Probe`]. `join` / `join_in_parts`, `left_join`, `minus` and
//! `equi_join` (keyed by interned [`equality_key`]s, since `=` pairs
//! values, not terms) call it here; the store's evaluator calls it on its
//! own cells ([`JoinKey`]).

use crate::aggregate::aggregate_relation;
use crate::ast::{Projection, SelectQuery, Variable};
use lusail_rdf::dict::{Dictionary, KeyInterner, SlotId, UNBOUND};
use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::Term;
use std::cmp::Ordering;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

/// One solution row: a term (or unbound) per variable of the owning
/// [`Relation`]'s header.
pub type Row = Vec<Option<Term>>;

/// A solution sequence: a header of variables and a bag of rows.
///
/// This is the wire format of our simulated federation — endpoints return
/// `Relation`s, and all the federator's join operators consume and produce
/// them. Bag semantics (duplicates preserved) matches SPARQL `SELECT`
/// without `DISTINCT`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    vars: Vec<Variable>,
    rows: Vec<Row>,
}

impl Relation {
    /// An empty relation with the given header.
    pub fn new(vars: Vec<Variable>) -> Self {
        Relation {
            vars,
            rows: Vec::new(),
        }
    }

    /// Build a relation from a header and rows. Panics if a row's arity
    /// disagrees with the header (a programming error).
    pub fn from_rows(vars: Vec<Variable>, rows: Vec<Row>) -> Self {
        for r in &rows {
            assert_eq!(r.len(), vars.len(), "row arity mismatch");
        }
        Relation { vars, rows }
    }

    /// The header.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Mutable access to the rows (header is fixed).
    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        &mut self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of `v` in the header.
    pub fn index_of(&self, v: &Variable) -> Option<usize> {
        self.vars.iter().position(|x| x == v)
    }

    /// Append a row. Panics on arity mismatch.
    pub fn push(&mut self, row: Row) {
        assert_eq!(row.len(), self.vars.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Concatenate another relation with the *same header* (set union under
    /// bag semantics). Panics if headers differ.
    pub fn append(&mut self, other: Relation) {
        assert_eq!(self.vars, other.vars, "header mismatch in append");
        self.rows.extend(other.rows);
    }

    /// Bag union with header alignment (SPARQL `UNION`): the header is
    /// `self.vars ∪ other.vars` (self's order first) and a row is unbound
    /// in the variables only the other side has. Rows move; none is cloned.
    pub fn union(mut self, other: Relation) -> Relation {
        if self.vars == other.vars {
            self.rows.extend(other.rows);
            return self;
        }
        for v in &other.vars {
            if !self.vars.contains(v) {
                self.vars.push(v.clone());
            }
        }
        // Self's old header is a prefix of the new one.
        for row in &mut self.rows {
            row.resize(self.vars.len(), None);
        }
        let idx: Vec<Option<usize>> = self.vars.iter().map(|v| other.index_of(v)).collect();
        self.rows.extend(other.rows.into_iter().map(|mut row| {
            idx.iter()
                .map(|i| i.and_then(|i| row[i].take()))
                .collect::<Row>()
        }));
        self
    }

    /// The distinct bound terms of variable `v` across all rows.
    pub fn distinct_values(&self, v: &Variable) -> Vec<Term> {
        let Some(i) = self.index_of(v) else {
            return Vec::new();
        };
        // The dictionary doubles as the dedup set: a term is new exactly
        // when interning it grows the dictionary, and duplicates cost a
        // hash probe without any clone.
        let mut dict = Dictionary::new();
        for row in &self.rows {
            if let Some(t) = &row[i] {
                dict.encode(t);
            }
        }
        dict.iter().map(|(_, t)| t.clone()).collect()
    }

    /// Project onto a subset of variables (keeping row multiplicity).
    /// Variables absent from the header come out unbound.
    pub fn project(&self, vars: &[Variable]) -> Relation {
        let idx: Vec<Option<usize>> = vars.iter().map(|v| self.index_of(v)).collect();
        let rows = self
            .rows
            .iter()
            .map(|row| idx.iter().map(|i| i.and_then(|i| row[i].clone())).collect())
            .collect();
        Relation {
            vars: vars.to_vec(),
            rows,
        }
    }

    /// Remove duplicate rows (SPARQL `DISTINCT`). Rows are interned and
    /// deduplicated as fixed-width slot tuples — no term is cloned or
    /// string-hashed more than once.
    pub fn dedup(&mut self) {
        let mut dict = Dictionary::new();
        let mut seen: lusail_rdf::fxhash::FxHashSet<Vec<SlotId>> = Default::default();
        self.rows.retain(|row| seen.insert(dict.encode_row(row)));
    }

    /// Hash join with `other` on their shared variables. The result header
    /// is `self.vars ∪ other.vars` (self's order first). Unbound join keys
    /// follow SPARQL compatibility: two rows are compatible if, for every
    /// shared variable, the values are equal *or at least one is unbound*;
    /// the bound value (if any) wins in the output. The smaller side is
    /// hashed; a product keeps `self` outermost.
    pub fn join(&self, other: &Relation) -> Relation {
        self.join_in_parts(other, 1, |ranges, probe| {
            ranges.into_iter().map(probe).collect()
        })
    }

    /// [`Self::join`] with the probe side cut into `parts` contiguous
    /// ranges: `map` runs `probe` over every range (on as many threads as
    /// it likes) and returns the parts in range order, which are
    /// concatenated. The build table is built once and only read, so the
    /// result equals [`Self::join`] row for row.
    pub fn join_in_parts(
        &self,
        other: &Relation,
        parts: usize,
        map: impl FnOnce(Vec<Range<usize>>, &ProbeRange) -> Vec<Vec<Row>>,
    ) -> Relation {
        let (mine, theirs) = self.shared_keys(other);
        let (vars, merge) = self.joined_header(other);
        let build_self = mine.width > 0 && self.len() <= other.len();
        let (build, probe) = if build_self {
            (&mine, &theirs)
        } else {
            (&theirs, &mine)
        };
        let table = HashTable::build(build);
        let probe_range = |range: Range<usize>| {
            let mut rows = Vec::new();
            table.probe(probe, range, Probe::Inner, |p, b| {
                let b = b.expect("an inner probe emits pairs");
                let (a, o) = if build_self { (b, p) } else { (p, b) };
                rows.push(merge.merge_terms(&self.rows[a], Some(&other.rows[o])));
            });
            rows
        };
        let parts = parts.max(1);
        let chunk = probe.len.div_ceil(parts);
        let ranges = (0..parts)
            .map(|p| (p * chunk).min(probe.len)..((p + 1) * chunk).min(probe.len))
            .collect();
        let mut parts = map(ranges, &probe_range).into_iter();
        let mut rows = parts.next().unwrap_or_default();
        for part in parts {
            rows.extend(part);
        }
        Relation { vars, rows }
    }

    /// Left outer join (SPARQL `OPTIONAL` without filter): every row of
    /// `self` appears at least once, in order; matching rows of `other`
    /// extend it.
    pub fn left_join(&self, other: &Relation) -> Relation {
        let (mine, theirs) = self.shared_keys(other);
        let (vars, merge) = self.joined_header(other);
        let mut rows = Vec::new();
        HashTable::build(&theirs).probe(&mine, 0..self.len(), Probe::LeftOuter, |a, b| {
            rows.push(merge.merge_terms(&self.rows[a], b.map(|b| &other.rows[b])));
        });
        Relation { vars, rows }
    }

    /// Hash join on *renamed* keys: rows of `self` and `other` pair up when
    /// `self[a] = other[b]` holds, as SPARQL `=`, for every `(a, b)` in
    /// `pairs` (both bound). Used to evaluate `FILTER(?a = ?b)` bridges
    /// between otherwise disconnected subqueries as a join instead of a
    /// cross product; the keys are interned [`equality_key`]s, so `1`
    /// meets `1.0` and the caller's FILTER still re-checks each pair.
    pub fn equi_join(&self, other: &Relation, pairs: &[(Variable, Variable)]) -> Relation {
        let keys: Vec<(usize, usize)> = pairs
            .iter()
            .filter_map(|(a, b)| Some((self.index_of(a)?, other.index_of(b)?)))
            .collect();
        if keys.is_empty() {
            return self.join(other);
        }
        let mut eq = EqKeys::default();
        let mine = KeyTable::new(self.len(), keys.len(), |r, k| {
            eq.slot(self.rows[r][keys[k].0].as_ref())
        });
        let theirs = KeyTable::new(other.len(), keys.len(), |r, k| {
            eq.slot(other.rows[r][keys[k].1].as_ref())
        });
        let (vars, merge) = self.joined_header(other);
        let mut rows = Vec::new();
        HashTable::build(&theirs).probe(&mine, 0..self.len(), Probe::Inner, |a, b| {
            rows.push(merge.merge_terms(&self.rows[a], b.map(|b| &other.rows[b])));
        });
        Relation { vars, rows }
    }

    /// SPARQL 1.1 `MINUS`: drop a row of `self` when some row of `other`
    /// shares at least one bound variable with it and agrees on every
    /// shared bound variable.
    pub fn minus(&self, other: &Relation) -> Relation {
        let (mine, theirs) = self.shared_keys(other);
        let mut rows = Vec::new();
        HashTable::build(&theirs).probe(&mine, 0..self.len(), Probe::Anti, |a, _| {
            rows.push(self.rows[a].clone());
        });
        Relation {
            vars: self.vars.clone(),
            rows,
        }
    }

    /// The key tables of `self` and `other` on their shared variables (in
    /// `self`'s order), interned into one query-scoped dictionary: each key
    /// term is hashed once here, and build and probe compare `u32`s.
    /// Non-key cells never touch the dictionary.
    fn shared_keys(&self, other: &Relation) -> (KeyTable<SlotId>, KeyTable<SlotId>) {
        let (mine, theirs): (Vec<usize>, Vec<usize>) = (self.vars.iter().enumerate())
            .filter_map(|(i, v)| Some((i, other.index_of(v)?)))
            .unzip();
        let mut dict = KeyInterner::new();
        let mine = encode_keys(&self.rows, &mine, &mut dict);
        (mine, encode_keys(&other.rows, &theirs, &mut dict))
    }

    /// The header of a join with `other` (`self.vars ∪ other.vars`, self's
    /// order first) and the plan that merges a row pair into it.
    fn joined_header(&self, other: &Relation) -> (Vec<Variable>, MergePlan) {
        let mut vars = self.vars.clone();
        vars.extend(
            other
                .vars
                .iter()
                .filter(|v| self.index_of(v).is_none())
                .cloned(),
        );
        let plan = vars.iter().map(|v| (self.index_of(v), other.index_of(v)));
        let plan = plan.collect();
        (vars, MergePlan { plan })
    }

    /// Estimated size in bytes when shipped over the (simulated) network:
    /// the sum of term string lengths plus small per-cell overhead. Used by
    /// the federation layer's bandwidth accounting.
    pub fn wire_size(&self) -> usize {
        8 * self.vars.len() + self.rows.iter().map(|r| row_wire_size(r)).sum::<usize>()
    }
}

/// Precomputed source positions for merging a compatible (left, right)
/// row pair into an output header: for each output variable, where it
/// lives in the left and right headers. The left cell wins when bound,
/// matching SPARQL's solution-merge semantics.
struct MergePlan {
    plan: Vec<(Option<usize>, Option<usize>)>,
}

impl MergePlan {
    /// Merge a left row with a right row, or with none (an unmatched
    /// left-outer row): every term is cloned once, into the output.
    fn merge_terms(&self, a: &Row, b: Option<&Row>) -> Row {
        self.plan
            .iter()
            .map(|&(l, r)| {
                let lv = l.and_then(|i| a[i].clone());
                if lv.is_some() {
                    lv
                } else {
                    r.zip(b).and_then(|(j, b)| b[j].clone())
                }
            })
            .collect()
    }
}

/// Intern one column subset of every row: `keys.row(r)[k]` is the slot of
/// `rows[r][idx[k]]`. Nothing is cloned — the interner borrows terms from
/// the rows.
fn encode_keys<'a>(rows: &'a [Row], idx: &[usize], dict: &mut KeyInterner<'a>) -> KeyTable<SlotId> {
    KeyTable::new(rows.len(), idx.len(), |r, k| {
        dict.encode_slot(rows[r][idx[k]].as_ref())
    })
}

/// A join-key cell. Two cells are compatible when they are equal or
/// either is unbound (SPARQL's rule), unless either is matchless.
pub trait JoinKey: Copy + Eq + Hash {
    /// Compatible with every value.
    fn is_unbound(self) -> bool;
    /// Compatible with nothing, itself included.
    fn is_matchless(self) -> bool {
        false
    }
}

/// The slot of a cell that has no [`equality_key`] in an `=` join
/// (unbound, or NaN): it meets nothing.
const MATCHLESS: SlotId = SlotId::MAX;

/// Slots are interned terms ([`UNBOUND`] is 0) or interned `=` keys
/// (`SlotId::MAX` for a cell without one).
impl JoinKey for SlotId {
    fn is_unbound(self) -> bool {
        self == UNBOUND
    }
    fn is_matchless(self) -> bool {
        self == MATCHLESS
    }
}

/// Interns [`EqKey`]s as slots from 1 up, so an `=` join hashes `u32`s.
#[derive(Default)]
pub struct EqKeys(FxHashMap<EqKey, SlotId>);

impl EqKeys {
    /// The slot of a cell's `=` key; `SlotId::MAX`, which meets nothing,
    /// when it has none.
    pub fn slot(&mut self, cell: Option<&Term>) -> SlotId {
        let Some(key) = cell.and_then(equality_key) else {
            return MATCHLESS;
        };
        let next = self.0.len() as SlotId + 1;
        *self.0.entry(key).or_insert(next)
    }
}

/// The probe of one range of rows, as [`Relation::join_in_parts`] hands it
/// to its `map`: the range's output rows.
pub type ProbeRange<'a> = dyn Fn(Range<usize>) -> Vec<Row> + Sync + 'a;

/// One side's join-key cells, `width` per row, in one allocation.
pub struct KeyTable<K> {
    cells: Vec<K>,
    width: usize,
    len: usize,
}

impl<K: JoinKey> KeyTable<K> {
    /// `len` rows of `width` cells; cell `k` of row `r` is `cell(r, k)`.
    /// A zero-width table keys a product: every row is one bound key.
    pub fn new(len: usize, width: usize, mut cell: impl FnMut(usize, usize) -> K) -> Self {
        let mut cells = Vec::with_capacity(len * width);
        for r in 0..len {
            for k in 0..width {
                cells.push(cell(r, k));
            }
        }
        KeyTable { cells, width, len }
    }

    /// The key cells of row `i`.
    pub fn row(&self, i: usize) -> &[K] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }
}

/// How a key row can match: by hash (every cell bound), only by a
/// compatibility check (some cell unbound), or not at all (some cell
/// matchless).
enum KeyClass {
    Bound,
    Loose,
    Matchless,
}

fn classify<K: JoinKey>(key: &[K]) -> KeyClass {
    let mut class = KeyClass::Bound;
    for &cell in key {
        if cell.is_matchless() {
            return KeyClass::Matchless;
        }
        if cell.is_unbound() {
            class = KeyClass::Loose;
        }
    }
    class
}

/// Whether a probe key and a build key are compatible; for [`Probe::Anti`]
/// (SPARQL `MINUS`) they must also share a bound cell.
fn compatible<K: JoinKey>(p: &[K], b: &[K], anti: bool) -> bool {
    let mut overlap = false;
    for (&x, &y) in p.iter().zip(b) {
        if x.is_matchless() || y.is_matchless() {
            return false;
        }
        if x.is_unbound() || y.is_unbound() {
            continue;
        }
        if x != y {
            return false;
        }
        overlap = true;
    }
    overlap || !anti
}

/// What a probe row emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Each compatible build row.
    Inner,
    /// Each compatible build row, or the probe row alone when none is.
    LeftOuter,
    /// The probe row alone when no build row is compatible with it and
    /// shares a bound cell (SPARQL `MINUS`).
    Anti,
}

const END: usize = usize::MAX;

/// The build side of a hash join: rows whose key cells are all bound
/// chained per key in build order, rows with an unbound cell in a loose
/// list, rows with a matchless cell left out.
pub struct HashTable<'k, K> {
    keys: &'k KeyTable<K>,
    /// Per key: the first and the last row of its chain.
    buckets: FxHashMap<&'k [K], (usize, usize)>,
    next: Vec<usize>,
    loose: Vec<usize>,
}

impl<'k, K: JoinKey> HashTable<'k, K> {
    /// Hash every row of `keys`.
    pub fn build(keys: &'k KeyTable<K>) -> Self {
        let mut buckets: FxHashMap<&[K], (usize, usize)> = FxHashMap::default();
        let mut next = vec![END; keys.len];
        let mut loose = Vec::new();
        for i in 0..keys.len {
            let key = keys.row(i);
            match classify(key) {
                KeyClass::Bound => {
                    let chain = buckets.entry(key).or_insert((i, i));
                    if chain.1 != i {
                        next[chain.1] = i;
                        chain.1 = i;
                    }
                }
                KeyClass::Loose => loose.push(i),
                KeyClass::Matchless => {}
            }
        }
        HashTable {
            keys,
            buckets,
            next,
            loose,
        }
    }

    /// Probe rows `range` of `keys` (the same width, the same interning)
    /// in order. Each one emits `(probe, Some(build))` for every compatible
    /// build row — its key's chain in build order, then the loose rows; or
    /// every build row in build order when the probe row has an unbound
    /// cell — and, as `kind` asks, `(probe, None)`.
    pub fn probe(
        &self,
        keys: &KeyTable<K>,
        range: Range<usize>,
        kind: Probe,
        mut emit: impl FnMut(usize, Option<usize>),
    ) {
        let anti = kind == Probe::Anti;
        for p in range {
            let key = keys.row(p);
            let mut matched = false;
            let mut hit = |b: usize| {
                matched = true;
                if !anti {
                    emit(p, Some(b));
                }
                !anti // an anti probe stops at its first match
            };
            match classify(key) {
                // A product's one chain shares no bound cell with anything.
                KeyClass::Bound if anti && key.is_empty() => {}
                KeyClass::Bound => 'bound: {
                    let mut b = self.buckets.get(key).map_or(END, |chain| chain.0);
                    while b != END {
                        if !hit(b) {
                            break 'bound;
                        }
                        b = self.next[b];
                    }
                    for &b in &self.loose {
                        if compatible(key, self.keys.row(b), anti) && !hit(b) {
                            break;
                        }
                    }
                }
                KeyClass::Loose => {
                    for b in 0..self.keys.len {
                        if compatible(key, self.keys.row(b), anti) && !hit(b) {
                            break;
                        }
                    }
                }
                KeyClass::Matchless => {}
            }
            if !matched && kind != Probe::Inner {
                emit(p, None);
            }
        }
    }
}

/// Wire-size estimate of one row, using the same per-cell model as
/// [`Relation::wire_size`] (which adds a small per-relation header on
/// top). The engine's memory accounting charges admitted results row by
/// row with this.
pub fn row_wire_size(row: &Row) -> usize {
    row.iter()
        .map(|cell| 4 + cell.as_ref().map_or(0, term_wire_size))
        .sum()
}

fn term_wire_size(t: &Term) -> usize {
    match t {
        Term::Iri(s) => s.len() + 2,
        Term::BlankNode(s) => s.len() + 2,
        Term::Literal(l) => {
            l.lexical.len()
                + 2
                + l.datatype.as_ref().map_or(0, |d| d.len() + 4)
                + l.language.as_ref().map_or(0, |g| g.len() + 1)
        }
    }
}

/// SPARQL `ORDER BY` term ordering: unbound < blank < IRI < literal, then
/// numeric or lexical within literals. Not a total order — `"1"` and
/// `"1"@en`, or `1` and `1.0`, tie — so callers sort stably.
pub fn compare_terms(a: Option<&Term>, b: Option<&Term>) -> Ordering {
    fn rank(t: Option<&Term>) -> u8 {
        match t {
            None => 0,
            Some(Term::BlankNode(_)) => 1,
            Some(Term::Iri(_)) => 2,
            Some(Term::Literal(_)) => 3,
        }
    }
    match (a, b) {
        (Some(Term::Literal(la)), Some(Term::Literal(lb))) => {
            if let (Some(na), Some(nb)) = (la.as_f64(), lb.as_f64()) {
                na.partial_cmp(&nb).unwrap_or(Ordering::Equal)
            } else {
                la.lexical.cmp(&lb.lexical)
            }
        }
        (Some(x), Some(y)) if rank(a) == rank(b) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// What SPARQL `=` compares a term by, as a hashable value: two terms
/// are `=`-equal exactly when both have a key and the keys are equal. A
/// literal whose lexical form parses as a number is that number (`-0`
/// folded to `0`; NaN equals nothing, so it has no key), any other literal
/// is its lexical form, and an IRI or blank node is itself. This is
/// `store::expr`'s comparison written as a key, so a hash join on it and a
/// FILTER over the cross product keep the same pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EqKey {
    Number(u64),
    Text(Arc<str>),
    Term(Term),
}

/// The [`EqKey`] of a term; `None` when `=` is never true of it.
pub fn equality_key(t: &Term) -> Option<EqKey> {
    match t {
        Term::Literal(l) => match l.as_f64() {
            Some(n) if n.is_nan() => None,
            Some(n) => Some(EqKey::Number((n + 0.0).to_bits())),
            None => Some(EqKey::Text(l.lexical.clone())),
        },
        other => Some(EqKey::Term(other.clone())),
    }
}

/// Turn the joined rows of `q`'s pattern into `q`'s answer: `COUNT` or
/// grouped aggregation, then [`apply_modifiers`]. Every federated engine
/// ends here; the store, which counts and groups on dictionary ids, joins
/// at [`apply_modifiers`].
pub fn finalize_select(q: &SelectQuery, mut rel: Relation) -> Relation {
    let rel = match &q.projection {
        Projection::Count {
            inner,
            distinct,
            as_var,
        } => {
            let n = match (inner, distinct) {
                (None, false) => rel.len(),
                (None, true) => {
                    rel.dedup();
                    rel.len()
                }
                (Some(v), true) => rel.distinct_values(v).len(),
                (Some(v), false) => rel.index_of(v).map_or(0, |i| {
                    rel.rows.iter().filter(|row| row[i].is_some()).count()
                }),
            };
            Relation::from_rows(
                vec![as_var.clone()],
                vec![vec![Some(Term::integer(n as i64))]],
            )
        }
        Projection::Aggregate { keys, aggs } => aggregate_relation(&rel, &q.group_by, keys, aggs),
        Projection::All | Projection::Vars(_) => rel,
    };
    apply_modifiers(q, rel)
}

/// The solution modifiers of `q`, in SPARQL's order, over rows that are
/// already counted or grouped: `ORDER BY` → projection → `DISTINCT` →
/// `OFFSET` → `LIMIT`. Grouped rows are first put in their default order —
/// [`compare_terms`] over the output row, ties broken by `Term`'s own
/// order so it is total — which makes `GROUP BY … LIMIT n` the same rows
/// whatever produced the groups; `ORDER BY` then sorts stably on top. A
/// query without modifiers passes through untouched: a projection that
/// is the identity is skipped.
pub fn apply_modifiers(q: &SelectQuery, mut rel: Relation) -> Relation {
    let by_cells = |a: &Row, b: &Row, keys: &[(usize, bool)]| {
        keys.iter()
            .map(|&(i, asc)| {
                let ord = compare_terms(a[i].as_ref(), b[i].as_ref());
                if asc {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    if matches!(q.projection, Projection::Aggregate { .. }) {
        let all: Vec<(usize, bool)> = (0..rel.vars.len()).map(|i| (i, true)).collect();
        rel.rows
            .sort_by(|a, b| by_cells(a, b, &all).then_with(|| a.cmp(b)));
    }
    if !q.order_by.is_empty() {
        let keys: Vec<(usize, bool)> = q
            .order_by
            .iter()
            .filter_map(|(v, asc)| Some((rel.index_of(v)?, *asc)))
            .collect();
        rel.rows.sort_by(|a, b| by_cells(a, b, &keys));
    }
    if let Projection::Vars(vs) = &q.projection {
        if *vs != rel.vars {
            rel = rel.project(vs);
        }
    }
    if q.distinct {
        rel.dedup();
    }
    if let Some(offset) = q.offset {
        rel.rows.drain(..offset.min(rel.rows.len()));
    }
    if let Some(limit) = q.limit {
        rel.rows.truncate(limit);
    }
    rel
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    fn iri(n: &str) -> Term {
        Term::iri(format!("http://x/{n}"))
    }

    #[test]
    fn join_on_shared_variable() {
        let mut a = Relation::new(vec![v("x"), v("y")]);
        a.push(vec![Some(iri("1")), Some(iri("a"))]);
        a.push(vec![Some(iri("2")), Some(iri("b"))]);
        let mut b = Relation::new(vec![v("y"), v("z")]);
        b.push(vec![Some(iri("a")), Some(iri("A"))]);
        b.push(vec![Some(iri("a")), Some(iri("B"))]);
        b.push(vec![Some(iri("c")), Some(iri("C"))]);
        let j = a.join(&b);
        assert_eq!(j.vars(), &[v("x"), v("y"), v("z")]);
        assert_eq!(j.len(), 2);
        for row in j.rows() {
            assert_eq!(row[0], Some(iri("1")));
            assert_eq!(row[1], Some(iri("a")));
        }
    }

    #[test]
    fn join_without_shared_is_product() {
        let mut a = Relation::new(vec![v("x")]);
        a.push(vec![Some(iri("1"))]);
        a.push(vec![Some(iri("2"))]);
        let mut b = Relation::new(vec![v("y")]);
        b.push(vec![Some(iri("a"))]);
        let j = a.join(&b);
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn join_with_unbound_is_compatible() {
        // SPARQL compatibility: unbound matches anything.
        let mut a = Relation::new(vec![v("x"), v("y")]);
        a.push(vec![Some(iri("1")), None]);
        let mut b = Relation::new(vec![v("y"), v("z")]);
        b.push(vec![Some(iri("a")), Some(iri("A"))]);
        let j = a.join(&b);
        assert_eq!(j.len(), 1);
        assert_eq!(j.rows()[0][1], Some(iri("a"))); // bound side wins
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let mut a = Relation::new(vec![v("x")]);
        a.push(vec![Some(iri("1"))]);
        a.push(vec![Some(iri("2"))]);
        let mut b = Relation::new(vec![v("x"), v("z")]);
        b.push(vec![Some(iri("1")), Some(iri("Z"))]);
        let lj = a.left_join(&b);
        assert_eq!(lj.len(), 2);
        let unmatched = lj.rows().iter().find(|r| r[0] == Some(iri("2"))).unwrap();
        assert_eq!(unmatched[1], None);
    }

    #[test]
    fn project_and_dedup() {
        let mut r = Relation::new(vec![v("x"), v("y")]);
        r.push(vec![Some(iri("1")), Some(iri("a"))]);
        r.push(vec![Some(iri("1")), Some(iri("b"))]);
        let mut p = r.project(&[v("x")]);
        assert_eq!(p.len(), 2);
        p.dedup();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn project_missing_var_is_unbound() {
        let mut r = Relation::new(vec![v("x")]);
        r.push(vec![Some(iri("1"))]);
        let p = r.project(&[v("x"), v("nope")]);
        assert_eq!(p.rows()[0][1], None);
    }

    #[test]
    fn union_aligns_headers() {
        let mut a = Relation::new(vec![v("x"), v("y")]);
        a.push(vec![Some(iri("1")), Some(iri("a"))]);
        let mut b = Relation::new(vec![v("z"), v("x")]);
        b.push(vec![Some(iri("Z")), Some(iri("2"))]);
        let u = a.clone().union(b);
        assert_eq!(u.vars(), &[v("x"), v("y"), v("z")]);
        assert_eq!(
            u.rows(),
            &[
                vec![Some(iri("1")), Some(iri("a")), None],
                vec![Some(iri("2")), None, Some(iri("Z"))],
            ]
        );
        // The empty default relation is the identity on both sides.
        assert_eq!(Relation::default().union(a.clone()), a);
        assert_eq!(a.clone().union(a.clone()).len(), 2);
    }

    #[test]
    fn term_order_is_kind_then_numeric_then_lexical() {
        let ordered = [
            None,
            Some(Term::bnode("b")),
            Some(iri("a")),
            Some(Term::integer(9)),
            Some(Term::integer(10)),
            Some(Term::integer(100)),
            Some(Term::literal("abc")),
        ];
        for (i, a) in ordered.iter().enumerate() {
            for (j, b) in ordered.iter().enumerate() {
                assert_eq!(
                    compare_terms(a.as_ref(), b.as_ref()),
                    i.cmp(&j),
                    "{a:?} {b:?}"
                );
            }
        }
    }

    fn select(projection: Projection) -> SelectQuery {
        SelectQuery::new(projection, crate::ast::GraphPattern::empty())
    }

    #[test]
    fn modifiers_apply_in_sparql_order() {
        let mut rel = Relation::new(vec![v("x"), v("y")]);
        for (x, y) in [(3, 1), (1, 4), (2, 3), (1, 2)] {
            rel.push(vec![Some(Term::integer(x)), Some(Term::integer(y))]);
        }
        // ORDER BY a variable the projection drops, then DISTINCT, then the
        // slice: y-descending is x = 1, 2, 1, 3 → distinct 1, 2, 3 → [2].
        let mut q = select(Projection::Vars(vec![v("x")]));
        q.distinct = true;
        q.order_by = vec![(v("y"), false)];
        q.offset = Some(1);
        q.limit = Some(1);
        let out = finalize_select(&q, rel.clone());
        assert_eq!(out.vars(), &[v("x")]);
        assert_eq!(out.rows(), &[vec![Some(Term::integer(2))]]);
        // No modifiers: the rows pass through as they are.
        let all = finalize_select(&select(Projection::All), rel.clone());
        assert_eq!(all, rel);
        // An OFFSET past the end and LIMIT 0 both leave nothing.
        q.offset = Some(9);
        assert!(finalize_select(&q, rel.clone()).is_empty());
        let mut count = select(Projection::Count {
            inner: Some(v("x")),
            distinct: true,
            as_var: v("n"),
        });
        assert_eq!(
            finalize_select(&count, rel.clone()).rows(),
            &[vec![Some(Term::integer(3))]]
        );
        count.limit = Some(0);
        assert!(finalize_select(&count, rel).is_empty());
    }

    #[test]
    fn groups_have_a_default_order_and_order_by_sorts_on_top() {
        use crate::ast::{AggFunc, AggSpec};
        let mut rel = Relation::new(vec![v("age")]);
        for age in [100, 9, 25, 9, 10, 10] {
            rel.push(vec![Some(Term::integer(age))]);
        }
        let mut q = select(Projection::Aggregate {
            keys: vec![v("age")],
            aggs: vec![AggSpec {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
                as_var: v("n"),
            }],
        });
        q.group_by = vec![v("age")];
        let ages = |q: &SelectQuery| -> Vec<Option<Term>> {
            let out = finalize_select(q, rel.clone());
            out.rows().iter().map(|r| r[0].clone()).collect()
        };
        let int = |n| Some(Term::integer(n));
        assert_eq!(ages(&q), [int(9), int(10), int(25), int(100)]);
        q.limit = Some(2);
        assert_eq!(ages(&q), [int(9), int(10)]);
        q.offset = Some(1);
        assert_eq!(ages(&q), [int(10), int(25)]);
        // Ties on the ORDER BY key keep the default order: 9 before 10.
        q.offset = None;
        q.order_by = vec![(v("n"), false)];
        assert_eq!(ages(&q), [int(9), int(10)]);
        q.order_by = vec![(v("age"), false)];
        q.limit = None;
        assert_eq!(ages(&q), [int(100), int(25), int(10), int(9)]);
    }

    #[test]
    fn distinct_values() {
        let mut r = Relation::new(vec![v("x")]);
        r.push(vec![Some(iri("1"))]);
        r.push(vec![Some(iri("1"))]);
        r.push(vec![None]);
        r.push(vec![Some(iri("2"))]);
        assert_eq!(r.distinct_values(&v("x")).len(), 2);
    }

    #[test]
    fn wire_size_grows_with_rows() {
        let mut r = Relation::new(vec![v("x")]);
        let s0 = r.wire_size();
        r.push(vec![Some(iri("aaaa"))]);
        assert!(r.wire_size() > s0);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(vec![v("x")]);
        r.push(vec![None, None]);
    }
}
