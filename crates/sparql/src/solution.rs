//! Solution sequences: the tabular results exchanged between endpoints and
//! the federated query processor.
//!
//! The multiset operators (`join`, `equi_join`, `minus`, `dedup`,
//! `distinct_values`) run on *interned* rows: each operator builds a
//! query-scoped [`Dictionary`], encodes the rows it touches once into
//! fixed-width [`SlotId`]s, and then hashes and compares plain `u32`s
//! instead of term strings. Terms are materialized again only when the
//! operator emits its output rows.

use crate::aggregate::aggregate_relation;
use crate::ast::{Projection, SelectQuery, Variable};
use lusail_rdf::dict::{Dictionary, KeyInterner, SlotId, UNBOUND};
use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::Term;
use std::cmp::Ordering;

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
    /// the bound value (if any) wins in the output.
    pub fn join(&self, other: &Relation) -> Relation {
        let shared: Vec<Variable> = self
            .vars
            .iter()
            .filter(|v| other.index_of(v).is_some())
            .cloned()
            .collect();
        let mut out_vars = self.vars.clone();
        for v in &other.vars {
            if !out_vars.contains(v) {
                out_vars.push(v.clone());
            }
        }
        let mut out = Relation::new(out_vars);

        if shared.is_empty() {
            // Cartesian product.
            for a in &self.rows {
                for b in &other.rows {
                    out.rows
                        .push(Self::merge_rows(self, other, a, b, &out.vars));
                }
            }
            return out;
        }

        // Intern only the join-key cells into one query-scoped dictionary:
        // each key string is hashed exactly once (at interning), and all
        // build/probe equality from here on is `u32` equality. Non-key
        // cells never touch the dictionary — output rows merge straight
        // from the original term rows.
        let self_shared_idx: Vec<usize> =
            shared.iter().map(|v| self.index_of(v).unwrap()).collect();
        let other_shared_idx: Vec<usize> =
            shared.iter().map(|v| other.index_of(v).unwrap()).collect();
        let mut dict = KeyInterner::new();
        let self_keys = encode_keys(&self.rows, &self_shared_idx, &mut dict);
        let other_keys = encode_keys(&other.rows, &other_shared_idx, &mut dict);
        let merge = MergePlan::new(self, other, &out.vars);

        let (small_rel, big_rel, small_keys, big_keys, small_is_self) =
            if self.rows.len() <= other.rows.len() {
                (self, other, &self_keys, &other_keys, true)
            } else {
                (other, self, &other_keys, &self_keys, false)
            };

        // Rows where every shared var is bound go into a hash table; rows
        // with unbound shared vars (possible after OPTIONAL) fall back to a
        // scan. The scan list is usually empty.
        let mut table: FxHashMap<&[SlotId], Vec<usize>> = FxHashMap::default();
        let mut loose: Vec<usize> = Vec::new();
        for (i, key) in small_keys.iter().enumerate() {
            if key.contains(&UNBOUND) {
                loose.push(i);
            } else {
                table.entry(key).or_default().push(i);
            }
        }

        // SPARQL compatibility on interned key cells: equal slots, or at
        // least one unbound. (Both key vectors follow `shared`'s order.)
        let compatible = |skey: &[SlotId], bkey: &[SlotId]| {
            skey.iter()
                .zip(bkey)
                .all(|(&s, &b)| s == b || s == UNBOUND || b == UNBOUND)
        };
        let emit = |si: usize, bi: usize, out: &mut Relation| {
            let (a, b) = if small_is_self {
                (&small_rel.rows[si], &big_rel.rows[bi])
            } else {
                (&big_rel.rows[bi], &small_rel.rows[si])
            };
            out.rows.push(merge.merge_terms(a, b));
        };

        for (bi, bkey) in big_keys.iter().enumerate() {
            let bound = !bkey.contains(&UNBOUND);
            if bound {
                if let Some(matches) = table.get(bkey) {
                    for &si in matches {
                        emit(si, bi, &mut out);
                    }
                }
            }
            // Loose rows (unbound shared vars) are compatibility-checked
            // directly.
            for &si in &loose {
                if compatible(small_keys.row(si), bkey) {
                    emit(si, bi, &mut out);
                }
            }
            // Symmetric case: the big row has an unbound shared var — check
            // against all hashed rows too.
            if !bound {
                for rows in table.values() {
                    for &si in rows {
                        if compatible(small_keys.row(si), bkey) {
                            emit(si, bi, &mut out);
                        }
                    }
                }
            }
        }
        out
    }

    fn merge_rows(
        left: &Relation,
        right: &Relation,
        a: &Row,
        b: &Row,
        out_vars: &[Variable],
    ) -> Row {
        // Term-level twin of [`MergePlan::merge`], for paths that never
        // intern (cartesian products, left_join).
        out_vars
            .iter()
            .map(|v| {
                let from_left = left.index_of(v).and_then(|i| a[i].clone());
                if from_left.is_some() {
                    from_left
                } else {
                    right.index_of(v).and_then(|i| b[i].clone())
                }
            })
            .collect()
    }

    /// Left outer join (SPARQL `OPTIONAL` without filter): every row of
    /// `self` appears at least once; matching rows of `other` extend it.
    pub fn left_join(&self, other: &Relation) -> Relation {
        let inner = self.join(other);
        let mut out_vars = self.vars.clone();
        for v in &other.vars {
            if !out_vars.contains(v) {
                out_vars.push(v.clone());
            }
        }
        // Identify which self-rows found a partner by re-deriving the match
        // predicate: a self-row survives if joining it alone yields rows.
        // Cheaper: count matches per left row index by joining with a tag.
        // We instead do the standard approach: build the join keyed by left
        // row identity.
        let shared: Vec<Variable> = self
            .vars
            .iter()
            .filter(|v| other.index_of(v).is_some())
            .cloned()
            .collect();
        let mut out = Relation::new(out_vars.clone());
        if shared.is_empty() && !other.rows.is_empty() {
            return inner; // pure product: every left row matched
        }
        let other_idx: Vec<usize> = shared.iter().map(|v| other.index_of(v).unwrap()).collect();
        let self_idx: Vec<usize> = shared.iter().map(|v| self.index_of(v).unwrap()).collect();
        let mut table: FxHashMap<Vec<&Term>, Vec<&Row>> = FxHashMap::default();
        let mut loose: Vec<&Row> = Vec::new();
        for row in &other.rows {
            let key: Option<Vec<&Term>> = other_idx.iter().map(|&i| row[i].as_ref()).collect();
            match key {
                Some(k) => table.entry(k).or_default().push(row),
                None => loose.push(row),
            }
        }
        for arow in &self.rows {
            let mut matched = false;
            let key: Option<Vec<&Term>> = self_idx.iter().map(|&i| arow[i].as_ref()).collect();
            let try_row = |brow: &Row, out: &mut Relation, matched: &mut bool| {
                let compatible = self_idx.iter().zip(other_idx.iter()).all(|(&si, &bi)| {
                    match (&arow[si], &brow[bi]) {
                        (Some(a), Some(b)) => a == b,
                        _ => true,
                    }
                });
                if compatible {
                    out.rows
                        .push(Self::merge_rows(self, other, arow, brow, &out_vars));
                    *matched = true;
                }
            };
            match &key {
                Some(k) => {
                    if let Some(rows) = table.get(k) {
                        for brow in rows {
                            try_row(brow, &mut out, &mut matched);
                        }
                    }
                }
                None => {
                    for rows in table.values() {
                        for brow in rows {
                            try_row(brow, &mut out, &mut matched);
                        }
                    }
                }
            }
            for brow in &loose {
                try_row(brow, &mut out, &mut matched);
            }
            if !matched {
                let row = out_vars
                    .iter()
                    .map(|v| self.index_of(v).and_then(|i| arow[i].clone()))
                    .collect();
                out.rows.push(row);
            }
        }
        out
    }

    /// Hash join on *renamed* keys: rows of `self` and `other` pair up when
    /// `self[a] == other[b]` for every `(a, b)` in `pairs` (both bound).
    /// Used to evaluate `FILTER(?a = ?b)` bridges between otherwise
    /// disconnected subqueries as a join instead of a cross product.
    pub fn equi_join(&self, other: &Relation, pairs: &[(Variable, Variable)]) -> Relation {
        let keys: Vec<(usize, usize)> = pairs
            .iter()
            .filter_map(|(a, b)| Some((self.index_of(a)?, other.index_of(b)?)))
            .collect();
        if keys.is_empty() {
            return self.join(other);
        }
        let mut out_vars = self.vars.clone();
        for v in &other.vars {
            if !out_vars.contains(v) {
                out_vars.push(v.clone());
            }
        }
        let mut out = Relation::new(out_vars);
        // Interned build/probe on the bridge-key columns only, as in
        // `join`: bridge keys must be bound on both sides, so there is no
        // loose-row fallback here.
        let self_idx: Vec<usize> = keys.iter().map(|&(i, _)| i).collect();
        let other_idx: Vec<usize> = keys.iter().map(|&(_, j)| j).collect();
        let mut dict = KeyInterner::new();
        let self_keys = encode_keys(&self.rows, &self_idx, &mut dict);
        let other_keys = encode_keys(&other.rows, &other_idx, &mut dict);
        let merge = MergePlan::new(self, other, &out.vars);
        let mut table: FxHashMap<&[SlotId], Vec<usize>> = FxHashMap::default();
        for (i, key) in other_keys.iter().enumerate() {
            if !key.contains(&UNBOUND) {
                table.entry(key).or_default().push(i);
            }
        }
        for (ai, key) in self_keys.iter().enumerate() {
            if key.contains(&UNBOUND) {
                continue;
            }
            if let Some(matches) = table.get(key) {
                for &bi in matches {
                    out.rows
                        .push(merge.merge_terms(&self.rows[ai], &other.rows[bi]));
                }
            }
        }
        out
    }

    /// SPARQL 1.1 `MINUS`: drop a row of `self` when some row of `other`
    /// shares at least one bound variable with it and agrees on every
    /// shared bound variable.
    pub fn minus(&self, other: &Relation) -> Relation {
        let shared: Vec<(usize, usize)> = self
            .vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| other.index_of(v).map(|j| (i, j)))
            .collect();
        if shared.is_empty() {
            return self.clone();
        }
        // Intern only the shared columns once; the pairwise agreement scan
        // then compares fixed-width slots instead of terms.
        let self_idx: Vec<usize> = shared.iter().map(|&(i, _)| i).collect();
        let other_idx: Vec<usize> = shared.iter().map(|&(_, j)| j).collect();
        let mut dict = KeyInterner::new();
        let self_keys = encode_keys(&self.rows, &self_idx, &mut dict);
        let other_keys = encode_keys(&other.rows, &other_idx, &mut dict);
        let rows = self
            .rows
            .iter()
            .zip(self_keys.iter())
            .filter(|(_, lkey)| {
                !other_keys.iter().any(|rkey| {
                    let mut overlap = false;
                    for (&a, &b) in lkey.iter().zip(rkey.iter()) {
                        match (a, b) {
                            (UNBOUND, _) | (_, UNBOUND) => {}
                            (a, b) if a == b => overlap = true,
                            _ => return false,
                        }
                    }
                    overlap
                })
            })
            .map(|(row, _)| row.clone())
            .collect();
        Relation {
            vars: self.vars.clone(),
            rows,
        }
    }

    /// Estimated size in bytes when shipped over the (simulated) network:
    /// the sum of term string lengths plus small per-cell overhead. Used by
    /// the federation layer's bandwidth accounting.
    pub fn wire_size(&self) -> usize {
        8 * self.vars.len() + self.rows.iter().map(|r| row_wire_size(r)).sum::<usize>()
    }
}

/// Precomputed source positions for merging a compatible (left, right)
/// slot-row pair into an output header: for each output variable, where
/// it lives in the left and right headers. The left cell wins when
/// bound, matching SPARQL's solution-merge semantics. Shared with the
/// budgeted/parallel join in `core::sape`, which runs the same interned
/// representation.
pub struct MergePlan {
    plan: Vec<(Option<usize>, Option<usize>)>,
}

impl MergePlan {
    /// A plan for merging rows of `left` and `right` into `out_vars`.
    pub fn new(left: &Relation, right: &Relation, out_vars: &[Variable]) -> MergePlan {
        MergePlan {
            plan: out_vars
                .iter()
                .map(|v| (left.index_of(v), right.index_of(v)))
                .collect(),
        }
    }

    /// Merge one pair of term rows (left cell wins when bound). Joins that
    /// intern only their key columns use this to emit output straight from
    /// the original rows, so non-key terms are cloned exactly once.
    pub fn merge_terms(&self, a: &Row, b: &Row) -> Row {
        self.plan
            .iter()
            .map(|&(l, r)| {
                let lv = l.and_then(|i| a[i].clone());
                if lv.is_some() {
                    lv
                } else {
                    r.and_then(|j| b[j].clone())
                }
            })
            .collect()
    }
}

/// A fixed-stride table of interned key rows: row `i`'s key slots are
/// `table.row(i)`. One contiguous allocation regardless of row count — the
/// per-row `Vec` a naive encoding would allocate is measurable join
/// overhead at federation scale.
pub struct KeyTable {
    slots: Vec<SlotId>,
    width: usize,
}

impl KeyTable {
    /// The interned key of row `i`.
    pub fn row(&self, i: usize) -> &[SlotId] {
        &self.slots[i * self.width..(i + 1) * self.width]
    }

    /// Iterate key rows in row order.
    pub fn iter(&self) -> impl Iterator<Item = &[SlotId]> {
        self.slots.chunks_exact(self.width)
    }
}

/// Intern one column subset of every row: `keys.row(r)[k]` is the slot of
/// `rows[r][idx[k]]`. Each distinct term is string-hashed once at
/// interning; all subsequent build/probe equality is `u32` equality.
/// Nothing is cloned — the interner borrows terms from the rows — and
/// non-key cells never touch it. `idx` must be non-empty.
pub fn encode_keys<'a>(rows: &'a [Row], idx: &[usize], dict: &mut KeyInterner<'a>) -> KeyTable {
    assert!(!idx.is_empty(), "key-only interning needs key columns");
    let mut slots = Vec::with_capacity(rows.len() * idx.len());
    for row in rows {
        for &i in idx {
            slots.push(dict.encode_slot(row[i].as_ref()));
        }
    }
    KeyTable {
        slots,
        width: idx.len(),
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
