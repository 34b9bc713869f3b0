//! Global join evaluation (Section 4.2, "Join Evaluation").
//!
//! Subquery results are relations with known true cardinalities. A dynamic
//! programming enumerator (in the style of Moerkotte & Neumann, as the
//! paper cites) picks the join order; each pairwise join is a hash join
//! whose probe side is partitioned across the ERH threads.
//!
//! Under a [`MemoryBudget`], [`budgeted_join`] guards every pairwise
//! join: when the in-memory hash join's working set would not fit the
//! remaining budget, the join spills both sides to sorted temp-file runs
//! and merge-joins them back (a std-only external sort-merge join), so a
//! federation-sized intermediate degrades to disk instead of aborting —
//! only the *output* still has to fit the budget.

use crate::budget::{BudgetExhausted, MemoryBudget, MemoryPhase};
use crate::run::ADMISSION_CHUNK_ROWS;
use lusail_federation::RequestHandler;
use lusail_rdf::dict::{KeyInterner, SlotId, UNBOUND};
use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::{Literal, Term};
use lusail_sparql::ast::Variable;
use lusail_sparql::solution::{encode_keys, row_wire_size, MergePlan, Relation, Row};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Compute a join order for `relations` via DP over connected subsets.
///
/// Returns the sequence of relation indices in join order. Cross products
/// are avoided while any connected join exists; disconnected components
/// are concatenated afterwards (their product is taken last, which is also
/// what the paper's planner does for disjoint subgraphs joined by a filter
/// variable).
pub fn dp_join_order(relations: &[&Relation]) -> Vec<usize> {
    let n = relations.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![0];
    }
    if n > 16 {
        // DP table would explode; fall back to greedy smallest-first.
        return greedy_order(relations);
    }

    let connected = |a: usize, b: usize| -> bool {
        relations[a]
            .vars()
            .iter()
            .any(|v| relations[b].index_of(v).is_some())
    };

    // DP over bitmasks: state → (cost, estimated size, order).
    #[derive(Clone)]
    struct State {
        cost: f64,
        size: f64,
        order: Vec<usize>,
    }
    let full: usize = (1 << n) - 1;
    let mut table: FxHashMap<usize, State> = FxHashMap::default();
    for (i, rel) in relations.iter().enumerate() {
        table.insert(
            1 << i,
            State {
                cost: 0.0,
                size: rel.len() as f64,
                order: vec![i],
            },
        );
    }

    // Grow plans one relation at a time (left-deep is sufficient here: the
    // number of subqueries per branch is small and all joins are hash
    // joins).
    for mask in 1..=full {
        let Some(state) = table.get(&mask).cloned() else {
            continue;
        };
        #[allow(clippy::needless_range_loop)] // r is a bitmask position, not just an index
        for r in 0..n {
            if mask & (1 << r) != 0 {
                continue;
            }
            // Prefer connected extensions; allow cross products only when
            // nothing in the mask connects to anything outside.
            let any_connected = (0..n).any(|x| {
                mask & (1 << x) != 0 && (0..n).any(|y| mask & (1 << y) == 0 && connected(x, y))
            });
            let this_connected = (0..n).any(|x| mask & (1 << x) != 0 && connected(x, r));
            if any_connected && !this_connected {
                continue;
            }
            let r_size = relations[r].len() as f64;
            // Paper: JoinCost(S, R) = hash the smaller + probe the other.
            let join_cost = state.size.min(r_size) + state.size.max(r_size);
            let new_cost = state.cost + join_cost;
            // Connected-join size estimate: the paper's min rule — the
            // bindings of the join variable are bounded by the smaller
            // side (C(sq, v, ep) = min(...)). Cross products multiply.
            let new_size = if this_connected {
                state.size.min(r_size)
            } else {
                state.size * r_size
            };
            let next_mask = mask | (1 << r);
            let better = match table.get(&next_mask) {
                Some(existing) => new_cost < existing.cost,
                None => true,
            };
            if better {
                let mut order = state.order.clone();
                order.push(r);
                table.insert(
                    next_mask,
                    State {
                        cost: new_cost,
                        size: new_size,
                        order,
                    },
                );
            }
        }
    }
    table
        .remove(&full)
        .map(|s| s.order)
        .unwrap_or_else(|| greedy_order(relations))
}

fn greedy_order(relations: &[&Relation]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..relations.len()).collect();
    order.sort_by_key(|&i| relations[i].len());
    order
}

/// Hash join `a ⋈ b` with the probe side split across the handler's
/// threads (the paper's step (ii): threads holding the larger relation
/// probe a hash table built from the smaller one).
///
/// Both join keys are interned once into a shared query-scoped
/// [`KeyInterner`] and every row's join-key hash is computed exactly once
/// — over its fixed-width [`SlotId`]s, not its strings. The build table is
/// shared read-only by all threads; each thread probes a *contiguous*
/// range of the larger side, so probe rows and output merges stay
/// sequential in memory instead of scattering through hash partitions.
/// Terms materialize again only in the output rows.
pub fn parallel_join(a: &Relation, b: &Relation, handler: &RequestHandler) -> Relation {
    let shared: Vec<Variable> = a
        .vars()
        .iter()
        .filter(|v| b.index_of(v).is_some())
        .cloned()
        .collect();
    // Below ~16k rows on the smaller side the sequential interned join
    // wins: thread fan-out and the shared-table indirection cost more
    // than they parallelize away (measured in the micro_joins bench).
    const MIN_ROWS: usize = 16 * 1024;
    if shared.is_empty() || a.len().min(b.len()) < MIN_ROWS || handler.threads() < 2 {
        // Products and small inputs aren't worth the fan-out overhead.
        return a.join(b);
    }
    chunked_probe_join(a, b, &shared, handler)
}

/// The partitioned-probe body of [`parallel_join`], without its size
/// gate: `shared` must be the non-empty shared-variable list.
fn chunked_probe_join(
    a: &Relation,
    b: &Relation,
    shared: &[Variable],
    handler: &RequestHandler,
) -> Relation {
    let parts = handler.threads();
    let a_idx: Vec<usize> = shared.iter().map(|v| a.index_of(v).unwrap()).collect();
    let b_idx: Vec<usize> = shared.iter().map(|v| b.index_of(v).unwrap()).collect();

    // Intern only the join-key columns once; each key string is hashed a
    // single time here, everything after works on u32 slots. Non-key cells
    // never touch the interner — output merges straight from the original
    // term rows.
    let mut dict = KeyInterner::new();
    let a_keys = encode_keys(a.rows(), &a_idx, &mut dict);
    let b_keys = encode_keys(b.rows(), &b_idx, &mut dict);
    if a_keys
        .iter()
        .chain(b_keys.iter())
        .any(|k| k.contains(&UNBOUND))
    {
        // Unbound join keys (possible after OPTIONAL): correctness first.
        return a.join(b);
    }

    let slot_hash = |key: &[SlotId]| -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = lusail_rdf::fxhash::FxHasher::default();
        for &s in key {
            s.hash(&mut h);
        }
        h.finish()
    };

    let build_from_a = a.len() <= b.len();
    let (build_keys, probe_keys) = if build_from_a {
        (&a_keys, &b_keys)
    } else {
        (&b_keys, &a_keys)
    };
    let probe_len = if build_from_a { b.len() } else { a.len() };

    // Build once from the smaller side, keyed by the slot hash; slot
    // equality resolves the (rare) collisions at probe time.
    let mut table: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for (i, key) in build_keys.iter().enumerate() {
        table.entry(slot_hash(key)).or_default().push(i);
    }

    let mut out_vars = a.vars().to_vec();
    for v in b.vars() {
        if !out_vars.contains(v) {
            out_vars.push(v.clone());
        }
    }
    let merge = MergePlan::new(a, b, &out_vars);

    let chunk = probe_len.div_ceil(parts);
    let ranges: Vec<std::ops::Range<usize>> = (0..parts)
        .map(|p| (p * chunk).min(probe_len)..((p + 1) * chunk).min(probe_len))
        .collect();
    let parts_out: Vec<Vec<Row>> = handler.map(ranges, |range| {
        let mut rows = Vec::new();
        for pi in range {
            let pkey = probe_keys.row(pi);
            let Some(candidates) = table.get(&slot_hash(pkey)) else {
                continue;
            };
            // Both key tables follow `shared`'s order, so collision
            // checking is a direct slot comparison.
            for &bi in candidates {
                if build_keys.row(bi) == pkey {
                    let (ai, bj) = if build_from_a { (bi, pi) } else { (pi, bi) };
                    rows.push(merge.merge_terms(&a.rows()[ai], &b.rows()[bj]));
                }
            }
        }
        rows
    });
    let mut out = Relation::new(out_vars);
    for part in parts_out {
        out.rows_mut().extend(part);
    }
    out
}

/// The result of a [`budgeted_join`]: the relation, whether partial mode
/// truncated it at budget exhaustion, and the bytes charged against the
/// budget for it (the caller releases this when the relation is consumed
/// by the next join in the chain).
#[derive(Debug)]
pub struct JoinOutcome {
    pub relation: Relation,
    pub truncated: bool,
    pub charged: usize,
}

/// Join `a ⋈ b` under a memory budget.
///
/// Strategy:
/// * unbounded budget → the usual [`parallel_join`], output accounted;
/// * bounded, and twice the smaller side (hash table + matches, the
///   paper's JoinCost shape) still fits → in-memory join, output charged
///   chunk-wise against the budget;
/// * bounded and too big → external sort-merge join: both sides spill to
///   sorted temp-file runs sized to a fraction of the remaining budget,
///   then merge. Joins on unbound keys (possible after OPTIONAL) or with
///   no shared variable (cross products) never spill — SPARQL
///   compatibility semantics need the in-memory scan.
///
/// When the *output* itself cannot fit, `truncate_on_exhaustion` decides
/// between truncating (partial mode: `truncated` comes back `true`) and
/// failing with the exhausted charge (fail-fast).
pub fn budgeted_join(
    a: &Relation,
    b: &Relation,
    handler: &RequestHandler,
    budget: &MemoryBudget,
    truncate_on_exhaustion: bool,
) -> Result<JoinOutcome, BudgetExhausted> {
    if !budget.is_bounded() {
        let relation = parallel_join(a, b, handler);
        let charged = relation.wire_size();
        let _ = budget.try_charge(MemoryPhase::Join, charged);
        return Ok(JoinOutcome {
            relation,
            truncated: false,
            charged,
        });
    }
    let shared: Vec<Variable> = a
        .vars()
        .iter()
        .filter(|v| b.index_of(v).is_some())
        .cloned()
        .collect();
    let build_estimate = a.wire_size().min(b.wire_size());
    let spillable =
        !shared.is_empty() && !has_loose_rows(a, &shared) && !has_loose_rows(b, &shared);
    if spillable && !budget.would_fit(build_estimate.saturating_mul(2)) {
        match spill_join(a, b, &shared, budget, truncate_on_exhaustion) {
            Ok(outcome) => return Ok(outcome),
            Err(SpillError::Budget(e)) => return Err(e),
            // Disk trouble (tmpfs full, permissions): fall back to the
            // in-memory join — correctness over the budget guarantee.
            Err(SpillError::Io(_)) => {}
        }
    }
    let relation = parallel_join(a, b, handler);
    charge_output(relation, budget, truncate_on_exhaustion)
}

/// Whether any row leaves a shared join variable unbound (OPTIONAL can do
/// this); such rows need the compatibility scan of [`Relation::join`].
fn has_loose_rows(rel: &Relation, shared: &[Variable]) -> bool {
    let idx: Vec<usize> = shared.iter().map(|v| rel.index_of(v).unwrap()).collect();
    rel.rows()
        .iter()
        .any(|row| idx.iter().any(|&i| row[i].is_none()))
}

/// Charge a finished join output against the budget in admission-sized
/// chunks, truncating or failing at exhaustion.
pub(crate) fn charge_output(
    mut relation: Relation,
    budget: &MemoryBudget,
    truncate_on_exhaustion: bool,
) -> Result<JoinOutcome, BudgetExhausted> {
    let mut charged = 0;
    let mut admitted = 0;
    let mut pending = 8 * relation.vars().len();
    while admitted < relation.len() {
        let end = (admitted + ADMISSION_CHUNK_ROWS).min(relation.len());
        pending += relation.rows()[admitted..end]
            .iter()
            .map(|r| row_wire_size(r))
            .sum::<usize>();
        match budget.try_charge(MemoryPhase::Join, pending) {
            Ok(()) => {
                charged += pending;
                pending = 0;
                admitted = end;
            }
            Err(e) => {
                if truncate_on_exhaustion {
                    relation.rows_mut().truncate(admitted);
                    return Ok(JoinOutcome {
                        relation,
                        truncated: true,
                        charged,
                    });
                }
                budget.release(charged);
                return Err(e);
            }
        }
    }
    if pending > 0 {
        if let Err(e) = budget.try_charge(MemoryPhase::Join, pending) {
            if !truncate_on_exhaustion {
                budget.release(charged);
                return Err(e);
            }
        } else {
            charged += pending;
        }
    }
    Ok(JoinOutcome {
        relation,
        truncated: false,
        charged,
    })
}

enum SpillError {
    Budget(BudgetExhausted),
    // The error payload exists for Debug output when a spill ever has to
    // be diagnosed; the engine itself only matches on the variant.
    Io(#[allow(dead_code)] io::Error),
}

impl From<io::Error> for SpillError {
    fn from(e: io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// Monotonic counter so concurrent spills never collide on a file name.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A temp file holding one sorted run; deleted on drop.
struct RunFile {
    path: PathBuf,
}

impl Drop for RunFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn spill_path() -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lusail-spill-{}-{seq}.run", std::process::id()))
}

/// External sort-merge join of `a ⋈ b` on `shared` (all key cells bound).
fn spill_join(
    a: &Relation,
    b: &Relation,
    shared: &[Variable],
    budget: &MemoryBudget,
    truncate_on_exhaustion: bool,
) -> Result<JoinOutcome, SpillError> {
    let a_key: Vec<usize> = shared.iter().map(|v| a.index_of(v).unwrap()).collect();
    let b_key: Vec<usize> = shared.iter().map(|v| b.index_of(v).unwrap()).collect();

    // Runs sized to a quarter of the remaining budget (two sides sorting
    // plus merge windows), floored so tiny budgets still make progress.
    let run_bytes = (budget.remaining() / 4).max(64 * 1024);
    let a_runs = write_sorted_runs(a, &a_key, run_bytes, budget)?;
    let b_runs = write_sorted_runs(b, &b_key, run_bytes, budget)?;
    let mut a_src = SortedSource::open(&a_runs, a.vars().len(), a_key.clone())?;
    let mut b_src = SortedSource::open(&b_runs, b.vars().len(), b_key.clone())?;

    // Output header and per-variable source mapping, exactly as
    // `Relation::join` builds it: self's vars first, left cell wins.
    let mut out_vars = a.vars().to_vec();
    for v in b.vars() {
        if !out_vars.contains(v) {
            out_vars.push(v.clone());
        }
    }
    let cell_sources: Vec<(Option<usize>, Option<usize>)> = out_vars
        .iter()
        .map(|v| (a.index_of(v), b.index_of(v)))
        .collect();

    let mut out = Relation::new(out_vars);
    let mut charged = 0;
    let mut pending = 8 * out.vars().len();
    let mut pending_rows = 0;
    let mut truncated = false;

    'merge: while let (Some((ha, ra)), Some((hb, rb))) = (a_src.peek(), b_src.peek()) {
        // Streams are (hash, key, row)-ordered; equal keys hash equal, so
        // comparing the stored hash first skips most full key comparisons.
        match ha
            .cmp(hb)
            .then_with(|| compare_keys(ra, &a_key, rb, &b_key))
        {
            std::cmp::Ordering::Less => {
                a_src.next()?;
            }
            std::cmp::Ordering::Greater => {
                b_src.next()?;
            }
            std::cmp::Ordering::Equal => {
                // Gather both key groups (a single key's group is assumed
                // to fit in memory), emit the cross of merged rows.
                let group_a = a_src.take_group(&a_key)?;
                let group_b = b_src.take_group(&b_key)?;
                for ra in &group_a {
                    for rb in &group_b {
                        let row: Row = cell_sources
                            .iter()
                            .map(|&(ai, bi)| {
                                ai.and_then(|i| ra[i].clone())
                                    .or_else(|| bi.and_then(|i| rb[i].clone()))
                            })
                            .collect();
                        pending += row_wire_size(&row);
                        out.push(row);
                        pending_rows += 1;
                        if pending_rows >= ADMISSION_CHUNK_ROWS {
                            match budget.try_charge(MemoryPhase::Join, pending) {
                                Ok(()) => {
                                    charged += pending;
                                    pending = 0;
                                    pending_rows = 0;
                                }
                                Err(e) => {
                                    if !truncate_on_exhaustion {
                                        budget.release(charged);
                                        return Err(SpillError::Budget(e));
                                    }
                                    let keep = out.len() - pending_rows;
                                    out.rows_mut().truncate(keep);
                                    truncated = true;
                                    break 'merge;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    if !truncated && pending > 0 {
        match budget.try_charge(MemoryPhase::Join, pending) {
            Ok(()) => charged += pending,
            Err(e) => {
                if !truncate_on_exhaustion {
                    budget.release(charged);
                    return Err(SpillError::Budget(e));
                }
                let keep = out.len() - pending_rows;
                out.rows_mut().truncate(keep);
                truncated = true;
            }
        }
    }
    Ok(JoinOutcome {
        relation: out,
        truncated,
        charged,
    })
}

/// Compare two rows by their join-key cells (all bound on the spill path).
fn compare_keys(ra: &Row, a_key: &[usize], rb: &Row, b_key: &[usize]) -> std::cmp::Ordering {
    for (&ia, &ib) in a_key.iter().zip(b_key) {
        match ra[ia].cmp(&rb[ib]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// Hash a row's join-key cells once; the spill path stores the result in
/// the run file so sorting, merging, and grouping all reuse it instead of
/// re-hashing or re-comparing full key strings.
fn key_hash(row: &Row, key: &[usize]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = lusail_rdf::fxhash::FxHasher::default();
    for &i in key {
        row[i].hash(&mut h);
    }
    h.finish()
}

/// Sort `rel` into runs of roughly `run_bytes` serialized bytes each, each
/// run sorted by (key hash, key cells, whole row) and written to its own
/// temp file with the precomputed hash as an 8-byte row prefix.
fn write_sorted_runs(
    rel: &Relation,
    key: &[usize],
    run_bytes: usize,
    budget: &MemoryBudget,
) -> io::Result<Vec<RunFile>> {
    let mut runs = Vec::new();
    let mut chunk: Vec<(u64, &Row)> = Vec::new();
    let mut chunk_bytes = 0;
    let flush = |chunk: &mut Vec<(u64, &Row)>, runs: &mut Vec<RunFile>| -> io::Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        chunk.sort_by(|(ha, ra), (hb, rb)| {
            ha.cmp(hb)
                .then_with(|| compare_keys(ra, key, rb, key))
                .then_with(|| ra.cmp(rb))
        });
        let run = RunFile { path: spill_path() };
        let mut w = BufWriter::new(File::create(&run.path)?);
        let mut written = 0u64;
        for (hash, row) in chunk.iter() {
            w.write_all(&hash.to_le_bytes())?;
            written += 8 + encode_row(&mut w, row)?;
        }
        w.flush()?;
        budget.record_spill(written);
        runs.push(run);
        chunk.clear();
        Ok(())
    };
    for row in rel.rows() {
        chunk.push((key_hash(row, key), row));
        chunk_bytes += row_wire_size(row);
        if chunk_bytes >= run_bytes {
            flush(&mut chunk, &mut runs)?;
            chunk_bytes = 0;
        }
    }
    flush(&mut chunk, &mut runs)?;
    Ok(runs)
}

/// One open run with its next decoded (key hash, row) entry.
struct RunCursor {
    reader: BufReader<File>,
    arity: usize,
    next: Option<(u64, Row)>,
}

/// Merges several sorted runs back into one (hash, key, row)-ordered
/// stream. The hash stored with each row decides most comparisons; key
/// cells break the (rare) hash-collision ties so ordering stays total.
struct SortedSource {
    cursors: Vec<RunCursor>,
    key: Vec<usize>,
}

impl SortedSource {
    fn open(runs: &[RunFile], arity: usize, key: Vec<usize>) -> io::Result<Self> {
        let mut cursors = Vec::with_capacity(runs.len());
        for run in runs {
            let mut cursor = RunCursor {
                reader: BufReader::new(File::open(&run.path)?),
                arity,
                next: None,
            };
            cursor.next = decode_entry(&mut cursor.reader, cursor.arity)?;
            cursors.push(cursor);
        }
        Ok(SortedSource { cursors, key })
    }

    /// Index of the cursor holding the globally smallest next row.
    fn min_cursor(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, c) in self.cursors.iter().enumerate() {
            let Some((hash, row)) = &c.next else { continue };
            let better = match best {
                None => true,
                Some(j) => {
                    let (other_hash, other) = self.cursors[j].next.as_ref().unwrap();
                    hash.cmp(other_hash)
                        .then_with(|| compare_keys(row, &self.key, other, &self.key))
                        .then_with(|| row.cmp(other))
                        .is_lt()
                }
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    fn peek(&self) -> Option<&(u64, Row)> {
        self.min_cursor()
            .and_then(|i| self.cursors[i].next.as_ref())
    }

    fn next(&mut self) -> io::Result<Option<(u64, Row)>> {
        let Some(i) = self.min_cursor() else {
            return Ok(None);
        };
        let cursor = &mut self.cursors[i];
        let entry = cursor.next.take();
        cursor.next = decode_entry(&mut cursor.reader, cursor.arity)?;
        Ok(entry)
    }

    /// Pop every row whose key equals the current minimum's key.
    fn take_group(&mut self, key: &[usize]) -> io::Result<Vec<Row>> {
        let mut group = Vec::new();
        let Some((first_hash, first)) = self.next()? else {
            return Ok(group);
        };
        while let Some((hash, row)) = self.peek() {
            if *hash != first_hash || compare_keys(row, key, &first, key).is_ne() {
                break;
            }
            let (_, row) = self.next()?.expect("peeked row must pop");
            group.push(row);
        }
        group.insert(0, first);
        Ok(group)
    }
}

// ---- spill row codec ----
//
// Fixed arity per run, so rows need no framing: each cell is a tag byte
// (0 unbound, 1 IRI, 2 blank node, 3 literal) followed by
// length-prefixed UTF-8 strings; literals carry a presence byte for the
// optional datatype and language tag.

fn write_str(w: &mut impl Write, s: &str) -> io::Result<u64> {
    let len = s.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(s.as_bytes())?;
    Ok(4 + s.len() as u64)
}

fn encode_row(w: &mut impl Write, row: &Row) -> io::Result<u64> {
    let mut written = 0u64;
    for cell in row {
        written += 1;
        match cell {
            None => w.write_all(&[0])?,
            Some(Term::Iri(s)) => {
                w.write_all(&[1])?;
                written += write_str(w, s)?;
            }
            Some(Term::BlankNode(s)) => {
                w.write_all(&[2])?;
                written += write_str(w, s)?;
            }
            Some(Term::Literal(l)) => {
                w.write_all(&[3])?;
                let presence =
                    u8::from(l.datatype.is_some()) | (u8::from(l.language.is_some()) << 1);
                w.write_all(&[presence])?;
                written += 1 + write_str(w, &l.lexical)?;
                if let Some(d) = &l.datatype {
                    written += write_str(w, d)?;
                }
                if let Some(g) = &l.language {
                    written += write_str(w, g)?;
                }
            }
        }
    }
    Ok(written)
}

fn read_str(r: &mut impl Read) -> io::Result<Arc<str>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
    r.read_exact(&mut buf)?;
    std::str::from_utf8(&buf)
        .map(Arc::from)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Decode one (key hash, row) run entry; `Ok(None)` on a clean
/// end-of-run boundary.
fn decode_entry(r: &mut impl Read, arity: usize) -> io::Result<Option<(u64, Row)>> {
    let mut hash = [0u8; 8];
    match r.read_exact(&mut hash) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let row = decode_row(r, arity)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "run entry truncated after hash")
    })?;
    Ok(Some((u64::from_le_bytes(hash), row)))
}

/// Decode one row; `Ok(None)` on a clean end-of-run boundary.
fn decode_row(r: &mut impl Read, arity: usize) -> io::Result<Option<Row>> {
    let mut row = Vec::with_capacity(arity);
    for i in 0..arity {
        let mut tag = [0u8; 1];
        match r.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && i == 0 => return Ok(None),
            Err(e) => return Err(e),
        }
        row.push(match tag[0] {
            0 => None,
            1 => Some(Term::Iri(read_str(r)?)),
            2 => Some(Term::BlankNode(read_str(r)?)),
            3 => {
                let mut presence = [0u8; 1];
                r.read_exact(&mut presence)?;
                let lexical = read_str(r)?;
                let datatype = (presence[0] & 1 != 0).then(|| read_str(r)).transpose()?;
                let language = (presence[0] & 2 != 0).then(|| read_str(r)).transpose()?;
                Some(Term::Literal(Literal {
                    lexical,
                    datatype,
                    language,
                }))
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad spill tag {other}"),
                ))
            }
        });
    }
    Ok(Some(row))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    fn rel(vars: &[&str], rows: usize, offset: usize) -> Relation {
        let mut r = Relation::new(vars.iter().map(|n| v(n)).collect());
        for i in 0..rows {
            r.push(
                vars.iter()
                    .map(|_| Some(Term::iri(format!("http://x/{}", i + offset))))
                    .collect(),
            );
        }
        r
    }

    #[test]
    fn order_prefers_connected_joins() {
        // r0(x,y) ⋈ r1(y,z) ⋈ r2(z,w): chain; never start with (r0, r2).
        let r0 = rel(&["x", "y"], 100, 0);
        let r1 = rel(&["y", "z"], 10, 0);
        let r2 = rel(&["z", "w"], 50, 0);
        let order = dp_join_order(&[&r0, &r1, &r2]);
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        // r1 is smallest and connects both; it must come before whichever
        // of r0/r2 joins later via it. Key invariant: consecutive prefix
        // sets stay connected.
        assert_eq!(order.len(), 3);
        let starts_with_cross = (pos(0) == 0 && pos(2) == 1) || (pos(2) == 0 && pos(0) == 1);
        assert!(!starts_with_cross);
    }

    #[test]
    fn order_handles_disconnected_components() {
        let r0 = rel(&["x"], 5, 0);
        let r1 = rel(&["y"], 5, 0);
        let order = dp_join_order(&[&r0, &r1]);
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn order_empty_and_single() {
        assert!(dp_join_order(&[]).is_empty());
        assert_eq!(dp_join_order(&[&rel(&["x"], 3, 0)]), vec![0]);
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let handler = RequestHandler::new(4);
        // Big enough to trigger the partitioned path.
        let a = rel(&["x", "y"], 2000, 0);
        let b = rel(&["y", "z"], 2000, 1000); // overlap on rows 1000..2000
        let seq = a.join(&b);
        // Call the partitioned body directly: the public entry would route
        // inputs this small to the sequential join.
        let shared = vec![Variable::new("y")];
        let mut par = chunked_probe_join(&a, &b, &shared, &handler);
        assert_eq!(seq.len(), 1000);
        assert_eq!(par.len(), seq.len());
        assert_eq!(par.vars(), seq.vars());
        // Same multiset of rows.
        let mut seq_rows = seq.rows().to_vec();
        seq_rows.sort();
        par.rows_mut().sort();
        assert_eq!(par.rows(), &seq_rows[..]);
    }

    #[test]
    fn parallel_join_small_inputs_fall_back() {
        let handler = RequestHandler::new(4);
        let a = rel(&["x"], 3, 0);
        let b = rel(&["x"], 3, 1);
        let j = parallel_join(&a, &b, &handler);
        assert_eq!(j.len(), 2);
    }

    fn sorted_rows(r: &Relation) -> Vec<Row> {
        let mut rows = r.rows().to_vec();
        rows.sort();
        rows
    }

    #[test]
    fn spill_codec_roundtrips_every_term_kind() {
        let row: Row = vec![
            None,
            Some(Term::iri("http://x/a")),
            Some(Term::bnode("b0")),
            Some(Term::literal("plain")),
            Some(Term::Literal(Literal {
                lexical: "42".into(),
                datatype: Some("http://www.w3.org/2001/XMLSchema#integer".into()),
                language: None,
            })),
            Some(Term::Literal(Literal {
                lexical: "bonjour".into(),
                datatype: None,
                language: Some("fr".into()),
            })),
            // The one place the federator rebuilds a term from bytes:
            // multi-byte and empty strings survive it too.
            Some(Term::literal("naïve \"日本\"\n")),
            Some(Term::literal("")),
        ];
        let mut buf = Vec::new();
        encode_row(&mut buf, &row).unwrap();
        let mut r = io::Cursor::new(buf);
        let decoded = decode_row(&mut r, row.len()).unwrap().unwrap();
        assert_eq!(decoded, row);
        // Clean end-of-run.
        assert!(decode_row(&mut r, row.len()).unwrap().is_none());
    }

    #[test]
    fn spilling_join_is_byte_identical_to_in_memory() {
        let handler = RequestHandler::new(4);
        let a = rel(&["x", "y"], 5000, 0);
        let b = rel(&["y", "z"], 5000, 2500); // overlap on rows 2500..5000
        let expected = a.join(&b);

        // ~200 KiB per side: a 256 KiB budget cannot hold 2x the build
        // side, so the join must spill — and the 2500-row output fits.
        let budget = MemoryBudget::new(Some(256 * 1024));
        let out = budgeted_join(&a, &b, &handler, &budget, false).unwrap();
        assert!(!out.truncated);
        assert_eq!(out.relation.vars(), expected.vars());
        assert_eq!(sorted_rows(&out.relation), sorted_rows(&expected));
        let stats = budget.stats();
        assert!(stats.spill_count > 0, "the join should have spilled");
        assert!(stats.spill_bytes > 0);
        assert_eq!(out.charged, budget.used());
        assert!(
            stats.peak_bytes <= 256 * 1024,
            "accounting must stay under the budget"
        );
    }

    #[test]
    fn budgeted_join_with_unbounded_budget_matches_parallel_join() {
        let handler = RequestHandler::new(4);
        let a = rel(&["x", "y"], 200, 0);
        let b = rel(&["y", "z"], 200, 100);
        let budget = MemoryBudget::unbounded();
        let out = budgeted_join(&a, &b, &handler, &budget, false).unwrap();
        assert_eq!(sorted_rows(&out.relation), sorted_rows(&a.join(&b)));
        assert_eq!(budget.stats().spill_count, 0);
    }

    #[test]
    fn oversized_output_errors_or_truncates_per_mode() {
        let handler = RequestHandler::new(4);
        let a = rel(&["x", "y"], 5000, 0);
        let b = rel(&["y", "z"], 5000, 0); // full overlap: output ≈ input
        let tight = MemoryBudget::new(Some(8 * 1024));
        let err = budgeted_join(&a, &b, &handler, &tight, false).unwrap_err();
        assert_eq!(err.limit, 8 * 1024);

        let tight = MemoryBudget::new(Some(8 * 1024));
        let out = budgeted_join(&a, &b, &handler, &tight, true).unwrap();
        assert!(out.truncated);
        assert!(out.relation.len() < 5000);
        // Truncated rows are a prefix of real join rows, not fabrications.
        let expected = sorted_rows(&a.join(&b));
        for row in out.relation.rows() {
            assert!(expected.binary_search(row).is_ok());
        }
    }

    #[test]
    fn loose_rows_never_spill_and_stay_correct() {
        let handler = RequestHandler::new(4);
        // One row with the shared var unbound: compatibility semantics.
        let mut a = rel(&["x", "y"], 2000, 0);
        a.push(vec![Some(Term::iri("http://x/loose")), None]);
        let b = rel(&["y", "z"], 2000, 1000);
        let budget = MemoryBudget::new(Some(16 * 1024));
        // Too tight for the output: partial mode truncates but the join
        // still goes through the in-memory compatibility path.
        let out = budgeted_join(&a, &b, &handler, &budget, true).unwrap();
        assert_eq!(budget.stats().spill_count, 0, "loose rows must not spill");
        let expected = sorted_rows(&a.join(&b));
        for row in out.relation.rows() {
            assert!(expected.binary_search(row).is_ok());
        }
    }
}
