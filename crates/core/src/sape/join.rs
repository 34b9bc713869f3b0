//! Global join evaluation (Section 4.2, "Join Evaluation").
//!
//! Subquery results are relations in hand, so the join is planned on what
//! they hold, not on what was estimated before they were fetched:
//! [`plan_joins`] counts the distinct values of every join column and
//! enumerates join trees by dynamic programming over connected subsets
//! (in the style of Moerkotte & Neumann, as the paper cites), bushy ones
//! included — two branches that each shrink before they meet are a plan no
//! left-deep order can express. The estimate is `|A|·|B| / max(d_A(v),
//! d_B(v))`; the paper's min rule, which bounds the bindings of a join
//! variable *before* execution, is what this reduces to when every value
//! is distinct. [`join_all_bridged`] executes the tree; each pairwise join
//! is a hash join whose probe side is partitioned across the ERH threads.
//!
//! Under a [`MemoryBudget`], [`budgeted_join`] guards every pairwise
//! join: when the in-memory hash join's working set would not fit the
//! remaining budget, the join spills both sides to sorted temp-file runs
//! and merge-joins them back (a std-only external sort-merge join), so a
//! federation-sized intermediate degrades to disk instead of aborting —
//! only the *output* still has to fit the budget.

use crate::budget::{BudgetExhausted, MemoryBudget, MemoryPhase, RowCharge};
use crate::config::ResultPolicy;
use crate::error::EngineError;
use crate::run::{ExecutionWarning, RunContext};
use lusail_federation::RequestHandler;
use lusail_rdf::{Literal, Term};
use lusail_sparql::ast::Variable;
use lusail_sparql::solution::{row_wire_size, Relation, Row};
use std::borrow::Cow;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One step of a [`JoinTree`], which is written in reverse Polish order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStep {
    /// Push input `i`.
    Input(usize),
    /// Pop the right and the left operand, push their join, which the
    /// planner expects to have `estimated` rows.
    Join { estimated: usize },
}

/// A join plan over a slice of inputs: every input exactly once, bushy
/// where that is cheaper. Empty for no inputs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JoinTree {
    steps: Vec<JoinStep>,
}

impl JoinTree {
    /// The plan in reverse Polish order.
    pub fn steps(&self) -> &[JoinStep] {
        &self.steps
    }

    /// Evaluate the tree bottom-up: `leaf(i)` for input `i`, `join(left,
    /// right, estimated)` for each join node. `None` for the empty tree.
    pub fn try_fold<T, E>(
        &self,
        mut leaf: impl FnMut(usize) -> T,
        mut join: impl FnMut(T, T, usize) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        let mut stack = Vec::new();
        for step in &self.steps {
            let node = match *step {
                JoinStep::Input(i) => leaf(i),
                JoinStep::Join { estimated } => {
                    let right = stack.pop().expect("a join step follows its two operands");
                    let left = stack.pop().expect("a join step follows its two operands");
                    join(left, right, estimated)?
                }
            };
            stack.push(node);
        }
        debug_assert!(stack.len() <= 1, "a plan is one tree");
        Ok(stack.pop())
    }
}

/// `((0 ⋈ 2) ⋈ 1)`: the shape, for tests and diagnostics.
impl std::fmt::Display for JoinTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape = self.try_fold(
            |i| i.to_string(),
            |l, r, _| Ok::<_, std::fmt::Error>(format!("({l} ⋈ {r})")),
        )?;
        f.write_str(&shape.unwrap_or_default())
    }
}

/// What the planner knows about an input or an intermediate: its rows and,
/// per join attribute, how many distinct values it holds (`INFINITY` for
/// an attribute it does not have).
#[derive(Debug, Clone)]
struct NodeStats {
    rows: f64,
    distinct: Vec<f64>,
}

impl NodeStats {
    /// Estimated rows of `self ⋈ other`: `|A|·|B| / max(d_A(v), d_B(v))`
    /// for the shared attribute `v` with the most values on either side
    /// (every value of the narrower side is assumed to occur on the wider
    /// one). `None` when they share no attribute.
    fn joined_rows(&self, other: &NodeStats) -> Option<f64> {
        (self.distinct.iter().zip(&other.distinct))
            .filter(|(a, b)| a.is_finite() && b.is_finite())
            .map(|(a, b)| a.max(*b))
            .reduce(f64::max)
            .map(|widest| self.rows * other.rows / widest.max(1.0))
    }

    /// The statistics of `self ⋈ other` at `rows` rows: an attribute keeps
    /// the fewer values of its two sides, and no more than there are rows.
    fn merged(&self, other: &NodeStats, rows: f64) -> NodeStats {
        let distinct = (self.distinct.iter().zip(&other.distinct))
            .map(|(a, b)| match a.min(*b) {
                d if d.is_finite() => d.min(rows),
                absent => absent,
            })
            .collect();
        NodeStats { rows, distinct }
    }
}

/// Up to this many connected inputs the planner enumerates bushy trees
/// (3ⁿ splits: 0.2 ms at 10 inputs, 1.8 ms at 12); above, left-deep ones
/// (n·2ⁿ: 0.4 ms at 12, 6.7 ms at 16) up to [`DP_MAX`]; above that it
/// extends greedily along join edges.
const BUSHY_MAX: usize = 10;
const DP_MAX: usize = 16;

/// Plan the join of `rels` on the rows they actually hold.
///
/// Join attributes are the variables two or more inputs share, a
/// `FILTER(?a = ?b)` bridge making one attribute of its two variables.
/// Each input's distinct count per attribute is exact (counted only where
/// three or more inputs connect: two join one way, and every value then
/// counts as distinct). Cost is build + probe + output rows summed over
/// the join nodes; inputs are only joined along an attribute while one
/// connects them, and what stays unconnected is multiplied last, smallest
/// first. Ties keep the first plan enumerated, so the same inputs always
/// give the same tree.
pub fn plan_joins(rels: &[&Relation], bridges: &[(Variable, Variable)]) -> JoinTree {
    let n = rels.len();
    let mut steps = Vec::with_capacity(2 * n);
    if n < 2 {
        steps.extend((0..n).map(JoinStep::Input));
        return JoinTree { steps };
    }
    let (mut stats, columns) = join_attributes(rels, bridges);

    // Connected components of the join graph, each by its lowest input.
    let mut assigned = vec![false; n];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for seed in 0..n {
        if assigned[seed] {
            continue;
        }
        assigned[seed] = true;
        let mut members = vec![seed];
        let mut next = 0;
        while let Some(&i) = members.get(next) {
            next += 1;
            for j in 0..n {
                if !assigned[j] && stats[i].joined_rows(&stats[j]).is_some() {
                    assigned[j] = true;
                    members.push(j);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    // Two inputs join one way, so only where there is an order to choose
    // are the distinct values counted; elsewhere every value counts as
    // distinct.
    let mut table = Vec::new();
    for &i in components.iter().filter(|c| c.len() > 2).flatten() {
        for &(attribute, col) in &columns[i] {
            stats[i].distinct[attribute] = count_distinct(rels[i], col, &mut table) as f64;
        }
    }

    let mut planned: Vec<(NodeStats, Vec<JoinStep>)> = components
        .iter()
        .map(|members| {
            let mut steps = Vec::with_capacity(2 * members.len());
            let root = match members.len() {
                1 => {
                    steps.push(JoinStep::Input(members[0]));
                    stats[members[0]].clone()
                }
                m if m <= DP_MAX => plan_connected(members, &stats, m <= BUSHY_MAX, &mut steps),
                _ => plan_greedy(members, &stats, &mut steps),
            };
            (root, steps)
        })
        .collect();
    // Stable: equal estimates keep the order of their lowest inputs.
    planned.sort_by(|(a, _), (b, _)| a.rows.total_cmp(&b.rows));
    let mut rows: Option<f64> = None;
    for (root, component_steps) in planned {
        steps.extend(component_steps);
        if let Some(acc) = rows {
            steps.push(JoinStep::Join {
                estimated: as_rows(acc * root.rows),
            });
        }
        rows = Some(rows.map_or(root.rows, |acc| acc * root.rows));
    }
    JoinTree { steps }
}

fn as_rows(estimate: f64) -> usize {
    // `as` saturates, and a NaN (no rows on either side) reads 0.
    estimate.round() as usize
}

/// The `(attribute, column)` pairs of one input.
type AttributeColumns = Vec<(usize, usize)>;

/// The join attributes of `rels`: per input its statistics, every value of
/// an attribute counting as distinct, and the `(attribute, column)` pairs
/// it holds.
///
/// An attribute is a variable two or more inputs have; a bridge makes one
/// attribute of its two variables.
fn join_attributes(
    rels: &[&Relation],
    bridges: &[(Variable, Variable)],
) -> (Vec<NodeStats>, Vec<AttributeColumns>) {
    // Variables in first-occurrence order; `class[k]` is the lowest
    // variable that variable `k` is bridged to, or `k` itself.
    let mut vars: Vec<&Variable> = Vec::new();
    for v in rels.iter().flat_map(|rel| rel.vars()) {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    let position = |v: &Variable| vars.iter().position(|x| *x == v);
    let mut class: Vec<usize> = (0..vars.len()).collect();
    for (a, b) in bridges {
        if let (Some(a), Some(b)) = (position(a), position(b)) {
            let (keep, drop) = (class[a].min(class[b]), class[a].max(class[b]));
            for c in &mut class {
                if *c == drop {
                    *c = keep;
                }
            }
        }
    }
    // Per input, the first column of each class it has.
    let mut columns: Vec<AttributeColumns> = rels
        .iter()
        .map(|rel| {
            let mut columns = AttributeColumns::new();
            for (col, v) in rel.vars().iter().enumerate() {
                let c = class[position(v).expect("every header variable was collected")];
                if !columns.iter().any(|&(seen, _)| seen == c) {
                    columns.push((c, col));
                }
            }
            columns
        })
        .collect();
    // Classes two or more inputs have are the attributes, numbered densely.
    let holders = |c: usize| {
        let has = |cols: &&AttributeColumns| cols.iter().any(|&(x, _)| x == c);
        columns.iter().filter(has).count()
    };
    let mut attributes = 0;
    let dense: Vec<Option<usize>> = (0..vars.len())
        .map(|c| {
            (holders(c) >= 2).then(|| {
                attributes += 1;
                attributes - 1
            })
        })
        .collect();
    for cols in &mut columns {
        *cols = (cols.iter())
            .filter_map(|&(c, col)| Some((dense[c]?, col)))
            .collect();
    }
    let stats = (rels.iter().zip(&columns))
        .map(|(rel, cols)| {
            let rows = rel.len() as f64;
            let mut distinct = vec![f64::INFINITY; attributes];
            for &(attribute, _) in cols {
                distinct[attribute] = rows;
            }
            NodeStats { rows, distinct }
        })
        .collect();
    (stats, columns)
}

/// How many distinct bound terms `rel` holds in column `col`: exact, up to
/// two terms sharing a 64-bit hash. `table` is scratch space.
///
/// This pass is what planning costs — it reads every join cell once — so
/// it hashes each term and nothing else: an open-addressed table of the
/// hashes, no interning, no term comparison.
fn count_distinct(rel: &Relation, col: usize, table: &mut Vec<u64>) -> usize {
    use std::hash::{Hash, Hasher};
    let slots = (2 * rel.len()).next_power_of_two().max(8);
    table.clear();
    table.resize(slots, 0);
    // Fx's strong bits are its high ones.
    let shift = 64 - slots.trailing_zeros();
    let mut distinct = 0;
    for term in rel.rows().iter().filter_map(|row| row[col].as_ref()) {
        let mut hasher = lusail_rdf::fxhash::FxHasher::default();
        term.hash(&mut hasher);
        let hash = hasher.finish().max(1); // 0 marks a free slot
        let mut at = (hash >> shift) as usize;
        while table[at] != hash {
            if table[at] == 0 {
                table[at] = hash;
                distinct += 1;
                break;
            }
            at = (at + 1) & (slots - 1);
        }
    }
    distinct
}

/// The cheapest join tree over the connected inputs `members` (at most
/// [`DP_MAX`]), by dynamic programming over their connected subsets:
/// every split of a subset into two connected halves when `bushy`, else
/// only the splits that peel one input off. Appends the tree to `steps`
/// and returns its root's statistics.
fn plan_connected(
    members: &[usize],
    stats: &[NodeStats],
    bushy: bool,
    steps: &mut Vec<JoinStep>,
) -> NodeStats {
    struct Best {
        cost: f64,
        stats: NodeStats,
        /// The two halves, as subsets; `None` for a single input.
        split: Option<(usize, usize)>,
    }
    let m = members.len();
    let full = (1usize << m) - 1;
    let mut table: Vec<Option<Best>> = Vec::with_capacity(full + 1);
    table.push(None);
    for set in 1..=full {
        if set.is_power_of_two() {
            table.push(Some(Best {
                cost: 0.0,
                stats: stats[members[set.trailing_zeros() as usize]].clone(),
                split: None,
            }));
            continue;
        }
        let mut best: Option<Best> = None;
        let mut consider = |left: usize, right: usize| {
            let (Some(a), Some(b)) = (&table[left], &table[right]) else {
                return; // a half that is not connected has no plan
            };
            let Some(rows) = a.stats.joined_rows(&b.stats) else {
                return;
            };
            let cost = a.cost + b.cost + a.stats.rows + b.stats.rows + rows;
            if best.as_ref().is_none_or(|best| cost < best.cost) {
                best = Some(Best {
                    cost,
                    stats: a.stats.merged(&b.stats, rows),
                    split: Some((left, right)),
                });
            }
        };
        if bushy {
            // Every split once: the left half keeps the subset's lowest
            // input.
            let lowest = set & set.wrapping_neg();
            let rest = set ^ lowest;
            let mut sub = rest;
            loop {
                sub = sub.wrapping_sub(1) & rest;
                consider(lowest | sub, rest ^ sub);
                if sub == 0 {
                    break;
                }
            }
        } else {
            let mut bits = set;
            while bits != 0 {
                let one = bits & bits.wrapping_neg();
                bits ^= one;
                consider(set ^ one, one);
            }
        }
        table.push(best);
    }

    fn emit(set: usize, table: &[Option<Best>], members: &[usize], steps: &mut Vec<JoinStep>) {
        let best = table[set].as_ref().expect("connected inputs have a plan");
        match best.split {
            None => steps.push(JoinStep::Input(members[set.trailing_zeros() as usize])),
            Some((left, right)) => {
                emit(left, table, members, steps);
                emit(right, table, members, steps);
                steps.push(JoinStep::Join {
                    estimated: as_rows(best.stats.rows),
                });
            }
        }
    }
    emit(full, &table, members, steps);
    table[full].take().expect("just emitted").stats
}

/// A left-deep tree over the connected inputs `members`, too many to
/// enumerate: start from the smallest and extend along a join edge to the
/// input with the smallest estimated result, so two small inputs that do
/// not join never meet in a product.
fn plan_greedy(members: &[usize], stats: &[NodeStats], steps: &mut Vec<JoinStep>) -> NodeStats {
    let mut rest: Vec<usize> = members.to_vec();
    let first = (0..rest.len())
        .min_by(|&a, &b| stats[rest[a]].rows.total_cmp(&stats[rest[b]].rows))
        .expect("a component has members");
    let mut acc = stats[rest.remove(first)].clone();
    steps.push(JoinStep::Input(members[first]));
    while !rest.is_empty() {
        let (pos, rows) = rest
            .iter()
            .enumerate()
            .filter_map(|(pos, &i)| Some((pos, acc.joined_rows(&stats[i])?)))
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .expect("a connected component always has a next edge");
        let next = rest.remove(pos);
        steps.push(JoinStep::Input(next));
        steps.push(JoinStep::Join {
            estimated: as_rows(rows),
        });
        acc = acc.merged(&stats[next], rows);
    }
    acc
}

/// What [`join_all_bridged`] did, for the profile.
#[derive(Debug, Clone, Default)]
pub struct JoinReport {
    /// `(estimated, actual)` rows of every join node, in execution order.
    pub steps: Vec<(usize, usize)>,
    /// `(left, right)` rows that went into each of those nodes.
    pub inputs: Vec<(usize, usize)>,
    /// Time spent planning (statistics and enumeration).
    pub planning: Duration,
    /// Time spent executing the plan.
    pub joining: Duration,
}

/// The result of [`join_all_bridged`]: the joined relation — borrowed when
/// there was a single input — the bytes still charged for it, and what the
/// join did.
pub(crate) struct Joined<'a> {
    pub relation: Cow<'a, Relation>,
    pub charged: usize,
    pub report: JoinReport,
}

/// Join a set of relations along the tree [`plan_joins`] picks; when two
/// operands share no variable but a `FILTER(?a = ?b)` bridge connects
/// them, hash join on the bridge keys instead of taking the product. The
/// header is the variables in first-occurrence order over `rels`, whatever
/// the tree.
///
/// Every pairwise join runs through [`budgeted_join`]: under a bounded
/// memory budget, a join whose working set would not fit spills to an
/// external sort-merge, and a join whose *output* cannot fit either
/// aborts ([`ResultPolicy::FailFast`]) or truncates with a warning
/// ([`ResultPolicy::Partial`]). A join node releases the charges of its
/// two operands once its own output is charged, so only live
/// intermediates stay accounted: the result comes with the bytes still
/// charged for it, the caller's to release when it drops the relation
/// before the query ends.
pub(crate) fn join_all_bridged<'a>(
    rels: &[&'a Relation],
    bridges: &[(Variable, Variable)],
    handler: &RequestHandler,
    ctx: &RunContext,
) -> Result<Joined<'a>, EngineError> {
    const WHAT: &str = "global join";
    let mut report = JoinReport::default();
    let start = Instant::now();
    let tree = plan_joins(rels, bridges);
    report.planning = start.elapsed();
    let truncate = ctx.policy == ResultPolicy::Partial;

    let root = tree.try_fold(
        |i| (Cow::Borrowed(rels[i]), 0usize),
        |(left, left_charged), (right, right_charged), estimated| {
            let shares_var = left.vars().iter().any(|v| right.index_of(v).is_some());
            // Disconnected: look for bridges in either orientation.
            let bridging = bridges.iter().filter_map(|(a, b)| {
                if left.index_of(a).is_some() && right.index_of(b).is_some() {
                    Some((a.clone(), b.clone()))
                } else if left.index_of(b).is_some() && right.index_of(a).is_some() {
                    Some((b.clone(), a.clone()))
                } else {
                    None
                }
            });
            let pairs: Vec<(Variable, Variable)> = match shares_var {
                true => Vec::new(),
                false => bridging.collect(),
            };
            let outcome = if pairs.is_empty() {
                budgeted_join(&left, &right, handler, &ctx.memory, truncate)
            } else {
                charge_output(left.equi_join(&right, &pairs), &ctx.memory, truncate)
            };
            let outcome = outcome.map_err(|_| ctx.budget_error(WHAT, ""))?;
            if outcome.truncated {
                ctx.warn(ExecutionWarning {
                    endpoint: "federator".into(),
                    subquery: WHAT.into(),
                    message: format!(
                        "memory budget exhausted: join output truncated to {} rows",
                        outcome.relation.len()
                    ),
                });
            }
            ctx.memory.release(left_charged + right_charged);
            report.steps.push((estimated, outcome.relation.len()));
            report.inputs.push((left.len(), right.len()));
            Ok::<_, EngineError>((Cow::Owned(outcome.relation), outcome.charged))
        },
    )?;
    // The unit relation for no inputs: no vars, one empty row.
    let (relation, charged) = root.unwrap_or_else(|| {
        (
            Cow::Owned(Relation::from_rows(Vec::new(), vec![Vec::new()])),
            0,
        )
    });

    let mut header: Vec<Variable> = Vec::with_capacity(relation.vars().len());
    for v in rels.iter().flat_map(|rel| rel.vars()) {
        if !header.contains(v) {
            header.push(v.clone());
        }
    }
    let relation = if relation.vars() == header {
        relation
    } else {
        Cow::Owned(reordered(relation.into_owned(), header))
    };
    report.joining = start.elapsed() - report.planning;
    Ok(Joined {
        relation,
        charged,
        report,
    })
}

/// `rel` with its columns moved into `header`'s order (the same variables).
fn reordered(mut rel: Relation, header: Vec<Variable>) -> Relation {
    let from: Vec<usize> = header
        .iter()
        .map(|v| rel.index_of(v).expect("a permutation of the header"))
        .collect();
    let mut rows = std::mem::take(rel.rows_mut());
    // Rows swap buffers with one scratch row: no allocation, no clone.
    let mut scratch: Row = vec![None; from.len()];
    for row in &mut rows {
        for (cell, &i) in scratch.iter_mut().zip(&from) {
            *cell = row[i].take();
        }
        std::mem::swap(row, &mut scratch);
    }
    Relation::from_rows(header, rows)
}

/// Hash join `a ⋈ b` with the probe side split across the handler's
/// threads (the paper's step (ii): threads holding the larger relation
/// probe a hash table built from the smaller one). This is
/// [`Relation::join_in_parts`]: one build table, read by every thread, each
/// probing a *contiguous* range, so the output equals [`Relation::join`]
/// row for row.
pub fn parallel_join(a: &Relation, b: &Relation, handler: &RequestHandler) -> Relation {
    // Below ~16k rows on the smaller side the sequential join wins: thread
    // fan-out costs more than it parallelizes away (measured in the
    // micro_joins bench).
    const MIN_ROWS: usize = 16 * 1024;
    if a.len().min(b.len()) < MIN_ROWS || handler.threads() < 2 {
        return a.join(b);
    }
    a.join_in_parts(b, handler.threads(), |ranges, probe| {
        handler.map(ranges, probe)
    })
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

/// Charge a finished join output against the budget, truncating or
/// failing at exhaustion.
pub(crate) fn charge_output(
    relation: Relation,
    budget: &MemoryBudget,
    truncate_on_exhaustion: bool,
) -> Result<JoinOutcome, BudgetExhausted> {
    let mut charge = RowCharge::new(MemoryPhase::Join, relation.vars().len(), usize::MAX);
    let charged = charge.charge(budget, relation.rows(), true);
    finish_charge(relation, &charge, charged, budget, truncate_on_exhaustion)
}

/// At exhaustion, keep the rows `charge` admitted (truncating) or give its
/// bytes back and fail.
fn finish_charge(
    mut relation: Relation,
    charge: &RowCharge,
    charged: Result<(), BudgetExhausted>,
    budget: &MemoryBudget,
    truncate_on_exhaustion: bool,
) -> Result<JoinOutcome, BudgetExhausted> {
    let truncated = charged.is_err();
    if let Err(e) = charged {
        if !truncate_on_exhaustion {
            budget.release(charge.bytes);
            return Err(e);
        }
        relation.rows_mut().truncate(charge.rows);
    }
    Ok(JoinOutcome {
        relation,
        truncated,
        charged: charge.bytes,
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
    let mut charge = RowCharge::new(MemoryPhase::Join, out.vars().len(), usize::MAX);
    let mut charged = Ok(());

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
                // to fit in memory), emit the cross of merged rows, charged
                // as they come so an exhausted budget stops the merge.
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
                        out.push(row);
                        charged = charge.charge(budget, out.rows(), false);
                        if charged.is_err() {
                            break 'merge;
                        }
                    }
                }
            }
        }
    }
    if charged.is_ok() {
        charged = charge.charge(budget, out.rows(), true);
    }
    finish_charge(out, &charge, charged, budget, truncate_on_exhaustion).map_err(SpillError::Budget)
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

    /// `rows` rows over `vars`, cell `(row, col)` drawn by `cell`.
    fn table(vars: &[&str], rows: usize, cell: impl Fn(usize, usize) -> usize) -> Relation {
        let mut r = Relation::new(vars.iter().map(|n| v(n)).collect());
        for i in 0..rows {
            r.push(
                (0..vars.len())
                    .map(|c| Some(Term::iri(format!("http://x/{}/{}", vars[c], cell(i, c)))))
                    .collect(),
            );
        }
        r
    }

    /// Execute the planned tree; returns the result and the rows of every
    /// join node.
    fn run_plan(rels: &[&Relation], bridges: &[(Variable, Variable)]) -> (Relation, Vec<usize>) {
        let handler = RequestHandler::new(2);
        let ctx = RunContext::unbounded();
        let joined = join_all_bridged(rels, bridges, &handler, &ctx).unwrap();
        let sizes = joined.report.steps.iter().map(|&(_, rows)| rows).collect();
        (joined.relation.into_owned(), sizes)
    }

    #[test]
    fn order_prefers_connected_joins() {
        // r0(x,y) ⋈ r1(y,z) ⋈ r2(z,w): a chain; r0 and r2 never meet
        // before r1 connects them.
        let r0 = rel(&["x", "y"], 100, 0);
        let r1 = rel(&["y", "z"], 10, 0);
        let r2 = rel(&["z", "w"], 50, 0);
        let plan = plan_joins(&[&r0, &r1, &r2], &[]).to_string();
        assert!(
            ["((0 ⋈ 1) ⋈ 2)", "(0 ⋈ (1 ⋈ 2))"].contains(&plan.as_str()),
            "{plan}"
        );
    }

    #[test]
    fn order_handles_disconnected_components() {
        // Two joining pairs with nothing between them: each pair is joined
        // first, the product of the two results comes last, smaller first.
        let a0 = rel(&["x", "y"], 40, 0);
        let b0 = rel(&["u"], 5, 0);
        let a1 = rel(&["y", "z"], 40, 0);
        let b1 = rel(&["u", "w"], 5, 0);
        let rels = [&a0, &b0, &a1, &b1];
        let tree = plan_joins(&rels, &[]);
        assert_eq!(tree.to_string(), "((1 ⋈ 3) ⋈ (0 ⋈ 2))");
        assert_eq!(
            tree.steps().last(),
            Some(&JoinStep::Join { estimated: 200 }),
            "the product multiplies"
        );
        let (out, sizes) = run_plan(&rels, &[]);
        assert_eq!(sizes, vec![5, 40, 200]);
        assert_eq!(out.len(), 200);
    }

    #[test]
    fn order_empty_and_single() {
        assert!(plan_joins(&[], &[]).steps().is_empty());
        let one = rel(&["x"], 3, 0);
        assert_eq!(plan_joins(&[&one], &[]).steps(), [JoinStep::Input(0)]);
        // Two inputs: nothing to order, so no statistics either — every
        // value counts as distinct and the estimate is the smaller side.
        let two = rel(&["x", "y"], 7, 0);
        let tree = plan_joins(&[&one, &two], &[]);
        assert_eq!(tree.to_string(), "(0 ⋈ 1)");
        assert_eq!(tree.steps()[2], JoinStep::Join { estimated: 3 });
        // The executor's unit relation, borrowed single input and pair.
        let (unit, _) = run_plan(&[], &[]);
        assert_eq!((unit.vars().len(), unit.len()), (0, 1));
        assert_eq!(run_plan(&[&one], &[]).0, one);
        assert_eq!(run_plan(&[&one, &two], &[]).0.len(), 3);
    }

    /// LargeRDFBench C7's shape: a 29-row hub `P(p)` under two branches,
    /// each an m:n link to the hub (`?x ?p`, 974 rows over 29 patients)
    /// and a 1:1 lookup on the link's other end that covers about half of
    /// it.
    fn c7_inputs() -> [Relation; 5] {
        let hub = table(&["p"], 29, |i, _| i);
        let link = |x: &str| table(&[x, "p"], 974, |i, c| if c == 0 { i } else { i % 29 });
        let lookup = |x: &str, value: &str, rows: usize| {
            // Every other lookup row belongs to a linked result.
            table(&[x, value], rows, |i, c| if c == 0 { 2 * i } else { i })
        };
        [
            hub,
            link("er"),
            link("mr"),
            lookup("mr", "bv", 4400),
            lookup("er", "ev", 3600),
        ]
    }

    #[test]
    fn the_c7_shape_joins_each_branch_before_the_branches_meet() {
        let inputs = c7_inputs();
        let rels: Vec<&Relation> = inputs.iter().collect();
        let tree = plan_joins(&rels, &[]);
        // The m:n join of the two branches on ?p is the root; below it
        // every join is 1:1 on one side.
        let (out, sizes) = run_plan(&rels, &[]);
        let last = *sizes.last().unwrap();
        assert_eq!(last, out.len());
        assert!(
            sizes.iter().all(|&rows| rows <= last),
            "{tree}: intermediates {sizes:?} exceed the result"
        );
        // No left-deep order can do that: the branches meet on ?p before
        // at least one lookup has halved its branch.
        assert!(
            sizes[..3].iter().all(|&rows| rows <= 974),
            "{tree}: {sizes:?}"
        );
        // Header: first occurrence over the inputs, whatever the tree.
        let names: Vec<&str> = out.vars().iter().map(|v| v.name()).collect();
        assert_eq!(names, ["p", "er", "mr", "bv", "ev"]);
        let mut expected = rels[1..].iter().fold(rels[0].clone(), |acc, r| acc.join(r));
        assert_eq!(expected.vars(), out.vars());
        expected.rows_mut().sort();
        assert_eq!(sorted_rows(&out), expected.rows());
    }

    #[test]
    fn equal_costs_give_the_same_tree_on_every_thread() {
        // Four identical star arms: every order costs the same.
        let hub = rel(&["x"], 50, 0);
        let arms: Vec<Relation> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| rel(&["x", n], 50, 0))
            .collect();
        let mut rels = vec![&hub];
        rels.extend(arms.iter());
        let first = plan_joins(&rels, &[]);
        let plans: Vec<JoinTree> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8).map(|_| s.spawn(|| plan_joins(&rels, &[]))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(plans.iter().all(|p| *p == first), "{first}");
        let c7 = c7_inputs();
        let c7: Vec<&Relation> = c7.iter().collect();
        assert_eq!(plan_joins(&c7, &[]), plan_joins(&c7, &[]));
    }

    #[test]
    fn a_bridge_is_a_join_edge() {
        // r0(a) and r2(b) share nothing; FILTER(?a = ?b) connects them, so
        // they hash-join on the bridge and the unrelated r1 is multiplied
        // last — not r0 × r1 first because both are small.
        let r0 = table(&["a"], 4, |i, _| i);
        let r1 = table(&["c"], 3, |i, _| i);
        let r2 = {
            // ?b takes ?a's values.
            let mut r = Relation::new(vec![v("b"), v("d")]);
            for i in 0..40 {
                r.push(vec![
                    Some(Term::iri(format!("http://x/a/{}", i % 8))),
                    Some(Term::iri(format!("http://x/d/{i}"))),
                ]);
            }
            r
        };
        let rels = [&r0, &r1, &r2];
        let bridges = [(v("b"), v("a"))];
        assert_eq!(plan_joins(&rels, &bridges).to_string(), "(1 ⋈ (0 ⋈ 2))");
        let (out, sizes) = run_plan(&rels, &bridges);
        assert_eq!(sizes, vec![20, 60]);
        assert_eq!(out.len(), 60);
        // Without the bridge nothing connects: products, smallest first.
        assert_eq!(plan_joins(&rels, &[]).to_string(), "((1 ⋈ 0) ⋈ 2)");
    }

    /// `r_i(x_i, x_i+1)` for `i` in `0..n`: 2-row ends, 30-row middle.
    fn chain(n: usize) -> Vec<Relation> {
        (0..n)
            .map(|i| {
                let rows = if i == 0 || i == n - 1 { 2 } else { 30 };
                let mut r = Relation::new(vec![v(&format!("x{i}")), v(&format!("x{}", i + 1))]);
                for k in 0..rows {
                    r.push(vec![
                        Some(Term::iri(format!("http://x/{k}"))),
                        Some(Term::iri(format!("http://x/{k}"))),
                    ]);
                }
                r
            })
            .collect()
    }

    #[test]
    fn a_chain_too_long_to_enumerate_still_never_builds_a_product() {
        // Past the bushy limit (left-deep enumeration) and past the DP
        // limit (greedy): sorted by size alone the two 2-row ends would
        // meet first, in a product. Every step must follow an edge.
        for n in [BUSHY_MAX + 2, DP_MAX + 1] {
            let inputs = chain(n);
            let rels: Vec<&Relation> = inputs.iter().collect();
            let tree = plan_joins(&rels, &[]);
            let mut leaves: Vec<usize> = (tree.steps().iter())
                .filter_map(|s| match s {
                    JoinStep::Input(i) => Some(*i),
                    JoinStep::Join { .. } => None,
                })
                .collect();
            leaves.sort_unstable();
            assert_eq!(leaves, (0..n).collect::<Vec<_>>(), "every input once");
            let connected = tree
                .try_fold(
                    |i| vec![i],
                    |mut l, r, _| {
                        let adjacent = l.iter().any(|a| r.iter().any(|b| a.abs_diff(*b) == 1));
                        l.extend(r);
                        adjacent.then_some(l).ok_or(())
                    },
                )
                .is_ok();
            assert!(connected, "n={n}: {tree} joins two unconnected operands");
            let (out, sizes) = run_plan(&rels, &[]);
            assert_eq!(out.len(), 2);
            // The largest pairwise join is 30 rows.
            assert!(sizes.iter().all(|&rows| rows <= 30), "n={n}: {sizes:?}");
        }
    }

    #[test]
    fn planned_joins_equal_the_left_to_right_fold() {
        // splitmix64, seeded: the failing case replays from the message.
        let seed: u64 = std::env::var("LUSAIL_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        let mut state = seed;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let handler = RequestHandler::new(2);
        let mut spills = 0;
        for case in 0..60 {
            let replay = format!(
                "case {case}; replay: LUSAIL_CHAOS_SEED={seed} cargo test -p lusail-core \
                 planned_joins_equal_the_left_to_right_fold"
            );
            // 3–7 relations of 2–3 variables; most share a variable with
            // an earlier one, some start a component of their own. Values
            // repeat, so keys have duplicates on both sides.
            let pool = ["a", "b", "c", "d", "e", "f", "g"];
            let mut used: Vec<&str> = Vec::new();
            let inputs: Vec<Relation> = (0..3 + below(5))
                .map(|_| {
                    let mut vars: Vec<&str> = Vec::new();
                    if !used.is_empty() && below(8) > 0 {
                        vars.push(used[below(used.len())]);
                    }
                    while vars.len() < 2 + below(2) {
                        let name = pool[below(pool.len())];
                        if !vars.contains(&name) {
                            vars.push(name);
                        }
                    }
                    used.extend(&vars);
                    let (rows, domain) = (1 + below(60), 4 + below(120));
                    let picks: Vec<usize> = (0..rows * vars.len()).map(|_| below(domain)).collect();
                    let mut r = Relation::new(vars.iter().map(|n| v(n)).collect());
                    for row in picks.chunks(vars.len()) {
                        // Shared variables draw from one value space.
                        r.push(
                            row.iter()
                                .map(|k| Some(Term::iri(format!("http://x/{k}"))))
                                .collect(),
                        );
                    }
                    r
                })
                .collect();
            let rels: Vec<&Relation> = inputs.iter().collect();
            let mut expected = rels[1..].iter().fold(rels[0].clone(), |acc, r| acc.join(r));
            expected.rows_mut().sort();

            let ctx = RunContext::unbounded();
            let joined = join_all_bridged(&rels, &[], &handler, &ctx).unwrap();
            assert_eq!(joined.relation.vars(), expected.vars(), "{replay}");
            assert_eq!(sorted_rows(&joined.relation), expected.rows(), "{replay}");
            assert_eq!(ctx.memory.used(), joined.charged, "{replay}");

            // Again under exactly the budget that run peaked at: whatever
            // join then cannot hold twice its build side spills.
            let ctx = RunContext::new(&crate::LusailConfig {
                memory_budget: Some(ctx.memory.stats().peak_bytes),
                ..crate::LusailConfig::without_cache()
            });
            let joined = join_all_bridged(&rels, &[], &handler, &ctx).unwrap();
            assert_eq!(sorted_rows(&joined.relation), expected.rows(), "{replay}");
            assert_eq!(ctx.memory.used(), joined.charged, "{replay}");
            assert!(ctx.take_warnings().is_empty(), "{replay}");
            spills += ctx.memory.stats().spill_count;
        }
        assert!(spills > 0, "seed {seed}: no case spilled");
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let handler = RequestHandler::new(4);
        let a = rel(&["x", "y"], 2000, 0);
        let b = rel(&["y", "z"], 2000, 1000); // overlap on rows 1000..2000
        let seq = a.join(&b);
        // Call the partitioned probe directly: the public entry would route
        // inputs this small to the sequential join.
        let par = a.join_in_parts(&b, handler.threads(), |ranges, probe| {
            handler.map(ranges, probe)
        });
        assert_eq!(seq.len(), 1000);
        assert_eq!(par, seq);
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
