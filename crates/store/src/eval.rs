//! The query evaluator: executes the SPARQL algebra against a [`Store`].

use crate::expr::{eval_ebv, ExprContext};
use crate::store::Store;
use lusail_rdf::fxhash::{FxHashMap, FxHashSet};
use lusail_rdf::{Term, TermId};
use lusail_sparql::aggregate::aggregate_value;
use lusail_sparql::ast::*;
use lusail_sparql::solution::{apply_modifiers, equality_key, EqKey, Relation};
use std::collections::HashMap;

/// The result of evaluating a [`Query`]: a table for `SELECT`, a boolean
/// for `ASK`.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    Solutions(Relation),
    Boolean(bool),
}

impl QueryResult {
    /// The relation, panicking on an `ASK` result (programming error).
    pub fn into_solutions(self) -> Relation {
        match self {
            QueryResult::Solutions(r) => r,
            QueryResult::Boolean(_) => panic!("expected solutions, got boolean"),
        }
    }

    /// The boolean, panicking on a `SELECT` result.
    pub fn into_boolean(self) -> bool {
        match self {
            QueryResult::Boolean(b) => b,
            QueryResult::Solutions(_) => panic!("expected boolean, got solutions"),
        }
    }
}

/// A binding cell during evaluation. Terms that are not in this store's
/// dictionary (they arrive via `VALUES` blocks in bound subqueries — bound
/// joins ship bindings from *other* endpoints) are parked in a side table
/// as `Foreign`; they can never equal any stored term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cell {
    Unbound,
    Id(TermId),
    Foreign(u32),
}

#[derive(Debug, Clone)]
struct Bindings {
    vars: Vec<Variable>,
    rows: Vec<Vec<Cell>>,
}

impl Bindings {
    /// The unit table: no variables, one empty row (the identity of join).
    fn unit() -> Self {
        Bindings {
            vars: Vec::new(),
            rows: vec![Vec::new()],
        }
    }

    fn index_of(&self, v: &Variable) -> Option<usize> {
        self.vars.iter().position(|x| x == v)
    }
}

/// Evaluates queries against one store.
pub struct Evaluator<'a> {
    store: &'a Store,
    /// The terms behind `Cell::Foreign` ids, and each one's id. The terms
    /// come from the request, so the map keeps std's keyed hasher: crafted
    /// collisions cannot make a block quadratic again.
    foreign: Vec<Term>,
    foreign_ids: HashMap<Term, u32>,
    /// Whether a FILTER may run as [`Self::eval_bridged`]. Private and
    /// always on, except in the tests that hold the bridged join against
    /// the filter over the product.
    bridging: bool,
}

impl<'a> Evaluator<'a> {
    pub fn new(store: &'a Store) -> Self {
        Evaluator {
            store,
            foreign: Vec::new(),
            foreign_ids: HashMap::new(),
            bridging: true,
        }
    }

    /// Evaluate any query form.
    pub fn query(&mut self, q: &Query) -> QueryResult {
        match &q.form {
            QueryForm::Select(s) => QueryResult::Solutions(self.select(s)),
            QueryForm::Ask(p) => QueryResult::Boolean(self.ask(p)),
        }
    }

    /// Evaluate an `ASK` pattern.
    pub fn ask(&mut self, pattern: &GraphPattern) -> bool {
        !self.eval_pattern(pattern, Bindings::unit()).rows.is_empty()
    }

    /// Evaluate a `SELECT` query to a [`Relation`] of terms.
    pub fn select(&mut self, q: &SelectQuery) -> Relation {
        let bindings = self.eval_pattern(&q.pattern, Bindings::unit());
        self.finish_select(q, bindings)
    }

    /// The store's share of result assembly: `COUNT` and `GROUP BY`
    /// grouping run on cells (an id comparison per row, no term touched),
    /// each output cell is decoded once, and the decoded rows go through
    /// the same [`apply_modifiers`] every federated engine ends in.
    fn finish_select(&self, q: &SelectQuery, bindings: Bindings) -> Relation {
        let rel = match &q.projection {
            Projection::Count {
                inner,
                distinct,
                as_var,
            } => {
                let n = match inner {
                    None if *distinct => bindings.rows.iter().collect::<FxHashSet<_>>().len(),
                    None => bindings.rows.len(),
                    Some(v) => match bindings.index_of(v) {
                        None => 0,
                        Some(i) => {
                            let bound = (bindings.rows.iter().map(|r| r[i]))
                                .filter(|c| *c != Cell::Unbound);
                            if *distinct {
                                bound.collect::<FxHashSet<_>>().len()
                            } else {
                                bound.count()
                            }
                        }
                    },
                };
                let row = vec![Some(Term::integer(n as i64))];
                Relation::from_rows(vec![as_var.clone()], vec![row])
            }
            Projection::Aggregate { keys, aggs } => self.aggregate(&bindings, q, keys, aggs),
            Projection::All | Projection::Vars(_) => {
                // The projected columns, plus any ORDER BY key outside them:
                // the shared tail sorts before it projects.
                let mut vars = match &q.projection {
                    Projection::Vars(vs) => vs.clone(),
                    _ => bindings.vars.clone(),
                };
                for (v, _) in &q.order_by {
                    if !vars.contains(v) && bindings.index_of(v).is_some() {
                        vars.push(v.clone());
                    }
                }
                let idx: Vec<Option<usize>> = vars.iter().map(|v| bindings.index_of(v)).collect();
                let rows = bindings
                    .rows
                    .iter()
                    .map(|row| {
                        idx.iter()
                            .map(|i| i.and_then(|i| self.cell_term(row[i]).cloned()))
                            .collect()
                    })
                    .collect();
                Relation::from_rows(vars, rows)
            }
        };
        apply_modifiers(q, rel)
    }

    fn cell_term(&self, cell: Cell) -> Option<&Term> {
        match cell {
            Cell::Unbound => None,
            Cell::Id(id) => Some(self.store.decode(id)),
            Cell::Foreign(i) => Some(&self.foreign[i as usize]),
        }
    }

    /// Grouped aggregation (SPARQL 1.1 GROUP BY): group the solution rows
    /// by their key cells, then decode each group's key and hand each
    /// aggregate's bound argument values to [`aggregate_value`].
    fn aggregate(
        &self,
        bindings: &Bindings,
        q: &SelectQuery,
        keys: &[Variable],
        aggs: &[AggSpec],
    ) -> Relation {
        let group_keys = if q.group_by.is_empty() {
            keys
        } else {
            &q.group_by
        };
        let key_idx: Vec<Option<usize>> = group_keys.iter().map(|v| bindings.index_of(v)).collect();
        let mut groups: FxHashMap<Vec<Cell>, Vec<&Vec<Cell>>> = FxHashMap::default();
        for row in &bindings.rows {
            let key = key_idx
                .iter()
                .map(|i| i.map_or(Cell::Unbound, |i| row[i]))
                .collect();
            groups.entry(key).or_default().push(row);
        }
        if groups.is_empty() && group_keys.is_empty() {
            // Aggregating an empty, ungrouped result yields one row.
            groups.insert(Vec::new(), Vec::new());
        }

        let arg_idx: Vec<Option<usize>> = aggs
            .iter()
            .map(|a| a.arg.as_ref().and_then(|v| bindings.index_of(v)))
            .collect();
        let mut rel = Relation::new(q.projected_variables());
        for (key, rows) in groups {
            let mut out_row: Vec<Option<Term>> = keys
                .iter()
                .map(|v| {
                    let pos = group_keys.iter().position(|k| k == v);
                    pos.and_then(|p| self.cell_term(key[p]).cloned())
                })
                .collect();
            for (agg, idx) in aggs.iter().zip(&arg_idx) {
                let values = idx.map_or_else(Vec::new, |i| {
                    rows.iter().filter_map(|r| self.cell_term(r[i])).collect()
                });
                out_row.push(aggregate_value(agg, rows.len(), values));
            }
            rel.push(out_row);
        }
        rel
    }

    fn encode_term(&mut self, t: &Term) -> Cell {
        if let Some(id) = self.store.resolve(t) {
            return Cell::Id(id);
        }
        if let Some(&i) = self.foreign_ids.get(t) {
            return Cell::Foreign(i);
        }
        let i = self.foreign.len() as u32;
        self.foreign.push(t.clone());
        self.foreign_ids.insert(t.clone(), i);
        Cell::Foreign(i)
    }

    // ---- pattern evaluation ---------------------------------------------

    fn eval_pattern(&mut self, p: &GraphPattern, input: Bindings) -> Bindings {
        match p {
            GraphPattern::Bgp(tps) => self.eval_bgp(tps.iter().collect(), input),
            GraphPattern::Join(a, b) => {
                // A bound join's block restricts the pattern it follows:
                // evaluate it first and the pattern becomes index probes.
                let (first, second) = if self.values_seed_bgp(a, b) {
                    (b, a)
                } else {
                    (a, b)
                };
                let left = self.eval_pattern(first, input);
                self.eval_pattern(second, left)
            }
            GraphPattern::LeftJoin(a, b) => {
                let left = self.eval_pattern(a, input);
                self.eval_left_join(&left, b)
            }
            GraphPattern::Union(a, b) => {
                let la = self.eval_pattern(a, input.clone());
                let lb = self.eval_pattern(b, input);
                union_bindings(la, lb)
            }
            GraphPattern::Filter(inner, e) => match self.bridge_plan(p, &input.vars) {
                Some(plan) => self.eval_bridged(plan, input),
                None => {
                    let rows = self.eval_pattern(inner, input);
                    self.eval_filter(rows, e)
                }
            },
            GraphPattern::Values(vars, data) => {
                let mut values = Bindings {
                    vars: vars.clone(),
                    rows: Vec::new(),
                };
                for row in data {
                    values.rows.push(
                        row.iter()
                            .map(|cell| match cell {
                                None => Cell::Unbound,
                                Some(t) => self.encode_term(t),
                            })
                            .collect(),
                    );
                }
                join_bindings(&input, &values)
            }
            GraphPattern::Bind(inner, expr, var) => {
                let rows = self.eval_pattern(inner, input);
                self.eval_bind(rows, expr, var)
            }
            GraphPattern::Minus(a, b) => {
                let left = self.eval_pattern(a, input);
                // SPARQL MINUS evaluates its right side independently.
                let right = self.eval_pattern(b, Bindings::unit());
                minus_bindings(left, &right)
            }
            GraphPattern::SubSelect(q) => {
                // A subquery is evaluated on its own and its projection
                // joined onto the incoming bindings. Where that is sound it
                // is seeded with the incoming values of the variables it
                // projects (the shape Lusail's check queries use inside
                // NOT EXISTS: a lookup per row instead of a scan).
                let inner = self.eval_pattern(&q.pattern, subselect_seed(q, &input));
                let rel = self.finish_select(q, inner);
                let projected = self.relation_to_bindings(&rel);
                join_bindings(&input, &projected)
            }
        }
    }

    /// Convert a term-level relation back into cells (used by subselects
    /// and by endpoint-side `VALUES` injection).
    fn relation_to_bindings(&mut self, rel: &Relation) -> Bindings {
        let vars = rel.vars().to_vec();
        let rows = rel
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .map(|c| match c {
                        None => Cell::Unbound,
                        Some(t) => self.encode_term(t),
                    })
                    .collect()
            })
            .collect();
        Bindings { vars, rows }
    }

    fn eval_bgp(&mut self, mut remaining: Vec<&TriplePattern>, input: Bindings) -> Bindings {
        let mut acc = input;
        while !remaining.is_empty() {
            let next_idx = self.pick_next_pattern(&remaining, &acc.vars);
            let tp = remaining.swap_remove(next_idx);
            acc = self.extend_by_pattern(acc, tp);
            if acc.rows.is_empty() {
                // Short-circuit: the conjunction is already empty. The
                // header still lists every variable, in the order a full
                // run would have added them.
                acc.vars = self.bgp_header(remaining, acc.vars);
                return acc;
            }
        }
        acc
    }

    /// The header [`Self::eval_bgp`] gives `remaining` after `vars`: the
    /// greedy pattern order depends on the header only, not on the rows.
    fn bgp_header(
        &self,
        mut remaining: Vec<&TriplePattern>,
        mut vars: Vec<Variable>,
    ) -> Vec<Variable> {
        while !remaining.is_empty() {
            let tp = remaining.swap_remove(self.pick_next_pattern(&remaining, &vars));
            for v in tp.variables() {
                if !vars.contains(v) {
                    vars.push(v.clone());
                }
            }
        }
        vars
    }

    /// The plan for evaluating `p` as a bridged join, or `None` when `p` is
    /// not a FILTER (or a stack of them) over a BGP with a `?a = ?b`
    /// conjunct whose variables lie in different connected components of
    /// that BGP. Patterns connect through shared variables and through the
    /// variables `input` binds, since one input row binds them together.
    fn bridge_plan<'p>(&self, p: &'p GraphPattern, input: &[Variable]) -> Option<BridgePlan<'p>> {
        if !self.bridging {
            return None;
        }
        let mut filters = Vec::new();
        let mut inner = p;
        while let GraphPattern::Filter(next, e) = inner {
            filters.push(e);
            inner = next;
        }
        let GraphPattern::Bgp(tps) = inner else {
            return None;
        };
        filters.reverse();
        let mut conjuncts = Vec::new();
        for e in &filters {
            push_conjuncts(e, &mut conjuncts);
        }
        let equalities: Vec<(&Variable, &Variable)> = (conjuncts.into_iter())
            .filter_map(|e| match e {
                Expression::Eq(a, b) => match (a.as_ref(), b.as_ref()) {
                    (Expression::Var(a), Expression::Var(b)) => Some((a, b)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        if equalities.is_empty() {
            return None;
        }
        // Union-find over the patterns and one more node, `n`, for the input.
        let n = tps.len();
        let mut parent: Vec<usize> = (0..=n).collect();
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut owner: FxHashMap<&Variable, usize> = FxHashMap::default();
        for (i, tp) in tps.iter().enumerate() {
            for v in tp.variables() {
                let j = *owner
                    .entry(v)
                    .or_insert(if input.contains(v) { n } else { i });
                let (a, b) = (root(&mut parent, i), root(&mut parent, j));
                parent[a] = b;
            }
        }
        let mut component = |v: &Variable| owner.get(v).map(|&i| root(&mut parent, i));
        let bridges: Vec<(&Variable, &Variable)> = (equalities.into_iter())
            .filter(|&(a, b)| matches!((component(a), component(b)), (Some(x), Some(y)) if x != y))
            .collect();
        if bridges.is_empty() {
            return None;
        }
        // One group per component, in order of first pattern; the input's
        // group, when patterns joined it, first.
        let input_root = root(&mut parent, n);
        let mut roots: Vec<usize> = Vec::new();
        let mut groups: Vec<Vec<&TriplePattern>> = Vec::new();
        for (i, tp) in tps.iter().enumerate() {
            let r = root(&mut parent, i);
            match roots.iter().position(|&x| x == r) {
                Some(g) => groups[g].push(tp),
                None => {
                    roots.push(r);
                    groups.push(vec![tp]);
                }
            }
        }
        if let Some(g) = roots.iter().position(|&r| r == input_root) {
            let seeded = groups.remove(g);
            groups.insert(0, seeded);
        }
        Some(BridgePlan {
            tps,
            filters,
            groups,
            bridges,
        })
    }

    /// A FILTER over a BGP whose components meet only in `?a = ?b`
    /// conjuncts, without their product: each component is evaluated on
    /// its own (the first from `input`), components a bridge connects are
    /// hash-joined on the [`EqKey`]s of the bridge variables, what is left
    /// joins as before (a product), and the whole FILTER re-checks every
    /// row. Same rows, same header order as the filter over the product.
    fn eval_bridged(&mut self, plan: BridgePlan<'_>, input: Bindings) -> Bindings {
        let header = self.bgp_header(plan.tps.iter().collect(), input.vars.clone());
        let mut seed = Some(input);
        let mut parts = Vec::with_capacity(plan.groups.len());
        for group in plan.groups {
            let part = self.eval_bgp(group, seed.take().unwrap_or_else(Bindings::unit));
            if part.rows.is_empty() {
                return Bindings {
                    vars: header,
                    rows: Vec::new(),
                };
            }
            parts.push(part);
        }
        let side =
            |parts: &[Bindings], v: &Variable| parts.iter().position(|p| p.index_of(v).is_some());
        while let Some((i, j)) = plan.bridges.iter().find_map(|(a, b)| {
            let (i, j) = (side(&parts, a)?, side(&parts, b)?);
            (i != j).then(|| (i.min(j), i.max(j)))
        }) {
            let right = parts.remove(j);
            let left = parts.remove(i);
            let keys: Vec<(usize, usize)> = (plan.bridges.iter())
                .filter_map(|&(a, b)| {
                    let pair = |x, y| Some((left.index_of(x)?, right.index_of(y)?));
                    pair(a, b).or_else(|| pair(b, a))
                })
                .collect();
            parts.insert(i, self.equality_join(&left, &right, &keys));
        }
        let mut out = parts
            .into_iter()
            .reduce(|a, b| join_bindings(&a, &b))
            .expect("a bridge joins two groups");
        for e in plan.filters {
            out = self.eval_filter(out, e);
        }
        if out.vars != header {
            let idx: Vec<usize> = (header.iter())
                .map(|v| {
                    out.index_of(v)
                        .expect("every group's variables are in the header")
                })
                .collect();
            for row in &mut out.rows {
                *row = idx.iter().map(|&i| row[i]).collect();
            }
            out.vars = header;
        }
        out
    }

    /// Pair the rows of `left` and `right` (no shared variable) whose
    /// `keys` columns are `=`-equal, as SPARQL compares them.
    fn equality_join(
        &self,
        left: &Bindings,
        right: &Bindings,
        keys: &[(usize, usize)],
    ) -> Bindings {
        let key = |row: &[Cell], col: fn(&(usize, usize)) -> usize| -> Option<Vec<EqKey>> {
            keys.iter()
                .map(|k| self.cell_term(row[col(k)]).and_then(equality_key))
                .collect()
        };
        let mut table: FxHashMap<Vec<EqKey>, Vec<usize>> = FxHashMap::default();
        for (i, row) in right.rows.iter().enumerate() {
            if let Some(k) = key(row, |k| k.1) {
                table.entry(k).or_default().push(i);
            }
        }
        let mut out = Bindings {
            vars: left.vars.iter().chain(&right.vars).cloned().collect(),
            rows: Vec::new(),
        };
        for lrow in &left.rows {
            let Some(hits) = key(lrow, |k| k.0).and_then(|k| table.get(&k)) else {
                continue;
            };
            for &ri in hits {
                let mut row = Vec::with_capacity(out.vars.len());
                row.extend_from_slice(lrow);
                row.extend_from_slice(&right.rows[ri]);
                out.rows.push(row);
            }
        }
        out
    }

    /// Whether `Join(body, values)` is better evaluated `values` first:
    /// `values` is a `VALUES` block, `body` a BGP under zero or more
    /// `FILTER`s that mentions every `VALUES` variable, and the block has
    /// fewer rows than the BGP's cheapest pattern has matches — so seeding
    /// the BGP with the block ([`Self::extend_by_pattern`] probes the
    /// index with a row's bound cells) touches fewer triples than scanning
    /// that pattern and hash-joining the block afterwards. The rows are the
    /// same either way: join is commutative, and the filters see every BGP
    /// variable bound in both orders.
    fn values_seed_bgp(&self, body: &GraphPattern, values: &GraphPattern) -> bool {
        let GraphPattern::Values(vars, block) = values else {
            return false;
        };
        let mut bgp = body;
        while let GraphPattern::Filter(inner, _) = bgp {
            bgp = inner;
        }
        let GraphPattern::Bgp(tps) = bgp else {
            return false;
        };
        vars.iter().all(|v| tps.iter().any(|tp| tp.mentions(v)))
            && tps.iter().all(|tp| block.len() < self.pattern_count(tp))
    }

    /// How many triples match `tp`'s constants alone.
    fn pattern_count(&self, tp: &TriplePattern) -> usize {
        let resolve = |slot: &TermPattern| -> Result<Option<TermId>, ()> {
            match slot {
                TermPattern::Var(_) => Ok(None),
                TermPattern::Term(t) => self.store.resolve(t).map(Some).ok_or(()),
            }
        };
        match (
            resolve(&tp.subject),
            resolve(&tp.predicate),
            resolve(&tp.object),
        ) {
            (Ok(s), Ok(p), Ok(o)) => self.store.count_ids(s, p, o),
            _ => 0, // unknown constant: zero matches, cheapest
        }
    }

    /// Greedy join ordering: among patterns sharing a variable with the
    /// bound set (or all patterns if none does), pick the one with the
    /// smallest constant-only match count.
    fn pick_next_pattern(&self, remaining: &[&TriplePattern], bound: &[Variable]) -> usize {
        let shares = |tp: &TriplePattern| tp.variables().iter().any(|v| bound.contains(v));
        let candidates: Vec<usize> = {
            let sharing: Vec<usize> = (0..remaining.len())
                .filter(|&i| shares(remaining[i]))
                .collect();
            if sharing.is_empty() || bound.is_empty() {
                (0..remaining.len()).collect()
            } else {
                sharing
            }
        };
        let mut best = candidates[0];
        let mut best_cost = usize::MAX;
        for &i in &candidates {
            let cost = self.pattern_count(remaining[i]);
            if cost < best_cost {
                best_cost = cost;
                best = i;
            }
        }
        best
    }

    /// Extend each row of `acc` with all matches of `tp`.
    fn extend_by_pattern(&mut self, acc: Bindings, tp: &TriplePattern) -> Bindings {
        // Compute the new header.
        let mut vars = acc.vars.clone();
        for v in tp.variables() {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
        let slot_plan: Vec<SlotPlan> = [&tp.subject, &tp.predicate, &tp.object]
            .into_iter()
            .map(|slot| match slot {
                TermPattern::Term(t) => match self.store.resolve(t) {
                    Some(id) => SlotPlan::Const(id),
                    None => SlotPlan::Impossible,
                },
                TermPattern::Var(v) => {
                    let in_acc = acc.index_of(v);
                    let out_idx = vars.iter().position(|x| x == v).unwrap();
                    SlotPlan::Var { in_acc, out_idx }
                }
            })
            .collect();

        let mut out = Bindings {
            vars,
            rows: Vec::new(),
        };
        if slot_plan.iter().any(|s| matches!(s, SlotPlan::Impossible)) {
            return out;
        }

        for row in &acc.rows {
            // Resolve each slot under this row.
            let mut probe = [None::<TermId>; 3];
            let mut dead = false;
            for (i, plan) in slot_plan.iter().enumerate() {
                match plan {
                    SlotPlan::Const(id) => probe[i] = Some(*id),
                    SlotPlan::Var {
                        in_acc: Some(j), ..
                    } => match row[*j] {
                        Cell::Id(id) => probe[i] = Some(id),
                        Cell::Foreign(_) => {
                            dead = true;
                            break;
                        }
                        Cell::Unbound => {}
                    },
                    SlotPlan::Var { in_acc: None, .. } => {}
                    SlotPlan::Impossible => unreachable!(),
                }
            }
            if dead {
                continue;
            }
            let matches = self.store.match_ids(probe[0], probe[1], probe[2]);
            'matches: for (s, p, o) in matches {
                let mut new_row = Vec::with_capacity(out.vars.len());
                new_row.extend_from_slice(row);
                new_row.resize(out.vars.len(), Cell::Unbound);
                let found = [s, p, o];
                for (i, plan) in slot_plan.iter().enumerate() {
                    if let SlotPlan::Var { out_idx, .. } = plan {
                        match new_row[*out_idx] {
                            Cell::Unbound => new_row[*out_idx] = Cell::Id(found[i]),
                            Cell::Id(existing) => {
                                // Same variable twice in one pattern (e.g.
                                // ?x p ?x) — enforce equality.
                                if existing != found[i] {
                                    continue 'matches;
                                }
                            }
                            Cell::Foreign(_) => continue 'matches,
                        }
                    }
                }
                out.rows.push(new_row);
            }
        }
        out
    }

    fn eval_left_join(&mut self, left: &Bindings, right: &GraphPattern) -> Bindings {
        // Correlated per-row OPTIONAL evaluation (equivalent to SPARQL
        // LeftJoin for well-designed patterns, and far cheaper than
        // evaluating the optional side over the whole store).
        let mut out_vars = left.vars.clone();
        for v in right.in_scope_variables() {
            if !out_vars.contains(&v) {
                out_vars.push(v);
            }
        }
        let mut out = Bindings {
            vars: out_vars,
            rows: Vec::new(),
        };
        for row in &left.rows {
            let seed = Bindings {
                vars: left.vars.clone(),
                rows: vec![row.clone()],
            };
            let sub = self.eval_pattern(right, seed);
            if sub.rows.is_empty() {
                let mut r = row.clone();
                r.resize(out.vars.len(), Cell::Unbound);
                out.rows.push(r);
            } else {
                for srow in sub.rows {
                    let mut r = Vec::with_capacity(out.vars.len());
                    for v in &out.vars {
                        let cell = sub
                            .vars
                            .iter()
                            .position(|x| x == v)
                            .map(|i| srow[i])
                            .or_else(|| left.index_of(v).map(|i| row[i]))
                            .unwrap_or(Cell::Unbound);
                        r.push(cell);
                    }
                    out.rows.push(r);
                }
            }
        }
        out
    }

    /// `BIND(expr AS ?v)`: compute the expression per row; errors leave
    /// the variable unbound (per the SPARQL spec).
    fn eval_bind(&mut self, bindings: Bindings, expr: &Expression, var: &Variable) -> Bindings {
        let mut vars = bindings.vars.clone();
        let fresh = !vars.contains(var);
        if fresh {
            vars.push(var.clone());
        }
        let out_idx = vars.iter().position(|x| x == var).unwrap();
        let mut out = Bindings {
            vars,
            rows: Vec::with_capacity(bindings.rows.len()),
        };
        for row in bindings.rows {
            let value = {
                let mut ctx = RowCtx {
                    eval: self,
                    vars: &bindings.vars,
                    row: &row,
                };
                crate::expr::eval(expr, &mut ctx).and_then(crate::expr::value_to_term)
            };
            let mut new_row = row.clone();
            if fresh {
                new_row.push(Cell::Unbound);
            }
            match value {
                Some(t) => {
                    let cell = self.encode_term(&t);
                    // Re-binding an already-bound variable must agree
                    // (SPARQL forbids it syntactically; we enforce equality).
                    if new_row[out_idx] == Cell::Unbound || new_row[out_idx] == cell {
                        new_row[out_idx] = cell;
                        out.rows.push(new_row);
                    }
                }
                None => out.rows.push(new_row),
            }
        }
        out
    }

    fn eval_filter(&mut self, bindings: Bindings, e: &Expression) -> Bindings {
        let mut out = Bindings {
            vars: bindings.vars.clone(),
            rows: Vec::new(),
        };
        for row in bindings.rows {
            let keep = {
                let mut ctx = RowCtx {
                    eval: self,
                    vars: &bindings.vars,
                    row: &row,
                };
                eval_ebv(e, &mut ctx)
            };
            if keep {
                out.rows.push(row);
            }
        }
        out
    }
}

/// What a subselect's own pattern starts from. An aggregate or a sliced
/// (`LIMIT`/`OFFSET`) subquery must see its whole pattern, so it starts
/// from the unit table. Any other may start from the distinct incoming
/// values of the variables it projects — the join back onto the input
/// keeps only those rows anyway — unless one of those values is unbound.
fn subselect_seed(q: &SelectQuery, input: &Bindings) -> Bindings {
    let plain = matches!(q.projection, Projection::All | Projection::Vars(_));
    if !plain || q.limit.is_some() || q.offset.is_some() {
        return Bindings::unit();
    }
    let shared: Vec<usize> = q
        .projected_variables()
        .iter()
        .filter_map(|v| input.index_of(v))
        .collect();
    let mut seen = FxHashSet::default();
    let rows: Vec<Vec<Cell>> = input
        .rows
        .iter()
        .map(|row| shared.iter().map(|&i| row[i]).collect::<Vec<Cell>>())
        .filter(|row| seen.insert(row.clone()))
        .collect();
    if rows.iter().any(|row| row.contains(&Cell::Unbound)) {
        return Bindings::unit();
    }
    Bindings {
        vars: shared.iter().map(|&i| input.vars[i].clone()).collect(),
        rows,
    }
}

/// What [`Evaluator::eval_bridged`] runs: the BGP, its FILTERs (innermost
/// first), its connected components as pattern groups (the input's first),
/// and the `?a = ?b` conjuncts that cross from one group to another.
struct BridgePlan<'p> {
    tps: &'p [TriplePattern],
    filters: Vec<&'p Expression>,
    groups: Vec<Vec<&'p TriplePattern>>,
    bridges: Vec<(&'p Variable, &'p Variable)>,
}

/// The top-level `&&` operands of `e`.
fn push_conjuncts<'e>(e: &'e Expression, out: &mut Vec<&'e Expression>) {
    match e {
        Expression::And(a, b) => {
            push_conjuncts(a, out);
            push_conjuncts(b, out);
        }
        other => out.push(other),
    }
}

enum SlotPlan {
    Const(TermId),
    Impossible,
    Var {
        in_acc: Option<usize>,
        out_idx: usize,
    },
}

/// Expression context for one row: variable lookup plus correlated EXISTS.
struct RowCtx<'a, 'b> {
    eval: &'a mut Evaluator<'b>,
    vars: &'a [Variable],
    row: &'a [Cell],
}

impl ExprContext for RowCtx<'_, '_> {
    fn value_of(&self, v: &Variable) -> Option<Term> {
        let i = self.vars.iter().position(|x| x == v)?;
        self.eval.cell_term(self.row[i]).cloned()
    }

    fn exists(&mut self, pattern: &GraphPattern) -> bool {
        // Seed the inner pattern with the current row (SPARQL's
        // substitution semantics for EXISTS).
        let seed = Bindings {
            vars: self.vars.to_vec(),
            rows: vec![self.row.to_vec()],
        };
        !self.eval.eval_pattern(pattern, seed).rows.is_empty()
    }
}

/// SPARQL MINUS: drop a left row when some right row shares at least one
/// bound variable with it and agrees on every shared bound variable.
fn minus_bindings(left: Bindings, right: &Bindings) -> Bindings {
    let shared: Vec<(usize, usize)> = left
        .vars
        .iter()
        .enumerate()
        .filter_map(|(i, v)| right.index_of(v).map(|j| (i, j)))
        .collect();
    if shared.is_empty() {
        return left;
    }
    let rows = left
        .rows
        .into_iter()
        .filter(|lrow| {
            !right.rows.iter().any(|rrow| {
                let mut overlap = false;
                for &(i, j) in &shared {
                    match (lrow[i], rrow[j]) {
                        (Cell::Unbound, _) | (_, Cell::Unbound) => {}
                        (a, b) if a == b => overlap = true,
                        _ => return false, // disagree on a shared bound var
                    }
                }
                overlap
            })
        })
        .collect();
    Bindings {
        vars: left.vars,
        rows,
    }
}

fn union_bindings(a: Bindings, b: Bindings) -> Bindings {
    let mut vars = a.vars.clone();
    for v in &b.vars {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    let mut rows = Vec::with_capacity(a.rows.len() + b.rows.len());
    let pad = |src_vars: &[Variable], row: &[Cell], vars: &[Variable]| -> Vec<Cell> {
        vars.iter()
            .map(|v| {
                src_vars
                    .iter()
                    .position(|x| x == v)
                    .map(|i| row[i])
                    .unwrap_or(Cell::Unbound)
            })
            .collect()
    };
    for row in &a.rows {
        rows.push(pad(&a.vars, row, &vars));
    }
    for row in &b.rows {
        rows.push(pad(&b.vars, row, &vars));
    }
    Bindings { vars, rows }
}

fn join_bindings(a: &Bindings, b: &Bindings) -> Bindings {
    let shared: Vec<(usize, usize)> = a
        .vars
        .iter()
        .enumerate()
        .filter_map(|(i, v)| b.index_of(v).map(|j| (i, j)))
        .collect();
    let mut vars = a.vars.clone();
    let b_extra: Vec<usize> = (0..b.vars.len())
        .filter(|&j| !a.vars.contains(&b.vars[j]))
        .collect();
    for &j in &b_extra {
        vars.push(b.vars[j].clone());
    }
    let mut out = Bindings {
        vars,
        rows: Vec::new(),
    };

    // Hash the smaller side on fully-bound shared keys; rows with unbound
    // shared cells go to a compatibility scan list.
    let mut table: FxHashMap<Vec<Cell>, Vec<usize>> = FxHashMap::default();
    let mut loose: Vec<usize> = Vec::new();
    for (bi, row) in b.rows.iter().enumerate() {
        let key: Vec<Cell> = shared.iter().map(|&(_, j)| row[j]).collect();
        if key.contains(&Cell::Unbound) {
            loose.push(bi);
        } else {
            table.entry(key).or_default().push(bi);
        }
    }
    for arow in &a.rows {
        let key: Vec<Cell> = shared.iter().map(|&(i, _)| arow[i]).collect();
        let emit = |brow: &Vec<Cell>, out: &mut Bindings| {
            let mut r = Vec::with_capacity(out.vars.len());
            for (i, _) in a.vars.iter().enumerate() {
                let mut cell = arow[i];
                if cell == Cell::Unbound {
                    if let Some(j) = b.index_of(&a.vars[i]) {
                        cell = brow[j];
                    }
                }
                r.push(cell);
            }
            for &j in &b_extra {
                r.push(brow[j]);
            }
            out.rows.push(r);
        };
        let compatible = |brow: &Vec<Cell>| {
            shared.iter().all(|&(i, j)| {
                arow[i] == Cell::Unbound || brow[j] == Cell::Unbound || arow[i] == brow[j]
            })
        };
        if key.contains(&Cell::Unbound) {
            // Scan everything.
            for brow in &b.rows {
                if compatible(brow) {
                    emit(brow, &mut out);
                }
            }
        } else {
            if let Some(matches) = table.get(&key) {
                for &bi in matches {
                    emit(&b.rows[bi], &mut out);
                }
            }
            for &bi in &loose {
                if compatible(&b.rows[bi]) {
                    emit(&b.rows[bi], &mut out);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::Graph;
    use lusail_sparql::parse_query;

    /// The two-university decentralized graph of Figure 1 (EP2's data).
    fn ep2_store() -> Store {
        let mut g = Graph::new();
        let ub = |l: &str| format!("http://swat.cse.lehigh.edu/onto/univ-bench.owl#{l}");
        let e = |l: &str| Term::iri(format!("http://univ2.example.org/{l}"));
        let mit = Term::iri("http://univ1.example.org/MIT");
        // Students & advisors at CMU (EP2)
        g.add_type(e("Kim"), ub("GraduateStudent"));
        g.add_type(e("Lee"), ub("GraduateStudent"));
        g.add_type(e("Joy"), ub("AssociateProfessor"));
        g.add_type(e("Tim"), ub("AssociateProfessor"));
        g.add_type(e("Ben"), ub("AssociateProfessor"));
        g.add_type(e("CMU"), ub("University"));
        g.add_type(e("db"), ub("GraduateCourse"));
        g.add_type(e("os"), ub("GraduateCourse"));
        g.add(e("Kim"), Term::iri(ub("advisor")), e("Joy"));
        g.add(e("Kim"), Term::iri(ub("advisor")), e("Tim"));
        g.add(e("Lee"), Term::iri(ub("advisor")), e("Ben"));
        g.add(e("Joy"), Term::iri(ub("teacherOf")), e("db"));
        g.add(e("Tim"), Term::iri(ub("teacherOf")), e("os"));
        g.add(e("Ben"), Term::iri(ub("teacherOf")), e("os"));
        g.add(e("Kim"), Term::iri(ub("takesCourse")), e("db"));
        g.add(e("Kim"), Term::iri(ub("takesCourse")), e("os"));
        g.add(e("Lee"), Term::iri(ub("takesCourse")), e("os"));
        g.add(e("Joy"), Term::iri(ub("PhDDegreeFrom")), e("CMU"));
        // Tim's PhD is from MIT — an interlink into EP1.
        g.add(e("Tim"), Term::iri(ub("PhDDegreeFrom")), mit.clone());
        g.add(e("Ben"), Term::iri(ub("PhDDegreeFrom")), e("CMU"));
        g.add(e("CMU"), Term::iri(ub("address")), Term::literal("CCCC"));
        Store::from_graph(&g)
    }

    fn run(store: &Store, q: &str) -> Relation {
        let query = parse_query(q).unwrap();
        Evaluator::new(store).query(&query).into_solutions()
    }

    const PRE: &str = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n\
                       PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
                       PREFIX u2: <http://univ2.example.org/>\n";

    #[test]
    fn bgp_single_pattern() {
        let st = ep2_store();
        let r = run(
            &st,
            &format!("{PRE} SELECT ?s WHERE {{ ?s rdf:type ub:GraduateStudent }}"),
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn bgp_join_students_with_advisor_courses() {
        let st = ep2_store();
        // Students taking a course taught by their advisor: Kim-Joy(db),
        // Kim-Tim(os), Lee-Ben(os).
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s ?p WHERE {{ ?s ub:advisor ?p . ?p ub:teacherOf ?c . ?s ub:takesCourse ?c }}"
            ),
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ask_true_and_false() {
        let st = ep2_store();
        let t = parse_query(&format!("{PRE} ASK {{ u2:Kim ub:advisor u2:Tim }}")).unwrap();
        assert!(Evaluator::new(&st).query(&t).into_boolean());
        let f = parse_query(&format!("{PRE} ASK {{ u2:Tim ub:advisor u2:Kim }}")).unwrap();
        assert!(!Evaluator::new(&st).query(&f).into_boolean());
    }

    #[test]
    fn optional_pads_missing() {
        let st = ep2_store();
        // Tim's PhD university (MIT) has no local address; CMU does.
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?p ?u ?a WHERE {{ ?p ub:PhDDegreeFrom ?u OPTIONAL {{ ?u ub:address ?a }} }}"
            ),
        );
        assert_eq!(r.len(), 3);
        let tim_row = r
            .rows()
            .iter()
            .find(|row| row[1] == Some(Term::iri("http://univ1.example.org/MIT")))
            .unwrap();
        assert_eq!(tim_row[2], None);
        let cmu_rows: Vec<_> = r
            .rows()
            .iter()
            .filter(|row| row[1] == Some(Term::iri("http://univ2.example.org/CMU")))
            .collect();
        assert!(cmu_rows
            .iter()
            .all(|row| row[2] == Some(Term::literal("CCCC"))));
    }

    #[test]
    fn union_combines() {
        let st = ep2_store();
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?x WHERE {{ {{ ?x rdf:type ub:GraduateStudent }} UNION {{ ?x rdf:type ub:AssociateProfessor }} }}"
            ),
        );
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn filter_not_exists_check_query() {
        let st = ep2_store();
        // The paper's Figure 5 check: professors who are objects of advisor
        // but never subjects of teacherOf. In EP2 all advisors teach, so
        // the check returns empty (→ ?P locally joinable here).
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?p WHERE {{ ?s ub:advisor ?p . FILTER NOT EXISTS {{ SELECT ?p WHERE {{ ?p ub:teacherOf ?c }} }} }} LIMIT 1"
            ),
        );
        assert!(r.is_empty());
        // PhDDegreeFrom objects that never appear as subjects of address:
        // MIT (remote) → non-empty (→ ?U is a global join variable).
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?u WHERE {{ ?p ub:PhDDegreeFrom ?u . FILTER NOT EXISTS {{ SELECT ?u WHERE {{ ?u ub:address ?a }} }} }} LIMIT 1"
            ),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.rows()[0][0],
            Some(Term::iri("http://univ1.example.org/MIT"))
        );
    }

    #[test]
    fn sibling_subselects_join_their_projections() {
        let st = ep2_store();
        // The analysis probe's shape: one row, one count per subselect.
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT * WHERE {{ \
                   {{ SELECT (COUNT(*) AS ?a) WHERE {{ ?s ub:advisor ?p }} }} \
                   {{ SELECT (COUNT(*) AS ?b) WHERE {{ ?s ub:takesCourse ?c FILTER(?c = u2:os) }} }} \
                   {{ SELECT (COUNT(*) AS ?z) WHERE {{ ?s ub:emailAddress ?e }} }} }}"
            ),
        );
        assert_eq!(r.len(), 1);
        let cell = |name: &str| r.rows()[0][r.index_of(&Variable::new(name)).unwrap()].clone();
        assert_eq!(cell("a"), Some(Term::integer(3)));
        assert_eq!(cell("b"), Some(Term::integer(2)));
        assert_eq!(cell("z"), Some(Term::integer(0)));
    }

    #[test]
    fn result_cells_share_the_dictionary_buffers() {
        // Decoding an id into a result row hands out a pointer into the
        // store's dictionary, not a copy of the string.
        let st = ep2_store();
        let r = run(
            &st,
            &format!("{PRE} SELECT ?s ?p WHERE {{ ?s ub:advisor ?p }}"),
        );
        assert_eq!(r.len(), 3);
        for cell in r.rows().iter().flatten().flatten() {
            let interned = st.decode(st.resolve(cell).unwrap());
            match (cell, interned) {
                (Term::Iri(a), Term::Iri(b)) => assert!(std::sync::Arc::ptr_eq(a, b), "{cell}"),
                other => panic!("expected IRIs, got {other:?}"),
            }
        }
    }

    #[test]
    fn subselect_joins_onto_outer_rows() {
        let st = ep2_store();
        // The outer variables survive, and an aggregate subquery counts its
        // own pattern once, not once per outer row.
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s ?p ?n WHERE {{ ?s ub:advisor ?p . \
                   {{ SELECT (COUNT(*) AS ?n) WHERE {{ ?x ub:teacherOf ?c }} }} }}"
            ),
        );
        assert_eq!(r.len(), 3);
        assert!(r
            .rows()
            .iter()
            .all(|row| row[0].is_some() && row[1].is_some() && row[2] == Some(Term::integer(3))));
        // A plain subquery is a join on what it projects: Kim has two
        // advisors and takes two courses, Lee one of each.
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s ?p WHERE {{ ?s ub:advisor ?p . \
                   {{ SELECT ?s WHERE {{ ?s ub:takesCourse ?c }} }} }}"
            ),
        );
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn values_joins_inline_data() {
        let st = ep2_store();
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s ?c WHERE {{ ?s ub:takesCourse ?c . VALUES ?s {{ u2:Kim }} }}"
            ),
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn values_with_foreign_terms_yields_nothing() {
        let st = ep2_store();
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s ?c WHERE {{ ?s ub:takesCourse ?c . VALUES ?s {{ <http://elsewhere/Zoe> }} }}"
            ),
        );
        assert!(r.is_empty());
    }

    /// 40 parts with one weight each; every fourth also has a colour.
    fn parts_store() -> Store {
        let mut g = Graph::new();
        for i in 0..40 {
            let part = Term::iri(format!("http://x/part{i}"));
            g.add(part.clone(), Term::iri("http://x/weight"), Term::integer(i));
            if i % 4 == 0 {
                g.add(part, Term::iri("http://x/colour"), Term::literal("red"));
            }
        }
        Store::from_graph(&g)
    }

    /// `SELECT * { body VALUES (vars) { block } }` through the evaluator,
    /// and the same rows the long way round: `body` and the block each
    /// evaluated on their own, joined as term relations.
    fn block_and_oracle(st: &Store, body: &str, vars: &str, block: &str) -> (Relation, Relation) {
        let got = run(
            st,
            &format!("SELECT * WHERE {{ {body} VALUES ({vars}) {{ {block} }} }}"),
        );
        let scanned = run(st, &format!("SELECT * WHERE {{ {body} }}"));
        let values = run(
            st,
            &format!("SELECT * WHERE {{ VALUES ({vars}) {{ {block} }} }}"),
        );
        (got, scanned.join(&values))
    }

    fn assert_same_bag(got: &Relation, want: &Relation) {
        let want = want.project(got.vars());
        let sorted = |r: &Relation| {
            let mut rows = r.rows().to_vec();
            rows.sort();
            rows
        };
        assert_eq!(sorted(got), sorted(&want));
    }

    fn seeds(st: &Store, body: &str, vars: &str, block: &str) -> bool {
        let q = parse_query(&format!(
            "SELECT * WHERE {{ {body} VALUES ({vars}) {{ {block} }} }}"
        ))
        .unwrap();
        let GraphPattern::Join(a, b) = &q.as_select().unwrap().pattern else {
            panic!("a group ending in VALUES parses to a join");
        };
        Evaluator::new(st).values_seed_bgp(a, b)
    }

    #[test]
    fn a_small_values_block_seeds_the_pattern_it_follows() {
        let st = parts_store();
        let weight = "?p <http://x/weight> ?w .";
        // Bound, repeated, foreign and UNDEF cells; a duplicate row keeps
        // its multiplicity and an UNDEF row matches every part.
        let block = "(<http://x/part3>) (<http://x/part3>) (<http://elsewhere/z>) (UNDEF) \
                     (<http://x/part8>)";
        assert!(seeds(&st, weight, "?p", block));
        let (got, want) = block_and_oracle(&st, weight, "?p", block);
        assert_eq!(got.len(), 2 + 40 + 1);
        assert_same_bag(&got, &want);

        // A filter on the bind variable, and one on a variable only the
        // pattern binds, sit between the BGP and the block.
        let filtered = "?p <http://x/weight> ?w . FILTER(?p != <http://x/part3>) FILTER(?w < 20)";
        assert!(seeds(&st, filtered, "?p", block));
        let (got, want) = block_and_oracle(&st, filtered, "?p", block);
        assert_eq!(got.len(), 19 + 1);
        assert_same_bag(&got, &want);

        // Two patterns, two VALUES columns, one of them partly UNDEF.
        let two = "?p <http://x/weight> ?w . ?p <http://x/colour> ?c .";
        let block = "(<http://x/part4> \"red\") (<http://x/part8> UNDEF) (UNDEF \"blue\") \
                     (<http://x/part5> \"red\")";
        assert!(seeds(&st, two, "?p ?c", block));
        let (got, want) = block_and_oracle(&st, two, "?p ?c", block);
        assert_eq!(got.len(), 2);
        assert_same_bag(&got, &want);

        // An empty block: no rows, the whole header.
        let (got, want) = block_and_oracle(&st, weight, "?p", "");
        assert!(got.is_empty());
        assert_eq!(got.vars().len(), want.vars().len());
    }

    #[test]
    fn a_values_block_that_would_not_pay_is_joined_after_the_scan() {
        let st = parts_store();
        // As many rows as the colour pattern has matches: scanning it is no
        // more work than probing per row.
        let colour = "?p <http://x/colour> ?c .";
        let rows = |n: usize| -> String {
            (0..n)
                .map(|i| format!("(<http://x/part{}>) ", i * 2))
                .collect()
        };
        let block = rows(10);
        assert!(!seeds(&st, colour, "?p", &block));
        let (got, want) = block_and_oracle(&st, colour, "?p", &block);
        assert_eq!(got.len(), 5);
        assert_same_bag(&got, &want);
        // One row fewer and it pays.
        assert!(seeds(&st, colour, "?p", &rows(9)));
        // A VALUES variable the BGP does not mention, and a left side that
        // is not a BGP under filters, never seed.
        assert!(!seeds(&st, colour, "?q", "(<http://x/part0>)"));
        assert!(!seeds(
            &st,
            "{ ?p <http://x/colour> ?c } UNION { ?p <http://x/weight> ?c }",
            "?p",
            "(<http://x/part0>)"
        ));
    }

    /// Subjects with join values drawn from a pool where `=` and term
    /// identity part ways: numbers in several spellings and types, NaN,
    /// signed zeros, one text as plain, typed and tagged literal, and an
    /// IRI, a blank node and a literal spelling the same thing.
    fn bridge_store(seed: &mut u64) -> Store {
        use lusail_rdf::{vocab::xsd, Literal};
        let pool = [
            Term::literal("5"),
            Term::literal(" 5"),
            Term::Literal(Literal::typed("5.0", xsd::DECIMAL)),
            Term::Literal(Literal::typed("05", xsd::INTEGER)),
            Term::Literal(Literal::lang("5", "en")),
            Term::literal("NaN"),
            Term::literal("-0"),
            Term::literal("0"),
            Term::Literal(Literal::double(0.0)),
            Term::literal("abc"),
            Term::Literal(Literal::lang("abc", "en")),
            Term::Literal(Literal::typed("abc", xsd::STRING)),
            Term::iri("http://x/v"),
            Term::literal("http://x/v"),
            Term::bnode("v"),
            Term::integer(7),
        ];
        let mut g = Graph::new();
        for i in 0..12 {
            let subject = Term::iri(format!("http://x/s{i}"));
            for p in ["a", "b", "c"] {
                for _ in 0..crate::splitmix(seed) % 3 {
                    let value = pool[crate::splitmix(seed) as usize % pool.len()].clone();
                    g.add(subject.clone(), Term::iri(format!("http://x/{p}")), value);
                }
            }
            let x = crate::splitmix(seed) % 10;
            g.add(subject, Term::iri("http://x/x"), Term::integer(x as i64));
        }
        Store::from_graph(&g)
    }

    #[test]
    fn a_bridged_filter_equals_the_filter_over_the_product() {
        let queries = [
            // One bridge; with a residual conjunct; as two FILTERs.
            "{ ?s :a ?a . ?t :b ?b FILTER(?a = ?b) }",
            "{ ?s :a ?a . ?t :b ?b . ?t :x ?x FILTER(?a = ?b && ?x > 4) }",
            "{ ?s :a ?a . ?t :b ?b FILTER(?b = ?a) FILTER(?s != ?t) }",
            "{ ?s :a ?a . ?s :x ?x . ?t :b ?b FILTER(?x < 8) FILTER(?a = ?b && ?x > 2) }",
            // Three components: bridged twice, and once plus a product.
            "{ ?s :a ?a . ?t :b ?b . ?u :c ?c FILTER(?a = ?b && ?c = ?b) }",
            "{ ?s :a ?a . ?t :b ?b . ?u :c ?c FILTER(?a = ?b) }",
            // Two conjuncts bridging the same two components.
            "{ ?s :a ?a ; :b ?a2 . ?t :b ?b ; :c ?b2 FILTER(?a = ?b && ?a2 = ?b2) }",
            // Inside OPTIONAL (seeded per row, and correlated through ?s)
            // and inside UNION.
            "{ ?s :x ?x OPTIONAL { ?t :a ?a . ?u :b ?b FILTER(?a = ?b) } }",
            "{ ?s :x ?x OPTIONAL { ?s :a ?a . ?u :b ?b FILTER(?a = ?b) } }",
            "{ { ?s :a ?a . ?t :b ?b FILTER(?a = ?b) } UNION { ?s :c ?a } }",
            // Seeded by a VALUES block that connects nothing else.
            "{ ?s :a ?a . ?t :b ?b FILTER(?a = ?b) VALUES ?s { :s1 :s2 :s3 :nowhere } }",
        ];
        let mut seed = 31u64;
        for round in 0..12 {
            let st = bridge_store(&mut seed);
            for body in queries {
                let q =
                    parse_query(&format!("PREFIX : <http://x/> SELECT * WHERE {body}")).unwrap();
                let got = Evaluator::new(&st).query(&q).into_solutions();
                let mut general = Evaluator::new(&st);
                general.bridging = false;
                let want = general.query(&q).into_solutions();
                assert_eq!(got.vars(), want.vars(), "round {round}: {body}");
                let sorted = |r: &Relation| {
                    let mut rows = r.rows().to_vec();
                    rows.sort();
                    rows
                };
                assert_eq!(sorted(&got), sorted(&want), "round {round}: {body}");
            }
        }
    }

    #[test]
    fn only_an_equality_across_components_is_a_bridge() {
        let st = bridge_store(&mut 5);
        let plan = |body: &str, input: &[&str]| {
            let q = parse_query(&format!("PREFIX : <http://x/> SELECT * WHERE {body}")).unwrap();
            let input: Vec<Variable> = input.iter().map(|v| Variable::new(*v)).collect();
            let ev = Evaluator::new(&st);
            ev.bridge_plan(q.pattern(), &input)
                .map(|p| (p.groups.len(), p.bridges.len()))
        };
        assert_eq!(
            plan("{ ?s :a ?a . ?t :b ?b FILTER(?a = ?b) }", &[]),
            Some((2, 1))
        );
        assert_eq!(
            plan(
                "{ ?s :a ?a . ?t :b ?b . ?u :c ?c FILTER(?s != ?u && (?a = ?b)) }",
                &[]
            ),
            Some((3, 1))
        );
        // Connected already, through the BGP or through the input.
        assert_eq!(plan("{ ?s :a ?a . ?s :b ?b FILTER(?a = ?b) }", &[]), None);
        assert_eq!(
            plan("{ ?s :a ?a . ?t :b ?b FILTER(?a = ?b) }", &["s", "t"]),
            None
        );
        // Not a top-level conjunct, not two variables, or not over a BGP.
        assert_eq!(
            plan("{ ?s :a ?a . ?t :b ?b FILTER(?a = ?b || ?a = 1) }", &[]),
            None
        );
        assert_eq!(plan("{ ?s :a ?a . ?t :b ?b FILTER(?a = 5) }", &[]), None);
        assert_eq!(plan("{ ?s :a ?a . ?t :b ?b FILTER(?a = ?zz) }", &[]), None);
    }

    #[test]
    fn count_aggregate() {
        let st = ep2_store();
        let r = run(
            &st,
            &format!("{PRE} SELECT (COUNT(*) AS ?c) WHERE {{ ?s ub:advisor ?p }}"),
        );
        assert_eq!(r.rows()[0][0], Some(Term::integer(3)));
        let r = run(
            &st,
            &format!("{PRE} SELECT (COUNT(DISTINCT ?p) AS ?c) WHERE {{ ?s ub:advisor ?p }}"),
        );
        assert_eq!(r.rows()[0][0], Some(Term::integer(3)));
        let r = run(
            &st,
            &format!("{PRE} SELECT (COUNT(DISTINCT ?s) AS ?c) WHERE {{ ?s ub:advisor ?p }}"),
        );
        assert_eq!(r.rows()[0][0], Some(Term::integer(2)));
    }

    #[test]
    fn distinct_limit_offset_order() {
        let st = ep2_store();
        let all = run(
            &st,
            &format!("{PRE} SELECT ?s WHERE {{ ?s ub:takesCourse ?c }} ORDER BY ?s"),
        );
        assert_eq!(all.len(), 3);
        let first = all.rows()[0][0].clone();
        let lim = run(
            &st,
            &format!("{PRE} SELECT ?s WHERE {{ ?s ub:takesCourse ?c }} ORDER BY ?s LIMIT 1"),
        );
        assert_eq!(lim.rows()[0][0], first);
        let off = run(
            &st,
            &format!(
                "{PRE} SELECT DISTINCT ?s WHERE {{ ?s ub:takesCourse ?c }} ORDER BY ?s OFFSET 1"
            ),
        );
        assert_eq!(off.len(), 1);
    }

    #[test]
    fn filter_comparison_on_literal() {
        let st = ep2_store();
        let r = run(
            &st,
            &format!("{PRE} SELECT ?u WHERE {{ ?u ub:address ?a . FILTER(?a = \"CCCC\") }}"),
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn same_var_twice_in_pattern() {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://x/a"),
            Term::iri("http://x/loves"),
            Term::iri("http://x/a"),
        );
        g.add(
            Term::iri("http://x/a"),
            Term::iri("http://x/loves"),
            Term::iri("http://x/b"),
        );
        let st = Store::from_graph(&g);
        let r = run(&st, "SELECT ?x WHERE { ?x <http://x/loves> ?x }");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Some(Term::iri("http://x/a")));
    }

    #[test]
    fn variable_predicate() {
        let st = ep2_store();
        let r = run(
            &st,
            &format!("{PRE} SELECT ?p2 WHERE {{ u2:Kim ?p2 u2:Joy }}"),
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn group_by_aggregates() {
        let st = ep2_store();
        // Courses taken per student.
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s (COUNT(?c) AS ?n) WHERE {{ ?s ub:takesCourse ?c }} GROUP BY ?s"
            ),
        );
        assert_eq!(r.len(), 2);
        let kim = r
            .rows()
            .iter()
            .find(|row| row[0] == Some(Term::iri("http://univ2.example.org/Kim")))
            .unwrap();
        assert_eq!(kim[1], Some(Term::integer(2)));
        // MIN/MAX over literals.
        let r = run(
            &st,
            &format!("{PRE} SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) WHERE {{ ?u ub:address ?a }}"),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Some(Term::literal("CCCC")));
        assert_eq!(r.rows()[0][1], Some(Term::literal("CCCC")));
    }

    #[test]
    fn bind_extends_rows() {
        let st = ep2_store();
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s ?label WHERE {{ ?s ub:advisor ?p . BIND(STR(?s) AS ?label) }}"
            ),
        );
        assert_eq!(r.len(), 3);
        for row in r.rows() {
            let s = row[0].as_ref().unwrap().as_iri().unwrap().to_string();
            assert_eq!(row[1], Some(Term::literal(s)));
        }
        // Erroring BIND leaves the variable unbound but keeps the row.
        let r = run(
            &st,
            &format!("{PRE} SELECT ?s ?x WHERE {{ ?s ub:advisor ?p . BIND(?p + 1 AS ?x) }}"),
        );
        assert_eq!(r.len(), 3);
        assert!(r.rows().iter().all(|row| row[1].is_none()));
    }

    #[test]
    fn minus_removes_matching() {
        let st = ep2_store();
        // Students minus those taking the os course: Kim takes db+os,
        // Lee takes os → both removed when matching on ?s.
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s WHERE {{ ?s rdf:type ub:GraduateStudent MINUS {{ ?s ub:takesCourse u2:os }} }}"
            ),
        );
        assert!(r.is_empty());
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s WHERE {{ ?s rdf:type ub:GraduateStudent MINUS {{ ?s ub:takesCourse u2:db }} }}"
            ),
        );
        // Only Kim takes db → Lee survives.
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.rows()[0][0],
            Some(Term::iri("http://univ2.example.org/Lee"))
        );
        // MINUS with no shared variables removes nothing (SPARQL spec).
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s WHERE {{ ?s rdf:type ub:GraduateStudent MINUS {{ ?q ub:takesCourse u2:db }} }}"
            ),
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_result_keeps_full_header() {
        let st = ep2_store();
        let r = run(
            &st,
            &format!(
                "{PRE} SELECT ?s ?x WHERE {{ ?s rdf:type ub:UndergraduateStudent . ?s ub:takesCourse ?x }}"
            ),
        );
        assert!(r.is_empty());
        assert_eq!(r.vars().len(), 2);
    }
}
