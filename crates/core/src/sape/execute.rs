//! Algorithm 3: selectivity-aware evaluation of subqueries.
//!
//! A branch's schedule is split into strands ([`strands`]): groups of
//! subqueries that share no endpoint and no bind variable, run side by
//! side through [`RunContext::fan_out`]. In each strand, phase 1 sends the
//! non-delayed subqueries in one wave; their connected results are joined
//! to find bindings; phase 2 evaluates the delayed subqueries over those
//! bindings, every one that is ready in one wave. The global join
//! ([`join_all_bridged`]) then assembles every strand's results. Four
//! deviations from the algorithm as printed; the first three are decided
//! on rows already in hand:
//!
//! * **A delayed subquery is bound only when binding is the smaller
//!   request.** Algorithm 3 always ships the found bindings in `VALUES`
//!   blocks. When there are at least as many bindings as the subquery has
//!   rows (its `COUNT`-based cardinality), the blocks carry more terms out
//!   than the unbound subquery brings back, in more requests; it is then
//!   sent as it is, once per source, and the global join restricts it.
//! * **Found bindings are kept only where they can be read**: for the
//!   variables a delayed subquery that has not run yet mentions. The
//!   bind variables, the blocks and the requests are the same; the columns
//!   nothing reads are no longer interned.
//! * **Delayed subqueries that wait for nothing leave together.**
//!   Algorithm 3 evaluates one delayed subquery per round, most selective
//!   first. Here each round sends every remaining one that is *ready*
//!   ([`ready_set`]) as one wave; only when none is does it fall back to
//!   the single most selective pick.
//! * **A delayed subquery waits only for the phase-1 results it is bound
//!   on.** Algorithm 3's phase 1 is one barrier: every bound join waits
//!   for the slowest phase-1 response. Here it waits for its own strand's
//!   only. Strands that would send to a common endpoint are one strand, so
//!   every endpoint is sent what the single wave sent it, in that order.

use crate::budget::MemoryPhase;
use crate::config::LusailConfig;
use crate::error::EngineError;
use crate::integrity::{count_star, paged_query, IntegrityRegistry, Sent};
use crate::normalize::OptionalBlock;
use crate::run::RunContext;
use crate::sape::join::{join_all_bridged, JoinReport};
use crate::sape::schedule::Schedule;
use crate::source::BlockStats;
use crate::subquery::{connected_components, Subquery};
use lusail_federation::{EndpointId, Federation, RequestHandler, SelectResponse};
use lusail_rdf::dict::{Dictionary, TermId};
use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::Term;
use lusail_sparql::ast::{GraphPattern, Query, TriplePattern, Variable};
use lusail_sparql::serializer::serialize_query;
use lusail_sparql::solution::Relation;
use std::borrow::Borrow;
use std::fmt::Write as _;

/// The result of executing one branch's subqueries.
#[derive(Debug)]
pub struct SapeOutcome {
    /// The subqueries' results, joined.
    pub relation: Relation,
    /// `(subquery id, estimated cardinality, actual rows)` for non-delayed
    /// multi-pattern subqueries — the data behind the paper's q-error
    /// claim (§4.1: median 1.09 on LargeRDFBench).
    pub estimates: Vec<(usize, usize, usize)>,
    /// How many subqueries were evaluated as bound joins.
    pub delayed_executed: usize,
    /// How many strands the branch's schedule ran as ([`strands`]).
    pub strands: usize,
    /// What the global join planned and did.
    pub join: JoinReport,
}

/// Executes one branch's scheduled subqueries against the federation.
pub struct SapeExecutor<'a> {
    pub federation: &'a Federation,
    pub handler: &'a RequestHandler,
    pub config: &'a LusailConfig,
    /// Deadline, result policy and warning sink for this query.
    pub ctx: &'a RunContext,
    /// Cross-query result-integrity ledger: learned caps, watch flags,
    /// and quarantine membership, shared by every query on this engine.
    pub integrity: &'a IntegrityRegistry,
}

impl SapeExecutor<'_> {
    /// Run Algorithm 3 over `subqueries` with the given schedule and
    /// estimated cardinalities (parallel to `subqueries`), its strands
    /// ([`strands`]) side by side, then join every result. `bridges` are
    /// `FILTER(?a = ?b)` variable equalities from the branch: disconnected
    /// subquery results joined through them use a hash join on the bridge
    /// keys instead of a cross product (the paper's "disjoint subgraphs
    /// joined by a filter variable", C5/B5/B6).
    /// `expected` (parallel to `subqueries`, possibly shorter) carries
    /// the per-endpoint row counts the SAPE `COUNT` probes predicted for
    /// single-pattern subqueries; a delivery below the prediction is a
    /// truncation signal.
    pub fn execute(
        &self,
        subqueries: &[Subquery],
        schedule: &Schedule,
        cardinalities: &[usize],
        bridges: &[(Variable, Variable)],
        expected: &[FxHashMap<EndpointId, usize>],
    ) -> Result<SapeOutcome, EngineError> {
        let labels: Vec<String> = subqueries
            .iter()
            .map(|sq| format!("subquery #{}", sq.id))
            .collect();
        let strands = strands(subqueries, schedule, cardinalities);
        let count = strands.len();
        let ran = self.ctx.fan_out(self.handler, strands, |strand, ctx| {
            let executor = SapeExecutor { ctx, ..*self };
            executor.run_strand(subqueries, &strand, cardinalities, expected, &labels)
        })?;
        let mut partials: Vec<Option<Relation>> = vec![None; subqueries.len()];
        let mut delayed_executed = 0;
        for (settled, delayed) in ran {
            for (i, rel) in settled {
                partials[i] = Some(rel);
            }
            delayed_executed += delayed;
        }
        let estimates = (schedule.non_delayed.iter())
            .filter(|&&i| subqueries[i].patterns.len() > 1)
            .map(|&i| {
                let actual = partials[i].as_ref().map_or(0, Relation::len);
                (subqueries[i].id, cardinalities[i], actual)
            })
            .collect();

        // ---- Final join ----------------------------------------------
        // Its output stays charged: the caller holds it to the query's end.
        let rels: Vec<&Relation> = partials.iter().flatten().collect();
        let joined = join_all_bridged(&rels, bridges, self.handler, self.ctx)?;

        Ok(SapeOutcome {
            relation: joined.relation.into_owned(),
            estimates,
            delayed_executed,
            strands: count,
            join: joined.report,
        })
    }

    /// Algorithm 3's two phases over one strand (`schedule` holds only
    /// its subqueries): returns each subquery's relation, by index, and
    /// how many ran as bound joins.
    fn run_strand(
        &self,
        subqueries: &[Subquery],
        schedule: &Schedule,
        cardinalities: &[usize],
        expected: &[FxHashMap<EndpointId, usize>],
        labels: &[String],
    ) -> Result<(Vec<(usize, Relation)>, usize), EngineError> {
        let mut partials: Vec<Option<Relation>> = vec![None; subqueries.len()];

        // ---- Phase 1: non-delayed subqueries, one concurrent wave ------
        // Pre-seed empty results so a subquery with no relevant sources
        // correctly contributes an *empty* relation (not "no relation",
        // which would drop it from the join and fabricate answers).
        for &i in schedule.non_delayed.iter().chain(&schedule.delayed) {
            partials[i] = Some(Relation::new(subqueries[i].projection.clone()));
        }
        let wave: Vec<WaveRequest> = schedule
            .non_delayed
            .iter()
            .flat_map(|&i| {
                let (sq, what) = (&subqueries[i], labels[i].as_str());
                let expected = expected.get(i);
                sq.sources.iter().map(move |&ep| WaveRequest {
                    sq,
                    what,
                    ep,
                    block: None,
                    expected: expected.and_then(|m| m.get(&ep)).copied(),
                })
            })
            .collect();
        let mut settled = self
            .run_wave("subquery wave", MemoryPhase::Wave, &wave)?
            .into_iter();
        for &i in &schedule.non_delayed {
            // A skipped endpoint contributes nothing to this subquery's
            // partial: under `--partial`, answers from the remaining
            // sources still flow through.
            for rel in settled.by_ref().take(subqueries[i].sources.len()) {
                match &mut partials[i] {
                    Some(existing) => existing.append(rel),
                    slot @ None => *slot = Some(rel),
                }
            }
        }
        self.ctx.check()?;

        let mut bindings = self.found_bindings(subqueries, schedule, &partials)?;

        // ---- Phase 2: delayed subqueries as bound joins -----------------
        let mut remaining: Vec<usize> = schedule.delayed.clone();
        let mut delayed_executed = 0;
        let nothing_found = FoundBindings::default();

        while !remaining.is_empty() {
            let mut round = ready_set(&remaining, subqueries, &bindings);
            if round.is_empty() {
                // Most selective next, by refined cardinality (§4.2).
                let pick = (remaining.iter().copied())
                    .min_by_key(|&i| {
                        refined_cardinality(&subqueries[i], cardinalities[i], &bindings)
                    })
                    .unwrap();
                round.push(pick);
            }
            remaining.retain(|i| !round.contains(i));
            let plans = (round.iter())
                .map(|&i| {
                    let sq = &subqueries[i];
                    // Binding pays while the bindings are fewer than the
                    // rows the subquery has anyway. Otherwise the blocks
                    // would carry more terms out than the unbound subquery
                    // brings back, in more requests, and the global join
                    // does the restriction.
                    let found = bindings.bind_variable(sq).and_then(|v| bindings.count(&v));
                    let unbound = found.is_some_and(|found| found >= cardinalities[i].max(1));
                    let over = if unbound { &nothing_found } else { &bindings };
                    self.plan_bound(sq, &labels[i], over, expected.get(i))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let results = self.run_bound_wave(&plans)?;
            // From here on, too, bindings are kept only where they can be
            // read: by a delayed subquery still to run.
            let read = |v: &&Variable| remaining.iter().any(|&i| subqueries[i].mentions(v));
            for (i, rel) in round.into_iter().zip(results) {
                for v in subqueries[i].projection.iter().filter(read) {
                    bindings.update_from(v, &rel);
                }
                partials[i] = Some(rel);
                delayed_executed += 1;
            }
        }
        let settled = (schedule.non_delayed.iter().chain(&schedule.delayed))
            .map(|&i| (i, partials[i].take().expect("pre-seeded")))
            .collect();
        Ok((settled, delayed_executed))
    }

    /// The found bindings phase 1 leaves for phase 2: connected non-delayed
    /// results are joined (§4.2: "Whenever possible, the results of
    /// non-delayed subqueries are joined together. This reduces the number
    /// of found bindings."), and the joins' columns kept for the variables
    /// a delayed subquery mentions — no other is ever read, so a component
    /// without one is not even joined.
    fn found_bindings(
        &self,
        subqueries: &[Subquery],
        schedule: &Schedule,
        partials: &[Option<Relation>],
    ) -> Result<FoundBindings, EngineError> {
        let mut bindings = FoundBindings::default();
        if schedule.delayed.is_empty() {
            return Ok(bindings);
        }
        let read = |v: &Variable| schedule.delayed.iter().any(|&i| subqueries[i].mentions(v));
        for component in connected_components(&schedule.non_delayed, subqueries) {
            let rels: Vec<&Relation> = component
                .iter()
                .map(|&i| partials[i].as_ref().unwrap())
                .collect();
            if !rels.iter().any(|rel| rel.vars().iter().any(read)) {
                continue;
            }
            // The join is read for its columns and dropped, and its
            // charge with it.
            let joined = join_all_bridged(&rels, &[], self.handler, self.ctx)?;
            for v in joined.relation.vars().iter().filter(|v| read(v)) {
                bindings.update_from(v, &joined.relation);
            }
            self.ctx.memory.release(joined.charged);
        }
        Ok(bindings)
    }

    /// Fetch the rows of an `OPTIONAL` or `MINUS` block (`stats` is what
    /// the analysis probe learned about it) for
    /// [`assemble_branch`](crate::normalize::assemble_branch): the block
    /// as one subquery, bound-evaluated over the values `rows` — the
    /// relation it is about to meet — has for a variable it shares with
    /// `required`, the branch's required patterns, and unbound when it
    /// shares none.
    ///
    /// Only a required variable is bound in every row at every stage of
    /// the assembly. A column an earlier `OPTIONAL` left partly unbound
    /// must not restrict the block: a row unbound there is compatible with
    /// block rows of any value.
    pub fn fetch_block(
        &self,
        block: &OptionalBlock,
        stats: &BlockStats,
        id: usize,
        what: &str,
        required: &[TriplePattern],
        rows: &Relation,
    ) -> Result<Relation, EngineError> {
        let sq = Subquery::for_block(id, block, &stats.sources);
        let mut bindings = FoundBindings::default();
        for v in &sq.projection {
            if required.iter().any(|tp| tp.mentions(v)) && rows.index_of(v).is_some() {
                bindings.update_from(v, rows);
            }
        }
        self.run_bound(&sq, what, &bindings, None)
    }

    /// Evaluate one subquery with its variables bound to already-found
    /// bindings, in `VALUES` blocks (lines 11–17 of Algorithm 3). Falls
    /// back to unbound evaluation when no binding variable overlaps.
    fn run_bound(
        &self,
        sq: &Subquery,
        what: &str,
        bindings: &FoundBindings,
        expected: Option<&FxHashMap<EndpointId, usize>>,
    ) -> Result<Relation, EngineError> {
        let plan = self.plan_bound(sq, what, bindings, expected)?;
        let mut results = self.run_bound_wave(std::slice::from_ref(&plan))?;
        Ok(results.pop().expect("one plan, one result"))
    }

    /// What [`run_bound`](Self::run_bound) sends for `sq`: its bind
    /// variable among `bindings`, the sources left after refinement, and
    /// the found terms cut into blocks.
    fn plan_bound<'a>(
        &self,
        sq: &'a Subquery,
        what: &'a str,
        bindings: &FoundBindings,
        expected: Option<&'a FxHashMap<EndpointId, usize>>,
    ) -> Result<BoundPlan<'a>, EngineError> {
        let bind_var = bindings.bind_variable(sq);
        let sources = self.refine_sources(sq, what, bind_var.as_ref(), bindings)?;
        // Bindings live as interned ids; terms materialize only here,
        // where they go onto the wire in VALUES blocks.
        let rows: Vec<Vec<Option<Term>>> = bind_var.as_ref().map_or_else(Vec::new, |v| {
            bindings
                .terms(v)
                .into_iter()
                .map(|t| vec![Some(t)])
                .collect()
        });
        let blocks = match &bind_var {
            Some(v) => self.plan_bound_blocks(sq, v, &sources, &rows),
            None => Vec::new(),
        };
        Ok(BoundPlan {
            sq,
            what,
            bind_var,
            sources,
            rows,
            blocks,
            expected,
        })
    }

    /// Send the requests of all `plans` as one wave — one settle in
    /// submission order, one cross-probe wave, one admission path — and
    /// return one relation per plan.
    fn run_bound_wave(&self, plans: &[BoundPlan]) -> Result<Vec<Relation>, EngineError> {
        let requests: Vec<Vec<WaveRequest>> = plans.iter().map(BoundPlan::requests).collect();
        let sizes: Vec<usize> = requests.iter().map(Vec::len).collect();
        let wave: Vec<WaveRequest> = requests.into_iter().flatten().collect();
        let mut settled = self
            .run_wave("bound join", MemoryPhase::BoundJoin, &wave)?
            .into_iter();
        let out = (plans.iter().zip(sizes))
            .map(|(plan, size)| {
                let mut out = Relation::new(plan.sq.projection.clone());
                for rel in settled.by_ref().take(size) {
                    out.append(rel);
                }
                out
            })
            .collect();
        self.ctx.check()?;
        Ok(out)
    }

    /// Cut the bound join's binding `rows` into `VALUES` blocks (lengths,
    /// in order) with the limits read from where they live: the byte
    /// ceiling from the sources' transports, less the query the block
    /// rides in, and the block count from the width of one ERH wave.
    fn plan_bound_blocks(
        &self,
        sq: &Subquery,
        bind_var: &Variable,
        sources: &[EndpointId],
        rows: &[Vec<Option<Term>>],
    ) -> Vec<usize> {
        let sizes: Vec<usize> = rows
            .iter()
            .map(|row| row[0].as_ref().map_or(0, binding_bytes))
            .collect();
        let ceiling = sources
            .iter()
            .filter_map(|&ep| self.federation.endpoint(ep).max_request_bytes())
            .min();
        plan_blocks(
            &sizes,
            sources.len(),
            self.handler.snapshot().ceiling,
            self.config.bound_block_size.max(1),
            ceiling.map(|c| c.saturating_sub(envelope_bytes(sq, bind_var))),
        )
    }

    /// Source-selection refinement for generic subqueries (line 13 of
    /// Algorithm 3): when the subquery contains an unconstrained pattern
    /// (three variables, or a variable predicate), re-`ASK` each source
    /// with a sample of the found bindings attached and drop sources that
    /// answer no.
    fn refine_sources(
        &self,
        sq: &Subquery,
        what: &str,
        bind_var: Option<&Variable>,
        bindings: &FoundBindings,
    ) -> Result<Vec<EndpointId>, EngineError> {
        let generic = sq
            .patterns
            .iter()
            .any(|tp| tp.free_slots() == 3 || tp.predicate.is_var());
        let (Some(v), true) = (bind_var, generic) else {
            return Ok(sq.sources.clone());
        };
        let sample: Vec<Vec<Option<Term>>> = bindings
            .sample(v, 32)
            .into_iter()
            .map(|t| vec![Some(t)])
            .collect();
        let probe = Query::ask(
            GraphPattern::Bgp(sq.patterns.clone())
                .join(GraphPattern::Values(vec![v.clone()], sample)),
        );
        let ask = |ep, deadline| self.federation.endpoint(ep).ask_within(&probe, deadline);
        let answers =
            self.ctx
                .dispatch(self.handler, "source refinement", sq.sources.clone(), ask)?;
        let what = format!("source refinement for {what}");
        let mut kept: Vec<EndpointId> = Vec::new();
        for (ep, yes) in sq.sources.iter().copied().zip(answers) {
            // Default `true`: keeping an unreachable source is safe — the
            // actual subquery wave will skip (or fail on) it under the
            // active policy.
            if self.ctx.absorb(&what, true, yes)? {
                kept.push(ep);
            }
        }
        if kept.is_empty() {
            // A sample miss must not orphan the subquery entirely.
            Ok(sq.sources.clone())
        } else {
            Ok(kept)
        }
    }

    /// Send one wave of subquery requests and settle its responses:
    /// returns one admitted relation per request, in submission order.
    ///
    /// Each response is absorbed under the result policy and handed to the
    /// integrity ledger ([`IntegrityRegistry::settle`]), which decides,
    /// cross-probes and pages back; what it settles is projected and
    /// admitted here, one response at a time, in submission order.
    fn run_wave(
        &self,
        label: &'static str,
        phase: MemoryPhase,
        wave: &[WaveRequest],
    ) -> Result<Vec<Relation>, EngineError> {
        let select = |req: &WaveRequest, deadline| {
            let endpoint = self.federation.endpoint(req.ep);
            endpoint.select_with_meta(&req.query(), deadline)
        };
        let results = self
            .ctx
            .dispatch(self.handler, label, wave.iter().collect(), select)?;
        let absorbed = wave.iter().zip(results).map(|(req, result)| {
            let empty = SelectResponse {
                rows: Relation::new(req.sq.projection.clone()),
                truncated: false,
            };
            self.ctx.absorb_flagged(req.what, empty, result)
        });
        let settled =
            self.integrity
                .settle(self.federation, self.handler, self.ctx, wave, absorbed)?;
        (wave.iter().zip(settled))
            .map(|(req, rel)| {
                let rel = rel?;
                // Bound queries may expose the bind variable even if it is
                // not projected; align headers.
                let rel = match req.block {
                    Some(_) if rel.vars() != req.sq.projection => rel.project(&req.sq.projection),
                    _ => rel,
                };
                let name = self.federation.endpoint(req.ep).name();
                self.ctx.admit_relation(req.what, name, phase, rel)
            })
            .collect()
    }
}

/// One request of a subquery wave: `sq` evaluated at `ep`, unbound or
/// restricted to one `VALUES` block of found bindings.
struct WaveRequest<'a> {
    sq: &'a Subquery,
    /// How warnings and errors name the subquery.
    what: &'a str,
    ep: EndpointId,
    /// The bind variable and block of a bound-join request.
    block: Option<(&'a Variable, &'a [Vec<Option<Term>>])>,
    /// The row count the analysis probe reported for this very query at
    /// `ep`, when it measured one (unbound single-pattern subqueries).
    expected: Option<usize>,
}

impl Sent for WaveRequest<'_> {
    fn endpoint(&self) -> EndpointId {
        self.ep
    }

    fn label(&self) -> &str {
        self.what
    }

    fn bindings(&self) -> Option<usize> {
        self.block.map(|(_, block)| block.len())
    }

    fn expected(&self) -> Option<usize> {
        self.expected
    }

    /// The query this request sends — also the base of its `COUNT(*)`
    /// cross-probe and recovery pages, which rebuild it only if needed.
    fn query(&self) -> Query {
        match self.block {
            None => self.sq.to_query(),
            Some((v, block)) => self.sq.to_bound_query(std::slice::from_ref(v), block),
        }
    }
}

/// One subquery's share of a bound-join wave, from
/// [`SapeExecutor::plan_bound`]: the requests borrow its terms.
struct BoundPlan<'a> {
    sq: &'a Subquery,
    what: &'a str,
    /// The variable bound, or `None` for an unbound evaluation.
    bind_var: Option<Variable>,
    sources: Vec<EndpointId>,
    /// The found bindings of `bind_var`, one term a row.
    rows: Vec<Vec<Option<Term>>>,
    /// Lengths of the consecutive `VALUES` blocks `rows` is cut into.
    blocks: Vec<usize>,
    /// The analysis probe's per-endpoint counts for the unbound subquery.
    expected: Option<&'a FxHashMap<EndpointId, usize>>,
}

impl BoundPlan<'_> {
    /// One request per source when unbound, per block and source when
    /// bound, blocks in order.
    fn requests(&self) -> Vec<WaveRequest<'_>> {
        let request = |ep, block, expected| WaveRequest {
            sq: self.sq,
            what: self.what,
            ep,
            block,
            expected,
        };
        let Some(v) = &self.bind_var else {
            let expected = |ep| self.expected.and_then(|m| m.get(&ep)).copied();
            return (self.sources.iter())
                .map(|&ep| request(ep, None, expected(ep)))
                .collect();
        };
        // The probes' expected counts describe the unbound pattern; a
        // `VALUES`-restricted result is smaller, so only the
        // advertisement/heuristics apply to a block's response.
        let mut rest = self.rows.as_slice();
        (self.blocks.iter())
            .flat_map(|&len| {
                let (block, tail) = rest.split_at(len);
                rest = tail;
                (self.sources.iter()).map(move |&ep| request(ep, Some((v, block)), None))
            })
            .collect()
    }
}

/// A block is never cut below this many bytes of bindings just to fill a
/// wave: under it the cost of a request (a round trip, a parse, an index
/// probe per pattern) outweighs what the extra overlap saves.
const MIN_BLOCK_BYTES: usize = 4096;

/// Cut bindings of the given serialized `sizes` into consecutive `VALUES`
/// blocks for a bound join at `sources` endpoints; returns the block
/// lengths, in order.
///
/// The finest cut considered is a greedy one at [`MIN_BLOCK_BYTES`]; its
/// blocks are merged until `blocks × sources` requests still fill one ERH
/// wave of `width` threads: more requests than that pay a second round
/// trip, fewer leave links and cores idle. No block carries more than
/// `max_count` bindings or, unless it is a single binding, more than
/// `max_bytes`; blocks are balanced to within one binding, so no request
/// of the wave is much slower than the rest.
fn plan_blocks(
    sizes: &[usize],
    sources: usize,
    width: usize,
    max_count: usize,
    max_bytes: Option<usize>,
) -> Vec<usize> {
    let n = sizes.len();
    if n == 0 {
        return Vec::new();
    }
    let floor_bytes = max_bytes.map_or(MIN_BLOCK_BYTES, |b| b.min(MIN_BLOCK_BYTES));
    let most = greedy_cut(sizes, max_count, floor_bytes);
    // A run of `cap` bindings fits both limits wherever it starts, so any
    // balanced cut into at least `fewest` blocks is legal.
    let cap = max_bytes.map_or(max_count, |b| max_count.min(shortest_fill(sizes, b)));
    let fewest = n.div_ceil(cap);
    if fewest > most.len() {
        // Term lengths so uneven under a tight ceiling that equal counts
        // would need more requests than the greedy cut: keep that one.
        return most;
    }
    let k = (width / sources.max(1)).clamp(fewest, most.len());
    (0..k).map(|i| n / k + usize::from(i < n % k)).collect()
}

/// Consecutive blocks, each extended while it holds fewer than `max_count`
/// bindings and the next one fits in `max_bytes`. A binding larger than
/// `max_bytes` ships alone.
fn greedy_cut(sizes: &[usize], max_count: usize, max_bytes: usize) -> Vec<usize> {
    let mut blocks = Vec::new();
    let (mut len, mut bytes) = (0, 0);
    for &size in sizes {
        if len > 0 && (len >= max_count || bytes + size > max_bytes) {
            blocks.push(len);
            (len, bytes) = (0, 0);
        }
        len += 1;
        bytes += size;
    }
    if len > 0 {
        blocks.push(len);
    }
    blocks
}

/// The fewest consecutive bindings that fill `max_bytes` anywhere in
/// `sizes`: every run that short fits. At least 1 (a single oversized
/// binding ships alone); `usize::MAX` when the whole input fits.
fn shortest_fill(sizes: &[usize], max_bytes: usize) -> usize {
    let mut shortest = usize::MAX;
    let (mut end, mut bytes) = (0, 0);
    for start in 0..sizes.len() {
        while end < sizes.len() && bytes + sizes[end] <= max_bytes {
            bytes += sizes[end];
            end += 1;
        }
        if end == sizes.len() {
            // From here on runs are cut by the input's end, not by bytes.
            break;
        }
        shortest = shortest.min(end - start);
        if end == start {
            end += 1;
        } else {
            bytes -= sizes[start];
        }
    }
    shortest.max(1)
}

/// Counts the bytes a `Display` writes, without building the string.
struct ByteCount(usize);

impl std::fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// The bytes one binding adds to a serialized `VALUES` block.
fn binding_bytes(t: &Term) -> usize {
    let mut n = ByteCount(0);
    let _ = write!(n, "({t} ) ");
    n.0
}

/// The serialized size of the query an empty block of `bind_var` rides in,
/// in the largest of the forms the executor sends it: the bound `SELECT`,
/// its `COUNT(*)` cross-probe, and a recovery page at any offset.
fn envelope_bytes(sq: &Subquery, bind_var: &Variable) -> usize {
    let select = sq.to_bound_query(std::slice::from_ref(bind_var), &[]);
    let size = |q: &Query| serialize_query(q).len();
    size(&select)
        .max(size(&count_star(&select)))
        .max(size(&paged_query(&select, usize::MAX, usize::MAX)))
}

/// The found bindings of Algorithm 3, held as interned ids.
///
/// One query-scoped [`Dictionary`] interns every binding term exactly
/// once; per variable the bindings are a sorted, deduplicated `Vec` of
/// `u32` ids. Every intersection — the hot operation, run after each
/// delayed subquery — is then a linear two-pointer merge over integers
/// with no string comparison at all. Terms materialize only at the wire:
/// `VALUES` block construction and `ASK` refinement samples.
#[derive(Default)]
struct FoundBindings {
    dict: Dictionary,
    vars: FxHashMap<Variable, Vec<TermId>>,
}

impl FoundBindings {
    /// Intersect (or insert) the found bindings of a variable.
    ///
    /// Bindings are kept id-sorted and deduplicated (established at
    /// insertion, preserved by intersection), so each merge is one sort
    /// of the incoming ids plus a linear two-pointer intersection —
    /// pathological binding sets stay `O(n log n)` where a per-value
    /// scan would go quadratic.
    fn update(&mut self, v: &Variable, values: impl IntoIterator<Item = impl Borrow<Term>>) {
        let mut ids: Vec<TermId> = values
            .into_iter()
            .map(|t| self.dict.encode(t.borrow()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        match self.vars.get_mut(v) {
            None => {
                self.vars.insert(v.clone(), ids);
            }
            Some(existing) => {
                let mut merged = Vec::with_capacity(existing.len().min(ids.len()));
                let (mut a, mut b) = (0, 0);
                while a < existing.len() && b < ids.len() {
                    match existing[a].cmp(&ids[b]) {
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                        std::cmp::Ordering::Equal => {
                            merged.push(existing[a]);
                            a += 1;
                            b += 1;
                        }
                    }
                }
                *existing = merged;
            }
        }
    }

    /// [`FoundBindings::update`] with the bound cells of `rel`'s column
    /// `v`, interned straight from the rows.
    fn update_from(&mut self, v: &Variable, rel: &Relation) {
        let column = rel.index_of(v);
        self.update(v, rel.rows().iter().filter_map(|row| row[column?].as_ref()));
    }

    fn contains(&self, v: &Variable) -> bool {
        self.vars.contains_key(v)
    }

    /// The variable a bound join of `sq` binds: the one with the fewest
    /// found bindings among those it mentions.
    fn bind_variable(&self, sq: &Subquery) -> Option<Variable> {
        sq.variables()
            .into_iter()
            .filter(|v| self.contains(v))
            .min_by_key(|v| self.count(v))
    }

    /// Number of bindings for `v`, if any were found.
    fn count(&self, v: &Variable) -> Option<usize> {
        self.vars.get(v).map(Vec::len)
    }

    /// Materialize all bindings of `v` back into terms (id order).
    fn terms(&self, v: &Variable) -> Vec<Term> {
        self.vars.get(v).map_or_else(Vec::new, |ids| {
            ids.iter().map(|&id| self.dict.decode(id).clone()).collect()
        })
    }

    /// Materialize at most `n` bindings of `v` (id order).
    fn sample(&self, v: &Variable, n: usize) -> Vec<Term> {
        self.vars.get(v).map_or_else(Vec::new, |ids| {
            ids.iter()
                .take(n)
                .map(|&id| self.dict.decode(id).clone())
                .collect()
        })
    }
}

/// The delayed subqueries among `remaining` that wait for nothing: each
/// has a bind variable among the found `bindings`, and mentions no
/// variable still unfound that another remaining one projects. Running a
/// sibling first could then only have shrunk a binding set, never offered
/// a better bind variable, so all of them can leave in one wave.
fn ready_set(remaining: &[usize], subqueries: &[Subquery], bindings: &FoundBindings) -> Vec<usize> {
    let waits_for = |i: usize, v: &Variable| {
        !bindings.contains(v)
            && (remaining.iter()).any(|&j| j != i && subqueries[j].projection.contains(v))
    };
    (remaining.iter().copied())
        .filter(|&i| {
            let vars = subqueries[i].variables();
            vars.iter().any(|v| bindings.contains(v)) && !vars.iter().any(|v| waits_for(i, v))
        })
        .collect()
}

/// Split one branch's `schedule` into strands: sub-schedules that run
/// Algorithm 3 each on its own, side by side, so a delayed subquery waits
/// only for the phase-1 results it is bound on. Deterministic, from the
/// estimates in hand:
///
/// * each connected component of the phase-1 subqueries seeds a strand;
/// * a delayed subquery joins the component of the most selective
///   phase-1 subquery whose results it reads (a variable it mentions
///   among that one's projection): its bind component;
/// * delayed subqueries of which one reads what the other projects join
///   each other, so a chain stays whole;
/// * strands that would send to a common endpoint merge.
///
/// The last rule keeps every endpoint's requests in the order a single
/// strand sends them: its phase-1 wave, then its bound rounds, all from
/// one strand. The integrity ledger sees each endpoint's responses in
/// that order, so its learned caps and cross-probes do not move.
///
/// Strands are ordered by their first subquery in the phase-1 wave, then
/// among the delayed; each keeps the schedule's order inside.
fn strands(subqueries: &[Subquery], schedule: &Schedule, cardinalities: &[usize]) -> Vec<Schedule> {
    let members: Vec<usize> = (schedule.non_delayed.iter())
        .chain(&schedule.delayed)
        .copied()
        .collect();
    // `strand[i]`: the subquery whose strand `i` is in so far.
    let mut strand: Vec<usize> = (0..subqueries.len()).collect();
    let mut merge = |a: usize, b: usize| {
        let (from, to) = (strand[a], strand[b]);
        strand
            .iter_mut()
            .filter(|s| **s == from)
            .for_each(|s| *s = to);
    };
    let reads =
        |a: usize, b: usize| (subqueries[b].projection.iter()).any(|v| subqueries[a].mentions(v));
    for component in connected_components(&schedule.non_delayed, subqueries) {
        for pair in component.windows(2) {
            merge(pair[0], pair[1]);
        }
    }
    for (k, &d) in schedule.delayed.iter().enumerate() {
        let bind = (schedule.non_delayed.iter().copied())
            .filter(|&n| reads(d, n))
            .min_by_key(|&n| cardinalities[n]);
        if let Some(n) = bind {
            merge(d, n);
        }
        for &e in &schedule.delayed[k + 1..] {
            if reads(d, e) || reads(e, d) {
                merge(d, e);
            }
        }
    }
    for (k, &a) in members.iter().enumerate() {
        for &b in &members[k + 1..] {
            let sources = &subqueries[b].sources;
            if subqueries[a].sources.iter().any(|ep| sources.contains(ep)) {
                merge(a, b);
            }
        }
    }
    let mut order: Vec<usize> = Vec::new();
    for &i in &members {
        if !order.contains(&strand[i]) {
            order.push(strand[i]);
        }
    }
    let of = |part: &[usize], s: usize| part.iter().copied().filter(|&i| strand[i] == s).collect();
    (order.into_iter())
        .map(|s| Schedule {
            non_delayed: of(&schedule.non_delayed, s),
            delayed: of(&schedule.delayed, s),
        })
        .collect()
}

/// `getMostSelectiveSubq`: the subquery's estimate, tightened by the
/// found-binding counts of any variable it joins on.
fn refined_cardinality(sq: &Subquery, original: usize, bindings: &FoundBindings) -> usize {
    sq.variables()
        .iter()
        .filter_map(|v| bindings.count(v))
        .min()
        .map_or(original, |b| b.min(original))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_federation::{
        CancelReason, CancelToken, Deadline, EndpointError, FaultProfile, FaultyEndpoint,
        NetworkProfile, SimulatedEndpoint, SparqlEndpoint, TrafficSnapshot,
    };
    use lusail_rdf::Graph;
    use lusail_sparql::ast::{Projection, QueryForm, TermPattern};
    use lusail_store::eval::QueryResult;
    use lusail_store::Store;
    use std::sync::Arc;
    use std::time::Duration;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    // ---- wave settlement -------------------------------------------------

    const BLOCK: usize = 100;

    fn d(i: usize) -> Term {
        Term::iri(format!("http://x/d{i:05}"))
    }

    /// `n` subjects with `each` weights apiece, so a `VALUES` block of
    /// [`BLOCK`] subjects answers with exactly `each × BLOCK` rows. One
    /// row per binding is explained by the request; two is the shape that
    /// teaches the ledger a false cap on an honest endpoint.
    fn weights(n: usize, each: usize) -> Store {
        let mut g = Graph::new();
        for i in 0..n {
            for w in 0..each {
                let weight = Term::integer((i * each + w) as i64);
                g.add(d(i), Term::iri("http://x/weight"), weight);
            }
        }
        Store::from_graph(&g)
    }

    /// `?d <http://x/weight> ?w` at endpoint 0.
    fn weight_subquery() -> Subquery {
        Subquery {
            id: 1,
            patterns: vec![TriplePattern::new(
                TermPattern::var("d"),
                TermPattern::iri("http://x/weight"),
                TermPattern::var("w"),
            )],
            filters: vec![],
            sources: vec![0],
            projection: vec![v("d"), v("w")],
        }
    }

    /// What a [`Scripted`] endpoint does to a `COUNT(*)` cross-probe.
    enum OnCount {
        Fail(EndpointError),
        Cancel(CancelToken, CancelReason),
    }

    /// An honest endpoint with a scripted transport: cross-probes can fail
    /// or trip the query's cancel token, and plain responses can carry the
    /// truncation advertisement.
    struct Scripted<E = SimulatedEndpoint> {
        inner: E,
        on_count: Option<OnCount>,
        advertise_truncated: bool,
    }

    impl<E: SparqlEndpoint> SparqlEndpoint for Scripted<E> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn execute_within(
            &self,
            query: &Query,
            deadline: Deadline,
        ) -> Result<QueryResult, EndpointError> {
            let is_count = matches!(
                &query.form,
                QueryForm::Select(s) if matches!(s.projection, Projection::Count { .. })
            );
            match &self.on_count {
                Some(OnCount::Fail(e)) if is_count => Err(e.clone()),
                Some(OnCount::Cancel(token, reason)) if is_count => {
                    token.cancel(*reason);
                    Err(EndpointError::cancelled(self.name(), *reason))
                }
                _ => self.inner.execute_within(query, deadline),
            }
        }
        fn select_with_meta(
            &self,
            query: &Query,
            deadline: Deadline,
        ) -> Result<SelectResponse, EndpointError> {
            Ok(SelectResponse {
                rows: self.select_within(query, deadline)?,
                truncated: self.advertise_truncated,
            })
        }
        fn traffic(&self) -> TrafficSnapshot {
            self.inner.traffic()
        }
        fn reset_traffic(&self) {
            self.inner.reset_traffic()
        }
    }

    /// Everything a [`SapeExecutor`] borrows, owned.
    struct Rig {
        federation: Federation,
        handler: RequestHandler,
        config: LusailConfig,
        ctx: RunContext,
        integrity: IntegrityRegistry,
    }

    impl Rig {
        fn new(endpoint: Arc<dyn SparqlEndpoint>, verify_every_response: bool) -> Self {
            Rig {
                federation: Federation::new(vec![endpoint]),
                handler: RequestHandler::elastic(13),
                config: LusailConfig {
                    bound_block_size: BLOCK,
                    ..LusailConfig::without_cache()
                },
                ctx: RunContext::unbounded(),
                integrity: IntegrityRegistry::new(verify_every_response),
            }
        }

        fn executor(&self) -> SapeExecutor<'_> {
            SapeExecutor {
                federation: &self.federation,
                handler: &self.handler,
                config: &self.config,
                ctx: &self.ctx,
                integrity: &self.integrity,
            }
        }

        /// Bound-join the weight subquery over the first `n` subjects.
        fn bound_join(&self, n: usize) -> Result<Relation, EngineError> {
            let mut bindings = FoundBindings::default();
            bindings.update(&v("d"), (0..n).map(d));
            self.executor()
                .run_bound(&weight_subquery(), "subquery #1", &bindings, None)
        }

        /// Fetch the weight pattern as an `OPTIONAL` / `MINUS` block of a
        /// branch whose required part found the first `n` subjects.
        fn fetch(&self, n: usize) -> Result<Relation, EngineError> {
            let sq = weight_subquery();
            let block = OptionalBlock {
                patterns: sq.patterns,
                filters: vec![],
            };
            let stats = BlockStats {
                sources: vec![sq.sources],
                ..BlockStats::default()
            };
            let required = [TriplePattern::new(
                TermPattern::var("d"),
                TermPattern::iri("http://x/linked"),
                TermPattern::var("l"),
            )];
            let mut rows = Relation::new(vec![v("d")]);
            for i in 0..n {
                rows.push(vec![Some(d(i))]);
            }
            self.executor()
                .fetch_block(&block, &stats, 1, "OPTIONAL block #1", &required, &rows)
        }

        /// Evaluate the weight subquery unbound, in a phase-1 wave, with
        /// `expected` as the analysis probe's count.
        fn phase1(&self, expected: usize) -> Result<Relation, EngineError> {
            let schedule = Schedule {
                non_delayed: vec![0],
                delayed: vec![],
            };
            let expected = [FxHashMap::from_iter([(0, expected)])];
            self.executor()
                .execute(&[weight_subquery()], &schedule, &[0], &[], &expected)
                .map(|outcome| outcome.relation)
        }

        fn requests(&self) -> u64 {
            self.federation.endpoint(0).traffic().requests
        }

        fn snapshot(&self) -> crate::IntegritySnapshot {
            let name = self.federation.endpoint(0).name().to_string();
            self.integrity
                .snapshot()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s)
                .unwrap_or_default()
        }
    }

    fn simulated(n: usize, network: NetworkProfile) -> SimulatedEndpoint {
        SimulatedEndpoint::new("tgt", weights(n, 1), network)
    }

    /// [`simulated`] with two weights per subject.
    fn two_weights(n: usize, network: NetworkProfile) -> SimulatedEndpoint {
        SimulatedEndpoint::new("tgt", weights(n, 2), network)
    }

    /// [`simulated`] behind a silent cap of `cap` rows per response.
    fn capped(inner: SimulatedEndpoint, cap: usize) -> FaultyEndpoint {
        FaultyEndpoint::new(Arc::new(inner), 7, FaultProfile::silent_truncate(cap))
    }

    /// The two roads a `VALUES` block takes into `run_bound`: a delayed
    /// subquery's bound join, and an `OPTIONAL` / `MINUS` block's fetch.
    type BlockPath = fn(&Rig, usize) -> Result<Relation, EngineError>;
    const BLOCK_PATHS: [BlockPath; 2] = [Rig::bound_join, Rig::fetch];

    fn sorted(mut rel: Relation) -> Relation {
        rel.rows_mut().sort();
        rel
    }

    #[test]
    fn cross_probes_of_a_wave_go_out_as_one_wave() {
        // 8 full blocks of two rows per binding from an honest endpoint:
        // the third identical row count teaches a (false) cap, so blocks
        // 3..=8 are cross-probed — in one wave after the bound wave, not
        // six serial round trips behind it.
        let network = NetworkProfile {
            latency: Duration::from_millis(5),
            bytes_per_sec: u64::MAX,
        };
        let rig = Rig::new(Arc::new(two_weights(8 * BLOCK, network)), false);
        let waves = rig.handler.snapshot().waves;
        let rel = rig.bound_join(8 * BLOCK).unwrap();
        assert_eq!(rel.len(), 2 * 8 * BLOCK);
        assert_eq!(rig.requests(), 8 + 6, "8 blocks and 6 probes");
        assert_eq!(rig.snapshot().verifications, 6);
        assert_eq!(rig.snapshot().learned_cap, Some(2 * BLOCK));
        assert_eq!(
            rig.handler.snapshot().waves - waves,
            2,
            "one bound wave, one probe wave"
        );
    }

    #[test]
    fn one_row_per_binding_blocks_cost_an_honest_endpoint_no_probe() {
        // 450 bindings in, 450 rows out, block after block: that is the
        // request explaining its own response, not a cap.
        for path in BLOCK_PATHS {
            let rig = Rig::new(
                Arc::new(simulated(8 * BLOCK, NetworkProfile::instant())),
                false,
            );
            assert_eq!(path(&rig, 8 * BLOCK).unwrap().len(), 8 * BLOCK);
            assert_eq!(rig.requests(), 8, "8 blocks, nothing else");
            assert_eq!(rig.snapshot().verifications, 0);
            assert_eq!(rig.snapshot().learned_cap, None);
        }
    }

    #[test]
    fn an_endpoint_caught_in_a_wave_has_all_its_responses_of_the_wave_verified() {
        // Every one-row-per-binding block comes back cut to 64 rows, which
        // no longer is its binding count. Only the third identical count
        // trips the heuristic; its probe catches the endpoint, and the
        // follow-up wave then verifies blocks 1 and 2 as well, so the
        // whole wave is recovered, not just what came after the catch.
        for path in BLOCK_PATHS {
            let healthy = Rig::new(
                Arc::new(simulated(5 * BLOCK, NetworkProfile::instant())),
                false,
            );
            let faulty = capped(simulated(5 * BLOCK, NetworkProfile::instant()), 64);
            let rig = Rig::new(Arc::new(faulty), false);
            let waves = rig.handler.snapshot().waves;
            let rel = path(&rig, 5 * BLOCK).unwrap();
            assert_eq!(rel.len(), 5 * BLOCK, "every block recovered in full");
            assert_eq!(sorted(rel), sorted(path(&healthy, 5 * BLOCK).unwrap()));
            let snap = rig.snapshot();
            assert_eq!(snap.verifications, 5);
            assert_eq!(snap.truncations_detected, 5);
            assert_eq!(snap.count_divergences, 0);
            assert_eq!(snap.learned_cap, Some(64));
            assert!(rig.integrity.needs_verification("tgt"), "on watch");
            assert_eq!(
                rig.handler.snapshot().waves - waves,
                3 + snap.pages_fetched,
                "bound wave, probe wave, one follow-up wave; each recovery page is a wave of one"
            );
        }
    }

    #[test]
    fn a_cap_equal_to_the_block_length_is_caught_by_its_advertisement_only() {
        // The one case the one-row-per-binding rule gives up: two rows per
        // binding behind a cap of exactly the block length look like one
        // row per binding. By count alone the cut goes unseen ...
        let rig = Rig::new(
            Arc::new(capped(
                two_weights(3 * BLOCK, NetworkProfile::instant()),
                BLOCK,
            )),
            false,
        );
        assert_eq!(rig.bound_join(3 * BLOCK).unwrap().len(), 3 * BLOCK);
        assert_eq!(rig.requests(), 3);
        assert_eq!(rig.snapshot().verifications, 0);
        // ... while a server that says it cut (`X-Lusail-Truncated`) is
        // probed and paged back whatever the count looks like.
        let healthy = Rig::new(
            Arc::new(two_weights(3 * BLOCK, NetworkProfile::instant())),
            false,
        );
        let rig = Rig::new(
            Arc::new(Scripted {
                inner: capped(two_weights(3 * BLOCK, NetworkProfile::instant()), BLOCK),
                on_count: None,
                advertise_truncated: true,
            }),
            false,
        );
        let rel = rig.bound_join(3 * BLOCK).unwrap();
        assert_eq!(rel.len(), 2 * 3 * BLOCK);
        assert_eq!(sorted(rel), sorted(healthy.bound_join(3 * BLOCK).unwrap()));
        let snap = rig.snapshot();
        assert_eq!(snap.verifications, 3);
        assert_eq!(snap.truncations_detected, 3);
        assert_eq!(snap.rows_recovered, 3 * BLOCK as u64);
    }

    #[test]
    fn a_flagged_response_is_probed_whatever_the_analysis_count_says() {
        // The third response of one size trips the row-count heuristic;
        // the analysis count agreeing with it does not stand in for the
        // cross-probe.
        let rig = Rig::new(Arc::new(simulated(BLOCK, NetworkProfile::instant())), false);
        for _ in 0..3 {
            assert_eq!(rig.phase1(BLOCK).unwrap().len(), BLOCK);
        }
        assert_eq!(rig.requests(), 4, "three SELECTs and one cross-probe");
        assert_eq!(rig.snapshot().verifications, 1);
        // An advertised cut is ground truth: probed and paged at once.
        let rig = Rig::new(
            Arc::new(Scripted {
                inner: simulated(BLOCK, NetworkProfile::instant()),
                on_count: None,
                advertise_truncated: true,
            }),
            false,
        );
        assert_eq!(rig.phase1(BLOCK).unwrap().len(), BLOCK);
        let snap = rig.snapshot();
        assert_eq!(snap.verifications, 1);
        assert_eq!(snap.truncations_detected, 1);
    }

    // ---- phase 2: the ready set -------------------------------------------

    /// Forwards to a simulated endpoint and keeps the text of every query.
    struct Logged {
        inner: SimulatedEndpoint,
        sent: std::sync::Mutex<Vec<String>>,
    }

    impl SparqlEndpoint for Logged {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn execute_within(
            &self,
            query: &Query,
            deadline: Deadline,
        ) -> Result<QueryResult, EndpointError> {
            self.sent.lock().unwrap().push(serialize_query(query));
            self.inner.execute_within(query, deadline)
        }
        fn traffic(&self) -> TrafficSnapshot {
            self.inner.traffic()
        }
        fn reset_traffic(&self) {
            self.inner.reset_traffic()
        }
    }

    /// `?{s} <http://x/{p}> ?{o}` at endpoint 0, projecting `projection`.
    fn link(id: usize, s: &str, p: &str, o: &str, projection: &[&str]) -> Subquery {
        Subquery {
            id,
            patterns: vec![TriplePattern::new(
                TermPattern::var(s),
                TermPattern::iri(format!("http://x/{p}")),
                TermPattern::var(o),
            )],
            filters: vec![],
            sources: vec![0],
            projection: projection.iter().map(|n| v(n)).collect(),
        }
    }

    /// 13 subjects with a weight among [`BLOCK`] with a height, a depth
    /// and a pair, behind a request log.
    fn ready_set_rig() -> (Arc<Logged>, Rig) {
        let mut g = Graph::new();
        for i in 0..BLOCK {
            if i < 13 {
                g.add(d(i), Term::iri("http://x/weight"), Term::integer(i as i64));
            }
            for p in ["height", "depth", "pair"] {
                g.add(d(i), Term::iri(format!("http://x/{p}")), d(1000 + i));
            }
        }
        let endpoint = Arc::new(Logged {
            inner: SimulatedEndpoint::new("tgt", Store::from_graph(&g), NetworkProfile::instant()),
            sent: std::sync::Mutex::new(Vec::new()),
        });
        let rig = Rig::new(endpoint.clone(), false);
        (endpoint, rig)
    }

    /// Run `subqueries` with the first up front and the rest delayed, in
    /// the order `delayed`; returns the waves it took and what was sent.
    fn delayed_run(
        subqueries: &[Subquery],
        cardinalities: &[usize],
        delayed: Vec<usize>,
    ) -> (u64, Vec<String>) {
        let (endpoint, rig) = ready_set_rig();
        let schedule = Schedule {
            non_delayed: vec![0],
            delayed,
        };
        let outcome = rig
            .executor()
            .execute(subqueries, &schedule, cardinalities, &[], &[])
            .unwrap();
        assert_eq!(outcome.relation.len(), 13);
        assert_eq!(outcome.delayed_executed, subqueries.len() - 1);
        let sent = endpoint.sent.lock().unwrap().clone();
        (rig.handler.snapshot().waves, sent)
    }

    #[test]
    fn delayed_subqueries_bound_on_the_same_found_variable_leave_in_one_wave() {
        let subqueries = [
            link(0, "d", "weight", "w", &["d", "w"]),
            link(1, "d", "height", "h", &["d", "h"]),
            link(2, "d", "depth", "z", &["d", "z"]),
        ];
        let (waves, mut sent) = delayed_run(&subqueries, &[13, BLOCK, BLOCK], vec![1, 2]);
        assert_eq!(waves, 2, "the phase-1 wave and one bound wave");
        // One after the other they send the same: every found ?d has a
        // height, so the first bound result shrinks nothing for the second.
        let (endpoint, rig) = ready_set_rig();
        let mut bindings = FoundBindings::default();
        bindings.update(&v("d"), (0..13).map(d));
        for sq in &subqueries[1..] {
            let label = format!("subquery #{}", sq.id);
            let rel = rig.executor().run_bound(sq, &label, &bindings, None);
            assert_eq!(rel.unwrap().len(), 13);
        }
        let mut sequential = endpoint.sent.lock().unwrap().clone();
        sequential.push(serialize_query(&subqueries[0].to_query()));
        sent.sort();
        sequential.sort();
        assert_eq!(sent, sequential);
        assert_eq!(sent.iter().filter(|q| q.contains("VALUES")).count(), 2);
    }

    #[test]
    fn a_delayed_subquery_waits_for_the_sibling_that_projects_its_variable() {
        // The pair subquery mentions ?h, which only the height subquery
        // will find: bound on ?d now it could miss the better bind
        // variable. The height subquery waits for nothing.
        let subqueries = [
            link(0, "d", "weight", "w", &["d", "w"]),
            link(1, "d", "height", "h", &["d", "h"]),
            link(2, "d", "pair", "h", &["d"]),
        ];
        let (waves, sent) = delayed_run(&subqueries, &[13, BLOCK, BLOCK], vec![2, 1]);
        assert_eq!(waves, 3, "phase 1, then the two bound waves of a chain");
        assert!(
            sent[1].contains("height") && sent[2].contains("pair"),
            "{sent:#?}"
        );
    }

    #[test]
    fn a_cyclic_wait_falls_back_to_the_most_selective_pick() {
        // Each mentions the unfound ?h the other projects: neither is
        // ready, so the round is the paper's — the most selective one.
        let subqueries = [
            link(0, "d", "weight", "w", &["d", "w"]),
            link(1, "d", "height", "h", &["d", "h"]),
            link(2, "d", "pair", "h", &["d", "h"]),
        ];
        let (waves, sent) = delayed_run(&subqueries, &[13, BLOCK, 5], vec![1, 2]);
        assert_eq!(waves, 3);
        assert!(
            sent[1].contains("pair") && sent[2].contains("height"),
            "{sent:#?}"
        );
        // 13 found ?d against 5 estimated rows: sent as it is.
        assert!(!sent[1].contains("VALUES") && sent[2].contains("VALUES"));
    }

    #[test]
    fn the_found_bindings_join_returns_its_charge() {
        // Two connected phase-1 subqueries and a delayed third: their join
        // is read for its columns and dropped, so under a bounded budget
        // it must not stay in the ledger next to the final join.
        let mut g = Graph::new();
        for i in 0..BLOCK {
            g.add(d(i), Term::iri("http://x/weight"), Term::integer(i as i64));
            g.add(d(i), Term::iri("http://x/height"), Term::integer(i as i64));
            g.add(d(i), Term::iri("http://x/depth"), Term::integer(i as i64));
        }
        let endpoint =
            SimulatedEndpoint::new("tgt", Store::from_graph(&g), NetworkProfile::instant());
        let mut rig = Rig::new(Arc::new(endpoint), false);
        rig.ctx = RunContext::new(&LusailConfig {
            memory_budget: Some(64 << 20),
            ..LusailConfig::without_cache()
        });
        let sq = |id: usize, p: &str, o: &str| Subquery {
            id,
            patterns: vec![TriplePattern::new(
                TermPattern::var("d"),
                TermPattern::iri(format!("http://x/{p}")),
                TermPattern::var(o),
            )],
            filters: vec![],
            sources: vec![0],
            projection: vec![v("d"), v(o)],
        };
        let subqueries = [
            sq(0, "weight", "w"),
            sq(1, "height", "h"),
            sq(2, "depth", "z"),
        ];
        let run = |schedule: Schedule| {
            let before = rig.ctx.memory.used();
            let outcome = rig
                .executor()
                .execute(&subqueries, &schedule, &[0, 0, 0], &[], &[])
                .unwrap();
            assert_eq!(outcome.relation.len(), BLOCK);
            rig.ctx.memory.used() - before
        };
        let undelayed = run(Schedule {
            non_delayed: vec![0, 1, 2],
            delayed: vec![],
        });
        let delayed = run(Schedule {
            non_delayed: vec![0, 1],
            delayed: vec![2],
        });
        assert_eq!(
            delayed, undelayed,
            "the same three partials and one final join stay charged"
        );
    }

    #[test]
    fn phase_one_keeps_bindings_only_for_variables_a_delayed_subquery_mentions() {
        let rig = Rig::new(Arc::new(simulated(1, NetworkProfile::instant())), false);
        let pattern = |s: &str, o: &str| {
            TriplePattern::new(
                TermPattern::var(s),
                TermPattern::iri("http://x/p"),
                TermPattern::var(o),
            )
        };
        let sq = |id: usize, s: &str, o: &str| Subquery {
            id,
            patterns: vec![pattern(s, o)],
            filters: vec![],
            sources: vec![0],
            projection: vec![v(s), v(o)],
        };
        // a–b and b–c join; y–z stands alone; the delayed one reads ?c
        // (and ?q, which nothing has found).
        let subqueries = [
            sq(0, "a", "b"),
            sq(1, "b", "c"),
            sq(2, "y", "z"),
            sq(3, "c", "q"),
        ];
        let schedule = Schedule {
            non_delayed: vec![0, 1, 2],
            delayed: vec![3],
        };
        let pairs = |vars: [&str; 2], rows: std::ops::Range<usize>| {
            let mut rel = Relation::new(vars.iter().map(|n| v(n)).collect());
            for i in rows {
                rel.push(vec![Some(d(i)), Some(d(i))]);
            }
            Some(rel)
        };
        let partials = [
            pairs(["a", "b"], 0..10),
            pairs(["b", "c"], 5..30),
            pairs(["y", "z"], 0..50),
            None,
        ];
        let bindings = rig
            .executor()
            .found_bindings(&subqueries, &schedule, &partials)
            .unwrap();
        let mut kept: Vec<&Variable> = bindings.vars.keys().collect();
        kept.sort();
        assert_eq!(kept, [&v("c")]);
        // ... reduced by the join with a–b, as §4.2 has it.
        assert_eq!(
            sorted_terms(&bindings, &v("c")),
            (5..10).map(d).collect::<Vec<_>>()
        );
        assert_eq!(bindings.dict.len(), 5, "no other column was interned");
        assert_eq!(rig.ctx.memory.used(), 0);

        // Nothing delayed: nothing joined, nothing kept.
        let undelayed = Schedule {
            non_delayed: vec![0, 1, 2, 3],
            delayed: vec![],
        };
        let none = rig
            .executor()
            .found_bindings(&subqueries, &undelayed, &partials)
            .unwrap();
        assert!(none.vars.is_empty());
    }

    #[test]
    fn a_failed_cross_probe_keeps_the_rows_but_a_cancelled_one_aborts() {
        let scripted = |on_count| {
            Arc::new(Scripted {
                inner: simulated(BLOCK, NetworkProfile::instant()),
                on_count: Some(on_count),
                advertise_truncated: false,
            })
        };
        // A skippable failure says nothing about the rows in hand — even
        // under fail-fast they are kept.
        let rig = Rig::new(
            scripted(OnCount::Fail(EndpointError::transport("tgt", "reset"))),
            true,
        );
        assert_eq!(rig.phase1(BLOCK).unwrap().len(), BLOCK);
        assert_eq!(rig.snapshot().verifications, 1);
        assert!(rig.ctx.take_warnings().is_empty());

        let rig = Rig::new(
            scripted(OnCount::Fail(EndpointError::deadline("tgt"))),
            true,
        );
        assert!(matches!(rig.phase1(BLOCK), Err(EngineError::Timeout(_))));

        let token = CancelToken::new();
        let mut rig = Rig::new(
            scripted(OnCount::Cancel(token.clone(), CancelReason::WatchdogReaped)),
            true,
        );
        rig.ctx = RunContext::unbounded().with_cancel(token);
        assert!(matches!(
            rig.phase1(BLOCK),
            Err(EngineError::Cancelled(CancelReason::WatchdogReaped))
        ));
    }

    // ---- blocks, bindings, components -------------------------------------

    /// The cut of earlier versions, ported literally: greedy, by count and
    /// a fixed 4 KiB of bindings. Returns the number of blocks.
    fn parent_cut(sizes: &[usize], max_count: usize) -> usize {
        let (mut blocks, mut len, mut bytes) = (0, 0, 0);
        for &size in sizes {
            if len > 0 && (len >= max_count || bytes + size > 4096) {
                blocks += 1;
                (len, bytes) = (0, 0);
            }
            bytes += size;
            len += 1;
        }
        blocks + usize::from(len > 0)
    }

    #[test]
    fn planned_blocks_fill_the_wave_within_every_limit() {
        // xorshift64*, seeded: the failing draw is in the panic message.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        };
        for draw in 0..4000 {
            let n = below(3000);
            // IRIs of one dataset differ by a few bytes; every fourth draw
            // mixes in terms up to fifty times longer.
            let (base, spread) = (20 + below(100), 1 + below(8));
            let wild = draw % 4 == 3;
            let sizes: Vec<usize> = (0..n)
                .map(|_| match wild && below(10) == 0 {
                    true => base * (1 + below(50)),
                    false => base + below(spread),
                })
                .collect();
            let (sources, width) = (1 + below(13), 1 + below(64));
            let max_count = 1 + below(600);
            let max_bytes = (below(3) > 0).then(|| 512 + below(32 * 1024));
            let blocks = plan_blocks(&sizes, sources, width, max_count, max_bytes);
            let case = format!(
                "draw {draw}: n={n} sources={sources} width={width} max_count={max_count} \
                 max_bytes={max_bytes:?} -> {} blocks",
                blocks.len()
            );

            // Every binding exactly once, in order: the lengths tile 0..n.
            assert_eq!(blocks.iter().sum::<usize>(), n, "{case}");
            assert!(blocks.iter().all(|&len| len > 0), "{case}");
            let mut start = 0;
            for &len in &blocks {
                assert!(len <= max_count, "{case}");
                let bytes: usize = sizes[start..start + len].iter().sum();
                assert!(len == 1 || max_bytes.is_none_or(|b| bytes <= b), "{case}");
                start += len;
            }
            let k = blocks.len();
            let parent = parent_cut(&sizes, max_count);
            if max_bytes.is_none_or(|b| b >= MIN_BLOCK_BYTES) {
                assert!(k <= parent, "{case}: parent cut {parent}");
            }
            let balanced = blocks
                .iter()
                .max()
                .zip(blocks.iter().min())
                .is_none_or(|(max, min)| max - min <= 1);
            match max_bytes {
                // No ceiling: exactly the wave's share, between what the
                // count cap forces and what the parent sent.
                None if n > 0 => {
                    let want = (width / sources).clamp(n.div_ceil(max_count), parent);
                    assert_eq!(k, want, "{case}");
                    assert!(balanced, "{case}");
                }
                None => assert!(blocks.is_empty(), "{case}"),
                // Under a ceiling: balanced, or the greedy cut itself when
                // term lengths are too uneven for the ceiling; one wave
                // unless the ceiling forces more blocks.
                Some(b) => {
                    let greedy = greedy_cut(&sizes, max_count, b.min(MIN_BLOCK_BYTES));
                    assert!(balanced || blocks == greedy, "{case}");
                    assert!(wild || balanced || b < 2 * MIN_BLOCK_BYTES, "{case}");
                    let fewest = n.div_ceil(max_count.min(shortest_fill(&sizes, b)));
                    assert!(
                        k * sources <= width || k == fewest.min(greedy.len()),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_sizing_measures_what_the_serializer_writes() {
        let sq = weight_subquery();
        let bind_var = v("d");
        let terms = [
            d(7),
            Term::bnode("b0"),
            Term::literal("tab\there \"quoted\" back\\slash\nnewline"),
            Term::integer(-42),
            Term::Literal(lusail_rdf::Literal::lang("ünïcödé", "de")),
        ];
        let block: Vec<Vec<Option<Term>>> = terms.iter().map(|t| vec![Some(t.clone())]).collect();
        let size = |q: &Query| serialize_query(q).len();
        let empty = sq.to_bound_query(std::slice::from_ref(&bind_var), &[]);
        let full = sq.to_bound_query(std::slice::from_ref(&bind_var), &block);
        let bindings: usize = terms.iter().map(binding_bytes).sum();
        assert_eq!(size(&full), size(&empty) + bindings);
        // The envelope covers the block's cross-probe and recovery pages.
        let envelope = envelope_bytes(&sq, &bind_var);
        assert!(size(&count_star(&full)) <= envelope + bindings);
        assert!(size(&paged_query(&full, 4096, 1 << 40)) <= envelope + bindings);
    }

    fn sorted_terms(b: &FoundBindings, v: &Variable) -> Vec<Term> {
        let mut terms = b.terms(v);
        terms.sort_unstable();
        terms
    }

    #[test]
    fn found_bindings_intersect() {
        let mut b = FoundBindings::default();
        let t = |i: usize| Term::iri(format!("http://x/{i}"));
        b.update(&v("x"), vec![t(1), t(2), t(3)]);
        b.update(&v("x"), vec![t(2), t(3), t(4)]);
        assert_eq!(sorted_terms(&b, &v("x")), vec![t(2), t(3)]);
        assert_eq!(b.count(&v("x")), Some(2));
        assert!(b.contains(&v("x")));
        assert!(!b.contains(&v("y")));
    }

    #[test]
    fn found_bindings_dedupe_and_sample() {
        let mut b = FoundBindings::default();
        let t = |i: usize| Term::iri(format!("http://x/{i}"));
        // Duplicates and arbitrary order in: deduplicated out.
        b.update(&v("x"), vec![t(3), t(1), t(2), t(1), t(3)]);
        assert_eq!(sorted_terms(&b, &v("x")), vec![t(1), t(2), t(3)]);
        b.update(&v("x"), vec![t(4), t(3), t(3), t(2)]);
        assert_eq!(sorted_terms(&b, &v("x")), vec![t(2), t(3)]);
        // Samples are a prefix of the full binding list.
        let sample = b.sample(&v("x"), 1);
        assert_eq!(sample.len(), 1);
        assert_eq!(sample[0], b.terms(&v("x"))[0]);
        assert!(b.sample(&v("y"), 5).is_empty());
        // Disjoint intersection empties the binding set.
        b.update(&v("x"), vec![t(9)]);
        assert_eq!(b.count(&v("x")), Some(0));
        assert!(b.terms(&v("x")).is_empty());
    }

    #[test]
    fn found_bindings_ids_are_shared_across_variables() {
        // The same term seen through two variables interns once.
        let mut b = FoundBindings::default();
        let t = Term::iri("http://x/shared");
        b.update(&v("x"), vec![t.clone()]);
        b.update(&v("y"), vec![t.clone()]);
        assert_eq!(b.dict.len(), 1);
        assert_eq!(b.terms(&v("x")), b.terms(&v("y")));
    }

    #[test]
    fn components_group_by_shared_projection() {
        let mk = |id: usize, proj: &[&str]| Subquery {
            id,
            patterns: vec![],
            filters: vec![],
            sources: vec![0],
            projection: proj.iter().map(|n| v(n)).collect(),
        };
        let sqs = vec![mk(0, &["a", "b"]), mk(1, &["b", "c"]), mk(2, &["z"])];
        let comps = connected_components(&[0, 1, 2], &sqs);
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = comps.iter().map(|c| c.len()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 2]);
    }

    #[test]
    fn refined_cardinality_uses_smallest_binding() {
        let sq = Subquery {
            id: 0,
            patterns: vec![lusail_sparql::ast::TriplePattern::new(
                lusail_sparql::ast::TermPattern::var("x"),
                lusail_sparql::ast::TermPattern::iri("http://p"),
                lusail_sparql::ast::TermPattern::var("y"),
            )],
            filters: vec![],
            sources: vec![0],
            projection: vec![v("x"), v("y")],
        };
        let mut b = FoundBindings::default();
        b.update(&v("x"), vec![Term::iri("http://1"), Term::iri("http://2")]);
        assert_eq!(refined_cardinality(&sq, 1000, &b), 2);
        assert_eq!(refined_cardinality(&sq, 1, &b), 1);
        let empty = FoundBindings::default();
        assert_eq!(refined_cardinality(&sq, 1000, &empty), 1000);
    }

    // ---- strands ----------------------------------------------------------

    /// A one-pattern subquery at `sources` projecting `vars`: `?a <p{id}>
    /// ?b` over the first two, `?a a <C{id}>` over a single one.
    fn at(id: usize, sources: &[EndpointId], vars: &[&str]) -> Subquery {
        let pattern = match vars {
            [s] => TriplePattern::new(
                TermPattern::var(*s),
                TermPattern::iri(lusail_rdf::vocab::rdf::TYPE),
                TermPattern::iri(format!("http://x/C{id}")),
            ),
            [s, o, ..] => TriplePattern::new(
                TermPattern::var(*s),
                TermPattern::iri(format!("http://x/p{id}")),
                TermPattern::var(*o),
            ),
            [] => unreachable!("a subquery mentions a variable"),
        };
        Subquery {
            id,
            patterns: vec![pattern],
            filters: vec![],
            sources: sources.to_vec(),
            projection: vars.iter().map(|n| v(n)).collect(),
        }
    }

    fn schedule(non_delayed: &[usize], delayed: &[usize]) -> Schedule {
        Schedule {
            non_delayed: non_delayed.to_vec(),
            delayed: delayed.to_vec(),
        }
    }

    /// LargeRDFBench S6: LinkedMDB's directors (ep 9) and DBpedia's
    /// labels (ep 4) up front, the `owl:sameAs` links between them (five
    /// endpoints, DBpedia not among them) delayed.
    fn s6_shape() -> Vec<Subquery> {
        vec![
            at(0, &[9], &["film", "director"]),
            at(1, &[5, 6, 9, 10, 11], &["film", "r"]),
            at(2, &[4], &["r", "label"]),
        ]
    }

    #[test]
    fn an_s6_shaped_schedule_runs_as_two_strands() {
        let parts = strands(&s6_shape(), &schedule(&[0, 2], &[1]), &[110, 414, 400]);
        assert_eq!(parts, [schedule(&[0], &[1]), schedule(&[2], &[])]);
    }

    #[test]
    fn schedules_that_share_an_endpoint_run_as_one_strand() {
        // C7: the two patientRef links (LinkedTCGA-M and -E) delayed, bound
        // on the 13 old patients (LinkedTCGA-A); the expression and beta
        // values sit on the endpoints the links are sent to.
        let c7 = [
            at(0, &[2], &["patient", "age"]),
            at(1, &[0, 1], &["er", "patient"]),
            at(2, &[0, 1], &["mr", "patient"]),
            at(3, &[0], &["mr", "bv"]),
            at(4, &[1], &["er", "ev"]),
        ];
        let plan = schedule(&[0, 3, 4], &[1, 2]);
        let parts = strands(&c7, &plan, &[13, 2000, 2000, 1100, 900]);
        assert_eq!(parts, [plan]);
        // B3: the patientRef link is bound on the genders (LinkedTCGA-A),
        // and shares LinkedTCGA-E with the expression values.
        let b3 = [
            at(0, &[0, 1], &["er", "patient"]),
            at(1, &[1], &["er", "v"]),
            at(2, &[2], &["patient", "gender"]),
        ];
        let plan = schedule(&[1, 2], &[0]);
        assert_eq!(strands(&b3, &plan, &[2000, 876, 60]), [plan]);
    }

    #[test]
    fn a_delayed_chain_stays_one_strand() {
        // ?b is found up front; ?c only by the first delayed subquery,
        // which the second waits for. A disjoint pair runs on its own.
        let subqueries = [
            at(0, &[0], &["a", "b"]),
            at(1, &[1], &["b", "c"]),
            at(2, &[2], &["c", "e"]),
            at(3, &[3], &["y", "z"]),
        ];
        let parts = strands(&subqueries, &schedule(&[0, 3], &[1, 2]), &[5, 50, 60, 7]);
        assert_eq!(parts, [schedule(&[0], &[1, 2]), schedule(&[3], &[])]);
    }

    #[test]
    fn a_delayed_subquery_joins_its_most_selective_bind_component() {
        // S6 with the links at endpoints neither side is at: they run
        // after whichever side is estimated the fewer, which they are
        // bound on; the other side runs on its own.
        let mut subqueries = s6_shape();
        subqueries[1].sources = vec![5, 6];
        let plan = schedule(&[0, 2], &[1]);
        let parts = strands(&subqueries, &plan, &[110, 414, 400]);
        assert_eq!(parts, [schedule(&[0], &[1]), schedule(&[2], &[])]);
        let parts = strands(&subqueries, &plan, &[500, 414, 400]);
        assert_eq!(parts, [schedule(&[0], &[]), schedule(&[2], &[1])]);
        // A tie goes to the first in the phase-1 wave.
        let parts = strands(&subqueries, &plan, &[400, 414, 400]);
        assert_eq!(parts, [schedule(&[0], &[1]), schedule(&[2], &[])]);
    }

    /// Holds every request until a request with a `VALUES` block reaches
    /// the endpoint opening the gate, or for five seconds at most.
    struct Gate {
        open: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
        /// Whether a held request was let go by the ceiling, not the gate.
        timed_out: std::sync::atomic::AtomicBool,
    }

    /// An endpoint on one side of a [`Gate`]: it holds its requests there,
    /// or opens it with a bound-join request.
    struct Gated {
        inner: Logged,
        gate: Arc<Gate>,
        holds: bool,
    }

    impl SparqlEndpoint for Gated {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn execute_within(
            &self,
            query: &Query,
            deadline: Deadline,
        ) -> Result<QueryResult, EndpointError> {
            let gate = &self.gate;
            if self.holds {
                let open = gate.open.lock().unwrap();
                let (open, wait) = gate
                    .opened
                    .wait_timeout_while(open, Duration::from_secs(5), |open| !*open)
                    .unwrap();
                drop(open);
                if wait.timed_out() {
                    gate.timed_out
                        .store(true, std::sync::atomic::Ordering::SeqCst);
                }
            } else if serialize_query(query).contains("VALUES") {
                *gate.open.lock().unwrap() = true;
                gate.opened.notify_all();
            }
            self.inner.execute_within(query, deadline)
        }
        fn traffic(&self) -> TrafficSnapshot {
            self.inner.traffic()
        }
        fn reset_traffic(&self) {
            self.inner.reset_traffic()
        }
    }

    /// 13 weights and [`BLOCK`] heights at endpoint 0, two pairs at
    /// `pairs_at`; endpoint 1 holds its requests at a gate that a bound
    /// join at endpoint 0 opens. The weights and the pairs run up front,
    /// the heights bound on the weights.
    fn gated_run(pairs_at: EndpointId) -> (SapeOutcome, Arc<Gated>, Arc<Gated>) {
        let (mut fast, mut slow) = (Graph::new(), Graph::new());
        for i in 0..BLOCK {
            if i < 13 {
                fast.add(d(i), Term::iri("http://x/weight"), Term::integer(i as i64));
            }
            fast.add(d(i), Term::iri("http://x/height"), d(1000 + i));
        }
        for i in 0..2 {
            let at = if pairs_at == 0 { &mut fast } else { &mut slow };
            at.add(d(i), Term::iri("http://x/pair"), d(2000 + i));
        }
        let gate = Arc::new(Gate {
            open: std::sync::Mutex::new(false),
            opened: std::sync::Condvar::new(),
            timed_out: std::sync::atomic::AtomicBool::new(false),
        });
        let gated = |name: &str, g: &Graph, holds| {
            Arc::new(Gated {
                inner: Logged {
                    inner: SimulatedEndpoint::new(
                        name,
                        Store::from_graph(g),
                        NetworkProfile::instant(),
                    ),
                    sent: std::sync::Mutex::new(Vec::new()),
                },
                gate: gate.clone(),
                holds,
            })
        };
        let (fast, slow) = (gated("fast", &fast, false), gated("slow", &slow, true));
        let rig = Rig {
            federation: Federation::new(vec![fast.clone(), slow.clone()]),
            ..Rig::new(fast.clone(), false)
        };
        let mut subqueries = vec![
            link(0, "d", "weight", "w", &["d", "w"]),
            link(1, "d", "height", "h", &["d", "h"]),
            link(2, "p", "pair", "q", &["p", "q"]),
        ];
        subqueries[2].sources = vec![pairs_at];
        let outcome = rig
            .executor()
            .execute(
                &subqueries,
                &schedule(&[0, 2], &[1]),
                &[13, BLOCK, 2],
                &[],
                &[],
            )
            .unwrap();
        assert_eq!(
            outcome.relation.len(),
            13 * 2,
            "13 weighed heights × 2 pairs"
        );
        assert_eq!(outcome.delayed_executed, 1);
        (outcome, fast, slow)
    }

    #[test]
    fn a_bound_join_does_not_wait_for_a_phase_one_result_it_does_not_read() {
        // The pairs, at endpoint 1, are held until endpoint 0 has the
        // heights' VALUES block: under one barrier wave that block would
        // wait for the pairs, and the gate would give up after 5 s.
        let (outcome, fast, slow) = gated_run(1);
        assert!(
            !slow
                .gate
                .timed_out
                .load(std::sync::atomic::Ordering::SeqCst),
            "the bound join waited for the pairs"
        );
        assert_eq!(outcome.strands, 2);
        assert_eq!(slow.inner.sent.lock().unwrap().len(), 1);
        let sent = fast.inner.sent.lock().unwrap();
        assert_eq!(sent.iter().filter(|q| q.contains("VALUES")).count(), 1);
    }

    #[test]
    fn subqueries_at_a_shared_endpoint_stay_one_strand_in_phase_order() {
        // The same schedule with the pairs at endpoint 0: one strand, and
        // endpoint 0 is sent both phase-1 selects before the bound block.
        let (outcome, fast, slow) = gated_run(0);
        assert_eq!(outcome.strands, 1);
        assert!(slow.inner.sent.lock().unwrap().is_empty());
        let sent = fast.inner.sent.lock().unwrap();
        assert_eq!(sent.len(), 3, "{sent:#?}");
        assert!(
            sent[2].contains("VALUES") && sent[2].contains("height"),
            "{sent:#?}"
        );
        assert!(sent[..2].iter().all(|q| !q.contains("VALUES")), "{sent:#?}");
    }
}
