//! Result integrity: whether a response is trusted, verified, paged back or
//! counted as a strike against its endpoint, decided in one place.
//!
//! Public SPARQL endpoints routinely cap result sets (DBpedia's 10 000-row
//! limit is the canonical example) and misreport `COUNT`s while answering
//! `200 OK`, so a federated join silently computes over a prefix. The
//! breaker/partial/budget machinery defends against endpoints that *fail*;
//! this module defends against endpoints that *lie*. It has three parts.
//!
//! The **ledger**, [`IntegrityRegistry`], tracks per endpoint name, across
//! every query of an engine:
//!
//! * a **learned cap** — the same exact row count repeated across plain
//!   `SELECT` responses, the classic truncation tell. A `VALUES`-block
//!   response with exactly one row per binding sent is *explained* by the
//!   request: it teaches no cap, is never flagged by its count, and ends
//!   the run of equal counts before it;
//! * a **watch flag** — once an endpoint has been caught truncating, all
//!   its subsequent responses are verified. With `verify_every_response`
//!   every response of every endpoint is;
//! * **divergence strikes** — a verification whose `COUNT` claim cannot
//!   be reconciled with the rows actually deliverable (even after
//!   exhaustive paging) is a strike; enough strikes put the endpoint in
//!   quarantine, enough clean verifications take it out again. The ledger
//!   marks the endpoint itself
//!   ([`SparqlEndpoint::set_quarantined`]), which demotes it in replica
//!   ranking.
//!
//! The **settle path**, [`IntegrityRegistry::settle`], takes one wave's
//! responses: it decides per response whether to cross-check it against a
//! `COUNT(*)` probe, sends the probes of the wave as one wave, and
//! reconciles each claim with the rows in hand — paging the whole result
//! back through deterministic `ORDER BY` + `LIMIT/OFFSET` windows when the
//! endpoint cut it short.
//!
//! The **builders**, [`count_star`] and [`paged_query`], rewrite the query
//! a response answered into its probe and its pages; [`merge_pages`] puts
//! the pages back together.

use crate::config::ResultPolicy;
use crate::error::EngineError;
use crate::run::{ExecutionWarning, RunContext};
use lusail_federation::json::Json;
use lusail_federation::{
    EndpointError, EndpointId, FailureKind, Federation, RequestHandler, SelectResponse,
    SparqlEndpoint,
};
use lusail_rdf::fxhash::{FxHashMap, FxHashSet};
use lusail_sparql::ast::{Projection, Query, QueryForm, Variable};
use lusail_sparql::solution::Relation;
use std::sync::Mutex;

/// Consecutive plain-`SELECT` responses with the same exact row count (at
/// or above [`LEARNED_CAP_FLOOR`]) before that count is taken for the
/// endpoint's silent cap.
const REPEAT_THRESHOLD: u32 = 3;
/// Row counts below this never teach a cap: small results legitimately
/// repeat.
const LEARNED_CAP_FLOOR: usize = 64;
/// Divergence strikes before the endpoint enters quarantine.
const QUARANTINE_AFTER: u32 = 2;
/// Consecutive clean verifications that take it out again.
const REHABILITATE_AFTER: u32 = 3;
/// Hard cap on the recovery pages fetched for one response.
const MAX_PAGES: usize = 512;

/// The variable our verification `COUNT(*)` probes project, matching the
/// cardinality probes in [`crate::sape::estimate`].
const COUNT_VAR: &str = "lusail_c";

/// Point-in-time counters for one endpoint (the `integrity` stats section).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntegritySnapshot {
    /// `COUNT(*)` verification probes issued for this endpoint.
    pub verifications: u64,
    /// Responses confirmed truncated (advertised or claim > delivered).
    pub truncations_detected: u64,
    /// Recovery pages fetched.
    pub pages_fetched: u64,
    /// Rows recovered by paging beyond the originally delivered prefix.
    pub rows_recovered: u64,
    /// Verifications whose claim could not be reconciled with the rows
    /// deliverable even after paging.
    pub count_divergences: u64,
    /// Times the endpoint entered quarantine.
    pub quarantine_entries: u64,
    /// Times the endpoint was rehabilitated out of quarantine.
    pub quarantine_exits: u64,
    /// Whether the endpoint is quarantined right now.
    pub quarantined: bool,
    /// The silent cap learned from repeated exact-N responses, if any.
    pub learned_cap: Option<usize>,
}

impl IntegritySnapshot {
    /// One endpoint's row of the `integrity` stats section.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("verifications", self.verifications.into()),
            ("truncations_detected", self.truncations_detected.into()),
            ("pages_fetched", self.pages_fetched.into()),
            ("rows_recovered", self.rows_recovered.into()),
            ("count_divergences", self.count_divergences.into()),
            ("quarantine_entries", self.quarantine_entries.into()),
            ("quarantine_exits", self.quarantine_exits.into()),
            ("quarantined", self.quarantined.into()),
            ("learned_cap", self.learned_cap.into()),
        ])
    }
}

#[derive(Debug, Default)]
struct EndpointIntegrity {
    snapshot: IntegritySnapshot,
    /// (row count, consecutive occurrences) for cap learning.
    repeat: Option<(usize, u32)>,
    /// Verify every response from this endpoint (set after the first
    /// confirmed truncation or divergence).
    watch: bool,
    strikes: u32,
    clean_streak: u32,
}

/// Per-endpoint integrity state, keyed by endpoint name. Shared by the
/// engine across queries — caps and quarantine are properties of the
/// endpoint, not of any one query.
#[derive(Debug, Default)]
pub struct IntegrityRegistry {
    /// Cross-check every response against a `COUNT(*)` probe, not only
    /// the suspicious ones ([`crate::LusailConfig::verify_every_response`]).
    verify_every_response: bool,
    endpoints: Mutex<FxHashMap<String, EndpointIntegrity>>,
}

impl IntegrityRegistry {
    /// An empty ledger; `verify_every_response` as in [`crate::LusailConfig`].
    pub fn new(verify_every_response: bool) -> Self {
        IntegrityRegistry {
            verify_every_response,
            endpoints: Mutex::default(),
        }
    }

    fn with<T>(&self, endpoint: &str, f: impl FnOnce(&mut EndpointIntegrity) -> T) -> T {
        let mut map = self.endpoints.lock().expect("integrity registry poisoned");
        // Look up by `&str` first: the name is only allocated the first
        // time an endpoint is seen, not on every call.
        if let Some(entry) = map.get_mut(endpoint) {
            return f(entry);
        }
        f(map.entry(endpoint.to_string()).or_default())
    }

    /// Record the row count of an unpaged plain-`SELECT` response — and,
    /// for a `VALUES`-block request, how many `bindings` it carried — and
    /// report whether the cheap heuristic finds it suspicious: it is the
    /// [`REPEAT_THRESHOLD`]-th consecutive response with this exact count,
    /// or it matches the cap learned that way.
    ///
    /// One row per binding is what a full block returns from an honest
    /// endpoint whenever the bound pattern has one match per binding, so
    /// such a response is explained by its request: never suspicious,
    /// never part of a run, and — like a different count at or above the
    /// floor — the end of the run before it. A cap below the block length
    /// still shows as `rows != bindings`, block after block.
    pub fn observe_rows(&self, endpoint: &str, rows: usize, bindings: Option<usize>) -> bool {
        self.with(endpoint, |e| {
            if bindings == Some(rows) {
                e.repeat = None;
                return false;
            }
            if rows >= LEARNED_CAP_FLOOR {
                let run = match e.repeat {
                    Some((n, k)) if n == rows => k + 1,
                    _ => 1,
                };
                e.repeat = Some((rows, run));
                if run >= REPEAT_THRESHOLD {
                    e.snapshot.learned_cap = Some(rows);
                }
            }
            e.snapshot.learned_cap == Some(rows)
        })
    }

    /// Whether this endpoint's responses must be `COUNT`-verified
    /// regardless of the cheap heuristics: quarantined, watched, or every
    /// response is.
    pub(crate) fn needs_verification(&self, endpoint: &str) -> bool {
        self.with(endpoint, |e| {
            e.snapshot.quarantined || e.watch || self.verify_every_response
        })
    }

    /// Count one verification probe issued.
    fn record_verification(&self, endpoint: &str) {
        self.with(endpoint, |e| e.snapshot.verifications += 1);
    }

    /// A verification reconciled: claim matched delivery. Inside
    /// quarantine it advances the rehabilitation streak, and the streak's
    /// end takes the endpoint out.
    fn record_clean(&self, endpoint: &dyn SparqlEndpoint) {
        let exited = self.with(endpoint.name(), |e| {
            e.clean_streak = e.clean_streak.saturating_add(1);
            let exit = e.snapshot.quarantined && e.clean_streak >= REHABILITATE_AFTER;
            if exit {
                e.snapshot.quarantined = false;
                e.snapshot.quarantine_exits += 1;
                e.strikes = 0;
            }
            exit
        });
        if exited {
            endpoint.set_quarantined(false);
        }
    }

    /// A response was confirmed truncated (advertised by the server or
    /// `COUNT` claim above delivery). Puts the endpoint on watch.
    fn record_truncation(&self, endpoint: &str) {
        self.with(endpoint, |e| {
            e.snapshot.truncations_detected += 1;
            e.watch = true;
            e.clean_streak = 0;
        });
    }

    /// Recovery paging fetched `pages` pages and recovered `rows` rows
    /// beyond the originally delivered prefix.
    fn record_recovery(&self, endpoint: &str, pages: u64, rows: u64) {
        self.with(endpoint, |e| {
            e.snapshot.pages_fetched += pages;
            e.snapshot.rows_recovered += rows;
        });
    }

    /// A verification could not be reconciled: the rows obtainable, even
    /// after paging, are not the rows the endpoint claimed. One strike;
    /// enough strikes put the endpoint in quarantine.
    fn record_divergence(&self, endpoint: &dyn SparqlEndpoint) {
        let entered = self.with(endpoint.name(), |e| {
            e.snapshot.count_divergences += 1;
            e.strikes = e.strikes.saturating_add(1);
            e.clean_streak = 0;
            e.watch = true;
            let enter = !e.snapshot.quarantined && e.strikes >= QUARANTINE_AFTER;
            if enter {
                e.snapshot.quarantined = true;
                e.snapshot.quarantine_entries += 1;
            }
            enter
        });
        if entered {
            endpoint.set_quarantined(true);
        }
    }

    pub fn is_quarantined(&self, endpoint: &str) -> bool {
        self.with(endpoint, |e| e.snapshot.quarantined)
    }

    /// All endpoints with any integrity activity, sorted by name: the
    /// stats surfaces omit the rest.
    pub fn snapshot(&self) -> Vec<(String, IntegritySnapshot)> {
        let map = self.endpoints.lock().expect("integrity registry poisoned");
        let mut out: Vec<(String, IntegritySnapshot)> = map
            .iter()
            .filter(|(_, e)| e.snapshot != IntegritySnapshot::default())
            .map(|(name, e)| (name.clone(), e.snapshot.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Settle one wave of responses, in submission order: `responses` are
    /// the wave's results as absorbed under the result policy (each with
    /// whether it is a skipped endpoint's substituted default), parallel to
    /// `wave`. Yields the rows to admit for each request, in order.
    ///
    /// Every response is first *decided* against the ledger, in submission
    /// order, so the ledger sees the same row counts in the same order
    /// whatever the thread schedule was. The `COUNT(*)` cross-probes of all
    /// responses that need one then go out as one wave. The claims are
    /// reconciled — and paged back where short — one response at a time as
    /// the caller pulls them, so each recovery sees the memory the rows
    /// before it were admitted into.
    pub(crate) fn settle<'a, R: Sent + Sync>(
        &'a self,
        federation: &'a Federation,
        handler: &'a RequestHandler,
        ctx: &'a RunContext,
        wave: &'a [R],
        responses: impl IntoIterator<Item = Result<(SelectResponse, bool), EngineError>>,
    ) -> Result<impl Iterator<Item = Result<Relation, EngineError>> + 'a, EngineError> {
        let settle = Settle {
            ledger: self,
            federation,
            handler,
            ctx,
        };
        let mut kept = Vec::with_capacity(wave.len());
        let mut checks = Vec::with_capacity(wave.len());
        for (req, response) in wave.iter().zip(responses) {
            let (resp, degraded) = response?;
            checks.push(if degraded {
                Check::Skip
            } else {
                settle.decide(req, &resp)
            });
            kept.push(resp);
        }

        settle.cross_probe(wave, &mut checks)?;
        // A claim that does not reconcile puts its endpoint on watch, and
        // a watched endpoint has every response verified: that holds for
        // its other responses of this wave too, in one follow-up wave.
        let unreconciled =
            |k: &usize| matches!(&checks[*k], Check::Claimed(Ok(n)) if !reconciles(&kept[*k], *n));
        let caught: FxHashSet<EndpointId> = (0..wave.len())
            .filter(unreconciled)
            .map(|k| wave[k].endpoint())
            .collect();
        if !caught.is_empty() {
            for (req, check) in wave.iter().zip(&mut checks) {
                if matches!(check, Check::Trusted) && caught.contains(&req.endpoint()) {
                    *check = Check::Probe;
                }
            }
            settle.cross_probe(wave, &mut checks)?;
        }

        let settled = wave.iter().zip(kept).zip(checks);
        Ok(settled.map(move |((req, resp), check)| match check {
            Check::Skip | Check::Trusted => Ok(resp.rows),
            // A failed probe says nothing about the rows already in hand:
            // keep them rather than discard good data over a flaky probe.
            // One the query's own budget cut short is not that: it ends
            // the query, through `absorb`.
            Check::Claimed(Err(e))
                if !matches!(e.kind, FailureKind::Deadline | FailureKind::Cancelled) =>
            {
                Ok(resp.rows)
            }
            Check::Claimed(claim) => {
                let claimed = ctx.absorb(req.label(), 0, claim)?;
                settle.reconcile(req, resp, claimed)
            }
            Check::Probe => unreachable!("every due probe was sent"),
        }))
    }
}

/// One request of a wave, as the settle path sees it.
pub(crate) trait Sent {
    /// Where it was sent.
    fn endpoint(&self) -> EndpointId;
    /// How warnings and errors name what it asked for.
    fn label(&self) -> &str;
    /// How many `VALUES` bindings it carried, for a bound-join block.
    fn bindings(&self) -> Option<usize>;
    /// The row count the analysis probe measured for this very query at
    /// this endpoint, when it measured one.
    fn expected(&self) -> Option<usize>;
    /// The query it sent, rebuilt: the base of its `COUNT(*)` cross-probe
    /// and recovery pages, so it is built only for a response that needs
    /// one.
    fn query(&self) -> Query;
}

/// How one response of a wave is cross-checked against the endpoint's
/// own count.
enum Check {
    /// A skipped endpoint's substituted default: nothing to check.
    Skip,
    /// No integrity signal fired.
    Trusted,
    /// Needs a `COUNT(*)` cross-probe that has not been sent yet.
    Probe,
    /// The cross-probe's outcome.
    Claimed(Result<usize, EndpointError>),
}

/// Does the endpoint's `claimed` row count account for the response as
/// delivered? Anything else — an advertised cut, or a count off either
/// way — puts the endpoint on watch.
fn reconciles(resp: &SelectResponse, claimed: usize) -> bool {
    !resp.truncated && claimed == resp.rows.len()
}

/// What one [`IntegrityRegistry::settle`] works with.
struct Settle<'a> {
    ledger: &'a IntegrityRegistry,
    federation: &'a Federation,
    handler: &'a RequestHandler,
    ctx: &'a RunContext,
}

impl Settle<'_> {
    fn endpoint(&self, ep: EndpointId) -> &dyn SparqlEndpoint {
        self.federation.endpoint(ep).as_ref()
    }

    /// Decide whether one plain-`SELECT` response is cross-checked
    /// against a `COUNT(*)` probe. Feeds the row count, and the length of
    /// the block it answers, to the ledger's cap-learning heuristic.
    fn decide(&self, req: &impl Sent, resp: &SelectResponse) -> Check {
        let name = self.endpoint(req.endpoint()).name();
        let delivered = resp.rows.len();
        let suspicious = self.ledger.observe_rows(name, delivered, req.bindings());
        if suspicious
            || resp.truncated
            || self.ledger.needs_verification(name)
            || req.expected().is_some_and(|rows| rows > delivered)
        {
            Check::Probe
        } else {
            Check::Trusted
        }
    }

    /// Send the `COUNT(*)` cross-probe of every response still marked
    /// [`Check::Probe`] as one wave and store the claims.
    fn cross_probe<R: Sent + Sync>(
        &self,
        wave: &[R],
        checks: &mut [Check],
    ) -> Result<(), EngineError> {
        let due: Vec<usize> = (0..checks.len())
            .filter(|&k| matches!(checks[k], Check::Probe))
            .collect();
        if due.is_empty() {
            return Ok(());
        }
        let count = |k: usize, deadline| {
            let endpoint = self.endpoint(wave[k].endpoint());
            endpoint.count_within(&count_star(&wave[k].query()), deadline)
        };
        let claims = self
            .ctx
            .dispatch(self.handler, "integrity probe", due.clone(), count)?;
        for (k, claim) in due.into_iter().zip(claims) {
            let name = self.endpoint(wave[k].endpoint()).name();
            self.ledger.record_verification(name);
            checks[k] = Check::Claimed(claim);
        }
        Ok(())
    }

    /// Reconcile the endpoint's `claimed` row count with the rows it
    /// delivered, transparently re-fetching the complete result via
    /// deterministic paging when the endpoint cut it short.
    fn reconcile(
        &self,
        req: &impl Sent,
        resp: SelectResponse,
        claimed: usize,
    ) -> Result<Relation, EngineError> {
        let endpoint = self.endpoint(req.endpoint());
        if reconciles(&resp, claimed) {
            self.ledger.record_clean(endpoint);
            Ok(resp.rows)
        } else if claimed < resp.rows.len() {
            // The endpoint *under*-claims — more rows than its own COUNT
            // admits to (the result-bomb shape). There is nothing to page
            // for, and the row-cap/memory-budget defenses own oversized
            // responses; record the strike silently so repeated
            // under-claiming still quarantines, and hand the rows to the
            // admission layer to police.
            self.ledger.record_divergence(endpoint);
            Ok(resp.rows)
        } else {
            self.recover_paged(req.label(), endpoint, &req.query(), resp, claimed)
        }
    }

    /// The response was confirmed truncated (`claimed > delivered`, or
    /// the server advertised the cut): re-fetch the complete result from
    /// offset 0 via deterministic `ORDER BY`+`LIMIT/OFFSET` paging,
    /// adapting the page size to the memory budget and stopping on the
    /// deadline, an empty page, the claimed total, or the page cap.
    fn recover_paged(
        &self,
        what: &str,
        endpoint: &dyn SparqlEndpoint,
        base: &Query,
        resp: SelectResponse,
        claimed: usize,
    ) -> Result<Relation, EngineError> {
        let (ctx, ledger) = (self.ctx, self.ledger);
        let name = endpoint.name();
        let delivered = resp.rows.len();
        ledger.record_truncation(name);

        let mut limit = initial_limit(delivered);
        let mut offset = 0usize;
        let mut pages: Vec<(usize, Relation)> = Vec::new();
        let mut fetched: u64 = 0;
        let mut merged_rows = 0usize;
        let mut page_bytes = 0usize;
        // Why paging stopped short of the claim, if it did.
        let mut stopped: Option<&'static str> = None;
        let mut exhausted = false;
        while merged_rows < claimed {
            if fetched as usize >= MAX_PAGES {
                stopped = Some("page cap reached");
                break;
            }
            // Under --partial, recovery may claim at most half of the
            // remaining budget — mirroring admit_relation's headroom rule
            // — so a huge reconstruction degrades itself, not the query.
            if ctx.policy == ResultPolicy::Partial
                && ctx.memory.is_bounded()
                && page_bytes > ctx.memory.remaining() / 2
            {
                stopped = Some("memory budget exhausted");
                break;
            }
            let pq = paged_query(base, limit, offset);
            let select = |(), deadline| endpoint.select_within(&pq, deadline);
            let sent = ctx.dispatch(self.handler, "recovery page", vec![()], select)?;
            let page = match sent.into_iter().next().expect("one page was sent") {
                Err(e) if ctx.policy == ResultPolicy::Partial && e.is_skippable() => {
                    stopped = Some("endpoint became unreachable");
                    break;
                }
                settled => ctx.absorb(what, Relation::default(), settled)?,
            };
            fetched += 1;
            let got = page.len();
            page_bytes += page.wire_size();
            if fetched == 1 {
                let budget = ctx.memory.is_bounded().then(|| ctx.memory.remaining());
                limit = adaptive_limit(limit, got, page_bytes, budget);
            }
            merged_rows += got;
            pages.push((offset, page));
            offset += got;
            if got == 0 {
                exhausted = true;
                break;
            }
        }

        let merged = merge_pages(resp.rows.vars().to_vec(), pages);
        let recovered = merged.len().saturating_sub(delivered) as u64;
        ledger.record_recovery(name, fetched, recovered);
        if merged.len() >= claimed {
            // Fully reconstructed: the endpoint cut the rows but told the
            // truth about its count — the verification reconciled.
            ledger.record_clean(endpoint);
            return Ok(merged);
        }
        // Keep whichever of the reconstruction and the original prefix
        // carries more rows.
        let best = if merged.len() >= delivered {
            merged
        } else {
            resp.rows
        };
        let message = if exhausted {
            // The endpoint has no more rows to give: the claim was a lie.
            ledger.record_divergence(endpoint);
            let standing = if ledger.is_quarantined(name) {
                "endpoint quarantined"
            } else {
                "divergence recorded"
            };
            format!(
                "integrity: endpoint claimed {claimed} rows but delivered {}; {standing}",
                best.len()
            )
        } else {
            // We stopped for our own reasons (budget, page cap, outage) —
            // not the endpoint's fault, so no strike — but the result is
            // known incomplete.
            format!(
                "integrity: recovery of a truncated result stopped after {fetched} pages \
                 ({} of {claimed} claimed rows): {}",
                best.len(),
                stopped.unwrap_or("stopped early"),
            )
        };
        // A structured integrity error under fail-fast, a non-skippable
        // warning under `--partial` — either way naming the endpoint.
        match ctx.policy {
            ResultPolicy::FailFast => Err(EngineError::Endpoint(EndpointError::integrity(
                name, message,
            ))),
            ResultPolicy::Partial => {
                ctx.warn(ExecutionWarning {
                    endpoint: name.to_string(),
                    subquery: what.to_string(),
                    message,
                });
                Ok(best)
            }
        }
    }
}

/// One page window of `base`: the same query with `ORDER BY` over all its
/// projected variables (ascending, unless the query already orders) and
/// the given `LIMIT`/`OFFSET`. Ordering by *every* projected variable
/// makes the sort key total over projected rows — any two rows that tie
/// on all keys are identical projections, so arbitrary tie-breaking at
/// the endpoint cannot move a row across a page boundary.
pub fn paged_query(base: &Query, limit: usize, offset: usize) -> Query {
    let mut q = base.clone();
    if let QueryForm::Select(s) = &mut q.form {
        if s.order_by.is_empty() {
            s.order_by = s
                .projected_variables()
                .into_iter()
                .map(|v| (v, true))
                .collect();
        }
        s.limit = Some(limit);
        s.offset = Some(offset);
    }
    q
}

/// The verification probe for `base`: the same pattern (including any
/// `VALUES` block of a bound subquery) with the projection replaced by
/// `COUNT(*)` and solution modifiers dropped. Under bag semantics the
/// count equals the row count of the unpaged `SELECT`, so a claim above
/// the delivered rows is evidence of truncation.
pub fn count_star(base: &Query) -> Query {
    let mut q = base.clone();
    if let QueryForm::Select(s) = &mut q.form {
        s.projection = Projection::Count {
            inner: None,
            distinct: s.distinct,
            as_var: Variable::new(COUNT_VAR),
        };
        s.distinct = false;
        s.order_by.clear();
        s.limit = None;
        s.offset = None;
    }
    q
}

/// The first page's `LIMIT`, sized from the rows the endpoint already
/// delivered: the observed count is the best available estimate of the
/// endpoint's silent cap, and requests at or under a silent cap pass
/// through it unharmed.
fn initial_limit(observed: usize) -> usize {
    if observed == 0 {
        256
    } else {
        observed.clamp(16, 4096)
    }
}

/// Adapt the page `LIMIT` after the first page: target a page that fits
/// in a quarter of the remaining memory budget (`None` = unbounded, keep
/// the current limit), floored at 16 rows so progress never stalls.
fn adaptive_limit(
    current: usize,
    page_rows: usize,
    page_bytes: usize,
    remaining_budget: Option<usize>,
) -> usize {
    let Some(remaining) = remaining_budget else {
        return current;
    };
    if page_rows == 0 || page_bytes == 0 {
        return current;
    }
    let per_row = (page_bytes / page_rows).max(1);
    ((remaining / 4) / per_row).clamp(16, 4096)
}

/// Merge fetched pages, each tagged with the `OFFSET` it was requested
/// at, into one relation. Overlapping windows (a re-fetched or
/// double-covered offset range) are deduplicated *by offset arithmetic*,
/// not by row content: rows falling in an already-covered range are
/// dropped, so legitimate duplicate rows in a bag result survive intact.
pub fn merge_pages(vars: Vec<Variable>, mut pages: Vec<(usize, Relation)>) -> Relation {
    pages.sort_by_key(|(offset, _)| *offset);
    let mut out = Relation::new(vars);
    let mut covered = 0usize;
    for (offset, mut page) in pages {
        let len = page.len();
        let skip = covered.saturating_sub(offset).min(len);
        page.rows_mut().drain(..skip);
        out.append(page);
        covered = covered.max(offset + len);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_federation::{NetworkProfile, SimulatedEndpoint};
    use lusail_rdf::{Graph, Term};
    use lusail_sparql::ast::{GraphPattern, SelectQuery, TermPattern, TriplePattern};
    use lusail_sparql::parse_query;
    use lusail_sparql::serializer::serialize_query;
    use lusail_store::Store;

    // ---- the ledger --------------------------------------------------------

    /// An empty endpoint named `name`, with a health registry to mark.
    fn endpoint(name: &str) -> SimulatedEndpoint {
        SimulatedEndpoint::new(
            name,
            Store::from_graph(&Graph::new()),
            NetworkProfile::instant(),
        )
    }

    /// Whether the ledger marked the endpoint itself quarantined.
    fn marked(ep: &SimulatedEndpoint) -> bool {
        ep.health().expect("a health registry").quarantined
    }

    fn learned_cap(reg: &IntegrityRegistry, name: &str) -> Option<usize> {
        let snapshot = reg.snapshot().into_iter().find(|(n, _)| n == name);
        snapshot.and_then(|(_, s)| s.learned_cap)
    }

    #[test]
    fn repeated_exact_count_learns_a_cap() {
        let reg = IntegrityRegistry::default();
        assert!(!reg.observe_rows("ep", 10_000 - 3, None));
        assert!(!reg.observe_rows("ep", 9997, None)); // second consecutive 9997
        assert!(reg.observe_rows("ep", 9997, None)); // third: cap learned
        assert_eq!(learned_cap(&reg, "ep"), Some(9997));
        // Any later response at the learned cap is suspicious outright.
        assert!(!reg.observe_rows("ep", 12, None));
        assert!(reg.observe_rows("ep", 9997, None));
        // A block is held to the same rule while its count is not its
        // binding count: a cap below the block length shows three times.
        for flagged in [false, false, true] {
            assert_eq!(reg.observe_rows("blocks", 64, Some(97)), flagged);
        }
        assert_eq!(learned_cap(&reg, "blocks"), Some(64));
    }

    #[test]
    fn small_counts_never_learn_caps() {
        let reg = IntegrityRegistry::default();
        for _ in 0..10 {
            assert!(!reg.observe_rows("ep", 3, None));
        }
        assert_eq!(learned_cap(&reg, "ep"), None);
    }

    #[test]
    fn one_row_per_binding_is_explained_and_ends_the_run() {
        let reg = IntegrityRegistry::default();
        // Full blocks, as many as you like: no run, no cap, no flag.
        for _ in 0..10 {
            assert!(!reg.observe_rows("ep", 450, Some(450)));
        }
        assert_eq!(learned_cap(&reg, "ep"), None);
        // n, n, explained, n: the explained response ended the run ...
        assert!(!reg.observe_rows("ep", 450, None));
        assert!(!reg.observe_rows("ep", 450, Some(60)));
        assert!(!reg.observe_rows("ep", 450, Some(450)));
        assert!(!reg.observe_rows("ep", 450, None));
        assert_eq!(learned_cap(&reg, "ep"), None);
        // ... and n, n, n still flags, whatever request each n answered.
        assert!(!reg.observe_rows("ep", 450, Some(60)));
        assert!(reg.observe_rows("ep", 450, None));
        assert_eq!(learned_cap(&reg, "ep"), Some(450));
        // An explained response is not flagged even at the learned cap;
        // an unexplained one at that count is.
        assert!(!reg.observe_rows("ep", 450, Some(450)));
        assert!(reg.observe_rows("ep", 450, Some(451)));
    }

    #[test]
    fn quarantine_lifecycle() {
        let reg = IntegrityRegistry::default();
        let ep = endpoint("ep");
        reg.record_divergence(&ep);
        assert!(!reg.is_quarantined("ep") && !marked(&ep));
        reg.record_divergence(&ep);
        assert!(reg.is_quarantined("ep") && marked(&ep));
        assert!(reg.needs_verification("ep"));
        // Rehabilitation: three consecutive clean verifications.
        reg.record_clean(&ep);
        reg.record_clean(&ep);
        assert!(reg.is_quarantined("ep") && marked(&ep));
        reg.record_clean(&ep);
        assert!(!reg.is_quarantined("ep") && !marked(&ep));
        let snap = &reg.snapshot()[0].1;
        assert_eq!(snap.quarantine_entries, 1);
        assert_eq!(snap.quarantine_exits, 1);
        assert_eq!(snap.count_divergences, 2);
    }

    #[test]
    fn divergence_resets_rehabilitation_streak() {
        let reg = IntegrityRegistry::default();
        let ep = endpoint("ep");
        reg.record_divergence(&ep);
        reg.record_divergence(&ep);
        assert!(reg.is_quarantined("ep"));
        reg.record_clean(&ep);
        reg.record_clean(&ep);
        reg.record_divergence(&ep);
        reg.record_clean(&ep);
        reg.record_clean(&ep);
        assert!(
            reg.is_quarantined("ep") && marked(&ep),
            "streak must restart after a strike"
        );
        reg.record_clean(&ep);
        assert!(!reg.is_quarantined("ep") && !marked(&ep));
    }

    #[test]
    fn a_confirmed_truncation_puts_the_endpoint_on_watch_for_good() {
        let reg = IntegrityRegistry::default();
        let ep = endpoint("ep");
        assert!(!reg.needs_verification("ep"), "trusted until caught");
        reg.record_truncation("ep");
        for _ in 0..100 {
            reg.record_clean(&ep);
        }
        assert!(reg.needs_verification("ep"));
    }

    #[test]
    fn paranoid_never_trusts() {
        let reg = IntegrityRegistry::new(true);
        let ep = endpoint("ep");
        for _ in 0..100 {
            reg.record_clean(&ep);
        }
        assert!(reg.needs_verification("ep"));
    }

    #[test]
    fn snapshot_skips_idle_endpoints_and_sorts() {
        let reg = IntegrityRegistry::default();
        reg.needs_verification("idle"); // creates the entry, no activity
        reg.record_truncation("b");
        reg.record_recovery("b", 4, 120);
        reg.record_verification("a");
        let snap = reg.snapshot();
        assert_eq!(
            snap.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(snap[1].1.pages_fetched, 4);
        assert_eq!(snap[1].1.rows_recovered, 120);
    }

    // ---- the builders ------------------------------------------------------

    fn base_query() -> Query {
        Query::select(SelectQuery::new(
            Projection::Vars(vec![Variable::new("s"), Variable::new("o")]),
            GraphPattern::Bgp(vec![TriplePattern::new(
                TermPattern::var("s"),
                TermPattern::iri("http://x/p"),
                TermPattern::var("o"),
            )]),
        ))
    }

    #[test]
    fn paged_query_orders_by_all_projected_vars() {
        let q = paged_query(&base_query(), 100, 300);
        let text = serialize_query(&q);
        assert!(text.contains("ORDER BY ASC(?s) ASC(?o)"), "{text}");
        assert!(text.contains("LIMIT 100"), "{text}");
        assert!(text.contains("OFFSET 300"), "{text}");
        // Round-trips through the parser.
        let reparsed = parse_query(&text).unwrap();
        assert_eq!(serialize_query(&reparsed), text);
    }

    #[test]
    fn paged_query_keeps_an_existing_order() {
        let mut base = base_query();
        if let QueryForm::Select(s) = &mut base.form {
            s.order_by = vec![(Variable::new("o"), false)];
        }
        let q = paged_query(&base, 10, 0);
        let text = serialize_query(&q);
        assert!(text.contains("ORDER BY DESC(?o)"), "{text}");
        assert!(!text.contains("ASC(?s)"), "{text}");
    }

    #[test]
    fn count_star_replaces_projection_and_drops_modifiers() {
        let paged = paged_query(&base_query(), 10, 20);
        let probe = count_star(&paged);
        let text = serialize_query(&probe);
        assert!(text.contains("COUNT(*)"), "{text}");
        assert!(!text.contains("ORDER BY"), "{text}");
        assert!(!text.contains("LIMIT"), "{text}");
        assert!(!text.contains("OFFSET"), "{text}");
        parse_query(&text).unwrap();
    }

    #[test]
    fn limits_are_clamped() {
        assert_eq!(initial_limit(0), 256);
        assert_eq!(initial_limit(3), 16);
        assert_eq!(initial_limit(977), 977);
        assert_eq!(initial_limit(1 << 20), 4096);
        // Unbounded budget keeps the current limit.
        assert_eq!(adaptive_limit(977, 977, 20_000, None), 977);
        // A tight budget shrinks the page, floored at 16.
        assert_eq!(adaptive_limit(977, 100, 10_000, Some(64)), 16);
        // A roomy budget grows it, capped at 4096.
        assert_eq!(adaptive_limit(16, 10, 100, Some(1 << 30)), 4096);
    }

    fn rel(vals: &[i64]) -> Relation {
        let mut r = Relation::new(vec![Variable::new("x")]);
        for v in vals {
            r.push(vec![Some(Term::integer(*v))]);
        }
        r
    }

    fn ints(rel: &Relation) -> Vec<i64> {
        let int = |t: &Option<Term>| t.as_ref()?.as_literal()?.as_i64();
        rel.rows().iter().map(|r| int(&r[0]).unwrap()).collect()
    }

    #[test]
    fn merge_concatenates_disjoint_windows() {
        let merged = merge_pages(
            vec![Variable::new("x")],
            vec![(0, rel(&[1, 2, 3])), (3, rel(&[4, 5])), (5, rel(&[6]))],
        );
        assert_eq!(merged.len(), 6);
        assert_eq!(merged.rows()[5][0], Some(Term::integer(6)));
    }

    #[test]
    fn merge_drops_overlap_by_offset_not_content() {
        // Pages [0..4) and [2..6) overlap by two rows; the result must
        // keep the duplicate *values* (2 appears twice in the data).
        let merged = merge_pages(
            vec![Variable::new("x")],
            vec![(0, rel(&[1, 2, 2, 3])), (2, rel(&[2, 3, 4, 5]))],
        );
        assert_eq!(ints(&merged), vec![1, 2, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_handles_unsorted_input_and_full_containment() {
        let merged = merge_pages(
            vec![Variable::new("x")],
            vec![
                (4, rel(&[5, 6])),
                (0, rel(&[1, 2, 3, 4])),
                (1, rel(&[2, 3])), // entirely inside covered range
            ],
        );
        assert_eq!(ints(&merged), vec![1, 2, 3, 4, 5, 6]);
    }
}
