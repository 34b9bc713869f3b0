//! Per-query execution context: the deadline budget, the result policy,
//! and the warning sink that partial-results mode fills.
//!
//! One [`RunContext`] is created per query — by
//! [`crate::LusailEngine::execute`] and by each baseline — and threaded
//! through source selection, LADE's check queries, SAPE's subquery waves
//! and the baselines' group-at-a-time loop. Every request leaves through
//! [`RunContext::dispatch`], which alone hands out the query's
//! [`Deadline`] and cancel token, and every fallible endpoint result comes
//! back through [`RunContext::absorb`], which decides — per the configured
//! [`ResultPolicy`] — whether a failure aborts the query or degrades it
//! to a warning. The `UNION` branches of a query, and the strands of a
//! branch's SAPE schedule, run side by side through
//! [`RunContext::fan_out`], each under a context of its own that shares
//! the query's deadline, token and memory ledger.

use crate::budget::{MemoryBudget, MemoryPhase, RowCharge};
use crate::config::{LusailConfig, ResultPolicy};
use crate::error::EngineError;
pub use lusail_federation::{CancelReason, CancelToken};
use lusail_federation::{Deadline, EndpointError, FailureKind, RequestHandler};
use lusail_sparql::Relation;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

pub use crate::budget::ADMISSION_CHUNK_ROWS;

/// One piece of work that partial-results mode skipped, naming the
/// endpoint that was unreachable and the subquery (or probe) affected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionWarning {
    /// The endpoint that could not be reached.
    pub endpoint: String,
    /// What was being executed against it (a subquery label or probe
    /// description).
    pub subquery: String,
    /// The underlying failure, e.g. "giving up after 3 attempts: …".
    pub message: String,
}

impl std::fmt::Display for ExecutionWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "endpoint {:?} skipped for {}: {}",
            self.endpoint, self.subquery, self.message
        )
    }
}

/// The execution context of one query.
#[derive(Debug)]
pub struct RunContext {
    /// Absolute time budget for the whole query, with its cancel token.
    /// Private: requests get it from [`RunContext::dispatch`] only.
    deadline: Deadline,
    /// Fail-fast or partial-results.
    pub policy: ResultPolicy,
    /// The configured budget, echoed in [`EngineError::Timeout`].
    budget: Option<Duration>,
    /// Memory accounting for materialized intermediate state.
    pub memory: MemoryBudget,
    /// Cap on rows admitted from any single endpoint response.
    max_result_rows: Option<usize>,
    warnings: Mutex<Vec<ExecutionWarning>>,
    /// In a branch's context ([`RunContext::fan_out`]): the error of the
    /// first branch of the query to fail, once one has.
    failed: Option<Arc<OnceLock<EngineError>>>,
}

impl RunContext {
    /// The context for one query under `config`: the deadline starts now.
    pub fn new(config: &LusailConfig) -> Self {
        RunContext::with_parts(
            config.result_policy,
            config.timeout,
            MemoryBudget::new(config.memory_budget),
            config.max_result_rows,
        )
    }

    /// A context assembled from externally owned parts — the federation
    /// service path, where the deadline starts at admission, the memory
    /// ledger is carved from a shared [`crate::budget::MemoryPool`], and
    /// the row cap is the service's, not the engine's.
    pub fn with_parts(
        policy: ResultPolicy,
        timeout: Option<Duration>,
        memory: MemoryBudget,
        max_result_rows: Option<usize>,
    ) -> Self {
        RunContext {
            deadline: match timeout {
                Some(t) => Deadline::within(t),
                None => Deadline::none(),
            },
            policy,
            budget: timeout,
            memory,
            max_result_rows,
            warnings: Mutex::new(Vec::new()),
            failed: None,
        }
    }

    /// A fail-fast context whose deadline, if any, starts now (used by
    /// the baselines, which have no partial mode).
    pub fn fail_fast(timeout: Option<Duration>) -> Self {
        RunContext::with_parts(
            ResultPolicy::FailFast,
            timeout,
            MemoryBudget::unbounded(),
            None,
        )
    }

    /// No deadline, fail-fast: for tests and internal probes.
    pub fn unbounded() -> Self {
        RunContext::fail_fast(None)
    }

    /// Attach a cancellation token: from here on every deadline check —
    /// [`check`](Self::check), [`dispatch`](Self::dispatch), per-attempt
    /// clamps, retry/backoff sleeps — doubles as a cancellation point.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.deadline = self.deadline.with_token(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.deadline.token()
    }

    /// Why this query was cancelled, if its token tripped.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        self.deadline.cancel_reason()
    }

    /// The timeout error carrying the configured budget.
    pub fn timeout_error(&self) -> EngineError {
        EngineError::Timeout(self.budget.unwrap_or_default())
    }

    /// Fail once the budget is spent: [`EngineError::Cancelled`] when the
    /// token tripped (cancellation beats the clock — the reason explains
    /// *why* the query died, which an undifferentiated timeout would
    /// hide), [`EngineError::Timeout`] for plain deadline expiry. In a
    /// branch's context, also fail with a sibling branch's error once one
    /// has failed: the query is lost, and nothing more is sent for it.
    pub fn check(&self) -> Result<(), EngineError> {
        if let Some(reason) = self.deadline.cancel_reason() {
            Err(EngineError::Cancelled(reason))
        } else if self.deadline.expired() {
            Err(self.timeout_error())
        } else if let Some(e) = self.failed.as_ref().and_then(|f| f.get()) {
            Err(e.clone())
        } else {
            Ok(())
        }
    }

    /// Send one wave of requests: `send(item, deadline)` once per item on
    /// the ERH, results in submission order. The one place a request
    /// leaves an engine (DESIGN.md → *Request dispatch*):
    ///
    /// * [`check`](Self::check) runs first, so a spent budget or a tripped
    ///   token fails the wave before any task starts;
    /// * every task is handed the query's deadline and cancel token — the
    ///   transports clamp their attempts, backoffs and sleeps to it;
    /// * an item still queued when the budget runs out is answered with
    ///   [`EndpointError::expired`] naming `label`, and `send` is not
    ///   called for it.
    ///
    /// The slots go back to the caller, who settles each through
    /// [`absorb`](Self::absorb) / [`absorb_flagged`](Self::absorb_flagged)
    /// with its own default, cache write and integrity decision.
    pub fn dispatch<I, T>(
        &self,
        handler: &RequestHandler,
        label: &'static str,
        items: Vec<I>,
        send: impl Fn(I, Deadline) -> Result<T, EndpointError> + Send + Sync,
    ) -> Result<Vec<Result<T, EndpointError>>, EngineError>
    where
        I: Send,
        T: Send,
    {
        self.check()?;
        Ok(handler.map_cancellable(
            items,
            self.deadline.clone(),
            |_| Err(EndpointError::expired(label, &self.deadline)),
            |item| send(item, self.deadline.clone()),
        ))
    }

    /// Run the branches of one query, or the strands of one branch
    /// ([`SapeExecutor`](crate::sape::execute::SapeExecutor)), side by
    /// side, as one fan-out on the ERH: `run(item, ctx)` once per item,
    /// results in submission order whatever the thread schedule was. A
    /// one-thread handler runs them inline, in order; a single item runs
    /// inline under this very context, in no wave of its own.
    ///
    /// Each branch gets a context of its own over the query's deadline,
    /// cancel token and memory ledger. Its warnings are appended to this
    /// context's when all branches are done, branch by branch, so
    /// [`take_warnings`](Self::take_warnings) reads (branch, submission)
    /// order, not arrival order. The first branch to return an error fails
    /// its siblings' next [`check`](Self::check) — and so their next
    /// [`dispatch`](Self::dispatch) — with that error: no request leaves
    /// for a query that has already failed. The error returned is the
    /// lowest-numbered failing branch's.
    pub fn fan_out<I, T>(
        &self,
        handler: &RequestHandler,
        items: Vec<I>,
        run: impl Fn(I, &RunContext) -> Result<T, EngineError> + Send + Sync,
    ) -> Result<Vec<T>, EngineError>
    where
        I: Send,
        T: Send,
    {
        if items.len() == 1 {
            let item = items.into_iter().next().expect("one item");
            return Ok(vec![run(item, self)?]);
        }
        let failed = Arc::new(OnceLock::new());
        let ran = handler.map(items, |item| {
            let ctx = RunContext {
                deadline: self.deadline.clone(),
                policy: self.policy,
                budget: self.budget,
                memory: self.memory.clone(),
                max_result_rows: self.max_result_rows,
                warnings: Mutex::new(Vec::new()),
                failed: Some(Arc::clone(&failed)),
            };
            let out = run(item, &ctx);
            if let Err(e) = &out {
                let _ = failed.set(e.clone());
            }
            let warnings = ctx.warnings.into_inner();
            (out, warnings.unwrap_or_else(|p| p.into_inner()))
        });
        let mut warnings = self.warnings.lock().unwrap_or_else(|p| p.into_inner());
        ran.into_iter()
            .map(|(out, branch_warnings)| {
                warnings.extend(branch_warnings);
                out
            })
            .collect()
    }

    /// Record a warning (partial mode).
    pub fn warn(&self, warning: ExecutionWarning) {
        self.warnings
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(warning);
    }

    /// Drain the accumulated warnings, deduplicated per (endpoint,
    /// subquery): a flapping endpoint that fails the same phase many
    /// times (e.g. once per bound-join chunk, or once per failover
    /// attempt) yields one warning, not a flood. The first occurrence
    /// wins, so the message describes the initial failure, and relative
    /// order is preserved.
    pub fn take_warnings(&self) -> Vec<ExecutionWarning> {
        let raw = std::mem::take(&mut *self.warnings.lock().unwrap_or_else(|p| p.into_inner()));
        let mut seen: Vec<(String, String)> = Vec::new();
        raw.into_iter()
            .filter(|w| {
                let key = (w.endpoint.clone(), w.subquery.clone());
                if seen.contains(&key) {
                    false
                } else {
                    seen.push(key);
                    true
                }
            })
            .collect()
    }

    /// Resolve one endpoint result under the policy, additionally
    /// reporting whether the value is degraded (a substituted default):
    ///
    /// * `Ok(v)` passes through;
    /// * a deadline failure becomes [`EngineError::Timeout`];
    /// * under [`ResultPolicy::Partial`], a skippable failure (transport
    ///   or open breaker) records a warning naming the endpoint and
    ///   `what`, and substitutes `default`;
    /// * anything else aborts with [`EngineError::Endpoint`].
    ///
    /// Degraded values must not be written to the analysis cache: they
    /// describe the outage, not the data.
    pub fn absorb_flagged<T>(
        &self,
        what: &str,
        default: T,
        result: Result<T, EndpointError>,
    ) -> Result<(T, bool), EngineError> {
        match result {
            Ok(v) => Ok((v, false)),
            Err(e) if e.kind == FailureKind::Cancelled => {
                // Prefer the token's reason; a bare Cancelled error from a
                // transport without the token in hand still maps sensibly.
                let reason = self
                    .deadline
                    .cancel_reason()
                    .unwrap_or(CancelReason::AdminCancelled);
                Err(EngineError::Cancelled(reason))
            }
            Err(e) if e.kind == FailureKind::Deadline => match self.deadline.cancel_reason() {
                Some(reason) => Err(EngineError::Cancelled(reason)),
                None => Err(self.timeout_error()),
            },
            Err(e) if self.policy == ResultPolicy::Partial && e.is_skippable() => {
                self.warn(ExecutionWarning {
                    endpoint: e.endpoint,
                    subquery: what.to_string(),
                    message: e.message,
                });
                Ok((default, true))
            }
            Err(e) => Err(EngineError::Endpoint(e)),
        }
    }

    /// The structured budget-exhaustion error for fail-fast mode.
    pub fn budget_error(&self, what: &str, endpoint: &str) -> EngineError {
        EngineError::BudgetExceeded {
            limit: self.memory.limit().unwrap_or(0),
            subquery: what.to_string(),
            endpoint: endpoint.to_string(),
        }
    }

    /// Admit one endpoint response into the query's accounted memory.
    ///
    /// Enforcement happens in two layers, mirroring how the HTTP client
    /// treats a real wire response:
    ///
    /// * the `--max-result-rows` cap rejects (fail-fast) or truncates
    ///   (partial) an oversized response outright;
    /// * the memory budget is charged by `budget::RowCharge` in
    ///   [`ADMISSION_CHUNK_ROWS`]-row chunks, so the accounted peak
    ///   overshoots the limit by at most one chunk. On overflow, fail-fast
    ///   aborts with [`EngineError::BudgetExceeded`] naming `what` and `endpoint`;
    ///   partial mode keeps the rows already admitted and records an
    ///   [`ExecutionWarning`].
    ///
    /// Admitted bytes stay charged for the rest of the query (wave
    /// results are live until the global join consumes them); the ledger
    /// dies with the context.
    pub fn admit_relation(
        &self,
        what: &str,
        endpoint: &str,
        phase: MemoryPhase,
        mut rel: Relation,
    ) -> Result<Relation, EngineError> {
        if let Some(cap) = self.max_result_rows {
            if rel.len() > cap {
                match self.policy {
                    ResultPolicy::FailFast => {
                        return Err(EngineError::Endpoint(EndpointError::rejected(
                            endpoint,
                            format!(
                                "result of {} rows exceeds the --max-result-rows cap of {cap}",
                                rel.len()
                            ),
                        )));
                    }
                    ResultPolicy::Partial => {
                        let total = rel.len();
                        rel.rows_mut().truncate(cap);
                        self.warn(ExecutionWarning {
                            endpoint: endpoint.to_string(),
                            subquery: what.to_string(),
                            message: format!(
                                "result truncated from {total} to {cap} rows (--max-result-rows)"
                            ),
                        });
                    }
                }
            }
        }

        // Under --partial a single response may claim at most half of the
        // budget still free when it arrives: a result bomb then degrades
        // only itself, leaving headroom for later subqueries and the join
        // phase instead of starving every admission after it. Fail-fast
        // admits up to the full budget — exhaustion aborts the query
        // anyway, so holding back headroom would only lower the effective
        // limit.
        let allowance = match self.policy {
            ResultPolicy::Partial if self.memory.is_bounded() => self.memory.remaining() / 2,
            _ => usize::MAX,
        };

        let mut charge = RowCharge::new(phase, rel.vars().len(), allowance);
        if charge.charge(&self.memory, rel.rows()).is_err() {
            match self.policy {
                ResultPolicy::FailFast => {
                    self.memory.release(charge.bytes);
                    return Err(self.budget_error(what, endpoint));
                }
                ResultPolicy::Partial => {
                    let total = rel.len();
                    rel.rows_mut().truncate(charge.rows);
                    self.warn(ExecutionWarning {
                        endpoint: endpoint.to_string(),
                        subquery: what.to_string(),
                        message: format!(
                            "memory budget exhausted: result truncated from {total} to {} rows",
                            charge.rows
                        ),
                    });
                }
            }
        }
        Ok(rel)
    }

    /// [`RunContext::absorb_flagged`] without the degraded flag.
    pub fn absorb<T>(
        &self,
        what: &str,
        default: T,
        result: Result<T, EndpointError>,
    ) -> Result<T, EngineError> {
        self.absorb_flagged(what, default, result).map(|(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transport_err() -> EndpointError {
        EndpointError::transport("ep1", "connection refused")
    }

    #[test]
    fn fail_fast_propagates_transport_errors() {
        let ctx = RunContext::unbounded();
        let r: Result<bool, EngineError> = ctx.absorb("probe", false, Err(transport_err()));
        match r {
            Err(EngineError::Endpoint(e)) => assert_eq!(e.endpoint, "ep1"),
            other => panic!("expected endpoint error, got {other:?}"),
        }
        assert!(ctx.take_warnings().is_empty());
    }

    #[test]
    fn partial_absorbs_and_warns() {
        let cfg = LusailConfig {
            result_policy: ResultPolicy::Partial,
            ..Default::default()
        };
        let ctx = RunContext::new(&cfg);
        let (v, degraded) = ctx
            .absorb_flagged("subquery #1", true, Err(transport_err()))
            .unwrap();
        assert!(v && degraded);
        let warnings = ctx.take_warnings();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].endpoint, "ep1");
        assert_eq!(warnings[0].subquery, "subquery #1");
        assert!(warnings[0].to_string().contains("ep1"));
        // Drained.
        assert!(ctx.take_warnings().is_empty());
    }

    #[test]
    fn take_warnings_dedupes_per_endpoint_and_phase() {
        let ctx = RunContext::unbounded();
        // A flapping endpoint fails the same phase three times, a second
        // phase once, and a different endpoint fails the first phase too.
        for i in 0..3 {
            ctx.warn(ExecutionWarning {
                endpoint: "ep1".into(),
                subquery: "subquery #0".into(),
                message: format!("attempt {i} dropped"),
            });
        }
        ctx.warn(ExecutionWarning {
            endpoint: "ep1".into(),
            subquery: "MINUS block".into(),
            message: "dropped".into(),
        });
        ctx.warn(ExecutionWarning {
            endpoint: "ep2".into(),
            subquery: "subquery #0".into(),
            message: "dropped".into(),
        });
        let warnings = ctx.take_warnings();
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        // First occurrence wins, order preserved.
        assert_eq!(warnings[0].endpoint, "ep1");
        assert_eq!(warnings[0].subquery, "subquery #0");
        assert_eq!(warnings[0].message, "attempt 0 dropped");
        assert_eq!(warnings[1].subquery, "MINUS block");
        assert_eq!(warnings[2].endpoint, "ep2");
    }

    #[test]
    fn deadline_failures_become_timeout_even_in_partial_mode() {
        let cfg = LusailConfig {
            result_policy: ResultPolicy::Partial,
            timeout: Some(Duration::from_secs(7)),
            ..Default::default()
        };
        let ctx = RunContext::new(&cfg);
        let r: Result<(), EngineError> = ctx.absorb("x", (), Err(EndpointError::deadline("ep1")));
        assert_eq!(r, Err(EngineError::Timeout(Duration::from_secs(7))));
    }

    #[test]
    fn rejections_always_propagate() {
        let cfg = LusailConfig {
            result_policy: ResultPolicy::Partial,
            ..Default::default()
        };
        let ctx = RunContext::new(&cfg);
        let r: Result<(), EngineError> =
            ctx.absorb("x", (), Err(EndpointError::rejected("ep1", "413")));
        assert!(matches!(r, Err(EngineError::Endpoint(_))));
        assert!(ctx.take_warnings().is_empty());
    }

    fn sample_relation(rows: usize) -> Relation {
        let mut rel = Relation::new(vec!["x".into()]);
        for i in 0..rows {
            rel.push(vec![Some(lusail_rdf::Term::iri(format!(
                "http://x/item-{i:06}"
            )))]);
        }
        rel
    }

    fn budgeted_ctx(policy: ResultPolicy, budget: usize) -> RunContext {
        RunContext::new(&LusailConfig {
            result_policy: policy,
            memory_budget: Some(budget),
            ..Default::default()
        })
    }

    #[test]
    fn admit_row_cap_rejects_under_fail_fast_and_truncates_under_partial() {
        let strict = RunContext::new(&LusailConfig {
            max_result_rows: Some(10),
            ..Default::default()
        });
        let err = strict
            .admit_relation(
                "subquery #0",
                "ep-bomb",
                MemoryPhase::Wave,
                sample_relation(50),
            )
            .unwrap_err();
        match err {
            EngineError::Endpoint(e) => {
                assert_eq!(e.endpoint, "ep-bomb");
                assert!(e.message.contains("--max-result-rows"), "{}", e.message);
            }
            other => panic!("expected rejection, got {other:?}"),
        }

        let lax = RunContext::new(&LusailConfig {
            max_result_rows: Some(10),
            result_policy: ResultPolicy::Partial,
            ..Default::default()
        });
        let rel = lax
            .admit_relation(
                "subquery #0",
                "ep-bomb",
                MemoryPhase::Wave,
                sample_relation(50),
            )
            .unwrap();
        assert_eq!(rel.len(), 10);
        let warnings = lax.take_warnings();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].endpoint, "ep-bomb");
        assert!(warnings[0].message.contains("truncated from 50 to 10"));
    }

    #[test]
    fn admit_budget_overflow_fails_fast_with_structured_error() {
        let ctx = budgeted_ctx(ResultPolicy::FailFast, 1024);
        let err = ctx
            .admit_relation(
                "subquery #3",
                "ep-bomb",
                MemoryPhase::Wave,
                sample_relation(5000),
            )
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::BudgetExceeded {
                limit: 1024,
                subquery: "subquery #3".into(),
                endpoint: "ep-bomb".into(),
            }
        );
        assert!(err.to_string().contains("subquery #3"));
        assert!(err.to_string().contains("ep-bomb"));
        assert_eq!(
            ctx.memory.used(),
            0,
            "failed admission must release its charges"
        );
    }

    #[test]
    fn admit_budget_overflow_truncates_with_warning_under_partial() {
        let limit = 64 * 1024;
        let ctx = budgeted_ctx(ResultPolicy::Partial, limit);
        let rel = ctx
            .admit_relation(
                "subquery #3",
                "ep-bomb",
                MemoryPhase::Wave,
                sample_relation(20_000),
            )
            .unwrap();
        assert!(rel.len() < 20_000, "oversized result must be truncated");
        assert!(!rel.is_empty(), "some rows fit under a 64 KiB budget");
        // Peak accounting never ran past the limit: overflowing chunks are
        // rejected, not booked.
        assert!(ctx.memory.stats().peak_bytes <= limit);
        let warnings = ctx.take_warnings();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].message.contains("memory budget exhausted"));
    }

    #[test]
    fn admit_within_budget_charges_the_phase() {
        let ctx = budgeted_ctx(ResultPolicy::FailFast, 1 << 20);
        let rel = ctx
            .admit_relation(
                "subquery #0",
                "ep-0",
                MemoryPhase::BoundJoin,
                sample_relation(100),
            )
            .unwrap();
        assert_eq!(rel.len(), 100);
        let stats = ctx.memory.stats();
        assert!(stats.bound_join_peak_bytes > 0);
        assert_eq!(stats.peak_bytes, ctx.memory.used());
    }

    // --- dispatch ---

    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn dispatch_answers_items_queued_past_the_deadline_without_sending_them() {
        // One slow request burns the budget on a one-thread ERH; its
        // queued siblings are answered for, not sent.
        let handler = RequestHandler::new(1);
        let ctx = RunContext::fail_fast(Some(Duration::from_millis(20)));
        let sent = AtomicUsize::new(0);
        let out = ctx
            .dispatch(&handler, "the wave", (0..5).collect(), |i: usize, _| {
                sent.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                Ok(i)
            })
            .unwrap();
        assert_eq!(out[0], Ok(0), "the in-flight request completes");
        for slot in &out[1..] {
            let e = slot.as_ref().unwrap_err();
            assert_eq!(
                (e.kind, e.endpoint.as_str()),
                (FailureKind::Deadline, "the wave")
            );
        }
        assert_eq!(sent.load(Ordering::Relaxed), 1);
        // ... and settle as the query's timeout, under either policy.
        let settled = ctx.absorb("x", 0, out[1].clone());
        assert_eq!(
            settled,
            Err(EngineError::Timeout(Duration::from_millis(20)))
        );
    }

    #[test]
    fn dispatch_on_a_tripped_token_fails_before_any_task_starts() {
        let token = CancelToken::new();
        let ctx = RunContext::unbounded().with_cancel(token.clone());
        token.cancel(CancelReason::ClientDisconnected);
        let out = ctx.dispatch(&RequestHandler::new(4), "w", vec![1, 2, 3], |_: i32, _| {
            panic!("must not be sent")
        });
        let expected = EngineError::Cancelled(CancelReason::ClientDisconnected);
        assert_eq!(out, Err::<Vec<Result<(), _>>, _>(expected));
        // Spent budgets fail the same way, as the timeout.
        let spent = RunContext::fail_fast(Some(Duration::ZERO));
        let out = spent.dispatch(&RequestHandler::new(4), "w", vec![1], |_: i32, _| Ok(()));
        assert_eq!(out, Err(EngineError::Timeout(Duration::ZERO)));
    }

    #[test]
    fn dispatch_without_a_deadline_sends_every_item_once_in_submission_order() {
        let handler = RequestHandler::new(4);
        let sent = AtomicUsize::new(0);
        let out = RunContext::unbounded()
            .dispatch(&handler, "w", (0..50).collect(), |i: usize, deadline| {
                sent.fetch_add(1, Ordering::Relaxed);
                assert_eq!(deadline.remaining(), None);
                Ok(i * 2)
            })
            .unwrap();
        assert_eq!(out, (0..50).map(|i| Ok(i * 2)).collect::<Vec<_>>());
        assert_eq!(sent.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn dispatch_hands_every_task_the_query_deadline_and_token() {
        let token = CancelToken::new();
        let ctx = RunContext::fail_fast(Some(Duration::from_secs(60))).with_cancel(token.clone());
        let handler = RequestHandler::new(2);
        // What a transport holds is the query's own budget and token: a
        // trip while the request is out shows in its copy.
        let out = ctx
            .dispatch(&handler, "w", vec![()], |(), deadline| {
                assert!(deadline.remaining().is_some_and(|r| r > Duration::ZERO));
                token.cancel(CancelReason::AdminCancelled);
                Ok(deadline.cancel_reason())
            })
            .unwrap();
        assert_eq!(out, [Ok(Some(CancelReason::AdminCancelled))]);
    }

    #[test]
    fn a_wave_of_one_runs_inline_on_the_caller() {
        let handler = RequestHandler::elastic(13);
        let caller = std::thread::current().id();
        let out = RunContext::unbounded()
            .dispatch(&handler, "w", vec![()], |(), _| {
                Ok(std::thread::current().id())
            })
            .unwrap();
        assert_eq!(out, [Ok(caller)]);
        assert_eq!(handler.snapshot().peak_width, 1);
    }

    // --- fan_out ---

    fn warning(endpoint: &str, subquery: &str) -> ExecutionWarning {
        ExecutionWarning {
            endpoint: endpoint.into(),
            subquery: subquery.into(),
            message: "dropped".into(),
        }
    }

    #[test]
    fn fan_out_orders_results_and_warnings_by_branch_not_by_arrival() {
        // Branch 1 warns and finishes before branch 0 has done either.
        let handler = RequestHandler::new(2);
        let ctx = RunContext::unbounded();
        ctx.warn(warning("ep0", "probe"));
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let out = ctx.fan_out(&handler, vec![0, 1], |branch, ctx| {
            if branch == 0 {
                rx.lock().unwrap().recv().unwrap();
            }
            ctx.warn(warning(&format!("ep{branch}"), "subquery #0"));
            ctx.warn(warning("shared", "subquery #1"));
            if branch == 1 {
                tx.send(()).unwrap();
            }
            Ok(branch * 10)
        });
        assert_eq!(out, Ok(vec![0, 10]));
        let order: Vec<(String, String)> = (ctx.take_warnings().into_iter())
            .map(|w| (w.endpoint, w.subquery))
            .collect();
        let expected = [
            ("ep0", "probe"),
            ("ep0", "subquery #0"),
            ("shared", "subquery #1"),
            ("ep1", "subquery #0"),
        ];
        assert_eq!(
            order,
            expected.map(|(e, s)| (e.to_string(), s.to_string())),
            "the query's own, then branch 0's, then what branch 1 adds"
        );
    }

    #[test]
    fn a_failed_branch_stops_its_siblings_from_sending() {
        // Branch 1 fails while branch 0 is between two waves: branch 0's
        // next dispatch sends nothing, and the query fails as branch 1 did.
        let handler = RequestHandler::new(2);
        let ctx = RunContext::unbounded();
        let failure = EngineError::Endpoint(EndpointError::transport("ep1", "connection refused"));
        let sent = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let out = ctx.fan_out(&handler, vec![0, 1], |branch, ctx| {
            if branch == 1 {
                tx.send(()).unwrap();
                return Err(failure.clone());
            }
            rx.lock().unwrap().recv().unwrap();
            // The sibling has returned or is about to: wait for the flag.
            while ctx.check().is_ok() {
                std::thread::yield_now();
            }
            ctx.dispatch(&handler, "w", vec![()], |(), _| {
                sent.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .map(|_| ())
        });
        assert_eq!(out, Err(failure));
        assert_eq!(sent.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn fan_out_returns_the_lowest_numbered_failing_branchs_error() {
        // Both fail on their own, the higher-numbered one first.
        let handler = RequestHandler::new(2);
        let error = |ep: &str| EngineError::Endpoint(EndpointError::transport(ep, "reset"));
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let out: Result<Vec<()>, _> =
            RunContext::unbounded().fan_out(&handler, vec![0, 1], |branch, _| {
                if branch == 0 {
                    rx.lock().unwrap().recv().unwrap();
                } else {
                    tx.send(()).unwrap();
                }
                Err(error(&format!("ep{branch}")))
            });
        assert_eq!(out, Err(error("ep0")));
    }

    #[test]
    fn a_one_thread_handler_runs_branches_inline_in_branch_order() {
        let handler = RequestHandler::new(1);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let failure = EngineError::Unsupported("branch 1".into());
        let out: Result<Vec<()>, _> =
            RunContext::unbounded().fan_out(&handler, vec![0, 1, 2], |branch, ctx| {
                assert_eq!(std::thread::current().id(), caller);
                // What every branch does first: send a wave.
                ctx.dispatch(&handler, "w", vec![()], |(), _| Ok(()))?;
                order.lock().unwrap().push(branch);
                match branch {
                    1 => Err(failure.clone()),
                    _ => Ok(()),
                }
            });
        assert_eq!(out, Err(failure));
        assert_eq!(*order.lock().unwrap(), [0, 1], "branch 2 sent nothing");
    }

    #[test]
    fn a_tripped_token_stops_every_branch_with_its_reason() {
        let token = CancelToken::new();
        let ctx = RunContext::unbounded().with_cancel(token.clone());
        let handler = RequestHandler::new(2);
        let out: Result<Vec<()>, _> = ctx.fan_out(&handler, vec![0, 1], |branch, ctx| {
            if branch == 1 {
                token.cancel(CancelReason::WatchdogReaped);
            }
            while ctx.check().is_ok() {
                std::thread::yield_now();
            }
            ctx.check()
        });
        assert_eq!(
            out,
            Err(EngineError::Cancelled(CancelReason::WatchdogReaped))
        );
    }

    #[test]
    fn expired_deadline_fails_check() {
        let cfg = LusailConfig {
            timeout: Some(Duration::ZERO),
            ..Default::default()
        };
        let ctx = RunContext::new(&cfg);
        assert!(matches!(ctx.check(), Err(EngineError::Timeout(_))));
        assert!(RunContext::unbounded().check().is_ok());
    }
}
