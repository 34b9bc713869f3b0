//! The Elastic Request Handler (ERH): fans each wave of requests out to
//! endpoints on per-wave scoped threads (Section 2 of the paper), plus the
//! failure machinery its clients share — query [`Deadline`] budgets and the
//! per-endpoint [`EndpointHealth`] registry with its circuit breaker.
//!
//! LADE uses the handler to evaluate check queries at all relevant
//! endpoints simultaneously; SAPE uses it to collect non-delayed subquery
//! results. A wave runs one thread per task up to the handler's *ceiling* —
//! one thread per endpoint, as the paper sizes the ERH — see
//! [`RequestHandler`].
//!
//! Real Linked Data endpoints are slow, flaky, and frequently down, so the
//! fan-out layer owns the fault semantics: a panicking task is caught and
//! surfaced after its siblings complete (instead of poisoning the shared
//! queue), an expired deadline cancels tasks that have not started yet, and
//! the breaker lets repeated transport failures fail fast instead of each
//! burning a full retry budget.

use crate::cancel::{CancelReason, CancelToken};
use crate::endpoint::{EndpointError, FailureKind};
use crate::json::Json;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A query-level time budget, threaded from `lusail query --timeout` down
/// through every blocking call (check queries, subqueries, bound joins,
/// HTTP attempts). `Deadline::none()` means unlimited.
///
/// Every layer asks the same deadline for `remaining()` instead of using a
/// fixed per-attempt timeout, so a query that has already spent its budget
/// on one slow endpoint does not grant later requests a fresh allowance.
///
/// A deadline may additionally carry a [`CancelToken`]: `expired()` then
/// reports true the moment the token trips, so every existing deadline
/// check — `map_cancellable`, per-attempt clamps, retry-loop guards —
/// doubles as a cancellation point without any call-site change. Sleeps
/// should go through [`Deadline::pause`], which wakes early on cancel.
#[derive(Debug, Clone)]
pub struct Deadline {
    at: Option<Instant>,
    token: Option<CancelToken>,
}

/// Equality ignores the token: two deadlines compare equal when their time
/// budgets do, which is what the arithmetic tests and clamp logic care
/// about.
impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}

impl Eq for Deadline {}

impl Deadline {
    /// No deadline: every wait is unlimited.
    pub fn none() -> Self {
        Deadline {
            at: None,
            token: None,
        }
    }

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline {
            at: Some(Instant::now() + budget),
            token: None,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Deadline {
            at: Some(instant),
            token: None,
        }
    }

    /// The same time budget, additionally watching `token`.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn token(&self) -> Option<&CancelToken> {
        self.token.as_ref()
    }

    /// Why the attached token was cancelled, if it was.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        self.token.as_ref().and_then(|t| t.reason())
    }

    /// The absolute expiry instant, if any.
    pub fn instant(&self) -> Option<Instant> {
        self.at
    }

    /// Whether the time budget alone is exhausted, ignoring the token.
    pub fn time_expired(&self) -> bool {
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// Whether the budget is exhausted — by time, or by cancellation.
    pub fn expired(&self) -> bool {
        self.cancel_reason().is_some() || self.time_expired()
    }

    /// Time left, or `None` when unlimited. An expired deadline reports
    /// `Some(ZERO)`, never a negative value; a cancelled token makes the
    /// remaining budget zero regardless of the clock.
    pub fn remaining(&self) -> Option<Duration> {
        if self.cancel_reason().is_some() {
            return Some(Duration::ZERO);
        }
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Clamp a per-attempt timeout to the remaining budget.
    pub fn clamp(&self, timeout: Duration) -> Duration {
        match self.remaining() {
            Some(rem) => timeout.min(rem),
            None => timeout,
        }
    }

    /// Sleep for `pause`, clamped to the remaining budget and interrupted
    /// immediately if the token trips. The drop-in replacement for
    /// `thread::sleep(deadline.clamp(pause))` in backoff and simulated-
    /// latency paths.
    pub fn pause(&self, pause: Duration) {
        let allowed = self.clamp(pause);
        if allowed.is_zero() {
            return;
        }
        match &self.token {
            Some(token) => {
                let _ = token.wait_timeout(allowed);
            }
            None => std::thread::sleep(allowed),
        }
    }
}

/// The widest a wave may be, whatever the federation size.
const MAX_CEILING: usize = 64;

type TaskResult<T> = Result<T, Box<dyn Any + Send>>;

/// Wave counters of one [`RequestHandler`], from [`RequestHandler::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveSnapshot {
    /// Non-empty batches executed.
    pub waves: u64,
    /// The most threads any one wave ran on, the caller included (1 for
    /// inline waves).
    pub peak_width: usize,
    /// The CPU fan-out: what `parallel_join` partitions by.
    pub floor: usize,
    /// The most threads a wave runs on.
    pub ceiling: usize,
}

impl WaveSnapshot {
    /// The `erh` stats section.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("waves", self.waves.into()),
            ("peak_width", self.peak_width.into()),
            ("floor", self.floor.into()),
            ("ceiling", self.ceiling.into()),
        ])
    }
}

/// Runs batches ("waves") of blocking endpoint requests on scoped threads
/// spawned per wave.
///
/// `run` executes a batch of independent closures and returns their results
/// in submission order. A wave runs on `min(tasks, ceiling)` threads from
/// the start, the caller being one of them: its tasks are requests, a
/// thread waiting on the network costs no CPU, and a wave no wider than the
/// ceiling finishes in one round trip.
pub struct RequestHandler {
    floor: usize,
    ceiling: usize,
    waves: AtomicU64,
    peak_width: AtomicUsize,
}

impl RequestHandler {
    fn with_widths(floor: usize, ceiling: usize) -> Self {
        RequestHandler {
            floor,
            ceiling,
            waves: AtomicU64::new(0),
            peak_width: AtomicUsize::new(0),
        }
    }

    /// A handler pinned to at most `threads` threads per wave (floor =
    /// ceiling), clamped to ≥ 1, so thread sweeps measure what they say.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        Self::with_widths(threads, threads)
    }

    /// A fixed-width handler sized by `available_parallelism` (logical
    /// CPUs this process may use), but never fewer than 4 so network waits
    /// still overlap on small machines.
    pub fn per_core() -> Self {
        RequestHandler::new(core_floor())
    }

    /// The elastic handler for a federation of `endpoints`: the
    /// [`per_core`](Self::per_core) width as the floor, and one thread per
    /// endpoint (at most 64) as the ceiling.
    pub fn elastic(endpoints: usize) -> Self {
        let floor = core_floor();
        Self::with_widths(floor, endpoints.clamp(floor, MAX_CEILING.max(floor)))
    }

    /// The floor: the CPU fan-out `parallel_join` partitions by.
    pub fn threads(&self) -> usize {
        self.floor
    }

    /// The wave counters plus the configured floor and ceiling.
    pub fn snapshot(&self) -> WaveSnapshot {
        WaveSnapshot {
            waves: self.waves.load(Ordering::Relaxed),
            peak_width: self.peak_width.load(Ordering::Relaxed),
            floor: self.floor,
            ceiling: self.ceiling,
        }
    }

    /// Execute every task, catching panics per task so one bad task cannot
    /// poison the queue or strand its siblings' results.
    fn run_raw<T, F>(&self, tasks: Vec<F>) -> Vec<TaskResult<T>>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        if tasks.is_empty() {
            return Vec::new();
        }
        self.waves.fetch_add(1, Ordering::Relaxed);
        // The caller is one of the wave's threads: a wave of one task, or
        // on a one-thread handler, spawns none and runs inline.
        let width = self.ceiling.min(tasks.len());
        let (granted, results) = run_wave(tasks, width - 1);
        self.peak_width.fetch_max(granted + 1, Ordering::Relaxed);
        results
    }

    /// Execute all `tasks` on the pool, returning results in order.
    ///
    /// If a task panics, the remaining tasks still complete; the first
    /// panic is then re-raised on the caller's thread.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        let out: Vec<Option<T>> = self
            .run_raw(tasks)
            .into_iter()
            .map(|r| match r {
                Ok(v) => Some(v),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                    None
                }
            })
            .collect();
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out.into_iter()
            .map(|v| v.expect("non-panicked task has a result"))
            .collect()
    }

    /// Map `f` over `items` in parallel, preserving order.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Send + Sync,
    {
        let f = Arc::new(f);
        self.run(
            items
                .into_iter()
                .map(|item| {
                    let f = Arc::clone(&f);
                    move || f(item)
                })
                .collect(),
        )
    }

    /// Map `f` over `items` in parallel, except that items whose task has
    /// not started by the time `deadline` expires are *cancelled*: `f` is
    /// never called for them and `cancelled(item)` supplies their result.
    ///
    /// This is how an exhausted query budget stops a wave mid-flight — the
    /// requests already on the wire run to completion (their per-attempt
    /// timeouts are clamped to the same deadline), but queued siblings are
    /// dropped immediately instead of each dialling a dead endpoint.
    pub fn map_cancellable<I, T, F, C>(
        &self,
        items: Vec<I>,
        deadline: Deadline,
        cancelled: C,
        f: F,
    ) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Send + Sync,
        C: Fn(I) -> T + Send + Sync,
    {
        let f = Arc::new(f);
        let cancelled = Arc::new(cancelled);
        self.run(
            items
                .into_iter()
                .map(|item| {
                    let f = Arc::clone(&f);
                    let cancelled = Arc::clone(&cancelled);
                    let deadline = deadline.clone();
                    move || {
                        if deadline.expired() {
                            cancelled(item)
                        } else {
                            f(item)
                        }
                    }
                })
                .collect(),
        )
    }
}

impl Default for RequestHandler {
    fn default() -> Self {
        RequestHandler::per_core()
    }
}

fn core_floor() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(4)
}

/// Run `tasks` on the caller and up to `ask` scoped worker threads; returns
/// how many workers the OS granted and the results in submission order. A
/// refused spawn is not an error, the wave just stays narrower; with no
/// worker at all (none asked for, or none to be had) the caller runs every
/// task itself, inline and in submission order.
fn run_wave<T, F>(tasks: Vec<F>, ask: usize) -> (usize, Vec<TaskResult<T>>)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    // The threads pull from a shared queue (a locked iterator — std has no
    // MPMC channel); a worker hands back what it ran when it is joined.
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let (granted, mut done) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..ask)
            .map_while(|_| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, || drain_queue(&queue))
                    .ok()
            })
            .collect();
        let granted = workers.len();
        let mut done = drain_queue(&queue);
        for worker in workers {
            done.extend(worker.join().expect("a worker catches its tasks' panics"));
        }
        (granted, done)
    });
    // Every task was claimed exactly once: back into submission order.
    done.sort_unstable_by_key(|(i, _)| *i);
    (granted, done.into_iter().map(|(_, r)| r).collect())
}

/// One worker: claim tasks from the shared queue until it is empty and
/// return each result (or caught panic) with its submission index.
fn drain_queue<T, F>(
    queue: &Mutex<std::iter::Enumerate<std::vec::IntoIter<F>>>,
) -> Vec<(usize, TaskResult<T>)>
where
    F: FnOnce() -> T,
{
    let mut done = Vec::new();
    loop {
        // A poisoned lock just means a sibling worker panicked between
        // tasks; the queue itself is still consistent.
        let next = queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .next();
        let Some((i, f)) = next else {
            return done;
        };
        done.push((i, catch_unwind(AssertUnwindSafe(f))));
    }
}

/// Circuit-breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive transport failures that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects requests before letting one
    /// half-open probe through.
    pub cooldown: Duration,
    /// Weight of the newest sample in the latency EWMA (0 < α ≤ 1).
    pub ewma_alpha: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(500),
            ewma_alpha: 0.2,
        }
    }
}

impl BreakerConfig {
    /// A breaker that never opens (for endpoints that must keep absorbing
    /// their own retry budget, e.g. in baseline comparisons).
    pub fn disabled() -> Self {
        BreakerConfig {
            failure_threshold: u32::MAX,
            ..Default::default()
        }
    }
}

/// The externally visible breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Failing fast: requests are rejected until the cooldown elapses.
    Open,
    /// Cooling down: exactly one probe request is admitted to test
    /// whether the endpoint recovered.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// The breaker's verdict on one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Admitted,
    /// Breaker half-open: proceed, but this request is the probe — its
    /// outcome decides whether the breaker closes again.
    Probe,
    /// Breaker open: fail fast without touching the network.
    Rejected {
        /// Time until a probe will be admitted.
        retry_in: Duration,
    },
}

/// The pure circuit-breaker state machine: closed → open after N
/// consecutive transport failures, open → half-open after the cooldown,
/// half-open → closed on probe success / back to open on probe failure.
///
/// Time is passed in explicitly so tests can drive the machine with a
/// synthetic clock; [`EndpointHealth`] wraps it with `Instant::now()` and
/// the traffic counters.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: State,
    consecutive_failures: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Closed,
    Open { until: Instant },
    HalfOpen { probe_started: Option<Instant> },
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: State::Closed,
            consecutive_failures: 0,
        }
    }

    /// The current state as seen at `now` (an open breaker whose cooldown
    /// has elapsed still reports `Open` until a request half-opens it).
    pub fn state(&self) -> BreakerState {
        match self.state {
            State::Closed => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Consecutive transport failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Decide whether a request starting at `now` may proceed.
    pub fn admit(&mut self, now: Instant) -> Admission {
        match self.state {
            State::Closed => Admission::Admitted,
            State::Open { until } => {
                if now >= until {
                    self.state = State::HalfOpen {
                        probe_started: Some(now),
                    };
                    Admission::Probe
                } else {
                    Admission::Rejected {
                        retry_in: until.duration_since(now),
                    }
                }
            }
            State::HalfOpen { probe_started } => match probe_started {
                // A probe that has been in flight longer than a full
                // cooldown is presumed dead (its thread panicked or was
                // abandoned); admit a replacement so the breaker cannot
                // wedge half-open forever.
                Some(started) if now.saturating_duration_since(started) <= self.config.cooldown => {
                    Admission::Rejected {
                        retry_in: self.config.cooldown - now.saturating_duration_since(started),
                    }
                }
                _ => {
                    self.state = State::HalfOpen {
                        probe_started: Some(now),
                    };
                    Admission::Probe
                }
            },
        }
    }

    /// Record a successful request: resets the failure streak and closes a
    /// half-open breaker.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = State::Closed;
    }

    /// Record a transport failure at `now`. Returns `true` when this
    /// failure opened (or re-opened) the breaker.
    pub fn on_failure(&mut self, now: Instant) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            // The probe failed: straight back to open for a fresh cooldown.
            State::HalfOpen { .. } => {
                self.state = State::Open {
                    until: now + self.config.cooldown,
                };
                true
            }
            State::Closed if self.consecutive_failures >= self.config.failure_threshold => {
                self.state = State::Open {
                    until: now + self.config.cooldown,
                };
                true
            }
            _ => false,
        }
    }
}

/// A point-in-time view of one endpoint's health, exposed through
/// `lusail query --stats` next to the traffic counters. Replica groups
/// also rank their members by this snapshot — breaker state first, then
/// `latency_ewma` (see [`crate::replica::rank_members`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// Logical requests admitted (including probes).
    pub requests: u64,
    /// Transport-failure attempts observed.
    pub failures: u64,
    /// Retry attempts beyond each request's first try.
    pub retries: u64,
    /// Requests rejected outright by an open breaker.
    pub open_rejections: u64,
    /// Current breaker state.
    pub breaker: BreakerState,
    /// Exponentially weighted moving average of successful-request
    /// latency (zero until the first success).
    pub latency_ewma: Duration,
    /// Whether the endpoint is quarantined for result-integrity
    /// violations (up but untrustworthy — distinct from breaker-open).
    /// Quarantined members rank below healthy closed-breaker replicas;
    /// see [`crate::integrity::IntegrityRegistry`] for the lifecycle.
    pub quarantined: bool,
}

impl HealthSnapshot {
    /// The health columns of an `endpoints` stats row (`requests` is
    /// spelled `admitted` here: the row's `requests` is the traffic count).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("admitted", self.requests.into()),
            ("failures", self.failures.into()),
            ("retries", self.retries.into()),
            ("open_rejections", self.open_rejections.into()),
            ("breaker", Json::String(self.breaker.to_string())),
            ("latency_ewma_ms", Json::millis(self.latency_ewma)),
            ("quarantined", self.quarantined.into()),
        ])
    }
}

/// What one attempt of a request came to (see [`EndpointHealth::run`]).
pub enum Attempt<T> {
    /// The transport worked: a result, or the endpoint's verdict on this
    /// request (a rejection, or an error a wrapped endpoint settled).
    Answered(Result<T, EndpointError>),
    /// A retryable transport failure, described for the error that ends
    /// the request when no later attempt answers.
    Failed(String),
}

/// Per-endpoint health registry: the [`CircuitBreaker`] plus failure/retry
/// counters and a latency EWMA. Its one entry point, [`run`](Self::run),
/// is the attempt loop behind every transport — `SimulatedEndpoint`,
/// `HttpEndpoint` and the fault-injection wrapper.
pub struct EndpointHealth {
    inner: Mutex<HealthInner>,
}

struct HealthInner {
    breaker: CircuitBreaker,
    requests: u64,
    failures: u64,
    retries: u64,
    open_rejections: u64,
    ewma_micros: f64,
    has_sample: bool,
    ewma_alpha: f64,
    quarantined: bool,
}

impl EndpointHealth {
    /// A healthy registry with the given breaker tuning.
    pub fn new(config: BreakerConfig) -> Self {
        EndpointHealth {
            inner: Mutex::new(HealthInner {
                breaker: CircuitBreaker::new(config),
                requests: 0,
                failures: 0,
                retries: 0,
                open_rejections: 0,
                ewma_micros: 0.0,
                has_sample: false,
                ewma_alpha: config.ewma_alpha,
                quarantined: false,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HealthInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Run one request to `endpoint`: up to `retries` more attempts after
    /// the first, each a call of `attempt`. The loop owns what every
    /// transport shares:
    ///
    /// * an open breaker fails the request fast, before any attempt;
    /// * a spent deadline or a tripped cancel token ends it before each
    ///   attempt, and the backoff between attempts (`backoff`, doubling)
    ///   sleeps no further than the deadline;
    /// * the recording rule: an answer — `Ok` or `Rejected` — is a success;
    ///   a `Transport` error a wrapped endpoint answered with is a failure,
    ///   not retried; a failed attempt is a failure and a retry unless the
    ///   deadline clipped it; `Deadline` and `Cancelled` record nothing;
    /// * once a failure opens the breaker, no further attempt is made.
    pub fn run<T>(
        &self,
        endpoint: &str,
        retries: u32,
        backoff: Duration,
        deadline: &Deadline,
        mut attempt: impl FnMut() -> Attempt<T>,
    ) -> Result<T, EndpointError> {
        if let Admission::Rejected { retry_in } = self.admit() {
            return Err(EndpointError::circuit_open(endpoint, retry_in));
        }
        let mut made = 0u32;
        let mut last_failure = String::new();
        while made <= retries {
            if made > 0 {
                deadline.pause(backoff * (1 << (made - 1).min(16)));
            }
            if deadline.expired() {
                return Err(EndpointError::expired(endpoint, deadline));
            }
            if made > 0 {
                self.record_retry();
            }
            made += 1;
            let started = Instant::now();
            match attempt() {
                Attempt::Answered(answer) => {
                    match answer.as_ref().map_err(|e| e.kind) {
                        Ok(_) | Err(FailureKind::Rejected) => {
                            self.record_success(started.elapsed())
                        }
                        Err(FailureKind::Transport) => self.record_failure(),
                        Err(_) => {}
                    }
                    return answer;
                }
                // Our own budget clipped the attempt (or its token tripped
                // mid-read): that is not evidence against the endpoint.
                Attempt::Failed(_) if deadline.expired() => {
                    return Err(EndpointError::expired(endpoint, deadline));
                }
                Attempt::Failed(failure) => {
                    self.record_failure();
                    last_failure = failure;
                    if self.state() == BreakerState::Open {
                        break;
                    }
                }
            }
        }
        Err(EndpointError::transport(
            endpoint,
            format!("giving up after {made} attempts: {last_failure}"),
        ))
    }

    /// Ask the breaker whether a request may proceed; admitted requests
    /// (including probes) are counted, rejections are tallied separately.
    fn admit(&self) -> Admission {
        let mut inner = self.lock();
        let admission = inner.breaker.admit(Instant::now());
        match admission {
            Admission::Admitted | Admission::Probe => inner.requests += 1,
            Admission::Rejected { .. } => inner.open_rejections += 1,
        }
        admission
    }

    /// Record a successful request and fold its latency into the EWMA.
    fn record_success(&self, latency: Duration) {
        let mut inner = self.lock();
        inner.breaker.on_success();
        let sample = latency.as_secs_f64() * 1e6;
        if inner.has_sample {
            let alpha = inner.ewma_alpha;
            inner.ewma_micros = alpha * sample + (1.0 - alpha) * inner.ewma_micros;
        } else {
            inner.ewma_micros = sample;
            inner.has_sample = true;
        }
    }

    /// Record one transport-failure attempt.
    pub(crate) fn record_failure(&self) {
        let mut inner = self.lock();
        inner.failures += 1;
        inner.breaker.on_failure(Instant::now());
    }

    /// Record one retry attempt (beyond a request's first try).
    fn record_retry(&self) {
        self.lock().retries += 1;
    }

    /// The breaker's current state.
    fn state(&self) -> BreakerState {
        self.lock().breaker.state()
    }

    /// Enter or leave result-integrity quarantine. Orthogonal to the
    /// breaker: a quarantined endpoint still answers requests (they are
    /// verification-paged by the engine), it just stops being preferred.
    pub fn set_quarantined(&self, on: bool) {
        self.lock().quarantined = on;
    }

    /// A consistent snapshot of all health counters.
    pub fn snapshot(&self) -> HealthSnapshot {
        let inner = self.lock();
        HealthSnapshot {
            requests: inner.requests,
            failures: inner.failures,
            retries: inner.retries,
            open_rejections: inner.open_rejections,
            breaker: inner.breaker.state(),
            latency_ewma: Duration::from_micros(inner.ewma_micros as u64),
            quarantined: inner.quarantined,
        }
    }
}

impl Default for EndpointHealth {
    fn default() -> Self {
        EndpointHealth::new(BreakerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_submission_order() {
        let pool = RequestHandler::new(4);
        let out = pool.map((0..100).collect(), |i: usize| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let pool = RequestHandler::new(4);
        let empty: Vec<usize> = pool.map(Vec::<usize>::new(), |i| i);
        assert!(empty.is_empty());
        assert_eq!(pool.map(vec![7], |i: usize| i + 1), vec![8]);
    }

    #[test]
    fn sleeps_overlap() {
        // 8 tasks × 20 ms each on 8 threads should take ≪ 160 ms.
        let pool = RequestHandler::new(8);
        let start = Instant::now();
        pool.map((0..8).collect(), |_: usize| {
            std::thread::sleep(Duration::from_millis(20))
        });
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(120),
            "tasks did not overlap: {elapsed:?}"
        );
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let pool = RequestHandler::new(3);
        let counter = AtomicUsize::new(0);
        pool.map((0..50).collect(), |_: usize| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn thread_count_clamped() {
        assert_eq!(RequestHandler::new(0).threads(), 1);
    }

    #[test]
    fn panicking_task_does_not_strand_siblings() {
        // The satellite fix: task 13 panics, the other 39 still complete,
        // and the caller sees the original panic afterwards.
        let pool = RequestHandler::new(4);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..40).collect(), |i: usize| {
                if i == 13 {
                    panic!("injected task failure");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            39,
            "all sibling tasks must have completed"
        );
    }

    #[test]
    fn deadline_none_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
        assert_eq!(d.clamp(Duration::from_secs(9)), Duration::from_secs(9));
    }

    #[test]
    fn deadline_budget_counts_down() {
        let d = Deadline::within(Duration::from_millis(50));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() <= Duration::from_millis(50));
        assert!(d.clamp(Duration::from_secs(10)) <= Duration::from_millis(50));
        std::thread::sleep(Duration::from_millis(60));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        assert_eq!(d.clamp(Duration::from_secs(10)), Duration::ZERO);
    }

    #[test]
    fn map_cancellable_without_deadline_runs_everything() {
        let pool = RequestHandler::new(4);
        let out = pool.map_cancellable(
            (0..10).collect(),
            Deadline::none(),
            |_: usize| usize::MAX,
            |i: usize| i,
        );
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    // --- wave width ---

    /// Runs `tasks` tasks of `each` sleep; returns the most in flight at once.
    fn sleep_wave(pool: &RequestHandler, tasks: usize, each: Duration) -> usize {
        let inflight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.map((0..tasks).collect(), |_: usize| {
            peak.fetch_max(
                inflight.fetch_add(1, Ordering::SeqCst) + 1,
                Ordering::SeqCst,
            );
            std::thread::sleep(each);
            inflight.fetch_sub(1, Ordering::SeqCst);
        });
        peak.load(Ordering::SeqCst)
    }

    #[test]
    fn a_wave_of_one_request_per_endpoint_takes_one_round_trip() {
        // The analysis probe of a 13-endpoint federation: every request is
        // in flight at once — the barrier opens only when all 13 tasks
        // have a thread.
        let pool = RequestHandler::elastic(13);
        let all_started = std::sync::Barrier::new(13);
        pool.map((0..13).collect(), |_: usize| {
            all_started.wait();
        });
        let snap = pool.snapshot();
        assert_eq!((snap.waves, snap.peak_width), (1, 13), "{snap:?}");
        // At a 4 ms round trip no timer sits between the wave and its
        // threads. Best of five: the test binary runs its tests in parallel.
        let fastest = (0..5)
            .map(|_| {
                let start = Instant::now();
                sleep_wave(&pool, 13, Duration::from_millis(4));
                start.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            fastest < Duration::from_millis(8),
            "13 requests took more than two round trips: {fastest:?}"
        );
    }

    #[test]
    fn a_wave_is_as_wide_as_its_tasks_up_to_the_ceiling() {
        let pool = RequestHandler::elastic(13);
        sleep_wave(&pool, 3, Duration::from_millis(2));
        assert_eq!(pool.snapshot().peak_width, 3);
        let pool = RequestHandler::with_widths(4, 6);
        assert!(sleep_wave(&pool, 13, Duration::from_millis(2)) <= 6);
        assert_eq!(pool.snapshot().peak_width, 6);
    }

    #[test]
    fn pinned_handler_never_exceeds_its_width() {
        let pool = RequestHandler::new(4);
        assert!(sleep_wave(&pool, 13, Duration::from_millis(5)) <= 4);
        let snap = pool.snapshot();
        assert_eq!((snap.peak_width, snap.floor, snap.ceiling), (4, 4, 4));
    }

    #[test]
    fn elastic_ceiling_follows_the_federation_size() {
        let floor = RequestHandler::per_core().threads();
        for (endpoints, ceiling) in [(0, floor), (floor + 9, floor + 9), (10_000, 64.max(floor))] {
            let snap = RequestHandler::elastic(endpoints).snapshot();
            assert_eq!((snap.floor, snap.ceiling), (floor, ceiling));
        }
    }

    #[test]
    fn single_thread_runs_in_order_on_the_caller() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let record = |i: usize| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        };
        let pool = RequestHandler::new(1);
        pool.map((0..20).collect(), record);
        // ... and so does a wave of one task, whatever the handler.
        let elastic = RequestHandler::elastic(13);
        elastic.map(vec![20], record);
        assert_eq!(*order.lock().unwrap(), (0..=20).collect::<Vec<_>>());
        assert_eq!(pool.snapshot().peak_width, 1);
        assert_eq!(elastic.snapshot().peak_width, 1);
    }

    #[test]
    fn a_refused_spawn_still_completes_the_wave() {
        // No thread to be had is the inline path: the caller runs every
        // task itself, in submission order, panics still contained.
        let caller = std::thread::current().id();
        let tasks: Vec<_> = (0..13)
            .map(|i| {
                move || {
                    assert_eq!(std::thread::current().id(), caller);
                    assert_ne!(i, 5, "task five fails");
                    i
                }
            })
            .collect();
        let (granted, results) = run_wave(tasks, 0);
        assert_eq!(granted, 0);
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.ok(), (i != 5).then_some(i));
        }
    }

    #[test]
    fn expired_deadline_cancels_every_task_of_a_wide_wave() {
        let pool = RequestHandler::elastic(13);
        let out = pool.map_cancellable(
            (0..13).collect(),
            Deadline::within(Duration::ZERO),
            |_: usize| -1i64,
            |_: usize| -> i64 { panic!("must not run past the deadline") },
        );
        assert_eq!(out, vec![-1; 13]);
    }

    // --- circuit breaker ---

    fn test_config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
            ewma_alpha: 0.5,
        }
    }

    #[test]
    fn breaker_opens_after_threshold_consecutive_failures() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(test_config());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_failure(t0));
        assert!(!b.on_failure(t0));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.on_failure(t0), "third failure must open the breaker");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(matches!(b.admit(t0), Admission::Rejected { .. }));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(test_config());
        b.on_failure(t0);
        b.on_failure(t0);
        b.on_success();
        assert_eq!(b.consecutive_failures(), 0);
        b.on_failure(t0);
        b.on_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_breaker_half_opens_after_cooldown_and_admits_one_probe() {
        let cfg = test_config();
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg);
        for _ in 0..cfg.failure_threshold {
            b.on_failure(t0);
        }
        // Before the cooldown: rejected, with a sensible retry hint.
        match b.admit(t0 + Duration::from_millis(40)) {
            Admission::Rejected { retry_in } => {
                assert_eq!(retry_in, Duration::from_millis(60));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // After the cooldown: exactly one probe.
        let t1 = t0 + cfg.cooldown + Duration::from_millis(1);
        assert_eq!(b.admit(t1), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(
            matches!(b.admit(t1), Admission::Rejected { .. }),
            "half-open must admit exactly one probe"
        );
        // Probe success closes; probe failure would re-open.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(t1), Admission::Admitted);
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let cfg = test_config();
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg);
        for _ in 0..cfg.failure_threshold {
            b.on_failure(t0);
        }
        let t1 = t0 + cfg.cooldown + Duration::from_millis(1);
        assert_eq!(b.admit(t1), Admission::Probe);
        assert!(b.on_failure(t1), "failed probe re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(matches!(
            b.admit(t1 + cfg.cooldown / 2),
            Admission::Rejected { .. }
        ));
        assert_eq!(b.admit(t1 + cfg.cooldown), Admission::Probe);
    }

    #[test]
    fn stale_probe_is_replaced() {
        // A probe whose thread died must not wedge the breaker half-open.
        let cfg = test_config();
        let t0 = Instant::now();
        let mut b = CircuitBreaker::new(cfg);
        for _ in 0..cfg.failure_threshold {
            b.on_failure(t0);
        }
        let t1 = t0 + cfg.cooldown;
        assert_eq!(b.admit(t1), Admission::Probe);
        // The probe never reports back; one full cooldown later a new
        // request becomes the replacement probe.
        let t2 = t1 + cfg.cooldown + Duration::from_millis(1);
        assert_eq!(b.admit(t2), Admission::Probe);
    }

    /// The satellite property test: a seeded loop drives random
    /// success/failure sequences through the machine with a synthetic
    /// clock and checks every transition against a naive reference model.
    #[test]
    fn breaker_property_loop() {
        // In-tree SplitMix64 step (workloads depends on this crate, so the
        // generator cannot be imported here).
        fn next_u64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        let seed: u64 = std::env::var("LUSAIL_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42);
        let mut rng = seed;
        let cfg = test_config();
        let base = Instant::now();

        for round in 0..200 {
            let mut b = CircuitBreaker::new(cfg);
            let mut now = base;
            let mut streak = 0u32;
            let mut prev_state = b.state();
            for step in 0..300 {
                let ctx = format!("seed={seed} round={round} step={step}");
                // Advance the synthetic clock by 0–49 ms.
                now += Duration::from_millis(next_u64(&mut rng) % 50);
                let admission = b.admit(now);
                let state = b.state();
                // Legal transitions out of admit: Open may become
                // HalfOpen; Closed and HalfOpen never change here
                // (a stale-probe replacement stays HalfOpen).
                match (prev_state, state) {
                    (a, b) if a == b => {}
                    (BreakerState::Open, BreakerState::HalfOpen) => {}
                    (a, b) => panic!("illegal admit transition {a:?} -> {b:?} ({ctx})"),
                }
                match (state, admission) {
                    (BreakerState::Closed, Admission::Admitted) => {}
                    (BreakerState::Open, Admission::Rejected { retry_in }) => {
                        assert!(retry_in <= cfg.cooldown, "{ctx}");
                    }
                    (BreakerState::HalfOpen, Admission::Probe) => {}
                    (BreakerState::HalfOpen, Admission::Rejected { .. }) => {}
                    (s, a) => panic!("state {s:?} returned {a:?} ({ctx})"),
                }
                if admission == Admission::Probe {
                    // Half-open admits exactly one probe: an immediate
                    // second request must be rejected.
                    assert!(
                        matches!(b.admit(now), Admission::Rejected { .. }),
                        "half-open admitted two probes ({ctx})"
                    );
                }
                let proceed = !matches!(admission, Admission::Rejected { .. });
                if proceed {
                    if next_u64(&mut rng) % 100 < 40 {
                        b.on_failure(now);
                        streak += 1;
                        if admission == Admission::Probe {
                            assert_eq!(
                                b.state(),
                                BreakerState::Open,
                                "failed probe must re-open ({ctx})"
                            );
                        } else if streak >= cfg.failure_threshold {
                            assert_eq!(
                                b.state(),
                                BreakerState::Open,
                                "threshold reached but breaker closed ({ctx})"
                            );
                        }
                    } else {
                        b.on_success();
                        streak = 0;
                        assert_eq!(
                            b.state(),
                            BreakerState::Closed,
                            "success must close the breaker ({ctx})"
                        );
                    }
                }
                prev_state = b.state();
            }
        }
    }

    #[test]
    fn health_registry_counts_and_ewma() {
        let health = EndpointHealth::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
            ewma_alpha: 0.5,
        });
        assert_eq!(health.admit(), Admission::Admitted);
        health.record_success(Duration::from_millis(10));
        assert_eq!(health.admit(), Admission::Admitted);
        health.record_retry();
        health.record_success(Duration::from_millis(20));
        let snap = health.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.failures, 0);
        assert_eq!(snap.breaker, BreakerState::Closed);
        // EWMA with α=0.5: 0.5·20ms + 0.5·10ms = 15ms.
        assert_eq!(snap.latency_ewma, Duration::from_millis(15));

        // Two failures open the breaker; admissions then fail fast.
        health.record_failure();
        health.record_failure();
        assert_eq!(health.state(), BreakerState::Open);
        assert!(matches!(health.admit(), Admission::Rejected { .. }));
        let snap = health.snapshot();
        assert_eq!(snap.failures, 2);
        assert_eq!(snap.open_rejections, 1);

        // After the cooldown a probe goes through and recovery closes it.
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(health.admit(), Admission::Probe);
        health.record_success(Duration::from_millis(5));
        assert_eq!(health.state(), BreakerState::Closed);
    }
}
