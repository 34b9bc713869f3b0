//! Per-query memory accounting: the space analogue of the [`crate::run`]
//! deadline budget.
//!
//! A [`MemoryBudget`] tracks the bytes of materialized intermediate state
//! a query is holding — admitted endpoint responses, join outputs — using
//! the same cheap wire-size estimate the simulated network charges
//! ([`lusail_sparql::solution::Relation::wire_size`]). Charging is
//! chunked: callers admit relations a block of rows at a time, so the
//! accounted peak can overshoot the limit by at most one admission chunk
//! before the overflow is seen and handled (truncation under partial
//! results, a structured [`crate::EngineError::BudgetExceeded`] under
//! fail-fast).
//!
//! Nothing spills: every charged relation is resident, and a join's output
//! is charged once the join has built it ([`crate::sape::join`]).

use lusail_federation::json::Json;
use lusail_sparql::solution::{row_wire_size, Row};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Which execution phase a charge belongs to, for per-phase peak stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryPhase {
    /// Phase-1 subquery wave results (and MINUS-block contributions).
    Wave,
    /// Global join intermediates and outputs.
    Join,
    /// Phase-2 bound-join (VALUES block) results.
    BoundJoin,
}

/// A charge that did not fit: the budget's limit, the bytes accounted at
/// the time, and the size of the rejected charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    pub limit: usize,
    pub used: usize,
    pub requested: usize,
}

#[derive(Debug, Default)]
struct Inner {
    used: usize,
    peak: usize,
    /// Peak accounted bytes observed while each phase was charging,
    /// indexed by [`MemoryPhase`] discriminant.
    phase_peaks: [usize; 3],
}

/// Memory accounting snapshot for one query (behind `--stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// The configured limit, if any.
    pub limit: Option<usize>,
    /// Highest accounted bytes at any point of the query.
    pub peak_bytes: usize,
    /// Peak accounted bytes while subquery-wave results were charging.
    pub wave_peak_bytes: usize,
    /// Peak accounted bytes while join outputs were charging.
    pub join_peak_bytes: usize,
    /// Peak accounted bytes while bound-join results were charging.
    pub bound_join_peak_bytes: usize,
    /// Always 0: joins do not spill. Kept so that readers of the field
    /// still compile; `to_json` leaves it out.
    pub spill_count: u64,
    /// Always 0, like [`MemoryStats::spill_count`].
    pub spill_bytes: u64,
}

impl MemoryStats {
    /// The per-query `memory` stats section.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("limit", self.limit.into()),
            ("peak_bytes", self.peak_bytes.into()),
            ("wave_peak_bytes", self.wave_peak_bytes.into()),
            ("join_peak_bytes", self.join_peak_bytes.into()),
            ("bound_join_peak_bytes", self.bound_join_peak_bytes.into()),
        ])
    }
}

/// Shared, thread-safe accounting handle; clones refer to one ledger.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    limit: Option<usize>,
    inner: Arc<Mutex<Inner>>,
}

impl MemoryBudget {
    /// A budget capped at `limit` bytes (`None` accounts without a cap).
    pub fn new(limit: Option<usize>) -> Self {
        MemoryBudget {
            limit,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    /// Accounting only, never rejects a charge.
    pub fn unbounded() -> Self {
        MemoryBudget::new(None)
    }

    /// The configured cap.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// Whether a cap is configured at all.
    pub fn is_bounded(&self) -> bool {
        self.limit.is_some()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Bytes currently accounted.
    pub fn used(&self) -> usize {
        self.lock().used
    }

    /// Bytes left under the cap (`usize::MAX` when unbounded).
    pub fn remaining(&self) -> usize {
        match self.limit {
            None => usize::MAX,
            Some(limit) => limit.saturating_sub(self.lock().used),
        }
    }

    /// Account `bytes` against the budget, failing when the cap would be
    /// crossed (the ledger is left unchanged on failure).
    pub fn try_charge(&self, phase: MemoryPhase, bytes: usize) -> Result<(), BudgetExhausted> {
        let mut inner = self.lock();
        if let Some(limit) = self.limit {
            if inner.used.saturating_add(bytes) > limit {
                return Err(BudgetExhausted {
                    limit,
                    used: inner.used,
                    requested: bytes,
                });
            }
        }
        inner.used += bytes;
        inner.peak = inner.peak.max(inner.used);
        let used = inner.used;
        let p = &mut inner.phase_peaks[phase as usize];
        *p = (*p).max(used);
        Ok(())
    }

    /// Return `bytes` to the budget (e.g. a consumed intermediate).
    pub fn release(&self, bytes: usize) {
        let mut inner = self.lock();
        inner.used = inner.used.saturating_sub(bytes);
    }

    /// Snapshot the ledger for profiling output.
    pub fn stats(&self) -> MemoryStats {
        let inner = self.lock();
        MemoryStats {
            limit: self.limit,
            peak_bytes: inner.peak,
            wave_peak_bytes: inner.phase_peaks[MemoryPhase::Wave as usize],
            join_peak_bytes: inner.phase_peaks[MemoryPhase::Join as usize],
            bound_join_peak_bytes: inner.phase_peaks[MemoryPhase::BoundJoin as usize],
            spill_count: 0,
            spill_bytes: 0,
        }
    }
}

/// How many rows `RowCharge::charge` charges per budget check. The
/// accounted peak can overshoot the memory budget by at most one chunk's
/// bytes before the overflow is handled.
pub const ADMISSION_CHUNK_ROWS: usize = 256;

/// A relation's rows being charged against a [`MemoryBudget`] — the one
/// chunked charge behind every admission: endpoint responses and join
/// outputs.
#[derive(Debug)]
pub(crate) struct RowCharge {
    phase: MemoryPhase,
    /// The most this relation may claim, below the budget's own limit.
    allowance: usize,
    /// Header bytes not yet charged; they go with the first chunk.
    header: usize,
    /// Rows admitted so far.
    pub(crate) rows: usize,
    /// Bytes charged so far.
    pub(crate) bytes: usize,
}

impl RowCharge {
    /// A charge for a relation of `vars` columns, capped at `allowance`.
    pub(crate) fn new(phase: MemoryPhase, vars: usize, allowance: usize) -> Self {
        RowCharge {
            phase,
            allowance,
            header: 8 * vars,
            rows: 0,
            bytes: 0,
        }
    }

    /// Charge the rows of a finished relation: the header with the first
    /// chunk (alone for an empty relation), then [`ADMISSION_CHUNK_ROWS`]-row
    /// chunks. Stops at the first chunk that would cross the allowance or
    /// the limit; what was charged before it stays charged.
    pub(crate) fn charge(
        &mut self,
        budget: &MemoryBudget,
        rows: &[Row],
    ) -> Result<(), BudgetExhausted> {
        while self.rows < rows.len() || self.header > 0 {
            let end = rows.len().min(self.rows + ADMISSION_CHUNK_ROWS);
            let bytes = self.header
                + rows[self.rows..end]
                    .iter()
                    .map(row_wire_size)
                    .sum::<usize>();
            if self.bytes + bytes > self.allowance {
                return Err(BudgetExhausted {
                    limit: self.allowance,
                    used: self.bytes,
                    requested: bytes,
                });
            }
            budget.try_charge(self.phase, bytes)?;
            self.header = 0;
            self.bytes += bytes;
            self.rows = end;
        }
        Ok(())
    }
}

/// Why a [`MemoryPool`] carve attempt was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolRejection {
    /// Every ledger was taken and the admission queue was full.
    QueueFull,
    /// A queue slot was granted but no ledger freed up within the wait
    /// budget.
    TimedOut,
}

impl std::fmt::Display for PoolRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolRejection::QueueFull => write!(f, "memory pool exhausted and admission queue full"),
            PoolRejection::TimedOut => {
                write!(f, "memory pool exhausted and queue wait budget spent")
            }
        }
    }
}

/// A snapshot of one [`MemoryPool`]'s lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Ledgers handed out over the pool's lifetime.
    pub carved: u64,
    /// Carve attempts turned away (queue full or wait budget spent).
    pub shed: u64,
    /// Carve attempts that had to wait in the admission queue first.
    pub queued: u64,
    /// Highest number of ledgers simultaneously outstanding.
    pub peak_ledgers: usize,
    /// Ledgers currently outstanding.
    pub in_use: usize,
    /// Callers currently waiting in the admission queue.
    pub waiting: usize,
}

impl PoolStats {
    /// The counters of the `pool` stats section.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("in_use", self.in_use.into()),
            ("waiting", self.waiting.into()),
            ("carved", self.carved.into()),
            ("queued", self.queued.into()),
            ("shed", self.shed.into()),
            ("peak_ledgers", self.peak_ledgers.into()),
        ])
    }
}

#[derive(Debug, Default)]
struct PoolState {
    in_use: usize,
    waiting: usize,
    carved: u64,
    shed: u64,
    queued: u64,
    peak_ledgers: usize,
}

/// A global memory pool carved into per-query [`MemoryBudget`] ledgers —
/// the admission-control primitive behind `lusail serve --federate`.
///
/// The pool holds `capacity` bytes; each carve hands out a ledger of
/// `ledger_bytes`, so at most `capacity / ledger_bytes` queries hold
/// memory at once. When every ledger is taken, further carves wait in a
/// bounded admission queue; when the queue is full (or the wait budget is
/// spent) the carve is *shed* — the service layer turns that into an HTTP
/// 503 with `Retry-After`. Dropping a [`PooledBudget`] returns its ledger
/// and wakes one queued waiter.
///
/// The sum of concurrently outstanding ledgers can never exceed the pool,
/// and each query's charges are capped by its own ledger, so total
/// accounted intermediate-state bytes stay under `capacity` by
/// construction.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    capacity: usize,
    ledger_bytes: usize,
    max_ledgers: usize,
    inner: Arc<(Mutex<PoolState>, Condvar)>,
}

impl MemoryPool {
    /// A pool of `capacity` bytes handing out ledgers of `ledger_bytes`.
    /// Both are clamped to at least one byte, and a ledger larger than the
    /// pool shrinks to the pool (one query at a time, full budget).
    pub fn new(capacity: usize, ledger_bytes: usize) -> Self {
        let capacity = capacity.max(1);
        let ledger_bytes = ledger_bytes.clamp(1, capacity);
        MemoryPool {
            capacity,
            ledger_bytes,
            max_ledgers: (capacity / ledger_bytes).max(1),
            inner: Arc::new((Mutex::new(PoolState::default()), Condvar::new())),
        }
    }

    /// Total pool bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes per carved ledger.
    pub fn ledger_bytes(&self) -> usize {
        self.ledger_bytes
    }

    /// Concurrent ledgers the pool can sustain.
    pub fn max_ledgers(&self) -> usize {
        self.max_ledgers
    }

    /// Ledgers currently outstanding.
    pub fn in_use(&self) -> usize {
        self.lock_state().in_use
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.inner.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Carve one ledger without waiting; `None` when all are taken.
    pub fn try_carve(&self) -> Option<PooledBudget> {
        let mut state = self.lock_state();
        if state.in_use >= self.max_ledgers {
            state.shed += 1;
            return None;
        }
        Some(self.grant(&mut state))
    }

    /// Carve one ledger, waiting in the admission queue when the pool is
    /// saturated: at most `max_waiting` callers queue at once, each for at
    /// most `wait`. A full queue or a spent wait budget sheds the caller.
    pub fn carve_queued(
        &self,
        max_waiting: usize,
        wait: Duration,
    ) -> Result<PooledBudget, PoolRejection> {
        let (lock, cv) = (&self.inner.0, &self.inner.1);
        let mut state = lock.lock().unwrap_or_else(|p| p.into_inner());
        if state.in_use < self.max_ledgers {
            return Ok(self.grant(&mut state));
        }
        if state.waiting >= max_waiting {
            state.shed += 1;
            return Err(PoolRejection::QueueFull);
        }
        state.waiting += 1;
        state.queued += 1;
        let deadline = std::time::Instant::now() + wait;
        loop {
            let remaining = match deadline.checked_duration_since(std::time::Instant::now()) {
                Some(r) if !r.is_zero() => r,
                _ => {
                    state.waiting -= 1;
                    state.shed += 1;
                    return Err(PoolRejection::TimedOut);
                }
            };
            let (next, timeout) = cv
                .wait_timeout(state, remaining)
                .unwrap_or_else(|p| p.into_inner());
            state = next;
            if state.in_use < self.max_ledgers {
                state.waiting -= 1;
                return Ok(self.grant(&mut state));
            }
            if timeout.timed_out() {
                state.waiting -= 1;
                state.shed += 1;
                return Err(PoolRejection::TimedOut);
            }
        }
    }

    fn grant(&self, state: &mut PoolState) -> PooledBudget {
        state.in_use += 1;
        state.carved += 1;
        state.peak_ledgers = state.peak_ledgers.max(state.in_use);
        PooledBudget {
            budget: MemoryBudget::new(Some(self.ledger_bytes)),
            pool: Arc::clone(&self.inner),
        }
    }

    /// Lifetime counters plus current occupancy.
    pub fn stats(&self) -> PoolStats {
        let state = self.lock_state();
        PoolStats {
            carved: state.carved,
            shed: state.shed,
            queued: state.queued,
            peak_ledgers: state.peak_ledgers,
            in_use: state.in_use,
            waiting: state.waiting,
        }
    }
}

/// One carved ledger: a [`MemoryBudget`] whose capacity is reserved out of
/// a [`MemoryPool`]. Dropping it returns the reservation and wakes one
/// queued waiter.
#[derive(Debug)]
pub struct PooledBudget {
    budget: MemoryBudget,
    pool: Arc<(Mutex<PoolState>, Condvar)>,
}

impl PooledBudget {
    /// The per-query ledger (clones share this carve's accounting).
    pub fn budget(&self) -> MemoryBudget {
        self.budget.clone()
    }
}

impl Drop for PooledBudget {
    fn drop(&mut self) {
        let mut state = self.pool.0.lock().unwrap_or_else(|p| p.into_inner());
        state.in_use = state.in_use.saturating_sub(1);
        drop(state);
        self.pool.1.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_release() {
        let b = MemoryBudget::new(Some(100));
        b.try_charge(MemoryPhase::Wave, 40).unwrap();
        b.try_charge(MemoryPhase::Join, 40).unwrap();
        assert_eq!(b.used(), 80);
        assert_eq!(b.remaining(), 20);
        b.release(40);
        assert_eq!(b.used(), 40);
        // Peak survives the release.
        assert_eq!(b.stats().peak_bytes, 80);
    }

    #[test]
    fn overflow_is_rejected_without_mutating_the_ledger() {
        let b = MemoryBudget::new(Some(100));
        b.try_charge(MemoryPhase::Wave, 90).unwrap();
        let err = b.try_charge(MemoryPhase::Wave, 20).unwrap_err();
        assert_eq!(
            err,
            BudgetExhausted {
                limit: 100,
                used: 90,
                requested: 20
            }
        );
        assert_eq!(b.used(), 90, "a rejected charge must not be booked");
        assert_eq!(b.remaining(), 10);
    }

    #[test]
    fn unbounded_never_rejects_but_still_accounts() {
        let b = MemoryBudget::unbounded();
        assert!(!b.is_bounded());
        b.try_charge(MemoryPhase::BoundJoin, usize::MAX / 2)
            .unwrap();
        assert_eq!(b.remaining(), usize::MAX);
        assert_eq!(b.stats().bound_join_peak_bytes, usize::MAX / 2);
    }

    #[test]
    fn phase_peaks_track_total_used_during_that_phase() {
        let b = MemoryBudget::new(Some(1000));
        b.try_charge(MemoryPhase::Wave, 300).unwrap();
        b.try_charge(MemoryPhase::Join, 200).unwrap();
        let s = b.stats();
        assert_eq!(s.wave_peak_bytes, 300);
        // The join charge lands while the wave bytes are still held.
        assert_eq!(s.join_peak_bytes, 500);
        assert_eq!(s.peak_bytes, 500);
    }

    #[test]
    fn clones_share_one_ledger() {
        let b = MemoryBudget::new(Some(100));
        let c = b.clone();
        c.try_charge(MemoryPhase::Wave, 60).unwrap();
        assert_eq!(b.used(), 60);
    }

    #[test]
    fn pool_carves_bounded_ledgers_and_returns_them_on_drop() {
        let pool = MemoryPool::new(1000, 400);
        assert_eq!(pool.max_ledgers(), 2);
        assert_eq!(pool.ledger_bytes(), 400);
        let a = pool.try_carve().expect("first ledger");
        let b = pool.try_carve().expect("second ledger");
        assert_eq!(pool.in_use(), 2);
        assert!(pool.try_carve().is_none(), "pool must be exhausted");
        // Each ledger enforces its own slice of the pool.
        assert_eq!(a.budget().limit(), Some(400));
        assert!(a.budget().try_charge(MemoryPhase::Wave, 500).is_err());
        drop(a);
        assert_eq!(pool.in_use(), 1);
        let c = pool.try_carve().expect("freed ledger is reusable");
        drop((b, c));
        let stats = pool.stats();
        assert_eq!(stats.carved, 3);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.peak_ledgers, 2);
        assert_eq!(stats.in_use, 0);
    }

    #[test]
    fn pool_oversized_ledger_shrinks_to_pool() {
        let pool = MemoryPool::new(100, 1000);
        assert_eq!(pool.ledger_bytes(), 100);
        assert_eq!(pool.max_ledgers(), 1);
    }

    #[test]
    fn pool_queue_full_sheds_immediately() {
        let pool = MemoryPool::new(100, 100);
        let _held = pool.try_carve().unwrap();
        // max_waiting = 0: a saturated pool sheds without waiting.
        let err = pool
            .carve_queued(0, Duration::from_secs(5))
            .expect_err("no queue slots");
        assert_eq!(err, PoolRejection::QueueFull);
        assert_eq!(pool.stats().shed, 1);
    }

    #[test]
    fn pool_queued_waiter_gets_a_freed_ledger() {
        let pool = MemoryPool::new(100, 100);
        let held = pool.try_carve().unwrap();
        let pool2 = pool.clone();
        let waiter = std::thread::spawn(move || pool2.carve_queued(1, Duration::from_secs(10)));
        // Give the waiter time to park in the queue, then free the ledger.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pool.stats().waiting, 1);
        drop(held);
        let carved = waiter.join().unwrap().expect("waiter must be woken");
        assert_eq!(carved.budget().limit(), Some(100));
        let stats = pool.stats();
        assert_eq!(stats.queued, 1);
        assert_eq!(stats.waiting, 0);
    }

    #[test]
    fn pool_queue_wait_budget_times_out() {
        let pool = MemoryPool::new(100, 100);
        let _held = pool.try_carve().unwrap();
        let err = pool
            .carve_queued(4, Duration::from_millis(30))
            .expect_err("nothing frees the ledger");
        assert_eq!(err, PoolRejection::TimedOut);
        assert_eq!(pool.stats().waiting, 0);
    }
}
