//! SAPE: Selectivity-Aware Planning and parallel Execution (Section 4).
//!
//! * [`stats`] — Chauvenet's outlier criterion and the μ/σ machinery the
//!   delay heuristic rests on.
//! * [`estimate`] — the cost model: per-triple-pattern `COUNT` probes and
//!   the min/sum/max cardinality composition of Section 4.1.
//! * [`schedule`] — the delayed/non-delayed split (Figure 7, Figure 13).
//! * [`join`] — the join planner (bushy DP over the distinct counts of the
//!   rows in hand), its executor, and the parallel and spilling hash joins.
//! * [`execute`] — Algorithm 3: concurrent evaluation of non-delayed
//!   subqueries, bound joins over `VALUES` blocks for delayed ones, source
//!   refinement, and final join assembly. Each wave's responses are settled
//!   by [`crate::integrity`].

pub mod estimate;
pub mod execute;
pub mod join;
pub mod schedule;
pub mod stats;

pub use estimate::{q_error, subquery_cardinality, TpCounts};
pub use execute::{SapeExecutor, SapeOutcome};
pub use join::{parallel_join, plan_joins, JoinStep, JoinTree};
pub use schedule::{make_schedule, Schedule};
