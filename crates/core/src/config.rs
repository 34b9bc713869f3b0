//! Engine configuration.

use lusail_federation::IntegrityConfig;
use std::time::Duration;

/// Threshold for classifying a subquery as *delayed* (Section 4.1,
/// evaluated experimentally in Figure 13 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayThreshold {
    /// Delay when estimated cardinality exceeds `μ`.
    Mu,
    /// Delay when it exceeds `μ + σ` — the paper's default (it
    /// "consistently performs well in all three categories").
    MuSigma,
    /// Delay when it exceeds `μ + 2σ`.
    Mu2Sigma,
    /// Delay only subqueries rejected as outliers by Chauvenet's criterion.
    OutliersOnly,
}

impl DelayThreshold {
    /// The label used in Figure 13.
    pub fn label(&self) -> &'static str {
        match self {
            DelayThreshold::Mu => "mu",
            DelayThreshold::MuSigma => "mu+sigma",
            DelayThreshold::Mu2Sigma => "mu+2sigma",
            DelayThreshold::OutliersOnly => "outliers",
        }
    }
}

/// Which parts of the two-phase strategy run (the Figure 14 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SapeMode {
    /// LADE decomposition + full SAPE scheduling (delayed subqueries,
    /// selectivity-aware ordering, DP join ordering). The real system.
    Full,
    /// LADE decomposition only: all subqueries run concurrently with no
    /// delaying and results are joined in arrival order. Isolates the gain
    /// of the decomposition itself.
    LadeOnly,
}

/// What to do when an endpoint is unreachable (transport failure or open
/// circuit breaker) during query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResultPolicy {
    /// Any endpoint failure aborts the query with a structured error
    /// naming the endpoint (the default).
    #[default]
    FailFast,
    /// Skip subqueries against unreachable endpoints and return the
    /// results computable from the rest, carrying an
    /// [`crate::run::ExecutionWarning`] per skipped piece of work.
    Partial,
}

/// Lusail engine configuration.
#[derive(Debug, Clone)]
pub struct LusailConfig {
    /// Delay threshold (Figure 13 ablation). Default `μ + σ`.
    pub delay_threshold: DelayThreshold,
    /// Scheduling mode (Figure 14 ablation). Default full SAPE.
    pub sape_mode: SapeMode,
    /// The most bindings a bound subquery carries per `VALUES` block.
    /// Under this cap the executor sizes blocks itself: as many as fill
    /// one ERH wave, none larger than the sources' transports carry
    /// ([`lusail_federation::SparqlEndpoint::max_request_bytes`]).
    pub bound_block_size: usize,
    /// ERH width. `Some(n)` pins every wave to at most `n` threads (1 runs
    /// everything inline, in submission order); `None` is elastic: a wave
    /// runs on one thread per request, up to one per endpoint.
    pub threads: Option<usize>,
    /// Per-query time limit (the paper uses one hour; benches scale down).
    pub timeout: Option<Duration>,
    /// Cache source selection, locality-check results and per-pattern
    /// `COUNT` statistics across queries, as the paper's Figure 12(b,c)
    /// "with cache" configuration.
    pub enable_cache: bool,
    /// Treat every join variable whose triple-pattern pair is relevant to
    /// more than one endpoint as global, skipping the instance checks.
    ///
    /// The paper's locality check compares binding sets *within* each
    /// endpoint; when the same instance occurs at two endpoints (§3.3
    /// "Case 2" — e.g. an `owl:sameAs` target referenced from several
    /// datasets), a variable can test local while cross-endpoint
    /// combinations are real answers, and the paper's prescribed handling
    /// ("join partial results from different endpoints, if necessary") is
    /// not constructive. `false` (default) reproduces the paper's
    /// behaviour, which is exact on the benchmark workloads (instances
    /// are endpoint-exclusive there). `true` is sound on arbitrary data
    /// at the cost of more global joins (Lemma 2 guarantees correctness
    /// of the conservative choice).
    pub paranoid_locality: bool,
    /// Whether endpoint failures abort the query or degrade it to a
    /// partial result with warnings.
    pub result_policy: ResultPolicy,
    /// Per-query cap on accounted bytes of materialized intermediate
    /// state (admitted endpoint results and join outputs). `None` (the
    /// default) accounts without enforcing. On exhaustion the query
    /// aborts with [`crate::EngineError::BudgetExceeded`] under
    /// [`ResultPolicy::FailFast`], or truncates with a warning under
    /// [`ResultPolicy::Partial`].
    pub memory_budget: Option<usize>,
    /// Cap on the rows admitted from any single endpoint response — the
    /// engine-side backstop against result bombs. `None` admits
    /// everything.
    pub max_result_rows: Option<usize>,
    /// Result-integrity thresholds: silent-truncation detection
    /// heuristics, the verification trust ramp, and the quarantine
    /// lifecycle (see [`lusail_federation::IntegrityRegistry`]). The
    /// default verifies only on suspicion;
    /// [`IntegrityConfig::paranoid`] cross-checks every response.
    pub integrity: IntegrityConfig,
}

impl Default for LusailConfig {
    fn default() -> Self {
        LusailConfig {
            delay_threshold: DelayThreshold::MuSigma,
            sape_mode: SapeMode::Full,
            bound_block_size: 512,
            threads: None,
            timeout: None,
            enable_cache: true,
            paranoid_locality: false,
            result_policy: ResultPolicy::FailFast,
            memory_budget: None,
            max_result_rows: None,
            integrity: IntegrityConfig::default(),
        }
    }
}

impl LusailConfig {
    /// The configuration used for the Figure 12 "without cache" series.
    pub fn without_cache() -> Self {
        LusailConfig {
            enable_cache: false,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = LusailConfig::default();
        assert_eq!(c.delay_threshold, DelayThreshold::MuSigma);
        assert_eq!(c.sape_mode, SapeMode::Full);
        assert!(c.enable_cache);
    }

    #[test]
    fn labels() {
        assert_eq!(DelayThreshold::Mu.label(), "mu");
        assert_eq!(DelayThreshold::MuSigma.label(), "mu+sigma");
        assert_eq!(DelayThreshold::Mu2Sigma.label(), "mu+2sigma");
        assert_eq!(DelayThreshold::OutliersOnly.label(), "outliers");
    }
}
