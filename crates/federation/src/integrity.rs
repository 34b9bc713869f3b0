//! Result-integrity tracking: the bookkeeping behind silent-truncation
//! detection and lying-endpoint quarantine.
//!
//! Public SPARQL endpoints routinely cap result sets (DBpedia's 10 000-row
//! limit is the canonical example) and misreport `COUNT`s while answering
//! `200 OK`, so a federated join silently computes over a prefix. The
//! breaker/partial/budget machinery defends against endpoints that *fail*;
//! this module is the ledger for endpoints that *lie*.
//!
//! The registry tracks, per endpoint name:
//!
//! * a **learned cap** — the same exact row count repeated across plain
//!   `SELECT` responses, the classic truncation tell. A `VALUES`-block
//!   response with exactly one row per binding sent is *explained* by the
//!   request: it teaches no cap, is never flagged by its count, and ends
//!   the run of equal counts before it;
//! * a **trust ramp** — until `trust_after` consecutive verified-clean
//!   responses, every response is cross-checked against a fresh
//!   `COUNT(*)` probe (`trust_after = 0`, the default, trusts immediately
//!   and relies on the cheap heuristics alone);
//! * a **watch flag** — once an endpoint has been caught truncating, all
//!   its subsequent responses are verified;
//! * **divergence strikes** — a verification whose `COUNT` claim cannot
//!   be reconciled with the rows actually deliverable (even after
//!   exhaustive paging) is a strike; `quarantine_after` strikes enter the
//!   endpoint into [quarantine](QuarantineTransition), and
//!   `rehabilitate_after` consecutive clean verifications exit it.
//!
//! The registry is pure bookkeeping: it never talks to endpoints. The
//! engine consults it per response, runs the verification probes and the
//! `ORDER BY`+`LIMIT/OFFSET` recovery paging, and feeds the outcomes
//! back. Quarantine transitions are returned to the caller so it can
//! mirror them into [`crate::EndpointHealth::set_quarantined`], which is
//! what demotes the endpoint in replica ranking.

use crate::json::Json;
use lusail_rdf::fxhash::FxHashMap;
use std::sync::Mutex;

/// Thresholds for the detection heuristics and the quarantine lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityConfig {
    /// Consecutive plain-`SELECT` responses with the same exact row count
    /// (at or above [`learned_cap_floor`](Self::learned_cap_floor))
    /// before that count is treated as the endpoint's silent cap.
    pub repeat_threshold: u32,
    /// Row counts below this never participate in cap learning — small
    /// results legitimately repeat.
    pub learned_cap_floor: usize,
    /// Divergence strikes before the endpoint enters quarantine.
    pub quarantine_after: u32,
    /// Consecutive verified-clean responses that exit quarantine.
    pub rehabilitate_after: u32,
    /// Consecutive verified-clean responses before an endpoint is
    /// *trusted* and only the cheap heuristics trigger verification. `0`
    /// (the default) trusts immediately; the chaos suites use
    /// [`paranoid`](Self::paranoid) to verify everything.
    pub trust_after: u32,
    /// Hard cap on recovery pages fetched for a single response.
    pub max_pages: usize,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            repeat_threshold: 3,
            learned_cap_floor: 64,
            quarantine_after: 2,
            rehabilitate_after: 3,
            trust_after: 0,
            max_pages: 512,
        }
    }
}

impl IntegrityConfig {
    /// Verify every response against a `COUNT(*)` probe, forever. Sound
    /// against any lying endpoint at the cost of one probe per response;
    /// used by the integrity-chaos suite, where byte-identical recovery
    /// must hold for *every* truncated response, not just eventual ones.
    pub fn paranoid() -> Self {
        IntegrityConfig {
            trust_after: u32::MAX,
            learned_cap_floor: 2,
            repeat_threshold: 2,
            ..IntegrityConfig::default()
        }
    }
}

/// What a strike or a clean verification did to the endpoint's
/// quarantine membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineTransition {
    /// No membership change.
    None,
    /// The endpoint just crossed the strike threshold and is now
    /// quarantined.
    Entered,
    /// The endpoint just completed its rehabilitation streak and left
    /// quarantine.
    Exited,
}

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

    /// True when nothing integrity-related ever happened — such endpoints
    /// are omitted from the stats surfaces.
    pub fn is_idle(&self) -> bool {
        *self == IntegritySnapshot::default()
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
#[derive(Debug)]
pub struct IntegrityRegistry {
    config: IntegrityConfig,
    endpoints: Mutex<FxHashMap<String, EndpointIntegrity>>,
}

impl IntegrityRegistry {
    pub fn new(config: IntegrityConfig) -> Self {
        IntegrityRegistry {
            config,
            endpoints: Mutex::new(FxHashMap::default()),
        }
    }

    pub fn config(&self) -> &IntegrityConfig {
        &self.config
    }

    fn with<T>(
        &self,
        endpoint: &str,
        f: impl FnOnce(&IntegrityConfig, &mut EndpointIntegrity) -> T,
    ) -> T {
        let mut map = self.endpoints.lock().expect("integrity registry poisoned");
        // Look up by `&str` first: the name is only allocated the first
        // time an endpoint is seen, not on every call.
        if let Some(entry) = map.get_mut(endpoint) {
            return f(&self.config, entry);
        }
        f(&self.config, map.entry(endpoint.to_string()).or_default())
    }

    /// Record the row count of an unpaged plain-`SELECT` response — and,
    /// for a `VALUES`-block request, how many `bindings` it carried — and
    /// report whether the cheap heuristic finds it suspicious: it is the
    /// `repeat_threshold`-th consecutive response with this exact count,
    /// or it matches the cap learned that way.
    ///
    /// One row per binding is what a full block returns from an honest
    /// endpoint whenever the bound pattern has one match per binding, so
    /// such a response is explained by its request: never suspicious,
    /// never part of a run, and — like a different count at or above the
    /// floor — the end of the run before it. A cap below the block length
    /// still shows as `rows != bindings`, block after block.
    pub fn observe_rows(&self, endpoint: &str, rows: usize, bindings: Option<usize>) -> bool {
        self.with(endpoint, |cfg, e| {
            if bindings == Some(rows) {
                e.repeat = None;
                return false;
            }
            if rows >= cfg.learned_cap_floor {
                let run = match e.repeat {
                    Some((n, k)) if n == rows => k + 1,
                    _ => 1,
                };
                e.repeat = Some((rows, run));
                if run >= cfg.repeat_threshold {
                    e.snapshot.learned_cap = Some(rows);
                }
            }
            e.snapshot.learned_cap == Some(rows)
        })
    }

    /// Whether this endpoint's responses must be `COUNT`-verified
    /// regardless of the cheap heuristics: quarantined, watched, or not
    /// yet through the trust ramp.
    pub fn needs_verification(&self, endpoint: &str) -> bool {
        self.with(endpoint, |cfg, e| {
            e.snapshot.quarantined || e.watch || e.clean_streak < cfg.trust_after
        })
    }

    /// Count one verification probe issued.
    pub fn record_verification(&self, endpoint: &str) {
        self.with(endpoint, |_, e| e.snapshot.verifications += 1);
    }

    /// A verification reconciled: claim matched delivery. Advances the
    /// trust ramp and, inside quarantine, the rehabilitation streak.
    pub fn record_clean(&self, endpoint: &str) -> QuarantineTransition {
        self.with(endpoint, |cfg, e| {
            e.clean_streak = e.clean_streak.saturating_add(1);
            if e.snapshot.quarantined && e.clean_streak >= cfg.rehabilitate_after {
                e.snapshot.quarantined = false;
                e.snapshot.quarantine_exits += 1;
                e.strikes = 0;
                QuarantineTransition::Exited
            } else {
                QuarantineTransition::None
            }
        })
    }

    /// A response was confirmed truncated (advertised by the server or
    /// `COUNT` claim above delivery). Puts the endpoint on watch.
    pub fn record_truncation(&self, endpoint: &str) {
        self.with(endpoint, |_, e| {
            e.snapshot.truncations_detected += 1;
            e.watch = true;
            e.clean_streak = 0;
        });
    }

    /// Recovery paging fetched `pages` pages and recovered `rows` rows
    /// beyond the originally delivered prefix.
    pub fn record_recovery(&self, endpoint: &str, pages: u64, rows: u64) {
        self.with(endpoint, |_, e| {
            e.snapshot.pages_fetched += pages;
            e.snapshot.rows_recovered += rows;
        });
    }

    /// A verification could not be reconciled: the rows obtainable, even
    /// after paging, are not the rows the endpoint claimed. One strike;
    /// enough strikes enter quarantine.
    pub fn record_divergence(&self, endpoint: &str) -> QuarantineTransition {
        self.with(endpoint, |cfg, e| {
            e.snapshot.count_divergences += 1;
            e.strikes = e.strikes.saturating_add(1);
            e.clean_streak = 0;
            e.watch = true;
            if !e.snapshot.quarantined && e.strikes >= cfg.quarantine_after {
                e.snapshot.quarantined = true;
                e.snapshot.quarantine_entries += 1;
                QuarantineTransition::Entered
            } else {
                QuarantineTransition::None
            }
        })
    }

    pub fn is_quarantined(&self, endpoint: &str) -> bool {
        self.with(endpoint, |_, e| e.snapshot.quarantined)
    }

    pub fn learned_cap(&self, endpoint: &str) -> Option<usize> {
        self.with(endpoint, |_, e| e.snapshot.learned_cap)
    }

    /// All endpoints with any integrity activity, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, IntegritySnapshot)> {
        let map = self.endpoints.lock().expect("integrity registry poisoned");
        let mut out: Vec<(String, IntegritySnapshot)> = map
            .iter()
            .filter(|(_, e)| !e.snapshot.is_idle())
            .map(|(name, e)| (name.clone(), e.snapshot.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl Default for IntegrityRegistry {
    fn default() -> Self {
        IntegrityRegistry::new(IntegrityConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_exact_count_learns_a_cap() {
        let reg = IntegrityRegistry::default();
        assert!(!reg.observe_rows("ep", 10_000 - 3, None));
        assert!(!reg.observe_rows("ep", 9997, None)); // second consecutive 9997
        assert!(reg.observe_rows("ep", 9997, None)); // third: cap learned
        assert_eq!(reg.learned_cap("ep"), Some(9997));
        // Any later response at the learned cap is suspicious outright.
        assert!(!reg.observe_rows("ep", 12, None));
        assert!(reg.observe_rows("ep", 9997, None));
        // A block is held to the same rule while its count is not its
        // binding count: a cap below the block length shows three times.
        for flagged in [false, false, true] {
            assert_eq!(reg.observe_rows("blocks", 64, Some(97)), flagged);
        }
        assert_eq!(reg.learned_cap("blocks"), Some(64));
    }

    #[test]
    fn small_counts_never_learn_caps() {
        let reg = IntegrityRegistry::default();
        for _ in 0..10 {
            assert!(!reg.observe_rows("ep", 3, None));
        }
        assert_eq!(reg.learned_cap("ep"), None);
    }

    #[test]
    fn one_row_per_binding_is_explained_and_ends_the_run() {
        let reg = IntegrityRegistry::default();
        // Full blocks, as many as you like: no run, no cap, no flag.
        for _ in 0..10 {
            assert!(!reg.observe_rows("ep", 450, Some(450)));
        }
        assert_eq!(reg.learned_cap("ep"), None);
        // n, n, explained, n: the explained response ended the run ...
        assert!(!reg.observe_rows("ep", 450, None));
        assert!(!reg.observe_rows("ep", 450, Some(60)));
        assert!(!reg.observe_rows("ep", 450, Some(450)));
        assert!(!reg.observe_rows("ep", 450, None));
        assert_eq!(reg.learned_cap("ep"), None);
        // ... and n, n, n still flags, whatever request each n answered.
        assert!(!reg.observe_rows("ep", 450, Some(60)));
        assert!(reg.observe_rows("ep", 450, None));
        assert_eq!(reg.learned_cap("ep"), Some(450));
        // An explained response is not flagged even at the learned cap;
        // an unexplained one at that count is.
        assert!(!reg.observe_rows("ep", 450, Some(450)));
        assert!(reg.observe_rows("ep", 450, Some(451)));
    }

    #[test]
    fn quarantine_lifecycle() {
        let reg = IntegrityRegistry::default();
        assert_eq!(reg.record_divergence("ep"), QuarantineTransition::None);
        assert!(!reg.is_quarantined("ep"));
        assert_eq!(reg.record_divergence("ep"), QuarantineTransition::Entered);
        assert!(reg.is_quarantined("ep"));
        assert!(reg.needs_verification("ep"));
        // Rehabilitation: three consecutive clean verifications.
        assert_eq!(reg.record_clean("ep"), QuarantineTransition::None);
        assert_eq!(reg.record_clean("ep"), QuarantineTransition::None);
        assert_eq!(reg.record_clean("ep"), QuarantineTransition::Exited);
        assert!(!reg.is_quarantined("ep"));
        let snap = &reg.snapshot()[0].1;
        assert_eq!(snap.quarantine_entries, 1);
        assert_eq!(snap.quarantine_exits, 1);
        assert_eq!(snap.count_divergences, 2);
    }

    #[test]
    fn divergence_resets_rehabilitation_streak() {
        let reg = IntegrityRegistry::default();
        reg.record_divergence("ep");
        reg.record_divergence("ep");
        assert!(reg.is_quarantined("ep"));
        reg.record_clean("ep");
        reg.record_clean("ep");
        reg.record_divergence("ep");
        reg.record_clean("ep");
        reg.record_clean("ep");
        assert!(
            reg.is_quarantined("ep"),
            "streak must restart after a strike"
        );
        assert_eq!(reg.record_clean("ep"), QuarantineTransition::Exited);
    }

    #[test]
    fn trust_ramp_forces_verification_until_clean_streak() {
        let cfg = IntegrityConfig {
            trust_after: 2,
            ..IntegrityConfig::default()
        };
        let reg = IntegrityRegistry::new(cfg);
        assert!(reg.needs_verification("ep"));
        reg.record_clean("ep");
        assert!(reg.needs_verification("ep"));
        reg.record_clean("ep");
        assert!(!reg.needs_verification("ep"));
        // A confirmed truncation puts the endpoint back on watch forever.
        reg.record_truncation("ep");
        assert!(reg.needs_verification("ep"));
    }

    #[test]
    fn paranoid_never_trusts() {
        let reg = IntegrityRegistry::new(IntegrityConfig::paranoid());
        for _ in 0..100 {
            reg.record_clean("ep");
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
}
