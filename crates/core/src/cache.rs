//! Lusail's query-analysis caches, plus the cross-query result cache used
//! by the federation service.
//!
//! The paper (Section 2, Figure 12(b,c)) caches the results of (i) source
//! selection ASK queries and (ii) the locality check queries that determine
//! which triple-pattern pairs cannot be executed locally. We additionally
//! cache per-pattern `COUNT` probes used by SAPE's cost model.
//!
//! Keys are *canonicalized* pattern strings: variables are renamed by
//! position, so `?s ub:advisor ?p` and `?x ub:advisor ?y` share one entry.
//!
//! A one-shot `lusail query` run uses an unbounded, non-expiring
//! [`QueryCache`] (it dies with the engine). `lusail serve --federate`
//! promotes the same cache to a long-lived shared tier via
//! [`CacheLimits`]: every map gets a capacity cap with oldest-first
//! eviction and a TTL so stale endpoint facts (an endpoint re-loaded its
//! data, a COUNT drifted) age out instead of poisoning every future query.
//! The service adds a [`ResultCache`] on top — whole-query text → final
//! solutions — so a repeated hot query costs zero outbound endpoint
//! requests. Degraded (partial) results are never written to either tier:
//! they describe an outage, not the data.

use lusail_federation::json::Json;
use lusail_federation::EndpointId;
use lusail_rdf::fxhash::FxHashMap;
use lusail_sparql::ast::{TermPattern, TriplePattern};
use lusail_sparql::Relation;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Canonical cache key for a triple pattern: variables renamed by position.
pub fn pattern_key(tp: &TriplePattern) -> String {
    let slot = |s: &TermPattern, tag: &str| match s {
        TermPattern::Var(_) => format!("?{tag}"),
        TermPattern::Term(t) => t.to_string(),
    };
    // Positional renaming must respect repeated variables (`?x p ?x`).
    let mut names: Vec<(String, String)> = Vec::new();
    let mut canon = |s: &TermPattern, fallback: &str| -> String {
        match s {
            TermPattern::Term(_) => slot(s, fallback),
            TermPattern::Var(v) => {
                if let Some((_, name)) = names.iter().find(|(orig, _)| orig == v.name()) {
                    name.clone()
                } else {
                    let name = format!("?v{}", names.len());
                    names.push((v.name().to_string(), name.clone()));
                    name
                }
            }
        }
    };
    let s = canon(&tp.subject, "s");
    let p = canon(&tp.predicate, "p");
    let o = canon(&tp.object, "o");
    format!("{s} {p} {o}")
}

/// Bounds for a long-lived cache tier: an entry-count cap per map (with
/// oldest-first eviction) and a TTL (expired entries read as misses and
/// are dropped). `None` in either slot means unbounded / non-expiring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum entries per map; the oldest entry is evicted beyond it.
    pub capacity: Option<usize>,
    /// Entries older than this read as misses and are removed.
    pub ttl: Option<Duration>,
}

/// Hit/miss/eviction counters for one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub expirations: u64,
}

impl CacheStats {
    /// The counters of the `analysis_cache` stats section.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("hits", self.hits.into()),
            ("misses", self.misses.into()),
            ("evictions", self.evictions.into()),
            ("expirations", self.expirations.into()),
        ])
    }
}

/// One cached value with its insertion order and timestamp.
#[derive(Debug)]
struct Stamped<V> {
    value: V,
    stamp: u64,
    inserted: Instant,
}

/// Thread-safe caches shared by all queries run through one engine.
#[derive(Debug, Default)]
pub struct QueryCache {
    limits: CacheLimits,
    /// Monotonic insertion clock driving oldest-first eviction.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expirations: AtomicU64,
    /// pattern key → relevant endpoints (source selection).
    ask: RwLock<FxHashMap<String, Stamped<Vec<EndpointId>>>>,
    /// (check key, endpoint) → check query returned non-empty there.
    checks: RwLock<FxHashMap<(String, EndpointId), Stamped<bool>>>,
    /// (pattern-with-filters key, endpoint) → COUNT.
    counts: RwLock<FxHashMap<(String, EndpointId), Stamped<usize>>>,
}

impl QueryCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache suitable as a long-lived shared tier: capped and expiring.
    pub fn with_limits(limits: CacheLimits) -> Self {
        QueryCache {
            limits,
            ..Self::default()
        }
    }

    /// A cache capped at `capacity` entries per map, non-expiring.
    pub fn bounded(capacity: usize) -> Self {
        Self::with_limits(CacheLimits {
            capacity: Some(capacity),
            ttl: None,
        })
    }

    /// The configured bounds.
    pub fn limits(&self) -> CacheLimits {
        self.limits
    }

    fn expired(&self, inserted: Instant) -> bool {
        match self.limits.ttl {
            Some(ttl) => inserted.elapsed() > ttl,
            None => false,
        }
    }

    fn lookup<K, V>(&self, map: &RwLock<FxHashMap<K, Stamped<V>>>, key: &K) -> Option<V>
    where
        K: Eq + Hash + Clone,
        V: Clone,
    {
        let (value, stale) = {
            let guard = map.read().expect("cache lock poisoned");
            match guard.get(key) {
                None => (None, false),
                Some(entry) if self.expired(entry.inserted) => (None, true),
                Some(entry) => (Some(entry.value.clone()), false),
            }
        };
        if stale {
            // Drop the expired entry so the map doesn't fill with corpses;
            // re-check under the write lock (a writer may have refreshed it).
            let mut guard = map.write().expect("cache lock poisoned");
            if guard.get(key).is_some_and(|e| self.expired(e.inserted)) {
                guard.remove(key);
                self.expirations.fetch_add(1, Ordering::Relaxed);
            }
        }
        match value {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store<K, V>(&self, map: &RwLock<FxHashMap<K, Stamped<V>>>, key: K, value: V)
    where
        K: Eq + Hash + Clone,
    {
        let mut guard = map.write().expect("cache lock poisoned");
        if let Some(cap) = self.limits.capacity {
            if !guard.contains_key(&key) && guard.len() >= cap.max(1) {
                // Oldest-first eviction: cheap, deterministic, and good
                // enough for analysis facts that all cost about the same
                // to recompute.
                if let Some(oldest) = guard
                    .iter()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(k, _)| k.clone())
                {
                    guard.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        guard.insert(
            key,
            Stamped {
                value,
                stamp: self.clock.fetch_add(1, Ordering::Relaxed),
                inserted: Instant::now(),
            },
        );
    }

    /// Cached relevant endpoints for a pattern.
    pub fn get_sources(&self, key: &str) -> Option<Vec<EndpointId>> {
        self.lookup(&self.ask, &key.to_string())
    }

    /// Store relevant endpoints for a pattern.
    pub fn put_sources(&self, key: String, sources: Vec<EndpointId>) {
        self.store(&self.ask, key, sources);
    }

    /// Cached locality-check outcome at one endpoint.
    pub fn get_check(&self, key: &str, ep: EndpointId) -> Option<bool> {
        self.lookup(&self.checks, &(key.to_string(), ep))
    }

    /// Store a locality-check outcome.
    pub fn put_check(&self, key: String, ep: EndpointId, nonempty: bool) {
        self.store(&self.checks, (key, ep), nonempty);
    }

    /// Cached COUNT probe.
    pub fn get_count(&self, key: &str, ep: EndpointId) -> Option<usize> {
        self.lookup(&self.counts, &(key.to_string(), ep))
    }

    /// Store a COUNT probe.
    pub fn put_count(&self, key: String, ep: EndpointId, count: usize) {
        self.store(&self.counts, (key, ep), count);
    }

    /// Drop everything (explicit invalidation; also used between benchmark
    /// configurations).
    pub fn clear(&self) {
        self.ask.write().expect("cache lock poisoned").clear();
        self.checks.write().expect("cache lock poisoned").clear();
        self.counts.write().expect("cache lock poisoned").clear();
    }

    /// Entry counts, for diagnostics: (ask, checks, counts).
    pub fn sizes(&self) -> (usize, usize, usize) {
        (
            self.ask.read().expect("cache lock poisoned").len(),
            self.checks.read().expect("cache lock poisoned").len(),
            self.counts.read().expect("cache lock poisoned").len(),
        )
    }

    /// Lifetime hit/miss/eviction counters across all three maps.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
        }
    }
}

/// Counters for a [`ResultCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Entries currently cached.
    pub entries: usize,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub expirations: u64,
    /// Explicit `invalidate()` calls.
    pub invalidations: u64,
}

impl ResultCacheStats {
    /// The `result_cache` stats section.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("entries", self.entries.into()),
            ("hits", self.hits.into()),
            ("misses", self.misses.into()),
            ("insertions", self.insertions.into()),
            ("evictions", self.evictions.into()),
            ("expirations", self.expirations.into()),
            ("invalidations", self.invalidations.into()),
        ])
    }
}

#[derive(Debug, Default)]
struct ResultInner {
    map: FxHashMap<String, Stamped<Relation>>,
    clock: u64,
    stats: ResultCacheStats,
}

/// A whole-query result cache: normalized query text → final solutions.
///
/// This is the hot-query tier of `lusail serve --federate`: a hit answers
/// the client with **zero** outbound endpoint requests. Entries expire
/// after the configured TTL, the map is capped with least-recently-used
/// eviction (a hit refreshes recency), and [`ResultCache::invalidate`]
/// drops everything at once (wired to `POST /cache/invalidate`).
///
/// Callers must never insert degraded results — a partial answer cached
/// once would keep answering long after the failed endpoint recovered.
/// The federation service enforces this by only caching warning-free runs.
#[derive(Debug)]
pub struct ResultCache {
    limits: CacheLimits,
    inner: Mutex<ResultInner>,
}

impl ResultCache {
    pub fn new(limits: CacheLimits) -> Self {
        ResultCache {
            limits,
            inner: Mutex::new(ResultInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ResultInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The cached solutions for `key`, if present and fresh.
    pub fn get(&self, key: &str) -> Option<Relation> {
        let mut inner = self.lock();
        let expired = match inner.map.get(key) {
            None => {
                inner.stats.misses += 1;
                return None;
            }
            Some(e) => self
                .limits
                .ttl
                .is_some_and(|ttl| e.inserted.elapsed() > ttl),
        };
        if expired {
            inner.map.remove(key);
            inner.stats.expirations += 1;
            inner.stats.misses += 1;
            return None;
        }
        inner.clock += 1;
        let stamp = inner.clock;
        let entry = inner.map.get_mut(key).expect("checked above");
        entry.stamp = stamp; // LRU: a hit refreshes recency
        let value = entry.value.clone();
        inner.stats.hits += 1;
        Some(value)
    }

    /// Cache `rel` under `key`, evicting the least-recently-used entry
    /// beyond capacity. The caller is responsible for never passing a
    /// degraded (partial / truncated) result.
    pub fn put(&self, key: String, rel: Relation) {
        let mut inner = self.lock();
        if let Some(cap) = self.limits.capacity {
            if !inner.map.contains_key(&key) && inner.map.len() >= cap.max(1) {
                if let Some(oldest) = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(k, _)| k.clone())
                {
                    inner.map.remove(&oldest);
                    inner.stats.evictions += 1;
                }
            }
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.map.insert(
            key,
            Stamped {
                value: rel,
                stamp,
                inserted: Instant::now(),
            },
        );
        inner.stats.insertions += 1;
    }

    /// Drop every cached result (explicit invalidation).
    pub fn invalidate(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.stats.invalidations += 1;
    }

    /// Counters plus current occupancy.
    pub fn stats(&self) -> ResultCacheStats {
        let inner = self.lock();
        ResultCacheStats {
            entries: inner.map.len(),
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::Term;
    use lusail_sparql::ast::TermPattern;
    use lusail_sparql::Variable;

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let slot = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                TermPattern::var(v)
            } else {
                TermPattern::iri(x)
            }
        };
        TriplePattern::new(slot(s), slot(p), slot(o))
    }

    #[test]
    fn keys_canonicalize_variable_names() {
        assert_eq!(
            pattern_key(&tp("?s", "http://p", "?o")),
            pattern_key(&tp("?x", "http://p", "?y"))
        );
        assert_ne!(
            pattern_key(&tp("?s", "http://p", "?o")),
            pattern_key(&tp("?s", "http://q", "?o"))
        );
    }

    #[test]
    fn keys_respect_repeated_variables() {
        assert_ne!(
            pattern_key(&tp("?x", "http://p", "?x")),
            pattern_key(&tp("?x", "http://p", "?y"))
        );
        assert_eq!(
            pattern_key(&tp("?x", "http://p", "?x")),
            pattern_key(&tp("?z", "http://p", "?z"))
        );
    }

    #[test]
    fn cache_roundtrip() {
        let c = QueryCache::new();
        assert_eq!(c.get_sources("k"), None);
        c.put_sources("k".into(), vec![0, 2]);
        assert_eq!(c.get_sources("k"), Some(vec![0, 2]));
        c.put_check("chk".into(), 1, true);
        assert_eq!(c.get_check("chk", 1), Some(true));
        assert_eq!(c.get_check("chk", 0), None);
        c.put_count("cnt".into(), 0, 42);
        assert_eq!(c.get_count("cnt", 0), Some(42));
        assert_eq!(c.sizes(), (1, 1, 1));
        let stats = c.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        c.clear();
        assert_eq!(c.sizes(), (0, 0, 0));
    }

    #[test]
    fn bounded_cache_evicts_oldest_per_map() {
        let c = QueryCache::bounded(3);
        for i in 0..5 {
            c.put_sources(format!("k{i}"), vec![i]);
        }
        // Capacity holds and the *oldest* entries (k0, k1) were evicted.
        assert_eq!(c.sizes(), (3, 0, 0));
        assert_eq!(c.get_sources("k0"), None);
        assert_eq!(c.get_sources("k1"), None);
        assert_eq!(c.get_sources("k4"), Some(vec![4]));
        assert_eq!(c.stats().evictions, 2);

        // Each map is capped independently: filling counts does not evict
        // the surviving sources.
        for i in 0..4 {
            c.put_count(format!("c{i}"), 0, i);
        }
        assert_eq!(c.sizes(), (3, 0, 3));
        assert_eq!(c.get_sources("k4"), Some(vec![4]));

        // Re-inserting an existing key is a refresh, not an eviction.
        let evictions_before = c.stats().evictions;
        c.put_sources("k4".into(), vec![9]);
        assert_eq!(c.stats().evictions, evictions_before);
        assert_eq!(c.get_sources("k4"), Some(vec![9]));
    }

    #[test]
    fn ttl_expires_entries_as_misses() {
        let c = QueryCache::with_limits(CacheLimits {
            capacity: None,
            ttl: Some(Duration::ZERO),
        });
        c.put_sources("k".into(), vec![1]);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(c.get_sources("k"), None, "expired entry must be a miss");
        assert_eq!(c.sizes().0, 0, "expired entry must be dropped");
        assert_eq!(c.stats().expirations, 1);
    }

    fn rel(n: usize) -> Relation {
        let mut r = Relation::new(vec![Variable::new("x")]);
        for i in 0..n {
            r.push(vec![Some(Term::iri(format!("http://x/{i}")))]);
        }
        r
    }

    #[test]
    fn result_cache_roundtrip_ttl_and_invalidation() {
        let c = ResultCache::new(CacheLimits {
            capacity: Some(8),
            ttl: Some(Duration::from_secs(300)),
        });
        assert!(c.get("q1").is_none());
        c.put("q1".into(), rel(3));
        assert_eq!(c.get("q1").unwrap().len(), 3);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));

        c.invalidate();
        assert!(c.get("q1").is_none());
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.invalidations, 1);

        // Zero TTL: everything is stale on arrival.
        let stale = ResultCache::new(CacheLimits {
            capacity: None,
            ttl: Some(Duration::ZERO),
        });
        stale.put("q".into(), rel(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(stale.get("q").is_none());
        assert_eq!(stale.stats().expirations, 1);
    }

    #[test]
    fn result_cache_evicts_least_recently_used() {
        let c = ResultCache::new(CacheLimits {
            capacity: Some(2),
            ttl: None,
        });
        c.put("a".into(), rel(1));
        c.put("b".into(), rel(2));
        // Touch "a" so "b" becomes the LRU entry.
        assert!(c.get("a").is_some());
        c.put("c".into(), rel(3));
        assert!(c.get("b").is_none(), "LRU entry must be evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert_eq!(c.stats().evictions, 1);
    }
}
