//! Lusail's query-analysis caches, plus the cross-query result cache used
//! by the federation service.
//!
//! The paper (Section 2, Figure 12(b,c)) caches the results of (i) source
//! selection ASK queries and (ii) the locality check queries that determine
//! which triple-pattern pairs cannot be executed locally; we also cache
//! SAPE's per-pattern `COUNT` probes and each endpoint's listed
//! [`Vocabulary`]. Keys are canonical pattern strings:
//! `?s ub:advisor ?p` and `?x ub:advisor ?y` share one entry.
//!
//! Every map is one [`CacheMap`]: unbounded in a one-shot engine, capped
//! and expiring under `serve --federate`'s [`CacheLimits`] (so stale
//! endpoint facts age out), where a [`ResultCache`] sits on top. Degraded
//! (partial) results are never written to either tier: they describe an
//! outage, not the data.

use crate::source::Vocabulary;
use lusail_federation::json::Json;
use lusail_federation::EndpointId;
use lusail_rdf::fxhash::FxHashMap;
use lusail_sparql::ast::{TermPattern, TriplePattern};
use lusail_sparql::Relation;
use std::borrow::Borrow;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Canonical cache key for a triple pattern: variables renamed by position.
pub fn pattern_key(tp: &TriplePattern) -> String {
    // Positional renaming must respect repeated variables (`?x p ?x`).
    let mut names: Vec<&str> = Vec::new();
    [&tp.subject, &tp.predicate, &tp.object]
        .map(|slot| match slot {
            TermPattern::Term(t) => t.to_string(),
            TermPattern::Var(v) => {
                let i = names.iter().position(|n| *n == v.name());
                let i = i.unwrap_or_else(|| {
                    names.push(v.name());
                    names.len() - 1
                });
                format!("?v{i}")
            }
        })
        .join(" ")
}

/// Bounds for a long-lived cache tier: an entry-count cap per map (with
/// least-recently-used eviction) and a TTL (expired entries read as misses
/// and are dropped). `None` in either slot means unbounded / non-expiring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum entries per map; the least recently used is evicted beyond it.
    pub capacity: Option<usize>,
    /// Entries older than this read as misses and are removed.
    pub ttl: Option<Duration>,
}

/// Occupancy and lifetime counters of one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently cached.
    pub entries: usize,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub expirations: u64,
    /// Explicit invalidations (every map dropped at once).
    pub invalidations: u64,
}

impl CacheStats {
    /// The `result_cache` / `analysis_cache` stats section.
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

/// One cached value, with its recency stamp (kept only in a capped map)
/// and its insertion time (for the TTL).
#[derive(Debug)]
struct Entry<V> {
    value: V,
    used: AtomicU64,
    added: Instant,
}

/// Lifetime counters; hits and misses are bumped under the read lock.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    expirations: AtomicU64,
    invalidations: AtomicU64,
}

fn bump(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}

/// A thread-safe map bounded by [`CacheLimits`]: the one cache behind
/// both tiers. A hit takes only the read lock — recency is an atomic
/// stamp on the entry — so concurrent lookups never serialize. Keys may
/// be client text; the capacity bounds any chain of colliding keys.
#[derive(Debug)]
pub struct CacheMap<K, V> {
    limits: CacheLimits,
    /// Monotonic clock for the recency stamps.
    clock: AtomicU64,
    map: RwLock<FxHashMap<K, Entry<V>>>,
    counts: Counters,
}

impl<K, V> CacheMap<K, V> {
    pub fn new(limits: CacheLimits) -> Self {
        CacheMap {
            limits,
            clock: AtomicU64::default(),
            map: RwLock::default(),
            counts: Counters::default(),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, FxHashMap<K, Entry<V>>> {
        self.map.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, FxHashMap<K, Entry<V>>> {
        self.map.write().unwrap_or_else(|p| p.into_inner())
    }

    fn expired(&self, entry: &Entry<V>) -> bool {
        self.limits
            .ttl
            .is_some_and(|ttl| entry.added.elapsed() > ttl)
    }

    /// Drop every entry (explicit invalidation).
    pub fn invalidate(&self) {
        self.write().clear();
        bump(&self.counts.invalidations);
    }

    /// Counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let n = &self.counts;
        CacheStats {
            entries: self.read().len(),
            hits: load(&n.hits),
            misses: load(&n.misses),
            insertions: load(&n.insertions),
            evictions: load(&n.evictions),
            expirations: load(&n.expirations),
            invalidations: load(&n.invalidations),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> CacheMap<K, V> {
    /// The cached value for `key`, if present and fresh. A hit refreshes
    /// the entry's recency; an expired entry is removed and reads as a miss.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let stale = match self.read().get(key) {
            Some(entry) if !self.expired(entry) => {
                if self.limits.capacity.is_some() {
                    entry.used.store(bump(&self.clock), Ordering::Relaxed);
                }
                bump(&self.counts.hits);
                return Some(entry.value.clone());
            }
            found => found.is_some(),
        };
        if stale {
            // Re-check under the write lock: a writer may have refreshed it.
            let mut map = self.write();
            if map.get(key).is_some_and(|e| self.expired(e)) {
                map.remove(key);
                bump(&self.counts.expirations);
            }
        }
        bump(&self.counts.misses);
        None
    }

    /// Cache `value` under `key`, evicting the least-recently-used entry
    /// beyond capacity. Re-inserting a cached key replaces it in place.
    pub fn put(&self, key: K, value: V) {
        let mut map = self.write();
        let full = |cap: usize| map.len() >= cap.max(1) && !map.contains_key(&key);
        if self.limits.capacity.is_some_and(full) {
            let lru = map
                .iter()
                .min_by_key(|(_, e)| e.used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(lru) = lru {
                map.remove(&lru);
                bump(&self.counts.evictions);
            }
        }
        let used = AtomicU64::new(bump(&self.clock));
        let added = Instant::now();
        map.insert(key, Entry { value, used, added });
        bump(&self.counts.insertions);
    }
}

/// The hot-query tier of `lusail serve --federate`: canonical query text →
/// final solutions, so a hit costs **zero** outbound endpoint requests.
/// Callers must never insert degraded results — a partial answer cached
/// once would keep answering long after the failed endpoint recovered.
pub type ResultCache = CacheMap<String, Relation>;

/// The analysis caches shared by all queries run through one engine.
#[derive(Debug)]
pub struct QueryCache {
    /// pattern key → relevant endpoints (source selection).
    sources: CacheMap<String, Vec<EndpointId>>,
    /// (check key, endpoint) → check query returned non-empty there.
    checks: CacheMap<(String, EndpointId), bool>,
    /// (pattern-with-filters key, endpoint) → COUNT.
    counts: CacheMap<(String, EndpointId), usize>,
    /// endpoint → the predicates and classes it listed.
    vocabularies: CacheMap<EndpointId, Arc<Vocabulary>>,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryCache {
    pub fn new() -> Self {
        Self::with_limits(CacheLimits::default())
    }

    /// A long-lived shared tier: every map capped and expiring by `limits`.
    pub fn with_limits(limits: CacheLimits) -> Self {
        QueryCache {
            sources: CacheMap::new(limits),
            checks: CacheMap::new(limits),
            counts: CacheMap::new(limits),
            vocabularies: CacheMap::new(limits),
        }
    }

    /// Cached relevant endpoints for a pattern.
    pub fn get_sources(&self, key: &str) -> Option<Vec<EndpointId>> {
        self.sources.get(key)
    }

    /// Store relevant endpoints for a pattern.
    pub fn put_sources(&self, key: String, sources: Vec<EndpointId>) {
        self.sources.put(key, sources);
    }

    /// Cached locality-check outcome at one endpoint.
    pub fn get_check(&self, key: &str, ep: EndpointId) -> Option<bool> {
        self.checks.get(&(key.to_string(), ep))
    }

    /// Store a locality-check outcome.
    pub fn put_check(&self, key: String, ep: EndpointId, nonempty: bool) {
        self.checks.put((key, ep), nonempty);
    }

    /// Cached COUNT probe.
    pub fn get_count(&self, key: &str, ep: EndpointId) -> Option<usize> {
        self.counts.get(&(key.to_string(), ep))
    }

    /// Store a COUNT probe.
    pub fn put_count(&self, key: String, ep: EndpointId, count: usize) {
        self.counts.put((key, ep), count);
    }

    /// An endpoint's cached vocabulary (listed or not).
    pub fn get_vocabulary(&self, ep: EndpointId) -> Option<Arc<Vocabulary>> {
        self.vocabularies.get(&ep)
    }

    /// Store what an endpoint listed.
    pub(crate) fn put_vocabulary(&self, ep: EndpointId, vocabulary: Arc<Vocabulary>) {
        self.vocabularies.put(ep, vocabulary);
    }

    /// Drop everything (explicit invalidation).
    pub fn clear(&self) {
        self.sources.invalidate();
        self.checks.invalidate();
        self.counts.invalidate();
        self.vocabularies.invalidate();
    }

    /// Entry counts, for diagnostics: (sources, checks, counts).
    pub fn sizes(&self) -> (usize, usize, usize) {
        let (a, b, c) = (
            self.sources.stats(),
            self.checks.stats(),
            self.counts.stats(),
        );
        (a.entries, b.entries, c.entries)
    }

    /// The four maps' counters summed. They are only ever invalidated
    /// together, so one [`QueryCache::clear`] counts once.
    pub fn stats(&self) -> CacheStats {
        let maps = [
            self.sources.stats(),
            self.checks.stats(),
            self.counts.stats(),
            self.vocabularies.stats(),
        ];
        let sum = |field: fn(&CacheStats) -> u64| maps.iter().map(field).sum();
        CacheStats {
            entries: maps.iter().map(|m| m.entries).sum(),
            hits: sum(|m| m.hits),
            misses: sum(|m| m.misses),
            insertions: sum(|m| m.insertions),
            evictions: sum(|m| m.evictions),
            expirations: sum(|m| m.expirations),
            invalidations: maps[0].invalidations,
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
    fn vocabularies_are_kept_per_endpoint_and_cleared_with_the_rest() {
        let c = QueryCache::new();
        assert_eq!(c.get_vocabulary(0), None);
        c.put_vocabulary(0, Arc::new(Vocabulary::default()));
        assert_eq!(c.get_vocabulary(0).as_deref(), Some(&Vocabulary::default()));
        assert_eq!(c.get_vocabulary(1), None);
        let stats = c.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 2));
        c.clear();
        assert_eq!(c.get_vocabulary(0), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn bounded_cache_evicts_oldest_per_map() {
        let c = QueryCache::with_limits(CacheLimits {
            capacity: Some(3),
            ttl: None,
        });
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

        // Eviction is least-recently-used: a check read before the map
        // overflows outlives the older-read ones inserted after it.
        for i in 0..3 {
            c.put_check(format!("x{i}"), 0, true);
        }
        assert_eq!(c.get_check("x0", 0), Some(true));
        c.put_check("x3".into(), 0, false);
        assert_eq!(c.get_check("x0", 0), Some(true), "a read entry survives");
        assert_eq!(c.get_check("x1", 0), None, "the least recently used goes");
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
