//! The federation service: the full LADE/SAPE engine mounted behind the
//! HTTP server as a [`QueryBackend`].
//!
//! `lusail serve --federate` turns the one-shot `lusail query` pipeline
//! into a shared, long-lived service. Three concerns separate it from
//! simply calling the engine per request:
//!
//! * **Admission control** — a global [`MemoryPool`] is carved into
//!   per-query ledgers. A query only runs while it holds a ledger, so the
//!   sum of accounted intermediate state across all concurrent queries
//!   can never exceed the pool. When every ledger is out, a bounded
//!   admission queue briefly holds newcomers; beyond it (or past the wait
//!   budget) the service sheds with 503 + `Retry-After` instead of
//!   degrading everyone.
//! * **Per-client quotas** — each client (the `X-Client-Id` header, or
//!   the peer IP) gets a max-in-flight bound, answered with 429 when
//!   exhausted, so one chatty tenant cannot monopolize the ledgers.
//! * **A shared cache tier** — the engine's analysis cache (GJV checks,
//!   source selection, COUNT probes) is shared across all clients, and a
//!   [`ResultCache`] short-circuits repeated hot queries entirely: a hit
//!   is answered with zero outbound endpoint requests and without even
//!   carving a ledger, which keeps cached answers flowing while the pool
//!   is saturated. Degraded (partial / truncated) results are never
//!   cached — they describe an outage, not the data.

use crate::{Answer, ClientInfo, QueryBackend};
use lusail_core::{
    CacheLimits, EngineError, LusailEngine, MemoryBudget, MemoryPool, ResultCache, ResultPolicy,
    RunContext,
};
use lusail_federation::json::Json;
use lusail_federation::{CancelReason, CancelToken};
use lusail_rdf::fxhash::FxHashMap;
use lusail_sparql::serializer::serialize_query;
use lusail_sparql::QueryForm;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the federation service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FederateConfig {
    /// Global memory pool shared by all concurrent queries.
    pub pool_bytes: usize,
    /// Per-query ledger carved from the pool; `pool_bytes /
    /// query_budget_bytes` queries can execute at once.
    pub query_budget_bytes: usize,
    /// Queries allowed to wait for a ledger before newcomers are shed.
    pub max_waiting: usize,
    /// How long an admitted waiter may sit in the queue before it is shed.
    pub queue_timeout: Duration,
    /// Max queries one client may have in flight (header identity or
    /// peer IP).
    pub client_max_inflight: usize,
    /// Per-query execution deadline.
    pub query_timeout: Option<Duration>,
    /// Per-query row ceiling threaded into the engine.
    pub max_result_rows: Option<usize>,
    /// Serve partial results (with warnings) when endpoints fail, instead
    /// of failing the whole query.
    pub partial: bool,
    /// Result-cache entry cap (LRU beyond it).
    pub result_cache_capacity: Option<usize>,
    /// TTL for both cache tiers; stale entries read as misses.
    pub cache_ttl: Option<Duration>,
    /// The `Retry-After` hint attached to 503/429 refusals.
    pub retry_after: Duration,
    /// Extra slack past the query deadline before the lifecycle watchdog
    /// reaps a wedged query. A transport stuck in a read keeps its token
    /// honored even if it never reaches a cancellation point itself.
    pub watchdog_grace: Duration,
}

impl Default for FederateConfig {
    fn default() -> Self {
        FederateConfig {
            pool_bytes: 256 << 20,
            query_budget_bytes: 32 << 20,
            max_waiting: 16,
            queue_timeout: Duration::from_secs(2),
            client_max_inflight: 4,
            query_timeout: Some(Duration::from_secs(30)),
            max_result_rows: None,
            partial: false,
            result_cache_capacity: Some(128),
            cache_ttl: Some(Duration::from_secs(300)),
            retry_after: Duration::from_secs(1),
            watchdog_grace: Duration::from_secs(2),
        }
    }
}

impl FederateConfig {
    /// The cache bounds both tiers share.
    pub fn cache_limits(&self) -> CacheLimits {
        CacheLimits {
            capacity: self.result_cache_capacity,
            ttl: self.cache_ttl,
        }
    }
}

/// Per-client accounting: the in-flight gauge enforcing the quota, plus
/// lifetime counters surfaced in `/stats`.
#[derive(Debug, Clone, Copy, Default)]
struct ClientLedger {
    inflight: usize,
    admitted: u64,
    rejected: u64,
    cache_hits: u64,
}

impl ClientLedger {
    /// One client's row of the `clients` stats section.
    fn to_json(self) -> Json {
        Json::object([
            ("inflight", self.inflight.into()),
            ("admitted", self.admitted.into()),
            ("rejected", self.rejected.into()),
            ("cache_hits", self.cache_hits.into()),
        ])
    }
}

/// How many client ledgers the service keeps before it folds the idle
/// ones away. `X-Client-Id` is free text, so without a bound a client that
/// varies it grows the map — and the `/stats` body — forever.
const MAX_CLIENT_LEDGERS: usize = 1024;

/// The row the lifetime counters of folded-away clients are summed into,
/// so the `clients` totals still add up.
const EVICTED_CLIENTS: &str = "(evicted)";

/// Fold every ledger with nothing in flight into [`EVICTED_CLIENTS`]. An
/// in-flight client keeps its entry: its quota gauge must survive.
fn fold_idle_clients(clients: &mut FxHashMap<String, ClientLedger>) {
    let mut evicted = clients.remove(EVICTED_CLIENTS).unwrap_or_default();
    clients.retain(|_, c| {
        if c.inflight == 0 {
            evicted.admitted += c.admitted;
            evicted.rejected += c.rejected;
            evicted.cache_hits += c.cache_hits;
        }
        c.inflight > 0
    });
    clients.insert(EVICTED_CLIENTS.to_string(), evicted);
}

/// One in-flight query as the supervisor sees it.
#[derive(Debug, Clone)]
struct QueryEntry {
    client: String,
    /// "waiting" (queued for a ledger) or "executing".
    phase: &'static str,
    started: Instant,
    /// Absolute execution deadline, when the service configures one. The
    /// watchdog only reaps past `deadline + watchdog_grace`.
    deadline: Option<Instant>,
    token: CancelToken,
    /// The carved ledger, for live accounted-bytes reporting. `None`
    /// while still waiting for admission.
    memory: Option<MemoryBudget>,
}

/// Lifecycle counters surfaced in the stats `"lifecycle"` section.
#[derive(Debug, Default)]
struct LifecycleStats {
    cancelled_client_disconnected: AtomicU64,
    cancelled_admin: AtomicU64,
    cancelled_watchdog: AtomicU64,
    cancelled_draining: AtomicU64,
    watchdog_reaps: AtomicU64,
    panics_contained: AtomicU64,
    drains: AtomicU64,
    drain_force_cancelled: AtomicU64,
}

impl LifecycleStats {
    /// The counters of the `lifecycle` stats section.
    fn to_json(&self) -> Json {
        let load = |counter: &AtomicU64| Json::from(counter.load(Ordering::Relaxed));
        let cancelled = Json::object([
            (
                "client_disconnected",
                load(&self.cancelled_client_disconnected),
            ),
            ("admin_cancelled", load(&self.cancelled_admin)),
            ("watchdog_reaped", load(&self.cancelled_watchdog)),
            ("server_draining", load(&self.cancelled_draining)),
        ]);
        Json::object([
            ("cancelled", cancelled),
            ("watchdog_reaps", load(&self.watchdog_reaps)),
            ("panics_contained", load(&self.panics_contained)),
            ("drains", load(&self.drains)),
            ("drain_force_cancelled", load(&self.drain_force_cancelled)),
        ])
    }

    fn count_cancelled(&self, reason: CancelReason) {
        let counter = match reason {
            CancelReason::ClientDisconnected => &self.cancelled_client_disconnected,
            CancelReason::AdminCancelled => &self.cancelled_admin,
            CancelReason::WatchdogReaped => &self.cancelled_watchdog,
            CancelReason::ServerDraining => &self.cancelled_draining,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The shared supervision state: the per-query registry the watchdog
/// scans, admin cancels look up, and `GET /queries` renders. Lives in an
/// `Arc` so the watchdog thread can outlast any one borrow of the service.
#[derive(Debug)]
struct Supervisor {
    queries: Mutex<FxHashMap<u64, QueryEntry>>,
    next_id: AtomicU64,
    lifecycle: LifecycleStats,
    /// Watchdog shutdown latch: flag under the mutex, condvar to cut the
    /// scan interval short on drop.
    stop: Mutex<bool>,
    tick: Condvar,
}

impl Supervisor {
    fn new() -> Supervisor {
        Supervisor {
            queries: Mutex::new(FxHashMap::default()),
            next_id: AtomicU64::new(1),
            lifecycle: LifecycleStats::default(),
            stop: Mutex::new(false),
            tick: Condvar::new(),
        }
    }

    fn queries(&self) -> std::sync::MutexGuard<'_, FxHashMap<u64, QueryEntry>> {
        self.queries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register a query; the returned guard deregisters on drop — also on
    /// panic, so a crashed query never leaves a ghost entry pinning the
    /// registry.
    fn register(self: &Arc<Self>, entry: QueryEntry) -> RegisteredQuery {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.queries().insert(id, entry);
        RegisteredQuery {
            supervisor: Arc::clone(self),
            id,
        }
    }

    /// One watchdog sweep: trip the token of every query past its
    /// deadline plus `grace`. Returns how many were reaped now.
    fn reap_overdue(&self, grace: Duration) -> u64 {
        let now = Instant::now();
        let mut reaped = 0;
        for entry in self.queries().values() {
            let Some(deadline) = entry.deadline else {
                continue;
            };
            if now >= deadline + grace && entry.token.cancel(CancelReason::WatchdogReaped) {
                reaped += 1;
            }
        }
        if reaped > 0 {
            self.lifecycle
                .watchdog_reaps
                .fetch_add(reaped, Ordering::Relaxed);
        }
        reaped
    }

    /// The watchdog loop: sweep every `interval` until `stop` is set.
    fn watch(&self, grace: Duration, interval: Duration) {
        let mut stopped = self.stop.lock().unwrap_or_else(|p| p.into_inner());
        while !*stopped {
            self.reap_overdue(grace);
            let (guard, _) = self
                .tick
                .wait_timeout(stopped, interval)
                .unwrap_or_else(|p| p.into_inner());
            stopped = guard;
        }
    }

    fn stop_watching(&self) {
        *self.stop.lock().unwrap_or_else(|p| p.into_inner()) = true;
        self.tick.notify_all();
    }
}

/// RAII registry membership for one query (see [`Supervisor::register`]).
struct RegisteredQuery {
    supervisor: Arc<Supervisor>,
    id: u64,
}

impl RegisteredQuery {
    /// Flip the entry to "executing" and attach its carved ledger.
    fn executing(&self, memory: MemoryBudget) {
        if let Some(entry) = self.supervisor.queries().get_mut(&self.id) {
            entry.phase = "executing";
            entry.memory = Some(memory);
        }
    }
}

impl Drop for RegisteredQuery {
    fn drop(&mut self) {
        self.supervisor.queries().remove(&self.id);
    }
}

/// The engine-backed [`QueryBackend`] behind `serve --federate`.
pub struct FederationService {
    engine: LusailEngine,
    pool: MemoryPool,
    results: ResultCache,
    config: FederateConfig,
    clients: Mutex<FxHashMap<String, ClientLedger>>,
    supervisor: Arc<Supervisor>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl FederationService {
    /// Wrap `engine` as a service. For a bounded analysis cache, build the
    /// engine with [`LusailEngine::with_cache`] and
    /// [`FederateConfig::cache_limits`].
    pub fn new(engine: LusailEngine, config: FederateConfig) -> FederationService {
        let pool = MemoryPool::new(config.pool_bytes.max(1), config.query_budget_bytes.max(1));
        let results = ResultCache::new(config.cache_limits());
        let supervisor = Arc::new(Supervisor::new());
        let watchdog = {
            let supervisor = Arc::clone(&supervisor);
            let grace = config.watchdog_grace;
            std::thread::Builder::new()
                .name("lusail-watchdog".to_string())
                .spawn(move || supervisor.watch(grace, Duration::from_millis(50)))
                .ok()
        };
        FederationService {
            engine,
            pool,
            results,
            config,
            clients: Mutex::new(FxHashMap::default()),
            supervisor,
            watchdog: Mutex::new(watchdog),
        }
    }

    /// The engine executing admitted queries.
    pub fn engine(&self) -> &LusailEngine {
        &self.engine
    }

    /// The global admission pool.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// The shared query-result cache.
    pub fn results(&self) -> &ResultCache {
        &self.results
    }

    fn clients(&self) -> std::sync::MutexGuard<'_, FxHashMap<String, ClientLedger>> {
        self.clients.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn engine_error(&self, e: EngineError) -> Answer {
        match e {
            // The query's deadline elapsed somewhere in the federation.
            EngineError::Timeout(_) => Answer::error(504, e.to_string()),
            // The query's cancel token tripped; the status names who
            // pulled the plug.
            EngineError::Cancelled(reason) => match reason {
                CancelReason::ClientDisconnected | CancelReason::AdminCancelled => {
                    Answer::error(499, e.to_string())
                }
                CancelReason::WatchdogReaped => Answer::error(504, e.to_string()),
                CancelReason::ServerDraining => Answer::Error {
                    status: 503,
                    message: e.to_string(),
                    retry_after: Some(self.config.retry_after),
                },
            },
            // The carved ledger was not enough under fail-fast: the
            // service is memory-saturated for queries of this shape, so
            // invite a retry rather than blaming the client.
            EngineError::BudgetExceeded { .. } => Answer::Error {
                status: 503,
                message: e.to_string(),
                retry_after: Some(self.config.retry_after),
            },
            EngineError::Unsupported(_) => Answer::error(400, e.to_string()),
            // An upstream endpoint failed and the policy was fail-fast.
            EngineError::Endpoint(_) => Answer::error(502, e.to_string()),
        }
    }

    fn answer_admitted(&self, query: &str, client: &ClientInfo, cancel: &CancelToken) -> Answer {
        let parsed = match lusail_sparql::parse_query(query) {
            Ok(q) => q,
            Err(e) => return Answer::error(400, format!("malformed SPARQL query: {e}")),
        };
        let is_ask = matches!(parsed.form, QueryForm::Ask(_));
        let finish = |rel: lusail_sparql::Relation, warnings: Vec<String>| {
            if is_ask {
                Answer::Boolean(!rel.is_empty())
            } else {
                Answer::Solutions { rel, warnings }
            }
        };

        // Hot path: a cached result answers without carving a ledger, so
        // repeats keep flowing even while the pool is saturated.
        // Keyed on the parsed query written back out: reformatted copies
        // share an entry, and no two different queries can (a literal's
        // spaces are its value, not layout).
        let key = serialize_query(&parsed);
        if let Some(rel) = self.results.get(&key) {
            if let Some(entry) = self.clients().get_mut(&client.id) {
                entry.cache_hits += 1;
            }
            return finish(rel, Vec::new());
        }

        // From here the query is visible to the supervisor: the watchdog
        // can reap it, an admin can cancel it, and drain will sweep it.
        // The guard deregisters on every exit path, including panics.
        let registration = self.supervisor.register(QueryEntry {
            client: client.id.clone(),
            phase: "waiting",
            started: Instant::now(),
            deadline: self.config.query_timeout.map(|t| Instant::now() + t),
            token: cancel.clone(),
            memory: None,
        });

        // Admission: hold a ledger for the whole execution. Its Drop
        // returns the ledger and wakes one queued waiter.
        let pooled = match self
            .pool
            .carve_queued(self.config.max_waiting, self.config.queue_timeout)
        {
            Ok(p) => p,
            Err(rejection) => {
                return Answer::Error {
                    status: 503,
                    message: format!("service saturated: {rejection}"),
                    retry_after: Some(self.config.retry_after),
                }
            }
        };
        if let Some(reason) = cancel.reason() {
            self.supervisor.lifecycle.count_cancelled(reason);
            return self.engine_error(EngineError::Cancelled(reason));
        }
        registration.executing(pooled.budget());

        let ctx = RunContext::with_parts(
            if self.config.partial {
                ResultPolicy::Partial
            } else {
                ResultPolicy::FailFast
            },
            self.config.query_timeout,
            pooled.budget(),
            self.config.max_result_rows,
        )
        .with_cancel(cancel.clone());
        // `catch_unwind` contains an engine panic to this one query: the
        // ledger, quota slot, and registry entry all release via their
        // Drop guards, the client gets a 500, and the server keeps
        // serving everyone else.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.engine.execute_profiled_with(&parsed, &ctx)
        }));
        let executed = match outcome {
            Ok(r) => r,
            Err(_) => {
                self.supervisor
                    .lifecycle
                    .panics_contained
                    .fetch_add(1, Ordering::Relaxed);
                return Answer::error(500, "internal error: query evaluation panicked");
            }
        };
        if let Some(reason) = cancel.reason() {
            self.supervisor.lifecycle.count_cancelled(reason);
        }
        match executed {
            Ok((rel, profile)) => {
                let warnings: Vec<String> =
                    profile.warnings.iter().map(|w| w.to_string()).collect();
                // Only clean runs are cached: a degraded answer pinned in
                // the cache would keep serving the outage after recovery.
                if warnings.is_empty() && cancel.reason().is_none() {
                    self.results.put(key, rel.clone());
                }
                finish(rel, warnings)
            }
            Err(e) => self.engine_error(e),
        }
    }
}

impl Drop for FederationService {
    fn drop(&mut self) {
        self.supervisor.stop_watching();
        if let Ok(mut slot) = self.watchdog.lock() {
            if let Some(handle) = slot.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Decrements a client's in-flight gauge even when answering panics or
/// returns early.
struct InflightGuard<'a> {
    service: &'a FederationService,
    id: &'a str,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(entry) = self.service.clients().get_mut(self.id) {
            entry.inflight = entry.inflight.saturating_sub(1);
        }
    }
}

impl QueryBackend for FederationService {
    fn answer(&self, query: &str, client: &ClientInfo, cancel: &CancelToken) -> Answer {
        {
            let mut clients = self.clients();
            if clients.len() >= MAX_CLIENT_LEDGERS && !clients.contains_key(&client.id) {
                fold_idle_clients(&mut clients);
            }
            let entry = clients.entry(client.id.clone()).or_default();
            if entry.inflight >= self.config.client_max_inflight.max(1) {
                entry.rejected += 1;
                return Answer::Error {
                    status: 429,
                    message: format!(
                        "client {:?} already has {} queries in flight (limit {})",
                        client.id,
                        entry.inflight,
                        self.config.client_max_inflight.max(1)
                    ),
                    retry_after: Some(self.config.retry_after),
                };
            }
            entry.inflight += 1;
            entry.admitted += 1;
        }
        let _guard = InflightGuard {
            service: self,
            id: &client.id,
        };
        self.answer_admitted(query, client, cancel)
    }

    fn queries(&self) -> Option<Json> {
        let mut rows: Vec<(u64, QueryEntry)> = self
            .supervisor
            .queries()
            .iter()
            .map(|(id, entry)| (*id, entry.clone()))
            .collect();
        rows.sort_by_key(|(id, _)| *id);
        let rows = rows.iter().map(|(id, entry)| {
            let accounted = entry.memory.as_ref().map_or(0, |m| m.used());
            Json::object([
                ("id", (*id).into()),
                ("client", entry.client.as_str().into()),
                ("phase", entry.phase.into()),
                (
                    "elapsed_ms",
                    (entry.started.elapsed().as_millis() as u64).into(),
                ),
                ("accounted_bytes", accounted.into()),
                ("cancelled", entry.token.reason().map(|r| r.as_str()).into()),
            ])
        });
        Some(Json::object([("queries", Json::Array(rows.collect()))]))
    }

    fn cancel_query(&self, id: u64, reason: CancelReason) -> Option<bool> {
        let queries = self.supervisor.queries();
        let entry = queries.get(&id)?;
        Some(entry.token.cancel(reason))
    }

    fn drain(&self, reason: CancelReason) -> usize {
        self.supervisor
            .lifecycle
            .drains
            .fetch_add(1, Ordering::Relaxed);
        let cancelled = self
            .supervisor
            .queries()
            .values()
            .filter(|entry| entry.token.cancel(reason))
            .count();
        if cancelled > 0 {
            self.supervisor
                .lifecycle
                .drain_force_cancelled
                .fetch_add(cancelled as u64, Ordering::Relaxed);
        }
        cancelled
    }

    /// The `service` document of `GET /stats`: what only the service
    /// knows, then everything the engine reports about itself.
    fn stats(&self) -> Option<Json> {
        let pool = Json::object([
            ("capacity", self.pool.capacity().into()),
            ("ledger_bytes", self.pool.ledger_bytes().into()),
            ("max_ledgers", self.pool.max_ledgers().into()),
        ])
        .merge(self.pool.stats().to_json());
        let mut clients: Vec<(String, Json)> = self
            .clients()
            .iter()
            .map(|(id, c)| (id.clone(), c.to_json()))
            .collect();
        clients.sort_by(|a, b| a.0.cmp(&b.0));
        let lifecycle = Json::object([("inflight", self.supervisor.queries().len().into())])
            .merge(self.supervisor.lifecycle.to_json());
        let service = Json::object([
            ("pool", pool),
            ("result_cache", self.results.stats().to_json()),
            ("analysis_cache", self.engine.cache().stats().to_json()),
            ("clients", Json::Object(clients)),
            ("lifecycle", lifecycle),
        ]);
        Some(service.merge(self.engine.stats()))
    }

    fn invalidate_caches(&self) -> bool {
        self.engine.cache().clear();
        self.results.invalidate();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_core::LusailConfig;
    use lusail_federation::{
        FaultProfile, FaultyEndpoint, Federation, NetworkProfile, SimulatedEndpoint,
    };
    use lusail_rdf::{Graph, Term};
    use lusail_store::Store;
    use std::sync::Arc;

    fn fixture_graph() -> Graph {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://x/a"),
            Term::iri("http://x/p"),
            Term::iri("http://x/b"),
        );
        g.add(
            Term::iri("http://x/b"),
            Term::iri("http://x/p"),
            Term::iri("http://x/c"),
        );
        g
    }

    fn service(config: FederateConfig) -> FederationService {
        let ep = SimulatedEndpoint::new(
            "ep0",
            Store::from_graph(&fixture_graph()),
            NetworkProfile::instant(),
        );
        let fed = Federation::new(vec![Arc::new(ep)]);
        FederationService::new(LusailEngine::new(fed, LusailConfig::default()), config)
    }

    /// A service whose only endpoint injects `profile` faults; the
    /// returned handle lets the test clear them mid-run.
    fn faulty_service(
        config: FederateConfig,
        profile: FaultProfile,
    ) -> (FederationService, Arc<FaultyEndpoint>) {
        let inner = Arc::new(SimulatedEndpoint::new(
            "ep0",
            Store::from_graph(&fixture_graph()),
            NetworkProfile::instant(),
        ));
        let ep = Arc::new(FaultyEndpoint::new(inner, 42, profile));
        let fed = Federation::new(vec![Arc::clone(&ep) as _]);
        let svc = FederationService::new(LusailEngine::new(fed, LusailConfig::default()), config);
        (svc, ep)
    }

    fn client(id: &str) -> ClientInfo {
        ClientInfo { id: id.to_string() }
    }

    #[test]
    fn repeated_query_is_served_from_the_result_cache() {
        let svc = service(FederateConfig::default());
        let q = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }";
        let rows = |a: Answer| match a {
            Answer::Solutions { rel, warnings } => {
                assert!(warnings.is_empty(), "{warnings:?}");
                rel.len()
            }
            _ => panic!("expected solutions"),
        };
        assert_eq!(rows(svc.answer(q, &client("c1"), &CancelToken::new())), 2);
        let before = svc.engine().federation().total_traffic().requests;
        // Different whitespace, same canonical query: zero new requests.
        assert_eq!(
            rows(svc.answer(
                "SELECT ?s ?o\nWHERE {\n ?s <http://x/p> ?o }",
                &client("c2"),
                &CancelToken::new()
            )),
            2
        );
        assert_eq!(
            svc.engine().federation().total_traffic().requests,
            before,
            "a cache hit must not touch any endpoint"
        );
        assert_eq!(svc.results().stats().hits, 1);

        // Explicit invalidation forces re-execution.
        assert!(svc.invalidate_caches());
        assert_eq!(rows(svc.answer(q, &client("c1"), &CancelToken::new())), 2);
        assert!(svc.engine().federation().total_traffic().requests > before);
    }

    #[test]
    fn whitespace_inside_a_literal_is_part_of_the_cache_key() {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://x/a"),
            Term::iri("http://x/name"),
            Term::literal("John Smith"),
        );
        let ep = SimulatedEndpoint::new("ep0", Store::from_graph(&g), NetworkProfile::instant());
        let fed = Federation::new(vec![Arc::new(ep)]);
        let engine = LusailEngine::new(fed, LusailConfig::default());
        let svc = FederationService::new(engine, FederateConfig::default());
        let rows = |q: &str| match svc.answer(q, &client("c1"), &CancelToken::new()) {
            Answer::Solutions { rel, .. } => rel.len(),
            _ => panic!("expected solutions"),
        };
        assert_eq!(
            rows(r#"SELECT ?s WHERE { ?s <http://x/name> "John Smith" }"#),
            1
        );
        assert_eq!(
            rows(r#"SELECT ?s WHERE { ?s <http://x/name> "John  Smith" }"#),
            0
        );
        assert_eq!(svc.results().stats().hits, 0, "two spaces is another query");
        assert_eq!(
            rows("SELECT ?s\nWHERE { ?s <http://x/name>   \"John Smith\" }"),
            1
        );
        assert_eq!(svc.results().stats().hits, 1, "reformatting still shares");
    }

    #[test]
    fn quota_rejects_only_the_noisy_client() {
        let svc = service(FederateConfig {
            client_max_inflight: 1,
            ..Default::default()
        });
        // Simulate an in-flight query by pre-loading the gauge.
        svc.clients()
            .entry("noisy".to_string())
            .or_default()
            .inflight = 1;
        match svc.answer("ASK { ?s ?p ?o }", &client("noisy"), &CancelToken::new()) {
            Answer::Error {
                status,
                retry_after,
                ..
            } => {
                assert_eq!(status, 429);
                assert!(retry_after.is_some());
            }
            _ => panic!("expected a quota rejection"),
        }
        // A different client is unaffected.
        match svc.answer("ASK { ?s ?p ?o }", &client("quiet"), &CancelToken::new()) {
            Answer::Boolean(b) => assert!(b),
            _ => panic!("expected an ASK verdict"),
        }
        let stats = svc.stats().expect("service reports stats").to_string();
        assert!(
            stats.contains("\"noisy\":{\"inflight\":1,\"admitted\":0,\"rejected\":1"),
            "{stats}"
        );
    }

    #[test]
    fn panicking_query_leaks_nothing_and_the_service_keeps_serving() {
        let (svc, faults) =
            faulty_service(FederateConfig::default(), FaultProfile::panics_on_select());
        match svc.answer(
            "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }",
            &client("c"),
            &CancelToken::new(),
        ) {
            Answer::Error {
                status, message, ..
            } => {
                assert_eq!(status, 500, "{message}");
                assert!(message.contains("panicked"), "{message}");
            }
            _ => panic!("expected a contained panic"),
        }
        // RAII leak regression: the panic must release the pool ledger,
        // the per-client inflight slot, and the registry entry.
        assert_eq!(svc.pool().stats().in_use, 0, "ledger leaked on panic");
        assert_eq!(svc.supervisor.queries().len(), 0, "registry entry leaked");
        let stats = svc.stats().expect("stats").to_string();
        assert!(stats.contains("\"panics_contained\":1"), "{stats}");
        assert!(stats.contains("\"inflight\":0"), "{stats}");
        // With the faults cleared, the same client is served normally —
        // the panic poisoned nothing.
        faults.set_faults(FaultProfile::none());
        match svc.answer("ASK { ?s ?p ?o }", &client("c"), &CancelToken::new()) {
            Answer::Boolean(b) => assert!(b),
            _ => panic!("expected an ASK verdict after the panic"),
        }
        assert_eq!(svc.pool().stats().in_use, 0);
    }

    #[test]
    fn admin_cancel_trips_the_registered_token() {
        let svc = service(FederateConfig::default());
        let token = CancelToken::new();
        let registration = svc.supervisor.register(QueryEntry {
            client: "c1".to_string(),
            phase: "executing",
            started: Instant::now(),
            deadline: None,
            token: token.clone(),
            memory: None,
        });
        let id = registration.id;
        // The registry lists it…
        let listed = svc.queries().expect("registry json").to_string();
        assert!(listed.contains("\"client\":\"c1\""), "{listed}");
        assert!(listed.contains("\"phase\":\"executing\""), "{listed}");
        // …cancel trips exactly once…
        assert_eq!(
            svc.cancel_query(id, CancelReason::AdminCancelled),
            Some(true)
        );
        assert_eq!(
            svc.cancel_query(id, CancelReason::AdminCancelled),
            Some(false)
        );
        assert_eq!(token.reason(), Some(CancelReason::AdminCancelled));
        // …and an unknown id is distinguishable from a done one.
        assert_eq!(
            svc.cancel_query(id + 999, CancelReason::AdminCancelled),
            None
        );
        drop(registration);
        assert_eq!(svc.supervisor.queries().len(), 0);
    }

    #[test]
    fn watchdog_reaps_a_query_stuck_past_its_deadline() {
        let svc = service(FederateConfig {
            watchdog_grace: Duration::from_millis(20),
            ..Default::default()
        });
        let token = CancelToken::new();
        let _registration = svc.supervisor.register(QueryEntry {
            client: "wedged".to_string(),
            phase: "executing",
            started: Instant::now(),
            // Already past deadline + grace: the next sweep must reap it.
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            token: token.clone(),
            memory: None,
        });
        let reaped = token.wait_timeout(Duration::from_secs(2));
        assert_eq!(reaped, Some(CancelReason::WatchdogReaped));
        // The sweep counts its reaps after it has tripped their tokens, so
        // the woken waiter can get here first: give the counter a moment.
        let patience = Instant::now() + Duration::from_secs(2);
        let mut stats = svc.stats().expect("stats").to_string();
        while !stats.contains("\"watchdog_reaps\":1") && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(5));
            stats = svc.stats().expect("stats").to_string();
        }
        assert!(stats.contains("\"watchdog_reaps\":1"), "{stats}");
    }

    #[test]
    fn drain_force_cancels_every_registered_query() {
        let svc = service(FederateConfig::default());
        let tokens: Vec<CancelToken> = (0..3).map(|_| CancelToken::new()).collect();
        let _registrations: Vec<RegisteredQuery> = tokens
            .iter()
            .enumerate()
            .map(|(i, token)| {
                svc.supervisor.register(QueryEntry {
                    client: format!("c{i}"),
                    phase: "executing",
                    started: Instant::now(),
                    deadline: None,
                    token: token.clone(),
                    memory: None,
                })
            })
            .collect();
        assert_eq!(svc.drain(CancelReason::ServerDraining), 3);
        for token in &tokens {
            assert_eq!(token.reason(), Some(CancelReason::ServerDraining));
        }
        // Draining again is idempotent: every token is already tripped.
        assert_eq!(svc.drain(CancelReason::ServerDraining), 0);
        let stats = svc.stats().expect("stats").to_string();
        assert!(stats.contains("\"drain_force_cancelled\":3"), "{stats}");
        assert!(stats.contains("\"drains\":2"), "{stats}");
    }

    #[test]
    fn cancelled_statuses_name_who_pulled_the_plug() {
        let svc = service(FederateConfig::default());
        let status_of =
            |reason: CancelReason| match svc.engine_error(EngineError::Cancelled(reason)) {
                Answer::Error { status, .. } => status,
                _ => panic!("expected an error answer"),
            };
        assert_eq!(status_of(CancelReason::ClientDisconnected), 499);
        assert_eq!(status_of(CancelReason::AdminCancelled), 499);
        assert_eq!(status_of(CancelReason::WatchdogReaped), 504);
        assert_eq!(status_of(CancelReason::ServerDraining), 503);
    }

    #[test]
    fn saturated_pool_sheds_with_503() {
        let svc = service(FederateConfig {
            pool_bytes: 1024,
            query_budget_bytes: 1024, // one ledger total
            max_waiting: 0,
            queue_timeout: Duration::from_millis(10),
            ..Default::default()
        });
        // Hold the only ledger so the next query cannot be admitted.
        let held = svc.pool().try_carve().expect("first carve succeeds");
        match svc.answer("ASK { ?s ?p ?o }", &client("c"), &CancelToken::new()) {
            Answer::Error {
                status,
                retry_after,
                message,
            } => {
                assert_eq!(status, 503, "{message}");
                assert!(retry_after.is_some());
            }
            _ => panic!("expected a shed"),
        }
        drop(held);
        assert!(svc.pool().stats().shed >= 1);
        // With the ledger back, the same query is admitted and runs.
        match svc.answer("ASK { ?s ?p ?o }", &client("c"), &CancelToken::new()) {
            Answer::Boolean(b) => assert!(b),
            _ => panic!("expected an ASK verdict"),
        }
    }

    #[test]
    fn client_ledger_map_is_bounded_and_keeps_live_clients() {
        let svc = service(FederateConfig {
            client_max_inflight: 1,
            ..Default::default()
        });
        // A client with a query in flight while the flood arrives.
        svc.clients()
            .entry("live".to_string())
            .or_default()
            .inflight = 1;
        for i in 0..10_000 {
            match svc.answer(
                "ASK { ?s ?p ?o }",
                &client(&format!("flood-{i}")),
                &CancelToken::new(),
            ) {
                Answer::Boolean(b) => assert!(b),
                _ => panic!("expected an ASK verdict"),
            }
        }
        assert!(svc.clients().len() <= MAX_CLIENT_LEDGERS);
        // The live client was never folded away and its quota still holds.
        assert_eq!(svc.clients().get("live").map(|c| c.inflight), Some(1));
        match svc.answer("ASK { ?s ?p ?o }", &client("live"), &CancelToken::new()) {
            Answer::Error { status, .. } => assert_eq!(status, 429),
            _ => panic!("expected a quota rejection"),
        }
        // Totals still add up: every flood query was admitted once, either
        // in a surviving row or in the evicted one.
        let clients = svc.clients();
        assert!(clients[EVICTED_CLIENTS].admitted > 0);
        assert_eq!(clients.values().map(|c| c.admitted).sum::<u64>(), 10_000);
        let hits: u64 = clients.values().map(|c| c.cache_hits).sum();
        assert_eq!(hits, svc.results().stats().hits);
    }
}
