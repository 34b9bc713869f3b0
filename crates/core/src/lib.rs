//! # lusail-core
//!
//! Lusail: a federated SPARQL query processor for decentralized RDF graphs,
//! reproducing *“Lusail: A System for Querying Linked Data at Scale”*
//! (PVLDB 11(4), 2017; demonstrated at SIGMOD 2017).
//!
//! Lusail processes a federated query in two phases:
//!
//! 1. **LADE** (Locality-Aware DEcomposition, [`lade`]) — decomposes the
//!    query into subqueries using *instance-level* locality. It detects
//!    **global join variables** (GJVs): variables whose matching instances
//!    can span endpoints, found either from differing source sets or by
//!    sending lightweight `FILTER NOT EXISTS … LIMIT 1` check queries to
//!    the endpoints (Figure 5, Algorithm 1). Triple patterns that never
//!    need a cross-endpoint join are grouped into one subquery and pushed
//!    whole to the endpoints (Algorithm 2).
//! 2. **SAPE** (Selectivity-Aware Planning and parallel Execution,
//!    [`sape`]) — estimates subquery cardinalities with per-triple-pattern
//!    `COUNT` probes, rejects outliers with Chauvenet's criterion, delays
//!    subqueries whose estimate exceeds `μ + σ`, runs the rest concurrently
//!    (one task per endpoint via the ERH), evaluates delayed subqueries as
//!    bound joins over `VALUES` blocks of already-found bindings, and joins
//!    subquery results with a DP-ordered parallel hash join (Algorithm 3).
//!
//! The entry point is [`LusailEngine`]:
//!
//! ```
//! use lusail_core::{LusailEngine, LusailConfig};
//! use lusail_federation::{Federation, SimulatedEndpoint, NetworkProfile};
//! use lusail_store::Store;
//! use lusail_rdf::{Graph, Term};
//! use std::sync::Arc;
//!
//! let mut g = Graph::new();
//! g.add(Term::iri("http://x/s"), Term::iri("http://x/p"), Term::iri("http://x/o"));
//! let ep = SimulatedEndpoint::new("ep0", Store::from_graph(&g), NetworkProfile::instant());
//! let fed = Federation::new(vec![Arc::new(ep)]);
//!
//! let engine = LusailEngine::new(fed, LusailConfig::default());
//! let query = lusail_sparql::parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
//! let result = engine.execute(&query).unwrap();
//! assert_eq!(result.len(), 1);
//! ```

pub mod budget;
pub mod cache;
pub mod config;
pub mod engine;
pub mod error;
pub mod lade;
pub mod normalize;
pub mod run;
pub mod sape;
pub mod source;
pub mod subquery;

pub use budget::{MemoryBudget, MemoryPhase, MemoryPool, MemoryStats, PoolRejection, PoolStats};
pub use cache::{CacheLimits, CacheStats, QueryCache, ResultCache, ResultCacheStats};
pub use config::{DelayThreshold, LusailConfig, ResultPolicy, SapeMode};
pub use engine::{ExecutionProfile, LusailEngine};
pub use error::EngineError;
pub use lusail_federation::{IntegrityConfig, IntegrityRegistry, IntegritySnapshot};
pub use run::{CancelReason, CancelToken, ExecutionWarning, RunContext};
pub use subquery::Subquery;
