//! # lusail-federation
//!
//! The federation substrate: SPARQL endpoints, the simulated network
//! between them, request/byte accounting, and the Elastic Request Handler
//! (ERH) thread pool that Lusail and the baselines use to talk to endpoints
//! in parallel.
//!
//! ## What is simulated, and how
//!
//! The paper runs endpoints as real Jena Fuseki / Virtuoso servers on
//! clusters and on Azure VMs in seven regions. We replace the HTTP hop with
//! [`SimulatedEndpoint`]: each request
//!
//! 1. serializes the query to SPARQL text (the request payload — its size
//!    is charged to the network),
//! 2. sleeps for the endpoint's [`NetworkProfile`] latency plus a
//!    bandwidth-proportional transfer time for request and response bytes,
//! 3. evaluates the query on the endpoint's own [`lusail_store::Store`]
//!    (re-parsing the text, exactly as a real endpoint would), and
//! 4. bumps the endpoint's [`RequestCounters`].
//!
//! Because latency is paid with real `thread::sleep`, issuing requests from
//! multiple ERH threads genuinely overlaps them — the parallelism-versus-
//! communication trade-off that SAPE optimizes behaves as it does against
//! real endpoints, just on a compressed timescale.
//!
//! ## The real wire
//!
//! The simulation is one side of a seam; the other is [`HttpEndpoint`], a
//! std-only HTTP client that speaks the SPARQL 1.1 Protocol to any server
//! (including our own `lusail-server`). Both implement [`SparqlEndpoint`],
//! so every engine runs unchanged over either transport. The shared wire
//! format — SPARQL 1.1 JSON Results — lives in [`results_json`], with its
//! hand-rolled JSON layer in [`json`].

pub mod cancel;
pub mod endpoint;
pub mod erh;
pub mod fault;
pub mod federation;
pub mod http;
pub mod json;
pub mod network;
pub mod replica;
pub mod results_bin;
pub mod results_json;

pub use cancel::{CancelReason, CancelToken};
pub use endpoint::{
    EndpointError, EndpointId, EndpointLimits, FailureKind, SelectResponse, SimulatedEndpoint,
    SparqlEndpoint,
};
pub use erh::{
    Admission, BreakerConfig, BreakerState, CircuitBreaker, Deadline, EndpointHealth,
    HealthSnapshot, RequestHandler, WaveSnapshot,
};
pub use fault::{FaultProfile, FaultyConfig, FaultyEndpoint};
pub use federation::Federation;
pub use http::{HttpConfig, HttpEndpoint};
pub use network::{CodecCounters, CodecSnapshot, NetworkProfile, RequestCounters, TrafficSnapshot};
pub use replica::{
    hedge_safe, rank_members, ReplicaConfig, ReplicaGroup, ReplicaGroupStats, ReplicaMemberSnapshot,
};
