//! # lusail-baselines
//!
//! The three state-of-the-art federated SPARQL engines Lusail is compared
//! against in the paper's evaluation (Section 5):
//!
//! * [`FedX`] — index-free. Source selection by `ASK` probes
//!   (cached), *exclusive groups* for triple patterns answerable by exactly
//!   one endpoint, and nested-loop **bound joins** that evaluate the query
//!   one triple pattern (or group) at a time, shipping blocks of bindings
//!   to every relevant endpoint. This is the schema-only decomposition the
//!   paper contrasts with LADE: when endpoints share a schema, no exclusive
//!   groups form and the number of remote requests explodes.
//! * [`Splendid`] — index-based. A preprocessing pass
//!   collects VoID-style statistics from every endpoint (its cost is what
//!   Table "Data Preprocessing Cost" in §5.1 reports); source selection and
//!   join planning use the index.
//! * [`HiBiscus`] — an add-on over FedX that prunes
//!   sources using per-predicate URI *authority* summaries, as in the
//!   ESWC'14 paper, read from the same [`VoidIndex`] SPLENDID builds.
//!
//! The three differ only in strategy: where each triple pattern is sent
//! and which unit runs next. They ship core's
//! [`Subquery`](lusail_core::subquery::Subquery), push FILTERs into it by
//! core's one rule and run every branch through one runner
//! ([`common`]). All three implement [`FederatedEngine`], as does
//! [`lusail_core::LusailEngine`], so the benchmark harness treats every
//! system uniformly.

pub mod common;
pub mod fedx;
pub mod hibiscus;
pub mod splendid;

pub use common::FederatedEngine;
pub use fedx::{FedX, FedXConfig};
pub use hibiscus::HiBiscus;
pub use splendid::{Splendid, VoidIndex};
