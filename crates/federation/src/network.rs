//! The simulated network: latency/bandwidth profiles and traffic counters.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A network profile for one endpoint, standing in for the paper's
/// deployment environments.
///
/// The per-request `latency` is paid with a real sleep on the calling
/// thread, and `bytes_per_sec` converts request/response sizes into
/// additional transfer time. Timescales are compressed relative to the
/// paper (a real WAN round trip is ~40–150 ms; we default to single-digit
/// milliseconds) so the full benchmark suite stays runnable — the *ratio*
/// between the profiles is what the experiments depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkProfile {
    /// Fixed per-request latency (round-trip).
    pub latency: Duration,
    /// Link bandwidth for payload transfer. `u64::MAX` disables transfer
    /// cost.
    pub bytes_per_sec: u64,
}

impl NetworkProfile {
    /// No simulated network cost at all (useful in unit tests).
    pub fn instant() -> Self {
        NetworkProfile {
            latency: Duration::ZERO,
            bytes_per_sec: u64::MAX,
        }
    }

    /// The paper's local-cluster setting (1–10 Gbps Ethernet, same rack):
    /// a small but non-zero round trip.
    pub fn local_cluster() -> Self {
        NetworkProfile {
            latency: Duration::from_micros(200),
            bytes_per_sec: 125_000_000,
        }
    }

    /// The paper's geo-distributed Azure setting (7 regions across the US
    /// and Europe): ~20× the local round trip and ~1/50 the bandwidth.
    pub fn geo_distributed() -> Self {
        NetworkProfile {
            latency: Duration::from_millis(4),
            bytes_per_sec: 2_500_000,
        }
    }

    /// The transfer time for `bytes` at this profile's bandwidth.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        if self.bytes_per_sec == u64::MAX || bytes == 0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec as f64)
    }

    /// Total simulated cost of one request.
    pub fn request_cost(&self, request_bytes: usize, response_bytes: usize) -> Duration {
        self.latency + self.transfer_time(request_bytes + response_bytes)
    }
}

/// Thread-safe traffic counters for one endpoint.
///
/// These are the quantities the paper argues about: the *number of remote
/// requests* (FedX's bound joins inflate this by orders of magnitude) and
/// the *volume of intermediate results* shipped back.
#[derive(Debug, Default)]
pub struct RequestCounters {
    requests: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    simulated_nanos: AtomicU64,
}

impl RequestCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one request: `sent` request bytes, `received` response bytes,
    /// and the simulated network time charged for it.
    pub fn record(&self, sent: usize, received: usize, cost: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(sent as u64, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(received as u64, Ordering::Relaxed);
        self.simulated_nanos
            .fetch_add(cost.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            simulated_network_time: Duration::from_nanos(
                self.simulated_nanos.load(Ordering::Relaxed),
            ),
        }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_received.store(0, Ordering::Relaxed);
        self.simulated_nanos.store(0, Ordering::Relaxed);
    }
}

/// Thread-safe data-plane codec counters for one endpoint: which results
/// codec the endpoint actually answered with, how many wire bytes each
/// codec carried, and how large the per-response term dictionaries were.
///
/// "Fallbacks" count responses where the binary codec was offered in the
/// `Accept` header but the endpoint answered SPARQL-JSON anyway — the
/// expected behavior against foreign (non-Lusail) endpoints.
#[derive(Debug, Default)]
pub struct CodecCounters {
    json_responses: AtomicU64,
    binary_responses: AtomicU64,
    json_bytes_in: AtomicU64,
    binary_bytes_in: AtomicU64,
    dict_terms: AtomicU64,
    fallbacks: AtomicU64,
}

impl CodecCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one successfully decoded JSON response of `bytes` wire
    /// bytes. `offered_binary` marks it as a negotiation fallback.
    pub fn record_json(&self, bytes: usize, offered_binary: bool) {
        self.json_responses.fetch_add(1, Ordering::Relaxed);
        self.json_bytes_in
            .fetch_add(bytes as u64, Ordering::Relaxed);
        if offered_binary {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one successfully decoded binary response: `bytes` wire
    /// bytes carrying a `dict_terms`-entry term dictionary.
    pub fn record_binary(&self, bytes: usize, dict_terms: usize) {
        self.binary_responses.fetch_add(1, Ordering::Relaxed);
        self.binary_bytes_in
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.dict_terms
            .fetch_add(dict_terms as u64, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of the counters.
    pub fn snapshot(&self) -> CodecSnapshot {
        CodecSnapshot {
            json_responses: self.json_responses.load(Ordering::Relaxed),
            binary_responses: self.binary_responses.load(Ordering::Relaxed),
            json_bytes_in: self.json_bytes_in.load(Ordering::Relaxed),
            binary_bytes_in: self.binary_bytes_in.load(Ordering::Relaxed),
            dict_terms: self.dict_terms.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.json_responses.store(0, Ordering::Relaxed);
        self.binary_responses.store(0, Ordering::Relaxed);
        self.json_bytes_in.store(0, Ordering::Relaxed);
        self.binary_bytes_in.store(0, Ordering::Relaxed);
        self.dict_terms.store(0, Ordering::Relaxed);
        self.fallbacks.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time reading of [`CodecCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecSnapshot {
    pub json_responses: u64,
    pub binary_responses: u64,
    pub json_bytes_in: u64,
    pub binary_bytes_in: u64,
    pub dict_terms: u64,
    pub fallbacks: u64,
}

impl CodecSnapshot {
    /// Element-wise sum (for aggregating across endpoints or replicas).
    pub fn merge(self, other: CodecSnapshot) -> CodecSnapshot {
        CodecSnapshot {
            json_responses: self.json_responses + other.json_responses,
            binary_responses: self.binary_responses + other.binary_responses,
            json_bytes_in: self.json_bytes_in + other.json_bytes_in,
            binary_bytes_in: self.binary_bytes_in + other.binary_bytes_in,
            dict_terms: self.dict_terms + other.dict_terms,
            fallbacks: self.fallbacks + other.fallbacks,
        }
    }

    /// One row of the `codec` stats section (the total, or one endpoint).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("negotiated", self.negotiated().into()),
            ("binary_responses", self.binary_responses.into()),
            ("json_responses", self.json_responses.into()),
            ("binary_bytes_in", self.binary_bytes_in.into()),
            ("json_bytes_in", self.json_bytes_in.into()),
            ("dict_terms", self.dict_terms.into()),
            ("fallbacks", self.fallbacks.into()),
        ])
    }

    /// The codec this endpoint has settled on, judged by what it last
    /// demonstrably answered with: "binary" once any binary response
    /// landed, "json" after JSON-only traffic, "none" before any
    /// response.
    pub fn negotiated(&self) -> &'static str {
        if self.binary_responses > 0 {
            "binary"
        } else if self.json_responses > 0 {
            "json"
        } else {
            "none"
        }
    }
}

/// A point-in-time reading of [`RequestCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    pub requests: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub simulated_network_time: Duration,
}

impl TrafficSnapshot {
    /// The traffic columns of an `endpoints` stats row.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("requests", self.requests.into()),
            ("bytes_sent", self.bytes_sent.into()),
            ("bytes_received", self.bytes_received.into()),
            (
                "simulated_network_ms",
                Json::millis(self.simulated_network_time),
            ),
        ])
    }

    /// Element-wise sum (for aggregating across endpoints).
    pub fn merge(self, other: TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            requests: self.requests + other.requests,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
            simulated_network_time: self.simulated_network_time + other.simulated_network_time,
        }
    }

    /// Difference since an earlier snapshot.
    pub fn since(self, earlier: TrafficSnapshot) -> TrafficSnapshot {
        TrafficSnapshot {
            requests: self.requests - earlier.requests,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
            simulated_network_time: self.simulated_network_time - earlier.simulated_network_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let p = NetworkProfile {
            latency: Duration::ZERO,
            bytes_per_sec: 1000,
        };
        assert_eq!(p.transfer_time(500), Duration::from_millis(500));
        assert_eq!(p.transfer_time(0), Duration::ZERO);
        assert_eq!(
            NetworkProfile::instant().transfer_time(1 << 30),
            Duration::ZERO
        );
    }

    #[test]
    fn request_cost_adds_latency() {
        let p = NetworkProfile {
            latency: Duration::from_millis(10),
            bytes_per_sec: 1000,
        };
        assert_eq!(p.request_cost(100, 900), Duration::from_millis(1010));
    }

    #[test]
    fn geo_is_slower_than_local() {
        assert!(
            NetworkProfile::geo_distributed().latency > NetworkProfile::local_cluster().latency
        );
        assert!(
            NetworkProfile::geo_distributed().bytes_per_sec
                < NetworkProfile::local_cluster().bytes_per_sec
        );
    }

    #[test]
    fn counters_record_and_snapshot() {
        let c = RequestCounters::new();
        c.record(10, 100, Duration::from_millis(1));
        c.record(20, 200, Duration::from_millis(2));
        let s = c.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes_sent, 30);
        assert_eq!(s.bytes_received, 300);
        assert_eq!(s.simulated_network_time, Duration::from_millis(3));
        c.reset();
        assert_eq!(c.snapshot(), TrafficSnapshot::default());
    }

    #[test]
    fn snapshot_merge_and_since() {
        let a = TrafficSnapshot {
            requests: 1,
            bytes_sent: 2,
            bytes_received: 3,
            simulated_network_time: Duration::from_secs(1),
        };
        let b = a.merge(a);
        assert_eq!(b.requests, 2);
        assert_eq!(b.since(a), a);
    }
}
