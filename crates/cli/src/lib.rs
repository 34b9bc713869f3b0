//! The `lusail` CLI, exposed as a library so its argument parsing and
//! command logic are unit-testable.

use lusail_baselines::{FedX, FedXConfig, FederatedEngine, HiBiscus, Splendid};
use lusail_core::{CancelToken, LusailConfig, LusailEngine, ResultPolicy, RunContext};
use lusail_federation::json::{render_text, Json};
use lusail_federation::{
    Federation, HttpConfig, HttpEndpoint, NetworkProfile, ReplicaConfig, ReplicaGroup,
    SimulatedEndpoint, SparqlEndpoint,
};
use lusail_rdf::{Graph, Term};
use lusail_server::federate::{FederateConfig, FederationService};
use lusail_server::ServerConfig;
use lusail_store::{Store, StoreStats};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// CLI usage text.
pub const USAGE: &str = "\
usage:
  lusail query    (--data FILE | --endpoint URL | --endpoint NAME=URL,URL,...)...
                  (--query FILE | --query-text SPARQL)
                  [--engine lusail|fedx|splendid|hibiscus]
                  [--profile instant|local|geo] [--timeout SECS]
                  [--retries N] [--backoff MS] [--hedge-after MS]
                  [--memory-budget BYTES] [--max-result-rows N]
                  [--format table|csv] [--explain] [--partial] [--stats]
  lusail serve    --data FILE... [--addr HOST:PORT] [--port N] [--workers N]
                  [--max-result-rows N]
  lusail serve    --federate
                  (--data FILE | --endpoint URL | --endpoint NAME=URL,URL,...)...
                  [--addr HOST:PORT] [--port N] [--workers N]
                  [--profile instant|local|geo] [--query-timeout SECS]
                  [--retries N] [--backoff MS] [--hedge-after MS]
                  [--memory-pool BYTES] [--query-budget BYTES] [--queue N]
                  [--client-max-inflight N] [--cache-ttl SECS]
                  [--cache-capacity N] [--max-result-rows N] [--partial]
                  [--drain-timeout SECS] [--watchdog-grace SECS]
  lusail generate --benchmark lubm|qfed|largerdf|bio2rdf --out DIR
                  [--scale F] [--endpoints N] [--seed N]
  lusail info     --data FILE...
  lusail snapshot --data FILE --out FILE.snap

For query, each --data file becomes one in-process endpoint (.nt =
N-Triples, .ttl = Turtle, .snap = snapshot) and each --endpoint URL a
remote HTTP SPARQL endpoint; the two can be mixed freely. serve merges
its --data files into one store and exposes it at http://ADDR/sparql.

An --endpoint of the form NAME=URL,URL,... declares a replica group:
equivalent mirrors behind one logical endpoint. Requests go to the
healthiest member (breaker state, then latency EWMA) and transparently
fail over to the next member on transport errors or an open breaker.
--hedge-after MS additionally duplicates a slow idempotent request on the
second-best member after MS milliseconds and takes the first success.
--retries and --backoff tune the per-member HTTP retry budget.

--partial (lusail engine only) returns the reachable subset of answers
when an endpoint is down, with a warning per skipped subquery, instead of
failing the whole query. --stats prints, after the results, the engine's
stats document as key=value lines under its JSON keys: codec, one line
per endpoint (requests, bytes, failures, retries, breaker,
latency_ewma_ms) with one per replica-group member beneath it
(dispatches, failovers, hedges), and for the lusail engine integrity,
erh, memory (peak bytes per phase) and lifecycle.

--memory-budget BYTES (lusail engine only; suffixes KB/MB/GB and
KiB/MiB/GiB accepted, e.g. 8MiB) bounds the bytes of intermediate
results the engine materializes (admitted responses and join outputs,
each charged once it is built); an exhausted budget fails fast with a
structured error (or truncates with a warning under --partial).
--max-result-rows N caps rows per subquery response, enforced while the
HTTP response streams in — a result-bomb endpoint is cut off mid-parse,
never buffered. For serve, --max-result-rows caps rows per response the
server streams out, with a truncation warning in the result head.

serve --federate runs the federator itself as a service: clients POST
SPARQL to http://ADDR/sparql and each query is executed through the full
LADE/SAPE pipeline against the configured federation (--data files and
--endpoint URLs, same syntax as query). Admission is controlled by a
global memory pool (--memory-pool) carved into per-query ledgers
(--query-budget); when all ledgers are out, up to --queue callers wait
briefly and the rest are shed with 503 + Retry-After. Each client
(X-Client-Id header, or peer IP) may have at most --client-max-inflight
queries running (429 beyond it). Analysis facts and whole-query results
are cached across clients with --cache-ttl / --cache-capacity bounds; a
repeated hot query is answered with zero endpoint requests. Degraded
(partial or truncated) results are never cached. GET /stats reports
per-client counters, cache hit rates, pool and queue state, a lifecycle
section (cancellations by reason, watchdog reaps, panics contained, drain
outcomes) and everything query --stats prints about the federation:
codec, integrity, per-endpoint health (breaker, failures, latency EWMA,
replica members) and erh; POST /cache/invalidate drops both cache tiers.

Every admitted query carries a cancel token: GET /queries lists the
in-flight queries (id, client, phase, elapsed, accounted bytes) and
POST /queries/<ID>/cancel trips one, returning 499 to its caller and
releasing its memory ledger. A client that disconnects mid-query is
detected on the socket and cancelled the same way. A watchdog reaps
queries wedged past their deadline plus --watchdog-grace SECS
(default 2). On shutdown the server drains: it stops accepting,
waits up to --drain-timeout SECS (default 5) for in-flight queries,
then force-cancels stragglers.";

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Io(std::io::Error),
    Parse(String),
    Engine(lusail_core::EngineError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "I/O: {e}"),
            CliError::Parse(m) => write!(f, "parse: {m}"),
            CliError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Query {
        data: Vec<PathBuf>,
        endpoints: Vec<String>,
        query_file: Option<PathBuf>,
        query_text: Option<String>,
        engine: EngineKind,
        profile: ProfileKind,
        timeout: Option<u64>,
        /// HTTP retry attempts beyond the first (`--retries`).
        retries: Option<u32>,
        /// First-retry backoff in milliseconds (`--backoff`).
        backoff: Option<u64>,
        /// Hedge delay in milliseconds for replica groups (`--hedge-after`).
        hedge_after: Option<u64>,
        /// Per-query memory budget in bytes (`--memory-budget`).
        memory_budget: Option<usize>,
        /// Row cap per subquery response (`--max-result-rows`).
        max_result_rows: Option<usize>,
        format: OutputFormat,
        explain: bool,
        partial: bool,
        stats: bool,
    },
    Serve {
        data: Vec<PathBuf>,
        addr: String,
        workers: usize,
        /// Row ceiling per response streamed by the server.
        max_result_rows: Option<usize>,
        /// `--federate`: run the federator as a service instead of a
        /// plain single-store endpoint.
        federate: Option<FederateOpts>,
    },
    Generate {
        benchmark: String,
        out: PathBuf,
        scale: f64,
        endpoints: usize,
        seed: u64,
    },
    Info {
        data: Vec<PathBuf>,
    },
    Snapshot {
        data: PathBuf,
        out: PathBuf,
    },
}

/// Options for `serve --federate` (defaults come from
/// [`lusail_server::federate::FederateConfig`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FederateOpts {
    /// Remote `--endpoint` specs (bare URLs or `NAME=URL,URL` groups).
    pub endpoints: Vec<String>,
    /// Network profile for the `--data` simulated endpoints.
    pub profile: ProfileKind,
    /// Per-query deadline in seconds (`--query-timeout`).
    pub query_timeout: Option<u64>,
    /// HTTP retry attempts beyond the first (`--retries`).
    pub retries: Option<u32>,
    /// First-retry backoff in milliseconds (`--backoff`).
    pub backoff: Option<u64>,
    /// Hedge delay in milliseconds for replica groups (`--hedge-after`).
    pub hedge_after: Option<u64>,
    /// Global memory pool in bytes (`--memory-pool`).
    pub memory_pool: Option<usize>,
    /// Per-query ledger in bytes (`--query-budget`).
    pub query_budget: Option<usize>,
    /// Admission-queue bound (`--queue`).
    pub queue: Option<usize>,
    /// Per-client in-flight bound (`--client-max-inflight`).
    pub client_max_inflight: Option<usize>,
    /// Cache TTL in seconds for both tiers (`--cache-ttl`).
    pub cache_ttl: Option<u64>,
    /// Result-cache entry cap (`--cache-capacity`).
    pub cache_capacity: Option<usize>,
    /// Serve partial results with warnings when endpoints fail.
    pub partial: bool,
    /// Shutdown drain window in seconds (`--drain-timeout`): in-flight
    /// queries get this long to finish before being force-cancelled.
    pub drain_timeout: Option<u64>,
    /// Watchdog slack past the query deadline in seconds
    /// (`--watchdog-grace`) before a wedged query is reaped.
    pub watchdog_grace: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Lusail,
    FedX,
    Splendid,
    HiBiscus,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileKind {
    #[default]
    Instant,
    Local,
    Geo,
}

impl ProfileKind {
    fn network(self) -> NetworkProfile {
        match self {
            ProfileKind::Instant => NetworkProfile::instant(),
            ProfileKind::Local => NetworkProfile::local_cluster(),
            ProfileKind::Geo => NetworkProfile::geo_distributed(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    Table,
    Csv,
}

/// Parse argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let usage = |m: &str| CliError::Usage(m.to_string());
    let mut it = args.iter();
    let sub = it.next().ok_or_else(|| usage("missing subcommand"))?;

    // Collect flag → values pairs.
    let rest: Vec<&String> = it.collect();
    let mut flags: Vec<(&str, Option<&str>)> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        if !flag.starts_with("--") {
            return Err(usage(&format!("unexpected argument {flag:?}")));
        }
        let value = if matches!(flag, "--explain" | "--partial" | "--stats" | "--federate") {
            None
        } else {
            let v = rest
                .get(i + 1)
                .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
            i += 1;
            Some(v.as_str())
        };
        flags.push((flag, value));
        i += 1;
    }
    // Reject typos outright: a misspelled `--port` must not silently fall
    // back to a default (serve would bind an ephemeral port the user never
    // asked for).
    let known: &[&str] = match sub.as_str() {
        "query" => &[
            "--data",
            "--endpoint",
            "--query",
            "--query-text",
            "--engine",
            "--profile",
            "--timeout",
            "--retries",
            "--backoff",
            "--hedge-after",
            "--memory-budget",
            "--max-result-rows",
            "--format",
            "--explain",
            "--partial",
            "--stats",
        ],
        "serve" => &[
            "--data",
            "--addr",
            "--port",
            "--workers",
            "--max-result-rows",
            "--federate",
            "--endpoint",
            "--profile",
            "--query-timeout",
            "--retries",
            "--backoff",
            "--hedge-after",
            "--memory-pool",
            "--query-budget",
            "--queue",
            "--client-max-inflight",
            "--cache-ttl",
            "--cache-capacity",
            "--partial",
            "--drain-timeout",
            "--watchdog-grace",
        ],
        "generate" => &["--benchmark", "--out", "--scale", "--endpoints", "--seed"],
        "info" => &["--data"],
        "snapshot" => &["--data", "--out"],
        _ => &[], // unknown subcommand: fall through to its own error below
    };
    if !known.is_empty() {
        if let Some((bad, _)) = flags.iter().find(|(f, _)| !known.contains(f)) {
            return Err(usage(&format!("unknown flag {bad:?} for {sub}")));
        }
    }

    let get = |name: &str| flags.iter().find(|(f, _)| *f == name).and_then(|(_, v)| *v);
    let get_all = |name: &str| -> Vec<&str> {
        flags
            .iter()
            .filter(|(f, _)| *f == name)
            .filter_map(|(_, v)| *v)
            .collect()
    };
    let has = |name: &str| flags.iter().any(|(f, _)| *f == name);

    // The flags `query` and `serve --federate` share, parsed and
    // range-checked once: both reject the same values with the same words.
    let capped = |flag: &str, max: u64, unit: &str| -> Result<Option<u64>, CliError> {
        let Some(v) = get(flag) else { return Ok(None) };
        let n: u64 = (v.parse()).map_err(|_| usage(&format!("bad {flag} {v:?}")))?;
        if n > max {
            let msg = format!("{flag} {n} is out of range (max {max}{unit})");
            return Err(usage(&msg));
        }
        Ok(Some(n))
    };
    let retries = || capped("--retries", 100, "").map(|n| n.map(|n| n as u32));
    let backoff = || capped("--backoff", 60_000, " ms");
    let hedge_after = || capped("--hedge-after", 60_000, " ms");
    let profile = || match get("--profile").unwrap_or("instant") {
        "instant" => Ok(ProfileKind::Instant),
        "local" => Ok(ProfileKind::Local),
        "geo" => Ok(ProfileKind::Geo),
        other => Err(usage(&format!("unknown profile {other:?}"))),
    };
    let max_result_rows = || -> Result<Option<usize>, CliError> {
        let Some(v) = get("--max-result-rows") else {
            return Ok(None);
        };
        match v.parse() {
            Ok(0) => Err(usage("--max-result-rows must be at least 1")),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(usage(&format!("bad --max-result-rows {v:?}"))),
        }
    };

    match sub.as_str() {
        "query" => {
            let data: Vec<PathBuf> = get_all("--data").into_iter().map(PathBuf::from).collect();
            let endpoints: Vec<String> = get_all("--endpoint")
                .into_iter()
                .map(str::to_string)
                .collect();
            if data.is_empty() && endpoints.is_empty() {
                return Err(usage(
                    "query needs at least one --data FILE or --endpoint URL",
                ));
            }
            let query_file = get("--query").map(PathBuf::from);
            let query_text = get("--query-text").map(str::to_string);
            if query_file.is_none() && query_text.is_none() {
                return Err(usage("query needs --query FILE or --query-text SPARQL"));
            }
            let engine = match get("--engine").unwrap_or("lusail") {
                "lusail" => EngineKind::Lusail,
                "fedx" => EngineKind::FedX,
                "splendid" => EngineKind::Splendid,
                "hibiscus" => EngineKind::HiBiscus,
                other => return Err(usage(&format!("unknown engine {other:?}"))),
            };
            let timeout = match get("--timeout") {
                None => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| usage(&format!("bad --timeout {v:?}")))?,
                ),
            };
            let memory_budget: Option<usize> = match get("--memory-budget") {
                None => None,
                Some(v) => {
                    Some(parse_bytes(v).map_err(|m| usage(&format!("bad --memory-budget: {m}")))?)
                }
            };
            // Group specs are validated at parse time so a malformed
            // NAME=URL,URL list fails before any endpoint is dialled.
            for spec in &endpoints {
                parse_endpoint_spec(spec).map_err(|m| usage(&m))?;
            }
            let format = match get("--format").unwrap_or("table") {
                "table" => OutputFormat::Table,
                "csv" => OutputFormat::Csv,
                other => return Err(usage(&format!("unknown format {other:?}"))),
            };
            if has("--partial") && engine != EngineKind::Lusail {
                return Err(usage(
                    "--partial is only supported by the lusail engine (the baselines \
                     have no partial-results mode)",
                ));
            }
            if memory_budget.is_some() && engine != EngineKind::Lusail {
                return Err(usage(
                    "--memory-budget is only supported by the lusail engine (the \
                     baselines have no memory accounting)",
                ));
            }
            Ok(Command::Query {
                data,
                endpoints,
                query_file,
                query_text,
                engine,
                profile: profile()?,
                timeout,
                retries: retries()?,
                backoff: backoff()?,
                hedge_after: hedge_after()?,
                memory_budget,
                max_result_rows: max_result_rows()?,
                format,
                explain: has("--explain"),
                partial: has("--partial"),
                stats: has("--stats"),
            })
        }
        "serve" => {
            let data: Vec<PathBuf> = get_all("--data").into_iter().map(PathBuf::from).collect();
            let federate = has("--federate");
            if !federate {
                // Federation knobs without --federate would silently do
                // nothing; refuse them instead.
                const FEDERATE_ONLY: &[&str] = &[
                    "--endpoint",
                    "--profile",
                    "--query-timeout",
                    "--retries",
                    "--backoff",
                    "--hedge-after",
                    "--memory-pool",
                    "--query-budget",
                    "--queue",
                    "--client-max-inflight",
                    "--cache-ttl",
                    "--cache-capacity",
                    "--partial",
                    "--drain-timeout",
                    "--watchdog-grace",
                ];
                if let Some(flag) = FEDERATE_ONLY.iter().find(|f| has(f)) {
                    return Err(usage(&format!("{flag} requires serve --federate")));
                }
                if data.is_empty() {
                    return Err(usage("serve needs at least one --data FILE"));
                }
            }
            if has("--addr") && has("--port") {
                return Err(usage("serve takes --addr or --port, not both"));
            }
            let addr = match (get("--addr"), get("--port")) {
                (Some(a), _) => a.to_string(),
                (None, Some(p)) => {
                    let port: u16 = p.parse().map_err(|_| usage(&format!("bad --port {p:?}")))?;
                    format!("127.0.0.1:{port}")
                }
                (None, None) => "127.0.0.1:0".to_string(),
            };
            let workers: usize = match get("--workers") {
                None => ServerConfig::default().workers,
                Some(v) => v
                    .parse()
                    .map_err(|_| usage(&format!("bad --workers {v:?}")))?,
            };
            let federate = if federate {
                let endpoints: Vec<String> = get_all("--endpoint")
                    .into_iter()
                    .map(str::to_string)
                    .collect();
                if data.is_empty() && endpoints.is_empty() {
                    return Err(usage(
                        "serve --federate needs at least one --data FILE or --endpoint URL",
                    ));
                }
                for spec in &endpoints {
                    parse_endpoint_spec(spec).map_err(|m| usage(&m))?;
                }
                let parse_u64 = |flag: &str| -> Result<Option<u64>, CliError> {
                    match get(flag) {
                        None => Ok(None),
                        Some(v) => Ok(Some(
                            v.parse().map_err(|_| usage(&format!("bad {flag} {v:?}")))?,
                        )),
                    }
                };
                let parse_usize = |flag: &str| -> Result<Option<usize>, CliError> {
                    match get(flag) {
                        None => Ok(None),
                        Some(v) => Ok(Some(
                            v.parse().map_err(|_| usage(&format!("bad {flag} {v:?}")))?,
                        )),
                    }
                };
                let parse_size = |flag: &str| -> Result<Option<usize>, CliError> {
                    match get(flag) {
                        None => Ok(None),
                        Some(v) => Ok(Some(
                            parse_bytes(v).map_err(|m| usage(&format!("bad {flag}: {m}")))?,
                        )),
                    }
                };
                let client_max_inflight = parse_usize("--client-max-inflight")?;
                if client_max_inflight == Some(0) {
                    return Err(usage("--client-max-inflight must be at least 1"));
                }
                let query_budget = parse_size("--query-budget")?;
                let memory_pool = parse_size("--memory-pool")?;
                if let (Some(pool), Some(ledger)) = (memory_pool, query_budget) {
                    if ledger > pool {
                        return Err(usage(&format!(
                            "--query-budget {ledger} exceeds --memory-pool {pool}"
                        )));
                    }
                }
                Some(FederateOpts {
                    endpoints,
                    profile: profile()?,
                    query_timeout: parse_u64("--query-timeout")?,
                    retries: retries()?,
                    backoff: backoff()?,
                    hedge_after: hedge_after()?,
                    memory_pool,
                    query_budget,
                    queue: parse_usize("--queue")?,
                    client_max_inflight,
                    cache_ttl: parse_u64("--cache-ttl")?,
                    cache_capacity: parse_usize("--cache-capacity")?,
                    partial: has("--partial"),
                    drain_timeout: parse_u64("--drain-timeout")?,
                    watchdog_grace: parse_u64("--watchdog-grace")?,
                })
            } else {
                None
            };
            Ok(Command::Serve {
                data,
                addr,
                workers,
                max_result_rows: max_result_rows()?,
                federate,
            })
        }
        "generate" => {
            let benchmark = get("--benchmark")
                .ok_or_else(|| usage("generate needs --benchmark"))?
                .to_string();
            if !["lubm", "qfed", "largerdf", "bio2rdf"].contains(&benchmark.as_str()) {
                return Err(usage(&format!("unknown benchmark {benchmark:?}")));
            }
            let out = PathBuf::from(get("--out").ok_or_else(|| usage("generate needs --out DIR"))?);
            let scale: f64 = match get("--scale") {
                None => 1.0,
                Some(v) => v
                    .parse()
                    .map_err(|_| usage(&format!("bad --scale {v:?}")))?,
            };
            let endpoints: usize = match get("--endpoints") {
                None => 4,
                Some(v) => v
                    .parse()
                    .map_err(|_| usage(&format!("bad --endpoints {v:?}")))?,
            };
            let seed: u64 = match get("--seed") {
                None => 42,
                Some(v) => v.parse().map_err(|_| usage(&format!("bad --seed {v:?}")))?,
            };
            Ok(Command::Generate {
                benchmark,
                out,
                scale,
                endpoints,
                seed,
            })
        }
        "info" => {
            let data: Vec<PathBuf> = get_all("--data").into_iter().map(PathBuf::from).collect();
            if data.is_empty() {
                return Err(usage("info needs at least one --data FILE"));
            }
            Ok(Command::Info { data })
        }
        "snapshot" => {
            let data = get("--data")
                .map(PathBuf::from)
                .ok_or_else(|| usage("snapshot needs --data FILE"))?;
            let out = get("--out")
                .map(PathBuf::from)
                .ok_or_else(|| usage("snapshot needs --out FILE.snap"))?;
            Ok(Command::Snapshot { data, out })
        }
        other => Err(usage(&format!("unknown subcommand {other:?}"))),
    }
}

/// Parse a byte-size argument: a plain count, or a count with a decimal
/// (`KB`/`MB`/`GB`) or binary (`KiB`/`MiB`/`GiB`) suffix, case-insensitive
/// — `8MiB`, `512kb`, `1073741824`.
fn parse_bytes(v: &str) -> Result<usize, String> {
    let t = v.trim();
    let split = t.find(|c: char| !c.is_ascii_digit()).unwrap_or(t.len());
    let (digits, suffix) = t.split_at(split);
    let mult: usize = match suffix.trim().to_ascii_lowercase().as_str() {
        "" | "b" => 1,
        "kb" => 1000,
        "mb" => 1_000_000,
        "gb" => 1_000_000_000,
        "kib" => 1 << 10,
        "mib" => 1 << 20,
        "gib" => 1 << 30,
        other => return Err(format!("unknown byte suffix {other:?} in {v:?}")),
    };
    if digits.is_empty() {
        return Err(format!("{v:?} has no leading number"));
    }
    let n: usize = digits
        .parse()
        .map_err(|_| format!("bad byte count {v:?}"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("{v:?} overflows a byte count"))
}

/// Load a data file as a store (by extension: `.ttl`/`.turtle` Turtle,
/// `.snap` binary snapshot, anything else N-Triples).
pub fn load_store(path: &Path) -> Result<Store, CliError> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    if ext == "snap" {
        return lusail_store::snapshot::load_from_file(path)
            .map_err(|e| CliError::Parse(format!("{path:?}: {e}")));
    }
    Ok(Store::from_graph(&load_graph(path)?))
}

/// Load a text data file as a graph (by extension).
pub fn load_graph(path: &Path) -> Result<Graph, CliError> {
    let text = std::fs::read_to_string(path)?;
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    match ext {
        "ttl" | "turtle" => {
            lusail_rdf::turtle::parse(&text).map_err(|e| CliError::Parse(format!("{path:?}: {e}")))
        }
        _ => lusail_rdf::ntriples::parse(&text)
            .map_err(|e| CliError::Parse(format!("{path:?}: {e}"))),
    }
}

/// One parsed `--endpoint` value: a bare URL, or a `NAME=URL,URL,...`
/// replica group.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EndpointSpec {
    Single(String),
    Group { name: String, urls: Vec<String> },
}

/// Classify an `--endpoint` value. A spec is a group when it has an `=`
/// whose left side looks like a plain name (no `/` or `:`, so URLs with
/// `?query=` parts are never mis-split); the right side is a comma list
/// of member URLs.
fn parse_endpoint_spec(spec: &str) -> Result<EndpointSpec, String> {
    let Some((name, rest)) = spec.split_once('=') else {
        return Ok(EndpointSpec::Single(spec.to_string()));
    };
    if name.contains('/') || name.contains(':') {
        // The `=` belongs to the URL itself.
        return Ok(EndpointSpec::Single(spec.to_string()));
    }
    if name.is_empty() {
        return Err(format!("--endpoint group {spec:?} has an empty name"));
    }
    let urls: Vec<String> = rest.split(',').map(str::trim).map(str::to_string).collect();
    if urls.iter().any(String::is_empty) {
        return Err(format!(
            "--endpoint group {name:?} has an empty member URL in {rest:?}"
        ));
    }
    Ok(EndpointSpec::Group {
        name: name.to_string(),
        urls,
    })
}

/// Assemble a federation from local data files (simulated endpoints) and
/// remote URL specs (HTTP endpoints, or replica groups of them), in that
/// order. `http` tunes every HTTP member; `hedge_after` enables hedging
/// inside replica groups.
fn build_federation(
    data: &[PathBuf],
    urls: &[String],
    profile: ProfileKind,
    http: HttpConfig,
    hedge_after: Option<Duration>,
) -> Result<Federation, CliError> {
    let mut endpoints: Vec<Arc<dyn SparqlEndpoint>> = Vec::new();
    for path in data {
        let store = load_store(path)?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("endpoint")
            .to_string();
        endpoints.push(Arc::new(SimulatedEndpoint::new(
            name,
            store,
            profile.network(),
        )));
    }
    let http_member = |name: &str, url: &str| -> Result<Arc<dyn SparqlEndpoint>, CliError> {
        let ep = HttpEndpoint::new(name, url)
            .map_err(|e| CliError::Usage(format!("--endpoint {e}")))?
            .with_config(http);
        Ok(Arc::new(ep))
    };
    for spec in urls {
        match parse_endpoint_spec(spec).map_err(CliError::Usage)? {
            EndpointSpec::Single(url) => endpoints.push(http_member(&url, &url)?),
            EndpointSpec::Group { name, urls } => {
                let members = urls
                    .iter()
                    .map(|url| http_member(url, url))
                    .collect::<Result<Vec<_>, _>>()?;
                endpoints.push(Arc::new(ReplicaGroup::new(
                    name,
                    members,
                    ReplicaConfig {
                        hedge_after,
                        ..ReplicaConfig::default()
                    },
                )));
            }
        }
    }
    Ok(Federation::new(endpoints))
}

/// Merge `data` files into one store and start a SPARQL server on `addr`.
/// Exposed separately from [`run_command`] (which blocks forever) so tests
/// and embedders get the handle back.
pub fn start_server(
    data: &[PathBuf],
    addr: &str,
    workers: usize,
    max_result_rows: Option<usize>,
) -> Result<(lusail_server::ServerHandle, usize), CliError> {
    let mut merged = Graph::new();
    for path in data {
        // Snapshots load as stores; everything else as graphs.
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        if ext == "snap" {
            let store = load_store(path)?;
            for (s, p, o) in store.iter_ids() {
                merged.add(
                    store.decode(s).clone(),
                    store.decode(p).clone(),
                    store.decode(o).clone(),
                );
            }
        } else {
            for t in load_graph(path)?.iter() {
                merged.add(t.subject.clone(), t.predicate.clone(), t.object.clone());
            }
        }
    }
    let triples = merged.len();
    let store = Store::from_graph(&merged);
    let config = ServerConfig {
        workers,
        max_result_rows,
        ..Default::default()
    };
    let server = lusail_server::SparqlServer::bind(addr, store, config).map_err(CliError::Io)?;
    Ok((server.spawn(), triples))
}

/// Start `serve --federate`: the LADE/SAPE engine over the configured
/// federation, mounted behind the HTTP server with admission control,
/// per-client quotas, and the shared cache tier. Returns the running
/// handle and the number of federated endpoints.
pub fn start_federated_server(
    data: &[PathBuf],
    addr: &str,
    workers: usize,
    max_result_rows: Option<usize>,
    opts: &FederateOpts,
) -> Result<(lusail_server::ServerHandle, usize), CliError> {
    let mut http = HttpConfig::default();
    if let Some(n) = opts.retries {
        http.retries = n;
    }
    if let Some(ms) = opts.backoff {
        http.backoff = Duration::from_millis(ms);
    }
    // The transport-level row cap guards the federator against endpoint
    // result bombs, independent of the per-query ledger.
    http.max_result_rows = max_result_rows;
    let federation = build_federation(
        data,
        &opts.endpoints,
        opts.profile,
        http,
        opts.hedge_after.map(Duration::from_millis),
    )?;
    let endpoints = federation.len();

    let defaults = FederateConfig::default();
    let service_config = FederateConfig {
        pool_bytes: opts.memory_pool.unwrap_or(defaults.pool_bytes),
        query_budget_bytes: opts.query_budget.unwrap_or(defaults.query_budget_bytes),
        max_waiting: opts.queue.unwrap_or(defaults.max_waiting),
        client_max_inflight: opts
            .client_max_inflight
            .unwrap_or(defaults.client_max_inflight),
        query_timeout: match opts.query_timeout {
            Some(secs) => Some(Duration::from_secs(secs)),
            None => defaults.query_timeout,
        },
        max_result_rows,
        partial: opts.partial,
        result_cache_capacity: opts.cache_capacity.or(defaults.result_cache_capacity),
        cache_ttl: match opts.cache_ttl {
            Some(secs) => Some(Duration::from_secs(secs)),
            None => defaults.cache_ttl,
        },
        watchdog_grace: opts
            .watchdog_grace
            .map(Duration::from_secs)
            .unwrap_or(defaults.watchdog_grace),
        ..defaults
    };
    // The long-lived analysis cache gets the same bounds as the result
    // cache, so stale endpoint facts age out of both tiers together.
    // The service runs each query under its own policy, deadline and row
    // cap (`FederateConfig`), so the engine keeps the defaults.
    let engine = LusailEngine::with_cache(
        federation,
        LusailConfig::default(),
        lusail_core::QueryCache::with_limits(service_config.cache_limits()),
    );
    let service = FederationService::new(engine, service_config);
    let server_config = ServerConfig {
        workers,
        max_result_rows,
        name: "lusail-federate".to_string(),
        drain_timeout: opts
            .drain_timeout
            .map(Duration::from_secs)
            .unwrap_or(ServerConfig::default().drain_timeout),
        ..Default::default()
    };
    let server = lusail_server::SparqlServer::with_backend(addr, Arc::new(service), server_config)
        .map_err(CliError::Io)?;
    Ok((server.spawn(), endpoints))
}

/// Run a parsed command, writing human output to `out`.
pub fn run_command(cmd: Command, out: &mut dyn Write) -> Result<(), CliError> {
    match cmd {
        Command::Serve {
            data,
            addr,
            workers,
            max_result_rows,
            federate,
        } => {
            match federate {
                None => {
                    let (handle, triples) = start_server(&data, &addr, workers, max_result_rows)?;
                    writeln!(out, "serving {} triples at {}", triples, handle.url())?;
                }
                Some(opts) => {
                    let (handle, endpoints) =
                        start_federated_server(&data, &addr, workers, max_result_rows, &opts)?;
                    writeln!(
                        out,
                        "federating {} endpoints at {}",
                        endpoints,
                        handle.url()
                    )?;
                }
            }
            out.flush()?;
            // Serve until the process is killed.
            loop {
                std::thread::park();
            }
        }
        Command::Query {
            data,
            endpoints,
            query_file,
            query_text,
            engine,
            profile,
            timeout,
            retries,
            backoff,
            hedge_after,
            memory_budget,
            max_result_rows,
            format,
            explain,
            partial,
            stats,
        } => {
            let mut http = HttpConfig::default();
            if let Some(n) = retries {
                http.retries = n;
            }
            if let Some(ms) = backoff {
                http.backoff = Duration::from_millis(ms);
            }
            // The transport-level cap guards every engine: a result bomb
            // is cut off while the response streams in.
            http.max_result_rows = max_result_rows;
            let federation = build_federation(
                &data,
                &endpoints,
                profile,
                http,
                hedge_after.map(Duration::from_millis),
            )?;
            let text = match (&query_file, &query_text) {
                (Some(path), _) => std::fs::read_to_string(path)?,
                (None, Some(text)) => text.clone(),
                (None, None) => unreachable!("validated in parse_args"),
            };
            let query =
                lusail_sparql::parse_query(&text).map_err(|e| CliError::Parse(e.to_string()))?;
            let timeout = timeout.map(Duration::from_secs);

            if engine == EngineKind::Lusail {
                let lusail = LusailEngine::new(
                    federation.clone(),
                    LusailConfig {
                        timeout,
                        result_policy: if partial {
                            ResultPolicy::Partial
                        } else {
                            ResultPolicy::FailFast
                        },
                        memory_budget,
                        max_result_rows,
                        ..Default::default()
                    },
                );
                // One-shot runs carry a cancel token too: every deadline
                // check doubles as a cancellation point, so a tripped
                // token (or expired budget) surfaces in --stats as a
                // lifecycle outcome instead of a bare error.
                let ctx = RunContext::new(lusail.config()).with_cancel(CancelToken::new());
                let started = std::time::Instant::now();
                let run = lusail.execute_profiled_with(&query, &ctx);
                if stats {
                    if let Err(e) = &run {
                        let lifecycle = lifecycle_json(&ctx, started.elapsed(), Some(e));
                        render_text(out, &Json::object([("lifecycle", lifecycle)]))?;
                    }
                }
                let (rel, profile) = run.map_err(CliError::Engine)?;
                if explain {
                    writeln!(out, "# engine        : Lusail")?;
                    writeln!(out, "# gjvs          : {:?}", profile.gjvs)?;
                    writeln!(out, "# subqueries    : {}", profile.subqueries)?;
                    writeln!(out, "# delayed       : {}", profile.delayed)?;
                    writeln!(out, "# strands       : {}", profile.strands)?;
                    writeln!(out, "# check queries : {}", profile.check_queries)?;
                    writeln!(
                        out,
                        "# phases        : probe (sources + counts) {:?}, branches {:?} wall; summed over branches: analysis (checks + plan) {:?}, execution {:?}",
                        profile.source_selection,
                        profile.branches,
                        profile.analysis,
                        profile.execution
                    )?;
                    writeln!(
                        out,
                        "# traffic       : {} requests, {} bytes received",
                        federation.total_traffic().requests,
                        federation.total_traffic().bytes_received
                    )?;
                }
                // Degraded results must be visibly degraded, whether or
                // not --explain is on.
                for w in &profile.warnings {
                    writeln!(out, "# warning       : {w}")?;
                }
                print_relation(&rel, format, out)?;
                if stats {
                    // The document `GET /stats` embeds, plus this run's own
                    // two sections.
                    let doc = lusail
                        .stats()
                        .with("memory", profile.memory.to_json())
                        .with("lifecycle", lifecycle_json(&ctx, started.elapsed(), None));
                    render_text(out, &doc)?;
                }
                return Ok(());
            }

            let engine: Box<dyn FederatedEngine> = match engine {
                EngineKind::Lusail => unreachable!("handled above"),
                EngineKind::FedX => Box::new(FedX::new(
                    federation.clone(),
                    FedXConfig {
                        timeout,
                        ..Default::default()
                    },
                )),
                EngineKind::Splendid => {
                    let mut s = Splendid::new(federation.clone());
                    s.timeout = timeout;
                    Box::new(s)
                }
                EngineKind::HiBiscus => Box::new(HiBiscus::new(
                    federation.clone(),
                    FedXConfig {
                        timeout,
                        ..Default::default()
                    },
                )),
            };
            let rel = engine.execute(&query).map_err(CliError::Engine)?;
            print_relation(&rel, format, out)?;
            if stats {
                render_text(out, &federation.stats())?;
            }
            Ok(())
        }
        Command::Generate {
            benchmark,
            out: dir,
            scale,
            endpoints,
            seed,
        } => {
            std::fs::create_dir_all(&dir)?;
            let graphs: Vec<(String, Graph)> = match benchmark.as_str() {
                "lubm" => {
                    let cfg = lusail_workloads::lubm::LubmConfig {
                        universities: endpoints,
                        seed,
                        ..Default::default()
                    };
                    lusail_workloads::lubm::generate_all(&cfg)
                }
                "qfed" => {
                    let cfg = lusail_workloads::qfed::QfedConfig {
                        drugs: (400.0 * scale) as usize,
                        diseases: (120.0 * scale) as usize,
                        side_effects: (200.0 * scale) as usize,
                        labels: (150.0 * scale) as usize,
                        seed,
                    };
                    lusail_workloads::qfed::generate_all(&cfg)
                }
                "largerdf" => {
                    let cfg = lusail_workloads::largerdf::LargeRdfConfig { scale, seed };
                    lusail_workloads::largerdf::generate_all(&cfg)
                }
                "bio2rdf" => {
                    let cfg = lusail_workloads::bio2rdf::Bio2RdfConfig {
                        seed,
                        ..Default::default()
                    };
                    lusail_workloads::bio2rdf::generate_all(&cfg)
                }
                _ => unreachable!("validated in parse_args"),
            };
            for (name, graph) in &graphs {
                let path = dir.join(format!("{name}.nt"));
                std::fs::write(&path, lusail_rdf::ntriples::serialize(graph))?;
                writeln!(out, "wrote {} ({} triples)", path.display(), graph.len())?;
            }
            Ok(())
        }
        Command::Snapshot { data, out: target } => {
            let store = load_store(&data)?;
            lusail_store::snapshot::save_to_file(&store, &target)?;
            writeln!(
                out,
                "wrote {} ({} triples, {} bytes)",
                target.display(),
                store.len(),
                std::fs::metadata(&target)?.len()
            )?;
            Ok(())
        }
        Command::Info { data } => {
            for path in &data {
                let store = load_store(path)?;
                let stats = StoreStats::collect(&store);
                writeln!(out, "{}:", path.display())?;
                writeln!(out, "  triples    : {}", stats.triples)?;
                writeln!(out, "  predicates : {}", stats.predicates.len())?;
                let mut preds: Vec<_> = stats.predicates.iter().collect();
                preds.sort_by_key(|(_, p)| std::cmp::Reverse(p.count));
                for (iri, p) in preds.iter().take(8) {
                    writeln!(
                        out,
                        "    {:<60} {:>8} triples, {:>6} subjects, {:>6} objects",
                        iri, p.count, p.distinct_subjects, p.distinct_objects
                    )?;
                }
            }
            Ok(())
        }
    }
}

/// The per-query `lifecycle` section of `--stats`: how the run ended.
/// One-shot queries carry the same cancel token the federation service
/// arms per admitted query, so the outcome names who pulled the plug
/// (deadline, a tripped token) or confirms a clean completion. The
/// service-side counterpart — cancellations by reason, watchdog reaps,
/// panics contained, drain outcomes — is the `lifecycle` of GET /stats.
fn lifecycle_json(
    ctx: &RunContext,
    elapsed: Duration,
    error: Option<&lusail_core::EngineError>,
) -> Json {
    let cancel_token = match ctx.cancel_reason() {
        Some(reason) => format!("tripped ({})", reason.as_str()),
        None => "armed, never tripped".to_string(),
    };
    let outcome = match error {
        None => "completed".to_string(),
        Some(lusail_core::EngineError::Timeout(budget)) => {
            format!("deadline exceeded ({budget:?} budget)")
        }
        Some(lusail_core::EngineError::Cancelled(reason)) => format!("cancelled: {reason}"),
        Some(e) => format!("failed: {e}"),
    };
    Json::object([
        ("elapsed_ms", (elapsed.as_millis() as u64).into()),
        ("cancel_token", Json::String(cancel_token)),
        ("outcome", Json::String(outcome)),
    ])
}

fn print_relation(
    rel: &lusail_sparql::solution::Relation,
    format: OutputFormat,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let cell = |t: &Option<Term>| t.as_ref().map_or(String::new(), |t| t.to_string());
    match format {
        OutputFormat::Csv => {
            let header: Vec<String> = rel.vars().iter().map(|v| v.name().to_string()).collect();
            writeln!(out, "{}", header.join(","))?;
            for row in rel.rows() {
                let cells: Vec<String> = row.iter().map(|c| csv_escape(&cell(c))).collect();
                writeln!(out, "{}", cells.join(","))?;
            }
        }
        OutputFormat::Table => {
            for v in rel.vars() {
                write!(out, "{v}\t")?;
            }
            writeln!(out)?;
            for row in rel.rows() {
                for c in row {
                    write!(out, "{}\t", cell(c))?;
                }
                writeln!(out)?;
            }
            writeln!(out, "({} rows)", rel.len())?;
        }
    }
    Ok(())
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Entry point used by `main` and the tests.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let cmd = parse_args(args)?;
    run_command(cmd, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_query_command() {
        let cmd = parse_args(&s(&[
            "query",
            "--data",
            "a.nt",
            "--data",
            "b.ttl",
            "--query",
            "q.sparql",
            "--engine",
            "fedx",
            "--profile",
            "geo",
            "--timeout",
            "5",
            "--format",
            "csv",
            "--explain",
        ]))
        .unwrap();
        match cmd {
            Command::Query {
                data,
                engine,
                profile,
                timeout,
                format,
                explain,
                ..
            } => {
                assert_eq!(data.len(), 2);
                assert_eq!(engine, EngineKind::FedX);
                assert_eq!(profile, ProfileKind::Geo);
                assert_eq!(timeout, Some(5));
                assert_eq!(format, OutputFormat::Csv);
                assert!(explain);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(matches!(parse_args(&s(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(&s(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["query", "--data", "a.nt"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["query", "--query-text", "ASK {}"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["generate", "--benchmark", "nope", "--out", "x"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&[
                "query", "--data", "a.nt", "--query", "q", "--engine", "zzz"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn search_is_not_a_subcommand() {
        let err = parse_args(&s(&["search", "--data", "a.nt", "--keywords", "x"])).unwrap_err();
        match err {
            CliError::Usage(msg) => assert!(msg.contains("unknown subcommand \"search\"")),
            other => panic!("{other:?}"),
        }
        assert!(!USAGE.contains("search"));
    }

    #[test]
    fn parse_partial_and_stats_flags() {
        let cmd = parse_args(&s(&[
            "query",
            "--data",
            "a.nt",
            "--query",
            "q.sparql",
            "--partial",
            "--stats",
        ]))
        .unwrap();
        match cmd {
            Command::Query { partial, stats, .. } => {
                assert!(partial);
                assert!(stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_is_rejected_for_baseline_engines() {
        let err = parse_args(&s(&[
            "query",
            "--data",
            "a.nt",
            "--query",
            "q",
            "--engine",
            "fedx",
            "--partial",
        ]))
        .unwrap_err();
        match err {
            CliError::Usage(msg) => assert!(msg.contains("--partial")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_bytes_accepts_suffixes_and_rejects_garbage() {
        assert_eq!(parse_bytes("123").unwrap(), 123);
        assert_eq!(parse_bytes("64b").unwrap(), 64);
        assert_eq!(parse_bytes("2KB").unwrap(), 2000);
        assert_eq!(parse_bytes("3mb").unwrap(), 3_000_000);
        assert_eq!(parse_bytes("1gb").unwrap(), 1_000_000_000);
        assert_eq!(parse_bytes("4KiB").unwrap(), 4096);
        assert_eq!(parse_bytes("8MiB").unwrap(), 8 << 20);
        assert_eq!(parse_bytes("2GiB").unwrap(), 2 << 30);
        assert!(parse_bytes("MiB").is_err());
        assert!(parse_bytes("12parsecs").is_err());
        assert!(parse_bytes("99999999999999999999gb").is_err());
    }

    #[test]
    fn parse_memory_flags() {
        let cmd = parse_args(&s(&[
            "query",
            "--data",
            "a.nt",
            "--query",
            "q.sparql",
            "--memory-budget",
            "8MiB",
            "--max-result-rows",
            "100",
        ]))
        .unwrap();
        match cmd {
            Command::Query {
                memory_budget,
                max_result_rows,
                ..
            } => {
                assert_eq!(memory_budget, Some(8 << 20));
                assert_eq!(max_result_rows, Some(100));
            }
            other => panic!("{other:?}"),
        }
        // --memory-budget is lusail-only, like --partial.
        let err = parse_args(&s(&[
            "query",
            "--data",
            "a.nt",
            "--query",
            "q",
            "--engine",
            "fedx",
            "--memory-budget",
            "1mb",
        ]))
        .unwrap_err();
        match err {
            CliError::Usage(msg) => assert!(msg.contains("--memory-budget"), "{msg}"),
            other => panic!("{other:?}"),
        }
        // Zero caps are rejected rather than silently meaning "drop everything".
        assert!(matches!(
            parse_args(&s(&[
                "query",
                "--data",
                "a.nt",
                "--query",
                "q",
                "--max-result-rows",
                "0"
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&["serve", "--data", "a.nt", "--max-result-rows", "0"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn memory_budget_end_to_end() {
        let dir = std::env::temp_dir().join(format!("lusail-cli-mem-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let nt = dir.join("d.nt");
        let mut body = String::new();
        for i in 0..50 {
            body.push_str(&format!(
                "<http://x/s{i}> <http://x/linked> <http://x/d{i}> .\n"
            ));
        }
        std::fs::write(&nt, body).unwrap();
        let base = [
            "query",
            "--data",
            nt.to_str().unwrap(),
            "--query-text",
            "SELECT ?s ?d WHERE { ?s <http://x/linked> ?d }",
        ];

        // Fail-fast: a 1-byte budget cannot admit any wave result.
        let mut args = s(&base);
        args.extend(s(&["--memory-budget", "1"]));
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).unwrap_err();
        match err {
            CliError::Engine(e) => {
                assert!(e.to_string().contains("memory budget"), "{e}")
            }
            other => panic!("{other:?}"),
        }

        // --partial degrades to a truncated result plus a visible warning.
        let mut args = s(&base);
        args.extend(s(&["--memory-budget", "1", "--partial"]));
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("# warning"), "{text}");
        assert!(text.contains("memory budget"), "{text}");

        // A generous budget succeeds and --stats reports the memory section.
        let mut args = s(&base);
        args.extend(s(&["--memory-budget", "8MiB", "--stats"]));
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("# memory:"), "{text}");
        assert!(text.contains("peak_bytes="), "{text}");
        assert!(text.contains("limit=8388608"), "{text}");
        assert!(text.contains("# erh: waves="), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_counts_the_strands_of_an_s6_shaped_query() {
        // LargeRDFBench S6 over two files: films with directors and their
        // many `owl:sameAs` links in one, the labels of the linked
        // resources in the other. The links are delayed and bound on the
        // directors' films; the labels share no endpoint with either, so
        // they run as a strand of their own.
        let dir = std::env::temp_dir().join(format!("lusail-cli-strands-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (films, labels) = (dir.join("films.nt"), dir.join("labels.nt"));
        let mut body = String::new();
        for i in 0..30 {
            if matches!(i, 0 | 1 | 4) {
                body.push_str(&format!(
                    "<http://x/f{i}> <http://x/director> <http://x/d{i}> .\n"
                ));
            }
            if i != 4 {
                body.push_str(&format!(
                    "<http://x/f{i}> <http://www.w3.org/2002/07/owl#sameAs> <http://x/r{i}> .\n"
                ));
            }
        }
        std::fs::write(&films, body).unwrap();
        let body: String = (0..12)
            .map(|i| format!("<http://x/r{i}> <http://x/label> \"r{i}\" .\n"))
            .collect();
        std::fs::write(&labels, body).unwrap();
        let args = s(&[
            "query",
            "--data",
            films.to_str().unwrap(),
            "--data",
            labels.to_str().unwrap(),
            "--query-text",
            "SELECT ?film ?director ?label WHERE { ?film <http://x/director> ?director . \
             ?film <http://www.w3.org/2002/07/owl#sameAs> ?r . ?r <http://x/label> ?label }",
            "--format",
            "csv",
            "--explain",
        ]);
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("# delayed       : 1\n"), "{text}");
        assert!(text.contains("# strands       : 2\n"), "{text}");
        let rows = text
            .lines()
            .filter(|l| l.starts_with("<http://x/f"))
            .count();
        assert_eq!(
            rows, 2,
            "films 0 and 1 have a director and a labelled link: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generate_defaults() {
        let cmd = parse_args(&s(&["generate", "--benchmark", "lubm", "--out", "/tmp/x"])).unwrap();
        match cmd {
            Command::Generate {
                benchmark,
                scale,
                endpoints,
                seed,
                ..
            } => {
                assert_eq!(benchmark, "lubm");
                assert_eq!(scale, 1.0);
                assert_eq!(endpoints, 4);
                assert_eq!(seed, 42);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn end_to_end_generate_info_query() {
        let dir = std::env::temp_dir().join(format!("lusail-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut buf = Vec::new();
        run(
            &s(&[
                "generate",
                "--benchmark",
                "lubm",
                "--out",
                dir.to_str().unwrap(),
                "--endpoints",
                "2",
            ]),
            &mut buf,
        )
        .unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 2);

        let mut info = Vec::new();
        run(
            &s(&["info", "--data", files[0].to_str().unwrap()]),
            &mut info,
        )
        .unwrap();
        let info_text = String::from_utf8(info).unwrap();
        assert!(info_text.contains("triples"), "{info_text}");

        let mut q = Vec::new();
        let data_args: Vec<String> = files
            .iter()
            .flat_map(|f| ["--data".to_string(), f.to_str().unwrap().to_string()])
            .collect();
        let mut args = s(&["query"]);
        args.extend(data_args);
        args.extend(s(&[
            "--query-text",
            "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> \
             SELECT ?s ?p WHERE { ?s ub:advisor ?p }",
            "--format",
            "csv",
            "--explain",
        ]));
        run(&args, &mut q).unwrap();
        let text = String::from_utf8(q).unwrap();
        assert!(text.contains("# engine        : Lusail"), "{text}");
        assert!(text.lines().count() > 8, "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_roundtrip_via_cli() {
        let dir = std::env::temp_dir().join(format!("lusail-cli-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let nt = dir.join("d.nt");
        std::fs::write(&nt, "<http://x/s> <http://x/p> \"v\" .\n").unwrap();
        let snap = dir.join("d.snap");
        let mut buf = Vec::new();
        run(
            &s(&[
                "snapshot",
                "--data",
                nt.to_str().unwrap(),
                "--out",
                snap.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap();
        let mut q = Vec::new();
        run(
            &s(&[
                "query",
                "--data",
                snap.to_str().unwrap(),
                "--query-text",
                "SELECT ?s WHERE { ?s <http://x/p> ?o }",
                "--format",
                "csv",
            ]),
            &mut q,
        )
        .unwrap();
        let text = String::from_utf8(q).unwrap();
        assert!(text.contains("http://x/s"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_serve_and_endpoint_flags() {
        let cmd = parse_args(&s(&["serve", "--data", "a.nt", "--port", "8890"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                data: vec![PathBuf::from("a.nt")],
                addr: "127.0.0.1:8890".to_string(),
                workers: ServerConfig::default().workers,
                max_result_rows: None,
                federate: None,
            }
        );
        assert!(matches!(
            parse_args(&s(&["serve"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&[
                "serve",
                "--data",
                "a.nt",
                "--addr",
                "0.0.0.0:1",
                "--port",
                "2"
            ])),
            Err(CliError::Usage(_))
        ));

        // A typo'd flag must be rejected, not silently ignored — otherwise
        // `--prot 8080` serves on an ephemeral port the user never asked for.
        match parse_args(&s(&["serve", "--data", "a.nt", "--prot", "8080"])) {
            Err(CliError::Usage(m)) => assert!(m.contains("--prot"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
        match parse_args(&s(&["query", "--data", "a.nt", "--query-txt", "ASK{}"])) {
            Err(CliError::Usage(m)) => assert!(m.contains("--query-txt"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }

        let cmd = parse_args(&s(&[
            "query",
            "--endpoint",
            "http://127.0.0.1:8890/sparql",
            "--query-text",
            "ASK {}",
        ]))
        .unwrap();
        match cmd {
            Command::Query {
                data, endpoints, ..
            } => {
                assert!(data.is_empty());
                assert_eq!(endpoints, vec!["http://127.0.0.1:8890/sparql".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_then_query_over_http() {
        let dir = std::env::temp_dir().join(format!("lusail-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.nt");
        let b = dir.join("b.nt");
        std::fs::write(&a, "<http://x/s1> <http://x/p> <http://x/o1> .\n").unwrap();
        std::fs::write(&b, "<http://x/s2> <http://x/p> <http://x/o2> .\n").unwrap();

        // serve merges both files into one store.
        let (handle, triples) =
            start_server(&[a.clone(), b.clone()], "127.0.0.1:0", 2, None).unwrap();
        assert_eq!(triples, 2);

        // query federates the HTTP endpoint with a local file.
        let mut buf = Vec::new();
        run(
            &s(&[
                "query",
                "--endpoint",
                &handle.url(),
                "--data",
                a.to_str().unwrap(),
                "--query-text",
                "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }",
                "--format",
                "csv",
            ]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        // s1 is in the file AND on the server (bag semantics: twice); s2
        // only on the server.
        assert_eq!(text.matches("http://x/s1").count(), 2, "{text}");
        assert_eq!(text.matches("http://x/s2").count(), 1, "{text}");
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_serve_federate_flags() {
        let cmd = parse_args(&s(&[
            "serve",
            "--federate",
            "--endpoint",
            "http://127.0.0.1:1/sparql",
            "--data",
            "a.nt",
            "--memory-pool",
            "64MiB",
            "--query-budget",
            "8MiB",
            "--queue",
            "4",
            "--client-max-inflight",
            "2",
            "--query-timeout",
            "10",
            "--cache-ttl",
            "60",
            "--cache-capacity",
            "32",
            "--drain-timeout",
            "7",
            "--watchdog-grace",
            "1",
            "--partial",
        ]))
        .unwrap();
        match cmd {
            Command::Serve {
                data,
                federate: Some(opts),
                ..
            } => {
                assert_eq!(data, vec![PathBuf::from("a.nt")]);
                assert_eq!(
                    opts.endpoints,
                    vec!["http://127.0.0.1:1/sparql".to_string()]
                );
                assert_eq!(opts.memory_pool, Some(64 << 20));
                assert_eq!(opts.query_budget, Some(8 << 20));
                assert_eq!(opts.queue, Some(4));
                assert_eq!(opts.client_max_inflight, Some(2));
                assert_eq!(opts.query_timeout, Some(10));
                assert_eq!(opts.cache_ttl, Some(60));
                assert_eq!(opts.cache_capacity, Some(32));
                assert_eq!(opts.drain_timeout, Some(7));
                assert_eq!(opts.watchdog_grace, Some(1));
                assert!(opts.partial);
            }
            other => panic!("{other:?}"),
        }

        // Federation knobs without --federate are refused, not ignored.
        match parse_args(&s(&["serve", "--data", "a.nt", "--queue", "4"])) {
            Err(CliError::Usage(m)) => assert!(m.contains("--queue"), "{m}"),
            other => panic!("expected usage error, got {other:?}"),
        }
        // A federation with nothing to federate is refused.
        assert!(matches!(
            parse_args(&s(&["serve", "--federate"])),
            Err(CliError::Usage(_))
        ));
        // A ledger larger than the pool could never be carved.
        assert!(matches!(
            parse_args(&s(&[
                "serve",
                "--federate",
                "--data",
                "a.nt",
                "--memory-pool",
                "1MiB",
                "--query-budget",
                "2MiB",
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&s(&[
                "serve",
                "--federate",
                "--data",
                "a.nt",
                "--client-max-inflight",
                "0",
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_federate_end_to_end() {
        let dir = std::env::temp_dir().join(format!("lusail-cli-fed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.nt");
        let b = dir.join("b.nt");
        std::fs::write(&a, "<http://x/s1> <http://x/p> <http://x/o1> .\n").unwrap();
        std::fs::write(&b, "<http://x/s2> <http://x/p> <http://x/o2> .\n").unwrap();

        // Two simulated endpoints behind one federation front door.
        let (handle, endpoints) = start_federated_server(
            &[a.clone(), b.clone()],
            "127.0.0.1:0",
            2,
            None,
            &FederateOpts::default(),
        )
        .unwrap();
        assert_eq!(endpoints, 2);

        // The service answers with the federated union, unlike plain
        // serve which would need the files merged into one store.
        let ep = HttpEndpoint::new("front", &handle.url()).unwrap();
        let q = lusail_sparql::parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
        let rel = ep.select(&q).unwrap();
        assert_eq!(rel.len(), 2);

        // The repeat is a result-cache hit, visible in /stats.
        assert_eq!(ep.select(&q).unwrap().len(), 2);
        let mut sock = std::net::TcpStream::connect(handle.local_addr()).unwrap();
        sock.write_all(b"GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        std::io::Read::read_to_string(&mut sock, &mut text).unwrap();
        assert!(
            text.contains("\"result_cache\":{\"entries\":1,\"hits\":1"),
            "{text}"
        );
        assert!(text.contains("\"pool\":{"), "{text}");

        // Explicit invalidation drops both tiers.
        let mut sock = std::net::TcpStream::connect(handle.local_addr()).unwrap();
        sock.write_all(
            b"POST /cache/invalidate HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\
              Connection: close\r\n\r\n",
        )
        .unwrap();
        let mut text = String::new();
        std::io::Read::read_to_string(&mut sock, &mut text).unwrap();
        assert!(text.contains("\"invalidated\":true"), "{text}");

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_retry_backoff_and_hedge_flags() {
        let cmd = parse_args(&s(&[
            "query",
            "--endpoint",
            "http://127.0.0.1:1/sparql",
            "--query-text",
            "ASK {}",
            "--retries",
            "5",
            "--backoff",
            "250",
            "--hedge-after",
            "40",
        ]))
        .unwrap();
        match cmd {
            Command::Query {
                retries,
                backoff,
                hedge_after,
                ..
            } => {
                assert_eq!(retries, Some(5));
                assert_eq!(backoff, Some(250));
                assert_eq!(hedge_after, Some(40));
            }
            other => panic!("{other:?}"),
        }

        // Invalid values are rejected like any other flag — by `query` and
        // by `serve --federate` alike, in the same words.
        let rejection = |sub: &[&str], bad: &[&str]| {
            let mut args = s(sub);
            args.extend(s(&["--endpoint", "http://127.0.0.1:1/sparql"]));
            args.extend(s(bad));
            match parse_args(&args) {
                Err(CliError::Usage(msg)) => msg,
                other => panic!("{sub:?} {bad:?} should be rejected, got {other:?}"),
            }
        };
        for bad in [
            ["--retries", "many"],
            ["--retries", "101"],
            ["--retries", "4000000000"],
            ["--retries", "-1"],
            ["--backoff", "1ms"],
            ["--backoff", "99999999"],
            ["--hedge-after", "soon"],
            ["--hedge-after", "60001"],
            ["--profile", "moon"],
            ["--max-result-rows", "0"],
            ["--max-result-rows", "lots"],
        ] {
            let by_query = rejection(&["query", "--query-text", "ASK {}"], &bad);
            let by_serve = rejection(&["serve", "--federate"], &bad);
            assert_eq!(by_query, by_serve, "{bad:?}");
        }
        let ok = s(&[
            "serve",
            "--federate",
            "--endpoint",
            "http://127.0.0.1:1/sparql",
            "--retries",
            "100",
            "--backoff",
            "60000",
            "--max-result-rows",
            "7",
        ]);
        match parse_args(&ok).unwrap() {
            Command::Serve {
                max_result_rows,
                federate: Some(opts),
                ..
            } => {
                assert_eq!(max_result_rows, Some(7));
                assert_eq!((opts.retries, opts.backoff), (Some(100), Some(60_000)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_replica_group_specs() {
        assert_eq!(
            parse_endpoint_spec("http://h:1/sparql").unwrap(),
            EndpointSpec::Single("http://h:1/sparql".to_string())
        );
        // A `=` inside the URL's query string is not a group separator.
        assert_eq!(
            parse_endpoint_spec("http://h:1/sparql?default-graph=g").unwrap(),
            EndpointSpec::Single("http://h:1/sparql?default-graph=g".to_string())
        );
        assert_eq!(
            parse_endpoint_spec("mirror=http://a:1/sparql,http://b:2/sparql").unwrap(),
            EndpointSpec::Group {
                name: "mirror".to_string(),
                urls: vec![
                    "http://a:1/sparql".to_string(),
                    "http://b:2/sparql".to_string()
                ],
            }
        );
        assert!(parse_endpoint_spec("=http://a:1/sparql").is_err());
        assert!(parse_endpoint_spec("mirror=http://a:1/sparql,").is_err());

        // Malformed groups are rejected at parse time.
        assert!(matches!(
            parse_args(&s(&[
                "query",
                "--endpoint",
                "mirror=http://a:1/s,",
                "--query-text",
                "ASK {}",
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn replica_group_over_http_survives_dead_member() {
        let dir = std::env::temp_dir().join(format!("lusail-cli-replica-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.nt");
        std::fs::write(&a, "<http://x/s1> <http://x/p> <http://x/o1> .\n").unwrap();

        let (handle, _) = start_server(&[a.clone()], "127.0.0.1:0", 2, None).unwrap();
        // Member 0 is a dead address (connection refused); member 1 is the
        // live server. The group must answer with the live member's rows.
        let group = format!("mirror=http://127.0.0.1:9/sparql,{}", handle.url());
        let mut buf = Vec::new();
        run(
            &s(&[
                "query",
                "--endpoint",
                &group,
                "--query-text",
                "SELECT ?s WHERE { ?s <http://x/p> ?o }",
                "--retries",
                "0",
                "--backoff",
                "1",
                "--format",
                "csv",
                "--stats",
            ]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("http://x/s1"), "{text}");
        assert!(text.contains("mirror"), "{text}");
        assert!(
            text.contains("failovers"),
            "stats must show member rows: {text}"
        );
        assert!(
            text.contains("http://127.0.0.1:9/sparql: dispatches="),
            "stats must list the dead member: {text}"
        );
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
