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
                  [--scale F (qfed, largerdf)] [--endpoints N (lubm)]
                  [--seed N]
  lusail info     --data FILE...
  lusail snapshot --data FILE --out FILE.snap

For query, each --data file becomes one in-process endpoint (.nt =
N-Triples, .ttl = Turtle, .snap = snapshot) and each --endpoint URL a
remote HTTP SPARQL endpoint; the two can be mixed freely. serve merges
its --data files into one store and exposes it at http://ADDR/sparql.
Only --data and --endpoint may be given more than once (snapshot takes
one --data); --query and --query-text exclude each other, as do --addr
and --port.

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

fn usage(m: impl Into<String>) -> CliError {
    CliError::Usage(m.into())
}

/// Parsed command line: each command carries the configs it runs with.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Query {
        federation: FederationSpec,
        query: QuerySource,
        engine: EngineKind,
        /// Timeout, result policy, memory budget and row cap.
        config: LusailConfig,
        format: OutputFormat,
        explain: bool,
        stats: bool,
    },
    /// Plain `serve`: the `--data` files merged into one store.
    Serve {
        data: Vec<PathBuf>,
        addr: String,
        config: ServerConfig,
    },
    /// `serve --federate`: the federator itself behind the HTTP server.
    Federate {
        federation: FederationSpec,
        addr: String,
        server: ServerConfig,
        service: FederateConfig,
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

/// The federation `query` and `serve --federate` run over: local data files
/// (simulated endpoints under `profile`) and remote endpoints (HTTP members
/// tuned by `http`, replica groups hedged after `hedge_after`).
#[derive(Debug, Clone, PartialEq)]
pub struct FederationSpec {
    pub data: Vec<PathBuf>,
    pub endpoints: Vec<EndpointSpec>,
    pub profile: NetworkProfile,
    pub http: HttpConfig,
    pub hedge_after: Option<Duration>,
}

impl Default for FederationSpec {
    fn default() -> Self {
        FederationSpec {
            data: Vec::new(),
            endpoints: Vec::new(),
            profile: NetworkProfile::instant(),
            http: HttpConfig::default(),
            hedge_after: None,
        }
    }
}

/// Where `query` reads its SPARQL text from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuerySource {
    File(PathBuf),
    Text(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    #[default]
    Lusail,
    FedX,
    Splendid,
    HiBiscus,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    #[default]
    Table,
    Csv,
}

/// The commands a flag is valid for, as bits.
const QUERY: u8 = 1;
const SERVE: u8 = 1 << 1;
/// `serve --federate`.
const FEDERATE: u8 = 1 << 2;
const GENERATE: u8 = 1 << 3;
const INFO: u8 = 1 << 4;
const SNAPSHOT: u8 = 1 << 5;
/// The federation flags `query` and `serve --federate` share: both parse
/// them into one [`FederationSpec`] and reject a value in the same words.
const FED: u8 = QUERY | FEDERATE;

const VALUE: bool = true;
const SWITCH: bool = false;

/// One row of [`FLAGS`]: the flag's name, whether it takes a value, the
/// commands that accept it, those in which it may be given more than once,
/// and where its value lands.
type Flag = (&'static str, bool, u8, u8, Apply);
type Apply = fn(&mut Draft, Arg) -> Result<(), CliError>;

/// Every flag of every command. The rows are applied in argv order, each to
/// the config its command runs with; a config field no flag names keeps its
/// `Default`.
const FLAGS: &[Flag] = &[
    (
        "--data",
        VALUE,
        FED | SERVE | INFO | SNAPSHOT,
        FED | SERVE | INFO,
        |d, a| a.value().map(|path| d.fed.data.push(path)),
    ),
    ("--endpoint", VALUE, FED, FED, |d, a| {
        // Validated here so a malformed NAME=URL,URL list fails before any
        // endpoint is dialled.
        parse_endpoint_spec(a.v).map(|spec| d.fed.endpoints.push(spec))
    }),
    ("--query", VALUE, QUERY, 0, |d, a| {
        d.set_query(QuerySource::File(a.value()?))
    }),
    ("--query-text", VALUE, QUERY, 0, |d, a| {
        d.set_query(QuerySource::Text(a.value()?))
    }),
    ("--engine", VALUE, QUERY, 0, |d, a| {
        d.engine = match a.v {
            "lusail" => EngineKind::Lusail,
            "fedx" => EngineKind::FedX,
            "splendid" => EngineKind::Splendid,
            "hibiscus" => EngineKind::HiBiscus,
            other => return Err(usage(format!("unknown engine {other:?}"))),
        };
        Ok(())
    }),
    ("--profile", VALUE, FED, 0, |d, a| {
        d.fed.profile = match a.v {
            "instant" => NetworkProfile::instant(),
            "local" => NetworkProfile::local_cluster(),
            "geo" => NetworkProfile::geo_distributed(),
            other => return Err(usage(format!("unknown profile {other:?}"))),
        };
        Ok(())
    }),
    ("--timeout", VALUE, QUERY, 0, |d, a| {
        a.secs().map(|t| d.lusail.timeout = Some(t))
    }),
    ("--retries", VALUE, FED, 0, |d, a| {
        a.capped(100, "").map(|n| d.fed.http.retries = n as u32)
    }),
    ("--backoff", VALUE, FED, 0, |d, a| {
        a.capped(60_000, " ms")
            .map(|ms| d.fed.http.backoff = Duration::from_millis(ms))
    }),
    ("--hedge-after", VALUE, FED, 0, |d, a| {
        a.capped(60_000, " ms")
            .map(|ms| d.fed.hedge_after = Some(Duration::from_millis(ms)))
    }),
    ("--memory-budget", VALUE, QUERY, 0, |d, a| {
        a.bytes().map(|n| d.lusail.memory_budget = Some(n))
    }),
    ("--max-result-rows", VALUE, FED | SERVE, 0, |d, a| {
        // One cap for every layer: the transport cuts an endpoint's result
        // bomb off while it streams in, the engine admits no more, and
        // serve streams no more out.
        let n = Some(a.at_least_one()?);
        d.fed.http.max_result_rows = n;
        d.lusail.max_result_rows = n;
        d.server.max_result_rows = n;
        d.service.max_result_rows = n;
        Ok(())
    }),
    ("--format", VALUE, QUERY, 0, |d, a| {
        d.format = match a.v {
            "table" => OutputFormat::Table,
            "csv" => OutputFormat::Csv,
            other => return Err(usage(format!("unknown format {other:?}"))),
        };
        Ok(())
    }),
    ("--explain", SWITCH, QUERY, 0, |d, _| {
        d.explain = true;
        Ok(())
    }),
    ("--partial", SWITCH, FED, 0, |d, _| {
        d.lusail.result_policy = ResultPolicy::Partial;
        d.service.partial = true;
        Ok(())
    }),
    ("--stats", SWITCH, QUERY, 0, |d, _| {
        d.stats = true;
        Ok(())
    }),
    ("--addr", VALUE, SERVE | FEDERATE, 0, |d, a| {
        d.set_addr(a.value()?)
    }),
    ("--port", VALUE, SERVE | FEDERATE, 0, |d, a| {
        d.set_addr(format!("127.0.0.1:{}", a.value::<u16>()?))
    }),
    ("--workers", VALUE, SERVE | FEDERATE, 0, |d, a| {
        a.value().map(|n| d.server.workers = n)
    }),
    // Stores nothing: its presence makes serve the FEDERATE command.
    ("--federate", SWITCH, FEDERATE, 0, |_, _| Ok(())),
    ("--query-timeout", VALUE, FEDERATE, 0, |d, a| {
        a.secs().map(|t| d.service.query_timeout = Some(t))
    }),
    ("--memory-pool", VALUE, FEDERATE, 0, |d, a| {
        d.service.pool_bytes = a.bytes()?;
        d.pool_given = true;
        Ok(())
    }),
    ("--query-budget", VALUE, FEDERATE, 0, |d, a| {
        d.service.query_budget_bytes = a.bytes()?;
        d.ledger_given = true;
        Ok(())
    }),
    ("--queue", VALUE, FEDERATE, 0, |d, a| {
        a.value().map(|n| d.service.max_waiting = n)
    }),
    ("--client-max-inflight", VALUE, FEDERATE, 0, |d, a| {
        a.at_least_one().map(|n| d.service.client_max_inflight = n)
    }),
    ("--cache-ttl", VALUE, FEDERATE, 0, |d, a| {
        a.secs().map(|t| d.service.cache_ttl = Some(t))
    }),
    ("--cache-capacity", VALUE, FEDERATE, 0, |d, a| {
        a.value().map(|n| d.service.result_cache_capacity = Some(n))
    }),
    ("--drain-timeout", VALUE, FEDERATE, 0, |d, a| {
        a.secs().map(|t| d.server.drain_timeout = t)
    }),
    ("--watchdog-grace", VALUE, FEDERATE, 0, |d, a| {
        a.secs().map(|t| d.service.watchdog_grace = t)
    }),
    ("--benchmark", VALUE, GENERATE, 0, |d, a| {
        if !["lubm", "qfed", "largerdf", "bio2rdf"].contains(&a.v) {
            return Err(usage(format!("unknown benchmark {:?}", a.v)));
        }
        a.value().map(|b| d.benchmark = Some(b))
    }),
    ("--out", VALUE, GENERATE | SNAPSHOT, 0, |d, a| {
        a.value().map(|path| d.out = Some(path))
    }),
    ("--scale", VALUE, GENERATE, 0, |d, a| {
        let scale: f64 = a.value()?;
        if !(scale.is_finite() && scale > 0.0) {
            return Err(usage(format!("{} must be finite and above 0", a.flag)));
        }
        d.scale = Some(scale);
        Ok(())
    }),
    ("--endpoints", VALUE, GENERATE, 0, |d, a| {
        a.at_least_one().map(|n| d.endpoints = Some(n))
    }),
    ("--seed", VALUE, GENERATE, 0, |d, a| {
        a.value().map(|n| d.seed = Some(n))
    }),
];

/// One flag as given on the command line (`v` is `""` for a switch).
#[derive(Clone, Copy)]
struct Arg<'a> {
    flag: &'a str,
    v: &'a str,
}

impl Arg<'_> {
    /// The value read as a `T`.
    fn value<T: std::str::FromStr>(self) -> Result<T, CliError> {
        (self.v.parse()).map_err(|_| usage(format!("bad {} {:?}", self.flag, self.v)))
    }

    fn secs(self) -> Result<Duration, CliError> {
        self.value().map(Duration::from_secs)
    }

    /// A count, refusing 0 rather than letting it mean "nothing at all".
    fn at_least_one(self) -> Result<usize, CliError> {
        match self.value()? {
            0 => Err(usage(format!("{} must be at least 1", self.flag))),
            n => Ok(n),
        }
    }

    fn capped(self, max: u64, unit: &str) -> Result<u64, CliError> {
        let n: u64 = self.value()?;
        if n > max {
            let flag = self.flag;
            return Err(usage(format!(
                "{flag} {n} is out of range (max {max}{unit})"
            )));
        }
        Ok(n)
    }

    fn bytes(self) -> Result<usize, CliError> {
        parse_bytes(self.v).map_err(|m| usage(format!("bad {}: {m}", self.flag)))
    }
}

/// What the flags of one command line set, each config starting from its own
/// `Default`; [`parse_args`] moves what the command runs with into its
/// [`Command`].
#[derive(Default)]
struct Draft {
    fed: FederationSpec,
    lusail: LusailConfig,
    server: ServerConfig,
    service: FederateConfig,
    query: Option<QuerySource>,
    engine: EngineKind,
    format: OutputFormat,
    explain: bool,
    stats: bool,
    addr: Option<String>,
    /// A ledger larger than the pool is refused only when both were given:
    /// against a default, the pool shrinks the ledger to fit.
    pool_given: bool,
    ledger_given: bool,
    benchmark: Option<String>,
    out: Option<PathBuf>,
    scale: Option<f64>,
    endpoints: Option<usize>,
    seed: Option<u64>,
}

impl Draft {
    fn set_query(&mut self, query: QuerySource) -> Result<(), CliError> {
        match self.query.replace(query) {
            Some(_) => Err(usage("query takes --query or --query-text, not both")),
            None => Ok(()),
        }
    }

    fn set_addr(&mut self, addr: String) -> Result<(), CliError> {
        match self.addr.replace(addr) {
            Some(_) => Err(usage("serve takes --addr or --port, not both")),
            None => Ok(()),
        }
    }
}

/// Parse argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let (sub, rest) = args
        .split_first()
        .ok_or_else(|| usage("missing subcommand"))?;
    let row = |flag: &str| FLAGS.iter().find(|r| r.0 == flag);
    // Pair each flag with its value: a switch takes none, any other flag
    // (an unknown one too) the next argument.
    let mut given: Vec<Arg> = Vec::new();
    let mut rest = rest.iter();
    while let Some(flag) = rest.next() {
        if !flag.starts_with("--") {
            return Err(usage(format!("unexpected argument {flag:?}")));
        }
        let v = match row(flag) {
            Some(r) if r.1 == SWITCH => "",
            _ => rest
                .next()
                .ok_or_else(|| usage(format!("{flag} needs a value")))?,
        };
        given.push(Arg { flag, v });
    }
    let cmd = match sub.as_str() {
        "query" => QUERY,
        "serve" if given.iter().any(|a| a.flag == "--federate") => FEDERATE,
        "serve" => SERVE,
        "generate" => GENERATE,
        "info" => INFO,
        "snapshot" => SNAPSHOT,
        other => return Err(usage(format!("unknown subcommand {other:?}"))),
    };
    // Reject typos outright: a misspelled `--port` must not silently fall
    // back to a default (serve would bind an ephemeral port the user never
    // asked for). Federation flags without --federate would silently do
    // nothing; refuse them too.
    let accepted = |a: &Arg| row(a.flag).map_or(0, |r| r.2);
    let known = if cmd == SERVE { SERVE | FEDERATE } else { cmd };
    if let Some(a) = given.iter().find(|a| accepted(a) & known == 0) {
        return Err(usage(format!("unknown flag {:?} for {sub}", a.flag)));
    }
    if let Some(a) = given.iter().find(|a| accepted(a) & cmd == 0) {
        return Err(usage(format!("{} requires serve --federate", a.flag)));
    }
    // A second value would silently replace (or be ignored behind) the
    // first.
    for (i, a) in given.iter().enumerate() {
        let (_, takes_value, _, repeats, _) = row(a.flag).expect("accepted above");
        if *takes_value && repeats & cmd == 0 && given[..i].iter().any(|b| b.flag == a.flag) {
            return Err(usage(format!("{} may be given only once", a.flag)));
        }
    }
    let mut d = Draft::default();
    for &a in &given {
        (row(a.flag).expect("accepted above").4)(&mut d, a)?;
    }

    let name = if cmd == FEDERATE {
        "serve --federate"
    } else {
        sub
    };
    let needs = |what: &str| usage(format!("{name} needs {what}"));
    if cmd & FED != 0 && d.fed.data.is_empty() && d.fed.endpoints.is_empty() {
        return Err(needs("at least one --data FILE or --endpoint URL"));
    }
    if cmd & (SERVE | INFO) != 0 && d.fed.data.is_empty() {
        return Err(needs("at least one --data FILE"));
    }
    let addr = d.addr.unwrap_or_else(|| "127.0.0.1:0".to_string());
    match cmd {
        QUERY => {
            let query = d
                .query
                .ok_or_else(|| needs("--query FILE or --query-text SPARQL"))?;
            if d.engine != EngineKind::Lusail {
                if d.lusail.result_policy == ResultPolicy::Partial {
                    return Err(usage(
                        "--partial is only supported by the lusail engine (the baselines \
                         have no partial-results mode)",
                    ));
                }
                if d.lusail.memory_budget.is_some() {
                    return Err(usage(
                        "--memory-budget is only supported by the lusail engine (the \
                         baselines have no memory accounting)",
                    ));
                }
            }
            Ok(Command::Query {
                federation: d.fed,
                query,
                engine: d.engine,
                config: d.lusail,
                format: d.format,
                explain: d.explain,
                stats: d.stats,
            })
        }
        SERVE => Ok(Command::Serve {
            data: d.fed.data,
            addr,
            config: d.server,
        }),
        FEDERATE => {
            let (pool, ledger) = (d.service.pool_bytes, d.service.query_budget_bytes);
            if d.pool_given && d.ledger_given && ledger > pool {
                let m = format!("--query-budget {ledger} exceeds --memory-pool {pool}");
                return Err(usage(m));
            }
            Ok(Command::Federate {
                federation: d.fed,
                addr,
                server: d.server,
                service: d.service,
            })
        }
        GENERATE => {
            let benchmark = d.benchmark.ok_or_else(|| needs("--benchmark"))?;
            let out = d.out.ok_or_else(|| needs("--out DIR"))?;
            // A flag the benchmark does not read would silently leave its
            // default in place.
            let takers = [
                ("--scale", d.scale.is_some(), &["qfed", "largerdf"][..]),
                ("--endpoints", d.endpoints.is_some(), &["lubm"][..]),
            ];
            for (flag, given, benchmarks) in takers {
                if given && !benchmarks.contains(&benchmark.as_str()) {
                    let only = benchmarks.join(" or ");
                    return Err(usage(format!("{flag} applies only to --benchmark {only}")));
                }
            }
            Ok(Command::Generate {
                benchmark,
                out,
                scale: d.scale.unwrap_or(1.0),
                endpoints: d.endpoints.unwrap_or(4),
                seed: d.seed.unwrap_or(42),
            })
        }
        INFO => Ok(Command::Info { data: d.fed.data }),
        _ => Ok(Command::Snapshot {
            data: d.fed.data.pop().ok_or_else(|| needs("--data FILE"))?,
            out: d.out.ok_or_else(|| needs("--out FILE.snap"))?,
        }),
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
pub enum EndpointSpec {
    Single(String),
    Group { name: String, urls: Vec<String> },
}

/// Classify an `--endpoint` value. A spec is a group when it has an `=`
/// whose left side looks like a plain name (no `/` or `:`, so URLs with
/// `?query=` parts are never mis-split); the right side is a comma list
/// of member URLs.
fn parse_endpoint_spec(spec: &str) -> Result<EndpointSpec, CliError> {
    let Some((name, rest)) = spec.split_once('=') else {
        return Ok(EndpointSpec::Single(spec.to_string()));
    };
    if name.contains('/') || name.contains(':') {
        // The `=` belongs to the URL itself.
        return Ok(EndpointSpec::Single(spec.to_string()));
    }
    if name.is_empty() {
        return Err(usage(format!(
            "--endpoint group {spec:?} has an empty name"
        )));
    }
    let urls: Vec<String> = rest.split(',').map(str::trim).map(str::to_string).collect();
    if urls.iter().any(String::is_empty) {
        let m = format!("--endpoint group {name:?} has an empty member URL in {rest:?}");
        return Err(usage(m));
    }
    Ok(EndpointSpec::Group {
        name: name.to_string(),
        urls,
    })
}

/// Assemble a federation from local data files (simulated endpoints) and
/// remote endpoint specs (HTTP endpoints, or replica groups of them), in
/// that order.
fn build_federation(spec: &FederationSpec) -> Result<Federation, CliError> {
    let mut endpoints: Vec<Arc<dyn SparqlEndpoint>> = Vec::new();
    for path in &spec.data {
        let store = load_store(path)?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("endpoint")
            .to_string();
        endpoints.push(Arc::new(SimulatedEndpoint::new(name, store, spec.profile)));
    }
    let http_member = |url: &str| -> Result<Arc<dyn SparqlEndpoint>, CliError> {
        let ep = HttpEndpoint::new(url, url)
            .map_err(|e| usage(format!("--endpoint {e}")))?
            .with_config(spec.http);
        Ok(Arc::new(ep))
    };
    for endpoint in &spec.endpoints {
        match endpoint {
            EndpointSpec::Single(url) => endpoints.push(http_member(url)?),
            EndpointSpec::Group { name, urls } => {
                let members =
                    (urls.iter().map(|url| http_member(url))).collect::<Result<Vec<_>, _>>()?;
                endpoints.push(Arc::new(ReplicaGroup::new(
                    name.clone(),
                    members,
                    ReplicaConfig {
                        hedge_after: spec.hedge_after,
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
    config: ServerConfig,
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
    let server = lusail_server::SparqlServer::bind(addr, store, config).map_err(CliError::Io)?;
    Ok((server.spawn(), triples))
}

/// Start `serve --federate`: the LADE/SAPE engine over the configured
/// federation, mounted behind the HTTP server with admission control,
/// per-client quotas, and the shared cache tier. Returns the running
/// handle and the number of federated endpoints.
pub fn start_federated_server(
    federation: &FederationSpec,
    addr: &str,
    server: ServerConfig,
    service: FederateConfig,
) -> Result<(lusail_server::ServerHandle, usize), CliError> {
    let federation = build_federation(federation)?;
    let endpoints = federation.len();
    // The long-lived analysis cache gets the same bounds as the result
    // cache, so stale endpoint facts age out of both tiers together.
    // The service runs each query under its own policy, deadline and row
    // cap (`FederateConfig`), so the engine keeps the defaults.
    let engine = LusailEngine::with_cache(
        federation,
        LusailConfig::default(),
        lusail_core::QueryCache::with_limits(service.cache_limits()),
    );
    let service = FederationService::new(engine, service);
    let server = ServerConfig {
        name: "lusail-federate".to_string(),
        ..server
    };
    let server = lusail_server::SparqlServer::with_backend(addr, Arc::new(service), server)
        .map_err(CliError::Io)?;
    Ok((server.spawn(), endpoints))
}

/// Run a parsed command, writing human output to `out`.
pub fn run_command(cmd: Command, out: &mut dyn Write) -> Result<(), CliError> {
    match cmd {
        Command::Serve { data, addr, config } => {
            let (handle, triples) = start_server(&data, &addr, config)?;
            writeln!(out, "serving {triples} triples at {}", handle.url())?;
            serve_forever(out)
        }
        Command::Federate {
            federation,
            addr,
            server,
            service,
        } => {
            let (handle, endpoints) = start_federated_server(&federation, &addr, server, service)?;
            writeln!(out, "federating {endpoints} endpoints at {}", handle.url())?;
            serve_forever(out)
        }
        Command::Query {
            federation,
            query,
            engine,
            config,
            format,
            explain,
            stats,
        } => {
            let federation = build_federation(&federation)?;
            let text = match query {
                QuerySource::File(path) => std::fs::read_to_string(path)?,
                QuerySource::Text(text) => text,
            };
            let query =
                lusail_sparql::parse_query(&text).map_err(|e| CliError::Parse(e.to_string()))?;
            let timeout = config.timeout;

            if engine == EngineKind::Lusail {
                let lusail = LusailEngine::new(federation.clone(), config);
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

            let fedx = FedXConfig {
                timeout,
                ..Default::default()
            };
            let engine: Box<dyn FederatedEngine> = match engine {
                EngineKind::Lusail => unreachable!("handled above"),
                EngineKind::FedX => Box::new(FedX::new(federation.clone(), fedx)),
                EngineKind::Splendid => {
                    let mut s = Splendid::new(federation.clone());
                    s.timeout = timeout;
                    Box::new(s)
                }
                EngineKind::HiBiscus => Box::new(HiBiscus::new(federation.clone(), fedx)),
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

/// Flush the start-up line and serve until the process is killed.
fn serve_forever(out: &mut dyn Write) -> Result<(), CliError> {
    out.flush()?;
    loop {
        std::thread::park();
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

    fn workers(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            ..Default::default()
        }
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
                federation,
                engine,
                config,
                format,
                explain,
                ..
            } => {
                assert_eq!(federation.data.len(), 2);
                assert_eq!(engine, EngineKind::FedX);
                assert_eq!(federation.profile, NetworkProfile::geo_distributed());
                assert_eq!(config.timeout, Some(Duration::from_secs(5)));
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
            Command::Query { config, stats, .. } => {
                assert_eq!(config.result_policy, ResultPolicy::Partial);
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
            Command::Query { config, .. } => {
                assert_eq!(config.memory_budget, Some(8 << 20));
                assert_eq!(config.max_result_rows, Some(100));
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
                config: ServerConfig::default(),
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
            Command::Query { federation, .. } => {
                assert!(federation.data.is_empty());
                assert_eq!(
                    federation.endpoints,
                    vec![EndpointSpec::Single(
                        "http://127.0.0.1:8890/sparql".to_string()
                    )]
                );
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
            start_server(&[a.clone(), b.clone()], "127.0.0.1:0", workers(2)).unwrap();
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
            Command::Federate {
                federation,
                server,
                service,
                ..
            } => {
                assert_eq!(federation.data, vec![PathBuf::from("a.nt")]);
                assert_eq!(
                    federation.endpoints,
                    vec![EndpointSpec::Single(
                        "http://127.0.0.1:1/sparql".to_string()
                    )]
                );
                assert_eq!(service.pool_bytes, 64 << 20);
                assert_eq!(service.query_budget_bytes, 8 << 20);
                assert_eq!(service.max_waiting, 4);
                assert_eq!(service.client_max_inflight, 2);
                assert_eq!(service.query_timeout, Some(Duration::from_secs(10)));
                assert_eq!(service.cache_ttl, Some(Duration::from_secs(60)));
                assert_eq!(service.result_cache_capacity, Some(32));
                assert_eq!(server.drain_timeout, Duration::from_secs(7));
                assert_eq!(service.watchdog_grace, Duration::from_secs(1));
                assert!(service.partial);
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
            &FederationSpec {
                data: vec![a.clone(), b.clone()],
                ..Default::default()
            },
            "127.0.0.1:0",
            workers(2),
            FederateConfig::default(),
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
            Command::Query { federation, .. } => {
                assert_eq!(federation.http.retries, 5);
                assert_eq!(federation.http.backoff, Duration::from_millis(250));
                assert_eq!(federation.hedge_after, Some(Duration::from_millis(40)));
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
            Command::Federate {
                federation, server, ..
            } => {
                assert_eq!(server.max_result_rows, Some(7));
                let http = federation.http;
                assert_eq!(
                    (http.retries, http.backoff),
                    (100, Duration::from_millis(60_000))
                );
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

        let (handle, _) = start_server(&[a.clone()], "127.0.0.1:0", workers(2)).unwrap();
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

    /// A command line's arguments, split at whitespace.
    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    /// The usage error `line` is refused with.
    fn refusal(line: &str) -> String {
        match parse_args(&words(line)) {
            Err(CliError::Usage(m)) => m,
            other => panic!("{line} should be refused, got {other:?}"),
        }
    }

    #[test]
    fn golden_rejections_keep_their_messages() {
        // One row per command line: its arguments, ` => `, the message the
        // hand-written parser the flag table replaced refused it with. A
        // rejection that parser did not make has a test of its own below,
        // or a row after the `generate` flags a benchmark does not read.
        let golden = [
            r#" => missing subcommand"#,
            r#"frobnicate => unknown subcommand "frobnicate""#,
            r#"query stray => unexpected argument "stray""#,
            r#"query --data => --data needs a value"#,
            r#"query --data a.nt --prot 1 --query-text ASK{} => unknown flag "--prot" for query"#,
            r#"info --explain --data a.nt => unknown flag "--explain" for info"#,
            r#"query --federate --data a.nt --query-text ASK{} => unknown flag "--federate" for query"#,
            r#"generate --data a.nt --benchmark lubm --out x => unknown flag "--data" for generate"#,
            r#"snapshot --endpoint http://h:1/s --data a.nt --out x => unknown flag "--endpoint" for snapshot"#,
            r#"query --query-text ASK{} => query needs at least one --data FILE or --endpoint URL"#,
            r#"query --data a.nt => query needs --query FILE or --query-text SPARQL"#,
            r#"query --data a.nt --query q --engine zzz => unknown engine "zzz""#,
            r#"query --data a.nt --query q --timeout soon => bad --timeout "soon""#,
            r#"query --data a.nt --query q --timeout -1 => bad --timeout "-1""#,
            r#"query --data a.nt --query q --memory-budget 12parsecs => bad --memory-budget: unknown byte suffix "parsecs" in "12parsecs""#,
            r#"query --data a.nt --query q --memory-budget MiB => bad --memory-budget: "MiB" has no leading number"#,
            r#"query --data a.nt --query q --memory-budget 99999999999999999999gb => bad --memory-budget: bad byte count "99999999999999999999gb""#,
            r#"query --endpoint mirror=http://a:1/s, --query q => --endpoint group "mirror" has an empty member URL in "http://a:1/s,""#,
            r#"query --endpoint =http://a:1/s --query q => --endpoint group "=http://a:1/s" has an empty name"#,
            r#"query --data a.nt --query q --format xml => unknown format "xml""#,
            r#"query --data a.nt --query q --engine fedx --partial => --partial is only supported by the lusail engine (the baselines have no partial-results mode)"#,
            r#"query --data a.nt --query q --engine splendid --memory-budget 1mb => --memory-budget is only supported by the lusail engine (the baselines have no memory accounting)"#,
            r#"query --data a.nt --query q --profile moon => unknown profile "moon""#,
            r#"query --data a.nt --query q --retries many => bad --retries "many""#,
            r#"query --data a.nt --query q --retries 101 => --retries 101 is out of range (max 100)"#,
            r#"query --data a.nt --query q --retries -1 => bad --retries "-1""#,
            r#"query --data a.nt --query q --retries 4000000000 => --retries 4000000000 is out of range (max 100)"#,
            r#"query --data a.nt --query q --backoff 1ms => bad --backoff "1ms""#,
            r#"query --data a.nt --query q --backoff 99999999 => --backoff 99999999 is out of range (max 60000 ms)"#,
            r#"query --data a.nt --query q --hedge-after soon => bad --hedge-after "soon""#,
            r#"query --data a.nt --query q --hedge-after 60001 => --hedge-after 60001 is out of range (max 60000 ms)"#,
            r#"query --data a.nt --query q --max-result-rows 0 => --max-result-rows must be at least 1"#,
            r#"query --data a.nt --query q --max-result-rows lots => bad --max-result-rows "lots""#,
            r#"serve => serve needs at least one --data FILE"#,
            r#"serve --addr 127.0.0.1:0 => serve needs at least one --data FILE"#,
            r#"serve --data a.nt --queue 4 => --queue requires serve --federate"#,
            r#"serve --data a.nt --partial => --partial requires serve --federate"#,
            r#"serve --data a.nt --endpoint http://h:1/s => --endpoint requires serve --federate"#,
            r#"serve --data a.nt --profile geo => --profile requires serve --federate"#,
            r#"serve --data a.nt --addr 0.0.0.0:1 --port 2 => serve takes --addr or --port, not both"#,
            r#"serve --data a.nt --port 99999 => bad --port "99999""#,
            r#"serve --data a.nt --port http => bad --port "http""#,
            r#"serve --data a.nt --workers many => bad --workers "many""#,
            r#"serve --data a.nt --max-result-rows 0 => --max-result-rows must be at least 1"#,
            r#"serve --federate => serve --federate needs at least one --data FILE or --endpoint URL"#,
            r#"serve --federate --workers 2 => serve --federate needs at least one --data FILE or --endpoint URL"#,
            r#"serve --federate --data a.nt --client-max-inflight 0 => --client-max-inflight must be at least 1"#,
            r#"serve --federate --data a.nt --client-max-inflight x => bad --client-max-inflight "x""#,
            r#"serve --federate --data a.nt --memory-pool 1MiB --query-budget 2MiB => --query-budget 2097152 exceeds --memory-pool 1048576"#,
            r#"serve --federate --data a.nt --memory-pool 1parsec => bad --memory-pool: unknown byte suffix "parsec" in "1parsec""#,
            r#"serve --federate --data a.nt --query-budget 3xb => bad --query-budget: unknown byte suffix "xb" in "3xb""#,
            r#"serve --federate --data a.nt --query-timeout x => bad --query-timeout "x""#,
            r#"serve --federate --data a.nt --queue x => bad --queue "x""#,
            r#"serve --federate --data a.nt --cache-ttl x => bad --cache-ttl "x""#,
            r#"serve --federate --data a.nt --cache-capacity x => bad --cache-capacity "x""#,
            r#"serve --federate --data a.nt --drain-timeout x => bad --drain-timeout "x""#,
            r#"serve --federate --data a.nt --watchdog-grace x => bad --watchdog-grace "x""#,
            r#"serve --federate --data a.nt --retries 101 => --retries 101 is out of range (max 100)"#,
            r#"serve --federate --endpoint mirror=http://a:1/s, => --endpoint group "mirror" has an empty member URL in "http://a:1/s,""#,
            r#"serve --federate --data a.nt --explain => unknown flag "--explain" for serve"#,
            r#"serve --federate --data a.nt --addr 0.0.0.0:1 --port 2 => serve takes --addr or --port, not both"#,
            r#"generate => generate needs --benchmark"#,
            r#"generate --out x => generate needs --benchmark"#,
            r#"generate --benchmark nope --out x => unknown benchmark "nope""#,
            r#"generate --benchmark lubm => generate needs --out DIR"#,
            r#"generate --benchmark lubm --out x --scale big => bad --scale "big""#,
            r#"generate --benchmark lubm --out x --endpoints many => bad --endpoints "many""#,
            r#"generate --benchmark lubm --out x --endpoints -2 => bad --endpoints "-2""#,
            r#"generate --benchmark lubm --out x --seed x => bad --seed "x""#,
            r#"generate --benchmark qfed --out x --endpoints 9 => --endpoints applies only to --benchmark lubm"#,
            r#"generate --benchmark largerdf --out x --endpoints 2 => --endpoints applies only to --benchmark lubm"#,
            r#"generate --benchmark bio2rdf --out x --endpoints 2 => --endpoints applies only to --benchmark lubm"#,
            r#"generate --benchmark lubm --out x --scale 2 => --scale applies only to --benchmark qfed or largerdf"#,
            r#"generate --benchmark bio2rdf --out x --scale 2 => --scale applies only to --benchmark qfed or largerdf"#,
            r#"info => info needs at least one --data FILE"#,
            r#"info --out x --data a.nt => unknown flag "--out" for info"#,
            r#"snapshot --out x => snapshot needs --data FILE"#,
            r#"snapshot --data a.nt => snapshot needs --out FILE.snap"#,
        ];
        for row in golden {
            let (line, want) = row.split_once(" => ").unwrap();
            assert_eq!(refusal(line), want, "{line}");
        }
    }

    #[test]
    fn every_flag_in_the_table_is_in_usage_and_back() {
        let in_usage: std::collections::BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|t| t.starts_with("--"))
            .collect();
        let in_table: std::collections::BTreeSet<&str> = FLAGS.iter().map(|r| r.0).collect();
        assert_eq!(in_table.len(), FLAGS.len(), "a flag has two rows");
        assert_eq!(in_usage, in_table);
    }

    #[test]
    fn a_repeated_single_valued_flag_is_refused() {
        // A second value used to lose silently to the first: `--timeout 0
        // --timeout 9` timed the query out, and snapshot wrote only a.nt.
        for (line, flag) in [
            (
                "query --data a.nt --query-text ASK{} --timeout 0 --timeout 9",
                "--timeout",
            ),
            ("snapshot --data a.nt --data b.nt --out x", "--data"),
            ("serve --data a.nt --port 1 --port 2", "--port"),
            (
                "serve --federate --data a.nt --queue 1 --queue 2",
                "--queue",
            ),
            (
                "generate --benchmark lubm --out x --seed 1 --seed 2",
                "--seed",
            ),
        ] {
            assert_eq!(refusal(line), format!("{flag} may be given only once"));
        }
        // --data and --endpoint still repeat wherever a command takes
        // several, and a repeated switch changes nothing.
        for line in [
            "query --data a.nt --data b.nt --endpoint http://h:1/s --query-text ASK{}",
            "query --endpoint http://h:1/s --endpoint http://h:2/s --query-text ASK{} --stats --stats",
            "serve --federate --endpoint http://h:1/s --endpoint http://h:2/s",
            "serve --data a.nt --data b.nt",
            "info --data a.nt --data b.nt",
        ] {
            assert!(parse_args(&words(line)).is_ok(), "{line}");
        }
    }

    #[test]
    fn query_file_and_query_text_exclude_each_other() {
        // The file used to win silently, so a missing file failed with an
        // I/O error although the text was right there.
        for line in [
            "query --data a.nt --query missing.rq --query-text ASK{}",
            "query --data a.nt --query-text ASK{} --query missing.rq",
        ] {
            assert_eq!(
                refusal(line),
                "query takes --query or --query-text, not both"
            );
        }
    }

    #[test]
    fn generate_refuses_a_scale_that_is_not_finite_and_positive() {
        // Each of these used to write 0-triple files and exit 0.
        for scale in ["nan", "NaN", "inf", "-1", "0", "-0"] {
            let line = format!("generate --benchmark qfed --out x --scale {scale}");
            assert_eq!(refusal(&line), "--scale must be finite and above 0");
        }
        match parse_args(&words("generate --benchmark qfed --out x --scale 0.5")).unwrap() {
            Command::Generate { scale, .. } => assert_eq!(scale, 0.5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn generate_refuses_zero_endpoints() {
        // LUBM with zero universities used to exit 0 having written nothing.
        let line = "generate --benchmark lubm --out x --endpoints 0";
        assert_eq!(refusal(line), "--endpoints must be at least 1");
    }

    #[test]
    fn a_negative_limit_or_offset_is_a_parse_error() {
        // Cast to usize, LIMIT -1 used to return every row and OFFSET -1
        // none; the grammar allows only an unsigned integer there.
        let dir = std::env::temp_dir().join(format!("lusail-cli-limit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let nt = dir.join("d.nt");
        std::fs::write(
            &nt,
            "<http://x/s> <http://x/p> \"a\" .\n<http://x/t> <http://x/p> \"b\" .\n",
        )
        .unwrap();
        for modifier in ["LIMIT -1", "OFFSET -1"] {
            let text = format!("SELECT * WHERE {{ ?s ?p ?o }} {modifier}");
            let args = s(&[
                "query",
                "--data",
                nt.to_str().unwrap(),
                "--query-text",
                &text,
            ]);
            match run(&args, &mut Vec::new()) {
                Err(CliError::Parse(m)) => assert!(m.contains("non-negative"), "{m}"),
                other => panic!("{modifier} should not parse, got {other:?}"),
            }
        }

        // serve answers it with 400, like any malformed query.
        let (handle, _) =
            start_server(std::slice::from_ref(&nt), "127.0.0.1:0", workers(1)).unwrap();
        let body = "SELECT * WHERE { ?s ?p ?o } LIMIT -1";
        let mut sock = std::net::TcpStream::connect(handle.local_addr()).unwrap();
        write!(
            sock,
            "POST /sparql HTTP/1.1\r\nHost: h\r\nContent-Type: application/sparql-query\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reply = String::new();
        std::io::Read::read_to_string(&mut sock, &mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
