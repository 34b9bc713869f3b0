//! # lusail-server
//!
//! A std-only SPARQL endpoint server: `std::net::TcpListener`, a bounded
//! worker-thread pool, and hand-rolled HTTP/1.1 — no external crates.
//!
//! The server implements the query half of the W3C SPARQL 1.1 Protocol:
//!
//! * `GET /sparql?query=…` (percent-encoded),
//! * `POST /sparql` with `Content-Type: application/sparql-query`,
//! * `POST /sparql` with `Content-Type: application/x-www-form-urlencoded`
//!   and a `query=` field,
//!
//! answering with SPARQL 1.1 JSON Results
//! (`application/sparql-results+json`, shared codec in
//! [`lusail_federation::results_json`]). `SELECT` solutions stream out
//! with chunked transfer encoding, rows coalesced into chunks of at least
//! 16 KiB — a large result never has to be fully buffered as a document.
//! `ASK` answers and errors use `Content-Length`.
//!
//! Operationally it mirrors what the paper's deployments (Fuseki /
//! Virtuoso) impose on federated engines: a fixed pool of workers with a
//! bounded accept backlog (excess connections wait in the TCP queue), a
//! per-request read deadline against slow clients, a maximum accepted
//! query size (HTTP 413, like Virtuoso's URI-length rejections the paper
//! hits with FedX's bound joins), and HTTP keep-alive so a federated
//! client can reuse one connection for its whole subquery stream.
//! Requests are read by [`HttpReader`], the HTTP/1.x reader `HttpEndpoint`
//! reads its responses with, so both ends of the wire share one line cap,
//! one deadline rule and one keep-alive rule.
//!
//! The serving layer is decoupled from query evaluation through
//! [`QueryBackend`]: [`SparqlServer::bind`] serves a single [`Store`]
//! (one simulated endpoint), while [`SparqlServer::with_backend`] accepts
//! any backend — the federation service in `lusail-cli` plugs the whole
//! LADE/SAPE pipeline in here. Two operational routes ride along:
//! `GET /stats` (request counters split into served/shed/errors plus
//! whatever the backend reports) and `POST /cache/invalidate` (drops the
//! backend's shared caches, 404 when it has none). Clients are identified
//! by an `X-Client-Id` header, falling back to the peer IP address.
//!
//! ```no_run
//! use lusail_server::{ServerConfig, SparqlServer};
//! use lusail_store::Store;
//!
//! let store = Store::from_graph(&lusail_rdf::Graph::new());
//! let handle = SparqlServer::bind("127.0.0.1:0", store, ServerConfig::default())
//!     .unwrap()
//!     .spawn();
//! println!("serving on {}", handle.url());
//! handle.shutdown();
//! ```

pub mod federate;

use lusail_federation::http::{percent_decode, HttpReader};
use lusail_federation::json::Json;
use lusail_federation::results_bin;
use lusail_federation::results_json;
use lusail_federation::{CancelReason, CancelToken};
use lusail_sparql::Relation;
use lusail_store::eval::QueryResult;
use lusail_store::{Evaluator, Store};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads handling connections (the server-side analogue of
    /// the paper's elastic request handlers).
    pub workers: usize,
    /// Accepted connections queued beyond the busy workers; further
    /// clients are turned away with HTTP 503 + `Retry-After` instead of
    /// piling up unboundedly.
    pub backlog: usize,
    /// Maximum accepted SPARQL query size in bytes (HTTP 413 beyond it).
    pub max_query_bytes: usize,
    /// Deadline for reading one full request off a connection. Also
    /// bounds how long an idle keep-alive connection is held open.
    pub read_deadline: Duration,
    /// Endpoint name echoed in JSON error bodies, so a federated client
    /// aggregating failures across many endpoints can tell them apart.
    pub name: String,
    /// The `Retry-After` hint sent with 503 responses when the worker
    /// pool and backlog are saturated.
    pub retry_after: Duration,
    /// Process-wide ceiling on rows streamed per response. A larger
    /// result is truncated at the cap with a warning in the response
    /// head, so one greedy query cannot monopolize the wire. `None`
    /// streams everything.
    pub max_result_rows: Option<usize>,
    /// How long [`ServerHandle::shutdown`] lets in-flight queries finish
    /// before force-cancelling the stragglers via the backend's
    /// [`QueryBackend::drain`].
    pub drain_timeout: Duration,
    /// Whether to honor the compact binary results codec when a client's
    /// `Accept` header asks for it. `false` makes the server answer every
    /// query in SPARQL JSON — emulating a foreign endpoint that never
    /// heard of the codec, which is how the federation's fallback path is
    /// exercised end to end.
    pub offer_binary: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            backlog: 8,
            max_query_bytes: 1 << 20,
            read_deadline: Duration::from_secs(30),
            name: "lusail".to_string(),
            retry_after: Duration::from_secs(1),
            max_result_rows: None,
            drain_timeout: Duration::from_secs(5),
            offer_binary: true,
        }
    }
}

/// Who is asking: the value of the `X-Client-Id` request header, or the
/// peer IP address when the header is absent. Backends use it for
/// per-client quotas and accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientInfo {
    pub id: String,
}

/// What a [`QueryBackend`] produced for one query.
pub enum Answer {
    /// An `ASK` verdict.
    Boolean(bool),
    /// `SELECT` solutions plus any degradation warnings (partial results,
    /// truncation); warnings stream in the response head before any row.
    Solutions {
        rel: Relation,
        warnings: Vec<String>,
    },
    /// A refusal or failure mapped to an HTTP status. `retry_after`
    /// becomes a `Retry-After` header (admission-control sheds set it).
    Error {
        status: u16,
        message: String,
        retry_after: Option<Duration>,
    },
}

impl Answer {
    /// An error answer with no `Retry-After` hint.
    pub fn error(status: u16, message: impl Into<String>) -> Answer {
        Answer::Error {
            status,
            message: message.into(),
            retry_after: None,
        }
    }
}

/// Query evaluation behind the HTTP layer. Implementations must tolerate
/// concurrent calls from every worker thread.
pub trait QueryBackend: Send + Sync + 'static {
    /// Evaluate `query` for `client` and say how to answer, under a
    /// [`CancelToken`] the server trips when the client disconnects
    /// mid-execution (and that admin cancels, the watchdog, and shutdown
    /// drain share). Backends without cooperative cancellation ignore it
    /// and say so through [`cancellable`](QueryBackend::cancellable).
    fn answer(&self, query: &str, client: &ClientInfo, cancel: &CancelToken) -> Answer;

    /// Whether [`answer`](QueryBackend::answer) acts on its token. Only
    /// then does the server watch the client's socket while the query
    /// runs; a backend that ignores the token returns `false` and its
    /// answers skip the watch, whose teardown can cost up to a 100 ms
    /// socket peek. A hang-up is then noticed when the response write
    /// fails.
    fn cancellable(&self) -> bool {
        true
    }

    /// Backend-specific counters embedded in `GET /stats` under
    /// `"service"`. `None` renders as JSON `null`.
    fn stats(&self) -> Option<Json> {
        None
    }

    /// The in-flight query registry behind `GET /queries`, as a JSON
    /// document. `None` means the backend keeps no registry (the route
    /// then answers 404).
    fn queries(&self) -> Option<Json> {
        None
    }

    /// Cancel one registered query (`POST /queries/<id>/cancel`).
    /// `None` = no registry, or no in-flight query with that id (404);
    /// `Some(true)` = this call tripped its token; `Some(false)` = found
    /// but already cancelled.
    fn cancel_query(&self, id: u64, reason: CancelReason) -> Option<bool> {
        let _ = (id, reason);
        None
    }

    /// Force-cancel every in-flight query (the shutdown drain's last
    /// resort). Returns how many tokens this call tripped.
    fn drain(&self, reason: CancelReason) -> usize {
        let _ = reason;
        0
    }

    /// Drop any shared caches. Returns `false` when the backend has none
    /// (the route then answers 404).
    fn invalidate_caches(&self) -> bool {
        false
    }
}

/// The plain single-store backend behind [`SparqlServer::bind`]: parse,
/// evaluate, and guard against evaluator panics.
pub struct StoreBackend {
    store: Arc<Store>,
}

impl StoreBackend {
    pub fn new(store: Store) -> StoreBackend {
        StoreBackend {
            store: Arc::new(store),
        }
    }
}

impl QueryBackend for StoreBackend {
    fn answer(&self, query: &str, _client: &ClientInfo, _cancel: &CancelToken) -> Answer {
        let parsed = match lusail_sparql::parse_query(query) {
            Ok(q) => q,
            Err(e) => return Answer::error(400, format!("malformed SPARQL query: {e}")),
        };
        // An evaluator bug must come back as HTTP 500, not a dead
        // connection.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Evaluator::new(&self.store).query(&parsed)
        }));
        match result {
            Ok(QueryResult::Boolean(b)) => Answer::Boolean(b),
            Ok(QueryResult::Solutions(rel)) => Answer::Solutions {
                rel,
                warnings: Vec::new(),
            },
            Err(_) => Answer::error(500, "query evaluation failed"),
        }
    }

    /// Evaluation runs to completion whatever the token says.
    fn cancellable(&self) -> bool {
        false
    }
}

/// Request counters split by outcome, so saturation (sheds) is visible
/// separately from client mistakes (errors).
#[derive(Debug, Default)]
pub struct ServerStats {
    served: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
}

impl ServerStats {
    fn counter(&self, status: u16) -> &AtomicU64 {
        if status < 400 {
            &self.served
        } else if status == 503 || status == 429 {
            &self.shed
        } else {
            &self.errors
        }
    }

    fn record(&self, status: u16) {
        self.counter(status).fetch_add(1, Ordering::Relaxed);
    }

    fn counts(&self) -> RequestCounts {
        RequestCounts {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestCounts {
    /// Successful responses (2xx).
    pub served: u64,
    /// Load-shedding refusals: 503 (pool saturated) and 429 (quota).
    pub shed: u64,
    /// Every other failure (4xx/5xx).
    pub errors: u64,
}

impl RequestCounts {
    /// The `requests` section of `GET /stats`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("served", self.served.into()),
            ("shed", self.shed.into()),
            ("errors", self.errors.into()),
        ])
    }

    /// All responses written, regardless of outcome.
    pub fn total(&self) -> u64 {
        self.served + self.shed + self.errors
    }
}

/// A bound-but-not-yet-running server. [`SparqlServer::spawn`] starts the
/// accept loop and worker pool.
pub struct SparqlServer {
    listener: TcpListener,
    backend: Arc<dyn QueryBackend>,
    config: ServerConfig,
}

impl SparqlServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) serving
    /// `store`.
    pub fn bind(addr: &str, store: Store, config: ServerConfig) -> io::Result<SparqlServer> {
        Self::with_backend(addr, Arc::new(StoreBackend::new(store)), config)
    }

    /// Bind `addr` serving an arbitrary [`QueryBackend`] — this is how
    /// the federation service mounts the full engine behind the server.
    pub fn with_backend(
        addr: &str,
        backend: Arc<dyn QueryBackend>,
        config: ServerConfig,
    ) -> io::Result<SparqlServer> {
        Ok(SparqlServer {
            listener: TcpListener::bind(addr)?,
            backend,
            config,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Start the accept thread and worker pool.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());

        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(self.config.backlog.max(1));
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut workers = Vec::with_capacity(self.config.workers.max(1));
        for _ in 0..self.config.workers.max(1) {
            let rx = Arc::clone(&conn_rx);
            let backend = Arc::clone(&self.backend);
            let config = self.config.clone();
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            workers.push(std::thread::spawn(move || loop {
                let stream = match rx.lock().expect("connection queue poisoned").recv() {
                    Ok(s) => s,
                    Err(_) => break, // accept loop gone: drain complete
                };
                serve_connection(stream, &backend, &config, &shutdown, &stats);
            }));
        }

        let listener = self.listener;
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_config = self.config.clone();
        let accept_stats = Arc::clone(&stats);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(s) => match conn_tx.try_send(s) {
                        Ok(()) => {}
                        // Pool and backlog saturated: shed load with an
                        // explicit 503 + Retry-After instead of letting
                        // clients queue without bound. The write happens
                        // on the accept thread, so it must never block
                        // long; the body is a few hundred bytes at most.
                        Err(mpsc::TrySendError::Full(s)) => {
                            s.set_write_timeout(Some(Duration::from_millis(250))).ok();
                            let response = Response::overloaded(&accept_config);
                            let _ = write_response(&s, &accept_stats, false, response);
                            let _ = s.shutdown(std::net::Shutdown::Both);
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => break,
                    },
                    Err(_) => continue,
                }
            }
            // Dropping conn_tx lets the workers drain and exit.
        });

        ServerHandle {
            addr,
            shutdown,
            stats,
            accept_thread,
            workers,
            backend: self.backend,
            drain_timeout: self.config.drain_timeout,
        }
    }
}

/// A running server; dropping it *without* calling
/// [`ServerHandle::shutdown`] detaches the threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    accept_thread: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    backend: Arc<dyn QueryBackend>,
    drain_timeout: Duration,
}

impl ServerHandle {
    /// The server's address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The endpoint URL clients should use.
    pub fn url(&self) -> String {
        format!("http://{}/sparql", self.addr)
    }

    /// Requests answered so far (any status, sheds included).
    pub fn requests_served(&self) -> u64 {
        self.stats().total()
    }

    /// Request counters split into served / shed / errors.
    pub fn stats(&self) -> RequestCounts {
        self.stats.counts()
    }

    /// Graceful shutdown as a *bounded* drain: stop accepting, give
    /// in-flight queries up to the configured `drain_timeout` to finish,
    /// then force-cancel the stragglers through the backend
    /// ([`QueryBackend::drain`] with [`CancelReason::ServerDraining`])
    /// and join every thread.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = self.accept_thread.join();
        let deadline = Instant::now() + self.drain_timeout;
        while Instant::now() < deadline && self.workers.iter().any(|w| !w.is_finished()) {
            std::thread::sleep(Duration::from_millis(10));
        }
        if self.workers.iter().any(|w| !w.is_finished()) {
            // The drain budget is spent: trip every registered query's
            // token so the stragglers abort at their next cancellation
            // point instead of holding shutdown hostage.
            self.backend.drain(CancelReason::ServerDraining);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// An HTTP-level rejection: status and reason. One raised while reading
/// a request leaves the framing unknown, so `serve_connection` closes
/// after answering it; one raised by `extract_query` does not.
struct HttpReject {
    status: u16,
    message: String,
}

impl HttpReject {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpReject {
            status,
            message: message.into(),
        }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        415 => "Unsupported Media Type",
        429 => "Too Many Requests",
        499 => "Query Cancelled",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

/// One HTTP response, whole. Every route builds one of these and
/// [`write_response`] is the only code that puts a status line on the wire.
struct Response {
    status: u16,
    content_type: &'static str,
    /// Extra header lines (`Allow`, `Retry-After`, `X-Lusail-Truncated`),
    /// each CRLF-terminated; they follow `Content-Type`.
    headers: String,
    body: Body,
}

enum Body {
    /// Sent with `Content-Length`.
    Sized(Vec<u8>),
    /// Sent chunked, items coalesced into chunks of at least
    /// [`MIN_CHUNK_BYTES`]: a large result is never buffered as a document.
    Chunks(Box<dyn Iterator<Item = Vec<u8>>>),
}

/// The smallest HTTP chunk a [`Body::Chunks`] body is sent in (the last
/// one excepted): a chunk per row would cost the client two line reads
/// per row.
const MIN_CHUNK_BYTES: usize = 16 * 1024;

impl Response {
    fn new(status: u16, content_type: &'static str, body: Body) -> Response {
        Response {
            status,
            content_type,
            headers: String::new(),
            body,
        }
    }

    /// A small JSON document.
    fn json(status: u16, doc: &Json) -> Response {
        let body = Body::Sized(doc.to_string().into_bytes());
        Response::new(status, "application/json", body)
    }

    /// The JSON error body: `{"error": …, "endpoint": …}`. Naming the
    /// endpoint lets a federated client attribute the failure without
    /// relying on which URL it happened to dial.
    fn error(status: u16, message: &str, endpoint: &str) -> Response {
        let doc = Json::object([("error", message.into()), ("endpoint", endpoint.into())]);
        Response::json(status, &doc)
    }

    fn header(mut self, name: &str, value: impl std::fmt::Display) -> Response {
        self.headers.push_str(&format!("{name}: {value}\r\n"));
        self
    }

    fn retry_after(self, hint: Option<Duration>) -> Response {
        match hint {
            Some(hint) => self.header("Retry-After", hint.as_secs().max(1)),
            None => self,
        }
    }

    /// Turn away a connection the pool cannot absorb: 503 with a
    /// `Retry-After` hint. Written from the accept thread, under a short
    /// write timeout so a slow client cannot stall accepting.
    fn overloaded(config: &ServerConfig) -> Response {
        let message = format!(
            "server overloaded: {} workers busy and {} connections queued",
            config.workers.max(1),
            config.backlog.max(1)
        );
        Response::error(503, &message, &config.name).retry_after(Some(config.retry_after))
    }
}

/// Write `response` and record it in `stats`: the one status line, the
/// headers in one order, then the body sized or chunked. A write that
/// fails never reached the client, so it counts as a 499 instead. The
/// status is counted before the first byte and moved if the write fails,
/// so the counters never lag a response the client already holds.
fn write_response(
    stream: &TcpStream,
    stats: &ServerStats,
    keep_alive: bool,
    response: Response,
) -> io::Result<()> {
    let status = response.status;
    stats.record(status);
    let written = write_message(stream, keep_alive, response);
    if written.is_err() {
        stats.record(499);
        stats.counter(status).fetch_sub(1, Ordering::Relaxed);
    }
    written
}

fn write_message(stream: &TcpStream, keep_alive: bool, response: Response) -> io::Result<()> {
    let framing = match &response.body {
        Body::Sized(bytes) => format!("Content-Length: {}", bytes.len()),
        Body::Chunks(_) => "Transfer-Encoding: chunked".to_string(),
    };
    let mut out = io::BufWriter::new(stream);
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n{}{framing}\r\nConnection: {}\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.headers,
        if keep_alive { "keep-alive" } else { "close" }
    )?;
    match response.body {
        Body::Sized(bytes) => out.write_all(&bytes)?,
        Body::Chunks(items) => {
            // Items wait here until one brings the total to the minimum;
            // that one is sent behind them, not copied in, so the buffer
            // never outgrows its first allocation.
            let mut pending = Vec::with_capacity(MIN_CHUNK_BYTES);
            for item in items {
                if pending.len() + item.len() < MIN_CHUNK_BYTES {
                    pending.extend_from_slice(&item);
                } else {
                    write_chunk(&mut out, &[&pending, &item])?;
                    pending.clear();
                }
            }
            // An empty chunk would terminate the body early: skip it.
            if !pending.is_empty() {
                write_chunk(&mut out, &[&pending])?;
            }
            out.write_all(b"0\r\n\r\n")?;
        }
    }
    out.flush()
}

/// One HTTP chunk holding `parts` in order.
fn write_chunk(out: &mut impl Write, parts: &[&[u8]]) -> io::Result<()> {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    write!(out, "{len:x}\r\n")?;
    for part in parts {
        out.write_all(part)?;
    }
    out.write_all(b"\r\n")
}

/// Serve one connection: a keep-alive loop of request → response.
fn serve_connection(
    stream: TcpStream,
    backend: &Arc<dyn QueryBackend>,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    stats: &ServerStats,
) {
    stream.set_nodelay(true).ok();
    // The quota fallback identity when no X-Client-Id header is sent: the
    // peer IP (not the port — every connection from one host shares it).
    let peer = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    // Generous line cap: the query-size policy is enforced later with a
    // proper 413; this only stops unbounded header streams.
    let line_cap = config.max_query_bytes.saturating_mul(4).max(1 << 16);
    let mut reader = HttpReader::new(&stream, Instant::now(), None, line_cap);
    while await_request(&mut reader, shutdown, config.read_deadline) {
        let request = match read_request(&stream, &mut reader, config) {
            Ok(request) => request,
            Err(reject) => {
                let response = Response::error(reject.status, &reject.message, &config.name);
                let _ = write_response(&stream, stats, false, response);
                break;
            }
        };
        let client = ClientInfo {
            id: request.client_id.clone().unwrap_or_else(|| peer.clone()),
        };
        let Some(response) = respond(&stream, &request, backend, config, stats, &client) else {
            // The client hung up mid-query. Nobody is reading: count it
            // and skip the write entirely.
            stats.record(499);
            break;
        };
        if write_response(&stream, stats, request.keep_alive, response).is_err()
            || !request.keep_alive
        {
            break;
        }
    }
}

/// Dispatch one request to its route. `None` means the client
/// disconnected while its query ran.
fn respond(
    stream: &TcpStream,
    request: &Request,
    backend: &Arc<dyn QueryBackend>,
    config: &ServerConfig,
    stats: &ServerStats,
    client: &ClientInfo,
) -> Option<Response> {
    let name = config.name.as_str();
    let path = request.target.split('?').next().unwrap_or("");
    // The `<id>` of a `/queries/<id>/cancel` path.
    let cancel_id = path
        .strip_prefix("/queries/")
        .and_then(|rest| rest.strip_suffix("/cancel"));
    // The route table: the methods each path takes (sent back as `Allow`
    // with a 405, RFC 9110 §15.5.6) and what the refusal calls the route.
    // Every path not named here is the query route.
    let (allow, route) = match path {
        "/stats" | "/queries" => ("GET", path),
        "/cache/invalidate" => ("POST", path),
        _ if cancel_id.is_some() => ("POST", "/queries/<id>/cancel"),
        _ => ("GET, POST", ""),
    };
    if !allow.split(", ").any(|method| method == request.method) {
        let message = if route.is_empty() {
            format!("method {} not allowed; use GET or POST", request.method)
        } else {
            format!("use {allow} for {route}")
        };
        return Some(Response::error(405, &message, name).header("Allow", allow));
    }
    if let Some(id_text) = cancel_id {
        let Ok(id) = id_text.parse::<u64>() else {
            let message = format!("bad query id {id_text:?}");
            return Some(Response::error(400, &message, name));
        };
        return Some(
            match backend.cancel_query(id, CancelReason::AdminCancelled) {
                Some(cancelled) => {
                    let doc = Json::object([("id", id.into()), ("cancelled", cancelled.into())]);
                    Response::json(200, &doc)
                }
                None => Response::error(404, &format!("no in-flight query with id {id}"), name),
            },
        );
    }
    Some(match path {
        // Built before the response is recorded, so the body does not
        // count itself.
        "/stats" => {
            let doc = Json::object([
                ("endpoint", name.into()),
                ("requests", stats.counts().to_json()),
                ("service", backend.stats().into()),
            ]);
            Response::json(200, &doc)
        }
        "/queries" => match backend.queries() {
            Some(doc) => Response::json(200, &doc),
            None => Response::error(404, "this server keeps no query registry", name),
        },
        "/cache/invalidate" if backend.invalidate_caches() => {
            Response::json(200, &Json::object([("invalidated", true.into())]))
        }
        "/cache/invalidate" => Response::error(404, "this server has no shared caches", name),
        _ => match extract_query(request, config) {
            Ok(query_text) => {
                let binary = config.offer_binary && wants_binary(&request.accept);
                answer_query(stream, backend, &query_text, client, binary, config)?
            }
            Err(reject) => Response::error(reject.status, &reject.message, name),
        },
    })
}

/// One parsed HTTP request.
struct Request {
    method: String,
    /// Path with any query string, as sent.
    target: String,
    content_type: String,
    /// The `Accept` header, verbatim (empty when absent). Drives results
    /// codec negotiation: see [`wants_binary`].
    accept: String,
    /// The `X-Client-Id` header, when sent.
    client_id: Option<String>,
    body: Vec<u8>,
    keep_alive: bool,
}

/// Park until the next request's first byte shows up, in short slices so
/// an idle keep-alive connection never pins a worker across shutdown or
/// past the idle deadline. `false` when the client closed the connection,
/// the server is shutting down, or the connection idled out.
fn await_request(reader: &mut HttpReader<'_>, shutdown: &AtomicBool, idle: Duration) -> bool {
    let idle_until = Instant::now() + idle;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if reader.buffered() {
            return true; // pipelined bytes already buffered
        }
        let now = Instant::now();
        if now >= idle_until {
            return false;
        }
        reader.deadline = idle_until.min(now + Duration::from_millis(100));
        match reader.fill() {
            Ok(0) => return false,
            Err(e) if e.kind() != io::ErrorKind::TimedOut => return false,
            _ => {}
        }
    }
}

/// Read one request off the connection under the read deadline.
fn read_request(
    mut stream: &TcpStream,
    reader: &mut HttpReader<'_>,
    config: &ServerConfig,
) -> Result<Request, HttpReject> {
    // How a failed read is answered: the framing is lost either way.
    let reject = |e: io::Error| match e.kind() {
        io::ErrorKind::UnexpectedEof => HttpReject::new(400, "connection closed mid-request"),
        io::ErrorKind::TimedOut => HttpReject::new(408, "request read deadline exceeded"),
        io::ErrorKind::FileTooLarge => HttpReject::new(413, "request too large"),
        io::ErrorKind::InvalidData => HttpReject::new(400, e.to_string()),
        _ => HttpReject::new(400, format!("read error: {e}")),
    };
    reader.deadline = Instant::now() + config.read_deadline;
    let head = reader.read_head().map_err(reject)?;
    let mut parts = head.start.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_string(), t.to_string()),
        _ => {
            let message = format!("malformed request line {:?}", head.start);
            return Err(HttpReject::new(400, message));
        }
    };
    if head.get("transfer-encoding").is_some() {
        // Simple servers may refuse chunked requests; queries are small.
        return Err(HttpReject::new(
            400,
            "chunked request bodies are not supported",
        ));
    }
    let content_length = match head.get("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| HttpReject::new(400, format!("bad Content-Length {v:?}")))?,
        None => 0usize,
    };
    if content_length > config.max_query_bytes {
        return Err(HttpReject::new(
            413,
            format!(
                "request body of {content_length} bytes exceeds the {}-byte limit",
                config.max_query_bytes
            ),
        ));
    }
    let expect_continue = head
        .get("expect")
        .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"));
    if expect_continue && content_length > 0 {
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .map_err(|_| HttpReject::new(400, "client went away"))?;
    }
    let mut body = vec![0; content_length];
    reader.read_exact(&mut body).map_err(reject)?;
    let lowercase = |name: &str| head.get(name).unwrap_or("").to_ascii_lowercase();
    Ok(Request {
        method,
        target,
        content_type: lowercase("content-type"),
        accept: lowercase("accept"),
        client_id: head
            .get("x-client-id")
            .filter(|id| !id.is_empty())
            .map(String::from),
        body,
        keep_alive: head.keep_alive(),
    })
}

/// Results codec negotiation: `true` when the client's `Accept` header
/// asks for [`results_bin::MEDIA_TYPE`] (with a non-zero q). Anything
/// else — no header, `*/*`, plain SPARQL-JSON — gets JSON, so a client
/// that never heard of the binary codec is entirely unaffected.
fn wants_binary(accept: &str) -> bool {
    accept.split(',').any(|item| {
        let mut parts = item.trim().split(';');
        let media = parts.next().unwrap_or("").trim();
        media.eq_ignore_ascii_case(results_bin::MEDIA_TYPE)
            && !parts.any(|p| {
                let p = p.trim();
                p.strip_prefix("q=")
                    .and_then(|q| q.trim().parse::<f32>().ok())
                    .is_some_and(|v| v == 0.0)
            })
    })
}

/// Apply the SPARQL Protocol rules to pull the query text out of a `GET`
/// or `POST` request (the route table turned every other method away).
fn extract_query(request: &Request, config: &ServerConfig) -> Result<String, HttpReject> {
    let query = if request.method == "GET" {
        let query_string = request.target.split_once('?').map(|(_, q)| q).unwrap_or("");
        form_field(query_string, "query")
            .ok_or_else(|| HttpReject::new(400, "missing query= parameter"))??
    } else if request.content_type.starts_with("application/sparql-query") {
        String::from_utf8(request.body.clone())
            .map_err(|_| HttpReject::new(400, "query body is not UTF-8"))?
    } else if request
        .content_type
        .starts_with("application/x-www-form-urlencoded")
    {
        let body = std::str::from_utf8(&request.body)
            .map_err(|_| HttpReject::new(400, "form body is not UTF-8"))?;
        form_field(body, "query").ok_or_else(|| HttpReject::new(400, "missing query= field"))??
    } else {
        return Err(HttpReject::new(
            415,
            format!(
                "unsupported Content-Type {:?}; use application/sparql-query or a \
                 query= form field",
                request.content_type
            ),
        ));
    };
    if query.len() > config.max_query_bytes {
        return Err(HttpReject::new(
            413,
            format!(
                "query of {} bytes exceeds the {}-byte limit",
                query.len(),
                config.max_query_bytes
            ),
        ));
    }
    Ok(query)
}

/// Find and decode `key` in an `application/x-www-form-urlencoded` string.
fn form_field(encoded: &str, key: &str) -> Option<Result<String, HttpReject>> {
    for pair in encoded.split('&') {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == key {
            return Some(
                percent_decode(v, true)
                    .map_err(|e| HttpReject::new(400, format!("bad {key}= encoding: {e}"))),
            );
        }
    }
    None
}

/// Watches the client's half of the connection while its query executes:
/// an EOF (or hard error) on the socket trips the query's [`CancelToken`]
/// with [`CancelReason::ClientDisconnected`], so the backend stops issuing
/// outbound endpoint requests and frees its ledger instead of computing an
/// answer nobody will read. Dropping the monitor stops and joins it, which
/// can wait out one 100 ms peek, so only a backend that is
/// [`cancellable`](QueryBackend::cancellable) is watched.
struct DisconnectMonitor {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl DisconnectMonitor {
    fn spawn(stream: &TcpStream, token: CancelToken) -> DisconnectMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = match stream.try_clone() {
            Ok(peek_stream) => {
                let stop = Arc::clone(&stop);
                Some(std::thread::spawn(move || {
                    let mut probe = [0u8; 1];
                    loop {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        if peek_stream
                            .set_read_timeout(Some(Duration::from_millis(100)))
                            .is_err()
                        {
                            token.cancel(CancelReason::ClientDisconnected);
                            return;
                        }
                        match peek_stream.peek(&mut probe) {
                            // Orderly EOF: the client hung up mid-query.
                            Ok(0) => {
                                token.cancel(CancelReason::ClientDisconnected);
                                return;
                            }
                            // Pipelined bytes for the *next* request are
                            // already buffered: peek returns instantly, so
                            // pace the loop instead of spinning on them.
                            Ok(_) => std::thread::sleep(Duration::from_millis(50)),
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                                ) => {}
                            Err(_) => {
                                token.cancel(CancelReason::ClientDisconnected);
                                return;
                            }
                        }
                    }
                }))
            }
            // No second handle to watch with: run unsupervised.
            Err(_) => None,
        };
        DisconnectMonitor { stop, thread }
    }
}

impl Drop for DisconnectMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Evaluate the query through the backend and build the response. With
/// `binary`, successful results go out in the negotiated compact codec
/// ([`results_bin`]); errors are always JSON. `None` means the client
/// disconnected mid-query.
fn answer_query(
    stream: &TcpStream,
    backend: &Arc<dyn QueryBackend>,
    query_text: &str,
    client: &ClientInfo,
    binary: bool,
    config: &ServerConfig,
) -> Option<Response> {
    let name = config.name.as_str();
    let token = CancelToken::new();
    let answer = {
        // The monitor holds a cloned handle; it is stopped and joined
        // before any response byte is written. A backend that ignores the
        // token gets none: the watch could not change its answer.
        let _monitor = backend
            .cancellable()
            .then(|| DisconnectMonitor::spawn(stream, token.clone()));
        // A panicking backend must cost one 500, not the worker thread:
        // RAII guards inside the backend release its ledger/quota on
        // unwind, and the connection stays in its keep-alive loop.
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            backend.answer(query_text, client, &token)
        }))
        .unwrap_or_else(|_| Answer::error(500, "internal error: query evaluation panicked"))
    };
    if token.reason() == Some(CancelReason::ClientDisconnected) {
        return None;
    }
    let media = if binary {
        results_bin::MEDIA_TYPE
    } else {
        results_json::MEDIA_TYPE
    };
    Some(match answer {
        Answer::Error {
            status,
            message,
            retry_after,
        } => Response::error(status, &message, name).retry_after(retry_after),
        Answer::Boolean(verdict) => {
            let body = if binary {
                results_bin::boolean_bin(verdict)
            } else {
                results_json::boolean_json(verdict).into_bytes()
            };
            Response::new(200, media, Body::Sized(body))
        }
        Answer::Solutions { rel, mut warnings } => {
            // The server-side row ceiling, applied on top of whatever the
            // backend already enforced: the truncation is declared in the
            // response head (which streams first), so a client sees the
            // degradation before the rows, not after.
            let cap = config.max_result_rows.unwrap_or(usize::MAX);
            let truncated = rel.len() > cap;
            if truncated {
                warnings.push(format!(
                    "{name}: result truncated to {cap} of {} rows by the server row cap",
                    rel.len()
                ));
            }
            // Head, one item per row, tail: the same streaming shape in
            // either codec. `Some` is the negotiated binary codec with its
            // per-response term dictionary, `None` SPARQL JSON.
            let mut encoder = binary.then(results_bin::Encoder::new);
            let head = match &mut encoder {
                Some(enc) => enc.head(rel.vars(), &warnings),
                None => results_json::head_json_with_warnings(rel.vars(), &warnings).into_bytes(),
            };
            let tail = match &encoder {
                Some(enc) => enc.tail(),
                None => results_json::SOLUTIONS_TAIL.as_bytes().to_vec(),
            };
            let mut last_len = 0;
            let rows = (0..rel.len().min(cap)).map(move |i| match &mut encoder {
                // Any first-seen terms as dictionary records, then the
                // fixed-width id tuple.
                Some(enc) => enc.row(&rel.rows()[i]),
                None => {
                    // Sized like the row before, so most rows allocate once.
                    let mut piece = String::with_capacity(last_len);
                    piece.push_str(if i > 0 { "," } else { "" });
                    results_json::write_binding(&mut piece, rel.vars(), &rel.rows()[i]);
                    last_len = piece.len();
                    piece.into_bytes()
                }
            });
            let chunks = std::iter::once(head).chain(rows).chain([tail]);
            let response = Response::new(200, media, Body::Chunks(Box::new(chunks)));
            // Honest truncation advertisement: unlike a silently-capping
            // public endpoint, this server *declares* the cut in a header
            // (`HttpEndpoint` consumes it as ground truth and pages the
            // rest back), so a federator never has to guess.
            if truncated {
                response.header("X-Lusail-Truncated", true)
            } else {
                response
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_federation::http::percent_encode;
    use lusail_federation::{HttpConfig, HttpEndpoint, SparqlEndpoint};
    use lusail_rdf::{Graph, Term};
    use std::io::{BufRead, BufReader};

    fn test_store() -> Store {
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
        g.add(
            Term::iri("http://x/c"),
            Term::iri("http://x/label"),
            Term::literal("see"),
        );
        Store::from_graph(&g)
    }

    fn start(config: ServerConfig) -> ServerHandle {
        SparqlServer::bind("127.0.0.1:0", test_store(), config)
            .unwrap()
            .spawn()
    }

    /// Raw one-shot exchange; returns (status line, full response text).
    fn raw_roundtrip(addr: SocketAddr, request: &str) -> (String, String) {
        // No half-close: shutting down the write side mid-query reads as a
        // client disconnect (and cancels the query), exactly like hyper's
        // and Go's defaults. Requests carry `Connection: close` (or are
        // protocol errors the server closes on) so reads still terminate.
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(request.as_bytes()).unwrap();
        let mut text = String::new();
        sock.read_to_string(&mut text).unwrap();
        let status = text.lines().next().unwrap_or("").to_string();
        (status, text)
    }

    #[test]
    fn get_and_post_roundtrip_through_http_client() {
        let handle = start(ServerConfig::default());
        let q = lusail_sparql::parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
        for use_get in [false, true] {
            let ep = HttpEndpoint::new("srv", &handle.url())
                .unwrap()
                .with_config(HttpConfig {
                    use_get,
                    ..Default::default()
                });
            let rel = ep.select(&q).unwrap();
            assert_eq!(rel.len(), 2, "use_get={use_get}");
        }
        let ask = lusail_sparql::parse_query("ASK { ?s <http://x/label> \"see\" }").unwrap();
        let ep = HttpEndpoint::new("srv", &handle.url()).unwrap();
        assert!(ep.ask(&ask).unwrap());
        assert!(handle.requests_served() >= 3);
        handle.shutdown();
    }

    #[test]
    fn keep_alive_reuses_one_connection() {
        let handle = start(ServerConfig::default());
        let request = post_query("ASK { ?s ?p ?o }");
        let mut sock = TcpStream::connect(handle.local_addr()).unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        for _ in 0..3 {
            sock.write_all(request.as_bytes()).unwrap();
            let status = read_sized_response(&mut reader);
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        }
        drop(sock);
        assert_eq!(handle.requests_served(), 3);
        handle.shutdown();
    }

    /// Read one `Content-Length` response off a keep-alive connection;
    /// returns its status line.
    fn read_sized_response(reader: &mut impl BufRead) -> String {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        // Drain headers + sized body.
        let mut content_length = 0;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if let Some(v) = line
                .trim()
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
            {
                content_length = v.trim().parse().unwrap();
            }
            if line.trim().is_empty() {
                break;
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        status
    }

    /// A `POST /sparql` request for `query`, kept alive.
    fn post_query(query: &str) -> String {
        format!(
            "POST /sparql HTTP/1.1\r\nHost: h\r\nContent-Type: application/sparql-query\r\n\
             Content-Length: {}\r\n\r\n{query}",
            query.len()
        )
    }

    /// Poll `handle`'s counters until `done` holds or five seconds pass.
    fn await_counts(handle: &ServerHandle, done: impl Fn(RequestCounts) -> bool) -> RequestCounts {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let counts = handle.stats();
            if done(counts) || Instant::now() >= deadline {
                return counts;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A backend that ignores its token is not watched, so its answers do
    /// not wait out the disconnect monitor's 100 ms peek.
    #[test]
    fn uncancellable_backend_answers_without_a_per_request_stall() {
        struct Slow;
        impl QueryBackend for Slow {
            fn answer(&self, _query: &str, _client: &ClientInfo, _cancel: &CancelToken) -> Answer {
                std::thread::sleep(Duration::from_millis(20));
                Answer::Boolean(true)
            }
            fn cancellable(&self) -> bool {
                false
            }
        }
        let handle =
            SparqlServer::with_backend("127.0.0.1:0", Arc::new(Slow), ServerConfig::default())
                .unwrap()
                .spawn();
        let request = post_query("ASK { ?s ?p ?o }");
        let mut sock = TcpStream::connect(handle.local_addr()).unwrap();
        let mut reader = BufReader::new(sock.try_clone().unwrap());
        let started = Instant::now();
        for _ in 0..10 {
            sock.write_all(request.as_bytes()).unwrap();
            let status = read_sized_response(&mut reader);
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(600),
            "ten 20 ms answers took {elapsed:?}"
        );
        drop(sock);
        handle.shutdown();
    }

    /// A backend that acts on its token is still watched: a client that
    /// hangs up mid-query trips it promptly and is counted as a 499.
    #[test]
    fn cancellable_backend_is_still_watched() {
        struct Blocks(Mutex<mpsc::Sender<(Option<CancelReason>, Duration)>>);
        impl QueryBackend for Blocks {
            fn answer(&self, _query: &str, _client: &ClientInfo, cancel: &CancelToken) -> Answer {
                let started = Instant::now();
                let reason = cancel.wait_timeout(Duration::from_secs(5));
                let _ = self.0.lock().unwrap().send((reason, started.elapsed()));
                Answer::Boolean(true)
            }
        }
        let (tx, rx) = mpsc::channel();
        let backend = Arc::new(Blocks(Mutex::new(tx)));
        let handle = SparqlServer::with_backend("127.0.0.1:0", backend, ServerConfig::default())
            .unwrap()
            .spawn();
        let mut sock = TcpStream::connect(handle.local_addr()).unwrap();
        sock.write_all(post_query("ASK { ?s ?p ?o }").as_bytes())
            .unwrap();
        drop(sock);
        let (reason, waited) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(reason, Some(CancelReason::ClientDisconnected));
        assert!(waited < Duration::from_secs(1), "tripped after {waited:?}");
        let counts = await_counts(&handle, |c| c.errors == 1);
        assert_eq!(
            (counts.served, counts.errors),
            (0, 1),
            "one 499, nothing served"
        );
        let (_, text) = raw_roundtrip(
            handle.local_addr(),
            "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        );
        assert!(
            text.contains("\"served\":0,\"shed\":0,\"errors\":1"),
            "{text}"
        );
        handle.shutdown();
    }

    /// An unwatched backend learns of a hang-up when its write fails: that
    /// response counts as a 499, not as served.
    #[test]
    fn a_response_the_client_never_read_counts_as_an_error() {
        struct SlowRows(Relation);
        impl QueryBackend for SlowRows {
            fn answer(&self, _query: &str, _client: &ClientInfo, _cancel: &CancelToken) -> Answer {
                std::thread::sleep(Duration::from_millis(50));
                Answer::Solutions {
                    rel: self.0.clone(),
                    warnings: Vec::new(),
                }
            }
            fn cancellable(&self) -> bool {
                false
            }
        }
        // About 2 MB of SPARQL JSON: many writes, so some land after the
        // closed socket has answered the first with a reset.
        let vars = ["s", "label"].map(lusail_sparql::ast::Variable::new);
        let mut rel = Relation::new(vars.to_vec());
        for i in 0..16_000 {
            rel.push(vec![
                Some(Term::iri(format!("http://x/row{i}"))),
                Some(Term::literal("x".repeat(64))),
            ]);
        }
        let backend = Arc::new(SlowRows(rel));
        let handle = SparqlServer::with_backend("127.0.0.1:0", backend, ServerConfig::default())
            .unwrap()
            .spawn();
        let mut sock = TcpStream::connect(handle.local_addr()).unwrap();
        sock.write_all(post_query("SELECT ?s ?label WHERE { ?s ?p ?label }").as_bytes())
            .unwrap();
        drop(sock);
        let counts = await_counts(&handle, |c| c.served == 0 && c.errors == 1);
        assert_eq!((counts.served, counts.errors), (0, 1), "{counts:?}");
        let (_, text) = raw_roundtrip(
            handle.local_addr(),
            "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        );
        assert!(
            text.contains("\"served\":0,\"shed\":0,\"errors\":1"),
            "{text}"
        );
        handle.shutdown();
    }

    #[test]
    fn form_encoded_post_is_accepted() {
        let handle = start(ServerConfig::default());
        let body = format!("other=1&query={}", percent_encode("ASK { ?s ?p ?o }"));
        let request = format!(
            "POST /sparql HTTP/1.1\r\nHost: h\r\nContent-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let (status, text) = raw_roundtrip(handle.local_addr(), &request);
        assert!(status.contains("200"), "{text}");
        assert!(text.contains("\"boolean\":true"), "{text}");
        handle.shutdown();
    }

    #[test]
    fn protocol_rejections() {
        let handle = start(ServerConfig {
            max_query_bytes: 200,
            ..Default::default()
        });
        let addr = handle.local_addr();

        let cases: Vec<(String, &str)> = vec![
            // Not HTTP at all.
            ("garbage\r\n\r\n".to_string(), "400"),
            // Unsupported method.
            (
                "DELETE /sparql HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n".to_string(),
                "405",
            ),
            // GET without a query parameter.
            (
                "GET /sparql HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n".to_string(),
                "400",
            ),
            // POST with an unknown media type.
            (
                "POST /sparql HTTP/1.1\r\nHost: h\r\nContent-Type: text/csv\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabc"
                    .to_string(),
                "415",
            ),
            // Malformed SPARQL.
            (
                "POST /sparql HTTP/1.1\r\nHost: h\r\nContent-Type: application/sparql-query\r\nContent-Length: 9\r\nConnection: close\r\n\r\nSELECT ?{"
                    .to_string(),
                "400",
            ),
            // Declared body larger than the limit.
            (
                "POST /sparql HTTP/1.1\r\nHost: h\r\nContent-Type: application/sparql-query\r\nContent-Length: 5000\r\nConnection: close\r\n\r\n"
                    .to_string(),
                "413",
            ),
            // Oversized query via GET.
            (
                format!(
                    "GET /sparql?query={} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
                    percent_encode(&format!(
                        "SELECT * WHERE {{ ?s <http://x/{}> ?o }}",
                        "p".repeat(300)
                    ))
                ),
                "413",
            ),
        ];
        for (request, expected) in cases {
            let (status, text) = raw_roundtrip(addr, &request);
            assert!(
                status.contains(expected),
                "request {:?} → {status} (wanted {expected})\n{text}",
                request.lines().next().unwrap_or("")
            );
        }
        handle.shutdown();
    }

    /// A query nested past the parser's limit is a 400 on the worker that
    /// read it, not a stack overflow that aborts the process, and the next
    /// request is served.
    #[test]
    fn a_deeply_nested_query_is_a_400_and_the_server_stays_up() {
        let handle = start(ServerConfig::default());
        let addr = handle.local_addr();
        let close = |query: &str| {
            post_query(query).replacen("\r\n\r\n", "\r\nConnection: close\r\n\r\n", 1)
        };
        let groups = format!("SELECT * WHERE {}{}", "{".repeat(3_000), "}".repeat(3_000));
        let parens = format!(
            "SELECT * WHERE {{ ?s ?p ?o FILTER({}?o{}) }}",
            "(".repeat(3_000),
            ")".repeat(3_000)
        );
        for query in [groups, parens] {
            let (status, text) = raw_roundtrip(addr, &close(&query));
            assert!(status.contains("400"), "{status}\n{text}");
            assert!(text.contains("nests deeper"), "{text}");
        }
        let (status, text) = raw_roundtrip(addr, &close("SELECT ?s WHERE { ?s <http://x/p> ?o }"));
        assert!(status.contains("200"), "{status}\n{text}");
        handle.shutdown();
    }

    #[test]
    fn saturated_pool_sheds_load_with_503_and_retry_after() {
        // One worker, backlog of one: the worker parks on a held-open
        // connection, a second connection fills the queue, so a third
        // must be turned away with 503 + Retry-After naming the endpoint.
        let handle = SparqlServer::bind(
            "127.0.0.1:0",
            test_store(),
            ServerConfig {
                workers: 1,
                backlog: 1,
                name: "ep-under-test".to_string(),
                retry_after: Duration::from_secs(2),
                ..Default::default()
            },
        )
        .unwrap()
        .spawn();
        let addr = handle.local_addr();

        // Occupy the worker and fill the queue with idle connections.
        let _busy = TcpStream::connect(addr).unwrap();
        let _queued = TcpStream::connect(addr).unwrap();
        // Give the accept thread time to hand the first to the worker and
        // park the second in the channel.
        std::thread::sleep(Duration::from_millis(100));

        // A 503 may take a couple of tries: the accept thread races with
        // worker pickup, so the first extra connection can still slip
        // into the freed queue slot.
        let mut shed = None;
        for _ in 0..5 {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut text = String::new();
            if sock.read_to_string(&mut text).is_ok() && text.starts_with("HTTP/1.1 503") {
                shed = Some(text);
                break;
            }
        }
        let text = shed.expect("an over-capacity connection must get a 503");
        assert!(text.contains("Retry-After: 2"), "{text}");
        assert!(text.contains("\"endpoint\":\"ep-under-test\""), "{text}");
        assert!(text.contains("\"error\":"), "{text}");

        drop(_busy);
        drop(_queued);
        handle.shutdown();
    }

    #[test]
    fn error_bodies_are_json_naming_the_endpoint() {
        let handle = start(ServerConfig {
            name: "srv1".to_string(),
            ..Default::default()
        });
        let (status, text) = raw_roundtrip(
            handle.local_addr(),
            "GET /sparql HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        );
        assert!(status.contains("400"), "{text}");
        assert!(text.contains("Content-Type: application/json"), "{text}");
        assert!(text.contains("\"endpoint\":\"srv1\""), "{text}");
        assert!(text.contains("missing query= parameter"), "{text}");
        handle.shutdown();
    }

    #[test]
    fn read_deadline_times_out_slow_clients() {
        let handle = start(ServerConfig {
            read_deadline: Duration::from_millis(100),
            ..Default::default()
        });
        let mut sock = TcpStream::connect(handle.local_addr()).unwrap();
        // Send half a request line, then stall.
        sock.write_all(b"GET /spar").unwrap();
        let mut text = String::new();
        sock.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        handle.shutdown();
    }

    #[test]
    fn slow_loris_mid_body_times_out_with_408_json_error() {
        let handle = start(ServerConfig {
            read_deadline: Duration::from_millis(100),
            name: "srv-guarded".to_string(),
            ..Default::default()
        });
        let mut sock = TcpStream::connect(handle.local_addr()).unwrap();
        // Complete headers promising a body, then a trickle that stalls:
        // the classic slow-loris shape. The read deadline must cut the
        // connection loose with a 408 instead of pinning a worker.
        sock.write_all(
            b"POST /sparql HTTP/1.1\r\nHost: h\r\n\
              Content-Type: application/sparql-query\r\nContent-Length: 64\r\n\r\nASK {",
        )
        .unwrap();
        let mut text = String::new();
        sock.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        assert!(text.contains("Content-Type: application/json"), "{text}");
        assert!(text.contains("\"endpoint\":\"srv-guarded\""), "{text}");
        handle.shutdown();
    }

    #[test]
    fn oversized_body_gets_413_with_json_error_body() {
        let handle = start(ServerConfig {
            max_query_bytes: 128,
            name: "srv-capped".to_string(),
            ..Default::default()
        });
        let request = format!(
            "POST /sparql HTTP/1.1\r\nHost: h\r\nContent-Type: application/sparql-query\r\n\
             Content-Length: 4096\r\nConnection: close\r\n\r\n{}",
            "x".repeat(4096)
        );
        let (status, text) = raw_roundtrip(handle.local_addr(), &request);
        assert!(status.contains("413"), "{text}");
        assert!(text.contains("Content-Type: application/json"), "{text}");
        assert!(text.contains("\"endpoint\":\"srv-capped\""), "{text}");
        assert!(text.contains("exceeds the 128-byte limit"), "{text}");
        handle.shutdown();
    }

    #[test]
    fn server_row_cap_truncates_with_a_head_warning() {
        let handle = start(ServerConfig {
            max_result_rows: Some(1),
            name: "srv-rowcap".to_string(),
            ..Default::default()
        });
        // The test store has two ?s <http://x/p> ?o rows; the cap keeps one.
        let ep = HttpEndpoint::new("srv", &handle.url()).unwrap();
        let q = lusail_sparql::parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }").unwrap();
        let rel = ep.select(&q).unwrap();
        assert_eq!(rel.len(), 1, "cap must hold");
        // The truncation is advertised in the response head, and the
        // client transport surfaces it as ground-truth metadata.
        let meta = ep
            .select_with_meta(&q, lusail_federation::Deadline::none())
            .unwrap();
        assert!(meta.truncated, "X-Lusail-Truncated must reach the client");
        assert_eq!(meta.rows.len(), 1);
        // An uncapped query advertises nothing.
        let small =
            lusail_sparql::parse_query("SELECT ?s WHERE { ?s <http://x/label> ?o }").unwrap();
        let meta = ep
            .select_with_meta(&small, lusail_federation::Deadline::none())
            .unwrap();
        assert!(!meta.truncated);
        assert_eq!(meta.rows.len(), 1, "under-cap results pass untouched");
        // The raw body carries the warning in the head, before any row,
        // and the raw header is on the wire.
        let request = format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
            percent_encode("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }")
        );
        let (status, text) = raw_roundtrip(handle.local_addr(), &request);
        assert!(status.contains("200"), "{text}");
        assert!(text.contains("X-Lusail-Truncated: true"), "{text}");
        assert!(
            text.contains("srv-rowcap: result truncated to 1 of 2 rows"),
            "{text}"
        );
        handle.shutdown();
    }

    #[test]
    fn streams_chunked_solutions_clients_can_parse() {
        let handle = start(ServerConfig::default());
        let request = format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
            percent_encode("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }")
        );
        let (status, text) = raw_roundtrip(handle.local_addr(), &request);
        assert!(status.contains("200"), "{text}");
        assert!(text.contains("Transfer-Encoding: chunked"), "{text}");
        handle.shutdown();
    }

    /// A 2 000-row answer leaves in chunks of at least 16 KiB (the last
    /// one excepted), not one per row, and reads back as the same relation.
    #[test]
    fn solutions_stream_in_coalesced_chunks() {
        struct Rows(Relation);
        impl QueryBackend for Rows {
            fn answer(&self, _query: &str, _client: &ClientInfo, _cancel: &CancelToken) -> Answer {
                Answer::Solutions {
                    rel: self.0.clone(),
                    warnings: Vec::new(),
                }
            }
        }
        let vars = ["s", "label"].map(lusail_sparql::ast::Variable::new);
        let mut rel = Relation::new(vars.to_vec());
        for i in 0..2000 {
            rel.push(vec![
                Some(Term::iri(format!("http://x/row{i}"))),
                Some(Term::literal(format!("row \"{i}\""))),
            ]);
        }
        let handle = SparqlServer::with_backend(
            "127.0.0.1:0",
            Arc::new(Rows(rel.clone())),
            ServerConfig::default(),
        )
        .unwrap()
        .spawn();
        let request = format!(
            "GET /sparql?query={} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
            percent_encode("SELECT ?s ?label WHERE { ?s ?p ?label }")
        );
        let (status, text) = raw_roundtrip(handle.local_addr(), &request);
        assert!(status.contains("200"), "{text}");
        let (_, mut framed) = text.split_once("\r\n\r\n").unwrap();
        let (mut body, mut size_lines) = (String::new(), 0);
        loop {
            let (size, rest) = framed.split_once("\r\n").unwrap();
            size_lines += 1;
            let size = usize::from_str_radix(size, 16).unwrap();
            if size == 0 {
                break;
            }
            body.push_str(&rest[..size]);
            framed = rest[size..].strip_prefix("\r\n").unwrap();
        }
        assert!(
            size_lines <= body.len().div_ceil(MIN_CHUNK_BYTES) + 1,
            "{size_lines} chunk-size lines for a {}-byte body",
            body.len()
        );
        assert_eq!(
            results_json::parse(&body).unwrap(),
            QueryResult::Solutions(rel)
        );
        handle.shutdown();
    }

    #[test]
    fn stats_route_reports_split_counters() {
        let handle = start(ServerConfig {
            name: "srv-stats".to_string(),
            ..Default::default()
        });
        let addr = handle.local_addr();
        // One success…
        let ep = HttpEndpoint::new("srv", &handle.url()).unwrap();
        let ask = lusail_sparql::parse_query("ASK { ?s ?p ?o }").unwrap();
        assert!(ep.ask(&ask).unwrap());
        // …and one client error (missing query=).
        let (status, _) = raw_roundtrip(
            addr,
            "GET /sparql HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        );
        assert!(status.contains("400"), "{status}");

        let (status, text) = raw_roundtrip(
            addr,
            "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        );
        assert!(status.contains("200"), "{text}");
        assert!(text.contains("\"endpoint\":\"srv-stats\""), "{text}");
        assert!(text.contains("\"served\":1"), "{text}");
        assert!(text.contains("\"errors\":1"), "{text}");
        assert!(text.contains("\"shed\":0"), "{text}");
        // A plain store backend reports no service-level stats.
        assert!(text.contains("\"service\":null"), "{text}");

        let counts = handle.stats();
        assert_eq!(counts.served, 2, "ASK + /stats");
        assert_eq!(counts.errors, 1);
        assert_eq!(counts.shed, 0);
        assert_eq!(handle.requests_served(), counts.total());
        handle.shutdown();
    }

    #[test]
    fn cache_invalidate_route_is_404_without_shared_caches() {
        let handle = start(ServerConfig::default());
        let (status, text) = raw_roundtrip(
            handle.local_addr(),
            "POST /cache/invalidate HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\
             Connection: close\r\n\r\n",
        );
        assert!(status.contains("404"), "{text}");
        assert!(text.contains("no shared caches"), "{text}");
        // Wrong method gets a 405, not a silent query parse attempt.
        let (status, text) = raw_roundtrip(
            handle.local_addr(),
            "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        );
        assert!(status.contains("200"), "{text}");
        let (status, _) = raw_roundtrip(
            handle.local_addr(),
            "GET /cache/invalidate HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
        );
        assert!(status.contains("405"), "{status}");
        handle.shutdown();
    }

    #[test]
    fn backend_sees_client_id_header_or_peer_ip() {
        struct Capture(Mutex<Vec<String>>);
        impl QueryBackend for Capture {
            fn answer(&self, _query: &str, client: &ClientInfo, _cancel: &CancelToken) -> Answer {
                self.0
                    .lock()
                    .expect("capture lock poisoned")
                    .push(client.id.clone());
                Answer::Boolean(true)
            }
        }
        let capture = Arc::new(Capture(Mutex::new(Vec::new())));
        let handle = SparqlServer::with_backend(
            "127.0.0.1:0",
            Arc::clone(&capture) as Arc<dyn QueryBackend>,
            ServerConfig::default(),
        )
        .unwrap()
        .spawn();
        let body = "ASK { ?s ?p ?o }";
        let with_header = format!(
            "POST /sparql HTTP/1.1\r\nHost: h\r\nX-Client-Id: tenant-7\r\n\
             Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let (status, _) = raw_roundtrip(handle.local_addr(), &with_header);
        assert!(status.contains("200"), "{status}");
        let without_header = format!(
            "POST /sparql HTTP/1.1\r\nHost: h\r\n\
             Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let (status, _) = raw_roundtrip(handle.local_addr(), &without_header);
        assert!(status.contains("200"), "{status}");
        let seen = capture.0.lock().expect("capture lock poisoned").clone();
        assert_eq!(seen[0], "tenant-7");
        assert_eq!(seen[1], "127.0.0.1", "fallback identity is the peer IP");
        handle.shutdown();
    }

    #[test]
    fn backend_retry_after_reaches_the_wire() {
        struct AlwaysBusy;
        impl QueryBackend for AlwaysBusy {
            fn answer(&self, _query: &str, _client: &ClientInfo, _cancel: &CancelToken) -> Answer {
                Answer::Error {
                    status: 429,
                    message: "client quota exhausted".to_string(),
                    retry_after: Some(Duration::from_secs(3)),
                }
            }
        }
        let handle = SparqlServer::with_backend(
            "127.0.0.1:0",
            Arc::new(AlwaysBusy),
            ServerConfig {
                name: "srv-quota".to_string(),
                ..Default::default()
            },
        )
        .unwrap()
        .spawn();
        let (status, text) = raw_roundtrip(
            handle.local_addr(),
            &format!(
                "GET /sparql?query={} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
                percent_encode("ASK { ?s ?p ?o }")
            ),
        );
        assert!(status.contains("429"), "{text}");
        assert!(text.contains("Retry-After: 3"), "{text}");
        assert!(text.contains("client quota exhausted"), "{text}");
        assert_eq!(handle.stats().shed, 1, "quota refusals count as sheds");
        handle.shutdown();
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let handle = start(ServerConfig {
            workers: 2,
            ..Default::default()
        });
        let url = handle.url();
        let ep = HttpEndpoint::new("srv", &url).unwrap();
        let q = lusail_sparql::parse_query("ASK { ?s ?p ?o }").unwrap();
        assert!(ep.ask(&q).unwrap());
        handle.shutdown();
        // After shutdown nothing serves the port: the client must fail.
        let ep = HttpEndpoint::new("srv", &url)
            .unwrap()
            .with_config(HttpConfig {
                retries: 0,
                ..Default::default()
            });
        assert!(ep.execute(&q).is_err());
    }

    /// One exchange with `Connection: close`; returns the response bytes up
    /// to (not including) the blank line, which is all ASCII in either codec.
    fn response_head(addr: SocketAddr, request: &[u8]) -> String {
        let mut sock = TcpStream::connect(addr).unwrap();
        sock.write_all(request).unwrap();
        let mut bytes = Vec::new();
        sock.read_to_end(&mut bytes).unwrap();
        let end = bytes
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("a blank line ends the head");
        String::from_utf8(bytes[..end].to_vec()).unwrap()
    }

    /// The head of every kind of response, byte for byte as captured from
    /// the commit before `write_response` existed (apart from `Allow`), and
    /// `ServerHandle::stats()` moving by exactly one per response.
    #[test]
    fn response_heads_match_the_captured_fixture() {
        struct AlwaysBusy;
        impl QueryBackend for AlwaysBusy {
            fn answer(&self, _query: &str, _client: &ClientInfo, _cancel: &CancelToken) -> Answer {
                Answer::Error {
                    status: 429,
                    message: "client quota exhausted".to_string(),
                    retry_after: Some(Duration::from_secs(3)),
                }
            }
        }
        let named = |name: &str| ServerConfig {
            name: name.to_string(),
            ..Default::default()
        };
        let plain = start(ServerConfig {
            max_query_bytes: 200,
            ..named("fx")
        });
        let capped = start(ServerConfig {
            max_result_rows: Some(1),
            ..named("fx")
        });
        let slow = start(ServerConfig {
            read_deadline: Duration::from_millis(100),
            ..named("fx")
        });
        let busy = SparqlServer::with_backend("127.0.0.1:0", Arc::new(AlwaysBusy), named("fx"))
            .unwrap()
            .spawn();

        let get = |query: &str, accept: &str| {
            format!(
                "GET /sparql?query={} HTTP/1.1\r\nHost: h\r\n{accept}Connection: close\r\n\r\n",
                percent_encode(query)
            )
        };
        let binary = format!("Accept: {}\r\n", results_bin::MEDIA_TYPE);
        let select = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }";
        let cases: Vec<(&ServerHandle, String, &str)> = vec![
            (
                &plain,
                "GET /sparql HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n".to_string(),
                "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
                 Content-Length: 52\r\nConnection: close",
            ),
            (
                &plain,
                "GET /queries HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n".to_string(),
                "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
                 Content-Length: 63\r\nConnection: close",
            ),
            (
                &slow,
                "GET /spar".to_string(),
                "HTTP/1.1 408 Request Timeout\r\nContent-Type: application/json\r\n\
                 Content-Length: 58\r\nConnection: close",
            ),
            (
                &plain,
                "POST /sparql HTTP/1.1\r\nHost: h\r\nContent-Type: application/sparql-query\r\n\
                 Content-Length: 5000\r\nConnection: close\r\n\r\n"
                    .to_string(),
                "HTTP/1.1 413 Content Too Large\r\nContent-Type: application/json\r\n\
                 Content-Length: 81\r\nConnection: close",
            ),
            (
                &plain,
                "POST /sparql HTTP/1.1\r\nHost: h\r\nContent-Type: text/csv\r\n\
                 Content-Length: 3\r\nConnection: close\r\n\r\nabc"
                    .to_string(),
                "HTTP/1.1 415 Unsupported Media Type\r\nContent-Type: application/json\r\n\
                 Content-Length: 118\r\nConnection: close",
            ),
            (
                &busy,
                get("ASK { ?s ?p ?o }", ""),
                "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                 Retry-After: 3\r\nContent-Length: 50\r\nConnection: close",
            ),
            (
                &plain,
                "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n".to_string(),
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: 76\r\nConnection: close",
            ),
            (
                &plain,
                get("ASK { ?s ?p ?o }", ""),
                "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n\
                 Content-Length: 26\r\nConnection: close",
            ),
            (
                &plain,
                get("ASK { ?s ?p ?o }", &binary),
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-lusail-results-bin\r\n\
                 Content-Length: 7\r\nConnection: close",
            ),
            (
                &plain,
                get(select, ""),
                "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n\
                 Transfer-Encoding: chunked\r\nConnection: close",
            ),
            (
                &plain,
                get(select, &binary),
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-lusail-results-bin\r\n\
                 Transfer-Encoding: chunked\r\nConnection: close",
            ),
            (
                &capped,
                get(select, ""),
                "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n\
                 X-Lusail-Truncated: true\r\nTransfer-Encoding: chunked\r\nConnection: close",
            ),
            (
                &capped,
                get(select, &binary),
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-lusail-results-bin\r\n\
                 X-Lusail-Truncated: true\r\nTransfer-Encoding: chunked\r\nConnection: close",
            ),
        ];
        for (server, request, expected) in &cases {
            let before = server.stats().total();
            let head = response_head(server.local_addr(), request.as_bytes());
            assert_eq!(&head, expected, "request {request:?}");
            assert_eq!(server.stats().total(), before + 1, "request {request:?}");
        }
        for server in [plain, capped, slow, busy] {
            server.shutdown();
        }

        // The accept thread's shed goes through the same writer: the one
        // worker parks on a held-open connection (given time to pick it
        // up), a second connection fills the queue, the third is refused.
        let tiny = start(ServerConfig {
            workers: 1,
            backlog: 1,
            retry_after: Duration::from_secs(2),
            ..named("fx")
        });
        let _busy = TcpStream::connect(tiny.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let _queued = TcpStream::connect(tiny.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let head = response_head(tiny.local_addr(), b"");
        assert_eq!(
            head,
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Retry-After: 2\r\nContent-Length: 86\r\nConnection: close"
        );
        assert_eq!(tiny.stats().total(), 1);
        drop((_busy, _queued));
        tiny.shutdown();
    }

    #[test]
    fn every_405_names_the_allowed_methods() {
        // One worker: a request that killed it would wedge the rest.
        let handle = start(ServerConfig {
            workers: 1,
            ..Default::default()
        });
        let addr = handle.local_addr();
        for (request_line, allow) in [
            ("POST /stats", "GET"),
            ("DELETE /queries", "GET"),
            ("GET /queries/7/cancel", "POST"),
            ("GET /cache/invalidate", "POST"),
            ("DELETE /sparql", "GET, POST"),
        ] {
            let request = format!(
                "{request_line} HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
            );
            let head = response_head(addr, request.as_bytes());
            let expected = format!(
                "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\n\
                 Allow: {allow}\r\nContent-Length: "
            );
            assert!(head.starts_with(&expected), "{request_line}: {head}");
        }
        // No `<id>` segment, so not the cancel route: an ordinary (bad)
        // query request, where slicing the id out used to panic.
        let (status, _) = raw_roundtrip(
            addr,
            "POST /queries/cancel HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\
             Connection: close\r\n\r\n",
        );
        assert!(status.contains("415"), "{status}");
        let (status, _) = raw_roundtrip(
            addr,
            "POST /queries/x/cancel HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\
             Connection: close\r\n\r\n",
        );
        assert!(status.contains("400"), "{status}");
        assert_eq!(handle.stats().errors, 7);
        handle.shutdown();
    }
}
