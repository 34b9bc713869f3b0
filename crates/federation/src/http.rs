//! A real HTTP transport for SPARQL endpoints, built on `std::net` only.
//!
//! [`HttpEndpoint`] implements [`SparqlEndpoint`] by speaking the SPARQL
//! 1.1 Protocol over hand-rolled HTTP/1.1: it POSTs the query as
//! `application/sparql-query` (or GETs `?query=` when configured),
//! reads Content-Length or chunked responses, and parses the
//! `application/sparql-results+json` body with [`crate::results_json`].
//!
//! Reliability knobs live in [`HttpConfig`]: a per-attempt deadline that
//! bounds connect, send, and every read; and retry with doubling backoff
//! on connect/transport errors and 5xx responses (4xx and malformed
//! result documents fail immediately — retrying a rejected query cannot
//! help). The retries run in the attempt loop every transport shares
//! ([`EndpointHealth::run`]); this module supplies one attempt. Connections
//! are kept alive and reused across requests, unless the server closes
//! them (`Connection: close`, or an HTTP/1.0 response without
//! `keep-alive`); a stale pooled connection simply burns one retry. The
//! CLI surfaces the retry budget as `lusail query --retries N --backoff
//! MS`. Retries here are *per member*; failing over to a different mirror
//! of the same dataset is the layer above — see
//! [`crate::replica::ReplicaGroup`].
//!
//! [`HttpReader`] is the one HTTP/1.x message reader: deadline- and
//! cancel-aware, it reads responses here and requests in `lusail-server`.
//!
//! Traffic accounting mirrors [`SimulatedEndpoint`](crate::SimulatedEndpoint):
//! requests, bytes on the wire in both directions, and the measured
//! network time (here it is *real* wall-clock time spent on the socket,
//! reported through the same `simulated_network_time` field).

use crate::cancel::CancelToken;
use crate::endpoint::{EndpointError, SparqlEndpoint};
use crate::erh::{Attempt, BreakerConfig, Deadline, EndpointHealth, HealthSnapshot};
use crate::network::{CodecCounters, CodecSnapshot, RequestCounters, TrafficSnapshot};
use crate::results_bin;
use crate::results_json;
use lusail_sparql::ast::Query;
use lusail_store::eval::QueryResult;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A parsed `http://host[:port]/path` endpoint URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Url {
    pub host: String,
    pub port: u16,
    /// Path plus any query string, always starting with `/`.
    pub path: String,
}

impl Url {
    /// Parse an endpoint URL. Only `http` is supported (there is no TLS
    /// stack in a std-only build); `https` URLs are rejected with a clear
    /// message rather than failing mid-handshake.
    pub fn parse(url: &str) -> Result<Url, String> {
        let rest = url.strip_prefix("http://").ok_or_else(|| {
            if url.starts_with("https://") {
                format!("{url}: https is not supported (std-only build has no TLS)")
            } else {
                format!("{url}: expected an http:// URL")
            }
        })?;
        let (authority, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port = p
                    .parse::<u16>()
                    .map_err(|_| format!("{url}: invalid port {p:?}"))?;
                (h, port)
            }
            None => (authority, 80),
        };
        if host.is_empty() {
            return Err(format!("{url}: missing host"));
        }
        Ok(Url {
            host: host.to_string(),
            port,
            path: path.to_string(),
        })
    }

    /// The `Host:` header value (port elided when it is the default 80).
    pub fn host_header(&self) -> String {
        if self.port == 80 {
            self.host.clone()
        } else {
            format!("{}:{}", self.host, self.port)
        }
    }

    fn socket_addr(&self) -> io::Result<SocketAddr> {
        (self.host.as_str(), self.port)
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "host resolved to no address"))
    }
}

impl std::fmt::Display for Url {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http://{}{}", self.host_header(), self.path)
    }
}

/// Client transport settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Overall deadline for one request attempt (send + all reads).
    pub request_timeout: Duration,
    /// Additional attempts after the first, on connect/transport errors
    /// and 5xx responses.
    pub retries: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
    /// Send `GET ?query=…` instead of `POST application/sparql-query`.
    pub use_get: bool,
    /// Row cap applied *while parsing* the streamed response body: a
    /// result-bomb endpoint is rejected after this many rows with the
    /// rest of its body unread, never buffered. `None` disables the cap.
    pub max_result_rows: Option<usize>,
    /// Offer Lusail's compact binary results codec in the `Accept`
    /// header (preferred, with SPARQL-JSON as the q=0.9 fallback). A
    /// foreign endpoint that ignores the offer answers JSON and
    /// everything works; set `false` to force JSON-only negotiation
    /// (baseline measurements, debugging).
    pub offer_binary: bool,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
            retries: 2,
            backoff: Duration::from_millis(50),
            use_get: false,
            max_result_rows: None,
            offer_binary: true,
        }
    }
}

/// The longest request line common HTTP servers accept (Apache's
/// `LimitRequestLine`, nginx's header buffer): the ceiling of a `GET`.
const GET_REQUEST_LINE_MAX: usize = 8192;

/// A remote SPARQL endpoint reached over HTTP.
pub struct HttpEndpoint {
    name: String,
    url: Url,
    config: HttpConfig,
    counters: RequestCounters,
    codec: CodecCounters,
    health: EndpointHealth,
    /// Pooled keep-alive connection, reused across requests.
    conn: Mutex<Option<TcpStream>>,
}

impl HttpEndpoint {
    /// Create an endpoint from a URL string like
    /// `http://127.0.0.1:8890/sparql`.
    pub fn new(name: impl Into<String>, url: &str) -> Result<Self, EndpointError> {
        let name = name.into();
        let url =
            Url::parse(url).map_err(|message| EndpointError::rejected(name.clone(), message))?;
        Ok(HttpEndpoint {
            name,
            url,
            config: HttpConfig::default(),
            counters: RequestCounters::new(),
            codec: CodecCounters::new(),
            health: EndpointHealth::new(BreakerConfig::default()),
            conn: Mutex::new(None),
        })
    }

    /// Override the transport settings.
    pub fn with_config(mut self, config: HttpConfig) -> Self {
        self.config = config;
        self
    }

    /// Override the circuit-breaker tuning.
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.health = EndpointHealth::new(config);
        self
    }

    /// The endpoint URL.
    pub fn url(&self) -> &Url {
        &self.url
    }

    /// One exchange: send the request, read one response before
    /// `deadline`, streaming a 200 body through the capped results parser
    /// as it arrives. Transport failures come back as `Err(io)`; any
    /// complete HTTP response — even a 500 — is `Ok`. The second tuple
    /// element is the wire bytes read.
    fn exchange(
        &self,
        request: &[u8],
        deadline: Instant,
        token: Option<&CancelToken>,
    ) -> io::Result<(AttemptOutcome, usize)> {
        let mut pooled = true;
        let stream = match self.conn.lock().expect("conn lock poisoned").take() {
            Some(s) => s,
            None => {
                pooled = false;
                TcpStream::connect_timeout(&self.url.socket_addr()?, self.config.connect_timeout)?
            }
        };
        stream.set_nodelay(true).ok();
        let result = send_and_read(
            &stream,
            request,
            deadline,
            token,
            self.config.max_result_rows,
        );
        match result {
            Ok((outcome, wire_bytes, reusable)) => {
                // A connection whose body was not drained to its framing
                // boundary (truncated parse, capped error body) still has
                // response bytes in flight — never pool it.
                if reusable {
                    *self.conn.lock().expect("conn lock poisoned") = Some(stream);
                }
                Ok((outcome, wire_bytes))
            }
            Err(e) if pooled => {
                // The server closed our pooled connection between requests;
                // surface as a retryable transport error on a fresh socket.
                Err(io::Error::new(
                    e.kind(),
                    format!("stale pooled connection: {e}"),
                ))
            }
            Err(e) => Err(e),
        }
    }

    /// The `Accept` header value: binary preferred with a JSON fallback
    /// when offering the compact codec, plain SPARQL-JSON otherwise.
    fn accept_header(&self) -> String {
        if self.config.offer_binary {
            format!(
                "{}, {};q=0.9",
                results_bin::MEDIA_TYPE,
                results_json::MEDIA_TYPE
            )
        } else {
            results_json::MEDIA_TYPE.to_string()
        }
    }

    fn build_request(&self, query_text: &str) -> Vec<u8> {
        let host = self.url.host_header();
        if self.config.use_get {
            let sep = if self.url.path.contains('?') {
                '&'
            } else {
                '?'
            };
            format!(
                "GET {}{}query={} HTTP/1.1\r\nHost: {}\r\nAccept: {}\r\nUser-Agent: lusail\r\n\r\n",
                self.url.path,
                sep,
                percent_encode(query_text),
                host,
                self.accept_header(),
            )
            .into_bytes()
        } else {
            let body = query_text.as_bytes();
            let mut req = format!(
                "POST {} HTTP/1.1\r\nHost: {}\r\nAccept: {}\r\nUser-Agent: lusail\r\n\
                 Content-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n",
                self.url.path,
                host,
                self.accept_header(),
                body.len(),
            )
            .into_bytes();
            req.extend_from_slice(body);
            req
        }
    }

    /// One request through the shared attempt loop, returning the result
    /// together with whether the server advertised truncation
    /// (`X-Lusail-Truncated`) on the winning response. `execute_within`
    /// discards the flag; `select_with_meta` surfaces it to the integrity
    /// layer.
    fn execute_meta(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<(QueryResult, bool), EndpointError> {
        let request = self.build_request(&lusail_sparql::serializer::serialize_query(query));
        let (retries, backoff) = (self.config.retries, self.config.backoff);
        let attempt = || self.attempt(&request, &deadline);
        self.health
            .run(&self.name, retries, backoff, &deadline, attempt)
    }

    /// One attempt: an exchange, and what its response comes to. A 5xx or
    /// a broken exchange is a failure worth retrying; a 4xx, a malformed
    /// results document or a result bomb is a rejection of this request.
    fn attempt(&self, request: &[u8], deadline: &Deadline) -> Attempt<(QueryResult, bool)> {
        // Each attempt gets the smaller of the per-attempt timeout and
        // whatever is left of the query budget.
        let started = Instant::now();
        let until = started + deadline.clamp(self.config.request_timeout);
        let (outcome, wire_bytes) = match self.exchange(request, until, deadline.token()) {
            Ok(exchanged) => exchanged,
            Err(e) => {
                self.counters.record(request.len(), 0, started.elapsed());
                return Attempt::Failed(format!("transport error talking to {}: {e}", self.url));
            }
        };
        self.counters
            .record(request.len(), wire_bytes, started.elapsed());
        let rejected =
            |message| Attempt::Answered(Err(EndpointError::rejected(&self.name, message)));
        match outcome {
            AttemptOutcome::Results(streamed, codec, server_truncated) => {
                match codec {
                    ResponseCodec::Binary { dict_terms } => {
                        self.codec.record_binary(wire_bytes, dict_terms)
                    }
                    ResponseCodec::Json => {
                        self.codec.record_json(wire_bytes, self.config.offer_binary)
                    }
                }
                if streamed.truncated {
                    // The cap fired mid-parse: a result bomb. Asking again
                    // yields the same bomb.
                    let cap = self.config.max_result_rows.unwrap_or(0);
                    return rejected(format!(
                        "response from {} exceeded --max-result-rows ({cap}): \
                         truncated while parsing, rest of body unread",
                        self.url
                    ));
                }
                Attempt::Answered(Ok((streamed.result, server_truncated)))
            }
            AttemptOutcome::Malformed(message) => {
                rejected(format!("unparseable results from {}: {message}", self.url))
            }
            AttemptOutcome::Status {
                status: status @ 500..=599,
                body_head,
            } => Attempt::Failed(format!("HTTP {status} from {}: {body_head}", self.url)),
            AttemptOutcome::Status { status, body_head } => {
                rejected(format!("HTTP {status} from {}: {body_head}", self.url))
            }
        }
    }
}

impl SparqlEndpoint for HttpEndpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<QueryResult, EndpointError> {
        Ok(self.execute_meta(query, deadline)?.0)
    }

    fn select_with_meta(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<crate::endpoint::SelectResponse, EndpointError> {
        let (result, truncated) = self.execute_meta(query, deadline)?;
        Ok(crate::endpoint::SelectResponse {
            rows: result.into_solutions(),
            truncated,
        })
    }

    fn set_quarantined(&self, on: bool) {
        self.health.set_quarantined(on);
    }

    /// A `POST` body has no ceiling of the transport's own. A `GET` must
    /// fit its request line, on which any byte of the query may
    /// percent-encode to three.
    fn max_request_bytes(&self) -> Option<usize> {
        self.config.use_get.then(|| {
            let line = "GET ?query= HTTP/1.1\r\n".len() + self.url.path.len();
            GET_REQUEST_LINE_MAX.saturating_sub(line) / 3
        })
    }

    fn traffic(&self) -> TrafficSnapshot {
        self.counters.snapshot()
    }

    fn reset_traffic(&self) {
        self.counters.reset();
    }

    fn health(&self) -> Option<HealthSnapshot> {
        Some(self.health.snapshot())
    }

    fn codec(&self) -> Option<CodecSnapshot> {
        Some(self.codec.snapshot())
    }
}

/// The interesting outcomes of one HTTP attempt, from the caller's point
/// of view. The body of a 200 is consumed *while parsing* — there is no
/// buffered-whole-body representation of a results response any more.
enum AttemptOutcome {
    /// A 200 whose body parsed as a results document (possibly cut short
    /// by the row cap — see [`results_json::StreamedResult::truncated`]),
    /// tagged with the codec the server actually answered in and whether
    /// the *server* advertised that it truncated the result
    /// (`X-Lusail-Truncated` — ground truth for the integrity layer,
    /// distinct from our own client-side parse cap).
    Results(results_json::StreamedResult, ResponseCodec, bool),
    /// A complete 200 whose body is not a results document.
    Malformed(String),
    /// Any non-200 status, with the head of its body for error messages.
    Status { status: u16, body_head: String },
}

/// Which results codec a 200 response was decoded with, per its
/// `Content-Type` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResponseCodec {
    /// SPARQL 1.1 JSON — the universal fallback.
    Json,
    /// Lusail's binary codec, carrying a term dictionary this large.
    Binary { dict_terms: usize },
}

/// Cap on how much of a non-200 error body (or post-document slack) is
/// read: plenty for an error message, useless to a result bomb.
const ERROR_BODY_CAP: usize = 64 * 1024;

fn send_and_read(
    stream: &TcpStream,
    request: &[u8],
    deadline: Instant,
    token: Option<&CancelToken>,
    max_result_rows: Option<usize>,
) -> io::Result<(AttemptOutcome, usize, bool)> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "request deadline exceeded"))?;
    stream.set_write_timeout(Some(remaining))?;
    (&mut &*stream).write_all(request)?;
    (&mut &*stream).flush()?;
    let mut reader = HttpReader::new(stream, deadline, token, 1 << 20);

    let head = reader.read_head()?;
    let status = parse_status_line(&head.start)
        .ok_or_else(|| bad_data(format!("malformed status line {:?}", head.start)))?;
    let encoding = head.get("transfer-encoding");
    let framing = if encoding.is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        Framing::Chunked {
            remaining: 0,
            done: false,
        }
    } else if let Some(v) = head.get("content-length") {
        let bad_length = || bad_data(format!("bad Content-Length {v:?}"));
        Framing::Sized {
            remaining: v.parse().map_err(|_| bad_length())?,
        }
    } else {
        // No framing: the body runs to connection close.
        Framing::Close
    };
    let keep_alive = head.keep_alive() && !matches!(framing, Framing::Close);
    // The server declared the result truncated: ground truth for the
    // integrity layer, distinct from our own parse cap.
    let server_truncated = head
        .get("x-lusail-truncated")
        .is_some_and(|v| !v.eq_ignore_ascii_case("false"));
    let mut body = BodyReader {
        reader: &mut reader,
        framing,
    };

    // Dispatch on the response Content-Type: the binary codec only when
    // the server explicitly declared it, SPARQL-JSON for everything else
    // (including no Content-Type at all) — that IS the foreign-endpoint
    // fallback.
    let binary = head
        .get("content-type")
        .is_some_and(|ct| ct.to_ascii_lowercase().starts_with(results_bin::MEDIA_TYPE));
    let (outcome, drained) = if status == 200 && binary {
        match results_bin::parse_stream(&mut body, max_result_rows) {
            Ok(streamed) => {
                let drained = !streamed.truncated && body.discard(ERROR_BODY_CAP).unwrap_or(false);
                let codec = ResponseCodec::Binary {
                    dict_terms: streamed.dict_terms,
                };
                (
                    AttemptOutcome::Results(
                        results_json::StreamedResult {
                            result: streamed.result,
                            warnings: streamed.warnings,
                            truncated: streamed.truncated,
                        },
                        codec,
                        server_truncated,
                    ),
                    drained,
                )
            }
            Err(results_bin::BinStreamError::Io(e)) => return Err(e),
            Err(results_bin::BinStreamError::Malformed(m)) => (AttemptOutcome::Malformed(m), false),
        }
    } else if status == 200 {
        match results_json::parse_stream(&mut body, max_result_rows) {
            Ok(streamed) => {
                // Reuse the connection only when the body actually ends
                // where the document did (modulo a little slack). A drain
                // error just forfeits pooling; the response already won.
                let drained = !streamed.truncated && body.discard(ERROR_BODY_CAP).unwrap_or(false);
                (
                    AttemptOutcome::Results(streamed, ResponseCodec::Json, server_truncated),
                    drained,
                )
            }
            Err(results_json::StreamError::Io(e)) => return Err(e),
            Err(results_json::StreamError::Malformed(e)) => {
                (AttemptOutcome::Malformed(e.to_string()), false)
            }
        }
    } else {
        let (bytes, complete) = body.read_capped(ERROR_BODY_CAP)?;
        (
            AttemptOutcome::Status {
                status,
                body_head: body_head(&bytes),
            },
            complete,
        )
    };
    Ok((outcome, reader.total, keep_alive && drained))
}

/// The first line of a body, truncated — enough for an error message
/// without dumping a whole document.
fn body_head(bytes: &[u8]) -> String {
    let text = String::from_utf8_lossy(bytes);
    let line = text.lines().next().unwrap_or("");
    let head: String = line.chars().take(160).collect();
    if head.is_empty() {
        "<empty body>".to_string()
    } else {
        head
    }
}

/// The head of one HTTP/1.x message: its start line and header fields.
pub struct Head {
    /// The request line or status line, as sent.
    pub start: String,
    /// Header fields in order, names lowercased and values trimmed.
    headers: Vec<(String, String)>,
}

impl Head {
    /// The value of the last `name` field (`name` lowercased).
    pub fn get(&self, name: &str) -> Option<&str> {
        let mut fields = self.headers.iter().rev();
        fields.find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the connection stays open after this message, on either
    /// end: `Connection: close` or `keep-alive` decide, and without either
    /// HTTP/1.1 keeps it open and HTTP/1.0 closes it. The version is a
    /// status line's first word and a request line's last.
    pub fn keep_alive(&self) -> bool {
        match self.get("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => !(self.start.starts_with("HTTP/1.0 ") || self.start.ends_with(" HTTP/1.0")),
        }
    }
}

fn parse_status_line(line: &str) -> Option<u16> {
    let mut parts = line.split_whitespace();
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    parts.next()?.parse().ok()
}

/// Body framing, decoded incrementally.
enum Framing {
    /// `Content-Length: n` — `remaining` bytes left.
    Sized { remaining: usize },
    /// `Transfer-Encoding: chunked` — `remaining` bytes left in the
    /// current chunk; `done` after the terminal 0-chunk and trailers.
    Chunked { remaining: usize, done: bool },
    /// No framing: the body runs to connection close.
    Close,
}

/// Presents the framed response body as a plain byte stream, so the
/// results parser consumes it incrementally — a result bomb is truncated
/// at the parser without the body ever existing in memory at once.
struct BodyReader<'a, 'b> {
    reader: &'b mut HttpReader<'a>,
    framing: Framing,
}

impl io::Read for BodyReader<'_, '_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        match &mut self.framing {
            Framing::Sized { remaining } => {
                if *remaining == 0 {
                    return Ok(0);
                }
                let want = out.len().min(*remaining);
                let n = self.reader.read(&mut out[..want])?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-body",
                    ));
                }
                *remaining -= n;
                Ok(n)
            }
            Framing::Chunked { remaining, done } => {
                if *done {
                    return Ok(0);
                }
                if *remaining == 0 {
                    let size_line = self.reader.read_line()?;
                    let size_hex = size_line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(size_hex, 16)
                        .map_err(|_| bad_data(format!("bad chunk size {size_line:?}")))?;
                    if size == 0 {
                        // Trailer section, ends with an empty line.
                        while !self.reader.read_line()?.is_empty() {}
                        *done = true;
                        return Ok(0);
                    }
                    *remaining = size;
                }
                let want = out.len().min(*remaining);
                let n = self.reader.read(&mut out[..want])?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-chunk",
                    ));
                }
                *remaining -= n;
                if *remaining == 0 {
                    let crlf = self.reader.read_line()?;
                    if !crlf.is_empty() {
                        return Err(bad_data("chunk data not followed by CRLF"));
                    }
                }
                Ok(n)
            }
            Framing::Close => self.reader.read(out),
        }
    }
}

impl BodyReader<'_, '_> {
    /// Read at most `cap` bytes of the remaining body. Returns the bytes
    /// and whether the body ended within the cap.
    fn read_capped(&mut self, cap: usize) -> io::Result<(Vec<u8>, bool)> {
        use io::Read;
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        while out.len() < cap {
            let want = chunk.len().min(cap - out.len());
            let n = self.read(&mut chunk[..want])?;
            if n == 0 {
                return Ok((out, true));
            }
            out.extend_from_slice(&chunk[..n]);
        }
        let n = self.read(&mut chunk[..1])?;
        out.truncate(cap);
        Ok((out, n == 0))
    }

    /// Discard up to `cap` remaining body bytes; `true` when the body
    /// ended within the cap.
    fn discard(&mut self, cap: usize) -> io::Result<bool> {
        use io::Read;
        let mut thrown = 0usize;
        let mut chunk = [0u8; 4096];
        while thrown <= cap {
            let n = self.read(&mut chunk)?;
            if n == 0 {
                return Ok(true);
            }
            thrown += n;
        }
        Ok(false)
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The buffered HTTP/1.x reader behind both ends of the wire:
/// [`HttpEndpoint`] reads responses with it and `lusail-server` reads
/// requests. Every receive re-arms the socket's read timeout with what is
/// left before [`deadline`](Self::deadline); with a cancel token the wait
/// is cut into 100 ms slices, so a trip aborts a read promptly instead of
/// after the full window. Bytes received past one message stay buffered
/// for the next (a client may pipeline its requests).
pub struct HttpReader<'a> {
    stream: &'a TcpStream,
    buf: Vec<u8>,
    pos: usize,
    /// When the current read must be done by (a server re-arms it per
    /// request).
    pub deadline: Instant,
    token: Option<&'a CancelToken>,
    /// The longest line, and the largest head, accepted.
    line_cap: usize,
    /// Bytes received so far.
    total: usize,
}

impl<'a> HttpReader<'a> {
    /// A reader of `stream` that must be done by `deadline`, gives up when
    /// `token` trips, and refuses a line or head longer than `line_cap`.
    pub fn new(
        stream: &'a TcpStream,
        deadline: Instant,
        token: Option<&'a CancelToken>,
        line_cap: usize,
    ) -> Self {
        HttpReader {
            stream,
            buf: Vec::new(),
            pos: 0,
            deadline,
            token,
            line_cap,
            total: 0,
        }
    }

    /// Whether received bytes are waiting to be read.
    pub fn buffered(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Pull more bytes off the socket; 0 at orderly EOF. Fails with
    /// `TimedOut` once the deadline passes and `ConnectionAborted` once the
    /// token trips (never `Interrupted`, which readers retry).
    pub fn fill(&mut self) -> io::Result<usize> {
        // Consumed bytes go first, so neither a keep-alive session nor a
        // streamed body accumulates.
        self.buf.drain(..self.pos);
        self.pos = 0;
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(reason) = self.token.and_then(|t| t.reason()) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!("read abandoned: query cancelled ({reason})"),
                ));
            }
            let remaining = self
                .deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "read deadline exceeded"))?;
            let window = if self.token.is_some() {
                remaining.min(Duration::from_millis(100))
            } else {
                remaining
            };
            self.stream
                .set_read_timeout(Some(window.max(Duration::from_millis(1))))?;
            match (&mut &*self.stream).read(&mut chunk) {
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    self.total += n;
                    return Ok(n);
                }
                // A lapsed wait is not an error: loop to check the token
                // and the deadline, then wait again.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Read one line, stripping the trailing CRLF (or bare LF).
    fn read_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let end = self.pos + nl;
                let mut line = &self.buf[self.pos..end];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                let text = String::from_utf8_lossy(line).into_owned();
                self.pos = end + 1;
                return Ok(text);
            }
            if self.buf.len() - self.pos > self.line_cap {
                return Err(too_large(self.line_cap));
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-line",
                ));
            }
        }
    }

    /// Read one message head: the start line, then header fields up to the
    /// blank line. A field without a colon is `InvalidData`; a line or a
    /// head past the line cap is `FileTooLarge`.
    pub fn read_head(&mut self) -> io::Result<Head> {
        let start = self.read_line()?;
        let mut left = self.line_cap.saturating_sub(start.len());
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                return Ok(Head { start, headers });
            }
            left = left
                .checked_sub(line.len())
                .ok_or_else(|| too_large(self.line_cap))?;
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad_data(format!("malformed header {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
}

/// Buffered bytes first, then fresh ones off the socket; 0 at orderly EOF.
impl io::Read for HttpReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if !self.buffered() && self.fill()? == 0 {
            return Ok(0);
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn too_large(cap: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::FileTooLarge,
        format!("message head or line over {cap} bytes"),
    )
}

const HEX: &[u8; 16] = b"0123456789ABCDEF";

/// Percent-encode for a URL query component (RFC 3986 unreserved set kept).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xF)] as char);
            }
        }
    }
    out
}

/// Decode a percent-encoded component. With `form`, `+` decodes to space
/// (the `application/x-www-form-urlencoded` convention).
pub fn percent_decode(s: &str, form: bool) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| "truncated percent escape".to_string())?;
                let hex = std::str::from_utf8(hex).map_err(|_| "bad percent escape")?;
                let v = u8::from_str_radix(hex, 16)
                    .map_err(|_| format!("bad percent escape %{hex}"))?;
                out.push(v);
                i += 3;
            }
            b'+' if form => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| "percent-decoded bytes are not UTF-8".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erh::BreakerState;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn url_parsing() {
        let u = Url::parse("http://127.0.0.1:8890/sparql").unwrap();
        assert_eq!(
            (u.host.as_str(), u.port, u.path.as_str()),
            ("127.0.0.1", 8890, "/sparql")
        );
        assert_eq!(u.host_header(), "127.0.0.1:8890");

        let u = Url::parse("http://example.org").unwrap();
        assert_eq!((u.port, u.path.as_str()), (80, "/"));
        assert_eq!(u.host_header(), "example.org");

        assert!(Url::parse("https://example.org/")
            .unwrap_err()
            .contains("TLS"));
        assert!(Url::parse("ftp://example.org/").is_err());
        assert!(Url::parse("http://:80/").is_err());
        assert!(Url::parse("http://h:notaport/").is_err());
    }

    #[test]
    fn percent_round_trip() {
        let q = "SELECT ?s WHERE { ?s <http://x/p> \"a b+c\" } # ünïcödé";
        let enc = percent_encode(q);
        assert!(!enc.contains(' ') && !enc.contains('"'));
        assert_eq!(percent_decode(&enc, false).unwrap(), q);
        // Form decoding turns '+' into space.
        assert_eq!(percent_decode("a+b%20c", true).unwrap(), "a b c");
        assert_eq!(percent_decode("a+b", false).unwrap(), "a+b");
        assert!(percent_decode("%zz", false).is_err());
        assert!(percent_decode("%2", false).is_err());
    }

    /// Spawn a one-shot server that answers each accepted connection with
    /// the canned responses, in order (one response per connection).
    fn canned_server(responses: Vec<Vec<u8>>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for response in responses {
                let (mut sock, _) = listener.accept().unwrap();
                // Drain the request headers (and POST body) minimally.
                let mut reader = BufReader::new(sock.try_clone().unwrap());
                let mut content_length = 0usize;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    let t = line.trim();
                    if let Some(v) = t.to_ascii_lowercase().strip_prefix("content-length:") {
                        content_length = v.trim().parse().unwrap_or(0);
                    }
                    if t.is_empty() {
                        break;
                    }
                }
                if content_length > 0 {
                    let mut body = vec![0u8; content_length];
                    reader.read_exact(&mut body).ok();
                }
                sock.write_all(&response).ok();
                // Connection drops when `sock` goes out of scope.
            }
        });
        (format!("http://{addr}/sparql"), handle)
    }

    fn ok_response(body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
        .into_bytes()
    }

    fn test_config() -> HttpConfig {
        HttpConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(1),
            use_get: false,
            max_result_rows: None,
            offer_binary: true,
        }
    }

    fn ask_query() -> Query {
        lusail_sparql::parse_query("ASK { ?s ?p ?o }").unwrap()
    }

    #[test]
    fn only_a_get_has_a_request_ceiling() {
        let post = HttpEndpoint::new("ep", "http://127.0.0.1:1/sparql").unwrap();
        assert_eq!(post.max_request_bytes(), None);
        let get = post.with_config(HttpConfig {
            use_get: true,
            ..test_config()
        });
        let ceiling = get.max_request_bytes().unwrap();
        // A query at the ceiling fits the line even if every byte escapes.
        let request = get.build_request(&" ".repeat(ceiling));
        let line = request.iter().position(|&b| b == b'\r').unwrap() + 2;
        assert!(line <= GET_REQUEST_LINE_MAX && line + 3 > GET_REQUEST_LINE_MAX);
    }

    #[test]
    fn x_lusail_truncated_header_is_ground_truth() {
        let mut rel =
            lusail_sparql::solution::Relation::new(vec![lusail_sparql::ast::Variable::new("s")]);
        rel.push(vec![Some(lusail_rdf::Term::iri("http://x/a"))]);
        let body = results_json::serialize(&QueryResult::Solutions(rel));
        let with_header = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n\
             X-Lusail-Truncated: true\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
        .into_bytes();
        let (url, server) = canned_server(vec![with_header, ok_response(&body)]);
        let ep = HttpEndpoint::new("t", &url)
            .unwrap()
            .with_config(test_config());
        let q = lusail_sparql::parse_query("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        // The advertisement arrives as metadata, not an error: the rows
        // are delivered and the flag tells the integrity layer to page.
        let resp = ep.select_with_meta(&q, Deadline::none()).unwrap();
        assert!(resp.truncated, "header must surface as ground truth");
        assert_eq!(resp.rows.len(), 1);
        // Without the header, the same body reports no advertisement.
        let resp = ep.select_with_meta(&q, Deadline::none()).unwrap();
        assert!(!resp.truncated);
        server.join().unwrap();
    }

    #[test]
    fn retries_500_then_succeeds() {
        let boolean = results_json::boolean_json(true);
        let (url, server) = canned_server(vec![
            b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 4\r\nConnection: close\r\n\r\noops".to_vec(),
            ok_response(&boolean),
        ]);
        let ep = HttpEndpoint::new("flaky", &url)
            .unwrap()
            .with_config(test_config());
        assert!(ep.ask(&ask_query()).unwrap());
        let t = ep.traffic();
        assert_eq!(t.requests, 2, "the 500 attempt must be counted too");
        assert!(t.simulated_network_time > Duration::ZERO);
        server.join().unwrap();
    }

    #[test]
    fn exhausted_retries_surface_endpoint_error() {
        let five_hundred =
            b"HTTP/1.1 503 Unavailable\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy"
                .to_vec();
        let (url, server) = canned_server(vec![
            five_hundred.clone(),
            five_hundred.clone(),
            five_hundred,
        ]);
        let ep = HttpEndpoint::new("down", &url)
            .unwrap()
            .with_config(test_config());
        let err = ep.execute(&ask_query()).unwrap_err();
        assert_eq!(err.endpoint, "down");
        assert!(err.message.contains("3 attempts"), "{err}");
        assert!(err.message.contains("503"), "{err}");
        server.join().unwrap();
    }

    #[test]
    fn client_error_is_not_retried() {
        let (url, server) = canned_server(vec![
            b"HTTP/1.1 400 Bad Request\r\nContent-Length: 9\r\nConnection: close\r\n\r\nbad query"
                .to_vec(),
        ]);
        let ep = HttpEndpoint::new("strict", &url)
            .unwrap()
            .with_config(test_config());
        let err = ep.execute(&ask_query()).unwrap_err();
        assert!(err.message.contains("400"), "{err}");
        assert!(err.message.contains("bad query"), "{err}");
        assert_eq!(ep.traffic().requests, 1, "4xx must not be retried");
        server.join().unwrap();
    }

    #[test]
    fn connection_drop_mid_response_is_retried() {
        let boolean = results_json::boolean_json(false);
        let truncated = b"HTTP/1.1 200 OK\r\nContent-Length: 9999\r\n\r\n{\"head\":".to_vec();
        let (url, server) = canned_server(vec![truncated, ok_response(&boolean)]);
        let ep = HttpEndpoint::new("drops", &url)
            .unwrap()
            .with_config(test_config());
        assert!(!ep.ask(&ask_query()).unwrap());
        assert_eq!(ep.traffic().requests, 2);
        server.join().unwrap();
    }

    #[test]
    fn unparseable_results_are_rejected_not_retried() {
        // Well-framed HTTP, but a binding value that is not a term object.
        let body = r#"{"head":{"vars":["s"]},"results":{"bindings":[{"s":42}]}}"#;
        let (url, server) = canned_server(vec![ok_response(body)]);
        let ep = HttpEndpoint::new("garbage", &url)
            .unwrap()
            .with_config(test_config());
        let q = lusail_sparql::parse_query("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        let err = ep.execute(&q).unwrap_err();
        assert_eq!(err.kind, crate::FailureKind::Rejected, "{err}");
        assert!(err.message.contains("unparseable"), "{err}");
        assert_eq!(ep.traffic().requests, 1, "a bad body must not be retried");
        let h = ep.health().unwrap();
        assert_eq!(h.failures, 0, "the transport worked: no breaker strike");
        assert_eq!(h.breaker, BreakerState::Closed);
        server.join().unwrap();
    }

    #[test]
    fn malformed_http_is_a_transport_error() {
        let (url, server) = canned_server(vec![b"NOT HTTP AT ALL\r\n\r\n".to_vec(); 3]);
        let ep = HttpEndpoint::new("garbled", &url)
            .unwrap()
            .with_config(test_config());
        let err = ep.execute(&ask_query()).unwrap_err();
        assert!(err.message.contains("malformed status line"), "{err}");
        server.join().unwrap();
    }

    #[test]
    fn chunked_responses_are_reassembled() {
        let boolean = results_json::boolean_json(true);
        let (a, b) = boolean.split_at(boolean.len() / 2);
        let chunked = format!(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
             {:x}\r\n{}\r\n{:x}\r\n{}\r\n0\r\n\r\n",
            a.len(),
            a,
            b.len(),
            b
        );
        let (url, server) = canned_server(vec![chunked.into_bytes()]);
        let ep = HttpEndpoint::new("chunky", &url)
            .unwrap()
            .with_config(test_config());
        assert!(ep.ask(&ask_query()).unwrap());
        server.join().unwrap();
    }

    #[test]
    fn row_cap_truncates_result_bomb_while_parsing() {
        use lusail_sparql::ast::Variable;
        // A hostile endpoint declares a gigantic body and streams rows
        // until the client hangs up. With --max-result-rows the client
        // must reject after the cap with the rest of the body unread —
        // if it tried to buffer the response this test would never end.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(sock.try_clone().unwrap());
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 || line.trim().is_empty() {
                    break;
                }
            }
            let vars = [Variable::new("x")];
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: {}\r\nContent-Length: 999999999\r\n\r\n{}",
                results_json::MEDIA_TYPE,
                results_json::head_json(&vars),
            );
            sock.write_all(head.as_bytes()).unwrap();
            let mut written = 0usize;
            for i in 0u64.. {
                let row = vec![Some(lusail_rdf::Term::iri(format!("http://bomb/{i}")))];
                let sep = if i == 0 { "" } else { "," };
                let mut payload = sep.to_string();
                results_json::write_binding(&mut payload, &vars, &row);
                written += payload.len();
                if sock.write_all(payload.as_bytes()).is_err() {
                    break; // the client hung up — exactly what we want
                }
            }
            written
        });
        let ep = HttpEndpoint::new("bomb", &format!("http://{addr}/sparql"))
            .unwrap()
            .with_config(HttpConfig {
                retries: 0,
                max_result_rows: Some(8),
                ..test_config()
            });
        let q = lusail_sparql::parse_query("SELECT ?x WHERE { ?s ?p ?x }").unwrap();
        let err = ep.execute(&q).unwrap_err();
        assert!(err.message.contains("--max-result-rows (8)"), "{err}");
        assert!(err.message.contains("unread"), "{err}");
        drop(ep); // closes the socket so the server thread stops writing
        let written = server.join().unwrap();
        assert!(
            written < 4 << 20,
            "server should hit a closed socket early, wrote {written} bytes"
        );
    }

    #[test]
    fn streamed_solutions_round_trip_and_pool_the_connection() {
        use lusail_sparql::ast::Variable;
        let vars = [Variable::new("x")];
        let mut doc = results_json::head_json(&vars);
        for i in 0..3 {
            if i > 0 {
                doc.push(',');
            }
            let row = vec![Some(lusail_rdf::Term::iri(format!("http://x/{i}")))];
            results_json::write_binding(&mut doc, &vars, &row);
        }
        doc.push_str(results_json::SOLUTIONS_TAIL);
        // Two keep-alive responses on ONE connection: the second request
        // only works if the first body was fully drained and pooled.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let body = doc.clone();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(sock.try_clone().unwrap());
            for _ in 0..2 {
                let mut content_length = 0usize;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    let t = line.trim();
                    if let Some(v) = t.to_ascii_lowercase().strip_prefix("content-length:") {
                        content_length = v.trim().parse().unwrap_or(0);
                    }
                    if t.is_empty() {
                        break;
                    }
                }
                if content_length > 0 {
                    let mut b = vec![0u8; content_length];
                    reader.read_exact(&mut b).ok();
                }
                sock.write_all(
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    )
                    .as_bytes(),
                )
                .unwrap();
            }
        });
        let ep = HttpEndpoint::new("pooled", &format!("http://{addr}/sparql"))
            .unwrap()
            .with_config(test_config());
        let q = lusail_sparql::parse_query("SELECT ?x WHERE { ?s ?p ?x }").unwrap();
        for _ in 0..2 {
            let rel = ep.select(&q).unwrap();
            assert_eq!(rel.len(), 3);
            assert_eq!(rel.rows()[2][0], Some(lusail_rdf::Term::iri("http://x/2")));
        }
        server.join().unwrap();
    }

    #[test]
    fn unreachable_endpoint_reports_transport_error() {
        // A bound-then-dropped listener leaves a port nothing listens on.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let ep = HttpEndpoint::new("nobody", &format!("http://127.0.0.1:{port}/sparql"))
            .unwrap()
            .with_config(HttpConfig {
                retries: 1,
                ..test_config()
            });
        let err = ep.execute(&ask_query()).unwrap_err();
        assert!(err.message.contains("transport error"), "{err}");
        assert_eq!(err.kind, crate::FailureKind::Transport);
        assert_eq!(ep.traffic().requests, 2);
    }

    #[test]
    fn open_breaker_fails_fast_without_touching_the_network() {
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let ep = HttpEndpoint::new("dead", &format!("http://127.0.0.1:{port}/sparql"))
            .unwrap()
            .with_config(test_config())
            .with_breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_secs(30),
                ewma_alpha: 0.2,
            });
        // First call burns the retry budget (3 attempts) and opens the
        // breaker; the second fails fast with no new traffic.
        let err = ep.execute(&ask_query()).unwrap_err();
        assert_eq!(err.kind, crate::FailureKind::Transport);
        let requests_after_first = ep.traffic().requests;
        assert_eq!(requests_after_first, 3);

        let started = Instant::now();
        let err = ep.execute(&ask_query()).unwrap_err();
        assert_eq!(err.kind, crate::FailureKind::CircuitOpen);
        assert!(err.message.contains("circuit breaker open"), "{err}");
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "must not dial"
        );
        assert_eq!(ep.traffic().requests, requests_after_first);

        let h = ep.health().unwrap();
        assert_eq!(h.breaker, BreakerState::Open);
        assert_eq!(h.failures, 3);
        assert_eq!(h.open_rejections, 1);
    }

    #[test]
    fn breaker_recovers_via_half_open_probe() {
        let boolean = results_json::boolean_json(true);
        let (url, server) = canned_server(vec![ok_response(&boolean)]);
        // Open the breaker by hand, with a cooldown short enough to lapse.
        let ep = HttpEndpoint::new("flappy", &url)
            .unwrap()
            .with_config(test_config())
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(30),
                ewma_alpha: 0.2,
            });
        ep.health.record_failure();
        ep.health.record_failure();
        assert_eq!(ep.health().unwrap().breaker, BreakerState::Open);
        assert!(matches!(
            ep.execute(&ask_query()),
            Err(e) if e.kind == crate::FailureKind::CircuitOpen
        ));
        std::thread::sleep(Duration::from_millis(40));
        // The cooldown elapsed: the next request is the probe, it
        // succeeds, and the breaker closes again.
        assert!(ep.ask(&ask_query()).unwrap());
        assert_eq!(ep.health().unwrap().breaker, BreakerState::Closed);
        server.join().unwrap();
    }

    #[test]
    fn expired_deadline_fails_before_dialling() {
        let (url, _server) = canned_server(vec![]);
        let ep = HttpEndpoint::new("late", &url)
            .unwrap()
            .with_config(test_config());
        let err = ep
            .execute_within(&ask_query(), Deadline::within(Duration::ZERO))
            .unwrap_err();
        assert_eq!(err.kind, crate::FailureKind::Deadline);
        assert_eq!(ep.traffic().requests, 0);
    }

    #[test]
    fn deadline_clamps_the_attempt_timeout() {
        // A server that accepts but never answers: the attempt must give
        // up when the query budget lapses, long before request_timeout.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let conns: Vec<_> = (0..1).filter_map(|_| listener.accept().ok()).collect();
            std::thread::sleep(Duration::from_millis(300));
            drop(conns);
        });
        let ep = HttpEndpoint::new("silent", &format!("http://{addr}/sparql"))
            .unwrap()
            .with_config(HttpConfig {
                request_timeout: Duration::from_secs(30),
                retries: 2,
                ..test_config()
            });
        let started = Instant::now();
        let err = ep
            .execute_within(&ask_query(), Deadline::within(Duration::from_millis(60)))
            .unwrap_err();
        assert_eq!(err.kind, crate::FailureKind::Deadline, "{err}");
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "query budget must clip the 30 s per-attempt timeout: {:?}",
            started.elapsed()
        );
        server.join().unwrap();
    }

    #[test]
    fn an_http_1_0_connection_is_not_pooled() {
        // HTTP/1.0 closes after the response unless it says keep-alive.
        // Pooling the socket anyway sends the next request into a closed
        // connection: a breaker strike and a retry for nothing.
        let boolean = results_json::boolean_json(true);
        let http_1_0 = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: application/sparql-results+json\r\n\
             Content-Length: {}\r\n\r\n{}",
            boolean.len(),
            boolean
        )
        .into_bytes();
        let (url, server) = canned_server(vec![http_1_0.clone(), http_1_0]);
        let ep = HttpEndpoint::new("old", &url)
            .unwrap()
            .with_config(test_config());
        for _ in 0..2 {
            assert!(ep.ask(&ask_query()).unwrap());
        }
        let h = ep.health().unwrap();
        assert_eq!((h.failures, h.retries, ep.traffic().requests), (0, 0, 2));
        server.join().unwrap();
    }

    /// One failure script through two transports: a `FaultyEndpoint` that
    /// drops twice and an `HttpEndpoint` answered 503 twice retry, count
    /// and give up alike, because both run `EndpointHealth::run`.
    #[test]
    fn faulty_and_http_transports_share_one_attempt_loop() {
        use crate::endpoint::SimulatedEndpoint;
        use crate::fault::{roll, FaultProfile, FaultyConfig, FaultyEndpoint};
        use crate::network::NetworkProfile;
        use std::sync::Arc;
        let faulty = |seed: u64, profile: FaultProfile| {
            let store = lusail_store::Store::from_graph(&lusail_rdf::Graph::new());
            let inner = SimulatedEndpoint::new("sim", store, NetworkProfile::instant());
            FaultyEndpoint::with_config(Arc::new(inner), seed, profile, FaultyConfig::default())
        };
        let counters = |h: HealthSnapshot| (h.requests, h.failures, h.retries, h.breaker);
        let busy =
            b"HTTP/1.1 503 Unavailable\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy";

        // Drop, drop, answer: the first seed whose stream at a drop rate of
        // one half reads that way.
        let drops = |mut rng: u64| [(); 3].map(|_| roll(&mut rng) < 0.5);
        let seed = (0..).find(|&s| drops(s) == [true, true, false]).unwrap();
        let sim = faulty(
            seed,
            FaultProfile {
                drop_rate: 0.5,
                ..FaultProfile::none()
            },
        );
        assert!(sim.ask(&ask_query()).is_ok());
        let (url, server) = canned_server(vec![
            busy.to_vec(),
            busy.to_vec(),
            ok_response(&results_json::boolean_json(true)),
        ]);
        let http = HttpEndpoint::new("http", &url)
            .unwrap()
            .with_config(test_config());
        assert!(http.ask(&ask_query()).unwrap());
        server.join().unwrap();
        let recovered = (1, 2, 2, BreakerState::Closed);
        assert_eq!(counters(sim.health().unwrap()), recovered);
        assert_eq!(counters(http.health().unwrap()), recovered);

        // Every attempt failing: both give up after the same three.
        let sim = faulty(seed, FaultProfile::hard_down());
        let (url, server) = canned_server(vec![busy.to_vec(); 3]);
        let http = HttpEndpoint::new("http", &url)
            .unwrap()
            .with_config(test_config());
        for err in [sim.ask(&ask_query()), http.ask(&ask_query())].map(Result::unwrap_err) {
            assert_eq!(err.kind, crate::FailureKind::Transport, "{err}");
            assert!(
                err.message.starts_with("giving up after 3 attempts: "),
                "{err}"
            );
        }
        server.join().unwrap();
        assert_eq!(
            counters(sim.health().unwrap()),
            counters(http.health().unwrap())
        );
    }

    #[test]
    fn a_cancel_mid_body_ends_the_read() {
        use crate::cancel::CancelReason;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let token = CancelToken::new();
        // A head and the start of a body, then the cancel while the client
        // waits for the rest: only the token can end the read.
        let server = std::thread::spawn({
            let token = token.clone();
            move || {
                let (mut sock, _) = listener.accept().unwrap();
                let partial = b"HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\r\n{\"head\":";
                sock.write_all(partial).unwrap();
                std::thread::sleep(Duration::from_millis(50));
                token.cancel(CancelReason::AdminCancelled);
                // Hold the socket open until the client hangs up.
                std::io::copy(&mut sock, &mut std::io::sink()).ok();
            }
        });
        let ep = HttpEndpoint::new("stalls", &format!("http://{addr}/sparql"))
            .unwrap()
            .with_config(test_config());
        let err = ep
            .execute_within(&ask_query(), Deadline::none().with_token(token))
            .unwrap_err();
        assert_eq!(err.kind, crate::FailureKind::Cancelled, "{err}");
        server.join().unwrap();
    }
}
