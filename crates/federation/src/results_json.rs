//! SPARQL 1.1 Query Results JSON Format (W3C REC, 2013-03-21).
//!
//! One codec shared by both ends of the wire: `lusail-server` serializes
//! [`QueryResult`]s with it and the HTTP client transport
//! ([`crate::http::HttpEndpoint`]) parses them back. Round-tripping is
//! lossless for every term kind (IRI, blank node, plain/typed/language-
//! tagged literal) and preserves bag semantics and row order, so HTTP
//! federation yields bit-identical solutions to the in-process path.
//!
//! Serialization is exposed piecewise (`head_json` / [`write_binding`] /
//! [`SOLUTIONS_TAIL`]) so the server can stream large result sets row by
//! row without materializing the whole document. Both directions move
//! runs, not bytes: the encoder appends every string into one buffer with
//! [`escape_into`], copying each stretch that needs no escape whole, and
//! the streaming decoder copies each stretch up to the next quote,
//! backslash or control byte out of its read buffer at once.

use crate::json::{escape_into, plain_run, Json, JsonError};
use lusail_rdf::{Literal, Term};
use lusail_sparql::ast::Variable;
use lusail_sparql::solution::{Relation, Row};
use lusail_store::eval::QueryResult;
use std::sync::Arc;

/// The media type of this format.
pub const MEDIA_TYPE: &str = "application/sparql-results+json";

/// Closes the document opened by [`head_json`].
pub const SOLUTIONS_TAIL: &str = "]}}";

/// The opening of a solutions document: `head` plus the start of the
/// `results.bindings` array. Append [`write_binding`] rows (comma-separated)
/// and [`SOLUTIONS_TAIL`] to complete it.
pub fn head_json(vars: &[Variable]) -> String {
    head_json_with_warnings(vars, &[])
}

/// Like [`head_json`], but carrying execution warnings (the
/// partial-results contract: a degraded answer names what it is missing).
/// The `"warnings"` array is a Lusail extension to the head; conforming
/// consumers ignore unknown head members, and [`parse_full`] surfaces it.
pub fn head_json_with_warnings(vars: &[Variable], warnings: &[String]) -> String {
    let mut out = String::from("{\"head\":{\"vars\":[");
    for (i, v) in vars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_string(&mut out, v.name());
    }
    out.push(']');
    if !warnings.is_empty() {
        out.push_str(",\"warnings\":[");
        for (i, w) in warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_string(&mut out, w);
        }
        out.push(']');
    }
    out.push_str("},\"results\":{\"bindings\":[");
    out
}

/// Append one solution to `out` as a binding object. Unbound variables
/// are omitted, per the spec.
pub fn write_binding(out: &mut String, vars: &[Variable], row: &Row) {
    out.push('{');
    let mut first = true;
    for (v, cell) in vars.iter().zip(row) {
        let Some(term) = cell else { continue };
        if !first {
            out.push(',');
        }
        first = false;
        push_string(out, v.name());
        out.push(':');
        write_term(out, term);
    }
    out.push('}');
}

/// An `ASK` result document.
pub fn boolean_json(value: bool) -> String {
    format!("{{\"head\":{{}},\"boolean\":{value}}}")
}

/// Append `s` as a JSON string literal, quotes included.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append one RDF term as a SPARQL-results JSON object.
fn write_term(out: &mut String, term: &Term) {
    let (kind, value) = match term {
        Term::Iri(iri) => ("{\"type\":\"uri\",\"value\":", iri),
        Term::BlankNode(label) => ("{\"type\":\"bnode\",\"value\":", label),
        Term::Literal(lit) => ("{\"type\":\"literal\",\"value\":", &lit.lexical),
    };
    out.push_str(kind);
    push_string(out, value);
    if let Term::Literal(lit) = term {
        if let Some(lang) = &lit.language {
            out.push_str(",\"xml:lang\":");
            push_string(out, lang);
        } else if let Some(dt) = &lit.datatype {
            out.push_str(",\"datatype\":");
            push_string(out, dt);
        }
    }
    out.push('}');
}

/// Serialize a full result document (non-streaming convenience; the server
/// streams the same pieces instead).
pub fn serialize(result: &QueryResult) -> String {
    match result {
        QueryResult::Boolean(b) => boolean_json(*b),
        QueryResult::Solutions(rel) => {
            let mut out = head_json(rel.vars());
            for (i, row) in rel.rows().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_binding(&mut out, rel.vars(), row);
            }
            out.push_str(SOLUTIONS_TAIL);
            out
        }
    }
}

/// Parse a SPARQL JSON results document into a [`QueryResult`].
///
/// Variables come from `head.vars` in document order; bindings mentioning
/// a variable absent from the head are rejected (a malformed server).
pub fn parse(text: &str) -> Result<QueryResult, ResultsJsonError> {
    Ok(parse_full(text)?.0)
}

/// Like [`parse`], but also returning any `head.warnings` the server
/// attached (empty for standard documents).
pub fn parse_full(text: &str) -> Result<(QueryResult, Vec<String>), ResultsJsonError> {
    let doc = Json::parse(text)?;
    let warnings: Vec<String> = doc
        .get("head")
        .and_then(|h| h.get("warnings"))
        .and_then(Json::as_array)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| w.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    Ok((parse_result(&doc)?, warnings))
}

fn parse_result(doc: &Json) -> Result<QueryResult, ResultsJsonError> {
    if let Some(b) = doc.get("boolean") {
        let b = b
            .as_bool()
            .ok_or_else(|| ResultsJsonError::shape("\"boolean\" must be true or false"))?;
        return Ok(QueryResult::Boolean(b));
    }

    let vars: Vec<Variable> = doc
        .get("head")
        .and_then(|h| h.get("vars"))
        .and_then(Json::as_array)
        .ok_or_else(|| ResultsJsonError::shape("missing head.vars"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(Variable::new)
                .ok_or_else(|| ResultsJsonError::shape("head.vars entries must be strings"))
        })
        .collect::<Result<_, _>>()?;

    let bindings = doc
        .get("results")
        .and_then(|r| r.get("bindings"))
        .and_then(Json::as_array)
        .ok_or_else(|| ResultsJsonError::shape("missing results.bindings"))?;

    let mut rel = Relation::new(vars.clone());
    for binding in bindings {
        let Json::Object(fields) = binding else {
            return Err(ResultsJsonError::shape("bindings entries must be objects"));
        };
        let mut row: Row = vec![None; vars.len()];
        for (name, value) in fields {
            let idx = vars.iter().position(|v| v.name() == name).ok_or_else(|| {
                ResultsJsonError::shape(format!("binding for ?{name} not declared in head.vars"))
            })?;
            row[idx] = Some(parse_term(value)?);
        }
        rel.push(row);
    }
    Ok(QueryResult::Solutions(rel))
}

fn parse_term(value: &Json) -> Result<Term, ResultsJsonError> {
    let kind = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| ResultsJsonError::shape("term object missing \"type\""))?;
    let lexical = value
        .get("value")
        .and_then(Json::as_str)
        .ok_or_else(|| ResultsJsonError::shape("term object missing \"value\""))?;
    match kind {
        "uri" => Ok(Term::iri(lexical)),
        "bnode" => Ok(Term::bnode(lexical)),
        // "typed-literal" is the legacy alias some servers still emit.
        "literal" | "typed-literal" => {
            let language = value.get("xml:lang").and_then(Json::as_str).map(Arc::from);
            let datatype = if language.is_some() {
                None
            } else {
                value.get("datatype").and_then(Json::as_str).map(Arc::from)
            };
            Ok(Term::Literal(Literal {
                lexical: lexical.into(),
                datatype,
                language,
            }))
        }
        other => Err(ResultsJsonError::shape(format!(
            "unknown term type {other:?}"
        ))),
    }
}

/// The outcome of a streaming parse: the result, any `head.warnings`, and
/// whether the row cap cut the document short.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedResult {
    pub result: QueryResult,
    pub warnings: Vec<String>,
    /// `true` when `max_rows` stopped the parse before the bindings array
    /// ended — the rest of the input was *not consumed*.
    pub truncated: bool,
}

/// Why a streaming parse stopped: the transport failed mid-body, or the
/// bytes that did arrive are not a results document.
#[derive(Debug)]
pub enum StreamError {
    Io(std::io::Error),
    Malformed(ResultsJsonError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "read error mid-results: {e}"),
            StreamError::Malformed(e) => write!(f, "{e}"),
        }
    }
}

/// Parse a results document incrementally from a byte stream, holding at
/// most `max_rows` rows (plus the parser's fixed-size read buffer) in
/// memory. On hitting the cap the parse returns immediately with
/// `truncated: true` and the remaining input *unread* — a result-bomb
/// body is cut off while parsing, never buffered whole.
///
/// Streaming constraint: `head.vars` must precede `results.bindings`
/// (the order both the W3C examples and this crate's serializer emit;
/// rows cannot be decoded before the header names their columns).
pub fn parse_stream<R: std::io::Read>(
    reader: R,
    max_rows: Option<usize>,
) -> Result<StreamedResult, StreamError> {
    StreamParser::new(reader).parse_document(max_rows)
}

/// [`parse_stream`] over an in-memory document (the simulated-transport
/// and test entry point; a byte slice never yields an I/O error).
pub fn parse_capped(
    text: &str,
    max_rows: Option<usize>,
) -> Result<StreamedResult, ResultsJsonError> {
    parse_stream(text.as_bytes(), max_rows).map_err(|e| match e {
        StreamError::Malformed(e) => e,
        StreamError::Io(e) => ResultsJsonError::shape(format!("read error: {e}")),
    })
}

/// Nesting cap for skipped (unknown) values, mirroring the DOM parser's
/// guard against degenerate nesting.
const STREAM_MAX_DEPTH: usize = 64;

/// What an unpaired surrogate escape decodes to: U+FFFD.
const REPLACEMENT: &[u8] = "\u{FFFD}".as_bytes();

/// A term object's `"type"`, kept until the object closes (a later
/// `"type"` member overrides an earlier one).
enum TermKind {
    Uri,
    Bnode,
    Literal,
    Unknown(String),
}

struct StreamParser<R: std::io::Read> {
    reader: R,
    buf: [u8; 8192],
    pos: usize,
    len: usize,
    offset: usize,
    eof: bool,
    /// The one reused buffer a string — key, type name, value — is
    /// unescaped into when it holds an escape or spans two reads. Either
    /// way a term's value is copied once more, into its `Arc<str>`.
    scratch: Vec<u8>,
    /// The last datatype IRI decoded: a typed column repeats one, so the
    /// next equal IRI shares it instead of allocating.
    datatype: Option<Arc<str>>,
}

impl<R: std::io::Read> StreamParser<R> {
    fn new(reader: R) -> Self {
        StreamParser {
            reader,
            buf: [0; 8192],
            pos: 0,
            len: 0,
            offset: 0,
            eof: false,
            scratch: Vec::new(),
            datatype: None,
        }
    }

    fn shape(&self, msg: impl std::fmt::Display) -> StreamError {
        StreamError::Malformed(ResultsJsonError::shape(format!(
            "{msg} at offset {}",
            self.offset
        )))
    }

    fn fill(&mut self) -> Result<(), StreamError> {
        if self.pos < self.len || self.eof {
            return Ok(());
        }
        self.refill()
    }

    #[cold]
    fn refill(&mut self) -> Result<(), StreamError> {
        loop {
            match self.reader.read(&mut self.buf) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.pos = 0;
                    self.len = n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(StreamError::Io(e)),
            }
        }
    }

    fn peek(&mut self) -> Result<Option<u8>, StreamError> {
        self.fill()?;
        Ok((self.pos < self.len).then(|| self.buf[self.pos]))
    }

    fn bump(&mut self) -> Result<Option<u8>, StreamError> {
        let b = self.peek()?;
        if b.is_some() {
            self.advance(1);
        }
        Ok(b)
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.offset += n;
    }

    fn skip_ws(&mut self) -> Result<(), StreamError> {
        loop {
            self.fill()?;
            let window = &self.buf[self.pos..self.len];
            let ws = window
                .iter()
                .take_while(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
                .count();
            let to_the_end = ws == window.len();
            self.advance(ws);
            if !to_the_end || self.eof {
                return Ok(());
            }
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), StreamError> {
        match self.bump()? {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(self.shape(format_args!(
                "expected {:?}, found {:?}",
                want as char, b as char
            ))),
            None => Err(self.shape("unexpected end of document")),
        }
    }

    /// Consume a keyword like `true` / `false` / `null`.
    fn expect_keyword(&mut self, word: &str) -> Result<(), StreamError> {
        for want in word.bytes() {
            match self.bump()? {
                Some(b) if b == want => {}
                _ => return Err(self.shape(format_args!("expected {word:?}"))),
            }
        }
        Ok(())
    }

    /// Read a JSON string (opening quote not yet consumed) and return it,
    /// validated as UTF-8. A string that lies whole in the read buffer
    /// without an escape is returned from there, uncopied. Any other is
    /// unescaped into `scratch`: each run up to the next quote, backslash
    /// or control byte is copied in one piece; only escapes go byte by
    /// byte.
    fn string(&mut self) -> Result<&str, StreamError> {
        self.expect(b'"')?;
        self.scratch.clear();
        // A high surrogate escape still waiting for its low half.
        let mut high: Option<u32> = None;
        loop {
            self.fill()?;
            let window = &self.buf[self.pos..self.len];
            let run = plain_run(window);
            if window.get(run) == Some(&b'"') && self.scratch.is_empty() && high.is_none() {
                let start = self.pos;
                self.advance(run + 1);
                return std::str::from_utf8(&self.buf[start..start + run])
                    .map_err(|_| self.shape("invalid UTF-8 in string"));
            }
            if run > 0 {
                if high.take().is_some() {
                    self.scratch.extend_from_slice(REPLACEMENT);
                }
                self.scratch.extend_from_slice(&window[..run]);
                self.advance(run);
                continue;
            }
            match self.bump()? {
                None => return Err(self.shape("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => self.unescape(&mut high)?,
                Some(_) => return Err(self.shape("raw control character in string")),
            }
        }
        if high.is_some() {
            self.scratch.extend_from_slice(REPLACEMENT);
        }
        std::str::from_utf8(&self.scratch).map_err(|_| self.shape("invalid UTF-8 in string"))
    }

    /// One escape, its backslash consumed, appended to `scratch`. A pending
    /// `high` surrogate followed by anything but a low surrogate escape
    /// becomes U+FFFD, as does a lone low surrogate.
    fn unescape(&mut self, high: &mut Option<u32>) -> Result<(), StreamError> {
        let simple = match self.bump()? {
            None => return Err(self.shape("unterminated escape")),
            Some(b'"') => b'"',
            Some(b'\\') => b'\\',
            Some(b'/') => b'/',
            Some(b'b') => 0x08,
            Some(b'f') => 0x0C,
            Some(b'n') => b'\n',
            Some(b'r') => b'\r',
            Some(b't') => b'\t',
            Some(b'u') => {
                let unit = self.hex4()?;
                if let Some(h) = high.take() {
                    if (0xDC00..=0xDFFF).contains(&unit) {
                        self.push_char(0x10000 + ((h - 0xD800) << 10) + (unit - 0xDC00));
                        return Ok(());
                    }
                    self.scratch.extend_from_slice(REPLACEMENT);
                }
                if (0xD800..=0xDBFF).contains(&unit) {
                    *high = Some(unit);
                } else {
                    self.push_char(unit);
                }
                return Ok(());
            }
            Some(_) => return Err(self.shape("bad escape")),
        };
        if high.take().is_some() {
            self.scratch.extend_from_slice(REPLACEMENT);
        }
        self.scratch.push(simple);
        Ok(())
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, StreamError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.bump()?.and_then(|h| (h as char).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.shape("bad \\u escape"))?;
        }
        Ok(code)
    }

    /// Append the scalar `code` as UTF-8 (U+FFFD for a surrogate).
    fn push_char(&mut self, code: u32) {
        let c = char::from_u32(code).unwrap_or('\u{FFFD}');
        let mut utf8 = [0u8; 4];
        self.scratch
            .extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
    }

    /// One object member's key and its `:`. Returns the entry of `names`
    /// equal to the key, `None` for any other key.
    fn member(&mut self, names: &[&'static str]) -> Result<Option<&'static str>, StreamError> {
        self.skip_ws()?;
        let key = self.string()?.as_bytes();
        let found = names.iter().copied().find(|n| n.as_bytes() == key);
        self.skip_ws()?;
        self.expect(b':')?;
        Ok(found)
    }

    /// A datatype IRI as a shared string: equal to the previous one, it is
    /// that one again.
    fn datatype(&mut self) -> Result<Arc<str>, StreamError> {
        let last = self.datatype.take();
        let iri = match (last, self.string()?) {
            (Some(last), iri) if *last == *iri => last,
            (_, iri) => Arc::from(iri),
        };
        self.datatype = Some(iri.clone());
        Ok(iri)
    }

    /// Skip any JSON value without materializing it.
    fn skip_value(&mut self, depth: usize) -> Result<(), StreamError> {
        if depth > STREAM_MAX_DEPTH {
            return Err(self.shape("nesting too deep"));
        }
        self.skip_ws()?;
        match self.peek()? {
            None => Err(self.shape("unexpected end of document")),
            Some(b'"') => self.string().map(drop),
            Some(b'{') => {
                self.bump()?;
                self.skip_ws()?;
                if self.peek()? == Some(b'}') {
                    self.bump()?;
                    return Ok(());
                }
                loop {
                    self.member(&[])?;
                    self.skip_value(depth + 1)?;
                    self.skip_ws()?;
                    match self.bump()? {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(()),
                        _ => return Err(self.shape("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.bump()?;
                self.skip_ws()?;
                if self.peek()? == Some(b']') {
                    self.bump()?;
                    return Ok(());
                }
                loop {
                    self.skip_value(depth + 1)?;
                    self.skip_ws()?;
                    match self.bump()? {
                        Some(b',') => continue,
                        Some(b']') => return Ok(()),
                        _ => return Err(self.shape("expected ',' or ']'")),
                    }
                }
            }
            Some(b't') => self.expect_keyword("true"),
            Some(b'f') => self.expect_keyword("false"),
            Some(b'n') => self.expect_keyword("null"),
            Some(b'-' | b'0'..=b'9') => {
                while let Some(b) = self.peek()? {
                    if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                        self.bump()?;
                    } else {
                        break;
                    }
                }
                Ok(())
            }
            Some(b) => Err(self.shape(format_args!("unexpected byte {:?}", b as char))),
        }
    }

    /// `"head": { "vars": [...], "warnings": [...], ... }`.
    fn parse_head(&mut self) -> Result<(Vec<Variable>, Vec<String>), StreamError> {
        let mut vars = Vec::new();
        let mut warnings = Vec::new();
        self.skip_ws()?;
        self.expect(b'{')?;
        self.skip_ws()?;
        if self.peek()? == Some(b'}') {
            self.bump()?;
            return Ok((vars, warnings));
        }
        loop {
            match self.member(&["vars", "warnings"])? {
                Some("vars") => {
                    for s in self.parse_string_array()? {
                        vars.push(Variable::new(s));
                    }
                }
                Some("warnings") => warnings = self.parse_string_array()?,
                _ => self.skip_value(1)?,
            }
            self.skip_ws()?;
            match self.bump()? {
                Some(b',') => continue,
                Some(b'}') => return Ok((vars, warnings)),
                _ => return Err(self.shape("expected ',' or '}' in head")),
            }
        }
    }

    fn parse_string_array(&mut self) -> Result<Vec<String>, StreamError> {
        self.skip_ws()?;
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws()?;
        if self.peek()? == Some(b']') {
            self.bump()?;
            return Ok(out);
        }
        loop {
            self.skip_ws()?;
            out.push(self.string()?.to_owned());
            self.skip_ws()?;
            match self.bump()? {
                Some(b',') => continue,
                Some(b']') => return Ok(out),
                _ => return Err(self.shape("expected ',' or ']'")),
            }
        }
    }

    /// One `{ "type": ..., "value": ..., ... }` term object.
    fn parse_term_object(&mut self) -> Result<Term, StreamError> {
        self.skip_ws()?;
        self.expect(b'{')?;
        let mut kind: Option<TermKind> = None;
        let mut value: Option<Arc<str>> = None;
        let mut datatype: Option<Arc<str>> = None;
        let mut language: Option<Arc<str>> = None;
        self.skip_ws()?;
        if self.peek()? == Some(b'}') {
            self.bump()?;
        } else {
            loop {
                let member = self.member(&["type", "value", "datatype", "xml:lang"])?;
                self.skip_ws()?;
                match member {
                    Some("type") => {
                        kind = Some(match self.string()? {
                            "uri" => TermKind::Uri,
                            "bnode" => TermKind::Bnode,
                            // The legacy alias some servers still emit.
                            "literal" | "typed-literal" => TermKind::Literal,
                            other => TermKind::Unknown(other.to_owned()),
                        })
                    }
                    Some("value") => value = Some(Arc::from(self.string()?)),
                    Some("datatype") => datatype = Some(self.datatype()?),
                    Some("xml:lang") => language = Some(Arc::from(self.string()?)),
                    _ => self.skip_value(1)?,
                }
                self.skip_ws()?;
                match self.bump()? {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(self.shape("expected ',' or '}' in term")),
                }
            }
        }
        let kind = kind.ok_or_else(|| self.shape("term object missing \"type\""))?;
        let lexical = value.ok_or_else(|| self.shape("term object missing \"value\""))?;
        match kind {
            TermKind::Uri => Ok(Term::Iri(lexical)),
            TermKind::Bnode => Ok(Term::BlankNode(lexical)),
            TermKind::Literal => Ok(Term::Literal(Literal {
                lexical,
                datatype: if language.is_some() { None } else { datatype },
                language,
            })),
            TermKind::Unknown(other) => {
                Err(self.shape(format_args!("unknown term type {other:?}")))
            }
        }
    }

    /// One binding object into a row under `vars`.
    fn parse_binding(&mut self, vars: &[Variable]) -> Result<Row, StreamError> {
        self.skip_ws()?;
        self.expect(b'{')?;
        let mut row: Row = vec![None; vars.len()];
        self.skip_ws()?;
        if self.peek()? == Some(b'}') {
            self.bump()?;
            return Ok(row);
        }
        loop {
            self.skip_ws()?;
            let name = self.string()?;
            let Some(idx) = vars
                .iter()
                .position(|v| v.name().as_bytes() == name.as_bytes())
            else {
                let name = name.to_owned();
                return Err(self.shape(format_args!(
                    "binding for ?{name} not declared in head.vars"
                )));
            };
            self.skip_ws()?;
            self.expect(b':')?;
            row[idx] = Some(self.parse_term_object()?);
            self.skip_ws()?;
            match self.bump()? {
                Some(b',') => continue,
                Some(b'}') => return Ok(row),
                _ => return Err(self.shape("expected ',' or '}' in binding")),
            }
        }
    }

    fn parse_document(mut self, max_rows: Option<usize>) -> Result<StreamedResult, StreamError> {
        let mut vars: Option<Vec<Variable>> = None;
        let mut warnings: Vec<String> = Vec::new();
        let mut boolean: Option<bool> = None;
        let mut solutions: Option<Relation> = None;

        self.skip_ws()?;
        self.expect(b'{')?;
        self.skip_ws()?;
        if self.peek()? == Some(b'}') {
            self.bump()?;
        } else {
            loop {
                match self.member(&["head", "boolean", "results"])? {
                    Some("head") => {
                        let (v, w) = self.parse_head()?;
                        vars = Some(v);
                        warnings = w;
                    }
                    Some("boolean") => {
                        self.skip_ws()?;
                        boolean = Some(match self.peek()? {
                            Some(b't') => {
                                self.expect_keyword("true")?;
                                true
                            }
                            Some(b'f') => {
                                self.expect_keyword("false")?;
                                false
                            }
                            _ => {
                                return Err(self.shape("\"boolean\" must be true or false"));
                            }
                        });
                    }
                    Some("results") => {
                        let Some(vars) = vars.as_ref() else {
                            return Err(self
                                .shape("results.bindings before head.vars in streamed document"));
                        };
                        let mut rel = Relation::new(vars.clone());
                        if self.parse_results(vars, &mut rel, max_rows)? {
                            // Truncated: stop consuming immediately.
                            return Ok(StreamedResult {
                                result: QueryResult::Solutions(rel),
                                warnings,
                                truncated: true,
                            });
                        }
                        solutions = Some(rel);
                    }
                    _ => self.skip_value(1)?,
                }
                self.skip_ws()?;
                match self.bump()? {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(self.shape("expected ',' or '}'")),
                }
            }
        }

        let result = if let Some(b) = boolean {
            QueryResult::Boolean(b)
        } else if let Some(rel) = solutions {
            QueryResult::Solutions(rel)
        } else {
            return Err(self.shape("missing head.vars"));
        };
        Ok(StreamedResult {
            result,
            warnings,
            truncated: false,
        })
    }

    /// `{"bindings": [...]}`; returns `true` when the cap truncated the
    /// array (further input unread).
    fn parse_results(
        &mut self,
        vars: &[Variable],
        rel: &mut Relation,
        max_rows: Option<usize>,
    ) -> Result<bool, StreamError> {
        self.skip_ws()?;
        self.expect(b'{')?;
        self.skip_ws()?;
        if self.peek()? == Some(b'}') {
            self.bump()?;
            return Err(self.shape("missing results.bindings"));
        }
        let mut saw_bindings = false;
        loop {
            if self.member(&["bindings"])?.is_some() {
                saw_bindings = true;
                self.skip_ws()?;
                self.expect(b'[')?;
                self.skip_ws()?;
                if self.peek()? == Some(b']') {
                    self.bump()?;
                } else {
                    loop {
                        if let Some(cap) = max_rows {
                            if rel.len() >= cap {
                                return Ok(true);
                            }
                        }
                        let row = self.parse_binding(vars)?;
                        rel.push(row);
                        self.skip_ws()?;
                        match self.bump()? {
                            Some(b',') => continue,
                            Some(b']') => break,
                            _ => return Err(self.shape("expected ',' or ']' in bindings")),
                        }
                    }
                }
            } else {
                self.skip_value(1)?;
            }
            self.skip_ws()?;
            match self.bump()? {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(self.shape("expected ',' or '}' in results")),
            }
        }
        if !saw_bindings {
            return Err(self.shape("missing results.bindings"));
        }
        Ok(false)
    }
}

/// A malformed results document: either invalid JSON or valid JSON that
/// does not follow the SPARQL results shape.
#[derive(Debug, Clone, PartialEq)]
pub enum ResultsJsonError {
    Json(JsonError),
    Shape(String),
}

impl ResultsJsonError {
    fn shape(msg: impl Into<String>) -> Self {
        ResultsJsonError::Shape(msg.into())
    }
}

impl std::fmt::Display for ResultsJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResultsJsonError::Json(e) => write!(f, "{e}"),
            ResultsJsonError::Shape(m) => write!(f, "not a SPARQL results document: {m}"),
        }
    }
}

impl std::error::Error for ResultsJsonError {}

impl From<JsonError> for ResultsJsonError {
    fn from(e: JsonError) -> Self {
        ResultsJsonError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

    /// One row exercising every term kind plus an unbound cell.
    fn all_kinds_relation() -> Relation {
        let vars = vec![
            v("i"),
            v("b"),
            v("plain"),
            v("typed"),
            v("tagged"),
            v("unbound"),
        ];
        let mut rel = Relation::new(vars);
        rel.push(vec![
            Some(Term::iri("http://example.org/thing?q=1&x=\"quoted\"")),
            Some(Term::bnode("b42")),
            Some(Term::literal("line1\nline2\ttab")),
            Some(Term::integer(-7)),
            Some(Term::Literal(Literal::lang("grüße 😀", "de"))),
            None,
        ]);
        rel
    }

    #[test]
    fn round_trips_every_term_kind() {
        let rel = all_kinds_relation();
        let doc = serialize(&QueryResult::Solutions(rel.clone()));
        let back = parse(&doc).unwrap();
        assert_eq!(back, QueryResult::Solutions(rel));
    }

    /// The bytes on the wire, pinned: every term kind, a control character
    /// (`\u0001`, lower-case hex) and a 20 KiB literal whose escapes repeat.
    #[test]
    fn serialize_writes_the_pinned_bytes() {
        let mut rel = all_kinds_relation();
        let unit = "a\"b\\c\u{e9}\t";
        rel.push(vec![
            Some(Term::iri("urn:x:\u{1}")),
            None,
            Some(Term::literal(unit.repeat(2560))),
            None,
            None,
            None,
        ]);
        let expected = [
            r#"{"head":{"vars":["i","b","plain","typed","tagged","unbound"]},"results":{"bindings":["#,
            r#"{"i":{"type":"uri","value":"http://example.org/thing?q=1&x=\"quoted\""},"#,
            r#""b":{"type":"bnode","value":"b42"},"#,
            r#""plain":{"type":"literal","value":"line1\nline2\ttab"},"#,
            r#""typed":{"type":"literal","value":"-7","datatype":"http://www.w3.org/2001/XMLSchema#integer"},"#,
            r#""tagged":{"type":"literal","value":"grüße 😀","xml:lang":"de"}},"#,
            r#"{"i":{"type":"uri","value":"urn:x:\u0001"},"plain":{"type":"literal","value":""#,
            r#"a\"b\\cé\t"#.repeat(2560).as_str(),
            r#""}}]}}"#,
        ]
        .concat();
        assert_eq!(unit.repeat(2560).len(), 20 * 1024);
        assert_eq!(serialize(&QueryResult::Solutions(rel)), expected);
    }

    #[test]
    fn round_trips_booleans() {
        for b in [true, false] {
            assert_eq!(
                parse(&serialize(&QueryResult::Boolean(b))).unwrap(),
                QueryResult::Boolean(b)
            );
        }
    }

    #[test]
    fn round_trips_empty_and_duplicate_rows() {
        let mut rel = Relation::new(vec![v("x")]);
        // Empty relation first.
        let doc = serialize(&QueryResult::Solutions(rel.clone()));
        assert_eq!(parse(&doc).unwrap(), QueryResult::Solutions(rel.clone()));
        // Bag semantics: duplicates must survive.
        rel.push(vec![Some(Term::iri("http://x/a"))]);
        rel.push(vec![Some(Term::iri("http://x/a"))]);
        let doc = serialize(&QueryResult::Solutions(rel.clone()));
        assert_eq!(parse(&doc).unwrap(), QueryResult::Solutions(rel));
    }

    #[test]
    fn streaming_pieces_match_serialize() {
        let rel = all_kinds_relation();
        let mut streamed = head_json(rel.vars());
        for (i, row) in rel.rows().iter().enumerate() {
            if i > 0 {
                streamed.push(',');
            }
            write_binding(&mut streamed, rel.vars(), row);
        }
        streamed.push_str(SOLUTIONS_TAIL);
        assert_eq!(streamed, serialize(&QueryResult::Solutions(rel)));
    }

    #[test]
    fn warnings_round_trip_in_the_head() {
        let rel = all_kinds_relation();
        let warnings = vec![
            "endpoint univ2 unreachable for sq1: connection refused".to_string(),
            "with \"quotes\" and\nnewlines".to_string(),
        ];
        let mut doc = head_json_with_warnings(rel.vars(), &warnings);
        for (i, row) in rel.rows().iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            write_binding(&mut doc, rel.vars(), row);
        }
        doc.push_str(SOLUTIONS_TAIL);
        let (back, got) = parse_full(&doc).unwrap();
        assert_eq!(back, QueryResult::Solutions(rel));
        assert_eq!(got, warnings);
        // A warning-free head emits no "warnings" member at all.
        assert!(!head_json(&[v("x")]).contains("warnings"));
        // Standard documents parse with no warnings.
        let (_, none) = parse_full(&serialize(&QueryResult::Boolean(true))).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn parses_legacy_typed_literal() {
        let doc = r#"{"head":{"vars":["x"]},"results":{"bindings":[
            {"x":{"type":"typed-literal","value":"3","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}
        ]}}"#;
        let QueryResult::Solutions(rel) = parse(doc).unwrap() else {
            panic!("not solutions")
        };
        assert_eq!(rel.rows()[0][0], Some(Term::integer(3)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",                                                                                     // not JSON
            "42",                                                    // not an object
            r#"{"head":{}}"#,                                        // no vars, no boolean
            r#"{"head":{"vars":["x"]}}"#,                            // no results
            r#"{"head":{"vars":[1]},"results":{"bindings":[]}}"#,    // non-string var
            r#"{"head":{"vars":["x"]},"results":{"bindings":[7]}}"#, // non-object binding
            r#"{"head":{"vars":["x"]},"results":{"bindings":[{"y":{"type":"uri","value":"u"}}]}}"#, // undeclared var
            r#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"wat","value":"u"}}]}}"#, // bad term type
            r#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri"}}]}}"#, // missing value
            r#"{"head":{},"boolean":"yes"}"#, // non-bool boolean
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn stream_parse_matches_dom_parse() {
        let rel = all_kinds_relation();
        let doc = serialize(&QueryResult::Solutions(rel.clone()));
        let streamed = parse_capped(&doc, None).unwrap();
        assert!(!streamed.truncated);
        assert!(streamed.warnings.is_empty());
        assert_eq!(streamed.result, QueryResult::Solutions(rel));
        assert_eq!(streamed.result, parse(&doc).unwrap());
    }

    #[test]
    fn stream_parse_booleans_and_warnings() {
        for b in [true, false] {
            let doc = boolean_json(b);
            let streamed = parse_capped(&doc, Some(0)).unwrap();
            assert_eq!(streamed.result, QueryResult::Boolean(b));
            assert!(!streamed.truncated);
        }
        let vars = [Variable::new("x")];
        let warnings = vec!["ep-2: timed out".to_string()];
        let doc = format!(
            "{}{}",
            head_json_with_warnings(&vars, &warnings),
            SOLUTIONS_TAIL
        );
        let streamed = parse_capped(&doc, None).unwrap();
        assert_eq!(streamed.warnings, warnings);
    }

    #[test]
    fn stream_cap_truncates_without_consuming_the_rest() {
        let vars = vec![Variable::new("x")];
        let mut rel = Relation::new(vars.clone());
        for i in 0..100 {
            rel.push(vec![Some(Term::iri(format!("http://x/{i}")))]);
        }
        let doc = serialize(&QueryResult::Solutions(rel.clone()));

        // Exactly at the cap: complete, not truncated.
        let full = parse_capped(&doc, Some(100)).unwrap();
        assert!(!full.truncated);
        assert_eq!(full.result, QueryResult::Solutions(rel.clone()));

        // Under the cap: truncated prefix, and the parser must stop
        // reading — garbage after the cap point is never seen.
        let cut_at = doc.find("http://x/7").unwrap();
        let poisoned = format!("{}{}", &doc[..cut_at], "\u{0}garbage not json");
        let streamed = parse_capped(&poisoned, Some(5)).unwrap();
        assert!(streamed.truncated);
        let QueryResult::Solutions(got) = streamed.result else {
            panic!("not solutions")
        };
        assert_eq!(got.len(), 5);
        assert_eq!(got.rows(), &rel.rows()[..5]);

        // A cap of zero keeps the header and drops every row.
        let zero = parse_capped(&doc, Some(0)).unwrap();
        assert!(zero.truncated);
        let QueryResult::Solutions(got) = zero.result else {
            panic!("not solutions")
        };
        assert_eq!(got.vars(), &vars[..]);
        assert!(got.is_empty());
    }

    #[test]
    fn stream_parse_rejects_what_dom_parse_rejects() {
        for bad in [
            "",
            "42",
            r#"{"head":{}}"#,
            r#"{"head":{"vars":["x"]}}"#,
            r#"{"head":{"vars":["x"]},"results":{"bindings":[{"y":{"type":"uri","value":"u"}}]}}"#,
            r#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"wat","value":"u"}}]}}"#,
            r#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri"}}]}}"#,
            r#"{"head":{},"boolean":"yes"}"#,
            // Streaming-specific: bindings cannot precede the header.
            r#"{"results":{"bindings":[]},"head":{"vars":["x"]}}"#,
            // Truncated mid-row.
            r#"{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","#,
        ] {
            assert!(
                parse_capped(bad, None).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    /// A high surrogate escape without its low half is U+FFFD, whatever
    /// follows it: a plain byte, a short escape, the closing quote or a
    /// `\u` escape that is not a low surrogate.
    #[test]
    fn stream_parse_replaces_a_lone_high_surrogate() {
        for (escaped, decoded) in [
            ("\\ud800x", "\u{FFFD}x"),
            ("\\ud800\\n", "\u{FFFD}\n"),
            ("\\ud800", "\u{FFFD}"),
            ("\\ud800\\u0041", "\u{FFFD}A"),
            (
                "\\ud83d\\ude00\\udc00\\ud800é",
                "\u{1F600}\u{FFFD}\u{FFFD}é",
            ),
        ] {
            let doc = format!(
                r#"{{"head":{{"vars":["x"]}},"results":{{"bindings":[{{"x":{{"type":"literal","value":"{escaped}"}}}}]}}}}"#
            );
            let QueryResult::Solutions(rel) = parse_capped(&doc, None).unwrap().result else {
                panic!("not solutions")
            };
            assert_eq!(rel.rows()[0][0], Some(Term::literal(decoded)), "{escaped}");
        }
    }

    #[test]
    fn stream_parse_skips_unknown_members_and_handles_escapes() {
        let doc = r#"{"junk":{"a":[1,2,{"b":null}],"c":true},
            "head":{"vars":["x"],"link":["http://meta"]},
            "results":{"distinct":false,"bindings":[
                {"x":{"type":"literal","value":"q\"A😀\n","extra":9}}
            ],"ordered":true}}"#;
        let streamed = parse_capped(doc, None).unwrap();
        let QueryResult::Solutions(rel) = streamed.result else {
            panic!("not solutions")
        };
        assert_eq!(rel.rows()[0][0], Some(Term::literal("q\"A\u{1F600}\n")));
    }
}
