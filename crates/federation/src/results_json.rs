//! SPARQL 1.1 Query Results JSON Format (W3C REC, 2013-03-21).
//!
//! One codec shared by both ends of the wire: `lusail-server` serializes
//! [`QueryResult`]s with it and the HTTP client transport
//! ([`crate::http::HttpEndpoint`]) parses them back. Round-tripping is
//! lossless for every term kind (IRI, blank node, plain/typed/language-
//! tagged literal) and preserves bag semantics and row order, so HTTP
//! federation yields bit-identical solutions to the in-process path.
//!
//! Serialization is exposed piecewise (`head_json` / `binding_json` /
//! [`SOLUTIONS_TAIL`]) so the server can stream large result sets row by
//! row without materializing the whole document.

use crate::json::{escape, Json, JsonError};
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
/// `results.bindings` array. Append [`binding_json`] rows (comma-separated)
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
        out.push('"');
        out.push_str(&escape(v.name()));
        out.push('"');
    }
    out.push(']');
    if !warnings.is_empty() {
        out.push_str(",\"warnings\":[");
        for (i, w) in warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(w));
            out.push('"');
        }
        out.push(']');
    }
    out.push_str("},\"results\":{\"bindings\":[");
    out
}

/// One solution as a binding object. Unbound variables are omitted, per the
/// spec.
pub fn binding_json(vars: &[Variable], row: &Row) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for (v, cell) in vars.iter().zip(row) {
        let Some(term) = cell else { continue };
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(&escape(v.name()));
        out.push_str("\":");
        out.push_str(&term_json(term));
    }
    out.push('}');
    out
}

/// An `ASK` result document.
pub fn boolean_json(value: bool) -> String {
    format!("{{\"head\":{{}},\"boolean\":{value}}}")
}

/// One RDF term as a SPARQL-results JSON object.
pub fn term_json(term: &Term) -> String {
    match term {
        Term::Iri(iri) => format!("{{\"type\":\"uri\",\"value\":\"{}\"}}", escape(iri)),
        Term::BlankNode(label) => {
            format!("{{\"type\":\"bnode\",\"value\":\"{}\"}}", escape(label))
        }
        Term::Literal(lit) => {
            let mut out = format!(
                "{{\"type\":\"literal\",\"value\":\"{}\"",
                escape(&lit.lexical)
            );
            if let Some(lang) = &lit.language {
                out.push_str(&format!(",\"xml:lang\":\"{}\"", escape(lang)));
            } else if let Some(dt) = &lit.datatype {
                out.push_str(&format!(",\"datatype\":\"{}\"", escape(dt)));
            }
            out.push('}');
            out
        }
    }
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
                out.push_str(&binding_json(rel.vars(), row));
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

struct StreamParser<R: std::io::Read> {
    reader: R,
    buf: [u8; 8192],
    pos: usize,
    len: usize,
    offset: usize,
    eof: bool,
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
            self.pos += 1;
            self.offset += 1;
        }
        Ok(b)
    }

    fn skip_ws(&mut self) -> Result<(), StreamError> {
        while let Some(b) = self.peek()? {
            if matches!(b, b' ' | b'\t' | b'\r' | b'\n') {
                self.bump()?;
            } else {
                break;
            }
        }
        Ok(())
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

    /// Parse a JSON string (opening quote already *not* consumed).
    fn parse_string(&mut self) -> Result<String, StreamError> {
        self.expect(b'"')?;
        let mut bytes: Vec<u8> = Vec::new();
        let mut pending_surrogate: Option<u16> = None;
        loop {
            let Some(b) = self.bump()? else {
                return Err(self.shape("unterminated string"));
            };
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(esc) = self.bump()? else {
                        return Err(self.shape("unterminated escape"));
                    };
                    let simple = match esc {
                        b'"' => Some(b'"'),
                        b'\\' => Some(b'\\'),
                        b'/' => Some(b'/'),
                        b'b' => Some(0x08),
                        b'f' => Some(0x0C),
                        b'n' => Some(b'\n'),
                        b'r' => Some(b'\r'),
                        b't' => Some(b'\t'),
                        b'u' => None,
                        _ => return Err(self.shape("bad escape")),
                    };
                    if let Some(c) = simple {
                        pending_surrogate = None;
                        bytes.push(c);
                        continue;
                    }
                    let mut code: u32 = 0;
                    for _ in 0..4 {
                        let Some(h) = self.bump()? else {
                            return Err(self.shape("unterminated \\u escape"));
                        };
                        let digit = (h as char)
                            .to_digit(16)
                            .ok_or_else(|| self.shape("bad \\u escape"))?;
                        code = code * 16 + digit;
                    }
                    let unit = code as u16;
                    if let Some(high) = pending_surrogate.take() {
                        if (0xDC00..=0xDFFF).contains(&unit) {
                            let c =
                                0x10000 + ((high as u32 - 0xD800) << 10) + (unit as u32 - 0xDC00);
                            let ch = char::from_u32(c)
                                .ok_or_else(|| self.shape("bad surrogate pair"))?;
                            let mut utf8 = [0u8; 4];
                            bytes.extend_from_slice(ch.encode_utf8(&mut utf8).as_bytes());
                            continue;
                        }
                        // Lone high surrogate: replacement character.
                        bytes.extend_from_slice("\u{FFFD}".as_bytes());
                    }
                    if (0xD800..=0xDBFF).contains(&unit) {
                        pending_surrogate = Some(unit);
                    } else if (0xDC00..=0xDFFF).contains(&unit) {
                        bytes.extend_from_slice("\u{FFFD}".as_bytes());
                    } else {
                        let ch =
                            char::from_u32(code).ok_or_else(|| self.shape("bad \\u escape"))?;
                        let mut utf8 = [0u8; 4];
                        bytes.extend_from_slice(ch.encode_utf8(&mut utf8).as_bytes());
                    }
                }
                0x00..=0x1F => return Err(self.shape("raw control character in string")),
                other => {
                    pending_surrogate = None;
                    bytes.push(other);
                }
            }
        }
        if pending_surrogate.is_some() {
            bytes.extend_from_slice("\u{FFFD}".as_bytes());
        }
        String::from_utf8(bytes).map_err(|_| self.shape("invalid UTF-8 in string"))
    }

    /// Skip any JSON value without materializing it.
    fn skip_value(&mut self, depth: usize) -> Result<(), StreamError> {
        if depth > STREAM_MAX_DEPTH {
            return Err(self.shape("nesting too deep"));
        }
        self.skip_ws()?;
        match self.peek()? {
            None => Err(self.shape("unexpected end of document")),
            Some(b'"') => self.parse_string().map(drop),
            Some(b'{') => {
                self.bump()?;
                self.skip_ws()?;
                if self.peek()? == Some(b'}') {
                    self.bump()?;
                    return Ok(());
                }
                loop {
                    self.skip_ws()?;
                    self.parse_string()?;
                    self.skip_ws()?;
                    self.expect(b':')?;
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
            self.skip_ws()?;
            let key = self.parse_string()?;
            self.skip_ws()?;
            self.expect(b':')?;
            match key.as_str() {
                "vars" => {
                    for s in self.parse_string_array()? {
                        vars.push(Variable::new(s));
                    }
                }
                "warnings" => warnings = self.parse_string_array()?,
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
            out.push(self.parse_string()?);
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
        let mut kind: Option<String> = None;
        let mut value: Option<String> = None;
        let mut datatype: Option<String> = None;
        let mut language: Option<String> = None;
        self.skip_ws()?;
        if self.peek()? == Some(b'}') {
            self.bump()?;
        } else {
            loop {
                self.skip_ws()?;
                let key = self.parse_string()?;
                self.skip_ws()?;
                self.expect(b':')?;
                self.skip_ws()?;
                match key.as_str() {
                    "type" => kind = Some(self.parse_string()?),
                    "value" => value = Some(self.parse_string()?),
                    "datatype" => datatype = Some(self.parse_string()?),
                    "xml:lang" => language = Some(self.parse_string()?),
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
        match kind.as_str() {
            "uri" => Ok(Term::iri(lexical)),
            "bnode" => Ok(Term::bnode(lexical)),
            "literal" | "typed-literal" => Ok(Term::Literal(Literal {
                lexical: lexical.into(),
                datatype: if language.is_some() {
                    None
                } else {
                    datatype.map(Into::into)
                },
                language: language.map(Into::into),
            })),
            other => Err(self.shape(format_args!("unknown term type {other:?}"))),
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
            let name = self.parse_string()?;
            self.skip_ws()?;
            self.expect(b':')?;
            let idx = vars.iter().position(|v| v.name() == name).ok_or_else(|| {
                self.shape(format_args!(
                    "binding for ?{name} not declared in head.vars"
                ))
            })?;
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
                self.skip_ws()?;
                let key = self.parse_string()?;
                self.skip_ws()?;
                self.expect(b':')?;
                match key.as_str() {
                    "head" => {
                        let (v, w) = self.parse_head()?;
                        vars = Some(v);
                        warnings = w;
                    }
                    "boolean" => {
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
                    "results" => {
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
            self.skip_ws()?;
            let key = self.parse_string()?;
            self.skip_ws()?;
            self.expect(b':')?;
            if key == "bindings" {
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
            streamed.push_str(&binding_json(rel.vars(), row));
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
            doc.push_str(&binding_json(rel.vars(), row));
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
