//! Lusail's compact binary results codec: a per-response term dictionary
//! plus fixed-width ID tuples.
//!
//! The SPARQL 1.1 JSON format ships every term as a string in every row,
//! so a join-heavy federated query pays for the same IRI hundreds of
//! times. This codec interns terms on the wire instead: the first time a
//! term appears in a response it travels once as a dictionary record, and
//! every row is then a flat array of fixed-width `u32` ids. Responses
//! whose rows repeat terms (the common case for subquery results) shrink
//! by the repetition factor; worst-case (all-distinct terms) overhead is
//! a few bytes per row.
//!
//! The format is negotiated via the HTTP `Accept` header (see
//! [`MEDIA_TYPE`]): `lusail serve` answers with it when asked,
//! [`crate::http::HttpEndpoint`] offers it with a SPARQL-JSON fallback,
//! and a foreign endpoint that ignores the offer simply keeps answering
//! JSON — federation works unchanged, just cheaper between Lusail peers.
//!
//! Like [`crate::results_json`], the codec is streaming on both sides:
//! the server emits the document piecewise ([`Encoder`]) and the client
//! decodes it incrementally ([`parse_stream`]) under the same
//! `--max-result-rows` result-bomb defense — the cap fires mid-parse with
//! the rest of the body unread. The decoder is total: arbitrary bytes
//! produce an error, never a panic.
//!
//! ## Wire layout
//!
//! ```text
//! magic  "LSRB"            4 bytes
//! version 0x01             1 byte
//! kind   0x00 solutions | 0x01 boolean
//!
//! boolean: value           1 byte (0x00 / 0x01)
//!
//! solutions:
//!   var count              varint
//!   vars                   varint length + UTF-8, each
//!   warning count          varint
//!   warnings               varint length + UTF-8, each
//!   records, until END:
//!     0x01 DICT            term record; ids assigned sequentially from 0
//!     0x02 ROW             var-count × u32 LE (0 = unbound, else id + 1)
//!     0x00 END
//!
//! term record:
//!   0x01 IRI / 0x02 BNODE  varint length + UTF-8
//!   0x03 LITERAL           presence byte (bit 0 datatype, bit 1 language)
//!                          + lexical + optional datatype + optional lang
//! ```

use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::{Literal, Term};
use lusail_sparql::ast::Variable;
use lusail_sparql::solution::{Relation, Row};
use lusail_store::eval::QueryResult;

/// The media type of this format, offered in `Accept` and echoed in
/// `Content-Type` by servers that speak it.
pub const MEDIA_TYPE: &str = "application/x-lusail-results-bin";

const MAGIC: &[u8; 4] = b"LSRB";
const VERSION: u8 = 1;
const KIND_SOLUTIONS: u8 = 0x00;
const KIND_BOOLEAN: u8 = 0x01;
const REC_END: u8 = 0x00;
const REC_DICT: u8 = 0x01;
const REC_ROW: u8 = 0x02;
const TERM_IRI: u8 = 0x01;
const TERM_BNODE: u8 = 0x02;
const TERM_LITERAL: u8 = 0x03;

/// Cap on any single length-prefixed string. A malformed (or hostile)
/// length prefix fails fast instead of asking the allocator for the
/// moon.
const MAX_STRING_LEN: usize = 1 << 24;

/// A complete `ASK` document.
pub fn boolean_bin(value: bool) -> Vec<u8> {
    vec![
        MAGIC[0],
        MAGIC[1],
        MAGIC[2],
        MAGIC[3],
        VERSION,
        KIND_BOOLEAN,
        u8::from(value),
    ]
}

/// Streaming encoder for a solutions document: emit [`Encoder::head`]
/// first, then one [`Encoder::row`] per solution, then [`Encoder::tail`].
/// The per-response dictionary lives inside the encoder; each term is
/// serialized the first time it appears and referenced by id afterwards.
pub struct Encoder {
    ids: FxHashMap<Term, u32>,
    arity: usize,
}

impl Encoder {
    /// A fresh encoder with an empty dictionary.
    pub fn new() -> Self {
        Encoder {
            ids: FxHashMap::default(),
            arity: 0,
        }
    }

    /// The document head: magic, header, variables, warnings.
    pub fn head(&mut self, vars: &[Variable], warnings: &[String]) -> Vec<u8> {
        self.arity = vars.len();
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(KIND_SOLUTIONS);
        write_varint(&mut out, vars.len() as u64);
        for v in vars {
            write_str(&mut out, v.name());
        }
        write_varint(&mut out, warnings.len() as u64);
        for w in warnings {
            write_str(&mut out, w);
        }
        out
    }

    /// One solution row: any new terms as dictionary records, then the
    /// fixed-width id tuple.
    pub fn row(&mut self, row: &Row) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 4 * row.len());
        let mut cells = Vec::with_capacity(row.len());
        for cell in row {
            match cell {
                None => cells.push(0u32),
                Some(term) => {
                    let next = self.ids.len() as u32;
                    let id = *self.ids.entry(term.clone()).or_insert_with(|| {
                        out.push(REC_DICT);
                        write_term(&mut out, term);
                        next
                    });
                    cells.push(id + 1);
                }
            }
        }
        out.push(REC_ROW);
        for id in cells {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out
    }

    /// The end-of-results record.
    pub fn tail(&self) -> Vec<u8> {
        vec![REC_END]
    }

    /// How many distinct terms the dictionary holds so far.
    pub fn dict_terms(&self) -> usize {
        self.ids.len()
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Serialize a full result document (non-streaming convenience; the
/// server streams the same pieces instead).
pub fn serialize(result: &QueryResult) -> Vec<u8> {
    serialize_with_warnings(result, &[])
}

/// [`serialize`] with execution warnings in the head.
pub fn serialize_with_warnings(result: &QueryResult, warnings: &[String]) -> Vec<u8> {
    match result {
        QueryResult::Boolean(b) => boolean_bin(*b),
        QueryResult::Solutions(rel) => {
            let mut enc = Encoder::new();
            let mut out = enc.head(rel.vars(), warnings);
            for row in rel.rows() {
                out.extend_from_slice(&enc.row(row));
            }
            out.extend_from_slice(&enc.tail());
            out
        }
    }
}

/// The outcome of a streaming binary parse. Mirrors
/// [`crate::results_json::StreamedResult`], plus the decoded dictionary
/// size for the codec stats.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedBin {
    pub result: QueryResult,
    pub warnings: Vec<String>,
    /// `true` when `max_rows` stopped the parse before the END record —
    /// the rest of the input was *not consumed*.
    pub truncated: bool,
    /// Distinct terms received in the per-response dictionary.
    pub dict_terms: usize,
}

/// Why a streaming binary parse stopped.
#[derive(Debug)]
pub enum BinStreamError {
    Io(std::io::Error),
    Malformed(String),
}

impl std::fmt::Display for BinStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinStreamError::Io(e) => write!(f, "read error mid-results: {e}"),
            BinStreamError::Malformed(m) => write!(f, "not a binary results document: {m}"),
        }
    }
}

/// Decode a binary results document incrementally from a byte stream,
/// holding at most `max_rows` rows (plus the dictionary) in memory. On
/// hitting the cap the parse returns immediately with `truncated: true`
/// and the remaining input *unread*. Total on arbitrary input: malformed
/// bytes yield `Err`, never a panic.
pub fn parse_stream<R: std::io::Read>(
    reader: R,
    max_rows: Option<usize>,
) -> Result<StreamedBin, BinStreamError> {
    Decoder {
        reader,
        offset: 0,
        scratch: Vec::new(),
    }
    .parse_document(max_rows)
}

/// [`parse_stream`] over an in-memory buffer (test entry point).
pub fn parse(bytes: &[u8]) -> Result<StreamedBin, BinStreamError> {
    parse_stream(bytes, None)
}

struct Decoder<R: std::io::Read> {
    reader: R,
    offset: usize,
    /// Reused read buffer for [`Decoder::string`]: a term string is copied
    /// once, from here into its shared allocation.
    scratch: Vec<u8>,
}

impl<R: std::io::Read> Decoder<R> {
    fn bad(&self, msg: impl std::fmt::Display) -> BinStreamError {
        BinStreamError::Malformed(format!("{msg} at offset {}", self.offset))
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), BinStreamError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.reader.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Err(self.bad("unexpected end of document"));
                }
                Ok(n) => {
                    filled += n;
                    self.offset += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(BinStreamError::Io(e)),
            }
        }
        Ok(())
    }

    fn byte(&mut self) -> Result<u8, BinStreamError> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b)?;
        Ok(b[0])
    }

    fn varint(&mut self) -> Result<u64, BinStreamError> {
        let mut value: u64 = 0;
        for shift in 0..5 {
            let b = self.byte()?;
            value |= u64::from(b & 0x7F) << (7 * shift);
            if b & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.bad("varint longer than 5 bytes"))
    }

    fn string(&mut self) -> Result<&str, BinStreamError> {
        let len = self.varint()? as usize;
        if len > MAX_STRING_LEN {
            return Err(self.bad(format!("string length {len} exceeds {MAX_STRING_LEN}")));
        }
        let mut buf = std::mem::take(&mut self.scratch);
        buf.resize(len, 0);
        let read = self.read_exact(&mut buf);
        self.scratch = buf;
        read?;
        std::str::from_utf8(&self.scratch).map_err(|_| self.bad("invalid UTF-8 in string"))
    }

    fn term(&mut self) -> Result<Term, BinStreamError> {
        match self.byte()? {
            TERM_IRI => Ok(Term::iri(self.string()?)),
            TERM_BNODE => Ok(Term::bnode(self.string()?)),
            TERM_LITERAL => {
                let presence = self.byte()?;
                if presence & !0x03 != 0 {
                    return Err(self.bad(format!("bad literal presence byte {presence:#x}")));
                }
                if presence == 0x03 {
                    return Err(self.bad("literal with both datatype and language"));
                }
                let lexical = self.string()?.into();
                let datatype = (presence & 1 != 0)
                    .then(|| self.string().map(Into::into))
                    .transpose()?;
                let language = (presence & 2 != 0)
                    .then(|| self.string().map(Into::into))
                    .transpose()?;
                Ok(Term::Literal(Literal {
                    lexical,
                    datatype,
                    language,
                }))
            }
            other => Err(self.bad(format!("unknown term kind {other:#x}"))),
        }
    }

    fn parse_document(mut self, max_rows: Option<usize>) -> Result<StreamedBin, BinStreamError> {
        let mut magic = [0u8; 4];
        self.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(self.bad("bad magic (not an LSRB document)"));
        }
        let version = self.byte()?;
        if version != VERSION {
            return Err(self.bad(format!("unsupported version {version}")));
        }
        match self.byte()? {
            KIND_BOOLEAN => {
                let value = match self.byte()? {
                    0 => false,
                    1 => true,
                    other => return Err(self.bad(format!("bad boolean value {other:#x}"))),
                };
                Ok(StreamedBin {
                    result: QueryResult::Boolean(value),
                    warnings: Vec::new(),
                    truncated: false,
                    dict_terms: 0,
                })
            }
            KIND_SOLUTIONS => self.parse_solutions(max_rows),
            other => Err(self.bad(format!("unknown document kind {other:#x}"))),
        }
    }

    fn parse_solutions(&mut self, max_rows: Option<usize>) -> Result<StreamedBin, BinStreamError> {
        let var_count = self.varint()? as usize;
        // The arity bounds per-row work; an absurd claim is malformed.
        if var_count > 1 << 16 {
            return Err(self.bad(format!("implausible variable count {var_count}")));
        }
        let mut vars = Vec::with_capacity(var_count.min(1024));
        for _ in 0..var_count {
            vars.push(Variable::new(self.string()?));
        }
        let warn_count = self.varint()? as usize;
        if warn_count > 1 << 16 {
            return Err(self.bad(format!("implausible warning count {warn_count}")));
        }
        let mut warnings = Vec::with_capacity(warn_count.min(1024));
        for _ in 0..warn_count {
            warnings.push(self.string()?.to_string());
        }

        let mut dict: Vec<Term> = Vec::new();
        let mut rel = Relation::new(vars.clone());
        // A hostile stream of dictionary records with no rows is a result
        // bomb too: under a row cap, the dictionary may not outgrow what
        // the capped rows could possibly reference.
        let dict_cap = max_rows.map(|cap| (cap + 1).saturating_mul(var_count.max(1)));
        loop {
            match self.byte()? {
                REC_END => break,
                REC_DICT => {
                    if let Some(cap) = dict_cap {
                        if dict.len() >= cap {
                            return Ok(StreamedBin {
                                result: QueryResult::Solutions(rel),
                                warnings,
                                truncated: true,
                                dict_terms: dict.len(),
                            });
                        }
                    }
                    let term = self.term()?;
                    dict.push(term);
                }
                REC_ROW => {
                    if let Some(cap) = max_rows {
                        if rel.len() >= cap {
                            // The cap fired: stop consuming immediately.
                            return Ok(StreamedBin {
                                result: QueryResult::Solutions(rel),
                                warnings,
                                truncated: true,
                                dict_terms: dict.len(),
                            });
                        }
                    }
                    let mut cell = [0u8; 4];
                    let mut row: Row = Vec::with_capacity(var_count);
                    for _ in 0..var_count {
                        self.read_exact(&mut cell)?;
                        let id = u32::from_le_bytes(cell);
                        if id == 0 {
                            row.push(None);
                        } else {
                            let term = dict.get(id as usize - 1).ok_or_else(|| {
                                self.bad(format!("row references undefined term id {id}"))
                            })?;
                            row.push(Some(term.clone()));
                        }
                    }
                    rel.push(row);
                }
                other => return Err(self.bad(format!("unknown record tag {other:#x}"))),
            }
        }
        Ok(StreamedBin {
            result: QueryResult::Solutions(rel),
            warnings,
            truncated: false,
            dict_terms: dict.len(),
        })
    }
}

fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn write_term(out: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(s) => {
            out.push(TERM_IRI);
            write_str(out, s);
        }
        Term::BlankNode(s) => {
            out.push(TERM_BNODE);
            write_str(out, s);
        }
        Term::Literal(l) => {
            out.push(TERM_LITERAL);
            let presence = u8::from(l.datatype.is_some()) | (u8::from(l.language.is_some()) << 1);
            out.push(presence);
            write_str(out, &l.lexical);
            if let Some(d) = &l.datatype {
                write_str(out, d);
            }
            if let Some(g) = &l.language {
                write_str(out, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results_json;

    fn v(n: &str) -> Variable {
        Variable::new(n)
    }

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
        assert!(!back.truncated);
        assert_eq!(back.result, QueryResult::Solutions(rel));
        assert_eq!(back.dict_terms, 5);
    }

    #[test]
    fn round_trips_booleans() {
        for b in [true, false] {
            let back = parse(&serialize(&QueryResult::Boolean(b))).unwrap();
            assert_eq!(back.result, QueryResult::Boolean(b));
        }
    }

    #[test]
    fn matches_json_decode_exactly() {
        let rel = all_kinds_relation();
        let result = QueryResult::Solutions(rel);
        let from_bin = parse(&serialize(&result)).unwrap().result;
        let from_json = results_json::parse(&results_json::serialize(&result)).unwrap();
        assert_eq!(from_bin, from_json);
    }

    #[test]
    fn repeated_terms_ship_once() {
        let mut rel = Relation::new(vec![v("x"), v("y")]);
        let long = Term::iri(format!("http://example.org/{}", "a".repeat(200)));
        for i in 0..100 {
            rel.push(vec![Some(long.clone()), Some(Term::integer(i))]);
        }
        let result = QueryResult::Solutions(rel);
        let bin = serialize(&result);
        let json = results_json::serialize(&result);
        assert!(
            bin.len() * 2 < json.len(),
            "binary ({}) should be far smaller than JSON ({}) on repetitive rows",
            bin.len(),
            json.len()
        );
        let back = parse(&bin).unwrap();
        assert_eq!(back.result, result);
        assert_eq!(back.dict_terms, 101);
    }

    #[test]
    fn warnings_round_trip_in_the_head() {
        let rel = all_kinds_relation();
        let warnings = vec![
            "endpoint univ2 unreachable for sq1: connection refused".to_string(),
            "with \"quotes\" and\nnewlines".to_string(),
        ];
        let doc = serialize_with_warnings(&QueryResult::Solutions(rel.clone()), &warnings);
        let back = parse(&doc).unwrap();
        assert_eq!(back.result, QueryResult::Solutions(rel));
        assert_eq!(back.warnings, warnings);
    }

    #[test]
    fn streaming_pieces_match_serialize() {
        let rel = all_kinds_relation();
        let mut enc = Encoder::new();
        let mut doc = enc.head(rel.vars(), &[]);
        for row in rel.rows() {
            doc.extend_from_slice(&enc.row(row));
        }
        doc.extend_from_slice(&enc.tail());
        assert_eq!(doc, serialize(&QueryResult::Solutions(rel)));
        assert_eq!(enc.dict_terms(), 5);
    }

    #[test]
    fn row_cap_truncates_without_consuming_the_rest() {
        let vars = vec![v("x")];
        let mut rel = Relation::new(vars.clone());
        for i in 0..100 {
            rel.push(vec![Some(Term::iri(format!("http://x/{i}")))]);
        }
        let doc = serialize(&QueryResult::Solutions(rel.clone()));

        // Exactly at the cap: complete, not truncated.
        let full = parse_stream(&doc[..], Some(100)).unwrap();
        assert!(!full.truncated);
        assert_eq!(full.result, QueryResult::Solutions(rel.clone()));

        // Under the cap: truncated prefix; bytes after the cap point are
        // never read (poisoning them must not matter).
        let mut reads = CountingReader {
            inner: &doc[..],
            read: 0,
        };
        let streamed = parse_stream(&mut reads, Some(5)).unwrap();
        assert!(streamed.truncated);
        let QueryResult::Solutions(got) = streamed.result else {
            panic!("not solutions")
        };
        assert_eq!(got.len(), 5);
        assert_eq!(got.rows(), &rel.rows()[..5]);
        assert!(
            reads.read < doc.len(),
            "the capped parse must leave input unread"
        );

        // A cap of zero keeps the header and drops every row.
        let zero = parse_stream(&doc[..], Some(0)).unwrap();
        assert!(zero.truncated);
        let QueryResult::Solutions(got) = zero.result else {
            panic!("not solutions")
        };
        assert_eq!(got.vars(), &vars[..]);
        assert!(got.is_empty());
    }

    /// A reader that counts how many bytes were pulled, reading one byte
    /// at a time so the decoder cannot over-buffer past the cap point.
    struct CountingReader<'a> {
        inner: &'a [u8],
        read: usize,
    }

    impl std::io::Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.inner.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.inner[0];
            self.inner = &self.inner[1..];
            self.read += 1;
            Ok(1)
        }
    }

    #[test]
    fn dictionary_bomb_is_cut_off_under_a_row_cap() {
        // A hostile body of endless dictionary records and no rows: the
        // cap must fire once the dictionary outgrows what capped rows
        // could reference.
        let mut enc = Encoder::new();
        let mut doc = enc.head(&[v("x")], &[]);
        for i in 0..10_000 {
            doc.push(REC_DICT);
            write_term(&mut doc, &Term::iri(format!("http://bomb/{i}")));
        }
        let streamed = parse_stream(&doc[..], Some(4)).unwrap();
        assert!(streamed.truncated);
        assert!(streamed.dict_terms <= 5, "{}", streamed.dict_terms);
        // Without a cap the same prefix is just an unterminated document.
        assert!(parse_stream(&doc[..], None).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        let good = serialize(&QueryResult::Solutions(all_kinds_relation()));
        let mut cases: Vec<Vec<u8>> = vec![
            Vec::new(),                            // empty
            b"LSRB".to_vec(),                      // truncated header
            b"JSON\x01\x00".to_vec(),              // bad magic
            vec![b'L', b'S', b'R', b'B', 9, 0],    // bad version
            vec![b'L', b'S', b'R', b'B', 1, 7],    // bad kind
            vec![b'L', b'S', b'R', b'B', 1, 1, 9], // bad boolean value
        ];
        // Truncations of a valid document (except the full length).
        for cut in [5, 8, good.len() / 2, good.len() - 1] {
            cases.push(good[..cut].to_vec());
        }
        // A row referencing an id the dictionary never defined.
        let mut enc = Encoder::new();
        let mut bad_ref = enc.head(&[v("x")], &[]);
        bad_ref.push(REC_ROW);
        bad_ref.extend_from_slice(&99u32.to_le_bytes());
        bad_ref.push(REC_END);
        cases.push(bad_ref);
        // A literal claiming both datatype and language.
        let mut both = enc.head(&[v("x")], &[]);
        both.push(REC_DICT);
        both.push(TERM_LITERAL);
        both.push(0x03);
        cases.push(both);
        for bad in cases {
            assert!(parse(&bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn empty_relation_round_trips() {
        let rel = Relation::new(vec![v("x"), v("y")]);
        let back = parse(&serialize(&QueryResult::Solutions(rel.clone()))).unwrap();
        assert_eq!(back.result, QueryResult::Solutions(rel));
        assert_eq!(back.dict_terms, 0);
    }

    #[test]
    fn bag_semantics_survive() {
        let mut rel = Relation::new(vec![v("x")]);
        rel.push(vec![Some(Term::iri("http://x/a"))]);
        rel.push(vec![Some(Term::iri("http://x/a"))]);
        let back = parse(&serialize(&QueryResult::Solutions(rel.clone()))).unwrap();
        assert_eq!(back.result, QueryResult::Solutions(rel));
        assert_eq!(back.dict_terms, 1, "the duplicate term ships once");
    }
}
