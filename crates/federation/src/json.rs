//! A minimal JSON document model: parser, writer and string escaping.
//!
//! The wire layer needs JSON twice — serializing SPARQL results on the
//! server and parsing them back in the HTTP client — and the offline
//! build has no serde. This module implements exactly RFC 8259: all six
//! value kinds, `\uXXXX` escapes with surrogate pairs, and a nesting
//! depth cap so a hostile endpoint cannot blow the parser's stack.
//!
//! It is also the stats model (DESIGN.md → *Stats model*): every counter
//! struct describes itself once as a [`Json`] value, `GET /stats` prints
//! that value with [`Json`]'s `Display` and `lusail query --stats` prints
//! the same value with [`render_text`].

use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`Json::parse`].
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects preserve key order (harmless, and it makes
/// round-trip tests deterministic).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object with `fields` in the given order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A duration as fractional milliseconds at microsecond resolution —
    /// the unit of every `…_ms` key.
    pub fn millis(d: std::time::Duration) -> Json {
        Json::Number(d.as_micros() as f64 / 1000.0)
    }

    /// This object with one more field at the end.
    pub fn with(self, key: &str, value: impl Into<Json>) -> Json {
        self.merge(Json::object([(key, value.into())]))
    }

    /// This object followed by the fields of `other` (a non-object `other`
    /// adds nothing).
    pub fn merge(mut self, other: Json) -> Json {
        if let (Json::Object(fields), Json::Object(more)) = (&mut self, other) {
            fields.extend(more);
        }
        self
    }

    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }

    /// An object's fields in order (empty for non-objects).
    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Object(fields) => fields,
            _ => &[],
        }
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with a byte offset into the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    /// Exact up to 2⁵³, far past any counter here.
    fn from(n: u64) -> Json {
        Json::Number(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Number(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// The compact writer: no whitespace, object keys in stored order. A
/// finite integral number prints as an integer (no fraction, no
/// exponent), any other finite number in Rust's shortest round-trip
/// decimal form, and a non-finite one as `null` — JSON has no spelling
/// for it.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) if !n.is_finite() => f.write_str("null"),
            Json::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => write!(f, "{}", *n as i64),
            Json::Number(n) => write!(f, "{n}"),
            Json::String(s) => f.write_str(&quoted(s)),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{value}", quoted(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Print a stats document as the `# …` comment block behind
/// `lusail query --stats`, by one rule: an object is a `key:` line
/// carrying its scalar fields as `key=value` pairs, followed by its object
/// fields one level in. Labels are the JSON keys, so the text and
/// `GET /stats` speak one vocabulary and every line names what it counts
/// (`grep breaker=open`). Empty objects print nothing, `null` prints `-`,
/// and a string with a space in it keeps its quotes.
pub fn render_text(out: &mut dyn std::io::Write, doc: &Json) -> std::io::Result<()> {
    doc.fields()
        .iter()
        .try_for_each(|(key, value)| render_entry(out, key, value, ""))
}

fn scalar_text(value: &Json) -> String {
    match value {
        Json::Null => "-".to_string(),
        Json::String(s) if !s.contains(' ') => s.clone(),
        other => other.to_string(),
    }
}

fn render_entry(
    out: &mut dyn std::io::Write,
    key: &str,
    value: &Json,
    indent: &str,
) -> std::io::Result<()> {
    let Json::Object(fields) = value else {
        return writeln!(out, "# {indent}{key}: {}", scalar_text(value));
    };
    if fields.is_empty() {
        return Ok(());
    }
    let is_object = |v: &Json| matches!(v, Json::Object(_));
    write!(out, "# {indent}{key}:")?;
    for (key, value) in fields.iter().filter(|(_, v)| !is_object(v)) {
        write!(out, " {key}={}", scalar_text(value))?;
    }
    writeln!(out)?;
    let inner = format!("{indent}  ");
    fields
        .iter()
        .filter(|(_, v)| is_object(v))
        .try_for_each(|(key, value)| render_entry(out, key, value, &inner))
}

/// Append `s` to `out` as the *contents* of a JSON string (no surrounding
/// quotes). Every byte that needs an escape is ASCII, so the runs between
/// them end on char boundaries and are copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    loop {
        let run = plain_run(rest.as_bytes());
        out.push_str(&rest[..run]);
        let Some(&b) = rest.as_bytes().get(run) else {
            return;
        };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[run + 1..];
    }
}

/// How many bytes at the start of `bytes` a JSON string holds verbatim:
/// everything before the first quote, backslash or control byte. The
/// writer and both string readers copy such a run in one piece, so the
/// scan goes eight bytes at a time.
pub(crate) fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // Flags each byte of `word` below `n` (≤ 0x80) in its high bit. A
    // borrow only carries upward, so the lowest flag is always a true one.
    let below = |word: u64, n: u64| word.wrapping_sub(ONES * n) & !word & HIGHS;
    let mut i = 0;
    while let Some(eight) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
        let stops = below(word ^ (ONES * b'"' as u64), 1)
            | below(word ^ (ONES * b'\\' as u64), 1)
            | below(word, 0x20);
        if stops != 0 {
            return i + stops.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    let tail = &bytes[i..];
    i + tail
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(tail.len())
}

/// `s` as a JSON string literal, quotes included.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

struct Parser<'a> {
    /// The document; `bytes` is the same text, for byte-wise scanning.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| JsonError {
                offset: start,
                message: format!("bad number {text:?}"),
            })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // whole: those are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            self.pos += plain_run(&self.bytes[run..]);
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let Some(digits) = self.bytes.get(self.pos..end) else {
            return Err(self.err("truncated \\u escape"));
        };
        // Four hex digits exactly: `from_str_radix` alone would take a sign.
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        let v = u32::from_str_radix(&self.text[self.pos..end], 16)
            .map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Number(-250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0], Json::Number(1.0));
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Object(vec![]));
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "quote\" slash\\ newline\n tab\t bell\u{07} ünïcödé 😀";
        let doc = quoted(nasty);
        assert_eq!(Json::parse(&doc).unwrap(), Json::String(nasty.into()));
        // The escapes on the wire: short forms where JSON has one, lower-case
        // `\u00xx` for the other control characters, everything else as is.
        let mut out = String::from("kept:");
        escape_into(&mut out, "\"\\/\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}é");
        assert_eq!(out, "kept:\\\"\\\\/\\n\\r\\t\\b\\f\\u0000\\u001f\u{7f}é");
    }

    /// The eight-at-a-time scan stops where a byte-wise one does: every
    /// byte value, at every offset in a word, behind every other.
    #[test]
    fn plain_run_stops_at_the_first_quote_backslash_or_control_byte() {
        let stops = |b: u8| b == b'"' || b == b'\\' || b < 0x20;
        for stop in 0..=255u8 {
            for before in [b'a', 0x7F, 0x80, 0xC3, 0xFF, b'"' + 1, b'\\' - 1] {
                for at in 0..20 {
                    let mut bytes = vec![before; 20];
                    bytes[at] = stop;
                    let want = bytes.iter().position(|&b| stops(b)).unwrap_or(20);
                    assert_eq!(
                        plain_run(&bytes),
                        want,
                        "{stop:#x} at {at} after {before:#x}"
                    );
                }
            }
        }
        assert_eq!(plain_run(b""), 0);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let long = "é".repeat(1_000_000);
        let doc = format!("[\"{long}\",\"a\\u00e9{long}\"]");
        let parsed = Json::parse(&doc).unwrap();
        let items = parsed.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some(long.as_str()));
        assert_eq!(items[1].as_str().map(str::len), Some(3 + long.len()));
        // A \u escape takes four hex digits and nothing else.
        assert!(Json::parse(r#""\u+041""#).is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::String("é".into()));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::String("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "[1] trailing",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_degenerate_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn writer_is_compact_and_keeps_key_order() {
        let doc = Json::object([("b", Json::from(1u64)), ("a", Json::from("x\"y"))])
            .with("n", None::<u64>)
            .with("ms", Json::millis(std::time::Duration::from_micros(1500)))
            .merge(Json::object([("list", Json::Array(vec![true.into()]))]));
        let text = r#"{"b":1,"a":"x\"y","n":null,"ms":1.5,"list":[true]}"#;
        assert_eq!(doc.to_string(), text);
        assert_eq!(Json::parse(text).unwrap(), doc);
    }

    #[test]
    fn text_rendering_is_one_line_per_object() {
        let doc = Json::parse(
            r#"{"erh":{"waves":2,"cap":null,"note":"a b","sizes":[1,2]},
                "none":{},
                "endpoints":{"a":{"requests":3,"breaker":"closed"},
                             "grp":{"requests":10,"members":{"m1":{"dispatches":7}}}}}"#,
        )
        .unwrap();
        let mut out = Vec::new();
        render_text(&mut out, &doc).unwrap();
        let expected = "\
# erh: waves=2 cap=- note=\"a b\" sizes=[1,2]
# endpoints:
#   a: requests=3 breaker=closed
#   grp: requests=10
#     members:
#       m1: dispatches=7
";
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }
}
