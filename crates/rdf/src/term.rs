//! RDF terms: IRIs, blank nodes, and literals.
//!
//! String payloads are `Arc<str>`: a clone shares the buffer (one relaxed
//! atomic increment) instead of copying it, and `Arc<str>` hashes,
//! compares, orders and displays exactly as the `str` it points to. `Arc`
//! rather than `Rc` because result rows cross ERH worker threads.

use std::fmt;
use std::sync::Arc;

/// An RDF literal: a lexical form plus an optional datatype IRI or language
/// tag. Plain literals (no datatype, no language) are represented with both
/// fields `None`; consumers treat them as `xsd:string`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The lexical form, e.g. `"42"` or `"Cambridge, MA"`.
    pub lexical: Arc<str>,
    /// Datatype IRI, e.g. `http://www.w3.org/2001/XMLSchema#integer`.
    pub datatype: Option<Arc<str>>,
    /// BCP-47 language tag, e.g. `en`.
    pub language: Option<Arc<str>>,
}

impl Literal {
    /// A plain (untyped, untagged) string literal.
    pub fn plain(lexical: impl Into<Arc<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            language: None,
        }
    }

    /// A literal with an explicit datatype IRI.
    pub fn typed(lexical: impl Into<Arc<str>>, datatype: impl Into<Arc<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: Some(datatype.into()),
            language: None,
        }
    }

    /// A language-tagged string literal.
    pub fn lang(lexical: impl Into<Arc<str>>, language: impl Into<Arc<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            language: Some(language.into()),
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal::typed(value.to_string(), crate::vocab::xsd::INTEGER)
    }

    /// An `xsd:double` literal.
    pub fn double(value: f64) -> Self {
        Literal::typed(value.to_string(), crate::vocab::xsd::DOUBLE)
    }

    /// Try to interpret the lexical form as an integer. Works for any
    /// datatype whose lexical form parses as `i64` (SPARQL's numeric
    /// promotion is approximated by parsing).
    pub fn as_i64(&self) -> Option<i64> {
        self.lexical.trim().parse().ok()
    }

    /// Try to interpret the lexical form as a double.
    pub fn as_f64(&self) -> Option<f64> {
        self.lexical.trim().parse().ok()
    }

    /// True when the literal's datatype is one of the XSD numeric types, or
    /// when it is untyped but parses as a number.
    pub fn is_numeric(&self) -> bool {
        match &self.datatype {
            Some(dt) => crate::vocab::xsd::is_numeric(dt),
            None => self.as_f64().is_some(),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        if let Some(lang) = &self.language {
            write!(f, "@{lang}")?;
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^<{dt}>")?;
        }
        Ok(())
    }
}

/// An RDF term. The three kinds follow the RDF 1.1 abstract syntax.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI, stored as its full string form without angle brackets.
    Iri(Arc<str>),
    /// A blank node with its local label (no `_:` prefix).
    BlankNode(Arc<str>),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Construct an IRI term.
    pub fn iri(iri: impl Into<Arc<str>>) -> Self {
        Term::Iri(iri.into())
    }

    /// Construct a blank-node term.
    pub fn bnode(label: impl Into<Arc<str>>) -> Self {
        Term::BlankNode(label.into())
    }

    /// Construct a plain literal term.
    pub fn literal(lexical: impl Into<Arc<str>>) -> Self {
        Term::Literal(Literal::plain(lexical))
    }

    /// Construct an `xsd:integer` literal term.
    pub fn integer(value: i64) -> Self {
        Term::Literal(Literal::integer(value))
    }

    /// The IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The literal if this term is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// True for IRI terms.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True for literal terms.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True for blank-node terms.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    /// The *authority* of an IRI term: scheme plus host, e.g.
    /// `http://dbpedia.org`. Used by the HiBISCuS-style baseline for
    /// authority-based source pruning. Returns `None` for non-IRI terms or
    /// IRIs without a `://`.
    pub fn authority(&self) -> Option<&str> {
        let iri = self.as_iri()?;
        let rest = iri.split_once("://").map(|(_, r)| r)?;
        let host_end = rest.find(['/', '#', '?']).unwrap_or(rest.len());
        let end = iri.len() - rest.len() + host_end;
        Some(&iri[..end])
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write!(f, "<{iri}>"),
            Term::BlankNode(label) => write!(f, "_:{label}"),
            Term::Literal(lit) => write!(f, "{lit}"),
        }
    }
}

/// Escape a literal's lexical form for N-Triples/SPARQL serialization.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Undo [`escape_literal`], and decode the other escapes the N-Triples,
/// Turtle and SPARQL string grammars share: `\b`, `\f`, `\'`, `\uXXXX`
/// and `\UXXXXXXXX`. A malformed escape (an unknown letter, bad hex, a
/// surrogate or a value above `0x10FFFF`) is kept verbatim.
pub fn unescape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let escape = &rest[at + 1..];
        let (decoded, len) = match escape.as_bytes().first() {
            Some(b'n') => (Some('\n'), 1),
            Some(b'r') => (Some('\r'), 1),
            Some(b't') => (Some('\t'), 1),
            Some(b'b') => (Some('\u{8}'), 1),
            Some(b'f') => (Some('\u{c}'), 1),
            Some(b'"') => (Some('"'), 1),
            Some(b'\'') => (Some('\''), 1),
            Some(b'\\') => (Some('\\'), 1),
            Some(b'u') => (code_point(escape.get(1..5)), 5),
            Some(b'U') => (code_point(escape.get(1..9)), 9),
            _ => (None, 0),
        };
        match decoded {
            Some(c) => {
                out.push(c);
                rest = &escape[len..];
            }
            None => {
                out.push('\\');
                rest = escape;
            }
        }
    }
    out.push_str(rest);
    out
}

/// The character whose code point `hex` spells, if it is all hex digits
/// and a Unicode scalar value.
fn code_point(hex: Option<&str>) -> Option<char> {
    let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))?;
    char::from_u32(u32::from_str_radix(hex, 16).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_constructors() {
        let plain = Literal::plain("hello");
        assert_eq!(&*plain.lexical, "hello");
        assert!(plain.datatype.is_none() && plain.language.is_none());

        let typed = Literal::integer(42);
        assert_eq!(typed.as_i64(), Some(42));
        assert!(typed.is_numeric());

        let tagged = Literal::lang("bonjour", "fr");
        assert_eq!(tagged.language.as_deref(), Some("fr"));
    }

    #[test]
    fn term_display_roundtrippable_forms() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::bnode("b0").to_string(), "_:b0");
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
        assert_eq!(
            Term::Literal(Literal::lang("hi", "en")).to_string(),
            "\"hi\"@en"
        );
        assert_eq!(
            Term::integer(3).to_string(),
            "\"3\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    /// A seeded bag of terms over a small alphabet, so equal lexical forms
    /// meet under different kinds, datatypes and language tags.
    fn term_bag(seed: u64, n: usize) -> Vec<Term> {
        let mut state = seed;
        let mut next = move |bound: u64| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let word = |alphabet: &[char], next: &mut dyn FnMut(u64) -> u64| -> String {
            (0..next(4))
                .map(|_| alphabet[next(alphabet.len() as u64) as usize])
                .collect()
        };
        let plain = ['a', 'b', 'Z'];
        let nasty = ['a', 'b', '"', '\\', '\n', '\t', 'é'];
        (0..n)
            .map(|_| match next(5) {
                0 => Term::iri(format!("http://x/{}", word(&plain, &mut next))),
                1 => Term::bnode(format!("b{}", word(&plain, &mut next))),
                2 => Term::literal(word(&nasty, &mut next)),
                3 => Term::Literal(Literal::typed(
                    word(&nasty, &mut next),
                    format!("http://t/{}", word(&plain, &mut next)),
                )),
                _ => Term::Literal(Literal::lang(
                    word(&nasty, &mut next),
                    ["en", "en-US", "fr"][next(3) as usize],
                )),
            })
            .collect()
    }

    /// The term as plain strings: what `Ord`, `Eq` and `Hash` must agree
    /// with whatever the payload's representation is.
    fn string_key(t: &Term) -> (u8, String, Option<String>, Option<String>) {
        match t {
            Term::Iri(s) => (0, s.to_string(), None, None),
            Term::BlankNode(s) => (1, s.to_string(), None, None),
            Term::Literal(l) => (
                2,
                l.lexical.to_string(),
                l.datatype.as_deref().map(str::to_string),
                l.language.as_deref().map(str::to_string),
            ),
        }
    }

    #[test]
    fn terms_order_as_their_string_tuples() {
        for seed in 0..8 {
            let bag = term_bag(seed, 300);
            let mut by_term = bag.clone();
            by_term.sort();
            let mut by_key = bag;
            by_key.sort_by_key(string_key);
            assert_eq!(by_term, by_key, "seed {seed}");
        }
    }

    #[test]
    fn hash_is_of_the_strings_not_of_the_allocation() {
        use std::hash::BuildHasher;
        let hasher = crate::fxhash::FxBuildHasher::default();
        for t in term_bag(11, 300) {
            // The same term rebuilt from fresh buffers, as another store's
            // dictionary or a decoder would hold it.
            let (kind, lexical, datatype, language) = string_key(&t);
            let rebuilt = match kind {
                0 => Term::iri(lexical),
                1 => Term::bnode(lexical),
                _ => Term::Literal(Literal {
                    lexical: lexical.into(),
                    datatype: datatype.map(Into::into),
                    language: language.map(Into::into),
                }),
            };
            assert_eq!(rebuilt, t);
            assert_eq!(hasher.hash_one(&rebuilt), hasher.hash_one(&t), "{t}");
        }
    }

    #[test]
    fn display_round_trips_through_ntriples() {
        for object in term_bag(23, 300) {
            let subject = if object.is_literal() {
                Term::iri("http://x/s")
            } else {
                object.clone()
            };
            let triple = crate::Triple::new(subject, Term::iri("http://x/p"), object);
            let parsed = crate::ntriples::parse(&format!("{triple}\n")).unwrap();
            assert_eq!(parsed.triples(), [triple]);
        }
    }

    #[test]
    fn escape_roundtrip() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash";
        assert_eq!(unescape_literal(&escape_literal(nasty)), nasty);
    }

    #[test]
    fn unescape_decodes_every_string_escape() {
        assert_eq!(
            unescape_literal(r#"\b\f\'\"\\ caf\u00E9 \U0001F600"#),
            "\u{8}\u{c}'\"\\ café \u{1F600}"
        );
        // Malformed escapes stay as written: an unknown letter, short or
        // bad hex, a surrogate, a value past U+10FFFF, a lone backslash.
        for kept in [
            r"\x",
            r"\u00E",
            r"\u00G9",
            r"\u+0E9",
            r"\uD800",
            r"\U00110000",
            r"a\",
        ] {
            assert_eq!(unescape_literal(kept), kept);
        }
    }

    #[test]
    fn authority_extraction() {
        let t = Term::iri("http://dbpedia.org/resource/Berlin");
        assert_eq!(t.authority(), Some("http://dbpedia.org"));
        let t = Term::iri("http://example.com#frag");
        assert_eq!(t.authority(), Some("http://example.com"));
        let t = Term::iri("urn:uuid:123");
        assert_eq!(t.authority(), None);
        assert_eq!(Term::literal("x").authority(), None);
    }

    #[test]
    fn numeric_detection() {
        assert!(Literal::plain("3.5").is_numeric());
        assert!(!Literal::plain("abc").is_numeric());
        assert!(Literal::typed("7", crate::vocab::xsd::INT).is_numeric());
        assert!(!Literal::typed("7", "http://x/other").is_numeric());
    }
}
