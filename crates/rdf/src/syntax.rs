//! The one reader of RDF term syntax.
//!
//! N-Triples, Turtle and SPARQL spell terms with the same W3C terminals:
//! IRIREF, prefixed names, blank node labels, quoted literals with `@lang`
//! or `^^datatype`, INTEGER / DECIMAL / DOUBLE and `true` / `false`. A
//! [`Cursor`] reads them, and each format's parser keeps only its own
//! statement grammar, so a term in a data file and the same term in a query
//! cannot parse to two different [`Term`]s.
//!
//! Not read by any of the three (DESIGN.md → *Term syntax*): `'single'` and
//! `"""long"""` strings, `[ … ]`, collections, `BASE`, and `\u` escapes
//! inside IRIs.

use crate::term::{unescape_literal, Literal, Term};
use crate::vocab::xsd;
use std::sync::Arc;

/// A term-level syntax error: what was expected, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError {
    pub message: String,
    /// Byte offset in the text where the error was detected.
    pub offset: usize,
}

/// A position in a text plus the prefixes declared so far.
#[derive(Debug)]
pub struct Cursor<'a> {
    text: &'a str,
    /// Byte offset of the next unread character; always on a character
    /// boundary of the text.
    pub pos: usize,
    /// `(prefix, namespace)` pairs in declaration order. A later
    /// declaration of a prefix shadows an earlier one.
    pub prefixes: Vec<(String, String)>,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`, with no prefix declared.
    pub fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            prefixes: Vec::new(),
        }
    }

    /// The unread text.
    #[inline]
    pub fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// An error at the current position.
    pub fn err<T>(&self, message: impl Into<String>) -> Result<T, SyntaxError> {
        Err(SyntaxError {
            message: message.into(),
            offset: self.pos,
        })
    }

    /// Skip whitespace and `#` comments.
    #[inline]
    pub fn skip_trivia(&mut self) {
        loop {
            let mut advanced = false;
            while let Some(c) = self.rest().chars().next() {
                if c.is_whitespace() {
                    self.pos += c.len_utf8();
                    advanced = true;
                } else {
                    break;
                }
            }
            if self.rest().starts_with('#') {
                let nl = self
                    .rest()
                    .find('\n')
                    .map(|i| i + 1)
                    .unwrap_or(self.rest().len());
                self.pos += nl;
                advanced = true;
            }
            if !advanced {
                break;
            }
        }
    }

    /// Try to consume a punctuation token after any trivia.
    #[inline]
    pub fn eat(&mut self, token: &str) -> bool {
        self.skip_trivia();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    /// Try to consume a case-insensitive keyword after any trivia. The
    /// keyword must end at a character that cannot continue a name:
    /// neither alphanumeric, `_` nor `:` (so `a:p` and `true:o` are
    /// prefixed names, not the keywords `a` and `true`).
    #[inline]
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_trivia();
        let rest = self.rest();
        // Compared as bytes: `rest` may hold any character where the
        // keyword's last byte falls, and only a match leaves a boundary.
        let head = rest.as_bytes().get(..kw.len());
        if head.is_some_and(|head| head.eq_ignore_ascii_case(kw.as_bytes())) {
            let next = rest[kw.len()..].chars().next();
            if next.is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_' && c != ':') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    /// `name: <iri>`, the body of a Turtle `@prefix` / `PREFIX` or a
    /// SPARQL `PREFIX` declaration (the keyword already consumed).
    pub fn prefix_decl(&mut self) -> Result<(), SyntaxError> {
        self.skip_trivia();
        let rest = self.rest();
        let colon = match rest.find(':') {
            Some(i) => i,
            None => return self.err("expected ':' in prefix declaration"),
        };
        let name = rest[..colon].trim().to_string();
        self.pos += colon + 1;
        let iri = self.iri_ref()?.to_string();
        self.prefixes.push((name, iri));
        Ok(())
    }

    /// `<iri>`: the IRI between the angle brackets, as written.
    pub fn iri_ref(&mut self) -> Result<&'a str, SyntaxError> {
        if !self.eat("<") {
            return self.err("expected '<'");
        }
        let rest = self.rest();
        let end = match rest.find('>') {
            Some(i) => i,
            None => return self.err("unterminated IRI"),
        };
        self.pos += end + 1;
        Ok(&rest[..end])
    }

    /// `prefix:local`, expanded against the declared prefixes. The local
    /// name may contain `.` but not end with it: a trailing `.` ends the
    /// statement.
    pub fn prefixed_name(&mut self) -> Result<String, SyntaxError> {
        self.skip_trivia();
        let rest = self.rest();
        let len = rest
            .char_indices()
            .find(|(_, c)| {
                !(c.is_ascii_alphanumeric() || *c == '_' || *c == '-' || *c == ':' || *c == '.')
            })
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        let name = rest[..len].trim_end_matches('.');
        let colon = match name.find(':') {
            Some(i) => i,
            None => {
                return self.err(format!(
                    "expected a term, found {:?}",
                    rest.chars().take(12).collect::<String>()
                ))
            }
        };
        let (prefix, local) = (&name[..colon], &name[colon + 1..]);
        let ns = match self.prefixes.iter().rev().find(|(p, _)| p == prefix) {
            Some((_, ns)) => ns,
            None => return self.err(format!("undeclared prefix {prefix:?}")),
        };
        let iri = format!("{ns}{local}");
        self.pos += name.len();
        Ok(iri)
    }

    /// An INTEGER, DECIMAL or DOUBLE with an optional sign, typed
    /// `xsd:integer`, `xsd:decimal` or `xsd:double`, its lexical form kept
    /// as written.
    pub fn number(&mut self) -> Result<Literal, SyntaxError> {
        self.skip_trivia();
        let rest = self.rest();
        let b = rest.as_bytes();
        let digits_from = |i: usize| i + b[i..].iter().take_while(|c| c.is_ascii_digit()).count();
        let sign = usize::from(matches!(b.first(), Some(b'+' | b'-')));
        let mut end = digits_from(sign);
        let mut datatype = xsd::INTEGER;
        if b.get(end) == Some(&b'.') {
            // `1.5` and `.5` are decimals, and so is `1.` before an
            // exponent; a bare `1.` is an integer ending a statement.
            let fraction_end = digits_from(end + 1);
            if fraction_end > end + 1 || (end > sign && exponent_len(&b[fraction_end..]) > 0) {
                end = fraction_end;
                datatype = xsd::DECIMAL;
            }
        }
        if end == sign {
            return self.err("expected a number");
        }
        let exponent = exponent_len(&b[end..]);
        if exponent > 0 {
            end += exponent;
            datatype = xsd::DOUBLE;
        }
        self.pos += end;
        Ok(Literal::typed(&rest[..end], datatype))
    }

    /// An IRI, a blank node or a quoted literal: every term N-Triples
    /// allows. A literal's `^^` datatype may be a prefixed name, which
    /// fails unless a prefix was declared.
    pub fn ground_term(&mut self) -> Result<Term, SyntaxError> {
        self.skip_trivia();
        let rest = self.rest();
        if rest.starts_with('<') {
            return Ok(Term::iri(self.iri_ref()?));
        }
        if let Some(body) = rest.strip_prefix("_:") {
            let len = body
                .char_indices()
                .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_' || *c == '-'))
                .map(|(i, _)| i)
                .unwrap_or(body.len());
            if len == 0 {
                return self.err("empty blank node label");
            }
            self.pos += 2 + len;
            return Ok(Term::bnode(&body[..len]));
        }
        if rest.starts_with('"') {
            return self.literal();
        }
        self.err(format!(
            "expected a term, found {:?}",
            rest.chars().take(12).collect::<String>()
        ))
    }

    /// A [`ground_term`](Self::ground_term), a prefixed name, a number or
    /// a boolean: every term Turtle and SPARQL allow.
    pub fn term(&mut self) -> Result<Term, SyntaxError> {
        self.skip_trivia();
        let rest = self.rest();
        if rest.starts_with(['<', '"']) || rest.starts_with("_:") {
            return self.ground_term();
        }
        if self.eat_kw("true") {
            return Ok(Term::Literal(Literal::typed("true", xsd::BOOLEAN)));
        }
        if self.eat_kw("false") {
            return Ok(Term::Literal(Literal::typed("false", xsd::BOOLEAN)));
        }
        if starts_number(rest) {
            return Ok(Term::Literal(self.number()?));
        }
        Ok(Term::iri(self.prefixed_name()?))
    }

    fn literal(&mut self) -> Result<Term, SyntaxError> {
        // rest() starts with '"'
        let body = &self.rest()[1..];
        let mut end = None;
        let mut escaped = false;
        for (i, c) in body.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = match end {
            Some(e) => e,
            None => return self.err("unterminated literal"),
        };
        let lexical = unescape_literal(&body[..end]);
        self.pos += 1 + end + 1;
        if self.rest().starts_with("^^") {
            self.pos += 2;
            let dt: Arc<str> = if self.rest().starts_with('<') {
                self.iri_ref()?.into()
            } else {
                self.prefixed_name()?.into()
            };
            return Ok(Term::Literal(Literal::typed(lexical, dt)));
        }
        if self.rest().starts_with('@') {
            self.pos += 1;
            let rest = self.rest();
            let len = rest
                .char_indices()
                .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '-'))
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            if len == 0 {
                return self.err("empty language tag");
            }
            self.pos += len;
            return Ok(Term::Literal(Literal::lang(lexical, &rest[..len])));
        }
        Ok(Term::Literal(Literal::plain(lexical)))
    }
}

/// Whether `s` opens a number: a digit, or a `.` before one, after an
/// optional sign.
fn starts_number(s: &str) -> bool {
    let b = s.as_bytes();
    let unsigned = match b.first() {
        Some(b'+' | b'-') => &b[1..],
        _ => b,
    };
    match unsigned {
        [d, ..] if d.is_ascii_digit() => true,
        [b'.', d, ..] => d.is_ascii_digit(),
        _ => false,
    }
}

/// The length of the EXPONENT `[eE][+-]?[0-9]+` that opens `b`, or 0.
fn exponent_len(b: &[u8]) -> usize {
    if !matches!(b.first(), Some(b'e' | b'E')) {
        return 0;
    }
    let sign = usize::from(matches!(b.get(1), Some(b'+' | b'-')));
    let digits = b[1 + sign..]
        .iter()
        .take_while(|c| c.is_ascii_digit())
        .count();
    if digits == 0 {
        0
    } else {
        1 + sign + digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_number_ends_where_its_terminal_does() {
        for (text, lexical, datatype, rest) in [
            ("5.", "5", xsd::INTEGER, "."),
            ("5.e3 .", "5.e3", xsd::DOUBLE, " ."),
            ("-1.25e+2x", "-1.25e+2", xsd::DOUBLE, "x"),
            ("12e", "12", xsd::INTEGER, "e"),
            ("+.5E1,", "+.5E1", xsd::DOUBLE, ","),
            ("3.25)", "3.25", xsd::DECIMAL, ")"),
        ] {
            let mut cursor = Cursor::new(text);
            let got = cursor.number().unwrap();
            assert_eq!(got, Literal::typed(lexical, datatype), "{text}");
            assert_eq!(cursor.rest(), rest, "{text}");
        }
        for text in ["+", "-.", ".", "+.e3", "e3", "x"] {
            assert!(Cursor::new(text).number().is_err(), "{text}");
        }
    }

    #[test]
    fn a_later_prefix_declaration_shadows_an_earlier_one() {
        let mut cursor = Cursor::new("p: <http://one/> p: <http://two/> p:x");
        cursor.prefix_decl().unwrap();
        cursor.prefix_decl().unwrap();
        assert_eq!(cursor.term().unwrap(), Term::iri("http://two/x"));
    }
}
