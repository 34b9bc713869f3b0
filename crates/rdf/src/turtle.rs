//! A Turtle-subset parser.
//!
//! Supports the constructs that appear in benchmark data and example files:
//!
//! * `@prefix p: <iri> .` declarations and `PREFIX` (SPARQL-style, no dot)
//! * prefixed names (`ub:advisor`), full IRIs, blank nodes (`_:b`)
//! * the `a` keyword for `rdf:type`
//! * predicate lists (`;`) and object lists (`,`)
//! * plain / typed / language-tagged literals, integers, decimals, booleans
//!
//! Not supported (not needed by any workload): collections `( … )`,
//! anonymous blank nodes `[ … ]`, base IRIs, and multiline literals.

use crate::graph::Graph;
use crate::term::{unescape_literal, Literal, Term};
use crate::vocab;
use std::collections::HashMap;
use std::sync::Arc;

/// A Turtle parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurtleError {
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl std::fmt::Display for TurtleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Turtle parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for TurtleError {}

/// Parse a Turtle-subset document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph, TurtleError> {
    Parser::new(input).parse_document()
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
    prefixes: HashMap<String, String>,
    graph: Graph,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s,
            pos: 0,
            prefixes: HashMap::new(),
            graph: Graph::new(),
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, TurtleError> {
        Err(TurtleError {
            message: message.into(),
            offset: self.pos,
        })
    }

    fn rest(&self) -> &'a str {
        &self.s[self.pos..]
    }

    fn skip_trivia(&mut self) {
        loop {
            let rest = self.rest();
            let mut advanced = false;
            for c in rest.chars() {
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

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn eat_keyword_ci(&mut self, kw: &str) -> bool {
        let rest = self.rest();
        if rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_document(mut self) -> Result<Graph, TurtleError> {
        loop {
            self.skip_trivia();
            if self.rest().is_empty() {
                return Ok(self.graph);
            }
            if self.eat("@prefix") {
                self.parse_prefix(true)?;
            } else if self.rest().len() >= 6 && self.rest()[..6].eq_ignore_ascii_case("prefix") {
                self.eat_keyword_ci("prefix");
                self.parse_prefix(false)?;
            } else {
                self.parse_statement()?;
            }
        }
    }

    fn parse_prefix(&mut self, requires_dot: bool) -> Result<(), TurtleError> {
        self.skip_trivia();
        let rest = self.rest();
        let colon = match rest.find(':') {
            Some(i) => i,
            None => return self.err("expected ':' in prefix declaration"),
        };
        let name = rest[..colon].trim().to_string();
        self.pos += colon + 1;
        self.skip_trivia();
        let iri = self.parse_iri_ref()?;
        self.prefixes.insert(name, iri);
        self.skip_trivia();
        if requires_dot && !self.eat(".") {
            return self.err("expected '.' after @prefix");
        }
        // SPARQL-style PREFIX allows an optional dot; consume if present.
        if !requires_dot {
            self.skip_trivia();
            self.eat(".");
        }
        Ok(())
    }

    fn parse_iri_ref(&mut self) -> Result<String, TurtleError> {
        if !self.eat("<") {
            return self.err("expected '<'");
        }
        let rest = self.rest();
        let end = match rest.find('>') {
            Some(i) => i,
            None => return self.err("unterminated IRI"),
        };
        let iri = rest[..end].to_string();
        self.pos += end + 1;
        Ok(iri)
    }

    fn parse_statement(&mut self) -> Result<(), TurtleError> {
        let subject = self.parse_term()?;
        loop {
            self.skip_trivia();
            let predicate = if self.rest().starts_with('a')
                && self.rest()[1..]
                    .chars()
                    .next()
                    .is_none_or(|c| c.is_whitespace())
            {
                self.pos += 1;
                Term::iri(vocab::rdf::TYPE)
            } else {
                self.parse_term()?
            };
            loop {
                let object = self.parse_term()?;
                self.graph.insert(crate::Triple {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                self.skip_trivia();
                if !self.eat(",") {
                    break;
                }
            }
            self.skip_trivia();
            if self.eat(";") {
                self.skip_trivia();
                // Allow a trailing `;` before `.` as Turtle does.
                if self.rest().starts_with('.') {
                    break;
                }
                continue;
            }
            break;
        }
        self.skip_trivia();
        if !self.eat(".") {
            return self.err("expected '.' at end of statement");
        }
        Ok(())
    }

    fn parse_term(&mut self) -> Result<Term, TurtleError> {
        self.skip_trivia();
        let rest = self.rest();
        if rest.starts_with('<') {
            return Ok(Term::iri(self.parse_iri_ref()?));
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
            let label = body[..len].to_string();
            self.pos += 2 + len;
            return Ok(Term::bnode(label));
        }
        if rest.starts_with('"') {
            return self.parse_literal();
        }
        if rest.starts_with("true") {
            self.pos += 4;
            return Ok(Term::Literal(Literal::typed("true", vocab::xsd::BOOLEAN)));
        }
        if rest.starts_with("false") {
            self.pos += 5;
            return Ok(Term::Literal(Literal::typed("false", vocab::xsd::BOOLEAN)));
        }
        if rest.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '+') {
            return self.parse_number();
        }
        self.parse_prefixed_name()
    }

    fn parse_number(&mut self) -> Result<Term, TurtleError> {
        let rest = self.rest();
        let len = rest
            .char_indices()
            .find(|(i, c)| {
                !(c.is_ascii_digit()
                    || *c == '.' && rest[i + 1..].starts_with(|d: char| d.is_ascii_digit())
                    || (*i == 0 && (*c == '-' || *c == '+'))
                    || *c == 'e'
                    || *c == 'E')
            })
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        let text = &rest[..len];
        self.pos += len;
        if text.contains(['.', 'e', 'E']) {
            match text.parse::<f64>() {
                Ok(_) => Ok(Term::Literal(Literal::typed(text, vocab::xsd::DECIMAL))),
                Err(_) => self.err(format!("bad numeric literal {text:?}")),
            }
        } else {
            match text.parse::<i64>() {
                Ok(_) => Ok(Term::Literal(Literal::typed(text, vocab::xsd::INTEGER))),
                Err(_) => self.err(format!("bad integer literal {text:?}")),
            }
        }
    }

    fn parse_literal(&mut self) -> Result<Term, TurtleError> {
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
        if self.eat("^^") {
            let dt: Arc<str> = if self.rest().starts_with('<') {
                self.parse_iri_ref()?.into()
            } else {
                match self.parse_prefixed_name()? {
                    Term::Iri(iri) => iri,
                    _ => return self.err("datatype must be an IRI"),
                }
            };
            return Ok(Term::Literal(Literal::typed(lexical, dt)));
        }
        if self.eat("@") {
            let rest = self.rest();
            let len = rest
                .char_indices()
                .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '-'))
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            if len == 0 {
                return self.err("empty language tag");
            }
            let lang = &rest[..len];
            self.pos += len;
            return Ok(Term::Literal(Literal::lang(lexical, lang)));
        }
        Ok(Term::Literal(Literal::plain(lexical)))
    }

    fn parse_prefixed_name(&mut self) -> Result<Term, TurtleError> {
        let rest = self.rest();
        let len = rest
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_' || *c == '-' || *c == ':'))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        let name = &rest[..len];
        let colon = match name.find(':') {
            Some(i) => i,
            None => return self.err(format!("expected a term, found {name:?}")),
        };
        let (prefix, local) = (&name[..colon], &name[colon + 1..]);
        let ns = match self.prefixes.get(prefix) {
            Some(ns) => ns.clone(),
            None => return self.err(format!("undeclared prefix {prefix:?}")),
        };
        self.pos += len;
        Ok(Term::iri(format!("{ns}{local}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_prefixes_and_shortcuts() {
        let doc = r#"
@prefix ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> .
@prefix ex: <http://example.org/> .

ex:kim a ub:GraduateStudent ;
    ub:advisor ex:tim , ex:joy ;
    ub:takesCourse ex:course1 .
ex:tim ub:PhDDegreeFrom ex:mit .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 5);
        assert!(g.iter().any(|t| t.predicate == Term::iri(vocab::rdf::TYPE)));
        assert!(g
            .iter()
            .any(|t| t.object == Term::iri("http://example.org/joy")));
    }

    #[test]
    fn parse_literals_and_numbers() {
        let doc = r#"
@prefix ex: <http://example.org/> .
ex:a ex:name "Alice" ; ex:age 30 ; ex:height 1.7 ; ex:active true ;
     ex:label "hallo"@de ; ex:code "X"^^ex:Code .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 6);
        let age = g
            .iter()
            .find(|t| t.predicate == Term::iri("http://example.org/age"))
            .unwrap();
        assert_eq!(age.object.as_literal().unwrap().as_i64(), Some(30));
        let code = g
            .iter()
            .find(|t| t.predicate == Term::iri("http://example.org/code"))
            .unwrap();
        assert_eq!(
            code.object.as_literal().unwrap().datatype.as_deref(),
            Some("http://example.org/Code")
        );
    }

    #[test]
    fn sparql_style_prefix() {
        let doc = "PREFIX ex: <http://e/>\nex:s ex:p ex:o .";
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn undeclared_prefix_is_error() {
        assert!(parse("nope:s nope:p nope:o .").is_err());
    }

    #[test]
    fn comments_ignored() {
        let doc = "# header\n@prefix ex: <http://e/> . # trailing\nex:s ex:p ex:o . # done\n";
        assert_eq!(parse(doc).unwrap().len(), 1);
    }

    #[test]
    fn trailing_semicolon_allowed() {
        let doc = "@prefix ex: <http://e/> .\nex:s ex:p ex:o ; .";
        assert_eq!(parse(doc).unwrap().len(), 1);
    }
}
