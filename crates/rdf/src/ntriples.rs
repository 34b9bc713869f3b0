//! N-Triples parsing and serialization.
//!
//! Each line holds three terms read by [`Cursor::ground_term`] (IRIs, blank
//! nodes, plain / typed / language-tagged literals), then a `.`; blank
//! lines and `#` comments are skipped. Terms are read by the same cursor as
//! Turtle's and SPARQL's, so a literal's escapes (`\uXXXX` included) decode
//! as they do in a query. Prefixed names, bare numbers and booleans are
//! refused: N-Triples has none.

use crate::graph::Graph;
use crate::syntax::Cursor;
use crate::triple::Triple;
use std::fmt::Write as _;

/// An N-Triples parse error with 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N-Triples parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse an N-Triples document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph, ParseError> {
    let mut graph = Graph::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let triple = parse_line(line).map_err(|message| ParseError {
            line: lineno + 1,
            message,
        })?;
        graph.insert(triple);
    }
    Ok(graph)
}

fn parse_line(line: &str) -> Result<Triple, String> {
    let mut cursor = Cursor::new(line);
    let mut term = || cursor.ground_term().map_err(|e| e.message);
    let (subject, predicate, object) = (term()?, term()?, term()?);
    if !cursor.eat(".") {
        return Err("expected terminating '.'".into());
    }
    cursor.skip_trivia();
    if !cursor.rest().is_empty() {
        return Err(format!("trailing content: {:?}", cursor.rest()));
    }
    Ok(Triple {
        subject,
        predicate,
        object,
    })
}

/// Serialize a graph as an N-Triples document.
pub fn serialize(graph: &Graph) -> String {
    let mut out = String::new();
    for t in graph {
        let _ = writeln!(out, "{t}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Literal, Term};

    #[test]
    fn parse_basic_document() {
        let doc = r#"
# a comment
<http://x/s> <http://x/p> <http://x/o> .
<http://x/s> <http://x/p> "plain" .
<http://x/s> <http://x/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/s> <http://x/p> "hi"@en .
_:b0 <http://x/p> _:b1 .
"#;
        let g = parse(doc).unwrap();
        assert_eq!(g.len(), 5);
        let objs: Vec<_> = g.iter().map(|t| t.object.clone()).collect();
        assert_eq!(objs[1], Term::literal("plain"));
        assert_eq!(objs[2], Term::integer(42));
        assert_eq!(objs[3], Term::Literal(Literal::lang("hi", "en")));
        assert_eq!(objs[4], Term::bnode("b1"));
    }

    #[test]
    fn roundtrip() {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::literal("line\nbreak \"q\""),
        );
        g.add(
            Term::bnode("n1"),
            Term::iri("http://x/p"),
            Term::integer(-7),
        );
        g.add(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::Literal(Literal::lang("ciao", "it")),
        );
        let doc = serialize(&g);
        let g2 = parse(&doc).unwrap();
        assert_eq!(g.triples(), g2.triples());
    }

    #[test]
    fn error_reports_line() {
        let doc = "<http://x/s> <http://x/p> <http://x/o> .\nbogus line\n";
        let err = parse(doc).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn error_on_missing_dot() {
        assert!(parse("<http://a> <http://b> <http://c>\n").is_err());
    }

    #[test]
    fn error_on_unterminated_literal() {
        assert!(parse("<http://a> <http://b> \"oops .\n").is_err());
    }
}
