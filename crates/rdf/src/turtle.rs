//! A Turtle-subset parser.
//!
//! Supports the statement grammar that benchmark data and example files
//! use:
//!
//! * `@prefix p: <iri> .` declarations and `PREFIX` (SPARQL-style, no dot)
//! * the `a` keyword for `rdf:type`
//! * predicate lists (`;`) and object lists (`,`)
//!
//! Every term (full IRIs, prefixed names, blank nodes, literals, numbers,
//! booleans) is read by [`Cursor::term`], the reader SPARQL queries use
//! too. Not supported: collections `( … )`, anonymous blank nodes `[ … ]`,
//! base IRIs, and `'single'` or `"""long"""` strings (DESIGN.md → *Term
//! syntax*).

use crate::graph::Graph;
use crate::syntax::{Cursor, SyntaxError};
use crate::term::Term;
use crate::triple::Triple;
use crate::vocab;

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

impl From<SyntaxError> for TurtleError {
    fn from(e: SyntaxError) -> Self {
        TurtleError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// Parse a Turtle-subset document into a [`Graph`].
pub fn parse(input: &str) -> Result<Graph, TurtleError> {
    let mut cursor = Cursor::new(input);
    let mut graph = Graph::new();
    loop {
        cursor.skip_trivia();
        if cursor.rest().is_empty() {
            return Ok(graph);
        }
        if cursor.eat("@prefix") {
            cursor.prefix_decl()?;
            if !cursor.eat(".") {
                return Err(TurtleError {
                    message: "expected '.' after @prefix".into(),
                    offset: cursor.pos,
                });
            }
        } else if cursor.eat_kw("PREFIX") {
            cursor.prefix_decl()?;
            // SPARQL-style PREFIX takes no dot; one is tolerated.
            cursor.eat(".");
        } else {
            statement(&mut cursor, &mut graph)?;
        }
    }
}

/// `subject predicate object (, object)* (; predicate object …)* .`
fn statement(cursor: &mut Cursor, graph: &mut Graph) -> Result<(), SyntaxError> {
    let subject = cursor.term()?;
    loop {
        let predicate = if cursor.eat_kw("a") {
            Term::iri(vocab::rdf::TYPE)
        } else {
            cursor.term()?
        };
        loop {
            let object = cursor.term()?;
            graph.insert(Triple {
                subject: subject.clone(),
                predicate: predicate.clone(),
                object,
            });
            if !cursor.eat(",") {
                break;
            }
        }
        if !cursor.eat(";") {
            break;
        }
        // Allow a trailing `;` before `.` as Turtle does.
        cursor.skip_trivia();
        if cursor.rest().starts_with('.') {
            break;
        }
    }
    if !cursor.eat(".") {
        return cursor.err("expected '.' at end of statement");
    }
    Ok(())
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
