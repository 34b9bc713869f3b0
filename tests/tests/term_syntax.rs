//! One term syntax (DESIGN.md → *Term syntax*): a term spelled the same way
//! in a Turtle file, an N-Triples file and a SPARQL query parses to one
//! `Term`, so the federated answer can equal the answer over the merged
//! graph.

use lusail_rdf::vocab::xsd;
use lusail_rdf::{ntriples, turtle, Literal, Term};
use lusail_sparql::serializer::serialize_query;
use lusail_sparql::{parse_query, GraphPattern, Query, QueryForm, TermPattern, TriplePattern};

const EX: &str = "http://example.org/";
const A_NS: &str = "http://a.example/";
const TRUE_NS: &str = "http://true.example/";

fn ex(local: &str) -> Term {
    Term::iri(format!("{EX}{local}"))
}

fn typed(lexical: &str, datatype: &str) -> Term {
    Term::Literal(Literal::typed(lexical, datatype))
}

/// `(spelling, the term every reader must give, whether N-Triples allows
/// the spelling)`.
fn spellings() -> Vec<(&'static str, Term, bool)> {
    vec![
        ("1e3", typed("1e3", xsd::DOUBLE), false),
        ("1.5E-2", typed("1.5E-2", xsd::DOUBLE), false),
        ("+7", typed("+7", xsd::INTEGER), false),
        ("-7", typed("-7", xsd::INTEGER), false),
        (".5", typed(".5", xsd::DECIMAL), false),
        ("ex:v1.2", ex("v1.2"), false),
        ("a:p", Term::iri(format!("{A_NS}p")), false),
        ("true:o", Term::iri(format!("{TRUE_NS}o")), false),
        ("true", typed("true", xsd::BOOLEAN), false),
        (r#""x"^^ex:dt"#, typed("x", &format!("{EX}dt")), false),
        (
            r#""x"^^<http://example.org/dt>"#,
            typed("x", &format!("{EX}dt")),
            true,
        ),
        (
            r#""x"@en-GB"#,
            Term::Literal(Literal::lang("x", "en-GB")),
            true,
        ),
        ("_:b-1", Term::bnode("b-1"), true),
        (r#""caf\u00E9""#, Term::literal("café"), true),
    ]
}

fn turtle_prefixes() -> String {
    format!("@prefix ex: <{EX}> .\n@prefix a: <{A_NS}> .\n@prefix true: <{TRUE_NS}> .\n")
}

fn sparql_prefixes() -> String {
    format!("PREFIX ex: <{EX}> PREFIX a: <{A_NS}> PREFIX true: <{TRUE_NS}> ")
}

/// The terms of the one triple a Turtle or N-Triples document holds.
fn only_triple(graph: lusail_rdf::Graph) -> [Term; 3] {
    let triples = graph.triples();
    assert_eq!(triples.len(), 1, "{triples:?}");
    let t = triples[0].clone();
    [t.subject, t.predicate, t.object]
}

fn sparql_terms(text: &str) -> Vec<Term> {
    let q = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    let mut out = Vec::new();
    for tp in q.all_triple_patterns() {
        for slot in [&tp.subject, &tp.predicate, &tp.object] {
            if let TermPattern::Term(t) = slot {
                out.push(t.clone());
            }
        }
    }
    if let QueryForm::Select(s) = &q.form {
        if let GraphPattern::Values(_, rows) = &s.pattern {
            out.extend(rows.iter().flatten().flatten().cloned());
        }
    }
    out
}

#[test]
fn every_reader_gives_one_term_for_each_spelling() {
    for (spelling, want, in_ntriples) in spellings() {
        let doc = format!("{}ex:s ex:p {spelling} .\n", turtle_prefixes());
        let got = turtle::parse(&doc).unwrap_or_else(|e| panic!("Turtle {spelling}: {e}"));
        assert_eq!(only_triple(got)[2], want, "Turtle object {spelling}");

        let pattern = format!(
            "{}SELECT * WHERE {{ ?s ex:p {spelling} }}",
            sparql_prefixes()
        );
        assert_eq!(
            sparql_terms(&pattern),
            [ex("p"), want.clone()],
            "SPARQL object {spelling}"
        );
        let values = format!(
            "{}SELECT * WHERE {{ VALUES ?o {{ {spelling} }} }}",
            sparql_prefixes()
        );
        assert_eq!(
            sparql_terms(&values),
            std::slice::from_ref(&want),
            "VALUES {spelling}"
        );
        let row = format!(
            "{}SELECT * WHERE {{ VALUES (?o) {{ ({spelling}) }} }}",
            sparql_prefixes()
        );
        assert_eq!(
            sparql_terms(&row),
            std::slice::from_ref(&want),
            "VALUES row {spelling}"
        );

        if in_ntriples {
            let line = format!("<{EX}s> <{EX}p> {spelling} .\n");
            let got =
                ntriples::parse(&line).unwrap_or_else(|e| panic!("N-Triples {spelling}: {e}"));
            assert_eq!(only_triple(got)[2], want, "N-Triples object {spelling}");
        }

        // An IRI may stand in every position; the keyword-named prefixes
        // must not be read as `a` or `true` in any of them.
        if want.is_iri() {
            let doc = format!("{}{spelling} {spelling} {spelling} .\n", turtle_prefixes());
            let got = turtle::parse(&doc).unwrap_or_else(|e| panic!("Turtle {spelling}: {e}"));
            assert_eq!(only_triple(got), [want.clone(), want.clone(), want.clone()]);
            let q = format!(
                "{}ASK {{ {spelling} {spelling} {spelling} . }}",
                sparql_prefixes()
            );
            assert_eq!(sparql_terms(&q), [want.clone(), want.clone(), want.clone()]);
        }
    }
}

#[test]
fn keyword_boundaries_exclude_a_colon() {
    // `truex:y` is a prefixed name, and `a` before a name is still rdf:type.
    let doc = "@prefix truex: <http://t/> .\ntruex:y a truex:C .\n";
    let got = only_triple(turtle::parse(doc).unwrap());
    assert_eq!(
        got,
        [
            Term::iri("http://t/y"),
            Term::iri(lusail_rdf::vocab::rdf::TYPE),
            Term::iri("http://t/C")
        ]
    );
    let q = "PREFIX truex: <http://t/> SELECT * WHERE { ?s a truex:C . ?s ?p true }";
    assert_eq!(
        sparql_terms(q),
        [
            Term::iri(lusail_rdf::vocab::rdf::TYPE),
            Term::iri("http://t/C"),
            typed("true", xsd::BOOLEAN)
        ]
    );
}

#[test]
fn numbers_round_trip_through_the_serializer() {
    let terms = [
        Term::Literal(Literal::double(1e3)),
        Term::integer(-7),
        typed("1.5E-2", xsd::DOUBLE),
    ];
    let mut q = parse_query("SELECT * WHERE { }").unwrap();
    let QueryForm::Select(select) = &mut q.form else {
        unreachable!("a SELECT query");
    };
    select.pattern = GraphPattern::Bgp(
        terms
            .iter()
            .map(|t| {
                TriplePattern::new(
                    TermPattern::var("s"),
                    TermPattern::Term(ex("p")),
                    TermPattern::Term(t.clone()),
                )
            })
            .collect(),
    );
    let text = serialize_query(&q);
    let back: Query = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(back, q, "{text}");
}

#[test]
fn ntriples_refuses_what_it_has_no_syntax_for() {
    for object in ["ex:a", "5", "true", r#""x"^^ex:dt"#] {
        let line = format!("<{EX}s> <{EX}p> {object} .\n");
        assert!(ntriples::parse(&line).is_err(), "{object}");
    }
}

#[test]
fn an_escaped_literal_in_a_data_file_answers_a_query_for_the_character() {
    let dir = std::env::temp_dir().join(format!("lusail-term-syntax-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let nt = dir.join("cafe.nt");
    std::fs::write(
        &nt,
        "<http://example.org/s> <http://example.org/name> \"caf\\u00E9\" .\n",
    )
    .unwrap();
    let args: Vec<String> = [
        "query",
        "--data",
        nt.to_str().unwrap(),
        "--query-text",
        "SELECT ?s WHERE { ?s <http://example.org/name> \"café\" }",
        "--format",
        "csv",
    ]
    .iter()
    .map(|a| a.to_string())
    .collect();
    let mut out = Vec::new();
    lusail_cli::run(&args, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let rows = text
        .lines()
        .filter(|l| l.contains("http://example.org/s"))
        .count();
    assert_eq!(rows, 1, "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
