//! Quickstart: build the paper's two-university federation (Figure 1), run
//! its running-example query Q_a (Figure 2) through Lusail in process, then
//! run it again with each endpoint behind a real `lusail-server` on
//! loopback HTTP. Only the transport behind the `SparqlEndpoint` trait
//! changes, so the answers must not.
//!
//! Run with: `cargo run --release -p lusail-bench --example quickstart`

use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::{
    Federation, HttpEndpoint, NetworkProfile, SimulatedEndpoint, SparqlEndpoint,
};
use lusail_rdf::{turtle, Graph, Term};
use lusail_server::{ServerConfig, SparqlServer};
use lusail_sparql::Relation;
use lusail_store::Store;
use std::sync::Arc;

/// Endpoint 1 (univ1): MIT, its address, and a professor.
const UNIV1: &str = r#"
@prefix ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> .
@prefix u1: <http://univ1.example.org/> .

u1:MIT a ub:University ; ub:address "XXX" .
u1:Ann a ub:AssociateProfessor ; ub:PhDDegreeFrom u1:MIT .
u1:Bob a ub:GraduateStudent ; ub:advisor u1:Ann ; ub:takesCourse u1:ml .
u1:ml a ub:GraduateCourse .
"#;

/// Endpoint 2 (univ2): CMU, students, and the interlink. Tim's PhD is from
/// MIT, the red dotted edge of Figure 1: only a federated engine that
/// traverses it finds Tim's alma mater address.
const UNIV2: &str = r#"
@prefix ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> .
@prefix u1: <http://univ1.example.org/> .
@prefix u2: <http://univ2.example.org/> .

u2:CMU a ub:University ; ub:address "CCCC" .
u2:Joy a ub:AssociateProfessor ; ub:teacherOf u2:db ; ub:PhDDegreeFrom u2:CMU .
u2:Tim a ub:AssociateProfessor ; ub:teacherOf u2:os ; ub:PhDDegreeFrom u1:MIT .
u2:Ben a ub:AssociateProfessor ; ub:teacherOf u2:os ; ub:PhDDegreeFrom u2:CMU .
u2:Kim a ub:GraduateStudent ; ub:advisor u2:Joy , u2:Tim ;
       ub:takesCourse u2:db , u2:os .
u2:Lee a ub:GraduateStudent ; ub:advisor u2:Ben ; ub:takesCourse u2:os .
u2:db a ub:GraduateCourse .
u2:os a ub:GraduateCourse .
"#;

/// Q_a: students taking a course with their advisor, plus the advisor's
/// alma mater and its address.
const QA: &str = r#"
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?S ?P ?U ?A WHERE {
  ?S ub:advisor ?P .
  ?P ub:teacherOf ?C .
  ?S ub:takesCourse ?C .
  ?P ub:PhDDegreeFrom ?U .
  ?S rdf:type ub:GraduateStudent .
  ?P rdf:type ub:AssociateProfessor .
  ?C rdf:type ub:GraduateCourse .
  ?U ub:address ?A . }"#;

fn print_rows(title: &str, results: &Relation) {
    println!("{title} ({} rows):", results.len());
    let cell = |t: &Option<Term>| t.as_ref().map_or("∅".to_string(), |t| t.to_string());
    for row in results.rows() {
        let cells: Vec<String> = row.iter().map(cell).collect();
        println!(
            "  S={} P={} U={} A={}",
            cells[0], cells[1], cells[2], cells[3]
        );
    }
}

fn main() {
    let graphs: Vec<(&str, Graph)> = [("univ1", UNIV1), ("univ2", UNIV2)]
        .into_iter()
        .map(|(name, data)| (name, turtle::parse(data).expect("valid Turtle")))
        .collect();
    let query = lusail_sparql::parse_query(QA).expect("valid SPARQL");

    // ---- In process: each endpoint parses and indexes its own dataset ----
    let simulated = Federation::new(
        graphs
            .iter()
            .map(|(name, g)| {
                let ep = SimulatedEndpoint::new(
                    *name,
                    Store::from_graph(g),
                    NetworkProfile::local_cluster(),
                );
                Arc::new(ep) as Arc<dyn SparqlEndpoint>
            })
            .collect(),
    );
    let engine = LusailEngine::new(simulated, LusailConfig::default());
    let (in_process, profile) = engine.execute_profiled(&query).expect("query succeeds");
    print_rows("Q_a answers in process", &in_process);
    println!("\nWhat Lusail did:");
    println!(
        "  global join variables : {:?}  (paper: ?U and ?P)",
        profile.gjvs
    );
    println!("  subqueries            : {}", profile.subqueries);
    println!("  delayed subqueries    : {}", profile.delayed);
    println!("  check queries sent    : {}", profile.check_queries);
    println!(
        "  phases                : probe {:.2?}, analysis {:.2?}, execution {:.2?}",
        profile.source_selection, profile.analysis, profile.execution
    );

    // ---- Over HTTP: one SPARQL server per dataset, on ephemeral ports ----
    // The clients speak the W3C SPARQL Protocol, so they would work against
    // any standard endpoint (Fuseki, Virtuoso, …) just as well.
    println!();
    let servers: Vec<_> = graphs
        .iter()
        .map(|(_, g)| {
            SparqlServer::bind("127.0.0.1:0", Store::from_graph(g), ServerConfig::default())
                .expect("bind loopback")
                .spawn()
        })
        .collect();
    let over_http = Federation::new(
        graphs
            .iter()
            .zip(&servers)
            .map(|((name, _), server)| {
                println!("{name} serving at {}", server.url());
                Arc::new(HttpEndpoint::new(*name, &server.url()).expect("valid URL"))
                    as Arc<dyn SparqlEndpoint>
            })
            .collect(),
    );
    let engine = LusailEngine::new(over_http, LusailConfig::default());
    let via_http = engine.execute(&query).expect("query succeeds over HTTP");
    print_rows("\nQ_a answers over HTTP", &via_http);
    let traffic = engine.federation().total_traffic();
    println!(
        "  wire traffic: {} HTTP requests, {} bytes received",
        traffic.requests, traffic.bytes_received
    );

    // The interlink answer must be present: (Kim, Tim, MIT, "XXX").
    let interlink = vec![
        Some(Term::iri("http://univ2.example.org/Kim")),
        Some(Term::iri("http://univ2.example.org/Tim")),
        Some(Term::iri("http://univ1.example.org/MIT")),
        Some(Term::literal("XXX")),
    ];
    assert!(
        in_process.rows().contains(&interlink),
        "the cross-endpoint answer about Tim must be found"
    );
    let sorted = |r: &Relation| {
        let mut rows = r.rows().to_vec();
        rows.sort();
        rows
    };
    assert_eq!(
        sorted(&in_process),
        sorted(&via_http),
        "HTTP and in-process runs must return the same rows"
    );
    println!("\n✓ the interlink answer (Kim, Tim, MIT, \"XXX\") was found across endpoints");
    println!("✓ both transports returned the same rows");

    for server in servers {
        server.shutdown();
    }
}
