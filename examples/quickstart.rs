//! Quickstart: build a two-university federation by hand (the paper's
//! Figure 1), run the running-example query Q_a (Figure 2) through Lusail,
//! and inspect what LADE and SAPE did.
//!
//! Run with: `cargo run --release --example quickstart`

use lusail_core::{LusailConfig, LusailEngine};
use lusail_federation::{Federation, NetworkProfile, SimulatedEndpoint, SparqlEndpoint};
use lusail_rdf::{turtle, vocab, Term};
use lusail_store::Store;
use std::sync::Arc;

fn main() {
    // ---- Endpoint 1 (univ1): MIT, its address, and a professor --------
    // Datasets are plain Turtle; each endpoint parses and indexes its own.
    let ep1_data = r#"
@prefix ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> .
@prefix u1: <http://univ1.example.org/> .

u1:MIT a ub:University ; ub:address "XXX" .
u1:Ann a ub:AssociateProfessor ; ub:PhDDegreeFrom u1:MIT .
u1:Bob a ub:GraduateStudent ; ub:advisor u1:Ann ; ub:takesCourse u1:ml .
u1:ml a ub:GraduateCourse .
"#;

    // ---- Endpoint 2 (univ2): CMU, students, and the interlink ---------
    // Tim's PhD is from MIT: the red dotted edge of Figure 1. Only a
    // federated engine that traverses it finds Tim's alma mater address.
    let ep2_data = r#"
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

    let make_endpoint = |name: &str, data: &str| -> Arc<dyn SparqlEndpoint> {
        let graph = turtle::parse(data).expect("valid Turtle");
        Arc::new(SimulatedEndpoint::new(
            name,
            Store::from_graph(&graph),
            NetworkProfile::local_cluster(),
        ))
    };
    let federation = Federation::new(vec![
        make_endpoint("univ1", ep1_data),
        make_endpoint("univ2", ep2_data),
    ]);

    // ---- The federated engine -----------------------------------------
    let engine = LusailEngine::new(federation, LusailConfig::default());

    // Q_a: students taking a course with their advisor, plus the advisor's
    // alma mater and its address (Figure 2).
    let query = lusail_sparql::parse_query(&format!(
        r#"
PREFIX ub: <{ub}>
PREFIX rdf: <{rdf}>
SELECT ?S ?P ?U ?A WHERE {{
  ?S ub:advisor ?P .
  ?P ub:teacherOf ?C .
  ?S ub:takesCourse ?C .
  ?P ub:PhDDegreeFrom ?U .
  ?S rdf:type ub:GraduateStudent .
  ?P rdf:type ub:AssociateProfessor .
  ?C rdf:type ub:GraduateCourse .
  ?U ub:address ?A . }}"#,
        ub = vocab::ub::NS,
        rdf = vocab::rdf::NS,
    ))
    .expect("valid SPARQL");

    let (results, profile) = engine.execute_profiled(&query).expect("query succeeds");

    println!("Q_a answers ({} rows):", results.len());
    for row in results.rows() {
        let cell = |t: &Option<Term>| t.as_ref().map_or("∅".to_string(), |t| t.to_string());
        println!(
            "  S={} P={} U={} A={}",
            cell(&row[0]),
            cell(&row[1]),
            cell(&row[2]),
            cell(&row[3])
        );
    }

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
    println!(
        "  endpoint traffic      : {} requests, {} bytes returned",
        engine.federation().total_traffic().requests,
        engine.federation().total_traffic().bytes_received,
    );

    // The interlink answer must be present: (Kim, Tim, MIT, "XXX").
    let tim = Term::iri("http://univ2.example.org/Tim");
    assert!(
        results.rows().iter().any(|r| r[1] == Some(tim.clone())),
        "the cross-endpoint answer about Tim must be found"
    );
    println!("\n✓ the interlink answer (Kim, Tim, MIT, \"XXX\") was found across endpoints");
}
