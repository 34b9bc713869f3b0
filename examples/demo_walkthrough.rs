//! The SIGMOD 2017 demonstration, recreated.
//!
//! The demo paper ("A Demonstration of Lusail: Querying Linked Data at
//! Scale") walks attendees through three scenarios: (1) *see* how Lusail
//! decomposes a federated query — which variables are global, which triple
//! patterns travel together; (2) race Lusail against FedX on the same
//! federation and watch the request counters; (3) explore data
//! interactively. This example plays all three, and finishes with the
//! future-work feature the paper closes on (keyword search).
//!
//! Run with: `cargo run --release --example demo_walkthrough`

use lusail_baselines::{FedX, FedXConfig, FederatedEngine};
use lusail_core::keyword::{keyword_search, KeywordConfig};
use lusail_core::{LusailConfig, LusailEngine, RunContext};
use lusail_federation::{NetworkProfile, RequestHandler};
use lusail_workloads::{federation_from_graphs, lubm};
use std::time::Instant;

fn main() {
    banner("Scenario 1 — watch LADE decompose a query");
    let cfg = lubm::LubmConfig::with_universities(3);
    let graphs = lubm::generate_all(&cfg);
    let engine = LusailEngine::new(
        federation_from_graphs(graphs.clone(), NetworkProfile::local_cluster()),
        LusailConfig::default(),
    );

    let qa = lubm::query_qa();
    println!("The running-example query Q_a (Figure 2):\n{}\n", qa.text);
    let (results, profile) = engine.execute_profiled(&qa.parse()).expect("Q_a runs");
    println!("LADE's analysis of the 3-university federation:");
    println!("  global join variables  : {:?}", profile.gjvs);
    println!("  subqueries produced    : {}", profile.subqueries);
    println!("  locality check queries : {}", profile.check_queries);
    println!(
        "  SAPE delayed           : {} subquery(ies)",
        profile.delayed
    );
    println!(
        "  phase times            : probe {:.2?} | analysis {:.2?} | execution {:.2?}",
        profile.source_selection, profile.analysis, profile.execution
    );
    println!("  answers                : {} rows\n", results.len());

    banner("Scenario 2 — race Lusail against FedX");
    let fedx = FedX::new(
        federation_from_graphs(graphs.clone(), NetworkProfile::local_cluster()),
        FedXConfig::default(),
    );
    println!(
        "{:<8}{:>14}{:>12}{:>14}{:>12}",
        "query", "Lusail (ms)", "(requests)", "FedX (ms)", "(requests)"
    );
    for q in lubm::queries() {
        let parsed = q.parse();
        engine.federation().reset_traffic();
        let t = Instant::now();
        let lrows = engine.execute(&parsed).expect("lusail").len();
        let lm = t.elapsed().as_secs_f64() * 1000.0;
        let lr = engine.federation().total_traffic().requests;

        fedx.federation().reset_traffic();
        let t = Instant::now();
        let frows = fedx.execute(&parsed).expect("fedx").len();
        let fm = t.elapsed().as_secs_f64() * 1000.0;
        let fr = fedx.federation().total_traffic().requests;
        assert_eq!(lrows, frows, "engines must agree");
        println!("{:<8}{:>14.2}{:>12}{:>14.2}{:>12}", q.name, lm, lr, fm, fr);
    }
    println!();

    banner("Scenario 3 — interactive exploration");
    // Keyword search: the demo's "where do I even start?" entry point.
    let handler = RequestHandler::per_core();
    let fed = federation_from_graphs(graphs, NetworkProfile::local_cluster());
    let hits = keyword_search(
        &fed,
        &handler,
        &["GradStudent0_1"],
        &KeywordConfig::default(),
        &RunContext::unbounded(),
    )
    .expect("keyword search");
    println!(
        "keyword_search(\"GradStudent0_1\") → {} hit(s); top:",
        hits.len()
    );
    for hit in hits.iter().take(3) {
        println!(
            "  {} @ {} ({} matching triple(s))",
            hit.entity,
            fed.endpoint(hit.endpoint).name(),
            hit.match_count
        );
    }
    println!("\nDemo complete.");
}

fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}
