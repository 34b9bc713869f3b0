//! Driving LADE's public pieces directly over the paper's Figure 4
//! scenario, plus SAPE-level behaviours observable through the engine.

use integration::RecordingEndpoint;
use lusail_core::cache::{pattern_key, QueryCache};
use lusail_core::lade::gjv::detect_gjvs;
use lusail_core::normalize::{normalize, ConjBranch};
use lusail_core::sape::estimate::count_query;
use lusail_core::source::{probe, select_sources, BlockStats, BranchStats};
use lusail_core::{LusailConfig, LusailEngine, RunContext};
use lusail_federation::{
    FaultProfile, FaultyEndpoint, Federation, NetworkProfile, RequestHandler, SimulatedEndpoint,
    SparqlEndpoint,
};
use lusail_rdf::{vocab, Graph, Term};
use lusail_sparql::ast::{Expression, TermPattern, TriplePattern, Variable};
use lusail_sparql::parse_query;
use lusail_store::Store;
use lusail_workloads::{federation_from_graphs, largerdf, lubm, qfed, BenchQuery};
use std::sync::Arc;

fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
    let slot = |x: &str| {
        if let Some(v) = x.strip_prefix('?') {
            TermPattern::var(v)
        } else {
            TermPattern::iri(x)
        }
    };
    TriplePattern::new(slot(s), slot(p), slot(o))
}

/// The Figure 1 / Figure 4 data: EP1 has Ann (an advisor who teaches
/// nothing) and MIT's address; EP2 has the CMU students and Tim's remote
/// PhD edge.
fn figure4_federation() -> Federation {
    let ub = |l: &str| Term::iri(format!("{}{l}", vocab::ub::NS));
    let u1 = |l: &str| Term::iri(format!("http://univ1.example.org/{l}"));
    let u2 = |l: &str| Term::iri(format!("http://univ2.example.org/{l}"));
    let mut g1 = Graph::new();
    g1.add(u1("MIT"), ub("address"), Term::literal("XXX"));
    g1.add(u1("Bob"), ub("advisor"), u1("Ann"));
    g1.add(u1("Bob"), ub("takesCourse"), u1("ml"));
    g1.add(u1("Ann"), ub("PhDDegreeFrom"), u1("MIT"));
    // Ann teaches nothing → the advisor/teacherOf check fires at EP1.
    let mut g2 = Graph::new();
    g2.add(u2("CMU"), ub("address"), Term::literal("CCCC"));
    g2.add(u2("Kim"), ub("advisor"), u2("Tim"));
    g2.add(u2("Kim"), ub("takesCourse"), u2("os"));
    g2.add(u2("Tim"), ub("teacherOf"), u2("os"));
    g2.add(u2("Tim"), ub("PhDDegreeFrom"), u1("MIT")); // remote ?U
    g2.add(u2("Ann2"), ub("teacherOf"), u2("db")); // so EP1..EP2 both have teacherOf
    Federation::new(vec![
        Arc::new(SimulatedEndpoint::new(
            "EP1",
            Store::from_graph(&g1),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>,
        Arc::new(SimulatedEndpoint::new(
            "EP2",
            Store::from_graph(&g2),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>,
    ])
}

fn ub(l: &str) -> String {
    format!("{}{l}", vocab::ub::NS)
}

#[test]
fn figure4_locality_analysis() {
    let fed = figure4_federation();
    let handler = RequestHandler::new(4);
    let patterns = vec![
        tp("?S", &ub("advisor"), "?P"),       // 0
        tp("?P", &ub("teacherOf"), "?C"),     // 1
        tp("?S", &ub("takesCourse"), "?C2"),  // 2 (distinct course var: isolate ?S)
        tp("?P", &ub("PhDDegreeFrom"), "?U"), // 3
        tp("?U", &ub("address"), "?A"),       // 4
    ];
    let sources =
        select_sources(&fed, &handler, None, &patterns, &RunContext::unbounded()).unwrap();
    // advisor exists at both endpoints; so do the others except where not.
    assert_eq!(sources[0], vec![0, 1]);

    let analysis = detect_gjvs(
        &fed,
        &handler,
        None,
        &patterns,
        &sources,
        &RunContext::unbounded(),
    )
    .unwrap();
    // Figure 4's verdicts:
    // ?S: all advisees take courses at their own endpoint → local.
    assert!(!analysis.is_gjv(&Variable::new("S")), "{:?}", analysis.gjvs);
    // ?U: Tim's PhD university lives at EP1 → global.
    assert!(analysis.is_gjv(&Variable::new("U")), "{:?}", analysis.gjvs);
    // ?P: Ann advises but teaches nothing at EP1 → global (the paper's
    // "extraneous computation" case — safe but conservative).
    assert!(analysis.is_gjv(&Variable::new("P")), "{:?}", analysis.gjvs);
    assert!(analysis.check_queries_sent > 0);
}

#[test]
fn check_query_cache_eliminates_repeat_traffic() {
    let fed = figure4_federation();
    let handler = RequestHandler::new(4);
    let cache = QueryCache::new();
    let patterns = vec![
        tp("?P", &ub("PhDDegreeFrom"), "?U"),
        tp("?U", &ub("address"), "?A"),
    ];
    let sources = select_sources(
        &fed,
        &handler,
        Some(&cache),
        &patterns,
        &RunContext::unbounded(),
    )
    .unwrap();
    let first = detect_gjvs(
        &fed,
        &handler,
        Some(&cache),
        &patterns,
        &sources,
        &RunContext::unbounded(),
    )
    .unwrap();
    assert!(first.check_queries_sent > 0);
    assert_eq!(first.check_cache_hits, 0);

    let second = detect_gjvs(
        &fed,
        &handler,
        Some(&cache),
        &patterns,
        &sources,
        &RunContext::unbounded(),
    )
    .unwrap();
    assert_eq!(
        second.check_queries_sent, 0,
        "all checks must come from cache"
    );
    assert!(second.check_cache_hits > 0);
    assert_eq!(first.gjvs, second.gjvs);
}

#[test]
fn source_mismatch_detects_gjv_without_checks() {
    // The paper's Q3 observation: when the pair's source sets differ, the
    // GJV is detected from source selection alone, no endpoint traffic.
    let fed = figure4_federation();
    let handler = RequestHandler::new(4);
    let patterns = vec![
        // teacherOf: only EP2. advisor: both.
        tp("?S", &ub("advisor"), "?P"),
        tp("?P", &ub("teacherOf"), "?C"),
    ];
    let sources =
        select_sources(&fed, &handler, None, &patterns, &RunContext::unbounded()).unwrap();
    assert_ne!(sources[0], sources[1]);
    let before = fed.total_traffic().requests;
    let analysis = detect_gjvs(
        &fed,
        &handler,
        None,
        &patterns,
        &sources,
        &RunContext::unbounded(),
    )
    .unwrap();
    assert!(analysis.is_gjv(&Variable::new("P")));
    assert_eq!(analysis.check_queries_sent, 0);
    assert_eq!(fed.total_traffic().requests, before, "no check traffic");
}

#[test]
fn delayed_subquery_uses_bound_join() {
    // A generic pattern (all-endpoints type scan) joined with a selective
    // one: SAPE must delay the generic subquery, and the bound join must
    // keep the shipped result small. Observable via byte counts.
    let mut g1 = Graph::new();
    let mut g2 = Graph::new();
    for i in 0..300 {
        // Everyone has a name (generic); only a handful are "special".
        g1.add(
            Term::iri(format!("http://a/{i}")),
            Term::iri("http://x/name"),
            Term::literal(format!("entity number {i} with a reasonably long label")),
        );
    }
    for i in 0..3 {
        g2.add(
            Term::iri(format!("http://a/{i}")),
            Term::iri("http://x/special"),
            Term::integer(i),
        );
    }
    let fed = Federation::new(vec![
        Arc::new(SimulatedEndpoint::new(
            "names",
            Store::from_graph(&g1),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>,
        Arc::new(SimulatedEndpoint::new(
            "special",
            Store::from_graph(&g2),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>,
    ]);
    let engine = LusailEngine::new(fed, LusailConfig::default());
    let q =
        parse_query("SELECT ?s ?n ?v WHERE { ?s <http://x/name> ?n . ?s <http://x/special> ?v }")
            .unwrap();
    let (rel, profile) = engine.execute_profiled(&q).unwrap();
    assert_eq!(rel.len(), 3);
    assert_eq!(
        profile.delayed, 1,
        "the generic name subquery must be delayed"
    );
    // The bound join must not ship all 300 names: well under the full
    // relation's wire size.
    let bytes = engine.federation().total_traffic().bytes_received;
    assert!(
        bytes < 5_000,
        "bound join shipped too much: {bytes} bytes (full scan would be ~15kB)"
    );
}

#[test]
fn b1_bound_blocks_follow_the_wave_and_never_change_the_rows() {
    // LargeRDFBench B1 bound-joins two subqueries on a few thousand
    // LinkedTCGA IRIs. A fixed 4 KiB of bindings per block made that 44
    // requests at scale 1; sized by the wave it is one wave's worth.
    let graphs = largerdf::generate_all(&largerdf::LargeRdfConfig::default());
    let b1 = largerdf::all_queries()
        .into_iter()
        .find(|q| q.name == "B1")
        .unwrap()
        .parse();
    let run = |threads: Option<usize>| {
        let (recorders, fed) = RecordingEndpoint::federation(
            federation_from_graphs(graphs.clone(), NetworkProfile::instant())
                .iter()
                .map(|(_, ep)| ep.clone()),
        );
        let config = LusailConfig {
            threads,
            ..Default::default()
        };
        let mut rows = LusailEngine::new(fed, config)
            .execute(&b1)
            .unwrap()
            .rows()
            .to_vec();
        rows.sort();
        let bound: usize = recorders.iter().map(|r| r.bound_requests().len()).sum();
        (rows, bound)
    };
    let (elastic_rows, elastic_bound) = run(None);
    assert!(!elastic_rows.is_empty());
    assert!(
        (1..44).contains(&elastic_bound),
        "{elastic_bound} bound requests"
    );
    // The width changes the cut, never the rows.
    for threads in [4, 1] {
        let (rows, bound) = run(Some(threads));
        assert_eq!(rows, elastic_rows, "threads {threads}");
        assert!(bound <= elastic_bound, "threads {threads}: {bound}");
    }
}

/// Two endpoints for the bound-or-unbound choice. `left` holds `symbols`
/// results `r{i}` with a gene symbol each (40 genes) and types the first
/// 40 of them; `right` labels the 40 genes and types 30 results of its
/// own. `?x a :T` is the subquery SAPE delays: it has two sources where
/// the others have one, and 70 rows.
fn symbol_graphs(symbols: usize) -> (Graph, Graph) {
    let x = |l: String| Term::iri(format!("http://x/{l}"));
    let (mut left, mut right) = (Graph::new(), Graph::new());
    for i in 0..symbols {
        left.add(
            x(format!("r{i}")),
            x("sym".into()),
            x(format!("g{}", i % 40)),
        );
    }
    for i in 0..40 {
        left.add_type(x(format!("r{i}")), "http://x/T");
    }
    for i in 0..30 {
        right.add_type(x(format!("other{i}")), "http://x/T");
    }
    for g in 0..40 {
        right.add(
            x(format!("g{g}")),
            x("label".into()),
            Term::literal(format!("gene {g}")),
        );
    }
    (left, right)
}

const SYMBOL_QUERY: &str = "SELECT ?x ?g ?l WHERE { \
    ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/T> . \
    ?x <http://x/sym> ?g . ?g <http://x/label> ?l }";

/// Run [`SYMBOL_QUERY`] over recorded endpoints (`wrap` decorates the
/// right-hand one) and check the answer against the merged graph's.
/// Returns the recorders and the engine.
fn run_symbol_query(
    symbols: usize,
    wrap: impl FnOnce(Arc<dyn SparqlEndpoint>) -> Arc<dyn SparqlEndpoint>,
) -> (Vec<Arc<RecordingEndpoint>>, LusailEngine) {
    let (left, right) = symbol_graphs(symbols);
    let mut merged = left.clone();
    merged.extend(right.clone());
    let simulated = |name: &str, g: &Graph| {
        Arc::new(SimulatedEndpoint::new(
            name,
            Store::from_graph(g),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>
    };
    let (recorders, fed) =
        RecordingEndpoint::federation([simulated("left", &left), wrap(simulated("right", &right))]);
    let engine = LusailEngine::new(fed, LusailConfig::without_cache());
    let query = parse_query(SYMBOL_QUERY).unwrap();
    let (rel, profile) = engine.execute_profiled(&query).unwrap();
    assert_eq!(
        profile.delayed, 1,
        "the two-source type subquery is delayed"
    );
    assert!(profile.warnings.is_empty(), "{:?}", profile.warnings);
    let mut want = lusail_store::Evaluator::new(&Store::from_graph(&merged))
        .select(query.as_select().unwrap())
        .rows()
        .to_vec();
    let mut got = rel.rows().to_vec();
    want.sort();
    got.sort();
    assert_eq!(got.len(), symbols.min(40));
    assert_eq!(got, want, "the federated answer is the merged graph's");
    (recorders, engine)
}

/// The `SELECT`s of the delayed type subquery in a recorder's log,
/// recovery pages aside.
fn type_fetches(recorder: &RecordingEndpoint) -> Vec<String> {
    let mut sent = recorder.sent();
    sent.retain(|q| {
        q.starts_with("SELECT ?x WHERE") && q.contains("<http://x/T>") && !q.contains(" OFFSET ")
    });
    sent
}

#[test]
fn a_delayed_subquery_is_bound_only_while_that_is_the_smaller_request() {
    // 80 results found in phase 1, 70 rows in the delayed subquery:
    // shipping 80 bindings to fetch at most 70 rows is the dearer way, so
    // each source gets the subquery as it is, once.
    let (recorders, _) = run_symbol_query(80, |ep| ep);
    for r in &recorders {
        assert_eq!(r.bound_requests(), Vec::<String>::new(), "{}", r.name());
        let fetches = type_fetches(r);
        assert_eq!(fetches.len(), 1, "{}: {fetches:?}", r.name());
        assert!(!fetches[0].contains("VALUES"), "{}", fetches[0]);
    }
    // 30 results found: now the block is the smaller request.
    let (recorders, _) = run_symbol_query(30, |ep| ep);
    for r in &recorders {
        let bound = r.bound_requests();
        assert_eq!(bound.len(), 1, "{}: {bound:?}", r.name());
        assert_eq!(bound[0].matches("<http://x/r").count(), 30, "{}", bound[0]);
        assert_eq!(type_fetches(r), bound, "{}", r.name());
    }
}

#[test]
fn an_unbound_delayed_fetch_still_carries_the_expected_row_count() {
    // The right endpoint silently cuts every SELECT to 10 rows. Its share
    // of the delayed subquery is 30 rows, fetched unbound: two responses
    // (this and the 40 labels of phase 1) are too few for the row-count
    // heuristic, so only the analysis probe's count — passed down with the
    // request — can flag it. It does, and paging recovers the rows exactly
    // (the answer check is inside).
    let (recorders, engine) = run_symbol_query(80, |ep| {
        Arc::new(FaultyEndpoint::new(
            ep,
            7,
            FaultProfile::silent_truncate(10),
        ))
    });
    assert_eq!(type_fetches(&recorders[1]).len(), 1);
    let paged = |q: &String| q.contains("<http://x/T>") && q.contains(" OFFSET ");
    assert!(recorders[1].sent().iter().any(paged));
    let snapshot = engine.integrity().snapshot();
    let (_, right) = snapshot.iter().find(|(name, _)| name == "right").unwrap();
    assert_eq!(right.truncations_detected, 2, "the labels and the types");
    assert_eq!(right.count_divergences, 0);
    assert_eq!(right.rows_recovered, 20 + 30);
}

#[test]
fn keeping_fewer_found_bindings_sends_the_same_requests() {
    // Two delayed subqueries (`?x a :T`, `?g a :Gene`: two sources each),
    // 30 found bindings for either against 70 and 60 rows, so both are
    // bound. Phase 1 no longer interns ?l, and the first bound result no
    // longer updates ?x, which nothing reads: every request, down to the
    // order of the terms in the VALUES blocks, is the one sent before —
    // the fingerprints are of the parent commit's logs.
    let (mut left, mut right) = symbol_graphs(30);
    let gene = |g: usize| Term::iri(format!("http://x/g{g}"));
    for g in 0..60 {
        let side = if g < 20 { &mut left } else { &mut right };
        side.add_type(gene(g), "http://x/Gene");
    }
    let simulated = |name: &str, g: &Graph| {
        Arc::new(SimulatedEndpoint::new(
            name,
            Store::from_graph(g),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>
    };
    let (recorders, fed) =
        RecordingEndpoint::federation([simulated("left", &left), simulated("right", &right)]);
    let engine = LusailEngine::new(fed, LusailConfig::without_cache());
    let query = parse_query(&SYMBOL_QUERY.replace(
        " }",
        " . ?g <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Gene> }",
    ))
    .unwrap();
    let (rel, profile) = engine.execute_profiled(&query).unwrap();
    assert_eq!(rel.len(), 30);
    assert_eq!(profile.delayed, 2);

    // FNV-1a over the endpoint's requests as a multiset (sorted): requests
    // of one wave arrive in thread order, and the two delayed subqueries,
    // both bound on found variables, now leave in one.
    let fingerprint = |r: &RecordingEndpoint| {
        let mut sent = r.sent();
        sent.sort();
        let hash = sent
            .iter()
            .flat_map(|q| q.bytes().chain([b'\n']))
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        (sent.len(), hash)
    };
    for (r, parent) in recorders
        .iter()
        .zip([(4usize, 16373339860937922622u64), (4, 15502989906333355395)])
    {
        let bound = r.bound_requests();
        assert_eq!(bound.len(), 2, "{}: {bound:?}", r.name());
        assert!(
            bound.iter().all(|q| q.matches(") (").count() == 29),
            "{bound:?}"
        );
        assert_eq!(fingerprint(r), parent, "{}: {:#?}", r.name(), r.sent());
    }
}

/// FNV-1a over `texts`, each followed by a newline.
fn fnv(texts: &[String]) -> u64 {
    (texts.iter())
        .flat_map(|q| q.bytes().chain([b'\n']))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Run `queries` in catalog order through one fresh engine (default
/// configuration, so the analysis cache warms as the pass goes) over
/// `graphs` at `profile`. Per query: a fingerprint of what every
/// endpoint was sent for it, each endpoint's requests taken as a multiset
/// (sorted), since the requests of one wave arrive in thread order.
fn request_fingerprints(
    graphs: Vec<(String, Graph)>,
    queries: Vec<BenchQuery>,
    profile: NetworkProfile,
) -> Vec<(&'static str, u64)> {
    let (recorders, fed) = RecordingEndpoint::federation(graphs.iter().map(|(name, g)| {
        Arc::new(SimulatedEndpoint::new(
            name.clone(),
            Store::from_graph(g),
            profile,
        )) as Arc<dyn SparqlEndpoint>
    }));
    let engine = LusailEngine::new(fed, LusailConfig::default());
    queries
        .iter()
        .map(|q| {
            let from: Vec<usize> = recorders.iter().map(|r| r.sent().len()).collect();
            engine.execute(&q.parse()).unwrap();
            let per_endpoint: Vec<String> = (recorders.iter().zip(from))
                .map(|(r, from)| {
                    let mut sent = r.sent().split_off(from);
                    sent.sort();
                    format!("{} {} {}", r.name(), sent.len(), fnv(&sent))
                })
                .collect();
            (q.name, fnv(&per_endpoint))
        })
        .collect()
}

#[test]
fn strands_send_every_endpoint_the_same_requests() {
    // SAPE runs a branch's endpoint-disjoint strands side by side. Each
    // endpoint must still be sent exactly what one barrier wave sent it:
    // the fingerprints are of the parent commit's logs, query by query.
    let wan = request_fingerprints(
        largerdf::generate_all(&largerdf::LargeRdfConfig::default()),
        largerdf::all_queries(),
        NetworkProfile::geo_distributed(),
    );
    assert_eq!(wan, WAN_FINGERPRINTS, "LargeRDFBench");
    let qfed = request_fingerprints(
        qfed::generate_all(&qfed::QfedConfig::default()),
        qfed::queries(),
        NetworkProfile::instant(),
    );
    assert_eq!(qfed, QFED_FINGERPRINTS, "QFed");
    let lubm = request_fingerprints(
        lubm::generate_all(&lubm::LubmConfig::default()),
        lubm::queries(),
        NetworkProfile::instant(),
    );
    assert_eq!(lubm, LUBM_FINGERPRINTS, "LUBM");
}

const WAN_FINGERPRINTS: [(&str, u64); 32] = [
    ("S1", 0xc5f245aac979c60f),
    ("S2", 0x193d593c15abad65),
    ("S3", 0xfa44e3d9a2f7915a),
    ("S4", 0xda827e139420e9b5),
    ("S5", 0x7797065b1ebe4d2c),
    ("S6", 0xf2b18a58762332),
    ("S7", 0x48b04477dc5d580d),
    ("S8", 0xc5788e2f704922f0),
    ("S9", 0xc4a093ccac0f1ed),
    ("S10", 0x51d4c6c020eac7cb),
    ("S11", 0x36b7da536a3eef59),
    ("S12", 0x331fe2ff000bca5e),
    ("S13", 0x70143f874113ae45),
    ("S14", 0xbb72015728a845db),
    ("C1", 0x89fadac9ca67df30),
    ("C2", 0xef03b4dd3dc9ae57),
    ("C3", 0xac1c1aed1d833f58),
    ("C4", 0x851887eec9ebe9a9),
    ("C5", 0x2616117fdb241129),
    ("C6", 0x2002efaa3e94499),
    ("C7", 0xfcba62abb62d2b7c),
    ("C8", 0xd22341b03835c9f6),
    ("C9", 0x12c439b0aaef9abf),
    ("C10", 0x9f157016d555a352),
    ("B1", 0x1d5073ba9b96dd39),
    ("B2", 0x2070d8df40b2a6c7),
    ("B3", 0x6c29dea6e1ddb9c4),
    ("B4", 0x92dfdb168782318),
    ("B5", 0xbb36a0acac10df1e),
    ("B6", 0x4b96cc8f26bffc3a),
    ("B7", 0x324af7aa1349d17f),
    ("B8", 0x7dd2039c9f4f09dc),
];
const QFED_FINGERPRINTS: [(&str, u64); 7] = [
    ("C2P2", 0xa468025214a895b5),
    ("C2P2F", 0x61aa21d39652e8fa),
    ("C2P2OF", 0xeb65649eb7e81978),
    ("C2P2B", 0x2f04989b0177faf0),
    ("C2P2BF", 0x877eafe4628bab0c),
    ("C2P2BO", 0xfdae2de9e52a7940),
    ("C2P2BOF", 0xa90eb90320d4c2b5),
];
const LUBM_FINGERPRINTS: [(&str, u64); 4] = [
    ("Q1", 0x904385be7b1e5421),
    ("Q2", 0x1eac45fc2a6411fd),
    ("Q3", 0xbb1a14f19c4e3a25),
    ("Q4", 0x4d803d04cdc53295),
];

#[test]
fn lusail_handles_empty_federation_members() {
    // An endpoint with no data must not break anything.
    let mut g = Graph::new();
    g.add(
        Term::iri("http://a/s"),
        Term::iri("http://x/p"),
        Term::integer(1),
    );
    let fed = Federation::new(vec![
        Arc::new(SimulatedEndpoint::new(
            "full",
            Store::from_graph(&g),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>,
        Arc::new(SimulatedEndpoint::new(
            "empty",
            Store::new(),
            NetworkProfile::instant(),
        )) as Arc<dyn SparqlEndpoint>,
    ]);
    let engine = LusailEngine::new(fed, LusailConfig::default());
    let q = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?v }").unwrap();
    assert_eq!(engine.execute(&q).unwrap().len(), 1);
    // A pattern nothing answers.
    let q = parse_query("SELECT ?s WHERE { ?s <http://x/nothing> ?v }").unwrap();
    assert!(engine.execute(&q).unwrap().is_empty());
}

// ---- The analysis probe ------------------------------------------------

/// What the probe must report for one block, the slow way: one `ASK` per
/// pattern per endpoint, then one `COUNT` per pattern per relevant endpoint.
fn reference_block(
    fed: &Federation,
    patterns: &[TriplePattern],
    filters: &[Expression],
    counted: bool,
) -> BlockStats {
    let handler = RequestHandler::new(4);
    let sources = select_sources(fed, &handler, None, patterns, &RunContext::unbounded()).unwrap();
    let count = |tp: &TriplePattern, ep: usize| {
        let n = fed.endpoint(ep).count(&count_query(tp, filters)).unwrap();
        (ep, n)
    };
    let counts = patterns
        .iter()
        .zip(&sources)
        .filter(|_| counted)
        .map(|(tp, eps)| eps.iter().map(|&ep| count(tp, ep)).collect())
        .collect();
    BlockStats { sources, counts }
}

fn reference(fed: &Federation, branches: &[ConjBranch]) -> Vec<BranchStats> {
    branches
        .iter()
        .map(|b| BranchStats {
            required: reference_block(fed, &b.patterns, &b.filters, true),
            optionals: b
                .optionals
                .iter()
                .map(|o| reference_block(fed, &o.patterns, &o.filters, true))
                .collect(),
            minuses: b
                .minuses
                .iter()
                .map(|m| reference_block(fed, &m.patterns, &[], false))
                .collect(),
        })
        .collect()
}

fn branches_of(text: &str) -> Vec<ConjBranch> {
    normalize(parse_query(text).unwrap().pattern()).unwrap()
}

fn run_probe(
    fed: &Federation,
    cache: Option<&QueryCache>,
    branches: &[ConjBranch],
) -> Vec<BranchStats> {
    let handler = RequestHandler::elastic(fed.len());
    probe(fed, &handler, cache, branches, &RunContext::unbounded()).unwrap()
}

/// Cold, from a cache shared across the catalog, and fully cached: the
/// probe answers what the per-pattern requests answer, in at most one
/// request per endpoint.
fn assert_probe_matches_reference(graphs: Vec<(String, Graph)>, queries: Vec<BenchQuery>) {
    let oracle = federation_from_graphs(graphs.clone(), NetworkProfile::instant());
    let fed = federation_from_graphs(graphs, NetworkProfile::instant());
    let cache = QueryCache::new();
    for q in queries {
        let branches = normalize(q.parse().pattern()).unwrap();
        let expected = reference(&oracle, &branches);

        let before = fed.total_traffic().requests;
        assert_eq!(
            run_probe(&fed, None, &branches),
            expected,
            "{} cold",
            q.name
        );
        let cold = fed.total_traffic().requests - before;
        assert!(cold <= fed.len() as u64, "{}: {cold} requests", q.name);

        assert_eq!(
            run_probe(&fed, Some(&cache), &branches),
            expected,
            "{} over the shared cache",
            q.name
        );
        let before = fed.total_traffic().requests;
        assert_eq!(
            run_probe(&fed, Some(&cache), &branches),
            expected,
            "{} cached",
            q.name
        );
        assert_eq!(fed.total_traffic().requests, before, "{} cached", q.name);
    }
}

#[test]
fn probe_matches_asks_and_counts_on_lubm() {
    let graphs = lubm::generate_all(&lubm::LubmConfig::with_universities(3));
    let mut queries = lubm::queries();
    queries.push(lubm::query_qa());
    assert_probe_matches_reference(graphs, queries);
}

#[test]
fn probe_matches_asks_and_counts_on_qfed() {
    let graphs = qfed::generate_all(&qfed::QfedConfig {
        drugs: 50,
        diseases: 15,
        side_effects: 25,
        labels: 25,
        seed: 7,
    });
    assert_probe_matches_reference(graphs, qfed::queries());
}

#[test]
fn probe_matches_asks_and_counts_on_largerdfbench() {
    let graphs = largerdf::generate_all(&largerdf::LargeRdfConfig {
        scale: 0.2,
        ..Default::default()
    });
    assert_probe_matches_reference(graphs, largerdf::all_queries());
}

/// ep0: a -p-> 1, b -p-> 5, a -p-> a (a self loop), a -r-> 7;
/// ep1: c -p-> 2, c -r-> 8; ep2: d -q-> 9.
fn probe_federation() -> Federation {
    federation_from_graphs(probe_graphs(), NetworkProfile::instant())
}

fn probe_graphs() -> Vec<(String, Graph)> {
    let x = |l: &str| Term::iri(format!("http://x/{l}"));
    let mut g0 = Graph::new();
    g0.add(x("a"), x("p"), Term::integer(1));
    g0.add(x("b"), x("p"), Term::integer(5));
    g0.add(x("a"), x("p"), x("a"));
    g0.add(x("a"), x("r"), Term::integer(7));
    let mut g1 = Graph::new();
    g1.add(x("c"), x("p"), Term::integer(2));
    g1.add(x("c"), x("r"), Term::integer(8));
    let mut g2 = Graph::new();
    g2.add(x("d"), x("q"), Term::integer(9));
    vec![("ep0".into(), g0), ("ep1".into(), g1), ("ep2".into(), g2)]
}

#[test]
fn probe_source_lists_ignore_filters_and_counts_include_them() {
    let fed = probe_federation();
    let cache = QueryCache::new();
    let filtered = branches_of("SELECT ?s WHERE { ?s <http://x/p> ?v FILTER(?v > 3) }");
    let stats = run_probe(&fed, Some(&cache), &filtered);
    assert_eq!(stats, reference(&probe_federation(), &filtered));
    // ep1 holds `p` triples, none above 3: a source with a count of zero.
    assert_eq!(stats[0].required.sources, [[0, 1]]);
    assert_eq!(stats[0].required.counts[0][&0], 1);
    assert_eq!(stats[0].required.counts[0][&1], 0);
    assert_eq!(fed.total_traffic().requests, 3);

    // The source list was cached under the bare pattern, and the unfiltered
    // counts that decided it with it: the same pattern without the filter
    // needs no request at all.
    let bare = branches_of("SELECT ?s WHERE { ?s <http://x/p> ?v }");
    let stats = run_probe(&fed, Some(&cache), &bare);
    assert_eq!(stats, reference(&probe_federation(), &bare));
    assert_eq!(stats[0].required.counts[0][&0], 3);
    assert_eq!(fed.total_traffic().requests, 3);
}

#[test]
fn probe_keeps_repeated_variables_and_merges_duplicate_patterns() {
    let fed = probe_federation();
    let branches = branches_of(
        "SELECT * WHERE { ?x <http://x/p> ?x . ?s <http://x/p> ?o . ?a <http://x/p> ?b }",
    );
    let stats = run_probe(&fed, None, &branches);
    assert_eq!(stats, reference(&probe_federation(), &branches));
    // Only ep0 has a `p` self loop; both ep0 and ep1 have `p` triples.
    assert_eq!(stats[0].required.sources, [vec![0], vec![0, 1], vec![0, 1]]);
    assert_eq!(stats[0].required.counts[0][&0], 1);
    let sent = fed.total_traffic();
    assert_eq!(sent.requests, 3);

    // `?s p ?o` and `?a p ?b` are one question: the request is as long as
    // the one for `?x p ?x . ?s p ?o` alone.
    let fed = probe_federation();
    run_probe(
        &fed,
        None,
        &branches_of("SELECT * WHERE { ?x <http://x/p> ?x . ?s <http://x/p> ?o }"),
    );
    assert_eq!(fed.total_traffic().bytes_sent, sent.bytes_sent);
}

#[test]
fn probe_covers_union_optional_and_minus_in_one_round() {
    let fed = probe_federation();
    let branches = branches_of(
        "SELECT * WHERE { \
           { ?s <http://x/p> ?v FILTER(?v > 1) } UNION { ?s <http://x/q> ?v } \
           OPTIONAL { ?s <http://x/r> ?w FILTER(?w < 8) } \
           MINUS { ?s <http://x/p> <http://x/a> } }",
    );
    assert_eq!(branches.len(), 2);
    assert_eq!(
        (branches[0].optionals.len(), branches[0].minuses.len()),
        (1, 1)
    );
    let stats = run_probe(&fed, None, &branches);
    assert_eq!(stats, reference(&probe_federation(), &branches));
    assert_eq!(stats[1].required.sources, [[2]]);
    assert_eq!(stats[0].optionals[0].counts[0][&0], 1);
    assert_eq!(stats[0].optionals[0].counts[0][&1], 0);
    assert_eq!(stats[0].minuses[0].sources, [[0]]);
    assert_eq!(fed.total_traffic().requests, 3);
}

#[test]
fn probe_asks_only_relevant_endpoints_when_just_the_counts_are_gone() {
    let branches = branches_of(
        "SELECT * WHERE { ?s <http://x/p> ?v . ?s <http://x/r> ?w FILTER(?w < 8) \
         MINUS { ?s <http://x/q> ?z } }",
    );
    let expected = reference(&probe_federation(), &branches);
    // Source lists survive (as after a count eviction); no count does.
    let cache = QueryCache::new();
    let required = branches[0]
        .patterns
        .iter()
        .zip(&expected[0].required.sources);
    let minus = branches[0].minuses[0]
        .patterns
        .iter()
        .zip(&expected[0].minuses[0].sources);
    for (tp, sources) in required.chain(minus) {
        cache.put_sources(pattern_key(tp), sources.clone());
    }

    let fed = probe_federation();
    assert_eq!(run_probe(&fed, Some(&cache), &branches), expected);
    // ep2 is relevant to the MINUS block alone, which is never costed.
    let asked: Vec<u64> = fed
        .ids()
        .map(|ep| fed.endpoint(ep).traffic().requests)
        .collect();
    assert_eq!(asked, [1, 1, 0]);
}

#[test]
fn cold_query_probes_each_endpoint_once_and_warm_repeat_not_at_all() {
    let graphs = largerdf::generate_all(&largerdf::LargeRdfConfig {
        scale: 0.2,
        ..Default::default()
    });
    for name in ["S2", "C2", "C5", "B1"] {
        let engine = LusailEngine::new(
            federation_from_graphs(graphs.clone(), NetworkProfile::instant()),
            LusailConfig::default(),
        );
        let endpoints = engine.federation().len() as u64;
        let queries = largerdf::all_queries();
        let query = queries.iter().find(|q| q.name == name).unwrap().parse();
        let mut sent = 0;
        let mut run = || {
            let (rel, profile) = engine.execute_profiled(&query).unwrap();
            let total = engine.federation().total_traffic().requests;
            let delta = total - sent;
            sent = total;
            (rel, profile.check_queries as u64, delta)
        };
        let (cold_rel, cold_checks, cold) = run();
        let (warm_rel, warm_checks, warm) = run();
        let (_, _, again) = run();
        // Warm, every analysis answer is cached and only the subquery
        // requests remain; cold adds the checks and the one probe round.
        assert_eq!(cold_rel.len(), warm_rel.len(), "{name}");
        assert_eq!(warm_checks, 0, "{name}");
        assert_eq!(warm, again, "{name}");
        let probes = cold - warm - cold_checks;
        assert!((1..=endpoints).contains(&probes), "{name}: {probes} probes");
    }
}

// ---- The vocabulary riding on the first probe ---------------------------

/// Requests each endpoint has received.
fn requests(fed: &Federation) -> Vec<u64> {
    fed.ids()
        .map(|ep| fed.endpoint(ep).traffic().requests)
        .collect()
}

/// The probe of `text` over `cache`, held against the per-pattern
/// reference on `graphs`, and the requests it sent to each endpoint.
fn probe_after(
    fed: &Federation,
    graphs: &[(String, Graph)],
    cache: &QueryCache,
    text: &str,
) -> Vec<u64> {
    let before = requests(fed);
    let branches = branches_of(text);
    let oracle = federation_from_graphs(graphs.to_vec(), NetworkProfile::instant());
    assert_eq!(
        run_probe(fed, Some(cache), &branches),
        reference(&oracle, &branches),
        "{text}"
    );
    let after = requests(fed);
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

#[test]
fn a_warm_vocabulary_asks_a_new_pattern_only_where_its_predicate_is() {
    let graphs = probe_graphs();
    let fed = probe_federation();
    let cache = QueryCache::new();
    // Cold: one request per endpoint, the lists riding on it.
    let warm = probe_after(
        &fed,
        &graphs,
        &cache,
        "SELECT * WHERE { ?s <http://x/p> ?o }",
    );
    assert_eq!(warm, [1, 1, 1]);
    let listed = |ep| {
        cache
            .get_vocabulary(ep)
            .unwrap()
            .predicates
            .clone()
            .unwrap()
    };
    assert_eq!(
        listed(2),
        [(Term::iri("http://x/q"), 1)].into_iter().collect()
    );
    assert_eq!(listed(0).len(), 2);

    // Unfiltered, between two variables: counted from the lists alone.
    let q = "SELECT * WHERE { ?s <http://x/q> ?o }";
    assert_eq!(probe_after(&fed, &graphs, &cache, q), [0, 0, 0]);
    // With a filter, with a repeated variable, inside OPTIONAL and MINUS:
    // a pattern is asked only where its predicate is listed.
    let q = "SELECT * WHERE { ?s <http://x/q> ?w FILTER(?w > 7) \
             OPTIONAL { ?s <http://x/q> ?s } MINUS { ?s <http://x/q> 9 } }";
    assert_eq!(probe_after(&fed, &graphs, &cache, q), [0, 0, 1]);
    // A predicate no endpoint listed is asked nowhere; a variable
    // predicate everywhere.
    let q = "SELECT * WHERE { ?s <http://x/nowhere> ?o }";
    assert_eq!(probe_after(&fed, &graphs, &cache, q), [0, 0, 0]);
    let q = "SELECT * WHERE { <http://x/d> ?p ?o }";
    assert_eq!(probe_after(&fed, &graphs, &cache, q), [1, 1, 1]);
}

#[test]
fn a_warm_vocabulary_asks_a_class_pattern_only_where_the_class_is() {
    let mut graphs = probe_graphs();
    for (i, (s, class)) in [("a", "C"), ("c", "D"), ("d", "C")].iter().enumerate() {
        let subject = Term::iri(format!("http://x/{s}"));
        graphs[i].1.add_type(subject, format!("http://x/{class}"));
    }
    let fed = federation_from_graphs(graphs.clone(), NetworkProfile::instant());
    let cache = QueryCache::new();
    let warm = probe_after(
        &fed,
        &graphs,
        &cache,
        "SELECT * WHERE { ?s <http://x/p> ?o }",
    );
    assert_eq!(warm, [1, 1, 1]);

    // Unfiltered class and predicate patterns are counted from the lists;
    // filtered, a class pattern is asked only where the class is listed.
    let q = "SELECT * WHERE { ?s a <http://x/C> }";
    assert_eq!(probe_after(&fed, &graphs, &cache, q), [0, 0, 0]);
    let q = "SELECT * WHERE { ?s a <http://x/C> FILTER(?s != <http://x/b>) }";
    assert_eq!(probe_after(&fed, &graphs, &cache, q), [1, 0, 1]);
    let q = "SELECT * WHERE { ?s a <http://x/D> . ?s <http://x/r> ?v }";
    assert_eq!(probe_after(&fed, &graphs, &cache, q), [0, 0, 0]);
    let q = "SELECT * WHERE { ?s a <http://x/D> . ?s <http://x/r> ?v FILTER(?v > 7) }";
    assert_eq!(probe_after(&fed, &graphs, &cache, q), [1, 1, 0]);
    let q = "SELECT * WHERE { ?s a <http://x/E> }";
    assert_eq!(probe_after(&fed, &graphs, &cache, q), [0, 0, 0]);
    // Every endpoint lists `rdf:type`: an open class is asked everywhere.
    let q = "SELECT * WHERE { <http://x/a> a ?class }";
    assert_eq!(probe_after(&fed, &graphs, &cache, q), [1, 1, 1]);
}

#[test]
fn without_a_cache_the_probe_sends_what_it_sent_before_the_vocabulary() {
    // Without a cache no list rides: the requests and bytes of the
    // counts alone.
    let fed = probe_federation();
    let text = "SELECT * WHERE { ?s <http://x/p> ?o . ?s <http://x/q> ?v }";
    run_probe(&fed, None, &branches_of(text));
    let sent = fed.total_traffic();
    assert_eq!((sent.requests, sent.bytes_sent), (3, 417));

    // An engine without its cache sends the same every time, and no list.
    let fed = probe_federation();
    let endpoints = fed.ids().map(|ep| Arc::clone(fed.endpoint(ep)));
    let (recorders, fed) = RecordingEndpoint::federation(endpoints);
    let config = LusailConfig {
        enable_cache: false,
        ..Default::default()
    };
    let engine = LusailEngine::new(fed, config);
    let query = parse_query("SELECT * WHERE { ?s <http://x/p> ?o . ?s <http://x/r> ?v }").unwrap();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let before = engine.federation().total_traffic();
        engine.execute(&query).unwrap();
        let after = engine.federation().total_traffic();
        runs.push((
            after.requests - before.requests,
            after.bytes_sent - before.bytes_sent,
        ));
    }
    assert_eq!(runs, [(11, 1187), (11, 1187)]);
    for r in &recorders {
        assert!(
            r.sent().iter().all(|q| !q.contains("DISTINCT")),
            "{:?}",
            r.sent()
        );
    }
}
