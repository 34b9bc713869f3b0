//! What FedX, HiBISCuS and SPLENDID put on the wire, pinned query by
//! query over the LargeRDFBench, QFed and LUBM catalogs: the baselines
//! differ from Lusail in strategy (source selection, grouping, ordering),
//! so a change to the plumbing they share must leave every request and
//! every answer as it was.

use integration::{fnv, RecordingEndpoint};
use lusail_baselines::{FedX, FedXConfig, FederatedEngine, HiBiscus, Splendid};
use lusail_core::EngineError;
use lusail_federation::{Federation, NetworkProfile, SimulatedEndpoint, SparqlEndpoint};
use lusail_rdf::Graph;
use lusail_store::Store;
use lusail_workloads::{largerdf, lubm, qfed, BenchQuery};
use std::sync::Arc;

/// One query's pin: its name, the fingerprint of what every endpoint was
/// sent for it, and its outcome (rows, or the kind of error).
type Pin = (&'static str, u64, Result<usize, &'static str>);

fn kind(e: &EngineError) -> &'static str {
    match e {
        EngineError::Timeout(_) => "timeout",
        EngineError::Cancelled(_) => "cancelled",
        EngineError::Unsupported(_) => "unsupported",
        EngineError::Endpoint(_) => "endpoint",
        EngineError::BudgetExceeded { .. } => "budget",
    }
}

/// Run `queries` in catalog order through one fresh engine, built by
/// `engine` over `graphs` on the instant network. Per query: a
/// fingerprint of each endpoint's requests taken as a multiset (sorted,
/// since the requests of one wave arrive in thread order), and the outcome.
fn pins(
    engine: impl Fn(Federation) -> Box<dyn FederatedEngine>,
    graphs: Vec<(String, Graph)>,
    queries: Vec<BenchQuery>,
) -> Vec<Pin> {
    let (recorders, fed) = RecordingEndpoint::federation(graphs.iter().map(|(name, g)| {
        let store = Store::from_graph(g);
        let ep = SimulatedEndpoint::new(name.clone(), store, NetworkProfile::instant());
        Arc::new(ep) as Arc<dyn SparqlEndpoint>
    }));
    let engine = engine(fed);
    let pins = queries.iter().map(|q| {
        let from: Vec<usize> = recorders.iter().map(|r| r.sent().len()).collect();
        let outcome = engine.execute(&q.parse());
        let per_endpoint: Vec<String> = (recorders.iter().zip(from))
            .map(|(r, from)| {
                let mut sent = r.sent().split_off(from);
                sent.sort();
                format!("{} {} {}", r.name(), sent.len(), fnv(&sent))
            })
            .collect();
        (
            q.name,
            fnv(&per_endpoint),
            outcome.map(|rel| rel.len()).map_err(|e| kind(&e)),
        )
    });
    pins.collect()
}

/// Every catalog through `engine`, each against its pins.
fn assert_pinned(engine: impl Fn(Federation) -> Box<dyn FederatedEngine>, expected: [&[Pin]; 3]) {
    let largerdf = pins(
        &engine,
        largerdf::generate_all(&largerdf::LargeRdfConfig::default()),
        largerdf::all_queries(),
    );
    assert_eq!(largerdf, expected[0], "LargeRDFBench");
    let qfed = pins(
        &engine,
        qfed::generate_all(&qfed::QfedConfig::default()),
        qfed::queries(),
    );
    assert_eq!(qfed, expected[1], "QFed");
    let lubm = pins(
        &engine,
        lubm::generate_all(&lubm::LubmConfig::default()),
        lubm::queries(),
    );
    assert_eq!(lubm, expected[2], "LUBM");
}

#[test]
fn fedx_sends_the_pinned_requests() {
    let engine = |fed| Box::new(FedX::new(fed, FedXConfig::default())) as Box<dyn FederatedEngine>;
    assert_pinned(engine, [&FEDX_LARGERDF, &FEDX_QFED, &FEDX_LUBM]);
}

#[test]
fn hibiscus_sends_the_pinned_requests() {
    let engine =
        |fed| Box::new(HiBiscus::new(fed, FedXConfig::default())) as Box<dyn FederatedEngine>;
    assert_pinned(engine, [&HIBISCUS_LARGERDF, &HIBISCUS_QFED, &HIBISCUS_LUBM]);
}

#[test]
fn splendid_sends_the_pinned_requests() {
    let engine = |fed| Box::new(Splendid::new(fed)) as Box<dyn FederatedEngine>;
    assert_pinned(engine, [&SPLENDID_LARGERDF, &SPLENDID_QFED, &SPLENDID_LUBM]);
}

// Taken at the commit before the baselines shipped core's `Subquery`.

const FEDX_LARGERDF: [Pin; 32] = [
    ("S1", 0x75e2410c4cda3e41, Ok(100)),
    ("S2", 0x84b5ee09e45e0a6c, Ok(100)),
    ("S3", 0x70ca569eda1807b2, Ok(66)),
    ("S4", 0xb0b2d97effdb046e, Ok(130)),
    ("S5", 0xb8d313c6f0a226d6, Ok(80)),
    ("S6", 0xd77df45b29cdf8de, Ok(110)),
    ("S7", 0x88aecd2db1b3b6e7, Ok(40)),
    ("S8", 0x8ec23561ddb54482, Ok(11)),
    ("S9", 0xac028bb48b5cfae4, Ok(100)),
    ("S10", 0x78ce7148b2856797, Ok(109)),
    ("S11", 0x24b8a2534f7bd172, Ok(114)),
    ("S12", 0x172da055a0410204, Ok(120)),
    ("S13", 0xdab0aeed901305d8, Ok(100)),
    ("S14", 0x00f2f530d138e4be, Ok(110)),
    ("C1", 0x63ea19f5f61e0943, Ok(100)),
    ("C2", 0xaf3b85a482ca73bc, Ok(2)),
    ("C3", 0x978b7f2f0de435d4, Ok(31)),
    ("C4", 0x2270e0d601392f86, Ok(50)),
    ("C5", 0xcd235a8fdffc55da, Err("unsupported")),
    ("C6", 0x1e96bdaaa01c63e2, Ok(80)),
    ("C7", 0xac2f8335ec3ddc60, Ok(3615)),
    ("C8", 0xc56f37239347c3f9, Ok(48)),
    ("C9", 0xefea7b8fe27e8b21, Ok(900)),
    ("C10", 0x36ca9d14ed857c64, Ok(46)),
    ("B1", 0xf75c042c656b127b, Ok(2000)),
    ("B2", 0xa05df128d9748e65, Ok(100)),
    ("B3", 0x3bf8be5bc130bce5, Ok(876)),
    ("B4", 0x52b3514f7e07891c, Ok(130)),
    ("B5", 0xcd235a8fdffc55da, Err("unsupported")),
    ("B6", 0xcd235a8fdffc55da, Err("unsupported")),
    ("B7", 0x377c13de68cb9e67, Ok(220)),
    ("B8", 0x176b09bdbead7b09, Ok(414)),
];

const FEDX_QFED: [Pin; 7] = [
    ("C2P2", 0x3d8658c640988e6b, Ok(68)),
    ("C2P2F", 0x43efb860a6e54ad2, Ok(21)),
    ("C2P2OF", 0x0c4a3ae3f837245a, Ok(27)),
    ("C2P2B", 0x90e3fcc8ffa4c1ad, Ok(68)),
    ("C2P2BF", 0x89e233a6be3b7f43, Ok(21)),
    ("C2P2BO", 0x971ce7792a66dad6, Ok(83)),
    ("C2P2BOF", 0xc5cc599d93c3f5af, Ok(27)),
];

const FEDX_LUBM: [Pin; 4] = [
    ("Q1", 0x151da4bb01022231, Ok(78)),
    ("Q2", 0x4f0ec3aabdb83329, Ok(49)),
    ("Q3", 0x123751efc7cfb5f1, Ok(28)),
    ("Q4", 0xd41aefa3dabe2c75, Ok(73)),
];

const HIBISCUS_LARGERDF: [Pin; 32] = [
    ("S1", 0x75e2410c4cda3e41, Ok(100)),
    ("S2", 0x84b5ee09e45e0a6c, Ok(100)),
    ("S3", 0x70ca569eda1807b2, Ok(66)),
    ("S4", 0xb0b2d97effdb046e, Ok(130)),
    ("S5", 0xb8d313c6f0a226d6, Ok(80)),
    ("S6", 0xd77df45b29cdf8de, Ok(110)),
    ("S7", 0x88aecd2db1b3b6e7, Ok(40)),
    ("S8", 0x8ec23561ddb54482, Ok(11)),
    ("S9", 0xac028bb48b5cfae4, Ok(100)),
    ("S10", 0x78ce7148b2856797, Ok(109)),
    ("S11", 0x24b8a2534f7bd172, Ok(114)),
    ("S12", 0x172da055a0410204, Ok(120)),
    ("S13", 0xdab0aeed901305d8, Ok(100)),
    ("S14", 0x00f2f530d138e4be, Ok(110)),
    ("C1", 0x63ea19f5f61e0943, Ok(100)),
    ("C2", 0xaf3b85a482ca73bc, Ok(2)),
    ("C3", 0x978b7f2f0de435d4, Ok(31)),
    ("C4", 0x2270e0d601392f86, Ok(50)),
    ("C5", 0xcd235a8fdffc55da, Err("unsupported")),
    ("C6", 0x1e96bdaaa01c63e2, Ok(80)),
    ("C7", 0xac2f8335ec3ddc60, Ok(3615)),
    ("C8", 0xc56f37239347c3f9, Ok(48)),
    ("C9", 0xefea7b8fe27e8b21, Ok(900)),
    ("C10", 0x36ca9d14ed857c64, Ok(46)),
    ("B1", 0xf75c042c656b127b, Ok(2000)),
    ("B2", 0xa05df128d9748e65, Ok(100)),
    ("B3", 0x3bf8be5bc130bce5, Ok(876)),
    ("B4", 0x52b3514f7e07891c, Ok(130)),
    ("B5", 0xcd235a8fdffc55da, Err("unsupported")),
    ("B6", 0xcd235a8fdffc55da, Err("unsupported")),
    ("B7", 0x377c13de68cb9e67, Ok(220)),
    ("B8", 0x176b09bdbead7b09, Ok(414)),
];

const HIBISCUS_QFED: [Pin; 7] = [
    ("C2P2", 0x3d8658c640988e6b, Ok(68)),
    ("C2P2F", 0x43efb860a6e54ad2, Ok(21)),
    ("C2P2OF", 0x0c4a3ae3f837245a, Ok(27)),
    ("C2P2B", 0x90e3fcc8ffa4c1ad, Ok(68)),
    ("C2P2BF", 0x89e233a6be3b7f43, Ok(21)),
    ("C2P2BO", 0x971ce7792a66dad6, Ok(83)),
    ("C2P2BOF", 0xc5cc599d93c3f5af, Ok(27)),
];

const HIBISCUS_LUBM: [Pin; 4] = [
    ("Q1", 0x151da4bb01022231, Ok(78)),
    ("Q2", 0x4f0ec3aabdb83329, Ok(49)),
    ("Q3", 0x123751efc7cfb5f1, Ok(28)),
    ("Q4", 0xd41aefa3dabe2c75, Ok(73)),
];

const SPLENDID_LARGERDF: [Pin; 32] = [
    ("S1", 0x50e8d52993d179e3, Ok(100)),
    ("S2", 0x193d593c15abad65, Ok(100)),
    ("S3", 0xc8c9ed750d389e00, Ok(66)),
    ("S4", 0x0c7988d89d1a056d, Ok(130)),
    ("S5", 0xb7357fb8b7ad5552, Ok(80)),
    ("S6", 0x977d75848327a402, Ok(110)),
    ("S7", 0x48b04477dc5d580d, Ok(40)),
    ("S8", 0x8ba9868c8da228dc, Ok(11)),
    ("S9", 0xfe93c550c27669ae, Ok(100)),
    ("S10", 0xebe41e5f564cb432, Ok(109)),
    ("S11", 0xf8202fae50ebc22a, Ok(114)),
    ("S12", 0xf4ce05180c3d0111, Ok(120)),
    ("S13", 0x32bf99326ea16aad, Ok(100)),
    ("S14", 0xc6fd8b2a4e77267d, Ok(110)),
    ("C1", 0x8b5298f0a33f7d05, Ok(100)),
    ("C2", 0xb01a0cee3c5f76dd, Ok(2)),
    ("C3", 0x941d96faf215e746, Ok(31)),
    ("C4", 0x165a85b2e9b293c4, Ok(50)),
    ("C5", 0xcd235a8fdffc55da, Err("unsupported")),
    ("C6", 0x292554656796d509, Ok(80)),
    ("C7", 0x15a10ee7bba28106, Ok(3615)),
    ("C8", 0xfbe8803bb7bde1ad, Ok(48)),
    ("C9", 0xb60d3c31dafb17f0, Ok(900)),
    ("C10", 0x009ca8bad0919957, Ok(46)),
    ("B1", 0xa100405ca9404310, Ok(2000)),
    ("B2", 0x0a46a9a64b381c5a, Ok(100)),
    ("B3", 0x8b68979fb5b3e277, Ok(876)),
    ("B4", 0xb7a8fb041090ebcb, Ok(130)),
    ("B5", 0xcd235a8fdffc55da, Err("unsupported")),
    ("B6", 0xcd235a8fdffc55da, Err("unsupported")),
    ("B7", 0x9b1af55499a75e3a, Ok(220)),
    ("B8", 0x10eac195e2d9a9a8, Ok(414)),
];

const SPLENDID_QFED: [Pin; 7] = [
    ("C2P2", 0x1cd0197b8fa8ce81, Ok(68)),
    ("C2P2F", 0xa219c80f5ddf1f21, Ok(21)),
    ("C2P2OF", 0x4c9a0372981b7a64, Ok(27)),
    ("C2P2B", 0xf50036a2ee4b6d08, Ok(68)),
    ("C2P2BF", 0xe9182676ee9ce900, Ok(21)),
    ("C2P2BO", 0x568305d7c04a9e3a, Ok(83)),
    ("C2P2BOF", 0xc7f502d1efd5ef01, Ok(27)),
];

const SPLENDID_LUBM: [Pin; 4] = [
    ("Q1", 0x5943ab56e9b058e9, Ok(78)),
    ("Q2", 0x86249bc65dcc82e5, Ok(49)),
    ("Q3", 0xeeaf7a59b921f811, Ok(28)),
    ("Q4", 0x808340177c31f105, Ok(73)),
];
