//! Keyword search over a federation — the paper's other stated
//! future-work direction ("we plan to investigate keyword search as a
//! means for querying federated RDF systems").
//!
//! The implementation follows the classic keyword-over-RDF recipe,
//! federated:
//!
//! 1. **Match**: for every keyword, probe each endpoint with a generated
//!    `SELECT ?s ?p ?o WHERE { ?s ?p ?o . FILTER CONTAINS(LCASE?… ) }`
//!    style query (we use our `CONTAINS` on the literal's string form,
//!    case-folded via a lowercase copy of the keyword and a REGEX with
//!    the `i` flag) — executed in parallel through the ERH and bounded
//!    with `LIMIT` so generic keywords cannot flood the federator.
//! 2. **Aggregate**: group matches by subject entity; an entity's score
//!    is the number of distinct keywords it matches, ties broken by the
//!    number of matching triples.
//! 3. **Describe**: for the top-k entities, fetch their outgoing triples
//!    from the owning endpoint so the user sees a result card, not a bare
//!    IRI.

use crate::error::EngineError;
use crate::run::RunContext;
use lusail_federation::{EndpointId, Federation, RequestHandler};
use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::Term;
use lusail_sparql::ast::{
    Expression, GraphPattern, Projection, Query, SelectQuery, TermPattern, TriplePattern, Variable,
};
use lusail_sparql::Relation;

/// Keyword search options.
#[derive(Debug, Clone)]
pub struct KeywordConfig {
    /// Matches fetched per keyword per endpoint.
    pub per_endpoint_limit: usize,
    /// Entities returned.
    pub top_k: usize,
    /// Triples fetched per described entity.
    pub describe_limit: usize,
}

impl Default for KeywordConfig {
    fn default() -> Self {
        KeywordConfig {
            per_endpoint_limit: 100,
            top_k: 10,
            describe_limit: 20,
        }
    }
}

/// One ranked hit.
#[derive(Debug, Clone)]
pub struct KeywordHit {
    pub entity: Term,
    pub endpoint: EndpointId,
    /// Distinct keywords matched.
    pub keywords_matched: usize,
    /// Matching triples observed.
    pub match_count: usize,
    /// The entity's outgoing triples (predicate, object), up to
    /// `describe_limit`.
    pub description: Vec<(Term, Term)>,
}

/// The match query for one keyword:
/// `SELECT ?s ?p ?o WHERE { ?s ?p ?o . FILTER(REGEX(STR(?o), kw, "i")) } LIMIT n`.
fn match_query(keyword: &str, limit: usize) -> Query {
    let tp = TriplePattern::new(
        TermPattern::var("s"),
        TermPattern::var("p"),
        TermPattern::var("o"),
    );
    let filter = Expression::Regex(
        Box::new(Expression::Str(Box::new(Expression::Var(Variable::new(
            "o",
        ))))),
        regex_escape(keyword),
        "i".to_string(),
    );
    let pattern = GraphPattern::Filter(Box::new(GraphPattern::Bgp(vec![tp])), filter);
    let mut select = SelectQuery::new(
        Projection::Vars(vec![
            Variable::new("s"),
            Variable::new("p"),
            Variable::new("o"),
        ]),
        pattern,
    );
    select.limit = Some(limit);
    Query::select(select)
}

/// Escape regex metacharacters so keywords match literally.
fn regex_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if "\\.^$*+?()[]{}|".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// The describe query for one entity: `SELECT ?p ?o WHERE { <e> ?p ?o } LIMIT n`.
fn describe_query(entity: &Term, limit: usize) -> Query {
    let tp = TriplePattern::new(
        TermPattern::Term(entity.clone()),
        TermPattern::var("p"),
        TermPattern::var("o"),
    );
    let mut select = SelectQuery::new(
        Projection::Vars(vec![Variable::new("p"), Variable::new("o")]),
        GraphPattern::Bgp(vec![tp]),
    );
    select.limit = Some(limit);
    Query::select(select)
}

/// Run a federated keyword search under `ctx`'s deadline and result policy
/// (a skipped endpoint contributes no matches and no description).
pub fn keyword_search(
    federation: &Federation,
    handler: &RequestHandler,
    keywords: &[&str],
    config: &KeywordConfig,
    ctx: &RunContext,
) -> Result<Vec<KeywordHit>, EngineError> {
    if keywords.is_empty() {
        return Ok(Vec::new());
    }
    // Phase 1: match, one task per (keyword, endpoint).
    let tasks: Vec<(usize, EndpointId)> = (0..keywords.len())
        .flat_map(|k| federation.ids().map(move |ep| (k, ep)))
        .collect();
    let matches = |(k, ep): (usize, EndpointId), deadline| {
        let q = match_query(keywords[k], config.per_endpoint_limit);
        federation.endpoint(ep).select_within(&q, deadline)
    };
    let settle = |what, sent: Vec<_>| {
        let settled = |r| ctx.absorb(what, Relation::default(), r);
        sent.into_iter().map(settled).collect::<Result<Vec<_>, _>>()
    };
    let sent = ctx.dispatch(handler, "keyword match", tasks.clone(), matches)?;
    let results = settle("keyword match", sent)?;

    // Phase 2: aggregate per (entity, endpoint).
    #[derive(Default)]
    struct Agg {
        keywords: Vec<usize>,
        matches: usize,
    }
    let mut agg: FxHashMap<(Term, EndpointId), Agg> = FxHashMap::default();
    for ((k, ep), rel) in tasks.into_iter().zip(results) {
        let si = rel.index_of(&Variable::new("s"));
        let Some(si) = si else { continue };
        for row in rel.rows() {
            let Some(entity) = row[si].clone() else {
                continue;
            };
            let entry = agg.entry((entity, ep)).or_default();
            if !entry.keywords.contains(&k) {
                entry.keywords.push(k);
            }
            entry.matches += 1;
        }
    }
    let mut ranked: Vec<((Term, EndpointId), Agg)> = agg.into_iter().collect();
    ranked.sort_by(|a, b| {
        (b.1.keywords.len(), b.1.matches, &a.0 .0)
            .partial_cmp(&(a.1.keywords.len(), a.1.matches, &b.0 .0))
            .unwrap()
    });
    ranked.truncate(config.top_k);

    // Phase 3: describe the winners, in parallel.
    let winners = ranked.iter().map(|((e, ep), _)| (e.clone(), *ep)).collect();
    let describe = |(entity, ep): (Term, EndpointId), deadline| {
        let q = describe_query(&entity, config.describe_limit);
        federation.endpoint(ep).select_within(&q, deadline)
    };
    let sent = ctx.dispatch(handler, "keyword describe", winners, describe)?;
    let describes = settle("keyword describe", sent)?;

    Ok(ranked
        .into_iter()
        .zip(describes)
        .map(|(((entity, endpoint), a), desc)| {
            let pi = desc.index_of(&Variable::new("p"));
            let oi = desc.index_of(&Variable::new("o"));
            let description = desc
                .rows()
                .iter()
                .filter_map(|row| {
                    let p = pi.and_then(|i| row[i].clone())?;
                    let o = oi.and_then(|i| row[i].clone())?;
                    Some((p, o))
                })
                .collect();
            KeywordHit {
                entity,
                endpoint,
                keywords_matched: a.keywords.len(),
                match_count: a.matches,
                description,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_federation::{NetworkProfile, SimulatedEndpoint, SparqlEndpoint};
    use lusail_rdf::Graph;
    use lusail_store::Store;
    use std::sync::Arc;

    fn ctx() -> RunContext {
        RunContext::unbounded()
    }

    fn fed() -> Federation {
        let mut g1 = Graph::new();
        g1.add(
            Term::iri("http://a/einstein"),
            Term::iri("http://x/name"),
            Term::literal("Albert Einstein"),
        );
        g1.add(
            Term::iri("http://a/einstein"),
            Term::iri("http://x/field"),
            Term::literal("physics"),
        );
        g1.add(
            Term::iri("http://a/bohr"),
            Term::iri("http://x/name"),
            Term::literal("Niels Bohr"),
        );
        g1.add(
            Term::iri("http://a/bohr"),
            Term::iri("http://x/field"),
            Term::literal("physics"),
        );
        let mut g2 = Graph::new();
        g2.add(
            Term::iri("http://b/princeton"),
            Term::iri("http://x/label"),
            Term::literal("Princeton, where Einstein worked"),
        );
        Federation::new(vec![
            Arc::new(SimulatedEndpoint::new(
                "a",
                Store::from_graph(&g1),
                NetworkProfile::instant(),
            )) as Arc<dyn SparqlEndpoint>,
            Arc::new(SimulatedEndpoint::new(
                "b",
                Store::from_graph(&g2),
                NetworkProfile::instant(),
            )) as Arc<dyn SparqlEndpoint>,
        ])
    }

    #[test]
    fn finds_and_ranks_across_endpoints() {
        let fed = fed();
        let handler = RequestHandler::new(4);
        let hits = keyword_search(
            &fed,
            &handler,
            &["einstein", "physics"],
            &KeywordConfig::default(),
            &ctx(),
        )
        .unwrap();
        assert!(!hits.is_empty());
        // Einstein matches both keywords → ranked first.
        assert_eq!(hits[0].entity, Term::iri("http://a/einstein"));
        assert_eq!(hits[0].keywords_matched, 2);
        // The Princeton entity (other endpoint) matches one keyword.
        assert!(hits
            .iter()
            .any(|h| h.entity == Term::iri("http://b/princeton")));
        // Descriptions are populated.
        assert!(!hits[0].description.is_empty());
    }

    #[test]
    fn case_insensitive_matching() {
        let fed = fed();
        let handler = RequestHandler::new(2);
        let hits = keyword_search(
            &fed,
            &handler,
            &["EINSTEIN"],
            &KeywordConfig::default(),
            &ctx(),
        )
        .unwrap();
        assert!(hits
            .iter()
            .any(|h| h.entity == Term::iri("http://a/einstein")));
    }

    #[test]
    fn empty_keywords_empty_result() {
        let fed = fed();
        let handler = RequestHandler::new(2);
        assert!(
            keyword_search(&fed, &handler, &[], &KeywordConfig::default(), &ctx())
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn top_k_truncates() {
        let fed = fed();
        let handler = RequestHandler::new(2);
        let cfg = KeywordConfig {
            top_k: 1,
            ..Default::default()
        };
        let hits = keyword_search(&fed, &handler, &["physics"], &cfg, &ctx()).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn regex_escape_neutralizes_metachars() {
        assert_eq!(regex_escape("a.b*c"), "a\\.b\\*c");
        let fed = fed();
        let handler = RequestHandler::new(2);
        // A keyword full of metacharacters must not error or match everything.
        let hits =
            keyword_search(&fed, &handler, &["(((."], &KeywordConfig::default(), &ctx()).unwrap();
        assert!(hits.is_empty());
    }
}
