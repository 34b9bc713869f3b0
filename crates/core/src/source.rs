//! Source selection and pattern statistics.
//!
//! Lusail is index-free (Section 2 of the paper): relevance is an `ASK` per
//! triple pattern per endpoint, SAPE's statistics a `COUNT` per pattern per
//! relevant endpoint (Section 4.1). `COUNT > 0` *is* the `ASK`, so [`probe`]
//! asks for both at once: every pattern of the query that the caches cannot
//! answer goes to each endpoint in **one** request of
//! `{ SELECT (COUNT(*) AS ?cK) WHERE { tp } }` subselects, answered as one
//! row (DESIGN.md, key design decision 6) — split over as many requests of
//! the same wave as keep each within the parser's nesting limit.
//! [`select_sources`] is the per-pattern `ASK` path: the FedX baseline's
//! source selection, and the reference the tests hold the probe's source
//! lists against.

use crate::cache::{pattern_key, QueryCache};
use crate::error::EngineError;
use crate::normalize::ConjBranch;
use crate::run::RunContext;
use crate::sape::estimate::{count_select, pushable_filters, TpCounts};
use lusail_federation::{EndpointError, EndpointId, Federation, RequestHandler};
use lusail_rdf::fxhash::FxHashMap;
use lusail_sparql::ast::{
    Expression, GraphPattern, Projection, Query, SelectQuery, TriplePattern, Variable,
};
use lusail_sparql::parser::PARSE_LIMITS;
use lusail_sparql::Relation;

/// Build the `ASK { tp }` probe for a pattern.
pub fn ask_query(tp: &TriplePattern) -> Query {
    Query::ask(GraphPattern::Bgp(vec![tp.clone()]))
}

/// Select, for each triple pattern, the endpoints that can answer it, with
/// one `ASK` per pattern per endpoint — the FedX baseline's source
/// selection and the tests' reference for [`probe`].
///
/// Returns one source list per input pattern, in input order. When `cache`
/// is `Some`, previously-probed patterns are answered from the cache
/// without touching the network.
///
/// Probes respect `ctx`: the deadline bounds each `ASK`, and under the
/// partial policy an unreachable endpoint is treated as irrelevant for
/// the pattern (with a warning) instead of failing the query. Degraded
/// source lists are not cached.
pub fn select_sources(
    federation: &Federation,
    handler: &RequestHandler,
    cache: Option<&QueryCache>,
    patterns: &[TriplePattern],
    ctx: &RunContext,
) -> Result<Vec<Vec<EndpointId>>, EngineError> {
    // Resolve cache hits first, then probe the misses in one parallel batch
    // (pattern × endpoint tasks).
    let keys: Vec<String> = patterns.iter().map(pattern_key).collect();
    let mut result: Vec<Option<Vec<EndpointId>>> = keys
        .iter()
        .map(|k| cache.and_then(|c| c.get_sources(k)))
        .collect();

    // Deduplicate misses by key: identical patterns probe once.
    let mut miss_keys: Vec<String> = Vec::new();
    let mut miss_repr: Vec<&TriplePattern> = Vec::new();
    for (i, r) in result.iter().enumerate() {
        if r.is_none() && !miss_keys.contains(&keys[i]) {
            miss_keys.push(keys[i].clone());
            miss_repr.push(&patterns[i]);
        }
    }

    if !miss_repr.is_empty() {
        let tasks: Vec<(usize, EndpointId)> = (0..miss_repr.len())
            .flat_map(|mi| federation.ids().map(move |ep| (mi, ep)))
            .collect();
        let ask = |(mi, ep): (usize, EndpointId), deadline| {
            let q = ask_query(miss_repr[mi]);
            federation.endpoint(ep).ask_within(&q, deadline)
        };
        let answers = ctx.dispatch(handler, "source selection", tasks.clone(), ask)?;
        let mut per_miss: Vec<Vec<EndpointId>> = vec![Vec::new(); miss_repr.len()];
        let mut degraded = vec![false; miss_repr.len()];
        for ((mi, ep), yes) in tasks.into_iter().zip(answers) {
            let what = format!("ASK probe for {}", pattern_key(miss_repr[mi]));
            let (yes, skipped) = ctx.absorb_flagged(&what, false, yes)?;
            degraded[mi] |= skipped;
            if yes {
                per_miss[mi].push(ep);
            }
        }
        for (mi, key) in miss_keys.iter().enumerate() {
            if let Some(c) = cache {
                // A source list computed while an endpoint was down
                // describes the outage, not the data — don't cache it.
                if !degraded[mi] {
                    c.put_sources(key.clone(), per_miss[mi].clone());
                }
            }
            for (i, r) in result.iter_mut().enumerate() {
                if r.is_none() && &keys[i] == key {
                    *r = Some(per_miss[mi].clone());
                }
            }
        }
    }

    Ok(result
        .into_iter()
        .map(|r| r.expect("all patterns resolved"))
        .collect())
}

/// What [`probe`] learned about one block of triple patterns: the relevant
/// endpoints of each and, for a costed block, `counts[i][&ep]` — the matches
/// of pattern `i`, under the block's pushable filters, at each of them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockStats {
    pub sources: Vec<Vec<EndpointId>>,
    pub counts: TpCounts,
}

/// The endpoints relevant to any pattern of a block, ascending: where an
/// `OPTIONAL` or `MINUS` block, evaluated whole, is sent.
pub fn merged_sources(sources: &[Vec<EndpointId>]) -> Vec<EndpointId> {
    let mut merged: Vec<EndpointId> = sources.iter().flatten().copied().collect();
    merged.sort_unstable();
    merged.dedup();
    merged
}

/// [`BlockStats`] of a branch's required patterns, of each `OPTIONAL` block
/// and of each `MINUS` block (sources only: it is fetched, never costed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BranchStats {
    pub required: BlockStats,
    pub optionals: Vec<BlockStats>,
    pub minuses: Vec<BlockStats>,
}

/// One `{ SELECT (COUNT(*) AS ?c) WHERE { tp [filters] } }` of the probe.
struct Arm<'a> {
    tp: &'a TriplePattern,
    /// The block's filters, of which the arm takes the pushable ones. With
    /// none it is the pattern's unfiltered arm, whose count is the `ASK`
    /// (the cached source list is keyed by the bare pattern).
    filters: &'a [Expression],
    source_key: String,
    count_key: String,
    /// The unfiltered arm of the same pattern (itself when unfiltered).
    base: usize,
    /// Does a costed block read this arm's counts?
    counted: bool,
    /// Relevant endpoints, on unfiltered arms: cached, else from the answers.
    sources: Option<Vec<EndpointId>>,
    counts: FxHashMap<EndpointId, usize>,
}

/// The arm of `tp` under `filters`, added (after its unfiltered arm) unless
/// an equal one exists. The filter tag names the query's own variables, so
/// filtered arms are equal only over the very same pattern.
fn arm_of<'a>(
    arms: &mut Vec<Arm<'a>>,
    cache: Option<&QueryCache>,
    tp: &'a TriplePattern,
    filters: &'a [Expression],
    counted: bool,
) -> usize {
    let source_key = pattern_key(tp);
    let pushed = pushable_filters(tp, filters);
    let tag: String = pushed.iter().map(|f| format!("{f:?}")).collect();
    let count_key = format!("{source_key}|{tag}");
    let same = |a: &Arm| a.count_key == count_key && (pushed.is_empty() || a.tp == tp);
    let k = arms.iter().position(same).unwrap_or_else(|| {
        let (base, sources) = match pushed.is_empty() {
            true => (arms.len(), cache.and_then(|c| c.get_sources(&source_key))),
            false => (arm_of(arms, cache, tp, &[], false), None),
        };
        arms.push(Arm {
            tp,
            filters,
            source_key,
            count_key,
            base,
            counted: false,
            sources,
            counts: FxHashMap::default(),
        });
        arms.len() - 1
    });
    arms[k].counted |= counted;
    k
}

/// The arms of a block's patterns, in pattern order.
fn block_arms<'a>(
    arms: &mut Vec<Arm<'a>>,
    cache: Option<&QueryCache>,
    (patterns, filters): (&'a [TriplePattern], &'a [Expression]),
    counted: bool,
) -> (Vec<usize>, bool) {
    let arm = |tp| arm_of(arms, cache, tp, filters, counted);
    (patterns.iter().map(arm).collect(), counted)
}

/// `?c<j>` — short, every response repeats it — lengthened with `_` while
/// the arm's own pattern uses that name.
fn count_var(j: usize, tp: &TriplePattern) -> Variable {
    let mut name = format!("c{j}");
    while tp.variables().iter().any(|v| v.name() == name) {
        name.push('_');
    }
    Variable::new(name)
}

/// The probe for one endpoint: one `COUNT` subselect per arm.
fn probe_query(arms: &[&Arm]) -> Query {
    let arm = |(j, a): (usize, &&Arm)| {
        let select = count_select(a.tp, a.filters, count_var(j, a.tp));
        GraphPattern::SubSelect(Box::new(select))
    };
    let join = |a, b| GraphPattern::Join(Box::new(a), Box::new(b));
    let body = arms.iter().enumerate().map(arm).reduce(join);
    Query::select(SelectQuery::new(
        Projection::All,
        body.unwrap_or_else(GraphPattern::empty),
    ))
}

/// Read a probe answer: exactly one row with a non-negative integer under
/// every arm's variable. Anything else is the endpoint failing (transport
/// class, so `--partial` may skip it), never "no matches": a source must
/// not drop out because an answer was mangled.
fn read_counts(name: &str, arms: &[&Arm], rel: &Relation) -> Result<Vec<usize>, EndpointError> {
    let malformed = |why: String| {
        EndpointError::transport(name, format!("malformed analysis probe answer: {why}"))
    };
    let [row] = rel.rows() else {
        return Err(malformed(format!("{} rows instead of 1", rel.len())));
    };
    let count = |(j, a): (usize, &&Arm)| {
        let var = count_var(j, a.tp);
        rel.index_of(&var)
            .and_then(|i| row[i].as_ref()?.as_literal()?.as_i64())
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| malformed(format!("no count under {var}")))
    };
    arms.iter().enumerate().map(count).collect()
}

/// Source selection and `COUNT` statistics for a whole query in one round
/// trip: one request per endpoint that has anything left to tell (more for
/// a branch too wide for one request to parse).
///
/// Every pattern of `branches` (required, `OPTIONAL` and `MINUS` blocks) is
/// resolved against `cache` (source lists and counts) first. A
/// pattern with no cached source list goes to every endpoint — its
/// unfiltered count is the `ASK`, the count under the block's pushable
/// filters rides along — and one with sources but a missing count to just
/// the endpoints that miss it. Both caches are filled under the keys the
/// per-pattern requests used, so the result equals [`select_sources`] plus
/// one [`count_query`](crate::sape::estimate::count_query) per pattern and
/// relevant endpoint.
///
/// Under the partial policy an endpoint that fails (or answers anything but
/// one row of integers) reads as irrelevant to what it was asked, with one
/// warning; neither its answers nor a source list computed without it are
/// cached.
pub fn probe(
    federation: &Federation,
    handler: &RequestHandler,
    cache: Option<&QueryCache>,
    branches: &[ConjBranch],
    ctx: &RunContext,
) -> Result<Vec<BranchStats>, EngineError> {
    // The query's distinct arms, and which arm each pattern slot reads. A
    // MINUS block is fetched whole, not costed: sources only, no filters.
    let mut arms: Vec<Arm> = Vec::new();
    let mut plan = Vec::with_capacity(branches.len());
    for b in branches {
        let required = block_arms(&mut arms, cache, (&b.patterns, &b.filters), true);
        let optionals = (b.optionals.iter())
            .map(|o| block_arms(&mut arms, cache, (&o.patterns, &o.filters), true))
            .collect::<Vec<_>>();
        let minuses = (b.minuses.iter())
            .map(|m| block_arms(&mut arms, cache, (&m.patterns, &[]), false))
            .collect::<Vec<_>>();
        plan.push((required, optionals, minuses));
    }

    // What each endpoint is asked.
    let mut asks: Vec<Vec<usize>> = vec![Vec::new(); federation.len()];
    for k in 0..arms.len() {
        match arms[arms[k].base].sources.clone() {
            None => asks.iter_mut().for_each(|a| a.push(k)),
            Some(sources) if arms[k].counted => {
                for ep in sources {
                    match cache.and_then(|c| c.get_count(&arms[k].count_key, ep)) {
                        Some(n) => {
                            arms[k].counts.insert(ep, n);
                        }
                        None => asks[ep].push(k),
                    }
                }
            }
            Some(_) => {}
        }
    }
    // One request per endpoint asked, unless its arms would nest deeper
    // than a parser accepts: each arm is one more item of the probe's
    // group. The rest go out as further requests of the same wave.
    let per_request = PARSE_LIMITS.max_nesting / 2;
    let requests: Vec<(EndpointId, usize)> = (0..asks.len())
        .flat_map(|ep| {
            (0..asks[ep].len())
                .step_by(per_request)
                .map(move |at| (ep, at))
        })
        .collect();
    let ask = |(ep, at): (EndpointId, usize), deadline| {
        let endpoint = federation.endpoint(ep);
        let of_ep: Vec<&Arm> = (asks[ep].iter().skip(at).take(per_request))
            .map(|&k| &arms[k])
            .collect();
        let rel = endpoint.select_within(&probe_query(&of_ep), deadline)?;
        read_counts(endpoint.name(), &of_ep, &rel)
    };
    let answers = ctx.dispatch(handler, "analysis probe", requests.clone(), ask)?;
    // An endpoint's counts, in the order it was asked; `None` once any of
    // its requests was skipped.
    let mut answered: Vec<Option<Vec<usize>>> = vec![Some(Vec::new()); asks.len()];
    for ((ep, _), answer) in requests.into_iter().zip(answers) {
        let (counts, skipped) = ctx.absorb_flagged("analysis probe", Vec::new(), answer)?;
        match &mut answered[ep] {
            Some(all) if !skipped => all.extend(counts),
            slot => *slot = None,
        }
    }
    let mut degraded = false;
    for (ep, counts) in answered.into_iter().enumerate() {
        let Some(counts) = counts else {
            // Nothing learned: every count reads as 0, nothing is cached.
            degraded = true;
            asks[ep].clear();
            continue;
        };
        for (&k, n) in asks[ep].iter().zip(counts) {
            arms[k].counts.insert(ep, n);
        }
    }

    // Relevance is a positive unfiltered count. A source list computed
    // while an endpoint was down describes the outage, not the data —
    // don't cache it.
    let unresolved = |(k, arm): &(usize, &mut Arm)| arm.base == *k && arm.sources.is_none();
    for (_, arm) in arms.iter_mut().enumerate().filter(unresolved) {
        let relevant = |ep: &EndpointId| arm.counts.get(ep).is_some_and(|&n| n > 0);
        let sources: Vec<EndpointId> = federation.ids().filter(relevant).collect();
        if let (Some(c), false) = (cache, degraded) {
            c.put_sources(arm.source_key.clone(), sources.clone());
        }
        arm.sources = Some(sources);
    }
    let sources_of = |k: usize| arms[arms[k].base].sources.as_deref().unwrap_or(&[]);
    if let Some(c) = cache {
        for (ep, ks) in asks.iter().enumerate() {
            for &k in ks.iter().filter(|&&k| sources_of(k).contains(&ep)) {
                c.put_count(arms[k].count_key.clone(), ep, arms[k].counts[&ep]);
            }
        }
    }

    let stats = |(slots, counted): &(Vec<usize>, bool)| BlockStats {
        sources: slots.iter().map(|&k| sources_of(k).to_vec()).collect(),
        counts: (slots.iter().filter(|_| *counted))
            .map(|&k| {
                let count = |&ep| (ep, arms[k].counts.get(&ep).copied().unwrap_or(0));
                sources_of(k).iter().map(count).collect()
            })
            .collect(),
    };
    Ok(plan
        .iter()
        .map(|(required, optionals, minuses)| BranchStats {
            required: stats(required),
            optionals: optionals.iter().map(stats).collect(),
            minuses: minuses.iter().map(stats).collect(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_federation::{NetworkProfile, SimulatedEndpoint, SparqlEndpoint};
    use lusail_rdf::{Graph, Term};
    use lusail_sparql::ast::TermPattern;
    use lusail_store::Store;
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

    /// ep0 has predicate p, ep1 has q, ep2 has both.
    fn fed() -> Federation {
        let make = |name: &str, preds: &[&str]| {
            let mut g = Graph::new();
            for (i, p) in preds.iter().enumerate() {
                g.add(
                    Term::iri(format!("http://{name}/s{i}")),
                    Term::iri(format!("http://x/{p}")),
                    Term::iri(format!("http://{name}/o{i}")),
                );
            }
            Arc::new(SimulatedEndpoint::new(
                name,
                Store::from_graph(&g),
                NetworkProfile::instant(),
            )) as Arc<dyn SparqlEndpoint>
        };
        Federation::new(vec![
            make("ep0", &["p"]),
            make("ep1", &["q"]),
            make("ep2", &["p", "q"]),
        ])
    }

    #[test]
    fn finds_relevant_endpoints() {
        let fed = fed();
        let handler = RequestHandler::new(4);
        let srcs = select_sources(
            &fed,
            &handler,
            None,
            &[tp("?s", "http://x/p", "?o"), tp("?s", "http://x/q", "?o")],
            &RunContext::unbounded(),
        )
        .unwrap();
        assert_eq!(srcs[0], vec![0, 2]);
        assert_eq!(srcs[1], vec![1, 2]);
    }

    #[test]
    fn cache_avoids_reprobing() {
        let fed = fed();
        let handler = RequestHandler::new(4);
        let cache = QueryCache::new();
        let pats = [tp("?s", "http://x/p", "?o")];
        select_sources(
            &fed,
            &handler,
            Some(&cache),
            &pats,
            &RunContext::unbounded(),
        )
        .unwrap();
        let before = fed.total_traffic().requests;
        assert!(before > 0);
        // Same pattern, different variable names → cache hit, no traffic.
        let srcs = select_sources(
            &fed,
            &handler,
            Some(&cache),
            &[tp("?a", "http://x/p", "?b")],
            &RunContext::unbounded(),
        )
        .unwrap();
        assert_eq!(fed.total_traffic().requests, before);
        assert_eq!(srcs[0], vec![0, 2]);
    }

    #[test]
    fn duplicate_patterns_probe_once() {
        let fed = fed();
        let handler = RequestHandler::new(4);
        let pats = [tp("?s", "http://x/p", "?o"), tp("?a", "http://x/p", "?b")];
        let srcs = select_sources(&fed, &handler, None, &pats, &RunContext::unbounded()).unwrap();
        assert_eq!(srcs[0], srcs[1]);
        // 1 unique pattern × 3 endpoints.
        assert_eq!(fed.total_traffic().requests, 3);
    }

    #[test]
    fn unknown_predicate_has_no_sources() {
        let fed = fed();
        let handler = RequestHandler::new(4);
        let srcs = select_sources(
            &fed,
            &handler,
            None,
            &[tp("?s", "http://x/zzz", "?o")],
            &RunContext::unbounded(),
        )
        .unwrap();
        assert!(srcs[0].is_empty());
    }

    fn branch(patterns: Vec<TriplePattern>) -> Vec<ConjBranch> {
        vec![ConjBranch {
            patterns,
            ..Default::default()
        }]
    }

    #[test]
    fn probe_agrees_with_select_sources_and_fills_both_caches() {
        let fed = fed();
        let handler = RequestHandler::new(4);
        let cache = QueryCache::new();
        let pats = vec![tp("?s", "http://x/p", "?o"), tp("?s", "http://x/q", "?o")];
        let ctx = RunContext::unbounded();
        let branches = branch(pats.clone());
        let stats = probe(&fed, &handler, Some(&cache), &branches, &ctx).unwrap();
        // One request per endpoint, whatever the number of patterns.
        assert_eq!(fed.total_traffic().requests, 3);
        assert_eq!(stats[0].required.sources, [vec![0, 2], vec![1, 2]]);
        assert_eq!(stats[0].required.counts[1][&2], 1);
        assert_eq!(cache.sizes(), (2, 0, 4));
        // The per-pattern ASK path reads the very same source cache.
        let asked = select_sources(&fed, &handler, Some(&cache), &pats, &ctx).unwrap();
        assert_eq!(asked, stats[0].required.sources);
        let again = probe(&fed, &handler, Some(&cache), &branches, &ctx).unwrap();
        assert_eq!(again, stats);
        assert_eq!(fed.total_traffic().requests, 3);
    }

    #[test]
    fn probe_variables_dodge_the_patterns_own() {
        let fed = fed();
        let handler = RequestHandler::new(4);
        let branches = branch(vec![tp("?c0", "http://x/p", "?c0_")]);
        let ctx = RunContext::unbounded();
        let stats = probe(&fed, &handler, None, &branches, &ctx).unwrap();
        assert_eq!(stats[0].required.sources, [[0, 2]]);
    }

    /// Answers the probe with something other than one row of integers.
    struct Mangler {
        inner: Arc<dyn SparqlEndpoint>,
        mangle: fn(&mut Relation),
    }

    impl SparqlEndpoint for Mangler {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn execute_within(
            &self,
            query: &Query,
            deadline: lusail_federation::Deadline,
        ) -> Result<lusail_store::eval::QueryResult, EndpointError> {
            let mut rel = self.inner.execute_within(query, deadline)?.into_solutions();
            (self.mangle)(&mut rel);
            Ok(lusail_store::eval::QueryResult::Solutions(rel))
        }
        fn traffic(&self) -> lusail_federation::TrafficSnapshot {
            self.inner.traffic()
        }
        fn reset_traffic(&self) {
            self.inner.reset_traffic()
        }
    }

    #[test]
    fn a_mangled_probe_answer_fails_its_endpoint_and_never_reads_as_irrelevant() {
        let manglings: [fn(&mut Relation); 4] = [
            |rel| rel.rows_mut().clear(),
            |rel| {
                let row = rel.rows()[0].clone();
                rel.push(row);
            },
            |rel| rel.rows_mut()[0][0] = None,
            |rel| rel.rows_mut()[0][0] = Some(Term::iri("http://bomb.example.org/r0/c0")),
        ];
        for mangle in manglings {
            let healthy = fed();
            let mut endpoints: Vec<Arc<dyn SparqlEndpoint>> = healthy
                .ids()
                .map(|ep| Arc::clone(healthy.endpoint(ep)))
                .collect();
            endpoints[2] = Arc::new(Mangler {
                inner: Arc::clone(&endpoints[2]),
                mangle,
            });
            let fed = Federation::new(endpoints);
            let handler = RequestHandler::new(4);
            let branches = branch(vec![tp("?s", "http://x/p", "?o")]);

            // Fail-fast: the query dies naming the endpoint.
            let err = probe(&fed, &handler, None, &branches, &RunContext::unbounded()).unwrap_err();
            match err {
                EngineError::Endpoint(e) => {
                    assert_eq!(e.endpoint, "ep2");
                    assert!(e.message.contains("malformed"), "{e}");
                }
                other => panic!("expected an endpoint error, got {other:?}"),
            }

            // Partial: one warning, the healthy sources, nothing cached.
            let cache = QueryCache::new();
            let ctx = RunContext::new(&crate::LusailConfig {
                result_policy: crate::ResultPolicy::Partial,
                ..Default::default()
            });
            let stats = probe(&fed, &handler, Some(&cache), &branches, &ctx).unwrap();
            assert_eq!(stats[0].required.sources, [[0]]);
            let warnings = ctx.take_warnings();
            assert_eq!(warnings.len(), 1, "{warnings:?}");
            assert_eq!(warnings[0].endpoint, "ep2");
            assert_eq!(cache.sizes().0, 0, "a degraded source list is not cached");
        }
    }
}
