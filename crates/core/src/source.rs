//! Source selection and pattern statistics.
//!
//! Lusail keeps no index of its own (Section 2 of the paper): relevance is
//! an `ASK` per triple pattern per endpoint, SAPE's statistics a `COUNT` per
//! pattern per relevant endpoint (Section 4.1). `COUNT > 0` *is* the `ASK`,
//! so [`probe`] asks for both at once: every pattern of the query that the
//! caches cannot answer goes to each endpoint in **one** request of
//! `{ SELECT (COUNT(*) AS ?cK) WHERE { tp } }` subselects, answered as one
//! row (DESIGN.md, key design decision 6) — split over as many requests of
//! the same wave as keep each within the parser's nesting limit.
//! Under a cache, an endpoint's first probe request also asks for its
//! [`Vocabulary`]: each predicate and `rdf:type` class with the endpoint's
//! own count of its triples, next to the endpoint's totals of both. A list
//! is trusted only when its terms are distinct, each counted at least once,
//! and its counts sum to the total; anything else leaves it unlisted. A
//! trusted list is an answer the endpoint gave, cached like an `ASK`: it
//! counts an unfiltered `?a <p> ?b` (two distinct variables) or
//! `?a rdf:type <C>` without a request, and a pattern whose constant
//! predicate (or class) it lacks is not asked there at all.
//! [`select_sources`] is the per-pattern `ASK` path: the FedX baseline's
//! source selection, and the reference the tests hold the probe's source
//! lists against.

use crate::cache::{pattern_key, QueryCache};
use crate::error::EngineError;
use crate::normalize::ConjBranch;
use crate::run::RunContext;
use crate::sape::estimate::{count_select, pushable_filters, TpCounts};
use lusail_federation::{
    Deadline, EndpointError, EndpointId, FailureKind, Federation, RequestHandler,
};
use lusail_rdf::fxhash::FxHashMap;
use lusail_rdf::{vocab, Term};
use lusail_sparql::ast::{
    AggFunc, AggSpec, Expression, GraphPattern, Projection, Query, SelectQuery, TermPattern,
    TriplePattern, Variable,
};
use lusail_sparql::parser::PARSE_LIMITS;
use lusail_sparql::serializer::serialize_query;
use lusail_sparql::{Relation, Row};
use std::sync::Arc;

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

/// Most terms a vocabulary list is trusted with. Each list is asked for one
/// more, so a longer one reads as cut, and is unlisted.
pub(crate) const VOCABULARY_ROWS: usize = 1024;

/// What an endpoint listed of its own data on its first probe request:
/// each predicate and `rdf:type` class with the endpoint's count of its
/// triples. A list is kept only when its terms are distinct, every count is
/// at least 1, and the counts sum to the endpoint's own `COUNT(*)` of the
/// listed pattern in the same answer; a silent cap (a cut list sums short),
/// a duplicate, a zero, a malformed row or more than [`VOCABULARY_ROWS`]
/// terms leaves it `None` — unlisted — and an unlisted list answers
/// nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Vocabulary {
    pub predicates: Option<FxHashMap<Term, usize>>,
    pub classes: Option<FxHashMap<Term, usize>>,
}

impl Vocabulary {
    /// The endpoint's `COUNT(*)` of `tp` (under pushed filters when
    /// `filtered`), where its lists tell it: `Some(0)` when the pattern's
    /// constant predicate is not listed or, for `rdf:type`, its constant
    /// class is not; the listed count of an unfiltered `?a <p> ?b` (two
    /// distinct variables) or `?a rdf:type <C>`; `None` otherwise. Only
    /// IRIs are looked up: they are the terms every results codec carries
    /// unchanged.
    fn count<'a>(&self, tp: &'a TriplePattern, filtered: bool) -> Option<usize> {
        let iri = |slot: &'a TermPattern| slot.as_term().filter(|t| t.is_iri());
        let listed = |list: &Option<FxHashMap<Term, usize>>, t: &Term| {
            Some(list.as_ref()?.get(t).copied().unwrap_or(0))
        };
        let predicate = iri(&tp.predicate)?;
        let class = iri(&tp.object).filter(|_| predicate.as_iri() == Some(vocab::rdf::TYPE));
        let by_predicate = listed(&self.predicates, predicate);
        let by_class = class.and_then(|c| listed(&self.classes, c));
        if by_predicate == Some(0) || by_class == Some(0) {
            return Some(0);
        }
        match (filtered, tp.subject.as_var(), tp.object.as_var()) {
            (false, Some(_), None) => by_class,
            (false, Some(s), Some(o)) if s != o => by_predicate,
            _ => None,
        }
    }
}

/// The vocabulary arm's two lists: each one's term variable, the variable
/// of its per-term count, the variable of the endpoint's total in the
/// counts row, and the pattern it lists from. None of the names can be a
/// count arm's `?c<j>`.
fn vocabulary_lists() -> [(Variable, Variable, Variable, TriplePattern); 2] {
    let (s, o) = (TermPattern::var("s"), TermPattern::var("o"));
    let predicates = TriplePattern::new(s.clone(), TermPattern::var("p"), o);
    let classes = TriplePattern::new(s, TermPattern::iri(vocab::rdf::TYPE), TermPattern::var("t"));
    let var = Variable::new;
    [
        (var("p"), var("n"), var("np"), predicates),
        (var("t"), var("m"), var("nt"), classes),
    ]
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

/// The probe for one endpoint: one `COUNT` subselect per arm. With `lists`
/// the counts row also holds the endpoint's `COUNT(*)` of `?s ?p ?o` and of
/// `?s rdf:type ?t`, and a `UNION` arm after it lists each predicate and
/// class with its own count: `{ <counts> } UNION { { SELECT DISTINCT ?p
/// (COUNT(*) AS ?n) … GROUP BY ?p } UNION { … GROUP BY ?t } }`. The
/// `DISTINCT` changes no grouped answer; it marks each arm as a list of
/// distinct terms to whatever reads the request.
fn probe_query(arms: &[&Arm], lists: bool) -> Query {
    let sub = |q: SelectQuery| GraphPattern::SubSelect(Box::new(q));
    let join = |a, b| GraphPattern::Join(Box::new(a), Box::new(b));
    let union = |a, b| GraphPattern::Union(Box::new(a), Box::new(b));
    let arm = |(j, a): (usize, &&Arm)| sub(count_select(a.tp, a.filters, count_var(j, a.tp)));
    let mut counts: Vec<GraphPattern> = arms.iter().enumerate().map(arm).collect();
    let mut listed = Vec::new();
    if lists {
        for (list, count, total, tp) in vocabulary_lists() {
            counts.push(sub(count_select(&tp, &[], total)));
            let projection = Projection::Aggregate {
                keys: vec![list.clone()],
                aggs: vec![AggSpec {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                    as_var: count,
                }],
            };
            listed.push(sub(SelectQuery {
                distinct: true,
                group_by: vec![list],
                limit: Some(VOCABULARY_ROWS + 1),
                ..SelectQuery::new(projection, GraphPattern::Bgp(vec![tp]))
            }));
        }
    }
    let counts = counts.into_iter().reduce(join);
    let body = match listed.into_iter().reduce(union) {
        Some(listed) => counts.map(|c| union(c, listed)),
        None => counts,
    };
    Query::select(SelectQuery::new(
        Projection::All,
        body.unwrap_or_else(GraphPattern::empty),
    ))
}

/// Read a probe answer: exactly one row with a non-negative integer under
/// every arm's variable. Anything else is the endpoint failing (transport
/// class, so `--partial` may skip it), never "no matches": a source must
/// not drop out because an answer was mangled.
///
/// With `lists`, the rows that bind no arm's variable are the vocabulary
/// lists; each binds one list's term and its count. A list is trusted only
/// when its terms are distinct (predicates IRIs), at most
/// [`VOCABULARY_ROWS`], each counted by an integer of at least 1, and the
/// counts sum to the total the counts row gave for it. Any other row
/// unlists both.
fn read_answer(
    name: &str,
    arms: &[&Arm],
    lists: bool,
    rel: &Relation,
) -> Result<(Vec<usize>, Option<Vocabulary>), EndpointError> {
    let malformed = |why: String| {
        EndpointError::transport(name, format!("malformed analysis probe answer: {why}"))
    };
    let cell = |row: &'_ Row, var: &Variable| rel.index_of(var).and_then(|i| row[i].clone());
    let integer = |t: Term| usize::try_from(t.as_literal()?.as_i64()?).ok();
    let vars: Vec<Variable> = (arms.iter().enumerate())
        .map(|(j, a)| count_var(j, a.tp))
        .collect();
    let (counted, listed): (Vec<&Row>, Vec<&Row>) =
        (rel.rows().iter()).partition(|row| !lists || vars.iter().any(|v| cell(row, v).is_some()));
    let [row] = counted[..] else {
        return Err(malformed(format!("{} rows instead of 1", counted.len())));
    };
    let count = |var: &Variable| {
        (cell(row, var).and_then(integer)).ok_or_else(|| malformed(format!("no count under {var}")))
    };
    let counts = vars.iter().map(count).collect::<Result<_, _>>()?;
    if !lists {
        return Ok((counts, None));
    }

    // Each list's terms and counts, dropped at its first broken row; no
    // more terms are kept than a trusted list holds.
    let vocabulary = vocabulary_lists();
    let mut lists = [Some(FxHashMap::default()), Some(FxHashMap::default())];
    let mut sound = true;
    for r in listed {
        let mut bound = (0..2).filter_map(|i| Some((i, cell(r, &vocabulary[i].0)?)));
        match (bound.next(), bound.next()) {
            (Some((i, t)), None) if i == 1 || t.is_iri() => {
                let n = cell(r, &vocabulary[i].1).and_then(integer);
                let kept = match (&mut lists[i], n) {
                    (Some(list), Some(n @ 1..)) if list.len() < VOCABULARY_ROWS => {
                        list.insert(t, n).is_none()
                    }
                    _ => false,
                };
                if !kept {
                    lists[i] = None;
                }
            }
            _ => sound = false,
        }
    }
    let mut verified = (lists.into_iter().zip(&vocabulary)).map(|(list, (.., total, _))| {
        let total = cell(row, total).and_then(integer);
        let sum =
            |l: &FxHashMap<Term, usize>| l.values().try_fold(0, |a: usize, &n| a.checked_add(n));
        list.filter(|l| sound && total.is_some() && sum(l) == total)
    });
    let vocabulary = Vocabulary {
        predicates: verified.next().flatten(),
        classes: verified.next().flatten(),
    };
    Ok((counts, Some(vocabulary)))
}

/// Source selection and `COUNT` statistics for a whole query in one round
/// trip: one request per endpoint that has anything left to tell (more for
/// a branch too wide for one request to parse).
///
/// Every pattern of `branches` (required, `OPTIONAL` and `MINUS` blocks) is
/// resolved against `cache` (source lists and counts) first. A pattern
/// with no cached source list is wanted at every endpoint — its unfiltered
/// count is the `ASK`, the count under the block's pushable filters rides
/// along — and one with sources but a missing count at just the endpoints
/// that miss it. An endpoint's cached [`Vocabulary`] answers what it can
/// count ([`Vocabulary::count`]): 0 for a pattern whose constant predicate
/// or class it did not list, the listed count of an unfiltered `?a <p> ?b`
/// or `?a rdf:type <C>`. The rest is asked, and an endpoint left with
/// nothing to ask gets no request. When some pattern has no cached
/// sources, every endpoint asked whose vocabulary is not cached lists it on
/// its first request, where that fits its request limit; a listing request
/// it does not answer whole is asked again bare. Both caches are filled
/// under the keys the per-pattern requests used, so the result equals
/// [`select_sources`] plus one
/// [`count_query`](crate::sape::estimate::count_query) per pattern and
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

    // What each arm must learn, at which endpoints: a pattern with no
    // cached sources everywhere, a costed one just where its count is not
    // cached.
    let mut wanted: Vec<(usize, EndpointId)> = Vec::new();
    for k in 0..arms.len() {
        match arms[arms[k].base].sources.clone() {
            None => wanted.extend(federation.ids().map(|ep| (k, ep))),
            Some(sources) if arms[k].counted => {
                for ep in sources {
                    match cache.and_then(|c| c.get_count(&arms[k].count_key, ep)) {
                        Some(n) => {
                            arms[k].counts.insert(ep, n);
                        }
                        None => wanted.push((k, ep)),
                    }
                }
            }
            Some(_) => {}
        }
    }
    // An endpoint's cached vocabulary counts what it can, and the rest is
    // asked. `learned[ep]` are the arms whose counts there are new.
    let unresolved = arms.iter().any(|a| arms[a.base].sources.is_none());
    let vocabularies: Vec<Option<Arc<Vocabulary>>> = match cache {
        Some(c) if !wanted.is_empty() => federation.ids().map(|ep| c.get_vocabulary(ep)).collect(),
        _ => vec![None; federation.len()],
    };
    let mut learned: Vec<Vec<usize>> = vec![Vec::new(); federation.len()];
    let mut asks: Vec<Vec<usize>> = vec![Vec::new(); federation.len()];
    for (k, ep) in wanted {
        let filtered = arms[k].base != k;
        let listed = vocabularies[ep].as_deref();
        match listed.and_then(|v| v.count(arms[k].tp, filtered)) {
            Some(n) => {
                arms[k].counts.insert(ep, n);
                learned[ep].push(k);
            }
            None => asks[ep].push(k),
        }
    }
    // Under a cache, while some pattern has no cached sources, an endpoint
    // asked anything whose vocabulary is not cached lists it on its first
    // request.
    let lists: Vec<bool> = (0..asks.len())
        .map(|ep| unresolved && cache.is_some() && vocabularies[ep].is_none())
        .collect();
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
    let ask = |(ep, at): (EndpointId, usize), deadline: Deadline| {
        let endpoint = federation.endpoint(ep);
        let of_ep: Vec<&Arm> = (asks[ep].iter().skip(at).take(per_request))
            .map(|&k| &arms[k])
            .collect();
        // The lists ride only where they fit: past the endpoint's request
        // limit the probe goes without them, and the next one asks again.
        let fits = |q: &Query| {
            let max = endpoint.max_request_bytes();
            max.is_none_or(|max| serialize_query(q).len() <= max)
        };
        let listing = (lists[ep] && at == 0).then(|| probe_query(&of_ep, true));
        let mut unlisted = None;
        if let Some(listing) = listing.filter(fits) {
            let answer = (endpoint.select_within(&listing, deadline.clone()))
                .and_then(|rel| read_answer(endpoint.name(), &of_ep, true, &rel));
            // The lists are optional, the counts are not: a listing request
            // the endpoint does not answer (a result-row cap, a request it
            // refuses, its own timeout, an answer without its counts row) is
            // asked again bare, and the vocabulary cached unlisted so it is
            // not asked for again. Only the query's own deadline ends it.
            match answer {
                Err(e) if matches!(e.kind, FailureKind::Deadline | FailureKind::Cancelled) => {
                    return Err(e);
                }
                Err(_) => unlisted = Some(Vocabulary::default()),
                answered => return answered,
            }
        }
        let rel = endpoint.select_within(&probe_query(&of_ep, false), deadline)?;
        let (counts, _) = read_answer(endpoint.name(), &of_ep, false, &rel)?;
        Ok((counts, unlisted))
    };
    let answers = ctx.dispatch(handler, "analysis probe", requests.clone(), ask)?;
    // An endpoint's counts, in the order it was asked; `None` once any of
    // its requests was skipped. A vocabulary is its own answer's, and
    // cached whatever became of the endpoint's other requests.
    let mut answered: Vec<Option<Vec<usize>>> = vec![Some(Vec::new()); asks.len()];
    for ((ep, _), answer) in requests.into_iter().zip(answers) {
        let none = (Vec::new(), None);
        let ((counts, listed), skipped) = ctx.absorb_flagged("analysis probe", none, answer)?;
        if let (Some(c), Some(listed)) = (cache, listed) {
            c.put_vocabulary(ep, Arc::new(listed));
        }
        match &mut answered[ep] {
            Some(all) if !skipped => all.extend(counts),
            slot => *slot = None,
        }
    }
    let mut degraded = false;
    for (ep, counts) in answered.into_iter().enumerate() {
        let Some(counts) = counts else {
            // Nothing asked is learned: those counts read as 0, and no
            // source list is cached.
            degraded = true;
            continue;
        };
        for (&k, n) in asks[ep].iter().zip(counts) {
            arms[k].counts.insert(ep, n);
        }
        learned[ep].extend(&asks[ep]);
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
        for (ep, ks) in learned.iter().enumerate() {
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
    use lusail_rdf::{Graph, Literal, Term};
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

    /// Sets the count cell of an answer's first list row (`?p` of
    /// `http://x/p` on ep2) to `n`.
    fn first_listed_count(rel: &mut Relation, n: Option<Term>) {
        let count = rel.index_of(&Variable::new("n")).unwrap();
        rel.rows_mut()[1][count] = n;
    }

    #[test]
    fn a_list_that_disagrees_with_its_count_is_unlisted_and_prunes_nothing() {
        // Each touches only an answer carrying lists (more than one row):
        // ep2's, whose rows are its counts row, `p` once and `q` once.
        let manglings: [fn(&mut Relation); 9] = [
            // cut: the last list row is gone
            |rel| {
                if rel.len() > 1 {
                    rel.rows_mut().pop();
                }
            },
            // a duplicate list row
            |rel| {
                if let Some(last) = rel.rows().get(1).cloned() {
                    rel.push(last);
                }
            },
            // a total that claims more than was listed
            |rel| {
                if rel.len() > 1 {
                    let np = rel.index_of(&Variable::new("np")).unwrap();
                    rel.rows_mut()[0][np] = Some(Term::integer(3));
                }
            },
            // a literal where a predicate belongs
            |rel| {
                if rel.len() > 1 {
                    let p = rel.index_of(&Variable::new("p")).unwrap();
                    rel.rows_mut()[1][p] = Some(Term::literal("http://x/p"));
                }
            },
            // a row that is neither list
            |rel| {
                if rel.len() > 1 {
                    let width = rel.vars().len();
                    rel.push(vec![None; width]);
                }
            },
            // one count changed, so the counts sum past the total
            |rel| {
                if rel.len() > 1 {
                    first_listed_count(rel, Some(Term::integer(2)));
                }
            },
            // a count of 0, the sum kept by the next term's count
            |rel| {
                if rel.len() > 1 {
                    first_listed_count(rel, Some(Term::integer(0)));
                    let count = rel.index_of(&Variable::new("n")).unwrap();
                    rel.rows_mut()[2][count] = Some(Term::integer(2));
                }
            },
            // a count that is no integer
            |rel| {
                if rel.len() > 1 {
                    first_listed_count(rel, Some(Term::Literal(Literal::double(1.5))));
                }
            },
            // a dropped count cell
            |rel| {
                if rel.len() > 1 {
                    first_listed_count(rel, None);
                }
            },
        ];
        for (m, mangle) in manglings.into_iter().enumerate() {
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
            let ctx = RunContext::unbounded();
            let cache = QueryCache::new();
            let p = branch(vec![tp("?s", "http://x/p", "?o")]);
            let stats = probe(&fed, &handler, Some(&cache), &p, &ctx).unwrap();
            assert_eq!(stats[0].required.sources, [[0, 2]], "mangling {m}");
            let vocabulary = |ep| cache.get_vocabulary(ep).unwrap();
            assert_eq!(vocabulary(2).predicates, None, "mangling {m}");
            let listed = vocabulary(1).predicates.clone().unwrap();
            assert_eq!(
                listed.into_iter().collect::<Vec<_>>(),
                [(Term::iri("http://x/q"), 1)]
            );

            // ep0 listed no `q` and ep1 counted it: both are spared. ep2
            // listed nothing it can be held to and is asked.
            let sent: Vec<u64> = fed
                .ids()
                .map(|ep| fed.endpoint(ep).traffic().requests)
                .collect();
            let q = branch(vec![tp("?s", "http://x/q", "?o")]);
            let stats = probe(&fed, &handler, Some(&cache), &q, &ctx).unwrap();
            assert_eq!(stats[0].required.sources, [[1, 2]], "mangling {m}");
            assert_eq!(stats[0].required.counts[0][&2], 1, "mangling {m}");
            let asked: Vec<u64> = fed
                .ids()
                .map(|ep| fed.endpoint(ep).traffic().requests - sent[ep])
                .collect();
            assert_eq!(asked, [0, 0, 1], "mangling {m}");
        }
    }

    #[test]
    fn a_listed_vocabulary_answers_an_unfiltered_pattern_without_a_request() {
        let fed = fed();
        let handler = RequestHandler::new(4);
        let ctx = RunContext::unbounded();
        let cache = QueryCache::new();
        let p = branch(vec![tp("?s", "http://x/p", "?o")]);
        probe(&fed, &handler, Some(&cache), &p, &ctx).unwrap();
        let before = fed.total_traffic().requests;

        let q = tp("?x", "http://x/q", "?y");
        let stats = probe(&fed, &handler, Some(&cache), &branch(vec![q.clone()]), &ctx).unwrap();
        assert_eq!(
            fed.total_traffic().requests,
            before,
            "counted from the lists"
        );
        // One ASK per endpoint, then one COUNT per source.
        let oracle = self::fed();
        let sources = select_sources(&oracle, &handler, None, &[q.clone()], &ctx).unwrap();
        let count = |&ep: &EndpointId| {
            let rel = (oracle.endpoint(ep))
                .select(&crate::sape::estimate::count_query(&q, &[]))
                .unwrap();
            let n = rel.rows()[0][0]
                .as_ref()
                .and_then(|t| t.as_literal()?.as_i64());
            (ep, n.unwrap() as usize)
        };
        let counts = vec![sources[0].iter().map(count).collect()];
        let reference = BlockStats { sources, counts };
        assert_eq!(stats[0].required, reference);
        // Cached under the keys the requests would have used: sources and
        // counts of `p` and `q`, each at its two sources.
        assert_eq!(cache.sizes(), (2, 0, 4));
    }

    #[test]
    fn lists_that_would_pass_the_request_limit_stay_home() {
        let make = |max: Option<usize>| {
            let mut g = Graph::new();
            g.add(
                Term::iri("http://x/a"),
                Term::iri("http://x/p"),
                Term::iri("http://x/b"),
            );
            let limits = lusail_federation::EndpointLimits {
                max_request_bytes: max,
                max_result_rows: None,
            };
            let ep = SimulatedEndpoint::new("ep", Store::from_graph(&g), NetworkProfile::instant());
            Federation::new(vec![
                Arc::new(ep.with_limits(limits)) as Arc<dyn SparqlEndpoint>
            ])
        };
        let handler = RequestHandler::new(4);
        let ctx = RunContext::unbounded();
        let branches = branch(vec![tp("?s", "http://x/p", "?o")]);
        let sent = |fed: &Federation| fed.total_traffic().bytes_sent as usize;

        // The probe alone fits a limit its lists would break.
        let bare = make(None);
        probe(&bare, &handler, None, &branches, &ctx).unwrap();
        let listing = make(None);
        probe(
            &listing,
            &handler,
            Some(&QueryCache::new()),
            &branches,
            &ctx,
        )
        .unwrap();
        assert!(sent(&bare) < sent(&listing));

        let fed = make(Some(sent(&bare)));
        let cache = QueryCache::new();
        let stats = probe(&fed, &handler, Some(&cache), &branches, &ctx).unwrap();
        assert_eq!(stats[0].required.sources, [[0]]);
        assert_eq!((fed.total_traffic().requests, sent(&fed)), (1, sent(&bare)));
        assert_eq!(
            cache.get_vocabulary(0),
            None,
            "nothing listed, nothing cached"
        );
    }

    #[test]
    fn a_list_longer_than_the_limit_is_unlisted() {
        for (predicates, listed) in [(VOCABULARY_ROWS, true), (VOCABULARY_ROWS + 1, false)] {
            let mut g = Graph::new();
            for i in 0..predicates {
                g.add(
                    Term::iri("http://x/s"),
                    Term::iri(format!("http://x/p{i}")),
                    Term::integer(0),
                );
            }
            let ep = SimulatedEndpoint::new("ep", Store::from_graph(&g), NetworkProfile::instant());
            let fed = Federation::new(vec![Arc::new(ep) as Arc<dyn SparqlEndpoint>]);
            let cache = QueryCache::new();
            let branches = branch(vec![tp("?s", "http://x/p0", "?o")]);
            let ctx = RunContext::unbounded();
            probe(&fed, &RequestHandler::new(1), Some(&cache), &branches, &ctx).unwrap();
            let vocabulary = cache.get_vocabulary(0).unwrap();
            let lengths = vocabulary.predicates.as_ref().map(|l| l.len());
            assert_eq!(
                lengths,
                listed.then_some(predicates),
                "{predicates} predicates"
            );
            assert_eq!(vocabulary.classes.as_ref().map(|l| l.len()), Some(0));
        }
    }
}
