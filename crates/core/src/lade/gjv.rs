//! Global join variable detection — Algorithm 1 of the paper.

use crate::cache::{pattern_key, QueryCache};
use crate::error::EngineError;
use crate::run::RunContext;
use lusail_federation::{EndpointId, Federation, RequestHandler};
use lusail_rdf::fxhash::FxHashSet;
use lusail_rdf::vocab;
use lusail_sparql::ast::{
    GraphPattern, Projection, Query, SelectQuery, TermPattern, TriplePattern, Variable,
};

/// The result of GJV analysis for one conjunctive branch.
#[derive(Debug, Clone, Default)]
pub struct GjvAnalysis {
    /// The global join variables, in detection order.
    pub gjvs: Vec<Variable>,
    /// How many check queries were actually sent (cache misses).
    pub check_queries_sent: usize,
    /// How many check answers came from the cache.
    pub check_cache_hits: usize,
}

impl GjvAnalysis {
    /// Is `v` global?
    pub fn is_gjv(&self, v: &Variable) -> bool {
        self.gjvs.contains(v)
    }
}

/// Is this pattern an `rdf:type` pattern with constant class — `⟨?v, rdf:type, C⟩`?
///
/// Type patterns are not themselves checked for locality; instead they are
/// *used by* the check queries to narrow the candidate instances
/// (Figure 5: "If there is a triple pattern setting a type for v, we use it
/// to limit the check"), and the decomposition attaches them to a subquery
/// that binds their variable.
pub fn is_type_pattern(tp: &TriplePattern) -> bool {
    matches!(&tp.predicate, TermPattern::Term(t) if t.as_iri() == Some(vocab::rdf::TYPE))
        && tp.subject.is_var()
        && !tp.object.is_var()
}

/// Detect the global join variables of a conjunction (Algorithm 1).
///
/// `patterns` are the branch's required triple patterns and `sources[i]`
/// the relevant endpoints of `patterns[i]` (from source selection).
pub fn detect_gjvs(
    federation: &Federation,
    handler: &RequestHandler,
    cache: Option<&QueryCache>,
    patterns: &[TriplePattern],
    sources: &[Vec<EndpointId>],
    ctx: &RunContext,
) -> Result<GjvAnalysis, EngineError> {
    detect_gjvs_with(federation, handler, cache, patterns, sources, false, ctx)
}

/// [`detect_gjvs`] with the paranoid-locality switch (see
/// `LusailConfig::paranoid_locality`): when `paranoid` is set, any join
/// variable whose patterns are relevant to more than one endpoint is
/// declared global without instance checks.
///
/// Check queries respect `ctx`: under the partial policy an unanswerable
/// check conservatively declares the variable global (sound by Lemma 2)
/// with a warning, and its outcome is not cached.
#[allow(clippy::too_many_arguments)]
pub fn detect_gjvs_with(
    federation: &Federation,
    handler: &RequestHandler,
    cache: Option<&QueryCache>,
    patterns: &[TriplePattern],
    sources: &[Vec<EndpointId>],
    paranoid: bool,
    ctx: &RunContext,
) -> Result<GjvAnalysis, EngineError> {
    let mut analysis = GjvAnalysis::default();
    let type_of = type_patterns_by_var(patterns);

    // Variables appearing in predicate position join in a way our locality
    // checks cannot certify; conservatively global (Lemma 2 keeps this
    // correct).
    let mut pred_vars: FxHashSet<&Variable> = FxHashSet::default();
    for tp in patterns {
        if let TermPattern::Var(v) = &tp.predicate {
            pred_vars.insert(v);
        }
    }

    // Join entities: variables in ≥ 2 non-type patterns (subject/object
    // slots).
    let vars = join_variables(patterns);

    // The check-query batch is assembled across all variables, then sent in
    // one parallel wave through the ERH.
    struct PendingCheck {
        var: Variable,
        query: Query,
        key: String,
        ep: EndpointId,
    }
    let mut pending: Vec<PendingCheck> = Vec::new();

    'vars: for var in vars {
        if pred_vars.contains(&var) {
            analysis.gjvs.push(var.clone());
            continue;
        }
        let occ: Vec<usize> = occurrences(patterns, &var);

        // Line 8–11: differing source sets make the variable global with no
        // endpoint communication at all. In paranoid mode, any
        // multi-endpoint pair does too (instances may repeat across
        // endpoints — §3.3 Case 2).
        for (a, &i) in occ.iter().enumerate() {
            for &j in &occ[a + 1..] {
                if sources[i] != sources[j] || (paranoid && sources[i].len() > 1) {
                    analysis.gjvs.push(var.clone());
                    continue 'vars;
                }
            }
        }

        // Lines 13–16: formulate instance checks.
        let subj_occ: Vec<usize> = occ
            .iter()
            .copied()
            .filter(|&i| patterns[i].subject_is(&var))
            .collect();
        let obj_occ: Vec<usize> = occ
            .iter()
            .copied()
            .filter(|&i| patterns[i].object_is(&var))
            .collect();

        let mut checks: Vec<(usize, usize)> = Vec::new();
        if subj_occ.len() >= 2 {
            // subject-only pairs: both directions.
            for (a, &i) in subj_occ.iter().enumerate() {
                for &j in &subj_occ[a + 1..] {
                    checks.push((i, j));
                    checks.push((j, i));
                }
            }
        }
        if obj_occ.len() >= 2 {
            for (a, &i) in obj_occ.iter().enumerate() {
                for &j in &obj_occ[a + 1..] {
                    checks.push((i, j));
                    checks.push((j, i));
                }
            }
        }
        // object × subject: one direction — does every instance bound as
        // *object* in tp_i appear locally as *subject* in tp_j?
        for &i in &obj_occ {
            for &j in &subj_occ {
                if i != j {
                    checks.push((i, j));
                }
            }
        }

        let type_tp = type_of
            .iter()
            .find(|(v, _)| v == &var)
            .map(|(_, idx)| &patterns[*idx]);
        for (i, j) in checks {
            let query = check_query(&var, &patterns[i], &patterns[j], type_tp);
            let key = check_key(&var, &patterns[i], &patterns[j]);
            for &ep in &sources[i] {
                pending.push(PendingCheck {
                    var: var.clone(),
                    query: query.clone(),
                    key: key.clone(),
                    ep,
                });
            }
        }
    }

    // Resolve from cache, then send the misses in parallel.
    let mut to_send: Vec<usize> = Vec::new();
    let mut hits: Vec<(Variable, bool)> = Vec::new();
    for (idx, p) in pending.iter().enumerate() {
        match cache.and_then(|c| c.get_check(&p.key, p.ep)) {
            Some(nonempty) => {
                analysis.check_cache_hits += 1;
                hits.push((p.var.clone(), nonempty));
            }
            None => to_send.push(idx),
        }
    }
    analysis.check_queries_sent = to_send.len();
    let check = |idx: usize, deadline| {
        let p = &pending[idx];
        let rows = federation.endpoint(p.ep).select_within(&p.query, deadline);
        rows.map(|rel| !rel.is_empty())
    };
    let answers = ctx.dispatch(handler, "locality check", to_send.clone(), check)?;
    for (idx, nonempty) in to_send.into_iter().zip(answers) {
        let p = &pending[idx];
        // An unanswerable check conservatively reports "instances escape
        // locality" → the variable becomes global, which is always sound.
        let what = format!("locality check for ?{}", p.var.name());
        let (nonempty, degraded) = ctx.absorb_flagged(&what, true, nonempty)?;
        if let Some(c) = cache {
            if !degraded {
                c.put_check(p.key.clone(), p.ep, nonempty);
            }
        }
        hits.push((p.var.clone(), nonempty));
    }
    for (var, nonempty) in hits {
        if nonempty && !analysis.gjvs.contains(&var) {
            analysis.gjvs.push(var);
        }
    }
    Ok(analysis)
}

/// `⟨?v, rdf:type, C⟩` patterns indexed by variable.
fn type_patterns_by_var(patterns: &[TriplePattern]) -> Vec<(Variable, usize)> {
    patterns
        .iter()
        .enumerate()
        .filter(|(_, tp)| is_type_pattern(tp))
        .filter_map(|(i, tp)| tp.subject.as_var().map(|v| (v.clone(), i)))
        .collect()
}

/// Variables occurring (as subject or object) in at least two non-type
/// patterns.
fn join_variables(patterns: &[TriplePattern]) -> Vec<Variable> {
    let mut seen: Vec<(Variable, usize)> = Vec::new();
    for tp in patterns.iter().filter(|tp| !is_type_pattern(tp)) {
        for slot in [&tp.subject, &tp.object] {
            if let TermPattern::Var(v) = slot {
                match seen.iter_mut().find(|(x, _)| x == v) {
                    Some((_, n)) => *n += 1,
                    None => seen.push((v.clone(), 1)),
                }
            }
        }
        // A variable used twice within one pattern still counts once per
        // pattern for join purposes; correct the double count.
        if tp.subject.as_var().is_some() && tp.subject == tp.object {
            if let Some((_, n)) = seen
                .iter_mut()
                .find(|(x, _)| Some(x) == tp.subject.as_var())
            {
                *n -= 1;
            }
        }
    }
    seen.into_iter()
        .filter(|(_, n)| *n >= 2)
        .map(|(v, _)| v)
        .collect()
}

fn occurrences(patterns: &[TriplePattern], v: &Variable) -> Vec<usize> {
    patterns
        .iter()
        .enumerate()
        .filter(|(_, tp)| !is_type_pattern(tp) && (tp.subject_is(v) || tp.object_is(v)))
        .map(|(i, _)| i)
        .collect()
}

/// Build the Figure 5 check query testing whether some binding of `v` from
/// `tp_from` has no local counterpart in `tp_to`:
///
/// ```sparql
/// SELECT ?v WHERE {
///   [ ?v rdf:type T . ]             # when a type pattern narrows v
///   <tp_from> .
///   FILTER NOT EXISTS { SELECT ?v WHERE { <tp_to>' . } }
/// } LIMIT 1
/// ```
///
/// Variables of `tp_to` other than `v` are renamed fresh so the inner
/// pattern correlates on `v` alone (set difference, not a wider join).
pub fn check_query(
    v: &Variable,
    tp_from: &TriplePattern,
    tp_to: &TriplePattern,
    type_tp: Option<&TriplePattern>,
) -> Query {
    let mut outer = Vec::new();
    if let Some(t) = type_tp {
        outer.push(t.clone());
    }
    outer.push(tp_from.clone());

    let inner_tp = rename_other_vars(tp_to, v);
    let inner = SelectQuery::new(
        Projection::Vars(vec![v.clone()]),
        GraphPattern::Bgp(vec![inner_tp]),
    );
    let pattern = GraphPattern::Filter(
        Box::new(GraphPattern::Bgp(outer)),
        lusail_sparql::ast::Expression::NotExists(Box::new(GraphPattern::SubSelect(Box::new(
            inner,
        )))),
    );
    let mut select = SelectQuery::new(Projection::Vars(vec![v.clone()]), pattern);
    select.limit = Some(1);
    Query::select(select)
}

fn rename_other_vars(tp: &TriplePattern, keep: &Variable) -> TriplePattern {
    let mut n = 0;
    let mut rename = |slot: &TermPattern| -> TermPattern {
        match slot {
            TermPattern::Var(v) if v != keep => {
                n += 1;
                TermPattern::var(format!("lusail_f{n}"))
            }
            other => other.clone(),
        }
    };
    TriplePattern::new(
        rename(&tp.subject),
        rename(&tp.predicate),
        rename(&tp.object),
    )
}

/// Cache key for one check (direction-sensitive).
fn check_key(v: &Variable, tp_from: &TriplePattern, tp_to: &TriplePattern) -> String {
    format!(
        "{}|{}|{}",
        v.name(),
        pattern_key(tp_from),
        pattern_key(tp_to)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_sparql::parse_query;

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

    #[test]
    fn type_pattern_detection() {
        assert!(is_type_pattern(&tp("?x", vocab::rdf::TYPE, "http://c/T")));
        assert!(!is_type_pattern(&tp("?x", "http://p", "http://c/T")));
        assert!(!is_type_pattern(&tp("?x", vocab::rdf::TYPE, "?t")));
    }

    #[test]
    fn join_variable_extraction() {
        let pats = [
            tp("?s", "http://a", "?p"),
            tp("?p", "http://b", "?c"),
            tp("?s", "http://c", "?c"),
            tp("?s", vocab::rdf::TYPE, "http://T"),
            tp("?lonely", "http://d", "?x"),
        ];
        let vars = join_variables(&pats);
        assert!(vars.contains(&Variable::new("s")));
        assert!(vars.contains(&Variable::new("p")));
        assert!(vars.contains(&Variable::new("c")));
        assert!(!vars.contains(&Variable::new("lonely")));
        assert!(!vars.contains(&Variable::new("x")));
    }

    #[test]
    fn check_query_matches_figure5_shape() {
        let q = check_query(
            &Variable::new("P"),
            &tp("?S", "http://x/advisor", "?P"),
            &tp("?P", "http://x/teacherOf", "?C"),
            Some(&tp("?P", vocab::rdf::TYPE, "http://x/Prof")),
        );
        let text = lusail_sparql::serializer::serialize_query(&q);
        assert!(text.contains("FILTER NOT EXISTS"), "{text}");
        assert!(text.contains("LIMIT 1"), "{text}");
        assert!(text.contains("http://x/Prof"), "{text}");
        // Inner variables are renamed; ?C must not leak.
        assert!(!text.contains("?C"), "{text}");
        // And it must re-parse at the endpoint.
        parse_query(&text).unwrap();
    }

    #[test]
    fn check_key_is_direction_sensitive() {
        let a = tp("?x", "http://p", "?v");
        let b = tp("?v", "http://q", "?y");
        let v = Variable::new("v");
        assert_ne!(check_key(&v, &a, &b), check_key(&v, &b, &a));
    }
}
