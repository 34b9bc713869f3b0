//! The `serve_mixed` query pool: exactly [`POOL_SIZE`] distinct query
//! texts over one generated LUBM federation.

use crate::draw::shuffle;
use lusail_workloads::lubm::{self, LubmConfig};
use lusail_workloads::prng::SplitMix64;

pub const POOL_SIZE: usize = 600;

/// The constants `lubm::full_queries` writes into its templates.
const UNIV0: &str = "http://univ0.example.org/univ";
const DEPT0: &str = "http://univ0.example.org/dept0";
const COURSE0: &str = "http://univ0.example.org/d0_gcourse0";
const PROF0: &str = "http://univ0.example.org/d0_assoc_prof0";

/// Q1–Q4 plus the single-constant LUBM templates (L1, L3–L5, L7, L8,
/// L10–L13) instantiated over the university, department, graduate
/// course and professor IRIs the generator produces for `cfg`.
///
/// The position in the returned list is the query's popularity rank.
/// Which template sits at which rank does not depend on `seed` — the
/// templates are interleaved evenly, so every stretch of ranks has the
/// same mix and the workload's cost profile is the same for every seed;
/// `seed` picks which entities instantiate each template. Q1–Q4 are the
/// four hottest queries. Templates with the most instantiations give up
/// the surplus beyond [`POOL_SIZE`].
pub fn build(cfg: &LubmConfig, seed: u64) -> Vec<String> {
    let mut univs = Vec::new();
    let mut depts = Vec::new();
    let mut courses = Vec::new();
    let mut profs = Vec::new();
    for u in 0..cfg.universities {
        univs.push(lubm::university_iri(u));
        for d in 0..cfg.departments_per_university {
            depts.push(format!("http://univ{u}.example.org/dept{d}"));
            for c in 0..cfg.grad_courses() {
                courses.push(format!("http://univ{u}.example.org/d{d}_gcourse{c}"));
            }
            for rank in ["full", "assoc", "assist"] {
                for i in 0..cfg.professors() {
                    profs.push(format!("http://univ{u}.example.org/d{d}_{rank}_prof{i}"));
                }
            }
        }
    }

    // One list of instantiations per template, each in seeded order.
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut families: Vec<Vec<String>> =
        lubm::queries().into_iter().map(|q| vec![q.text]).collect();
    for template in lubm::full_queries() {
        let (constant, values) = match template.name {
            "L1" | "L10" => (COURSE0, &courses),
            "L3" | "L7" => (PROF0, &profs),
            "L4" | "L5" => (DEPT0, &depts),
            "L8" | "L11" | "L12" | "L13" => (UNIV0, &univs),
            _ => continue,
        };
        assert!(
            template.text.contains(constant),
            "LUBM template {} no longer mentions {constant}",
            template.name
        );
        let mut texts: Vec<String> = values
            .iter()
            .map(|v| template.text.replace(constant, v))
            .collect();
        shuffle(&mut texts, &mut rng);
        families.push(texts);
    }
    let total: usize = families.iter().map(Vec::len).sum();
    assert!(
        total >= POOL_SIZE,
        "only {total} instantiations for a pool of {POOL_SIZE}"
    );
    for _ in POOL_SIZE..total {
        families
            .iter_mut()
            .max_by_key(|f| f.len())
            .expect("there are templates")
            .pop();
    }

    // Interleave: the i-th of a family's n queries sits at (i + ½) / n;
    // a family of one (Q1–Q4) goes to the head of the list. Those four
    // return tens of kilobytes each: as rare draws they would decide
    // `wire_kb_per_query` by how often chance picked them, as the
    // hottest queries the result cache holds them.
    let mut slots: Vec<(f64, usize, String)> = families
        .into_iter()
        .enumerate()
        .flat_map(|(family, texts)| {
            let n = texts.len() as f64;
            texts.into_iter().enumerate().map(move |(i, text)| {
                let at = if n == 1.0 { 0.0 } else { (i as f64 + 0.5) / n };
                (at, family, text)
            })
        })
        .collect();
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, _, text)| text).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn cfg() -> LubmConfig {
        LubmConfig {
            universities: 4,
            scale: 3.0,
            ..Default::default()
        }
    }

    #[test]
    fn pool_is_600_distinct_parseable_texts_per_seed() {
        let a = build(&cfg(), 1);
        assert_eq!(a.len(), POOL_SIZE);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), POOL_SIZE);
        assert_eq!(a, build(&cfg(), 1));
        assert_ne!(a, build(&cfg(), 2));
        for text in &a {
            lusail_sparql::parse_query(text).expect("pool query parses");
        }
        for (rank, q) in lubm::queries().iter().enumerate() {
            assert_eq!(a[rank], q.text, "{} is the pool's rank {rank}", q.name);
        }
        // The template at each rank is the same for every seed; only the
        // entity differs.
        let templates = |pool: &[String]| -> Vec<String> {
            pool.iter()
                .map(|text| {
                    text.split('<')
                        .map(|piece| match piece.split_once('>') {
                            Some((iri, rest)) if iri.starts_with("http://univ") => rest,
                            _ => piece,
                        })
                        .collect::<Vec<_>>()
                        .join("<")
                })
                .collect()
        };
        assert_eq!(templates(&a), templates(&build(&cfg(), 2)));
    }
}
