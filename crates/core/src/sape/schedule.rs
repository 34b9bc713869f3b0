//! The delayed / non-delayed split (Section 4.1, Figure 7).
//!
//! SAPE delays subqueries expected to return large results (or touching
//! many endpoints) and evaluates them later as bound joins over the
//! bindings already found. The population of cardinalities is cleaned with
//! Chauvenet's criterion before computing μ and σ.
//!
//! One deliberate deviation from the paper's prose: the paper delays on
//! `C(sq) > μ + σ` (strict). With the very small subquery counts real
//! decompositions produce (2–5), the strict inequality can never fire for
//! n = 2 — the larger of two values is exactly μ + σ under a population σ —
//! even though the paper's own LUBM Q3/Q4 walkthrough delays the generic
//! subquery in a 2-subquery decomposition. We therefore use `≥` together
//! with a guard that the most selective subquery is never delayed, which
//! reproduces the paper's described behaviour on its own examples.
//!
//! The guard holds per connected component of shared variables. A delayed
//! subquery is bound on what its component's phase-1 results found; one
//! that shares no variable with anything sent up front can never be
//! bound, and delaying it only sends the same unbound request one round
//! later. So a subgraph joined to the rest through nothing but a
//! `FILTER(?a = ?b)` (LargeRDFBench C5, B6) has its cheapest member in
//! the phase-1 wave.

use crate::config::DelayThreshold;
use crate::sape::stats::{chauvenet_outliers, clean_mean_std};
use crate::subquery::{connected_components, Subquery};

/// The execution schedule for one branch's subqueries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Indices (into the subquery list) evaluated concurrently up front.
    pub non_delayed: Vec<usize>,
    /// Indices evaluated afterwards as bound joins, in no particular order
    /// (the executor re-picks by refined cardinality each round).
    pub delayed: Vec<usize>,
}

/// Classify subqueries given their estimated cardinalities.
pub fn make_schedule(
    subqueries: &[Subquery],
    cardinalities: &[usize],
    threshold: DelayThreshold,
) -> Schedule {
    assert_eq!(subqueries.len(), cardinalities.len());
    let mut schedule = Schedule {
        non_delayed: Vec::new(),
        delayed: Vec::new(),
    };

    if subqueries.len() <= 1 {
        schedule.non_delayed.extend(0..subqueries.len());
        return schedule;
    }

    let cards: Vec<f64> = cardinalities.iter().map(|&c| c as f64).collect();
    let n_eps: Vec<f64> = subqueries
        .iter()
        .map(|sq| sq.sources.len() as f64)
        .collect();
    let (mu_c, sigma_c) = clean_mean_std(&cards);
    let (mu_e, sigma_e) = clean_mean_std(&n_eps);
    let card_outliers = chauvenet_outliers(&cards);
    let ep_outliers = chauvenet_outliers(&n_eps);

    // The smallest cardinality in each subquery's connected component.
    let mut min_card = vec![f64::INFINITY; cards.len()];
    let all: Vec<usize> = (0..subqueries.len()).collect();
    for component in connected_components(&all, subqueries) {
        let min = (component.iter().map(|&i| cards[i])).fold(f64::INFINITY, f64::min);
        for i in component {
            min_card[i] = min;
        }
    }

    for i in 0..subqueries.len() {
        let c = cards[i];
        let e = n_eps[i];
        // Chauvenet-rejected values are "significantly larger than the
        // majority" by construction and are delayed under every threshold
        // (they are excluded from μ/σ precisely so the threshold can catch
        // them).
        let over_card = card_outliers[i]
            || match threshold {
                DelayThreshold::Mu => c >= mu_c,
                DelayThreshold::MuSigma => c >= mu_c + sigma_c,
                DelayThreshold::Mu2Sigma => c >= mu_c + 2.0 * sigma_c,
                DelayThreshold::OutliersOnly => false,
            };
        let over_eps = ep_outliers[i]
            || match threshold {
                DelayThreshold::OutliersOnly => false,
                _ => e >= mu_e + sigma_e && sigma_e > 0.0,
            };
        // Never delay the most selective subquery of a component: phase 2
        // needs seed bindings from somewhere.
        let is_min = c <= min_card[i];
        if (over_card || over_eps) && !is_min {
            schedule.delayed.push(i);
        } else {
            schedule.non_delayed.push(i);
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_sparql::ast::{TermPattern, TriplePattern, Variable};

    fn sq(id: usize, n_sources: usize) -> Subquery {
        sq_over(id, n_sources, "s", "o")
    }

    /// `?s <p{id}> ?o` at `n_sources` endpoints, both variables projected.
    fn sq_over(id: usize, n_sources: usize, s: &str, o: &str) -> Subquery {
        Subquery {
            id,
            patterns: vec![TriplePattern::new(
                TermPattern::var(s),
                TermPattern::iri(format!("http://p{id}")),
                TermPattern::var(o),
            )],
            filters: vec![],
            sources: (0..n_sources).collect(),
            projection: vec![Variable::new(s), Variable::new(o)],
        }
    }

    #[test]
    fn two_subqueries_delay_the_generic_one() {
        // The paper's LUBM Q3 shape: a selective subquery at one endpoint
        // and a generic type subquery at all endpoints.
        let sqs = vec![sq(0, 1), sq(1, 4)];
        let s = make_schedule(&sqs, &[500, 40_000], DelayThreshold::MuSigma);
        assert_eq!(s.non_delayed, vec![0]);
        assert_eq!(s.delayed, vec![1]);
    }

    #[test]
    fn a_component_joined_only_through_a_filter_keeps_its_cheapest_member_up_front() {
        // LargeRDFBench C5 (`?drug … ?w`, `?cpd … ?m`, FILTER(?w = ?m)) and
        // B6 (`?rec … ?d`, `?paper … ?y`, FILTER(?d = ?y)): two subqueries
        // that share no variable. The larger could never be bound on the
        // other's results, so it is not delayed.
        let sqs = vec![sq_over(0, 1, "rec", "d"), sq_over(1, 1, "paper", "y")];
        let s = make_schedule(&sqs, &[60, 150], DelayThreshold::MuSigma);
        assert_eq!((s.non_delayed, s.delayed), (vec![0, 1], vec![]));
        // A third subquery joined to the second on ?paper can be bound on
        // its results, and stays delayed.
        let sqs = vec![
            sq_over(0, 1, "rec", "d"),
            sq_over(1, 1, "paper", "y"),
            sq_over(2, 1, "paper", "t"),
        ];
        let s = make_schedule(&sqs, &[10, 4000, 5000], DelayThreshold::Mu);
        assert_eq!((s.non_delayed, s.delayed), (vec![0, 1], vec![2]));
    }

    #[test]
    fn equal_cardinalities_delay_nothing() {
        let sqs = vec![sq(0, 2), sq(1, 2), sq(2, 2)];
        let s = make_schedule(&sqs, &[100, 100, 100], DelayThreshold::MuSigma);
        assert_eq!(s.delayed, Vec::<usize>::new());
        assert_eq!(s.non_delayed.len(), 3);
    }

    #[test]
    fn mu_threshold_is_most_aggressive() {
        let sqs: Vec<Subquery> = (0..4).map(|i| sq(i, 2)).collect();
        let cards = [10, 200, 300, 400];
        let mu = make_schedule(&sqs, &cards, DelayThreshold::Mu);
        let musig = make_schedule(&sqs, &cards, DelayThreshold::MuSigma);
        let mu2 = make_schedule(&sqs, &cards, DelayThreshold::Mu2Sigma);
        assert!(mu.delayed.len() >= musig.delayed.len());
        assert!(musig.delayed.len() >= mu2.delayed.len());
        // μ delays everything above the mean but keeps the most selective.
        assert!(mu.non_delayed.contains(&0));
    }

    #[test]
    fn outliers_only_delays_true_outliers() {
        let sqs: Vec<Subquery> = (0..6).map(|i| sq(i, 2)).collect();
        let cards = [10, 11, 9, 10, 12, 1_000_000];
        let s = make_schedule(&sqs, &cards, DelayThreshold::OutliersOnly);
        assert_eq!(s.delayed, vec![5]);
    }

    #[test]
    fn three_subqueries_lose_the_outlier_then_delay_the_larger_of_the_rest() {
        // ROADMAP 3(c) (DESIGN.md → Deviations from Algorithm 3). For n = 3
        // the largest |z| is at most √2 and Chauvenet rejects it once
        // 3·erfc(z/√2) < ½, i.e. z > 1.378; μ + σ of the two left is then
        // the larger of them, so `≥` delays it too unless it is its
        // component's minimum. An S6-shaped query at 5 / 29 / 10 rows
        // (z = 1.386) delays the 10-row subquery behind the 29-row one.
        let sqs: Vec<Subquery> = (0..3).map(|i| sq(i, 1)).collect();
        let s = make_schedule(&sqs, &[5, 29, 10], DelayThreshold::MuSigma);
        assert_eq!((s.non_delayed, s.delayed), (vec![0], vec![1, 2]));
        // At 3 / 29 / 12 (z = 1.33) nothing is rejected: μ + σ = 25.4
        // delays the 29-row subquery alone.
        let s = make_schedule(&sqs, &[3, 29, 12], DelayThreshold::MuSigma);
        assert_eq!((s.non_delayed, s.delayed), (vec![0, 2], vec![1]));
    }

    #[test]
    fn single_subquery_never_delayed() {
        let sqs = vec![sq(0, 8)];
        let s = make_schedule(&sqs, &[1_000_000], DelayThreshold::Mu);
        assert_eq!(s.non_delayed, vec![0]);
        assert!(s.delayed.is_empty());
    }

    #[test]
    fn endpoint_fanout_triggers_delay() {
        // Same cardinalities, one subquery touches far more endpoints.
        let sqs = vec![sq(0, 2), sq(1, 2), sq(2, 64)];
        let s = make_schedule(&sqs, &[101, 100, 102], DelayThreshold::MuSigma);
        assert!(s.delayed.contains(&2), "{s:?}");
    }
}
