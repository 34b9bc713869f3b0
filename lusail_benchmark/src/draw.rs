//! Seeded choices: the pool shuffle and the Zipf query stream.

use lusail_workloads::prng::SplitMix64;

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
    rng: SplitMix64,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            cdf,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    pub fn next(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let run = |seed| {
            let mut v: Vec<usize> = (0..50).collect();
            shuffle(&mut v, &mut SplitMix64::seed_from_u64(seed));
            v
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
        let mut sorted = run(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let draws = |seed| {
            let mut z = Zipf::new(600, 0.5, seed);
            (0..20_000).map(|_| z.next()).collect::<Vec<_>>()
        };
        assert_eq!(draws(9), draws(9));
        assert_ne!(draws(9), draws(10));
        let d = draws(9);
        assert!(d.iter().all(|&r| r < 600));
        let hot = d.iter().filter(|&&r| r < 60).count() as f64 / d.len() as f64;
        // Zipf(0.5) over 600 ranks puts ≈ 30 % of the mass on the top tenth.
        assert!((0.25..0.36).contains(&hot), "top-decile share {hot}");
    }
}
