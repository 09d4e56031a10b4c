//! Deterministic random numbers for the simulation and workload generators.
//!
//! Every stochastic decision in the reproduction — client think times,
//! query-template selection, literal uniquification, compile-time jitter —
//! draws from a [`SimRng`] seeded per experiment. Re-running an experiment
//! with the same seed regenerates exactly the same figure.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random-number generator with the distributions the workload
/// model needs.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child generator. Used to give each simulated
    /// client its own stream so adding a client does not perturb the others.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(s)
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64 range inverted: {lo} > {hi}");
        self.inner.gen_range(lo..=hi)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_f64 range inverted");
        if lo == hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Exponentially distributed value with the given mean (inter-arrival
    /// times of the open portion of the client model).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    /// A multiplicative jitter factor in `[1-spread, 1+spread]`, used to vary
    /// compile and execution times between "identical" query submissions.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&spread),
            "jitter spread must be in [0,1)"
        );
        1.0 + self.uniform_f64(-spread, spread)
    }

    /// Zipf-distributed rank in `[0, n)` with skew `theta` (0 = uniform).
    /// Used for skewed dimension-key access in the synthetic warehouse.
    pub fn zipf(&mut self, n: usize, theta: f64) -> usize {
        assert!(n > 0, "zipf over empty domain");
        if theta <= f64::EPSILON {
            return self.uniform_u64(0, n as u64 - 1) as usize;
        }
        // Inverse-CDF by linear scan over a truncated harmonic sum. n is small
        // (dimension tables, query templates) so this is fine.
        let mut norm = 0.0;
        for i in 1..=n {
            norm += 1.0 / (i as f64).powf(theta);
        }
        let target = self.unit() * norm;
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            if acc >= target {
                return i - 1;
            }
        }
        n - 1
    }

    /// Choose an index in `[0, weights.len())` proportionally to `weights`.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index needs at least one weight"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut target = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        let idx = self.uniform_u64(0, items.len() as u64 - 1) as usize;
        &items[idx]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_u64(0, i as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Sample from an arbitrary `rand` distribution.
    pub fn sample<D, T>(&mut self, dist: &D) -> T
    where
        D: Distribution<T>,
    {
        dist.sample(&mut self.inner)
    }

    /// A raw 64-bit value (for uniquifier tags and fork salts).
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "independent streams should rarely collide");
    }

    #[test]
    fn fork_is_deterministic() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        let mut fa = a.fork(3);
        let mut fb = b.fork(3);
        assert_eq!(fa.next_u64(), fb.next_u64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = r.uniform_u64(10, 20);
            assert!((10..=20).contains(&v));
            let f = r.uniform_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 5.0).abs() < 0.25,
            "sample mean {mean} too far from 5.0"
        );
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut r = SimRng::seed_from_u64(13);
        let n = 10_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[r.zipf(10, 1.0)] += 1;
        }
        assert!(
            counts[0] > counts[9] * 3,
            "rank 0 should dominate rank 9: {counts:?}"
        );
    }

    #[test]
    fn zipf_zero_theta_is_roughly_uniform() {
        let mut r = SimRng::seed_from_u64(17);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[r.zipf(4, 0.0)] += 1;
        }
        for c in counts {
            assert!(
                (1_600..2_400).contains(&c),
                "uniform-ish expected, got {counts:?}"
            );
        }
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut r = SimRng::seed_from_u64(19);
        let mut counts = [0usize; 3];
        for _ in 0..9_000 {
            counts[r.weighted_index(&[1.0, 2.0, 6.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0], "{counts:?}");
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = SimRng::seed_from_u64(23);
        for _ in 0..1000 {
            let j = r.jitter(0.25);
            assert!((0.75..=1.25).contains(&j));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(29);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_returns_member() {
        let mut r = SimRng::seed_from_u64(31);
        let items = ["a", "b", "c"];
        for _ in 0..50 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}
