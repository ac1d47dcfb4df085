//! Deterministic random sampling for simulations.
//!
//! Every stochastic decision in a run flows from a single seed, so an
//! experiment is fully reproducible from `(seed, parameters)`. [`SimRng`]
//! wraps a seeded PRNG and implements the distributions the network and
//! workload models need (`rand` 0.8 ships only uniform sampling; normal,
//! exponential, log-normal and Zipf are implemented here).
//!
//! # Examples
//!
//! ```
//! use otp_simnet::rng::SimRng;
//!
//! let mut a = SimRng::seed_from(42);
//! let mut b = SimRng::seed_from(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! ```

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random number generator with simulation-oriented
/// distribution samplers.
///
/// Cloning is intentionally not provided: forking a stream silently would
/// break reproducibility reasoning. Use [`SimRng::fork`] to derive an
/// independent, deterministically-seeded child stream per component.
#[derive(Debug)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Derives an independent child stream.
    ///
    /// Each call consumes state from the parent, so successive forks get
    /// distinct streams. Give each simulation component its own fork so
    /// adding samples in one component does not perturb another.
    ///
    /// ```
    /// # use otp_simnet::rng::SimRng;
    /// let mut root = SimRng::seed_from(7);
    /// let mut net = root.fork();
    /// let mut load = root.fork();
    /// assert_ne!(net.next_u64(), load.next_u64());
    /// ```
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.inner.gen::<u64>())
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_range requires lo < hi");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)` — convenient for picking array slots.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform_f64() < p
        }
    }

    /// Sample from a normal distribution via the Box–Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Box–Muller: two uniforms → one standard normal deviate. The
        // `1.0 - u` guards against ln(0).
        let u1: f64 = 1.0 - self.uniform_f64();
        let u2: f64 = self.uniform_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Sample from a normal distribution, clamped below at `min`.
    ///
    /// Network jitter and service times must not be negative; clamping (as
    /// opposed to resampling) keeps the per-sample cost constant and the
    /// stream consumption deterministic.
    pub fn normal_min(&mut self, mean: f64, std_dev: f64, min: f64) -> f64 {
        self.normal(mean, std_dev).max(min)
    }

    /// Sample from an exponential distribution with the given `mean`
    /// (i.e. rate `1/mean`). Returns `0.0` for non-positive means.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = 1.0 - self.uniform_f64();
        -mean * u.ln()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

/// Pre-computed Zipf sampler over `{0, 1, …, n-1}`.
///
/// Rank 0 is the most popular element. The distribution is
/// `P(k) ∝ 1 / (k+1)^s`. Used by workload generators to skew conflict-class
/// selection (hot classes model the paper's "high probability of conflicts
/// within a class").
///
/// # Examples
///
/// ```
/// use otp_simnet::rng::{SimRng, Zipf};
///
/// let mut rng = SimRng::seed_from(1);
/// let zipf = Zipf::new(10, 1.0);
/// let k = zipf.sample(&mut rng);
/// assert!(k < 10);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// `s = 0` degenerates to the uniform distribution; larger `s` skews
    /// more mass onto low ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf requires at least one rank");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be finite and non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns true if the sampler has exactly one rank.
    pub fn is_empty(&self) -> bool {
        // A Zipf over zero ranks cannot be constructed, so this is always
        // false; provided for clippy/API symmetry with `len`.
        self.cdf.is_empty()
    }

    /// Draws a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform_f64();
        // Binary search for the first CDF entry >= u.
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).expect("CDF is finite")) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `k` (for reporting/tests).
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut r1 = SimRng::seed_from(9);
        let mut r2 = SimRng::seed_from(9);
        let mut f1 = r1.fork();
        let mut f2 = r2.fork();
        assert_eq!(f1.next_u64(), f2.next_u64());
        // Second fork differs from the first.
        let mut g1 = r1.fork();
        assert_ne!(f1.next_u64(), g1.next_u64());
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let v = rng.uniform_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_range_rejects_empty() {
        let mut rng = SimRng::seed_from(5);
        rng.uniform_range(3, 3);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::seed_from(77);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal(5.0, 2.0);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn normal_min_clamps() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert!(rng.normal_min(0.0, 10.0, 0.0) >= 0.0);
        }
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
        assert_eq!(rng.exponential(0.0), 0.0);
        assert_eq!(rng.exponential(-1.0), 0.0);
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let mut rng = SimRng::seed_from(21);
        let zipf = Zipf::new(16, 1.2);
        let mut counts = [0u32; 16];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[5], "rank 0 should dominate: {counts:?}");
        assert!(counts[0] > counts[15] * 4);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let zipf = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((zipf.pmf(k) - 0.25).abs() < 1e-12);
        }
        assert_eq!(zipf.len(), 4);
        assert!(!zipf.is_empty());
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let zipf = Zipf::new(50, 0.8);
        let total: f64 = (0..50).map(|k| zipf.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from(2);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
