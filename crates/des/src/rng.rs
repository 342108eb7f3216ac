//! Version-stable pseudorandom number generation.
//!
//! Every altx simulation must be bit-for-bit reproducible from its seed so
//! that tests can assert exact virtual-time outcomes. External RNG crates
//! reserve the right to change their streams between versions, so this
//! module hand-rolls two small, well-known generators:
//!
//! * [`SplitMix64`] — used to expand a user seed into generator state.
//! * [`SimRng`] — xoshiro256\*\*, the workhorse generator, plus the handful
//!   of distributions the workload generators need (uniform, Bernoulli,
//!   exponential, normal, log-normal, Zipf-ish discrete choice).

use core::fmt;

/// SplitMix64: a tiny, high-quality 64-bit generator used for seeding.
///
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014 (the `splitmix64` output function).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }
}

/// SplitMix64's increment: 2⁶⁴ / φ, rounded to odd.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step as a function: the value a generator in state
/// `x` returns next. A stateless 64-bit mixer for callers that derive a
/// draw from a seed and a counter (the fault plan's per-site draws, the
/// client's retry jitter) instead of carrying a generator around.
pub const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulation RNG: xoshiro256\*\* seeded via SplitMix64.
///
/// Deterministic, `Clone`-able (cloning forks the stream: both copies
/// produce the same subsequent values), and equipped with the distributions
/// the experiment harnesses use.
///
/// # Example
///
/// ```
/// use altx_des::SimRng;
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // State is deliberately summarized; the full state is not useful in
        // test failure output.
        write!(f, "SimRng {{ s0: {:#x}, .. }}", self.s[0])
    }
}

impl SimRng {
    /// Creates a generator whose state is derived from `seed` via
    /// SplitMix64, per the xoshiro authors' recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // xoshiro must not be seeded with all zeros; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Derives an independent child generator; used to give each simulated
    /// entity its own stream without cross-coupling.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// Returns the next 64 random bits (xoshiro256\*\*).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`. Uses the top 53 bits for a full-precision
    /// double.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift with
    /// rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be positive");
        // Rejection sampling over the biased region.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo {lo} > hi {hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform usize in `[0, bound)`; convenience for indexing.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "range_f64: bad range"
        );
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential: mean must be > 0"
        );
        // Inverse transform; guard against ln(0).
        let mut u = self.next_f64();
        if u == 0.0 {
            u = f64::MIN_POSITIVE;
        }
        -mean * u.ln()
    }

    /// Standard-normal deviate via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        let mut u1 = self.next_f64();
        if u1 == 0.0 {
            u1 = f64::MIN_POSITIVE;
        }
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev.is_finite() && std_dev >= 0.0, "normal: bad std_dev");
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal deviate parameterized by the *underlying* normal's mean
    /// and standard deviation. Used for heavy-tailed execution times, the
    /// regime where fastest-first racing shines.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Samples an index from a slice of non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index: empty weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "weighted_index: bad weight {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "weighted_index: weights sum to zero");
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values() {
        // First outputs for seed 0 (cross-checked against the reference C
        // implementation).
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from_u64(123);
        let mut b = SimRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::seed_from_u64(9);
        let mut child = parent.fork();
        // Child and parent continue without producing identical streams.
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::seed_from_u64(77);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow generous slack.
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn range_u64_inclusive_bounds() {
        let mut r = SimRng::seed_from_u64(8);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.range_u64(3, 5);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::seed_from_u64(13);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exponential(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = SimRng::seed_from_u64(21);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.1, "var was {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..60_000 {
            counts[r.weighted_index(&[1.0, 2.0, 3.0])] += 1;
        }
        // Expect ~10k / ~20k / ~30k.
        assert!((8_000..12_000).contains(&counts[0]));
        assert!((18_000..22_000).contains(&counts[1]));
        assert!((28_000..32_000).contains(&counts[2]));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(99);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SimRng::seed_from_u64(0).next_below(0);
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn weighted_index_zero_weights_panics() {
        SimRng::seed_from_u64(0).weighted_index(&[0.0, 0.0]);
    }
}
