//! Online summary statistics for experiment harnesses.
//!
//! The paper's analysis (§4.2) is phrased in terms of means and dispersion
//! ("this magnitude of difference is well-encapsulated by … the variance").
//! [`Summary`] accumulates samples with Welford's numerically stable
//! one-pass algorithm and retains the raw samples for exact percentiles,
//! which the experiment binaries report alongside paper expectations.

use crate::time::SimDuration;
use core::fmt;

/// The nearest-rank rule: the 1-based rank, among `n` sorted samples,
/// of the `q`-quantile (`q` in `[0, 1]`) — `⌈q·n⌉`, at least 1 and at
/// most `n`. Returns 0 only when `n` is 0. Exact percentiles
/// ([`Summary::percentile`]) and bucketed quantiles alike read their
/// rank here.
///
/// ```
/// use altx_des::nearest_rank;
/// assert_eq!(nearest_rank(0.5, 4), 2);
/// assert_eq!(nearest_rank(0.0, 4), 1);
/// assert_eq!(nearest_rank(0.99, 1_000), 990);
/// ```
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).max(1).min(n)
}

/// One-pass accumulator of mean / variance / min / max plus retained
/// samples for percentile queries.
///
/// # Example
///
/// ```
/// use altx_des::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), Some(1.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            samples: Vec::new(),
        }
    }

    /// Builds a summary from an iterator of samples.
    pub fn from_samples<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (a NaN sample would silently poison every
    /// derived statistic).
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "Summary::record: NaN sample");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.samples.push(x);
    }

    /// Records a duration sample in milliseconds; convenience for the
    /// virtual-time experiments.
    pub fn record_duration_ms(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 with fewer than one sample).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample (Bessel-corrected) variance; 0.0 with fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (σ/µ); 0.0 if the mean is zero.
    ///
    /// The paper's §4.2 observes that the opportunity for fastest-first
    /// speedup is captured by the dispersion of alternative times; CV is
    /// the scale-free form used by experiment E6.
    pub fn coefficient_of_variation(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn total(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Exact percentile (nearest-rank method), `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile: p out of range");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let rank = nearest_rank(p / 100.0, sorted.len() as u64);
        Some(sorted[rank as usize - 1])
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Read-only view of the raw samples in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} p50={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min,
            self.median().unwrap_or(0.0),
            self.max
        )
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Summary::from_samples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_well_behaved() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.median(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn mean_and_variance_match_closed_form() {
        let s = Summary::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 4.0);
        assert_eq!(s.std_dev(), 2.0);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_total() {
        let s = Summary::from_samples([3.0, -1.0, 10.0]);
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(10.0));
        assert!((s.total() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = Summary::from_samples((1..=100).map(f64::from));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(95.0), Some(95.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
    }

    #[test]
    fn coefficient_of_variation() {
        let uniform = Summary::from_samples([5.0, 5.0, 5.0]);
        assert_eq!(uniform.coefficient_of_variation(), 0.0);
        let spread = Summary::from_samples([1.0, 9.0]);
        assert!(spread.coefficient_of_variation() > 0.5);
    }

    #[test]
    fn extend_and_collect() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        s.extend([3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn record_duration_ms() {
        let mut s = Summary::new();
        s.record_duration_ms(SimDuration::from_millis(31));
        assert_eq!(s.mean(), 31.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_panics() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let s = Summary::from_samples([1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0]);
        assert!((s.sample_variance() - 30.0).abs() < 1e-6);
    }
}
