//! Order statistics for latency samples and window series.

/// Nearest-rank percentile of an ascending slice; `q` in `[0, 1]`.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (mean of the middle two for an even
/// count). Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Lower quartile of unsorted floats, nearest rank. For timings whose
/// noise is one-sided (a shared host only ever slows a set-up down), it
/// sits closer to the undisturbed value than the median and is still
/// backed by a quarter of the samples. Returns 0 for an empty slice.
pub fn lower_quartile(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    v[v.len().div_ceil(4) - 1]
}

/// A metric over the measured phase's windows: the gated value is the
/// median, reported with the windows' extremes beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub windows: Vec<f64>,
}

impl Windowed {
    pub fn of(windows: Vec<f64>) -> Self {
        Windowed {
            median: median(&windows),
            min: windows.iter().copied().fold(f64::INFINITY, f64::min),
            max: windows.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn window_median_with_extremes() {
        let w = Windowed::of(vec![5.0, 1.0, 9.0, 3.0, 7.0, 11.0]);
        assert_eq!(w.median, 6.0);
        assert_eq!((w.min, w.max), (1.0, 11.0));
        assert_eq!(median(&[2.0, 9.0, 4.0]), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn lower_quartile_is_nearest_rank() {
        let v: Vec<f64> = (1..=24).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&v), 6.0);
        assert_eq!(lower_quartile(&[9.0, 2.0, 5.0]), 2.0);
        assert_eq!(lower_quartile(&[4.0]), 4.0);
        assert_eq!(lower_quartile(&[]), 0.0);
    }
}
