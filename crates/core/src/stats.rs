//! Shared latency statistics.
//!
//! [`Histogram`] is the one latency histogram of the workspace: a count,
//! a sum and 32 power-of-two buckets, every field a relaxed atomic, so
//! recording never blocks a reader or another recorder and takes no
//! lock. Its quantiles are bucket upper bounds at the nearest rank
//! ([`altx_des::nearest_rank`]) — within a factor of two of the true
//! quantile, plenty for picking a hedge delay or a run path.
//!
//! [`Timing`] is a histogram with an EWMA of the same samples beside it,
//! for the rules that read a recent mean as well as a tail.
//! [`AltStatsTable`] is the online record behind Scheme A (§4.2): one
//! [`Timing`] of winning latencies per alternative of a block, whose
//! count is the alternative's wins. Scheme A itself is a plan, not a
//! table: race
//! [`LaunchPlan::favourite_first`](crate::engine::LaunchPlan::favourite_first)
//! with [`AltStatsTable::favourite`] as the lead, the way the serving
//! layer's `HedgePolicy` does.

use crate::pad::CachePadded;
use altx_des::nearest_rank;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smoothing factor for the latency EWMA. High enough to adapt within a
/// few tens of observations, low enough not to chase single outliers.
const EWMA_ALPHA: f64 = 0.2;

/// Number of power-of-two latency buckets. Bucket `k` covers
/// `[2^(k-1), 2^k)` microseconds and reports `2^k` as its bound; bucket
/// 0 holds sub-microsecond observations, bucket 31 absorbs everything
/// from 2^30 µs (~18 minutes) on.
pub const BUCKETS: usize = 32;

fn bucket_of(us: u64) -> usize {
    let k = 64 - u64::leading_zeros(us) as usize;
    k.min(BUCKETS - 1)
}

/// A log₂ latency histogram of relaxed atomics. See module docs.
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    sum_us: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// Records one observation: three relaxed adds.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of the observations, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// The bucket counts: entry `k` counts observations in
    /// `[2^(k-1), 2^k)` µs, the last everything from 2^30 µs on.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|k| self.buckets[k].load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds: the upper bound
    /// `2^k` of the bucket holding the nearest-rank observation. `None`
    /// with no observations.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let counts = self.buckets();
        let total = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = nearest_rank(q.clamp(0.0, 1.0), total);
        let mut seen = 0;
        counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .map(|k| 1 << k)
    }
}

/// A [`Histogram`] with an EWMA of the same samples beside it. The
/// EWMA's compare-and-swap is the price of a recent mean, so only the
/// rules that read one keep it.
#[derive(Debug, Default)]
pub struct Timing {
    histogram: Histogram,
    /// EWMA of the samples in microseconds, stored as `f64` bits; read
    /// only once the histogram counts a sample.
    ewma_us_bits: AtomicU64,
}

impl Timing {
    /// Records one sample: the EWMA (the first sample seeds it), then
    /// the histogram, whose count the first-sample check reads.
    pub fn record(&self, us: u64) {
        let sample = us as f64;
        let _ = self
            .ewma_us_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                let next = if self.histogram.count() == 0 {
                    sample
                } else {
                    let prev = f64::from_bits(bits);
                    prev + EWMA_ALPHA * (sample - prev)
                };
                Some(next.to_bits())
            });
        self.histogram.record(us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.histogram.count()
    }

    /// EWMA of the samples in microseconds, or `None` before the first.
    pub fn ewma_us(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.ewma_us_bits.load(Ordering::Relaxed)))
    }

    /// A quantile of the samples ([`Histogram::quantile_us`]).
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        self.histogram.quantile_us(q)
    }
}

/// Per-alternative win statistics of one block: a fixed slice of
/// cache-line padded [`Timing`]s, one per alternative, sized once — two
/// workers recording wins for *different* alternatives never share a
/// line, and no lock guards the slice because it never changes. A
/// record or a read past the end is ignored (reads answer "never won").
#[derive(Debug)]
pub struct AltStatsTable {
    slots: Box<[CachePadded<Timing>]>,
}

impl AltStatsTable {
    /// A table for `n` alternatives.
    pub fn with_len(n: usize) -> Self {
        AltStatsTable {
            slots: (0..n)
                .map(|_| CachePadded::new(Timing::default()))
                .collect(),
        }
    }

    /// Record that alternative `i` won a race in `latency_us`: the
    /// latency is folded into its EWMA and histogram.
    pub fn record_win(&self, i: usize, latency_us: u64) {
        if let Some(slot) = self.slots.get(i) {
            slot.record(latency_us);
        }
    }

    /// Race wins recorded for alternative `i` (0 when out of range).
    pub fn wins(&self, i: usize) -> u64 {
        self.slots.get(i).map_or(0, |s| s.count())
    }

    /// EWMA winning latency of alternative `i` in microseconds, or `None`
    /// if it has never won.
    pub fn ewma_us(&self, i: usize) -> Option<f64> {
        self.slots.get(i)?.ewma_us()
    }

    /// Approximate winning-latency quantile (`0.0..=1.0`) of alternative
    /// `i` ([`Histogram::quantile_us`]); `None` if it has never won.
    pub fn quantile_us(&self, i: usize, q: f64) -> Option<u64> {
        self.slots.get(i)?.quantile_us(q)
    }

    /// Sum of wins across all alternatives.
    pub fn total_wins(&self) -> u64 {
        self.slots.iter().map(|s| s.count()).sum()
    }

    /// The alternative with the most wins, or `None` if nothing has won
    /// yet. Ties break toward the lower EWMA latency.
    pub fn favourite(&self) -> Option<usize> {
        let mut best: Option<(usize, u64, f64)> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            let wins = slot.count();
            if wins == 0 {
                continue;
            }
            let ewma = slot.ewma_us().unwrap_or(f64::INFINITY);
            let better = match best {
                None => true,
                Some((_, bw, be)) => wins > bw || (wins == bw && ewma < be),
            };
            if better {
                best = Some((i, wins, ewma));
            }
        }
        best.map(|(i, _, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_answers_zeroes() {
        let t = AltStatsTable::with_len(0);
        assert_eq!(t.wins(3), 0);
        assert_eq!(t.ewma_us(3), None);
        assert_eq!(t.quantile_us(3, 0.95), None);
        assert_eq!(t.favourite(), None);
    }

    /// The table never grows: a win past its end is dropped and every
    /// read there answers "never won".
    #[test]
    fn a_record_or_read_past_the_end_is_ignored() {
        let t = AltStatsTable::with_len(2);
        t.record_win(2, 100);
        t.record_win(7, 300);
        assert_eq!(t.total_wins(), 0);
        assert_eq!(t.favourite(), None);
        assert_eq!(
            (t.wins(2), t.ewma_us(2), t.quantile_us(2, 0.5)),
            (0, None, None)
        );
        t.record_win(1, 100);
        t.record_win(1, 300);
        assert_eq!((t.wins(1), t.total_wins()), (2, 2));
        let ewma = t.ewma_us(1).expect("observed");
        assert!(ewma > 100.0 && ewma < 300.0, "ewma {ewma} between samples");
    }

    #[test]
    fn wins_pick_the_favourite_with_latency_tiebreak() {
        let t = AltStatsTable::with_len(3);
        t.record_win(0, 500);
        t.record_win(2, 50);
        t.record_win(2, 50);
        assert_eq!(t.favourite(), Some(2));
        // Tie on wins: the faster alternative is favoured.
        t.record_win(0, 500);
        assert_eq!(t.favourite(), Some(2));
        assert_eq!(t.total_wins(), 4);
    }

    #[test]
    fn quantile_tracks_the_tail() {
        let t = AltStatsTable::with_len(1);
        // 95 fast observations, 5 slow ones an order of magnitude out.
        for _ in 0..95 {
            t.record_win(0, 1_000);
        }
        for _ in 0..5 {
            t.record_win(0, 60_000);
        }
        let p50 = t.quantile_us(0, 0.50).expect("observed");
        let p99 = t.quantile_us(0, 0.99).expect("observed");
        assert!(p50 <= 2_048, "p50 {p50} in the fast bucket");
        assert!(p99 >= 32_768, "p99 {p99} reaches the slow tail");
    }

    #[test]
    fn ewma_converges_toward_recent_samples() {
        let t = AltStatsTable::with_len(1);
        for _ in 0..50 {
            t.record_win(0, 10_000);
        }
        for _ in 0..50 {
            t.record_win(0, 1_000);
        }
        let ewma = t.ewma_us(0).expect("observed");
        assert!(ewma < 2_000.0, "ewma {ewma} tracked the recent regime");
    }

    #[test]
    fn bucket_of_is_monotone() {
        let mut prev = 0;
        for us in [0u64, 1, 2, 3, 7, 8, 1_000, 65_535, u64::MAX] {
            let b = bucket_of(us);
            assert!(b >= prev, "bucket_of({us}) = {b} not monotone");
            assert!(b < BUCKETS);
            prev = b;
        }
    }

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::default();
        for us in [40, 90, 90, 90, 90, 90, 90, 90, 90, 200_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile_us(0.5), Some(128)); // 90 µs falls in [64, 128)
        assert_eq!(h.quantile_us(0.99), Some(262_144));
        assert_eq!(h.sum_us(), 40 + 8 * 90 + 200_000);
        assert_eq!(Histogram::default().quantile_us(0.5), None);
    }

    #[test]
    fn histogram_buckets_sum_to_the_count() {
        let h = Histogram::default();
        for us in [1, 10_000, 9_999_999] {
            h.record(us);
        }
        assert_eq!(h.buckets().iter().sum::<u64>(), 3);
        assert_eq!(h.count(), 3);
    }

    /// The quantile is the bound of the bucket that holds the exact
    /// nearest-rank sample, over samples from 0 to far past the last
    /// bucket's lower edge.
    #[test]
    fn quantile_is_the_bucket_of_the_nearest_rank_sample() {
        altx_check::check("histogram_quantile_is_nearest_rank", 500, |rng| {
            let samples = rng.vec(1, 200, |rng| match rng.u64_below(5) {
                0 => *rng.pick(&[0, 1, 2, 1 << 30, (1 << 31) - 1, u64::MAX]),
                1 => rng.u64_in(1 << 31, 1 << 40),
                _ => {
                    let bits = rng.u64_in(1, 24);
                    rng.u64_below(1 << bits)
                }
            });
            let h = Histogram::default();
            for &us in &samples {
                h.record(us);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                let rank = nearest_rank(q, sorted.len() as u64);
                let exact = sorted[rank as usize - 1];
                assert_eq!(
                    h.quantile_us(q),
                    Some(1 << bucket_of(exact)),
                    "q {q}: rank {rank} of {}, sample {exact}",
                    sorted.len()
                );
            }
        });
    }

    #[test]
    fn concurrent_records_are_not_lost() {
        let t = std::sync::Arc::new(AltStatsTable::with_len(2));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = std::sync::Arc::clone(&t);
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        t.record_win(0, 100);
                        t.record_win(1, 200);
                    }
                });
            }
        });
        assert_eq!(t.wins(0), 4_000);
        assert_eq!(t.wins(1), 4_000);
        assert_eq!(t.total_wins(), 8_000);
    }
}
