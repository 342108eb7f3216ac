//! Shared per-alternative statistics.
//!
//! `AltStatsTable` is the online record behind Scheme A (§4.2): for every
//! alternative of a block it tracks how often it won a race, an EWMA of
//! its winning latency, and a coarse latency histogram good enough to
//! answer quantile queries (the hedging policy wants "the favourite's
//! p95"). Scheme A itself is a plan, not a table: race
//! [`LaunchPlan::favourite_first`](crate::engine::LaunchPlan::favourite_first)
//! with [`AltStatsTable::favourite`] as the lead, the way the serving
//! layer's `HedgePolicy` does.
//!
//! The table is lock-cheap by design: every slot is a bundle of atomics,
//! and the only lock is an `RwLock` around the slot vector that is taken
//! in read mode, once, on the record path (uncontended unless the table
//! is growing).

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Smoothing factor for the latency EWMA. High enough to adapt within a
/// few tens of observations, low enough not to chase single outliers.
const EWMA_ALPHA: f64 = 0.2;

/// Number of power-of-two latency buckets. Bucket `k` covers
/// `[2^(k-1), 2^k)` microseconds; bucket 31 absorbs everything slower
/// (~36 minutes), bucket 0 holds sub-microsecond observations.
const BUCKETS: usize = 32;

fn bucket_of(us: u64) -> usize {
    if us == 0 {
        return 0;
    }
    let k = 64 - u64::leading_zeros(us) as usize;
    k.min(BUCKETS - 1)
}

/// One alternative's statistics. All fields are atomics so the record
/// path never blocks a concurrent reader (or another recorder). Cells
/// are stored cache-line padded ([`CachePadded`]) in the table: two
/// workers recording wins for *different* alternatives must not fight
/// over one line.
#[derive(Debug, Default)]
struct AltStat {
    wins: AtomicU64,
    /// EWMA of observed latency in microseconds, stored as `f64` bits.
    /// Zero means "no observation yet" (a true 0.0 EWMA is indistinguishable
    /// from unset, which is fine: both mean "treat as instant").
    ewma_us_bits: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl AltStat {
    fn observe_latency(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        let sample = us as f64;
        let mut cur = self.ewma_us_bits.load(Ordering::Relaxed);
        loop {
            let prev = f64::from_bits(cur);
            let next = if self.wins.load(Ordering::Relaxed) == 0 {
                sample
            } else {
                prev + EWMA_ALPHA * (sample - prev)
            };
            match self.ewma_us_bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// One win: its latency, then the count the first-sample check reads.
    fn record_win(&self, latency_us: u64) {
        self.observe_latency(latency_us);
        self.wins.fetch_add(1, Ordering::Relaxed);
    }

    fn ewma_us(&self) -> Option<f64> {
        (self.wins.load(Ordering::Relaxed) > 0)
            .then(|| f64::from_bits(self.ewma_us_bits.load(Ordering::Relaxed)))
    }
}

/// Growable table of per-alternative statistics. See module docs.
#[derive(Debug, Default)]
pub struct AltStatsTable {
    slots: RwLock<Vec<CachePadded<AltStat>>>,
}

impl AltStatsTable {
    /// An empty table; it grows on demand via [`AltStatsTable::ensure`].
    pub fn new() -> Self {
        Self::with_len(0)
    }

    /// A table pre-sized for `n` alternatives.
    pub fn with_len(n: usize) -> Self {
        let table = AltStatsTable {
            slots: RwLock::new(Vec::new()),
        };
        table.ensure(n);
        table
    }

    /// Grow the table so indices `0..n` are valid. Cheap no-op when the
    /// table is already large enough (read lock only).
    pub fn ensure(&self, n: usize) {
        if self.slots.read().map(|s| s.len()).unwrap_or(0) >= n {
            return;
        }
        if let Ok(mut slots) = self.slots.write() {
            while slots.len() < n {
                slots.push(CachePadded::new(AltStat::default()));
            }
        }
    }

    /// Number of alternatives the table currently covers.
    pub fn len(&self) -> usize {
        self.slots.read().map(|s| s.len()).unwrap_or(0)
    }

    /// True when the table covers no alternatives yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` on slot `i` under one read guard; `None` out of range.
    fn with_slot<T>(&self, i: usize, f: impl FnOnce(&AltStat) -> T) -> Option<T> {
        let slots = self.slots.read().ok()?;
        slots.get(i).map(|slot| f(slot))
    }

    /// Runs `f` on every slot, in index order, under one read guard.
    fn with_slots<T>(&self, f: impl FnOnce(&[CachePadded<AltStat>]) -> T) -> Option<T> {
        self.slots.read().ok().map(|slots| f(&slots))
    }

    /// Record that alternative `i` won a race in `latency_us`: the
    /// latency is folded into the EWMA and histogram. The slot is
    /// resolved once, under one read guard; only an index past the end
    /// takes the write lock, to grow.
    pub fn record_win(&self, i: usize, latency_us: u64) {
        let record = |slot: &AltStat| slot.record_win(latency_us);
        if self.with_slot(i, record).is_none() {
            self.ensure(i + 1);
            self.with_slot(i, record);
        }
    }

    /// Race wins recorded for alternative `i` (0 when out of range).
    pub fn wins(&self, i: usize) -> u64 {
        self.with_slot(i, |s| s.wins.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// EWMA winning latency of alternative `i` in microseconds, or `None`
    /// if it has never won.
    pub fn ewma_us(&self, i: usize) -> Option<f64> {
        self.with_slot(i, AltStat::ewma_us).flatten()
    }

    /// Sum of wins across all alternatives.
    pub fn total_wins(&self) -> u64 {
        self.with_slots(|slots| slots.iter().map(|s| s.wins.load(Ordering::Relaxed)).sum())
            .unwrap_or(0)
    }

    /// The alternative with the most wins, or `None` if nothing has won
    /// yet. Ties break toward the lower EWMA latency.
    pub fn favourite(&self) -> Option<usize> {
        self.with_slots(|slots| {
            let mut best: Option<(usize, u64, f64)> = None;
            for (i, slot) in slots.iter().enumerate() {
                let wins = slot.wins.load(Ordering::Relaxed);
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
        })
        .flatten()
    }

    /// Approximate latency quantile (`0.0..=1.0`) for alternative `i`, in
    /// microseconds. Resolution is the power-of-two bucket upper bound, so
    /// answers are within a factor of two of the true quantile — plenty
    /// for picking a hedge delay. Returns `None` with no observations.
    pub fn quantile_us(&self, i: usize, q: f64) -> Option<u64> {
        let counts: [u64; BUCKETS] = self.with_slot(i, |slot| {
            std::array::from_fn(|k| slot.buckets[k].load(Ordering::Relaxed))
        })?;
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(if k == 0 { 1 } else { 1u64 << k });
            }
        }
        Some(1u64 << (BUCKETS - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_answers_zeroes() {
        let t = AltStatsTable::new();
        assert_eq!(t.len(), 0);
        assert_eq!(t.wins(3), 0);
        assert_eq!(t.ewma_us(3), None);
        assert_eq!(t.quantile_us(3, 0.95), None);
        assert_eq!(t.favourite(), None);
    }

    #[test]
    fn record_win_grows_and_counts() {
        let t = AltStatsTable::new();
        t.record_win(2, 100);
        t.record_win(2, 300);
        assert_eq!(t.len(), 3);
        assert_eq!(t.wins(2), 2);
        assert_eq!(t.ewma_us(1), None, "a grown slot has never won");
        let ewma = t.ewma_us(2).expect("observed");
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
