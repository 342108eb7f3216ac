//! Request coalescing: identical requests share one race.
//!
//! Alternatives are pure functions of `(workload, arg)` — the catalog's
//! blocks derive everything from the request argument — so two requests
//! for the same key within a short window would race identical blocks
//! and select (statistically) the same winner. The [`Batcher`] exploits
//! that: the first arrival *opens* a batch and starts a window; later
//! identical arrivals *join* it; when the window expires the batch is
//! submitted as one race and the single winner's reply is fanned out to
//! every waiter. Thread spawn, COW forks, alternative bodies, *and the
//! reply encoding* are all paid once per batch instead of once per
//! request — the fan-out shares one ring-slot encoding across the N
//! waiters (each socket reads the same slot; the last write retires
//! it), never re-encoding per waiter.
//!
//! The batcher lives inside the single-threaded reactor, so it needs no
//! locks; time is passed in explicitly, which keeps expiry deterministic
//! and testable. The deadline is part of the key — coalescing must never
//! silently extend or shrink a request's deadline budget.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What makes two requests "the same race".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BatchKey {
    /// Catalog workload index (interned from the request's name).
    pub widx: usize,
    /// Request deadline — part of the key so all waiters share a budget.
    pub deadline_ms: u32,
    /// The block parameter.
    pub arg: u64,
}

#[derive(Debug)]
struct OpenBatch<W> {
    waiters: Vec<W>,
    due: Instant,
}

/// A batch whose window has closed: ready to race.
#[derive(Debug)]
pub(crate) struct ReadyBatch<W> {
    pub key: BatchKey,
    pub waiters: Vec<W>,
}

/// Outcome of offering a request to the batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offered {
    /// First arrival: a new batch opened and its window started.
    Opened,
    /// Joined an already-open batch — this request was coalesced.
    Coalesced,
}

/// See module docs. A zero window disables coalescing entirely; callers
/// should bypass the batcher in that case (`enabled()` tells them). `W`
/// is one request's claim on the batched reply — the reactor parks the
/// reply slot itself, so a flushed batch is ready to race as it stands.
#[derive(Debug)]
pub(crate) struct Batcher<W> {
    window: Duration,
    open: HashMap<BatchKey, OpenBatch<W>>,
}

impl<W> Batcher<W> {
    pub(crate) fn new(window: Duration) -> Self {
        Batcher {
            window,
            open: HashMap::new(),
        }
    }

    /// True when a non-zero window was configured.
    pub(crate) fn enabled(&self) -> bool {
        !self.window.is_zero()
    }

    /// Offers one request. The waiter is parked either way; the return
    /// value says whether it opened a batch or coalesced into one.
    pub(crate) fn offer(&mut self, key: BatchKey, waiter: W, now: Instant) -> Offered {
        match self.open.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().waiters.push(waiter);
                Offered::Coalesced
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(OpenBatch {
                    waiters: vec![waiter],
                    due: now + self.window,
                });
                Offered::Opened
            }
        }
    }

    /// The earliest window expiry, if any batch is open — what the
    /// reactor's poll timeout must not sleep past.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.open.values().map(|b| b.due).min()
    }

    /// Removes and returns every batch whose window has expired (or all
    /// of them when `flush_all` — used at drain so no waiter is left
    /// parked behind a window that outlives the listener).
    pub(crate) fn take_due(&mut self, now: Instant, flush_all: bool) -> Vec<ReadyBatch<W>> {
        let keys: Vec<BatchKey> = self
            .open
            .iter()
            .filter(|(_, b)| flush_all || b.due <= now)
            .map(|(k, _)| *k)
            .collect();
        keys.into_iter()
            .map(|key| {
                let batch = self.open.remove(&key).expect("key just listed");
                ReadyBatch {
                    key,
                    waiters: batch.waiters,
                }
            })
            .collect()
    }

    /// True when no batch is open.
    pub(crate) fn is_empty(&self) -> bool {
        self.open.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(arg: u64) -> BatchKey {
        BatchKey {
            widx: 0,
            deadline_ms: 100,
            arg,
        }
    }

    #[test]
    fn identical_requests_coalesce_within_the_window() {
        let mut b = Batcher::new(Duration::from_millis(5));
        let t0 = Instant::now();
        assert_eq!(b.offer(key(7), (1, 0), t0), Offered::Opened);
        assert_eq!(b.offer(key(7), (2, 0), t0), Offered::Coalesced);
        assert_eq!(b.offer(key(7), (1, 1), t0), Offered::Coalesced);
        let ready = b.take_due(t0 + Duration::from_millis(5), false);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].waiters, vec![(1, 0), (2, 0), (1, 1)]);
        assert!(b.is_empty());
    }

    #[test]
    fn different_keys_open_different_batches() {
        let mut b = Batcher::new(Duration::from_millis(5));
        let t0 = Instant::now();
        assert_eq!(b.offer(key(1), (1, 0), t0), Offered::Opened);
        assert_eq!(b.offer(key(2), (2, 0), t0), Offered::Opened);
        let other_deadline = BatchKey {
            deadline_ms: 999,
            ..key(1)
        };
        assert_eq!(
            b.offer(other_deadline, (3, 0), t0),
            Offered::Opened,
            "a different deadline is a different race"
        );
        assert_eq!(b.take_due(t0 + Duration::from_millis(5), false).len(), 3);
    }

    #[test]
    fn window_expiry_is_per_batch() {
        let mut b = Batcher::new(Duration::from_millis(10));
        let t0 = Instant::now();
        b.offer(key(1), (1, 0), t0);
        b.offer(key(2), (2, 0), t0 + Duration::from_millis(6));
        assert_eq!(b.next_due(), Some(t0 + Duration::from_millis(10)));
        let ready = b.take_due(t0 + Duration::from_millis(10), false);
        assert_eq!(ready.len(), 1, "only the first window has expired");
        assert_eq!(ready[0].key, key(1));
        assert_eq!(b.next_due(), Some(t0 + Duration::from_millis(16)));
    }

    #[test]
    fn a_late_arrival_reopens_a_flushed_key() {
        let mut b = Batcher::new(Duration::from_millis(5));
        let t0 = Instant::now();
        b.offer(key(7), (1, 0), t0);
        let _ = b.take_due(t0 + Duration::from_millis(5), false);
        assert_eq!(
            b.offer(key(7), (2, 0), t0 + Duration::from_millis(6)),
            Offered::Opened,
            "a flushed batch is gone; the key starts fresh"
        );
    }

    #[test]
    fn flush_all_empties_every_open_window() {
        let mut b = Batcher::new(Duration::from_secs(3600));
        let t0 = Instant::now();
        b.offer(key(1), (1, 0), t0);
        b.offer(key(2), (2, 0), t0);
        assert_eq!(b.take_due(t0, false).len(), 0, "windows far from expiry");
        assert_eq!(b.take_due(t0, true).len(), 2, "drain flushes everything");
        assert!(b.is_empty());
    }

    #[test]
    fn zero_window_reports_disabled() {
        assert!(!Batcher::<()>::new(Duration::ZERO).enabled());
        assert!(Batcher::<()>::new(Duration::from_micros(1)).enabled());
    }
}
