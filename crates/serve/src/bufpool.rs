//! A recycled-buffer free list for the reactor's frame path.
//!
//! Every request used to cost two fresh heap allocations on the hot
//! path: `FrameDecoder::next_frame` copied the body into a brand-new
//! `Vec`, and `Response::encode` built the reply in another. At tens of
//! thousands of requests per second that is pure allocator churn — the
//! buffers are all the same handful of sizes and die microseconds after
//! they are born. The [`BufPool`] keeps them alive instead: a shard-local
//! free list of `Vec<u8>`s that decode bodies are drawn from and
//! returned to, so a steady-state request is served entirely from
//! recycled memory (the paper's lazy-copy discipline — §3.2 copies a
//! page only when someone writes it — applied to the serving layer's
//! byte buffers: never allocate what you can reuse). Since the ring
//! data plane (`ring.rs`) landed, replies normally live in fixed ring
//! slots instead; the pool is the reply path's **spill sink** — an
//! oversize or ring-exhausted reply encodes into a pooled buffer and
//! recycles here after the socket write (the retain cap below keeps a
//! one-off giant spill from pinning memory).
//!
//! The pool is deliberately **not** thread-safe: each reactor shard owns
//! one and threads it through its connections by `&mut`, so a get/put is
//! a `Vec::pop`/`push` with zero synchronization. Only the *counters*
//! are shared (relaxed atomics), because telemetry renders a global view
//! from whichever shard handles the STATS request.
//!
//! Hygiene rules, enforced here and property-tested in
//! `tests/bufpool.rs`:
//!
//! * a buffer handed out by [`BufPool::get`] is always **empty**
//!   (`len == 0`) — one request's bytes can never leak into another
//!   request or another connection through a recycled buffer;
//! * the free list never holds more than the configured high-water
//!   number of buffers, and never retains a buffer whose capacity
//!   exceeds [`MAX_RETAIN_CAPACITY`] — a one-off huge STATS reply must
//!   not pin its allocation forever.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Largest buffer capacity the free list will retain. Anything bigger
/// (an outsized text reply) is dropped on `put` so the pool's resident
/// memory stays bounded by `max_held × MAX_RETAIN_CAPACITY`.
pub const MAX_RETAIN_CAPACITY: usize = 64 * 1024;

/// Default high-water mark: how many buffers one pool may hold. Sized
/// for a busy shard (pipelined bursts park one encoded reply per
/// in-flight request) without hoarding memory on an idle one.
pub const DEFAULT_MAX_HELD: usize = 64;

/// Shared hit/miss counters for one pool, rendered by telemetry.
#[derive(Debug, Default)]
pub struct BufPoolStats {
    recycled: AtomicU64,
    misses: AtomicU64,
}

impl BufPoolStats {
    /// Gets served from the free list.
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Gets that had to allocate because the free list was empty.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// See the module docs. One per reactor shard, threaded by `&mut`.
#[derive(Debug)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    max_held: usize,
    stats: Arc<BufPoolStats>,
}

impl BufPool {
    /// An empty pool that will hold at most `max_held` free buffers.
    pub fn new(max_held: usize) -> Self {
        BufPool {
            free: Vec::with_capacity(max_held.min(64)),
            max_held,
            stats: Arc::new(BufPoolStats::default()),
        }
    }

    /// The pool's shared counters (telemetry holds the same `Arc`).
    pub fn stats(&self) -> Arc<BufPoolStats> {
        Arc::clone(&self.stats)
    }

    /// Takes a buffer. Always empty; capacity is whatever the recycled
    /// buffer grew to, or zero for a fresh one (the first writes size it).
    pub fn get(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty(), "pooled buffers are stored cleared");
                self.stats.recycled.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the free list. The buffer is cleared *here*,
    /// at the moment it leaves request scope — not lazily at the next
    /// `get` — so no stale request bytes sit readable in the pool.
    /// Buffers over the retain cap, or arriving when the pool is full,
    /// are simply dropped.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() >= self.max_held || buf.capacity() > MAX_RETAIN_CAPACITY {
            return;
        }
        buf.clear();
        self.free.push(buf);
    }

    /// Buffers currently sitting in the free list.
    pub fn held(&self) -> usize {
        self.free.len()
    }

    /// Pre-populates the free list with [`WARM_BUFFERS`] buffers of
    /// [`WARM_CAPACITY`] bytes, written once so their pages are
    /// resident. The daemon never calls it — a shard's pool fills from
    /// its own traffic; its one caller is the benchmark's `layers`
    /// binary, which times a warm pool. Touches no counters: warming is
    /// provisioning, not traffic.
    pub fn warm(&mut self) {
        while self.free.len() < WARM_BUFFERS.min(self.max_held) {
            let mut buf = vec![0u8; WARM_CAPACITY];
            buf.clear();
            self.free.push(buf);
        }
    }
}

/// Buffers [`BufPool::warm`] pre-touches per pool.
pub const WARM_BUFFERS: usize = 16;

/// Capacity of each warmed buffer: covers typical decode bodies and
/// spill replies without approaching [`MAX_RETAIN_CAPACITY`].
pub const WARM_CAPACITY: usize = 4 * 1024;

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new(DEFAULT_MAX_HELD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_from_empty_pool_allocates_and_counts_a_miss() {
        let mut pool = BufPool::new(4);
        let buf = pool.get();
        assert!(buf.is_empty());
        assert_eq!(pool.stats().misses(), 1);
        assert_eq!(pool.stats().recycled(), 0);
    }

    #[test]
    fn round_trip_recycles_and_returns_an_empty_buffer() {
        let mut pool = BufPool::new(4);
        let mut buf = pool.get();
        buf.extend_from_slice(b"sensitive request bytes");
        let cap = buf.capacity();
        pool.put(buf);
        let again = pool.get();
        assert!(again.is_empty(), "recycled buffers must come back cleared");
        assert_eq!(again.capacity(), cap, "capacity is what gets recycled");
        assert_eq!(pool.stats().recycled(), 1);
    }

    #[test]
    fn high_water_cap_is_respected() {
        let mut pool = BufPool::new(2);
        for _ in 0..5 {
            pool.put(vec![0u8; 16]);
        }
        assert_eq!(pool.held(), 2, "puts beyond the cap are dropped");
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let mut pool = BufPool::new(8);
        pool.put(Vec::with_capacity(MAX_RETAIN_CAPACITY + 1));
        assert_eq!(pool.held(), 0);
        pool.put(Vec::with_capacity(MAX_RETAIN_CAPACITY));
        assert_eq!(pool.held(), 1);
    }

    #[test]
    fn warm_provisions_cleared_buffers_without_counting_traffic() {
        let mut pool = BufPool::new(8);
        pool.warm();
        assert_eq!(pool.held(), 8, "warm fills to min(WARM_BUFFERS, cap)");
        assert_eq!(pool.stats().misses(), 0, "warming is not traffic");
        assert_eq!(pool.stats().recycled(), 0);
        let buf = pool.get();
        assert!(buf.is_empty());
        assert!(buf.capacity() >= WARM_CAPACITY);
        assert_eq!(pool.stats().recycled(), 1, "warmed buffers serve as hits");
    }

    #[test]
    fn steady_state_hits_after_warmup() {
        let mut pool = BufPool::new(8);
        for _ in 0..100 {
            let mut a = pool.get();
            a.extend_from_slice(&[1, 2, 3]);
            let mut b = pool.get();
            b.extend_from_slice(&[4, 5]);
            pool.put(a);
            pool.put(b);
        }
        let s = pool.stats();
        assert_eq!(s.misses(), 2, "only the cold start allocates");
        assert_eq!(s.recycled(), 198);
    }
}
