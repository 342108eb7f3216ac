//! Shard-local reply rings: the zero-copy reply data plane.
//!
//! Before this module a winning reply crossed three buffers — the
//! worker encoded into a pooled scratch `Vec`, the reactor copied that
//! into the connection's write buffer, and the kernel copied it onto
//! the wire. A [`ReplyRing`] collapses the first two: the winner
//! encodes its whole frame (4-byte length prefix *and* body, via
//! [`frame::append_frame`]) directly into a reserved [`RingSlot`],
//! queues the slot handle on the connection's write half, and the
//! socket write — made by that same thread, or by the reactor for what
//! the socket would not take at once — reads straight out of the slot.
//! One copy (kernel), zero steady-state allocation.
//!
//! ## Shape
//!
//! A ring is a population of up to `slots` buffers, each retaining
//! `slot_bytes` of capacity, recycled through a freelist. A buffer is
//! made the first time a reservation finds the freelist empty while
//! fewer than `slots` exist, so a fresh ring holds none and a closed
//! loop that never has more than k replies in flight makes k — after
//! that, steady state allocates nothing ([`RingStats::made`] says how
//! many exist). "Ring" here is the population discipline, not a
//! lock-free index scheme: the crate is `#![deny(unsafe_code)]`, so
//! slots move by ownership transfer (a `Mutex<Vec<_>>` freelist,
//! uncontended in steady state) and reclamation is the [`RingSlot`]
//! destructor — a slot can be dropped anywhere (after the socket write,
//! on whichever thread made it; in a dead connection's queue; by a
//! delivery that found its connection closed) and it always returns
//! home.
//!
//! ## Spill path
//!
//! Replies that don't fit a slot (oversize, e.g. a STATS page) or
//! arrive while all `slots` slots are in flight (exhaustion) spill to a
//! plain heap `Vec` — on the reactor thread that `Vec` comes from the
//! shard's `BufPool` and goes back to it, elsewhere it is freshly
//! allocated and, if a thread other than the reactor finishes writing
//! it, dropped (the pool is the reactor's alone). Spills are counted
//! but never fail: the ring is an optimization with a
//! correctness-preserving fallback.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::bufpool::BufPool;
use crate::frame::{self, Response, MAX_FRAME};

/// One shard's ring counters and its slot gauge, shared with telemetry.
#[derive(Debug, Default)]
pub struct RingStats {
    hits: AtomicU64,
    spills: AtomicU64,
    /// Written only under the ring's freelist lock, so it is exact
    /// there; readers elsewhere see it relaxed.
    made: AtomicU64,
}

impl RingStats {
    /// Replies encoded into a ring slot.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Replies that fell back to a heap buffer — oversize for the
    /// slot geometry, or all `slots` slots were in flight.
    pub fn spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// Slot buffers that exist right now, idle or in flight: the peak
    /// number of replies the ring has held at once (a gauge, at most
    /// `slots`; it does not grow with the request count).
    pub fn made(&self) -> u64 {
        self.made.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct RingCore {
    /// Freelist of idle slot buffers; each retains `slot_bytes` of
    /// capacity across recycles so steady state never allocates.
    free: Mutex<Vec<Vec<u8>>>,
    /// The bound on buffers made: `free.len()` plus those in flight.
    slots: usize,
    slot_bytes: usize,
    stats: Arc<RingStats>,
}

impl RingCore {
    fn free(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        self.free.lock().expect("ring freelist poisoned")
    }

    /// An idle buffer, or a new one while fewer than `slots` exist;
    /// `None` when every one of them is in flight.
    fn take(&self) -> Option<Vec<u8>> {
        let mut free = self.free();
        if let Some(buf) = free.pop() {
            return Some(buf);
        }
        if self.stats.made() >= self.slots as u64 {
            return None;
        }
        self.stats.made.fetch_add(1, Ordering::Relaxed);
        drop(free);
        Some(Vec::with_capacity(self.slot_bytes))
    }
}

/// Handle to one shard's reply ring. Clones share the same slot
/// population.
#[derive(Debug, Clone)]
pub struct ReplyRing {
    core: Arc<RingCore>,
}

impl ReplyRing {
    /// A ring of up to `slots` buffers of `slot_bytes` capacity each,
    /// clamped to at least one slot of at least 64 bytes. Allocates no
    /// buffer: each is made on first use.
    pub fn new(slots: usize, slot_bytes: usize) -> Self {
        ReplyRing {
            core: Arc::new(RingCore {
                free: Mutex::new(Vec::new()),
                slots: slots.max(1),
                slot_bytes: slot_bytes.max(64),
                stats: Arc::new(RingStats::default()),
            }),
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> Arc<RingStats> {
        Arc::clone(&self.core.stats)
    }

    /// Reserves a slot able to hold a whole `frame_len`-byte frame.
    /// `None` means spill: the frame is oversize for the slot geometry
    /// or all `slots` slots are in flight. Either way the outcome is
    /// counted.
    pub fn try_reserve(&self, frame_len: usize) -> Option<RingSlot> {
        let core = &self.core;
        let buf = if frame_len > core.slot_bytes {
            None
        } else {
            core.take()
        };
        match buf {
            Some(buf) => {
                core.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(RingSlot {
                    buf,
                    core: Arc::clone(core),
                })
            }
            None => {
                core.stats.spills.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Makes every slot not yet made and touches every idle slot's full
    /// capacity from the calling thread.
    ///
    /// A buffer's pages only become resident when first written — and
    /// they become resident on the NUMA node of the *writing* core. A
    /// pinned shard calls this from its reactor thread right after
    /// pinning, so the ring's memory lands local to the shard's cores
    /// instead of wherever the first reply happened to be encoded.
    /// Counts no hit or spill and leaves every slot empty.
    pub fn first_touch(&self) {
        let core = &self.core;
        let mut free = core.free();
        let unmade = core.slots.saturating_sub(core.stats.made() as usize);
        free.extend((0..unmade).map(|_| Vec::with_capacity(core.slot_bytes)));
        core.stats.made.fetch_add(unmade as u64, Ordering::Relaxed);
        for buf in free.iter_mut() {
            buf.resize(core.slot_bytes, 0);
            buf.clear();
        }
    }

    /// Slots a reservation could take right now: the idle ones plus
    /// those not yet made (test / debug aid).
    pub fn idle_slots(&self) -> usize {
        let free = self.core.free();
        free.len() + self.core.slots - self.core.stats.made() as usize
    }
}

/// One reserved ring slot. Dropping it — from anywhere, on any thread
/// — returns the buffer to its ring's freelist, so reclamation rides
/// ordinary ownership: whoever completes the socket write drops the
/// slot, and every error path reclaims for free.
#[derive(Debug)]
pub struct RingSlot {
    buf: Vec<u8>,
    core: Arc<RingCore>,
}

impl RingSlot {
    fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for RingSlot {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let mut free = self.core.free();
        // A slot that somehow outgrew its geometry gives its place back
        // (the next reservation that needs one makes it afresh), keeping
        // the population's capacity invariant without allocating here;
        // it is freed after the lock is released.
        if buf.capacity() > self.core.slot_bytes {
            self.core.stats.made.fetch_sub(1, Ordering::Relaxed);
        } else {
            free.push(buf);
        }
    }
}

/// A fully encoded reply frame (length prefix + body), ready for the
/// socket, backed by either a ring slot or a spilled heap buffer.
/// `Send`, so the thread that finishes a race encodes it and any
/// thread may end up writing it.
#[derive(Debug)]
pub enum EncodedReply {
    /// Zero-copy path: the frame lives in a ring slot.
    Ring(RingSlot),
    /// Spill path: the frame lives in a plain heap buffer (pooled on
    /// the reactor thread, freshly allocated elsewhere).
    Heap(Vec<u8>),
}

impl EncodedReply {
    /// Encodes `resp` as one wire frame, preferring a ring slot. Used
    /// from worker threads, where no `BufPool` is reachable — a spill
    /// here allocates.
    pub fn encode(resp: &Response, ring: &ReplyRing) -> EncodedReply {
        Self::encode_inner(resp, ring, None)
    }

    /// Reactor-side variant: a spill draws its buffer from the
    /// shard's `BufPool` instead of allocating.
    pub fn encode_with(resp: &Response, ring: &ReplyRing, pool: &mut BufPool) -> EncodedReply {
        Self::encode_inner(resp, ring, Some(pool))
    }

    fn encode_inner(resp: &Response, ring: &ReplyRing, pool: Option<&mut BufPool>) -> EncodedReply {
        // The MAX_FRAME guard runs *before* any buffer is touched:
        // a reply too large for the wire is substituted, never sent
        // half-framed. `encoded_len` is exact, so the substitution is
        // decided without a throwaway encode.
        let oversized;
        let resp = if resp.encoded_len() > MAX_FRAME {
            oversized = Response::Error {
                message: "reply exceeded MAX_FRAME".to_owned(),
            };
            &oversized
        } else {
            resp
        };
        let frame_len = 4 + resp.encoded_len();
        if let Some(mut slot) = ring.try_reserve(frame_len) {
            frame::append_frame(&mut slot.buf, |b| resp.encode_into(b))
                .expect("encoded_len pre-check bounds the frame");
            return EncodedReply::Ring(slot);
        }
        let mut buf = match pool {
            Some(pool) => pool.get(),
            None => Vec::new(),
        };
        buf.reserve(frame_len);
        frame::append_frame(&mut buf, |b| resp.encode_into(b))
            .expect("encoded_len pre-check bounds the frame");
        EncodedReply::Heap(buf)
    }

    /// The complete frame (length prefix + body) as it goes on the
    /// wire.
    pub fn bytes(&self) -> &[u8] {
        match self {
            EncodedReply::Ring(slot) => slot.bytes(),
            EncodedReply::Heap(buf) => buf,
        }
    }

    /// Retires the reply after its last byte hit the socket: a ring
    /// slot reclaims via drop, a heap spill recycles into the pool.
    pub fn recycle(self, pool: &mut BufPool) {
        match self {
            EncodedReply::Ring(_) => {}
            EncodedReply::Heap(buf) => pool.put(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_resp(name: &str) -> Response {
        Response::Ok {
            winner: 1,
            winner_name: name.to_owned(),
            latency_us: 7,
            value: 42,
        }
    }

    fn assert_frame(reply: &EncodedReply, resp: &Response) {
        let bytes = reply.bytes();
        let body_len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(body_len, bytes.len() - 4, "length prefix matches body");
        assert_eq!(&Response::decode(&bytes[4..]).unwrap(), resp);
    }

    #[test]
    fn encode_hits_ring_and_roundtrips() {
        let ring = ReplyRing::new(2, 256);
        let resp = ok_resp("alpha");
        let reply = EncodedReply::encode(&resp, &ring);
        assert!(matches!(reply, EncodedReply::Ring(_)));
        assert_frame(&reply, &resp);
        assert_eq!(ring.stats().hits(), 1);
        assert_eq!(ring.stats().spills(), 0);
        assert_eq!(ring.idle_slots(), 1);
        drop(reply);
        assert_eq!(ring.idle_slots(), 2, "drop reclaims the slot");
    }

    #[test]
    fn exhaustion_spills_without_loss() {
        let ring = ReplyRing::new(1, 256);
        let resp = ok_resp("alpha");
        let first = EncodedReply::encode(&resp, &ring);
        let second = EncodedReply::encode(&resp, &ring);
        assert!(matches!(first, EncodedReply::Ring(_)));
        assert!(matches!(second, EncodedReply::Heap(_)), "exhausted → heap");
        assert_frame(&second, &resp);
        assert_eq!(ring.stats().hits(), 1);
        assert_eq!(ring.stats().spills(), 1);
        drop(first);
        let third = EncodedReply::encode(&resp, &ring);
        assert!(
            matches!(third, EncodedReply::Ring(_)),
            "reclaimed slot is reused"
        );
    }

    #[test]
    fn oversize_reply_spills() {
        let ring = ReplyRing::new(4, 64);
        let resp = Response::Text {
            body: "x".repeat(1024),
        };
        let reply = EncodedReply::encode(&resp, &ring);
        assert!(matches!(reply, EncodedReply::Heap(_)));
        assert_frame(&reply, &resp);
        assert_eq!(ring.stats().spills(), 1);
        assert_eq!(ring.idle_slots(), 4, "no slot consumed by a spill");
    }

    #[test]
    fn over_max_frame_reply_is_substituted() {
        let ring = ReplyRing::new(2, 256);
        let resp = Response::Text {
            body: "y".repeat(MAX_FRAME + 1),
        };
        let reply = EncodedReply::encode(&resp, &ring);
        match Response::decode(&reply.bytes()[4..]).unwrap() {
            Response::Error { message } => assert!(message.contains("MAX_FRAME")),
            other => panic!("expected substituted error, got {other:?}"),
        }
    }

    #[test]
    fn wraparound_recycles_the_same_buffers() {
        let ring = ReplyRing::new(2, 256);
        let resp = ok_resp("beta");
        for _ in 0..100 {
            let a = EncodedReply::encode(&resp, &ring);
            let b = EncodedReply::encode(&resp, &ring);
            assert!(matches!(a, EncodedReply::Ring(_)));
            assert!(matches!(b, EncodedReply::Ring(_)));
            assert_frame(&a, &resp);
        }
        assert_eq!(ring.stats().hits(), 200);
        assert_eq!(ring.stats().spills(), 0);
        assert_eq!(ring.idle_slots(), 2);
    }

    #[test]
    fn reactor_side_spill_draws_from_pool() {
        let ring = ReplyRing::new(1, 64);
        let mut pool = BufPool::new(4);
        pool.put(Vec::with_capacity(512));
        let resp = Response::Text {
            body: "z".repeat(256),
        };
        let reply = EncodedReply::encode_with(&resp, &ring, &mut pool);
        assert!(matches!(reply, EncodedReply::Heap(_)), "oversize → spill");
        assert_eq!(pool.held(), 0, "spill drew the pooled buffer");
        reply.recycle(&mut pool);
        assert_eq!(pool.held(), 1, "recycle returned it");
    }

    #[test]
    fn zero_slots_clamps_to_one() {
        let ring = ReplyRing::new(0, 0);
        assert_eq!(ring.idle_slots(), 1);
        let reply = EncodedReply::encode(&ok_resp("delta"), &ring);
        assert!(matches!(reply, EncodedReply::Ring(_)));
    }

    fn reserve(ring: &ReplyRing) -> RingSlot {
        ring.try_reserve(64).expect("a slot")
    }

    #[test]
    fn a_fresh_ring_holds_no_buffer() {
        let ring = ReplyRing::new(256, 1024);
        assert_eq!(ring.stats().made(), 0);
        assert!(ring.core.free().is_empty());
        assert_eq!(ring.idle_slots(), 256, "an unmade slot counts as idle");
    }

    #[test]
    fn k_overlapping_reservations_make_exactly_k_buffers() {
        let ring = ReplyRing::new(16, 256);
        let mut peak = 0;
        for k in [1, 3, 5, 2] {
            let _held: Vec<RingSlot> = (0..k).map(|_| reserve(&ring)).collect();
            peak = peak.max(k);
            assert_eq!(ring.stats().made(), peak as u64, "{k} held at once");
            assert_eq!(ring.idle_slots(), 16 - k);
        }
        assert_eq!(ring.stats().hits(), 1 + 3 + 5 + 2);
        assert_eq!(ring.idle_slots(), 16);
    }

    #[test]
    fn the_reservation_past_the_bound_spills_and_is_counted() {
        let ring = ReplyRing::new(4, 256);
        let held: Vec<RingSlot> = (0..4).map(|_| reserve(&ring)).collect();
        assert!(ring.try_reserve(64).is_none(), "slot 5 of 4 spills");
        assert_eq!(ring.stats().spills(), 1);
        assert_eq!(ring.stats().hits(), 4);
        assert_eq!(ring.stats().made(), 4, "a spill makes no slot");
        assert_eq!(ring.idle_slots(), 0);
        drop(held);
        assert_eq!(ring.idle_slots(), 4);
    }

    #[test]
    fn a_recycled_slot_is_reused_and_made_does_not_grow() {
        let ring = ReplyRing::new(256, 1024);
        let first = reserve(&ring).buf.as_ptr();
        for _ in 0..1_000 {
            let slot = reserve(&ring);
            assert_eq!(slot.buf.as_ptr(), first, "the same buffer came back");
        }
        assert_eq!(ring.stats().made(), 1);
        assert_eq!(ring.stats().hits(), 1_001);
        assert_eq!(ring.stats().spills(), 0);
    }

    #[test]
    fn first_touch_makes_and_touches_every_slot() {
        let ring = ReplyRing::new(8, 512);
        let held = reserve(&ring);
        ring.first_touch();
        assert_eq!(ring.stats().made(), 8, "the seven unmade ones are made");
        {
            let free = ring.core.free();
            assert_eq!(free.len(), 7);
            assert!(free.iter().all(|b| b.is_empty() && b.capacity() == 512));
        }
        assert_eq!(ring.stats().hits(), 1, "first-touch counts no hit");
        drop(held);
        assert_eq!(ring.idle_slots(), 8);
        ring.first_touch();
        assert_eq!(ring.stats().made(), 8, "a second first-touch makes none");
    }

    #[test]
    fn an_outgrown_slot_gives_its_place_back() {
        let ring = ReplyRing::new(2, 64);
        let mut slot = reserve(&ring);
        slot.buf.extend_from_slice(&[0; 200]);
        assert!(slot.buf.capacity() > 64);
        drop(slot);
        assert_eq!(ring.stats().made(), 0, "its place is free again");
        assert!(
            ring.core.free().is_empty(),
            "nothing allocated in its stead"
        );
        assert_eq!(ring.idle_slots(), 2);
        let again = reserve(&ring);
        assert_eq!(again.buf.capacity(), 64, "the next one is made afresh");
        assert_eq!(ring.stats().made(), 1);
    }
}
