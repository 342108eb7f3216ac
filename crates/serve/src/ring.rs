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
//! A ring is a fixed population of `slots` buffers, each retaining
//! `slot_bytes` of capacity, recycled through a freelist. "Ring" here
//! is the population discipline, not a lock-free index scheme: the
//! crate is `#![deny(unsafe_code)]`, so slots move by ownership
//! transfer (a `Mutex<Vec<_>>` freelist, uncontended in steady state)
//! and reclamation is the [`RingSlot`] destructor — a slot can be
//! dropped anywhere (after the socket write, on whichever thread made
//! it; in a dead connection's queue; by a delivery that found its
//! connection closed) and it always returns home.
//!
//! ## Spill path
//!
//! Replies that don't fit a slot (oversize, e.g. a STATS page) or
//! arrive while every slot is in flight (exhaustion) spill to a plain
//! heap `Vec` — on the reactor thread that `Vec` comes from the
//! shard's `BufPool` and goes back to it, elsewhere it is freshly
//! allocated and, if a thread other than the reactor finishes writing
//! it, dropped (the pool is the reactor's alone). Spills are counted
//! but never fail: the ring is an optimization with a
//! correctness-preserving fallback.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::bufpool::BufPool;
use crate::frame::{self, Response, MAX_FRAME};

/// Monotonic counters for one shard's ring, shared with telemetry.
#[derive(Debug, Default)]
pub struct RingStats {
    hits: AtomicU64,
    spills: AtomicU64,
}

impl RingStats {
    /// Replies encoded into a ring slot.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Replies that fell back to a heap buffer — oversize for the
    /// slot geometry, or every slot was in flight.
    pub fn spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct RingCore {
    /// Freelist of idle slot buffers; each retains `slot_bytes` of
    /// capacity across recycles so steady state never allocates.
    free: Mutex<Vec<Vec<u8>>>,
    slot_bytes: usize,
    stats: Arc<RingStats>,
}

/// Handle to one shard's reply ring. Clones share the same slot
/// population.
#[derive(Debug, Clone)]
pub struct ReplyRing {
    core: Arc<RingCore>,
}

impl ReplyRing {
    /// A ring of `slots` buffers of `slot_bytes` capacity each, clamped
    /// to at least one slot of at least 64 bytes.
    pub fn new(slots: usize, slot_bytes: usize) -> Self {
        let slot_bytes = slot_bytes.max(64);
        let free = (0..slots.max(1))
            .map(|_| Vec::with_capacity(slot_bytes))
            .collect();
        ReplyRing {
            core: Arc::new(RingCore {
                free: Mutex::new(free),
                slot_bytes,
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
    /// or every slot is in flight. Either way the outcome is counted.
    pub fn try_reserve(&self, frame_len: usize) -> Option<RingSlot> {
        let core = &self.core;
        let buf = if frame_len > core.slot_bytes {
            None
        } else {
            core.free.lock().expect("ring freelist poisoned").pop()
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

    /// Touches every idle slot's full capacity from the calling thread.
    ///
    /// `ReplyRing::new` reserves capacity but the pages only become
    /// resident when first written — and they become resident on the
    /// NUMA node of the *writing* core. A pinned shard calls this from
    /// its reactor thread right after pinning, so the ring's memory
    /// lands local to the shard's cores instead of wherever the main
    /// thread happened to run during startup. Counts nothing and leaves
    /// every slot empty.
    pub fn first_touch(&self) {
        let mut free = self.core.free.lock().expect("ring freelist poisoned");
        for buf in free.iter_mut() {
            buf.resize(self.core.slot_bytes, 0);
            buf.clear();
        }
    }

    /// Idle slots right now (test / debug aid).
    pub fn idle_slots(&self) -> usize {
        self.core.free.lock().expect("ring freelist poisoned").len()
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
        // A slot that somehow outgrew its geometry is retired and
        // replaced, keeping the population's capacity invariant.
        if buf.capacity() > self.core.slot_bytes {
            buf = Vec::with_capacity(self.core.slot_bytes);
        }
        buf.clear();
        let mut free = self.core.free.lock().expect("ring freelist poisoned");
        free.push(buf);
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
}
