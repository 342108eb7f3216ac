//! Per-connection state for the reactor front end, in two halves.
//!
//! The **read half** ([`Conn`]) belongs to the reactor thread alone: an
//! incremental [`FrameDecoder`] fed from the non-blocking socket. The
//! **write half** ([`WriteHalf`]) is shared with whichever thread
//! finishes a race: an outbound queue of **pre-encoded reply frames**
//! (a reply is encoded exactly once — into a ring slot or a heap spill
//! — before it reaches the connection, and the socket write reads
//! straight out of that backing store) behind one small lock. The
//! thread that decides a race takes the lock, fills the request's
//! reply slot and writes to the socket right there; the reactor is
//! roused only for what is left over.
//!
//! Because requests pipeline — a client may send several RUN frames
//! before the first reply lands — every request is assigned a
//! monotonically increasing *sequence number* at decode time, and
//! reply frames are released to the write queue strictly in sequence
//! order: a reply for seq 3 parks in its slot until seqs 1 and 2 have
//! been released, so replies always come back in request order no
//! matter which race finishes first *or which thread delivers it*.
//! That order, "each reply once" and "no byte after close" are mutual-
//! exclusion properties of the write half's lock, not by-products of a
//! single owning thread; [`WriteState`] takes its writer as a
//! parameter so the module's tests check them against scripted writers
//! under seeded delivery schedules.
//!
//! Lifecycle: `Open` (reading and writing) → `read_closed` (peer EOF, a
//! protocol error, or server drain: no new requests, in-flight replies
//! still flush) → reclaimed by the reactor once the last owed reply is
//! flushed, or at once when the socket fails. Reclaiming marks the
//! write half **closed** under its lock: a race still in flight keeps
//! an `Arc` of the half (so the fd number cannot be reused under it),
//! and its late delivery drops the frame instead of writing — dropping
//! a [`ReplyFrame`] reclaims its ring slot by destructor, so a dying
//! connection can never leak a slot.

use crate::bufpool::BufPool;
use crate::frame::{FrameDecoder, FrameError};
use crate::reactor::{POLLIN, POLLOUT};
use crate::ring::EncodedReply;
use crate::telemetry::ShardStats;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, PoisonError};

/// One encoded reply frame queued on a connection, either exclusively
/// owned or shared across the N waiters of a coalesced batch — the
/// fan-out hands every waiter the *same* encoding (one slot, read N
/// times) instead of re-encoding per waiter.
pub(crate) enum ReplyFrame {
    /// Sole recipient: the common case.
    Own(EncodedReply),
    /// Coalesced fan-out: shared by every waiter of one batch.
    Shared(Arc<EncodedReply>),
}

impl ReplyFrame {
    /// The wire bytes (length prefix + body) of the whole frame.
    fn bytes(&self) -> &[u8] {
        match self {
            ReplyFrame::Own(reply) => reply.bytes(),
            ReplyFrame::Shared(reply) => reply.bytes(),
        }
    }

    /// Retires the frame after its last byte is written: ring slots
    /// reclaim by drop; a heap spill recycles into `pool` when the
    /// reactor thread (the pool's owner) wrote it and is dropped when
    /// any other thread did. For a shared frame only the last waiter's
    /// release recycles.
    fn retire(self, pool: Option<&mut BufPool>) {
        let Some(pool) = pool else { return };
        match self {
            ReplyFrame::Own(reply) => reply.recycle(pool),
            ReplyFrame::Shared(reply) => {
                if let Ok(reply) = Arc::try_unwrap(reply) {
                    reply.recycle(pool);
                }
            }
        }
    }
}

/// What a readiness-driven read pass produced.
pub(crate) struct ReadOutcome {
    /// Complete frame bodies, in arrival order. Drawn from the shard's
    /// [`BufPool`]; the reactor returns each to the pool once handled.
    pub frames: Vec<Vec<u8>>,
    /// A framing error (oversized prefix, EOF mid-frame). The
    /// connection stops reading; the reactor owes the peer one error
    /// reply before close.
    pub error: Option<FrameError>,
}

/// The read half of one client connection: owned by the reactor.
pub(crate) struct Conn {
    decoder: FrameDecoder,
    write: Arc<WriteHalf>,
}

impl Conn {
    /// Takes a fresh socket; `stats` is the owning shard's, for the
    /// `conns_active` gauge the write half keeps.
    pub(crate) fn new(stream: TcpStream, stats: Arc<ShardStats>) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            decoder: FrameDecoder::new(),
            write: Arc::new(WriteHalf {
                stream,
                state: Mutex::new(WriteState::new(stats)),
            }),
        })
    }

    /// Reads until the socket is drained (or EOF), returning every
    /// complete frame that became available in pool-recycled buffers.
    /// A short read is a drained socket: the poll is level-triggered, so
    /// bytes that land after it — or the EOF behind them — are reported
    /// again, and asking once more now could only answer `WouldBlock`.
    /// `Err` means the transport itself failed and the connection is
    /// unsalvageable.
    pub(crate) fn on_readable(&mut self, pool: &mut BufPool) -> io::Result<ReadOutcome> {
        let mut buf = [0u8; 8192];
        let mut eof = false;
        loop {
            match (&self.write.stream).read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    self.decoder.extend(&buf[..n]);
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let mut frames = Vec::new();
        let mut error = None;
        loop {
            let mut body = pool.get();
            match self.decoder.next_frame_into(&mut body) {
                Ok(true) => frames.push(body),
                Ok(false) => {
                    pool.put(body);
                    break;
                }
                Err(e) => {
                    pool.put(body);
                    error = Some(e);
                    break;
                }
            }
        }
        if error.is_none() && eof {
            // EOF with a partial frame buffered is a truncation, not a
            // clean disconnect.
            error = self.decoder.finish().err();
        }
        if eof || error.is_some() {
            self.write.close_read();
        }
        Ok(ReadOutcome { frames, error })
    }

    /// The half shared with the threads that deliver replies.
    pub(crate) fn write_half(&self) -> &Arc<WriteHalf> {
        &self.write
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.write.stream
    }
}

/// Where one reply is owed: a connection's write half and the request's
/// sequence number on it. A handle any thread can deliver through; a
/// race in flight carries one per request waiting on it.
pub(crate) type ReplySlot = (Arc<WriteHalf>, u64);

/// The write half of one client connection: the socket and the ordered
/// reply state, behind the one lock every delivering thread takes.
pub(crate) struct WriteHalf {
    stream: TcpStream,
    state: Mutex<WriteState>,
}

impl WriteHalf {
    /// Runs `f` on the locked state with the socket as its writer.
    fn locked<R>(&self, f: impl FnOnce(&mut WriteState, &mut &TcpStream) -> R) -> R {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut state, &mut &self.stream)
    }

    /// See [`WriteState::begin_request`].
    pub(crate) fn begin_request(&self) -> u64 {
        self.locked(|state, _| state.begin_request())
    }

    /// See [`WriteState::deliver`]. `pool` is `Some` on the reactor
    /// thread only.
    pub(crate) fn deliver(&self, seq: u64, frame: ReplyFrame, pool: Option<&mut BufPool>) -> bool {
        self.locked(|state, stream| state.deliver(seq, frame, stream, pool))
    }

    /// The socket reported writable: flushes what a delivery left
    /// behind. `false` when nothing was queued — some delivery drained
    /// it between the poll registration and the event.
    pub(crate) fn on_writable(&self, pool: &mut BufPool) -> bool {
        self.locked(|state, stream| {
            let had_output = state.has_output();
            state.flush(stream, Some(pool));
            had_output
        })
    }

    /// Stops accepting requests (peer EOF, protocol error); in-flight
    /// replies still flush.
    pub(crate) fn close_read(&self) {
        self.locked(|state, _| state.read_closed = true);
    }

    /// The reactor's one look per turn: the poll interest for the
    /// coming `poll`, or `None` when the connection has served its
    /// purpose (or its socket failed) — in which case the half is
    /// closed by this very call and the reactor drops the connection.
    pub(crate) fn interest(&self, draining: bool) -> Option<i16> {
        self.locked(|state, _| {
            let interest = state.interest(draining);
            if interest.is_none() {
                state.close();
            }
            interest
        })
    }

    /// See [`WriteState::close`].
    pub(crate) fn close(&self) {
        self.locked(|state, _| state.close());
    }
}

/// The ordered reply state of one connection — everything the write
/// half's lock protects. The writer is a parameter of every method that
/// writes, so the lock's contract is checked without a socket.
pub(crate) struct WriteState {
    /// Deliverable reply frames, in request order, awaiting the socket.
    out: VecDeque<ReplyFrame>,
    /// How much of the *front* frame has already been written.
    out_pos: usize,
    /// Reply slots of the requests still owed a reply, dense and in
    /// seq order (the front slot belongs to `next_seq - pending.len()`):
    /// `None` until the reply for that seq is known.
    pending: VecDeque<Option<ReplyFrame>>,
    next_seq: u64,
    /// No more requests will be read (peer EOF or protocol error).
    read_closed: bool,
    /// A socket write failed: the peer is unreachable, nothing more is
    /// written, and the reactor reclaims the connection.
    failed: bool,
    /// The reactor reclaimed the connection; late deliveries drop.
    closed: bool,
    /// The owning shard's counters: `conns_active` moves here, at this
    /// connection's transitions between no request in flight and some
    /// — under the lock, so concurrent deliveries cannot count one
    /// twice, and before the reply is written, so whoever has read the
    /// last reply reads a gauge that already shows it.
    stats: Arc<ShardStats>,
}

impl WriteState {
    pub(crate) fn new(stats: Arc<ShardStats>) -> Self {
        WriteState {
            out: VecDeque::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            read_closed: false,
            failed: false,
            closed: false,
            stats,
        }
    }

    /// Assigns the next request sequence number and opens its reply
    /// slot.
    pub(crate) fn begin_request(&mut self) -> u64 {
        let was_active = !self.pending.is_empty();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(None);
        self.note_activity(was_active);
        seq
    }

    /// Moves the `conns_active` gauge if this connection has gone
    /// between idle and in flight since `was_active` was true of it.
    fn note_activity(&self, was_active: bool) {
        match (was_active, !self.pending.is_empty()) {
            (false, true) => self.stats.on_conn_active(),
            (true, false) => self.stats.on_conn_idle(),
            _ => {}
        }
    }

    /// Fills the reply slot for `seq` with an already-encoded frame,
    /// releases every reply that is now deliverable in order, and
    /// writes as much as `w` accepts, on the calling thread. Unknown or
    /// already-filled seqs are ignored — this is what makes "answered
    /// once" a property of the slot rather than of its holders: the
    /// reactor sheds a refused race from its own copy of the slots
    /// without asking who else has one — and a closed half ignores
    /// everything; the orphaned frame just drops, which reclaims its
    /// ring slot.
    ///
    /// Returns whether the reactor has something to do for this
    /// connection: output is left over (`POLLOUT` must be registered),
    /// the write failed, or the last owed reply of a connection that
    /// reads no more is out and it can be reclaimed. The caller rouses
    /// the reactor *after* letting go of the lock.
    ///
    /// The frame arrives fully encoded (MAX_FRAME was enforced at
    /// encode time by the shared header writer), so parking on an
    /// earlier seq holds a slot handle, not a copy, and release is a
    /// queue push — zero bytes move.
    pub(crate) fn deliver(
        &mut self,
        seq: u64,
        frame: ReplyFrame,
        w: &mut impl Write,
        pool: Option<&mut BufPool>,
    ) -> bool {
        if self.closed {
            return false;
        }
        let was_active = !self.pending.is_empty();
        let front_seq = self.next_seq - self.pending.len() as u64;
        let slot = seq
            .checked_sub(front_seq)
            .and_then(|i| self.pending.get_mut(usize::try_from(i).ok()?))
            .filter(|slot| slot.is_none());
        if let Some(slot) = slot {
            *slot = Some(frame);
        }
        while let Some(Some(_)) = self.pending.front() {
            let frame = self.pending.pop_front().flatten().expect("checked Some");
            self.out.push_back(frame);
        }
        self.note_activity(was_active);
        self.flush(w, pool);
        self.has_output() || self.interest(false).is_none()
    }

    /// Writes queued reply frames until `w` would block, directly from
    /// each frame's backing store (ring slot or spill buffer), retiring
    /// a frame the moment its last byte is accepted — that retirement
    /// *is* slot reclamation. A failed write marks the half `failed`.
    pub(crate) fn flush(&mut self, w: &mut impl Write, mut pool: Option<&mut BufPool>) {
        while !self.failed {
            let Some(front) = self.out.front() else {
                return;
            };
            let rest = &front.bytes()[self.out_pos..];
            if rest.is_empty() {
                self.out_pos = 0;
                let done = self.out.pop_front().expect("front exists");
                done.retire(pool.as_deref_mut());
                continue;
            }
            match w.write(rest) {
                Ok(0) => self.failed = true,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.failed = true,
            }
        }
    }

    /// Reclaims the connection: every queued and parked frame drops
    /// (ring slots return home), no request stays in flight, and every
    /// later delivery is ignored.
    pub(crate) fn close(&mut self) {
        let was_active = !self.pending.is_empty();
        self.closed = true;
        self.out.clear();
        self.out_pos = 0;
        self.pending.clear();
        self.note_activity(was_active);
    }

    /// Unflushed reply frames are waiting on the socket.
    fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// The poll interest set for the current state; `None` when the
    /// socket failed or the connection reads no more (`read_closed`, or
    /// the server is `draining`) and every owed reply is flushed.
    fn interest(&self, draining: bool) -> Option<i16> {
        let reading = !self.read_closed && !draining;
        if self.failed || (!reading && self.pending.is_empty() && !self.has_output()) {
            return None;
        }
        let mut events = 0;
        if reading {
            events |= POLLIN;
        }
        if self.has_output() {
            events |= POLLOUT;
        }
        Some(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Response;
    use crate::ring::ReplyRing;
    use altx_check::{check, CaseRng};

    /// What the scripted writer does with its next `write` call.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Accepts at most this many bytes.
        Accept(usize),
        WouldBlock,
        Fail,
    }

    /// A writer that follows a script, then blocks; everything it
    /// accepted is the byte stream the peer would see.
    #[derive(Default)]
    struct Scripted {
        script: VecDeque<Step>,
        wire: Vec<u8>,
        failed: bool,
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            assert!(!self.failed, "a write after the writer failed");
            match self.script.pop_front().unwrap_or(Step::WouldBlock) {
                Step::Accept(n) => {
                    let n = n.min(buf.len());
                    self.wire.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                Step::WouldBlock => Err(io::ErrorKind::WouldBlock.into()),
                Step::Fail => {
                    self.failed = true;
                    Err(io::ErrorKind::BrokenPipe.into())
                }
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const SLOTS: usize = 4;

    /// A ring, a pool and a fresh write state counting into their shard.
    fn shard() -> (ReplyRing, BufPool, Arc<ShardStats>, WriteState) {
        let ring = ReplyRing::new(SLOTS, 128);
        let pool = BufPool::default();
        let stats = Arc::new(ShardStats::new(pool.stats(), ring.stats()));
        let state = WriteState::new(Arc::clone(&stats));
        (ring, pool, stats, state)
    }

    /// The reply to request `seq`: most fit a ring slot, every fifth is
    /// too big for one, and with more requests than slots some spill
    /// for want of a slot.
    fn reply(seq: u64, ring: &ReplyRing, shared: bool) -> (ReplyFrame, Vec<u8>) {
        let response = if seq % 5 == 4 {
            Response::Text {
                body: format!("{seq}:").repeat(60),
            }
        } else {
            Response::Ok {
                winner: 1,
                winner_name: "alt1".to_owned(),
                latency_us: 7,
                value: seq,
            }
        };
        let reply = EncodedReply::encode(&response, ring);
        let bytes = reply.bytes().to_vec();
        let frame = if shared {
            ReplyFrame::Shared(Arc::new(reply))
        } else {
            ReplyFrame::Own(reply)
        };
        (frame, bytes)
    }

    fn script(rng: &mut CaseRng, fail_p: f64) -> VecDeque<Step> {
        rng.vec(0, 5, |rng| match rng.usize_in(0, 10) {
            0 if rng.chance(fail_p) => Step::Fail,
            0 | 1 => Step::WouldBlock,
            2 => Step::Accept(usize::MAX),
            _ => Step::Accept(rng.usize_in(1, 40)),
        })
        .into()
    }

    /// The write half's contract, for any order in which requests
    /// begin, replies are delivered (late, twice, for seqs that never
    /// existed), the peer stops sending, the socket accepts, blocks or
    /// fails, and the reactor reclaims the connection: the peer sees
    /// exactly the frames in seq order, each once; `deliver` asks for
    /// the reactor iff output is left, the write failed, or the
    /// connection became closable; a closed half writes nothing; the
    /// `conns_active` gauge is 1 exactly while a reply is owed; and
    /// every ring slot comes home.
    #[test]
    fn any_delivery_schedule_writes_each_frame_once_in_seq_order() {
        check("write_half_schedules", 2_500, |rng| {
            let (ring, mut pool, stats, mut state) = shard();
            let mut w = Scripted::default();
            let fail_p = *rng.pick(&[0.0, 0.0, 0.5]);
            let close_at = rng.option(0.3, |rng| rng.usize_in(0, 30));

            let n = rng.usize_in(1, 13) as u64;
            let mut begun = 0u64;
            let mut undelivered: Vec<u64> = Vec::new();
            let mut delivered = vec![false; n as usize];
            let mut frames: Vec<Vec<u8>> = vec![Vec::new(); n as usize];
            let (mut read_closed, mut closed) = (false, false);

            let mut step = 0;
            while begun < n || !undelivered.is_empty() {
                step += 1;
                if close_at == Some(step) && !closed {
                    state.close();
                    closed = true;
                }
                if begun < n && !read_closed && (undelivered.is_empty() || rng.chance(0.4)) {
                    assert_eq!(state.begin_request(), begun, "seqs are dense");
                    undelivered.push(begun);
                    begun += 1;
                    continue;
                }
                if !read_closed && rng.chance(0.1) {
                    state.read_closed = true;
                    read_closed = true;
                    continue;
                }
                if undelivered.is_empty() {
                    break; // the peer stopped sending with nothing owed
                }
                // A real delivery, or a stray: a duplicate of one
                // already made, or a seq no request ever had.
                let seq = if rng.chance(0.15) {
                    rng.u64_below(begun + 3)
                } else {
                    undelivered.swap_remove(rng.usize_in(0, undelivered.len()))
                };
                let stray = seq >= begun || delivered[seq as usize];
                // A stray carries bytes no real reply has, so one that
                // displaced a parked frame would show on the wire.
                let content = if stray { seq + 1_000 } else { seq };
                let (frame, bytes) = reply(content, &ring, rng.bool());
                if !stray {
                    undelivered.retain(|&s| s != seq);
                    delivered[seq as usize] = true;
                    frames[seq as usize] = bytes;
                }
                w.script.extend(script(rng, fail_p));
                let wire_before = w.wire.len();
                let pool = rng.bool().then_some(&mut pool);
                let needs_reactor = state.deliver(seq, frame, &mut w, pool);

                // The model: everything deliverable in order, so far.
                let released = delivered.iter().take_while(|d| **d).count();
                let expected: Vec<u8> = frames[..released].concat();
                assert!(expected.starts_with(&w.wire), "frames in seq order, once");
                if closed {
                    assert_eq!(w.wire.len(), wire_before, "a closed half writes nothing");
                    assert!(!needs_reactor, "a closed half needs nobody");
                    continue;
                }
                let owed = released as u64 != begun;
                assert_eq!(stats.conns_active(), u64::from(owed), "active iff owed");
                let output_left = w.wire.len() < expected.len();
                let closable = read_closed && released as u64 == begun && !output_left;
                assert_eq!(
                    needs_reactor,
                    w.failed || output_left || closable,
                    "failed {} output_left {output_left} closable {closable}",
                    w.failed
                );
            }

            // The reactor's part: POLLOUT until the socket took it all.
            if !closed && !w.failed {
                w.script = vec![Step::Accept(usize::MAX); 64].into();
                state.flush(&mut w, Some(&mut pool));
                let released = delivered.iter().take_while(|d| **d).count();
                assert_eq!(w.wire, frames[..released].concat(), "every released frame");
                assert_eq!(
                    state.interest(false).is_none(),
                    read_closed && released as u64 == begun
                );
            }
            state.close();
            assert_eq!(stats.conns_active(), 0, "a closed connection is not active");
            assert_eq!(ring.idle_slots(), SLOTS, "every slot returned to the ring");
        });
    }

    #[test]
    fn stray_deliveries_are_ignored() {
        let (ring, _pool, _stats, mut state) = shard();
        let mut w = Scripted {
            script: vec![Step::Accept(usize::MAX); 8].into(),
            ..Scripted::default()
        };
        let (first, second) = (state.begin_request(), state.begin_request());

        // A seq nobody was given, then the real second reply twice: the
        // duplicate must not displace the frame already parked.
        assert!(!state.deliver(7, reply(7, &ring, false).0, &mut w, None));
        let (frame, second_bytes) = reply(second, &ring, false);
        assert!(!state.deliver(second, frame, &mut w, None));
        assert!(!state.deliver(second, reply(99, &ring, false).0, &mut w, None));
        assert!(w.wire.is_empty(), "seq 1 parks behind seq 0");

        let (frame, first_bytes) = reply(first, &ring, false);
        assert!(!state.deliver(first, frame, &mut w, None));
        assert_eq!(w.wire, [first_bytes, second_bytes].concat());
        // Already released: ignored, and its slot comes straight back.
        assert!(!state.deliver(first, reply(first, &ring, false).0, &mut w, None));
        assert_eq!(ring.idle_slots(), SLOTS);
    }
}
