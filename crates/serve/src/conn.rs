//! Per-connection state for the reactor front end — accepted or dialled
//! alike — in two halves.
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
//! A result pushed for a peer's shipped alternative ([`WriteState::push`])
//! takes no sequence number: it joins the queue between whole frames.
//!
//! The write half also holds the **shipped legs** of its connection: the
//! cancel token of every alternative a peer shipped on it with
//! `EXEC_ALT` and still running here, registered before the job is
//! submitted ([`WriteState::ship`]). A leg leaves when its result push
//! retires it — in the same lock hold as the push — or its submission is
//! refused; an `ELIMINATE` on the connection cancels its race's legs
//! there and nowhere else ([`WriteState::eliminate`]); and closing the
//! half, however the connection ends, cancels every leg left. A shipped
//! alternative lives no longer than the link that shipped it: its
//! result could only ever come home on that link.
//!
//! A **dialled** connection ([`Conn::dial`]) carries a peer's address:
//! its frames are replies for its link, it writes only the unsequenced
//! frames the link asks for ([`WriteState::write_link`]), counts in no
//! gauge and reads on through a drain. Its halves hold the chaos sites
//! `peer.link.<addr>.send` / `.recv`, which do only what TCP can: a
//! stalled direction neither writes nor reads; a `Truncate` cuts a
//! write in half and closes, or takes a frame read as the close; a
//! `Delay` sleeps shard 0. With no fault plan each is one relaxed load.
//!
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
//! write half **closed** under its lock and cancels its shipped legs: a
//! race still in flight keeps
//! an `Arc` of the half (so the fd number cannot be reused under it),
//! and its late delivery drops the frame instead of writing — dropping
//! an [`EncodedReply`] reclaims its ring slot by destructor, so a dying
//! connection can never leak a slot.

use crate::bufpool::BufPool;
use crate::frame::{FrameDecoder, FrameError};
use crate::ring::EncodedReply;
use crate::sys::{connect_nonblocking, POLLIN, POLLOUT};
use crate::telemetry::ShardStats;
use altx::faults::{self, NetFault};
use altx::CancelToken;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};

/// What a readiness-driven read pass ended with, beside its frames.
pub(crate) struct ReadOutcome {
    /// A framing error (oversized prefix, EOF mid-frame). The
    /// connection stops reading; the reactor owes the peer one error
    /// reply before close.
    pub error: Option<FrameError>,
    /// The peer sent its last byte (EOF, or a `.recv` site's cut).
    pub eof: bool,
}

/// The read half of one connection: owned by the reactor.
pub(crate) struct Conn {
    decoder: FrameDecoder,
    /// A dial whose connect is still out: writability says it is done.
    pub(crate) dialling: bool,
    write: Arc<WriteHalf>,
}

impl Conn {
    /// Takes a freshly accepted socket; `stats` is the owning shard's,
    /// for the `conns_active` gauge the write half keeps.
    pub(crate) fn new(stream: TcpStream, stats: Arc<ShardStats>) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self::with(stream, None, Some(stats)))
    }

    /// Starts a non-blocking connect to the peer `addr` (at `to`).
    pub(crate) fn dial(addr: String, to: SocketAddr) -> io::Result<Self> {
        let conn = Self::with(connect_nonblocking(to)?, Some(addr), None);
        Ok(Conn {
            dialling: true,
            ..conn
        })
    }

    fn with(stream: TcpStream, link: Option<String>, stats: Option<Arc<ShardStats>>) -> Self {
        Conn {
            decoder: FrameDecoder::new(),
            dialling: false,
            write: Arc::new(WriteHalf {
                stream,
                link,
                state: Mutex::new(WriteState::new(stats)),
            }),
        }
    }

    /// The dial's socket turned writable: whether it connected.
    pub(crate) fn finish_dial(&mut self) -> bool {
        self.dialling = false;
        let stream = &self.write.stream;
        matches!(stream.take_error(), Ok(None)) && stream.set_nodelay(true).is_ok()
    }

    /// The reactor's one look per turn: the poll interest for the
    /// coming `poll`, or `None` when the connection is done (the write
    /// half is then closed by this very call). A dial out waits to turn
    /// writable; a link reads on through a drain, but not stalled.
    pub(crate) fn interest(&self, draining: bool) -> Option<i16> {
        let link = self.write.link.as_deref();
        let events = self.write.locked(|state, _| {
            let interest = state.interest(draining && link.is_none());
            if interest.is_none() {
                state.close();
            }
            interest
        })?;
        if self.dialling {
            Some(POLLOUT)
        } else if stalled(link, "recv") {
            Some(events & !POLLIN)
        } else {
            Some(events)
        }
    }

    /// Reads until the socket is drained (or EOF), each read straight
    /// into the decoder's buffer, and appends every complete frame that
    /// became available to `frames`, in pool-recycled buffers (the
    /// reactor returns each to the pool once handled).
    /// A read that leaves room is a drained socket: the poll is
    /// level-triggered, so bytes that land after it — or the EOF behind
    /// them — are reported again, and asking once more now could only
    /// answer `WouldBlock`.
    /// A link reads nothing while stalled and draws its `.recv` site per
    /// frame: a cut takes that frame and the rest as the end of stream.
    /// `Err` means the transport itself failed and the connection is
    /// unsalvageable.
    pub(crate) fn on_readable(
        &mut self,
        pool: &mut BufPool,
        frames: &mut Vec<Vec<u8>>,
    ) -> io::Result<ReadOutcome> {
        let link = self.write.link.as_deref();
        let mut eof = false;
        while !stalled(link, "recv") {
            match self.decoder.read_from(&mut &self.write.stream) {
                Ok((0, _)) => {
                    eof = true;
                    break;
                }
                // The read filled the room: more may be waiting.
                Ok((_, true)) => {}
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let cut = || wire_fault(link, "recv") == Some(NetFault::Truncate);
        let mut error = None;
        loop {
            let mut body = pool.get();
            match self.decoder.next_frame_into(&mut body) {
                Ok(true) if cut() => {
                    pool.put(body);
                    eof = true;
                    break;
                }
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
        Ok(ReadOutcome { error, eof })
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
/// race in flight carries its request's.
pub(crate) type ReplySlot = (Arc<WriteHalf>, u64);

/// The write half of one connection: the socket and the ordered reply
/// state, behind the one lock every delivering thread takes.
pub(crate) struct WriteHalf {
    stream: TcpStream,
    /// The peer of a dialled connection; `None` for an accepted one.
    pub(crate) link: Option<String>,
    state: Mutex<WriteState>,
}

impl WriteHalf {
    /// Runs `f` on the locked state with the socket as its writer (and
    /// a link's `.send` stall looked up).
    fn locked<R>(&self, f: impl FnOnce(&mut WriteState, &mut &TcpStream) -> R) -> R {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.stalled = stalled(self.link.as_deref(), "send");
        f(&mut state, &mut &self.stream)
    }

    /// See [`WriteState::begin_request`].
    pub(crate) fn begin_request(&self) -> u64 {
        self.locked(|state, _| state.begin_request())
    }

    /// See [`WriteState::deliver`]. `pool` is `Some` on the reactor
    /// thread only.
    pub(crate) fn deliver(
        &self,
        seq: u64,
        frame: EncodedReply,
        pool: Option<&mut BufPool>,
    ) -> bool {
        self.locked(|state, stream| state.deliver(seq, frame, stream, pool))
    }

    /// See [`WriteState::push`]; retires the leg request `seq` shipped.
    pub(crate) fn push(&self, seq: u64, frame: EncodedReply) -> bool {
        self.locked(|state, stream| {
            state.retire(seq);
            state.push(frame, stream)
        })
    }

    /// [`WriteState::write_link`] after the `.send` site's draw; `false`
    /// once the stream is broken (cut, or refused) and must be closed.
    pub(crate) fn write_link(&self, frame: Vec<u8>) -> bool {
        let cut = wire_fault(self.link.as_deref(), "send") == Some(NetFault::Truncate);
        self.locked(|state, stream| state.write_link(frame, cut, stream))
    }

    /// See [`WriteState::ship`].
    pub(crate) fn ship(&self, seq: u64, race_id: u64, token: CancelToken) {
        self.locked(|state, _| state.ship(seq, race_id, token));
    }

    /// See [`WriteState::retire`].
    pub(crate) fn retire(&self, seq: u64) {
        self.locked(|state, _| state.retire(seq));
    }

    /// See [`WriteState::eliminate`].
    pub(crate) fn eliminate(&self, race_id: u64) -> usize {
        self.locked(|state, _| state.eliminate(race_id))
    }

    /// The socket reported writable: flushes what a delivery left
    /// behind. `false` when an open half had nothing queued — some
    /// delivery drained it between the poll registration and the event.
    pub(crate) fn on_writable(&self, pool: &mut BufPool) -> bool {
        self.locked(|state, stream| {
            let had_output = state.closed || state.has_output();
            state.flush(stream, Some(pool));
            had_output
        })
    }

    /// Stops accepting requests (peer EOF, protocol error); in-flight
    /// replies still flush.
    pub(crate) fn close_read(&self) {
        self.locked(|state, _| state.read_closed = true);
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
    out: VecDeque<EncodedReply>,
    /// How much of the *front* frame has already been written.
    out_pos: usize,
    /// Reply slots of the requests still owed a reply, dense and in
    /// seq order (the front slot belongs to `next_seq - pending.len()`):
    /// `None` until the reply for that seq is known.
    pending: VecDeque<Option<EncodedReply>>,
    next_seq: u64,
    /// No more requests will be read (peer EOF or protocol error).
    read_closed: bool,
    /// A socket write failed: the peer is unreachable, nothing more is
    /// written, and the reactor reclaims the connection.
    failed: bool,
    /// The reactor reclaimed the connection; late deliveries drop.
    closed: bool,
    /// The writes are stalled: nothing is written, no `POLLOUT` asked.
    stalled: bool,
    /// The legs peers shipped on this connection that still run here:
    /// `(seq, race_id, token)`, `seq` being the `EXEC_ALT`'s own, so a
    /// doubled `EXEC_ALT` is two legs and each push retires its own.
    legs: Vec<(u64, u64, CancelToken)>,
    /// The owning shard's counters, for an accepted connection (a
    /// dialled one counts in no gauge): `conns_active` moves here, at
    /// this connection's transitions between no request in flight and
    /// some — under the lock, so concurrent deliveries cannot count one
    /// twice, and before the reply is written, so whoever has read the
    /// last reply reads a gauge that already shows it.
    stats: Option<Arc<ShardStats>>,
}

impl WriteState {
    pub(crate) fn new(stats: Option<Arc<ShardStats>>) -> Self {
        WriteState {
            out: VecDeque::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            read_closed: false,
            failed: false,
            closed: false,
            stalled: false,
            legs: Vec::new(),
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
        let Some(stats) = &self.stats else {
            return;
        };
        match (was_active, !self.pending.is_empty()) {
            (false, true) => stats.on_conn_active(),
            (true, false) => stats.on_conn_idle(),
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
        frame: EncodedReply,
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

    /// Queues a frame that answers no request — a leg's result, a link's
    /// frame — behind the whole frames queued, and writes as
    /// [`WriteState::deliver`] does; a closed half drops it.
    pub(crate) fn push(&mut self, frame: EncodedReply, w: &mut impl Write) -> bool {
        if self.closed {
            return false;
        }
        self.out.push_back(frame);
        self.flush(w, None);
        self.has_output() || self.interest(false).is_none()
    }

    /// Pushes a link's frame — only its first half if `cut`, and then
    /// the half closes: a crash mid-write. Whether the stream is whole.
    pub(crate) fn write_link(&mut self, mut frame: Vec<u8>, cut: bool, w: &mut impl Write) -> bool {
        if cut {
            frame.truncate(frame.len() / 2);
        }
        self.push(EncodedReply::Heap(frame), w);
        if cut {
            self.close();
        }
        !(self.closed || self.failed)
    }

    /// Holds the token of the leg request `seq` shipped for `race_id`
    /// until its push retires it; a closed half cancels it at once.
    pub(crate) fn ship(&mut self, seq: u64, race_id: u64, token: CancelToken) {
        if self.closed {
            token.cancel();
        } else {
            self.legs.push((seq, race_id, token));
        }
    }

    /// Lets go of the leg request `seq` shipped, uncancelled.
    pub(crate) fn retire(&mut self, seq: u64) {
        self.legs.retain(|&(s, ..)| s != seq);
    }

    /// Cancels every leg of `race_id` shipped on this connection; how
    /// many there were.
    pub(crate) fn eliminate(&mut self, race_id: u64) -> usize {
        let before = self.legs.len();
        self.legs.retain(|(_, r, token)| {
            if *r == race_id {
                token.cancel();
            }
            *r != race_id
        });
        before - self.legs.len()
    }

    /// Writes queued frames until `w` would block, directly from each
    /// frame's backing store (ring slot or spill buffer), retiring a
    /// frame the moment its last byte is accepted — that retirement
    /// *is* slot reclamation — and nothing while the writes are
    /// stalled. A heap spill recycles into `pool` when the reactor
    /// thread (the pool's owner) wrote it and is dropped when any other
    /// thread did. A failed write marks the half `failed`.
    pub(crate) fn flush(&mut self, w: &mut impl Write, mut pool: Option<&mut BufPool>) {
        while !self.failed && !self.stalled {
            let Some(front) = self.out.front() else {
                return;
            };
            let rest = &front.bytes()[self.out_pos..];
            if rest.is_empty() {
                self.out_pos = 0;
                let done = self.out.pop_front().expect("front exists");
                if let Some(pool) = pool.as_deref_mut() {
                    done.recycle(pool);
                }
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
    /// (ring slots return home), no request stays in flight, every leg
    /// still shipped on it is cancelled, and every later delivery is
    /// ignored.
    pub(crate) fn close(&mut self) {
        let was_active = !self.pending.is_empty();
        self.closed = true;
        self.legs.drain(..).for_each(|(.., token)| token.cancel());
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
    /// half is closed, the socket failed, or the connection reads no
    /// more (`read_closed`, or the server is `draining`) and every owed
    /// reply is flushed.
    fn interest(&self, draining: bool) -> Option<i16> {
        let reading = !self.read_closed && !draining;
        let flushed = !reading && self.pending.is_empty() && !self.has_output();
        if self.closed || self.failed || flushed {
            return None;
        }
        let mut events = 0;
        if reading {
            events |= POLLIN;
        }
        if self.has_output() && !self.stalled {
            events |= POLLOUT;
        }
        Some(events)
    }
}

/// The chaos shim's draw for one frame at a dialled connection's
/// `peer.link.<addr>.<site>` (none for an accepted one, `link` `None`).
/// A delay is slept here, by shard 0 (only under a fault plan: 2 ms at
/// most by default); a cut is the caller's to apply.
fn wire_fault(link: Option<&str>, site: &str) -> Option<NetFault> {
    let addr = link.filter(|_| faults::enabled())?;
    let fault = faults::inject_net(&format!("peer.link.{addr}.{site}"));
    if let Some(NetFault::Delay(d)) = fault {
        std::thread::sleep(d);
    }
    fault
}

/// Whether the chaos plan stalls a dialled connection's
/// `peer.link.<addr>.<site>`. Asked only under a fault plan, so a
/// daemon with none formats no site name.
fn stalled(link: Option<&str>, site: &str) -> bool {
    let stalls = |addr| faults::stalled(&format!("peer.link.{addr}.{site}"));
    link.filter(|_| faults::enabled()).is_some_and(stalls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{append_frame, Request, Response};
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
        let state = WriteState::new(Some(Arc::clone(&stats)));
        (ring, pool, stats, state)
    }

    /// The reply to request `seq`: most fit a ring slot, every fifth is
    /// too big for one, and with more requests than slots some spill
    /// for want of a slot.
    fn reply(seq: u64, ring: &ReplyRing) -> (EncodedReply, Vec<u8>) {
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
        (reply, bytes)
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

    /// The result pushed for the `k`th leg a connection shipped, of race
    /// `race_id`: bytes no reply has.
    fn pushed(k: u64, race_id: u64, ring: &ReplyRing) -> (EncodedReply, Vec<u8>) {
        let response = Response::AltResult {
            race_id,
            alt_idx: 1,
            status: 0,
            value: k,
            latency_us: 3,
        };
        let frame = EncodedReply::encode(&response, ring);
        let bytes = frame.bytes().to_vec();
        (frame, bytes)
    }

    /// A frame a dialled connection's link writes, the `k`th of the
    /// case: a request, bytes no reply or push has.
    fn link_frame(k: u64) -> Vec<u8> {
        let vote = Request::CommitVote {
            race_id: k,
            origin: "a:1".to_owned(),
            candidate: format!("a:1/alt{k}"),
        };
        let mut bytes = Vec::new();
        append_frame(&mut bytes, |b| b.extend_from_slice(&vote.encode())).expect("fits");
        bytes
    }

    /// One leg a request of the case shipped, as the model sees it.
    struct Leg {
        seq: u64,
        race_id: u64,
        token: CancelToken,
        /// Its job pushed its result.
        pushed: bool,
        /// Registered, and not retired, eliminated or closed on since.
        held: bool,
        /// What the rules say its token must read.
        cancelled: bool,
    }

    /// The write half's contract, for any order in which requests
    /// begin — some of them shipping a leg of one of three races —,
    /// replies are delivered (late, twice, for seqs that never existed),
    /// legs' results are pushed, a dialled connection's link writes its
    /// unsequenced frames (one of them cut by the `.send` site), the
    /// writes stall and heal, races are eliminated, the peer stops
    /// sending, the socket accepts, blocks or fails, and the reactor
    /// reclaims the connection: the peer sees exactly the sequenced
    /// frames in seq order, each once, with every push and link frame
    /// whole between two of them, at the point it was made; no byte
    /// leaves while the writes are stalled, and after the heal every
    /// frame does; a cut leaves exactly the first half of its frame and
    /// then the half is closed; `deliver` and `push` ask for the reactor
    /// iff output is left, the write failed, or the connection became
    /// closable, and a link write says whether the stream is still
    /// whole; a closed half writes nothing; the `conns_active` gauge is
    /// 1 exactly while a reply is owed; every ring slot comes home; and
    /// after every step a leg's token is cancelled exactly when its race
    /// was eliminated on this half, or the half closed, before the leg's
    /// push retired it — so a retired token is never cancelled later, an
    /// `ELIMINATE` cancels nothing of another race and answers how many
    /// it cancelled.
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
            let (mut read_closed, mut closed, mut stalled) = (false, false, false);
            // Every frame released to the queue, in release order: what
            // the wire must be a prefix of.
            let (mut expected, mut released) = (Vec::new(), 0);
            let mut legs: Vec<Leg> = Vec::new();
            let judge_legs = |legs: &[Leg]| {
                for leg in legs {
                    let cancelled = leg.token.is_cancelled();
                    assert_eq!(
                        cancelled, leg.cancelled,
                        "leg {} of race {}",
                        leg.seq, leg.race_id
                    );
                }
            };

            let mut step = 0;
            while begun < n || !undelivered.is_empty() {
                step += 1;
                judge_legs(&legs);
                if close_at == Some(step) && !closed {
                    state.close();
                    closed = true;
                    for leg in legs.iter_mut().filter(|l| l.held) {
                        (leg.held, leg.cancelled) = (false, true);
                    }
                }
                if begun < n && !read_closed && (undelivered.is_empty() || rng.chance(0.4)) {
                    assert_eq!(state.begin_request(), begun, "seqs are dense");
                    if rng.chance(0.4) {
                        // An EXEC_ALT: its leg is held before it runs.
                        let (race_id, token) = (rng.u64_below(3), CancelToken::new());
                        state.ship(begun, race_id, token.clone());
                        legs.push(Leg {
                            seq: begun,
                            race_id,
                            token,
                            pushed: false,
                            held: !closed,
                            cancelled: closed,
                        });
                    }
                    undelivered.push(begun);
                    begun += 1;
                    continue;
                }
                if rng.chance(0.1) {
                    // An ELIMINATE for one of the races.
                    let race_id = rng.u64_below(3);
                    let mut hit = 0;
                    for leg in legs.iter_mut().filter(|l| l.held && l.race_id == race_id) {
                        (leg.held, leg.cancelled) = (false, true);
                        hit += 1;
                    }
                    assert_eq!(state.eliminate(race_id), hit, "eliminated {race_id}");
                    continue;
                }
                if !read_closed && rng.chance(0.1) {
                    state.read_closed = true;
                    read_closed = true;
                    continue;
                }
                if rng.chance(0.08) {
                    // The `.send` site's stall set, or healed.
                    stalled = !stalled;
                    state.stalled = stalled;
                    continue;
                }
                if undelivered.is_empty() {
                    break; // the peer stopped sending with nothing owed
                }
                w.script.extend(script(rng, fail_p));
                let wire_before = w.wire.len();
                if rng.chance(0.05) {
                    // The `.send` site cuts a link frame: with the socket
                    // taking everything, exactly its first half leaves.
                    let whole = !closed && !stalled && !w.failed;
                    if whole {
                        w.script = vec![Step::Accept(usize::MAX); 64].into();
                    }
                    let bytes = link_frame(step as u64);
                    if !closed {
                        expected.extend(&bytes[..bytes.len() / 2]);
                    }
                    assert!(
                        !state.write_link(bytes, true, &mut w),
                        "a cut breaks the stream"
                    );
                    assert!(expected.starts_with(&w.wire), "at most the first half");
                    if whole {
                        assert_eq!(w.wire, expected, "exactly the first half");
                    }
                    if stalled {
                        assert_eq!(w.wire.len(), wire_before, "a stalled cut writes nothing");
                    }
                    closed = true;
                    for leg in legs.iter_mut().filter(|l| l.held) {
                        (leg.held, leg.cancelled) = (false, true);
                    }
                    continue;
                }
                let running: Vec<usize> = (0..legs.len()).filter(|&k| !legs[k].pushed).collect();
                let needs_reactor = if rng.chance(0.15) {
                    // A frame of a dialled connection's link: no request
                    // is owed one, and no leg retired.
                    let bytes = link_frame(step as u64);
                    if !closed {
                        expected.extend(&bytes);
                    }
                    let whole = state.write_link(bytes, false, &mut w);
                    assert_eq!(whole, !closed && !w.failed, "the stream is whole");
                    None
                } else if !running.is_empty() && rng.chance(0.3) {
                    // A leg this connection shipped finished, cancelled
                    // or not: its push retires it.
                    let k = *rng.pick(&running);
                    let leg = &mut legs[k];
                    (leg.pushed, leg.held) = (true, false);
                    let (frame, bytes) = pushed(k as u64, leg.race_id, &ring);
                    if !closed {
                        expected.extend(bytes);
                    }
                    state.retire(leg.seq);
                    Some(state.push(frame, &mut w))
                } else {
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
                    let (frame, bytes) = reply(content, &ring);
                    if !stray {
                        undelivered.retain(|&s| s != seq);
                        delivered[seq as usize] = true;
                        frames[seq as usize] = bytes;
                    }
                    let pool = rng.bool().then_some(&mut pool);
                    let needs_reactor = state.deliver(seq, frame, &mut w, pool);
                    // Released in seq order: everything deliverable so far.
                    let now_released = delivered.iter().take_while(|d| **d).count();
                    if !closed {
                        expected.extend(frames[released..now_released].concat());
                    }
                    released = now_released;
                    Some(needs_reactor)
                };

                // The model: sequenced frames in seq order, pushes whole
                // where they were made, nothing twice.
                assert!(
                    expected.starts_with(&w.wire),
                    "frames whole, in order, once"
                );
                if stalled {
                    assert_eq!(w.wire.len(), wire_before, "no byte leaves while stalled");
                    let pollout = state.interest(false).is_some_and(|e| e & POLLOUT != 0);
                    assert!(!pollout, "no POLLOUT while stalled");
                }
                if closed {
                    assert_eq!(w.wire.len(), wire_before, "a closed half writes nothing");
                    assert_ne!(needs_reactor, Some(true), "a closed half needs nobody");
                    continue;
                }
                let owed = released as u64 != begun;
                assert_eq!(stats.conns_active(), u64::from(owed), "active iff owed");
                let output_left = w.wire.len() < expected.len();
                let closable = read_closed && !owed && !output_left;
                let Some(needs_reactor) = needs_reactor else {
                    continue;
                };
                assert_eq!(
                    needs_reactor,
                    w.failed || output_left || closable,
                    "failed {} output_left {output_left} closable {closable}",
                    w.failed
                );
            }

            // The reactor's part: once the stall heals, POLLOUT until the
            // socket took it all.
            if !closed && !w.failed {
                state.stalled = false;
                w.script = vec![Step::Accept(usize::MAX); 64].into();
                state.flush(&mut w, Some(&mut pool));
                assert_eq!(w.wire, expected, "every released frame");
                assert_eq!(
                    state.interest(false).is_none(),
                    read_closed && released as u64 == begun
                );
            }
            state.close();
            for leg in legs.iter_mut().filter(|l| l.held) {
                leg.cancelled = true;
            }
            judge_legs(&legs);
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
        assert!(!state.deliver(7, reply(7, &ring).0, &mut w, None));
        let (frame, second_bytes) = reply(second, &ring);
        assert!(!state.deliver(second, frame, &mut w, None));
        assert!(!state.deliver(second, reply(99, &ring).0, &mut w, None));
        assert!(w.wire.is_empty(), "seq 1 parks behind seq 0");

        let (frame, first_bytes) = reply(first, &ring);
        assert!(!state.deliver(first, frame, &mut w, None));
        assert_eq!(w.wire, [first_bytes, second_bytes].concat());
        // Already released: ignored, and its slot comes straight back.
        assert!(!state.deliver(first, reply(first, &ring).0, &mut w, None));
        assert_eq!(ring.idle_slots(), SLOTS);
    }
}
