//! Per-connection state machine for the reactor front end.
//!
//! A connection owns a non-blocking socket, an incremental
//! [`FrameDecoder`] for the inbound side, and an outbound queue of
//! **pre-encoded reply frames** flushed opportunistically. Since the
//! ring data plane landed, a reply is encoded exactly once — into a
//! ring slot (or a heap spill) — before it ever reaches the
//! connection; the socket write reads straight out of that backing
//! store, so the connection never copies reply bytes again.
//!
//! Because requests pipeline — a client may send several RUN frames
//! before the first reply lands — every request is assigned a
//! monotonically increasing *sequence number* at decode time, and
//! reply frames are released to the write queue strictly in sequence
//! order: a completion for seq 3 parks in its slot until seqs 1 and 2
//! have been released, so replies always come back in request order no
//! matter which race finishes first.
//!
//! Lifecycle: `Open` (reading and writing) → `read_closed` (peer EOF, a
//! protocol error, or server drain: no new requests, in-flight replies
//! still flush) → reclaimed by the reactor the moment the last owed
//! reply is flushed. There is no half-reaped state and no thread to
//! join — closing a connection is dropping its state (and dropping a
//! queued [`ReplyFrame`] reclaims its ring slot by destructor, so a
//! dying connection can never leak a slot).

use crate::bufpool::BufPool;
use crate::frame::{FrameDecoder, FrameError};
use crate::ring::EncodedReply;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// One encoded reply frame queued on a connection, either exclusively
/// owned or shared across the N waiters of a coalesced batch — the
/// batcher's fan-out hands every waiter the *same* encoding (one slot,
/// read N times) instead of re-encoding per waiter.
///
/// `Arc` rather than `Rc` only because a `Conn` must stay `Send` for
/// the reactor's thread spawn; the refcount is still touched by one
/// thread.
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
    /// reclaim by drop, heap spills recycle into the shard's pool (for
    /// a shared frame, only the last waiter's release recycles).
    fn recycle(self, pool: &mut BufPool) {
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

/// One client connection owned by the reactor.
pub(crate) struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Deliverable reply frames, in request order, awaiting the socket.
    out: VecDeque<ReplyFrame>,
    /// How much of the *front* frame has already been written.
    out_pos: usize,
    /// Reply slots in request order: `None` until the reply for that
    /// seq is known, then the encoded reply frame.
    pending: VecDeque<(u64, Option<ReplyFrame>)>,
    next_seq: u64,
    /// No more requests will be read (peer EOF, protocol error, or
    /// server drain made permanent).
    read_closed: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: VecDeque::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            read_closed: false,
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
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.read_closed = true;
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
                    self.read_closed = true;
                    error = Some(e);
                    break;
                }
            }
        }
        if error.is_none() && self.read_closed {
            // EOF with a partial frame buffered is a truncation, not a
            // clean disconnect.
            error = self.decoder.finish().err();
        }
        Ok(ReadOutcome { frames, error })
    }

    /// Assigns the next request sequence number and opens its reply
    /// slot.
    pub(crate) fn begin_request(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back((seq, None));
        seq
    }

    /// Fills the reply slot for `seq` with an already-encoded frame and
    /// releases every reply that is now deliverable in order. Unknown
    /// or already-released seqs are ignored (a refused-then-completed
    /// race can double-report); the orphaned frame just drops, which
    /// reclaims its ring slot.
    ///
    /// The frame arrives fully encoded (MAX_FRAME was enforced at
    /// encode time by the shared header writer), so parking on an
    /// earlier seq holds a slot handle, not a copy, and release is a
    /// queue push — zero bytes move.
    pub(crate) fn fulfill(&mut self, seq: u64, frame: ReplyFrame) {
        if let Some(slot) = self
            .pending
            .iter_mut()
            .find(|(s, frame)| *s == seq && frame.is_none())
        {
            slot.1 = Some(frame);
        }
        while let Some((_, Some(_))) = self.pending.front() {
            let (_, frame) = self.pending.pop_front().expect("front exists");
            self.out.push_back(frame.expect("checked Some"));
        }
    }

    /// Flushes queued reply frames until the socket would block,
    /// writing directly from each frame's backing store (ring slot or
    /// spill buffer) and retiring the frame the moment its last byte is
    /// accepted by the kernel — that retirement *is* slot reclamation.
    /// `Err` means the peer is unreachable and the connection is dead.
    pub(crate) fn on_writable(&mut self, pool: &mut BufPool) -> io::Result<()> {
        loop {
            let finished = match self.out.front() {
                None => break,
                Some(front) => {
                    let bytes = front.bytes();
                    loop {
                        if self.out_pos >= bytes.len() {
                            break true;
                        }
                        match self.stream.write(&bytes[self.out_pos..]) {
                            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                            Ok(n) => self.out_pos += n,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => return Err(e),
                        }
                    }
                }
            };
            if !finished {
                return Ok(());
            }
            self.out_pos = 0;
            let done = self.out.pop_front().expect("front exists");
            done.recycle(pool);
        }
        Ok(())
    }

    /// Stops reading new requests (drain or protocol error); in-flight
    /// replies still flush.
    pub(crate) fn close_read(&mut self) {
        self.read_closed = true;
    }

    /// Unflushed reply frames are waiting on the socket.
    pub(crate) fn has_output(&self) -> bool {
        !self.out.is_empty()
    }

    /// At least one request has not had its reply fully released.
    pub(crate) fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Every owed reply has been released and flushed.
    pub(crate) fn is_drained(&self) -> bool {
        self.pending.is_empty() && !self.has_output()
    }

    /// The connection has served its purpose and can be reclaimed.
    pub(crate) fn should_close(&self, draining: bool) -> bool {
        (self.read_closed || draining) && self.is_drained()
    }

    /// The poll interest set for the current state.
    pub(crate) fn poll_events(&self, draining: bool) -> i16 {
        let mut events = 0;
        if !self.read_closed && !draining {
            events |= crate::reactor::POLLIN;
        }
        if self.has_output() {
            events |= crate::reactor::POLLOUT;
        }
        events
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }
}
