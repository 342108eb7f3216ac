//! Length-prefixed wire protocol for the speculation daemon.
//!
//! Every message is one *frame*: a 4-byte big-endian body length
//! followed by the body. Bodies are bounded by [`MAX_FRAME`]; a peer
//! announcing a larger frame is rejected before any allocation, and a
//! short read surfaces as [`FrameError::Truncated`] rather than a hang
//! or a panic.
//!
//! Request body layout (all integers big-endian; every `_len: u16`
//! string is cut to its longest prefix of at most 65 535 bytes that ends
//! on a character boundary):
//!
//! ```text
//! RUN:         0x01 | deadline_ms: u32 | arg: u64 | name_len: u16 | name
//! STATS:       0x02
//! PROMETHEUS:  0x03
//! SHUTDOWN:    0x04
//! CATALOG:     0x05
//! EXEC_ALT:    0x06 | race_id: u64 | alt_idx: u32 | deadline_ms: u32
//!                   | arg: u64 | name_len: u16 | workload
//!              0x07   unassigned (an unknown opcode)
//! COMMIT_VOTE: 0x08 | race_id: u64 | origin_len: u16 | origin
//!                   | cand_len: u16 | candidate
//! ELIMINATE:   0x09 | race_id: u64
//! PEER_STATS:  0x0A
//!              0x0B   unassigned (an unknown opcode)
//! ```
//!
//! Response body layout:
//!
//! ```text
//! OK:                0x00 | winner: u32 | latency_us: u64 | value: u64
//!                         | name_len: u16 | winner_name
//! DEADLINE_EXCEEDED: 0x01 | latency_us: u64
//! OVERLOADED:        0x02
//! UNKNOWN_WORKLOAD:  0x03
//! ERROR:             0x04 | msg_len: u16 | message
//! TEXT:              0x05 | body_len: u32 | body      (STATS/PROMETHEUS)
//! VOTE:              0x06 | granted: u8 | holder_len: u16 | holder
//! ALT_RESULT:        0x07 | race_id: u64 | alt_idx: u32 | status: u8
//!                         | value: u64 | latency_us: u64   (unsolicited)
//! ```
//!
//! Opcodes 0x06–0x0A and the VOTE and ALT_RESULT statuses are the
//! peering plane (see `peer.rs` / `remote.rs` / `commit.rs`): `EXEC_ALT`
//! ships one alternative of a race to a peer (acked at once; the outcome
//! comes back later as an unsolicited `ALT_RESULT` the executor pushes on
//! the connection the `EXEC_ALT` arrived on), `COMMIT_VOTE` asks for the
//! voter's exclusive 0–1 commit grant, and `ELIMINATE` cancels the race's
//! alternatives shipped on the same connection after the race is
//! decided. A shipped alternative lives no longer than that connection:
//! closing it cancels whatever still runs, so no frame names a race
//! beyond its own connection and `EXEC_ALT` and `ELIMINATE` carry no
//! origin. `COMMIT_VOTE` still does — the voter's ledger is keyed by
//! it. A daemon that predates these opcodes answers them with a protocol
//! `ERROR` reply and keeps the connection — version skew fails loudly per
//! request, not by dropping the link. Clusters mixing builds from before
//! the connection-scoped `EXEC_ALT` (which named its origin, and was
//! followed on a redial by a `RECONCILE`, opcode 0x0B) with later ones
//! are not supported.

use std::io::{self, IoSlice, Read, Write};

/// Upper bound on a frame body, in bytes. Large enough for any stats
/// dump, small enough that a hostile length prefix cannot OOM the
/// server.
pub const MAX_FRAME: usize = 256 * 1024;

/// Decoding failures. I/O errors are kept separate from protocol
/// violations so the server can distinguish "peer went away" from
/// "peer is speaking garbage".
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended mid-frame (or mid-header).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The body was well-framed but malformed (bad tag, short field,
    /// invalid UTF-8).
    Malformed(&'static str),
    /// The frame was well-formed but its leading opcode is not one this
    /// build knows. Unlike [`FrameError::Malformed`] the stream is
    /// *not* desynchronized — the length prefix delimited the body — so
    /// the connection can answer with a protocol error and keep going,
    /// which is how peer-version skew fails loudly instead of silently
    /// dropping links.
    UnknownOpcode(u8),
    /// Transport error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Oversized(n) => write!(f, "oversized frame ({n} bytes > {MAX_FRAME})"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::UnknownOpcode(op) => write!(f, "unknown request opcode 0x{op:02x}"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Builds the 4-byte length prefix for a frame body of `len` bytes.
/// This is the **one** MAX_FRAME check every encode path shares —
/// [`write_frame`] for streaming writers and [`append_frame`] for
/// in-place encoding both route through it, so the bound is enforced in
/// release builds no matter which path produced the frame. A body over
/// [`MAX_FRAME`] is refused with `InvalidInput`: the peer would reject
/// it anyway, and a half-written oversized frame would desynchronize
/// the stream for good.
pub fn frame_header(body_len: usize) -> io::Result<[u8; 4]> {
    if body_len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {body_len} bytes exceeds MAX_FRAME"),
        ));
    }
    Ok((body_len as u32).to_be_bytes())
}

/// Writes one frame (length prefix + body) to a streaming writer —
/// prefix and body in **one** vectored write wherever the writer takes
/// it whole, so on a `TCP_NODELAY` socket a frame is one segment and
/// the reader is woken once, with all of it (a prefix written by itself
/// is a segment by itself: the peer wakes, reads four bytes and goes
/// back to sleep). Short writes resume where they stopped; a writer
/// without vectored support degrades to its `write`.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let header = frame_header(body.len())?;
    let mut sent = 0;
    while sent < header.len() + body.len() {
        let head = &header[sent.min(header.len())..];
        let rest = &body[sent.saturating_sub(header.len())..];
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(rest)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Appends one whole frame to `out` *in place*: a 4-byte placeholder is
/// reserved, `fill` encodes the body directly after it, and the real
/// length prefix is patched in afterwards. This is how a reply reaches
/// its ring slot without an intermediate body buffer — header and body
/// are laid out contiguously where the socket write will read them.
/// On a [`MAX_FRAME`] violation `out` is rolled back to its original
/// length and the shared [`frame_header`] error is returned.
pub fn append_frame(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<usize> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    fill(out);
    let body_len = out.len() - start - 4;
    match frame_header(body_len) {
        Ok(header) => {
            out[start..start + 4].copy_from_slice(&header);
            Ok(4 + body_len)
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// Reads one frame body. `Ok(None)` means the peer closed the
/// connection cleanly *between* frames.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    // A clean EOF before any header byte is a normal disconnect.
    match r.read(&mut header) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut header[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => r.read_exact(&mut header)?,
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Incremental, resumable frame decoder for non-blocking transports.
///
/// The blocking [`read_frame`] owns the stream until a whole frame
/// arrives — fine for one thread per connection, useless for a reactor
/// that must never wait. `FrameDecoder` inverts the control flow: read
/// from the socket straight into it ([`FrameDecoder::read_from`]), or
/// feed it bytes read elsewhere ([`FrameDecoder::extend`]), then drain
/// complete bodies with [`FrameDecoder::next_frame_into`]. Partial
/// headers and partial bodies are buffered across calls, so a frame
/// split across any number of reads decodes identically to one that
/// arrived whole.
///
/// An oversized length prefix is rejected as soon as the 4 header
/// bytes are visible — before the announced body is buffered — with
/// the same [`FrameError::Oversized`] the blocking path returns.
///
/// Internally the decoder is one buffer with a *read cursor* and an
/// *end*: the bytes between them are buffered, the bytes past the end
/// are room the next read lands in — zeroed once, when the buffer grew,
/// and reused from then on, so a read costs neither a scratch array nor
/// a copy out of one. Consuming a frame only advances the cursor; the
/// consumed prefix is reclaimed when room is wanted — for free when
/// everything was consumed (the common case), else by one memmove of
/// the unconsumed tail before the buffer would grow. A pipelined burst
/// of k frames therefore costs O(bytes) total, not the O(k · bytes) it
/// would cost to memmove the tail after every frame.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before `pos` belong to already-consumed frames.
    pos: usize,
    /// Bytes from `end` on were never read into: the room.
    end: usize,
}

/// The least room [`FrameDecoder::read_from`] offers a read: dozens of
/// requests or replies, short of a stats page. A connection keeps its
/// buffer for life, so it stays small until a frame needs more.
const READ_ROOM: usize = 1024;

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One read from `r` straight into the buffer, offered at least
    /// [`READ_ROOM`] bytes of room, or as much as is already buffered if
    /// that is more — a long frame takes a number of reads logarithmic
    /// in its length. Returns how many bytes came (`0` at end of stream)
    /// and whether they filled the room, in which case more may be
    /// waiting.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<(usize, bool)> {
        self.make_room(READ_ROOM.max(self.buffered()));
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok((n, self.end == self.buf.len()))
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }

    /// Pops the next complete frame body, `Ok(None)` if more bytes are
    /// needed. After an `Err` the stream is desynchronized and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(self.next_frame_ref()?.map(<[u8]>::to_vec))
    }

    /// Like [`FrameDecoder::next_frame`], but appends the body into a
    /// caller-supplied buffer (typically recycled from a pool) instead
    /// of allocating. Returns `Ok(true)` when a frame was written to
    /// `out`, `Ok(false)` when more bytes are needed (`out` untouched).
    pub fn next_frame_into(&mut self, out: &mut Vec<u8>) -> Result<bool, FrameError> {
        let body = self.next_frame_ref()?;
        if let Some(body) = body {
            out.extend_from_slice(body);
        }
        Ok(body.is_some())
    }

    /// Like [`FrameDecoder::next_frame`], but lends the body where it
    /// lies in the buffer: decoding it copies nothing.
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, FrameError> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let header = &self.buf[self.pos..self.pos + 4];
        let len = u32::from_be_bytes(header.try_into().expect("len 4")) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::Oversized(len));
        }
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        let body = self.pos + 4..self.pos + 4 + len;
        self.pos = body.end;
        Ok(Some(&self.buf[body]))
    }

    /// Leaves at least `want` bytes of room past the end: reclaims the
    /// consumed prefix — free when the buffer is fully drained, else one
    /// memmove of the unconsumed tail, made only when the room is short
    /// — and grows the buffer only when that is not enough.
    fn make_room(&mut self, want: usize) {
        if self.pos == self.end {
            (self.pos, self.end) = (0, 0);
        } else if self.buf.len() - self.end < want && self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            (self.pos, self.end) = (0, self.end - self.pos);
        }
        if self.buf.len() - self.end < want {
            self.buf.resize(self.end + want, 0);
        }
    }

    /// Call at EOF: leftover bytes mean the peer died mid-frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.buffered() == 0 {
            Ok(())
        } else {
            Err(FrameError::Truncated)
        }
    }
}

/// A client request, over the type its strings have: [`Request`] owns
/// them, [`RequestRef`] borrows them — from the frame body it was
/// decoded from, or from the caller that encodes it. There is one codec:
/// [`RequestRef::decode`] parses without copying (the reactor decides
/// requests in that form, so a RUN frame's workload name is looked up
/// where it lies), [`Request::decode`] is that parse made owned, and
/// both encode with [`RequestOf::encode_into`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOf<S> {
    /// Race the named workload's alternatives; reply with the winner.
    Run {
        /// Registered workload name.
        workload: S,
        /// Per-request deadline in milliseconds; `0` means unbounded.
        deadline_ms: u32,
        /// Workload argument (problem size, RNG seed — workload-defined).
        arg: u64,
    },
    /// Human-readable counter dump.
    Stats,
    /// Prometheus text-format metrics.
    Prometheus,
    /// Ask the daemon to drain and exit.
    Shutdown,
    /// The workload catalog plus what the scheduler has learned
    /// (favourite alternative and win rates per workload).
    Catalog,
    /// Peer plane: run *one* alternative of a race on this node. The
    /// immediate reply only acks admission (`Text` or `Overloaded`);
    /// the outcome travels back later as a [`Response::AltResult`] the
    /// executor pushes on the connection this request arrived on.
    ExecAlt {
        /// Race identifier, unique within the origin node.
        race_id: u64,
        /// Which alternative of the workload to run.
        alt_idx: u32,
        /// Deadline inherited from the client request (0 = unbounded).
        deadline_ms: u32,
        /// Workload argument.
        arg: u64,
        /// Registered workload name.
        workload: S,
    },
    /// Peer plane: request this node's exclusive 0–1 commit vote for
    /// `candidate` in race `(origin, race_id)`. Answered with
    /// [`Response::Vote`].
    CommitVote {
        /// Race identifier (the origin's id space).
        race_id: u64,
        /// The origin node's advertised peer address (scopes the id).
        origin: S,
        /// Candidate identity, e.g. `"host:port/alt2"`.
        candidate: S,
    },
    /// Peer plane: the race is decided — cancel any of its alternatives
    /// shipped on this connection and still running here.
    Eliminate {
        /// Race identifier (the origin's id space).
        race_id: u64,
    },
    /// Peer plane: the node's per-peer link table (text).
    PeerStats,
}

/// A request that owns its strings.
pub type Request = RequestOf<String>;

/// A request whose strings are borrowed.
pub type RequestRef<'a> = RequestOf<&'a str>;

/// `AltResult` status: the alternative succeeded with a value.
pub const ALT_OK: u8 = 0;
/// `AltResult` status: the alternative's guard failed (or it panicked).
pub const ALT_FAILED: u8 = 1;
/// `AltResult` status: the deadline expired before the alternative
/// finished.
pub const ALT_DEADLINE: u8 = 2;

/// Bytes an `EXEC_ALT` frame for `workload` takes on the wire — length
/// prefix, 27 bytes of fixed fields, the name — what placement prices a
/// shipped alternative at.
pub fn exec_alt_frame_len(workload: &str) -> usize {
    4 + 27 + short_str(workload).len()
}

/// The part of `s` a `u16`-prefixed field carries: its longest prefix of
/// at most `u16::MAX` bytes that ends on a character boundary, so the
/// prefix never wraps and the field never splits a character.
fn short_str(s: &str) -> &str {
    let mut end = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Appends `s` as a `u16`-prefixed field, cut as [`short_str`] cuts it.
fn put_str16(b: &mut Vec<u8>, s: &str) {
    let s = short_str(s).as_bytes();
    b.extend_from_slice(&(s.len() as u16).to_be_bytes());
    b.extend_from_slice(s);
}

const OP_RUN: u8 = 0x01;
const OP_STATS: u8 = 0x02;
const OP_PROMETHEUS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_CATALOG: u8 = 0x05;
const OP_EXEC_ALT: u8 = 0x06;
const OP_COMMIT_VOTE: u8 = 0x08;
const OP_ELIMINATE: u8 = 0x09;
const OP_PEER_STATS: u8 = 0x0A;

impl<S: AsRef<str>> RequestOf<S> {
    /// Appends the frame body to `b`.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            RequestOf::Run {
                workload,
                deadline_ms,
                arg,
            } => {
                let workload = workload.as_ref();
                b.reserve(15 + workload.len());
                b.push(OP_RUN);
                b.extend_from_slice(&deadline_ms.to_be_bytes());
                b.extend_from_slice(&arg.to_be_bytes());
                put_str16(b, workload);
            }
            RequestOf::Stats => b.push(OP_STATS),
            RequestOf::Prometheus => b.push(OP_PROMETHEUS),
            RequestOf::Shutdown => b.push(OP_SHUTDOWN),
            RequestOf::Catalog => b.push(OP_CATALOG),
            RequestOf::ExecAlt {
                race_id,
                alt_idx,
                deadline_ms,
                arg,
                workload,
            } => {
                let workload = workload.as_ref();
                b.reserve(exec_alt_frame_len(workload) - 4);
                b.push(OP_EXEC_ALT);
                b.extend_from_slice(&race_id.to_be_bytes());
                b.extend_from_slice(&alt_idx.to_be_bytes());
                b.extend_from_slice(&deadline_ms.to_be_bytes());
                b.extend_from_slice(&arg.to_be_bytes());
                put_str16(b, workload);
            }
            RequestOf::CommitVote {
                race_id,
                origin,
                candidate,
            } => {
                let (origin, candidate) = (origin.as_ref(), candidate.as_ref());
                b.reserve(13 + origin.len() + candidate.len());
                b.push(OP_COMMIT_VOTE);
                b.extend_from_slice(&race_id.to_be_bytes());
                put_str16(b, origin);
                put_str16(b, candidate);
            }
            RequestOf::Eliminate { race_id } => {
                b.reserve(9);
                b.push(OP_ELIMINATE);
                b.extend_from_slice(&race_id.to_be_bytes());
            }
            RequestOf::PeerStats => b.push(OP_PEER_STATS),
        }
    }

    /// Serializes into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.encode_into(&mut b);
        b
    }
}

impl<S> RequestOf<S> {
    /// The same request with `f` applied to each of its strings.
    fn map<T>(self, mut f: impl FnMut(S) -> T) -> RequestOf<T> {
        match self {
            RequestOf::Run {
                workload,
                deadline_ms,
                arg,
            } => RequestOf::Run {
                workload: f(workload),
                deadline_ms,
                arg,
            },
            RequestOf::Stats => RequestOf::Stats,
            RequestOf::Prometheus => RequestOf::Prometheus,
            RequestOf::Shutdown => RequestOf::Shutdown,
            RequestOf::Catalog => RequestOf::Catalog,
            RequestOf::ExecAlt {
                race_id,
                alt_idx,
                deadline_ms,
                arg,
                workload,
            } => RequestOf::ExecAlt {
                race_id,
                alt_idx,
                deadline_ms,
                arg,
                workload: f(workload),
            },
            RequestOf::CommitVote {
                race_id,
                origin,
                candidate,
            } => RequestOf::CommitVote {
                race_id,
                origin: f(origin),
                candidate: f(candidate),
            },
            RequestOf::Eliminate { race_id } => RequestOf::Eliminate { race_id },
            RequestOf::PeerStats => RequestOf::PeerStats,
        }
    }
}

impl<'a> RequestRef<'a> {
    /// Parses a frame body, borrowing its strings.
    pub fn decode(body: &'a [u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            OP_RUN => RequestOf::Run {
                deadline_ms: c.u32()?,
                arg: c.u64()?,
                workload: c.str16()?,
            },
            OP_STATS => RequestOf::Stats,
            OP_PROMETHEUS => RequestOf::Prometheus,
            OP_SHUTDOWN => RequestOf::Shutdown,
            OP_CATALOG => RequestOf::Catalog,
            OP_EXEC_ALT => RequestOf::ExecAlt {
                race_id: c.u64()?,
                alt_idx: c.u32()?,
                deadline_ms: c.u32()?,
                arg: c.u64()?,
                workload: c.str16()?,
            },
            OP_COMMIT_VOTE => RequestOf::CommitVote {
                race_id: c.u64()?,
                origin: c.str16()?,
                candidate: c.str16()?,
            },
            OP_ELIMINATE => RequestOf::Eliminate { race_id: c.u64()? },
            OP_PEER_STATS => RequestOf::PeerStats,
            op => return Err(FrameError::UnknownOpcode(op)),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Request {
    /// Parses a frame body.
    pub fn decode(body: &[u8]) -> Result<Self, FrameError> {
        RequestRef::decode(body).map(|request| request.map(str::to_owned))
    }
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The race completed; the first successful alternative's result.
    Ok {
        /// Index of the winning alternative within its workload.
        winner: u32,
        /// Name of the winning alternative.
        winner_name: String,
        /// Server-side latency, microseconds.
        latency_us: u64,
        /// The winning value.
        value: u64,
    },
    /// The deadline expired before any alternative succeeded.
    DeadlineExceeded {
        /// Server-side latency, microseconds.
        latency_us: u64,
    },
    /// The run queue was full; the request was shed without executing.
    Overloaded,
    /// No workload registered under the requested name.
    UnknownWorkload,
    /// The race failed for a non-deadline reason.
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Textual payload (stats / metrics dumps, shutdown ack).
    Text {
        /// The text body.
        body: String,
    },
    /// Peer plane: the reply to a [`RequestOf::CommitVote`] — whether
    /// this voter's exclusive 0–1 grant went to the asking candidate.
    Vote {
        /// True when the vote was granted (first request for the race,
        /// or a re-request by the same holder).
        granted: bool,
        /// Who holds the vote after this request (the candidate it was
        /// first granted to).
        holder: String,
    },
    /// Peer plane: the outcome of a shipped alternative, pushed unasked
    /// on the connection its [`RequestOf::ExecAlt`] arrived on.
    AltResult {
        /// Race identifier (the origin's id space).
        race_id: u64,
        /// Which alternative this outcome belongs to.
        alt_idx: u32,
        /// One of [`ALT_OK`], [`ALT_FAILED`], [`ALT_DEADLINE`].
        status: u8,
        /// The alternative's value (meaningful only for [`ALT_OK`]).
        value: u64,
        /// Executor-side latency in microseconds.
        latency_us: u64,
    },
}

const ST_OK: u8 = 0x00;
const ST_DEADLINE: u8 = 0x01;
const ST_OVERLOADED: u8 = 0x02;
const ST_UNKNOWN: u8 = 0x03;
const ST_ERROR: u8 = 0x04;
const ST_TEXT: u8 = 0x05;
const ST_VOTE: u8 = 0x06;
const ST_ALT_RESULT: u8 = 0x07;

impl Response {
    /// Serializes into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.encode_into(&mut b);
        b
    }

    /// Serializes into a caller-supplied buffer (typically recycled
    /// from a pool), appending the frame body to whatever it holds.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            Response::Ok {
                winner,
                winner_name,
                latency_us,
                value,
            } => {
                b.reserve(23 + winner_name.len());
                b.push(ST_OK);
                b.extend_from_slice(&winner.to_be_bytes());
                b.extend_from_slice(&latency_us.to_be_bytes());
                b.extend_from_slice(&value.to_be_bytes());
                put_str16(b, winner_name);
            }
            Response::DeadlineExceeded { latency_us } => {
                b.push(ST_DEADLINE);
                b.extend_from_slice(&latency_us.to_be_bytes());
            }
            Response::Overloaded => b.push(ST_OVERLOADED),
            Response::UnknownWorkload => b.push(ST_UNKNOWN),
            Response::Error { message } => {
                b.push(ST_ERROR);
                put_str16(b, message);
            }
            Response::Text { body } => {
                let text = body.as_bytes();
                b.push(ST_TEXT);
                b.extend_from_slice(&(text.len() as u32).to_be_bytes());
                b.extend_from_slice(text);
            }
            Response::Vote { granted, holder } => {
                b.reserve(4 + holder.len());
                b.push(ST_VOTE);
                b.push(u8::from(*granted));
                put_str16(b, holder);
            }
            Response::AltResult {
                race_id,
                alt_idx,
                status,
                value,
                latency_us,
            } => {
                b.reserve(30);
                b.push(ST_ALT_RESULT);
                b.extend_from_slice(&race_id.to_be_bytes());
                b.extend_from_slice(&alt_idx.to_be_bytes());
                b.push(*status);
                b.extend_from_slice(&value.to_be_bytes());
                b.extend_from_slice(&latency_us.to_be_bytes());
            }
        }
    }

    /// Exact serialized body length, byte-for-byte what
    /// [`Response::encode_into`] appends. The ring data plane sizes a
    /// slot reservation from this *before* encoding, so the choice
    /// between a ring slot and a heap spill is made without a throwaway
    /// encode pass.
    pub fn encoded_len(&self) -> usize {
        match self {
            Response::Ok { winner_name, .. } => 23 + short_str(winner_name).len(),
            Response::DeadlineExceeded { .. } => 9,
            Response::Overloaded | Response::UnknownWorkload => 1,
            Response::Error { message } => 3 + short_str(message).len(),
            Response::Text { body } => 5 + body.len(),
            Response::Vote { holder, .. } => 4 + short_str(holder).len(),
            Response::AltResult { .. } => 30,
        }
    }

    /// Parses a frame body.
    pub fn decode(body: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            ST_OK => {
                let winner = c.u32()?;
                let latency_us = c.u64()?;
                let value = c.u64()?;
                let winner_name = c.str16()?.to_owned();
                Response::Ok {
                    winner,
                    winner_name,
                    latency_us,
                    value,
                }
            }
            ST_DEADLINE => Response::DeadlineExceeded {
                latency_us: c.u64()?,
            },
            ST_OVERLOADED => Response::Overloaded,
            ST_UNKNOWN => Response::UnknownWorkload,
            ST_ERROR => Response::Error {
                message: c.str16()?.to_owned(),
            },
            ST_TEXT => {
                let len = c.u32()? as usize;
                Response::Text {
                    body: c.str(len)?.to_owned(),
                }
            }
            ST_VOTE => {
                let granted = match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("bad vote flag")),
                };
                Response::Vote {
                    granted,
                    holder: c.str16()?.to_owned(),
                }
            }
            ST_ALT_RESULT => {
                let race_id = c.u64()?;
                let alt_idx = c.u32()?;
                let status = c.u8()?;
                if status > ALT_DEADLINE {
                    return Err(FrameError::Malformed("bad alt-result status"));
                }
                Response::AltResult {
                    race_id,
                    alt_idx,
                    status,
                    value: c.u64()?,
                    latency_us: c.u64()?,
                }
            }
            op => return Err(FrameError::UnknownOpcode(op)),
        };
        c.finish()?;
        Ok(resp)
    }
}

/// Tiny bounds-checked reader over a frame body.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Self {
        Cursor { body, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.body.len())
            .ok_or(FrameError::Malformed("field past end of body"))?;
        let s = &self.body[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn str(&mut self, n: usize) -> Result<&'a str, FrameError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| FrameError::Malformed("invalid utf-8"))
    }

    /// A `u16`-prefixed string field.
    fn str16(&mut self) -> Result<&'a str, FrameError> {
        let n = self.u16()? as usize;
        self.str(n)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after message"))
        }
    }
}
