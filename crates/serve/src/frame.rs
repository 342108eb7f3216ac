//! Length-prefixed wire protocol for the speculation daemon.
//!
//! Every message is one *frame*: a 4-byte big-endian body length
//! followed by the body. Bodies are bounded by [`MAX_FRAME`]; a peer
//! announcing a larger frame is rejected before any allocation, and a
//! short read surfaces as [`FrameError::Truncated`] rather than a hang
//! or a panic.
//!
//! Request body layout (all integers big-endian):
//!
//! ```text
//! RUN:         0x01 | deadline_ms: u32 | arg: u64 | name_len: u16 | name
//! STATS:       0x02
//! PROMETHEUS:  0x03
//! SHUTDOWN:    0x04
//! CATALOG:     0x05
//! EXEC_ALT:    0x06 | race_id: u64 | alt_idx: u32 | deadline_ms: u32
//!                   | arg: u64 | name_len: u16 | workload
//!                   | origin_len: u16 | origin
//! ALT_RESULT:  0x07 | race_id: u64 | alt_idx: u32 | status: u8
//!                   | value: u64 | latency_us: u64
//! COMMIT_VOTE: 0x08 | race_id: u64 | origin_len: u16 | origin
//!                   | cand_len: u16 | candidate
//! ELIMINATE:   0x09 | race_id: u64 | origin_len: u16 | origin
//! PEER_STATS:  0x0A
//! RECONCILE:   0x0B | watermark: u64 | origin_len: u16 | origin
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
//! ```
//!
//! Opcodes 0x06–0x0B and the VOTE status are the peering plane (see
//! `peer.rs` / `remote.rs` / `commit.rs`): `EXEC_ALT` ships one
//! alternative of a race to a peer (acked immediately; the outcome
//! comes back later as an `ALT_RESULT` request on the executor's own
//! link to the origin), `COMMIT_VOTE` asks for the voter's exclusive
//! 0–1 commit grant, `ELIMINATE` cancels a shipped alternative after
//! the race is decided, and `RECONCILE` is sent on reconnect after a
//! partition: every race the origin created with an id below the
//! watermark is decided, so the receiver cancels any zombie executions
//! and reclaims its commit-ledger slots for them. A daemon that
//! predates these opcodes answers them with a protocol `ERROR` reply
//! and keeps the connection — version skew fails loudly per request,
//! not by dropping the link.

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
/// that must never wait. `FrameDecoder` inverts the control flow: feed
/// it whatever bytes the socket had ([`FrameDecoder::extend`]), then
/// drain complete bodies with [`FrameDecoder::next_frame`]. Partial
/// headers and partial bodies are buffered across calls, so a frame
/// split across any number of reads decodes identically to one that
/// arrived whole.
///
/// An oversized length prefix is rejected as soon as the 4 header
/// bytes are visible — before the announced body is buffered — with
/// the same [`FrameError::Oversized`] the blocking path returns.
///
/// Internally the decoder is a buffer plus a *read cursor*. Consuming a
/// frame only advances the cursor; the consumed prefix is reclaimed
/// lazily — all at once when the buffer fully drains (the common case:
/// `buf.clear()`, free), or by a single memmove once the dead prefix
/// dominates the buffer. A pipelined burst of k frames therefore costs
/// O(bytes) total, not the O(k · bytes) it would cost to memmove the
/// tail after every frame.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before `pos` belong to already-consumed frames.
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers bytes read from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame body, `Ok(None)` if more bytes are
    /// needed. After an `Err` the stream is desynchronized and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let mut body = Vec::new();
        Ok(self.next_frame_into(&mut body)?.then_some(body))
    }

    /// Like [`FrameDecoder::next_frame`], but appends the body into a
    /// caller-supplied buffer (typically recycled from a pool) instead
    /// of allocating. Returns `Ok(true)` when a frame was written to
    /// `out`, `Ok(false)` when more bytes are needed (`out` untouched).
    pub fn next_frame_into(&mut self, out: &mut Vec<u8>) -> Result<bool, FrameError> {
        if self.buffered() < 4 {
            return Ok(false);
        }
        let header = &self.buf[self.pos..self.pos + 4];
        let len = u32::from_be_bytes(header.try_into().expect("len 4")) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::Oversized(len));
        }
        if self.buffered() < 4 + len {
            return Ok(false);
        }
        out.extend_from_slice(&self.buf[self.pos + 4..self.pos + 4 + len]);
        self.pos += 4 + len;
        self.compact();
        Ok(true)
    }

    /// Reclaims the consumed prefix, amortized: free when the buffer is
    /// fully drained, one memmove when dead bytes are both sizeable and
    /// the majority of the buffer.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
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

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Race the named workload's alternatives; reply with the winner.
    Run {
        /// Registered workload name.
        workload: String,
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
    /// the outcome travels back as an [`Request::AltResult`] on the
    /// executor's own link to `origin`.
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
        workload: String,
        /// The origin node's advertised peer address — where the
        /// result and any elimination bookkeeping go back to.
        origin: String,
    },
    /// Peer plane: the outcome of a shipped alternative, sent by the
    /// executor to the race's origin.
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
    /// Peer plane: request this node's exclusive 0–1 commit vote for
    /// `candidate` in race `(origin, race_id)`. Answered with
    /// [`Response::Vote`].
    CommitVote {
        /// Race identifier (the origin's id space).
        race_id: u64,
        /// The origin node's advertised peer address (scopes the id).
        origin: String,
        /// Candidate identity, e.g. `"host:port/alt2"`.
        candidate: String,
    },
    /// Peer plane: the race is decided — cancel any alternative of
    /// `(origin, race_id)` still running here.
    Eliminate {
        /// Race identifier (the origin's id space).
        race_id: u64,
        /// The origin node's advertised peer address (scopes the id).
        origin: String,
    },
    /// Peer plane: the node's per-peer link table (text).
    PeerStats,
    /// Peer plane: partition-heal reconciliation. Every race `origin`
    /// created with `race_id < watermark` is decided — cancel any of
    /// their alternatives still running here and drop their commit
    /// grants.
    Reconcile {
        /// First race id that may still be open at the origin.
        watermark: u64,
        /// The origin node's advertised peer address (scopes the ids).
        origin: String,
    },
}

/// `AltResult` status: the alternative succeeded with a value.
pub const ALT_OK: u8 = 0;
/// `AltResult` status: the alternative's guard failed (or it panicked).
pub const ALT_FAILED: u8 = 1;
/// `AltResult` status: the deadline expired before the alternative
/// finished.
pub const ALT_DEADLINE: u8 = 2;

const OP_RUN: u8 = 0x01;
const OP_STATS: u8 = 0x02;
const OP_PROMETHEUS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_CATALOG: u8 = 0x05;
const OP_EXEC_ALT: u8 = 0x06;
const OP_ALT_RESULT: u8 = 0x07;
const OP_COMMIT_VOTE: u8 = 0x08;
const OP_ELIMINATE: u8 = 0x09;
const OP_PEER_STATS: u8 = 0x0A;
const OP_RECONCILE: u8 = 0x0B;

impl Request {
    /// Serializes into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Run {
                workload,
                deadline_ms,
                arg,
            } => {
                let name = workload.as_bytes();
                let mut b = Vec::with_capacity(15 + name.len());
                b.push(OP_RUN);
                b.extend_from_slice(&deadline_ms.to_be_bytes());
                b.extend_from_slice(&arg.to_be_bytes());
                b.extend_from_slice(&(name.len() as u16).to_be_bytes());
                b.extend_from_slice(name);
                b
            }
            Request::Stats => vec![OP_STATS],
            Request::Prometheus => vec![OP_PROMETHEUS],
            Request::Shutdown => vec![OP_SHUTDOWN],
            Request::Catalog => vec![OP_CATALOG],
            Request::ExecAlt {
                race_id,
                alt_idx,
                deadline_ms,
                arg,
                workload,
                origin,
            } => {
                let name = workload.as_bytes();
                let from = origin.as_bytes();
                let mut b = Vec::with_capacity(29 + name.len() + from.len());
                b.push(OP_EXEC_ALT);
                b.extend_from_slice(&race_id.to_be_bytes());
                b.extend_from_slice(&alt_idx.to_be_bytes());
                b.extend_from_slice(&deadline_ms.to_be_bytes());
                b.extend_from_slice(&arg.to_be_bytes());
                b.extend_from_slice(&(name.len() as u16).to_be_bytes());
                b.extend_from_slice(name);
                b.extend_from_slice(&(from.len() as u16).to_be_bytes());
                b.extend_from_slice(from);
                b
            }
            Request::AltResult {
                race_id,
                alt_idx,
                status,
                value,
                latency_us,
            } => {
                let mut b = Vec::with_capacity(30);
                b.push(OP_ALT_RESULT);
                b.extend_from_slice(&race_id.to_be_bytes());
                b.extend_from_slice(&alt_idx.to_be_bytes());
                b.push(*status);
                b.extend_from_slice(&value.to_be_bytes());
                b.extend_from_slice(&latency_us.to_be_bytes());
                b
            }
            Request::CommitVote {
                race_id,
                origin,
                candidate,
            } => {
                let from = origin.as_bytes();
                let cand = candidate.as_bytes();
                let mut b = Vec::with_capacity(13 + from.len() + cand.len());
                b.push(OP_COMMIT_VOTE);
                b.extend_from_slice(&race_id.to_be_bytes());
                b.extend_from_slice(&(from.len() as u16).to_be_bytes());
                b.extend_from_slice(from);
                b.extend_from_slice(&(cand.len() as u16).to_be_bytes());
                b.extend_from_slice(cand);
                b
            }
            Request::Eliminate { race_id, origin } => {
                let from = origin.as_bytes();
                let mut b = Vec::with_capacity(11 + from.len());
                b.push(OP_ELIMINATE);
                b.extend_from_slice(&race_id.to_be_bytes());
                b.extend_from_slice(&(from.len() as u16).to_be_bytes());
                b.extend_from_slice(from);
                b
            }
            Request::PeerStats => vec![OP_PEER_STATS],
            Request::Reconcile { watermark, origin } => {
                let from = origin.as_bytes();
                let mut b = Vec::with_capacity(11 + from.len());
                b.push(OP_RECONCILE);
                b.extend_from_slice(&watermark.to_be_bytes());
                b.extend_from_slice(&(from.len() as u16).to_be_bytes());
                b.extend_from_slice(from);
                b
            }
        }
    }

    /// Parses a frame body.
    pub fn decode(body: &[u8]) -> Result<Self, FrameError> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            OP_RUN => {
                let deadline_ms = c.u32()?;
                let arg = c.u64()?;
                let name_len = c.u16()? as usize;
                let workload = c.str(name_len)?;
                Request::Run {
                    workload,
                    deadline_ms,
                    arg,
                }
            }
            OP_STATS => Request::Stats,
            OP_PROMETHEUS => Request::Prometheus,
            OP_SHUTDOWN => Request::Shutdown,
            OP_CATALOG => Request::Catalog,
            OP_EXEC_ALT => {
                let race_id = c.u64()?;
                let alt_idx = c.u32()?;
                let deadline_ms = c.u32()?;
                let arg = c.u64()?;
                let name_len = c.u16()? as usize;
                let workload = c.str(name_len)?;
                let origin_len = c.u16()? as usize;
                let origin = c.str(origin_len)?;
                Request::ExecAlt {
                    race_id,
                    alt_idx,
                    deadline_ms,
                    arg,
                    workload,
                    origin,
                }
            }
            OP_ALT_RESULT => {
                let race_id = c.u64()?;
                let alt_idx = c.u32()?;
                let status = c.u8()?;
                if status > ALT_DEADLINE {
                    return Err(FrameError::Malformed("bad alt-result status"));
                }
                Request::AltResult {
                    race_id,
                    alt_idx,
                    status,
                    value: c.u64()?,
                    latency_us: c.u64()?,
                }
            }
            OP_COMMIT_VOTE => {
                let race_id = c.u64()?;
                let origin_len = c.u16()? as usize;
                let origin = c.str(origin_len)?;
                let cand_len = c.u16()? as usize;
                let candidate = c.str(cand_len)?;
                Request::CommitVote {
                    race_id,
                    origin,
                    candidate,
                }
            }
            OP_ELIMINATE => {
                let race_id = c.u64()?;
                let origin_len = c.u16()? as usize;
                let origin = c.str(origin_len)?;
                Request::Eliminate { race_id, origin }
            }
            OP_PEER_STATS => Request::PeerStats,
            OP_RECONCILE => {
                let watermark = c.u64()?;
                let origin_len = c.u16()? as usize;
                let origin = c.str(origin_len)?;
                Request::Reconcile { watermark, origin }
            }
            op => return Err(FrameError::UnknownOpcode(op)),
        };
        c.finish()?;
        Ok(req)
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
    /// Peer plane: the reply to a [`Request::CommitVote`] — whether
    /// this voter's exclusive 0–1 grant went to the asking candidate.
    Vote {
        /// True when the vote was granted (first request for the race,
        /// or a re-request by the same holder).
        granted: bool,
        /// Who holds the vote after this request (the candidate it was
        /// first granted to).
        holder: String,
    },
}

const ST_OK: u8 = 0x00;
const ST_DEADLINE: u8 = 0x01;
const ST_OVERLOADED: u8 = 0x02;
const ST_UNKNOWN: u8 = 0x03;
const ST_ERROR: u8 = 0x04;
const ST_TEXT: u8 = 0x05;
const ST_VOTE: u8 = 0x06;

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
                let name = winner_name.as_bytes();
                b.reserve(23 + name.len());
                b.push(ST_OK);
                b.extend_from_slice(&winner.to_be_bytes());
                b.extend_from_slice(&latency_us.to_be_bytes());
                b.extend_from_slice(&value.to_be_bytes());
                b.extend_from_slice(&(name.len() as u16).to_be_bytes());
                b.extend_from_slice(name);
            }
            Response::DeadlineExceeded { latency_us } => {
                b.push(ST_DEADLINE);
                b.extend_from_slice(&latency_us.to_be_bytes());
            }
            Response::Overloaded => b.push(ST_OVERLOADED),
            Response::UnknownWorkload => b.push(ST_UNKNOWN),
            Response::Error { message } => {
                let msg = message.as_bytes();
                let msg = &msg[..msg.len().min(u16::MAX as usize)];
                b.push(ST_ERROR);
                b.extend_from_slice(&(msg.len() as u16).to_be_bytes());
                b.extend_from_slice(msg);
            }
            Response::Text { body } => {
                let text = body.as_bytes();
                b.push(ST_TEXT);
                b.extend_from_slice(&(text.len() as u32).to_be_bytes());
                b.extend_from_slice(text);
            }
            Response::Vote { granted, holder } => {
                let who = holder.as_bytes();
                b.reserve(4 + who.len());
                b.push(ST_VOTE);
                b.push(u8::from(*granted));
                b.extend_from_slice(&(who.len() as u16).to_be_bytes());
                b.extend_from_slice(who);
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
            Response::Ok { winner_name, .. } => 23 + winner_name.len(),
            Response::DeadlineExceeded { .. } => 9,
            Response::Overloaded | Response::UnknownWorkload => 1,
            Response::Error { message } => 3 + message.len().min(u16::MAX as usize),
            Response::Text { body } => 5 + body.len(),
            Response::Vote { holder, .. } => 4 + holder.len(),
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
                let name_len = c.u16()? as usize;
                let winner_name = c.str(name_len)?;
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
            ST_ERROR => {
                let len = c.u16()? as usize;
                Response::Error {
                    message: c.str(len)?,
                }
            }
            ST_TEXT => {
                let len = c.u32()? as usize;
                Response::Text { body: c.str(len)? }
            }
            ST_VOTE => {
                let granted = match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("bad vote flag")),
                };
                let len = c.u16()? as usize;
                Response::Vote {
                    granted,
                    holder: c.str(len)?,
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

    fn str(&mut self, n: usize) -> Result<String, FrameError> {
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|_| FrameError::Malformed("invalid utf-8"))
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after message"))
        }
    }
}
