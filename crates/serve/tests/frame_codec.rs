//! Property-based tests of the wire codec: round-trips, truncation,
//! oversize rejection, and garbage tolerance.

use altx_check::{check, CaseRng};
use altx_serve::frame::{
    read_frame, write_frame, FrameDecoder, FrameError, Request, Response, MAX_FRAME,
};

fn arb_request(rng: &mut CaseRng) -> Request {
    let name = |r: &mut CaseRng, lo: usize, hi: usize| {
        String::from_utf8(r.vec(lo, hi, |r| b'a' + (r.u8() % 26))).expect("ascii")
    };
    match rng.usize_in(0, 10) {
        0 => Request::Run {
            workload: name(rng, 0, 40),
            deadline_ms: rng.u64_in(0, u32::MAX as u64 + 1) as u32,
            arg: rng.u64(),
        },
        1 => Request::Stats,
        2 => Request::Prometheus,
        3 => Request::Shutdown,
        4 => Request::ExecAlt {
            race_id: rng.u64(),
            alt_idx: rng.u64_in(0, 1 << 32) as u32,
            deadline_ms: rng.u64_in(0, u32::MAX as u64 + 1) as u32,
            arg: rng.u64(),
            workload: name(rng, 0, 40),
            origin: name(rng, 0, 40),
        },
        5 => Request::AltResult {
            race_id: rng.u64(),
            alt_idx: rng.u64_in(0, 1 << 32) as u32,
            status: rng.u64_in(0, 3) as u8, // ALT_OK..=ALT_DEADLINE
            value: rng.u64(),
            latency_us: rng.u64(),
        },
        6 => Request::CommitVote {
            race_id: rng.u64(),
            origin: name(rng, 0, 40),
            candidate: name(rng, 0, 60),
        },
        7 => Request::Eliminate {
            race_id: rng.u64(),
            origin: name(rng, 0, 40),
        },
        8 => Request::Reconcile {
            watermark: rng.u64(),
            origin: name(rng, 0, 40),
        },
        _ => Request::PeerStats,
    }
}

fn arb_response(rng: &mut CaseRng) -> Response {
    let text = |r: &mut CaseRng, lo: usize, hi: usize| {
        String::from_utf8(r.vec(lo, hi, |r| b' ' + (r.u8() % 95))).expect("ascii")
    };
    match rng.usize_in(0, 7) {
        0 => Response::Ok {
            winner: rng.u64_in(0, 1 << 32) as u32,
            winner_name: text(rng, 0, 30),
            latency_us: rng.u64(),
            value: rng.u64(),
        },
        1 => Response::DeadlineExceeded {
            latency_us: rng.u64(),
        },
        2 => Response::Overloaded,
        3 => Response::UnknownWorkload,
        4 => Response::Error {
            message: text(rng, 0, 120),
        },
        5 => Response::Vote {
            granted: rng.u64_in(0, 2) == 1,
            holder: text(rng, 0, 60),
        },
        _ => Response::Text {
            body: text(rng, 0, 400),
        },
    }
}

/// encode → decode is the identity for both message directions.
#[test]
fn round_trip_identity() {
    check("round_trip_identity", 256, |rng| {
        let req = arb_request(rng);
        assert_eq!(Request::decode(&req.encode()).expect("decodes"), req);
        let resp = arb_response(rng);
        assert_eq!(Response::decode(&resp.encode()).expect("decodes"), resp);
    });
}

/// Frames survive the stream layer: write then read returns the body.
#[test]
fn stream_round_trip() {
    check("stream_round_trip", 128, |rng| {
        let body = rng.bytes(0, 300);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).expect("vec write");
        let got = read_frame(&mut wire.as_slice())
            .expect("reads")
            .expect("one frame");
        assert_eq!(got, body);
        // And a second read sees clean EOF, not an error.
        let mut cursor = &wire[..];
        read_frame(&mut cursor).expect("first frame");
        assert!(read_frame(&mut cursor).expect("clean eof").is_none());
    });
}

/// Any prefix of a valid frame is Truncated — never a hang, panic, or
/// bogus success.
#[test]
fn truncated_frames_rejected() {
    check("truncated_frames_rejected", 128, |rng| {
        let body = rng.bytes(1, 200);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).expect("vec write");
        let cut = rng.usize_in(1, wire.len()); // strict prefix, non-empty
        match read_frame(&mut &wire[..cut]) {
            Err(FrameError::Truncated) => {}
            other => panic!("prefix of {cut} bytes gave {other:?}"),
        }
    });
}

/// A length prefix beyond MAX_FRAME is rejected before allocation.
#[test]
fn oversized_frames_rejected() {
    check("oversized_frames_rejected", 64, |rng| {
        let len = rng.u64_in(MAX_FRAME as u64 + 1, u32::MAX as u64 + 1) as u32;
        let wire = len.to_be_bytes();
        match read_frame(&mut &wire[..]) {
            Err(FrameError::Oversized(n)) => assert_eq!(n, len as usize),
            other => panic!("announced {len} bytes, got {other:?}"),
        }
    });
}

/// Arbitrary bodies never panic the decoders; truncating a valid body
/// mid-field errors rather than mis-parsing.
#[test]
fn decoder_tolerates_garbage() {
    check("decoder_tolerates_garbage", 512, |rng| {
        let junk = rng.bytes(0, 64);
        let _ = Request::decode(&junk);
        let _ = Response::decode(&junk);

        let valid = arb_request(rng).encode();
        let cut = rng.usize_in(0, valid.len());
        if cut < valid.len() {
            assert!(
                Request::decode(&valid[..cut]).is_err(),
                "prefix must not parse"
            );
        }
    });
}

/// Oversized bodies are refused at the writer in *release* builds too —
/// a half-written oversized frame would desynchronize the stream for
/// every later message (regression: this used to be a `debug_assert!`).
#[test]
fn write_frame_rejects_oversized_bodies() {
    let body = vec![0u8; MAX_FRAME + 1];
    let mut wire = Vec::new();
    let err = write_frame(&mut wire, &body).expect_err("oversized body must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(
        wire.is_empty(),
        "no bytes may reach the wire: {}",
        wire.len()
    );

    // Exactly MAX_FRAME is still legal.
    let body = vec![0u8; MAX_FRAME];
    write_frame(&mut wire, &body).expect("MAX_FRAME body is legal");
    assert_eq!(wire.len(), 4 + MAX_FRAME);
}

/// A writer shaped like a socket: `write_vectored` takes every slice it
/// is offered in one call (as `writev(2)` does), up to `limit` bytes per
/// call, and every call is counted. `interrupt_every` makes each n-th
/// call fail with `Interrupted` first, as a signal would.
struct SocketLike {
    wire: Vec<u8>,
    calls: usize,
    limit: usize,
    interrupt_every: usize,
}

impl SocketLike {
    fn new(limit: usize, interrupt_every: usize) -> Self {
        SocketLike {
            wire: Vec::new(),
            calls: 0,
            limit,
            interrupt_every,
        }
    }
}

impl std::io::Write for SocketLike {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[std::io::IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.interrupt_every > 0 && self.calls.is_multiple_of(self.interrupt_every) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let before = self.wire.len();
        for buf in bufs {
            let room = self.limit - (self.wire.len() - before);
            self.wire.extend_from_slice(&buf[..buf.len().min(room)]);
        }
        Ok(self.wire.len() - before)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A writer with no vectored support that takes one byte per call.
struct ByteAtATime(Vec<u8>);

impl std::io::Write for ByteAtATime {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.extend_from_slice(&buf[..buf.len().min(1)]);
        Ok(buf.len().min(1))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A frame is one write call — prefix and body together — whenever the
/// writer takes it whole: on a `TCP_NODELAY` socket that is one segment,
/// and the reader wakes once with a complete frame.
#[test]
fn a_frame_that_fits_is_one_write_call() {
    check("a_frame_that_fits_is_one_write_call", 128, |rng| {
        let body = rng.bytes(0, 300);
        let mut socket = SocketLike::new(usize::MAX, 0);
        write_frame(&mut socket, &body).expect("socket-like write");
        assert_eq!(socket.calls, 1, "prefix and body must share a write call");
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).expect("vec write");
        assert_eq!(socket.wire, wire);
        assert_eq!(&wire[..4], &(body.len() as u32).to_be_bytes());
        assert_eq!(&wire[4..], &body[..]);
    });
}

/// Short writes — mid-prefix, mid-body, one byte at a time, interrupted
/// by signals — resume where they stopped and put the identical bytes
/// on the wire; a writer that stops taking bytes is an error, not a
/// spin.
#[test]
fn short_and_interrupted_writes_produce_the_identical_bytes() {
    check("short_and_interrupted_writes", 128, |rng| {
        let body = rng.bytes(0, 300);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).expect("vec write");

        let mut socket = SocketLike::new(rng.usize_in(1, 9), *rng.pick(&[0, 2, 3]));
        write_frame(&mut socket, &body).expect("short writes resume");
        assert_eq!(socket.wire, wire);

        let mut bytewise = ByteAtATime(Vec::new());
        write_frame(&mut bytewise, &body).expect("one byte per call");
        assert_eq!(bytewise.0, wire);
    });

    let mut stuck = SocketLike::new(0, 0);
    let err = write_frame(&mut stuck, b"body").expect_err("a writer that takes nothing");
    assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
}

/// A wire image of several frames, for the incremental decoder tests.
fn arb_wire(rng: &mut CaseRng) -> (Vec<Vec<u8>>, Vec<u8>) {
    let bodies: Vec<Vec<u8>> = (0..rng.usize_in(1, 6)).map(|_| rng.bytes(0, 120)).collect();
    let mut wire = Vec::new();
    for b in &bodies {
        write_frame(&mut wire, b).expect("vec write");
    }
    (bodies, wire)
}

/// Feeding the decoder one byte at a time yields exactly the frames the
/// blocking reader would see, with nothing left over.
#[test]
fn incremental_decoder_byte_at_a_time() {
    check("incremental_decoder_byte_at_a_time", 128, |rng| {
        let (bodies, wire) = arb_wire(rng);
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for byte in &wire {
            decoder.extend(std::slice::from_ref(byte));
            while let Some(frame) = decoder.next_frame().expect("valid stream") {
                got.push(frame);
            }
        }
        assert_eq!(got, bodies);
        assert_eq!(decoder.buffered(), 0);
        decoder.finish().expect("no partial frame at EOF");
    });
}

/// Splitting the stream at *every* point produces identical frames: the
/// decoder is resumable across arbitrary read boundaries.
#[test]
fn incremental_decoder_every_split_point() {
    check("incremental_decoder_every_split_point", 64, |rng| {
        let (bodies, wire) = arb_wire(rng);
        for cut in 0..=wire.len() {
            let mut decoder = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in [&wire[..cut], &wire[cut..]] {
                decoder.extend(chunk);
                while let Some(frame) = decoder.next_frame().expect("valid stream") {
                    got.push(frame);
                }
            }
            assert_eq!(got, bodies, "split at {cut}");
            decoder.finish().expect("no partial frame at EOF");
        }
    });
}

/// An oversized length prefix is rejected as soon as the header is
/// visible — before the announced body is buffered — and EOF mid-frame
/// is a truncation, exactly like the blocking path.
#[test]
fn incremental_decoder_rejects_oversize_and_truncation() {
    check("incremental_decoder_oversize_truncation", 64, |rng| {
        let len = rng.u64_in(MAX_FRAME as u64 + 1, u32::MAX as u64 + 1) as u32;
        let mut decoder = FrameDecoder::new();
        decoder.extend(&len.to_be_bytes());
        match decoder.next_frame() {
            Err(FrameError::Oversized(n)) => assert_eq!(n, len as usize),
            other => panic!("announced {len} bytes, got {other:?}"),
        }

        // A strict prefix of a valid frame, then EOF.
        let body = rng.bytes(1, 100);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).expect("vec write");
        let cut = rng.usize_in(1, wire.len() - 1);
        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire[..cut]);
        assert!(
            decoder
                .next_frame()
                .expect("prefix is not an error")
                .is_none(),
            "partial frame must not decode"
        );
        match decoder.finish() {
            Err(FrameError::Truncated) => {}
            other => panic!("EOF after {cut}/{} bytes gave {other:?}", wire.len()),
        }
    });
}

/// Every cluster opcode body (EXEC_ALT through RECONCILE) survives the
/// incremental decoder at every stream split point, and every strict
/// prefix of the body is an error — a partition chopping a frame
/// mid-field can never mis-parse into a different message.
#[test]
fn cluster_opcode_bodies_at_every_split_point() {
    let name = |r: &mut CaseRng, lo: usize, hi: usize| {
        String::from_utf8(r.vec(lo, hi, |r| b'a' + (r.u8() % 26))).expect("ascii")
    };
    check("cluster_opcode_bodies_split", 32, |rng| {
        let reqs = vec![
            Request::ExecAlt {
                race_id: rng.u64(),
                alt_idx: rng.u64_in(0, 1 << 32) as u32,
                deadline_ms: rng.u64_in(0, u32::MAX as u64 + 1) as u32,
                arg: rng.u64(),
                workload: name(rng, 1, 40),
                origin: name(rng, 1, 40),
            },
            Request::AltResult {
                race_id: rng.u64(),
                alt_idx: rng.u64_in(0, 1 << 32) as u32,
                status: rng.u64_in(0, 3) as u8,
                value: rng.u64(),
                latency_us: rng.u64(),
            },
            Request::CommitVote {
                race_id: rng.u64(),
                origin: name(rng, 1, 40),
                candidate: name(rng, 1, 60),
            },
            Request::Eliminate {
                race_id: rng.u64(),
                origin: name(rng, 1, 40),
            },
            Request::PeerStats,
            Request::Reconcile {
                watermark: rng.u64(),
                origin: name(rng, 1, 40),
            },
        ];
        for req in reqs {
            let body = req.encode();
            for cut in 0..body.len() {
                assert!(
                    Request::decode(&body[..cut]).is_err(),
                    "{req:?}: prefix of {cut}/{} bytes must not parse",
                    body.len()
                );
            }
            let mut wire = Vec::new();
            write_frame(&mut wire, &body).expect("vec write");
            for cut in 0..=wire.len() {
                let mut decoder = FrameDecoder::new();
                let mut got = Vec::new();
                for chunk in [&wire[..cut], &wire[cut..]] {
                    decoder.extend(chunk);
                    while let Some(frame) = decoder.next_frame().expect("valid stream") {
                        got.push(frame);
                    }
                }
                assert_eq!(got.len(), 1, "{req:?}: split at {cut}");
                assert_eq!(
                    Request::decode(&got[0]).expect("framed body decodes"),
                    req,
                    "split at {cut}"
                );
            }
        }
    });
}

/// An opcode byte outside the protocol maps to `UnknownOpcode` — the
/// distinguished, stream-preserving error — never to `Malformed`, and
/// never to a bogus parse.
#[test]
fn unknown_opcodes_distinguished_from_malformed() {
    check("unknown_opcodes_distinguished", 128, |rng| {
        // 0x01..=0x0B are assigned; everything above is free.
        let op = rng.u64_in(0x0C, 0x100) as u8;
        let mut body = vec![op];
        body.extend(rng.bytes(0, 32));
        match Request::decode(&body) {
            Err(FrameError::UnknownOpcode(got)) => assert_eq!(got, op),
            other => panic!("opcode 0x{op:02x} gave {other:?}"),
        }
    });
}

/// Trailing bytes after a well-formed message are a protocol error.
#[test]
fn trailing_bytes_rejected() {
    check("trailing_bytes_rejected", 128, |rng| {
        let mut body = arb_response(rng).encode();
        body.extend(rng.bytes(1, 8));
        assert!(Response::decode(&body).is_err());
    });
}
