//! # altx-serve — speculation as a service
//!
//! A std-only TCP daemon that runs the paper's construct as a server
//! primitive: each request names a registered *workload* — a block of
//! mutually exclusive alternatives — and the daemon races the
//! alternatives on real threads, replying with the first successful
//! value, the winning alternative, and the latency. It is the
//! hedged-request pattern with the paper's semantics made explicit:
//! alternatives are speculative, losers are eliminated cooperatively,
//! and the observable behaviour is that of a single sequential choice.
//!
//! Production scaffolding around the race:
//!
//! * a fixed [`pool::WorkerPool`] with a **bounded** run queue —
//!   admission control sheds load with an explicit `Overloaded` reply
//!   instead of queueing without bound;
//! * per-request **deadlines** carried by the engine's `CancelToken`
//!   (the serving analogue of `alt_wait(timeout)` from §3.2) with
//!   `DeadlineExceeded` replies;
//! * graceful shutdown that drains every in-flight race and joins every
//!   thread before exiting;
//! * [`telemetry`]: atomic counters, fixed-bucket latency histograms,
//!   and per-alternative win rates, served over the same socket as a
//!   stats page or Prometheus text format.
//!
//! Binaries: `altxd` (the daemon) and `altx-load` (an operator's
//! closed-loop smoke load that prints a summary; the benchmark is
//! `benchmark/run.sh`). See the README's "Serving" section for the
//! wire protocol and a transcript.
//!
//! The front end is a poll-based **reactor** (`reactor.rs`): one event
//! loop thread multiplexes every connection over non-blocking sockets —
//! shard 0's every outbound peer link too — so idle connections cost a
//! file descriptor rather than a thread, and pipelined requests on one
//! connection are answered in order. The
//! worker that finishes a race writes its reply to the socket itself,
//! under the connection's write-half lock; the reactor is roused only
//! for output the socket would not take. The reply path is
//! zero-copy ([`ring`]): the winner encodes its whole wire frame once
//! into a fixed shard-local ring slot and the socket write reads
//! straight from it, with oversize or ring-exhausted replies spilling
//! to the [`bufpool`] path; sharded daemons accept on per-shard
//! `SO_REUSEPORT` listeners so a connection never changes threads
//! between accept and service.

// `deny` rather than `forbid`: the crate's one `#[allow(unsafe_code)]`
// corner is the reactor's `sys` module (the `ppoll(2)` binding, the
// `SO_REUSEPORT` bind, the non-blocking `connect(2)`, and
// `prctl(PR_{SET,GET}_TIMERSLACK)`).
// `scripts/ci.sh` fails if the keyword appears in a second file — this
// one included.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bufpool;
pub mod client;
pub mod commit;
mod conn;
pub mod frame;
pub(crate) mod link;
pub mod peer;
pub(crate) mod placement;
pub mod pool;
pub(crate) mod reactor;
pub(crate) mod remote;
pub mod ring;
pub mod sched;
pub mod server;
pub mod telemetry;
pub mod workload;

pub use client::Client;
pub use commit::{CommitLedger, TallyState, VoteTally};
pub use frame::{Request, Response, MAX_FRAME};
pub use peer::PeerConfig;
#[doc(hidden)]
pub use reactor::timer_slack_ns;
pub use sched::{Admission, HedgeConfig, HedgePolicy, Lanes};
pub use server::{run, start, ServerConfig, ServerHandle};
pub use telemetry::Telemetry;
