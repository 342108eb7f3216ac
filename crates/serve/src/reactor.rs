//! The event-loop front end: reactor *shards*, `poll(2)`, every
//! connection.
//!
//! An event-loop thread multiplexes a *wake channel* and a set of
//! sockets through `poll(2)`, so concurrent connections — and, on shard
//! 0, the outbound links to peers — cost file descriptors, not threads:
//! the paper's parent/child split (a cheap speculative child per
//! alternative, one responsive parent at the rendezvous) applied to the
//! serving layer itself.
//!
//! With `--shards N` (N > 1) the front end runs **N independent
//! reactors**, each owning its *own* `SO_REUSEPORT` listener bound to
//! the same address: the kernel's accept hash spreads incoming
//! connections across the shards and an accepted socket is already on
//! the thread that will serve it — accept → poll-set registration
//! never crosses threads. From that moment the connection belongs to
//! exactly one shard — its poll set, frame decoding, buffer pool and
//! reply ring are that shard's. Nothing on the request
//! path crosses a shard boundary, and the only shared mutable state on
//! it is a connection's write half (`conn.rs`), locked once per reply
//! for one slot fill and one socket write. There is no acceptor thread
//! and no fallback topology: where a per-shard bind fails, `start`
//! fails. With one shard (the default) there is no reuseport either —
//! the lone reactor owns the lone listener, exactly the pre-sharding
//! topology.
//!
//! The moving parts:
//!
//! * **The request path is a value** ([`Shard`]): a decoded request (or
//!   the framing error that ended a connection's input), the instant it
//!   was read and the pool's load go in; the one [`Action`] it gets
//!   comes out, and with it whether the connection is read on — not
//!   after `SHUTDOWN` or a protocol error. `Shard` never writes a
//!   socket, wakes a thread, submits to the pool, cancels a token or
//!   reads a clock; each of those is the shell's part of an action. A
//!   commit vote only updates the ledger's table, so `Shard` decides
//!   it; an elimination cancels tokens, so it is an action. The
//!   [`Reactor`] is the shell: poll, accept, read, decode,
//!   [`Shard::step`], perform the action, close.
//! * **One kind of connection** (`conn.rs`): shard 0's peer links are
//!   connections it dialled, in the one map, polled, read and written
//!   like the accepted ones; their frames, dial and close go to
//!   [`PeerLinks`] instead of [`Shard::step`]. A hang-up ends any
//!   connection once what the peer wrote before it is handled.
//! * **sys** (`sys.rs`): the C library calls std does not wrap.
//! * **Clocks**: every thread that runs a shard sets its own timer
//!   slack to 1 ns first thing ([`tighten_timer_slack`]), and so does a
//!   racer the first time it serves one of the pool's slots (a racer
//!   inherits its spawner's slack, and a process's first racer may have
//!   been spawned by a thread that is not the daemon's), and a poll
//!   timeout is a `Duration` handed to `ppoll`, so a wait on a clock —
//!   a body's sleep, a deadline or a hedge release, a peer link's tick
//!   — ends when it says, not the kernel's default 50 µs later. A
//!   shard waits for its 250 ms backstop and reads no time, except
//!   shard 0 while its peer links ([`PeerLinks`]) have something due;
//!   their commands arrive on its wake channel.
//! * **A race carries its reply slot** ([`Flight`]): the one reply slot
//!   a queued or distributed race owes and its shard's delivery handle
//!   ([`ReactorShared`]: ring, wake channel, `draining`), *moved* to
//!   whoever decides the race — a pool job's completion closure, or the
//!   distributed-race shell (`remote.rs`), which keeps it beside its
//!   table under `race_id`. Nothing is registered, so nothing is looked
//!   up: the decider already holds the way home. So does a peer's
//!   shipped alternative: its job pushes the result on the write half its
//!   `EXEC_ALT` arrived on ([`ReactorShared::push`]), the origin's link —
//!   the half that holds the leg's cancel token, which an `ELIMINATE` on
//!   that connection or its close cancels (`conn.rs`).
//! * **Direct delivery** ([`Flight::answer`]): the one way a reply
//!   reaches a connection from another thread. The deciding thread
//!   encodes the reply **once** into a ring slot (`ring.rs`), locks the
//!   connection's write half, fills the request's reply slot and writes
//!   to the socket right there: no completion queue, no second thread,
//!   no reply byte copied, no two locks held at once. "Each request
//!   answered once" is the write half's rule — a slot is filled only
//!   while empty — so a refused submission is shed from the reactor's
//!   own copy of the slot without asking who else holds one.
//! * **Run on the shard** ([`Action::RaceHere`]): a workload measured
//!   short enough that the hand-off to a worker would be a visible share
//!   of its race (`CatalogStats::runs_on_shard`, the rule in `sched.rs`)
//!   is raced by this thread in place, after the admission gate and the
//!   placement policy — favourite inline, siblings on the crew,
//!   deadline token and containment as on a worker — with no queue push,
//!   no racer woken and no wait behind a worker held in another race. A
//!   workload whose bodies block (`WorkloadSpec::blocks`) never
//!   qualifies: this thread must not sleep in a body. The write half's
//!   sequence numbers park a shard-run reply behind an earlier one.
//! * **Wake channel**: a Unix socket pair acting as a self-pipe,
//!   one per shard. It is off the request path: an answer rouses the
//!   reactor only when it left it something to do — output the socket
//!   would not take (`POLLOUT` must be registered), a failed write, a
//!   connection that just became closable — or while the shard drains;
//!   the shutdown latch and the peer command queue use it too. The byte
//!   is written after every lock is dropped, and the wake fd is
//!   level-triggered, so a reactor that had already computed its poll
//!   set returns at once and looks again.
//! * **[`DaemonCtl`]**: the one deliberately global piece — the
//!   shutdown latch. A `SHUTDOWN` opcode lands on *some* shard but must
//!   drain all of them, so the latch fans a wake out to every shard,
//!   and the last shard to finish draining closes the worker pool;
//!   shard 0 first decides every open distributed race.
//! * **Drain ordering** (shutdown): (1) stop accepting and stop
//!   reading new requests, (2) keep polling while in-flight races
//!   deliver their replies, (3) close each connection once its last
//!   owed reply is written, (4) when the last shard has no client
//!   connections left (dialled ones read on), close the queue and wait
//!   out the pool's running slots. No admitted request goes unanswered.
//!   Step (3) is a handshake: the reactor publishes `draining` *then*
//!   looks at each write half under its lock; an answer delivers under
//!   that lock *then* reads the flag — so either it sees the flag and
//!   rouses the reactor, or its delivery came before the look and the
//!   reactor saw a drained connection.

use crate::bufpool::BufPool;
use crate::commit::CommitLedger;
use crate::conn::{Conn, ReplySlot, WriteHalf};
use crate::frame::{exec_alt_frame_len, FrameError, RequestRef, Response};
use crate::link::Event;
use crate::peer::{load_line, PeerLinks, PeerStatsTable};
use crate::placement::Placement;
use crate::pool::JobMeta;
use crate::ring::{EncodedReply, ReplyRing};
use crate::sched::{render_catalog, Admission, HedgePolicy, Lanes};
use crate::server::{alt_job, deadline_at, deadline_token, or_worker_lost, run_race, Daemon};
use crate::sys::{
    poll_fds, poll_timeout, tighten_timer_slack, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL,
    POLLOUT,
};
use crate::telemetry::{Metric, ShardStats, Telemetry};
use crate::workload;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard's delivery handle: what a thread that decides one of the
/// shard's races needs to write the reply — the reply ring it encodes
/// into, the wake channel, and the drain flag. Every [`Flight`] of the
/// shard holds it; it holds no lock and no table.
pub(crate) struct ReactorShared {
    /// The write end of the shard's self-pipe.
    wake_tx: UnixStream,
    ring: ReplyRing,
    /// The shard is draining: every answer rouses the reactor, which is
    /// waiting to close connections as they empty. Stored by the reactor
    /// before it looks at its write halves, loaded by an answer after it
    /// delivered (see the module docs' drain handshake).
    draining: AtomicBool,
}

impl ReactorShared {
    /// A shard's handle over a fresh ring, and the read end of its wake
    /// channel for the reactor that will poll it: a connected socket
    /// pair, the classic self-pipe from std-only parts.
    pub(crate) fn new(
        ring_slots: usize,
        ring_slot_bytes: usize,
    ) -> io::Result<(Arc<Self>, UnixStream)> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let shared = ReactorShared {
            wake_tx,
            ring: ReplyRing::new(ring_slots, ring_slot_bytes),
            draining: AtomicBool::new(false),
        };
        Ok((Arc::new(shared), wake_rx))
    }

    /// Rouses the shard with one byte: `WouldBlock` means it is waking
    /// anyway, any other error that it is gone.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Pushes `response`, the result of the leg request `seq` shipped,
    /// on `half` from whichever thread calls it, delivered directly as
    /// [`Flight::answer`] delivers a reply.
    pub(crate) fn push(&self, half: &WriteHalf, seq: u64, response: &Response) {
        let frame = EncodedReply::encode(response, &self.ring);
        if half.push(seq, frame) || self.draining.load(Ordering::SeqCst) {
            self.wake();
        }
    }
}

/// What makes a race: the workload, its deadline and its argument.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RaceKey {
    /// Catalog workload index (interned from the request's name).
    pub widx: usize,
    /// Request deadline in milliseconds; 0 is best-effort.
    pub deadline_ms: u32,
    /// The block parameter.
    pub arg: u64,
}

/// A race in flight: where its one reply is owed, and the way home.
/// Built by the shell when it queues or distributes a race, then
/// *moved* to whoever decides it, so answering it needs no look-up.
pub(crate) struct Flight {
    /// The request's reply slot.
    pub(crate) slot: ReplySlot,
    /// The delivery handle of the shard that owns the slot.
    pub(crate) home: Arc<ReactorShared>,
}

impl Flight {
    /// Delivers the race's one reply, on whichever thread calls it:
    /// encodes `response` once into the shard's reply ring (spilling to a
    /// fresh heap buffer when the ring can't take it) and delivers the
    /// frame to the slot's connection. A connection that is gone, or a
    /// slot somebody filled first, drops the frame, which reclaims its
    /// ring slot. The reactor is roused — after the write half is
    /// unlocked — only if the delivery left it something to do or the
    /// shard is draining.
    pub(crate) fn answer(self, response: &Response) {
        let (half, seq) = self.slot;
        let reply = EncodedReply::encode(response, &self.home.ring);
        if half.deliver(seq, reply, None) || self.home.draining.load(Ordering::SeqCst) {
            self.home.wake();
        }
    }
}

/// Daemon-wide control plane: the shutdown latch and the fan-out needed
/// to make every shard notice it — shard 0's peer links drain with
/// their shard. The `SHUTDOWN` opcode can arrive on any shard; the
/// handle's `shutdown()` comes from outside any of them — both funnel
/// here.
pub(crate) struct DaemonCtl {
    shutdown: AtomicBool,
    /// Shards still running their event loop; the last one out shuts
    /// the worker pool down.
    live_shards: AtomicUsize,
    /// Every shard's delivery handle, so the latch can wake them all.
    shards: Vec<Arc<ReactorShared>>,
}

impl DaemonCtl {
    pub(crate) fn new(shards: Vec<Arc<ReactorShared>>) -> Self {
        DaemonCtl {
            shutdown: AtomicBool::new(false),
            live_shards: AtomicUsize::new(shards.len()),
            shards,
        }
    }

    /// Flags shutdown and wakes every shard so they notice promptly.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.wake();
        }
    }

    /// The daemon is draining: no new connections, no new requests.
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Records one shard leaving its loop; true for the last one, which
    /// then owns pool teardown.
    fn shard_exited(&self) -> bool {
        self.live_shards.fetch_sub(1, Ordering::SeqCst) == 1
    }
}

/// Empties a shard's wake channel, however many bytes piled up. A
/// short read emptied it; a byte written after that is polled again.
fn drain_wake(mut wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    loop {
        match wake_rx.read(&mut sink) {
            Ok(n) if n == sink.len() => continue,
            // Drained — or 0: every tx gone, shutdown is near.
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break, // WouldBlock: drained
        }
    }
}

/// How long `poll` may sleep with nothing to do. Wakeups (leftover
/// output, shutdown requests) interrupt it; the timeout is only a
/// backstop.
const POLL_BACKSTOP: Duration = Duration::from_millis(250);

/// One event-loop shard: owns its listener (its own `SO_REUSEPORT`
/// bind when sharded, the lone listener in single-shard mode), its
/// wake receiver, its buffer pool, and every connection it accepted —
/// and shard 0 every outbound peer link too.
pub(crate) struct Reactor {
    listener: TcpListener,
    /// When an accept last failed for want of a resource: until a
    /// connection closes or the backstop has passed, the listener is
    /// left out of the poll set.
    accept_failed: Option<Instant>,
    wake_rx: UnixStream,
    /// This shard's delivery handle — and through it the reply ring,
    /// which the reactor's own inline replies draw from too, spilling
    /// to `bufs` instead of allocating.
    shared: Arc<ReactorShared>,
    /// Everything daemon-wide the shell acts on: pool, telemetry,
    /// scheduler, control plane, and the peer plane.
    daemon: Arc<Daemon>,
    /// What decides each request.
    shard: Shard,
    stats: Arc<ShardStats>,
    bufs: BufPool,
    /// The frames of the connection being read, reused from read to
    /// read.
    frames: Vec<Vec<u8>>,
    /// Every connection: the accepted ones and, on shard 0, the ones its
    /// peer links dialled.
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Shard 0's outbound peer links (`peer.rs`); `None` on every other
    /// shard, and on shard 0 of a daemon with no `--peer`.
    pub(crate) links: Option<PeerLinks>,
}

/// The pool's load as a request finds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Load {
    pub(crate) queued: usize,
    pub(crate) busy: u64,
    pub(crate) workers: usize,
}

/// What the shell does for one request — [`Shard::step`]'s decision.
#[derive(Debug)]
pub(crate) enum Action {
    /// Answer now.
    Reply(Response),
    /// Answer now and read the connection no more: a protocol error.
    Hangup(Response),
    /// Answer `Overloaded`, counted under the metric.
    Shed(Metric),
    /// Race it on this thread: its workload's verdict says so.
    RaceHere(RaceKey),
    /// Queue its race on the pool.
    Queue(RaceKey, JobMeta),
    /// Ship the alternatives `assign` names a peer for and race the rest
    /// on the pool; `voters` are the peers up when it was decided.
    Distribute {
        key: RaceKey,
        meta: JobMeta,
        assign: Vec<Option<String>>,
        voters: Vec<String>,
    },
    /// Run alternative `alt_idx` of the asking connection's race
    /// `race_id` on the pool and push its result on that connection.
    ExecAlt {
        key: RaceKey,
        meta: JobMeta,
        race_id: u64,
        alt_idx: u32,
    },
    /// Cancel what the asking connection shipped here for race `race_id`.
    Eliminate { race_id: u64 },
    /// Answer `draining`, drain the daemon and read the connection no
    /// more.
    Shutdown,
}

impl Action {
    /// Whether the connection is read on after this request.
    pub(crate) fn keeps_reading(&self) -> bool {
        !matches!(self, Action::Hangup(_) | Action::Shutdown)
    }
}

/// A reactor shard's request path as a value: what its decisions read
/// — the catalog statistics with each workload's shard verdict, the
/// admission gate, the lanes, the placement policy and the peers' up
/// set, the commit ledger and the counters. Everything in it is shared
/// daemon-wide, so every shard's copy decides alike; none of it is a
/// socket, a thread, the pool or a clock (see the module docs).
#[derive(Clone)]
pub(crate) struct Shard {
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) sched: Arc<HedgePolicy>,
    pub(crate) admission: Admission,
    pub(crate) lanes: Lanes,
    pub(crate) placement: Arc<Placement>,
    pub(crate) peers: Arc<PeerStatsTable>,
    pub(crate) ledger: Arc<CommitLedger>,
}

impl Shard {
    /// Decides one request of a connection: `request` as decoded, read
    /// at `now` with the pool at `load`.
    pub(crate) fn step(
        &self,
        request: Result<RequestRef, FrameError>,
        now: Instant,
        load: Load,
    ) -> Action {
        let meta = |widx, deadline_ms| JobMeta {
            deadline: deadline_at(now, deadline_ms),
            lane: self.lanes.lane_of(widx),
        };
        let request = match request {
            Ok(request) => request,
            Err(e) => {
                self.telemetry.on_error();
                let error = Response::Error {
                    message: e.to_string(),
                };
                // An unknown opcode arrives in a well-formed frame: the
                // stream is still in sync, so old clients against new
                // daemons (and vice versa) degrade per request, not per
                // connection.
                return match e {
                    FrameError::UnknownOpcode(_) => Action::Reply(error),
                    _ => Action::Hangup(error),
                };
            }
        };
        match request {
            RequestRef::Stats => Action::Reply(text(self.telemetry.render_stats())),
            RequestRef::Prometheus => Action::Reply(text(self.telemetry.render_prometheus())),
            RequestRef::Catalog => Action::Reply(text(render_catalog(&self.sched))),
            RequestRef::Shutdown => Action::Shutdown,
            RequestRef::Run {
                workload,
                deadline_ms,
                arg,
            } => {
                // Unknown names are refused before they cost a queue slot.
                let Some(widx) = workload::index_of(workload) else {
                    self.telemetry.on_error();
                    return Action::Reply(Response::UnknownWorkload);
                };
                let key = RaceKey {
                    widx,
                    deadline_ms,
                    arg,
                };
                let (queued, workers) = (load.queued, load.workers);
                // Feasibility admission, before the race spends a queue
                // slot or a wire frame: a deadline provably unmeetable
                // from the workload's p99 service time plus the current
                // queue wait is shed now instead of burning a worker just
                // to time out. Best-effort requests (deadline 0) pass.
                if !self.admission.admit(widx, deadline_ms, queued, workers) {
                    return Action::Shed(Metric::ShedsAtAdmission);
                }
                // Placement: with no peer up — the overwhelmingly common
                // case — it assigns nothing and the race stays local. The
                // frame size is what crosses the wire per shipped
                // alternative.
                let up = self.peers.up_peers();
                let bytes = exec_alt_frame_len(workload) as u64;
                let catalog = self.sched.catalog();
                let assign = self
                    .placement
                    .assign(widx, bytes, &up, queued, workers, catalog);
                if let Some(assign) = assign {
                    // Voters are frozen at race creation: this node plus
                    // every peer up now. A voter dying mid-race counts as
                    // a denial.
                    let voters = up.into_iter().map(|p| p.addr).collect();
                    let meta = meta(widx, deadline_ms);
                    return Action::Distribute {
                        key,
                        meta,
                        assign,
                        voters,
                    };
                }
                // Shard or queue: the rule is in `sched.rs`.
                if catalog.runs_on_shard(widx) {
                    Action::RaceHere(key)
                } else {
                    Action::Queue(key, meta(widx, deadline_ms))
                }
            }
            RequestRef::ExecAlt {
                race_id,
                alt_idx,
                deadline_ms,
                arg,
                workload,
            } => match workload::index_of(workload) {
                Some(widx) => Action::ExecAlt {
                    key: RaceKey {
                        widx,
                        deadline_ms,
                        arg,
                    },
                    meta: meta(widx, deadline_ms),
                    race_id,
                    alt_idx,
                },
                None => {
                    self.telemetry.on_error();
                    Action::Reply(Response::Overloaded)
                }
            },
            RequestRef::CommitVote {
                race_id,
                origin,
                candidate,
            } => {
                let clock = || now;
                let (granted, holder) = self.ledger.vote_with(origin, race_id, candidate, clock);
                self.telemetry.add(Metric::CommitVotes, 1);
                Action::Reply(Response::Vote { granted, holder })
            }
            RequestRef::Eliminate { race_id } => Action::Eliminate { race_id },
            RequestRef::PeerStats => {
                // The stats page doubles as the heartbeat reply: the
                // trailing machine-parsable line advertises this node's
                // load so origins can place around busy peers.
                let mut body = self.peers.render();
                body.push_str(&load_line(load.queued, load.busy, load.workers));
                Action::Reply(text(body))
            }
        }
    }
}

impl Reactor {
    /// A shard over its own `listener`, deciding with `shard`,
    /// delivering through `home` and woken through its channel
    /// (`wake_rx`); shard 0 is handed the peer `links`. Also returns the
    /// shard's counters (for telemetry).
    pub(crate) fn new(
        listener: TcpListener,
        daemon: Arc<Daemon>,
        shard: Shard,
        (home, wake_rx): (Arc<ReactorShared>, UnixStream),
        links: Option<PeerLinks>,
    ) -> (Self, Arc<ShardStats>) {
        let bufs = BufPool::default();
        let stats = Arc::new(ShardStats::new(bufs.stats(), home.ring.stats()));
        let reactor = Reactor {
            listener,
            accept_failed: None,
            wake_rx,
            shared: home,
            daemon,
            shard,
            stats: Arc::clone(&stats),
            bufs,
            frames: Vec::new(),
            conns: HashMap::new(),
            next_conn: 0,
            links,
        };
        (reactor, stats)
    }

    /// Runs until shutdown is requested *and* every connection has
    /// drained; the last shard out closes the queue and drains the pool.
    pub(crate) fn run(mut self) {
        // A race run here waits on a clock for its hedge releases, and
        // so do the racers it spawns.
        tighten_timer_slack();
        // The poll set and its connection ids, rebuilt in place each turn.
        let mut fds: Vec<PollFd> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        loop {
            let draining = self.daemon.ctl.draining();
            if draining {
                // Published before any write half is looked at: the
                // answering thread's half of the drain handshake reads
                // it after delivering under that half's lock.
                let first = !self.shared.draining.swap(true, Ordering::SeqCst);
                // Open distributed races are decided on the first
                // draining turn; their answers go out through this drain.
                if let Some(links) = self.links.as_mut().filter(|_| first) {
                    links.drain();
                }
            }

            // Poll set: wake channel first, this shard's own listener
            // second (only while accepting), then every connection,
            // accepted or dialled — one look at each per turn gives its
            // poll interest or says it is done, and a done connection is
            // reclaimed here, before the poll, never parked until some
            // future accept (a dialled one's link hears it closed).
            // POLLOUT interest is re-derived from the unflushed output
            // every turn, so a write that drained since (on whichever
            // thread) is deregistered immediately.
            fds.clear();
            ids.clear();
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            let accepting =
                !draining && (self.accept_failed).is_none_or(|at| at.elapsed() >= POLL_BACKSTOP);
            if accepting {
                self.accept_failed = None;
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            }
            let conn_fds_start = fds.len();
            let mut done = Vec::new();
            for (&id, conn) in &self.conns {
                match conn.interest(draining) {
                    Some(events) => {
                        fds.push(PollFd::new(conn.stream().as_raw_fd(), events));
                        ids.push(id);
                    }
                    None => done.push(id),
                }
            }
            done.into_iter().for_each(|id| self.close(id));
            // The drain ends with the clients: the links read on.
            let mut clients = self.conns.values().map(Conn::write_half);
            if draining && clients.all(|half| half.link.is_some()) {
                break;
            }
            // Shard 0's peer clocks: with nothing due no clock is read —
            // the backstop is the only timeout.
            let due = self.links.as_ref().and_then(PeerLinks::due);
            let timeout = due.map_or(POLL_BACKSTOP, |due| {
                poll_timeout(due, POLL_BACKSTOP, Instant::now())
            });

            match poll_fds(&mut fds, timeout) {
                Ok(_) => {}
                Err(_) => continue, // EINTR is retried inside; anything else: re-loop
            }

            let woken = fds[0].revents != 0;
            if woken {
                // One wakeup event is counted per drain, not per byte —
                // the counter tracks how often the reactor was roused,
                // not how many deliveries asked for it.
                self.stats.on_wakeup();
                drain_wake(&self.wake_rx);
            }
            // Connection readiness, against the exact snapshot poll
            // reported.
            for (slot, &id) in ids.iter().enumerate() {
                let revents = fds[conn_fds_start + slot].revents;
                if revents != 0 {
                    self.handle_conn_event(id, revents);
                }
            }
            if let Some(links) = &mut self.links {
                links.turn(woken);
                for conn in links.dialled.drain(..) {
                    self.conns.insert(self.next_conn, conn);
                    self.next_conn += 1;
                }
            }

            if accepting && fds[1].revents & POLLIN != 0 {
                self.accept_ready();
            }
        }
        if self.daemon.ctl.shard_exited() {
            self.daemon.pool.shutdown();
        }
    }

    /// Accepts until this shard's own listener would block (the lone
    /// listener in single-shard mode, a reuseport sibling otherwise),
    /// dropping a socket whose options cannot be set. An accept that
    /// fails (`EMFILE` and the like) leaves the listener readable, so it
    /// sits out of the poll set for a while rather than have every poll
    /// return at once.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if let Ok(conn) = Conn::new(stream, Arc::clone(&self.stats)) {
                        self.conns.insert(self.next_conn, conn);
                        self.next_conn += 1;
                        self.stats.on_conn_open();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.accept_failed = Some(Instant::now());
                    break;
                }
            }
        }
    }

    /// Dispatches poll readiness for one connection. The one look-up by
    /// connection id: everything below is handed the write half. A
    /// dialled connection's frames, dial and end go to its link.
    fn handle_conn_event(&mut self, id: u64, revents: i16) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let half = Arc::clone(conn.write_half());
        if conn.dialling {
            let connected = conn.finish_dial();
            return self.tell_link(&half, |addr| Event::Dialed { addr, connected });
        }
        // A hang-up ends the connection once the frames the peer wrote
        // before it (a FIN, or a reset) are handled. In-flight races
        // keep running; their deliveries find the write half closed.
        let hung_up = revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
        if revents & POLLIN != 0 || hung_up {
            let mut frames = std::mem::take(&mut self.frames);
            let Ok(read) = conn.on_readable(&mut self.bufs, &mut frames) else {
                self.frames = frames;
                return self.close(id);
            };
            let (link, ended) = (half.link.is_some(), read.eof || read.error.is_some());
            let mut reading = !link;
            for body in frames.drain(..) {
                if link {
                    let resp = Response::decode(&body).ok();
                    self.tell_link(&half, |addr| Event::Reply { addr, resp });
                } else if reading {
                    reading = self.decide(&half, RequestRef::decode(&body));
                }
                self.bufs.put(body);
            }
            self.frames = frames;
            if let Some(e) = read.error.filter(|_| reading) {
                // One last reply; the read half already stopped reading
                // and the drain logic closes the connection behind it.
                self.decide(&half, Err(e));
            }
            if hung_up || (link && ended) {
                return self.close(id);
            }
        }
        // A POLLOUT event for a connection with nothing left to write
        // means a delivery on another thread drained the queue after
        // interest was registered. Counted, to show it stays at (or
        // near) zero under load.
        if revents & POLLOUT != 0 && !half.on_writable(&mut self.bufs) {
            self.stats.on_pollout_spurious();
        }
    }

    /// Has the shard decide one request of the connection whose write
    /// half is `half` and performs the action; `false` when the
    /// connection is read no more.
    fn decide(&mut self, half: &Arc<WriteHalf>, request: Result<RequestRef, FrameError>) -> bool {
        let seq = half.begin_request();
        let pool = &self.daemon.pool;
        let load = Load {
            queued: pool.queued(),
            busy: pool.busy(),
            workers: pool.workers(),
        };
        let now = Instant::now();
        let action = self.shard.step(request, now, load);
        let reading = action.keeps_reading();
        // What the reactor answers itself is the arm's value; an arm that
        // hands the request to another answerer returns.
        let daemon = &self.daemon;
        let overloaded = |metric| {
            daemon.telemetry.add(metric, 1);
            Response::Overloaded
        };
        let response = match action {
            Action::Reply(response) => response,
            Action::Hangup(response) => {
                half.close_read();
                response
            }
            Action::Shed(metric) => overloaded(metric),
            Action::RaceHere(key) => {
                daemon.telemetry.add(Metric::Accepted, 1);
                daemon.telemetry.add(Metric::RacesOnShard, 1);
                run_race(&daemon.telemetry, &daemon.sched, key, now)
            }
            Action::Queue(key, meta) => {
                // The flight moves into the completion; should the pool
                // refuse the job, that closure is dropped unrun and the
                // request is shed from this copy of its slot.
                let flight = Flight {
                    slot: (Arc::clone(half), seq),
                    home: Arc::clone(&self.shared),
                };
                let work = {
                    let daemon = Arc::clone(daemon);
                    move || run_race(&daemon.telemetry, &daemon.sched, key, Instant::now())
                };
                let done = move |reply| flight.answer(&or_worker_lost(reply));
                match daemon.pool.try_submit_work_at(meta, work, done) {
                    Ok(()) => {
                        daemon.telemetry.add(Metric::Accepted, 1);
                        return reading;
                    }
                    Err(_) => overloaded(Metric::Shed),
                }
            }
            Action::Distribute {
                key,
                meta,
                assign,
                voters,
            } => {
                let flight = Flight {
                    slot: (Arc::clone(half), seq),
                    home: Arc::clone(&self.shared),
                };
                daemon
                    .races
                    .distribute(flight, key, meta, assign, voters, now);
                return reading;
            }
            Action::ExecAlt {
                key,
                meta,
                race_id,
                alt_idx,
            } => {
                // Executor side of a shipped alternative: run exactly
                // that alternative and push its outcome on this very
                // connection, the origin's link. The reply only
                // acknowledges admission, so the origin turns a refusal
                // into a failed guard without waiting; the push may
                // overtake it.
                let token = deadline_token(now, key.deadline_ms);
                // Held by the connection before submission, so an
                // ELIMINATE or a close ahead of the worker pickup still
                // lands on the token.
                half.ship(seq, race_id, token.clone());
                let report = {
                    let (half, home) = (Arc::clone(half), Arc::clone(&self.shared));
                    move |(status, value, latency_us)| {
                        let result = Response::AltResult {
                            race_id,
                            alt_idx,
                            status,
                            value,
                            latency_us,
                        };
                        home.push(&half, seq, &result);
                    }
                };
                let telemetry = Arc::clone(&daemon.telemetry);
                let (work, done) = alt_job(telemetry, key.widx, alt_idx, key.arg, token, report);
                match daemon.pool.try_submit_work_at(meta, work, done) {
                    Ok(()) => {
                        daemon.telemetry.add(Metric::RemoteExecs, 1);
                        text("ok\n".to_owned())
                    }
                    Err(_) => {
                        half.retire(seq);
                        overloaded(Metric::Shed)
                    }
                }
            }
            Action::Eliminate { race_id } => {
                let n = half.eliminate(race_id);
                daemon.telemetry.add(Metric::Eliminations, 1);
                text(format!("eliminated {n}\n"))
            }
            Action::Shutdown => {
                // Daemon-wide: every shard must drain, not just the one
                // this frame happened to land on.
                daemon.ctl.request_shutdown();
                text("draining\n".to_owned())
            }
        };
        // Encoded into a ring slot (or a pool-backed spill) and delivered
        // like any other reply: whatever the delivery leaves — output, a
        // failed socket, a connection now closable — the next turn's look
        // at the half picks up.
        let reply = EncodedReply::encode_with(&response, &self.shared.ring, &mut self.bufs);
        half.deliver(seq, reply, Some(&mut self.bufs));
        reading
    }

    /// Drops one connection's state, closing its write half so that
    /// races still in flight for it deliver to nobody and the legs
    /// shipped on it are cancelled — or its link hears it closed.
    fn close(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        let half = conn.write_half();
        half.close();
        self.accept_failed = None;
        if half.link.is_none() {
            self.stats.on_conn_close();
        }
        self.tell_link(half, Event::Closed);
    }

    /// Hands what a dialled connection did to its link.
    fn tell_link(&mut self, half: &WriteHalf, event: impl FnOnce(String) -> Event) {
        if let (Some(addr), Some(links)) = (&half.link, &mut self.links) {
            links.step(event(addr.clone()));
        }
    }
}

/// A `Text` reply.
fn text(body: String) -> Response {
    Response::Text { body }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, Request};
    use crate::peer::tests::mark_up;
    use crate::sched::HedgeConfig;
    use altx_check::{check, CaseRng};
    use std::net::TcpStream;

    const SLOTS: usize = 4;
    const PAIRS: usize = 3;

    /// One thing one thread does, to a flight or to a connection.
    enum Move {
        /// The decider answers flight number `f` with the race's own
        /// reply.
        Answer(usize, Flight),
        /// The pool dropped the job unrun: its completion hears `None`.
        Lose(Flight),
        /// The reactor sheds from its own copy of a flight's slot.
        Shed(ReplySlot),
        /// The reactor reclaims connection `c`.
        Close(usize),
    }

    /// The reply flight number `flight`'s race would give.
    fn own_reply(flight: usize) -> Response {
        Response::Ok {
            winner: 0,
            winner_name: "alt0".to_owned(),
            latency_us: 7,
            value: flight as u64,
        }
    }

    /// The poll timeout is the time to the next due instant, to the
    /// nanosecond: no millisecond rounding, never past the backstop,
    /// never negative.
    #[test]
    fn poll_timeout_is_the_time_to_the_next_deadline() {
        let now = Instant::now();
        let us = Duration::from_micros;
        let ahead = poll_timeout(now + us(200), POLL_BACKSTOP, now);
        assert_eq!(ahead, us(200), "200 µs to the deadline is a 200 µs wait");
        let far = now + 4 * POLL_BACKSTOP;
        assert_eq!(poll_timeout(far, POLL_BACKSTOP, now), POLL_BACKSTOP);
        let past = now;
        assert_eq!(
            poll_timeout(past, POLL_BACKSTOP, now + us(5)),
            Duration::ZERO
        );
    }

    fn answer_own((f, flight): (usize, Flight)) {
        flight.answer(&own_reply(f));
    }

    /// The race-in-flight contract, on real threads and real sockets:
    /// whichever threads answer a flight, lose it, shed its request from
    /// the reactor's copy of the slot (instead of a completion dropped
    /// unrun, or racing one that did run) and reclaim connections, in
    /// whatever order — every request of an open connection gets exactly
    /// one frame, one of the replies its race could have had, in request
    /// order; a reclaimed connection gets a prefix of that and nothing
    /// once it is closed; the reactor is roused exactly when the shard
    /// drains; and every ring slot comes home.
    #[test]
    fn any_order_of_answer_shed_loss_and_close_fills_each_slot_once() {
        // A few long-lived loopback pairs; each case puts fresh write
        // halves over them, so 2 500 cases cost no port and no TIME_WAIT.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let pairs: Vec<(TcpStream, TcpStream)> = (0..PAIRS)
            .map(|_| {
                let addr = listener.local_addr().expect("addr");
                let client = TcpStream::connect(addr).expect("connect");
                let timeout = Some(Duration::from_secs(10));
                client.set_read_timeout(timeout).expect("timeout");
                (listener.accept().expect("accept").0, client)
            })
            .collect();

        check("flight_schedules", 2_500, |rng| {
            let (home, wake_rx) = ReactorShared::new(SLOTS, 64).expect("wake pair");
            let stats = Arc::new(ShardStats::new(
                BufPool::default().stats(),
                home.ring.stats(),
            ));
            let draining = rng.chance(0.2);
            home.draining.store(draining, Ordering::SeqCst);
            let n_conns = rng.usize_in(1, PAIRS + 1);
            let halves: Vec<Arc<WriteHalf>> = (0..n_conns)
                .map(|c| {
                    let stream = pairs[c].0.try_clone().expect("dup");
                    let conn = Conn::new(stream, Arc::clone(&stats)).expect("conn");
                    Arc::clone(conn.write_half())
                })
                .collect();

            // Requests, each on some connection, each its own flight.
            let mut owed: Vec<Vec<usize>> = vec![Vec::new(); n_conns];
            let mut slots: Vec<ReplySlot> = Vec::new();
            for _ in 0..rng.usize_in(1, 11) {
                let c = rng.usize_in(0, n_conns);
                owed[c].push(slots.len());
                slots.push((Arc::clone(&halves[c]), halves[c].begin_request()));
            }

            // Each flight's fate, and with it the replies its request
            // may see.
            let mut moves = Vec::new();
            let mut held = Vec::new();
            let mut admissible: Vec<Vec<Response>> = Vec::new();
            for (f, slot) in slots.into_iter().enumerate() {
                let spare = (Arc::clone(&slot.0), slot.1);
                let flight = Flight {
                    slot,
                    home: Arc::clone(&home),
                };
                admissible.push(match rng.usize_in(0, 5) {
                    0 => {
                        moves.push(Move::Answer(f, flight));
                        vec![own_reply(f)]
                    }
                    1 => {
                        moves.push(Move::Lose(flight));
                        vec![or_worker_lost(None)]
                    }
                    2 => {
                        // Refused: the completion, and the flight in
                        // it, is dropped without ever running.
                        drop(flight);
                        moves.push(Move::Shed(spare));
                        vec![Response::Overloaded]
                    }
                    3 => {
                        // Never in the daemon, and still once each: a
                        // shed racing the completion it gave up on.
                        moves.push(Move::Answer(f, flight));
                        moves.push(Move::Shed(spare));
                        vec![own_reply(f), Response::Overloaded]
                    }
                    _ => {
                        held.push((f, flight));
                        vec![own_reply(f)]
                    }
                });
            }
            let closed: Vec<bool> = (0..n_conns).map(|_| rng.chance(0.25)).collect();
            moves.extend((0..n_conns).filter(|&c| closed[c]).map(Move::Close));

            // Dealt in seeded order to two or three threads.
            let mut hands: Vec<Vec<Move>> = (0..rng.usize_in(2, 4)).map(|_| Vec::new()).collect();
            while !moves.is_empty() {
                let mv = moves.swap_remove(rng.usize_in(0, moves.len()));
                let hand = rng.usize_in(0, hands.len());
                hands[hand].push(mv);
            }
            std::thread::scope(|scope| {
                for hand in hands {
                    let (halves, home) = (&halves, &home);
                    scope.spawn(move || {
                        for mv in hand {
                            match mv {
                                Move::Answer(f, flight) => answer_own((f, flight)),
                                Move::Lose(flight) => flight.answer(&or_worker_lost(None)),
                                Move::Shed(slot) => {
                                    let home = Arc::clone(home);
                                    Flight { slot, home }.answer(&Response::Overloaded)
                                }
                                Move::Close(c) => halves[c].close(),
                            }
                        }
                    });
                }
            });
            // Every close has happened: a flight answered now must not
            // reach a reclaimed connection.
            let held_back: Vec<usize> = held.iter().map(|&(f, _)| f).collect();
            held.into_iter().for_each(answer_own);

            let end = Response::Text {
                body: "end of case".to_owned(),
            };
            for c in 0..n_conns {
                // Behind everything the case wrote on this socket.
                write_frame(&mut &pairs[c].0, &end.encode()).expect("sentinel");
                let mut client = &pairs[c].1;
                let mut seen = Vec::new();
                loop {
                    let body = read_frame(&mut client).expect("read").expect("a frame");
                    match Response::decode(&body).expect("decode") {
                        reply if reply == end => break,
                        reply => seen.push(reply),
                    }
                }
                assert!(seen.len() <= owed[c].len(), "conn {c}: a second reply");
                for (seq, reply) in seen.iter().enumerate() {
                    let flight = owed[c][seq];
                    assert!(
                        admissible[flight].contains(reply),
                        "conn {c} seq {seq} (flight {flight}): {reply:?}"
                    );
                }
                if closed[c] {
                    // In order, so nothing at or past the first request
                    // whose flight was answered after the close.
                    let late = owed[c].iter().position(|f| held_back.contains(f));
                    assert!(
                        seen.len() <= late.unwrap_or(owed[c].len()),
                        "conn {c}: written after close"
                    );
                } else {
                    assert_eq!(seen.len(), owed[c].len(), "conn {c}: a request unanswered");
                }
            }
            let mut fd = [PollFd::new(wake_rx.as_raw_fd(), POLLIN)];
            let roused = poll_fds(&mut fd, Duration::ZERO).expect("poll") == 1;
            assert_eq!(roused, draining, "roused iff the shard drains");
            drain_wake(&wake_rx);

            halves.iter().for_each(|half| half.close());
            assert_eq!(stats.conns_active(), 0, "a closed connection is not active");
            assert_eq!(home.ring.idle_slots(), SLOTS, "every slot back in the ring");
        });
    }

    /// The workloads a request may name: the catalog and one it lacks.
    const NAMES: [&str; 6] = ["trivial", "lognormal", "bimodal", "sleep", "prolog", "nope"];

    /// One request body as a client or a peer might send it: every
    /// opcode, a truncated body and an opcode this build does not know —
    /// among them 0x07, an `ALT_RESULT` sent as a request, as builds
    /// before the pushed result sent it, and 0x0B, the `RECONCILE` builds
    /// before connection-scoped legs sent on a redial.
    fn any_body(rng: &mut CaseRng) -> Vec<u8> {
        let workload = rng.pick(&NAMES).to_string();
        let deadline_ms = *rng.pick(&[0, 0, 2, 20, 100_000]);
        let (race_id, alt_idx, arg) = (rng.u64_in(0, 4), rng.u64_in(0, 4) as u32, rng.u64());
        let origin = rng.pick(&["a:1", "b:2"]).to_string();
        let request = match rng.usize_in(0, 14) {
            0..=3 => Request::Run {
                workload,
                deadline_ms,
                arg,
            },
            4 => Request::Stats,
            5 => Request::Prometheus,
            6 => Request::Catalog,
            7 => Request::PeerStats,
            8 => Request::ExecAlt {
                race_id,
                alt_idx,
                deadline_ms,
                arg,
                workload,
            },
            9 => {
                let result = Response::AltResult {
                    race_id,
                    alt_idx,
                    status: rng.u8() % 3,
                    value: arg,
                    latency_us: rng.u64_in(0, 10_000),
                };
                return result.encode();
            }
            10 => Request::CommitVote {
                race_id,
                origin,
                candidate: format!("{}/alt{alt_idx}", rng.pick(&["a:1", "b:2", "c:3"])),
            },
            11 => Request::Eliminate { race_id },
            12 => {
                let mut body = vec![0x0B];
                body.extend_from_slice(&race_id.to_be_bytes());
                body.extend_from_slice(&(origin.len() as u16).to_be_bytes());
                body.extend_from_slice(origin.as_bytes());
                return body;
            }
            _ if rng.chance(0.3) => Request::Shutdown,
            _ if rng.bool() => return vec![0xEE, rng.u8()],
            _ => {
                let body = Request::Run {
                    workload,
                    deadline_ms,
                    arg,
                }
                .encode();
                return body[..rng.usize_in(1, body.len())].to_vec();
            }
        };
        request.encode()
    }

    /// What the model says a request gets: exactly this action, or a
    /// text reply that starts so (pages render live counters).
    enum Want {
        Exactly(Action),
        Text(&'static str),
    }

    /// The request path as a value, with no socket, no thread and no
    /// clock read in any case: random frames over a few connections,
    /// read in poll turns the way the shell reads them — a batch per
    /// readable connection, stopped where the decision says the
    /// connection is read no more, and nothing read once the daemon's
    /// latch is seen at the top of a turn — against pinned catalog
    /// statistics, pool load and up peers. Every request gets exactly
    /// the decision a model built from the same gate, a twin placement
    /// policy, the published verdicts and a twin ledger gives: shed only
    /// when the gate refuses, raced here only on the verdict and never a
    /// blocking workload, distributed only on an assignment with a peer
    /// up; no frame is decided on a connection after its `SHUTDOWN` or
    /// protocol error, and none after the drain.
    #[test]
    fn every_request_gets_the_one_decision_the_rules_give() {
        let base = Instant::now();
        check("shard_schedules", 2_500, |rng| {
            let sched = Arc::new(HedgePolicy::new(HedgeConfig::default()));
            let catalog = Arc::clone(sched.catalog());
            for (widx, spec) in workload::CATALOG.iter().enumerate() {
                // Cold, measured short (blocking bodies too: their
                // verdict must still say queue) or measured long.
                let (n, us) = match rng.usize_in(0, 3) {
                    0 => (rng.usize_in(0, 16), rng.u64_in(1, 100)),
                    1 => (rng.usize_in(16, 40), rng.u64_in(1, 100)),
                    _ => (rng.usize_in(16, 40), rng.u64_in(5_000, 50_000)),
                };
                (0..n).for_each(|_| sched.record_service(widx, us));
                let short = n >= 16 && us <= 100 && !spec.blocks;
                assert_eq!(catalog.runs_on_shard(widx), short, "{}", spec.name);
            }
            let telemetry = Arc::new(Telemetry::new());
            telemetry.attach_catalog(Arc::clone(&catalog));
            let addrs: Vec<String> = ["a:1", "b:2"][..rng.usize_in(0, 3)]
                .iter()
                .map(|a| a.to_string())
                .collect();
            let peers = Arc::new(PeerStatsTable::new(&addrs));
            peers
                .peers()
                .iter()
                .filter(|_| rng.chance(0.6))
                .for_each(|p| mark_up(p));
            let explore_every = *rng.pick(&[0, 1, 3]);
            let lanes = match rng.bool() {
                true => Lanes::single(),
                false => Lanes::parse("rt:trivial;batch:sleep").expect("lanes"),
            };
            let shard = Shard {
                telemetry,
                admission: Admission::new(rng.chance(0.7), Arc::clone(&catalog)),
                sched,
                lanes,
                placement: Arc::new(Placement::new(explore_every)),
                peers: Arc::clone(&peers),
                ledger: Arc::default(),
            };
            let workers = rng.usize_in(1, 5);
            let load = Load {
                queued: rng.usize_in(0, 9),
                busy: rng.u64_in(0, workers as u64 + 1),
                workers,
            };
            let twin = Placement::new(explore_every);
            let ledger = CommitLedger::new();
            let up = peers.up_peers();

            // The model's decision for one request read at `now`.
            let want = |request: &Result<RequestRef, FrameError>, now: Instant| -> Want {
                let meta = |widx, deadline_ms| JobMeta {
                    deadline: deadline_at(now, deadline_ms),
                    lane: shard.lanes.lane_of(widx),
                };
                let error = |e: &FrameError| Response::Error {
                    message: e.to_string(),
                };
                Want::Exactly(match request {
                    Err(e @ FrameError::UnknownOpcode(_)) => Action::Reply(error(e)),
                    Err(e) => Action::Hangup(error(e)),
                    Ok(RequestRef::Stats) => return Want::Text("altxd stats"),
                    Ok(RequestRef::Prometheus) => return Want::Text("# HELP"),
                    Ok(RequestRef::Catalog) => return Want::Text("altxd workload catalog"),
                    Ok(RequestRef::PeerStats) => return Want::Text("altxd peers"),
                    Ok(RequestRef::Shutdown) => Action::Shutdown,
                    Ok(RequestRef::Run {
                        workload,
                        deadline_ms,
                        arg,
                    }) => {
                        let Some(widx) = workload::index_of(workload) else {
                            return Want::Exactly(Action::Reply(Response::UnknownWorkload));
                        };
                        let (deadline_ms, arg) = (*deadline_ms, *arg);
                        let key = RaceKey {
                            widx,
                            deadline_ms,
                            arg,
                        };
                        let (queued, workers) = (load.queued, load.workers);
                        if !shard.admission.admit(widx, deadline_ms, queued, workers) {
                            return Want::Exactly(Action::Shed(Metric::ShedsAtAdmission));
                        }
                        let frame_bytes = exec_alt_frame_len(workload) as u64;
                        let assign = (!up.is_empty())
                            .then(|| twin.assign(widx, frame_bytes, &up, queued, workers, &catalog))
                            .flatten();
                        match assign {
                            Some(assign) => Action::Distribute {
                                key,
                                meta: meta(widx, deadline_ms),
                                assign,
                                voters: up.iter().map(|p| p.addr.clone()).collect(),
                            },
                            None if catalog.runs_on_shard(widx) => Action::RaceHere(key),
                            None => Action::Queue(key, meta(widx, deadline_ms)),
                        }
                    }
                    Ok(RequestRef::ExecAlt {
                        race_id,
                        alt_idx,
                        deadline_ms,
                        arg,
                        workload,
                    }) => match workload::index_of(workload) {
                        Some(widx) => Action::ExecAlt {
                            key: RaceKey {
                                widx,
                                deadline_ms: *deadline_ms,
                                arg: *arg,
                            },
                            meta: meta(widx, *deadline_ms),
                            race_id: *race_id,
                            alt_idx: *alt_idx,
                        },
                        None => Action::Reply(Response::Overloaded),
                    },
                    Ok(RequestRef::CommitVote {
                        race_id,
                        origin,
                        candidate,
                    }) => {
                        let (granted, holder) =
                            ledger.vote_with(origin, *race_id, candidate, || now);
                        Action::Reply(Response::Vote { granted, holder })
                    }
                    Ok(RequestRef::Eliminate { race_id }) => {
                        Action::Eliminate { race_id: *race_id }
                    }
                })
            };

            let n_conns = rng.usize_in(1, 4);
            // The shell's view: the connection is read no more.
            let mut stopped = vec![false; n_conns];
            // The model's: its SHUTDOWN or protocol error was decided.
            let mut ended = vec![false; n_conns];
            let (mut latch, mut drained) = (false, false);
            let (mut fed, mut decided) = (0, 0);
            let mut clock = Duration::ZERO;
            for _turn in 0..rng.usize_in(1, 8) {
                // Top of a turn: a latch set since the last one — by a
                // SHUTDOWN here, elsewhere or the handle — is seen, and a
                // draining shard registers no connection for reading.
                latch |= rng.chance(0.03);
                drained |= latch;
                for c in 0..n_conns {
                    let bodies: Vec<Vec<u8>> =
                        (0..rng.usize_in(0, 4)).map(|_| any_body(rng)).collect();
                    let mut batch: Vec<Result<RequestRef, FrameError>> = bodies
                        .iter()
                        .map(|body| {
                            let request = RequestRef::decode(body);
                            if let op @ (0x07 | 0x0B) = body[0] {
                                let unknown =
                                    matches!(request, Err(FrameError::UnknownOpcode(o)) if o == op);
                                assert!(unknown, "opcode {op:#04x} is no request: {request:?}");
                            }
                            request
                        })
                        .collect();
                    if rng.chance(0.05) {
                        let framing = match rng.bool() {
                            true => FrameError::Truncated,
                            false => FrameError::Oversized(crate::frame::MAX_FRAME + 1),
                        };
                        batch.push(Err(framing));
                    }
                    if drained || stopped[c] {
                        continue;
                    }
                    for request in batch {
                        if stopped[c] {
                            break;
                        }
                        fed += 1;
                        assert!(!ended[c], "conn {c}: a request decided after its end");
                        assert!(!drained, "a request decided after the drain");
                        clock += Duration::from_micros(rng.u64_in(0, 500));
                        let now = base + clock;
                        // The gate's verdict on a known workload's RUN.
                        let refused = match &request {
                            Ok(RequestRef::Run {
                                workload,
                                deadline_ms,
                                ..
                            }) => workload::index_of(workload).map(|widx| {
                                let (queued, workers) = (load.queued, load.workers);
                                !shard.admission.admit(widx, *deadline_ms, queued, workers)
                            }),
                            _ => None,
                        };
                        let wanted = want(&request, now);
                        ended[c] |= matches!(request, Ok(RequestRef::Shutdown))
                            || matches!(&request, Err(e) if !matches!(e, FrameError::UnknownOpcode(_)));
                        let action = shard.step(request, now, load);
                        decided += 1;
                        let shed = matches!(action, Action::Shed(_));
                        assert_eq!(
                            shed,
                            refused == Some(true),
                            "shed iff the gate refuses: {action:?}"
                        );
                        if let Action::RaceHere(key) = &action {
                            assert!(!workload::CATALOG[key.widx].blocks, "a blocking body here");
                            let verdict = catalog.runs_on_shard(key.widx);
                            assert!(verdict, "raced here off the verdict");
                        }
                        if let Action::Distribute { assign, .. } = &action {
                            assert!(!up.is_empty() && assign.iter().any(Option::is_some));
                        }
                        match (&action, wanted) {
                            (Action::Reply(Response::Text { body }), Want::Text(head)) => {
                                assert!(body.starts_with(head), "{head}: {body}")
                            }
                            (_, Want::Text(head)) => panic!("want a {head:?} page, got {action:?}"),
                            (_, Want::Exactly(want)) => {
                                assert_eq!(format!("{action:?}"), format!("{want:?}"))
                            }
                        }
                        stopped[c] = !action.keeps_reading();
                        latch |= matches!(action, Action::Shutdown);
                    }
                }
            }
            assert_eq!(decided, fed, "every request read gets one decision");
        });
    }
}
