//! The event-loop front end: reactor *shards*, `poll(2)`, every
//! connection.
//!
//! The thread-per-connection daemon spent a stack per idle client and a
//! blocked `rx.recv()` per in-flight race. The reactor inverts that:
//! an event-loop thread multiplexes a *wake channel* and a set of
//! client sockets through `poll(2)`, so concurrent connections cost
//! file descriptors, not threads — the paper's parent/child split (a
//! cheap speculative child per alternative, one responsive parent at
//! the rendezvous) applied to the serving layer itself.
//!
//! With `--shards N` (N > 1) the front end runs **N independent
//! reactors**, each owning its *own* `SO_REUSEPORT` listener bound to
//! the same address: the kernel's accept hash spreads incoming
//! connections across the shards and an accepted socket is already on
//! the thread that will serve it — accept → poll-set registration
//! never crosses threads. From that moment the connection belongs to
//! exactly one shard — its poll set, frame decoding, batch windows,
//! buffer pool, reply ring, and reply-group table are that shard's, and
//! a finished race is answered through *that shard's* table. Nothing on
//! the request path crosses a shard boundary; the only shared mutable
//! state is each shard's reply-group table and a connection's write
//! half (`conn.rs`), each touched once per race under a lock held for
//! a map operation or one socket write. On platforms without
//! `SO_REUSEPORT` the old topology
//! survives as a fallback: one acceptor thread polls a single listener
//! and hands sockets round-robin to the shards' adoption inboxes. With
//! one shard (the default) there is no acceptor and no reuseport —
//! the lone reactor owns the lone listener directly, exactly the
//! pre-sharding topology.
//!
//! The moving parts:
//!
//! * **sys**: a minimal FFI binding to the C library's `poll(2)` plus
//!   the socket calls needed for an `SO_REUSEPORT` bind — std already
//!   links libc, so this adds no dependency; it is the only unsafe
//!   code in the crate and is confined to this module.
//! * **Direct delivery** ([`ReactorShared::post`]): the thread that
//!   decides a race — a pool worker, or the remote registry's caller —
//!   takes the race's reply group out of the shard's table, encodes the
//!   reply **once** into a ring slot (`ring.rs`), and for each waiter
//!   locks the connection's write half, fills the request's reply slot
//!   and writes to the socket right there. No completion queue, no
//!   second thread, and no reply byte copied between encode and the
//!   kernel. The group is registered *before* the job is submitted (a
//!   worker can finish first) and no two locks are ever held at once.
//! * **Run on the shard** ([`Reactor::submit_race`]): a race whose
//!   workload has been measured short enough that the hand-off to a
//!   worker would be a visible share of it
//!   (`CatalogStats::runs_on_shard` — one flag, republished with every
//!   service sample by the rule in `sched.rs`) never leaves this
//!   thread: after the admission gate and the placement policy have had
//!   their say, the reactor races it in place — favourite inline,
//!   siblings on the crew, deadline token and containment as on a
//!   worker — and delivers the reply through the waiters' write halves
//!   as the finishing worker would have ([`ReactorShared::deliver`]).
//!   No reply group, no boxed job, no queue push, no condvar wake; and
//!   once a workload is on the shard its requests no longer wait for a
//!   worker held inside somebody else's race. A workload whose bodies
//!   block (`WorkloadSpec::blocks`: `sleep`, `lognormal`, `bimodal`)
//!   never qualifies, whatever it measured — this thread must not
//!   sleep in a body. Everything else is queued as before. Reply
//!   order needs nothing new: the write half's sequence numbers park a
//!   shard-run reply behind an earlier queued one.
//! * **Wake channel**: a Unix socket pair acting as a self-pipe,
//!   one per shard. It is off the request path: a delivery rouses the
//!   reactor only when it left it something to do — output the socket
//!   would not take (`POLLOUT` must be registered), a failed write, a
//!   connection that just became closable — or while the shard drains;
//!   the acceptor fallback and the shutdown latch use it too. The byte
//!   is written after every lock is dropped, and the wake fd is
//!   level-triggered, so a reactor that had already computed its poll
//!   set returns at once and looks again.
//! * **[`DaemonCtl`]**: the one deliberately global piece — the
//!   shutdown latch. A `SHUTDOWN` opcode lands on *some* shard but must
//!   drain all of them plus the acceptor, so the latch fans a wake out
//!   to everyone, and the last shard to finish draining closes the
//!   worker pool.
//! * **Drain ordering** (shutdown): (1) stop accepting and stop
//!   reading new requests, (2) keep polling while in-flight races
//!   deliver their replies, (3) close each connection once its last
//!   owed reply is written, (4) when the last shard has no connections
//!   left, close the queue and join the pool. No admitted request goes
//!   unanswered. Step (3) is a handshake: the reactor publishes
//!   `draining` *then* looks at each write half under its lock; a
//!   poster delivers under that lock *then* reads the flag — so either
//!   the poster sees it and rouses the reactor, or its delivery came
//!   before the look and the reactor saw a drained connection.

use crate::batch::{BatchKey, Batcher, Offered};
use crate::bufpool::BufPool;
use crate::conn::{Conn, ReplyFrame, ReplySlot, WriteHalf};
use crate::frame::{FrameError, Request, Response, ALT_FAILED};
use crate::peer::{PeerHandle, PeerPlane, SendTag};
use crate::pool::{JobMeta, WorkerPool};
use crate::remote::{Event, RaceSpec};
use crate::ring::{EncodedReply, ReplyRing};
use crate::sched::{render_catalog, Admission, HedgePolicy, Lanes};
use crate::server::{deadline_token, run_race, run_remote_alt, run_subrace};
use crate::telemetry::{Metric, ShardStats, Telemetry};
use crate::workload;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

pub(crate) use sys::{bind_reuseport, poll_fds, PollFd, POLLIN, POLLOUT};
use sys::{POLLERR, POLLHUP, POLLNVAL};

/// The one unsafe corner: calling the C library's `poll(2)` and the
/// handful of socket calls needed for an `SO_REUSEPORT` bind (std's
/// `TcpListener` cannot set the option before binding). std links libc
/// on every supported platform, so the extern declarations name
/// symbols that are already in the process — no new dependency, no raw
/// syscall numbers.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    impl PollFd {
        pub fn new(fd: RawFd, events: i16) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int) -> i32;
    }

    /// Blocks until an fd is ready or `timeout_ms` elapses, retrying
    /// EINTR. Returns how many entries have non-zero `revents`.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` is a valid, exclusively borrowed slice of
            // repr(C) pollfd records for the duration of the call, and
            // its length is passed as nfds.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    #[cfg(target_os = "linux")]
    mod reuseport {
        use std::ffi::c_int;
        use std::io;
        use std::net::{SocketAddr, TcpListener};
        use std::os::fd::FromRawFd;

        const AF_INET: c_int = 2;
        const AF_INET6: c_int = 10;
        const SOCK_STREAM: c_int = 1;
        const SOCK_CLOEXEC: c_int = 0x80000;
        const SOL_SOCKET: c_int = 1;
        const SO_REUSEADDR: c_int = 2;
        const SO_REUSEPORT: c_int = 15;
        const BACKLOG: c_int = 1024;

        /// `struct sockaddr_in` from `<netinet/in.h>` (port and
        /// address already in network byte order).
        #[repr(C)]
        struct SockAddrIn {
            sin_family: u16,
            sin_port: [u8; 2],
            sin_addr: [u8; 4],
            sin_zero: [u8; 8],
        }

        /// `struct sockaddr_in6` from `<netinet/in.h>`.
        #[repr(C)]
        struct SockAddrIn6 {
            sin6_family: u16,
            sin6_port: [u8; 2],
            sin6_flowinfo: u32,
            sin6_addr: [u8; 16],
            sin6_scope_id: u32,
        }

        extern "C" {
            fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
            fn setsockopt(
                fd: c_int,
                level: c_int,
                name: c_int,
                value: *const c_int,
                len: u32,
            ) -> c_int;
            fn bind(fd: c_int, addr: *const u8, len: u32) -> c_int;
            fn listen(fd: c_int, backlog: c_int) -> c_int;
            fn close(fd: c_int) -> c_int;
        }

        /// Closes `fd` and returns the errno that made us bail.
        fn fail(fd: c_int) -> io::Error {
            let err = io::Error::last_os_error();
            // SAFETY: `fd` came from socket() in bind_reuseport and has
            // not been wrapped in an owning type yet.
            unsafe { close(fd) };
            err
        }

        /// Binds a listening socket with `SO_REUSEPORT` set, so every
        /// shard can bind the same address and the kernel spreads
        /// accepts across them.
        pub fn bind_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
            let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
            // SAFETY: plain libc socket calls; the fd is owned by this
            // function until handed to TcpListener (or closed by
            // `fail`), and the sockaddr buffers are live repr(C) locals
            // whose exact sizes are passed alongside.
            unsafe {
                let fd = socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
                if fd < 0 {
                    return Err(io::Error::last_os_error());
                }
                let one: c_int = 1;
                let one_len = std::mem::size_of::<c_int>() as u32;
                if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, one_len) != 0
                    || setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, one_len) != 0
                {
                    return Err(fail(fd));
                }
                let rc = match addr {
                    SocketAddr::V4(v4) => {
                        let sa = SockAddrIn {
                            sin_family: AF_INET as u16,
                            sin_port: v4.port().to_be_bytes(),
                            sin_addr: v4.ip().octets(),
                            sin_zero: [0; 8],
                        };
                        bind(
                            fd,
                            (&sa as *const SockAddrIn).cast(),
                            std::mem::size_of::<SockAddrIn>() as u32,
                        )
                    }
                    SocketAddr::V6(v6) => {
                        let sa = SockAddrIn6 {
                            sin6_family: AF_INET6 as u16,
                            sin6_port: v6.port().to_be_bytes(),
                            sin6_flowinfo: v6.flowinfo(),
                            sin6_addr: v6.ip().octets(),
                            sin6_scope_id: v6.scope_id(),
                        };
                        bind(
                            fd,
                            (&sa as *const SockAddrIn6).cast(),
                            std::mem::size_of::<SockAddrIn6>() as u32,
                        )
                    }
                };
                if rc != 0 || listen(fd, BACKLOG) != 0 {
                    return Err(fail(fd));
                }
                Ok(TcpListener::from_raw_fd(fd))
            }
        }
    }

    #[cfg(target_os = "linux")]
    pub use reuseport::bind_reuseport;

    /// Non-Linux fallback: report the option as unsupported so the
    /// server keeps the acceptor-thread topology instead.
    #[cfg(not(target_os = "linux"))]
    pub fn bind_reuseport(_addr: std::net::SocketAddr) -> io::Result<std::net::TcpListener> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT per-shard accept is only wired up on Linux",
        ))
    }
}

/// State shared between one reactor shard's thread, the threads that
/// finish its races (pool workers through completion notifiers, the
/// remote-race registry), and — when sharded — the acceptor.
pub(crate) struct ReactorShared {
    /// In-flight reply groups: group id → the reply slots (one per
    /// direct request, many per coalesced batch) owed the one reply.
    /// The reactor registers a group before it submits the race; the
    /// thread that finishes the race takes it.
    groups: Mutex<HashMap<u64, Vec<ReplySlot>>>,
    /// Accepted sockets awaiting adoption by this shard (sharded mode
    /// only; the acceptor pushes, the shard drains each loop turn).
    inbox: Mutex<Vec<TcpStream>>,
    wake_tx: WakeTx,
    /// The shard's reply ring; `post` encodes into it from whatever
    /// thread finished the race.
    ring: ReplyRing,
    /// The shard is draining: every delivery rouses the reactor, which
    /// is waiting to close connections as they empty. Stored by the
    /// reactor before it looks at its write halves, loaded by a poster
    /// after it delivered (see the module docs' drain handshake).
    draining: AtomicBool,
}

impl ReactorShared {
    /// Answers a finished race, on the calling thread: takes the race's
    /// reply group and delivers the one reply to its waiters
    /// ([`ReactorShared::deliver`]) — the group is consumed here, so each
    /// waiter is answered exactly once. A group already taken (shed at
    /// submit) is nobody's to answer. `pub(crate)` because the
    /// remote-race registry posts the final response of a distributed
    /// race through here too.
    pub(crate) fn post(&self, group: u64, response: Response) {
        let Some(waiters) = self.take_group(group) else {
            return;
        };
        // Lock order: the table lock is already released, each write
        // half is locked alone, and the wake byte follows the last.
        if self.deliver(&waiters, &response) || self.draining.load(Ordering::SeqCst) {
            self.wake_tx.wake();
        }
    }

    /// Encodes `response` once into this shard's reply ring (spilling
    /// to a fresh heap buffer when the ring can't take it) and delivers
    /// the frame to every waiter's connection, each of which owns a
    /// distinct reply slot. A lone waiter — the overwhelmingly common
    /// case — takes the frame by move; a coalesced batch shares **one**
    /// encoding across its N waiters, each socket reading the same ring
    /// slot, reclaimed when the last one finishes. A waiter whose
    /// connection is gone drops the frame, which reclaims the slot.
    /// Returns whether a delivery left the reactor something to do.
    fn deliver(&self, waiters: &[ReplySlot], response: &Response) -> bool {
        let reply = EncodedReply::encode(response, &self.ring);
        if let [(half, seq)] = waiters {
            return half.deliver(*seq, ReplyFrame::Own(reply), None);
        }
        let shared = Arc::new(reply);
        let mut rouse = false;
        for (half, seq) in waiters {
            rouse |= half.deliver(*seq, ReplyFrame::Shared(Arc::clone(&shared)), None);
        }
        rouse
    }

    /// Takes a group's waiters: the poster's claim on answering them,
    /// or the reactor's when the submission was refused.
    fn take_group(&self, group: u64) -> Option<Vec<ReplySlot>> {
        self.groups
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&group)
    }

    /// Hands an accepted socket to this shard and wakes it.
    fn adopt(&self, stream: TcpStream) {
        self.inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(stream);
        self.wake_tx.wake();
    }
}

/// Daemon-wide control plane: the shutdown latch and the fan-out needed
/// to make every front-end thread notice it. The `SHUTDOWN` opcode can
/// arrive on any shard; the handle's `shutdown()` comes from outside
/// any of them — both funnel here.
pub(crate) struct DaemonCtl {
    shutdown: AtomicBool,
    /// Shards still running their event loop; the last one out shuts
    /// the worker pool down.
    live_shards: AtomicUsize,
    /// Every shard's shared state, wired once after construction so the
    /// latch can wake them all.
    shards: OnceLock<Vec<Arc<ReactorShared>>>,
    /// The acceptor's wake pipe (sharded mode only).
    acceptor_wake: OnceLock<WakeTx>,
    /// The peer-network thread's handle, so it drains too.
    peers: Arc<PeerHandle>,
}

impl DaemonCtl {
    pub(crate) fn new(shards: usize, peers: Arc<PeerHandle>) -> Self {
        DaemonCtl {
            shutdown: AtomicBool::new(false),
            live_shards: AtomicUsize::new(shards),
            shards: OnceLock::new(),
            acceptor_wake: OnceLock::new(),
            peers,
        }
    }

    /// Wires every shard's shared state in (once, at startup).
    pub(crate) fn wire_shards(&self, shards: Vec<Arc<ReactorShared>>) {
        let _ = self.shards.set(shards);
    }

    /// Wires the acceptor's wake pipe in (once, sharded mode only).
    pub(crate) fn wire_acceptor(&self, wake_tx: WakeTx) {
        let _ = self.acceptor_wake.set(wake_tx);
    }

    /// Flags shutdown and wakes the acceptor, the peer thread, and
    /// every shard so they notice promptly.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let shards = self.shards.get().into_iter().flatten().map(|s| &s.wake_tx);
        for tx in shards.chain(self.acceptor_wake.get()) {
            tx.wake();
        }
        self.peers.wake();
    }

    /// Answers a finished race through the shard owning its waiters.
    pub(crate) fn post(&self, shard: usize, group: u64, response: Response) {
        if let Some(s) = self.shards.get().and_then(|shards| shards.get(shard)) {
            s.post(group, response);
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

/// The write end of a [`wake_pair`]: anyone rouses the polling thread.
pub(crate) struct WakeTx(UnixStream);

impl WakeTx {
    /// Writes one byte to the self-pipe. `WouldBlock` means wake bytes
    /// are already pending, so the poller is waking anyway; every other
    /// error means the poller is gone and waking is moot.
    pub(crate) fn wake(&self) {
        let _ = (&self.0).write(&[1]);
    }
}

/// The read end of a [`wake_pair`]: polled for `POLLIN` by its owner.
pub(crate) struct WakeRx(UnixStream);

impl WakeRx {
    /// Empties the self-pipe, however many wake bytes piled up. A short
    /// read emptied it; a byte written after that is polled again.
    pub(crate) fn drain(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match self.0.read(&mut sink) {
                Ok(n) if n == sink.len() => continue,
                // Drained — or 0: every tx gone, shutdown is near.
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }
}

impl AsRawFd for WakeRx {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        self.0.as_raw_fd()
    }
}

/// A connected socket pair: the owner polls `rx`, everyone else writes
/// `tx`. This is the classic self-pipe trick from std-only parts (no
/// `pipe(2)` binding needed).
pub(crate) fn wake_pair() -> io::Result<(WakeTx, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((WakeTx(tx), WakeRx(rx)))
}

/// How long `poll` may sleep with nothing to do. Wakeups (leftover
/// output, shutdown requests) interrupt it; the timeout is only a
/// backstop.
const POLL_BACKSTOP_MS: i32 = 250;

/// One event-loop shard: owns its listener (its own `SO_REUSEPORT`
/// bind when sharded, the lone listener in single-shard mode), its
/// wake receiver, its buffer pool, its reply ring, and every
/// connection it has adopted.
pub(crate) struct Reactor {
    /// `Some` when this shard accepts directly (single-shard mode, or
    /// a per-shard reuseport listener); `None` when an acceptor thread
    /// feeds the shard's inbox (reuseport-less fallback).
    listener: Option<TcpListener>,
    wake_rx: WakeRx,
    shared: Arc<ReactorShared>,
    ctl: Arc<DaemonCtl>,
    pool: Arc<WorkerPool>,
    telemetry: Arc<Telemetry>,
    stats: Arc<ShardStats>,
    bufs: BufPool,
    /// The shard's reply ring (same population `ReactorShared::post`
    /// encodes into); the reactor's own inline replies draw from it
    /// too, spilling to `bufs` instead of allocating.
    ring: ReplyRing,
    sched: Arc<HedgePolicy>,
    batcher: Batcher,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// The next reply-group id (the table itself is in `shared`).
    next_group: u64,
    /// This shard's index — distributed races record it so the remote
    /// registry can post the final response back to the right shard.
    shard_idx: usize,
    /// The peer plane: membership, remote-race registry, commit ledger,
    /// executor-side inflight table, and the placement policy.
    plane: Arc<PeerPlane>,
    /// Feasibility gate consulted before a deadlined request spends a
    /// queue slot; disabled gates admit everything.
    admission: Arc<Admission>,
    /// Workload → priority-lane mapping for run-queue submissions.
    lanes: Arc<Lanes>,
    /// CPU set this shard is placed on (`--pin`); `None` = unpinned.
    /// The reactor thread pins itself at the top of [`Reactor::run`]
    /// and then first-touches the shard's ring and buffer memory so the
    /// pages land NUMA-local to these cores.
    pin_cpus: Option<Vec<usize>>,
}

impl Reactor {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        listener: Option<TcpListener>,
        pool: Arc<WorkerPool>,
        telemetry: Arc<Telemetry>,
        sched: Arc<HedgePolicy>,
        batch_window: Duration,
        ctl: Arc<DaemonCtl>,
        shard_idx: usize,
        plane: Arc<PeerPlane>,
        ring_slots: usize,
        ring_slot_bytes: usize,
        admission: Arc<Admission>,
        lanes: Arc<Lanes>,
        pin_cpus: Option<Vec<usize>>,
    ) -> io::Result<(Self, Arc<ReactorShared>, Arc<ShardStats>)> {
        let (wake_tx, wake_rx) = wake_pair()?;
        let ring = ReplyRing::new(ring_slots, ring_slot_bytes);
        let shared = Arc::new(ReactorShared {
            groups: Mutex::new(HashMap::new()),
            inbox: Mutex::new(Vec::new()),
            wake_tx,
            ring: ring.clone(),
            draining: AtomicBool::new(false),
        });
        let bufs = BufPool::default();
        let stats = Arc::new(ShardStats::new(bufs.stats(), ring.stats()));
        Ok((
            Reactor {
                listener,
                wake_rx,
                shared: Arc::clone(&shared),
                ctl,
                pool,
                telemetry,
                stats: Arc::clone(&stats),
                bufs,
                ring,
                sched,
                batcher: Batcher::new(batch_window),
                conns: HashMap::new(),
                next_conn: 0,
                next_group: 0,
                shard_idx,
                plane,
                admission,
                lanes,
                pin_cpus,
            },
            shared,
            stats,
        ))
    }

    /// Runs until shutdown is requested *and* every connection has
    /// drained; the last shard out closes the queue and joins the pool.
    pub(crate) fn run(mut self) {
        // Placement first, memory second: pin this thread to the
        // shard's core set, *then* touch the ring slots and warm the
        // buffer pool from it. First-touch allocation makes those pages
        // resident on the NUMA node of the touching core, so the
        // shard's hottest memory is local to the cores that use it.
        // Both steps are best-effort and no-ops when unpinned.
        if let Some(cpus) = self.pin_cpus.take() {
            if crate::pin::pin_current_thread(&format!("reactor-{}", self.shard_idx), &cpus) {
                self.telemetry.add(Metric::PinnedShards, 1);
            }
            self.ring.first_touch();
            self.bufs.warm();
        }
        // The poll set and its connection ids, rebuilt in place each turn.
        let mut fds: Vec<PollFd> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        loop {
            let draining = self.ctl.draining();
            if draining {
                // Published before any write half is looked at: the
                // poster's half of the drain handshake reads it after
                // delivering under that half's lock.
                self.shared.draining.store(true, Ordering::SeqCst);
            }
            self.adopt_inbox(draining);

            // Poll set: wake channel first, this shard's own listener
            // second (only while accepting), then every connection —
            // one look at each write half per turn gives its poll
            // interest or says it is done, and a done connection is
            // reclaimed here, before the poll, never parked until some
            // future accept. POLLOUT interest is re-derived from the
            // unflushed output every turn, so a write that drained
            // since (on whichever thread) is deregistered immediately.
            fds.clear();
            ids.clear();
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            let listener_at = match &self.listener {
                Some(listener) if !draining => {
                    fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                    Some(fds.len() - 1)
                }
                _ => None,
            };
            let conn_fds_start = fds.len();
            self.conns
                .retain(|&id, conn| match conn.write_half().interest(draining) {
                    Some(events) => {
                        fds.push(PollFd::new(conn.stream().as_raw_fd(), events));
                        ids.push(id);
                        true
                    }
                    None => {
                        self.stats.on_conn_close();
                        false
                    }
                });
            if draining && self.conns.is_empty() {
                break;
            }

            match poll_fds(&mut fds, self.poll_timeout_ms()) {
                Ok(_) => {}
                Err(_) => continue, // EINTR is retried inside; anything else: re-loop
            }

            if fds[0].revents != 0 {
                // One wakeup event is counted per drain, not per byte —
                // the counter tracks how often the reactor was roused,
                // not how many deliveries asked for it.
                self.stats.on_wakeup();
                self.wake_rx.drain();
            }
            // Connection readiness, against the exact snapshot poll
            // reported.
            for (slot, &id) in ids.iter().enumerate() {
                let revents = fds[conn_fds_start + slot].revents;
                if revents != 0 {
                    self.handle_conn_event(id, revents);
                }
            }

            // Batch windows expire on the same clock; at drain every
            // open window flushes immediately so no waiter is parked
            // behind a window that outlives the listener.
            self.flush_batches(draining);

            if let Some(i) = listener_at {
                if fds[i].revents & POLLIN != 0 {
                    self.accept_ready();
                }
            }
        }
        if self.ctl.shard_exited() {
            self.pool.shutdown();
        }
    }

    /// Adopts sockets the acceptor handed this shard. During drain they
    /// are dropped instead — the daemon stopped serving between accept
    /// and adoption, and closing is kinder than a reply-less park.
    fn adopt_inbox(&mut self, draining: bool) {
        let streams = std::mem::take(
            &mut *self
                .shared
                .inbox
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        if !draining {
            streams.into_iter().for_each(|stream| self.adopt(stream));
        }
    }

    /// Takes a fresh socket into the poll set (dropping it if its
    /// options cannot be set).
    fn adopt(&mut self, stream: TcpStream) {
        if let Ok(conn) = Conn::new(stream, Arc::clone(&self.stats)) {
            self.conns.insert(self.next_conn, conn);
            self.next_conn += 1;
            self.stats.on_conn_open();
        }
    }

    /// Poll timeout: the backstop, shortened so the reactor wakes in
    /// time for the earliest open batch window (ceil to a millisecond —
    /// `poll(2)`'s resolution — so a sub-ms window still expires).
    fn poll_timeout_ms(&self) -> i32 {
        match self.batcher.next_due() {
            None => POLL_BACKSTOP_MS,
            Some(due) => {
                let remaining = due.saturating_duration_since(Instant::now());
                (remaining.as_millis() as i32)
                    .saturating_add(1)
                    .min(POLL_BACKSTOP_MS)
            }
        }
    }

    /// Submits every batch whose window has expired (all of them at
    /// drain) as single races.
    fn flush_batches(&mut self, flush_all: bool) {
        if self.batcher.is_empty() {
            return;
        }
        let now = Instant::now();
        for ready in self.batcher.take_due(now, flush_all) {
            self.telemetry.add(Metric::BatchesFormed, 1);
            // Waiters whose connections were reclaimed during the
            // window are skipped — the peer that asked is gone.
            let waiters = ready
                .waiters
                .iter()
                .filter_map(|&(id, seq)| Some((self.write_half(id)?, seq)))
                .collect();
            self.submit_race(waiters, ready.key);
        }
    }

    /// Accepts until this shard's own listener would block (the lone
    /// listener in single-shard mode, a reuseport sibling otherwise).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => self.adopt(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient accept failure; retry next loop
            }
        }
    }

    /// Dispatches poll readiness for one connection.
    fn handle_conn_event(&mut self, id: u64, revents: i16) {
        if revents & (POLLERR | POLLHUP | POLLNVAL) != 0 {
            // The peer is gone in both directions: no reply can be
            // delivered, so the state is reclaimed eagerly. In-flight
            // races keep running; their deliveries find the write half
            // closed and drop.
            self.close(id);
            return;
        }
        if revents & POLLIN != 0 {
            let outcome = match self.conns.get_mut(&id) {
                Some(conn) => conn.on_readable(&mut self.bufs),
                None => return,
            };
            match outcome {
                Ok(read) => {
                    let mut alive = true;
                    for body in read.frames {
                        if alive {
                            // Protocol error: later frames are garbage.
                            alive = self.handle_frame(id, &body);
                        }
                        self.bufs.put(body);
                    }
                    if let Some(e) = read.error {
                        self.telemetry.on_error();
                        self.reply_and_close_read(
                            id,
                            &Response::Error {
                                message: e.to_string(),
                            },
                        );
                    }
                }
                Err(_) => {
                    self.close(id);
                    return;
                }
            }
        }
        if revents & POLLOUT != 0 {
            // A POLLOUT event for a connection with nothing left to
            // write means a delivery on another thread drained the
            // queue after interest was registered. Counted, to show it
            // stays at (or near) zero under load.
            if let Some(conn) = self.conns.get(&id) {
                if !conn.write_half().on_writable(&mut self.bufs) {
                    self.stats.on_pollout_spurious();
                }
            }
        }
    }

    /// Decodes and executes one request frame. Returns `false` when the
    /// connection must stop consuming input (malformed request or
    /// shutdown).
    fn handle_frame(&mut self, id: u64, body: &[u8]) -> bool {
        let seq = match self.conns.get(&id) {
            Some(conn) => conn.write_half().begin_request(),
            None => return false,
        };
        match Request::decode(body) {
            // An unknown opcode arrives in a well-formed frame: the
            // stream is still in sync, so answer with a protocol ERROR
            // and keep serving — old clients against new daemons (and
            // vice versa) degrade per-request, not per-connection.
            Err(FrameError::UnknownOpcode(op)) => {
                self.telemetry.on_error();
                self.fulfill(
                    id,
                    seq,
                    &Response::Error {
                        message: format!("unknown request opcode 0x{op:02x}"),
                    },
                );
                true
            }
            Err(e) => {
                self.telemetry.on_error();
                self.fulfill(
                    id,
                    seq,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                if let Some(conn) = self.conns.get(&id) {
                    conn.write_half().close_read();
                }
                false
            }
            Ok(Request::Stats) => {
                self.fulfill_text(id, seq, self.telemetry.render_stats());
                true
            }
            Ok(Request::Prometheus) => {
                self.fulfill_text(id, seq, self.telemetry.render_prometheus());
                true
            }
            Ok(Request::Catalog) => {
                self.fulfill_text(id, seq, render_catalog(&self.sched));
                true
            }
            Ok(Request::Shutdown) => {
                self.fulfill_text(id, seq, "draining\n");
                // Daemon-wide: every shard and the acceptor must drain,
                // not just the shard this frame happened to land on.
                self.ctl.request_shutdown();
                false
            }
            Ok(Request::Run {
                workload,
                deadline_ms,
                arg,
            }) => {
                self.submit_run(id, seq, workload, deadline_ms, arg);
                true
            }
            Ok(Request::ExecAlt {
                race_id,
                alt_idx,
                deadline_ms,
                arg,
                workload,
                origin,
            }) => {
                self.exec_alt(
                    id,
                    seq,
                    race_id,
                    alt_idx,
                    deadline_ms,
                    arg,
                    workload,
                    origin,
                );
                true
            }
            Ok(Request::AltResult {
                race_id,
                alt_idx,
                status,
                value,
                latency_us,
            }) => {
                // An executor reporting back on a race this node
                // originated. Ack first-class so the executor's link
                // gets its RTT sample either way.
                self.plane.races.step(
                    race_id,
                    Event::LegResult {
                        alt_idx,
                        status,
                        value,
                        latency_us,
                        redo: false,
                    },
                );
                self.fulfill_text(id, seq, "ok\n");
                true
            }
            Ok(Request::CommitVote {
                race_id,
                origin,
                candidate,
            }) => {
                let (granted, holder) = self.plane.races.ledger.vote(&origin, race_id, &candidate);
                self.telemetry.add(Metric::CommitVotes, 1);
                self.fulfill(id, seq, &Response::Vote { granted, holder });
                true
            }
            Ok(Request::Eliminate { race_id, origin }) => {
                let n = self.plane.inflight.eliminate(&origin, race_id);
                self.telemetry.add(Metric::Eliminations, 1);
                self.fulfill_text(id, seq, format!("eliminated {n}\n"));
                true
            }
            Ok(Request::Reconcile { watermark, origin }) => {
                // Partition-heal resync: the reconnecting origin's
                // races below the watermark are all decided — kill any
                // zombie executions and release their vote slots.
                let n = self.plane.inflight.eliminate_below(&origin, watermark);
                let slots = self.plane.races.ledger.reconcile(&origin, watermark);
                self.fulfill_text(id, seq, format!("reconciled {n} cancelled {slots} slots\n"));
                true
            }
            Ok(Request::PeerStats) => {
                // The stats page doubles as the heartbeat reply: the
                // trailing machine-parsable line advertises this node's
                // load so origins can place around busy peers.
                let mut body = self.plane.races.peers.stats().render();
                body.push_str(&format!(
                    "load queued {} busy {} workers {}\n",
                    self.pool.queued(),
                    self.pool.busy(),
                    self.pool.workers()
                ));
                self.fulfill_text(id, seq, body);
                true
            }
        }
    }

    /// Executor side of a shipped alternative: admission-control it
    /// like any race, run exactly the named alternative, and fire the
    /// outcome back at the origin over this node's own outbound link.
    /// The immediate reply only acknowledges admission — `Text` for
    /// admitted, `Overloaded` for refused — so the origin can convert a
    /// refusal into a failed guard without waiting.
    #[allow(clippy::too_many_arguments)]
    fn exec_alt(
        &mut self,
        id: u64,
        seq: u64,
        race_id: u64,
        alt_idx: u32,
        deadline_ms: u32,
        arg: u64,
        workload: String,
        origin: String,
    ) {
        let Some(widx) = workload::index_of(&workload) else {
            self.telemetry.on_error();
            self.fulfill(id, seq, &Response::Overloaded);
            return;
        };
        let token = deadline_token(deadline_ms);
        // Registered before submission so an ELIMINATE racing ahead of
        // the worker pickup still lands on the token.
        self.plane
            .inflight
            .register(&origin, race_id, alt_idx, token.clone());
        let work = {
            let telemetry = Arc::clone(&self.telemetry);
            move || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_remote_alt(&telemetry, widx, alt_idx, arg, &token)
                }))
                .unwrap_or((ALT_FAILED, 0, 0))
            }
        };
        let done = {
            let plane = Arc::clone(&self.plane);
            let origin = origin.clone();
            move |outcome: Option<(u8, u64, u64)>| {
                // No outcome means the pool dropped the job unrun —
                // report a failed guard rather than leave the origin to
                // time the alternative out.
                let (status, value, latency_us) = outcome.unwrap_or((ALT_FAILED, 0, 0));
                plane.inflight.complete(&origin, race_id, alt_idx);
                plane.races.peers.send(
                    &origin,
                    Request::AltResult {
                        race_id,
                        alt_idx,
                        status,
                        value,
                        latency_us,
                    },
                    SendTag::Fire,
                );
            }
        };
        let meta = self.job_meta(widx, deadline_ms);
        match self.pool.try_submit_work_at(meta, work, done) {
            Ok(()) => {
                self.telemetry.add(Metric::RemoteExecs, 1);
                self.fulfill_text(id, seq, "ok\n");
            }
            Err(_) => {
                self.plane.inflight.complete(&origin, race_id, alt_idx);
                self.telemetry.add(Metric::Shed, 1);
                self.fulfill(id, seq, &Response::Overloaded);
            }
        }
    }

    /// Admission-controls one RUN request without ever blocking the
    /// reactor. With batching off the request races directly (a reply
    /// group of one); with batching on it opens or joins a window and
    /// races when the window expires. Refused submissions are answered
    /// `Overloaded` in line; admitted ones are answered by whichever
    /// thread finishes the race ([`ReactorShared::post`]).
    fn submit_run(&mut self, id: u64, seq: u64, workload: String, deadline_ms: u32, arg: u64) {
        // Reject unknown names before spending a queue slot.
        let Some(widx) = workload::index_of(&workload) else {
            self.telemetry.on_error();
            self.fulfill(id, seq, &Response::UnknownWorkload);
            return;
        };
        let key = BatchKey {
            widx,
            deadline_ms,
            arg,
        };
        if self.batcher.enabled() {
            if self.batcher.offer(key, (id, seq), Instant::now()) == Offered::Coalesced {
                self.telemetry.add(Metric::RequestsCoalesced, 1);
            }
            return;
        }
        if let Some(half) = self.write_half(id) {
            self.submit_race(vec![(half, seq)], key);
        }
    }

    /// Submits one race on behalf of `waiters` (one waiter when direct,
    /// many when coalesced). The single response fans out to every
    /// waiter exactly once — through the reply group when a worker runs
    /// the race, including worker-lost and fault outcomes, and straight
    /// from here when the workload is short enough to race on this
    /// thread. When the placement policy elects to ship alternatives to
    /// peers the race goes through the distributed path instead.
    fn submit_race(&mut self, waiters: Vec<ReplySlot>, key: BatchKey) {
        // Feasibility admission, before the race spends a queue slot or
        // a wire frame: when the deadline is provably unmeetable from
        // the workload's p99 service time plus the current queue wait,
        // shed now instead of burning a worker just to time out.
        // Best-effort requests (deadline 0) always pass.
        if !self.admission.admit(
            key.widx,
            key.deadline_ms,
            self.pool.queued(),
            self.pool.workers(),
        ) {
            self.shed(waiters, Metric::ShedsAtAdmission);
            return;
        }
        if let Some(assign) = self.plan_remote(&key) {
            self.submit_race_distributed(waiters, key, assign);
            return;
        }
        // Shard or queue: a workload measured short (the rule is in
        // `sched.rs`) is raced right here, and the reply delivered the
        // way a finishing worker delivers one (`ReactorShared::deliver`:
        // one ring slot, a heap spill when the ring is full, shared by
        // a coalesced batch) — no reply group (no other thread will
        // come looking), no boxed job, no wake-up. What the delivery
        // leaves behind, the next turn's look at each write half picks
        // up.
        if self.sched.catalog().runs_on_shard(key.widx) {
            self.telemetry.add(Metric::Accepted, 1);
            self.telemetry.add(Metric::RacesOnShard, 1);
            let reply = contained(&self.telemetry, || {
                run_race(
                    &self.telemetry,
                    &self.sched,
                    key.widx,
                    key.deadline_ms,
                    key.arg,
                )
            });
            self.shared.deliver(&waiters, &reply);
            return;
        }
        let group = self.open_group(waiters);
        let work = {
            let telemetry = Arc::clone(&self.telemetry);
            let sched = Arc::clone(&self.sched);
            move || {
                contained(&telemetry, || {
                    run_race(&telemetry, &sched, key.widx, key.deadline_ms, key.arg)
                })
            }
        };
        let shared = Arc::clone(&self.shared);
        let done = move |reply| shared.post(group, or_worker_lost(reply));
        let meta = self.job_meta(key.widx, key.deadline_ms);
        match self.pool.try_submit_work_at(meta, work, done) {
            Ok(()) => self.telemetry.add(Metric::Accepted, 1),
            Err(_) => self.shed_group(group),
        }
    }

    /// Registers `waiters` as a new reply group — *before* the race is
    /// submitted, because a worker can finish it (and come looking for
    /// the group) before the reactor's next statement.
    fn open_group(&mut self, waiters: Vec<ReplySlot>) -> u64 {
        let group = self.next_group;
        self.next_group += 1;
        self.shared
            .groups
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(group, waiters);
        group
    }

    /// The pool refused the race registered as `group`: its `done` was
    /// dropped unrun, so nobody else will come for the group — take it
    /// back and shed its waiters.
    fn shed_group(&mut self, group: u64) {
        if let Some(waiters) = self.shared.take_group(group) {
            self.shed(waiters, Metric::Shed);
        }
    }

    /// Sheds a race that will not run: every waiter gets its own
    /// `Overloaded` reply, counted under `metric`.
    fn shed(&mut self, waiters: Vec<ReplySlot>, metric: Metric) {
        for (half, seq) in waiters {
            self.telemetry.add(metric, 1);
            self.reply(&half, seq, &Response::Overloaded);
        }
    }

    /// Run-queue scheduling metadata for one submission from this
    /// shard: the request's absolute deadline (best-effort when the
    /// wire said 0), the workload's configured priority lane, and this
    /// shard's worker group.
    fn job_meta(&self, widx: usize, deadline_ms: u32) -> JobMeta {
        JobMeta::for_request(deadline_ms, self.lanes.lane_of(widx), self.shard_idx)
    }

    /// Asks the placement policy whether any of this race's
    /// alternatives should run on a peer. `None` — the overwhelmingly
    /// common answer, and the only one when no peer is up — means the
    /// race stays entirely local and pays nothing for the peer plane.
    fn plan_remote(&self, key: &BatchKey) -> Option<Vec<Option<String>>> {
        let spec = workload::CATALOG.get(key.widx)?;
        let up = self.plane.races.peers.stats().up_peers();
        if up.is_empty() {
            return None;
        }
        // What actually crosses the wire per shipped alternative: the
        // EXEC_ALT frame (fixed header + workload + origin strings).
        let frame_bytes = (33 + spec.name.len() + self.plane.races.advertise.len()) as u64;
        self.plane.placement.assign(
            key.widx,
            frame_bytes,
            &up,
            self.pool.queued(),
            self.pool.workers(),
            self.sched.catalog(),
        )
    }

    /// The distributed submit path: register the race with the remote
    /// registry *first* (an instant local finish must find it), then
    /// submit the local subrace — every alternative not shipped — and
    /// finally fire one EXEC_ALT per shipped alternative. The reply
    /// group is answered exactly once by the registry's commit/fail
    /// path, never directly by the worker.
    fn submit_race_distributed(
        &mut self,
        waiters: Vec<ReplySlot>,
        key: BatchKey,
        assign: Vec<Option<String>>,
    ) {
        let group = self.open_group(waiters);
        let token = deadline_token(key.deadline_ms);
        let remotes: Vec<(u32, String)> = assign
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.clone().map(|p| (i as u32, p)))
            .collect();
        // Voters are frozen at race creation: this node plus every peer
        // currently up. A voter dying mid-race counts as a denial.
        let voters: Vec<String> = self
            .plane
            .races
            .peers
            .stats()
            .up_peers()
            .into_iter()
            .map(|p| p.addr)
            .collect();
        let spec = RaceSpec {
            shard: self.shard_idx,
            group,
            widx: key.widx,
            arg: key.arg,
            deadline_ms: key.deadline_ms,
            local_cancel: token.clone(),
        };
        let race_id = self.plane.races.create(spec, remotes.clone(), voters);
        let skip: Vec<bool> = assign.iter().map(Option::is_some).collect();
        let work = {
            let telemetry = Arc::clone(&self.telemetry);
            let sched = Arc::clone(&self.sched);
            move || {
                contained(&telemetry, || {
                    run_subrace(&telemetry, &sched, key.widx, key.arg, &token, &skip)
                })
            }
        };
        // The local outcome feeds the registry, not the reply group:
        // the registry answers the group once, at commit or failure.
        let races = Arc::clone(&self.plane.races);
        let done = move |reply| races.step(race_id, Event::LocalDone(or_worker_lost(reply)));
        let meta = self.job_meta(key.widx, key.deadline_ms);
        match self.pool.try_submit_work_at(meta, work, done) {
            Ok(()) => {
                self.telemetry.add(Metric::Accepted, 1);
                let spec = &workload::CATALOG[key.widx];
                for (alt_idx, peer) in remotes {
                    self.telemetry.add(Metric::RemoteDispatched, 1);
                    if let Some(stat) = self.plane.races.peers.stats().by_addr(&peer) {
                        stat.note_dispatched();
                    }
                    self.plane.races.peers.send(
                        &peer,
                        Request::ExecAlt {
                            race_id,
                            alt_idx,
                            deadline_ms: key.deadline_ms,
                            arg: key.arg,
                            workload: spec.name.to_owned(),
                            origin: self.plane.races.advertise.clone(),
                        },
                        SendTag::ExecAlt { race_id, alt_idx },
                    );
                }
            }
            Err(_) => {
                self.plane.races.table().abort(race_id);
                self.shed_group(group);
            }
        }
    }

    /// Encodes a reactor-side reply (ring slot preferred, pool-backed
    /// spill otherwise) and delivers it through the connection's write
    /// half like any other — the common case (reply fits the socket
    /// buffer) completes without another poll round-trip, and whatever
    /// the delivery leaves (output, a failed socket, a connection now
    /// closable) the next turn's look at the half picks up.
    fn reply(&mut self, half: &WriteHalf, seq: u64, response: &Response) {
        let reply = EncodedReply::encode_with(response, &self.ring, &mut self.bufs);
        half.deliver(seq, ReplyFrame::Own(reply), Some(&mut self.bufs));
    }

    /// [`Reactor::reply`] to connection `id`, if it is still there.
    fn fulfill(&mut self, id: u64, seq: u64, response: &Response) {
        if let Some(half) = self.write_half(id) {
            self.reply(&half, seq, response);
        }
    }

    /// [`Reactor::fulfill`] with a `Text` reply.
    fn fulfill_text(&mut self, id: u64, seq: u64, body: impl Into<String>) {
        self.fulfill(id, seq, &Response::Text { body: body.into() });
    }

    /// Queues one last reply, stops reading, and lets the drain logic
    /// close the connection once the reply is out.
    fn reply_and_close_read(&mut self, id: u64, response: &Response) {
        if let Some(half) = self.write_half(id) {
            let seq = half.begin_request();
            half.close_read();
            self.reply(&half, seq, response);
        }
    }

    /// Connection `id`'s write half, if the connection is still open.
    fn write_half(&self, id: u64) -> Option<Arc<WriteHalf>> {
        self.conns
            .get(&id)
            .map(|conn| Arc::clone(conn.write_half()))
    }

    /// Drops one connection's state, closing its write half so that
    /// races still in flight for it deliver to nobody.
    fn close(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            conn.write_half().close();
            self.stats.on_conn_close();
        }
    }
}

/// Runs a race body contained, so a crash becomes an explicit error
/// reply; the pool's own `catch_unwind` is the backstop.
fn contained(telemetry: &Telemetry, race: impl FnOnce() -> Response) -> Response {
    catch_unwind(AssertUnwindSafe(race)).unwrap_or_else(|_| {
        telemetry.on_error();
        Response::Error {
            message: "internal error: race panicked".to_owned(),
        }
    })
}

/// The reply a race job owes its waiters: its own, or — when the pool
/// dropped the job unrun (injected `Fail` fault, worker killed mid-job,
/// shutdown sweep) — an answer rather than stranded waiters.
fn or_worker_lost(reply: Option<Response>) -> Response {
    reply.unwrap_or(Response::Error {
        message: "worker lost".to_owned(),
    })
}

/// The acceptor loop — the **fallback** front door for sharded mode on
/// platforms without `SO_REUSEPORT` (per-shard listeners are the
/// primary path): polls the listener plus its own wake pipe, accepts
/// until the listener would block, and hands each socket round-robin
/// to the next shard's inbox. Round-robin is fair enough here because
/// connections are long-lived and statistically similar under the
/// daemon's workloads; the counter is local, so the accept path takes
/// no locks beyond the one push into the chosen shard's inbox.
pub(crate) fn run_acceptor(
    listener: TcpListener,
    mut wake_rx: WakeRx,
    ctl: Arc<DaemonCtl>,
    shards: Vec<Arc<ReactorShared>>,
) {
    debug_assert!(!shards.is_empty());
    let mut next = 0usize;
    while !ctl.draining() {
        let mut fds = [
            PollFd::new(wake_rx.as_raw_fd(), POLLIN),
            PollFd::new(listener.as_raw_fd(), POLLIN),
        ];
        if poll_fds(&mut fds, POLL_BACKSTOP_MS).is_err() {
            continue;
        }
        if fds[0].revents != 0 {
            wake_rx.drain();
        }
        if fds[1].revents & POLLIN == 0 {
            continue;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shards[next % shards.len()].adopt(stream);
                    next += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient accept failure; retry next loop
            }
        }
    }
}
