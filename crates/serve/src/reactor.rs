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
//! * **sys**: the C library calls std does not wrap (see the module) —
//!   the only unsafe code in the crate, confined there.
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
//!   their sockets are entries of its poll set, their commands arrive
//!   on its wake channel.
//! * **A race carries its reply slot** ([`Flight`]): a race in flight
//!   is one value — its key, the one reply slot it owes and its shard's
//!   delivery handle ([`ReactorShared`]: ring, wake channel,
//!   `draining`) — built when the request leaves the decoder and
//!   *moved* to whoever decides the race: this thread, a pool job's
//!   completion closure, or the distributed-race shell (`remote.rs`),
//!   which keeps it beside its table under `race_id`. Nothing is
//!   registered anywhere, so nothing is looked up: the decider already
//!   holds the way home.
//! * **Direct delivery** ([`ReactorShared::answer`]): the one way a
//!   race's reply reaches a connection. The deciding thread encodes the
//!   reply **once** into a ring slot (`ring.rs`), locks the
//!   connection's write half, fills the request's reply slot and writes
//!   to the socket right there. No completion queue, no second thread,
//!   no reply byte copied between encode and the kernel, and no two
//!   locks ever held at once. "Each request answered once" is the write
//!   half's rule — a slot is filled only while empty — so a refused
//!   submission is shed from the reactor's own copy of the slot without
//!   asking who else holds one.
//! * **Run on the shard** ([`Reactor::submit_race`]): a race whose
//!   workload has been measured short enough that the hand-off to a
//!   worker would be a visible share of it
//!   (`CatalogStats::runs_on_shard` — one flag, republished with every
//!   service sample by the rule in `sched.rs`) never leaves this
//!   thread: after the admission gate and the placement policy have had
//!   their say, the reactor races it in place — favourite inline,
//!   siblings on the crew, deadline token and containment as on a
//!   worker — and answers its own flight. No boxed job, no queue push,
//!   no racer woken; and once a workload is on the shard its requests
//!   no longer wait for a worker held inside somebody else's race. A
//!   workload whose bodies block (`WorkloadSpec::blocks`: `sleep`,
//!   `lognormal`, `bimodal`) never qualifies, whatever it measured —
//!   this thread must not sleep in a body. Everything else is queued.
//!   Reply order needs nothing new: the write half's sequence numbers
//!   park a shard-run reply behind an earlier queued one.
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
//!   owed reply is written, (4) when the last shard has no connections
//!   left, close the queue and wait out the pool's running slots. No
//!   admitted request goes unanswered. Step (3) is a handshake: the
//!   reactor publishes `draining` *then* looks at each write half under
//!   its lock; an answer delivers under that lock *then* reads the flag
//!   — so either it sees the flag and rouses the reactor, or its
//!   delivery came before the look and the reactor saw a drained
//!   connection.

use crate::bufpool::BufPool;
use crate::conn::{Conn, ReplySlot, WriteHalf};
use crate::frame::{exec_alt_frame_len, FrameError, Request, Response};
use crate::peer::{load_line, PeerLinks, SendTag};
use crate::pool::JobMeta;
use crate::remote::{Event, RaceSpec};
use crate::ring::{EncodedReply, ReplyRing};
use crate::sched::render_catalog;
use crate::server::{alt_job, deadline_token, run_race, run_subrace, Daemon};
use crate::telemetry::{Metric, ShardStats, Telemetry};
use crate::workload;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use sys::timer_slack_ns;
pub(crate) use sys::{
    bind_reuseport, connect_nonblocking, one_malloc_arena, tighten_timer_slack, PollFd, POLLERR,
    POLLHUP, POLLIN, POLLOUT,
};
use sys::{poll_fds, poll_timeout, POLLNVAL};

/// This file's unsafe corner: calling the C library's `ppoll(2)`, the
/// handful of socket calls needed for an `SO_REUSEPORT` bind (std's
/// `TcpListener` cannot set the option before binding) and for a
/// connect that does not wait for its handshake (std's only bounds the
/// wait), the `prctl(2)` pair that sets and reads a thread's timer
/// slack, and glibc's `mallopt(3)` for one malloc arena. std
/// links libc on every supported platform, so the extern declarations
/// name symbols that are already in the process — no new dependency, no
/// raw syscall numbers.
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_ulong};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::{Duration, Instant};

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

    /// Blocks until an fd is ready or `timeout` elapses, retrying
    /// EINTR. Returns how many entries have non-zero `revents`.
    pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        loop {
            let rc = wait(fds, timeout);
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// One `ppoll(2)`: `poll(2)` with a `timespec` for a timeout, so a
    /// 200 µs wait is a 200 µs wait and not the next whole millisecond.
    #[cfg(target_os = "linux")]
    fn wait(fds: &mut [PollFd], timeout: Duration) -> c_int {
        use std::ffi::{c_long, c_void};

        /// `struct timespec` as the symbol `ppoll` takes it: `time_t`
        /// and `long` are both the C `long` there.
        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }

        extern "C" {
            fn ppoll(
                fds: *mut PollFd,
                nfds: c_ulong,
                timeout: *const Timespec,
                sigmask: *const c_void,
            ) -> c_int;
        }

        let timeout = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // repr(C) pollfd records for the duration of the call, and its
        // length is passed as nfds; `timeout` is a live repr(C) local
        // the call only reads; a null sigmask leaves the signal mask
        // alone.
        unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &timeout,
                std::ptr::null(),
            )
        }
    }

    /// Off Linux: one `poll(2)`, the timeout rounded *up* to its
    /// millisecond so a wait never ends before it was due.
    #[cfg(not(target_os = "linux"))]
    fn wait(fds: &mut [PollFd], timeout: Duration) -> c_int {
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        }

        let timeout_ms =
            c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // repr(C) pollfd records for the duration of the call, and its
        // length is passed as nfds.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) }
    }

    /// How long a poll loop may sleep: until `due`, the earliest
    /// instant its owner has something to do on a clock, and never past
    /// `backstop`. Something already due means not at all.
    pub fn poll_timeout(due: Instant, backstop: Duration, now: Instant) -> Duration {
        due.saturating_duration_since(now).min(backstop)
    }

    #[cfg(target_os = "linux")]
    mod slack {
        use std::ffi::{c_int, c_ulong};

        const PR_SET_TIMERSLACK: c_int = 29;
        const PR_GET_TIMERSLACK: c_int = 30;
        const ONE_NS: c_ulong = 1;

        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }

        /// Sets the *calling thread's* timer slack to 1 ns, the least
        /// the kernel takes. Every timed wait of the thread — futex,
        /// `ppoll`, `nanosleep` — then ends when its clock says, not up
        /// to the default 50 µs later, and threads it spawns from here
        /// on inherit the setting. Advisory: a kernel that says no
        /// leaves the thread as it was.
        pub fn tighten_timer_slack() {
            // SAFETY: PR_SET_TIMERSLACK reads one unsigned long and
            // touches only the calling thread's own scheduling state.
            let _ = unsafe { prctl(PR_SET_TIMERSLACK, ONE_NS) };
        }

        /// The calling thread's timer slack in nanoseconds (`None` if
        /// the kernel will not say).
        pub fn timer_slack_ns() -> Option<u64> {
            // SAFETY: PR_GET_TIMERSLACK takes no further argument and
            // returns the calling thread's value as the result.
            let rc = unsafe { prctl(PR_GET_TIMERSLACK) };
            u64::try_from(rc).ok()
        }
    }

    #[cfg(target_os = "linux")]
    pub use slack::{tighten_timer_slack, timer_slack_ns};

    /// Has every thread allocate from glibc's main arena: without it,
    /// a thread that allocates while another holds the arena's lock
    /// gets an arena of its own and keeps its high-water mark there,
    /// a resident cost per thread. The call takes effect for arenas not
    /// yet made, so it is made before any thread is spawned. Advisory:
    /// an allocator that says no leaves the process as it was.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    pub fn one_malloc_arena() {
        const M_ARENA_MAX: c_int = -8;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: mallopt reads its two integers and sets one of the
        // allocator's process-wide parameters.
        let _ = unsafe { mallopt(M_ARENA_MAX, 1) };
    }

    /// Not glibc: there is no arena count to set.
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    pub fn one_malloc_arena() {}

    /// Non-Linux: there is no slack to drop and none to read.
    #[cfg(not(target_os = "linux"))]
    pub fn tighten_timer_slack() {}

    /// Non-Linux: there is no slack to drop and none to read.
    #[cfg(not(target_os = "linux"))]
    pub fn timer_slack_ns() -> Option<u64> {
        None
    }

    #[cfg(target_os = "linux")]
    mod sock {
        use std::ffi::c_int;
        use std::io;
        use std::net::{SocketAddr, TcpListener, TcpStream};
        use std::os::fd::FromRawFd;

        const AF_INET: c_int = 2;
        const AF_INET6: c_int = 10;
        const SOCK_STREAM: c_int = 1;
        const SOCK_NONBLOCK: c_int = 0o4000;
        const SOCK_CLOEXEC: c_int = 0x80000;
        const SOL_SOCKET: c_int = 1;
        const SO_REUSEADDR: c_int = 2;
        const SO_REUSEPORT: c_int = 15;
        const BACKLOG: c_int = 1024;
        const EINTR: i32 = 4;
        const EINPROGRESS: i32 = 115;

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
            fn connect(fd: c_int, addr: *const u8, len: u32) -> c_int;
            fn close(fd: c_int) -> c_int;
        }

        /// Opens a TCP socket (with `flags` besides `SOCK_CLOEXEC`) for
        /// `addr`'s family and hands `setup` its fd and `addr` encoded
        /// as a `struct sockaddr_in` / `sockaddr_in6` (`<netinet/in.h>`:
        /// family, port in network order, then the address — for IPv6
        /// between flow info and scope id) with its size. A `setup`
        /// that says no closes the socket again, with its errno.
        fn open(
            addr: SocketAddr,
            flags: c_int,
            setup: impl FnOnce(c_int, *const u8, u32) -> bool,
        ) -> io::Result<c_int> {
            let mut sa = [0u8; 28];
            sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
            let (domain, len) = match addr {
                SocketAddr::V4(v4) => {
                    sa[4..8].copy_from_slice(&v4.ip().octets());
                    (AF_INET, 16)
                }
                SocketAddr::V6(v6) => {
                    sa[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                    sa[8..24].copy_from_slice(&v6.ip().octets());
                    sa[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                    (AF_INET6, 28)
                }
            };
            sa[..2].copy_from_slice(&(domain as u16).to_ne_bytes());
            // SAFETY: a plain libc call; the fd is owned here until
            // returned, or closed below.
            let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC | flags, 0) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            if setup(fd, sa.as_ptr(), len) {
                return Ok(fd);
            }
            let err = io::Error::last_os_error();
            // SAFETY: `fd` came from socket() above and nothing owns it.
            unsafe { close(fd) };
            Err(err)
        }

        /// Binds a listening socket with `SO_REUSEPORT` set, so every
        /// shard can bind the same address and the kernel spreads
        /// accepts across them.
        pub fn bind_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
            let one: c_int = 1;
            let one_len = std::mem::size_of::<c_int>() as u32;
            // SAFETY: plain libc calls on the fresh fd; the sockaddr
            // buffer is live for the call and `len` is its encoded size.
            let fd = open(addr, 0, |fd, sa, len| unsafe {
                setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, one_len) == 0
                    && setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, one_len) == 0
                    && bind(fd, sa, len) == 0
                    && listen(fd, BACKLOG) == 0
            })?;
            // SAFETY: `open` hands over an fd nothing else owns.
            Ok(unsafe { TcpListener::from_raw_fd(fd) })
        }

        /// Starts a TCP connect to `addr` and returns without waiting
        /// for the handshake: the stream is non-blocking from birth,
        /// turns writable — or reports an error — when the connect is
        /// done, and `TcpStream::take_error` then says how it went. A
        /// refusal the kernel knows at once is this call's error.
        pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
            // SAFETY: as in `bind_reuseport`. In progress — or
            // interrupted, which on a non-blocking socket leaves the
            // connect to finish all the same — is a start.
            let fd = open(addr, SOCK_NONBLOCK, |fd, sa, len| {
                (unsafe { connect(fd, sa, len) }) == 0
                    || matches!(
                        io::Error::last_os_error().raw_os_error(),
                        Some(EINPROGRESS | EINTR)
                    )
            })?;
            // SAFETY: `open` hands over an fd nothing else owns.
            Ok(unsafe { TcpStream::from_raw_fd(fd) })
        }
    }

    #[cfg(target_os = "linux")]
    pub use sock::{bind_reuseport, connect_nonblocking};

    /// Non-Linux: report the option as unsupported, so `--shards N > 1`
    /// fails at start with this error instead of binding.
    #[cfg(not(target_os = "linux"))]
    pub fn bind_reuseport(_addr: std::net::SocketAddr) -> io::Result<std::net::TcpListener> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT per-shard accept is only wired up on Linux",
        ))
    }

    /// Non-Linux: every dial fails, as to a peer that is down — shard 0
    /// must not wait in a blocking connect.
    #[cfg(not(target_os = "linux"))]
    pub fn connect_nonblocking(_addr: std::net::SocketAddr) -> io::Result<std::net::TcpStream> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "non-blocking peer dials are only wired up on Linux",
        ))
    }
}

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

    /// The only way a race's reply reaches a connection, on whichever
    /// thread calls it: encodes `response` once into this shard's reply
    /// ring (spilling to a fresh heap buffer when the ring can't take
    /// it) and delivers the frame to `slot`'s connection. A connection
    /// that is gone, or a slot somebody filled first, drops the frame,
    /// which reclaims its ring slot. The reactor is roused — after the
    /// write half is unlocked — only if the delivery left it something
    /// to do or the shard is draining.
    pub(crate) fn answer(&self, (half, seq): &ReplySlot, response: &Response) {
        let reply = EncodedReply::encode(response, &self.ring);
        if half.deliver(*seq, reply, None) || self.draining.load(Ordering::SeqCst) {
            self.wake();
        }
    }

    /// Rouses the shard with one byte: `WouldBlock` means it is waking
    /// anyway, any other error that it is gone.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
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

/// A race in flight: what was asked, where its one reply is owed, and
/// the way home. Built by the reactor when a request leaves the
/// decoder, then *moved* to whoever decides the race — the reactor
/// itself for a shard run, the pool job's completion closure, the
/// distributed-race shell — so answering it needs no table and no
/// look-up, and consumes it.
pub(crate) struct Flight {
    pub(crate) key: RaceKey,
    /// The request's reply slot.
    pub(crate) slot: ReplySlot,
    /// The delivery handle of the shard that owns the slot.
    pub(crate) home: Arc<ReactorShared>,
}

impl Flight {
    /// Delivers the race's one reply.
    pub(crate) fn answer(self, response: &Response) {
        self.home.answer(&self.slot, response);
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
    wake_rx: UnixStream,
    /// This shard's delivery handle — and through it the reply ring,
    /// which the reactor's own inline replies draw from too, spilling
    /// to `bufs` instead of allocating.
    shared: Arc<ReactorShared>,
    /// Everything daemon-wide: pool, telemetry, scheduler, admission
    /// gate, lanes, control plane, and the peer plane.
    daemon: Arc<Daemon>,
    stats: Arc<ShardStats>,
    bufs: BufPool,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Shard 0's outbound peer links (`peer.rs`); `None` on every other
    /// shard.
    links: Option<PeerLinks>,
}

impl Reactor {
    /// A shard over its own `listener`, delivering through
    /// `home` and woken through its channel (`wake_rx`); shard 0 is
    /// handed the peer `links`. Also returns the shard's counters (for
    /// telemetry).
    pub(crate) fn new(
        listener: TcpListener,
        daemon: Arc<Daemon>,
        (home, wake_rx): (Arc<ReactorShared>, UnixStream),
        links: Option<PeerLinks>,
    ) -> (Self, Arc<ShardStats>) {
        let bufs = BufPool::default();
        let stats = Arc::new(ShardStats::new(bufs.stats(), home.ring.stats()));
        let reactor = Reactor {
            listener,
            wake_rx,
            shared: home,
            daemon,
            stats: Arc::clone(&stats),
            bufs,
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
            if !draining {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            }
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
            // Shard 0's peer sockets last, and its peer clocks: with no
            // socket there is no entry, and with nothing due no clock is
            // read — the backstop is the only timeout.
            let links_fds_start = fds.len();
            let due = self
                .links
                .as_mut()
                .and_then(|links| links.poll_set(&mut fds));
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
                links.turn(woken, &fds[links_fds_start..]);
            }

            if !draining && fds[1].revents & POLLIN != 0 {
                self.accept_ready();
            }
        }
        if self.daemon.ctl.shard_exited() {
            self.daemon.pool.shutdown();
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

    /// Accepts until this shard's own listener would block (the lone
    /// listener in single-shard mode, a reuseport sibling otherwise).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.adopt(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient accept failure; retry next loop
            }
        }
    }

    /// Dispatches poll readiness for one connection. The one look-up by
    /// connection id: everything below is handed the write half.
    fn handle_conn_event(&mut self, id: u64, revents: i16) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let half = Arc::clone(conn.write_half());
        if revents & (POLLERR | POLLHUP | POLLNVAL) != 0 {
            // The peer is gone in both directions: no reply can be
            // delivered, so the state is reclaimed eagerly. In-flight
            // races keep running; their deliveries find the write half
            // closed and drop.
            self.close(id);
            return;
        }
        if revents & POLLIN != 0 {
            let Ok(read) = conn.on_readable(&mut self.bufs) else {
                self.close(id);
                return;
            };
            let mut alive = true;
            for body in read.frames {
                if alive {
                    // Protocol error: later frames are garbage.
                    alive = self.handle_frame(&half, &body);
                }
                self.bufs.put(body);
            }
            if let Some(e) = read.error {
                // One last reply; the read half already stopped reading
                // and the drain logic closes the connection behind it.
                self.daemon.telemetry.on_error();
                let message = e.to_string();
                self.reply(&half, half.begin_request(), &Response::Error { message });
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

    /// Decodes and executes one request frame of the connection whose
    /// write half is `half`. Returns `false` when the connection must
    /// stop consuming input (malformed request or shutdown).
    fn handle_frame(&mut self, half: &Arc<WriteHalf>, body: &[u8]) -> bool {
        let seq = half.begin_request();
        match Request::decode(body) {
            // An unknown opcode arrives in a well-formed frame: the
            // stream is still in sync, so answer with a protocol ERROR
            // and keep serving — old clients against new daemons (and
            // vice versa) degrade per-request, not per-connection.
            Err(FrameError::UnknownOpcode(op)) => {
                self.daemon.telemetry.on_error();
                let message = format!("unknown request opcode 0x{op:02x}");
                self.reply(half, seq, &Response::Error { message });
            }
            Err(e) => {
                self.daemon.telemetry.on_error();
                let message = e.to_string();
                self.reply(half, seq, &Response::Error { message });
                half.close_read();
                return false;
            }
            Ok(Request::Stats) => self.reply_text(half, seq, self.daemon.telemetry.render_stats()),
            Ok(Request::Prometheus) => {
                self.reply_text(half, seq, self.daemon.telemetry.render_prometheus())
            }
            Ok(Request::Catalog) => self.reply_text(half, seq, render_catalog(&self.daemon.sched)),
            Ok(Request::Shutdown) => {
                self.reply_text(half, seq, "draining\n");
                // Daemon-wide: every shard must drain, not just the
                // one this frame happened to land on.
                self.daemon.ctl.request_shutdown();
                return false;
            }
            Ok(Request::Run {
                workload,
                deadline_ms,
                arg,
            }) => self.submit_run(half, seq, &workload, deadline_ms, arg),
            Ok(exec @ Request::ExecAlt { .. }) => self.exec_alt(half, seq, exec),
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
                let event = Event::LegResult {
                    alt_idx,
                    status,
                    value,
                    latency_us,
                    redo: false,
                };
                self.daemon.races.step(race_id, event);
                self.reply_text(half, seq, "ok\n");
            }
            Ok(Request::CommitVote {
                race_id,
                origin,
                candidate,
            }) => {
                let (granted, holder) = self.daemon.races.ledger.vote(&origin, race_id, &candidate);
                self.daemon.telemetry.add(Metric::CommitVotes, 1);
                self.reply(half, seq, &Response::Vote { granted, holder });
            }
            Ok(Request::Eliminate { race_id, origin }) => {
                let n = self.daemon.inflight.eliminate(&origin, race_id);
                self.daemon.telemetry.add(Metric::Eliminations, 1);
                self.reply_text(half, seq, format!("eliminated {n}\n"));
            }
            Ok(Request::Reconcile { watermark, origin }) => {
                // Partition-heal resync: the reconnecting origin's
                // races below the watermark are all decided — kill any
                // zombie executions and release their vote slots.
                let n = self.daemon.inflight.eliminate_below(&origin, watermark);
                let slots = self.daemon.races.ledger.reconcile(&origin, watermark);
                self.reply_text(
                    half,
                    seq,
                    format!("reconciled {n} cancelled {slots} slots\n"),
                );
            }
            Ok(Request::PeerStats) => {
                // The stats page doubles as the heartbeat reply: the
                // trailing machine-parsable line advertises this node's
                // load so origins can place around busy peers.
                let pool = &self.daemon.pool;
                let mut body = self.daemon.races.peers.stats().render();
                body.push_str(&load_line(pool.queued(), pool.busy(), pool.workers()));
                self.reply_text(half, seq, body);
            }
        }
        true
    }

    /// Executor side of a shipped alternative: admission-control it
    /// like any race, run exactly the named alternative, and fire the
    /// outcome back at the origin over this node's own outbound link.
    /// The immediate reply only acknowledges admission — `Text` for
    /// admitted, `Overloaded` for refused — so the origin can convert a
    /// refusal into a failed guard without waiting.
    fn exec_alt(&mut self, half: &WriteHalf, seq: u64, exec: Request) {
        let Request::ExecAlt {
            race_id,
            alt_idx,
            deadline_ms,
            arg,
            workload,
            origin,
        } = exec
        else {
            return;
        };
        let Some(widx) = workload::index_of(&workload) else {
            self.daemon.telemetry.on_error();
            self.reply(half, seq, &Response::Overloaded);
            return;
        };
        let daemon = &self.daemon;
        let token = deadline_token(Instant::now(), deadline_ms);
        // Registered before submission so an ELIMINATE racing ahead of
        // the worker pickup still lands on the token.
        daemon
            .inflight
            .register(&origin, race_id, alt_idx, token.clone());
        let report = {
            let daemon = Arc::clone(daemon);
            let origin = origin.clone();
            move |(status, value, latency_us)| {
                daemon.inflight.complete(&origin, race_id, alt_idx);
                let result = Request::AltResult {
                    race_id,
                    alt_idx,
                    status,
                    value,
                    latency_us,
                };
                daemon.races.peers.send(&origin, result, SendTag::Fire);
            }
        };
        let telemetry = Arc::clone(&daemon.telemetry);
        let (work, done) = alt_job(telemetry, widx, alt_idx, arg, token, report);
        let meta = self.job_meta(widx, deadline_ms);
        match daemon.pool.try_submit_work_at(meta, work, done) {
            Ok(()) => {
                daemon.telemetry.add(Metric::RemoteExecs, 1);
                self.reply_text(half, seq, "ok\n");
            }
            Err(_) => {
                daemon.inflight.complete(&origin, race_id, alt_idx);
                daemon.telemetry.add(Metric::Shed, 1);
                self.reply(half, seq, &Response::Overloaded);
            }
        }
    }

    /// Admission-controls one RUN request without ever blocking the
    /// reactor. Refused submissions are answered `Overloaded` in line;
    /// admitted ones are answered by whichever thread decides the race
    /// ([`Flight::answer`]).
    fn submit_run(
        &mut self,
        half: &Arc<WriteHalf>,
        seq: u64,
        workload: &str,
        deadline_ms: u32,
        arg: u64,
    ) {
        // Reject unknown names before spending a queue slot.
        let Some(widx) = workload::index_of(workload) else {
            self.daemon.telemetry.on_error();
            self.reply(half, seq, &Response::UnknownWorkload);
            return;
        };
        let key = RaceKey {
            widx,
            deadline_ms,
            arg,
        };
        self.submit_race((Arc::clone(half), seq), key);
    }

    /// Submits one race on behalf of the request whose reply is owed at
    /// `slot`. The response reaches it exactly once — worker-lost and
    /// fault outcomes included — from whichever thread ends up holding
    /// the race's [`Flight`]: a worker, this one when the workload is
    /// short enough to race here, or the distributed-race shell when the
    /// placement policy elects to ship alternatives to peers.
    fn submit_race(&self, slot: ReplySlot, key: RaceKey) {
        let daemon = &self.daemon;
        // Feasibility admission, before the race spends a queue slot or
        // a wire frame: when the deadline is provably unmeetable from
        // the workload's p99 service time plus the current queue wait,
        // shed now instead of burning a worker just to time out.
        // Best-effort requests (deadline 0) always pass.
        let (queued, workers) = (daemon.pool.queued(), daemon.pool.workers());
        if !daemon
            .admission
            .admit(key.widx, key.deadline_ms, queued, workers)
        {
            self.shed(&slot, Metric::ShedsAtAdmission);
            return;
        }
        let flight = Flight {
            key,
            slot,
            home: Arc::clone(&self.shared),
        };
        if let Some(assign) = self.plan_remote(&key) {
            self.submit_race_distributed(flight, assign);
            return;
        }
        let race = move |daemon: &Daemon| {
            contained(&daemon.telemetry, || {
                run_race(
                    &daemon.telemetry,
                    &daemon.sched,
                    key.widx,
                    key.deadline_ms,
                    key.arg,
                )
            })
        };
        // Shard or queue: a workload measured short (the rule is in
        // `sched.rs`) is raced right here and its flight answered the
        // way a finishing worker answers one — no boxed job, no
        // wake-up. What the delivery leaves behind, the next turn's
        // look at each write half picks up.
        if daemon.sched.catalog().runs_on_shard(key.widx) {
            daemon.telemetry.add(Metric::Accepted, 1);
            daemon.telemetry.add(Metric::RacesOnShard, 1);
            flight.answer(&race(daemon));
            return;
        }
        // The flight moves into the completion; should the pool refuse
        // the job, that closure is dropped unrun and the request is shed
        // from this copy of its slot.
        let spare = (Arc::clone(&flight.slot.0), flight.slot.1);
        let work = {
            let daemon = Arc::clone(daemon);
            move || race(&daemon)
        };
        let done = move |reply| flight.answer(&or_worker_lost(reply));
        let meta = self.job_meta(key.widx, key.deadline_ms);
        match daemon.pool.try_submit_work_at(meta, work, done) {
            Ok(()) => daemon.telemetry.add(Metric::Accepted, 1),
            Err(_) => self.shed(&spare, Metric::Shed),
        }
    }

    /// Sheds a race that will not run: its request gets `Overloaded`,
    /// counted under `metric`.
    fn shed(&self, slot: &ReplySlot, metric: Metric) {
        self.daemon.telemetry.add(metric, 1);
        self.shared.answer(slot, &Response::Overloaded);
    }

    /// Run-queue scheduling metadata for one submission: the request's
    /// absolute deadline (best-effort when the wire said 0) and the
    /// workload's configured priority lane.
    fn job_meta(&self, widx: usize, deadline_ms: u32) -> JobMeta {
        JobMeta::for_request(deadline_ms, self.daemon.lanes.lane_of(widx), 0)
    }

    /// Asks the placement policy whether any of this race's
    /// alternatives should run on a peer. `None` — the overwhelmingly
    /// common answer, and the only one when no peer is up — means the
    /// race stays entirely local and pays nothing for the peer plane.
    fn plan_remote(&self, key: &RaceKey) -> Option<Vec<Option<String>>> {
        let daemon = &self.daemon;
        let spec = workload::CATALOG.get(key.widx)?;
        let up = daemon.races.peers.stats().up_peers();
        if up.is_empty() {
            return None;
        }
        // What actually crosses the wire per shipped alternative.
        let frame_bytes = exec_alt_frame_len(spec.name, &daemon.races.advertise) as u64;
        daemon.placement.assign(
            key.widx,
            frame_bytes,
            &up,
            daemon.pool.queued(),
            daemon.pool.workers(),
            daemon.sched.catalog(),
        )
    }

    /// The distributed submit path: hand the flight to the remote
    /// registry *first* (an instant local finish must find it), then
    /// submit the local subrace — every alternative not shipped — and
    /// finally fire one EXEC_ALT per shipped alternative. The flight is
    /// answered exactly once by the registry's commit/fail path, never
    /// directly by the worker; if the pool refuses the subrace the
    /// registry hands it back and its request is shed.
    fn submit_race_distributed(&self, flight: Flight, assign: Vec<Option<String>>) {
        let daemon = &self.daemon;
        let key = flight.key;
        let token = deadline_token(Instant::now(), key.deadline_ms);
        let remotes: Vec<(u32, String)> = assign
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.clone().map(|p| (i as u32, p)))
            .collect();
        // Voters are frozen at race creation: this node plus every peer
        // currently up. A voter dying mid-race counts as a denial.
        let up = daemon.races.peers.stats().up_peers();
        let voters: Vec<String> = up.into_iter().map(|p| p.addr).collect();
        let spec = RaceSpec {
            widx: key.widx,
            arg: key.arg,
            deadline_ms: key.deadline_ms,
            local_cancel: token.clone(),
        };
        let race_id = daemon.races.create(spec, flight, remotes.clone(), voters);
        let skip: Vec<bool> = assign.iter().map(Option::is_some).collect();
        let work = {
            let daemon = Arc::clone(daemon);
            move || {
                contained(&daemon.telemetry, || {
                    run_subrace(
                        &daemon.telemetry,
                        &daemon.sched,
                        key.widx,
                        key.arg,
                        &token,
                        &skip,
                    )
                })
            }
        };
        // The local outcome feeds the registry, which answers the
        // flight once, at commit or failure.
        let races = Arc::clone(&daemon.races);
        let done = move |reply| races.step(race_id, Event::LocalDone(or_worker_lost(reply)));
        let meta = self.job_meta(key.widx, key.deadline_ms);
        if daemon.pool.try_submit_work_at(meta, work, done).is_err() {
            if let Some(flight) = daemon.races.abort(race_id) {
                self.shed(&flight.slot, Metric::Shed);
            }
            return;
        }
        daemon.telemetry.add(Metric::Accepted, 1);
        let spec = &workload::CATALOG[key.widx];
        for (alt_idx, peer) in remotes {
            daemon.telemetry.add(Metric::RemoteDispatched, 1);
            if let Some(stat) = daemon.races.peers.stats().by_addr(&peer) {
                stat.note_dispatched();
            }
            let exec = Request::ExecAlt {
                race_id,
                alt_idx,
                deadline_ms: key.deadline_ms,
                arg: key.arg,
                workload: spec.name.to_owned(),
                origin: daemon.races.advertise.clone(),
            };
            daemon
                .races
                .peers
                .send(&peer, exec, SendTag::ExecAlt { race_id, alt_idx });
        }
    }

    /// Encodes a reactor-side reply (ring slot preferred, pool-backed
    /// spill otherwise) and delivers it through the connection's write
    /// half like any other — the common case (reply fits the socket
    /// buffer) completes without another poll round-trip, and whatever
    /// the delivery leaves (output, a failed socket, a connection now
    /// closable) the next turn's look at the half picks up.
    fn reply(&mut self, half: &WriteHalf, seq: u64, response: &Response) {
        let reply = EncodedReply::encode_with(response, &self.shared.ring, &mut self.bufs);
        half.deliver(seq, reply, Some(&mut self.bufs));
    }

    /// [`Reactor::reply`] with a `Text` reply.
    fn reply_text(&mut self, half: &WriteHalf, seq: u64, body: impl Into<String>) {
        self.reply(half, seq, &Response::Text { body: body.into() });
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

/// The reply a race job owes its request: its own, or — when the pool
/// dropped the job unrun (injected `Fail` fault, worker killed mid-job,
/// shutdown sweep) — an answer rather than a stranded request.
fn or_worker_lost(reply: Option<Response>) -> Response {
    reply.unwrap_or(Response::Error {
        message: "worker lost".to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use altx_check::check;

    const SLOTS: usize = 4;
    const PAIRS: usize = 3;

    /// One thing one thread does, to a flight or to a connection.
    enum Move {
        /// The decider answers the flight with the race's own reply.
        Answer(Flight),
        /// The pool dropped the job unrun: its completion hears `None`.
        Lose(Flight),
        /// The reactor sheds from its own copy of a flight's slot.
        Shed(ReplySlot),
        /// The reactor reclaims connection `c`.
        Close(usize),
    }

    /// The reply flight number `flight`'s race would give (a flight's
    /// number rides in its key's `arg`).
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

    fn answer_own(flight: Flight) {
        let reply = own_reply(flight.key.arg as usize);
        flight.answer(&reply);
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
                    key: RaceKey {
                        widx: 0,
                        deadline_ms: 0,
                        arg: f as u64,
                    },
                    slot,
                    home: Arc::clone(&home),
                };
                admissible.push(match rng.usize_in(0, 5) {
                    0 => {
                        moves.push(Move::Answer(flight));
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
                        moves.push(Move::Answer(flight));
                        moves.push(Move::Shed(spare));
                        vec![own_reply(f), Response::Overloaded]
                    }
                    _ => {
                        held.push(flight);
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
                                Move::Answer(flight) => answer_own(flight),
                                Move::Lose(flight) => flight.answer(&or_worker_lost(None)),
                                Move::Shed(spare) => home.answer(&spare, &Response::Overloaded),
                                Move::Close(c) => halves[c].close(),
                            }
                        }
                    });
                }
            });
            // Every close has happened: a flight answered now must not
            // reach a reclaimed connection.
            let held_back: Vec<usize> = held.iter().map(|f| f.key.arg as usize).collect();
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
}
