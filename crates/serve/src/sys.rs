//! The crate's unsafe corner, and the one file that has the keyword:
//! the C library's `ppoll(2)`, the handful of socket calls needed for an
//! `SO_REUSEPORT` bind (std's `TcpListener` cannot set the option before
//! binding) and for a connect that does not wait for its handshake
//! (std's only bounds the wait), the `prctl(2)` pair that sets and reads
//! a thread's timer slack, and glibc's `mallopt(3)` for one malloc
//! arena. std links libc on every supported platform, so the extern
//! declarations name symbols that are already in the process — no new
//! dependency, no raw syscall numbers.

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

    let timeout_ms = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
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
        fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_int, len: u32)
            -> c_int;
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
