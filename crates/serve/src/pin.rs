//! CPU affinity binding: the `sched_setaffinity(2)` /
//! `sched_getaffinity(2)` corner of the placement layer.
//!
//! Like the reactor's `poll(2)` binding, the extern declarations name
//! libc symbols that std already links — no new dependency. Everything
//! here is *advisory* for the daemon: a kernel that refuses (`EPERM`
//! inside a restrictive container, `EINVAL` for a CPU outside the
//! cgroup's cpuset) leaves the thread unpinned and the daemon running;
//! callers log and continue. The failure contract is pinned by
//! `tests/topo.rs`.
//!
//! Every syscall made through this module is counted
//! ([`affinity_syscalls`]); the `--pin`-off equivalence test asserts
//! the counter never moves when pinning is disabled, so "off" provably
//! means *no affinity syscalls at all*, not "pinning to everything".

use std::sync::atomic::{AtomicU64, Ordering};

/// Highest CPU id the fixed-size mask below can express. 1024 CPUs
/// matches glibc's `cpu_set_t`; hosts beyond it exist but a daemon
/// pinned to the first 1024 is still correct, just not using the rest.
pub const MAX_CPUS: usize = 1024;

const MASK_BYTES: usize = MAX_CPUS / 8;

/// Affinity syscalls (get + set) made through this module since
/// process start. The `--pin`-off equivalence gate reads the delta.
static AFFINITY_SYSCALLS: AtomicU64 = AtomicU64::new(0);

/// How many affinity syscalls this module has made so far.
pub fn affinity_syscalls() -> u64 {
    AFFINITY_SYSCALLS.load(Ordering::SeqCst)
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use super::{AFFINITY_SYSCALLS, MASK_BYTES, MAX_CPUS};
    use std::io;
    use std::sync::atomic::Ordering;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    }

    /// Pins the *calling thread* (pid 0) to exactly `cpus`.
    pub fn set_current_affinity(cpus: &[usize]) -> io::Result<()> {
        let mut mask = [0u8; MASK_BYTES];
        let mut any = false;
        for &cpu in cpus {
            if cpu >= MAX_CPUS {
                continue;
            }
            mask[cpu / 8] |= 1 << (cpu % 8);
            any = true;
        }
        if !any {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty CPU set"));
        }
        AFFINITY_SYSCALLS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `mask` is a live, correctly sized byte buffer for the
        // duration of the call; pid 0 targets the calling thread.
        let rc = unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// The calling thread's current affinity mask as a CPU id list.
    pub fn current_affinity() -> io::Result<Vec<usize>> {
        let mut mask = [0u8; MASK_BYTES];
        AFFINITY_SYSCALLS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: `mask` is a live, correctly sized byte buffer the
        // kernel fills; pid 0 targets the calling thread.
        let rc = unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        let mut cpus = Vec::new();
        for (byte_idx, byte) in mask.iter().enumerate() {
            let mut bits = *byte;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                cpus.push(byte_idx * 8 + bit);
                bits &= bits - 1;
            }
        }
        Ok(cpus)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::io;

    pub fn set_current_affinity(_cpus: &[usize]) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "CPU pinning is only wired up on Linux",
        ))
    }

    pub fn current_affinity() -> io::Result<Vec<usize>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "CPU affinity queries are only wired up on Linux",
        ))
    }
}

pub use sys::{current_affinity, set_current_affinity};

/// Best-effort pin of the calling thread to `cpus`: on refusal
/// (`EPERM` under a restrictive seccomp/container policy, `EINVAL` for
/// CPUs outside the allowed set, `Unsupported` off Linux) logs once
/// per call and reports `false` — the thread keeps running unpinned,
/// never aborts.
pub fn pin_current_thread(label: &str, cpus: &[usize]) -> bool {
    match set_current_affinity(cpus) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("altxd: pin {label} to cpus {cpus:?} failed ({e}); continuing unpinned");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// `affinity_syscalls` is one process-wide counter: the test that
    /// asserts it stands still must not overlap the ones that move it.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn empty_set_is_refused_without_a_syscall() {
        let _guard = serial();
        let before = affinity_syscalls();
        assert!(set_current_affinity(&[]).is_err());
        // Ids past MAX_CPUS are dropped before the mask is built, so an
        // all-out-of-range set is the empty set.
        assert!(set_current_affinity(&[MAX_CPUS + 5]).is_err());
        assert_eq!(affinity_syscalls(), before, "refused before the kernel");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn get_set_roundtrip_on_own_mask() {
        let _guard = serial();
        let mine = current_affinity().expect("getaffinity works on Linux");
        assert!(!mine.is_empty());
        // Re-pinning to the exact current mask is always permitted.
        assert!(set_current_affinity(&mine).is_ok());
        assert_eq!(current_affinity().expect("still readable"), mine);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn invalid_cpu_fails_softly() {
        // A mask of only (almost certainly) nonexistent CPUs draws
        // EINVAL; pin_current_thread must absorb it and keep going.
        let _guard = serial();
        let before = current_affinity().expect("getaffinity works");
        assert!(!pin_current_thread("test-thread", &[MAX_CPUS - 1]));
        assert_eq!(
            current_affinity().expect("still readable"),
            before,
            "a refused pin leaves the affinity untouched"
        );
    }
}
