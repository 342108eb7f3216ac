//! The benchmark's foreign calls, the one place it needs `unsafe`:
//! `ppoll(2)` for the open-loop generator's sub-millisecond waits,
//! `sched_{get,set}affinity(2)` to confine a measurement to one CPU, and
//! `{get,set}priority(2)` to keep that CPU for the measurement.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_long, c_uint, c_ulong, c_void};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;

#[repr(C)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// Words of a CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    fn getpriority(which: c_int, who: c_uint) -> c_int;
    fn setpriority(which: c_int, who: c_uint, prio: c_int) -> c_int;
}

/// `PRIO_PROCESS`; with `who` 0 it names the calling thread.
const PRIO_PROCESS: c_int = 0;

/// The calling thread's nice value.
pub fn nice() -> i32 {
    // SAFETY: no pointers; `PRIO_PROCESS` with id 0 is always valid.
    unsafe { getpriority(PRIO_PROCESS, 0) }
}

/// Sets the calling thread's nice value. Threads and processes it
/// starts afterwards inherit it. Going below the current value needs
/// `CAP_SYS_NICE`.
pub fn set_nice(nice: i32) -> io::Result<()> {
    // SAFETY: no pointers; `PRIO_PROCESS` with id 0 is always valid.
    let rc = unsafe { setpriority(PRIO_PROCESS, 0, nice) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Waits for readiness on `fds` for at most `timeout`: the open-loop
/// generator sleeps until the next scheduled send *or* a readable reply,
/// whichever is first, with sub-millisecond timeouts `poll(2)` cannot
/// express — and without spinning on the core the daemon needs. Errors
/// (`EINTR` included) just end the wait; the caller's loop re-checks the
/// clock and the sockets either way.
pub fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of
    // `#[repr(C)]` structs matching `struct pollfd`, and `nfds` is its
    // length; `ts` matches the 64-bit Linux `struct timespec` and
    // outlives the call; a null sigmask leaves the signal mask alone.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// The CPUs a thread may run on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; MASK_WORDS]);

impl CpuSet {
    /// The calling thread's affinity mask.
    pub fn current() -> io::Result<CpuSet> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // byte size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(CpuSet(mask))
    }

    /// The lowest-numbered CPU of the set, alone.
    pub fn first_only(&self) -> Option<(usize, CpuSet)> {
        let word = self.0.iter().position(|w| *w != 0)?;
        let bit = self.0[word].trailing_zeros() as usize;
        let mut mask = [0u64; MASK_WORDS];
        mask[word] = 1 << bit;
        Some((word * 64 + bit, CpuSet(mask)))
    }

    /// Confines the calling thread to this set. Threads and processes
    /// it starts afterwards inherit the mask.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: `self.0` is a live buffer of exactly the byte size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, size_of_val(&self.0), self.0.as_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_only_picks_the_lowest_cpu() {
        let mut mask = [0u64; MASK_WORDS];
        mask[1] = 0b1010_0000;
        let (cpu, one) = CpuSet(mask).first_only().expect("non-empty");
        assert_eq!(cpu, 64 + 5);
        assert!(one.0[1] == 0b10_0000 && one.0.iter().filter(|w| **w != 0).count() == 1);
        assert!(CpuSet([0; MASK_WORDS]).first_only().is_none());
    }

    /// Nice is per thread too, and raising it needs no privilege.
    #[test]
    fn a_thread_can_step_back_and_its_children_inherit() {
        std::thread::spawn(|| {
            let before = nice();
            let stepped_back = (before + 1).min(19);
            set_nice(stepped_back).expect("raise nice");
            assert_eq!(nice(), stepped_back);
            let child = std::thread::spawn(nice).join().expect("child");
            assert_eq!(child, stepped_back);
        })
        .join()
        .expect("test thread");
    }

    /// Affinity is per thread, so the test narrows a thread of its own.
    #[test]
    fn narrows_a_thread_to_one_cpu_and_widens_it_again() {
        std::thread::spawn(|| {
            let all = CpuSet::current().expect("read affinity");
            let (cpu, one) = all.first_only().expect("a CPU to run on");
            one.apply().expect("narrow");
            let now = CpuSet::current().expect("read affinity");
            assert!(now == one);
            assert_eq!(now.first_only().map(|f| f.0), Some(cpu));
            // A thread started while narrowed inherits the mask.
            let child = std::thread::spawn(CpuSet::current).join().expect("child");
            assert!(child.expect("read affinity") == one);
            all.apply().expect("widen");
            assert!(CpuSet::current().expect("read affinity") == all);
        })
        .join()
        .expect("test thread");
    }
}
