//! What a search holds: live bytes and allocations of the `prolog`
//! workload's dead end, counted by a global allocator.
//!
//! The daemon's `cpu` workload races two clause orders of `q(D)`; the
//! dead-end order is what its exploration races run, and each thread that
//! ever runs one keeps a malloc arena as large as that search's peak. A
//! solver that renamed each clause by copying it, kept a choice point per
//! user goal and never gave variable slots back peaked at 131 008 live
//! bytes on `q(499)` by this count, with 4.2 allocations per step, and
//! its peak grew with the amount of backtracking (1 043 664 bytes for
//! ten passes below).
//!
//! This file is a test binary of its own: the allocator counts per
//! thread, so the harness's other threads do not disturb a measurement.

use altx_prolog::{parse_query, KnowledgeBase, Solver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts, for the calling thread, bytes live, their peak and allocations.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn record(grow: usize, shrink: usize) {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = LIVE.try_with(|live| {
        // Both blocks of a reallocation are live while it copies.
        let high = live.get() + grow as isize;
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(high)));
        live.set(high - shrink as isize);
    });
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + u64::from(grow > 0)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the
// bookkeeping only touches const-initialised thread-locals without
// destructors, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record(layout.size(), 0);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        record(0, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`; the
        // caller guarantees `new_size` is valid for its alignment.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            record(new_size, layout.size());
        }
        new
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Peak live bytes above the starting level, and allocations, of `run`
/// on this thread.
fn measure<T>(run: impl FnOnce() -> T) -> (T, usize, u64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let allocations = ALLOCATIONS.with(Cell::get);
    let out = run();
    let peak = PEAK.with(Cell::get) - start;
    (
        out,
        usize::try_from(peak).expect("a peak is not below its start"),
        ALLOCATIONS.with(Cell::get) - allocations,
    )
}

const COUNTDOWN: &str = "
    countdown(0).
    countdown(N) :- N > 0, M is N - 1, countdown(M).
";

/// Solves `query` once; returns its steps, peak live bytes and
/// allocations.
fn search(program: &str, query: &str) -> (u64, usize, u64) {
    let kb = KnowledgeBase::parse(&[COUNTDOWN, program].concat()).expect("valid program");
    let query = parse_query(query).expect("valid query");
    let mut solver = Solver::new(&kb);
    let (proved, peak, allocations) = measure(|| !solver.solve(&query, 1).is_empty());
    assert!(proved && !solver.truncated());
    (solver.steps(), peak, allocations)
}

/// Live bytes the dead end may peak at: under two thirds of the copying
/// solver's.
const PEAK_BOUND: usize = 84 * 1024;

/// Allocations per step: a step may allocate only what the search keeps
/// (a clause body's node in the goal list, a bound compound term), and
/// growth of the slot, trail and choice-point stacks amortises.
const ALLOCATIONS_PER_STEP_BOUND: f64 = 0.5;

#[test]
fn the_dead_end_peaks_under_its_bound() {
    let (steps, peak, allocations) = search("q(D) :- countdown(D), fail. q(_).", "q(499)");
    assert_eq!(steps, 2503);
    assert!(
        peak < PEAK_BOUND,
        "q(499) peaked at {peak} live bytes (bound {PEAK_BOUND})"
    );
    let per_step = allocations as f64 / steps as f64;
    assert!(
        per_step < ALLOCATIONS_PER_STEP_BOUND,
        "q(499) made {allocations} allocations in {steps} steps"
    );
}

#[test]
fn ten_times_the_backtracking_peaks_no_higher() {
    let once = search(
        "r(D) :- pass(_), countdown(D), fail. r(_). pass(1).",
        "r(499)",
    );
    let ten = search(
        "r(D) :- pass(_), countdown(D), fail. r(_).
         pass(1). pass(2). pass(3). pass(4). pass(5).
         pass(6). pass(7). pass(8). pass(9). pass(10).",
        "r(499)",
    );
    assert!(ten.0 > 9 * once.0, "{} vs {} steps", ten.0, once.0);
    assert!(
        ten.1 <= once.1,
        "ten passes peaked at {} live bytes, one at {}",
        ten.1,
        once.1
    );
}
