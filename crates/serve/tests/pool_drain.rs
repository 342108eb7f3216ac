//! Property tests for the worker pool's shutdown drain guarantee.
//!
//! The contract under concurrent `shutdown()` + `try_submit_at()`:
//!
//! * every job whose `try_submit_at` returned `Ok` runs **exactly once**,
//!   and has finished by the time `shutdown()` returns;
//! * a refused submission fails with `Overloaded` (queue full) or
//!   `ShuttingDown` (queue closed) — nothing else, and the job is
//!   provably never run;
//! * the guarantee holds when admitted jobs panic (satellite of the
//!   fault-injection work: a poisoned queue lock must not wedge the
//!   drain).
//!
//! Driven by `altx-check`: each case draws pool geometry and a
//! submitter schedule from a seeded RNG, so a failure prints a replay
//! seed.

use altx_check::{check, CaseRng};
use altx_serve::pool::{JobMeta, SubmitError, WorkerPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

#[test]
fn admitted_jobs_all_run_before_shutdown_returns() {
    check("pool-drain", 40, |rng: &mut CaseRng| {
        let workers = rng.usize_in(1, 4);
        let queue_depth = rng.usize_in(1, 16);
        let submitters = rng.usize_in(1, 4);
        let jobs_per_submitter = rng.usize_in(5, 40);
        let panic_one_in = rng.u64_in(3, 20); // some cases crash often

        let pool = Arc::new(WorkerPool::new(workers, queue_depth));
        let ran = Arc::new(AtomicU64::new(0));
        // Submitters and the shutdown all release together so admission
        // genuinely races the close.
        let barrier = Arc::new(Barrier::new(submitters + 1));

        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                let pool = Arc::clone(&pool);
                let ran = Arc::clone(&ran);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut admitted = 0u64;
                    let mut admitted_panickers = 0u64;
                    for j in 0..jobs_per_submitter {
                        let crashes = ((s + j) as u64).is_multiple_of(panic_one_in);
                        let ran = Arc::clone(&ran);
                        let submitted = pool.try_submit_at(
                            move || {
                                ran.fetch_add(1, Ordering::SeqCst);
                                if crashes {
                                    panic!("chaos job {s}/{j}");
                                }
                            },
                            JobMeta::default(),
                        );
                        match submitted {
                            Ok(()) => {
                                admitted += 1;
                                admitted_panickers += u64::from(crashes);
                            }
                            Err(SubmitError::Overloaded | SubmitError::ShuttingDown) => {}
                        }
                    }
                    (admitted, admitted_panickers)
                })
            })
            .collect();

        barrier.wait();
        pool.shutdown(); // races the submitters; must never panic

        let mut admitted = 0u64;
        let mut admitted_panickers = 0u64;
        for h in handles {
            let (a, p) = h.join().expect("submitter exits");
            admitted += a;
            admitted_panickers += p;
        }
        // `shutdown` returned before the submitter tallies were merged,
        // but the drain guarantee is about jobs, not tallies: every
        // admitted job already ran (exactly once — the counter can't
        // exceed admissions).
        assert_eq!(
            ran.load(Ordering::SeqCst),
            admitted,
            "admitted jobs must run exactly once before shutdown returns"
        );
        assert_eq!(
            pool.stats().jobs_panicked(),
            admitted_panickers,
            "every admitted panicking job is contained and counted"
        );
        // Post-shutdown submissions are refused with ShuttingDown.
        assert_eq!(
            pool.try_submit_at(|| {}, JobMeta::default()),
            Err(SubmitError::ShuttingDown)
        );
    });
}

/// Once `shutdown` has returned, submissions must be refused with
/// `ShuttingDown` from every thread, forever — not `Overloaded`, and
/// never admitted.
#[test]
fn submissions_after_shutdown_always_shutting_down() {
    check("post-shutdown-submit", 20, |rng: &mut CaseRng| {
        let pool = Arc::new(WorkerPool::new(rng.usize_in(1, 3), rng.usize_in(1, 8)));
        pool.shutdown();
        let threads = rng.usize_in(1, 4);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        assert_eq!(
                            pool.try_submit_at(|| panic!("must never run"), JobMeta::default()),
                            Err(SubmitError::ShuttingDown)
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("checker exits");
        }
        assert_eq!(pool.stats().jobs_panicked(), 0, "refused jobs never ran");
    });
}
