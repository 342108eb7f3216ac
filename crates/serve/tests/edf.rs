//! Integration tests for the deadline-aware scheduler: EDF ordering, a
//! blocked slot that strands no queued job, feasibility admission, lane
//! starvation aging, and the drain guarantee under a deep queue.
//!
//! These drive the pool through its public API only — each test builds
//! the exact geometry it needs with [`PoolConfig`] and observes
//! execution order through channels, so the assertions hold on any
//! machine regardless of scheduling jitter.

use altx_serve::pool::{JobMeta, PoolConfig, WorkerPool};
use altx_serve::sched::{Admission, CatalogStats, ADMISSION_MIN_SAMPLES};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Occupies every worker of the pool and returns a sender that releases
/// them; used to build a known backlog before any job is popped.
fn block_workers(pool: &WorkerPool, n: usize) -> mpsc::Sender<()> {
    let (tx, rx) = mpsc::channel::<()>();
    let rx = Arc::new(Mutex::new(rx));
    for _ in 0..n {
        let rx = Arc::clone(&rx);
        pool.try_submit_at(
            move || {
                rx.lock().expect("blocker lock").recv().ok();
            },
            JobMeta::default(),
        )
        .expect("blocker admitted");
    }
    // Wait until all blockers are actually *running* (off the queue),
    // so jobs submitted next stay queued and the heap order is decided
    // by a single drain.
    while pool.busy() < n as u64 {
        std::thread::sleep(Duration::from_millis(1));
    }
    tx
}

/// Submits a job that records its id in `order`, with the given
/// deadline (`None` = best-effort) on the default lane.
fn submit_recorded(
    pool: &WorkerPool,
    order: &Arc<Mutex<Vec<u64>>>,
    id: u64,
    deadline_ms: Option<u64>,
) {
    let order = Arc::clone(order);
    let meta = JobMeta {
        deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        ..JobMeta::default()
    };
    pool.try_submit_at(
        Box::new(move || order.lock().expect("order lock").push(id)),
        meta,
    )
    .expect("admitted");
}

#[test]
fn interleaved_submits_run_in_edf_order() {
    let pool = WorkerPool::with_config(PoolConfig::fifo(1, 64));
    let release = block_workers(&pool, 1);
    let order = Arc::new(Mutex::new(Vec::new()));
    // Interleave deadlined and best-effort submissions out of deadline
    // order: the pop order must be earliest-deadline-first, ties FIFO,
    // best-effort last in FIFO order.
    submit_recorded(&pool, &order, 0, None); //           best-effort, first in
    submit_recorded(&pool, &order, 1, Some(5_000)); //    late deadline
    submit_recorded(&pool, &order, 2, Some(1_000)); //    earliest deadline
    submit_recorded(&pool, &order, 3, Some(5_000)); //    ties with 1 → after it
    submit_recorded(&pool, &order, 4, None); //           best-effort, last in
    submit_recorded(&pool, &order, 5, Some(3_000)); //    middle deadline
    release.send(()).expect("worker parked");
    pool.shutdown();
    assert_eq!(
        *order.lock().expect("order lock"),
        vec![2, 5, 1, 3, 0, 4],
        "EDF first, FIFO ties, best-effort last"
    );
}

#[test]
fn all_best_effort_degrades_to_fifo() {
    let pool = WorkerPool::with_config(PoolConfig::fifo(1, 64));
    let release = block_workers(&pool, 1);
    let order = Arc::new(Mutex::new(Vec::new()));
    for id in 0..20 {
        submit_recorded(&pool, &order, id, None);
    }
    release.send(()).expect("worker parked");
    pool.shutdown();
    assert_eq!(
        *order.lock().expect("order lock"),
        (0..20).collect::<Vec<_>>(),
        "with no deadlines the EDF heap must behave exactly like the old FIFO"
    );
}

#[test]
fn a_blocked_slot_strands_no_queued_job() {
    let pool = WorkerPool::with_config(PoolConfig::fifo(2, 64));
    // The blocker holds one of the two slots.
    let (started_tx, started_rx) = mpsc::channel();
    let (tx, rx) = mpsc::channel::<()>();
    pool.try_submit_at(
        Box::new(move || {
            started_tx.send(()).expect("receiver alive");
            rx.recv().ok();
        }),
        JobMeta::default(),
    )
    .expect("blocker admitted");
    started_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("blocker started");
    let (done_tx, done_rx) = mpsc::channel();
    for i in 0..4 {
        let done_tx = done_tx.clone();
        pool.try_submit_at(
            Box::new(move || done_tx.send(i).expect("receiver alive")),
            JobMeta::default(),
        )
        .expect("admitted");
    }
    // One slot is held; the other must run all four.
    for _ in 0..4 {
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("queued jobs complete while a slot is blocked");
    }
    tx.send(()).expect("worker parked");
    pool.shutdown();
}

#[test]
fn starvation_aging_promotes_a_waiting_lower_lane() {
    let pool = WorkerPool::with_config(PoolConfig {
        lanes: 2,
        lane_aging: Duration::from_millis(10),
        ..PoolConfig::fifo(1, 64)
    });
    let release = block_workers(&pool, 1);
    let order = Arc::new(Mutex::new(Vec::new()));
    // A lane-1 job queued first, then left to wait past the aging
    // threshold while lane 0 fills up behind it.
    {
        let order = Arc::clone(&order);
        pool.try_submit_at(
            Box::new(move || order.lock().expect("order lock").push(99)),
            JobMeta {
                lane: 1,
                ..JobMeta::default()
            },
        )
        .expect("admitted");
    }
    std::thread::sleep(Duration::from_millis(30)); // > lane_aging
    for id in 0..4 {
        submit_recorded(&pool, &order, id, None); // lane 0
    }
    release.send(()).expect("worker parked");
    pool.shutdown();
    let order = order.lock().expect("order lock");
    assert_eq!(
        order[0], 99,
        "the aged lane-1 entry must be served before fresh lane-0 work (got {order:?})"
    );
}

#[test]
fn strict_priority_without_aging_always_serves_the_high_lane_first() {
    let pool = WorkerPool::with_config(PoolConfig {
        lanes: 2,
        lane_aging: Duration::ZERO, // aging off: pure strict priority
        ..PoolConfig::fifo(1, 64)
    });
    let release = block_workers(&pool, 1);
    let order = Arc::new(Mutex::new(Vec::new()));
    {
        let order = Arc::clone(&order);
        pool.try_submit_at(
            Box::new(move || order.lock().expect("order lock").push(99)),
            JobMeta {
                lane: 1,
                ..JobMeta::default()
            },
        )
        .expect("admitted");
    }
    std::thread::sleep(Duration::from_millis(30)); // would age if aging were on
    for id in 0..4 {
        submit_recorded(&pool, &order, id, None); // lane 0
    }
    release.send(()).expect("worker parked");
    pool.shutdown();
    assert_eq!(
        *order.lock().expect("order lock"),
        vec![0, 1, 2, 3, 99],
        "with aging disabled the lower lane waits out the whole high lane"
    );
}

#[test]
fn admission_sheds_deterministically_from_pinned_stats() {
    // Pin the service-time table: enough samples at ~4ms each that the
    // p99 bucket is known exactly (power-of-two upper bound → 4096us).
    let catalog = Arc::new(CatalogStats::new());
    for _ in 0..ADMISSION_MIN_SAMPLES * 4 {
        catalog.record_service(0, 4_000);
    }
    let admission = Admission::new(true, Arc::clone(&catalog));
    // Empty queue, plenty of workers: a 10ms deadline is feasible, a
    // 2ms deadline provably is not (p99 alone exceeds it).
    assert!(admission.admit(0, 10, 0, 4));
    assert!(!admission.admit(0, 2, 0, 4));
    // A feasible per-job deadline becomes infeasible once the queue
    // wait in front of it is long enough: 64 queued jobs at ~4ms mean
    // service over 4 workers ≈ 64ms of wait.
    assert!(!admission.admit(0, 10, 64, 4));
    // Best-effort and disabled admission always pass.
    assert!(admission.admit(0, 0, 64, 4));
    let off = Admission::new(false, catalog);
    assert!(off.admit(0, 2, 64, 4));
}

#[test]
fn deep_queue_drain_notifies_every_admitted_job_exactly_once() {
    // Satellite regression: replies == requests through a shutdown with
    // a deep backlog. Every admitted notify-job must fire its notifier
    // exactly once whether it ran before the close or drained after.
    let pool = WorkerPool::with_config(PoolConfig {
        lanes: 2,
        ..PoolConfig::fifo(2, 256)
    });
    let notified = Arc::new(AtomicUsize::new(0));
    let mut admitted = 0usize;
    for i in 0..200u64 {
        let notified = Arc::clone(&notified);
        let meta = JobMeta {
            deadline: (i % 3 == 0).then(|| Instant::now() + Duration::from_millis(50)),
            lane: (i % 2) as usize,
        };
        let submitted = pool.try_submit_notify_at(
            Box::new(|| std::thread::sleep(Duration::from_micros(100))),
            Box::new(move || {
                notified.fetch_add(1, Ordering::SeqCst);
            }),
            meta,
        );
        if submitted.is_ok() {
            admitted += 1;
        }
    }
    pool.shutdown(); // deep queue at close: the drain must answer all of it
    assert_eq!(
        notified.load(Ordering::SeqCst),
        admitted,
        "every admitted job notifies exactly once through the drain"
    );
}
