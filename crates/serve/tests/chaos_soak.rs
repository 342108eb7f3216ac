//! Chaos soak: a real daemon on the loopback, hammered by resilient
//! clients while a seeded fault plan injects panics, delays, spurious
//! cancellations, and forced failures at every instrumented site.
//!
//! The contract under test is the serving stack's whole failure story
//! at once:
//!
//! * **liveness** — every request gets *some* reply; no connection
//!   hangs, no request is silently dropped;
//! * **containment** — injected panics become per-alternative failures
//!   or error replies, never a dead daemon;
//! * **self-healing** — workers killed at the `pool.worker` site come
//!   back as themselves (same thread name, so same group tag), so
//!   capacity is restored and the daemon still serves cleanly after the
//!   plan is cleared;
//! * **resilience accounting** — the injected faults, respawns, and
//!   client retries all show up in telemetry, proving the machinery
//!   actually fired rather than the soak passing vacuously.
//!
//! This test lives in its own binary because the fault plan is
//! process-global: sharing a process with other tests would inject
//! faults into them too. The seed comes from `ALTX_CHAOS_SEED` (decimal
//! or 0x-hex) so CI can pin it and failures replay exactly.
//!
//! The soak also runs with a small **coalescing window**: the 8 clients
//! walk the same request sequence, so identical `(workload, arg,
//! deadline)` requests land inside one window and share a race. That
//! puts the batching fan-out path under chaos too — a coalesced waiter
//! must get exactly one reply even when its shared race panics, sheds,
//! or loses its worker. The `answered == CLIENTS × REQUESTS` liveness
//! assertion is the exactly-once check: a dropped reply hangs a client
//! (socket timeout → panic) and a duplicate desynchronizes its framing.

use altx::faults::{self, FaultPlan};
use altx_serve::client::{ClientConfig, RetryPolicy};
use altx_serve::frame::Response;
use altx_serve::telemetry::Metric;
use altx_serve::{start, Client, ServerConfig};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// The fault plan is process-global, so the tests in this binary must
/// not overlap: a plan installed by one would inject into the other.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const DEFAULT_SEED: u64 = 0x00C0_FFEE;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 40;
const WORKERS: usize = 4;

/// The names of this process's pool worker threads, as the kernel has
/// them (`comm` keeps 15 bytes: `altxd-worker-g` and the group's first
/// digit). `None` where there is no `/proc`.
fn worker_thread_names() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let names = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned());
    Some(names.filter(|n| n.starts_with("altxd-worker")).collect())
}

fn seed_from_env() -> u64 {
    match std::env::var("ALTX_CHAOS_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = s
                .strip_prefix("0x")
                .map_or_else(|| s.parse(), |hex| u64::from_str_radix(hex, 16));
            parsed.unwrap_or_else(|_| panic!("ALTX_CHAOS_SEED must be a u64, got {s:?}"))
        }
        Err(_) => DEFAULT_SEED,
    }
}

fn resilient_config(seed: u64) -> ClientConfig {
    ClientConfig {
        // Generous socket timeouts: the soak asserts liveness, and a
        // legitimate reply delayed by injected sleeps must not be
        // misread as a hang.
        read_timeout: Some(Duration::from_secs(30)),
        write_timeout: Some(Duration::from_secs(30)),
        retry: Some(RetryPolicy {
            max_attempts: 6,
            budget: u32::MAX, // the soak is request-bounded, not budget-bounded
            jitter_seed: seed,
            ..RetryPolicy::default()
        }),
        ..ClientConfig::default()
    }
}

#[test]
fn chaos_soak_every_request_is_answered() {
    let _guard = serial();
    let seed = seed_from_env();
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        queue_depth: 32,
        // Wide enough that the clients' identical request streams
        // actually coalesce; the soak asserts they did.
        batch_window: Duration::from_millis(2),
        // Chaos with per-shard reactors in play (reuseport listeners):
        // faults, drains, and reply delivery must hold across shard
        // boundaries.
        shards: 4,
        // Explicit ring sizing: the soak must exercise the zero-copy
        // reply path, and the assertion below proves replies actually
        // went through ring slots while the chaos plan was live.
        ring_slots: 64,
        ring_slot_bytes: 1024,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let telemetry = server.telemetry();

    let plan = FaultPlan::chaos(seed);
    let answered = {
        let _guard = faults::install_guarded(plan.clone());
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let config = resilient_config(seed ^ (i as u64).wrapping_mul(0x9E37));
                std::thread::spawn(move || {
                    let mut client =
                        Client::connect_with(addr, config).expect("connect during chaos");
                    let mut answered = 0usize;
                    for n in 0..REQUESTS_PER_CLIENT {
                        let workload = ["trivial", "lognormal", "bimodal"][n % 3];
                        // Every reply kind counts as "answered" — the
                        // liveness contract is no hangs and no transport
                        // failures, not no errors. Errors ARE the
                        // contained form of the injected faults.
                        match client.run(workload, n as u64, 500) {
                            Ok(_) => answered += 1,
                            Err(e) => panic!("client {i} request {n} died: {e} (seed {seed:#x})"),
                        }
                    }
                    (answered, client.stats().retries())
                })
            })
            .collect();
        let mut answered = 0usize;
        let mut retries = 0u64;
        for h in handles {
            let (a, r) = h.join().expect("client thread survives chaos");
            answered += a;
            retries += r;
        }
        // The chaos config injects at ~30% per site visit, and sites are
        // visited per *race*: coalescing collapses up to CLIENTS
        // identical requests into one race, so the floor scales with
        // unique keys (one per request index), not raw request count. A
        // soak that injected nothing proves nothing.
        let min_races = REQUESTS_PER_CLIENT;
        assert!(
            plan.injected_total() as usize >= min_races / 5,
            "only {} faults across >= {} races (seed {seed:#x})",
            plan.injected_total(),
            min_races
        );
        let _ = retries; // tallied below from telemetry-independent stats

        // Fault accounting reached telemetry. Snapshot while the plan
        // is still installed: `faults_injected` mirrors the live plan
        // and documents itself as zero once no plan is present.
        let snap = telemetry.snapshot();
        assert!(
            snap[Metric::FaultsInjected] > 0,
            "telemetry missed the injected faults (seed {seed:#x})"
        );
        answered
    };
    assert_eq!(
        answered,
        CLIENTS * REQUESTS_PER_CLIENT,
        "every request must be answered (seed {seed:#x})"
    );
    assert!(
        telemetry.snapshot()[Metric::WorkerRespawns] > 0,
        "no worker was killed+respawned — the pool.worker site never fired \
         (seed {seed:#x})"
    );
    // A killed worker comes back as itself: the pool is at strength, and
    // every worker still carries the group tag — stealing is off, so one
    // group — that `--pin`'s log line and the steal tests key on.
    if let Some(names) = worker_thread_names() {
        assert_eq!(
            names,
            vec!["altxd-worker-g0"; WORKERS],
            "the pool's threads after {} respawns (seed {seed:#x})",
            telemetry.snapshot()[Metric::WorkerRespawns]
        );
    }
    assert!(
        telemetry.snapshot()[Metric::RequestsCoalesced] > 0,
        "8 clients replaying the same request sequence inside a 2 ms window \
         never coalesced — the batching path went untested (seed {seed:#x})"
    );
    assert!(
        telemetry.snapshot()[Metric::RingHits] > 0,
        "no reply was encoded into a ring slot — the zero-copy data plane \
         went untested under chaos (seed {seed:#x})"
    );

    // Self-healing: with the plan cleared (guard dropped above), the
    // respawned pool must serve a clean burst with zero errors.
    let mut client = Client::connect(addr).expect("connect after chaos");
    for n in 0..20u64 {
        match client.run("trivial", n, 0).expect("post-chaos reply") {
            Response::Ok { .. } => {}
            other => panic!("post-chaos request failed: {other:?} (seed {seed:#x})"),
        }
    }
    let stats = client.stats_page().expect("stats");
    assert!(
        stats.contains("worker respawns"),
        "stats page must surface respawns:\n{stats}"
    );
    server.shutdown();
}

/// Retries must actually fire under chaos: with a tiny queue the shed
/// path (`Overloaded`) is hit, and the retrying client absorbs it.
#[test]
fn retries_absorb_overload_shed() {
    let _guard = serial(); // no faults here — just a saturated daemon
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect_with(
                    addr,
                    ClientConfig {
                        retry: Some(RetryPolicy {
                            max_attempts: 8,
                            jitter_seed: 7 + i,
                            ..RetryPolicy::default()
                        }),
                        ..ClientConfig::default()
                    },
                )
                .expect("connect");
                let mut sheds_seen = 0u64;
                for n in 0..30u64 {
                    // sleep(2ms) holds the single worker long enough for
                    // siblings to pile onto the depth-1 queue.
                    match client.run("sleep", 2, 0).expect("reply") {
                        Response::Ok { .. } => {}
                        Response::Overloaded => sheds_seen += 1,
                        other => panic!("request {n}: unexpected {other:?}"),
                    }
                }
                (client.stats().retries(), sheds_seen)
            })
        })
        .collect();
    let mut retries = 0u64;
    for h in handles {
        let (r, _sheds) = h.join().expect("client thread exits");
        retries += r;
    }
    assert!(
        retries > 0,
        "4 clients on a 1-worker/depth-1 daemon never got shed — overload \
         retry path untested"
    );
    server.shutdown();
}
