//! Race-scheduler integration: hedged launch plans and admission
//! observed end-to-end, through a live daemon on the loopback.
//!
//! The contract under test is the tentpole invariant: the scheduler is
//! a *strategy*, not a semantics change. Hedging may only change what a
//! race costs (fewer alternative bodies run), never what it answers —
//! every reply must carry a value some alternative legitimately
//! produced.

use altx::engine::{LaunchPlan, ThreadedEngine};
use altx::{BlockResult, CancelToken};
use altx_pager::{AddressSpace, PageSize};
use altx_serve::frame::Response;
use altx_serve::sched::ADMISSION_MIN_SAMPLES;
use altx_serve::telemetry::Metric;
use altx_serve::workload;
use altx_serve::{start, Client, HedgeConfig, HedgePolicy, ServerConfig, ServerHandle};
use std::collections::BTreeSet;
use std::time::Duration;

fn ws() -> AddressSpace {
    AddressSpace::zeroed(4096, PageSize::K4)
}

fn local_server(config: ServerConfig) -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        queue_depth: 64,
        ..config
    })
    .expect("bind ephemeral port")
}

/// Recomputes the lognormal workload's three seeded draws for `arg`,
/// exactly as `workload::build` does — the oracle for "the reply's
/// value belongs to a real alternative".
fn lognormal_draws(arg: u64) -> BTreeSet<u64> {
    use altx_bench::TimeDistribution;
    use altx_des::SimRng;
    let mut rng = SimRng::seed_from_u64(arg.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA17B);
    let dist = TimeDistribution::LogNormal {
        median_ms: 3.0,
        sigma: 1.0,
    };
    (0..3)
        .map(|_| dist.sample(&mut rng).as_millis_f64().ceil() as u64)
        .collect()
}

/// The all-zeros plan must be byte-for-byte the old launch-all path:
/// same winner, same value, same success/failure shape as
/// `execute_with_token` on the same seeded block.
///
/// Which draw wins a race is timing, so the comparison is made where
/// timing leaves no choice. The blocks raced are the first four whose
/// shortest draw leads the runner-up by `CLEAR_LEAD_MS`, and a race
/// counts only if it was over before the runner-up's sleep could have
/// elapsed: a sleep never undershoots, so such a race launched the
/// shortest draw on time and nothing else can have won it. A longer one
/// sat through a stall of the box — every sleeper wakes at once and any
/// of them wins — says nothing about the plan, and is run again. A plan
/// that held the shortest draw back would never finish on time.
#[test]
fn all_zeros_plan_is_execute_with_token() {
    const CLEAR_LEAD_MS: u64 = 10;
    let clear_leads = (1u64..).filter_map(|arg| {
        let draws: Vec<u64> = lognormal_draws(arg).into_iter().collect();
        // A set of three: no two alternatives share a (rounded) draw.
        (draws.len() == 3 && draws[1] - draws[0] >= CLEAR_LEAD_MS)
            .then(|| (arg, draws[0], draws[1]))
    });
    for (arg, shortest, runner_up) in clear_leads.take(4) {
        let block = workload::build("lognormal", arg).expect("catalog workload");
        // Draws are rounded up, so the runner-up sleeps longer than this.
        let on_time = Duration::from_millis(runner_up - 1);
        let race_on_time = |race: &dyn Fn() -> BlockResult<u64>| {
            (0..20)
                .map(|_| race())
                .find(|result| result.wall < on_time)
                .unwrap_or_else(|| panic!("arg {arg}: no race in 20 was over in {on_time:?}"))
        };
        let planned = race_on_time(&|| {
            ThreadedEngine::new().execute_planned(
                &block,
                &mut ws(),
                &CancelToken::new(),
                &LaunchPlan::immediate(block.len()),
            )
        });
        let unplanned = race_on_time(&|| {
            ThreadedEngine::new().execute_with_token(&block, &mut ws(), &CancelToken::new())
        });
        assert_eq!(planned.succeeded(), unplanned.succeeded(), "arg {arg}");
        // The lognormal draws are seeded by `arg`, so both runs race the
        // same sleeps and the shortest draw wins both times.
        assert_eq!(planned.value, unplanned.value, "arg {arg}");
        assert_eq!(planned.winner, unplanned.winner, "arg {arg}");
        assert_eq!(planned.value, Some(shortest), "arg {arg}");
    }
}

/// Launch order through the public policy API: the favourite is the
/// only alternative at offset zero; everyone else waits.
#[test]
fn plan_puts_the_favourite_first() {
    let policy = HedgePolicy::new(HedgeConfig {
        enabled: true,
        min_samples: 4,
        ..HedgeConfig::default()
    });
    let widx = workload::index_of("lognormal").unwrap();
    for _ in 0..8 {
        policy.record_win(widx, 2, 2_500);
    }
    let _ = policy.plan(widx, 3); // tick 0 explores
    let plan = policy.plan(widx, 3);
    assert_eq!(plan.offset(2), Duration::ZERO);
    assert!(plan.offset(0) > Duration::ZERO);
    assert!(plan.offset(1) > Duration::ZERO);
    assert_eq!(plan.staggered(), 2);
}

/// The exploration floor cannot be configured away: even with
/// `explore_every: 0` (clamped to 2) warm history still races
/// launch-all on schedule, keeping the statistics falsifiable.
#[test]
fn exploration_floor_survives_extreme_config() {
    let policy = HedgePolicy::new(HedgeConfig {
        enabled: true,
        min_samples: 1,
        explore_every: 0,
    });
    let widx = workload::index_of("lognormal").unwrap();
    for _ in 0..8 {
        policy.record_win(widx, 0, 2_000);
    }
    let plans: Vec<bool> = (0..8)
        .map(|_| policy.plan(widx, 3).is_immediate())
        .collect();
    assert!(
        plans.iter().any(|imm| *imm),
        "exploration races must still occur: {plans:?}"
    );
    assert!(
        plans.iter().any(|imm| !*imm),
        "warm history must still hedge: {plans:?}"
    );
}

/// The headline property on a live daemon: with hedging on, the same
/// seeded lognormal request stream executes strictly fewer alternative
/// bodies than launch-all, most hedges are suppressed, a race counted
/// as won from a hedge offset launched that hedge, and every reply
/// still carries a value one of the three seeded draws actually
/// produced.
///
/// How many races a hedge wins is not asserted, because the hedge delay
/// is bistable: it is the favourite's p95 *bucket*, which over as few
/// as `min_samples` = 10 samples is their maximum, so one early stall
/// past 10 ms puts the delay at 25–50 ms, where the favourite runs
/// alone, its own p95 keeps the delay there, and 160 races launch two
/// hedges and win from none. Both branches keep the contract above.
#[test]
fn hedging_suppresses_launches_on_lognormal() {
    const REQUESTS: u64 = 160;

    let run_stream = |server: &ServerHandle| -> (u64, u64) {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for n in 0..REQUESTS {
            // Seeded arg stream: both servers race identical blocks.
            let arg = n.wrapping_mul(0x9E37_79B9).wrapping_add(17);
            match client.run("lognormal", arg, 0).expect("reply") {
                Response::Ok { value, .. } => {
                    assert!(
                        lognormal_draws(arg).contains(&value),
                        "req {n}: value {value} is not one of the seeded draws"
                    );
                }
                other => panic!("req {n}: unexpected {other:?}"),
            }
        }
        let snap = server.telemetry().snapshot();
        (snap[Metric::LaunchesSuppressed], snap[Metric::HedgeWins])
    };

    let launch_all = local_server(ServerConfig::default());
    let (suppressed_all, hedge_wins_all) = run_stream(&launch_all);
    launch_all.shutdown();
    assert_eq!(
        hedge_wins_all, 0,
        "launch-all has no hedge offsets to win from"
    );

    let hedged = local_server(ServerConfig {
        hedge: HedgeConfig {
            enabled: true,
            min_samples: 10,
            ..HedgeConfig::default()
        },
        ..ServerConfig::default()
    });
    let (suppressed_hedged, hedge_wins) = run_stream(&hedged);
    let snap = hedged.telemetry().snapshot();
    hedged.shutdown();

    assert!(
        suppressed_hedged > suppressed_all,
        "hedging must execute strictly fewer bodies than launch-all \
         (suppressed {suppressed_hedged} vs {suppressed_all})"
    );
    assert!(
        snap[Metric::HedgesLaunched] < snap[Metric::Accepted] * 2,
        "most hedges must be suppressed, not launched \
         ({} launched over {} races)",
        snap[Metric::HedgesLaunched],
        snap[Metric::Accepted]
    );
    assert!(
        hedge_wins <= snap[Metric::HedgesLaunched],
        "a race won from a hedge offset launched that hedge \
         ({hedge_wins} wins over {} launched)",
        snap[Metric::HedgesLaunched]
    );
}

/// Admission through the daemon: a provably infeasible request is shed
/// at the door, not timed out in the queue. `sleep` parks for `arg` ms,
/// far past a 25 ms deadline, so every admitted request times out and
/// feeds the service-time table a sample above the deadline. One
/// connection, one request at a time: the table is cold for exactly
/// `ADMISSION_MIN_SAMPLES` requests — each admitted, each a timeout —
/// and from the next request on the estimate alone exceeds the deadline
/// (the queue is empty, so nothing else enters the verdict), nothing is
/// admitted, and so no new sample can ever change that.
#[test]
fn admission_sheds_infeasible_requests_at_the_door() {
    const SHED: u64 = 24;
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        admission: true,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut run = || client.run("sleep", 10_000, 25).expect("exactly one reply");

    for n in 0..ADMISSION_MIN_SAMPLES {
        match run() {
            Response::DeadlineExceeded { .. } => {}
            other => panic!("cold request {n}: unexpected {other:?}"),
        }
    }
    let warm = server.telemetry().snapshot();
    assert_eq!(warm[Metric::DeadlineExceeded], ADMISSION_MIN_SAMPLES);
    assert_eq!(warm[Metric::ShedsAtAdmission], 0);

    for n in 0..SHED {
        match run() {
            Response::Overloaded => {}
            other => panic!("request {n} past the warm-up: unexpected {other:?}"),
        }
    }
    let snap = server.telemetry().snapshot();
    server.shutdown();
    assert_eq!(snap[Metric::ShedsAtAdmission], SHED);
    assert_eq!(
        snap[Metric::DeadlineExceeded],
        ADMISSION_MIN_SAMPLES,
        "a shed request must not also time out in the queue"
    );
    assert_eq!(snap[Metric::Accepted], ADMISSION_MIN_SAMPLES);
}

/// The CATALOG control frame lists every workload and, once the
/// scheduler has history, marks the favourite.
#[test]
fn catalog_frame_reports_workloads_and_favourite() {
    let server = local_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Warm up the trivial workload so some alternative accumulates wins.
    for n in 0..12u64 {
        match client.run("trivial", n, 0).expect("reply") {
            Response::Ok { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    let page = client.catalog_page().expect("catalog page");
    for spec in workload::CATALOG {
        assert!(page.contains(spec.name), "{page}");
    }
    assert!(page.contains("instant-a"), "{page}");
    assert!(page.contains("<- favourite"), "{page}");
    server.shutdown();
}
