//! Golden pages: a fixed event sequence must render the STATS page
//! byte-for-byte, and the Prometheus page line-for-line, as the
//! hand-written renderers did before the metric table replaced them.
//! `tests/golden/*.txt` were generated by driving the same sequence
//! through the last commit that had per-counter `on_*` methods.
//!
//! Own process on purpose: nothing here races, waits on a clock or
//! installs a fault plan, so the process-wide timed-wait and fault rows
//! read zero, as they did when the golden text was captured (the two
//! timed-wait rows and the ring's `ring slots made` gauge were added to
//! it by hand later, and the `pinned shards`, `batches formed` and
//! `requests coalesced` rows taken out by hand with the features they
//! counted). The crew rows read zero on the bare pages, which are
//! rendered before anything else in the process runs, and one racer on
//! the attached ones: the pool's one running job is on it.

use altx_serve::bufpool::BufPool;
use altx_serve::frame::Response;
use altx_serve::peer::PeerStatsTable;
use altx_serve::pool::{JobMeta, PoolConfig, WorkerPool};
use altx_serve::ring::{EncodedReply, ReplyRing};
use altx_serve::sched::CatalogStats;
use altx_serve::telemetry::{scrape, Metric, ShardStats};
use altx_serve::{workload, Telemetry};
use std::collections::BTreeSet;
use std::sync::{mpsc, Arc, OnceLock};

/// One latency per completed race; their count is `completed`.
const LATENCIES_US: [u64; 7] = [40, 90, 120, 300, 900, 4_000, 2_000_000];

/// Every counter the daemon owns, each left at a distinct non-zero value.
const OWN: [(Metric, u64); 20] = [
    (Metric::Accepted, 40),
    (Metric::RacesOnShard, 25),
    (Metric::Shed, 3),
    (Metric::ShedsAtAdmission, 4),
    (Metric::DeadlineExceeded, 5),
    (Metric::DeadlineMisses, 6),
    (Metric::Errors, 8),
    (Metric::AltPanics, 9),
    (Metric::HedgesLaunched, 12),
    (Metric::HedgeWins, 13),
    (Metric::LaunchesSuppressed, 14),
    (Metric::RacesFavouriteFirst, 20),
    (Metric::RemoteDispatched, 15),
    (Metric::RemoteResults, 16),
    (Metric::RemoteWins, 17),
    (Metric::RemoteFailed, 18),
    (Metric::RemoteExecs, 21),
    (Metric::CommitVotes, 22),
    (Metric::CommitsDegraded, 23),
    (Metric::Eliminations, 24),
];

fn drive_own(t: &Telemetry) {
    for us in LATENCIES_US {
        t.on_completed(us);
    }
    for (metric, n) in OWN {
        // In two steps, so accumulation is exercised and not just a store.
        t.add(metric, n - 1);
        t.add(metric, 1);
    }
}

/// One shard's counters, driven through the real buffer pool and reply
/// ring so `pool misses` / `ring hits` and friends are what those
/// structures counted, not numbers poked in from outside.
fn shard(
    (opens, closes, active): (u64, u64, u64),
    (wakeups, spurious): (u64, u64),
    (misses, recycled): (usize, usize),
    (hits, spills): (usize, usize),
) -> Arc<ShardStats> {
    let mut bufs = BufPool::new(8);
    let held: Vec<Vec<u8>> = (0..misses).map(|_| bufs.get()).collect();
    for mut buf in held {
        buf.reserve(16);
        bufs.put(buf);
    }
    for _ in 0..recycled {
        let buf = bufs.get();
        bufs.put(buf);
    }
    // `hits` slots, `hits + spills` replies held at once: the surplus
    // finds the ring exhausted.
    let ring = ReplyRing::new(hits, 256);
    let held: Vec<EncodedReply> = (0..hits + spills)
        .map(|_| EncodedReply::encode(&Response::Overloaded, &ring))
        .collect();
    drop(held);

    let stats = Arc::new(ShardStats::new(bufs.stats(), ring.stats()));
    (0..opens).for_each(|_| stats.on_conn_open());
    (0..closes).for_each(|_| stats.on_conn_close());
    stats.set_conns_active(active);
    (0..wakeups).for_each(|_| stats.on_wakeup());
    (0..spurious).for_each(|_| stats.on_pollout_spurious());
    stats
}

fn assert_same_lines(got: &str, want: &str) {
    let (got, want): (BTreeSet<&str>, BTreeSet<&str>) =
        (got.lines().collect(), want.lines().collect());
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "Prometheus page drifted\n  missing: {missing:#?}\n  extra: {extra:#?}"
    );
}

/// The bare pages (STATS, Prometheus), rendered once per process by
/// whichever test asks first — before the attached test's pool puts a
/// job on a racer, so the process-wide crew rows read zero.
fn bare_pages() -> &'static (String, String) {
    static PAGES: OnceLock<(String, String)> = OnceLock::new();
    PAGES.get_or_init(|| {
        let t = Telemetry::new();
        drive_own(&t);
        (t.render_stats(), t.render_prometheus())
    })
}

#[test]
fn bare_telemetry_renders_the_golden_pages() {
    let (stats, prometheus) = bare_pages();
    assert_eq!(stats, include_str!("golden/stats_bare.txt"));
    assert_same_lines(prometheus, include_str!("golden/prometheus_bare.txt"));
}

#[test]
fn attached_telemetry_renders_the_golden_pages() {
    bare_pages();
    let t = Telemetry::new();
    let pool = WorkerPool::with_config(PoolConfig {
        lanes: 2,
        ..PoolConfig::fifo(1, 16)
    });
    t.attach_pool(pool.stats());
    t.attach_lane_names(vec!["rt".to_owned(), "batch".to_owned()]);
    t.attach_shards(vec![
        shard((3, 0, 2), (31, 1), (2, 5), (6, 1)),
        shard((3, 1, 1), (11, 0), (1, 2), (3, 2)),
    ]);
    t.attach_peers(Arc::new(PeerStatsTable::new(&["127.0.0.1:9".to_owned()])));
    let catalog = Arc::new(CatalogStats::new());
    t.attach_catalog(Arc::clone(&catalog));
    let trivial = workload::index_of("trivial").expect("in the catalog");
    let wins = catalog.table(trivial).expect("interned");
    (0..3).for_each(|_| wins.record_win(0, 120));
    wins.record_win(1, 80);
    drive_own(&t);

    // Hold the lone slot, then queue one job in lane 0 and two in lane
    // 1: the lane-depth gauges read 1 and 2 while it is held.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    pool.try_submit_at(
        move || {
            started_tx.send(()).ok();
            release_rx.recv().ok();
        },
        JobMeta::default(),
    )
    .expect("occupies the slot");
    started_rx.recv().expect("a racer picked the blocker up");
    for lane in [0usize, 1, 1] {
        let meta = JobMeta {
            lane,
            ..JobMeta::default()
        };
        pool.try_submit_at(Box::new(|| {}), meta).expect("admitted");
    }
    let stats = t.render_stats();
    let prometheus = t.render_prometheus();
    release_tx.send(()).expect("blocker waiting");
    pool.shutdown();

    assert_eq!(stats, include_str!("golden/stats_attached.txt"));
    assert_same_lines(&prometheus, include_str!("golden/prometheus_attached.txt"));

    // The eight labels `benchmark/src/scrape.rs` reads, by the values
    // driven in above (shard sums for the front-end ones), and the
    // ring's slot gauge: each shard's ring held `hits` replies at once,
    // so it made that many slots and no more.
    for (metric, label, driven) in [
        (Metric::RingHits, "ring hits", 6 + 3),
        (Metric::RingSpills, "ring spills", 1 + 2),
        (Metric::RingSlotsMade, "ring slots made", 6 + 3),
        (Metric::PoolMisses, "pool misses", 2 + 1),
        (Metric::PoolRecycled, "pool recycled", 5 + 2),
        (Metric::Shed, "shed (overloaded)", 3),
        (Metric::ShedsAtAdmission, "sheds at admission", 4),
        (Metric::LaunchesSuppressed, "launches suppressed", 14),
        (Metric::Wakeups, "reactor wakeups", 31 + 11),
    ] {
        assert_eq!(metric.def().label, label);
        assert_eq!(scrape(&stats, metric), Some(driven), "{label} in\n{stats}");
    }

    // The two rows read from `altx::wake_stats()`: on the page under
    // these labels, and zero in a process that has waited on no clock.
    for (metric, label) in [
        (Metric::TimedWaitLeadUs, "timed-wait lead us"),
        (
            Metric::TimedWaitsFinishedAwake,
            "timed waits finished awake",
        ),
    ] {
        assert_eq!(metric.def().label, label);
        assert_eq!(scrape(&stats, metric), Some(0), "{label} in\n{stats}");
    }
}
