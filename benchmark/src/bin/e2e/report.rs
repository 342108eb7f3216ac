//! One workload's run from set-up to numbers: bring the daemon up,
//! measure the windows, verify, summarise, and render the report as
//! text and as JSON.

use crate::daemon::{clock_ticks_per_second, Daemon};
use crate::load::{
    classify, closed_window, open_window, recheck_sample, Outcome, RawConn, Rec, Stop, Window,
    MAX_GENERATOR_GAP, MAX_LAG_P99_US, OUTCOMES,
};
use crate::Res;
use altx_benchmark::gen;
use altx_benchmark::json::Json;
use altx_benchmark::scrape::stat_field;
use altx_benchmark::stats::{lower_quartile, median, percentile, Windowed};
use altx_benchmark::sys::{self, CpuSet};
use altx_benchmark::workloads::{Mode, Workload, RT_SLO_US, WARMUP_REPLIES, WINDOWS};
use altx_serve::Client;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// More flagged windows than this fail a full run. A single-workload
/// run (the form the benchmark driver uses) only reports the count, as
/// `gen.flagged_windows`: the driver wants exit code 0 whenever the
/// program's outputs are correct, and a stall of this shared box is not
/// the program's doing. Window medians shrug off two bad windows.
const MAX_FLAGGED_WINDOWS: usize = 2;

/// Extra windows, on one more daemon free to use every CPU, behind the
/// `unpinned.*` per-layer metrics; see [`measure`].
const UNPINNED_WINDOWS: usize = 2;

/// Daemons brought up to their first reply and shut down again ahead of
/// each measured daemon, so that `setup_s` rests on `1 + SETUP_PROBES`
/// set-ups per measured daemon.
const SETUP_PROBES: usize = 7;

/// The nice value generator and daemons run at while confined to one
/// CPU (they inherit it, as they do the affinity). The confinement puts
/// the measurement at the mercy of anything else that is scheduled on
/// that CPU: one busy process of the same weight there took half of it,
/// which more than doubled set-up time and added a millisecond to the
/// 99th percentile of `overhead` while the median stood still. At -20
/// that process gets about a hundredth instead, and nothing moved.
/// Every thread of the measurement shares the value, so how the kernel
/// schedules them against each other is unchanged. Needs `CAP_SYS_NICE`;
/// without it the run goes on at the nice value it has and says so.
const FAVOURED_NICE: i32 = -20;

/// The argument of the request that ends a set-up.
const SETUP_ARG: u64 = 0;

/// One named number of a report.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The per-window values `value` is the median of; `None` for a
    /// number taken once per run.
    windows: Option<Windowed>,
}

impl Metric {
    fn once(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            windows: None,
        }
    }

    fn windowed(name: &'static str, unit: &'static str, windows: Vec<f64>) -> Metric {
        let windows = Windowed::of(windows);
        Metric {
            name,
            unit,
            value: windows.median,
            windows: Some(windows),
        }
    }

    /// `{"value": .., "unit": ..}`, the form the result line wants.
    pub fn to_json(&self) -> Json {
        metric_json(self.value, self.unit)
    }

    /// The same with the windows' extremes and values beside it.
    fn to_json_with_windows(&self) -> Json {
        let Json::Obj(mut m) = self.to_json() else {
            unreachable!("metric_json builds an object");
        };
        if let Some(w) = &self.windows {
            m.push(("min".to_owned(), Json::Num(w.min)));
            m.push(("max".to_owned(), Json::Num(w.max)));
            let values = w.windows.iter().map(|x| Json::Num(*x)).collect();
            m.push(("windows".to_owned(), Json::Arr(values)));
        }
        Json::Obj(m)
    }

    fn print(&self, width: usize, detail: &str) {
        let Metric {
            name, unit, value, ..
        } = self;
        match &self.windows {
            None => println!("     {name:<width$} {value:>14.4} {unit}{detail}"),
            Some(w) => println!(
                "     {name:<width$} {value:>14.4} {unit}  [{:.4} .. {:.4}]{detail}",
                w.min, w.max
            ),
        }
    }
}

/// Everything one workload's run produced.
pub struct Report {
    pub wl: &'static Workload,
    pub seconds: f64,
    setups_s: Vec<f64>,
    daemon_argv: Vec<String>,
    /// The one CPU generator and daemon were confined to, and the nice
    /// value they ran at there.
    cpu: usize,
    nice: i32,
    pub attempted: u64,
    counts: Vec<(&'static str, u64)>,
    window_counts: Vec<Vec<(&'static str, u64)>>,
    rechecked: u64,
    stray: u64,
    flagged: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Latency-population sample count (`Ok` replies of class 0).
    ok_samples: u64,
}

impl Report {
    pub fn failed(&self) -> u64 {
        self.attempted - self.count("good")
    }

    fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |c| c.1)
    }

    /// Every reply verified and exactly one reply per request.
    pub fn correct(&self) -> bool {
        self.count("wrong") == 0 && self.stray == 0
    }

    /// Too many windows in which the generator misbehaved for
    /// the window medians to stand.
    pub fn invalid(&self) -> bool {
        self.flagged.len() > MAX_FLAGGED_WINDOWS
    }

    pub fn complain(&self) {
        if !self.correct() {
            eprintln!(
                "e2e: workload {} is not correct: {} wrong values, {} stray replies",
                self.wl.name,
                self.count("wrong"),
                self.stray
            );
        }
        if self.invalid() {
            eprintln!(
                "e2e: workload {}: {} of {WINDOWS} windows are flagged",
                self.wl.name,
                self.flagged.len()
            );
        }
    }

    pub fn per_layer(&self, name: &str) -> f64 {
        self.per_layer
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

fn count_outcomes<'a>(recs: impl Iterator<Item = &'a Rec> + Clone) -> Vec<(&'static str, u64)> {
    OUTCOMES
        .iter()
        .map(|(o, name)| {
            (
                *name,
                recs.clone().filter(|r| r.outcome == *o).count() as u64,
            )
        })
        .collect()
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// A percentile of ascending nanosecond samples, in microseconds.
fn pct_us(sorted_ns: &[u64], q: f64) -> f64 {
    percentile(sorted_ns, q) as f64 / 1_000.0
}

/// The generator's connections to one daemon.
enum Conns {
    Closed(Vec<Client>),
    Open(Vec<RawConn>),
}

impl Conns {
    /// A STATS round trip on connection `i`.
    fn stats_page(&mut self, i: usize) -> Res<String> {
        match self {
            Conns::Closed(cs) => Ok(cs[i].stats_page()?),
            Conns::Open(cs) => cs[i].stats_page(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Conns::Closed(cs) => cs.len(),
            Conns::Open(cs) => cs.len(),
        }
    }
}

/// Spawns a daemon and times it from spawn to its first verified reply
/// (exec, bind, pool spin-up, whatever the first request of the
/// workload's catalog entry initialises lazily): one `setup_s` sample.
///
/// The request is the same whatever the seed: how long a sleeping or
/// searching alternative takes depends on its argument, and set-up time
/// is not meant to.
fn first_reply(altxd: &Path, wl: &Workload) -> Res<(Daemon, f64)> {
    let mut daemon = Daemon::spawn(altxd)?;
    let class = &wl.classes[0];
    let arg = SETUP_ARG;
    let mut client = daemon.connect(|addr| Client::connect(addr))?;
    let resp = client.run(class.catalog, arg, class.deadline_ms)?;
    let setup_s = daemon.spawned.elapsed().as_secs_f64();
    if classify(class, arg, &resp, 0).0 != Outcome::Good {
        return Err(format!("set-up: the first reply was {resp:?}").into());
    }
    Ok((daemon, setup_s))
}

/// A set-up sample and nothing else: a daemon brought up to its first
/// reply and shut down again.
fn setup_probe(altxd: &Path, wl: &Workload) -> Res<f64> {
    let (daemon, setup_s) = first_reply(altxd, wl)?;
    daemon.shutdown()?;
    Ok(setup_s)
}

/// Brings a daemon up and warms it with `WARMUP_REPLIES` requests;
/// returns it with the connections it was warmed through, the time from
/// spawn to the first reply and the time from spawn to the last warm-up
/// reply.
fn set_up(altxd: &Path, wl: &Workload, seed: u64) -> Res<(Daemon, Conns, f64, f64)> {
    let (mut daemon, setup_s) = first_reply(altxd, wl)?;
    let (conns, warm) = match wl.mode {
        Mode::Closed { clients } => {
            let mut cs = Vec::new();
            let mut args = Vec::new();
            for i in 0..clients {
                cs.push(daemon.connect(|addr| Client::connect(addr))?);
                args.push(gen::arg_stream(seed, gen::WARMUP_STREAM + i as u64));
            }
            let stop = Stop::Count(WARMUP_REPLIES / clients);
            let warm = closed_window(&daemon, &wl.classes[0], &mut cs, &mut args, stop)?;
            (Conns::Closed(cs), warm)
        }
        Mode::Open => {
            let mut cs = Vec::new();
            for _ in wl.classes {
                cs.push(RawConn::new(
                    daemon.connect(|addr| TcpStream::connect(addr))?,
                )?);
            }
            // Long enough to hold the warm-up count, then cut to it.
            let total_rate: f64 = wl.classes.iter().map(|c| c.rate).sum();
            let span_ns = (2.0 * WARMUP_REPLIES as f64 / total_rate * 1e9) as u64;
            let mut schedule = gen::poisson_schedule(seed, gen::WARMUP_STREAM, wl.classes, span_ns);
            schedule.truncate(WARMUP_REPLIES);
            let warm = open_window(&daemon, wl.classes, &mut cs, &schedule)?;
            (Conns::Open(cs), warm)
        }
    };
    // Warm-up replies are not measured, but a daemon that cannot answer
    // them is not worth measuring.
    let bad = warm.recs.iter().filter(|r| !r.is_ok()).count();
    if bad > 0 || warm.stray > 0 {
        return Err(format!(
            "warm-up: {bad} of {} requests failed, {} stray replies",
            warm.recs.len(),
            warm.stray
        )
        .into());
    }
    let warmed_s = daemon.spawned.elapsed().as_secs_f64();
    Ok((daemon, conns, setup_s, warmed_s))
}

/// What the daemons of one run left behind, before any arithmetic.
struct Raw {
    /// Spawn to first reply, of every daemon and every probe.
    setups_s: Vec<f64>,
    /// Spawn to last warm-up reply, of every measured daemon.
    warmed_s: Vec<f64>,
    rss_mb: Vec<f64>,
    /// The STATS page of each daemon before and after its windows.
    stats_pages: Vec<(String, String)>,
    windows: Vec<Window>,
    stray: u64,
    daemon_argv: Vec<String>,
}

/// Runs one workload on `daemons` fresh daemons in turn: each is timed
/// from spawn to its first reply (a `setup_s` sample, like each of the
/// `SETUP_PROBES` probes ahead of it), warmed, and then carries its
/// share of the `WINDOWS` measured windows. Several daemons
/// per run, rather than one, so that whatever is decided once per
/// process (how its heap is laid out, which ports it drew) is drawn
/// several times inside every run instead of once.
///
/// The generator and the daemons it spawns are confined to **one CPU**
/// for those windows. On the 2-vCPU VM this benchmark is sized for, a
/// wake-up that crosses vCPUs finds the other one halted and goes
/// through the host's scheduler; what that costs swings severalfold
/// with the host's state, and on a daemon that is mostly wake-ups it
/// swamped everything else. On one CPU every wake-up is a context
/// switch, which is the program's own cost (the runs behind this are in
/// `benchmark/README.md`, "One CPU"). What the kernel makes of every CPU
/// is still looked at when `unpinned` is set: `UNPINNED_WINDOWS` more
/// windows on one more daemon, unconfined, reported per layer as
/// `unpinned.*`.
pub fn measure(
    altxd: &Path,
    wl: &'static Workload,
    seed: u64,
    seconds: f64,
    daemons: usize,
    unpinned: bool,
    corrupt_verifier: bool,
) -> Res<Report> {
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let all_cpus = CpuSet::current()?;
    let (cpu, one_cpu) = all_cpus.first_only().ok_or("empty CPU affinity mask")?;
    one_cpu.apply()?;
    // And ahead of whatever else wants that CPU; see `FAVOURED_NICE`.
    let nice_before = sys::nice();
    if let Err(e) = sys::set_nice(FAVOURED_NICE) {
        eprintln!("e2e: staying at nice {nice_before}: {e}");
    }
    let nice = sys::nice();
    let pinned = collect(altxd, wl, seed, window, daemons, WINDOWS, SETUP_PROBES);
    let _ = sys::set_nice(nice_before);
    // Back to every CPU whatever happened, for what runs next.
    all_cpus.apply()?;
    let mut pinned = pinned?;
    let mut unpinned = match unpinned {
        true => Some(collect(altxd, wl, seed, window, 1, UNPINNED_WINDOWS, 0)?),
        false => None,
    };
    let mut rechecked = 0;
    let windows = pinned
        .windows
        .iter_mut()
        .chain(unpinned.iter_mut().flat_map(|raw| &mut raw.windows));
    for (w, window) in windows.enumerate() {
        // Only the first sampled reply of the run is ever spoiled.
        let corrupt = corrupt_verifier && rechecked == 0;
        rechecked += recheck_sample(wl, &mut window.recs, seed + w as u64, corrupt).0;
    }
    Ok(summarise(
        wl,
        seconds,
        window,
        (cpu, nice),
        pinned,
        unpinned,
        rechecked,
    ))
}

/// `windows` windows of `window` each, shared out over `daemons` fresh
/// daemons, each preceded by `probes` set-up probes, under whatever CPU
/// affinity the caller has set.
fn collect(
    altxd: &Path,
    wl: &Workload,
    seed: u64,
    window: Duration,
    daemons: usize,
    windows: usize,
    probes: usize,
) -> Res<Raw> {
    let window_ns = window.as_nanos() as u64;
    // Measured inputs: one argument stream per closed-loop client, one
    // arrival schedule cut into windows for the open loop.
    let clients = match wl.mode {
        Mode::Closed { clients } => clients,
        Mode::Open => 0,
    };
    let mut args: Vec<_> = (0..clients)
        .map(|i| gen::arg_stream(seed, i as u64))
        .collect();
    let schedule = match wl.mode {
        Mode::Open => gen::poisson_schedule(seed, 0, wl.classes, window_ns * windows as u64),
        Mode::Closed { .. } => Vec::new(),
    };

    let mut setups_s = Vec::new();
    let mut warmed_s = Vec::new();
    let mut rss_mb = Vec::new();
    let mut stats_pages = Vec::new();
    let mut measured: Vec<Window> = Vec::new();
    let mut stray = 0u64;
    let mut daemon_argv = Vec::new();
    for d in 0..daemons {
        for _ in 0..probes {
            setups_s.push(setup_probe(altxd, wl)?);
        }
        let (daemon, mut conns, setup_s, warm_s) = set_up(altxd, wl, seed)?;
        setups_s.push(setup_s);
        warmed_s.push(warm_s);
        let before = conns.stats_page(0)?;
        // Daemon d of n carries windows [d*W/n, (d+1)*W/n).
        for w in (d * windows / daemons) as u64..((d + 1) * windows / daemons) as u64 {
            measured.push(match &mut conns {
                Conns::Closed(cs) => {
                    closed_window(&daemon, &wl.classes[0], cs, &mut args, Stop::After(window))?
                }
                Conns::Open(cs) => {
                    let slice: Vec<gen::Arrival> = schedule
                        .iter()
                        .filter(|a| a.at_ns / window_ns == w)
                        .map(|a| gen::Arrival {
                            at_ns: a.at_ns - w * window_ns,
                            ..*a
                        })
                        .collect();
                    open_window(&daemon, wl.classes, cs, &slice)?
                }
            });
        }
        rss_mb.push(daemon.status_field("VmHWM") as f64 / 1024.0);
        // The trailing STATS round trip on every connection proves no
        // frame was left over: exactly one reply per request.
        let mut after = String::new();
        for i in 0..conns.len() {
            match conns.stats_page(i) {
                Ok(page) => after = page,
                Err(_) => stray += 1,
            }
        }
        if let Conns::Open(cs) = &conns {
            stray += cs.iter().map(|c| c.inflight.len() as u64).sum::<u64>();
        }
        stats_pages.push((before, after));
        drop(conns);
        daemon_argv = daemon.argv.clone();
        daemon.shutdown()?;
    }
    stray += measured.iter().map(|w| w.stray).sum::<u64>();
    Ok(Raw {
        setups_s,
        warmed_s,
        rss_mb,
        stats_pages,
        windows: measured,
        stray,
        daemon_argv,
    })
}

/// The windowed metrics of a stretch of windows, one value per window.
#[derive(Default)]
struct Series {
    goodput: Vec<f64>,
    p50: Vec<f64>,
    mean: Vec<f64>,
    p99: Vec<f64>,
    cpu: Vec<f64>,
}

fn series(windows: &[Window], window_s: f64, ticks_per_s: f64) -> Series {
    let mut s = Series::default();
    for window in windows {
        let recs = &window.recs;
        let good = recs.iter().filter(|r| r.outcome == Outcome::Good).count();
        s.goodput.push(good as f64 / window_s);
        let lat = sorted(
            recs.iter()
                .filter(|r| r.class == 0 && r.is_ok())
                .map(|r| r.lat_ns)
                .collect(),
        );
        s.p50.push(pct_us(&lat, 0.50));
        s.mean
            .push(lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64 / 1_000.0);
        s.p99.push(pct_us(&lat, 0.99));
        s.cpu
            .push(window.cpu_ticks as f64 / ticks_per_s * 1e6 / recs.len().max(1) as f64);
    }
    s
}

/// Turns a run's windows into its metrics: everything from the windows
/// measured on one CPU, except the `unpinned.*` rows.
fn summarise(
    wl: &'static Workload,
    seconds: f64,
    window: Duration,
    (cpu, nice): (usize, i32),
    pinned: Raw,
    unpinned: Option<Raw>,
    rechecked: u64,
) -> Report {
    let Raw {
        setups_s,
        warmed_s,
        rss_mb,
        stats_pages,
        windows,
        mut stray,
        daemon_argv,
    } = pinned;
    let window_s = window.as_secs_f64();
    let ticks_per_s = clock_ticks_per_second();
    let Series {
        goodput,
        p50,
        mean,
        p99,
        cpu: cpu_us,
    } = series(&windows, window_s, ticks_per_s);
    let mut window_counts = Vec::new();
    let mut flagged = Vec::new();
    for (w, window) in windows.iter().enumerate() {
        window_counts.push(count_outcomes(window.recs.iter()));
        let mut reasons = Vec::new();
        let lag_p99 = pct_us(&sorted(window.lag_ns.clone()), 0.99);
        if lag_p99 > MAX_LAG_P99_US {
            reasons.push(format!("generator lag p99 {lag_p99:.0} us"));
        }
        if window.stalled {
            reasons.push(format!(
                "generator stalled > {} ms",
                MAX_GENERATOR_GAP.as_millis()
            ));
        }
        if !reasons.is_empty() {
            flagged.push(format!("window {w}: {}", reasons.join(", ")));
        }
    }

    // ---- per-layer metrics seen from outside
    let recs: Vec<&Rec> = windows.iter().flat_map(|w| &w.recs).collect();
    let delta = |label: &str| {
        stats_pages
            .iter()
            .map(|(before, after)| {
                stat_field(after, label)
                    .unwrap_or(0)
                    .saturating_sub(stat_field(before, label).unwrap_or(0))
            })
            .sum::<u64>() as f64
    };
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let per_req = |x: f64| share(x, recs.len() as f64);
    let class0_ok: Vec<&&Rec> = recs.iter().filter(|r| r.class == 0 && r.is_ok()).collect();
    let lat_all = sorted(class0_ok.iter().map(|r| r.lat_ns).collect());
    let race = sorted(class0_ok.iter().map(|r| r.race_us).collect());
    let nonrace = sorted(
        class0_ok
            .iter()
            .map(|r| r.lat_ns.saturating_sub(r.race_us * 1_000))
            .collect(),
    );
    let class1 = sorted(
        recs.iter()
            .filter(|r| r.class == 1 && r.is_ok())
            .map(|r| r.lat_ns)
            .collect(),
    );
    let lag_all = sorted(
        windows
            .iter()
            .flat_map(|w| w.lag_ns.iter().copied())
            .collect(),
    );
    let good = recs.iter().filter(|r| r.outcome == Outcome::Good).count();
    let within_slo = class0_ok
        .iter()
        .filter(|r| r.lat_ns <= RT_SLO_US * 1_000)
        .count();
    let threads_mid: Vec<f64> = windows.iter().map(|w| w.threads_mid as f64).collect();
    let mut per_layer = vec![
        Metric::once(
            "daemon.ring_hit_share",
            "ratio",
            share(
                delta("ring hits"),
                delta("ring hits") + delta("ring spills"),
            ),
        ),
        Metric::once(
            "daemon.bufpool_miss_share",
            "ratio",
            share(
                delta("pool misses"),
                delta("pool misses") + delta("pool recycled"),
            ),
        ),
        Metric::once(
            "daemon.shed_share",
            "ratio",
            per_req(delta("shed (overloaded)") + delta("sheds at admission")),
        ),
        Metric::once(
            "daemon.suppressed_per_req",
            "count",
            per_req(delta("launches suppressed")),
        ),
        Metric::once(
            "daemon.wakeups_per_req",
            "count",
            per_req(delta("reactor wakeups")),
        ),
        Metric::once("daemon.threads", "count", median(&threads_mid)),
        Metric::once("daemon.warmup_s", "s", median(&warmed_s)),
        Metric::windowed("daemon.cpu_us_per_req", "us", cpu_us),
        Metric::windowed("client.goodput_rps", "1/s", goodput),
        Metric::windowed("client.p50_us", "us", p50),
        Metric::windowed("client.mean_us", "us", mean),
        Metric::windowed("client.p99_us", "us", p99),
        Metric::once("serve.race_p50_us", "us", percentile(&race, 0.50) as f64),
        Metric::once("serve.nonrace_p50_us", "us", pct_us(&nonrace, 0.50)),
        Metric::once("client.p999_us", "us", pct_us(&lat_all, 0.999)),
        Metric::once("client.max_us", "us", pct_us(&lat_all, 1.0)),
        Metric::once("client.batch_p50_us", "us", pct_us(&class1, 0.50)),
        Metric::once("client.batch_p99_us", "us", pct_us(&class1, 0.99)),
        Metric::once(
            "client.fail_share",
            "ratio",
            per_req((recs.len() - good) as f64),
        ),
        Metric::once(
            "client.within_slo_share",
            "ratio",
            share(
                within_slo as f64,
                recs.iter().filter(|r| r.class == 0).count() as f64,
            ),
        ),
        Metric::once("gen.lag_p50_us", "us", pct_us(&lag_all, 0.50)),
        Metric::once("gen.lag_p99_us", "us", pct_us(&lag_all, 0.99)),
        Metric::once("gen.flagged_windows", "count", flagged.len() as f64),
    ];
    if let Some(raw) = &unpinned {
        // The same requests with the kernel free to use every CPU.
        let free = series(&raw.windows, window_s, ticks_per_s);
        per_layer.extend([
            Metric::windowed("unpinned.goodput_rps", "1/s", free.goodput),
            Metric::windowed("unpinned.p50_us", "us", free.p50),
            Metric::windowed("unpinned.mean_us", "us", free.mean),
            Metric::windowed("unpinned.cpu_us_per_req", "us", free.cpu),
        ]);
        stray += raw.stray;
    }

    // Every request of the run is accounted for, confined or not.
    let all_windows = windows
        .iter()
        .chain(unpinned.iter().flat_map(|raw| &raw.windows));
    let counts = count_outcomes(all_windows.flat_map(|w| &w.recs));
    let attempted = counts.iter().map(|c| c.1).sum();

    // The gated three are the ones a disturbed host leaves alone: the
    // fastest hundredth of the latencies (what a request costs when
    // nothing interrupts it), set-up and memory. Throughput, median,
    // mean and CPU per request follow the host as much as the program
    // on this box and are per-layer rows (`client.*`, `daemon.*`).
    let end_to_end = vec![
        Metric::once("setup_s", "s", lower_quartile(&setups_s)),
        Metric::once("p01_us", "us", pct_us(&lat_all, 0.01)),
        Metric::once("rss_peak_mb", "MiB", median(&rss_mb)),
    ];
    Report {
        wl,
        seconds,
        setups_s,
        daemon_argv,
        cpu,
        nice,
        attempted,
        counts,
        window_counts,
        rechecked,
        stray,
        flagged,
        end_to_end,
        per_layer,
        ok_samples: lat_all.len() as u64,
    }
}

// ---------------------------------------------------------------- output

pub fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Generator mode and its thread and connection counts.
fn generator(wl: &Workload) -> (&'static str, usize, usize) {
    match wl.mode {
        Mode::Closed { clients } => (
            "closed loop, one request outstanding per connection",
            clients,
            clients,
        ),
        Mode::Open => (
            "open loop, seeded Poisson arrivals, latency from the intended send",
            1,
            wl.classes.len(),
        ),
    }
}

impl Report {
    pub fn print(&self) {
        let wl = self.wl;
        let (mode, threads, connections) = generator(wl);
        println!(
            "== workload {} ({mode}; generator threads {threads}, connections {connections}; loopback only)",
            wl.name
        );
        for c in wl.classes {
            let rate = if c.rate > 0.0 {
                format!(", {} req/s", c.rate)
            } else {
                String::new()
            };
            println!(
                "   class {}: catalog `{}`, deadline_ms {}{rate}",
                c.label, c.catalog, c.deadline_ms
            );
        }
        println!(
            "   daemon: altxd {}; generator and daemon confined to CPU {} at nice {}",
            self.daemon_argv.join(" "),
            self.cpu,
            self.nice
        );
        println!(
            "   measured {} s in {WINDOWS} windows; attempted {}, ok-latency samples {}, \
             re-run checks {}, stray replies {}",
            self.seconds, self.attempted, self.ok_samples, self.rechecked, self.stray
        );
        let fmt_counts = |c: &[(&str, u64)]| {
            c.iter()
                .map(|(n, v)| format!("{n} {v}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("   outcomes: {}", fmt_counts(&self.counts));
        for (w, c) in self.window_counts.iter().enumerate() {
            println!("     window {w}: {}", fmt_counts(c));
        }
        for f in &self.flagged {
            println!("   FLAGGED {f}");
        }
        println!("   end-to-end:");
        for m in &self.end_to_end {
            let detail = match m.name {
                "setup_s" => format!("  (lower quartile of {} set-ups)", self.setups_s.len()),
                _ => String::new(),
            };
            m.print(18, &detail);
        }
        println!(
            "   per-layer, seen from outside (windowed rows: median of windows [min .. max]):"
        );
        for m in &self.per_layer {
            m.print(28, "");
        }
    }

    pub fn to_json(&self) -> Json {
        let counts = |c: &[(&str, u64)]| Json::obj(c.iter().map(|(n, v)| (*n, Json::Int(*v))));
        let (mode, threads, connections) = generator(self.wl);
        Json::obj([
            ("workload", Json::str(self.wl.name)),
            ("why", Json::str(self.wl.why)),
            (
                "generator",
                Json::obj([
                    ("mode", Json::str(mode)),
                    ("threads", Json::Int(threads as u64)),
                    ("connections", Json::Int(connections as u64)),
                ]),
            ),
            (
                "classes",
                Json::Arr(
                    self.wl
                        .classes
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("label", Json::str(c.label)),
                                ("catalog", Json::str(c.catalog)),
                                ("deadline_ms", Json::Int(u64::from(c.deadline_ms))),
                                ("rate_rps", Json::Num(c.rate)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "daemon_argv",
                Json::Arr(self.daemon_argv.iter().map(Json::str).collect()),
            ),
            ("confined_to_cpu", Json::Int(self.cpu as u64)),
            ("nice", Json::Num(f64::from(self.nice))),
            ("measured_s", Json::Num(self.seconds)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed())),
            ("ok_latency_samples", Json::Int(self.ok_samples)),
            ("rechecked", Json::Int(self.rechecked)),
            ("stray_replies", Json::Int(self.stray)),
            ("outcomes", counts(&self.counts)),
            (
                "window_outcomes",
                Json::Arr(self.window_counts.iter().map(|c| counts(c)).collect()),
            ),
            (
                "flagged_windows",
                Json::Arr(self.flagged.iter().map(Json::str).collect()),
            ),
            (
                "setups_s",
                Json::Arr(self.setups_s.iter().map(|s| Json::Num(*s)).collect()),
            ),
            (
                "end_to_end",
                Json::obj(
                    self.end_to_end
                        .iter()
                        .map(|m| (m.name, m.to_json_with_windows())),
                ),
            ),
            (
                "per_layer",
                Json::obj(
                    self.per_layer
                        .iter()
                        .map(|m| (m.name, m.to_json_with_windows())),
                ),
            ),
        ])
    }
}
