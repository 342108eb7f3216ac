//! `altx-load` — closed-loop load generator for `altxd`.
//!
//! ```text
//! altx-load [--addr HOST:PORT] [--workload SPEC] [--clients N]
//!           [--threads N] [--connections N] [--duration SECS]
//!           [--deadline-ms N] [--out FILE.json] [--retries N]
//!           [--hedge-ms N] [--batch-window-us N]
//!           [--hist-diff BASELINE.json]
//! ```
//!
//! `--workload` takes either a single name (`trivial`) or a mixed spec
//! (`trivial:50,sleep:200`): a comma list of `name[:deadline_ms]`
//! entries that each connection walks round-robin, one request per
//! entry. A per-entry deadline overrides `--deadline-ms`; an entry
//! without one inherits it. Mixed specs are how the scheduler benches
//! offer a fast/slow blend to one daemon and read the outcome per
//! class.
//!
//! The report distinguishes *throughput* (ok replies per second) from
//! **goodput** (ok replies that also beat their deadline, client-side
//! clock). An ok reply that lands after its deadline counts as a
//! `deadline_miss`, not goodput; requests with deadline 0 are
//! best-effort, so every ok reply is goodput. Per-workload tallies
//! (ok/good/deadline-exceeded/shed plus p50/p99/p99.9) are printed and
//! emitted under `per_workload` in the JSON.
//!
//! Spawns `N` client threads, each with its own connection, issuing
//! requests back-to-back (one outstanding request per connection) for
//! the given duration. `--threads T` (0, the default, keeps the
//! thread-per-client mode) switches to *pipelined* generation: the
//! `--clients` connections are dealt across only `T` OS threads, each
//! thread driving its share in lockstep — send on every connection,
//! then collect every reply. Same closed-loop offered load (one
//! outstanding request per connection), a fraction of the generator
//! threads: how a small box saturates a sharded daemon. Pipelined mode
//! uses the client's raw send/recv path, so it rejects `--retries` and
//! `--hedge-ms` (a retried send would desynchronize the pipeline). `--connections` decouples open connections from
//! in-flight clients: when it exceeds `--clients`, the surplus is held
//! open *idle* for the whole run — exercising the daemon's reactor,
//! which must serve them for file descriptors, not threads. The
//! server-reported open-connections gauge is fetched while the idles are
//! held and echoed for smoke tests. `--retries` enables the client's
//! retry policy (N attempts per call with backoff); `--hedge-ms` arms a
//! hedged second attempt after that many milliseconds.
//!
//! `--batch-window-us N` aligns the clients onto the daemon's
//! coalescing window: instead of each client walking its own RNG arg
//! stream, every client derives its arg from the *shared* run clock
//! (`elapsed / N`), so clients issuing in the same window send the
//! identical `(workload, arg, deadline)` key and the daemon can batch
//! them into one race. Start the daemon with the same
//! `--batch-window-us` to see `server_requests_coalesced` climb.
//!
//! `--peers a,b,c` names the other nodes of an `altxd` cluster: after
//! the run their STATS pages are scraped too and the cluster counters
//! (the `Report::Cluster` rows of `altx_serve::telemetry::METRICS`) are
//! summed across every node still answering — a killed peer is skipped,
//! not fatal.
//!
//! Prints a summary table and writes a JSON report — throughput,
//! goodput, deadline-miss rate, p50/p90/p99/p99.9/max latency, reply
//! mix, per-workload tallies, per-alternative win counts, client
//! resilience counters, and the daemon's post-run counters (one
//! `server_<key>` field per `Report::Server` row of the daemon's metric
//! table, scraped from its STATS page by that row's label) — to `--out`
//! (default `BENCH_serve_throughput.json`).
//!
//! `--hist-diff BASELINE.json` compares the run just measured against
//! a previous report: after the summary a per-percentile delta table
//! (throughput, goodput, p50/p90/p99/p99.9/max) is printed with the
//! relative change per row. Keys missing from the baseline (older
//! reports have no `goodput_rps`) render as `n/a` rather than
//! failing.

use altx_serve::client::{ClientConfig, RetryPolicy};
use altx_serve::frame::{Request, Response};
use altx_serve::telemetry::{scrape, Metric, MetricDef, Report, METRICS};
use altx_serve::Client;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    workload: String,
    clients: usize,
    threads: usize,
    connections: usize,
    duration_s: u64,
    deadline_ms: u32,
    out: String,
    retries: u32,
    hedge_ms: u64,
    batch_window_us: u64,
    /// Other cluster nodes (`--peers a,b,c`): their STATS pages are
    /// scraped after the run and the cluster counters summed into the
    /// report alongside the target daemon's.
    peers: Vec<String>,
    /// Previous report to diff the fresh percentiles against
    /// (`--hist-diff BASELINE.json`).
    hist_diff: Option<String>,
}

impl Args {
    /// Client config implied by the resilience flags.
    fn client_config(&self, seed: u64) -> ClientConfig {
        ClientConfig {
            retry: (self.retries > 0).then(|| RetryPolicy {
                max_attempts: self.retries.max(1),
                budget: u32::MAX, // the run is time-bounded, not budget-bounded
                jitter_seed: seed,
                ..RetryPolicy::default()
            }),
            hedge_delay: (self.hedge_ms > 0).then(|| Duration::from_millis(self.hedge_ms)),
            ..ClientConfig::default()
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".to_owned(),
        workload: "trivial".to_owned(),
        clients: 8,
        threads: 0,     // 0 = one thread per client (legacy mode)
        connections: 0, // 0 = same as --clients (no idle surplus)
        duration_s: 5,
        deadline_ms: 0,
        out: "BENCH_serve_throughput.json".to_owned(),
        retries: 0,
        hedge_ms: 0,
        batch_window_us: 0,
        peers: Vec::new(),
        hist_diff: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workload" => args.workload = value("--workload")?,
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?
            }
            "--duration" => {
                args.duration_s = value("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--retries" => {
                args.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--hedge-ms" => {
                args.hedge_ms = value("--hedge-ms")?
                    .parse()
                    .map_err(|e| format!("--hedge-ms: {e}"))?
            }
            "--batch-window-us" => {
                args.batch_window_us = value("--batch-window-us")?
                    .parse()
                    .map_err(|e| format!("--batch-window-us: {e}"))?
            }
            "--hist-diff" => args.hist_diff = Some(value("--hist-diff")?),
            "--peers" => {
                args.peers = value("--peers")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect()
            }
            "--help" | "-h" => {
                println!(
                    "usage: altx-load [--addr HOST:PORT] [--workload SPEC] [--clients N] \
                     [--threads N] [--connections N] [--duration SECS] [--deadline-ms N] \
                     [--out FILE.json] [--retries N] [--hedge-ms N] [--batch-window-us N] \
                     [--peers HOST:PORT,...] [--hist-diff BASELINE.json]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// One entry of a `--workload` spec: a workload name and the deadline
/// its requests carry (0 = best-effort).
#[derive(Clone)]
struct WorkloadSpec {
    name: String,
    deadline_ms: u32,
}

/// Parses `name[:deadline_ms][,name[:deadline_ms]]...`; entries without
/// an explicit deadline inherit `--deadline-ms`.
fn parse_workloads(spec: &str, default_deadline_ms: u32) -> Result<Vec<WorkloadSpec>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        out.push(match part.split_once(':') {
            Some((name, dl)) => WorkloadSpec {
                name: name.to_owned(),
                deadline_ms: dl
                    .parse()
                    .map_err(|e| format!("workload entry {part}: {e}"))?,
            },
            None => WorkloadSpec {
                name: part.to_owned(),
                deadline_ms: default_deadline_ms,
            },
        });
    }
    if out.is_empty() {
        return Err("--workload: empty spec".to_owned());
    }
    Ok(out)
}

/// Reply tallies for one workload-spec entry.
#[derive(Default, Clone)]
struct Tally {
    latencies_us: Vec<u64>,
    ok: u64,
    /// Ok replies that beat their deadline (all of them when the entry
    /// is best-effort) — the numerator of goodput.
    good: u64,
    deadline_exceeded: u64,
    overloaded: u64,
    errors: u64,
}

/// Per-client tallies, merged after the run. `tallies` is parallel to
/// the workload-spec list.
struct ClientReport {
    tallies: Vec<Tally>,
    retries: u64,
    hedges: u64,
    reconnects: u64,
    abandoned: u64,
    wins: BTreeMap<String, u64>,
}

impl ClientReport {
    fn new(nspecs: usize) -> Self {
        Self {
            tallies: vec![Tally::default(); nspecs],
            retries: 0,
            hedges: 0,
            reconnects: 0,
            abandoned: 0,
            wins: BTreeMap::new(),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    addr: &str,
    specs: &[WorkloadSpec],
    config: ClientConfig,
    seed: u64,
    batch_window_us: u64,
    epoch: Instant,
    stop: &AtomicBool,
) -> Result<ClientReport, String> {
    let mut client =
        Client::connect_with(addr, config).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut report = ClientReport::new(specs.len());
    let mut arg = seed;
    let mut which = seed as usize;
    while !stop.load(Ordering::Relaxed) {
        arg = next_arg(arg, epoch, batch_window_us);
        let widx = which % specs.len();
        which = which.wrapping_add(1);
        let spec = &specs[widx];
        let begin = Instant::now();
        let resp = client
            .run(&spec.name, arg, spec.deadline_ms)
            .map_err(|e| format!("request failed: {e}"))?;
        let rtt_us = begin.elapsed().as_micros() as u64;
        tally(
            &mut report.tallies[widx],
            &mut report.wins,
            resp,
            rtt_us,
            spec,
        )?;
    }
    let stats = client.stats();
    report.retries = stats.retries();
    report.hedges = stats.hedges();
    report.reconnects = stats.reconnects();
    report.abandoned = stats.abandoned();
    Ok(report)
}

/// The argument after `arg`: with a batch window, the window's number
/// on the shared clock — every client in the same window sends the same
/// key, so the daemon's batcher can coalesce them — and otherwise the
/// next step of the client's own LCG.
fn next_arg(arg: u64, epoch: Instant, batch_window_us: u64) -> u64 {
    (epoch.elapsed().as_micros() as u64)
        .checked_div(batch_window_us)
        .unwrap_or_else(|| {
            arg.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
        })
}

/// Folds one reply into the tallies; fatal replies become `Err`.
fn tally(
    t: &mut Tally,
    wins: &mut BTreeMap<String, u64>,
    resp: Response,
    rtt_us: u64,
    spec: &WorkloadSpec,
) -> Result<(), String> {
    match resp {
        Response::Ok { winner_name, .. } => {
            t.ok += 1;
            t.latencies_us.push(rtt_us);
            if spec.deadline_ms == 0 || rtt_us <= u64::from(spec.deadline_ms) * 1000 {
                t.good += 1;
            }
            *wins.entry(winner_name).or_insert(0) += 1;
        }
        Response::DeadlineExceeded { .. } => t.deadline_exceeded += 1,
        Response::Overloaded => t.overloaded += 1,
        Response::UnknownWorkload => return Err(format!("unknown workload {}", spec.name)),
        Response::Error { message } => {
            t.errors += 1;
            eprintln!("altx-load: server error: {message}");
        }
        Response::Text { .. } => return Err("unexpected text reply".to_owned()),
        Response::Vote { .. } => return Err("unexpected vote reply".to_owned()),
    }
    Ok(())
}

/// One generator thread driving `nconns` connections in lockstep: send
/// a request on every connection, then collect every reply (the daemon
/// releases pipelined replies in send order per connection). Offered
/// load matches `nconns` thread-per-client loops — one outstanding
/// request per connection — on a single OS thread. Each connection
/// walks the workload specs round-robin from its own offset, so a
/// mixed spec stays mixed within every send wave.
fn pipelined_loop(
    addr: &str,
    specs: &[WorkloadSpec],
    nconns: usize,
    base_seed: u64,
    batch_window_us: u64,
    epoch: Instant,
    stop: &AtomicBool,
) -> Result<ClientReport, String> {
    let mut conns: Vec<(Client, u64, usize)> = (0..nconns)
        .map(|i| {
            Client::connect(addr)
                .map(|c| (c, base_seed + i as u64, i))
                .map_err(|e| format!("connect {addr}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut report = ClientReport::new(specs.len());
    let mut begins = Vec::with_capacity(nconns);
    let mut sent_widx = Vec::with_capacity(nconns);
    while !stop.load(Ordering::Relaxed) {
        begins.clear();
        sent_widx.clear();
        for (client, arg, which) in &mut conns {
            *arg = next_arg(*arg, epoch, batch_window_us);
            let widx = *which % specs.len();
            *which = which.wrapping_add(1);
            let spec = &specs[widx];
            let request = Request::Run {
                workload: spec.name.clone(),
                deadline_ms: spec.deadline_ms,
                arg: *arg,
            };
            begins.push(Instant::now());
            sent_widx.push(widx);
            client
                .send(&request)
                .map_err(|e| format!("pipelined send failed: {e}"))?;
        }
        for (i, (client, _, _)) in conns.iter_mut().enumerate() {
            let resp = client
                .recv()
                .map_err(|e| format!("pipelined recv failed: {e}"))?;
            let rtt_us = begins[i].elapsed().as_micros() as u64;
            let widx = sent_widx[i];
            tally(
                &mut report.tallies[widx],
                &mut report.wins,
                resp,
                rtt_us,
                &specs[widx],
            )?;
        }
    }
    Ok(report)
}

/// The daemon counters this tool reports — the rows of the daemon's own
/// metric table marked for it — each with the value scraped off `stats`
/// (zero when the page lacks the line).
fn reported_counters(stats: &str) -> Vec<(&'static MetricDef, u64)> {
    METRICS
        .iter()
        .filter(|def| def.report != Report::No)
        .map(|def| (def, scrape(stats, def.metric).unwrap_or(0)))
        .collect()
}

/// Fetches one daemon's STATS page.
fn fetch_stats(addr: &str) -> std::io::Result<String> {
    let mut c = Client::connect(addr)?;
    c.stats_page()
        .map_err(|e| std::io::Error::other(e.to_string()))
}

/// The `p`-quantile of a sorted sample, or `None` when the sample is
/// empty. A workload that completed zero requests has no latency
/// distribution — reporting `0` would read as "instant", so empties
/// render as `n/a` in text and `null` in JSON (which [`json_number`]
/// maps back to `n/a` when a later `--hist-diff` reads the report).
fn percentile(sorted_us: &[u64], p: f64) -> Option<u64> {
    if sorted_us.is_empty() {
        return None;
    }
    let idx = ((p * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len()) - 1;
    Some(sorted_us[idx])
}

/// Renders a possibly-absent latency figure for the text summary.
fn fmt_us(v: Option<u64>) -> String {
    v.map_or_else(|| "n/a".to_owned(), |v| v.to_string())
}

/// Renders a possibly-absent latency figure for the JSON report.
fn json_us(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Pulls one numeric field out of a flat JSON report without a parser:
/// finds `"key":` at top level and reads the number after it. Returns
/// `None` when the key is absent (older reports lack some fields) or
/// the value is not a number — the diff table shows `n/a` for those.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && !matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One row of the `--hist-diff` table: baseline value (if the key was
/// present and numeric), fresh value (if this run produced one), and
/// the relative change. Either side may be absent — an older baseline
/// lacking the key, or a run whose workload completed zero requests —
/// and shows `n/a` rather than a misleading `0`.
fn diff_row(label: &str, baseline: Option<f64>, fresh: Option<f64>) {
    match (baseline, fresh) {
        (Some(base), Some(fresh)) if base > 0.0 => {
            let delta = (fresh - base) / base * 100.0;
            println!("  {label:<14} {base:>12.1} {fresh:>12.1} {delta:>+9.1}%");
        }
        (Some(base), Some(fresh)) => {
            println!("  {label:<14} {base:>12.1} {fresh:>12.1} {:>10}", "n/a")
        }
        (Some(base), None) => println!("  {label:<14} {base:>12.1} {:>12} {:>10}", "n/a", "n/a"),
        (None, Some(fresh)) => println!("  {label:<14} {:>12} {fresh:>12.1} {:>10}", "n/a", "n/a"),
        (None, None) => println!("  {label:<14} {:>12} {:>12} {:>10}", "n/a", "n/a", "n/a"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("altx-load: {e}");
            std::process::exit(2);
        }
    };
    if args.threads > 0 && (args.retries > 0 || args.hedge_ms > 0) {
        eprintln!(
            "altx-load: --threads drives the raw pipelined path; \
             --retries/--hedge-ms would desynchronize it"
        );
        std::process::exit(2);
    }
    let specs = match parse_workloads(&args.workload, args.deadline_ms) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("altx-load: {e}");
            std::process::exit(2);
        }
    };

    // Surplus connections beyond the active clients are held open and
    // idle for the whole run; the daemon's reactor must carry them
    // without spending threads on them.
    let idle_count = args.connections.saturating_sub(args.clients);
    let idles: Vec<Client> = (0..idle_count)
        .map(|i| match Client::connect(&*args.addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("altx-load: idle connection {i}: {e}");
                std::process::exit(1);
            }
        })
        .collect();
    // While the idles are held, ask the daemon how many connections it
    // sees — the CI smoke asserts on this line. Shards register a
    // handed-off connection on their next poll pass, so poll the gauge
    // until it has converged on the idles just opened (or a deadline
    // passes and the last observation stands).
    let conns_open_observed = if idle_count > 0 {
        let mut probe = match Client::connect(&*args.addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("altx-load: probing conns_open: {e}");
                std::process::exit(1);
            }
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let seen = match probe.stats_page() {
                Ok(stats) => scrape(&stats, Metric::ConnsOpen).unwrap_or(0),
                Err(e) => {
                    eprintln!("altx-load: probing conns_open: {e}");
                    std::process::exit(1);
                }
            };
            if seen >= idle_count as u64 || Instant::now() >= deadline {
                break seen;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    } else {
        0
    };
    if idle_count > 0 {
        println!(
            "altx-load: holding {idle_count} idle connections (server reports conns_open={conns_open_observed})"
        );
    }

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = if args.threads > 0 {
        // Pipelined mode: deal the connections across the thread pool,
        // spreading any remainder over the first few threads.
        let nthreads = args.threads.min(args.clients);
        let mut next = 0usize;
        (0..nthreads)
            .map(|i| {
                let nconns = args.clients / nthreads + usize::from(i < args.clients % nthreads);
                let base_seed = 0x5eed + next as u64;
                next += nconns;
                let addr = args.addr.clone();
                let specs = Arc::clone(&specs);
                let stop = Arc::clone(&stop);
                let batch_window_us = args.batch_window_us;
                std::thread::spawn(move || {
                    pipelined_loop(
                        &addr,
                        &specs,
                        nconns,
                        base_seed,
                        batch_window_us,
                        started,
                        &stop,
                    )
                })
            })
            .collect()
    } else {
        (0..args.clients)
            .map(|i| {
                let addr = args.addr.clone();
                let specs = Arc::clone(&specs);
                let stop = Arc::clone(&stop);
                let seed = 0x5eed + i as u64;
                let config = args.client_config(seed);
                let batch_window_us = args.batch_window_us;
                std::thread::spawn(move || {
                    client_loop(&addr, &specs, config, seed, batch_window_us, started, &stop)
                })
            })
            .collect()
    };
    std::thread::sleep(Duration::from_secs(args.duration_s));
    stop.store(true, Ordering::Relaxed);

    let mut merged = ClientReport::new(specs.len());
    for h in handles {
        match h.join().expect("client thread exits") {
            Ok(r) => {
                for (into, from) in merged.tallies.iter_mut().zip(r.tallies) {
                    into.latencies_us.extend(from.latencies_us);
                    into.ok += from.ok;
                    into.good += from.good;
                    into.deadline_exceeded += from.deadline_exceeded;
                    into.overloaded += from.overloaded;
                    into.errors += from.errors;
                }
                merged.retries += r.retries;
                merged.hedges += r.hedges;
                merged.reconnects += r.reconnects;
                merged.abandoned += r.abandoned;
                for (name, n) in r.wins {
                    *merged.wins.entry(name).or_insert(0) += n;
                }
            }
            Err(e) => {
                eprintln!("altx-load: {e}");
                std::process::exit(1);
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop(idles); // held through the whole measured window

    // The daemon is still up: scrape its scheduler counters so the
    // report shows what the server did with this load (batching and
    // hedging live server-side; client counters can't see them).
    let mut server = reported_counters(&fetch_stats(&args.addr).unwrap_or_else(|e| {
        eprintln!("altx-load: scraping server counters: {e} (reporting zeros)");
        String::new()
    }));
    // With --peers the cluster counters are summed across every node
    // still answering — a SIGKILLed peer is skipped, not fatal: the
    // survivors' counters are exactly what the smoke asserts on.
    for peer in &args.peers {
        match fetch_stats(peer) {
            Ok(stats) => {
                for (def, total) in &mut server {
                    if def.report == Report::Cluster {
                        *total += scrape(&stats, def.metric).unwrap_or(0);
                    }
                }
            }
            Err(e) => eprintln!("altx-load: peer {peer} unreachable ({e}); skipping"),
        }
    }
    for t in &mut merged.tallies {
        t.latencies_us.sort_unstable();
    }
    let sum = |f: fn(&Tally) -> u64| merged.tallies.iter().map(f).sum::<u64>();
    let ok = sum(|t| t.ok);
    let good = sum(|t| t.good);
    let deadline_exceeded = sum(|t| t.deadline_exceeded);
    let overloaded = sum(|t| t.overloaded);
    let errors = sum(|t| t.errors);
    let total = ok + deadline_exceeded + overloaded + errors;
    let deadline_misses = ok - good;
    let deadline_miss_rate = if ok > 0 {
        deadline_misses as f64 / ok as f64
    } else {
        0.0
    };
    let throughput = ok as f64 / elapsed;
    let goodput = good as f64 / elapsed;
    let mut all_latencies: Vec<u64> = merged
        .tallies
        .iter()
        .flat_map(|t| t.latencies_us.iter().copied())
        .collect();
    all_latencies.sort_unstable();
    let p50 = percentile(&all_latencies, 0.50);
    let p90 = percentile(&all_latencies, 0.90);
    let p99 = percentile(&all_latencies, 0.99);
    let p999 = percentile(&all_latencies, 0.999);
    let max = all_latencies.last().copied();

    if args.threads > 0 {
        println!(
            "altx-load: {} pipelined connections on {} threads x {:.1}s against {}",
            args.clients,
            args.threads.min(args.clients),
            elapsed,
            args.addr
        );
    } else {
        println!(
            "altx-load: {} clients x {:.1}s against {}",
            args.clients, elapsed, args.addr
        );
    }
    println!("  workload            {}", args.workload);
    println!("  requests            {total}");
    println!("  ok                  {ok}");
    println!("  deadline exceeded   {deadline_exceeded}");
    println!("  overloaded (shed)   {overloaded}");
    println!("  errors              {errors}");
    println!("  throughput          {throughput:.0} req/s");
    println!("  goodput             {goodput:.0} req/s (late ok replies: {deadline_misses})");
    println!(
        "  latency us          p50 {}  p90 {}  p99 {}  p99.9 {}  max {}",
        fmt_us(p50),
        fmt_us(p90),
        fmt_us(p99),
        fmt_us(p999),
        fmt_us(max)
    );
    if specs.len() > 1 {
        for (spec, t) in specs.iter().zip(&merged.tallies) {
            println!(
                "  [{} dl {} ms]  ok {}  good {}  dlx {}  shed {}  p50 {}  p99 {}  p99.9 {}",
                spec.name,
                spec.deadline_ms,
                t.ok,
                t.good,
                t.deadline_exceeded,
                t.overloaded,
                fmt_us(percentile(&t.latencies_us, 0.50)),
                fmt_us(percentile(&t.latencies_us, 0.99)),
                fmt_us(percentile(&t.latencies_us, 0.999))
            );
        }
    }
    if merged.retries + merged.hedges + merged.reconnects + merged.abandoned > 0 {
        println!(
            "  resilience          retries {}  hedges {}  reconnects {}  abandoned {}",
            merged.retries, merged.hedges, merged.reconnects, merged.abandoned
        );
    }
    // Counters that never moved stay off the console; the JSON has them all.
    for (def, v) in server.iter().filter(|(_, v)| *v > 0) {
        match def.report {
            Report::Server => println!("  server {:<19} {v}", def.label),
            Report::Cluster if !args.peers.is_empty() => {
                println!("  cluster {:<19} {v}", def.label)
            }
            _ => {}
        }
    }
    for (name, n) in &merged.wins {
        println!("  wins[{name}]  {n}");
    }

    let mut wins_json: Vec<String> = Vec::new();
    for (name, n) in &merged.wins {
        wins_json.push(format!("    \"{}\": {}", json_escape(name), n));
    }
    // Per-entry tallies keyed by workload name (with its effective
    // deadline alongside, since the same name may appear twice with
    // different deadlines the spec string disambiguates).
    let mut per_workload_json: Vec<String> = Vec::new();
    for (spec, t) in specs.iter().zip(&merged.tallies) {
        per_workload_json.push(format!(
            "    \"{}\": {{ \"deadline_ms\": {}, \"ok\": {}, \"good\": {}, \
             \"deadline_exceeded\": {}, \"overloaded\": {}, \"errors\": {}, \
             \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {} }}",
            json_escape(&spec.name),
            spec.deadline_ms,
            t.ok,
            t.good,
            t.deadline_exceeded,
            t.overloaded,
            t.errors,
            json_us(percentile(&t.latencies_us, 0.50)),
            json_us(percentile(&t.latencies_us, 0.99)),
            json_us(percentile(&t.latencies_us, 0.999)),
        ));
    }
    // One field per reported daemon counter: `server_<key>` for the
    // target's own, bare `<key>` for the cluster sums.
    let server_json: String = server
        .iter()
        .map(|(def, v)| match def.report {
            Report::Cluster => format!("\"{}\": {v},\n  ", def.key),
            _ => format!("\"server_{}\": {v},\n  ", def.key),
        })
        .collect();
    let json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"clients\": {},\n  \"threads\": {},\n  \
         \"connections\": {},\n  \
         \"duration_s\": {:.3},\n  \
         \"deadline_ms\": {},\n  \"batch_window_us\": {},\n  \"requests\": {},\n  \"ok\": {},\n  \
         \"deadline_exceeded\": {},\n  \"overloaded\": {},\n  \"errors\": {},\n  \
         \"deadline_misses\": {},\n  \"deadline_miss_rate\": {:.4},\n  \
         \"client_retries\": {},\n  \"client_hedges\": {},\n  \"client_reconnects\": {},\n  \
         \"client_abandoned\": {},\n  \
         {}\
         \"throughput_rps\": {:.1},\n  \"goodput_rps\": {:.1},\n  \
         \"p50_us\": {},\n  \"p90_us\": {},\n  \
         \"p99_us\": {},\n  \
         \"p999_us\": {},\n  \"max_us\": {},\n  \
         \"per_workload\": {{\n{}\n  }},\n  \
         \"wins\": {{\n{}\n  }}\n}}\n",
        json_escape(&args.workload),
        args.clients,
        args.threads,
        args.clients.max(args.connections),
        elapsed,
        args.deadline_ms,
        args.batch_window_us,
        total,
        ok,
        deadline_exceeded,
        overloaded,
        errors,
        deadline_misses,
        deadline_miss_rate,
        merged.retries,
        merged.hedges,
        merged.reconnects,
        merged.abandoned,
        server_json,
        throughput,
        goodput,
        json_us(p50),
        json_us(p90),
        json_us(p99),
        json_us(p999),
        json_us(max),
        per_workload_json.join(",\n"),
        wins_json.join(",\n"),
    );
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("altx-load: writing {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("altx-load: wrote {}", args.out);

    // Percentile-by-percentile comparison against a previous report.
    // A baseline that predates a field (older reports have no p90_us),
    // a baseline that recorded `null` (no completions), or a fresh run
    // with no completions shows `n/a` on that row instead of aborting
    // the diff or pretending the latency was 0.
    if let Some(path) = &args.hist_diff {
        let baseline = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("altx-load: reading --hist-diff {path}: {e}");
                std::process::exit(1);
            }
        };
        println!("altx-load: latency diff vs {path}");
        println!(
            "  {:<14} {:>12} {:>12} {:>10}",
            "metric", "baseline", "current", "delta"
        );
        diff_row(
            "throughput",
            json_number(&baseline, "throughput_rps"),
            Some(throughput),
        );
        diff_row(
            "goodput",
            json_number(&baseline, "goodput_rps"),
            Some(goodput),
        );
        let us = |v: Option<u64>| v.map(|v| v as f64);
        diff_row("p50 us", json_number(&baseline, "p50_us"), us(p50));
        diff_row("p90 us", json_number(&baseline, "p90_us"), us(p90));
        diff_row("p99 us", json_number(&baseline, "p99_us"), us(p99));
        diff_row("p99.9 us", json_number(&baseline, "p999_us"), us(p999));
        diff_row("max us", json_number(&baseline, "max_us"), us(max));
    }
}
