//! `altx-load` — the operator's closed-loop smoke load for `altxd`.
//!
//! ```text
//! altx-load [--addr HOST:PORT] [--workload SPEC] [--clients N]
//!           [--duration SECS] [--deadline-ms N]
//! ```
//!
//! `--workload` takes either a single name (`trivial`) or a mixed spec
//! (`trivial:50,sleep:200`): a comma list of `name[:deadline_ms]`
//! entries that each connection walks round-robin, one request per
//! entry. A per-entry deadline overrides `--deadline-ms`; an entry
//! without one inherits it.
//!
//! Spawns `N` client threads, each with its own connection, issuing
//! requests back-to-back (one outstanding request per connection) for
//! the given duration, then prints a summary: the reply mix, latency
//! percentiles, per-alternative win counts and, for a mixed spec, one
//! tally line per entry. The summary distinguishes *throughput* (ok
//! replies per second) from **goodput** (ok replies that also beat
//! their deadline on the client's clock); requests with deadline 0 are
//! best-effort, so every ok reply to them is goodput.
//!
//! This is a tool for looking at a running daemon, not a benchmark: it
//! writes no file and compares nothing. Numbers that are quoted or
//! judged come from `benchmark/run.sh` (see `benchmark/README.md`),
//! whose generator also verifies every reply and offers open-loop load.

use altx_serve::frame::Response;
use altx_serve::Client;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    workload: String,
    clients: usize,
    duration_s: u64,
    deadline_ms: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".to_owned(),
        workload: "trivial".to_owned(),
        clients: 8,
        duration_s: 5,
        deadline_ms: 0,
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
            "--help" | "-h" => {
                println!(
                    "usage: altx-load [--addr HOST:PORT] [--workload SPEC] [--clients N] \
                     [--duration SECS] [--deadline-ms N]"
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

/// Reply tallies for one workload-spec entry (or, absorbed together,
/// for the run).
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
    /// Ok replies per winning alternative.
    wins: BTreeMap<String, u64>,
}

impl Tally {
    fn absorb(&mut self, from: &Tally) {
        self.latencies_us.extend(&from.latencies_us);
        self.ok += from.ok;
        self.good += from.good;
        self.deadline_exceeded += from.deadline_exceeded;
        self.overloaded += from.overloaded;
        self.errors += from.errors;
        for (name, n) in &from.wins {
            *self.wins.entry(name.clone()).or_insert(0) += n;
        }
    }
}

/// One connection's closed loop: walk the specs round-robin from this
/// client's own offset, one request outstanding, until `stop`. Replies
/// that mean the run itself is wrong (unknown workload, a reply kind a
/// RUN never gets) end it with `Err`; otherwise the tallies come back,
/// parallel to `specs`.
fn client_loop(
    addr: &str,
    specs: &[WorkloadSpec],
    seed: u64,
    stop: &AtomicBool,
) -> Result<Vec<Tally>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut tallies = vec![Tally::default(); specs.len()];
    let mut arg = seed;
    let mut which = seed as usize;
    while !stop.load(Ordering::Relaxed) {
        arg = arg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let widx = which % specs.len();
        which = which.wrapping_add(1);
        let spec = &specs[widx];
        let t = &mut tallies[widx];
        let begin = Instant::now();
        let resp = client
            .run(&spec.name, arg, spec.deadline_ms)
            .map_err(|e| format!("request failed: {e}"))?;
        let rtt_us = begin.elapsed().as_micros() as u64;
        match resp {
            Response::Ok { winner_name, .. } => {
                t.ok += 1;
                t.latencies_us.push(rtt_us);
                if spec.deadline_ms == 0 || rtt_us <= u64::from(spec.deadline_ms) * 1000 {
                    t.good += 1;
                }
                *t.wins.entry(winner_name).or_insert(0) += 1;
            }
            Response::DeadlineExceeded { .. } => t.deadline_exceeded += 1,
            Response::Overloaded => t.overloaded += 1,
            Response::UnknownWorkload => return Err(format!("unknown workload {}", spec.name)),
            Response::Error { message } => {
                t.errors += 1;
                eprintln!("altx-load: server error: {message}");
            }
            Response::Text { .. } => return Err("unexpected text reply".to_owned()),
            Response::Vote { .. } | Response::AltResult { .. } => {
                return Err("unexpected peer-plane reply".to_owned())
            }
        }
    }
    Ok(tallies)
}

/// The `p`-quantile of a sorted sample, rendered; `n/a` when the sample
/// is empty — a class that completed nothing has no latency, and `0`
/// would read as "instant".
fn percentile(sorted_us: &[u64], p: f64) -> String {
    if sorted_us.is_empty() {
        return "n/a".to_owned();
    }
    let rank = altx_des::nearest_rank(p, sorted_us.len() as u64);
    sorted_us[rank as usize - 1].to_string()
}

fn fail(code: i32, message: &str) -> ! {
    eprintln!("altx-load: {message}");
    std::process::exit(code);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(2, &e));
    let specs =
        Arc::new(parse_workloads(&args.workload, args.deadline_ms).unwrap_or_else(|e| fail(2, &e)));

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|i| {
            let addr = args.addr.clone();
            let specs = Arc::clone(&specs);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || client_loop(&addr, &specs, 0x5eed + i as u64, &stop))
        })
        .collect();
    std::thread::sleep(Duration::from_secs(args.duration_s));
    stop.store(true, Ordering::Relaxed);

    let mut merged = vec![Tally::default(); specs.len()];
    for h in handles {
        let tallies = h.join().expect("client thread exits");
        let tallies = tallies.unwrap_or_else(|e| fail(1, &e));
        for (into, from) in merged.iter_mut().zip(&tallies) {
            into.absorb(from);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    let mut all = Tally::default();
    for t in &mut merged {
        t.latencies_us.sort_unstable();
        all.absorb(t);
    }
    all.latencies_us.sort_unstable();

    println!(
        "altx-load: {} clients x {:.1}s against {}",
        args.clients, elapsed, args.addr
    );
    println!("  workload            {}", args.workload);
    println!(
        "  requests            {}",
        all.ok + all.deadline_exceeded + all.overloaded + all.errors
    );
    println!("  ok                  {}", all.ok);
    println!("  deadline exceeded   {}", all.deadline_exceeded);
    println!("  overloaded (shed)   {}", all.overloaded);
    println!("  errors              {}", all.errors);
    println!("  throughput          {:.0} req/s", all.ok as f64 / elapsed);
    println!(
        "  goodput             {:.0} req/s (late ok replies: {})",
        all.good as f64 / elapsed,
        all.ok - all.good
    );
    println!(
        "  latency us          p50 {}  p90 {}  p99 {}  p99.9 {}  max {}",
        percentile(&all.latencies_us, 0.50),
        percentile(&all.latencies_us, 0.90),
        percentile(&all.latencies_us, 0.99),
        percentile(&all.latencies_us, 0.999),
        percentile(&all.latencies_us, 1.0)
    );
    if specs.len() > 1 {
        for (spec, t) in specs.iter().zip(&merged) {
            println!(
                "  [{} dl {} ms]  ok {}  good {}  dlx {}  shed {}  p50 {}  p99 {}  p99.9 {}",
                spec.name,
                spec.deadline_ms,
                t.ok,
                t.good,
                t.deadline_exceeded,
                t.overloaded,
                percentile(&t.latencies_us, 0.50),
                percentile(&t.latencies_us, 0.99),
                percentile(&t.latencies_us, 0.999)
            );
        }
    }
    for (name, n) in &all.wins {
        println!("  wins[{name}]  {n}");
    }
}
