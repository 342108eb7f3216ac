//! `e2e` — measures a freshly spawned `altxd` from outside, over
//! loopback, one named workload at a time.
//!
//! Its only contact with the program: the `altxd` command line
//! (`--addr/--workers/--shards`), the wire protocol through
//! `altx_serve::{Client, frame}`, and `altx_serve::workload::{spec,
//! build}` to verify replies. Scheduler features are measured by being
//! the daemon's default, never by a flag passed here.
//!
//! ```text
//! e2e --altxd PATH [--layers PATH] [--out DIR]
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload`, the last stdout line is the result object the
//! benchmark contract asks for. Without it, every workload runs, then
//! the `layers` binary, and everything is printed by name.

mod daemon;
mod layers;
mod load;
mod report;

use altx_benchmark::json::Json;
use altx_benchmark::workloads::{self, Workload, WORKLOADS};
use layers::{layer_table, run_layers};
use report::{measure, metric_json, Report};
use std::path::PathBuf;
use std::process::{Command, Stdio};

type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Fresh daemons per untraced run: `rss_peak_mb` is the median over
/// them, and each carries a third of the windows.
const DAEMONS: usize = 3;

struct Args {
    altxd: PathBuf,
    layers: Option<PathBuf>,
    out: PathBuf,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_verifier: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        altxd: PathBuf::new(),
        layers: None,
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 1,
        seconds: 24.0,
        trace: false,
        corrupt_verifier: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--altxd" => a.altxd = value()?.into(),
            "--layers" => a.layers = Some(value()?.into()),
            "--out" => a.out = value()?.into(),
            "--workload" => {
                let name = value()?;
                let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                a.workload = Some(workloads::by_name(&name).ok_or(format!(
                    "unknown workload {name}; known: {}",
                    known.join(", ")
                ))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            // Test-only: spoil one expected value; the run must then fail.
            "--corrupt-verifier" => a.corrupt_verifier = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.altxd.as_os_str().is_empty() {
        return Err("--altxd PATH is required".to_owned());
    }
    if a.seconds.is_nan() || a.seconds < 1.0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(a)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// No number is quoted without the configuration that produced it.
fn provenance(args: &Args, loadavg_start: String) -> Json {
    Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("network", Json::str("loopback")),
        (
            "cpu_affinity",
            Json::str(
                "generator and daemon confined to one CPU, at nice -20 where permitted, for \
                 set-ups and measured windows; the layers binary confined likewise; the \
                 unpinned.* windows run unconfined",
            ),
        ),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("loadavg_start", Json::str(loadavg_start)),
        ("loadavg_end", Json::str(read_trimmed("/proc/loadavg"))),
        (
            "kernel",
            Json::str(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("altxd", Json::str(args.altxd.display().to_string())),
    ])
}

/// The `layers` binary's metrics plus what is derived from them.
struct LayerRows {
    /// `(name, unit, value)`; `None` where `layers` produced nothing.
    rows: Vec<(String, &'static str, Option<f64>)>,
    reason_missing: Option<String>,
}

impl LayerRows {
    fn collect(args: &Args, seconds: f64, reports: &[Report]) -> LayerRows {
        let got = run_layers(args.layers.as_deref(), args.seed, seconds, &args.out);
        let table = layer_table(&got);
        let get = |n: &str| {
            table
                .iter()
                .find(|(name, _, _)| *name == n)
                .and_then(|t| t.2)
        };
        let mut rows: Vec<(String, &'static str, Option<f64>)> = table
            .iter()
            .map(|(name, unit, v)| ((*name).to_owned(), *unit, *v))
            .collect();
        // What neither the replay nor the kernel floor explains: reactor,
        // connection handling, poll, self-pipe.
        for r in reports {
            let pipeline = format!("trace.pipeline_p50_us.{}", r.wl.classes[0].catalog);
            let unattributed = match (get("loopback.rtt_us"), get(&pipeline)) {
                (Some(rtt), Some(pipe)) => Some(r.per_layer("client.p50_us") - rtt - pipe),
                _ => None,
            };
            // One workload: the plain name. All of them: one row each.
            let name = if reports.len() == 1 {
                "serve.unattributed_us".to_owned()
            } else {
                format!("serve.unattributed_us.{}", r.wl.name)
            };
            rows.push((name, "us", unattributed));
        }
        let missing = rows.iter().filter(|r| r.2.is_none()).count();
        rows.push(("layers_missing".to_owned(), "count", Some(missing as f64)));
        LayerRows {
            rows,
            reason_missing: got.err(),
        }
    }

    fn print(&self) {
        println!("== per-layer, from the layers binary (batched loops and the traced replay)");
        if let Some(reason) = &self.reason_missing {
            println!("   layers metrics are null: {reason}");
        }
        for (name, unit, v) in &self.rows {
            match v {
                Some(v) => println!("     {name:<34} {v:>14.4} {unit}"),
                None => println!("     {name:<34} {:>14} {unit}", "null"),
            }
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "reason_missing",
                self.reason_missing.as_deref().map_or(Json::Null, Json::str),
            ),
            (
                "metrics",
                Json::obj(self.rows.iter().map(|(name, unit, v)| {
                    (
                        name.as_str(),
                        Json::obj([
                            ("value", v.map_or(Json::Null, Json::Num)),
                            ("unit", Json::str(*unit)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

fn run(args: &Args) -> Res<bool> {
    std::fs::create_dir_all(&args.out)?;
    let loadavg_start = read_trimmed("/proc/loadavg");
    let single = args.workload.is_some();
    let selected: Vec<&'static Workload> = match args.workload {
        Some(wl) => vec![wl],
        None => WORKLOADS.iter().collect(),
    };
    // A traced single-workload run splits its time between the daemon
    // (per-layer numbers seen from outside; its windows are a third of
    // a window shorter, to make room for the unpinned ones) and the
    // layers binary, and does not report `rss_peak_mb`, so one daemon will do.
    // The gated form (untraced, one workload) skips the unpinned windows.
    let (e2e_seconds, layer_seconds, daemons, unpinned) = match (single, args.trace) {
        (true, true) => (args.seconds * 0.3, args.seconds * 0.6, 1, true),
        (true, false) => (args.seconds, 0.0, DAEMONS, false),
        (false, _) => (args.seconds, args.seconds * 1.5, DAEMONS, true),
    };

    let mut reports = Vec::new();
    for wl in selected {
        let r = measure(
            &args.altxd,
            wl,
            args.seed,
            e2e_seconds,
            daemons,
            unpinned,
            args.corrupt_verifier,
        )?;
        r.print();
        reports.push(r);
    }
    let layers = (layer_seconds > 0.0).then(|| LayerRows::collect(args, layer_seconds, &reports));
    if let Some(layers) = &layers {
        layers.print();
    }

    let correct = reports.iter().all(Report::correct);
    let result = Json::obj([
        ("claim", Json::Null),
        ("correct", Json::Bool(correct)),
        ("provenance", provenance(args, loadavg_start)),
        (
            "workloads",
            Json::Arr(reports.iter().map(Report::to_json).collect()),
        ),
        (
            "layers",
            layers.as_ref().map_or(Json::Null, LayerRows::to_json),
        ),
    ]);
    std::fs::write(args.out.join("result.json"), result.to_pretty())?;

    if single {
        // The contract's result line: end-to-end metrics untraced,
        // per-layer metrics traced. A layer value that is missing reads 0
        // and is counted in `layers_missing`.
        let r = &reports[0];
        let metrics =
            match &layers {
                Some(layers) => Json::Obj(
                    r.per_layer
                        .iter()
                        .map(|m| (m.name.to_owned(), m.to_json()))
                        .chain(layers.rows.iter().map(|(name, unit, v)| {
                            (name.clone(), metric_json(v.unwrap_or(0.0), unit))
                        }))
                        .collect(),
                ),
                None => Json::obj(r.end_to_end.iter().map(|m| (m.name, m.to_json()))),
            };
        let line = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(r.attempted)),
            ("failed", Json::Int(r.failed())),
            ("metrics", metrics),
        ]);
        println!("{}", line.to_line());
    }
    reports.iter().for_each(Report::complain);
    // Flagged windows fail only a full run; see `report::MAX_FLAGGED_WINDOWS`.
    Ok(correct && (single || !reports.iter().any(Report::invalid)))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(1);
        }
    }
}
