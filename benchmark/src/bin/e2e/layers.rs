//! The other half of a traced run: spawning the `layers` binary and
//! lining its metrics up by name.

use std::path::Path;
use std::process::{Command, Stdio};

/// Per-layer metric names the `layers` binary is expected to print; the
/// contract wants every one reported on every traced run, so a binary
/// that is missing or no longer compiles yields zeros plus a non-zero
/// `layers_missing`.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("frame.req_encode_ns", "ns"),
    ("frame.req_decode_ns", "ns"),
    ("frame.req_decode_burst_ns", "ns"),
    ("frame.resp_encode_ns", "ns"),
    ("frame.resp_decode_ns", "ns"),
    ("ring.encode_hit_ns", "ns"),
    ("ring.encode_spill_ns", "ns"),
    ("bufpool.get_put_ns", "ns"),
    ("sched.admit_ns", "ns"),
    ("sched.plan_ns", "ns"),
    ("sched.plan_hedged_ns", "ns"),
    ("sched.record_ns", "ns"),
    ("pool.wake_us", "us"),
    ("pool.job_ns", "ns"),
    ("pool.edf_job_ns", "ns"),
    ("pool.job_2p_ns", "ns"),
    ("pool.queue_wait_p50_us", "us"),
    ("pool.queue_wait_p99_us", "us"),
    ("pool.busy_share", "ratio"),
    ("engine.race_us.trivial", "us"),
    ("engine.race_us.lognormal", "us"),
    ("engine.race_us.bimodal", "us"),
    ("engine.race_us.prolog", "us"),
    ("engine.overhead_us.trivial", "us"),
    ("engine.overhead_us.lognormal", "us"),
    ("engine.overhead_us.bimodal", "us"),
    ("engine.overhead_us.prolog", "us"),
    ("engine.pi.trivial", "ratio"),
    ("engine.pi.lognormal", "ratio"),
    ("engine.pi.bimodal", "ratio"),
    ("engine.pi.prolog", "ratio"),
    ("pager.zeroed_ns", "ns"),
    ("pager.cow_fork_ns", "ns"),
    ("pager.write_fault_ns", "ns"),
    ("pager.absorb_ns", "ns"),
    ("workload.build_ns.trivial", "ns"),
    ("workload.build_ns.lognormal", "ns"),
    ("workload.build_ns.prolog", "ns"),
    ("workload.solo_best_us.trivial", "us"),
    ("workload.solo_best_us.lognormal", "us"),
    ("workload.solo_best_us.prolog", "us"),
    ("workload.solo_mean_us.trivial", "us"),
    ("workload.solo_mean_us.lognormal", "us"),
    ("workload.solo_mean_us.prolog", "us"),
    ("telemetry.on_completed_ns", "ns"),
    ("telemetry.render_stats_us", "us"),
    ("telemetry.render_prom_us", "us"),
    ("commit.vote_ns", "ns"),
    ("commit.revote_ns", "ns"),
    ("commit.tally3_ns", "ns"),
    ("consensus.claim_ns", "ns"),
    ("consensus.sim3_us", "us"),
    ("loopback.rtt_us", "us"),
    ("trace.pipeline_p50_us.trivial", "us"),
    ("trace.pipeline_p50_us.lognormal", "us"),
    ("trace.pipeline_p50_us.bimodal", "us"),
    ("trace.pipeline_p50_us.prolog", "us"),
    ("trace.stage_sum_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Runs the `layers` binary and collects its `metric\t<name>\t<value>`
/// lines; its other output goes to stderr. `Err` carries the reason no
/// layer metric could be produced.
pub fn run_layers(
    layers: Option<&Path>,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<Vec<(String, f64)>, String> {
    let path = layers.ok_or("no layers binary was built for this commit")?;
    if !path.exists() {
        return Err(format!(
            "{} does not exist (it did not build)",
            path.display()
        ));
    }
    let output = Command::new(path)
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--trace-out")
        .arg(out.join("trace.json"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", path.display()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut metrics = Vec::new();
    for line in text.lines() {
        let mut parts = line.split('\t');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("metric"), Some(name), Some(value)) => {
                if let Ok(v) = value.parse() {
                    metrics.push((name.to_owned(), v));
                }
            }
            _ => eprintln!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!("{} exited with {}", path.display(), output.status));
    }
    Ok(metrics)
}

/// The layer metrics in table order, `None` where `layers` gave nothing.
pub fn layer_table(
    got: &Result<Vec<(String, f64)>, String>,
) -> Vec<(&'static str, &'static str, Option<f64>)> {
    LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            let v = got
                .as_ref()
                .ok()
                .and_then(|m| m.iter().find(|(n, _)| n == name))
                .map(|(_, v)| *v);
            (*name, *unit, v)
        })
        .collect()
}
