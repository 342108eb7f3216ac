//! The four named workloads. Later issues refer to them by these
//! names; rates, deadlines and client counts are constants, never
//! tuned at run time.

/// One traffic class of a workload: a catalog entry raced under one
/// deadline, on one connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Class {
    /// Class label in reports (`rt`, `batch`, or the catalog name).
    pub label: &'static str,
    /// Catalog workload the requests name on the wire.
    pub catalog: &'static str,
    /// Wire deadline; 0 is best-effort.
    pub deadline_ms: u32,
    /// Poisson arrival rate, requests per second (open loop only).
    pub rate: f64,
}

/// How the generator offers load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `clients` threads, one connection each, one request outstanding.
    Closed { clients: usize },
    /// One thread, one non-blocking connection per class, arrivals on a
    /// schedule fixed in advance; latency counts from the intended send.
    Open,
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Which layers it stresses and which it bypasses.
    pub why: &'static str,
    pub mode: Mode,
    /// Latency metrics are taken over `classes[0]`.
    pub classes: &'static [Class],
}

/// Replies of a fresh daemon discarded before the measured phase.
pub const WARMUP_REPLIES: usize = 2_000;

/// Windows the measured phase is cut into; every windowed metric is the
/// median of these.
pub const WINDOWS: usize = 6;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "overhead",
        why: "trivial alternatives do no work and one client never queues behind \
              another, so frame, reactor, pool wake, thread-per-alternative race, ring \
              and socket are the whole latency",
        // One client, not two: on the one CPU the windows are confined to
        // (see `e2e`'s `report::measure`) a second client adds no load the
        // first does not, only a convoy, which made the tail follow the
        // speed of the box two and a half times over.
        mode: Mode::Closed { clients: 1 },
        classes: &[Class {
            label: "trivial",
            catalog: "trivial",
            deadline_ms: 0,
            rate: 0.0,
        }],
    },
    Workload {
        name: "race",
        why: "three heavy-tailed sleeping alternatives: racing is the win and serving \
              overhead a small share, so codec, ring and reactor changes predict no movement",
        mode: Mode::Closed { clients: 2 },
        classes: &[Class {
            label: "lognormal",
            catalog: "lognormal",
            deadline_ms: CLOSED_DEADLINE_MS,
            rate: 0.0,
        }],
    },
    Workload {
        name: "cpu",
        why: "two CPU-bound, non-interruptible Prolog alternatives: losers burn the cores \
              winners need, so wasted speculation costs throughput",
        mode: Mode::Closed { clients: 2 },
        classes: &[Class {
            label: "prolog",
            catalog: "prolog",
            deadline_ms: CLOSED_DEADLINE_MS,
            rate: 0.0,
        }],
    },
    Workload {
        name: "burst",
        why: "open-loop Poisson arrivals of a fast class beside a slow one: queues form, so \
              run-queue order and workers blocked inside a race decide latency",
        mode: Mode::Open,
        classes: &[
            Class {
                label: "rt",
                catalog: "trivial",
                deadline_ms: RT_DEADLINE_MS,
                rate: 1_500.0,
            },
            Class {
                label: "batch",
                catalog: "bimodal",
                deadline_ms: BATCH_DEADLINE_MS,
                rate: BATCH_RATE,
            },
        ],
    },
];

/// Wire deadlines. Generous on purpose: the benchmark contract wants
/// workloads on which no operation fails at the parent commit, and this
/// shared 2-core box stalls — usually for tens of milliseconds, now and
/// then for seconds — which the 10 to 100 ms deadlines first proposed
/// turned into late replies in every run. A non-zero deadline still
/// takes the deadline code path (cancel token, EDF key), and `rt` still
/// sorts before `batch`.
/// The queueing signal is carried by `client.p99_us`, `client.mean_us`
/// and `client.within_slo_share`, not by deadline misses.
pub const CLOSED_DEADLINE_MS: u32 = 10_000;
pub const RT_DEADLINE_MS: u32 = 10_000;
pub const BATCH_DEADLINE_MS: u32 = 20_000;

/// `burst`'s slow class. At 400 req/s (about 70 % of the two workers) the
/// median `rt` request queued, and its latency swung by a third from run to
/// run with the speed of the box; at 250 req/s (about 45 %) the median
/// request finds a free worker and only the tail queues, which is the
/// part of the distribution `burst` is here to watch.
pub const BATCH_RATE: f64 = 250.0;

/// The latency a `burst` `rt` request is *meant* to meet (10 ms);
/// `client.within_slo_share` reports the share of class-0 replies inside
/// it on every workload. Never enforced on the wire.
pub const RT_SLO_US: u64 = 10_000;

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
