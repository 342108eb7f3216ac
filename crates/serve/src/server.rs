//! The daemon: a reactor front end bridging framed requests to the
//! worker pool.
//!
//! Flow of one request: the reactor ([`crate::reactor`], `poll(2)` over
//! every socket) decodes it and tries to enqueue its race on the
//! bounded [`WorkerPool`] — a refusal is an immediate `Overloaded`,
//! admission control at the door. A worker races the workload's
//! alternatives on a [`ThreadedEngine`] under a [`CancelToken`] carrying
//! the request's deadline (the paper's `alt_wait(timeout)`) and writes
//! the reply itself, in request order per connection; a race measured
//! short enough is raced by the reactor in place instead (*Run on the
//! shard* in [`crate::reactor`], which also has how a reply is
//! delivered).
//!
//! Concurrency cost model: an idle connection is a file descriptor and
//! a few hundred bytes of state — not a thread, and neither is an
//! outbound link to a peer: shard 0 polls those sockets among its own.
//! The daemon runs workers + shards OS threads (one reactor per shard —
//! [`run`] runs shard 0 on its caller, `altxd`'s main thread — and the
//! pool) however many clients are connected, plus at most one racer per
//! sibling alternative running at that moment: a worker or a shard runs
//! its race's favourite itself and the engine's process-wide race crew
//! runs the siblings on parked threads it reuses from race to race and
//! retires when they have been idle for half a second.
//!
//! Shutdown (local call or the `SHUTDOWN` opcode) drains as
//! [`crate::reactor`] says: no admitted request goes unanswered, and no
//! daemon thread outlives the drain (the crew's racers are the
//! process's; idle ones are gone half a second later).

use crate::frame::{Response, ALT_DEADLINE, ALT_FAILED, ALT_OK};
use crate::peer::{PeerConfig, PeerHandle, PeerLinks, PeerStatsTable};
use crate::placement::Placement;
use crate::pool::{PoolConfig, WorkerPool, DEFAULT_LANE_AGING, DEFAULT_SPIN};
use crate::reactor::{bind_reuseport, DaemonCtl, Reactor, ReactorShared};
use crate::remote::{InflightRemote, RemoteRaces};
use crate::sched::{Admission, HedgeConfig, HedgePolicy, Lanes};
use crate::telemetry::{Metric, Telemetry};
use crate::workload;
use altx::engine::{LaunchPlan, ThreadedEngine};
use altx::{BlockResult, CancelToken};
use altx_pager::{AddressSpace, PageSize};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads racing requests.
    pub workers: usize,
    /// Bounded run-queue depth; the shed threshold.
    pub queue_depth: usize,
    /// Adaptive hedging knobs; disabled by default (launch-all).
    pub hedge: HedgeConfig,
    /// Reactor shards. `1` (the default) runs the classic single
    /// reactor that owns the listener itself; `N > 1` runs N
    /// independent event loops, each accepting on its own
    /// `SO_REUSEPORT` listener; [`start`] fails where that bind does.
    pub shards: usize,
    /// Reply-ring slots per shard (at least 1): a bound, not an
    /// allocation. Each shard makes up to this many fixed buffers that
    /// winning replies encode straight into, each the first time a reply
    /// finds no idle one.
    pub ring_slots: usize,
    /// Capacity of one reply-ring slot, bytes (whole wire frame:
    /// 4-byte prefix + body). Replies that don't fit spill to the heap.
    pub ring_slot_bytes: usize,
    /// Cluster peering: peer addresses, exploration cadence, and the
    /// advertised identity. Empty (the default) keeps the daemon
    /// single-node — no placement, no outbound dials, no votes.
    pub peer: PeerConfig,
    /// Per-workload priority lanes for the run queues. The default
    /// single lane is scheduling-neutral — identical to no lanes.
    pub lanes: Lanes,
    /// Feasibility-based admission: shed a deadlined request on arrival
    /// when its deadline is provably unmeetable. Off by default.
    pub admission: bool,
    /// Work stealing between per-shard worker groups. Off by default;
    /// when on, the pool splits into one group per shard and a dry
    /// group's workers take the best entry from a sibling's queue.
    pub steal: bool,
    /// Starvation aging threshold for lower-priority lanes;
    /// `Duration::ZERO` means pure strict priority.
    pub lane_aging: Duration,
    /// Busy-wait budget before an idle stealing worker parks on its
    /// group's condvar. `Duration::ZERO` parks immediately.
    pub spin: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: available_workers(),
            queue_depth: 64,
            hedge: HedgeConfig::default(),
            shards: 1,
            ring_slots: DEFAULT_RING_SLOTS,
            ring_slot_bytes: DEFAULT_RING_SLOT_BYTES,
            peer: PeerConfig::default(),
            lanes: Lanes::single(),
            admission: false,
            steal: false,
            lane_aging: DEFAULT_LANE_AGING,
            spin: DEFAULT_SPIN,
        }
    }
}

/// Default bound on reply-ring slots per shard: deep enough that slots
/// are only exhausted when more replies are mid-write than a shard ever
/// has in flight at once. Slots are made on first use, so a shard holds
/// only as many as it has had replies in flight at once — at most
/// 256 KiB with default slots.
pub const DEFAULT_RING_SLOTS: usize = 256;

/// Default slot capacity: every fixed-size reply (OK, deadline, vote,
/// short errors) fits with room to spare; big text dumps (STATS,
/// catalog) take the counted spill path by design.
pub const DEFAULT_RING_SLOT_BYTES: usize = 1024;

/// Worker count matched to the host (at least 2).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .max(2)
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`ServerHandle::shutdown`] or send the `SHUTDOWN` opcode.
pub struct ServerHandle {
    addr: SocketAddr,
    daemon: Arc<Daemon>,
    /// The shard threads: every shard's from [`start`], all but shard
    /// 0's from [`run`].
    threads: Vec<JoinHandle<()>>,
}

/// Everything daemon-wide, behind the one `Arc` every reactor shard and
/// every queued race holds: the worker pool, the counters, the race
/// scheduler, the admission gate, the lane map, the control plane, and
/// the peer plane (origin-side race registry — and through it the
/// outbound send handle, the commit ledger and this node's advertised
/// identity —, executor-side in-flight table, placement policy).
pub(crate) struct Daemon {
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) sched: Arc<HedgePolicy>,
    /// Feasibility gate consulted before a deadlined request spends a
    /// queue slot; disabled gates admit everything.
    pub(crate) admission: Admission,
    /// Workload → priority-lane mapping for run-queue submissions.
    pub(crate) lanes: Lanes,
    pub(crate) ctl: DaemonCtl,
    pub(crate) races: Arc<RemoteRaces>,
    /// Executor-side in-flight remote alternatives (for `ELIMINATE`).
    pub(crate) inflight: InflightRemote,
    /// Local-vs-remote placement policy.
    pub(crate) placement: Placement,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared telemetry, live while the daemon runs.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.daemon.telemetry)
    }

    /// Requests shutdown and blocks until the daemon has drained every
    /// in-flight race and joined every thread.
    pub fn shutdown(self) {
        self.daemon.ctl.request_shutdown();
        self.wait();
    }

    /// Blocks until the daemon shuts down (e.g. via the `SHUTDOWN`
    /// opcode from a client).
    pub fn wait(mut self) {
        for h in self.threads.drain(..) {
            h.join().expect("front-end thread exits cleanly");
        }
    }
}

/// Binds and starts the daemon, returning once it is accepting.
///
/// The threads it starts — one reactor per shard, the pool's workers —
/// each drop their own timer slack to 1 ns first thing (see
/// [`crate::reactor`], *Clocks*); the calling thread is left as it was.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let (addr, daemon, reactors) = assemble(config)?;
    let threads = reactors.into_iter().map(spawn).collect();
    Ok(ServerHandle {
        addr,
        daemon,
        threads,
    })
}

/// Binds the daemon and serves on the calling thread until it drains:
/// shards 1.. get threads of their own, `ready` is shown the handle,
/// shard 0 runs here — the loop [`start`] gives a thread, 1 ns timer
/// slack included — and then the other shards are joined.
///
/// `run` is the daemon's whole process (`altxd`'s `main`), so before it
/// spawns a thread it has every thread allocate from one malloc arena
/// (docs/INTERNALS.md § *Resident memory*); [`start`], which tests and
/// library callers share a process with, leaves the allocator alone.
pub fn run(config: ServerConfig, ready: impl FnOnce(&ServerHandle)) -> io::Result<()> {
    crate::reactor::one_malloc_arena();
    let (addr, daemon, mut reactors) = assemble(config)?;
    let shard0 = reactors.remove(0);
    let handle = ServerHandle {
        addr,
        daemon,
        threads: reactors.into_iter().map(spawn).collect(),
    };
    ready(&handle);
    shard0.run();
    handle.wait();
    Ok(())
}

/// Runs one shard on a thread of its own, named after it.
fn spawn(reactor: Reactor) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("altxd-reactor-{}", reactor.shard_idx))
        .spawn(move || reactor.run())
        .expect("spawn reactor")
}

/// Everything [`start`] and [`run`] build before a shard runs: the bound
/// address, the daemon-wide state (its pool already running), and the
/// shard loops, shard 0 — the one that owns the peer links — first,
/// each ready to be `run` on a thread.
fn assemble(config: ServerConfig) -> io::Result<(SocketAddr, Arc<Daemon>, Vec<Reactor>)> {
    let addrs: Vec<SocketAddr> = config.addr.to_socket_addrs()?.collect();
    let n_shards = config.shards.max(1);

    // Front-door topology. Single shard: one classic listener, owned
    // by the lone reactor. Sharded: one SO_REUSEPORT listener *per
    // shard*, so every accept lands on the thread that will serve the
    // connection and the kernel's hash does the balancing — or no
    // daemon: there is no second topology to fall back to.
    let listeners = if n_shards == 1 {
        let listener = TcpListener::bind(&addrs[..])?;
        listener.set_nonblocking(true)?;
        vec![listener]
    } else {
        bind_shard_listeners(&addrs, n_shards).map_err(|e| {
            let why = format!(
                "--shards {n_shards}: cannot bind one SO_REUSEPORT listener per shard: {e}"
            );
            io::Error::new(e.kind(), why)
        })?
    };
    let addr = listeners[0].local_addr()?;

    let telemetry = Arc::new(Telemetry::new());

    // Stealing is what splits the pool into per-shard worker groups;
    // without it a single group (the classic FIFO shape) avoids ever
    // stranding capacity behind an empty group queue.
    let pool = Arc::new(WorkerPool::with_config(PoolConfig {
        workers: config.workers,
        queue_depth: config.queue_depth,
        groups: if config.steal { n_shards } else { 1 },
        lanes: config.lanes.count(),
        steal: config.steal,
        lane_aging: config.lane_aging,
        spin: config.spin,
        pin_cores: None,
    }));
    telemetry.attach_pool(pool.stats());
    telemetry.attach_lane_names(config.lanes.names().to_vec());
    let sched = Arc::new(HedgePolicy::new(config.hedge));
    telemetry.attach_catalog(Arc::clone(sched.catalog()));
    let admission = Admission::new(config.admission, Arc::clone(sched.catalog()));

    // Every shard's delivery handle and wake channel, before anything
    // that must wake a shard is built.
    let homes = (0..n_shards)
        .map(|_| ReactorShared::new(config.ring_slots, config.ring_slot_bytes))
        .collect::<io::Result<Vec<_>>>()?;
    let ctl = DaemonCtl::new(homes.iter().map(|(home, _)| Arc::clone(home)).collect());

    // The peer plane exists even with no peers configured: this node
    // may still be asked to *execute* shipped alternatives, and the
    // results ride home over its own outbound (dial-on-demand) links.
    // With an empty peer list the placement never ships, so the single-
    // node request path is untouched: shard 0 holds the links, and
    // polls no socket and reads no clock for them until one exists.
    let advertise = config
        .peer
        .advertise
        .clone()
        .unwrap_or_else(|| addr.to_string());
    let peer_stats = Arc::new(PeerStatsTable::new(&config.peer.peers));
    telemetry.attach_peers(Arc::clone(&peer_stats));
    let races = Arc::new(RemoteRaces::new(
        Arc::clone(&telemetry),
        Arc::clone(&sched),
        Arc::clone(&pool),
        PeerHandle::new(peer_stats, Arc::clone(&homes[0].0)),
        advertise,
    ));
    let mut links = Some(PeerLinks::new(Arc::clone(&races), &config.peer));
    let daemon = Arc::new(Daemon {
        pool,
        telemetry,
        sched,
        admission,
        lanes: config.lanes.clone(),
        ctl,
        races,
        inflight: InflightRemote::default(),
        placement: Placement::new(config.peer.explore_every),
    });

    // Each reactor takes its own listener (the lone one, or its
    // reuseport sibling) and accepts directly; shard 0 takes the links.
    let mut shard_stats = Vec::with_capacity(n_shards);
    let mut reactors = Vec::with_capacity(n_shards);
    for (i, (listener, home)) in listeners.into_iter().zip(homes).enumerate() {
        let (reactor, stats) = Reactor::new(listener, Arc::clone(&daemon), i, home, links.take());
        reactors.push(reactor);
        shard_stats.push(stats);
    }
    daemon.telemetry.attach_shards(shard_stats);

    Ok((addr, daemon, reactors))
}

/// Binds one `SO_REUSEPORT` listener per shard on the same address.
/// The first bind resolves an ephemeral port (`:0`); siblings bind the
/// resolved address so they all share the one accept queue group.
fn bind_shard_listeners(addrs: &[SocketAddr], n_shards: usize) -> io::Result<Vec<TcpListener>> {
    let mut last_err = io::Error::new(io::ErrorKind::InvalidInput, "no address resolved");
    let first = 'bound: {
        for &a in addrs {
            match bind_reuseport(a) {
                Ok(l) => break 'bound l,
                Err(e) => last_err = e,
            }
        }
        return Err(last_err);
    };
    let resolved = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..n_shards {
        listeners.push(bind_reuseport(resolved)?);
    }
    for l in &listeners {
        l.set_nonblocking(true)?;
    }
    Ok(listeners)
}

/// The cancel token a request's wire deadline implies, the budget
/// counted from `start`. `deadline_ms == 0` is best-effort end to end:
/// no cancel deadline here, no EDF deadline in the run queue, and the
/// admission gate waves it through — the one documented meaning of zero.
pub(crate) fn deadline_token(start: Instant, deadline_ms: u32) -> CancelToken {
    if deadline_ms > 0 {
        CancelToken::with_deadline_at(start + Duration::from_millis(u64::from(deadline_ms)))
    } else {
        CancelToken::new()
    }
}

/// How many alternatives catalog workload `widx` races (zero if unknown).
fn alternatives(widx: usize) -> usize {
    workload::CATALOG
        .get(widx)
        .map_or(0, |spec| spec.alternatives())
}

/// The race core all three entry points share: build the block —
/// `stubs` marks the alternatives whose bodies are not constructed,
/// because the scheduler pruned them — race it on a [`ThreadedEngine`]
/// over a fresh workspace under `plan` (which leaves out whatever
/// another node runs) and `token`, time it from `start`, and count
/// contained panics. Returns
/// the result and its latency in µs; `None` means the workload could
/// not be built.
fn race(
    telemetry: &Telemetry,
    widx: usize,
    arg: u64,
    start: Instant,
    token: &CancelToken,
    plan: &LaunchPlan,
    stubs: Option<&[bool]>,
) -> Option<(BlockResult<u64>, u64)> {
    let spec = workload::CATALOG.get(widx)?;
    let block = workload::build_pruned(spec.name, arg, stubs)?;
    let mut workspace = AddressSpace::zeroed(4096, PageSize::K4);
    let result = ThreadedEngine::new().execute_planned(&block, &mut workspace, token, plan);
    let latency_us = start.elapsed().as_micros() as u64;
    telemetry.add(Metric::AltPanics, result.panics as u64);
    Some((result, latency_us))
}

/// Counts what a scheduler-planned race saved and spent: a pruned stub
/// that never launched is suppressed like any other unlaunched hedge,
/// and so is the sibling of a lead that decided alone. An alternative
/// the plan excludes (shipped to another node) is neither.
fn count_hedges(telemetry: &Telemetry, plan: &LaunchPlan, result: &BlockResult<u64>) {
    telemetry.on_launches_suppressed(result.suppressed as u64);
    telemetry.add(
        Metric::RacesFavouriteFirst,
        u64::from(plan.lead().is_some()),
    );
    // Hedges that launched = those the plan held back minus those the
    // decision suppressed (saturating: a t=0 sibling the decision
    // reaches first is suppressed too — a lead's, or one queued under a
    // plan's width).
    telemetry.add(
        Metric::HedgesLaunched,
        plan.staggered().saturating_sub(result.suppressed) as u64,
    );
}

/// The reply a finished race owes its client.
fn reply_for(result: BlockResult<u64>, latency_us: u64, token: &CancelToken) -> Response {
    match (result.winner, result.value) {
        (Some(w), Some(value)) => Response::Ok {
            winner: w as u32,
            winner_name: result.winner_name.unwrap_or_else(|| format!("alt{w}")),
            latency_us,
            value,
        },
        _ if token.deadline_expired() => Response::DeadlineExceeded { latency_us },
        _ => Response::Error {
            message: "no alternative succeeded".to_owned(),
        },
    }
}

/// Executes the race for one admitted request (worker context) and
/// records its outcome: the winner's latency and win count update the
/// interned statistics the *next* plan reads, and the completed /
/// deadline / error counters account for the reply.
pub(crate) fn run_race(
    telemetry: &Telemetry,
    sched: &HedgePolicy,
    widx: usize,
    deadline_ms: u32,
    arg: u64,
) -> Response {
    // One instant per request: the deadline and the reported latency
    // are read off the same clock start, so a `DeadlineExceeded` reply
    // never reports less than the deadline it exceeded.
    let start = Instant::now();
    let token = deadline_token(start, deadline_ms);
    // A pruned body is never constructed; if the favourite answers
    // inside its envelope the stub never launches either.
    let (plan, prune) = sched.plan_pruned(widx, alternatives(widx));
    let stubs = prune.as_deref();
    let Some((result, latency_us)) = race(telemetry, widx, arg, start, &token, &plan, stubs) else {
        telemetry.on_error();
        return Response::UnknownWorkload;
    };
    count_hedges(telemetry, &plan, &result);
    // Every outcome feeds the service-time table the admission gate
    // reads — timeouts included, or infeasibility could never be proven.
    sched.record_service(widx, latency_us);
    if deadline_ms > 0 && latency_us > u64::from(deadline_ms) * 1000 {
        telemetry.add(Metric::DeadlineMisses, 1);
    }
    // The win table is fed the winner's own running time, τ(best): the
    // race's latency has the wake-up and the switches in it, which are
    // what the favourite-first rule weighs the body against.
    let body_us = result
        .winner_body
        .map_or(latency_us, |body| body.as_micros() as u64);
    let reply = reply_for(result, latency_us, &token);
    match &reply {
        Response::Ok { winner, .. } => {
            let w = *winner as usize;
            telemetry.on_completed(latency_us);
            sched.record_win(widx, w, body_us);
            if !plan.offset(w).is_zero() {
                telemetry.add(Metric::HedgeWins, 1);
            }
        }
        Response::DeadlineExceeded { .. } => telemetry.on_deadline_exceeded(),
        _ => telemetry.on_error(),
    }
    reply
}

/// Executes the *local leg* of a distributed race: every alternative
/// the placement policy did not ship (`skip`; it never ships the
/// favourite, so at least one real body always stays local), raced
/// under the shared cancel token so a remote commit eliminates it
/// mid-flight.
///
/// Unlike [`run_race`] this records only engine-level costs.
/// Race-outcome accounting — completed, win, deadline, error — belongs
/// to the remote-race registry, which sees local and remote legs
/// together and records each outcome exactly once at commit or failure.
pub(crate) fn run_subrace(
    telemetry: &Telemetry,
    sched: &HedgePolicy,
    widx: usize,
    arg: u64,
    token: &CancelToken,
    skip: &[bool],
) -> Response {
    let (plan, prune) = sched.plan_pruned(widx, alternatives(widx));
    // Shipped alternatives are not in this leg's race at all.
    let plan = plan.excluding(skip);
    let start = Instant::now();
    match race(telemetry, widx, arg, start, token, &plan, prune.as_deref()) {
        Some((result, latency_us)) => {
            count_hedges(telemetry, &plan, &result);
            reply_for(result, latency_us, token)
        }
        None => Response::UnknownWorkload,
    }
}

/// Executes one shipped alternative on behalf of a remote origin
/// (worker context on the *executor* node): the named alternative runs
/// alone on this thread — every sibling is excluded, so no racer is
/// called — under a token the origin's `ELIMINATE` can cancel. Returns
/// `(status, value, latency_us)` for the `ALT_RESULT` frame.
fn run_remote_alt(
    telemetry: &Telemetry,
    widx: usize,
    alt_idx: u32,
    arg: u64,
    token: &CancelToken,
) -> (u8, u64, u64) {
    let alt = alt_idx as usize;
    let n = alternatives(widx);
    if alt >= n {
        return (ALT_FAILED, 0, 0);
    }
    let plan = LaunchPlan::only(n, alt);
    let start = Instant::now();
    let Some((result, latency_us)) = race(telemetry, widx, arg, start, token, &plan, None) else {
        return (ALT_FAILED, 0, 0);
    };
    match (result.winner, result.value) {
        (Some(w), Some(value)) if w == alt => (ALT_OK, value, latency_us),
        _ if token.deadline_expired() => (ALT_DEADLINE, 0, latency_us),
        _ => (ALT_FAILED, 0, latency_us),
    }
}

/// What one alternative run alone reports: `(status, value, µs)`.
pub(crate) type AltOutcome = (u8, u64, u64);

/// The pool job "run alternative `alt_idx` of workload `widx` alone,
/// then `report` how it went" — an executor's `EXEC_ALT`, and the
/// origin's local redo of a leg that blew its deadline. Returns the
/// `work` / `done` pair for `WorkerPool::try_submit_work_at`: the
/// alternative runs under `token` with a panic contained, and `report`
/// runs exactly once for an admitted job — with `ALT_FAILED` when the
/// body panicked or the pool dropped the job unrun, so whoever waits on
/// the alternative hears a failed guard rather than nothing.
pub(crate) fn alt_job(
    telemetry: Arc<Telemetry>,
    widx: usize,
    alt_idx: u32,
    arg: u64,
    token: CancelToken,
    report: impl FnOnce(AltOutcome) + Send + 'static,
) -> (
    impl FnOnce() -> AltOutcome + Send + 'static,
    impl FnOnce(Option<AltOutcome>) + Send + 'static,
) {
    const LOST: AltOutcome = (ALT_FAILED, 0, 0);
    let work = move || {
        let run = || run_remote_alt(&telemetry, widx, alt_idx, arg, &token);
        catch_unwind(AssertUnwindSafe(run)).unwrap_or(LOST)
    };
    (work, move |outcome| report(outcome.unwrap_or(LOST)))
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use crate::reactor::timer_slack_ns;

    /// Runs `body` on a thread of its own and reads that thread's timer
    /// slack before and after.
    fn slack_around(body: impl FnOnce() + Send + 'static) -> (Option<u64>, Option<u64>) {
        let probe = move || {
            let before = timer_slack_ns();
            body();
            (before, timer_slack_ns())
        };
        std::thread::spawn(probe).join().expect("the loop returns")
    }

    /// The reactor tightens itself: whatever thread runs a shard — shard
    /// 0 with the peer links among them — has a 1 ns timer slack from
    /// then on, and the thread that built it does not. (The pool's
    /// workers and the racers they spawn: `tests/timer_slack.rs`.)
    #[test]
    fn a_shard_run_tightens_the_thread_it_runs_on() {
        let mine = timer_slack_ns();
        assert!(mine.is_some_and(|ns| ns > 1), "the default, not {mine:?}");
        let (_, daemon, mut reactors) = assemble(ServerConfig::default()).expect("assemble");
        // Draining before the first look: the loop sets itself up,
        // finds nothing to wait for and returns — the last shard out
        // joins the pool.
        daemon.ctl.request_shutdown();
        let reactor = reactors.pop().expect("one shard");
        assert_eq!(slack_around(move || reactor.run()), (mine, Some(1)));
        assert_eq!(timer_slack_ns(), mine, "the building thread keeps its own");
    }
}
