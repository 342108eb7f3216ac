//! Cluster peering: outbound links to other `altxd` nodes.
//!
//! The paper's §4.4 remote execution needs a control plane: each daemon
//! keeps one persistent outbound connection per configured `--peer`,
//! ships `EXEC_ALT` / `COMMIT_VOTE` / `ELIMINATE` / `ALT_RESULT` frames
//! over it, and measures the link (round-trip EWMA, liveness) so the
//! placement model works from observations instead of guesses.
//!
//! All outbound traffic runs on **one dedicated thread** ([`PeerNet`]):
//! a mini-reactor that polls every link plus a self-pipe, exactly the
//! shape of the front-end shards but pointed outward. Reactor shards
//! and pool workers never touch a peer socket — they push a [`Cmd`]
//! onto the [`PeerHandle`] and write one wake byte: a command queue
//! and a self-pipe, drained by the one thread that owns the sockets.
//!
//! Failure model (the part the paper hand-waves and a server cannot):
//!
//! * A link that refuses or drops is **failed fast**: an `EXEC_ALT`
//!   that cannot be sent converts to a refused alternative at the
//!   origin immediately, a `COMMIT_VOTE` converts to a denial. No
//!   request path ever blocks on a dead peer.
//! * A link that dies with requests in flight fails every pending tag
//!   the same way, then tells the remote-race registry the peer is down
//!   so alternatives already *acked* by that peer convert to failed
//!   guards too ([`crate::remote::RaceTable::peer_down`]).
//! * Reconnection is automatic with doubling backoff (50 ms → 2 s);
//!   every successful re-dial after a first connect counts in the
//!   per-peer `reconnects` counter.
//! * A link that is *up but silent* — the one-way partition TCP keeps
//!   alive — is caught by the health lifecycle: the thread heartbeats
//!   every configured link with a `PEER_STATS` frame, and a peer whose
//!   replies stop ages Up → Suspect → Quarantined
//!   ([`PeerHealth`]). Placement and voter freezing both read
//!   [`PeerStatsTable::up_peers`], which only lists healthy peers, so
//!   a Suspect peer stops receiving alternatives without its TCP link
//!   being torn down. Heartbeats keep flowing as probes; the first
//!   reply readmits the peer to Up. A link silent long enough to
//!   quarantine is reset and redialled — the silence may be the
//!   stream's, not the peer's (a decoder that lost sync answers
//!   nothing, ever) — once per quarantine span while it stays silent;
//!   the redial alone readmits nobody.
//! * On re-dial after a failure the link replays the `ELIMINATE`s that
//!   were still unacknowledged when it died and sends a `RECONCILE`
//!   watermark, so a healed peer kills zombie executions instead of
//!   racing ghosts (partition-heal reconciliation).
//!
//! Replies on a link are correlated to requests by order — the framed
//! protocol answers every request exactly once, in order, so a FIFO of
//! [`SendTag`]s per link is a complete correlation table, and the
//! request→reply time of *any* tag is an rtt sample for the EWMA.
//! Every pending entry is additionally stamped with the link's
//! *reconnect generation*; a reply whose stamp does not match the
//! live generation is stale pre-reconnect traffic and is dropped
//! (counted as `peer_stale_replies`) rather than matched to a
//! post-reconnect request.
//!
//! All link I/O runs through the seeded network chaos shim
//! (`altx::faults` sites `peer.link.<addr>.send` / `.recv`): with a
//! fault plan installed, frames can be dropped, delayed, duplicated,
//! truncated, or swallowed by a one-way partition, deterministically
//! per seed. With no plan installed the shim is one relaxed atomic
//! load per frame.

use crate::frame::{FrameDecoder, Request, Response};
use crate::placement::Placement;
use crate::reactor::{poll_fds, wake_pair, DaemonCtl, PollFd, WakeRx, WakeTx, POLLIN, POLLOUT};
use crate::remote::{Event, InflightRemote, RaceTable, RemoteRaces};
use crate::telemetry::{Metric, Telemetry};
use altx::faults::{self, NetFault};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Peering knobs, carried in [`crate::ServerConfig`]. An empty peer
/// list (the default) disables remote dispatch entirely: the placement
/// never ships, and the peer thread idles on its wake pipe.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Peer daemon addresses (`host:port`), one outbound link each.
    pub peers: Vec<String>,
    /// Force one remote dispatch every N races so link statistics stay
    /// live even when the model prefers local (0 disables exploration).
    pub explore_every: u64,
    /// Address advertised to peers as this node's identity (where
    /// results and votes come back to). Defaults to the bound listen
    /// address — override it when the bind address is not routable.
    pub advertise: Option<String>,
    /// Heartbeat cadence on configured links, in milliseconds (0
    /// disables the health lifecycle entirely).
    pub heartbeat_ms: u64,
    /// Silence threshold before a peer is suspected, in milliseconds;
    /// a peer silent for twice this long is quarantined.
    pub suspect_ms: u64,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            peers: Vec::new(),
            explore_every: 16,
            advertise: None,
            heartbeat_ms: 500,
            suspect_ms: 1500,
        }
    }
}

/// First re-dial delay after a link failure.
const BACKOFF_INITIAL: Duration = Duration::from_millis(50);
/// Backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(2);
/// Dial timeout: a peer that cannot complete a TCP handshake in this
/// budget is down for placement purposes.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(50);
/// Commit-ledger slots older than this are swept (a race never lives
/// anywhere near this long; the TTL only bounds memory).
const LEDGER_TTL: Duration = Duration::from_secs(300);
/// How often the ledger sweep runs.
const SWEEP_EVERY: Duration = Duration::from_secs(5);
/// Queued fire-and-forget frames kept per down link before the oldest
/// are dropped.
const MAX_QUEUED: usize = 256;
/// Idle poll backstop for the peer thread.
const PEER_BACKSTOP_MS: i32 = 250;

/// A configured peer's health state. TCP liveness (`up`) and health
/// are orthogonal: a one-way partition leaves the socket connected
/// while replies stop, which is exactly what this state machine
/// catches. Only an `Up` peer receives alternatives or freezes into a
/// race's voter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PeerHealth {
    /// Replying within the suspicion threshold.
    Up = 0,
    /// Silent past the suspicion threshold: no new work is shipped,
    /// but nothing is torn down — a reply restores `Up`.
    Suspect = 1,
    /// Silent past twice the threshold. The link is reset so probes
    /// flow on a clean stream; the first reply restores `Up`.
    Quarantined = 2,
}

impl PeerHealth {
    fn from_u8(v: u8) -> PeerHealth {
        match v {
            1 => PeerHealth::Suspect,
            2 => PeerHealth::Quarantined,
            _ => PeerHealth::Up,
        }
    }

    /// This state after `silent` without a reply, against the suspicion
    /// threshold `suspect` (zero disables ageing): `Quarantined` from
    /// twice the threshold on, `Suspect` from the threshold on for a
    /// peer that was `Up`. Ageing never readmits — only a reply does.
    pub fn aged(self, silent: Duration, suspect: Duration) -> PeerHealth {
        if suspect.is_zero() {
            self
        } else if silent >= suspect * 2 {
            PeerHealth::Quarantined
        } else if silent >= suspect && self == PeerHealth::Up {
            PeerHealth::Suspect
        } else {
            self
        }
    }

    /// Lower-case label for telemetry pages.
    pub fn label(self) -> &'static str {
        match self {
            PeerHealth::Up => "up",
            PeerHealth::Suspect => "suspect",
            PeerHealth::Quarantined => "quarantined",
        }
    }
}

/// Live counters for one configured peer link. The peer thread is the
/// only writer of `up`/`rtt`/`health`/load; dispatch/win counters are
/// bumped from reactor shards and the registry. Everything is relaxed
/// atomics — telemetry reads need eventual consistency only.
#[derive(Debug)]
pub struct PeerStat {
    addr: String,
    up: AtomicBool,
    health: AtomicU8,
    rtt_ewma_us: AtomicU64,
    dispatched: AtomicU64,
    wins: AtomicU64,
    reconnects: AtomicU64,
    quarantines: AtomicU64,
    load_queued: AtomicU64,
    load_busy: AtomicU64,
    load_workers: AtomicU64,
}

impl PeerStat {
    fn new(addr: String) -> Self {
        PeerStat {
            addr,
            up: AtomicBool::new(false),
            health: AtomicU8::new(PeerHealth::Up as u8),
            rtt_ewma_us: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            wins: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            load_queued: AtomicU64::new(0),
            load_busy: AtomicU64::new(0),
            load_workers: AtomicU64::new(0),
        }
    }

    /// The peer's configured address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// True while the outbound link is connected.
    pub fn up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    /// Round-trip EWMA in microseconds (0 until the first sample).
    pub fn rtt_ewma_us(&self) -> u64 {
        self.rtt_ewma_us.load(Ordering::Relaxed)
    }

    /// Alternatives shipped to this peer.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Races won by an alternative this peer executed.
    pub fn wins(&self) -> u64 {
        self.wins.load(Ordering::Relaxed)
    }

    /// Successful re-dials after the first connect.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// The peer's health state.
    pub fn health(&self) -> PeerHealth {
        PeerHealth::from_u8(self.health.load(Ordering::Relaxed))
    }

    /// Times this peer entered [`PeerHealth::Quarantined`].
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }

    /// Last heartbeat-reported load: `(queued, busy, workers)`. All
    /// zero until the first heartbeat reply.
    pub fn load(&self) -> (u64, u64, u64) {
        (
            self.load_queued.load(Ordering::Relaxed),
            self.load_busy.load(Ordering::Relaxed),
            self.load_workers.load(Ordering::Relaxed),
        )
    }

    /// Sets the health state, counting an *entry* into quarantine.
    fn set_health(&self, h: PeerHealth) {
        let prev = self.health.swap(h as u8, Ordering::Relaxed);
        if h == PeerHealth::Quarantined && prev != PeerHealth::Quarantined as u8 {
            self.quarantines.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn set_load(&self, queued: u64, busy: u64, workers: u64) {
        self.load_queued.store(queued, Ordering::Relaxed);
        self.load_busy.store(busy, Ordering::Relaxed);
        self.load_workers.store(workers, Ordering::Relaxed);
    }

    /// Records one request→reply round trip (EWMA, α = 0.2).
    fn observe_rtt(&self, sample_us: u64) {
        let old = self.rtt_ewma_us.load(Ordering::Relaxed);
        let next = if old == 0 {
            sample_us
        } else {
            (old * 4 + sample_us) / 5
        };
        self.rtt_ewma_us.store(next.max(1), Ordering::Relaxed);
    }

    /// Counts one alternative shipped to this peer.
    pub(crate) fn note_dispatched(&self) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one race won by this peer's alternative.
    pub(crate) fn note_win(&self) {
        self.wins.fetch_add(1, Ordering::Relaxed);
    }
}

/// The fixed per-peer counter table, one entry per configured peer,
/// shared by the peer thread, the reactor shards, the registry, and
/// telemetry.
#[derive(Debug, Default)]
pub struct PeerStatsTable {
    peers: Vec<Arc<PeerStat>>,
}

impl PeerStatsTable {
    /// One zeroed entry per configured peer address.
    pub fn new(addrs: &[String]) -> Self {
        PeerStatsTable {
            peers: addrs
                .iter()
                .map(|a| Arc::new(PeerStat::new(a.clone())))
                .collect(),
        }
    }

    /// Every configured peer's counters.
    pub fn peers(&self) -> &[Arc<PeerStat>] {
        &self.peers
    }

    /// Counters for one peer address.
    pub fn by_addr(&self, addr: &str) -> Option<&Arc<PeerStat>> {
        self.peers.iter().find(|p| p.addr == addr)
    }

    /// One shippable peer, as the placement model sees it: link rtt
    /// plus the load figures from its last heartbeat reply.
    pub fn up_peers(&self) -> Vec<PeerLoad> {
        self.peers
            .iter()
            .filter(|p| p.up() && p.health() == PeerHealth::Up)
            .map(|p| {
                let (queued, busy, workers) = p.load();
                PeerLoad {
                    addr: p.addr.clone(),
                    rtt_us: p.rtt_ewma_us().max(1),
                    queued,
                    busy,
                    workers,
                }
            })
            .collect()
    }

    /// Sum of per-peer reconnect counters.
    pub fn total_reconnects(&self) -> u64 {
        self.peers.iter().map(|p| p.reconnects()).sum()
    }

    /// Sum of per-peer quarantine counters.
    pub fn total_quarantines(&self) -> u64 {
        self.peers.iter().map(|p| p.quarantines()).sum()
    }

    /// Peers whose link is up *and healthy* right now — the count that
    /// gates placement and voter freezing.
    pub fn peers_up(&self) -> u64 {
        self.peers
            .iter()
            .filter(|p| p.up() && p.health() == PeerHealth::Up)
            .count() as u64
    }

    /// The `PEER_STATS` text body.
    pub fn render(&self) -> String {
        let mut out = String::from("altxd peers\n");
        for p in &self.peers {
            let (queued, busy, workers) = p.load();
            out.push_str(&format!(
                "  peer {}  up {}  health {}  rtt_us {}  dispatched {}  wins {}  reconnects {}  \
                 quarantines {}  peer_load {}/{}/{}\n",
                p.addr,
                u8::from(p.up()),
                p.health().label(),
                p.rtt_ewma_us(),
                p.dispatched(),
                p.wins(),
                p.reconnects(),
                p.quarantines(),
                queued,
                busy,
                workers
            ));
        }
        out
    }
}

/// One healthy peer as seen by the placement model: link rtt plus the
/// queue depth and busy-worker count from its last heartbeat reply
/// (zeros until the first reply — an unknown peer is assumed idle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerLoad {
    /// The peer's configured address.
    pub addr: String,
    /// Round-trip EWMA in microseconds (floored at 1).
    pub rtt_us: u64,
    /// Jobs queued at the peer, per its last heartbeat.
    pub queued: u64,
    /// Workers busy at the peer, per its last heartbeat.
    pub busy: u64,
    /// The peer's worker count, per its last heartbeat.
    pub workers: u64,
}

/// What an outbound frame was *for* — pushed onto the link's FIFO when
/// the frame is sent, popped when its in-order reply arrives, failed
/// when the link dies first.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SendTag {
    /// An `EXEC_ALT` whose ack decides admitted-vs-refused.
    ExecAlt {
        /// Race the shipped alternative belongs to.
        race_id: u64,
        /// Which alternative was shipped.
        alt_idx: u32,
    },
    /// A `COMMIT_VOTE` whose reply carries the grant.
    Vote {
        /// Race the vote decides.
        race_id: u64,
    },
    /// Fire-and-forget (`ALT_RESULT`, `RECONCILE`): the ack only feeds
    /// the rtt EWMA.
    Fire,
    /// An `ELIMINATE` for `race_id`: fire-and-forget for the race's
    /// outcome, but tracked so an eliminate still unacknowledged when
    /// the link dies is replayed on re-dial — the healed peer must not
    /// keep racing a ghost.
    Eliminate {
        /// Race the eliminate closes (our id space).
        race_id: u64,
    },
    /// A `PEER_STATS` heartbeat the peer thread sent itself; the reply
    /// proves liveness and carries the peer's load line.
    Heartbeat,
}

struct Cmd {
    addr: String,
    req: Request,
    tag: SendTag,
}

/// The handle everyone but the peer thread holds: queue a command,
/// tickle the wake pipe. Sends never block and never touch a socket.
pub(crate) struct PeerHandle {
    cmds: Mutex<Vec<Cmd>>,
    wake_tx: WakeTx,
    stats: Arc<PeerStatsTable>,
}

impl PeerHandle {
    /// The handle, plus the wake pipe's read end for the peer thread
    /// ([`PeerNet::new`]) that will serve it.
    pub(crate) fn new(stats: Arc<PeerStatsTable>) -> io::Result<(Arc<Self>, WakeRx)> {
        let (wake_tx, wake_rx) = wake_pair()?;
        let handle = PeerHandle {
            cmds: Mutex::new(Vec::new()),
            wake_tx,
            stats,
        };
        Ok((Arc::new(handle), wake_rx))
    }

    /// Queues one frame for `addr` and wakes the peer thread. If the
    /// link is down the thread fails the tag fast — the caller finds
    /// out through the registry, never by blocking here.
    pub(crate) fn send(&self, addr: &str, req: Request, tag: SendTag) {
        self.cmds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Cmd {
                addr: addr.to_owned(),
                req,
                tag,
            });
        self.wake();
    }

    /// Rouses the peer thread (to a new command, or to the daemon
    /// draining).
    pub(crate) fn wake(&self) {
        self.wake_tx.wake();
    }

    /// The shared per-peer counter table.
    pub(crate) fn stats(&self) -> &Arc<PeerStatsTable> {
        &self.stats
    }
}

/// Everything the reactor shards need to speak to the peer plane,
/// bundled so `Reactor::new` grows one argument, not six.
pub(crate) struct PeerPlane {
    /// Origin-side distributed race registry — and through it the
    /// outbound send handle, the voter-side commit ledger and this
    /// node's advertised identity.
    pub(crate) races: Arc<RemoteRaces>,
    /// Executor-side in-flight remote alternatives (for `ELIMINATE`).
    pub(crate) inflight: InflightRemote,
    /// Local-vs-remote placement policy.
    pub(crate) placement: Placement,
}

/// One outbound link's connection state.
enum LinkState {
    Down,
    Up(UpLink),
}

struct UpLink {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_at: usize,
    /// In-order correlation FIFO: one entry per sent frame, popped by
    /// its reply; the `Instant` is the rtt sample's start and the
    /// `u64` is the link's reconnect generation at send time — a reply
    /// whose entry carries a stale generation is dropped, never
    /// matched to a post-reconnect request.
    pending: VecDeque<(SendTag, Instant, u64)>,
}

struct Link {
    /// Configured links persist and redial forever; dynamic links
    /// (dialed on demand, e.g. to send a result back to an origin that
    /// is not in our peer list) are dropped once idle and down.
    configured: bool,
    stat: Option<Arc<PeerStat>>,
    state: LinkState,
    /// Fire-and-forget frames parked while the link is down.
    queue: VecDeque<(Request, SendTag)>,
    backoff: Duration,
    next_dial: Instant,
    ever_up: bool,
    /// Reconnect generation: bumped on every successful dial.
    generation: u64,
    /// Last time a reply (any reply) arrived on this link.
    last_heard: Instant,
    /// Last time a heartbeat was queued on this link.
    last_hb: Instant,
}

impl Link {
    /// Parks a fire-and-forget frame for the next dial, dropping the
    /// oldest beyond [`MAX_QUEUED`].
    fn park(&mut self, req: Request, tag: SendTag) {
        self.queue.push_back((req, tag));
        if self.queue.len() > MAX_QUEUED {
            self.queue.pop_front();
        }
    }

    fn new(configured: bool, stat: Option<Arc<PeerStat>>) -> Self {
        Link {
            configured,
            stat,
            state: LinkState::Down,
            queue: VecDeque::new(),
            backoff: BACKOFF_INITIAL,
            next_dial: Instant::now(),
            ever_up: false,
            generation: 0,
            last_heard: Instant::now(),
            last_hb: Instant::now(),
        }
    }
}

/// The peer thread: owns every outbound link.
pub(crate) struct PeerNet {
    wake_rx: WakeRx,
    races: Arc<RemoteRaces>,
    ctl: Arc<DaemonCtl>,
    telemetry: Arc<Telemetry>,
    links: HashMap<String, Link>,
    last_sweep: Instant,
    /// Heartbeat cadence on configured links (zero disables).
    heartbeat: Duration,
    /// Silence threshold for suspicion; quarantine at twice this.
    suspect: Duration,
}

impl PeerNet {
    /// Builds the peer thread's state around the registry (whose
    /// [`PeerHandle`] it serves) and the read end of that handle's wake
    /// pipe. The caller spawns [`PeerNet::run`] on its own thread.
    pub(crate) fn new(
        wake_rx: WakeRx,
        races: Arc<RemoteRaces>,
        ctl: Arc<DaemonCtl>,
        telemetry: Arc<Telemetry>,
        config: &PeerConfig,
    ) -> Self {
        let links = races
            .peers
            .stats
            .peers()
            .iter()
            .map(|p| (p.addr().to_owned(), Link::new(true, Some(Arc::clone(p)))))
            .collect();
        PeerNet {
            wake_rx,
            races,
            ctl,
            telemetry,
            links,
            last_sweep: Instant::now(),
            heartbeat: Duration::from_millis(config.heartbeat_ms),
            suspect: Duration::from_millis(config.suspect_ms),
        }
    }

    /// The peer event loop. Exits when the daemon drains, after
    /// flushing every open distributed race so no client is stranded.
    pub(crate) fn run(mut self) {
        loop {
            if self.ctl.draining() {
                self.races.drive(RaceTable::flush);
                // Best effort: push any ELIMINATE/result frames the
                // flush queued, then leave.
                self.drain_cmds();
                for addr in self.link_addrs() {
                    self.flush_link(&addr);
                }
                break;
            }
            let now = Instant::now();
            self.dial_due(now);
            self.drain_cmds();
            self.health_tick(now);
            self.sweep(now);

            let (mut fds, addrs) = self.poll_set();
            let timeout = self.poll_timeout_ms(Instant::now());
            if poll_fds(&mut fds, timeout).is_err() {
                continue;
            }
            if fds[0].revents != 0 {
                self.wake_rx.drain();
            }
            for (slot, addr) in addrs.iter().enumerate() {
                let revents = fds[slot + 1].revents;
                if revents == 0 {
                    continue;
                }
                if revents & POLLIN != 0 {
                    self.read_link(addr);
                }
                if revents & POLLOUT != 0 {
                    self.flush_link(addr);
                }
            }
            // Dynamic links that went down with nothing left to send
            // are garbage; configured links persist for redial.
            self.links.retain(|_, l| {
                l.configured || !matches!(l.state, LinkState::Down) || !l.queue.is_empty()
            });
        }
    }

    fn link_addrs(&self) -> Vec<String> {
        self.links.keys().cloned().collect()
    }

    /// Re-dials every down link whose backoff expired.
    fn dial_due(&mut self, now: Instant) {
        let due: Vec<String> = self
            .links
            .iter()
            .filter(|(_, l)| matches!(l.state, LinkState::Down) && l.next_dial <= now)
            .map(|(a, _)| a.clone())
            .collect();
        for addr in due {
            self.dial(&addr);
        }
    }

    fn dial(&mut self, addr: &str) {
        if !self.links.contains_key(addr) {
            return;
        }
        let connected = connect(addr);
        let reconcile = Request::Reconcile {
            watermark: self.races.table().reconcile_watermark(),
            origin: self.races.advertise.clone(),
        };
        let heartbeat = self.heartbeat;
        let link = self.links.get_mut(addr).expect("link exists");
        match connected {
            Ok(stream) => {
                let reconnected = link.ever_up;
                if reconnected {
                    if let Some(stat) = &link.stat {
                        stat.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                }
                link.ever_up = true;
                link.backoff = BACKOFF_INITIAL;
                link.generation += 1;
                let now = Instant::now();
                link.last_heard = now;
                link.last_hb = now;
                if let Some(stat) = &link.stat {
                    stat.up.store(true, Ordering::Relaxed);
                }
                let mut up = UpLink {
                    stream,
                    decoder: FrameDecoder::new(),
                    out: Vec::new(),
                    out_at: 0,
                    pending: VecDeque::new(),
                };
                if reconnected && link.configured {
                    // Partition-heal reconciliation: tell the peer
                    // which of our races are long decided, so it kills
                    // zombies the replayed ELIMINATEs don't name.
                    push_frame(&mut up, link.generation, addr, &reconcile, SendTag::Fire);
                }
                // Frames parked while down — including ELIMINATEs that
                // were unacknowledged when the link died — go out next.
                let queued = std::mem::take(&mut link.queue);
                for (req, tag) in queued {
                    push_frame(&mut up, link.generation, addr, &req, tag);
                }
                if link.configured && !heartbeat.is_zero() {
                    // Prime the health lifecycle (and the rtt EWMA, and
                    // the load figures) without waiting one cadence.
                    push_frame(
                        &mut up,
                        link.generation,
                        addr,
                        &Request::PeerStats,
                        SendTag::Heartbeat,
                    );
                }
                link.state = LinkState::Up(up);
                let addr = addr.to_owned();
                self.flush_link(&addr);
            }
            Err(_) => {
                link.next_dial = Instant::now() + link.backoff;
                link.backoff = (link.backoff * 2).min(BACKOFF_MAX);
            }
        }
    }

    /// Moves queued commands onto their links: encoded onto an up
    /// link's buffer, failed fast or parked on a down one.
    fn drain_cmds(&mut self) {
        let cmds = std::mem::take(
            &mut *self
                .races
                .peers
                .cmds
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for cmd in cmds {
            if !self.links.contains_key(&cmd.addr) {
                // Dial-on-demand: an origin outside the configured set
                // (results/votes go back to whoever asked).
                let stat = self.races.peers.stats.by_addr(&cmd.addr).cloned();
                self.links.insert(cmd.addr.clone(), Link::new(false, stat));
                self.dial(&cmd.addr);
            }
            let link = self.links.get_mut(&cmd.addr).expect("link exists");
            let mut flush = false;
            match &mut link.state {
                LinkState::Up(up) => {
                    push_frame(up, link.generation, &cmd.addr, &cmd.req, cmd.tag);
                    flush = true;
                }
                LinkState::Down => match cmd.tag {
                    SendTag::Fire | SendTag::Eliminate { .. } => link.park(cmd.req, cmd.tag),
                    // Fail fast: a down peer cannot run the alternative
                    // or grant the vote, and the race must not wait for
                    // the redial to find that out. (Heartbeats are
                    // minted by the peer thread on up links only; one
                    // racing a link death is just dropped — the next
                    // dial primes a fresh one.)
                    tag => self.never_answered(&cmd.addr, tag),
                },
            }
            if flush {
                self.flush_link(&cmd.addr);
            }
        }
    }

    /// Reads everything the link has, dispatching each in-order reply
    /// against its pending tag. Every decoded frame passes the
    /// `peer.link.<addr>.recv` chaos site first: a dropped (or
    /// partitioned) reply consumes its tag silently — exactly what a
    /// reply lost on the wire looks like — a duplicated one dispatches
    /// twice to prove the protocol layer idempotent, and a truncated
    /// one kills the link like any desynchronized stream.
    fn read_link(&mut self, addr: &str) {
        let Some(link) = self.links.get_mut(addr) else {
            return;
        };
        let LinkState::Up(up) = &mut link.state else {
            return;
        };
        let recv_site = faults::enabled().then(|| format!("peer.link.{addr}.recv"));
        let mut buf = [0u8; 8192];
        let mut dead = false;
        let mut dispatches: Vec<(SendTag, Response, Option<Instant>, u64)> = Vec::new();
        loop {
            match up.stream.read(&mut buf) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    up.decoder.extend(&buf[..n]);
                    loop {
                        match up.decoder.next_frame() {
                            Ok(Some(body)) => {
                                let fault = recv_site.as_deref().and_then(faults::inject_net);
                                match fault {
                                    Some(NetFault::Truncate) => {
                                        // A reply cut short desyncs the
                                        // stream; the link is done.
                                        dead = true;
                                        break;
                                    }
                                    Some(NetFault::Drop) | Some(NetFault::Partition) => {
                                        let _ = up.pending.pop_front();
                                        continue;
                                    }
                                    Some(NetFault::Delay(d)) => std::thread::sleep(d),
                                    Some(NetFault::Duplicate) | None => {}
                                }
                                match (Response::decode(&body), up.pending.pop_front()) {
                                    (Ok(resp), Some((tag, sent_at, gen))) => {
                                        if matches!(fault, Some(NetFault::Duplicate)) {
                                            // Second delivery: no tag of
                                            // its own, no rtt sample.
                                            dispatches.push((tag, resp.clone(), None, gen));
                                        }
                                        dispatches.push((tag, resp, Some(sent_at), gen));
                                    }
                                    _ => {
                                        // Undecodable reply or a reply we
                                        // never asked for: the stream is
                                        // not trustworthy.
                                        dead = true;
                                        break;
                                    }
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                    if dead {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        let stat = link.stat.clone();
        let live_gen = link.generation;
        if !dispatches.is_empty() {
            link.last_heard = Instant::now();
            if let Some(stat) = &stat {
                // Any reply is proof of life: a Suspect or Quarantined
                // peer that answers a probe is readmitted.
                if stat.health() != PeerHealth::Up {
                    stat.set_health(PeerHealth::Up);
                }
            }
        }
        for (tag, resp, sent_at, gen) in dispatches {
            if gen != live_gen {
                // A pre-reconnect reply outlived its connection; pairing
                // it with a post-reconnect request would corrupt the
                // FIFO correlation.
                self.telemetry.add(Metric::PeerStaleReplies, 1);
                continue;
            }
            if let (Some(stat), Some(sent_at)) = (&stat, sent_at) {
                stat.observe_rtt(sent_at.elapsed().as_micros().max(1) as u64);
            }
            self.dispatch_reply(addr, stat.as_ref(), tag, resp);
        }
        if dead {
            self.link_down(addr);
        }
    }

    /// The request behind `tag` will never get the answer it was sent
    /// for — the link was down, died first, or replied with something
    /// else: a shipped alternative converts to a refusal, a vote to a
    /// denial, and nobody waits on the other tags.
    fn never_answered(&self, addr: &str, tag: SendTag) {
        match tag {
            SendTag::ExecAlt { race_id, alt_idx } => {
                self.races.step(race_id, Event::LegRefused { alt_idx });
            }
            SendTag::Vote { race_id } => self.vote(race_id, addr, false),
            SendTag::Fire | SendTag::Eliminate { .. } | SendTag::Heartbeat => {}
        }
    }

    fn vote(&self, race_id: u64, voter: &str, granted: bool) {
        let voter = voter.to_owned();
        self.races.step(race_id, Event::Vote { voter, granted });
    }

    fn dispatch_reply(
        &self,
        addr: &str,
        stat: Option<&Arc<PeerStat>>,
        tag: SendTag,
        resp: Response,
    ) {
        match (tag, resp) {
            // The executor acks admission with a Text frame; any other
            // reply (Overloaded, Error from an older build) means the
            // alternative is not running there.
            (SendTag::ExecAlt { .. }, Response::Text { .. }) => {}
            (SendTag::Vote { race_id }, Response::Vote { granted, .. }) => {
                self.vote(race_id, addr, granted);
            }
            // The PEER_STATS reply ends with the executor's load line;
            // older builds without one just leave the load figures at
            // their last value.
            (SendTag::Heartbeat, Response::Text { body }) => {
                if let (Some(stat), Some((queued, busy, workers))) = (stat, parse_load_line(&body))
                {
                    stat.set_load(queued, busy, workers);
                }
            }
            (tag, _) => self.never_answered(addr, tag),
        }
    }

    /// Writes as much buffered output as the socket takes.
    fn flush_link(&mut self, addr: &str) {
        let Some(link) = self.links.get_mut(addr) else {
            return;
        };
        let LinkState::Up(up) = &mut link.state else {
            return;
        };
        let mut dead = false;
        while up.out_at < up.out.len() {
            match up.stream.write(&up.out[up.out_at..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => up.out_at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if up.out_at == up.out.len() {
            up.out.clear();
            up.out_at = 0;
        }
        if dead {
            self.link_down(addr);
        }
    }

    /// A link died: fail every pending tag, mark the peer down, and
    /// convert its acked-but-unfinished alternatives to failed guards.
    /// Unacknowledged `ELIMINATE`s are re-parked for replay on the next
    /// dial — the race outcome no longer needs them, but the peer must
    /// still learn it or it keeps racing a ghost.
    fn link_down(&mut self, addr: &str) {
        let Some(link) = self.links.get_mut(addr) else {
            return;
        };
        let pending = match std::mem::replace(&mut link.state, LinkState::Down) {
            LinkState::Up(up) => up.pending,
            LinkState::Down => VecDeque::new(),
        };
        if let Some(stat) = &link.stat {
            stat.up.store(false, Ordering::Relaxed);
        }
        link.backoff = BACKOFF_INITIAL;
        link.next_dial = Instant::now() + BACKOFF_INITIAL;
        for (tag, _, _) in &pending {
            if let SendTag::Eliminate { race_id } = *tag {
                // Rebuilt for replay under this node's identity.
                let origin = self.races.advertise.clone();
                link.park(Request::Eliminate { race_id, origin }, *tag);
            }
        }
        for (tag, _, _) in pending {
            self.never_answered(addr, tag);
        }
        self.races.drive(|table, now| table.peer_down(addr, now));
    }

    /// The health lifecycle tick: queue heartbeats that are due, age
    /// silent peers Up → Suspect → Quarantined, and reset a link that
    /// has been up and silent for the whole quarantine span. The reset
    /// is what makes quarantine an episode: a stream the peer's decoder
    /// lost sync on (a cut frame whose leftover bytes parse as a legal
    /// length leaves it waiting inside that length) carries heartbeats
    /// forever and answers none, so only a fresh connection can bring
    /// the reply that readmits. The redial itself readmits nobody —
    /// that still happens in `read_link`, the moment any reply arrives
    /// — and its silence clock starts over, so a peer that stays silent
    /// is redialled once per quarantine span, not once per tick.
    fn health_tick(&mut self, now: Instant) {
        if self.heartbeat.is_zero() {
            return;
        }
        let suspect = self.suspect;
        let mut flush: Vec<String> = Vec::new();
        let mut reset: Vec<String> = Vec::new();
        for (addr, link) in &mut self.links {
            if !link.configured {
                continue;
            }
            let LinkState::Up(up) = &mut link.state else {
                continue;
            };
            let silent = now.duration_since(link.last_heard);
            if let Some(stat) = &link.stat {
                let health = stat.health();
                let aged = health.aged(silent, suspect);
                if aged != health {
                    stat.set_health(aged);
                }
            }
            // The silence that quarantines a healthy peer.
            if PeerHealth::Up.aged(silent, suspect) == PeerHealth::Quarantined {
                reset.push(addr.clone());
            } else if now.duration_since(link.last_hb) >= self.heartbeat {
                link.last_hb = now;
                push_frame(
                    up,
                    link.generation,
                    addr,
                    &Request::PeerStats,
                    SendTag::Heartbeat,
                );
                flush.push(addr.clone());
            }
        }
        for addr in flush {
            self.flush_link(&addr);
        }
        for addr in reset {
            self.link_down(&addr);
        }
    }

    /// Expires overdue races and (periodically) old ledger slots.
    fn sweep(&mut self, now: Instant) {
        self.races.drive(|table, _| table.expire(now));
        if now.duration_since(self.last_sweep) >= SWEEP_EVERY {
            self.races.ledger.sweep(LEDGER_TTL);
            self.last_sweep = now;
        }
    }

    /// Poll set: the wake pipe first, then one entry per *up* link.
    fn poll_set(&self) -> (Vec<PollFd>, Vec<String>) {
        let mut fds = Vec::with_capacity(1 + self.links.len());
        let mut addrs = Vec::with_capacity(self.links.len());
        fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        for (addr, link) in &self.links {
            if let LinkState::Up(up) = &link.state {
                let mut events = POLLIN;
                if up.out_at < up.out.len() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(up.stream.as_raw_fd(), events));
                addrs.push(addr.clone());
            }
        }
        (fds, addrs)
    }

    /// Sleep no longer than the earliest due redial, race expiry, or
    /// heartbeat.
    fn poll_timeout_ms(&self, now: Instant) -> i32 {
        let mut deadline: Option<Instant> = self.races.table().next_expiry();
        let fold = |d: Instant, deadline: &mut Option<Instant>| {
            *deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
        };
        for link in self.links.values() {
            if matches!(link.state, LinkState::Down) && (link.configured || !link.queue.is_empty())
            {
                fold(link.next_dial, &mut deadline);
            }
            if link.configured
                && !self.heartbeat.is_zero()
                && matches!(link.state, LinkState::Up(_))
            {
                fold(link.last_hb + self.heartbeat, &mut deadline);
            }
        }
        match deadline {
            None => PEER_BACKSTOP_MS,
            Some(d) => (d.saturating_duration_since(now).as_millis() as i32)
                .saturating_add(1)
                .clamp(1, PEER_BACKSTOP_MS),
        }
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable peer"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, CONNECT_TIMEOUT)?;
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Appends one framed request (length prefix + body) to `out`.
fn encode_onto(out: &mut Vec<u8>, req: &Request) {
    let body = req.encode();
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&body);
}

/// Encodes one outbound frame onto an up link, keeping the correlation
/// FIFO aligned, with the `peer.link.<addr>.send` chaos site applied
/// first:
///
/// * **drop / partition** — the frame never reaches the buffer and its
///   tag is never pushed (no request ⇒ no reply ⇒ FIFO stays aligned);
///   a race leg lost this way is recovered by its per-leg deadline.
/// * **delay** — the peer thread stalls briefly, modeling a slow wire.
/// * **duplicate** — the frame is encoded twice with two tag entries;
///   the receiver answers both, and the protocol layer must shrug off
///   the second reply.
/// * **truncate** — the frame's tail is cut, desynchronizing the
///   stream. A receiver that finds a malformed body closes it and the
///   link dies into redial; one whose leftover bytes parse as a legal
///   length waits inside it and answers nothing, which the health
///   tick's silent-link reset turns into the same redial.
fn push_frame(up: &mut UpLink, gen: u64, addr: &str, req: &Request, tag: SendTag) {
    if faults::enabled() {
        match faults::inject_net(&format!("peer.link.{addr}.send")) {
            Some(NetFault::Drop) | Some(NetFault::Partition) => return,
            Some(NetFault::Delay(d)) => std::thread::sleep(d),
            Some(NetFault::Duplicate) => {
                encode_onto(&mut up.out, req);
                up.pending.push_back((tag, Instant::now(), gen));
            }
            Some(NetFault::Truncate) => {
                let start = up.out.len();
                encode_onto(&mut up.out, req);
                let cut = ((up.out.len() - start) / 2).max(1);
                up.out.truncate(up.out.len() - cut);
                up.pending.push_back((tag, Instant::now(), gen));
                return;
            }
            None => {}
        }
    }
    encode_onto(&mut up.out, req);
    up.pending.push_back((tag, Instant::now(), gen));
}

/// Extracts `(queued, busy, workers)` from the `load queued N busy N
/// workers N` line the executor appends to its `PEER_STATS` reply.
fn parse_load_line(body: &str) -> Option<(u64, u64, u64)> {
    for line in body.lines() {
        let Some(rest) = line.trim().strip_prefix("load ") else {
            continue;
        };
        let mut queued = None;
        let mut busy = None;
        let mut workers = None;
        let mut toks = rest.split_whitespace();
        while let (Some(key), Some(val)) = (toks.next(), toks.next()) {
            let val: u64 = val.parse().ok()?;
            match key {
                "queued" => queued = Some(val),
                "busy" => busy = Some(val),
                "workers" => workers = Some(val),
                _ => {}
            }
        }
        return Some((queued?, busy?, workers?));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_ewma_converges_and_never_zeroes() {
        let stat = PeerStat::new("p:1".into());
        assert_eq!(stat.rtt_ewma_us(), 0, "no sample yet");
        stat.observe_rtt(1000);
        assert_eq!(stat.rtt_ewma_us(), 1000, "first sample seeds the EWMA");
        stat.observe_rtt(0);
        assert!(stat.rtt_ewma_us() >= 1, "EWMA floors at 1µs");
        for _ in 0..64 {
            stat.observe_rtt(200);
        }
        let settled = stat.rtt_ewma_us();
        assert!(
            (195..=210).contains(&settled),
            "settles near 200: {settled}"
        );
    }

    #[test]
    fn stats_table_tracks_liveness() {
        let table = PeerStatsTable::new(&["a:1".into(), "b:2".into()]);
        assert!(table.up_peers().is_empty());
        assert_eq!(table.peers_up(), 0);
        table
            .by_addr("a:1")
            .unwrap()
            .up
            .store(true, Ordering::Relaxed);
        table.by_addr("a:1").unwrap().observe_rtt(300);
        table.by_addr("a:1").unwrap().set_load(4, 2, 8);
        let up = table.up_peers();
        assert_eq!(
            up,
            vec![PeerLoad {
                addr: "a:1".to_owned(),
                rtt_us: 300,
                queued: 4,
                busy: 2,
                workers: 8,
            }]
        );
        assert_eq!(table.peers_up(), 1);
        assert!(table.by_addr("c:3").is_none());
    }

    #[test]
    fn unhealthy_peers_leave_the_placement_input() {
        let table = PeerStatsTable::new(&["a:1".into()]);
        let stat = table.by_addr("a:1").unwrap();
        stat.up.store(true, Ordering::Relaxed);
        assert_eq!(table.peers_up(), 1);

        // Suspicion and quarantine both pull the peer out of
        // placement without touching the TCP `up` bit.
        stat.set_health(PeerHealth::Suspect);
        assert!(table.up_peers().is_empty());
        assert_eq!(table.peers_up(), 0);
        assert_eq!(stat.quarantines(), 0, "suspicion is not quarantine");

        stat.set_health(PeerHealth::Quarantined);
        assert_eq!(stat.quarantines(), 1);
        stat.set_health(PeerHealth::Quarantined);
        assert_eq!(stat.quarantines(), 1, "re-entry is not a transition");

        // Readmission restores placement eligibility.
        stat.set_health(PeerHealth::Up);
        assert_eq!(table.peers_up(), 1);
        stat.set_health(PeerHealth::Quarantined);
        assert_eq!(stat.quarantines(), 2, "each distinct entry counts");
        assert_eq!(table.total_quarantines(), 2);
    }

    #[test]
    fn health_ages_at_the_thresholds_and_never_readmits() {
        use PeerHealth::{Quarantined, Suspect, Up};
        let ms = Duration::from_millis;
        let suspect = ms(100);
        #[rustfmt::skip]
        let table = [
            // from,        silent,   threshold, to
            (Up,          ms(0),    suspect,   Up),
            (Up,          ms(99),   suspect,   Up),
            (Up,          ms(100),  suspect,   Suspect),     // silent == suspect
            (Up,          ms(199),  suspect,   Suspect),
            (Up,          ms(200),  suspect,   Quarantined), // silent == 2·suspect
            (Suspect,     ms(0),    suspect,   Suspect),     // only a reply readmits
            (Suspect,     ms(100),  suspect,   Suspect),
            (Suspect,     ms(200),  suspect,   Quarantined),
            (Quarantined, ms(0),    suspect,   Quarantined),
            (Quarantined, ms(500),  suspect,   Quarantined),
            (Up,          ms(500),  ms(0),     Up),          // suspect == 0: no ageing
            (Suspect,     ms(500),  ms(0),     Suspect),
        ];
        for (from, silent, threshold, to) in table {
            assert_eq!(
                from.aged(silent, threshold),
                to,
                "{from:?} silent {silent:?} against {threshold:?}"
            );
        }
    }

    #[test]
    fn load_line_parses_and_rejects_garbage() {
        let body = "altxd peers\n  peer x:1  up 1 ...\nload queued 7 busy 3 workers 4\n";
        assert_eq!(parse_load_line(body), Some((7, 3, 4)));
        assert_eq!(parse_load_line("no load here\n"), None);
        assert_eq!(
            parse_load_line("load queued 7 busy 3\n"),
            None,
            "all three figures or nothing"
        );
        assert_eq!(parse_load_line("load queued x busy 3 workers 4\n"), None);
    }

    #[test]
    fn render_lists_every_configured_peer() {
        let table = PeerStatsTable::new(&["x:1".into(), "y:2".into()]);
        table.by_addr("x:1").unwrap().note_dispatched();
        table.by_addr("x:1").unwrap().note_win();
        let text = table.render();
        assert!(text.contains("peer x:1"), "{text}");
        assert!(text.contains("peer y:2"), "{text}");
        assert!(text.contains("dispatched 1  wins 1"), "{text}");
    }
}
