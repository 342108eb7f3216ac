//! Cluster peering: outbound links to other `altxd` nodes.
//!
//! The paper's §4.4 remote execution needs a control plane: each daemon
//! keeps one persistent outbound connection per configured `--peer`,
//! ships `EXEC_ALT` / `COMMIT_VOTE` / `ELIMINATE` / `ALT_RESULT` frames
//! over it, and measures the link (round-trip EWMA, liveness) so the
//! placement model works from observations instead of guesses.
//!
//! All outbound traffic runs on **one dedicated thread**, split the way
//! the race registry and the run queue are: a pure **core** and a
//! **shell** that owns the sockets.
//!
//! * [`crate::link::LinkTable`] is the core — a plain value holding
//!   everything about a link that is not a socket, behind
//!   `step(event, now) -> Vec<Action>` and `next_deadline()`. Every
//!   rule of the failure model below is decided there, once, and
//!   checked there on virtual time over seeded schedules.
//! * [`PeerNet`] is the shell — the thread itself: `poll`, `connect`,
//!   `read` into a [`FrameDecoder`], out-buffers and `write`, the chaos
//!   shim's draw at the two wire sites, and doing what the core's
//!   actions say (mirror a stat into [`PeerStat`], feed a race, dial,
//!   write, close). It decides nothing about a link.
//!
//! Reactor shards and pool workers never touch a peer socket — they
//! push a [`Cmd`] onto the [`PeerHandle`] and write one wake byte: a
//! command queue and a self-pipe, drained by the one thread that owns
//! the sockets.
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
//! * Reconnection of a configured link is automatic with doubling
//!   backoff (50 ms → 2 s); every successful re-dial after a first
//!   connect counts in the per-peer `reconnects` counter. A *dynamic*
//!   link — dialled on demand to carry a result home to an origin
//!   outside the peer list — is never redialled and parks nothing: if
//!   its dial fails or its stream dies, its frames fail with it and it
//!   is forgotten, so a result for an origin that is gone is dropped.
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
//! request→reply time of *any* tag is an rtt sample for the EWMA. The
//! FIFO is part of the link's *up* state: it is created by the dial
//! and dropped with the stream, so a reply can only ever be matched to
//! a request of the connection it arrived on.
//!
//! All link I/O runs through the seeded network chaos shim
//! (`altx::faults` sites `peer.link.<addr>.send` / `.recv`): with a
//! fault plan installed, frames can be dropped, delayed, duplicated,
//! truncated, or swallowed by a one-way partition, deterministically
//! per seed. With no plan installed the shim is one relaxed atomic
//! load per frame.

use crate::frame::{FrameDecoder, Request, Response};
use crate::link::{Action, Event, LinkTable, Stat};
use crate::reactor::{
    poll_fds, poll_timeout, tighten_timer_slack, wake_pair, DaemonCtl, PollFd, WakeRx, WakeTx,
    POLLIN, POLLOUT,
};
use crate::remote::{RaceTable, RemoteRaces};
use altx::faults::{self, NetFault};
use std::collections::HashMap;
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

/// Dial timeout: a peer that cannot complete a TCP handshake in this
/// budget is down for placement purposes.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(50);
/// Commit-ledger slots older than this are swept (a race never lives
/// anywhere near this long; the TTL only bounds memory).
const LEDGER_TTL: Duration = Duration::from_secs(300);
/// How often the ledger sweep runs.
const SWEEP_EVERY: Duration = Duration::from_secs(5);
/// Idle poll backstop for the peer thread.
const PEER_BACKSTOP: Duration = Duration::from_millis(250);

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

    /// Mirrors one effect the link core reported into the counters.
    fn apply(&self, stat: Stat) {
        match stat {
            Stat::Up(up) => self.up.store(up, Ordering::Relaxed),
            Stat::Health(health) => self.set_health(health),
            Stat::Reconnected => {
                self.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            Stat::Rtt(sample_us) => self.observe_rtt(sample_us),
            Stat::Load(queued, busy, workers) => self.set_load(queued, busy, workers),
        }
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One frame somebody wants on a link: what [`PeerHandle::send`]
/// queues, and what the link core offers back for the wire.
#[derive(Debug, Clone)]
pub(crate) struct Cmd {
    pub(crate) addr: String,
    pub(crate) req: Request,
    pub(crate) tag: SendTag,
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

    /// Everything queued since the last call, for the peer thread.
    fn take(&self) -> Vec<Cmd> {
        std::mem::take(&mut *self.cmds.lock().unwrap_or_else(PoisonError::into_inner))
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

/// One open outbound stream: all the shell knows about a link.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Bytes the socket has not taken yet.
    out: Vec<u8>,
}

/// The peer thread: owns every outbound socket, and the link core that
/// says what to do with them.
pub(crate) struct PeerNet {
    wake_rx: WakeRx,
    races: Arc<RemoteRaces>,
    ctl: Arc<DaemonCtl>,
    table: LinkTable,
    /// One entry per link the core counts up.
    conns: HashMap<String, Conn>,
    last_sweep: Instant,
}

impl PeerNet {
    /// Builds the peer thread's state around the registry (whose
    /// [`PeerHandle`] it serves) and the read end of that handle's wake
    /// pipe. The caller spawns [`PeerNet::run`] on its own thread.
    pub(crate) fn new(
        wake_rx: WakeRx,
        races: Arc<RemoteRaces>,
        ctl: Arc<DaemonCtl>,
        config: &PeerConfig,
    ) -> Self {
        let table = LinkTable::new(races.advertise.clone(), config, Instant::now());
        PeerNet {
            wake_rx,
            races,
            ctl,
            table,
            conns: HashMap::new(),
            last_sweep: Instant::now(),
        }
    }

    /// The peer event loop. Exits when the daemon drains, after
    /// flushing every open distributed race so no client is stranded.
    pub(crate) fn run(mut self) {
        // Race expiries, leg deadlines, heartbeats and redials are all
        // poll timeouts of this thread.
        tighten_timer_slack();
        loop {
            if self.ctl.draining() {
                self.races.drive(RaceTable::flush);
                // Best effort: push any ELIMINATE/result frames the
                // flush queued, then leave.
                self.drain_cmds();
                break;
            }
            self.feed(Event::Tick);
            self.drain_cmds();
            self.sweep(Instant::now());

            let (mut fds, addrs) = self.poll_set();
            if poll_fds(&mut fds, self.poll_timeout()).is_err() {
                continue;
            }
            if fds[0].revents != 0 {
                self.wake_rx.drain();
            }
            for (slot, addr) in addrs.iter().enumerate() {
                let revents = fds[slot + 1].revents;
                if revents & POLLIN != 0 {
                    self.read_link(addr);
                }
                if revents & POLLOUT != 0 {
                    self.flush_link(addr);
                }
            }
        }
    }

    /// The one way anything happens to a link: step the core, then do
    /// what it says, in order. `Dial` is a question — the answer goes
    /// straight back in as the next event.
    fn feed(&mut self, event: Event) {
        for action in self.table.step(event, Instant::now()) {
            match action {
                Action::Dial(addr) => {
                    if let Ok(conn) = connect(&addr) {
                        self.conns.insert(addr.clone(), conn);
                    }
                    let connected = self.conns.contains_key(&addr);
                    let watermark = self.races.lock().table.reconcile_watermark();
                    self.feed(Event::Dialed {
                        addr,
                        connected,
                        watermark,
                    });
                }
                Action::Frame(cmd) => self.offer(cmd),
                Action::Write(addr, bytes) => {
                    if let Some(conn) = self.conns.get_mut(&addr) {
                        conn.out.extend_from_slice(&bytes);
                    }
                    self.flush_link(&addr);
                }
                Action::Race(race_id, event) => self.races.step(race_id, event),
                Action::Down(addr) => {
                    self.conns.remove(&addr);
                    self.races.drive(|table, now| table.peer_down(&addr, now));
                }
                Action::Stat(addr, stat) => {
                    if let Some(row) = self.races.peers.stats.by_addr(&addr) {
                        row.apply(stat);
                    }
                }
            }
        }
    }

    /// One frame for the core — a queued command, or a frame of the
    /// core's own — with the `peer.link.<addr>.send` chaos site's draw
    /// for it. The site sits on the stream, so there is no draw where
    /// no stream is open.
    fn offer(&mut self, cmd: Cmd) {
        let open = self.conns.contains_key(&cmd.addr);
        let fault = open.then(|| wire_fault(&cmd.addr, "send")).flatten();
        self.feed(Event::Send(cmd, fault));
    }

    /// Hands every queued command to the core.
    fn drain_cmds(&mut self) {
        for cmd in self.races.peers.take() {
            self.offer(cmd);
        }
    }

    /// Reads everything the link has: each whole frame goes to the
    /// core as one reply, with the `peer.link.<addr>.recv` chaos site's
    /// draw for it; the end of the stream goes to it as a close.
    fn read_link(&mut self, addr: &str) {
        let mut buf = [0u8; 8192];
        loop {
            // Gone once the core has closed the link.
            let Some(conn) = self.conns.get_mut(addr) else {
                return;
            };
            match conn.decoder.next_frame() {
                Ok(Some(body)) => {
                    let fault = wire_fault(addr, "recv");
                    self.feed(Event::Reply {
                        addr: addr.to_owned(),
                        resp: Response::decode(&body).ok(),
                        fault,
                    });
                    continue;
                }
                Ok(None) => {}
                Err(_) => return self.feed(Event::Closed(addr.to_owned())),
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => return self.feed(Event::Closed(addr.to_owned())),
                Ok(n) => conn.decoder.extend(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.feed(Event::Closed(addr.to_owned())),
            }
        }
    }

    /// Writes as much buffered output as the socket takes; a socket
    /// that takes no more goes to the core as a close.
    fn flush_link(&mut self, addr: &str) {
        let Some(conn) = self.conns.get_mut(addr) else {
            return;
        };
        while !conn.out.is_empty() {
            match conn.stream.write(&conn.out) {
                Ok(n) if n > 0 => {
                    conn.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return self.feed(Event::Closed(addr.to_owned())),
            }
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

    /// Poll set: the wake pipe first, then one entry per open stream.
    fn poll_set(&self) -> (Vec<PollFd>, Vec<String>) {
        let mut fds = Vec::with_capacity(1 + self.conns.len());
        let mut addrs = Vec::with_capacity(self.conns.len());
        fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        for (addr, conn) in &self.conns {
            let mut events = POLLIN;
            if !conn.out.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            addrs.push(addr.clone());
        }
        (fds, addrs)
    }

    /// Sleep no longer than the link core's next deadline or the next
    /// race expiry. Both are consumed by the top of the loop once they
    /// are due (`Tick`, `sweep`), so a zero timeout is one more turn,
    /// not a spin.
    fn poll_timeout(&self) -> Duration {
        let next_expiry = self.races.lock().table.next_expiry();
        let next = [self.table.next_deadline(), next_expiry]
            .into_iter()
            .flatten()
            .min();
        poll_timeout(next, PEER_BACKSTOP, Instant::now())
    }
}

fn connect(addr: &str) -> io::Result<Conn> {
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable peer"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, CONNECT_TIMEOUT)?;
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    Ok(Conn {
        stream,
        decoder: FrameDecoder::new(),
        out: Vec::new(),
    })
}

/// The chaos shim's draw for one frame at `peer.link.<addr>.<site>`
/// (`send` or `recv`). A delay is served here — the peer thread stalls
/// briefly, modeling a slow wire — and everything else is the link
/// core's to apply.
fn wire_fault(addr: &str, site: &str) -> Option<NetFault> {
    if !faults::enabled() {
        return None;
    }
    let fault = faults::inject_net(&format!("peer.link.{addr}.{site}"));
    if let Some(NetFault::Delay(d)) = fault {
        std::thread::sleep(d);
    }
    fault
}

/// Extracts `(queued, busy, workers)` from the `load queued N busy N
/// workers N` line the executor appends to its `PEER_STATS` reply.
pub(crate) fn parse_load_line(body: &str) -> Option<(u64, u64, u64)> {
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
