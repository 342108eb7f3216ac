//! Cluster peering: outbound links to other `altxd` nodes.
//!
//! The paper's §4.4 remote execution needs a control plane: each daemon
//! keeps one persistent outbound connection per configured `--peer`,
//! ships `EXEC_ALT` / `COMMIT_VOTE` / `ELIMINATE` / `ALT_RESULT` frames
//! over it, and measures the link (round-trip EWMA, liveness) so the
//! placement model works from observations instead of guesses.
//!
//! All outbound traffic runs on **reactor shard 0**, between its other
//! events, split the way the race registry and the run queue are: a
//! pure **core** and a **shell** that owns the sockets.
//!
//! * [`crate::link::LinkTable`] is the core — everything about a link
//!   that is not a socket, behind `step(event, now) -> Vec<Action>` and
//!   `next_deadline()`. The failure model (the part the paper
//!   hand-waves and a server cannot) is its rules table, each rule
//!   stated there once and checked on virtual time over seeded
//!   schedules: fail fast, so no request waits on a dead peer; backoff
//!   redials that replay unacknowledged `ELIMINATE`s and `RECONCILE`;
//!   dynamic links (an executor's way home) forgotten with their dial;
//!   the dial timeout; replies correlated by order; and the health
//!   lifecycle ([`PeerHealth`]) that takes an up but silent peer out of
//!   [`PeerStatsTable::up_peers`], which placement and voter freezing
//!   read. INTERNALS § *Failure matrix* maps failures to outcomes.
//! * [`PeerLinks`] is the shell, held by shard 0's reactor: a
//!   non-blocking `connect` per dial, `read` into a [`FrameDecoder`],
//!   out-buffers and `write`, the chaos shim's draw at the two wire
//!   sites, and doing what the core's actions say. It has no loop of
//!   its own — its sockets are entries of shard 0's poll set, its
//!   clocks bound that shard's poll timeout — and nothing it does
//!   blocks: names are resolved before shard 0 starts (a configured
//!   `--peer` once, at start-up; an origin's advertised address must be
//!   an IP address).
//!
//! Reactor shards and pool workers never touch a peer socket — they
//! push a [`Cmd`] onto the [`PeerHandle`] and write one byte to shard
//! 0's wake channel. A daemon with no peer traffic pays nothing for
//! the plane on its request path: no poll entry, no lock, no clock.
//!
//! All link I/O runs through the seeded network chaos shim
//! (`altx::faults` sites `peer.link.<addr>.send` / `.recv`): with a
//! fault plan installed, frames can be dropped, delayed, duplicated,
//! truncated, or swallowed by a one-way partition, deterministically
//! per seed. With no plan installed the shim is one relaxed atomic
//! load per frame; with one, a drawn delay stalls shard 0 — every
//! connection and link it serves — for the delay's length.

use crate::frame::{FrameDecoder, Request, Response};
use crate::link::{Action, Event, LinkTable, Stat};
use crate::reactor::{
    connect_nonblocking, PollFd, ReactorShared, POLLERR, POLLHUP, POLLIN, POLLOUT,
};
use crate::remote::{RaceTable, RemoteRaces};
use altx::faults::{self, NetFault};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Peering knobs, carried in [`crate::ServerConfig`]. An empty peer
/// list (the default) disables remote dispatch entirely: the placement
/// never ships, and shard 0 has no peer socket to poll.
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

/// Live counters for one configured peer link. Shard 0 is the only
/// writer of `up`/`rtt`/`health`/load; dispatch/win counters are
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
/// shared by the reactor shards (shard 0 writes the link's rows), the registry, and
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
    /// A `PEER_STATS` heartbeat the link core sent itself; the reply
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

/// The handle everyone holds: queue a command, rouse shard 0 through
/// its wake channel. Sends never block and never touch a socket.
pub(crate) struct PeerHandle {
    cmds: Mutex<Vec<Cmd>>,
    /// Set after a push, cleared by shard 0 before it takes the queue:
    /// a wake that finds it clear costs the peer plane nothing.
    queued: AtomicBool,
    shard0: Arc<ReactorShared>,
    stats: Arc<PeerStatsTable>,
}

impl PeerHandle {
    pub(crate) fn new(stats: Arc<PeerStatsTable>, shard0: Arc<ReactorShared>) -> Arc<Self> {
        Arc::new(PeerHandle {
            cmds: Mutex::new(Vec::new()),
            queued: AtomicBool::new(false),
            shard0,
            stats,
        })
    }

    /// Queues one frame for `addr` and wakes shard 0. A link that is
    /// not up fails the tag fast, through the registry.
    pub(crate) fn send(&self, addr: &str, req: Request, tag: SendTag) {
        self.cmds
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Cmd {
                addr: addr.to_owned(),
                req,
                tag,
            });
        self.queued.store(true, Ordering::SeqCst);
        self.shard0.wake();
    }

    /// Everything queued since the last call — without a lock when
    /// nothing was.
    fn take(&self) -> Vec<Cmd> {
        if !self.queued.swap(false, Ordering::SeqCst) {
            return Vec::new();
        }
        std::mem::take(&mut *self.cmds.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The shared per-peer counter table.
    pub(crate) fn stats(&self) -> &Arc<PeerStatsTable> {
        &self.stats
    }
}

/// One outbound socket: all the shell knows about a link.
struct Conn {
    stream: TcpStream,
    /// The connect is still out: writability says it is done.
    dialling: bool,
    decoder: FrameDecoder,
    /// Bytes the socket has not taken yet.
    out: Vec<u8>,
}

/// Shard 0's peer links: every outbound socket, and the link core that
/// says what to do with them. Shard 0's reactor polls the sockets among
/// its own ([`PeerLinks::poll_set`]) and then hands the peer plane its
/// turn ([`PeerLinks::turn`]).
pub(crate) struct PeerLinks {
    races: Arc<RemoteRaces>,
    table: LinkTable,
    /// One entry per link with a dial out or a stream up.
    conns: HashMap<String, Conn>,
    /// Where each configured peer's name resolved to, at start-up.
    resolved: HashMap<String, SocketAddr>,
    /// The address behind each entry `poll_set` added, in order.
    polled: Vec<String>,
    /// The earliest clock of the core or the race table, as of the last
    /// peer work. Nothing else moves it earlier: a race opened on any
    /// shard ships an `EXEC_ALT` at once, which queues a command.
    due: Option<Instant>,
}

impl PeerLinks {
    /// The links around the registry (whose [`PeerHandle`] they serve),
    /// each configured one's first dial due now. The configured names
    /// are resolved here, on the thread that builds the daemon: shard 0
    /// never waits on a resolver, and a name that does not resolve is a
    /// peer whose every dial fails.
    pub(crate) fn new(races: Arc<RemoteRaces>, config: &PeerConfig) -> Self {
        let table = LinkTable::new(races.advertise.clone(), config, Instant::now());
        let resolve = |peer: &String| Some((peer.clone(), peer.to_socket_addrs().ok()?.next()?));
        PeerLinks {
            races,
            due: table.next_deadline(),
            table,
            conns: HashMap::new(),
            resolved: config.peers.iter().filter_map(resolve).collect(),
            polled: Vec::new(),
        }
    }

    /// Adds one entry per socket to shard 0's poll set — none when there
    /// is no socket: `POLLOUT` while a dial is out, `POLLIN` (and
    /// `POLLOUT` with output waiting) once the link is up. Returns when
    /// the poll must end for the peer plane, if ever.
    pub(crate) fn poll_set(&mut self, fds: &mut Vec<PollFd>) -> Option<Instant> {
        self.polled.clear();
        for (addr, conn) in &self.conns {
            let events = match (conn.dialling, conn.out.is_empty()) {
                (true, _) => POLLOUT,
                (false, true) => POLLIN,
                (false, false) => POLLIN | POLLOUT,
            };
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            self.polled.push(addr.clone());
        }
        self.due
    }

    /// One shard-0 turn of peer work: the sockets `ready` reports (the
    /// entries `poll_set` added), then what is queued if the wake byte
    /// was read, then the clocks if due. Sockets go first, so no dial
    /// starts before the readiness of a socket it might replace is spent.
    pub(crate) fn turn(&mut self, woken: bool, ready: &[PollFd]) {
        let mut busy = false;
        let polled = std::mem::take(&mut self.polled);
        for (fd, addr) in ready.iter().zip(&polled) {
            if fd.revents != 0 {
                busy = true;
                self.ready(addr, fd.revents);
            }
        }
        self.polled = polled;
        if woken {
            busy |= self.offer_queued();
        }
        if self.due.is_some_and(|due| due <= Instant::now()) {
            busy = true;
            self.feed(Event::Tick);
            self.races.drive(RaceTable::expire);
        }
        if busy {
            self.due = self.next_due();
        }
    }

    /// The daemon drains: every open distributed race is decided now,
    /// and the frames that queued go to the sockets, best effort.
    pub(crate) fn drain(&mut self) {
        self.races.drive(RaceTable::flush);
        self.offer_queued();
        self.due = self.next_due();
    }

    /// Hands the core whatever is queued; false if nothing was.
    fn offer_queued(&mut self) -> bool {
        let cmds = self.races.peers.take();
        let any = !cmds.is_empty();
        cmds.into_iter().for_each(|cmd| self.offer(cmd));
        any
    }

    /// The earliest clock the core or the race table waits on.
    fn next_due(&self) -> Option<Instant> {
        let races = self.races.lock().table.next_expiry();
        [self.table.next_deadline(), races]
            .into_iter()
            .flatten()
            .min()
    }

    /// The one way anything happens to a link: step the core, then do
    /// what it says, in order.
    fn feed(&mut self, event: Event) {
        for action in self.table.step(event, Instant::now()) {
            match action {
                Action::Dial(addr) => self.dial(addr),
                Action::Abandon(addr) => {
                    self.conns.remove(&addr);
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

    /// Starts a non-blocking connect to `addr`, answered when its socket
    /// says how it went — or at once, for a name that did not resolve at
    /// start-up, a dynamic address that is no socket address, or a
    /// refusal the kernel knows right away.
    fn dial(&mut self, addr: String) {
        let sockaddr = self.resolved.get(&addr).copied();
        let sockaddr = sockaddr.or_else(|| addr.parse().ok());
        match sockaddr.map(connect_nonblocking) {
            Some(Ok(stream)) => {
                let conn = Conn {
                    stream,
                    dialling: true,
                    decoder: FrameDecoder::new(),
                    out: Vec::new(),
                };
                self.conns.insert(addr, conn);
            }
            _ => self.dialed(addr, false),
        }
    }

    /// Tells the core how the dial to `addr` went.
    fn dialed(&mut self, addr: String, connected: bool) {
        let watermark = self.races.lock().table.reconcile_watermark();
        self.feed(Event::Dialed {
            addr,
            connected,
            watermark,
        });
    }

    /// One socket the poll found ready: a dial that is done, or a
    /// stream to read and to write.
    fn ready(&mut self, addr: &str, revents: i16) {
        // Gone once the core has closed the link this turn.
        let Some(conn) = self.conns.get_mut(addr) else {
            return;
        };
        if conn.dialling {
            let connected = matches!(conn.stream.take_error(), Ok(None))
                && conn.stream.set_nodelay(true).is_ok();
            if connected {
                conn.dialling = false;
            } else {
                self.conns.remove(addr);
            }
            return self.dialed(addr.to_owned(), connected);
        }
        if revents & (POLLIN | POLLERR | POLLHUP) != 0 {
            self.read_link(addr);
        }
        if revents & POLLOUT != 0 {
            self.flush_link(addr);
        }
    }

    /// One frame for the core — a queued command, or a frame of the
    /// core's own — with the `peer.link.<addr>.send` chaos site's draw
    /// for it. The site sits on the stream, so there is no draw where
    /// no stream is up.
    fn offer(&mut self, cmd: Cmd) {
        let open = self.conns.get(&cmd.addr).is_some_and(|c| !c.dialling);
        let fault = open.then(|| wire_fault(&cmd.addr, "send")).flatten();
        self.feed(Event::Send(cmd, fault));
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
}

/// The chaos shim's draw for one frame at `peer.link.<addr>.<site>`
/// (`send` or `recv`). A delay is served here, by shard 0 sleeping
/// (only under a fault plan: 2 ms at most by default); everything else
/// is the link core's to apply.
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
