//! Cluster peering: outbound links to other `altxd` nodes.
//!
//! The paper's §4.4 remote execution needs a control plane: each daemon
//! keeps one persistent outbound connection per configured `--peer`,
//! ships `EXEC_ALT` / `COMMIT_VOTE` / `ELIMINATE` frames over it — the
//! executor pushes each shipped alternative's `ALT_RESULT` back on it,
//! dials nobody, and cancels whatever the connection shipped once it
//! closes — and measures the link (round-trip EWMA, liveness) so the
//! placement model works from observations instead of guesses.
//!
//! All outbound traffic runs on **reactor shard 0**, between its other
//! events, split the way the race registry and the run queue are: a
//! pure **core** and a **shell** that does what it says.
//!
//! * [`crate::link::LinkTable`] is the core — everything about a link
//!   that is not a socket, behind `step(event, now) -> Vec<Action>` and
//!   `next_deadline()`. The failure model (the part the paper
//!   hand-waves and a server cannot) is its rules table, each rule
//!   stated there once and checked on virtual time over seeded
//!   schedules: fail fast, so no request waits on a dead peer; backoff
//!   redials that carry nothing from the connection before; the dial
//!   timeout; replies correlated by order, and pushed results
//!   told apart from them by content; and the rule of service: a peer
//!   is in [`PeerStatsTable::up_peers`], which placement and voter
//!   freezing read, only while its link answers. INTERNALS § *Failure
//!   matrix* maps failures to outcomes.
//! * [`PeerLinks`] is the shell, held by shard 0's reactor: the
//!   resolved addresses, each link's write half and the clocks, and the
//!   turn that takes the command queue. It does no socket I/O. A link's
//!   connection is a *dialled* connection of `conn.rs` in shard 0's one
//!   connection map, polled, read and written there like an accepted
//!   one; its frames, its dial and its close come back to the core
//!   through [`PeerLinks::step`], and the core's writes go out through
//!   its write half. It has no
//!   loop of its own — its clocks bound shard 0's poll timeout — and
//!   nothing it does blocks: every `--peer` name is resolved once, at
//!   start-up, before shard 0 starts. A daemon with no `--peer` has no
//!   peer links at all.
//!
//! Reactor shards and pool workers never touch a peer socket — they
//! push a [`Cmd`] onto the [`PeerHandle`] and write one byte to shard
//! 0's wake channel. A daemon with no peer traffic pays nothing for
//! the plane on its request path: no poll entry, no lock, no clock.
//!
//! The seeded network chaos shim (`altx::faults` sites
//! `peer.link.<addr>.send` / `.recv`) sits in a dialled connection's
//! write and read halves (`conn.rs`) and does to a link only what TCP
//! can; the core sees each of its faults as time passing or as
//! `Closed`, never as a frame lost, doubled or reordered.

use crate::conn::{Conn, WriteHalf};
use crate::frame::Request;
use crate::link::{Action, Event, LinkTable, Stat};
use crate::reactor::ReactorShared;
use crate::remote::{RaceTable, RemoteRaces};
use std::collections::HashMap;
use std::fmt;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Peering knobs, carried in [`crate::ServerConfig`]. An empty peer
/// list (the default) disables remote dispatch entirely: the placement
/// never ships, and shard 0 dials nothing.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Peer daemon addresses (`host:port`), one outbound link each.
    pub peers: Vec<String>,
    /// Force one remote dispatch every N races so link statistics stay
    /// live even when the model prefers local (0 disables exploration).
    pub explore_every: u64,
    /// This node's identity, advertised to peers: the key its races'
    /// votes are kept under in a voter's ledger, and the prefix of its
    /// commit candidates. Nobody dials it, and a shipped alternative is
    /// scoped by the connection that shipped it, not by this name.
    /// Defaults to the bound listen address.
    pub advertise: Option<String>,
    /// How long an up link may answer nothing before it is closed and
    /// redialled, in milliseconds; every up link is probed three times
    /// in that span.
    pub silence_ms: u64,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            peers: Vec::new(),
            explore_every: 16,
            advertise: None,
            silence_ms: 1500,
        }
    }
}

/// Live counters for one configured peer link. Shard 0 is the only
/// writer of `up`/`rtt`/load; dispatch/win counters are
/// bumped from reactor shards and the registry. Everything is relaxed
/// atomics — telemetry reads need eventual consistency only.
#[derive(Debug)]
pub struct PeerStat {
    addr: String,
    up: AtomicBool,
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

    /// True while the outbound link is in service: from the first frame
    /// its connection carried back until that connection closes.
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

    /// Silence closes of this peer's link, one per spell in service.
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
            Stat::Quarantined => {
                self.quarantines.fetch_add(1, Ordering::Relaxed);
            }
            Stat::Reconnected => {
                self.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            Stat::Rtt(sample_us) => self.observe_rtt(sample_us),
            Stat::Load(queued, busy, workers) => {
                self.load_queued.store(queued, Ordering::Relaxed);
                self.load_busy.store(busy, Ordering::Relaxed);
                self.load_workers.store(workers, Ordering::Relaxed);
            }
        }
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

/// The peer's row, as the STATS page and the `PEER_STATS` body both
/// print it.
impl fmt::Display for PeerStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (queued, busy, workers) = self.load();
        write!(
            f,
            "peer {}: up {} rtt_us {} dispatched {} wins {} reconnects {} quarantines {} load {queued}/{busy}/{workers}",
            self.addr,
            u8::from(self.up()),
            self.rtt_ewma_us(),
            self.dispatched(),
            self.wins(),
            self.reconnects(),
            self.quarantines(),
        )
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
            .filter(|p| p.up())
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

    /// Peers whose link is in service right now — the count that gates
    /// placement and voter freezing.
    pub fn peers_up(&self) -> u64 {
        self.peers.iter().filter(|p| p.up()).count() as u64
    }

    /// The `PEER_STATS` text body: one row per peer.
    pub fn render(&self) -> String {
        let rows = self.peers.iter().map(|p| format!("  {p}\n"));
        std::iter::once("altxd peers\n".to_owned())
            .chain(rows)
            .collect()
    }
}

/// One peer in service as seen by the placement model: link rtt plus the
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
    /// An `ELIMINATE`, fire and forget: its ack only feeds the rtt
    /// EWMA.
    Eliminate,
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

/// Shard 0's peer links: the link core, and the shell that does what it
/// says. A link's connection is a dialled connection in shard 0's map
/// (`conn.rs`); the reactor hands what it does to [`PeerLinks::step`].
pub(crate) struct PeerLinks {
    races: Arc<RemoteRaces>,
    table: LinkTable,
    /// Where each configured peer's name resolved to, at start-up.
    resolved: HashMap<String, SocketAddr>,
    /// The write half of each link's connection — its one dial out or
    /// stream up. Closing it hangs up: the reactor's next look reclaims.
    dials: HashMap<String, Arc<WriteHalf>>,
    /// Connections dialled since the reactor last took them in.
    pub(crate) dialled: Vec<Conn>,
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
        let table = LinkTable::new(config, Instant::now());
        let resolve = |peer: &String| Some((peer.clone(), peer.to_socket_addrs().ok()?.next()?));
        PeerLinks {
            races,
            due: table.next_deadline(),
            table,
            resolved: config.peers.iter().filter_map(resolve).collect(),
            dials: HashMap::new(),
            dialled: Vec::new(),
        }
    }

    /// When the poll must end for the peer plane, if ever.
    pub(crate) fn due(&self) -> Option<Instant> {
        self.due
    }

    /// What a link's connection did, for the core: `Dialed` when its
    /// connect is done, `Reply` per frame, `Closed` once it ended.
    pub(crate) fn step(&mut self, event: Event) {
        if let Event::Dialed {
            addr,
            connected: false,
        } = &event
        {
            self.hang_up(addr);
        }
        self.feed(event);
        self.due = self.next_due();
    }

    /// Shard 0's turn of peer work, after its connections': what is
    /// queued if the wake byte was read, then the clocks if due.
    pub(crate) fn turn(&mut self, woken: bool) {
        let mut busy = woken && self.offer_queued();
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
    /// and the frames that queued go to the connections, best effort.
    pub(crate) fn drain(&mut self) {
        self.races.drive(RaceTable::flush);
        self.offer_queued();
        self.due = self.next_due();
    }

    /// Hands the core whatever is queued; false if nothing was.
    fn offer_queued(&mut self) -> bool {
        let cmds = self.races.peers.take();
        let any = !cmds.is_empty();
        cmds.into_iter().for_each(|cmd| self.feed(Event::Send(cmd)));
        any
    }

    /// The earliest clock the link core waits on, or the race table's
    /// one clock: the expiry backstop of its earliest open race.
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
                Action::Abandon(addr) => self.hang_up(&addr),
                Action::Frame(cmd) => self.feed(Event::Send(cmd)),
                Action::Write(addr, bytes) => {
                    let half = self.dials.get(&addr);
                    if half.is_some_and(|half| !half.write_link(bytes)) {
                        self.feed(Event::Closed(addr));
                    }
                }
                Action::Race(race_id, event) => self.races.step(race_id, event),
                Action::Down(addr) => {
                    self.hang_up(&addr);
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

    /// Starts a dial to `addr`, answered when its connection says how it
    /// went — or at once, for a name that did not resolve at start-up or
    /// a refusal the kernel knows right away.
    fn dial(&mut self, addr: String) {
        let to = self.resolved.get(&addr).copied();
        let Some(Ok(conn)) = to.map(|to| Conn::dial(addr.clone(), to)) else {
            return self.feed(Event::Dialed {
                addr,
                connected: false,
            });
        };
        self.dials.insert(addr, Arc::clone(conn.write_half()));
        self.dialled.push(conn);
    }

    /// Closes the connection of `addr`'s link, if it has one.
    fn hang_up(&mut self, addr: &str) {
        if let Some(half) = self.dials.remove(addr) {
            half.close();
        }
    }
}

/// The load line an executor appends to its `PEER_STATS` reply — the
/// heartbeat origins place around busy peers by; [`parse_load_line`].
pub(crate) fn load_line(queued: usize, busy: u64, workers: usize) -> String {
    format!("load queued {queued} busy {busy} workers {workers}\n")
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
pub(crate) mod tests {
    use super::*;
    use crate::frame::Response;

    /// Marks `stat`'s link up, as the link core does once it connects.
    pub(crate) fn mark_up(stat: &PeerStat) {
        stat.up.store(true, Ordering::Relaxed);
    }

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
        table.by_addr("a:1").unwrap().apply(Stat::Load(4, 2, 8));
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

    /// Placement and voter freezing see a peer exactly while its link
    /// is in service; a quarantine is counted, and takes nobody out by
    /// itself — the close that comes with it does.
    #[test]
    fn only_peers_in_service_enter_the_placement_input() {
        let table = PeerStatsTable::new(&["a:1".into(), "b:2".into()]);
        let (a, b) = (&table.peers()[0], &table.peers()[1]);
        let placed = |table: &PeerStatsTable| {
            let up = table.up_peers().into_iter().map(|p| p.addr);
            (table.peers_up(), up.collect::<Vec<_>>())
        };
        assert_eq!(placed(&table), (0, vec![]));
        a.apply(Stat::Up(true));
        assert_eq!(placed(&table), (1, vec!["a:1".to_owned()]));
        a.apply(Stat::Quarantined);
        a.apply(Stat::Up(false));
        assert_eq!(placed(&table), (0, vec![]));
        a.apply(Stat::Up(true));
        b.apply(Stat::Quarantined);
        assert_eq!(placed(&table), (1, vec!["a:1".to_owned()]));
        assert_eq!((a.quarantines(), table.total_quarantines()), (1, 2));
    }

    /// A peer's row as its link core keeps it: the connect leaves it out
    /// of service, the first frame puts it in, and a silence span with
    /// no frame — not a moment less — takes it out and counts one
    /// quarantine.
    #[test]
    fn a_row_enters_service_on_a_frame_and_leaves_it_at_the_silence_span() {
        use crate::link::{Action, Event, LinkTable};
        let (t0, ms) = (Instant::now(), std::time::Duration::from_millis);
        let config = PeerConfig {
            peers: vec!["a:1".to_owned()],
            silence_ms: 120,
            ..PeerConfig::default()
        };
        let table = PeerStatsTable::new(&config.peers);
        let row = &table.peers()[0];
        let mut core = LinkTable::new(&config, t0);
        let mut step = |event, at| {
            let mut events = vec![event];
            while let Some(event) = events.pop() {
                for action in core.step(event, t0 + ms(at)) {
                    match action {
                        Action::Stat(_, stat) => row.apply(stat),
                        Action::Frame(cmd) => events.push(Event::Send(cmd)),
                        _ => {}
                    }
                }
            }
        };
        let addr = || "a:1".to_owned();
        step(Event::Tick, 0);
        step(
            Event::Dialed {
                addr: addr(),
                connected: true,
            },
            0,
        );
        assert_eq!(table.peers_up(), 0, "a connect is not service");
        let body = load_line(0, 0, 1);
        let resp = Some(Response::Text { body });
        step(Event::Reply { addr: addr(), resp }, 10);
        assert_eq!(table.peers_up(), 1, "the first frame is");
        // Probed at 40, 80 and 120 ms, and never answered.
        for at in [40, 80, 120] {
            step(Event::Tick, at);
        }
        assert_eq!(
            (table.peers_up(), row.quarantines()),
            (1, 0),
            "silent 110 of 120 ms"
        );
        step(Event::Tick, 160);
        assert_eq!(
            (table.peers_up(), row.quarantines()),
            (0, 1),
            "silent 150 of 120 ms"
        );
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
    fn load_line_round_trips() {
        for (queued, busy, workers) in [(0, 0, 1), (7, 3, 4), (64, 2, 2), (usize::MAX, u64::MAX, 9)]
        {
            let body = format!("altxd peers\n{}", load_line(queued, busy, workers));
            let parsed = (queued as u64, busy, workers as u64);
            assert_eq!(parse_load_line(&body), Some(parsed), "{body:?}");
        }
    }

    #[test]
    fn render_lists_every_configured_peer() {
        let table = PeerStatsTable::new(&["x:1".into(), "y:2".into()]);
        table.by_addr("x:1").unwrap().note_dispatched();
        table.by_addr("x:1").unwrap().note_win();
        let text = table.render();
        assert!(text.contains("peer x:1"), "{text}");
        assert!(text.contains("peer y:2"), "{text}");
        assert!(text.contains("dispatched 1 wins 1"), "{text}");
    }
}
