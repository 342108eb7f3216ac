//! The peer link as a value: every rule about an outbound link that is
//! not a socket call.
//!
//! [`LinkTable`] is the **core** under the peer thread
//! ([`crate::peer`] is its shell): per link, whether it is up, the
//! in-order correlation FIFO of the requests in flight on it, the
//! frames parked for its next dial, its backoff, its health and its
//! heartbeat clock. Everything that can happen to a link is an
//! [`Event`] fed to [`LinkTable::step`] together with the current
//! instant; everything the link wants done about it comes back as a
//! list of [`Action`]s, and [`LinkTable::next_deadline`] says when the
//! next [`Event::Tick`] is due. The core reads no clock, owns no
//! socket, lock or counter and draws no fault itself, so a test can
//! feed it any interleaving of commands, dial outcomes, replies,
//! closes, ticks and wire faults on virtual time and judge it by its
//! actions alone (`tests::any_schedule_keeps_every_link_rule`).
//!
//! The rules, each stated here and nowhere else:
//!
//! | `Event` | what the core does | `Action`s it may return |
//! |---|---|---|
//! | `Send(cmd, fault)` | an address it has never seen becomes a *dynamic* link (an executor's way home to an origin outside its peer list) and is dialled on the spot, the frame held for the outcome; an up link puts the frame on its stream as the send-side fault allows — dropped → no bytes and no tag; duplicated → twice, two tags; truncated → its tail cut, one tag; a down *configured* link parks `Fire` / `Eliminate` frames for its redial (the oldest dropped beyond `MAX_QUEUED`) and refuses the rest at once | `Dial`, `Write`, `Race` (refusal) |
//! | `Dialed { connected: false }` — the shell's answer to `Dial` | configured: the next dial is one backoff away and the backoff doubles (50 ms → 2 s); dynamic: every held frame is refused and the link forgotten — nothing is kept for a dead origin | `Race` (refusal) |
//! | `Dialed { connected: true, watermark }` | the link is up, its backoff and silence clock start over, its health is **not** touched; on a re-dial `RECONCILE(watermark)` goes first, then everything parked (the `ELIMINATE`s unacknowledged at the last close among it), then the priming heartbeat | `Stat(Up(true))`, `Stat(Reconnected)`, `Frame`… |
//! | `Reply { resp, fault }` | pairs the reply with the oldest tag in flight: a lost reply consumes its tag silently; a cut, undecodable or unasked-for one closes the link; anything else is proof of life (health → `Up`), an rtt sample, and the tag's answer — twice when duplicated | `Stat(Health)`, `Stat(Rtt)`, `Stat(Load)`, `Race`, or as `Closed` |
//! | `Closed(addr)` | every tag in flight is refused, unacknowledged `ELIMINATE`s are re-parked for replay, the redial is one initial backoff away; a dynamic link is forgotten instead | `Stat(Up(false))`, `Race`…, `Down` |
//! | `Tick` | a down configured link whose dial is due is dialled; an up one whose heartbeat is due is aged by its silence, and then either reset (as `Closed`) because it has been silent long enough to quarantine a healthy peer, or probed | `Dial`, `Stat(Health)`, `Frame` (heartbeat), or as `Closed` |
//!
//! A refusal converts the tag: a shipped alternative becomes
//! `LegRefused`, a vote a denial, and nobody waits on the other tags.
//! The shell answers `Dial` at once, before it feeds any other event —
//! a dial blocks the peer thread, so nothing can come between — and
//! feeds a `Frame` back as a `Send` like any other command.

use crate::frame::{Request, Response};
use crate::peer::{parse_load_line, Cmd, PeerConfig, PeerHealth, SendTag};
use crate::remote;
use altx::faults::NetFault;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// First re-dial delay after a link failure.
const BACKOFF_INITIAL: Duration = Duration::from_millis(50);
/// Backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(2);
/// Frames parked per down link before the oldest are dropped.
const MAX_QUEUED: usize = 256;

/// Everything that can happen to a link.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// One frame for a link — a command from the `PeerHandle` queue, or
    /// an [`Action::Frame`] coming back — with the fault the chaos shim
    /// drew for it at the link's send site. The site sits on the
    /// stream: the shell draws only where it holds one.
    Send(Cmd, Option<NetFault>),
    /// The answer to [`Action::Dial`]. `watermark` is the race
    /// registry's reconcile watermark, read when the dial returned.
    Dialed {
        addr: String,
        connected: bool,
        watermark: u64,
    },
    /// One whole frame arrived on the link — `resp` is `None` when it
    /// does not decode as a reply — with the fault drawn for it at the
    /// link's recv site.
    Reply {
        addr: String,
        resp: Option<Response>,
        fault: Option<NetFault>,
    },
    /// The stream ended or failed: EOF, an I/O error, a framing error.
    Closed(String),
    /// Time passed; [`LinkTable::next_deadline`] says when one is due.
    Tick,
}

/// What the core wants done, in order.
#[derive(Debug)]
pub(crate) enum Action {
    /// Connect to this address and feed the outcome back as
    /// [`Event::Dialed`].
    Dial(String),
    /// A frame of the link's own — `RECONCILE`, a parked frame's
    /// replay, a heartbeat: feed it back as an [`Event::Send`].
    Frame(Cmd),
    /// Append these bytes to this link's stream.
    Write(String, Vec<u8>),
    /// Feed this event to this race.
    Race(u64, remote::Event),
    /// The link went down: drop its socket and tell the race registry
    /// its peer is gone. Exactly one per up → down.
    Down(String),
    /// Mirror this into the peer's row of the stats table, if it has one.
    Stat(String, Stat),
}

/// One effect on a peer's published counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stat {
    /// The link came up or went down.
    Up(bool),
    /// The peer's health changed.
    Health(PeerHealth),
    /// A dial succeeded on a link that had been up before.
    Reconnected,
    /// One request→reply round trip, in microseconds.
    Rtt(u64),
    /// `(queued, busy, workers)` from a heartbeat reply.
    Load(u64, u64, u64),
}

/// A link is down, or up with its in-order correlation FIFO: one entry
/// per frame on the wire, popped by its reply; the `Instant` starts
/// the rtt sample. The FIFO lives and dies with the connection, so a
/// reply can only ever meet a tag of the connection it arrived on.
enum State {
    Down,
    Up {
        pending: VecDeque<(SendTag, Instant)>,
    },
}

struct Link {
    /// Configured links persist, park and redial for ever; dynamic
    /// links exist while their dial is out or their stream is up.
    configured: bool,
    state: State,
    /// Frames waiting for a dial: parked on a down configured link,
    /// held on a dynamic one until its dial returns.
    queue: VecDeque<(Request, SendTag)>,
    backoff: Duration,
    next_dial: Instant,
    ever_up: bool,
    health: PeerHealth,
    /// Last time a reply (any reply) arrived, or the link came up.
    last_heard: Instant,
    /// Last time a heartbeat was offered to this link.
    last_hb: Instant,
}

impl Link {
    fn new(configured: bool, now: Instant) -> Self {
        Link {
            configured,
            state: State::Down,
            queue: VecDeque::new(),
            backoff: BACKOFF_INITIAL,
            next_dial: now,
            ever_up: false,
            health: PeerHealth::Up,
            last_heard: now,
            last_hb: now,
        }
    }

    /// Queues a frame for the next dial, dropping the oldest beyond
    /// [`MAX_QUEUED`].
    fn park(&mut self, req: Request, tag: SendTag) {
        self.queue.push_back((req, tag));
        if self.queue.len() > MAX_QUEUED {
            self.queue.pop_front();
        }
    }

    /// The link's one timer: a down configured link's next dial, an up
    /// one's next heartbeat. Health is looked at when the heartbeat is
    /// due, so the silent-link reset comes within one cadence of the
    /// silence that earns it.
    fn alarm(&self, heartbeat: Duration) -> Option<Instant> {
        match self.state {
            _ if !self.configured => None,
            State::Down => Some(self.next_dial),
            State::Up { .. } => (!heartbeat.is_zero()).then(|| self.last_hb + heartbeat),
        }
    }

    /// Up → down: every tag in flight is refused, and a configured
    /// link re-parks its unacknowledged `ELIMINATE`s — the race's
    /// outcome no longer needs them, but the peer must still learn it
    /// or it keeps racing a ghost — and redials one initial backoff
    /// from now. A link that is already down is left alone.
    fn close(&mut self, addr: &str, origin: &str, now: Instant, out: &mut Vec<Action>) {
        let State::Up { pending } = std::mem::replace(&mut self.state, State::Down) else {
            return;
        };
        out.push(Action::Stat(addr.to_owned(), Stat::Up(false)));
        self.next_dial = now + BACKOFF_INITIAL;
        for (tag, _) in pending {
            if let (true, SendTag::Eliminate { race_id }) = (self.configured, tag) {
                // Rebuilt for replay under this node's identity.
                let origin = origin.to_owned();
                self.park(Request::Eliminate { race_id, origin }, tag);
            }
            refuse(addr, tag, out);
        }
        out.push(Action::Down(addr.to_owned()));
    }
}

/// Every outbound link of one node.
pub(crate) struct LinkTable {
    /// Ordered, so a seeded schedule replays action for action.
    links: BTreeMap<String, Link>,
    /// This node's peer identity, named in `RECONCILE` and replayed
    /// `ELIMINATE` frames.
    advertise: String,
    /// Heartbeat cadence on configured links (zero disables the health
    /// lifecycle).
    heartbeat: Duration,
    /// Silence threshold for suspicion; quarantine at twice this.
    suspect: Duration,
}

impl LinkTable {
    /// One down link per configured peer, its first dial due `now`.
    pub(crate) fn new(advertise: String, config: &PeerConfig, now: Instant) -> Self {
        let down = |addr: &String| (addr.clone(), Link::new(true, now));
        LinkTable {
            links: config.peers.iter().map(down).collect(),
            advertise,
            heartbeat: Duration::from_millis(config.heartbeat_ms),
            suspect: Duration::from_millis(config.suspect_ms),
        }
    }

    /// Something happened; `now` is when.
    pub(crate) fn step(&mut self, event: Event, now: Instant) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Send(cmd, fault) => self.send(cmd, fault, now, &mut out),
            Event::Dialed {
                addr,
                connected,
                watermark,
            } => self.dialed(&addr, connected, watermark, now, &mut out),
            Event::Reply { addr, resp, fault } => self.reply(&addr, resp, fault, now, &mut out),
            Event::Closed(addr) => self.down(&addr, now, &mut out),
            Event::Tick => self.tick(now, &mut out),
        }
        out
    }

    /// The earliest instant a [`Event::Tick`] has something to do.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let alarms = self.links.values().filter_map(|l| l.alarm(self.heartbeat));
        alarms.min()
    }

    /// One frame for one link. An up link encodes it onto its stream,
    /// keeping the correlation FIFO aligned with what the send-side
    /// fault lets through:
    ///
    /// * **drop / partition** — no bytes and no tag (no request ⇒ no
    ///   reply ⇒ the FIFO stays aligned); a race leg lost this way is
    ///   recovered by its per-leg deadline.
    /// * **duplicate** — the frame goes out twice with two tag entries;
    ///   the receiver answers both, and the protocol layer must shrug
    ///   off the second reply.
    /// * **truncate** — the frame's tail is cut, desynchronizing the
    ///   stream. A receiver that finds a malformed body closes it and
    ///   the link dies into redial; one whose leftover bytes parse as a
    ///   legal length waits inside it and answers nothing, which the
    ///   tick's silent-link reset turns into the same redial.
    /// * **delay** — the shell has already stalled; nothing to do here.
    fn send(&mut self, cmd: Cmd, fault: Option<NetFault>, now: Instant, out: &mut Vec<Action>) {
        let link = self.links.entry(cmd.addr.clone()).or_insert_with(|| {
            // Dial on demand: an origin outside the configured set
            // (results and votes go back to whoever asked).
            out.push(Action::Dial(cmd.addr.clone()));
            Link::new(false, now)
        });
        // A configured link parks what is fire-and-forget; a dynamic
        // one holds anything, for the one dial this command started.
        let parks =
            !link.configured || matches!(cmd.tag, SendTag::Fire | SendTag::Eliminate { .. });
        let pending = match &mut link.state {
            State::Up { pending } => pending,
            State::Down if parks => return link.park(cmd.req, cmd.tag),
            // Fail fast: a down peer cannot run the alternative or
            // grant the vote, and the race must not wait for the redial
            // to find that out. (Heartbeats are minted on up links
            // only; one racing a link death is just dropped — the next
            // dial primes a fresh one.)
            State::Down => return refuse(&cmd.addr, cmd.tag, out),
        };
        let copies = match fault {
            Some(NetFault::Drop | NetFault::Partition) => return,
            Some(NetFault::Duplicate) => 2,
            Some(NetFault::Truncate | NetFault::Delay(_)) | None => 1,
        };
        let body = cmd.req.encode();
        let mut bytes = Vec::with_capacity(copies * (4 + body.len()));
        for _ in 0..copies {
            bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
            bytes.extend_from_slice(&body);
            pending.push_back((cmd.tag, now));
        }
        if fault == Some(NetFault::Truncate) {
            let cut = (bytes.len() / 2).max(1);
            bytes.truncate(bytes.len() - cut);
        }
        out.push(Action::Write(cmd.addr, bytes));
    }

    fn dialed(
        &mut self,
        addr: &str,
        connected: bool,
        watermark: u64,
        now: Instant,
        out: &mut Vec<Action>,
    ) {
        let Some(link) = self.links.get_mut(addr) else {
            return;
        };
        if !connected && link.configured {
            link.next_dial = now + link.backoff;
            link.backoff = (link.backoff * 2).min(BACKOFF_MAX);
            return;
        }
        if !connected {
            // Nothing is parked and nothing redialled for an address
            // outside the peer list: a result for an origin that is
            // gone is dropped, and the origin's per-leg deadline
            // redispatches as it does for any lost result.
            let held = self.links.remove(addr).map(|link| link.queue);
            let tags = held.into_iter().flatten().map(|(_, tag)| tag);
            return tags.for_each(|tag| refuse(addr, tag, out));
        }
        let frame = |req, tag| {
            let addr = addr.to_owned();
            Action::Frame(Cmd { addr, req, tag })
        };
        out.push(Action::Stat(addr.to_owned(), Stat::Up(true)));
        if link.ever_up {
            out.push(Action::Stat(addr.to_owned(), Stat::Reconnected));
            // Partition-heal reconciliation: tell the peer which of our
            // races are long decided, so it kills zombies the replayed
            // ELIMINATEs don't name.
            let origin = self.advertise.clone();
            out.push(frame(
                Request::Reconcile { watermark, origin },
                SendTag::Fire,
            ));
        }
        // Frames parked while down — the ELIMINATEs that were
        // unacknowledged when the link died among them — go out next.
        out.extend(link.queue.drain(..).map(|(req, tag)| frame(req, tag)));
        if link.configured && !self.heartbeat.is_zero() {
            // Prime the health lifecycle (and the rtt EWMA, and the
            // load figures) without waiting one cadence.
            out.push(frame(Request::PeerStats, SendTag::Heartbeat));
        }
        link.state = State::Up {
            pending: VecDeque::new(),
        };
        link.ever_up = true;
        link.backoff = BACKOFF_INITIAL;
        link.last_heard = now;
        link.last_hb = now;
    }

    /// Pairs one arrived frame with the oldest tag in flight. The
    /// recv-side fault comes first: a dropped (or partitioned) reply
    /// consumes its tag silently — exactly what a reply lost on the
    /// wire looks like — a duplicated one is answered twice to prove
    /// the protocol layer idempotent, and a truncated one kills the
    /// link like any desynchronized stream.
    fn reply(
        &mut self,
        addr: &str,
        resp: Option<Response>,
        fault: Option<NetFault>,
        now: Instant,
        out: &mut Vec<Action>,
    ) {
        let Some(link) = self.links.get_mut(addr) else {
            return;
        };
        let State::Up { pending } = &mut link.state else {
            return;
        };
        let paired = match fault {
            Some(NetFault::Truncate) => None,
            Some(NetFault::Drop | NetFault::Partition) => {
                pending.pop_front();
                return;
            }
            Some(NetFault::Duplicate | NetFault::Delay(_)) | None => {
                resp.zip(pending.front().copied())
            }
        };
        let Some((resp, (tag, sent_at))) = paired else {
            // Cut short, undecodable, or a reply we never asked for:
            // the stream is not trustworthy.
            return self.down(addr, now, out);
        };
        pending.pop_front();
        // Any reply is proof of life: a Suspect or Quarantined peer
        // that answers a probe is readmitted.
        link.last_heard = now;
        if link.health != PeerHealth::Up {
            link.health = PeerHealth::Up;
            out.push(Action::Stat(addr.to_owned(), Stat::Health(PeerHealth::Up)));
        }
        let rtt_us = now.duration_since(sent_at).as_micros().max(1) as u64;
        out.push(Action::Stat(addr.to_owned(), Stat::Rtt(rtt_us)));
        if fault == Some(NetFault::Duplicate) {
            // Second delivery: no tag of its own, no rtt sample.
            answer(addr, tag, resp.clone(), out);
        }
        answer(addr, tag, resp, out);
    }

    /// A link's stream is gone; a dynamic link goes with it.
    fn down(&mut self, addr: &str, now: Instant, out: &mut Vec<Action>) {
        let Some(link) = self.links.get_mut(addr) else {
            return;
        };
        link.close(addr, &self.advertise, now, out);
        if !link.configured {
            self.links.remove(addr);
        }
    }

    /// Fires every due alarm. For an up link that is the health
    /// lifecycle: age the peer by its silence, Up → Suspect →
    /// Quarantined, and reset a link that has been silent for the whole
    /// quarantine span. The reset is what makes quarantine an episode:
    /// a stream the peer's decoder lost sync on (a cut frame whose
    /// leftover bytes parse as a legal length leaves it waiting inside
    /// that length) carries heartbeats forever and answers none, so
    /// only a fresh connection can bring the reply that readmits. The
    /// redial itself readmits nobody — only a reply does — and it
    /// starts the silence clock over, so a peer that stays silent is
    /// redialled once per quarantine span, not once per tick.
    fn tick(&mut self, now: Instant, out: &mut Vec<Action>) {
        for (addr, link) in &mut self.links {
            if link.alarm(self.heartbeat).is_none_or(|at| at > now) {
                continue;
            }
            if matches!(link.state, State::Down) {
                out.push(Action::Dial(addr.clone()));
                continue;
            }
            let silent = now.duration_since(link.last_heard);
            let aged = link.health.aged(silent, self.suspect);
            if aged != link.health {
                link.health = aged;
                out.push(Action::Stat(addr.clone(), Stat::Health(aged)));
            }
            // The silence that quarantines a healthy peer.
            if PeerHealth::Up.aged(silent, self.suspect) == PeerHealth::Quarantined {
                link.close(addr, &self.advertise, now, out);
            } else {
                link.last_hb = now;
                let (addr, req, tag) = (addr.clone(), Request::PeerStats, SendTag::Heartbeat);
                out.push(Action::Frame(Cmd { addr, req, tag }));
            }
        }
    }
}

/// The request behind `tag` will never get the answer it was sent for
/// — the link was down, died first, or replied with something else: a
/// shipped alternative converts to a refusal, a vote to a denial, and
/// nobody waits on the other tags.
fn refuse(addr: &str, tag: SendTag, out: &mut Vec<Action>) {
    match tag {
        SendTag::ExecAlt { race_id, alt_idx } => {
            out.push(Action::Race(race_id, remote::Event::LegRefused { alt_idx }));
        }
        SendTag::Vote { race_id } => out.push(vote(race_id, addr, false)),
        SendTag::Fire | SendTag::Eliminate { .. } | SendTag::Heartbeat => {}
    }
}

fn vote(race_id: u64, voter: &str, granted: bool) -> Action {
    let voter = voter.to_owned();
    Action::Race(race_id, remote::Event::Vote { voter, granted })
}

/// What the reply `resp` means for the request behind `tag`.
fn answer(addr: &str, tag: SendTag, resp: Response, out: &mut Vec<Action>) {
    match (tag, resp) {
        // The executor acks admission with a Text frame; any other
        // reply (Overloaded, Error from an older build) means the
        // alternative is not running there.
        (SendTag::ExecAlt { .. }, Response::Text { .. }) => {}
        (SendTag::Vote { race_id }, Response::Vote { granted, .. }) => {
            out.push(vote(race_id, addr, granted));
        }
        // The PEER_STATS reply ends with the executor's load line;
        // older builds without one just leave the load figures at
        // their last value.
        (SendTag::Heartbeat, Response::Text { body }) => {
            if let Some((queued, busy, workers)) = parse_load_line(&body) {
                out.push(Action::Stat(
                    addr.to_owned(),
                    Stat::Load(queued, busy, workers),
                ));
            }
        }
        (tag, _) => refuse(addr, tag, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameDecoder;
    use altx_check::{check, CaseRng};

    const ORIGIN: &str = "origin:1";
    const CONFIGURED: [&str; 2] = ["c0:1", "c1:1"];
    const DYNAMIC: [&str; 2] = ["d0:1", "d1:1"];

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn config(peers: &[&str], heartbeat_ms: u64, suspect_ms: u64) -> PeerConfig {
        PeerConfig {
            peers: peers.iter().map(|p| (*p).to_owned()).collect(),
            heartbeat_ms,
            suspect_ms,
            ..PeerConfig::default()
        }
    }

    /// The tag kinds a command can carry, in the order `command` numbers
    /// them.
    const EXEC_ALT: u8 = 0;
    const VOTE: u8 = 1;
    const FIRE: u8 = 2;
    const ELIMINATE: u8 = 3;
    const HEARTBEAT: u8 = 4;

    /// The command of tag kind `kind` issued under ordinal `n`. The
    /// ordinal is the race id, so the bytes on the wire, the tag in the
    /// FIFO and the `Race` action that resolves it all name it.
    fn command(addr: &str, kind: u8, n: u64) -> Cmd {
        let origin = ORIGIN.to_owned();
        let req = match kind {
            EXEC_ALT => Request::ExecAlt {
                race_id: n,
                alt_idx: 1,
                deadline_ms: 0,
                arg: n,
                workload: "w".to_owned(),
                origin,
            },
            VOTE => Request::CommitVote {
                race_id: n,
                origin,
                candidate: "c".to_owned(),
            },
            FIRE => Request::AltResult {
                race_id: n,
                alt_idx: 0,
                status: 0,
                value: n,
                latency_us: 1,
            },
            ELIMINATE => Request::Eliminate { race_id: n, origin },
            _ => Request::PeerStats,
        };
        let (addr, tag) = (addr.to_owned(), tag_of(&req));
        Cmd { addr, req, tag }
    }

    /// The tag a request's sender must hold for it, read from the
    /// request alone — the model peer knows nothing else.
    fn tag_of(req: &Request) -> SendTag {
        match *req {
            Request::ExecAlt {
                race_id, alt_idx, ..
            } => SendTag::ExecAlt { race_id, alt_idx },
            Request::CommitVote { race_id, .. } => SendTag::Vote { race_id },
            Request::Eliminate { race_id, .. } => SendTag::Eliminate { race_id },
            Request::PeerStats => SendTag::Heartbeat,
            _ => SendTag::Fire,
        }
    }

    /// The ordinal of a tag somebody waits on.
    fn owed(tag: SendTag) -> Option<u64> {
        match tag {
            SendTag::ExecAlt { race_id, .. } | SendTag::Vote { race_id } => Some(race_id),
            _ => None,
        }
    }

    /// Whether the model peer refuses shipped alternative `n` and
    /// whether it grants vote `n`: functions of the ordinal, so an
    /// answer paired with the wrong request shows in its content.
    fn refuses(n: u64) -> bool {
        n.is_multiple_of(3)
    }
    fn grants(n: u64) -> bool {
        n.is_multiple_of(2)
    }

    fn reply_to(req: &Request) -> Response {
        let text = |body: &str| Response::Text {
            body: body.to_owned(),
        };
        match *req {
            Request::ExecAlt { race_id, .. } if refuses(race_id) => Response::Overloaded,
            Request::CommitVote { race_id, .. } => Response::Vote {
                granted: grants(race_id),
                holder: "h".to_owned(),
            },
            Request::PeerStats => text("altxd peers\nload queued 1 busy 2 workers 3\n"),
            _ => text("ok\n"),
        }
    }

    /// The far end of one link's stream, as a real peer is: the real
    /// [`FrameDecoder`] over whatever bytes the core asked to write,
    /// each whole frame answered in order.
    #[derive(Default)]
    struct Stream {
        decoder: FrameDecoder,
        /// Replies not delivered yet, each with the tag its request
        /// must be holding at the sender.
        replies: VecDeque<(SendTag, Response)>,
        /// A cut frame went out: the decoder is out of step with the
        /// sender, and pairing is promised no more.
        cut: bool,
        /// The peer found garbage and will hang up.
        hangup: bool,
    }

    #[derive(Default)]
    struct Peer {
        /// Dials succeed.
        listening: bool,
        /// Stalled: bytes pile up unread and nothing is answered.
        stalled: bool,
        stream: Option<Stream>,
    }

    impl Peer {
        fn read(&mut self) {
            let Some(stream) = self.stream.as_mut().filter(|_| !self.stalled) else {
                return;
            };
            loop {
                let req = match stream.decoder.next_frame() {
                    Ok(Some(body)) => Request::decode(&body),
                    Ok(None) => return,
                    Err(e) => Err(e),
                };
                match req {
                    Ok(req) => stream.replies.push_back((tag_of(&req), reply_to(&req))),
                    Err(_) => return stream.hangup = true,
                }
            }
        }
    }

    /// What the rules say about one configured link — its timers, its
    /// health and what its next dial must replay — kept by restating
    /// each rule, not by asking the core.
    struct Model {
        up: bool,
        ever_up: bool,
        next_dial: Instant,
        /// Failed dials since the last success.
        fails: u32,
        health: PeerHealth,
        /// The last reply, or the dial.
        heard: Instant,
        last_hb: Instant,
        park: VecDeque<Request>,
    }

    /// What became of one `ExecAlt` / `Vote` command.
    #[derive(Debug)]
    struct Fate {
        addr: String,
        /// Tag entries the core made for it (2 when the send doubled).
        pushed: u32,
        /// A send-side fault ate the frame.
        lost: bool,
        /// Resolutions: a `Race` action, a silent ack, or a reply the
        /// wire ate.
        settled: u32,
    }

    /// One link as a step found it.
    struct Was {
        known: bool,
        up: bool,
        pending: Vec<SendTag>,
        /// What it held for its dial (looked at for a dial's outcome
        /// only).
        parked: Vec<Request>,
        /// A cut frame had gone out on its stream.
        cut: bool,
    }

    /// A stand-in for the shell, the wire and the peers: drives a
    /// [`LinkTable`] on virtual time and judges every step by its
    /// actions (and, for the FIFO and the park, by a look inside).
    struct Sim {
        table: LinkTable,
        now: Instant,
        heartbeat: Duration,
        suspect: Duration,
        peers: BTreeMap<String, Peer>,
        model: BTreeMap<String, Model>,
        /// The counters the shell would publish, mirrored from `Stat`.
        mirror: BTreeMap<String, (bool, PeerHealth)>,
        fates: BTreeMap<u64, Fate>,
        next_ordinal: u64,
        p_send: f64,
        p_recv: f64,
        truncates: bool,
    }

    impl Sim {
        fn new(peers: &[&str], heartbeat_ms: u64, suspect_ms: u64, now: Instant) -> Self {
            let owned = |a: &&str| (*a).to_owned();
            let model = |a| {
                let model = Model {
                    up: false,
                    ever_up: false,
                    next_dial: now,
                    fails: 0,
                    health: PeerHealth::Up,
                    heard: now,
                    last_hb: now,
                    park: VecDeque::new(),
                };
                (owned(a), model)
            };
            let peer = |a| {
                let peer = Peer {
                    listening: true,
                    ..Peer::default()
                };
                (owned(a), peer)
            };
            let cfg = config(peers, heartbeat_ms, suspect_ms);
            Sim {
                table: LinkTable::new(ORIGIN.to_owned(), &cfg, now),
                now,
                heartbeat: ms(heartbeat_ms),
                suspect: ms(suspect_ms),
                peers: peers.iter().chain(&DYNAMIC).map(peer).collect(),
                model: peers.iter().map(model).collect(),
                mirror: peers
                    .iter()
                    .map(|a| (owned(a), (false, PeerHealth::Up)))
                    .collect(),
                fates: BTreeMap::new(),
                next_ordinal: 1,
                p_send: 0.0,
                p_recv: 0.0,
                truncates: false,
            }
        }

        fn fault(&self, rng: &mut CaseRng, p: f64) -> Option<NetFault> {
            rng.chance(p).then(|| match rng.u64_below(5) {
                0 => NetFault::Drop,
                1 => NetFault::Partition,
                2 => NetFault::Duplicate,
                3 if self.truncates => NetFault::Truncate,
                _ => NetFault::Delay(ms(1)),
            })
        }

        fn is_up(&self, addr: &str) -> bool {
            let state = self.table.links.get(addr).map(|l| &l.state);
            matches!(state, Some(State::Up { .. }))
        }

        fn pending(&self, addr: &str) -> Vec<SendTag> {
            match self.table.links.get(addr).map(|l| &l.state) {
                Some(State::Up { pending }) => pending.iter().map(|(tag, _)| *tag).collect(),
                _ => Vec::new(),
            }
        }

        fn parked(&self, addr: &str) -> impl Iterator<Item = &Request> {
            let queue = self.table.links.get(addr).map(|l| l.queue.iter());
            queue.into_iter().flatten().map(|(req, _)| req)
        }

        /// Every link `event` can touch — its own, or for a tick every
        /// configured one — as the step will find it.
        fn was(&self, event: &Event) -> BTreeMap<String, Was> {
            let dialed = matches!(event, Event::Dialed { .. });
            let was = |addr: &String| {
                let stream = self.peers[addr].stream.as_ref();
                let was = Was {
                    known: self.table.links.contains_key(addr),
                    up: self.is_up(addr),
                    pending: self.pending(addr),
                    parked: self.parked(addr).filter(|_| dialed).cloned().collect(),
                    cut: stream.is_some_and(|s| s.cut),
                };
                (addr.clone(), was)
            };
            match event {
                Event::Send(Cmd { addr, .. }, _)
                | Event::Dialed { addr, .. }
                | Event::Reply { addr, .. }
                | Event::Closed(addr) => std::iter::once(addr).map(was).collect(),
                Event::Tick => self.model.keys().map(was).collect(),
            }
        }

        fn model_park(&mut self, addr: &str, req: Request) {
            let park = &mut self.model.get_mut(addr).expect("configured").park;
            park.push_back(req);
            if park.len() > MAX_QUEUED {
                park.pop_front();
            }
        }

        /// Steps the core, judges the step, then does with the actions
        /// what the shell does: answers `Dial` at once (from the model
        /// peer), feeds `Frame` back with a fault drawn only where a
        /// stream is open, hands `Write` to the peer's decoder.
        fn feed(&mut self, rng: &mut CaseRng, event: Event) {
            let was = self.was(&event);
            let actions = self.table.step(event.clone(), self.now);
            self.judge(&was, &event, &actions);
            for action in actions {
                match action {
                    Action::Dial(addr) => {
                        let peer = self.peers.get_mut(&addr).expect("a known address");
                        assert!(peer.stream.is_none(), "dialled an open stream: {addr}");
                        let connected = peer.listening;
                        peer.stream = connected.then(Stream::default);
                        let watermark = self.next_ordinal;
                        let dialed = Event::Dialed {
                            addr,
                            connected,
                            watermark,
                        };
                        self.feed(rng, dialed);
                    }
                    Action::Frame(cmd) => self.offer(rng, cmd),
                    Action::Write(addr, bytes) => {
                        let peer = self.peers.get_mut(&addr).expect("a known address");
                        let stream = peer.stream.as_mut().expect("a write needs a stream");
                        stream.decoder.extend(&bytes);
                        peer.read();
                    }
                    Action::Down(addr) => {
                        let peer = self.peers.get_mut(&addr).expect("a known address");
                        assert!(peer.stream.take().is_some(), "{addr} went down twice");
                    }
                    Action::Race(..) | Action::Stat(..) => {}
                }
            }
        }

        fn offer(&mut self, rng: &mut CaseRng, cmd: Cmd) {
            let open = self.peers[&cmd.addr].stream.is_some();
            let fault = open.then(|| self.fault(rng, self.p_send)).flatten();
            self.feed(rng, Event::Send(cmd, fault));
        }

        /// A fresh command of tag kind `kind` for `addr`; its ordinal.
        fn issue(&mut self, rng: &mut CaseRng, addr: &str, kind: u8) -> u64 {
            let n = self.next_ordinal;
            self.next_ordinal += 1;
            if kind == EXEC_ALT || kind == VOTE {
                let fate = Fate {
                    addr: addr.to_owned(),
                    pushed: 0,
                    lost: false,
                    settled: 0,
                };
                self.fates.insert(n, fate);
            }
            self.offer(rng, command(addr, kind, n));
            n
        }

        /// Delivers the model peer's oldest undelivered reply on `addr`
        /// — or, `garbage`, a frame that is no reply at all.
        fn deliver(&mut self, rng: &mut CaseRng, addr: &str, garbage: bool) {
            let stream = self.peers.get_mut(addr).and_then(|p| p.stream.as_mut());
            let Some(stream) = stream else {
                return;
            };
            let resp = if garbage {
                // A frame nobody asked for puts the peer out of step
                // too (it may take a tag with it, if the wire eats it).
                stream.cut = true;
                None
            } else {
                let Some((tag, resp)) = stream.replies.pop_front() else {
                    return;
                };
                if !stream.cut {
                    // The pairing property: with no cut frame on the
                    // stream, the oldest tag in flight is the tag of
                    // the very request this reply answers.
                    assert_eq!(self.pending(addr).first(), Some(&tag), "reply on {addr}");
                }
                Some(resp)
            };
            let (addr, fault) = (addr.to_owned(), self.fault(rng, self.p_recv));
            self.feed(rng, Event::Reply { addr, resp, fault });
        }

        /// Lets `by` pass the way the shell lets it: never sleeping
        /// past `next_deadline()` without a tick.
        fn advance(&mut self, rng: &mut CaseRng, by: Duration) {
            let target = self.now + by;
            let mut ticks = 0;
            while let Some(at) = self.table.next_deadline().filter(|at| *at <= target) {
                self.now = self.now.max(at);
                self.feed(rng, Event::Tick);
                // Peers mostly answer a probe before the next one.
                for addr in self.talkers() {
                    if rng.chance(0.8) {
                        self.deliver(rng, &addr, false);
                    }
                }
                ticks += 1;
                assert!(ticks < 10_000, "a tick at the deadline does not move it");
            }
            self.now = target;
            // Known defects' rule: an up configured link is heard from,
            // or closed and redialled, within 2 × suspect + heartbeat.
            if self.heartbeat.is_zero() || self.suspect.is_zero() {
                return;
            }
            for (addr, m) in self.model.iter().filter(|(_, m)| m.up) {
                let silent = self.now.duration_since(m.heard);
                let bound = self.suspect * 2 + self.heartbeat;
                assert!(silent <= bound, "{addr} up and silent for {silent:?}");
            }
        }

        /// The addresses whose model peer has a reply to deliver.
        fn talkers(&self) -> Vec<String> {
            let ready = |p: &Peer| p.stream.as_ref().is_some_and(|s| !s.replies.is_empty());
            let talkers = self.peers.iter().filter(|(_, p)| ready(p));
            talkers.map(|(a, _)| a.clone()).collect()
        }

        /// Hangs up every stream whose model peer found garbage on it.
        fn hangups(&mut self, rng: &mut CaseRng) {
            let gone = |p: &Peer| p.stream.as_ref().is_some_and(|s| s.hangup);
            let addrs = self.peers.iter().filter(|(_, p)| gone(p));
            for addr in addrs.map(|(a, _)| a.clone()).collect::<Vec<_>>() {
                self.feed(rng, Event::Closed(addr));
            }
        }

        /// Every stream ends, and then every command somebody waited
        /// on has been resolved exactly as often as it was put on a
        /// wire — once, if it never was — unless a fault ate it.
        fn audit(&mut self, rng: &mut CaseRng) {
            let ups = self.peers.keys().filter(|a| self.is_up(a));
            for addr in ups.cloned().collect::<Vec<_>>() {
                self.feed(rng, Event::Closed(addr));
            }
            for (n, fate) in &self.fates {
                let want = match fate.pushed {
                    0 => u32::from(!fate.lost),
                    pushed => pushed,
                };
                assert_eq!(fate.settled, want, "command {n}: {fate:?}");
            }
        }

        fn judge(&mut self, was: &BTreeMap<String, Was>, event: &Event, actions: &[Action]) {
            let shown = || format!("{event:?} -> {actions:?}");
            for action in actions {
                match action {
                    Action::Stat(addr, stat) => match (self.mirror.get_mut(addr), *stat) {
                        (Some(row), Stat::Up(up)) => row.0 = up,
                        (Some(row), Stat::Health(health)) => row.1 = health,
                        (Some(_), _) => {}
                        (None, _) => assert!(DYNAMIC.contains(&addr.as_str()), "{}", shown()),
                    },
                    // Every resolution names a command somebody waits
                    // on, and is of that command's kind.
                    Action::Race(n, resolution) => {
                        let fate = self.fates.get_mut(n).expect("a race the harness issued");
                        match resolution {
                            remote::Event::LegRefused { alt_idx } => assert_eq!(*alt_idx, 1),
                            remote::Event::Vote { voter, .. } => assert_eq!(*voter, fate.addr),
                            _ => panic!("{}", shown()),
                        }
                        fate.settled += 1;
                    }
                    _ => {}
                }
            }
            match event {
                Event::Send(cmd, fault) => self.judge_send(&was[&cmd.addr], cmd, *fault, actions),
                Event::Dialed {
                    addr,
                    connected,
                    watermark,
                } => self.judge_dialed(&was[addr], addr, *connected, *watermark, actions),
                Event::Reply { addr, resp, fault } => {
                    self.judge_reply(&was[addr], addr, resp.as_ref(), *fault, actions);
                }
                Event::Closed(addr) if was[addr].up => self.went_down(addr, &was[addr].pending),
                Event::Closed(_) => assert!(actions.is_empty(), "{}", shown()),
                Event::Tick => self.judge_tick(was, actions),
            }

            // `Down` exactly once per up → down.
            let went_down = was.iter().filter(|(a, w)| w.up && !self.is_up(a));
            let downs = actions.iter().filter_map(|a| match a {
                Action::Down(addr) => Some(addr),
                _ => None,
            });
            assert!(downs.eq(went_down.map(|(a, _)| a)), "{}", shown());
            for (addr, link) in &self.table.links {
                assert!(link.queue.len() <= MAX_QUEUED, "{addr} parks without bound");
                // A dynamic link is up, or waits for the dial this very
                // step asked for; it is never kept down, and never
                // asks for a tick.
                let dialled = actions
                    .iter()
                    .any(|a| matches!(a, Action::Dial(d) if d == addr));
                assert!(
                    link.configured || self.is_up(addr) || dialled,
                    "{}",
                    shown()
                );
                assert!(link.configured || link.alarm(self.heartbeat).is_none());
            }
            // The published counters are the model's.
            for (addr, m) in &self.model {
                assert_eq!(self.mirror[addr], (m.up, m.health), "{addr}: {}", shown());
            }
            // One timer per configured link — the dial of a down one,
            // the heartbeat of an up one — and `next_deadline` is the
            // earliest.
            let beat = |m: &Model| (!self.heartbeat.is_zero()).then(|| m.last_hb + self.heartbeat);
            let timers = self.model.values();
            let timers = timers.filter_map(|m| if m.up { beat(m) } else { Some(m.next_dial) });
            assert_eq!(self.table.next_deadline(), timers.min(), "{}", shown());
        }

        /// A command for a link that is not up is refused in this very
        /// step or parked; one for an up link goes on the wire as the
        /// fault allows, a tag per copy.
        fn judge_send(
            &mut self,
            was: &Was,
            cmd: &Cmd,
            fault: Option<NetFault>,
            actions: &[Action],
        ) {
            let shown = || format!("{cmd:?} {fault:?} -> {actions:?}");
            let addr = cmd.addr.as_str();
            if !was.known {
                // Dial on demand, the frame held for the outcome.
                assert!(
                    matches!(actions, [Action::Dial(a)] if a == addr),
                    "{}",
                    shown()
                );
                return assert!(self.parked(addr).eq([&cmd.req]), "{}", shown());
            }
            if !was.up {
                let refused = matches!(actions, [Action::Race(n, _)] if Some(*n) == owed(cmd.tag));
                assert!(refused || actions.is_empty(), "{}", shown());
                assert_eq!(refused, owed(cmd.tag).is_some(), "{}", shown());
                if matches!(cmd.tag, SendTag::Fire | SendTag::Eliminate { .. }) {
                    self.model_park(addr, cmd.req.clone());
                }
                return assert!(self.parked(addr).eq(&self.model[addr].park), "{}", shown());
            }
            let copies = match fault {
                Some(NetFault::Drop | NetFault::Partition) => 0,
                Some(NetFault::Duplicate) => 2,
                _ => 1,
            };
            let mut grown = was.pending.clone();
            grown.extend(std::iter::repeat_n(cmd.tag, copies));
            assert_eq!(self.pending(addr), grown, "{}", shown());
            let whole = cmd.req.encode().len() + 4;
            match (actions, fault) {
                ([], _) => assert_eq!(copies, 0, "{}", shown()),
                ([Action::Write(a, bytes)], Some(NetFault::Truncate)) => {
                    assert!(a == addr && bytes.len() < whole, "{}", shown());
                    let peer = self.peers.get_mut(addr).expect("a known address");
                    peer.stream.as_mut().expect("up").cut = true;
                }
                ([Action::Write(a, bytes)], _) => {
                    assert!(a == addr && bytes.len() == copies * whole, "{}", shown());
                }
                _ => panic!("{}", shown()),
            }
            if let Some(fate) = owed(cmd.tag).and_then(|n| self.fates.get_mut(&n)) {
                fate.pushed += copies as u32;
                fate.lost |= copies == 0;
            }
        }

        fn judge_dialed(
            &mut self,
            was: &Was,
            addr: &str,
            connected: bool,
            watermark: u64,
            actions: &[Action],
        ) {
            let shown = || format!("dialed {addr} {connected} -> {actions:?}");
            let frames = actions.iter().filter_map(|a| match a {
                Action::Frame(cmd) => Some(&cmd.req),
                _ => None,
            });
            let has = |want: Stat| {
                let mut stats = actions.iter();
                stats.any(|a| matches!(a, Action::Stat(a, s) if a == addr && *s == want))
            };
            let now = self.now;
            let Some(m) = self.model.get_mut(addr) else {
                // A dynamic link is the dial that made it: up with what
                // it held, or gone with all of it refused.
                assert_eq!(
                    self.table.links.contains_key(addr),
                    connected,
                    "{}",
                    shown()
                );
                let held = was.parked.iter().filter(|_| connected);
                assert!(frames.eq(held), "{}", shown());
                let owing = was.parked.iter().filter(|r| owed(tag_of(r)).is_some());
                let races = actions.iter().filter(|a| matches!(a, Action::Race(..)));
                let want = if connected { 0 } else { owing.count() };
                return assert_eq!(races.count(), want, "{}", shown());
            };
            if !connected {
                // Consecutive failures are spaced 50 ms · 2ᵏ, capped.
                assert!(actions.is_empty(), "{}", shown());
                let gap = BACKOFF_INITIAL * 2u32.saturating_pow(m.fails);
                m.next_dial = now + gap.min(BACKOFF_MAX);
                m.fails += 1;
                return;
            }
            // RECONCILE (never on a first dial), then what was parked,
            // then the priming heartbeat; and the peer's health is not
            // the dial's to change.
            let origin = ORIGIN.to_owned();
            let reconcile = Request::Reconcile { watermark, origin };
            let reconcile = m.ever_up.then_some(&reconcile);
            let prime = (!self.heartbeat.is_zero()).then_some(&Request::PeerStats);
            let want = reconcile.into_iter().chain(&m.park).chain(prime);
            assert!(frames.eq(want), "{}", shown());
            assert_eq!(has(Stat::Reconnected), m.ever_up, "{}", shown());
            assert!(has(Stat::Up(true)), "{}", shown());
            let health = |a: &Action| matches!(a, Action::Stat(_, Stat::Health(_)));
            assert!(!actions.iter().any(health), "{}", shown());
            m.park.clear();
            (m.up, m.ever_up, m.fails) = (true, true, 0);
            (m.heard, m.last_hb) = (now, now);
        }

        fn judge_reply(
            &mut self,
            was: &Was,
            addr: &str,
            resp: Option<&Response>,
            fault: Option<NetFault>,
            actions: &[Action],
        ) {
            let shown = || format!("reply {addr} {resp:?} {fault:?} -> {actions:?}");
            assert!(was.up, "the harness only delivers on open streams");
            let pending = self.pending(addr);
            let front = was.pending.first().copied();
            if matches!(fault, Some(NetFault::Drop | NetFault::Partition)) {
                // Eaten by the wire: its tag goes, and nothing else.
                assert!(actions.is_empty(), "{}", shown());
                assert_eq!(
                    pending,
                    was.pending.get(1..).unwrap_or_default(),
                    "{}",
                    shown()
                );
                if let Some(fate) = front.and_then(owed).and_then(|n| self.fates.get_mut(&n)) {
                    fate.settled += 1;
                }
                return;
            }
            let (Some(resp), Some(tag), false) = (resp, front, fault == Some(NetFault::Truncate))
            else {
                // Cut, garbage, or unasked for: the link is done.
                return self.went_down(addr, &was.pending);
            };
            // Proof of life, an rtt sample, and the answer — twice when
            // the wire doubled it, off one tag all the same.
            assert_eq!(pending, was.pending[1..], "{}", shown());
            let count = |pick: &dyn Fn(&Action) -> bool| actions.iter().filter(|a| pick(a)).count();
            assert_eq!(
                count(&|a| matches!(a, Action::Stat(_, Stat::Rtt(_)))),
                1,
                "{}",
                shown()
            );
            if let Some(m) = self.model.get_mut(addr) {
                // Health improves only here.
                let readmitted = count(&|a| matches!(a, Action::Stat(_, Stat::Health(_))));
                assert_eq!(
                    readmitted,
                    usize::from(m.health != PeerHealth::Up),
                    "{}",
                    shown()
                );
                (m.health, m.heard) = (PeerHealth::Up, self.now);
            }
            let twice = if fault == Some(NetFault::Duplicate) {
                2
            } else {
                1
            };
            let loaded = tag == SendTag::Heartbeat
                && matches!(resp, Response::Text { body } if body.contains("load "));
            let loads = count(&|a| matches!(a, Action::Stat(_, Stat::Load(1, 2, 3))));
            assert_eq!(loads, if loaded { twice } else { 0 }, "{}", shown());
            let acked = matches!(
                (tag, resp),
                (SendTag::ExecAlt { .. }, Response::Text { .. })
            );
            let races = count(&|a| matches!(a, Action::Race(..)));
            let Some(n) = owed(tag) else {
                return assert_eq!(races, 0, "{}", shown());
            };
            assert_eq!(races, if acked { 0 } else { twice }, "{}", shown());
            // `judge` counts each `Race`; a doubled answer is still
            // one resolution, and an ack is one with no action at all.
            let fate = self.fates.get_mut(&n).expect("issued");
            fate.settled += u32::from(acked);
            fate.settled -= if acked { 0 } else { twice as u32 - 1 };
            if was.cut {
                return;
            }
            // With no cut frame on the stream the answer is the one
            // this very request gets: pairing, judged by content.
            assert_eq!(
                acked,
                matches!(tag, SendTag::ExecAlt { .. }) && !refuses(n),
                "{}",
                shown()
            );
            let grant = |a: &Action| {
                matches!(
                    a,
                    Action::Race(_, remote::Event::Vote { granted: true, .. })
                )
            };
            let granted = matches!(tag, SendTag::Vote { .. }) && grants(n);
            assert_eq!(
                count(&grant),
                if granted { twice } else { 0 },
                "{}",
                shown()
            );
        }

        /// `addr` was up with `pending` in flight and must be down now:
        /// a configured link redials in 50 ms and replays its
        /// unacknowledged `ELIMINATE`s, a dynamic one is forgotten.
        /// (`judge` checks the `Down` and counts the refusals; the
        /// final audit finds a missing one.)
        fn went_down(&mut self, addr: &str, pending: &[SendTag]) {
            assert!(!self.is_up(addr), "{addr} is still up");
            let Some(m) = self.model.get_mut(addr) else {
                return assert!(!self.table.links.contains_key(addr), "dynamic {addr} kept");
            };
            (m.up, m.next_dial) = (false, self.now + BACKOFF_INITIAL);
            for tag in pending {
                if let SendTag::Eliminate { race_id } = *tag {
                    let origin = ORIGIN.to_owned();
                    self.model_park(addr, Request::Eliminate { race_id, origin });
                }
            }
            assert!(self.parked(addr).eq(&self.model[addr].park), "{addr}");
        }

        /// A tick fires what is due and nothing else: a down link's
        /// dial; for an up link whose heartbeat is due, the ageing its
        /// silence has earned (health worsens only here), and then the
        /// reset of a link silent for a whole quarantine span — or
        /// else the probe.
        fn judge_tick(&mut self, was: &BTreeMap<String, Was>, actions: &[Action]) {
            let shown = || format!("tick -> {actions:?}");
            let (now, heartbeat, suspect) = (self.now, self.heartbeat, self.suspect);
            let (mut dials, mut probes, mut resets, mut ageings) = (vec![], vec![], vec![], vec![]);
            for (addr, m) in &mut self.model {
                if !m.up && m.next_dial <= now {
                    dials.push(addr.clone());
                }
                if !m.up || heartbeat.is_zero() || m.last_hb + heartbeat > now {
                    continue;
                }
                let silent = now.duration_since(m.heard);
                let aged = m.health.aged(silent, suspect);
                if aged != m.health {
                    ageings.push((addr.clone(), aged));
                    m.health = aged;
                }
                if !suspect.is_zero() && silent >= suspect * 2 {
                    resets.push(addr.clone());
                } else {
                    probes.push(addr.clone());
                    m.last_hb = now;
                }
            }
            let (mut dialled, mut probed, mut reset, mut aged) = (vec![], vec![], vec![], vec![]);
            for action in actions {
                match action {
                    Action::Dial(addr) => dialled.push(addr.clone()),
                    Action::Frame(cmd) => {
                        assert_eq!(cmd.tag, SendTag::Heartbeat, "{}", shown());
                        probed.push(cmd.addr.clone());
                    }
                    Action::Down(addr) => reset.push(addr.clone()),
                    Action::Stat(addr, Stat::Health(health)) => aged.push((addr.clone(), *health)),
                    Action::Stat(_, Stat::Up(false)) | Action::Race(..) => {}
                    _ => panic!("{}", shown()),
                }
            }
            assert_eq!(
                (dialled, probed, &reset, aged),
                (dials, probes, &resets, ageings),
                "{}",
                shown()
            );
            for addr in reset {
                self.went_down(&addr, &was[&addr].pending);
            }
        }
    }

    /// The link core's contract, over 2 500 seeded schedules on virtual
    /// time: commands of every tag to configured and dynamic addresses,
    /// dials that succeed or fail, on-time and early ticks, hang-ups,
    /// garbage, send- and recv-side faults, and model peers that answer
    /// every whole frame the real decoder finds in the bytes the core
    /// asked to write — or stall, or are dead. Checked of every step
    /// (see the `judge*` functions): a command for a down link is
    /// refused at once or parked, never beyond `MAX_QUEUED`; each copy
    /// on the wire holds one tag and a dropped frame none; a reply
    /// meets the tag of the request it answers (no cut frame on the
    /// stream), a doubled reply takes one tag, a lost one takes its tag
    /// silently; a re-dial sends `RECONCILE`, then the `ELIMINATE`s
    /// unacknowledged at the close with whatever else was parked, then
    /// the heartbeat, and a first dial no `RECONCILE`; failed dials are
    /// 50 ms · 2ᵏ apart up to 2 s and a success starts over; health
    /// worsens only with silence, improves only on a reply, never on a
    /// dial; `Down` comes once per up → down; a tick fires exactly what
    /// is due and `next_deadline` is the earliest of it; a dynamic link
    /// is up or forgotten. Checked of every stretch of time: an up
    /// configured link is heard from or reset within 2 × suspect +
    /// heartbeat. Checked at the end: every `ExecAlt` / `Vote` the core
    /// accepted was resolved exactly once per copy on the wire.
    #[test]
    fn any_schedule_keeps_every_link_rule() {
        let epoch = Instant::now();
        check("link_schedules", 2_500, |rng| {
            let configured = &CONFIGURED[..rng.usize_in(1, 3)];
            let (heartbeat, suspect) = (*rng.pick(&[0, 40, 100]), *rng.pick(&[0, 120, 300]));
            let mut sim = Sim::new(configured, heartbeat, suspect, epoch);
            sim.p_send = *rng.pick(&[0.0, 0.1, 0.3]);
            sim.p_recv = *rng.pick(&[0.0, 0.1, 0.3]);
            sim.truncates = rng.bool();
            let floods = rng.chance(0.02);
            let addrs: Vec<String> = sim.peers.keys().cloned().collect();
            for peer in sim.peers.values_mut() {
                peer.listening = rng.chance(0.8);
            }
            for _ in 0..rng.usize_in(25, 100) {
                let addr = rng.pick(&addrs).clone();
                match rng.u64_below(100) {
                    0..=29 => {
                        let scale = *rng.pick(&[2, 10, 30, 30, 100, 100, 400, 1_500]);
                        let by = Duration::from_micros(rng.u64_below(scale * 1_000));
                        sim.advance(rng, by);
                    }
                    30..=54 => {
                        let kind = *rng.pick(&[EXEC_ALT, VOTE, FIRE, ELIMINATE, HEARTBEAT]);
                        sim.issue(rng, &addr, kind);
                    }
                    55..=81 => {
                        let talkers = sim.talkers();
                        if !talkers.is_empty() {
                            let talker = rng.pick(&talkers).clone();
                            sim.deliver(rng, &talker, false);
                        }
                    }
                    82..=83 => sim.deliver(rng, &addr, true),
                    84..=86 => sim.feed(rng, Event::Closed(addr)),
                    87..=90 => {
                        let peer = sim.peers.get_mut(&addr).expect("a known address");
                        peer.listening = !peer.listening;
                        if !peer.listening && peer.stream.is_some() {
                            sim.feed(rng, Event::Closed(addr));
                        }
                    }
                    91..=94 => {
                        let peer = sim.peers.get_mut(&addr).expect("a known address");
                        peer.stalled = !peer.stalled;
                        peer.read();
                    }
                    95..=98 => sim.feed(rng, Event::Tick),
                    _ if floods => {
                        for _ in 0..MAX_QUEUED + 8 {
                            sim.issue(rng, &addr, FIRE);
                        }
                    }
                    _ => {}
                }
                sim.hangups(rng);
            }
            sim.audit(rng);
        });
    }

    /// The shell in miniature, for the worked examples below: on-time
    /// ticks until `until` past `t0`, every dial answered `connects`,
    /// every frame put on the wire whole, no peer ever replying.
    /// Returns when (in ms past `t0`) each dial, health change and
    /// `Down` came.
    fn drive(
        table: &mut LinkTable,
        t0: Instant,
        until: u64,
        connects: bool,
    ) -> Vec<(u128, &'static str)> {
        let mut log = Vec::new();
        while let Some(at) = table.next_deadline().filter(|at| *at <= t0 + ms(until)) {
            let mut events = VecDeque::from([Event::Tick]);
            while let Some(event) = events.pop_front() {
                for action in table.step(event, at) {
                    let what = match action {
                        Action::Dial(addr) => {
                            let (connected, watermark) = (connects, 0);
                            events.push_back(Event::Dialed {
                                addr,
                                connected,
                                watermark,
                            });
                            "dial"
                        }
                        Action::Frame(cmd) => {
                            events.push_back(Event::Send(cmd, None));
                            continue;
                        }
                        Action::Down(_) => "down",
                        Action::Stat(_, Stat::Health(health)) => health.label(),
                        _ => continue,
                    };
                    log.push(((at - t0).as_millis(), what));
                }
            }
        }
        log
    }

    fn frames(actions: &[Action]) -> Vec<&Request> {
        let frames = actions.iter().filter_map(|a| match a {
            Action::Frame(cmd) => Some(&cmd.req),
            _ => None,
        });
        frames.collect()
    }

    /// The dead-origin defect, at the core: what is held for an address
    /// outside the peer list goes with its failed dial — the result is
    /// dropped, the alternative refused, the vote denied — and nothing
    /// is left to redial, now or ever.
    #[test]
    fn a_dead_origin_is_neither_parked_for_nor_redialled() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(ORIGIN.to_owned(), &config(&[], 500, 1500), t0);
        let actions = table.step(Event::Send(command("d0:1", FIRE, 7), None), t0);
        assert!(matches!(&actions[..], [Action::Dial(a)] if a == "d0:1"));
        for (kind, n) in [(EXEC_ALT, 8), (VOTE, 9)] {
            let held = table.step(Event::Send(command("d0:1", kind, n), None), t0);
            assert!(held.is_empty(), "{held:?}");
        }
        let refused = Event::Dialed {
            addr: "d0:1".to_owned(),
            connected: false,
            watermark: 1,
        };
        let actions = table.step(refused, t0 + ms(50));
        assert!(
            matches!(
                &actions[..],
                [
                    Action::Race(8, remote::Event::LegRefused { alt_idx: 1 }),
                    Action::Race(9, remote::Event::Vote { granted: false, .. })
                ]
            ),
            "{actions:?}"
        );
        assert!(table.links.is_empty());
        assert_eq!(table.next_deadline(), None);
        assert!(table.step(Event::Tick, t0 + ms(60_000)).is_empty());
    }

    #[test]
    fn a_redial_reconciles_replays_what_was_unacknowledged_or_parked_then_probes() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(ORIGIN.to_owned(), &config(&["c0:1"], 500, 1500), t0);
        assert_eq!(drive(&mut table, t0, 0, true), [(0, "dial")]);
        // On the wire and never acknowledged; then the stream dies.
        table.step(Event::Send(command("c0:1", ELIMINATE, 3), None), t0);
        table.step(Event::Send(command("c0:1", FIRE, 4), None), t0);
        table.step(Event::Closed("c0:1".to_owned()), t0 + ms(5));
        // Down: a result parks behind the ELIMINATE, a vote is denied.
        assert!(table
            .step(Event::Send(command("c0:1", FIRE, 5), None), t0 + ms(6))
            .is_empty());
        let denied = table.step(Event::Send(command("c0:1", VOTE, 6), None), t0 + ms(6));
        assert!(matches!(&denied[..], [Action::Race(6, _)]), "{denied:?}");

        assert_eq!(table.next_deadline(), Some(t0 + ms(55)));
        let dial = table.step(Event::Tick, t0 + ms(55));
        assert!(matches!(&dial[..], [Action::Dial(_)]), "{dial:?}");
        let connected = Event::Dialed {
            addr: "c0:1".to_owned(),
            connected: true,
            watermark: 9,
        };
        let actions = table.step(connected, t0 + ms(56));
        let origin = ORIGIN.to_owned();
        let want = [
            Request::Reconcile {
                watermark: 9,
                origin,
            },
            command("c0:1", ELIMINATE, 3).req,
            command("c0:1", FIRE, 5).req,
            Request::PeerStats,
        ];
        assert_eq!(frames(&actions), want.iter().collect::<Vec<_>>());
    }

    /// The silent-link rule past its first span (the live test in
    /// `tests/peers.rs` sees one): a link nobody answers on is reset at
    /// `2 × suspect`, redialled one backoff later *still quarantined*,
    /// and reset again a whole span after that dial; the first reply
    /// readmits.
    #[test]
    fn a_silent_link_is_reset_once_per_quarantine_span_until_a_reply_readmits() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(ORIGIN.to_owned(), &config(&["c0:1"], 20, 100), t0);
        let log = drive(&mut table, t0, 760, true);
        #[rustfmt::skip]
        let want = [
            (0, "dial"), (100, "suspect"), (200, "quarantined"), (200, "down"),
            (250, "dial"), (450, "down"),
            (500, "dial"), (700, "down"),
            (750, "dial"),
        ];
        assert_eq!(log, want);
        let reply = Event::Reply {
            addr: "c0:1".to_owned(),
            resp: Some(reply_to(&Request::PeerStats)),
            fault: None,
        };
        let actions = table.step(reply, t0 + ms(755));
        let readmitted = Action::Stat("c0:1".to_owned(), Stat::Health(PeerHealth::Up));
        assert!(
            format!("{actions:?}").contains(&format!("{readmitted:?}")),
            "{actions:?}"
        );
        assert_eq!(
            drive(&mut table, t0, 850, true),
            [],
            "heard from at 755: nothing ages before 855"
        );
    }

    #[test]
    fn failed_dials_back_off_to_the_cap_and_a_success_starts_over() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(ORIGIN.to_owned(), &config(&["c0:1"], 0, 0), t0);
        let dials = |log: Vec<(u128, &str)>| log.into_iter().map(|(at, _)| at).collect::<Vec<_>>();
        let refused = dials(drive(&mut table, t0, 7_200, false));
        assert_eq!(refused, [0, 50, 150, 350, 750, 1_550, 3_150, 5_150, 7_150]);
        assert_eq!(dials(drive(&mut table, t0, 9_150, true)), [9_150]);
        table.step(Event::Closed("c0:1".to_owned()), t0 + ms(10_000));
        let refused = dials(drive(&mut table, t0, 10_200, false));
        assert_eq!(refused, [10_050, 10_100, 10_200]);
    }
}
