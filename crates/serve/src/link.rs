//! The peer link as a value: every rule about an outbound link that is
//! not a socket call.
//!
//! [`LinkTable`] is the **core** under shard 0's peer links
//! ([`crate::peer`] is its shell): one link per configured `--peer`, and
//! no other is ever dialled. Per link: whether it is down, dialling or
//! up (its connection open), whether it is *in service*, the in-order
//! correlation FIFO of the requests in flight on it, its backoff and its
//! one silence clock. It parks nothing: every frame's meaning ends with
//! its connection — the executor cancels the legs a closed connection
//! shipped — so a link that is not up has nothing to deliver later.
//! Everything that can happen to a link is an [`Event`] fed to
//! [`LinkTable::step`] together with the current instant; everything
//! the link wants done about it comes back as a list of [`Action`]s,
//! and [`LinkTable::next_deadline`] says when the next [`Event::Tick`]
//! is due. The core reads no clock and owns no socket, lock or counter,
//! so a test can feed it any interleaving of commands, dial outcomes,
//! replies, closes and ticks on virtual time and judge it by its actions
//! alone (`tests::any_schedule_keeps_every_link_rule`). It trusts its
//! stream as TCP lets it: a live connection never loses, doubles or
//! reorders a frame, and whatever the wire does besides — delay a
//! frame, stall a direction, cut a connection — reaches the core as
//! time passing or as `Closed`.
//!
//! A link is *in service* — its peer gets legs and voter slots — while
//! its connection answers: from the first frame it carries back (not
//! the connect) until it closes, which it does after `silence` with none.
//!
//! The rules, each stated here and nowhere else:
//!
//! | `Event` | what the core does | `Action`s it may return |
//! |---|---|---|
//! | `Send(cmd)` | an address outside the peer list is refused at once and never dialled; an up link writes the frame on its stream and holds one tag for it; a link that is down or dialling refuses an `ExecAlt` or a `Vote` at once and drops an `Eliminate` or a heartbeat | `Write`, `Race` (refusal) |
//! | `Dialed { connected: false }` — the shell's answer to `Dial` | the next dial is one backoff away and the backoff doubles (50 ms → 2 s). An answer for a link with no dial out changes nothing | — |
//! | `Dialed { connected: true }` | the link is up and **not** in service; its backoff and silence clock start over; the priming heartbeat is its only frame | `Stat(Reconnected)`, `Frame` |
//! | `Reply { resp }` | a *pushed* `ALT_RESULT` is recognised before pairing: it takes no tag and gives no rtt sample, and is its race's `LegResult`; any other frame pairs with the oldest tag in flight and is an rtt sample and the tag's answer; an undecodable or unasked-for frame closes the link, and any other is *accepted*: it restarts the silence clock, and the first of its connection puts the link in service | `Stat(Up(true))`, `Stat(Rtt)`, `Stat(Load)`, `Race`, or as `Closed` |
//! | `Closed(addr)` | an up link: every tag in flight is refused, the redial is one initial backoff away, and a link in service leaves it. A link that is not up has no stream to lose | `Stat(Up(false))`, `Race`…, `Down` |
//! | `Tick` | a down link whose dial is due is dialled; a dial out for `CONNECT_TIMEOUT` (50 ms) is abandoned and fails as a refused one does; an up link whose probe is due (every `silence / 3`) is closed as `Closed` if it has accepted nothing for `silence` — a quarantine if it has been in service since its last one — or else probed | `Dial`, `Abandon`, `Frame` (heartbeat), `Stat(Quarantined)`, or as `Closed` |
//!
//! A refusal converts the tag: a shipped alternative becomes
//! `LegRefused`, a vote a denial, and nobody waits on the other tags.
//! Every tag ends in its answer or its refusal.
//! The shell answers `Dial` when its non-blocking connect is done, and
//! any event of any link may come between: the link is *dialling*
//! meanwhile, its alarm the dial's timeout, so a peer that never
//! completes the handshake costs its own link 50 ms and no other link
//! anything. The shell feeds a `Frame` back as a `Send` like any other
//! command.

use crate::frame::{append_frame, Request, Response};
use crate::peer::{parse_load_line, Cmd, PeerConfig, SendTag};
use crate::remote;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// First re-dial delay after a link failure.
const BACKOFF_INITIAL: Duration = Duration::from_millis(50);
/// Backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(2);
/// How long a dial may be out: a peer that cannot complete a TCP
/// handshake in this budget is down for placement purposes.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(50);

/// Everything that can happen to a link.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// One frame for a link — a command from the `PeerHandle` queue, or
    /// an [`Action::Frame`] coming back.
    Send(Cmd),
    /// The answer to [`Action::Dial`].
    Dialed { addr: String, connected: bool },
    /// One whole frame arrived on the link — `resp` is `None` when it
    /// does not decode as a reply.
    Reply {
        addr: String,
        resp: Option<Response>,
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
    /// The dial to this address timed out: drop its socket, feed nothing.
    Abandon(String),
    /// A frame of the link's own — a heartbeat: feed it back as an
    /// [`Event::Send`].
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
    /// The link entered service or left it.
    Up(bool),
    /// A silence close, the first since the link was in service.
    Quarantined,
    /// A dial succeeded on a link that had been up before.
    Reconnected,
    /// One request→reply round trip, in microseconds.
    Rtt(u64),
    /// `(queued, busy, workers)` from a heartbeat reply.
    Load(u64, u64, u64),
}

/// A link is down, dialling, or up with its in-order correlation FIFO:
/// one entry per frame on the wire, popped by its reply; the `Instant`
/// starts the rtt sample. The FIFO lives and dies with the connection,
/// so a reply can only ever meet a tag of the connection it arrived on.
enum State {
    Down,
    /// Until the dial times out.
    Dialling(Instant),
    Up {
        pending: VecDeque<(SendTag, Instant)>,
        /// The connection has carried a frame back.
        serving: bool,
    },
}

struct Link {
    state: State,
    backoff: Duration,
    next_dial: Instant,
    ever_up: bool,
    /// In service since its last quarantine.
    served: bool,
    /// Last time a frame was accepted, or the link came up.
    last_heard: Instant,
    /// Last time a heartbeat was offered to this link.
    last_hb: Instant,
}

impl Link {
    fn new(now: Instant) -> Self {
        Link {
            state: State::Down,
            backoff: BACKOFF_INITIAL,
            next_dial: now,
            ever_up: false,
            served: false,
            last_heard: now,
            last_hb: now,
        }
    }

    /// The link's one timer: a dial's timeout, a down link's next dial,
    /// an up one's next probe. Silence is looked at when the probe is
    /// due, so the close comes within one cadence of the silence that
    /// earns it.
    fn alarm(&self, probe: Duration) -> Option<Instant> {
        match self.state {
            #[cfg(test)]
            State::Dialling(_) if tests::broken::endless_dial() => None,
            State::Dialling(until) => Some(until),
            State::Down => Some(self.next_dial),
            State::Up { .. } => Some(self.last_hb + probe),
        }
    }

    /// A frame was accepted: the silence clock starts over, and the
    /// connection's first puts the link in service.
    fn heard(&mut self, addr: &str, now: Instant, out: &mut Vec<Action>) {
        (self.last_heard, self.served) = (now, true);
        if let State::Up { serving, .. } = &mut self.state {
            if !std::mem::replace(serving, true) {
                out.push(Action::Stat(addr.to_owned(), Stat::Up(true)));
            }
        }
    }

    /// Up → down: the link leaves service, every tag in flight is
    /// refused (an `ELIMINATE` needs no replay: the close stops the legs
    /// the connection shipped), and the link redials one initial backoff
    /// from now.
    fn close(&mut self, addr: &str, now: Instant, out: &mut Vec<Action>) {
        let State::Up { pending, serving } = std::mem::replace(&mut self.state, State::Down) else {
            return;
        };
        if serving {
            out.push(Action::Stat(addr.to_owned(), Stat::Up(false)));
        }
        self.next_dial = now + BACKOFF_INITIAL;
        for (tag, _) in pending {
            #[cfg(test)]
            if tests::broken::forgetful_close() {
                continue;
            }
            refuse(addr, tag, out);
        }
        out.push(Action::Down(addr.to_owned()));
    }

    /// The dial out failed, refused or out too long: the next one is a
    /// backoff away, and the backoff doubles.
    fn dial_failed(&mut self, now: Instant) {
        self.state = State::Down;
        self.next_dial = now + self.backoff;
        self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
    }
}

/// Every outbound link of one node.
pub(crate) struct LinkTable {
    /// Ordered, so a seeded schedule replays action for action.
    links: BTreeMap<String, Link>,
    /// How long an up link may accept nothing before it is closed.
    silence: Duration,
}

impl LinkTable {
    /// One down link per configured peer, its first dial due `now`.
    pub(crate) fn new(config: &PeerConfig, now: Instant) -> Self {
        let down = |addr: &String| (addr.clone(), Link::new(now));
        LinkTable {
            links: config.peers.iter().map(down).collect(),
            silence: Duration::from_millis(config.silence_ms),
        }
    }

    /// Something happened; `now` is when.
    pub(crate) fn step(&mut self, event: Event, now: Instant) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Send(cmd) => self.send(cmd, now, &mut out),
            Event::Dialed { addr, connected } => self.dialed(&addr, connected, now, &mut out),
            Event::Reply { addr, resp } => self.reply(&addr, resp, now, &mut out),
            Event::Closed(addr) => {
                let up = |l: &&mut Link| matches!(l.state, State::Up { .. });
                if let Some(link) = self.links.get_mut(&addr).filter(up) {
                    link.close(&addr, now, &mut out);
                }
            }
            Event::Tick => self.tick(now, &mut out),
        }
        out
    }

    /// The earliest instant a [`Event::Tick`] has something to do.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let probe = self.silence / 3;
        self.links.values().filter_map(|l| l.alarm(probe)).min()
    }

    /// One frame for one link. An up link encodes it onto its stream —
    /// through the one frame writer, whose `MAX_FRAME` check refuses a
    /// frame too big for any peer as a down link refuses it — and holds
    /// its tag at the back of the FIFO, where the frame's reply will
    /// find it.
    fn send(&mut self, cmd: Cmd, now: Instant, out: &mut Vec<Action>) {
        let Some(link) = self.links.get_mut(&cmd.addr) else {
            return refuse(&cmd.addr, cmd.tag, out);
        };
        let State::Up { pending, .. } = &mut link.state else {
            // Fail fast: a peer that is not up cannot run the
            // alternative or grant the vote, and the race must not wait
            // for a dial to find that out. An `ELIMINATE` is dropped:
            // the close that took the link down cancelled the race's
            // legs there. (Heartbeats are minted on up links only; one
            // racing a link death is just dropped — the next dial
            // primes a fresh one.)
            return refuse(&cmd.addr, cmd.tag, out);
        };
        let mut bytes = Vec::new();
        if append_frame(&mut bytes, |b| b.extend_from_slice(&cmd.req.encode())).is_err() {
            return refuse(&cmd.addr, cmd.tag, out);
        }
        pending.push_back((cmd.tag, now));
        out.push(Action::Write(cmd.addr, bytes));
    }

    fn dialed(&mut self, addr: &str, connected: bool, now: Instant, out: &mut Vec<Action>) {
        let dialling = |l: &&mut Link| matches!(l.state, State::Dialling(_));
        let Some(link) = self.links.get_mut(addr).filter(dialling) else {
            return;
        };
        if !connected {
            return link.dial_failed(now);
        }
        if link.ever_up {
            out.push(Action::Stat(addr.to_owned(), Stat::Reconnected));
        }
        // Ask for the frame that puts the link in service (and primes
        // the rtt EWMA and the load figures) without waiting a cadence.
        out.push(probe(addr));
        link.state = State::Up {
            pending: VecDeque::new(),
            serving: false,
        };
        link.ever_up = true;
        link.backoff = BACKOFF_INITIAL;
        link.last_heard = now;
        link.last_hb = now;
        #[cfg(test)]
        if tests::broken::up_at_connect() {
            link.heard(addr, now, out);
        }
    }

    /// Pairs one arrived frame with the oldest tag in flight — unless it
    /// is a result the executor pushed, which answers no request — or
    /// closes the link.
    fn reply(&mut self, addr: &str, resp: Option<Response>, now: Instant, out: &mut Vec<Action>) {
        let Some(link) = self.links.get_mut(addr) else {
            return;
        };
        let State::Up { pending, .. } = &mut link.state else {
            return;
        };
        let paired = match resp {
            Some(resp @ Response::AltResult { .. }) => Some((resp, None)),
            Some(resp) => pending.pop_front().map(|sent| (resp, Some(sent))),
            None => None,
        };
        let Some((resp, sent)) = paired else {
            // Undecodable, or a reply we never asked for: the stream is
            // not trustworthy.
            return link.close(addr, now, out);
        };
        link.heard(addr, now, out);
        let Some((tag, sent_at)) = sent else {
            return out.extend(leg_result(&resp));
        };
        let rtt_us = now.duration_since(sent_at).as_micros().max(1) as u64;
        out.push(Action::Stat(addr.to_owned(), Stat::Rtt(rtt_us)));
        #[cfg(test)]
        if tests::broken::silent_pop() {
            return;
        }
        answer(addr, tag, resp, out);
    }

    /// Fires every due alarm: a dial's timeout, a down link's dial, and
    /// for an up link the silence rule — closed if it has accepted
    /// nothing for the whole span, or else probed. The redial restarts
    /// the clock, so a silent peer is redialled once per span, not once
    /// per tick.
    fn tick(&mut self, now: Instant, out: &mut Vec<Action>) {
        for (addr, link) in &mut self.links {
            if link.alarm(self.silence / 3).is_none_or(|at| at > now) {
                continue;
            }
            match link.state {
                #[cfg(test)]
                State::Dialling(_) if tests::broken::redial() => {}
                State::Dialling(_) => {
                    out.push(Action::Abandon(addr.clone()));
                    link.dial_failed(now);
                    continue;
                }
                State::Down => {}
                State::Up { .. } => {
                    let silent = now.duration_since(link.last_heard);
                    #[cfg(test)]
                    let silent = tests::broken::skew(silent);
                    if silent >= self.silence {
                        if std::mem::take(&mut link.served) {
                            out.push(Action::Stat(addr.clone(), Stat::Quarantined));
                        }
                        link.close(addr, now, out);
                    } else {
                        link.last_hb = now;
                        out.push(probe(addr));
                    }
                    continue;
                }
            }
            out.push(Action::Dial(addr.clone()));
            link.state = State::Dialling(now + CONNECT_TIMEOUT);
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
        SendTag::Eliminate | SendTag::Heartbeat => {}
    }
}

/// A heartbeat for `addr`: a `PEER_STATS` whose reply is a frame the
/// link accepts, carrying the peer's load line.
fn probe(addr: &str) -> Action {
    let (addr, req, tag) = (addr.to_owned(), Request::PeerStats, SendTag::Heartbeat);
    Action::Frame(Cmd { addr, req, tag })
}

/// What a pushed result tells its race, if `resp` is one.
fn leg_result(resp: &Response) -> Option<Action> {
    let Response::AltResult {
        race_id,
        alt_idx,
        status,
        value,
        latency_us,
    } = *resp
    else {
        return None;
    };
    let leg = remote::Event::LegResult {
        alt_idx,
        status,
        value,
        latency_us,
    };
    Some(Action::Race(race_id, leg))
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
    use crate::frame::{FrameDecoder, ALT_OK};
    use altx_check::{check, CaseRng};
    use std::collections::BTreeSet;

    /// Seeded mutants of the core: rule switches, one per rule of the
    /// dialling state, of service and of settling a tag, thrown on the
    /// calling thread only.
    pub(super) mod broken {
        use std::cell::Cell;
        use std::time::Duration;

        /// Which rule is broken.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Mutant {
            /// A tick that finds a dial out starts another one.
            Redial,
            /// A dial that is out never times out.
            EndlessDial,
            /// A link enters service on the connect.
            UpAtConnect,
            /// No link is ever closed for silence.
            NeverSilenced,
            /// A link is closed after half the silence span: one that
            /// answered in time is closed all the same.
            HastyClose,
            /// A close forgets its FIFO and refuses nothing.
            ForgetfulClose,
            /// A reply pops its tag and answers nothing.
            SilentPop,
        }

        thread_local! {
            static ON: Cell<Option<Mutant>> = const { Cell::new(None) };
        }

        /// Breaks `mutant`'s rule on this thread (`None` mends it).
        pub(crate) fn set(mutant: Option<Mutant>) {
            ON.with(|on| on.set(mutant));
        }

        pub(crate) fn redial() -> bool {
            ON.with(|on| on.get() == Some(Mutant::Redial))
        }

        pub(crate) fn endless_dial() -> bool {
            ON.with(|on| on.get() == Some(Mutant::EndlessDial))
        }

        pub(crate) fn up_at_connect() -> bool {
            ON.with(|on| on.get() == Some(Mutant::UpAtConnect))
        }

        pub(crate) fn forgetful_close() -> bool {
            ON.with(|on| on.get() == Some(Mutant::ForgetfulClose))
        }

        pub(crate) fn silent_pop() -> bool {
            ON.with(|on| on.get() == Some(Mutant::SilentPop))
        }

        /// The silence the tick acts on, as the mutant sees it.
        pub(crate) fn skew(silent: Duration) -> Duration {
            match ON.with(Cell::get) {
                Some(Mutant::NeverSilenced) => Duration::ZERO,
                Some(Mutant::HastyClose) => silent * 2,
                _ => silent,
            }
        }
    }

    const ORIGIN: &str = "origin:1";
    const CONFIGURED: [&str; 2] = ["c0:1", "c1:1"];
    /// Addresses outside the peer list — an origin that shipped this
    /// node a leg, say. Commands name them; nothing may dial them.
    const STRANGERS: [&str; 2] = ["s0:1", "s1:1"];

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn config(peers: &[&str], silence_ms: u64) -> PeerConfig {
        PeerConfig {
            peers: peers.iter().map(|p| (*p).to_owned()).collect(),
            silence_ms,
            ..PeerConfig::default()
        }
    }

    /// The tag kinds a command can carry, in the order `command` numbers
    /// them.
    const EXEC_ALT: u8 = 0;
    const VOTE: u8 = 1;
    const ELIMINATE: u8 = 2;
    const HEARTBEAT: u8 = 3;

    /// The command of tag kind `kind` issued under ordinal `n`. The
    /// ordinal is the race id, so the bytes on the wire, the tag in the
    /// FIFO and the `Race` action that resolves it all name it.
    fn command(addr: &str, kind: u8, n: u64) -> Cmd {
        let req = match kind {
            EXEC_ALT => Request::ExecAlt {
                race_id: n,
                alt_idx: 1,
                deadline_ms: 0,
                arg: n,
                workload: "w".to_owned(),
            },
            VOTE => Request::CommitVote {
                race_id: n,
                origin: ORIGIN.to_owned(),
                candidate: "c".to_owned(),
            },
            ELIMINATE => Request::Eliminate { race_id: n },
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
            Request::Eliminate { .. } => SendTag::Eliminate,
            _ => SendTag::Heartbeat,
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

    /// The result the model peer pushes for shipped alternative `n`.
    fn result_of(n: u64) -> Response {
        Response::AltResult {
            race_id: n,
            alt_idx: 1,
            status: ALT_OK,
            value: n,
            latency_us: 1,
        }
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
    /// each whole frame answered in order, and the result of each
    /// shipped alternative it admits pushed on the same stream — before
    /// its ack, after it, or never (the executor drained mid-leg).
    #[derive(Default)]
    struct Stream {
        decoder: FrameDecoder,
        /// Frames not delivered yet: each reply with the tag its request
        /// must be holding at the sender, each pushed result with none.
        replies: VecDeque<(Option<SendTag>, Response)>,
    }

    #[derive(Default)]
    struct Peer {
        /// Dials succeed.
        listening: bool,
        /// Dials are never answered, as when the peer's accept queue is
        /// full: only the core's timeout ends one.
        hangs: bool,
        /// Stalled: bytes pile up unread and nothing is answered.
        stalled: bool,
        stream: Option<Stream>,
    }

    impl Peer {
        fn read(&mut self, rng: &mut CaseRng) {
            let Some(stream) = self.stream.as_mut().filter(|_| !self.stalled) else {
                return;
            };
            // The stream carries whole frames, each one a request.
            while let Some(body) = stream.decoder.next_frame().expect("a whole frame") {
                let req = Request::decode(&body).expect("a request");
                let ack = (Some(tag_of(&req)), reply_to(&req));
                let runs = match req {
                    Request::ExecAlt { race_id, .. } if !refuses(race_id) => Some(race_id),
                    _ => None,
                };
                match runs.and_then(|n| rng.option(0.8, |_| (None, result_of(n)))) {
                    // The job may finish before the ack goes out.
                    Some(result) if rng.bool() => stream.replies.extend([result, ack]),
                    result => stream.replies.extend(std::iter::once(ack).chain(result)),
                }
            }
        }
    }

    /// What the rules say about one configured link — its timers and its
    /// service — kept by restating each rule, not by asking the core.
    struct Model {
        /// A connection is open.
        up: bool,
        /// That connection has carried a frame back.
        serving: bool,
        /// A frame was accepted since the last quarantine.
        served: bool,
        /// Silence closes that ended a spell in service.
        quarantines: u64,
        ever_up: bool,
        next_dial: Instant,
        /// The timeout of the dial that is out.
        dialling: Option<Instant>,
        /// Failed dials since the last success.
        fails: u32,
        /// The last accepted frame, or the dial.
        heard: Instant,
        last_hb: Instant,
    }

    impl Model {
        /// The dial failed, refused or out too long: consecutive
        /// failures are spaced 50 ms · 2ᵏ, capped.
        fn dial_failed(&mut self, now: Instant) {
            let gap = BACKOFF_INITIAL * 2u32.saturating_pow(self.fails);
            self.next_dial = now + gap.min(BACKOFF_MAX);
            self.fails += 1;
        }
    }

    /// What became of one `ExecAlt` / `Vote` command.
    #[derive(Debug)]
    struct Fate {
        addr: String,
        /// Resolutions: a `Race` action, or a silent ack.
        settled: u32,
    }

    /// One link as a step found it.
    struct Was {
        known: bool,
        up: bool,
        /// A dial was out.
        dialling: bool,
        pending: Vec<SendTag>,
    }

    /// A stand-in for the shell, the wire and the peers: drives a
    /// [`LinkTable`] on virtual time and judges every step by its
    /// actions (and, for the FIFO, by a look inside).
    struct Sim {
        table: LinkTable,
        now: Instant,
        silence: Duration,
        peers: BTreeMap<String, Peer>,
        model: BTreeMap<String, Model>,
        /// The counters the shell would publish, mirrored from `Stat`:
        /// in service, and quarantines.
        mirror: BTreeMap<String, (bool, u64)>,
        fates: BTreeMap<u64, Fate>,
        next_ordinal: u64,
        /// Addresses the shell has a connect out to.
        dials_out: BTreeSet<String>,
        /// How often a dial that will be answered is answered late.
        p_late: f64,
    }

    impl Sim {
        fn new(peers: &[&str], silence_ms: u64, now: Instant) -> Self {
            let owned = |a: &&str| (*a).to_owned();
            let model = |a| {
                let model = Model {
                    up: false,
                    serving: false,
                    served: false,
                    quarantines: 0,
                    ever_up: false,
                    next_dial: now,
                    dialling: None,
                    fails: 0,
                    heard: now,
                    last_hb: now,
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
            let cfg = config(peers, silence_ms);
            Sim {
                table: LinkTable::new(&cfg, now),
                now,
                silence: ms(silence_ms),
                peers: peers.iter().chain(&STRANGERS).map(peer).collect(),
                model: peers.iter().map(model).collect(),
                mirror: peers.iter().map(|a| (owned(a), (false, 0))).collect(),
                fates: BTreeMap::new(),
                next_ordinal: 1,
                dials_out: BTreeSet::new(),
                p_late: 0.0,
            }
        }

        fn is_up(&self, addr: &str) -> bool {
            let state = self.table.links.get(addr).map(|l| &l.state);
            matches!(state, Some(State::Up { .. }))
        }

        fn pending(&self, addr: &str) -> Vec<SendTag> {
            match self.table.links.get(addr).map(|l| &l.state) {
                Some(State::Up { pending, .. }) => pending.iter().map(|(tag, _)| *tag).collect(),
                _ => Vec::new(),
            }
        }

        fn is_dialling(&self, addr: &str) -> bool {
            let state = self.table.links.get(addr).map(|l| &l.state);
            matches!(state, Some(State::Dialling(_)))
        }

        /// Every link `event` can touch — its own, or for a tick every
        /// configured one — as the step will find it.
        fn was(&self, event: &Event) -> BTreeMap<String, Was> {
            let was = |addr: &String| {
                let was = Was {
                    known: self.table.links.contains_key(addr),
                    up: self.is_up(addr),
                    dialling: self.is_dialling(addr),
                    pending: self.pending(addr),
                };
                (addr.clone(), was)
            };
            match event {
                Event::Send(Cmd { addr, .. })
                | Event::Dialed { addr, .. }
                | Event::Reply { addr, .. }
                | Event::Closed(addr) => std::iter::once(addr).map(was).collect(),
                Event::Tick => self.model.keys().map(was).collect(),
            }
        }

        /// Steps the core, judges the step, then does with the actions
        /// what the shell does: starts a connect for `Dial` — the model
        /// peer answers it now, later or never — drops the connect
        /// `Abandon` names, feeds `Frame` back, hands `Write` to the
        /// peer's decoder.
        fn feed(&mut self, rng: &mut CaseRng, event: Event) {
            let was = self.was(&event);
            let actions = self.table.step(event.clone(), self.now);
            self.judge(&was, &event, &actions);
            // Every connect the step asks for starts, and every one it
            // gives up on is dropped, before any is answered.
            for action in &actions {
                match action {
                    Action::Dial(addr) => {
                        let open = self.peers[addr].stream.is_some();
                        assert!(!open, "dialled an open stream: {addr}");
                        let fresh = self.dials_out.insert(addr.clone());
                        assert!(fresh, "dialled {addr} while a dial is out");
                    }
                    Action::Abandon(addr) => {
                        let out = self.dials_out.remove(addr);
                        assert!(out, "abandoned {addr} with no dial out");
                    }
                    _ => {}
                }
            }
            for action in actions {
                match action {
                    Action::Dial(addr) => {
                        let answers = !self.peers[&addr].hangs && !rng.chance(self.p_late);
                        if answers && self.dials_out.contains(&addr) {
                            self.answer_dial(rng, &addr);
                        }
                    }
                    Action::Abandon(_) => {}
                    Action::Frame(cmd) => self.feed(rng, Event::Send(cmd)),
                    Action::Write(addr, bytes) => {
                        let peer = self.peers.get_mut(&addr).expect("a known address");
                        let stream = peer.stream.as_mut().expect("a write needs a stream");
                        stream.decoder.extend(&bytes);
                        peer.read(rng);
                    }
                    Action::Down(addr) => {
                        let peer = self.peers.get_mut(&addr).expect("a known address");
                        assert!(peer.stream.take().is_some(), "{addr} went down twice");
                    }
                    Action::Race(..) | Action::Stat(..) => {}
                }
            }
        }

        /// The model peer answers the dial out to `addr`: connected if
        /// it listens, refused if not.
        fn answer_dial(&mut self, rng: &mut CaseRng, addr: &str) {
            assert!(self.dials_out.remove(addr), "no dial out to {addr}");
            let peer = self.peers.get_mut(addr).expect("a known address");
            let connected = peer.listening;
            peer.stream = connected.then(Stream::default);
            let addr = addr.to_owned();
            self.feed(rng, Event::Dialed { addr, connected });
        }

        /// A late answer to some dial that is out, if one will ever be
        /// answered — or else an answer to no dial at all, which must
        /// change nothing.
        fn late_answer(&mut self, rng: &mut CaseRng, addr: &str) {
            let answerable = self.dials_out.iter().filter(|a| !self.peers[*a].hangs);
            let answerable: Vec<String> = answerable.cloned().collect();
            if !answerable.is_empty() {
                let addr = rng.pick(&answerable).clone();
                return self.answer_dial(rng, &addr);
            }
            if self.dials_out.contains(addr) || self.peers[addr].stream.is_some() {
                return;
            }
            let (addr, connected) = (addr.to_owned(), rng.bool());
            self.feed(rng, Event::Dialed { addr, connected });
        }

        /// A fresh command of tag kind `kind` for `addr`; its ordinal.
        fn issue(&mut self, rng: &mut CaseRng, addr: &str, kind: u8) -> u64 {
            let n = self.next_ordinal;
            self.next_ordinal += 1;
            if kind == EXEC_ALT || kind == VOTE {
                let (addr, settled) = (addr.to_owned(), 0);
                self.fates.insert(n, Fate { addr, settled });
            }
            self.feed(rng, Event::Send(command(addr, kind, n)));
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
                None
            } else {
                let Some((tag, resp)) = stream.replies.pop_front() else {
                    return;
                };
                if let Some(tag) = tag {
                    // The pairing property: the oldest tag in flight is
                    // the tag of the very request this reply answers.
                    assert_eq!(self.pending(addr).first(), Some(&tag), "reply on {addr}");
                }
                Some(resp)
            };
            let addr = addr.to_owned();
            self.feed(rng, Event::Reply { addr, resp });
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
            // No dial is out for longer than its timeout.
            let timeouts = self.model.values().filter_map(|m| m.dialling);
            for until in timeouts {
                assert!(until > self.now, "a dial out past its timeout");
            }
            // An up link accepts a frame, or is closed, within the
            // silence span and one probe cadence.
            for (addr, m) in self.model.iter().filter(|(_, m)| m.up) {
                let silent = self.now.duration_since(m.heard);
                let bound = self.silence + self.silence / 3;
                assert!(silent < bound, "{addr} up and silent for {silent:?}");
            }
        }

        /// The addresses whose model peer has a reply to deliver.
        fn talkers(&self) -> Vec<String> {
            let ready = |p: &Peer| p.stream.as_ref().is_some_and(|s| !s.replies.is_empty());
            let talkers = self.peers.iter().filter(|(_, p)| ready(p));
            talkers.map(|(a, _)| a.clone()).collect()
        }

        /// Every dial that is out ends — answered or timed out — and
        /// every stream ends, and then every command somebody waited on
        /// has been settled exactly once: answered on its own
        /// connection, or refused.
        fn audit(&mut self, rng: &mut CaseRng) {
            self.advance(rng, CONNECT_TIMEOUT);
            let ups = self.peers.keys().filter(|a| self.is_up(a));
            for addr in ups.cloned().collect::<Vec<_>>() {
                self.feed(rng, Event::Closed(addr));
            }
            for (n, fate) in &self.fates {
                assert_eq!(fate.settled, 1, "command {n}: {fate:?}");
            }
        }

        fn judge(&mut self, was: &BTreeMap<String, Was>, event: &Event, actions: &[Action]) {
            let shown = || format!("{event:?} -> {actions:?}");
            for action in actions {
                match action {
                    Action::Stat(addr, stat) => match (self.mirror.get_mut(addr), *stat) {
                        (Some(row), Stat::Up(up)) => row.0 = up,
                        (Some(row), Stat::Quarantined) => row.1 += 1,
                        (Some(_), _) => {}
                        (None, _) => panic!("a row for a link that is none: {}", shown()),
                    },
                    // Every resolution names a command somebody waits
                    // on, and is of that command's kind; a pushed result
                    // is no resolution (`judge_reply` counts its copies).
                    Action::Race(n, resolution) => {
                        let fate = self.fates.get_mut(n).expect("a race the harness issued");
                        match resolution {
                            remote::Event::LegRefused { alt_idx } => assert_eq!(*alt_idx, 1),
                            remote::Event::Vote { voter, .. } => assert_eq!(*voter, fate.addr),
                            remote::Event::LegResult {
                                alt_idx: 1,
                                status: ALT_OK,
                                value,
                                ..
                            } if value == n => continue,
                            _ => panic!("{}", shown()),
                        }
                        fate.settled += 1;
                    }
                    // Nothing outside the peer list is ever dialled.
                    Action::Dial(addr) => assert!(self.model.contains_key(addr), "{}", shown()),
                    _ => {}
                }
            }
            match event {
                Event::Send(cmd) => self.judge_send(&was[&cmd.addr], cmd, actions),
                Event::Dialed { addr, connected } => {
                    self.judge_dialed(&was[addr], addr, *connected, actions);
                }
                Event::Reply { addr, resp } => {
                    self.judge_reply(&was[addr], addr, resp.as_ref(), actions);
                }
                Event::Closed(addr) if was[addr].up => self.went_down(addr, actions),
                // A link that is not up has no stream to lose.
                Event::Closed(_) => assert!(actions.is_empty(), "{}", shown()),
                Event::Tick => self.judge_tick(actions),
            }

            // `Down` exactly once per up → down.
            let went_down = was.iter().filter(|(a, w)| w.up && !self.is_up(a));
            let downs = actions.iter().filter_map(|a| match a {
                Action::Down(addr) => Some(addr),
                _ => None,
            });
            assert!(downs.eq(went_down.map(|(a, _)| a)), "{}", shown());
            for addr in self.table.links.keys() {
                // The core is dialling exactly where the shell has a
                // connect out, once this step's actions are done.
                let asked = |pick: &dyn Fn(&Action) -> bool| actions.iter().any(pick);
                let dialled = asked(&|a| matches!(a, Action::Dial(d) if d == addr));
                let dropped = asked(&|a| matches!(a, Action::Abandon(d) if d == addr));
                let out = (self.dials_out.contains(addr) || dialled) && !dropped;
                assert_eq!(self.is_dialling(addr), out, "{addr}: {}", shown());
                // Every link is a configured one.
                assert!(
                    self.model.contains_key(addr),
                    "a link to {addr}: {}",
                    shown()
                );
            }
            // The published counters are the model's.
            for (addr, m) in &self.model {
                let row = (m.serving, m.quarantines);
                assert_eq!(self.mirror[addr], row, "{addr}: {}", shown());
            }
            // One timer per link — the timeout of its dial if one is
            // out, else the dial of a down one, the probe of an up one —
            // and `next_deadline` is the earliest.
            let timer = |m: &Model| match (m.dialling, m.up) {
                (Some(until), _) => until,
                (None, true) => m.last_hb + self.silence / 3,
                (None, false) => m.next_dial,
            };
            let timers = self.model.values().map(timer);
            assert_eq!(self.table.next_deadline(), timers.min(), "{}", shown());
        }

        /// A command for an address outside the peer list or for a link
        /// that is not up is refused in this very step if somebody waits
        /// on it, dropped if not — no frame, no `Race` — and nothing else
        /// happens; one for an up link goes on the wire whole, and
        /// holds one tag.
        fn judge_send(&mut self, was: &Was, cmd: &Cmd, actions: &[Action]) {
            let shown = || format!("{cmd:?} -> {actions:?}");
            let addr = cmd.addr.as_str();
            let refused = matches!(actions, [Action::Race(n, _)] if Some(*n) == owed(cmd.tag));
            if !was.up {
                assert!(refused || actions.is_empty(), "{}", shown());
                assert_eq!(refused, owed(cmd.tag).is_some(), "{}", shown());
                let known = self.table.links.contains_key(addr);
                return assert_eq!(known, was.known, "a link to {addr}: {}", shown());
            }
            let mut grown = was.pending.clone();
            grown.push(cmd.tag);
            assert_eq!(self.pending(addr), grown, "{}", shown());
            let whole = cmd.req.encode().len() + 4;
            let written =
                matches!(actions, [Action::Write(a, bytes)] if a == addr && bytes.len() == whole);
            assert!(written, "{}", shown());
        }

        fn judge_dialed(&mut self, was: &Was, addr: &str, connected: bool, actions: &[Action]) {
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
            if !was.dialling {
                // An answer to no dial changes nothing.
                assert!(actions.is_empty(), "{}", shown());
                return assert_eq!(self.is_up(addr), was.up, "{}", shown());
            }
            let m = self
                .model
                .get_mut(addr)
                .expect("only a configured link dials");
            m.dialling = None;
            if !connected {
                assert!(actions.is_empty(), "{}", shown());
                return m.dial_failed(now);
            }
            // The priming heartbeat and nothing the last connection
            // carried; and a connect does not put the link in service.
            assert!(frames.eq([&Request::PeerStats]), "{}", shown());
            assert_eq!(has(Stat::Reconnected), m.ever_up, "{}", shown());
            let up = |a: &Action| matches!(a, Action::Stat(_, Stat::Up(_)));
            assert!(!actions.iter().any(up), "{}", shown());
            (m.up, m.ever_up, m.fails) = (true, true, 0);
            (m.heard, m.last_hb) = (now, now);
        }

        fn judge_reply(
            &mut self,
            was: &Was,
            addr: &str,
            resp: Option<&Response>,
            actions: &[Action],
        ) {
            let shown = || format!("reply {addr} {resp:?} -> {actions:?}");
            assert!(was.up, "the harness only delivers on open streams");
            let pending = self.pending(addr);
            let front = was.pending.first().copied();
            let pushed = match resp {
                Some(Response::AltResult { race_id, .. }) => Some(*race_id),
                _ => None,
            };
            let (Some(resp), true) = (resp, pushed.is_some() || front.is_some()) else {
                // Garbage, or unasked for: the link is done.
                return self.went_down(addr, actions);
            };
            let count = |pick: &dyn Fn(&Action) -> bool| actions.iter().filter(|a| pick(a)).count();
            // Accepted, whatever the frame: the silence clock starts
            // over, and the connection's first frame — only that one —
            // puts the link in service.
            let m = self.model.get_mut(addr).expect("a configured link");
            let ups = actions.iter().filter_map(|a| match a {
                Action::Stat(_, Stat::Up(up)) => Some(*up),
                _ => None,
            });
            assert!(ups.eq((!m.serving).then_some(true)), "{}", shown());
            (m.serving, m.served, m.heard) = (true, true, self.now);
            let rtts = count(&|a| matches!(a, Action::Stat(_, Stat::Rtt(_))));
            if let Some(n) = pushed {
                // A pushed result pops no tag, gives no rtt sample and
                // feeds its race once.
                assert_eq!(pending, was.pending, "{}", shown());
                assert_eq!(rtts, 0, "{}", shown());
                let fed = |a: &Action| matches!(a, Action::Race(r, _) if *r == n);
                let races = count(&|a| matches!(a, Action::Race(..)));
                return assert_eq!((count(&fed), races), (1, 1), "{}", shown());
            }
            // An rtt sample, and the answer.
            let tag = front.expect("paired");
            assert_eq!(pending, was.pending[1..], "{}", shown());
            assert_eq!(rtts, 1, "{}", shown());
            let loaded = tag == SendTag::Heartbeat
                && matches!(resp, Response::Text { body } if body.contains("load "));
            let loads = count(&|a| matches!(a, Action::Stat(_, Stat::Load(1, 2, 3))));
            assert_eq!(loads, usize::from(loaded), "{}", shown());
            let acked = matches!(
                (tag, resp),
                (SendTag::ExecAlt { .. }, Response::Text { .. })
            );
            let races = count(&|a| matches!(a, Action::Race(..)));
            let Some(n) = owed(tag) else {
                return assert_eq!(races, 0, "{}", shown());
            };
            assert_eq!(races, usize::from(!acked), "{}", shown());
            // `judge` counts each `Race`; an ack is a resolution with no
            // action at all.
            let fate = self.fates.get_mut(&n).expect("issued");
            fate.settled += u32::from(acked);
            // The answer is the one this very request gets: pairing,
            // judged by content.
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
            assert_eq!(count(&grant), usize::from(granted), "{}", shown());
        }

        /// `addr` was up and must be down now: it redials in 50 ms, and
        /// leaves service — told once, and only if it was in service.
        /// (`judge` checks the `Down` and counts the refusals of what
        /// was in flight; the final audit finds a missing one.)
        fn went_down(&mut self, addr: &str, actions: &[Action]) {
            assert!(!self.is_up(addr), "{addr} is still up");
            let left = actions
                .iter()
                .filter(|a| matches!(a, Action::Stat(at, Stat::Up(false)) if at == addr));
            let m = self.model.get_mut(addr).expect("a configured link");
            assert_eq!(left.count(), usize::from(m.serving), "{addr}: {actions:?}");
            (m.up, m.serving) = (false, false);
            m.next_dial = self.now + BACKOFF_INITIAL;
        }

        /// A tick fires what is due and nothing else: a dial's timeout,
        /// which fails it; a down link's dial, unless one is out; for an
        /// up link whose probe is due, the close of one that has
        /// accepted nothing for the silence span — a quarantine if a
        /// frame was accepted since the last one — or else the probe.
        fn judge_tick(&mut self, actions: &[Action]) {
            let shown = || format!("tick -> {actions:?}");
            let (now, silence) = (self.now, self.silence);
            let (mut dials, mut probes, mut resets, mut quarantines) =
                (vec![], vec![], vec![], vec![]);
            let mut timeouts = Vec::new();
            for (addr, m) in &mut self.model {
                match m.dialling {
                    Some(until) if until <= now => {
                        timeouts.push(addr.clone());
                        m.dialling = None;
                        m.dial_failed(now);
                        continue;
                    }
                    Some(_) => continue,
                    None => {}
                }
                if !m.up && m.next_dial <= now {
                    dials.push(addr.clone());
                    m.dialling = Some(now + CONNECT_TIMEOUT);
                }
                if !m.up || m.last_hb + silence / 3 > now {
                    continue;
                }
                if now.duration_since(m.heard) >= silence {
                    resets.push(addr.clone());
                    if std::mem::take(&mut m.served) {
                        m.quarantines += 1;
                        quarantines.push(addr.clone());
                    }
                } else {
                    probes.push(addr.clone());
                    m.last_hb = now;
                }
            }
            let (mut dialled, mut probed, mut reset, mut quarantined) =
                (vec![], vec![], vec![], vec![]);
            let mut abandoned = Vec::new();
            for action in actions {
                match action {
                    Action::Dial(addr) => dialled.push(addr.clone()),
                    Action::Abandon(addr) => abandoned.push(addr.clone()),
                    Action::Frame(cmd) => {
                        assert_eq!(cmd.tag, SendTag::Heartbeat, "{}", shown());
                        probed.push(cmd.addr.clone());
                    }
                    Action::Down(addr) => reset.push(addr.clone()),
                    Action::Stat(addr, Stat::Quarantined) => quarantined.push(addr.clone()),
                    Action::Stat(_, Stat::Up(false)) | Action::Race(..) => {}
                    _ => panic!("{}", shown()),
                }
            }
            assert_eq!(
                (dialled, probed, &reset, quarantined, &abandoned),
                (dials, probes, &resets, quarantines, &timeouts),
                "{}",
                shown()
            );
            for addr in reset {
                self.went_down(&addr, actions);
            }
        }
    }

    /// The link core's contract, over 2 500 seeded schedules on virtual
    /// time: commands of every tag to configured addresses and to ones
    /// outside the peer list, dials answered at once, late, never (until
    /// the core's timeout fails them) or with a refusal while every
    /// other link's events go on, on-time and early ticks, hang-ups,
    /// garbage, stray dial answers, and model peers that answer every
    /// whole frame the real decoder finds in the bytes the core asked to
    /// write, and push the result of a shipped alternative they admit
    /// before its ack, after it or never — or stall, or are dead.
    /// Checked of every step (see the `judge*` functions): a command for
    /// an address outside the peer list is refused and nothing is ever
    /// dialled there; a command for a link that is not up is refused at
    /// once when somebody waits on it, and an `ELIMINATE` or heartbeat
    /// dropped with no frame and no `Race`; a frame for an up link goes
    /// on the wire whole and holds one tag; a reply meets the tag of the
    /// request it answers, and is that request's answer by content; a
    /// pushed result takes no tag and no rtt sample and feeds its race
    /// once; any dial that connects sends the priming heartbeat and
    /// nothing else — no frame outlives the connection it was sent on;
    /// the core is dialling exactly where the shell has a connect out,
    /// never dials twice at once, and fails a dial out for 50 ms on the
    /// tick; failed dials are 50 ms · 2ᵏ apart up to 2 s and a success
    /// starts over; an answer to no dial changes nothing; a link enters
    /// service (`Up(true)`) at most once per connection, on an accepted
    /// frame and never on the dial, and leaves it (`Up(false)`) exactly
    /// when a connection in service closes; a tick closes an up link
    /// only after the silence span with no accepted frame — a quarantine
    /// exactly when a frame was accepted since the last one — and probes
    /// every other up link whose cadence is due; `Down` comes once per
    /// up → down; `next_deadline` is the earliest alarm. Checked of
    /// every stretch of time: no dial is out past its timeout, and an up
    /// link accepts a frame or is closed within the silence span and one
    /// probe cadence. Checked at the end: every `ExecAlt` / `Vote` is
    /// settled exactly once — answered on its own connection, or
    /// refused.
    #[test]
    fn any_schedule_keeps_every_link_rule() {
        check("link_schedules", 2_500, schedule);
    }

    /// Each seeded mutant — a tick that re-dials a link whose dial is
    /// out, a dial that never times out, a link in service from its
    /// connect, a link never closed for silence, a link closed though it
    /// answered in time, a close that refuses nothing, a reply that
    /// answers nothing — fails the schedule property.
    #[test]
    fn the_schedule_property_kills_each_seeded_mutant() {
        use broken::Mutant;
        let mutants = [
            Mutant::Redial,
            Mutant::EndlessDial,
            Mutant::UpAtConnect,
            Mutant::NeverSilenced,
            Mutant::HastyClose,
            Mutant::ForgetfulClose,
            Mutant::SilentPop,
        ];
        for mutant in mutants {
            broken::set(Some(mutant));
            let run = || check("link_schedules", 2_500, schedule);
            let killed = std::panic::catch_unwind(run).is_err();
            broken::set(None);
            assert!(killed, "the schedule property let {mutant:?} live");
        }
    }

    /// One seeded schedule of the property.
    fn schedule(rng: &mut CaseRng) {
        let configured = &CONFIGURED[..rng.usize_in(1, 3)];
        let silence = *rng.pick(&[100, 120, 300]);
        let mut sim = Sim::new(configured, silence, Instant::now());
        sim.p_late = *rng.pick(&[0.0, 0.3, 0.7]);
        let addrs: Vec<String> = sim.peers.keys().cloned().collect();
        for peer in sim.peers.values_mut() {
            peer.listening = rng.chance(0.8);
            peer.hangs = rng.chance(0.15);
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
                    let kind = *rng.pick(&[EXEC_ALT, VOTE, ELIMINATE, HEARTBEAT]);
                    sim.issue(rng, &addr, kind);
                }
                55..=74 => {
                    let talkers = sim.talkers();
                    if !talkers.is_empty() {
                        let talker = rng.pick(&talkers).clone();
                        sim.deliver(rng, &talker, false);
                    }
                }
                75..=81 => sim.late_answer(rng, &addr),
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
                    peer.read(rng);
                }
                95..=98 => sim.feed(rng, Event::Tick),
                _ => {}
            }
        }
        sim.audit(rng);
    }

    /// The shell in miniature, for the worked examples below: on-time
    /// ticks until `until` past `t0`, every dial answered `connects`,
    /// every frame put on the wire whole, no peer ever replying.
    /// Returns when (in ms past `t0`) each dial, quarantine, exit from
    /// service and `Down` came.
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
                            let connected = connects;
                            events.push_back(Event::Dialed { addr, connected });
                            "dial"
                        }
                        Action::Frame(cmd) => {
                            events.push_back(Event::Send(cmd));
                            continue;
                        }
                        Action::Down(_) => "down",
                        Action::Stat(_, Stat::Quarantined) => "quarantined",
                        Action::Stat(_, Stat::Up(false)) => "out of service",
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

    /// Only the peer list is dialled: a frame for any other address is
    /// refused on the spot — the alternative refused, the vote denied,
    /// the rest dropped — and leaves no link behind to dial, now or ever.
    #[test]
    fn a_frame_for_an_address_outside_the_peer_list_is_refused_never_dialled() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(&config(&[], 1500), t0);
        let send =
            |table: &mut LinkTable, kind, n| table.step(Event::Send(command("s0:1", kind, n)), t0);
        assert!(send(&mut table, ELIMINATE, 7).is_empty());
        let refused = send(&mut table, EXEC_ALT, 8);
        let refused = matches!(
            &refused[..],
            [Action::Race(8, remote::Event::LegRefused { alt_idx: 1 })]
        );
        assert!(refused);
        let denied = send(&mut table, VOTE, 9);
        let denied = matches!(
            &denied[..],
            [Action::Race(9, remote::Event::Vote { granted: false, .. })]
        );
        assert!(denied);
        assert!(table.links.is_empty());
        assert_eq!(table.next_deadline(), None);
        assert!(table.step(Event::Tick, t0 + ms(60_000)).is_empty());
    }

    /// A pushed result is no reply: it may overtake its ack, it feeds
    /// its race, and it leaves the tag in flight to the ack that follows
    /// it.
    #[test]
    fn a_pushed_result_feeds_its_race_and_leaves_the_fifo_alone() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(&config(&["c0:1"], 1500), t0);
        assert_eq!(drive(&mut table, t0, 0, true), [(0, "dial")]);
        table.step(heartbeat_reply("c0:1"), t0);
        let ship = command("c0:1", EXEC_ALT, 4);
        let ack = reply_to(&ship.req);
        table.step(Event::Send(ship), t0 + ms(1));
        let reply = |resp| {
            let addr = "c0:1".to_owned();
            Event::Reply {
                addr,
                resp: Some(resp),
            }
        };
        let fed = table.step(reply(result_of(4)), t0 + ms(2));
        let leg = remote::Event::LegResult {
            alt_idx: 1,
            status: ALT_OK,
            value: 4,
            latency_us: 1,
        };
        assert_eq!(format!("{fed:?}"), format!("{:?}", [Action::Race(4, leg)]));
        let acked = table.step(reply(ack), t0 + ms(3));
        assert!(
            matches!(&acked[..], [Action::Stat(_, Stat::Rtt(2_000))]),
            "{acked:?}"
        );
    }

    /// A link's request goes out through the one frame writer: the
    /// largest any `Request` can be — a `COMMIT_VOTE` whose two names
    /// are each cut to 65 535 bytes, 131 083 bytes of body — is one whole
    /// frame the decoder reads back, and holds its tag until its reply
    /// answers it. No request reaches `MAX_FRAME`, so none can show the
    /// writer's refusal of one that would.
    #[test]
    fn a_request_goes_out_as_one_frame_of_the_shared_writer() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(&config(&["c0:1"], 1500), t0);
        assert_eq!(drive(&mut table, t0, 0, true), [(0, "dial")]);
        table.step(heartbeat_reply("c0:1"), t0);
        let long = "x".repeat(70_000);
        let req = Request::CommitVote {
            race_id: 4,
            origin: long.clone(),
            candidate: long,
        };
        let (addr, tag, reply) = ("c0:1".to_owned(), tag_of(&req), reply_to(&req));
        let written = table.step(Event::Send(Cmd { addr, req, tag }), t0 + ms(1));
        let [Action::Write(_, bytes)] = &written[..] else {
            panic!("one write: {written:?}");
        };
        let mut decoder = FrameDecoder::new();
        decoder.extend(bytes);
        let body = decoder.next_frame().expect("well framed").expect("whole");
        assert_eq!((body.len(), decoder.buffered()), (131_083, 0));
        let sent = Request::decode(&body).expect("a request");
        assert!(matches!(sent, Request::CommitVote { race_id: 4, .. }));
        let addr = "c0:1".to_owned();
        let answered = table.step(
            Event::Reply {
                addr,
                resp: Some(reply),
            },
            t0 + ms(2),
        );
        let vote = |a: &Action| match a {
            Action::Race(4, remote::Event::Vote { granted, .. }) => *granted == grants(4),
            _ => false,
        };
        let paired = matches!(&answered[..], [Action::Stat(_, Stat::Rtt(_)), v] if vote(v));
        assert!(paired, "{answered:?}");
    }

    /// A redial carries nothing of the connection before it: an
    /// `ELIMINATE` unacknowledged when the stream died, and one sent
    /// while the link was down, are gone — the close cancelled their
    /// legs on the executor — and a vote sent while down is denied; the
    /// priming heartbeat is the new connection's only frame.
    #[test]
    fn a_redial_replays_nothing_and_probes() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(&config(&["c0:1"], 1500), t0);
        assert_eq!(drive(&mut table, t0, 0, true), [(0, "dial")]);
        // On the wire and never acknowledged; then the stream dies.
        table.step(Event::Send(command("c0:1", ELIMINATE, 3)), t0);
        let closed = table.step(Event::Closed("c0:1".to_owned()), t0 + ms(5));
        assert!(
            !closed.iter().any(|a| matches!(a, Action::Race(..))),
            "{closed:?}"
        );
        // Down: an ELIMINATE is dropped, a vote is denied.
        let dropped = table.step(Event::Send(command("c0:1", ELIMINATE, 5)), t0 + ms(6));
        assert!(dropped.is_empty(), "{dropped:?}");
        let denied = table.step(Event::Send(command("c0:1", VOTE, 6)), t0 + ms(6));
        assert!(matches!(&denied[..], [Action::Race(6, _)]), "{denied:?}");

        assert_eq!(table.next_deadline(), Some(t0 + ms(55)));
        let dial = table.step(Event::Tick, t0 + ms(55));
        assert!(matches!(&dial[..], [Action::Dial(_)]), "{dial:?}");
        let addr = "c0:1".to_owned();
        let actions = table.step(
            Event::Dialed {
                addr,
                connected: true,
            },
            t0 + ms(56),
        );
        assert_eq!(frames(&actions), [&Request::PeerStats]);
    }

    /// The answer to the priming heartbeat, as a live peer sends it.
    fn heartbeat_reply(addr: &str) -> Event {
        let addr = addr.to_owned();
        let resp = Some(reply_to(&Request::PeerStats));
        Event::Reply { addr, resp }
    }

    /// Whether `actions` put `addr` in service.
    fn entered_service(actions: &[Action]) -> bool {
        let up = |a: &Action| matches!(a, Action::Stat(_, Stat::Up(true)));
        actions.iter().any(up)
    }

    /// The service rule past its first span (the live test in
    /// `tests/peers.rs` sees one): a connect is not service, the first
    /// frame is; a link in service that answers nothing is closed a
    /// silence span after its last frame, a quarantine; each redial that
    /// answers nothing is closed a span after its connect, no
    /// quarantine, until the first frame puts the link back in service.
    /// A spell in service that ends in a hang-up is quarantined by the
    /// first silence close after it, on the redial.
    #[test]
    fn a_link_serves_from_its_first_frame_until_a_silence_span_without_one() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(&config(&["c0:1"], 120), t0);
        table.step(Event::Tick, t0);
        let addr = "c0:1".to_owned();
        let connected = table.step(
            Event::Dialed {
                addr,
                connected: true,
            },
            t0,
        );
        assert!(!entered_service(&connected), "{connected:?}");
        for action in connected {
            if let Action::Frame(cmd) = action {
                table.step(Event::Send(cmd), t0);
            }
        }
        let served = table.step(heartbeat_reply("c0:1"), t0 + ms(10));
        assert!(entered_service(&served), "{served:?}");
        // Probes at 40, 80 and 120 ms go unanswered; at 160 the link has
        // been silent 150 ms ≥ 120.
        let log = drive(&mut table, t0, 560, true);
        #[rustfmt::skip]
        let want = [
            (160, "quarantined"), (160, "out of service"), (160, "down"),
            (210, "dial"), (330, "down"),
            (380, "dial"), (500, "down"),
            (550, "dial"),
        ];
        assert_eq!(log, want);
        let served = table.step(heartbeat_reply("c0:1"), t0 + ms(555));
        assert!(entered_service(&served), "{served:?}");
        assert_eq!(
            drive(&mut table, t0, 670, true),
            [],
            "heard from at 555: probed at 590, 630 and 670, closed no earlier than 675"
        );
        table.step(Event::Closed("c0:1".to_owned()), t0 + ms(680));
        #[rustfmt::skip]
        let want = [(730, "dial"), (850, "quarantined"), (850, "down")];
        assert_eq!(drive(&mut table, t0, 880, true), want);
    }

    /// A dial that is out: a tick starts no second one, an `ELIMINATE`
    /// is dropped and a vote is refused as for a down link, and 50 ms on
    /// the tick abandons it and backs off; an answer to an abandoned
    /// dial changes nothing, and the dial that connects sends only its
    /// priming heartbeat.
    #[test]
    fn a_dial_out_fails_on_the_tick_fifty_ms_on() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(&config(&["c0:1"], 1500), t0);
        let dial = table.step(Event::Tick, t0);
        assert!(
            matches!(&dial[..], [Action::Dial(a)] if a == "c0:1"),
            "{dial:?}"
        );
        assert!(
            table.step(Event::Tick, t0 + ms(10)).is_empty(),
            "a second dial"
        );
        let dropped = table.step(Event::Send(command("c0:1", ELIMINATE, 1)), t0 + ms(10));
        assert!(dropped.is_empty(), "{dropped:?}");
        let denied = table.step(Event::Send(command("c0:1", VOTE, 2)), t0 + ms(10));
        assert!(matches!(&denied[..], [Action::Race(2, _)]), "{denied:?}");

        assert_eq!(table.next_deadline(), Some(t0 + ms(50)));
        let failed = table.step(Event::Tick, t0 + ms(50));
        assert!(
            matches!(&failed[..], [Action::Abandon(a)] if a == "c0:1"),
            "{failed:?}"
        );
        assert_eq!(table.next_deadline(), Some(t0 + ms(100)), "c0:1's redial");
        let late = Event::Dialed {
            addr: "c0:1".to_owned(),
            connected: true,
        };
        assert!(table.step(late.clone(), t0 + ms(80)).is_empty());

        table.step(Event::Tick, t0 + ms(100));
        let up = table.step(late, t0 + ms(101));
        assert_eq!(frames(&up), [&Request::PeerStats], "nothing was held");
    }

    #[test]
    fn failed_dials_back_off_to_the_cap_and_a_success_starts_over() {
        let t0 = Instant::now();
        let mut table = LinkTable::new(&config(&["c0:1"], 1500), t0);
        let dials = |log: Vec<(u128, &str)>| log.into_iter().map(|(at, _)| at).collect::<Vec<_>>();
        let refused = dials(drive(&mut table, t0, 7_200, false));
        assert_eq!(refused, [0, 50, 150, 350, 750, 1_550, 3_150, 5_150, 7_150]);
        assert_eq!(dials(drive(&mut table, t0, 9_150, true)), [9_150]);
        table.step(Event::Closed("c0:1".to_owned()), t0 + ms(10_000));
        let refused = dials(drive(&mut table, t0, 10_200, false));
        assert_eq!(refused, [10_050, 10_100, 10_200]);
    }
}
