//! Origin-side registry of distributed races, and the executor-side
//! table of remotely-owned alternatives.
//!
//! A *distributed race* is one client request whose alternatives run on
//! more than one node: the local subrace (favourite plus whatever else
//! stayed) races on this node's pool while shipped alternatives run on
//! peers. The origin's view — which alternatives are where, which peers
//! vote, who finished first, and, through the majority 0–1 semaphore
//! ([`crate::commit`]), which single candidate commits — is split in
//! two:
//!
//! * [`RaceTable`] is the **core**: a pure state machine. Everything
//!   that can happen to a race is an [`Event`] fed to
//!   [`RaceTable::step`] (or one of `peer_down` / `expire` / `flush`)
//!   together with the current instant, and everything the race wants
//!   done about it comes back as a list of [`Action`]s. The core reads
//!   no clock, holds no lock, owns no socket and bumps no counter, so a
//!   test can feed it any interleaving — including ones a wall-clock
//!   soak would need weeks to stumble on — and judge it by its actions
//!   alone.
//! * [`RemoteRaces`] is the **shell**: it owns the table's mutex and
//!   executes the actions. Beside the table, under the same mutex and
//!   keyed by the same `race_id`, it keeps each open race's
//!   [`Flight`] — the reply slots the race owes and the way to them —
//!   which the core never sees: the core deals in ids. Every entry
//!   point is lock, step, unlock, act. Actions touch other locks (a
//!   connection's write half, the peer handle's command queue, the
//!   pool) so they never run under the table lock.
//!
//! The final [`Response`] is posted exactly once, whichever of the many
//! event orderings happens: the core emits one `Post { race_id, .. }`
//! per race and the shell answers the flight it takes out for that id.
//! The origin is a voter like any other: its own vote is asked
//! for with the same `SendVote` action as a peer's, which the shell
//! answers from this node's [`CommitLedger`] instead of the wire.
//!
//! Failure conversions (the "graceful degradation" half of the issue):
//!
//! * a peer that refuses, errors, or dies converts its shipped
//!   alternatives to failed guards — the race continues on survivors;
//! * a voter that dies converts to a denial; if enough die that a
//!   majority can never assemble, the commit **degrades**: the origin
//!   answers the client anyway and counts `commits_degraded`, trading
//!   the paper's blocking semantics for serving-grade liveness;
//! * a race that outlives its deadline plus a grace window is expired
//!   by the peer thread's sweep, so a silent peer cannot strand a
//!   client even when TCP never reports the loss.

use crate::commit::{CommitLedger, TallyState, VoteTally};
use crate::frame::{Request, Response, ALT_DEADLINE, ALT_OK};
use crate::peer::{PeerHandle, SendTag};
use crate::pool::{JobMeta, WorkerPool};
use crate::reactor::Flight;
use crate::sched::HedgePolicy;
use crate::server::alt_job;
use crate::telemetry::{Metric, Telemetry};
use crate::workload;
use altx::CancelToken;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Extra time past the client deadline before a distributed race is
/// force-expired (covers result frames in flight).
const DEADLINE_GRACE: Duration = Duration::from_secs(1);
/// Expiry cap for races with no client deadline.
const UNBOUNDED_CAP: Duration = Duration::from_secs(10);
/// A remote leg always gets at least this long before it is given up
/// on, however fast the link's RTT claims the peer is — covers worker
/// pickup and execution, not just the wire.
const LEG_FLOOR: Duration = Duration::from_millis(20);
/// Leg allowance as a multiple of the link's RTT EWMA.
const LEG_RTT_MULT: u32 = 8;
/// A leg may consume at most this fraction (in percent) of the client
/// deadline, so a locally-redispatched alternative still has budget.
const LEG_DEADLINE_PCT: u32 = 75;

/// The request a distributed race answers — see [`RaceTable::create`].
pub(crate) struct RaceSpec {
    /// Catalog index of the workload.
    pub(crate) widx: usize,
    /// The client argument — kept so an expired leg can be re-run
    /// locally with the same input.
    pub(crate) arg: u64,
    /// The client deadline (0 = none).
    pub(crate) deadline_ms: u32,
    /// Cancels the local subrace and any local redo of an expired leg.
    pub(crate) local_cancel: CancelToken,
}

/// Everything that can happen to one open race.
#[derive(Debug)]
pub(crate) enum Event {
    /// The local subrace finished with this reply.
    LocalDone(Response),
    /// A shipped alternative reported (`ALT_RESULT` from its executor),
    /// or — `redo` — the local redo of a leg that blew its deadline
    /// did. Both race for the same slot: whichever lands first clears
    /// it, the other is ignored.
    LegResult {
        alt_idx: u32,
        status: u8,
        value: u64,
        /// Executor-side latency.
        latency_us: u64,
        redo: bool,
    },
    /// A shipped alternative will never run: the peer refused it, the
    /// link was down at send time or died before the ack, or the local
    /// pool refused its redo.
    LegRefused { alt_idx: u32 },
    /// A vote reply — or its conversion to a denial when the voter
    /// died or answered something else.
    Vote { voter: String, granted: bool },
}

/// What the core wants done, executed by the shell strictly after the
/// table unlocks.
#[derive(Debug)]
pub(crate) enum Action {
    /// Answer the race's waiters. Exactly one per race, always the
    /// last action of the step that decided it. The shell derives the
    /// reply's own counter (completed / deadline exceeded / error) from
    /// its flavour.
    Post { race_id: u64, response: Response },
    /// Ask `peer` (possibly this node itself) for its vote.
    SendVote {
        peer: String,
        race_id: u64,
        candidate: String,
    },
    /// Tell `peer` to stop running this race's alternatives.
    SendEliminate { peer: String, race_id: u64 },
    /// The committed winner, for the scheduler's statistics and (when a
    /// peer ran it) that peer's win count.
    Won {
        widx: usize,
        alt_idx: u32,
        /// Executor-side latency — it estimates the alternative's cost,
        /// not the network's.
        exec_latency_us: u64,
        peer: Option<String>,
    },
    /// A remote leg blew its per-leg deadline: run the alternative on
    /// the local pool instead (hedged recovery).
    Redispatch {
        race_id: u64,
        alt_idx: u32,
        widx: usize,
        arg: u64,
        token: CancelToken,
    },
    /// Cancel the local subrace (and any redo sharing its token); a
    /// no-op when everything local already finished.
    Cancel(CancelToken),
    /// Bump a telemetry counter.
    Count(Metric),
}

/// One shipped alternative, tracked until its result (or its peer's
/// death) arrives.
#[derive(Debug)]
struct RemoteAlt {
    alt_idx: u32,
    peer: String,
    pending: bool,
    /// Per-leg deadline: the moment the origin stops waiting for this
    /// peer and hedges the alternative locally instead.
    deadline: Instant,
    /// The leg blew its deadline: its peer was told to stop and a local
    /// redo was submitted. The slot stays `pending` — a late genuine
    /// result may still win — but the leg is never redispatched twice.
    redispatched: bool,
}

#[derive(Debug)]
struct Voter {
    addr: String,
    /// Asked and not answered yet; only then does an answer count.
    owed: bool,
}

/// The first finisher, held while its commit round runs.
#[derive(Debug)]
struct Candidate {
    alt_idx: u32,
    value: u64,
    exec_latency_us: u64,
    /// `Some(addr)` when a peer executed the winner; `None` for local
    /// (including a local redo: the stalled peer gets no credit).
    peer: Option<String>,
}

struct DistRace {
    id: u64,
    spec: RaceSpec,
    started: Instant,
    expire_at: Instant,
    local_pending: bool,
    /// Any participant reported a blown deadline (picks the final
    /// failure flavour when nothing succeeds).
    deadline_seen: bool,
    remotes: Vec<RemoteAlt>,
    /// The origin first, then the frozen peer set.
    voters: Vec<Voter>,
    tally: Option<VoteTally>,
    candidate: Option<Candidate>,
}

/// The pure core of the origin-side registry: the open races and the
/// id counter, nothing else.
pub(crate) struct RaceTable {
    races: HashMap<u64, DistRace>,
    next_id: u64,
    /// This node's peer identity: the first voter of every race and the
    /// prefix of every candidate id.
    advertise: String,
}

impl RaceTable {
    pub(crate) fn new(advertise: String) -> Self {
        RaceTable {
            races: HashMap::new(),
            next_id: 1,
            advertise,
        }
    }

    /// Registers a new distributed race **before** anything races: the
    /// local subrace must be admitted and the `EXEC_ALT`s sent only
    /// after the entry exists, or an instant finisher would report into
    /// the void. `remotes` is `(alt_idx, peer)` per shipped alternative
    /// and `voters` the frozen peer voter set (up peers at creation; the
    /// origin itself is implicit); `rtt_us` is the link RTT estimate for
    /// a peer (0 = no sample), from which each leg's allowance follows.
    /// Returns the race id.
    pub(crate) fn create(
        &mut self,
        spec: RaceSpec,
        remotes: Vec<(u32, String)>,
        voters: Vec<String>,
        rtt_us: impl Fn(&str) -> u64,
        now: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let budget = Duration::from_millis(u64::from(spec.deadline_ms));
        // A leg may not eat more than a fraction of the client budget:
        // whatever is left must suffice for the local redo.
        let (expire_at, leg_cap) = if spec.deadline_ms > 0 {
            (
                now + budget + DEADLINE_GRACE,
                budget * LEG_DEADLINE_PCT / 100,
            )
        } else {
            (now + UNBOUNDED_CAP, UNBOUNDED_CAP)
        };
        let remotes = remotes
            .into_iter()
            .map(|(alt_idx, peer)| {
                let allowance = (Duration::from_micros(rtt_us(&peer)) * LEG_RTT_MULT)
                    .max(LEG_FLOOR)
                    .min(leg_cap);
                RemoteAlt {
                    alt_idx,
                    peer,
                    pending: true,
                    deadline: now + allowance,
                    redispatched: false,
                }
            })
            .collect();
        let voters = std::iter::once(self.advertise.clone())
            .chain(voters)
            .map(|addr| Voter { addr, owed: false })
            .collect();
        self.races.insert(
            id,
            DistRace {
                id,
                spec,
                started: now,
                expire_at,
                local_pending: true,
                deadline_seen: false,
                remotes,
                voters,
                tally: None,
                candidate: None,
            },
        );
        id
    }

    /// Removes a race whose local subrace was *refused* by the pool —
    /// nothing ran, nothing was sent, the waiters are shed inline.
    pub(crate) fn abort(&mut self, race_id: u64) {
        self.races.remove(&race_id);
    }

    /// Feeds one event to one race. An event for a race already decided
    /// (late result, duplicate vote), for a slot already cleared, or
    /// from a voter not owing an answer changes nothing and returns no
    /// actions.
    pub(crate) fn step(&mut self, race_id: u64, event: Event, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(race) = self.races.get_mut(&race_id) else {
            return actions;
        };
        let finisher = match event {
            Event::LocalDone(reply) => {
                race.local_pending = false;
                match reply {
                    Response::Ok {
                        winner,
                        latency_us,
                        value,
                        ..
                    } => Some(Candidate {
                        alt_idx: winner,
                        value,
                        exec_latency_us: latency_us,
                        peer: None,
                    }),
                    Response::DeadlineExceeded { .. } => {
                        race.deadline_seen = true;
                        None
                    }
                    _ => None,
                }
            }
            Event::LegResult {
                alt_idx,
                status,
                value,
                latency_us,
                redo,
            } => {
                let Some(leg) = race.pending_leg(alt_idx, redo) else {
                    return actions; // duplicate, never shipped, or beaten to the slot
                };
                leg.pending = false;
                let peer = (!redo).then(|| leg.peer.clone());
                if !redo {
                    actions.push(Action::Count(Metric::RemoteResults));
                }
                match status {
                    ALT_OK => Some(Candidate {
                        alt_idx,
                        value,
                        exec_latency_us: latency_us,
                        peer,
                    }),
                    ALT_DEADLINE => {
                        race.deadline_seen = true;
                        None
                    }
                    _ => {
                        if !redo {
                            actions.push(Action::Count(Metric::RemoteFailed));
                        }
                        None
                    }
                }
            }
            Event::LegRefused { alt_idx } => {
                let Some(leg) = race.pending_leg(alt_idx, false) else {
                    return actions;
                };
                leg.pending = false;
                actions.push(Action::Count(Metric::RemoteFailed));
                None
            }
            Event::Vote { voter, granted } => {
                let Some(v) = race.voters.iter_mut().find(|v| v.owed && v.addr == voter) else {
                    return actions; // unknown voter or already counted
                };
                v.owed = false;
                if let Some(tally) = &mut race.tally {
                    if granted {
                        tally.grant();
                    } else {
                        tally.deny();
                    }
                }
                None
            }
        };
        // The first finisher is the candidate; a later success is a
        // loser like any other sibling.
        if race.candidate.is_none() {
            race.candidate = finisher;
        }
        if race.resolve(&self.advertise, now, &mut actions) {
            self.races.remove(&race_id);
        }
        actions
    }

    /// A peer link died: every alternative it had acked but not
    /// finished becomes a failed guard. (Its unanswered votes are
    /// denied separately, tag by tag, by the peer thread.)
    pub(crate) fn peer_down(&mut self, peer: &str, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        let advertise = &self.advertise;
        self.races.retain(|_, race| {
            let touched = race.fail_legs(|leg| leg.peer == peer, &mut actions);
            !(touched && race.resolve(advertise, now, &mut actions))
        });
        actions
    }

    /// The clock moved: every race past its deadline-plus-grace is
    /// flushed (the backstop that keeps a silent peer from stranding a
    /// client), and on the races that remain undecided every remote leg
    /// past its per-leg deadline is given up on — its peer gets an
    /// `ELIMINATE` and the alternative is redispatched on the local
    /// pool. The slot stays `pending` so a late genuine result can
    /// still win it; only the *waiting* stops.
    pub(crate) fn expire(&mut self, now: Instant) -> Vec<Action> {
        let mut actions = self.flush_where(now, |race| race.expire_at <= now);
        for race in self.races.values_mut() {
            if race.candidate.is_some() {
                continue; // deciding already; commit handles the legs
            }
            for leg in race
                .remotes
                .iter_mut()
                .filter(|r| r.pending && !r.redispatched && r.deadline <= now)
            {
                leg.redispatched = true;
                actions.push(Action::Count(Metric::RemoteRedispatched));
                actions.push(Action::Count(Metric::Eliminations));
                actions.push(Action::SendEliminate {
                    peer: leg.peer.clone(),
                    race_id: race.id,
                });
                actions.push(Action::Redispatch {
                    race_id: race.id,
                    alt_idx: leg.alt_idx,
                    widx: race.spec.widx,
                    arg: race.spec.arg,
                    token: race.spec.local_cancel.clone(),
                });
            }
        }
        actions
    }

    /// Drain-time flush: every open race resolves *now* (degraded
    /// commit or failure) so shutdown never strands a waiter.
    pub(crate) fn flush(&mut self, now: Instant) -> Vec<Action> {
        self.flush_where(now, |_| true)
    }

    /// Forces a decision on every race `pred` picks: outstanding work
    /// is abandoned, a candidate stuck in voting commits degraded, a
    /// race with nothing decided fails over to a deadline/error reply.
    fn flush_where(&mut self, now: Instant, pred: impl Fn(&DistRace) -> bool) -> Vec<Action> {
        let mut actions = Vec::new();
        self.races.retain(|_, race| {
            if !pred(race) {
                return true;
            }
            race.local_pending = false;
            race.eliminate_pending(&mut actions);
            race.fail_legs(|_| true, &mut actions);
            if race.spec.deadline_ms > 0 {
                race.deadline_seen = true;
            }
            if race.candidate.is_some() {
                // Voting stalled (voters dead or drain): degrade.
                race.commit(true, now, &mut actions);
            } else {
                actions.push(Action::Cancel(race.spec.local_cancel.clone()));
                race.fail(now, &mut actions);
            }
            false
        });
        actions
    }

    /// Earliest instant at which [`RaceTable::expire`] would do
    /// something — a race expiry or a live leg's deadline — for the
    /// peer thread's poll timeout.
    pub(crate) fn next_expiry(&self) -> Option<Instant> {
        self.races
            .values()
            .flat_map(|r| {
                // A leg only contributes while its expiry would still
                // do something: undecided race, not yet redispatched.
                let legs = r
                    .remotes
                    .iter()
                    .filter(move |s| r.candidate.is_none() && s.pending && !s.redispatched)
                    .map(|s| s.deadline);
                std::iter::once(r.expire_at).chain(legs)
            })
            .min()
    }

    /// The lowest still-open race id (or the next id to be assigned
    /// when none is open). Race ids are handed out monotonically from
    /// one counter, so every id below the watermark is decided — a
    /// reconnecting peer can discard those races' state wholesale.
    pub(crate) fn reconcile_watermark(&self) -> u64 {
        self.races.keys().copied().min().unwrap_or(self.next_id)
    }

    /// Open distributed races (diagnostic/test hook).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.races.len()
    }
}

impl DistRace {
    /// The slot a result for `alt_idx` may still fill. A local redo
    /// only ever reports into a slot that was redispatched.
    fn pending_leg(&mut self, alt_idx: u32, redo: bool) -> Option<&mut RemoteAlt> {
        self.remotes
            .iter_mut()
            .find(|r| r.alt_idx == alt_idx && r.pending && (!redo || r.redispatched))
    }

    /// Converts every pending leg `which` picks to a failed guard; true
    /// if there was one.
    fn fail_legs(&mut self, which: impl Fn(&RemoteAlt) -> bool, actions: &mut Vec<Action>) -> bool {
        let before = actions.len();
        for leg in self.remotes.iter_mut().filter(|r| r.pending && which(r)) {
            leg.pending = false;
            actions.push(Action::Count(Metric::RemoteFailed));
        }
        actions.len() > before
    }

    /// Drives the race forward after any event. Returns `true` when the
    /// race is finished and must be removed.
    fn resolve(&mut self, advertise: &str, now: Instant, actions: &mut Vec<Action>) -> bool {
        if self.candidate.is_none() {
            if self.local_pending || self.remotes.iter().any(|r| r.pending) {
                return false; // still racing
            }
            self.fail(now, actions);
            return true;
        }
        if self.tally.is_none() {
            self.begin_commit(advertise, actions);
        }
        match self.tally.expect("tally just ensured").state() {
            TallyState::Undecided => false,
            TallyState::Committed => {
                self.commit(false, now, actions);
                true
            }
            TallyState::Unreachable => {
                self.commit(true, now, actions);
                true
            }
        }
    }

    /// Opens the commit round for the first finisher: freeze the tally
    /// over the voter set and ask every voter, the origin included.
    fn begin_commit(&mut self, advertise: &str, actions: &mut Vec<Action>) {
        let cand = self.candidate.as_ref().expect("caller checked");
        let candidate = format!("{advertise}/alt{}", cand.alt_idx);
        self.tally = Some(VoteTally::new(self.voters.len(), false));
        for v in self.voters.iter_mut() {
            v.owed = true;
            actions.push(Action::SendVote {
                peer: v.addr.clone(),
                race_id: self.id,
                candidate: candidate.clone(),
            });
        }
    }

    fn total_us(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.started).as_micros() as u64
    }

    /// One `ELIMINATE` per peer still owing a result and not told to
    /// stop yet (a redispatched leg's peer was, at leg expiry).
    fn eliminate_pending(&self, actions: &mut Vec<Action>) {
        let mut peers: Vec<&str> = self
            .remotes
            .iter()
            .filter(|r| r.pending && !r.redispatched)
            .map(|r| r.peer.as_str())
            .collect();
        peers.sort_unstable();
        peers.dedup();
        for peer in peers {
            actions.push(Action::Count(Metric::Eliminations));
            actions.push(Action::SendEliminate {
                peer: peer.to_owned(),
                race_id: self.id,
            });
        }
    }

    /// The candidate commits (cleanly or degraded): record the win,
    /// eliminate the surviving siblings here and on their peers, answer
    /// the client — under the catalog's name for the alternative,
    /// wherever it ran.
    fn commit(&mut self, degraded: bool, now: Instant, actions: &mut Vec<Action>) {
        let cand = self.candidate.take().expect("caller checked");
        if degraded {
            actions.push(Action::Count(Metric::CommitsDegraded));
        }
        if cand.peer.is_some() {
            actions.push(Action::Count(Metric::RemoteWins));
        }
        actions.push(Action::Won {
            widx: self.spec.widx,
            alt_idx: cand.alt_idx,
            exec_latency_us: cand.exec_latency_us,
            peer: cand.peer,
        });
        actions.push(Action::Cancel(self.spec.local_cancel.clone()));
        self.eliminate_pending(actions);
        actions.push(Action::Post {
            race_id: self.id,
            response: Response::Ok {
                winner: cand.alt_idx,
                winner_name: workload::CATALOG[self.spec.widx].alt_names[cand.alt_idx as usize]
                    .to_owned(),
                latency_us: self.total_us(now),
                value: cand.value,
            },
        });
    }

    /// Nothing succeeded anywhere: answer with the failure flavour the
    /// race observed.
    fn fail(&mut self, now: Instant, actions: &mut Vec<Action>) {
        let response = if self.deadline_seen {
            Response::DeadlineExceeded {
                latency_us: self.total_us(now),
            }
        } else {
            Response::Error {
                message: "no alternative succeeded".to_owned(),
            }
        };
        actions.push(Action::Post {
            race_id: self.id,
            response,
        });
    }
}

/// What the shell's one lock protects: the core, and beside it the way
/// home of every race the core has open.
pub(crate) struct OpenRaces {
    pub(crate) table: RaceTable,
    /// `race_id` → the race's waiters, from `create` until the core's
    /// `Post` for that id (or `abort`) takes them out.
    flights: HashMap<u64, Flight>,
}

/// The origin-side registry's shell: one per daemon, shared by every
/// reactor shard, the worker pool (through subrace notifiers), and the
/// peer thread. Owns the [`RaceTable`]'s lock and executes its actions.
pub(crate) struct RemoteRaces {
    open: Mutex<OpenRaces>,
    /// Outbound send handle.
    pub(crate) peers: Arc<PeerHandle>,
    /// Local pool for redispatched legs.
    pool: Arc<WorkerPool>,
    /// This node's votes: asked for by peers over the wire, and by the
    /// races it originates right here.
    pub(crate) ledger: CommitLedger,
    telemetry: Arc<Telemetry>,
    sched: Arc<HedgePolicy>,
    /// This node's peer identity: the origin of its races.
    pub(crate) advertise: String,
}

impl RemoteRaces {
    pub(crate) fn new(
        telemetry: Arc<Telemetry>,
        sched: Arc<HedgePolicy>,
        pool: Arc<WorkerPool>,
        peers: Arc<PeerHandle>,
        advertise: String,
    ) -> Self {
        RemoteRaces {
            open: Mutex::new(OpenRaces {
                table: RaceTable::new(advertise.clone()),
                flights: HashMap::new(),
            }),
            peers,
            pool,
            ledger: CommitLedger::new(),
            telemetry,
            sched,
            advertise,
        }
    }

    /// Registers a new distributed race (see [`RaceTable::create`]) and
    /// takes charge of its `flight`, in one lock hold: whoever decides
    /// the race finds its waiters.
    pub(crate) fn create(
        &self,
        spec: RaceSpec,
        flight: Flight,
        remotes: Vec<(u32, String)>,
        voters: Vec<String>,
    ) -> u64 {
        let stats = self.peers.stats();
        let rtt_us = |peer: &str| stats.by_addr(peer).map_or(0, |s| s.rtt_ewma_us());
        let mut open = self.lock();
        let id = open
            .table
            .create(spec, remotes, voters, rtt_us, Instant::now());
        open.flights.insert(id, flight);
        id
    }

    /// Forgets a race whose local subrace the pool refused (see
    /// [`RaceTable::abort`]) and hands its flight back to be shed —
    /// unless a drain-time flush answered it first.
    pub(crate) fn abort(&self, race_id: u64) -> Option<Flight> {
        let mut open = self.lock();
        open.table.abort(race_id);
        open.flights.remove(&race_id)
    }

    /// The table and the flights, locked.
    pub(crate) fn lock(&self) -> MutexGuard<'_, OpenRaces> {
        self.open.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one way anything happens to a race: lock the table, let
    /// `turn` feed it (with the current instant), unlock, act.
    pub(crate) fn drive(
        self: &Arc<Self>,
        turn: impl FnOnce(&mut RaceTable, Instant) -> Vec<Action>,
    ) {
        let actions = turn(&mut self.lock().table, Instant::now());
        self.act(actions);
    }

    /// Something happened to race `race_id`.
    pub(crate) fn step(self: &Arc<Self>, race_id: u64, event: Event) {
        self.drive(|table, now| table.step(race_id, event, now));
    }

    /// Executes the core's actions, in order. Never called under the
    /// table lock.
    fn act(self: &Arc<Self>, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Post { race_id, response } => {
                    match &response {
                        Response::Ok { latency_us, .. } => self.telemetry.on_completed(*latency_us),
                        Response::DeadlineExceeded { .. } => self.telemetry.on_deadline_exceeded(),
                        _ => self.telemetry.on_error(),
                    }
                    let flight = self.lock().flights.remove(&race_id);
                    if let Some(flight) = flight {
                        flight.answer(&response);
                    }
                }
                Action::SendVote {
                    peer: voter,
                    race_id,
                    candidate,
                } if voter == self.advertise => {
                    // The origin's own vote: this node's ledger, no wire.
                    let (granted, _) = self.ledger.vote(&voter, race_id, &candidate);
                    self.telemetry.add(Metric::CommitVotes, 1);
                    self.step(race_id, Event::Vote { voter, granted });
                }
                Action::SendVote {
                    peer,
                    race_id,
                    candidate,
                } => self.peers.send(
                    &peer,
                    Request::CommitVote {
                        race_id,
                        origin: self.advertise.clone(),
                        candidate,
                    },
                    SendTag::Vote { race_id },
                ),
                // Tagged so a link that dies before the ack can re-park
                // the ELIMINATE for replay on reconnect (zombie
                // executions must not outlive a partition).
                Action::SendEliminate { peer, race_id } => self.peers.send(
                    &peer,
                    Request::Eliminate {
                        race_id,
                        origin: self.advertise.clone(),
                    },
                    SendTag::Eliminate { race_id },
                ),
                Action::Won {
                    widx,
                    alt_idx,
                    exec_latency_us,
                    peer,
                } => {
                    self.sched
                        .record_win(widx, alt_idx as usize, exec_latency_us);
                    if let Some(stat) = peer.and_then(|p| self.peers.stats().by_addr(&p).cloned()) {
                        stat.note_win();
                    }
                }
                Action::Redispatch {
                    race_id,
                    alt_idx,
                    widx,
                    arg,
                    token,
                } => self.redispatch(race_id, alt_idx, widx, arg, token),
                Action::Cancel(token) => token.cancel(),
                Action::Count(metric) => self.telemetry.add(metric, 1),
            }
        }
    }

    /// Submits a local redo of an expired remote leg. The job runs the
    /// exact same single-alternative execution an `EXEC_ALT` peer
    /// would, under the subrace token so commit/expiry cancels it. A
    /// full pool converts the leg to a failed guard like any refused
    /// dispatch.
    fn redispatch(
        self: &Arc<Self>,
        race_id: u64,
        alt_idx: u32,
        widx: usize,
        arg: u64,
        token: CancelToken,
    ) {
        let me = Arc::clone(self);
        let report = move |(status, value, latency_us)| {
            let event = Event::LegResult {
                alt_idx,
                status,
                value,
                latency_us,
                redo: true,
            };
            me.step(race_id, event);
        };
        let telemetry = Arc::clone(&self.telemetry);
        let (work, done) = alt_job(telemetry, widx, alt_idx, arg, token, report);
        if self
            .pool
            .try_submit_work_at(JobMeta::default(), work, done)
            .is_err()
        {
            self.step(race_id, Event::LegRefused { alt_idx });
        }
    }
}

/// Executor-side table of remotely-owned alternatives, keyed by
/// `(origin, race_id)` so two origins' id spaces can never collide.
/// An `ELIMINATE` cancels every token registered under its key — the
/// cross-machine half of sibling elimination.
#[derive(Debug, Default)]
pub(crate) struct InflightRemote {
    map: Mutex<InflightMap>,
}

/// `(origin, race_id)` → the `(alt_idx, token)` of every alternative
/// running here for that race.
type InflightMap = HashMap<(String, u64), Vec<(u32, CancelToken)>>;

impl InflightRemote {
    /// Registers a shipped alternative's cancel token before its job is
    /// admitted.
    pub(crate) fn register(&self, origin: &str, race_id: u64, alt_idx: u32, token: CancelToken) {
        self.lock()
            .entry((origin.to_owned(), race_id))
            .or_default()
            .push((alt_idx, token));
    }

    /// Drops one alternative's registration after its result is sent.
    pub(crate) fn complete(&self, origin: &str, race_id: u64, alt_idx: u32) {
        let mut map = self.lock();
        if let Some(slots) = map.get_mut(&(origin.to_owned(), race_id)) {
            slots.retain(|(a, _)| *a != alt_idx);
            if slots.is_empty() {
                map.remove(&(origin.to_owned(), race_id));
            }
        }
    }

    /// Eliminates a race: cancels every alternative still registered
    /// under `(origin, race_id)`. Returns how many were cancelled.
    pub(crate) fn eliminate(&self, origin: &str, race_id: u64) -> usize {
        match self.lock().remove(&(origin.to_owned(), race_id)) {
            Some(slots) => {
                for (_, token) in &slots {
                    token.cancel();
                }
                slots.len()
            }
            None => 0,
        }
    }

    /// Partition-heal reconciliation: cancels every execution for
    /// `origin`'s races below `watermark`. The origin advertises its
    /// lowest still-open race id on reconnect; everything below it was
    /// decided while the link was down, so whatever this node is still
    /// running for those races is a zombie. Returns how many
    /// executions were cancelled.
    pub(crate) fn eliminate_below(&self, origin: &str, watermark: u64) -> usize {
        let mut n = 0;
        self.lock().retain(|(o, id), slots| {
            let zombie = o == origin && *id < watermark;
            if zombie {
                slots.iter().for_each(|(_, token)| token.cancel());
                n += slots.len();
            }
            !zombie
        });
        n
    }

    /// Registered alternatives (test/diagnostic hook).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    fn lock(&self) -> MutexGuard<'_, InflightMap> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchKey;
    use crate::frame::ALT_FAILED;
    use crate::peer::PeerStatsTable;
    use crate::reactor::ReactorShared;
    use crate::sched::HedgeConfig;
    use altx_check::{check, CaseRng};
    use altx_cluster::VoteSlot;

    const ORIGIN: &str = "origin:1";
    /// "lognormal": three alternatives, so `alt_idx` 0..=2 all have a
    /// catalog name.
    const WIDX: usize = 1;

    /// A stand-in for the shell: drives a [`RaceTable`] on virtual
    /// time, answers the origin's own `SendVote` from a real
    /// [`VoteSlot`] at once (as the shell does from its ledger),
    /// performs `Cancel`, and keeps every action for the assertions.
    struct Bench {
        table: RaceTable,
        now: Instant,
        own_vote: VoteSlot<String>,
        seen: Vec<Action>,
    }

    impl Bench {
        fn new() -> Self {
            Bench {
                table: RaceTable::new(ORIGIN.to_owned()),
                now: Instant::now(),
                own_vote: VoteSlot::new(),
                seen: Vec::new(),
            }
        }

        fn create(
            &mut self,
            deadline_ms: u32,
            token: CancelToken,
            remotes: &[(u32, &str)],
            voters: &[&str],
        ) -> u64 {
            let spec = RaceSpec {
                widx: WIDX,
                arg: 0,
                deadline_ms,
                local_cancel: token,
            };
            let remotes = remotes.iter().map(|&(a, p)| (a, p.to_owned())).collect();
            let voters = voters.iter().map(|&v| v.to_owned()).collect();
            self.table.create(spec, remotes, voters, |_| 0, self.now)
        }

        fn step(&mut self, id: u64, event: Event) {
            let actions = self.table.step(id, event, self.now);
            self.absorb(actions);
        }

        fn result(&mut self, id: u64, alt_idx: u32, status: u8, value: u64) {
            let event = Event::LegResult {
                alt_idx,
                status,
                value,
                latency_us: 100,
                redo: false,
            };
            self.step(id, event);
        }

        fn vote(&mut self, id: u64, voter: &str, granted: bool) {
            let voter = voter.to_owned();
            self.step(id, Event::Vote { voter, granted });
        }

        fn peer_down(&mut self, peer: &str) {
            let actions = self.table.peer_down(peer, self.now);
            self.absorb(actions);
        }

        fn expire_after(&mut self, d: Duration) {
            self.now += d;
            let actions = self.table.expire(self.now);
            self.absorb(actions);
        }

        fn absorb(&mut self, actions: Vec<Action>) {
            for action in actions {
                match &action {
                    Action::SendVote {
                        peer,
                        race_id,
                        candidate,
                    } if peer == ORIGIN => {
                        let granted = self.own_vote.request(candidate.as_str());
                        let id = *race_id;
                        self.seen.push(action);
                        self.vote(id, ORIGIN, granted);
                        continue;
                    }
                    Action::Cancel(token) => token.cancel(),
                    _ => {}
                }
                self.seen.push(action);
            }
        }

        fn count(&self, metric: Metric) -> usize {
            let hit = |a: &&Action| matches!(a, Action::Count(m) if *m == metric);
            self.seen.iter().filter(hit).count()
        }

        /// Every reply posted so far.
        fn posts(&self) -> Vec<&Response> {
            let mut posts = Vec::new();
            for action in &self.seen {
                if let Action::Post { response, .. } = action {
                    posts.push(response);
                }
            }
            posts
        }

        /// The one `Ok` reply: `(winner, winner_name, value)`.
        fn ok_post(&self) -> (u32, &str, u64) {
            match self.posts()[..] {
                [Response::Ok {
                    winner,
                    winner_name,
                    value,
                    ..
                }] => (*winner, winner_name.as_str(), *value),
                ref other => panic!("expected exactly one Ok post, saw {other:?}"),
            }
        }

        fn eliminated(&self) -> Vec<&str> {
            let mut peers = Vec::new();
            for action in &self.seen {
                if let Action::SendEliminate { peer, .. } = action {
                    peers.push(peer.as_str());
                }
            }
            peers
        }

        fn len(&self) -> usize {
            self.table.len()
        }
    }

    fn ok(winner: u32, value: u64) -> Response {
        Response::Ok {
            winner,
            winner_name: workload::CATALOG[WIDX].alt_names[winner as usize].to_owned(),
            latency_us: 500,
            value,
        }
    }

    fn guards_failed() -> Response {
        Response::Error {
            message: "guards failed".into(),
        }
    }

    #[test]
    fn local_win_with_no_voters_commits_immediately() {
        let mut b = Bench::new();
        let id = b.create(0, CancelToken::new(), &[(1, "peer:1")], &[]);
        b.step(id, Event::LocalDone(ok(0, 42)));
        // Single-voter tally (self only) commits on the self-grant; the
        // race is gone and the still-pending remote was eliminated.
        assert_eq!(b.len(), 0);
        assert_eq!(b.ok_post(), (0, "draw-0", 42));
        assert_eq!(b.count(Metric::Eliminations), 1);
        assert_eq!(b.eliminated(), ["peer:1"]);
        assert_eq!(
            b.own_vote.holder().map(String::as_str),
            Some("origin:1/alt0")
        );
        assert_eq!(b.count(Metric::CommitsDegraded), 0);
    }

    #[test]
    fn remote_result_wins_when_local_fails() {
        let mut b = Bench::new();
        let id = b.create(0, CancelToken::new(), &[(2, "peer:1")], &[]);
        b.step(id, Event::LocalDone(guards_failed()));
        assert_eq!(b.len(), 1, "race waits for the shipped alternative");
        assert!(b.posts().is_empty());
        b.result(id, 2, ALT_OK, 99);
        assert_eq!(b.len(), 0);
        // The shipped winner answers under the catalog's name, exactly
        // as it would have had it won locally.
        assert_eq!(b.ok_post(), (2, "draw-2", 99));
        assert_eq!(b.count(Metric::RemoteWins), 1);
        assert_eq!(b.count(Metric::RemoteResults), 1);
        let won = |a: &Action| matches!(a, Action::Won { alt_idx: 2, exec_latency_us: 100, peer: Some(p), .. } if p == "peer:1");
        assert!(b.seen.iter().any(won), "{:?}", b.seen);
        assert!(b.eliminated().is_empty(), "nobody is left running");
    }

    #[test]
    fn everything_failing_answers_once_with_the_deadline_flavour() {
        let mut b = Bench::new();
        let id = b.create(50, CancelToken::new(), &[(1, "a:1"), (2, "b:2")], &[]);
        b.result(id, 1, ALT_FAILED, 0);
        b.step(
            id,
            Event::LocalDone(Response::DeadlineExceeded { latency_us: 50_000 }),
        );
        assert_eq!(b.len(), 1);
        b.result(id, 2, ALT_DEADLINE, 0);
        assert_eq!(b.len(), 0);
        assert!(
            matches!(b.posts()[..], [Response::DeadlineExceeded { .. }]),
            "deadline flavour wins: {:?}",
            b.posts()
        );
        assert_eq!(b.count(Metric::RemoteFailed), 1);
    }

    #[test]
    fn peer_death_converts_its_alternatives_to_failed_guards() {
        let mut b = Bench::new();
        let id = b.create(0, CancelToken::new(), &[(1, "dead:1"), (2, "alive:2")], &[]);
        b.step(id, Event::LocalDone(guards_failed()));
        b.peer_down("dead:1");
        assert_eq!(b.len(), 1, "the survivor's alternative still races");
        assert_eq!(b.count(Metric::RemoteFailed), 1);
        b.result(id, 2, ALT_OK, 5);
        assert_eq!(b.len(), 0);
        assert_eq!(b.count(Metric::RemoteWins), 1);
        assert_eq!(b.ok_post(), (2, "draw-2", 5));
    }

    #[test]
    fn dead_voters_degrade_the_commit_instead_of_blocking() {
        let mut b = Bench::new();
        let id = b.create(0, CancelToken::new(), &[], &["v1:1", "v2:2"]);
        b.step(id, Event::LocalDone(ok(0, 7)));
        assert_eq!(b.len(), 1, "majority of 3 needs one peer grant");
        b.vote(id, "v1:1", false);
        assert_eq!(b.len(), 1, "one denial leaves the round undecided");
        assert!(b.posts().is_empty());
        b.vote(id, "v2:2", false);
        assert_eq!(b.len(), 0, "second denial makes majority unreachable");
        assert_eq!(b.count(Metric::CommitsDegraded), 1);
        assert_eq!(b.ok_post().2, 7, "the client is answered regardless");
    }

    #[test]
    fn majority_grant_commits_cleanly() {
        let mut b = Bench::new();
        let id = b.create(0, CancelToken::new(), &[], &["v1:1", "v2:2"]);
        b.step(id, Event::LocalDone(ok(1, 3)));
        let asked = |a: &&Action| matches!(a, Action::SendVote { candidate, .. } if candidate == "origin:1/alt1");
        assert_eq!(
            b.seen.iter().filter(asked).count(),
            3,
            "self and both peers"
        );
        b.vote(id, "v1:1", true);
        assert_eq!(b.len(), 0, "2 of 3 grants commit");
        assert_eq!(b.count(Metric::CommitsDegraded), 0);
        assert_eq!(b.ok_post(), (1, "draw-1", 3));
    }

    #[test]
    fn duplicate_votes_are_ignored() {
        let mut b = Bench::new();
        let id = b.create(0, CancelToken::new(), &[], &["v1:1"]);
        b.step(id, Event::LocalDone(ok(0, 1)));
        assert_eq!(b.len(), 1);
        b.vote(id, "v1:1", false);
        assert_eq!(b.len(), 0, "1 of 2 can never be a majority");
        // Late duplicate for a removed race: no panic, no double post.
        b.vote(id, "v1:1", true);
        assert_eq!(b.posts().len(), 1);
    }

    #[test]
    fn sweep_expires_overdue_races() {
        let mut b = Bench::new();
        let token = CancelToken::new();
        b.create(10, token.clone(), &[(1, "silent:1")], &[]);
        assert!(b.table.next_expiry().is_some());
        b.expire_after(Duration::ZERO); // not yet due
        assert_eq!(b.len(), 1);
        b.expire_after(Duration::from_secs(60));
        assert_eq!(b.len(), 0);
        assert!(token.is_cancelled(), "expiry cancels the local subrace");
        assert!(
            matches!(b.posts()[..], [Response::DeadlineExceeded { .. }]),
            "deadline race expires as deadline: {:?}",
            b.posts()
        );
        assert_eq!(
            b.eliminated(),
            ["silent:1"],
            "the silent peer is told to stop"
        );
    }

    #[test]
    fn shutdown_flush_degrades_a_race_stuck_in_voting() {
        let mut b = Bench::new();
        let id = b.create(0, CancelToken::new(), &[], &["v:1"]);
        b.step(id, Event::LocalDone(ok(0, 9)));
        assert_eq!(b.len(), 1, "waiting on the voter");
        let actions = b.table.flush(b.now);
        b.absorb(actions);
        assert_eq!(b.len(), 0);
        assert_eq!(b.count(Metric::CommitsDegraded), 1);
        assert_eq!(b.ok_post(), (0, "draw-0", 9));
    }

    #[test]
    fn expired_leg_is_eliminated_and_redispatched_once() {
        let mut b = Bench::new();
        let id = b.create(0, CancelToken::new(), &[(1, "stalled:1")], &[]);
        b.step(id, Event::LocalDone(guards_failed()));
        // The leg deadline (20ms floor; no RTT sample) passes silently.
        b.expire_after(Duration::from_millis(50));
        b.expire_after(Duration::from_millis(50));
        assert_eq!(b.count(Metric::RemoteRedispatched), 1, "never twice");
        let redo = |a: &&Action| matches!(a, Action::Redispatch { race_id, alt_idx: 1, widx: WIDX, .. } if *race_id == id);
        assert_eq!(b.seen.iter().filter(redo).count(), 1);
        assert_eq!(b.eliminated(), ["stalled:1"]);
        assert_eq!(b.len(), 1, "the slot stays open for whoever reports first");
        let event = Event::LegResult {
            alt_idx: 1,
            status: ALT_OK,
            value: 11,
            latency_us: 40,
            redo: true,
        };
        b.step(id, event);
        assert_eq!(b.ok_post(), (1, "draw-1", 11));
        assert_eq!(
            b.count(Metric::RemoteWins),
            0,
            "a local redo is not a remote win"
        );
        assert_eq!(
            b.count(Metric::Eliminations),
            1,
            "told to stop once, at expiry"
        );
        // A late genuine result for the already-decided race is a no-op.
        b.result(id, 1, ALT_OK, 9);
        assert_eq!(b.posts().len(), 1);
    }

    #[test]
    fn reconcile_watermark_tracks_the_lowest_open_race() {
        let mut b = Bench::new();
        assert_eq!(b.table.reconcile_watermark(), 1, "nothing open: next id");
        let first = b.create(0, CancelToken::new(), &[(1, "p:1")], &[]);
        let second = b.create(0, CancelToken::new(), &[(1, "p:1")], &[]);
        assert_eq!(b.table.reconcile_watermark(), first, "lowest open id");
        b.step(first, Event::LocalDone(ok(0, 1)));
        assert_eq!(
            b.table.reconcile_watermark(),
            second,
            "first decided, second still open"
        );
        b.own_vote = VoteSlot::new(); // a different race, a different slot
        b.step(second, Event::LocalDone(ok(0, 1)));
        assert_eq!(
            b.table.reconcile_watermark(),
            second + 1,
            "all decided: next id"
        );
    }

    fn shell() -> (Arc<RemoteRaces>, Arc<WorkerPool>) {
        let pool = Arc::new(WorkerPool::new(2, 8));
        let (peers, _wake_rx) =
            PeerHandle::new(Arc::new(PeerStatsTable::default())).expect("wake pair");
        let races = RemoteRaces::new(
            Arc::new(Telemetry::new()),
            Arc::new(HedgePolicy::new(HedgeConfig::default())),
            Arc::clone(&pool),
            peers,
            ORIGIN.to_owned(),
        );
        (Arc::new(races), pool)
    }

    fn spec(widx: usize, arg: u64) -> RaceSpec {
        RaceSpec {
            widx,
            arg,
            deadline_ms: 0,
            local_cancel: CancelToken::new(),
        }
    }

    /// A flight nobody waits on: the shell's counters are what these
    /// tests read.
    fn flight(widx: usize, arg: u64) -> Flight {
        let (home, _wake_rx) = ReactorShared::new(1, 64).expect("wake pair");
        Flight {
            key: BatchKey {
                widx,
                deadline_ms: 0,
                arg,
            },
            waiters: Vec::new(),
            home,
        }
    }

    #[test]
    fn shell_casts_the_origins_vote_and_counts_what_the_core_decided() {
        let (races, pool) = shell();
        let remotes = vec![(1, "peer:1".into())];
        let id = races.create(spec(WIDX, 0), flight(WIDX, 0), remotes, vec![]);
        races.step(id, Event::LocalDone(ok(0, 42)));
        assert_eq!(races.lock().table.len(), 0);
        assert!(races.lock().flights.is_empty(), "the post took the flight");
        let s = races.telemetry.snapshot();
        assert_eq!(s[Metric::Completed], 1);
        assert_eq!(s[Metric::Eliminations], 1);
        assert_eq!(s[Metric::CommitVotes], 1);
        assert_eq!(races.ledger.votes_granted(), 1);
        pool.shutdown();
    }

    #[test]
    fn expired_leg_redispatches_locally_and_answers() {
        let (races, pool) = shell();
        // widx 0 is "trivial": both alternatives succeed instantly, so
        // the local redo of alt 1 must win the race.
        let remotes = vec![(1, "stalled:1".into())];
        let id = races.create(spec(0, 7), flight(0, 7), remotes, vec![]);
        races.step(id, Event::LocalDone(guards_failed()));
        assert_eq!(
            races.lock().table.len(),
            1,
            "only the shipped leg can still answer"
        );
        // The leg deadline (20ms floor; no RTT sample) passes silently.
        races.drive(|table, now| table.expire(now + Duration::from_millis(50)));
        assert_eq!(races.telemetry.snapshot()[Metric::RemoteRedispatched], 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while races.lock().table.len() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            races.lock().table.len(),
            0,
            "the local redo answers the race"
        );
        let s = races.telemetry.snapshot();
        assert_eq!(s[Metric::Completed], 1);
        assert_eq!(s[Metric::RemoteWins], 0, "a local redo is not a remote win");
        assert_eq!(
            s[Metric::Eliminations],
            1,
            "the stalled peer was told to stop"
        );
        // A late genuine result for the already-decided race is a no-op.
        let event = Event::LegResult {
            alt_idx: 1,
            status: ALT_OK,
            value: 9,
            latency_us: 100,
            redo: false,
        };
        races.step(id, event);
        assert_eq!(races.telemetry.snapshot()[Metric::Completed], 1);
        pool.shutdown();
    }

    /// One thing the outside world may do to the race under test.
    #[derive(Debug)]
    enum Move {
        /// The local subrace reports: a winning local alternative, a
        /// blown deadline (`Err(true)`) or failed guards.
        Local(Result<u32, bool>),
        /// Leg `leg` reports `status` — from its peer, or from the local
        /// redo of the expired leg.
        Leg { leg: usize, status: u8, redo: bool },
        /// Leg `leg` is refused (by its peer, or its redo by the pool).
        Refuse { leg: usize },
        /// The link to leg `leg`'s peer dies.
        PeerDown { leg: usize },
        /// A vote reply arrives.
        Vote { voter: String, granted: bool },
        /// Time passes and the sweep runs.
        Tick(Duration),
        /// The daemon drains.
        Flush,
    }

    /// The test's own account of one shipped leg.
    struct LegModel {
        alt: u32,
        peer: String,
        /// A result, refusal or link death was accepted for the slot.
        cleared: bool,
        redispatched: bool,
        eliminates: usize,
    }

    /// Drives one race through one seeded schedule and judges the core
    /// by the actions it returns, never by its state.
    struct Schedule<'r> {
        rng: &'r mut CaseRng,
        table: RaceTable,
        id: u64,
        now: Instant,
        widx: usize,
        deadline_ms: u32,
        legs: Vec<LegModel>,
        /// One real vote per voter, the origin included.
        slots: HashMap<String, VoteSlot<String>>,
        dead: Vec<String>,
        moves: Vec<Move>,
        /// Every success reported so far: value → (alternative, the
        /// peer that ran it). Values are unique per report.
        successes: HashMap<u64, (u32, Option<String>)>,
        next_value: u64,
        deadline_seen: bool,
        /// The round as the voters' answers make it, counted by a
        /// second `Tally` the core never sees.
        tally: Option<VoteTally>,
        owed: Vec<String>,
        candidate: Option<String>,
        degraded: usize,
        won: Option<(u32, Option<String>)>,
        cancelled: bool,
        post: Option<Response>,
        /// `redispatched || !cleared` per leg, at the moment of the post.
        owed_eliminate: Vec<bool>,
    }

    impl Schedule<'_> {
        fn run(mut self) {
            while !self.moves.is_empty() {
                let pick = self.rng.usize_in(0, self.moves.len());
                let mv = self.moves.swap_remove(pick);
                self.play(mv);
            }
            // Whatever the schedule withheld, the clock ends the race.
            self.play(Move::Tick(Duration::from_secs(3600)));
            assert!(self.post.is_some(), "the race never answered");
            assert_eq!(self.table.len(), 0, "the table is empty afterwards");
            for (leg, owed) in self.legs.iter().zip(&self.owed_eliminate) {
                assert_eq!(
                    leg.eliminates,
                    usize::from(*owed),
                    "ELIMINATEs to {} (alt {})",
                    leg.peer,
                    leg.alt
                );
            }
        }

        fn play(&mut self, mv: Move) {
            let mut by_clock = false;
            let actions = match mv {
                Move::Local(outcome) => {
                    let reply = match outcome {
                        Ok(alt) => {
                            let value = self.success(alt, None);
                            Response::Ok {
                                winner: alt,
                                winner_name: "whatever the engine said".to_owned(),
                                latency_us: 5,
                                value,
                            }
                        }
                        Err(true) => {
                            self.deadline_seen = true;
                            Response::DeadlineExceeded { latency_us: 5 }
                        }
                        Err(false) => guards_failed(),
                    };
                    self.table.step(self.id, Event::LocalDone(reply), self.now)
                }
                Move::Leg { leg, status, redo } => {
                    let (alt, peer) = (self.legs[leg].alt, self.legs[leg].peer.clone());
                    let value = match status {
                        ALT_OK => self.success(alt, (!redo).then_some(peer)),
                        _ => 0,
                    };
                    if !std::mem::replace(&mut self.legs[leg].cleared, true) {
                        self.deadline_seen |= status == ALT_DEADLINE;
                    }
                    let event = Event::LegResult {
                        alt_idx: alt,
                        status,
                        value,
                        latency_us: 9,
                        redo,
                    };
                    self.table.step(self.id, event, self.now)
                }
                Move::Refuse { leg } => {
                    self.legs[leg].cleared = true;
                    let alt_idx = self.legs[leg].alt;
                    self.table
                        .step(self.id, Event::LegRefused { alt_idx }, self.now)
                }
                Move::PeerDown { leg } => {
                    self.legs[leg].cleared = true;
                    let peer = self.legs[leg].peer.clone();
                    // The peer thread denies the dead peer's unanswered
                    // vote, now or whenever it is asked for.
                    if self.owed.contains(&peer) {
                        let voter = peer.clone();
                        self.moves.push(Move::Vote {
                            voter,
                            granted: false,
                        });
                    }
                    self.dead.push(peer.clone());
                    self.table.peer_down(&peer, self.now)
                }
                Move::Vote { voter, granted } => {
                    if let Some(at) = self.owed.iter().position(|v| *v == voter) {
                        self.owed.swap_remove(at);
                        let tally = self.tally.as_mut().expect("owed implies a round");
                        if granted {
                            tally.grant();
                        } else {
                            tally.deny();
                        }
                    }
                    self.table
                        .step(self.id, Event::Vote { voter, granted }, self.now)
                }
                Move::Tick(d) => {
                    by_clock = true;
                    self.now += d;
                    self.table.expire(self.now)
                }
                Move::Flush => {
                    by_clock = true;
                    self.table.flush(self.now)
                }
            };
            for action in actions {
                self.judge(action, by_clock);
            }
        }

        fn success(&mut self, alt: u32, peer: Option<String>) -> u64 {
            self.next_value += 1;
            self.successes.insert(self.next_value, (alt, peer));
            self.next_value
        }

        fn judge(&mut self, action: Action, by_clock: bool) {
            assert!(
                self.post.is_none(),
                "the post is the last thing a race does, then came {action:?}"
            );
            match action {
                Action::SendVote {
                    peer,
                    race_id,
                    candidate,
                } => {
                    assert_eq!(race_id, self.id);
                    let candidate = &*self.candidate.get_or_insert(candidate.clone());
                    let voters = self.slots.len();
                    self.tally.get_or_insert(VoteTally::new(voters, false));
                    assert!(!self.owed.contains(&peer), "{peer} asked twice");
                    self.owed.push(peer.clone());
                    let slot = self.slots.get_mut(&peer).expect("asked a voter");
                    let granted = slot.request(candidate.as_str());
                    let voter = || peer.clone();
                    let reply = |granted| Move::Vote {
                        voter: voter(),
                        granted,
                    };
                    if self.dead.contains(&peer) {
                        self.moves.push(reply(false));
                        return;
                    }
                    match self.rng.usize_in(0, 6) {
                        0 => {}                             // the reply never arrives
                        1 => self.moves.push(reply(false)), // the voter dies first
                        2 => self.moves.extend([reply(granted), reply(granted)]),
                        _ => self.moves.push(reply(granted)),
                    }
                }
                Action::SendEliminate { peer, race_id } => {
                    assert_eq!(race_id, self.id);
                    let leg = self.legs.iter_mut().find(|l| l.peer == peer);
                    leg.expect("ELIMINATE to a peer running nothing").eliminates += 1;
                }
                Action::Redispatch {
                    race_id,
                    alt_idx,
                    widx,
                    ..
                } => {
                    assert_eq!((race_id, widx), (self.id, self.widx));
                    let leg = self.legs.iter().position(|l| l.alt == alt_idx);
                    let leg = leg.expect("redispatch of a shipped alternative");
                    assert!(!self.legs[leg].cleared, "redo of a leg that reported");
                    assert!(
                        !std::mem::replace(&mut self.legs[leg].redispatched, true),
                        "leg redispatched twice"
                    );
                    let status = *self.rng.pick(&[ALT_OK, ALT_OK, ALT_FAILED, ALT_DEADLINE]);
                    self.moves.push(match self.rng.usize_in(0, 5) {
                        0 => Move::Refuse { leg }, // the pool is full
                        _ => Move::Leg {
                            leg,
                            status,
                            redo: true,
                        },
                    });
                }
                Action::Won { alt_idx, peer, .. } => {
                    assert!(self.won.replace((alt_idx, peer)).is_none(), "two winners");
                }
                Action::Cancel(_) => self.cancelled = true,
                Action::Count(Metric::CommitsDegraded) => self.degraded += 1,
                Action::Count(_) => {}
                Action::Post { race_id, response } => {
                    assert_eq!(race_id, self.id);
                    // A race that fails on its own has nothing left to
                    // cancel; every other decision leaves losers running.
                    let losers = by_clock || matches!(response, Response::Ok { .. });
                    assert!(self.cancelled || !losers, "local losers keep running");
                    self.judge_post(&response, by_clock);
                    self.owed_eliminate = self
                        .legs
                        .iter()
                        .map(|l| l.redispatched || !l.cleared)
                        .collect();
                    self.post = Some(response);
                }
            }
        }

        fn judge_post(&self, response: &Response, by_clock: bool) {
            let Response::Ok {
                winner,
                winner_name,
                value,
                ..
            } = response
            else {
                // Nothing succeeded anywhere the race could see.
                assert_eq!(self.candidate, None, "a candidate was up and lost");
                assert!(self.won.is_none() && self.degraded == 0);
                let deadline = self.deadline_seen || (by_clock && self.deadline_ms > 0);
                assert_eq!(
                    matches!(response, Response::DeadlineExceeded { .. }),
                    deadline,
                    "{response:?}"
                );
                return;
            };
            // An alternative that did report success, under its value
            // and the catalog's name — wherever it ran.
            let reported = self.successes.get(value).expect("a value nobody reported");
            assert_eq!(reported.0, *winner);
            assert_eq!(
                winner_name,
                workload::CATALOG[self.widx].alt_names[*winner as usize]
            );
            assert_eq!(self.won.as_ref(), Some(reported));
            // The alternative the voters were asked about.
            assert_eq!(
                self.candidate,
                Some(format!("{ORIGIN}/alt{winner}")),
                "committed one alternative on votes for another"
            );
            // Committed on a majority of real grants — or degraded,
            // because a majority became unreachable or the clock ran
            // out, and counted as such.
            let round = self.tally.expect("an Ok post follows a round").state();
            assert_eq!(
                self.degraded,
                usize::from(round != TallyState::Committed),
                "{round:?}"
            );
            assert!(
                round != TallyState::Undecided || by_clock,
                "posted on an undecided round"
            );
        }
    }

    /// The interleaving is a seed: every order in which a race's local
    /// subrace, legs, peers, voters and the clock can act yields exactly
    /// one reply, for an alternative that did succeed, committed on a
    /// majority (or visibly degraded), with every leg left running told
    /// to stop exactly once.
    #[test]
    fn any_schedule_posts_exactly_one_admissible_reply() {
        const PEERS: [&str; 4] = ["p0:1", "p1:1", "p2:1", "p3:1"];
        check("race_table_schedules", 2_500, |rng| {
            let widx = rng.usize_in(0, workload::CATALOG.len());
            let n_alts = workload::CATALOG[widx].alternatives();
            let deadline_ms = *rng.pick(&[0, 40, 1_000]);
            // Ship 1–3 alternatives, each to a peer of its own; the
            // local subrace keeps the rest (possibly none).
            let mut alts: Vec<u32> = (0..n_alts as u32).collect();
            let mut peers = PEERS.to_vec();
            let legs: Vec<LegModel> = (0..rng.usize_in(1, n_alts.min(3) + 1))
                .map(|_| LegModel {
                    alt: alts.swap_remove(rng.usize_in(0, alts.len())),
                    peer: peers.swap_remove(rng.usize_in(0, peers.len())).to_owned(),
                    cleared: false,
                    redispatched: false,
                    eliminates: 0,
                })
                .collect();
            let voters: Vec<String> = PEERS
                .iter()
                .filter(|_| rng.bool())
                .map(|p| (*p).to_owned())
                .collect();
            // A voter may have promised its vote elsewhere already.
            let slots = std::iter::once(ORIGIN.to_owned())
                .chain(voters.iter().cloned())
                .map(|v| {
                    let mut slot = VoteSlot::new();
                    if rng.chance(0.15) {
                        slot.request("rival:9/alt0");
                    }
                    (v, slot)
                })
                .collect();

            let mut moves = vec![Move::Local(match rng.usize_in(0, 4) {
                0 => Err(true),
                1 => Err(false),
                _ if alts.is_empty() => Err(false),
                _ => Ok(*rng.pick(&alts)),
            })];
            for leg in 0..legs.len() {
                let status = *rng.pick(&[ALT_OK, ALT_OK, ALT_FAILED, ALT_DEADLINE]);
                let result = Move::Leg {
                    leg,
                    status,
                    redo: false,
                };
                match rng.usize_in(0, 5) {
                    0 => {} // silent
                    1 => moves.push(Move::Refuse { leg }),
                    _ => moves.push(result),
                }
                if rng.chance(0.3) {
                    moves.push(Move::Leg {
                        leg,
                        status: ALT_OK,
                        redo: false,
                    }); // a duplicate, or a result after a refusal
                }
                if rng.chance(0.25) {
                    moves.push(Move::PeerDown { leg });
                }
            }
            for _ in 0..rng.usize_in(0, 6) {
                let ms = *rng.pick(&[1, 15, 30, 300, 2_000, 15_000]);
                moves.push(Move::Tick(Duration::from_millis(ms)));
            }
            if rng.chance(0.1) {
                moves.push(Move::Flush);
            }

            let now = Instant::now();
            let mut table = RaceTable::new(ORIGIN.to_owned());
            let spec = RaceSpec {
                widx,
                arg: 0,
                deadline_ms,
                local_cancel: CancelToken::new(),
            };
            let remotes = legs.iter().map(|l| (l.alt, l.peer.clone())).collect();
            let rtt = rng.u64_below(5_000);
            let id = table.create(spec, remotes, voters, |_| rtt, now);
            Schedule {
                rng,
                table,
                id,
                now,
                widx,
                deadline_ms,
                legs,
                slots,
                dead: Vec::new(),
                moves,
                successes: HashMap::new(),
                next_value: 0,
                deadline_seen: false,
                tally: None,
                owed: Vec::new(),
                candidate: None,
                degraded: 0,
                won: None,
                cancelled: false,
                post: None,
                owed_eliminate: Vec::new(),
            }
            .run();
        });
    }

    #[test]
    fn eliminate_below_kills_only_zombies_under_the_watermark() {
        let inflight = InflightRemote::default();
        let (t1, t2, t3) = (CancelToken::new(), CancelToken::new(), CancelToken::new());
        inflight.register("o:1", 3, 0, t1.clone());
        inflight.register("o:1", 7, 0, t2.clone());
        inflight.register("o:2", 3, 0, t3.clone());
        assert_eq!(inflight.eliminate_below("o:1", 7), 1);
        assert!(t1.is_cancelled(), "race below the watermark is a zombie");
        assert!(!t2.is_cancelled(), "race at the watermark is still live");
        assert!(!t3.is_cancelled(), "other origin is untouched");
        assert_eq!(inflight.len(), 2);
    }

    #[test]
    fn inflight_eliminate_cancels_every_registered_token() {
        let inflight = InflightRemote::default();
        let (t1, t2) = (CancelToken::new(), CancelToken::new());
        inflight.register("o:1", 5, 0, t1.clone());
        inflight.register("o:1", 5, 2, t2.clone());
        inflight.register("o:2", 5, 0, CancelToken::new());
        assert_eq!(inflight.len(), 3);
        assert_eq!(inflight.eliminate("o:1", 5), 2);
        assert!(t1.is_cancelled() && t2.is_cancelled());
        assert_eq!(inflight.len(), 1, "other origin's race is untouched");
        inflight.complete("o:2", 5, 0);
        assert_eq!(inflight.len(), 0);
        assert_eq!(inflight.eliminate("o:1", 99), 0, "unknown race is a no-op");
    }
}
