//! Origin-side registry of distributed races. (The executor side keeps
//! no table: a shipped alternative is held by the connection its
//! `EXEC_ALT` arrived on, see `conn.rs`.)
//!
//! A *distributed race* is one client request whose alternatives run on
//! more than one node: shipped alternatives run on peers while the local
//! subrace races every alternative on this node's pool, each shipped one
//! held back by its leg's allowance ([`leg_allowance`]). A late leg is
//! thus a hedge like any other: if the race is still undecided when the
//! allowance passes, the alternative's local copy starts on the engine's
//! crew, inside the subrace, and whichever of copy and leg reports
//! success first is the candidate. The origin's view — which
//! alternatives are where, which peers vote, who finished first, and,
//! through the majority 0–1 semaphore ([`crate::commit`]), which single
//! candidate commits — is split in two:
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
//!   [`Flight`] — the reply slot the race owes and the way to it —
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
//! * a peer that refuses, errors, or dies converts its shipped legs to
//!   failed guards — the race continues on survivors, the local copy of
//!   each such alternative among them, which starts at its allowance
//!   unless the race is decided first;
//! * a voter that dies converts to a denial; if enough die that a
//!   majority can never assemble, the commit **degrades**: the origin
//!   answers the client anyway and counts `commits_degraded`, trading
//!   the paper's blocking semantics for serving-grade liveness;
//! * a race that outlives its deadline plus a grace window is expired
//!   by shard 0's peer links on their clock — the table's only clock —
//!   so a silent peer cannot strand a client even when TCP never
//!   reports the loss.
//!
//! Race ids count up from the wall clock at start-up, in microseconds
//! since the epoch, so a restarted origin starts above every id its
//! previous run handed out: a voter's ledger, keyed by the origin's
//! advertised name and the race id, never meets the new run's race in a
//! slot the old run left. The core itself reads no clock.

use crate::commit::{CommitLedger, TallyState, VoteTally};
use crate::frame::{Request, Response, ALT_DEADLINE, ALT_OK};
use crate::peer::{PeerHandle, SendTag};
use crate::pool::{JobMeta, WorkerPool};
use crate::reactor::{Flight, RaceKey};
use crate::sched::HedgePolicy;
use crate::server::{deadline_token, or_worker_lost, run_subrace};
use crate::telemetry::{Metric, Telemetry};
use crate::workload;
use altx::CancelToken;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Extra time past the client deadline before a distributed race is
/// force-expired (covers result frames in flight).
const DEADLINE_GRACE: Duration = Duration::from_secs(1);
/// Expiry cap for races with no client deadline.
const UNBOUNDED_CAP: Duration = Duration::from_secs(10);
/// A remote leg always gets at least this long before its local copy
/// starts, however fast the link's RTT claims the peer is — covers
/// worker pickup and execution, not just the wire.
const LEG_FLOOR: Duration = Duration::from_millis(20);
/// Leg allowance as a multiple of the link's RTT EWMA.
const LEG_RTT_MULT: u32 = 8;
/// A leg may consume at most this fraction (in percent) of the client
/// deadline, so the local copy of its alternative still has budget.
const LEG_DEADLINE_PCT: u32 = 75;

/// How long the local copy of an alternative shipped over a link whose
/// RTT EWMA is `rtt_us` (0 = no sample) is held back: the leg's
/// allowance, `LEG_RTT_MULT` round trips but at least `LEG_FLOOR`, and
/// at most `LEG_DEADLINE_PCT` of the client deadline (or
/// `UNBOUNDED_CAP` without one).
fn leg_allowance(rtt_us: u64, deadline_ms: u32) -> Duration {
    let cap = if deadline_ms > 0 {
        Duration::from_millis(u64::from(deadline_ms)) * LEG_DEADLINE_PCT / 100
    } else {
        UNBOUNDED_CAP
    };
    (Duration::from_micros(rtt_us) * LEG_RTT_MULT)
        .max(LEG_FLOOR)
        .min(cap)
}

/// The request a distributed race answers — see [`RaceTable::create`].
pub(crate) struct RaceSpec {
    /// Catalog index of the workload.
    pub(crate) widx: usize,
    /// The client deadline (0 = none).
    pub(crate) deadline_ms: u32,
    /// Cancels the local subrace, local copies of shipped alternatives
    /// included.
    pub(crate) local_cancel: CancelToken,
}

/// Everything that can happen to one open race.
#[derive(Debug)]
pub(crate) enum Event {
    /// The local subrace finished with this reply — its winner may be
    /// the local copy of a shipped alternative.
    LocalDone(Response),
    /// A shipped alternative reported (`ALT_RESULT` from its executor).
    LegResult {
        alt_idx: u32,
        status: u8,
        value: u64,
        /// Executor-side latency.
        latency_us: u64,
    },
    /// A shipped alternative will never run on its peer: the peer
    /// refused it, or the link was down at send time or died before the
    /// ack. Its local copy still races.
    LegRefused { alt_idx: u32 },
    /// A vote reply — or its conversion to a denial when the voter
    /// died or answered something else.
    Vote { voter: String, granted: bool },
}

/// What the core wants done, executed by the shell strictly after the
/// table unlocks.
#[derive(Debug)]
pub(crate) enum Action {
    /// Answer the race's request. Exactly one per race, always the
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
    /// Cancel the local subrace, held-back copies and all; a no-op when
    /// everything local already finished.
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
    /// `Some(addr)` when a peer executed the winner; `None` when this
    /// node did — a shipped alternative's local copy included: the
    /// peer it outran gets no credit.
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
    /// An empty table whose first race is numbered `first_id`.
    pub(crate) fn new(advertise: String, first_id: u64) -> Self {
        RaceTable {
            races: HashMap::new(),
            next_id: first_id,
            advertise,
        }
    }

    /// Registers a new distributed race **before** anything races: the
    /// local subrace must be admitted and the `EXEC_ALT`s sent only
    /// after the entry exists, or an instant finisher would report into
    /// the void. `remotes` is `(alt_idx, peer)` per shipped alternative
    /// and `voters` the frozen peer voter set (up peers at creation; the
    /// origin itself is implicit). Returns the race id.
    pub(crate) fn create(
        &mut self,
        spec: RaceSpec,
        remotes: Vec<(u32, String)>,
        voters: Vec<String>,
        now: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let expire_at = if spec.deadline_ms > 0 {
            now + Duration::from_millis(u64::from(spec.deadline_ms)) + DEADLINE_GRACE
        } else {
            now + UNBOUNDED_CAP
        };
        let remotes = remotes
            .into_iter()
            .map(|(alt_idx, peer)| RemoteAlt {
                alt_idx,
                peer,
                pending: true,
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
    /// nothing ran, nothing was sent, the request is shed inline.
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
            } => {
                let Some(leg) = race.pending_leg(alt_idx) else {
                    return actions; // duplicate, never shipped, or refused
                };
                leg.pending = false;
                actions.push(Action::Count(Metric::RemoteResults));
                match status {
                    ALT_OK => Some(Candidate {
                        alt_idx,
                        value,
                        exec_latency_us: latency_us,
                        peer: Some(leg.peer.clone()),
                    }),
                    ALT_DEADLINE => {
                        race.deadline_seen = true;
                        None
                    }
                    _ => {
                        actions.push(Action::Count(Metric::RemoteFailed));
                        None
                    }
                }
            }
            Event::LegRefused { alt_idx } => {
                let Some(leg) = race.pending_leg(alt_idx) else {
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

    /// A peer link died: every leg it had acked but not finished becomes
    /// a failed guard, while the alternatives' local copies race on.
    /// (Its unanswered votes are denied separately, tag by tag, by the
    /// link core.)
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
    /// flushed — the backstop that keeps a silent peer from stranding a
    /// client. A late leg needs no clock here: its local copy is the
    /// subrace's to start.
    pub(crate) fn expire(&mut self, now: Instant) -> Vec<Action> {
        self.flush_where(now, |race| race.expire_at <= now)
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

    /// Earliest instant at which [`RaceTable::expire`] would flush a
    /// race, for the poll timeout of shard 0, which holds the peer
    /// links.
    pub(crate) fn next_expiry(&self) -> Option<Instant> {
        self.races.values().map(|r| r.expire_at).min()
    }

    /// Open distributed races (diagnostic/test hook).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.races.len()
    }
}

impl DistRace {
    /// The slot a result for `alt_idx` may still fill.
    fn pending_leg(&mut self, alt_idx: u32) -> Option<&mut RemoteAlt> {
        self.remotes
            .iter_mut()
            .find(|r| r.alt_idx == alt_idx && r.pending)
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

    /// One `ELIMINATE` per peer still owing a result.
    fn eliminate_pending(&self, actions: &mut Vec<Action>) {
        let mut peers: Vec<&str> = self
            .remotes
            .iter()
            .filter(|r| r.pending)
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
    /// `race_id` → the race's flight, from `create` until the core's
    /// `Post` for that id (or `abort`) takes it out.
    flights: HashMap<u64, Flight>,
}

/// The origin-side registry's shell: one per daemon, shared by every
/// reactor shard, the worker pool (through subrace completions), and the
/// peer links on shard 0. Owns the [`RaceTable`]'s lock and executes its
/// actions.
pub(crate) struct RemoteRaces {
    open: Mutex<OpenRaces>,
    /// Outbound send handle.
    pub(crate) peers: Arc<PeerHandle>,
    /// The run queue every local subrace goes on.
    pool: Arc<WorkerPool>,
    /// This node's votes: asked for by peers over the wire, and by the
    /// races it originates right here.
    pub(crate) ledger: Arc<CommitLedger>,
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
        let since_epoch = SystemTime::now().duration_since(SystemTime::UNIX_EPOCH);
        let first_id = since_epoch.map_or(1, |d| d.as_micros() as u64);
        RemoteRaces {
            open: Mutex::new(OpenRaces {
                table: RaceTable::new(advertise.clone(), first_id),
                flights: HashMap::new(),
            }),
            peers,
            pool,
            ledger: Arc::default(),
            telemetry,
            sched,
            advertise,
        }
    }

    /// Registers a new distributed race (see [`RaceTable::create`]) and
    /// takes charge of its `flight`, in one lock hold: whoever decides
    /// the race finds its way home.
    pub(crate) fn create(
        &self,
        spec: RaceSpec,
        flight: Flight,
        remotes: Vec<(u32, String)>,
        voters: Vec<String>,
    ) -> u64 {
        let mut open = self.lock();
        let id = open.table.create(spec, remotes, voters, Instant::now());
        open.flights.insert(id, flight);
        id
    }

    /// Races `key` across this node and the peers `assign` names: the
    /// registry takes `flight` *first* (an instant local finish must
    /// find it), then the local subrace — every alternative, a shipped
    /// one held back by its leg's allowance over that peer's link — is
    /// queued under `meta` as the race's one job, and one `EXEC_ALT`
    /// goes out per shipped alternative. The flight is answered once, at
    /// commit or failure; if the pool refuses the subrace, the request
    /// is shed — unless a drain-time flush answered it first. `voters`
    /// are the peers up when the race was decided, at `now`.
    pub(crate) fn distribute(
        self: &Arc<Self>,
        flight: Flight,
        key: RaceKey,
        meta: JobMeta,
        assign: Vec<Option<String>>,
        voters: Vec<String>,
        now: Instant,
    ) {
        let token = deadline_token(now, key.deadline_ms);
        let remotes: Vec<(u32, String)> = (assign.iter().enumerate())
            .filter_map(|(i, p)| p.clone().map(|p| (i as u32, p)))
            .collect();
        let spec = RaceSpec {
            widx: key.widx,
            deadline_ms: key.deadline_ms,
            local_cancel: token.clone(),
        };
        let race_id = self.create(spec, flight, remotes.clone(), voters);
        let stats = self.peers.stats();
        let allowance = |peer: &str| {
            let rtt_us = stats.by_addr(peer).map_or(0, |s| s.rtt_ewma_us());
            leg_allowance(rtt_us, key.deadline_ms)
        };
        let held: Vec<Duration> = (assign.iter())
            .map(|peer| peer.as_deref().map_or(Duration::ZERO, &allowance))
            .collect();
        let work = {
            let (telemetry, sched) = (Arc::clone(&self.telemetry), Arc::clone(&self.sched));
            move || run_subrace(&telemetry, &sched, key.widx, key.arg, &token, &held)
        };
        let me = Arc::clone(self);
        let done = move |reply| me.step(race_id, Event::LocalDone(or_worker_lost(reply)));
        if self.pool.try_submit_work_at(meta, work, done).is_err() {
            // Forgotten (see [`RaceTable::abort`]) and its flight taken
            // back to be shed — unless a drain-time flush answered it.
            let flight = {
                let mut open = self.lock();
                open.table.abort(race_id);
                open.flights.remove(&race_id)
            };
            if let Some(flight) = flight {
                self.telemetry.add(Metric::Shed, 1);
                flight.answer(&Response::Overloaded);
            }
            return;
        }
        self.telemetry.add(Metric::Accepted, 1);
        let name = workload::CATALOG[key.widx].name;
        for (alt_idx, peer) in remotes {
            self.telemetry.add(Metric::RemoteDispatched, 1);
            if let Some(stat) = self.peers.stats().by_addr(&peer) {
                stat.note_dispatched();
            }
            let exec = Request::ExecAlt {
                race_id,
                alt_idx,
                deadline_ms: key.deadline_ms,
                arg: key.arg,
                workload: name.to_owned(),
            };
            self.peers
                .send(&peer, exec, SendTag::ExecAlt { race_id, alt_idx });
        }
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
                // Fire and forget: a link that is not up drops it, and
                // its close has cancelled the race's legs already.
                Action::SendEliminate { peer, race_id } => {
                    let eliminate = Request::Eliminate { race_id };
                    self.peers.send(&peer, eliminate, SendTag::Eliminate);
                }
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
                Action::Cancel(token) => token.cancel(),
                Action::Count(metric) => self.telemetry.add(metric, 1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufpool::BufPool;
    use crate::conn::Conn;
    use crate::frame::ALT_FAILED;
    use crate::peer::PeerStatsTable;
    use crate::reactor::ReactorShared;
    use crate::ring::ReplyRing;
    use crate::sched::HedgeConfig;
    use crate::telemetry::ShardStats;
    use altx_check::{check, CaseRng};
    use altx_cluster::VoteSlot;
    use std::net::{TcpListener, TcpStream};

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
                table: RaceTable::new(ORIGIN.to_owned(), 1),
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
                deadline_ms,
                local_cancel: token,
            };
            let remotes = remotes.iter().map(|&(a, p)| (a, p.to_owned())).collect();
            let voters = voters.iter().map(|&v| v.to_owned()).collect();
            self.table.create(spec, remotes, voters, self.now)
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

    fn shell() -> (Arc<RemoteRaces>, Arc<WorkerPool>) {
        let pool = Arc::new(WorkerPool::new(2, 8));
        let (shard0, _wake_rx) = ReactorShared::new(1, 64).expect("wake pair");
        let races = RemoteRaces::new(
            Arc::new(Telemetry::new()),
            Arc::new(HedgePolicy::new(HedgeConfig::default())),
            Arc::clone(&pool),
            PeerHandle::new(Arc::new(PeerStatsTable::default()), shard0),
            ORIGIN.to_owned(),
        );
        (Arc::new(races), pool)
    }

    fn spec(widx: usize) -> RaceSpec {
        RaceSpec {
            widx,
            deadline_ms: 0,
            local_cancel: CancelToken::new(),
        }
    }

    /// A flight whose slot nobody reads — its connection is closed, so
    /// the answer drops: the shell's counters are what these tests read.
    fn flight() -> Flight {
        let (home, _wake_rx) = ReactorShared::new(1, 64).expect("wake pair");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let stats = ShardStats::new(BufPool::default().stats(), ReplyRing::new(1, 64).stats());
        let conn = Conn::new(stream, Arc::new(stats)).expect("conn");
        let half = Arc::clone(conn.write_half());
        let seq = half.begin_request();
        half.close();
        Flight {
            slot: (half, seq),
            home,
        }
    }

    #[test]
    fn shell_casts_the_origins_vote_and_counts_what_the_core_decided() {
        let (races, pool) = shell();
        let remotes = vec![(1, "peer:1".into())];
        let id = races.create(spec(WIDX), flight(), remotes, vec![]);
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

    /// A leg that never reports is a held-back sibling: the race's one
    /// pool job races every alternative, the shipped one's local copy
    /// starts once its allowance passes undecided, and that copy answers
    /// the race as a local win — a hedge that launched.
    #[test]
    fn a_silent_leg_is_answered_by_its_local_copy() {
        let (races, pool) = shell();
        // "sleep" has one alternative, here shipped to a peer whose link
        // is never served: nothing but its local copy can answer.
        let widx = workload::index_of("sleep").expect("sleep is in the catalog");
        let key = RaceKey {
            widx,
            deadline_ms: 0,
            arg: 1,
        };
        let assign = vec![Some("silent:1".to_owned())];
        let id = races.lock().table.next_id;
        let now = Instant::now();
        races.distribute(flight(), key, JobMeta::default(), assign, vec![], now);
        assert_eq!(races.telemetry.snapshot()[Metric::RemoteDispatched], 1);
        // The race's job holds its slot through the hold-back and the
        // copy, and no other job ever joins it.
        let mut most_jobs = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while races.lock().table.len() > 0 && Instant::now() < deadline {
            most_jobs = most_jobs.max(pool.busy() + pool.queued() as u64);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(races.lock().table.len(), 0, "the local copy answers");
        assert_eq!(most_jobs, 1, "the race is one pool job");
        assert!(now.elapsed() >= LEG_FLOOR, "not before its allowance");
        let s = races.telemetry.snapshot();
        assert_eq!(s[Metric::Completed], 1);
        assert_eq!(s[Metric::HedgesLaunched], 1, "the copy is a hedge");
        assert_eq!(s[Metric::RemoteWins], 0, "a local copy is not a remote win");
        assert_eq!(
            s[Metric::Eliminations],
            1,
            "the silent peer is told to stop"
        );
        // A late genuine result for the already-decided race is a no-op.
        let event = Event::LegResult {
            alt_idx: 0,
            status: ALT_OK,
            value: 9,
            latency_us: 100,
        };
        races.step(id, event);
        assert_eq!(races.telemetry.snapshot()[Metric::Completed], 1);
        pool.shutdown();
    }

    /// One thing the outside world may do to the race under test.
    #[derive(Debug)]
    enum Move {
        /// The local subrace reports: a winning alternative — a shipped
        /// one's local copy among them —, a blown deadline (`Err(true)`)
        /// or failed guards.
        Local(Result<u32, bool>),
        /// Leg `leg`'s peer reports `status`.
        Leg { leg: usize, status: u8 },
        /// Leg `leg` is refused by its peer.
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
        /// A success the race had to take: the local one, or a leg's
        /// into a slot still open.
        took_success: bool,
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
        /// `!cleared` per leg, at the moment of the post.
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
                            self.took_success = true;
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
                Move::Leg { leg, status } => {
                    let (alt, peer) = (self.legs[leg].alt, self.legs[leg].peer.clone());
                    let value = match status {
                        ALT_OK => self.success(alt, Some(peer)),
                        _ => 0,
                    };
                    if !std::mem::replace(&mut self.legs[leg].cleared, true) {
                        self.deadline_seen |= status == ALT_DEADLINE;
                        self.took_success |= status == ALT_OK;
                    }
                    let event = Event::LegResult {
                        alt_idx: alt,
                        status,
                        value,
                        latency_us: 9,
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
                    // The link core denies the dead peer's unanswered
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
                    self.owed_eliminate = self.legs.iter().map(|l| !l.cleared).collect();
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
                assert!(!self.took_success, "failed a race a success reached");
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
    /// subrace (whose winner may be a shipped alternative's local copy),
    /// legs, peers, voters and the expiry clock can act yields exactly
    /// one reply, for an alternative that did succeed — never a failure
    /// once a success reached the race —, committed on a majority (or
    /// visibly degraded), with every leg left running told to stop
    /// exactly once.
    #[test]
    fn any_schedule_posts_exactly_one_admissible_reply() {
        const PEERS: [&str; 4] = ["p0:1", "p1:1", "p2:1", "p3:1"];
        check("race_table_schedules", 2_500, |rng| {
            let widx = rng.usize_in(0, workload::CATALOG.len());
            let n_alts = workload::CATALOG[widx].alternatives();
            let deadline_ms = *rng.pick(&[0, 40, 1_000]);
            // Ship 1–3 alternatives, each to a peer of its own; the
            // local subrace races every alternative, shipped ones too.
            let mut alts: Vec<u32> = (0..n_alts as u32).collect();
            let mut peers = PEERS.to_vec();
            let legs: Vec<LegModel> = (0..rng.usize_in(1, n_alts.min(3) + 1))
                .map(|_| LegModel {
                    alt: alts.swap_remove(rng.usize_in(0, alts.len())),
                    peer: peers.swap_remove(rng.usize_in(0, peers.len())).to_owned(),
                    cleared: false,
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
                _ => Ok(rng.usize_in(0, n_alts) as u32),
            })];
            for leg in 0..legs.len() {
                let status = *rng.pick(&[ALT_OK, ALT_OK, ALT_FAILED, ALT_DEADLINE]);
                let result = Move::Leg { leg, status };
                match rng.usize_in(0, 5) {
                    0 => {} // silent
                    1 => moves.push(Move::Refuse { leg }),
                    _ => moves.push(result),
                }
                if rng.chance(0.3) {
                    // A duplicate, or a result after a refusal.
                    moves.push(Move::Leg {
                        leg,
                        status: ALT_OK,
                    });
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
            let mut table = RaceTable::new(ORIGIN.to_owned(), 1);
            let spec = RaceSpec {
                widx,
                deadline_ms,
                local_cancel: CancelToken::new(),
            };
            let remotes = legs.iter().map(|l| (l.alt, l.peer.clone())).collect();
            let id = table.create(spec, remotes, voters, now);
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
                took_success: false,
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
}
