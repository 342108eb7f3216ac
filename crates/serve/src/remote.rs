//! Origin-side registry of distributed races, and the executor-side
//! table of remotely-owned alternatives.
//!
//! A *distributed race* is one client request whose alternatives run on
//! more than one node: the local subrace (favourite plus whatever else
//! stayed) races on this node's pool while shipped alternatives run on
//! peers. [`RemoteRaces`] owns the origin's view: which alternatives
//! are where, which peers vote, who finished first, and — through the
//! majority 0–1 semaphore ([`crate::commit`]) — which single candidate
//! commits. The final [`Response`] is posted to the owning reactor
//! shard's completion queue exactly once, whichever of the many event
//! orderings happens.
//!
//! Every public method follows the same discipline: lock the table,
//! mutate, collect deferred [`Action`]s, unlock, act. Actions touch
//! other locks (a shard's completion queue, the peer handle's command
//! queue) so they must never run under the table lock.
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
use crate::frame::{Request, Response, ALT_DEADLINE, ALT_FAILED, ALT_OK};
use crate::peer::{PeerHandle, SendTag};
use crate::pool::WorkerPool;
use crate::reactor::ReactorShared;
use crate::sched::HedgePolicy;
use crate::telemetry::{Metric, Telemetry};
use altx::CancelToken;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};
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
    /// The leg blew its deadline and a local redo was submitted. The
    /// slot stays `pending` — a late genuine result may still win —
    /// but the leg is never redispatched twice.
    redispatched: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VoteState {
    NotAsked,
    Asked,
    Done,
}

#[derive(Debug)]
struct Voter {
    addr: String,
    state: VoteState,
}

/// The first finisher, held while its commit round runs.
#[derive(Debug)]
struct Candidate {
    alt_idx: u32,
    winner_name: String,
    value: u64,
    /// Executor-side latency — feeds the scheduler's EWMA (it estimates
    /// the alternative's cost, not the network's).
    exec_latency_us: u64,
    /// `Some(addr)` when a peer executed the winner; `None` for local.
    peer: Option<String>,
}

struct DistRace {
    shard: usize,
    group: u64,
    widx: usize,
    /// The client argument — kept so an expired leg can be re-run
    /// locally with the same input.
    arg: u64,
    deadline_ms: u32,
    started: Instant,
    expire_at: Instant,
    local_pending: bool,
    local_cancel: CancelToken,
    /// Any participant reported a blown deadline (picks the final
    /// failure flavour when nothing succeeds).
    deadline_seen: bool,
    remotes: Vec<RemoteAlt>,
    voters: Vec<Voter>,
    tally: Option<VoteTally>,
    candidate: Option<Candidate>,
}

/// Deferred side effects, executed strictly after the table unlocks.
enum Action {
    Post {
        shard: usize,
        group: u64,
        response: Response,
    },
    SendVote {
        peer: String,
        race_id: u64,
        candidate: String,
    },
    SendEliminate {
        peer: String,
        race_id: u64,
    },
    NoteWin {
        peer: String,
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
}

/// The origin-side registry. One per daemon, shared by every reactor
/// shard, the worker pool (through subrace notifiers), and the peer
/// thread.
pub(crate) struct RemoteRaces {
    races: Mutex<HashMap<u64, DistRace>>,
    next_id: AtomicU64,
    shards: OnceLock<Vec<Arc<ReactorShared>>>,
    peers: OnceLock<Arc<PeerHandle>>,
    /// Local pool for redispatched legs. Unset (tests, peerless boot)
    /// means legs never expire individually — the race-level sweep
    /// remains the only backstop.
    pool: OnceLock<Arc<WorkerPool>>,
    /// Weak self-handle so a redispatched job's notifier can report
    /// back without a reference cycle through the pool.
    me: OnceLock<Weak<RemoteRaces>>,
    ledger: Arc<CommitLedger>,
    telemetry: Arc<Telemetry>,
    sched: Arc<HedgePolicy>,
    advertise: String,
}

impl RemoteRaces {
    pub(crate) fn new(
        telemetry: Arc<Telemetry>,
        sched: Arc<HedgePolicy>,
        ledger: Arc<CommitLedger>,
        advertise: String,
    ) -> Self {
        RemoteRaces {
            races: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            shards: OnceLock::new(),
            peers: OnceLock::new(),
            pool: OnceLock::new(),
            me: OnceLock::new(),
            ledger,
            telemetry,
            sched,
            advertise,
        }
    }

    /// Wires every shard's completion queue in (once, at startup).
    pub(crate) fn wire_shards(&self, shards: Vec<Arc<ReactorShared>>) {
        let _ = self.shards.set(shards);
    }

    /// Wires the peer send handle in (once, at startup).
    pub(crate) fn wire_peers(&self, peers: Arc<PeerHandle>) {
        let _ = self.peers.set(peers);
    }

    /// Wires the worker pool in (once, at startup). Without it,
    /// per-leg deadlines are inert.
    pub(crate) fn wire_pool(&self, pool: Arc<WorkerPool>) {
        let _ = self.pool.set(pool);
    }

    /// Wires the registry's own `Arc` in (once, at startup) so
    /// redispatched jobs can report their outcome back.
    pub(crate) fn wire_self(&self, me: &Arc<RemoteRaces>) {
        let _ = self.me.set(Arc::downgrade(me));
    }

    /// Registers a new distributed race **before** anything races:
    /// the local subrace must be admitted and the `EXEC_ALT`s sent only
    /// after the entry exists, or an instant finisher would report into
    /// the void. `remotes` is `(alt_idx, peer)` per shipped
    /// alternative; `voters` is the frozen voter set (up peers at
    /// creation; self is implicit). Returns the race id.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn create(
        &self,
        shard: usize,
        group: u64,
        widx: usize,
        arg: u64,
        deadline_ms: u32,
        local_cancel: CancelToken,
        remotes: Vec<(u32, String)>,
        voters: Vec<String>,
    ) -> u64 {
        let race_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let expire_at = if deadline_ms > 0 {
            started + Duration::from_millis(u64::from(deadline_ms)) + DEADLINE_GRACE
        } else {
            started + UNBOUNDED_CAP
        };
        // A leg may not eat more than a fraction of the client budget:
        // whatever is left must suffice for the local redo.
        let leg_cap = if deadline_ms > 0 {
            Duration::from_millis(u64::from(deadline_ms)) * LEG_DEADLINE_PCT / 100
        } else {
            UNBOUNDED_CAP
        };
        let race = DistRace {
            shard,
            group,
            widx,
            arg,
            deadline_ms,
            started,
            expire_at,
            local_pending: true,
            local_cancel,
            deadline_seen: false,
            remotes: remotes
                .into_iter()
                .map(|(alt_idx, peer)| {
                    let rtt_us = self
                        .peers
                        .get()
                        .and_then(|h| h.stats().by_addr(&peer).map(|s| s.rtt_ewma_us()))
                        .unwrap_or(0);
                    let allowance = (Duration::from_micros(rtt_us) * LEG_RTT_MULT)
                        .max(LEG_FLOOR)
                        .min(leg_cap);
                    RemoteAlt {
                        alt_idx,
                        peer,
                        pending: true,
                        deadline: started + allowance,
                        redispatched: false,
                    }
                })
                .collect(),
            voters: voters
                .into_iter()
                .map(|addr| Voter {
                    addr,
                    state: VoteState::NotAsked,
                })
                .collect(),
            tally: None,
            candidate: None,
        };
        self.lock().insert(race_id, race);
        race_id
    }

    /// Removes a race whose local subrace was *refused* by the pool —
    /// nothing ran, nothing was sent, the waiters were answered inline.
    pub(crate) fn abort(&self, race_id: u64) {
        self.lock().remove(&race_id);
    }

    /// The local subrace finished (worker notifier context).
    pub(crate) fn on_local_done(&self, race_id: u64, resp: Response) {
        let mut actions = Vec::new();
        {
            let mut races = self.lock();
            let Some(race) = races.get_mut(&race_id) else {
                return; // race already decided; late local result
            };
            race.local_pending = false;
            match resp {
                Response::Ok {
                    winner,
                    winner_name,
                    latency_us,
                    value,
                } => {
                    if race.candidate.is_none() {
                        race.candidate = Some(Candidate {
                            alt_idx: winner,
                            winner_name,
                            value,
                            exec_latency_us: latency_us,
                            peer: None,
                        });
                    }
                }
                Response::DeadlineExceeded { .. } => race.deadline_seen = true,
                _ => {}
            }
            if self.resolve(race_id, race, &mut actions) {
                races.remove(&race_id);
            }
        }
        self.act(actions);
    }

    /// An `ALT_RESULT` arrived from the executor of a shipped
    /// alternative.
    pub(crate) fn on_remote_result(
        &self,
        race_id: u64,
        alt_idx: u32,
        status: u8,
        value: u64,
        latency_us: u64,
    ) {
        let mut actions = Vec::new();
        {
            let mut races = self.lock();
            let Some(race) = races.get_mut(&race_id) else {
                return;
            };
            let Some(slot) = race
                .remotes
                .iter_mut()
                .find(|r| r.alt_idx == alt_idx && r.pending)
            else {
                return; // duplicate or never-shipped: ignore
            };
            slot.pending = false;
            let peer = slot.peer.clone();
            self.telemetry.add(Metric::RemoteResults, 1);
            match status {
                ALT_OK => {
                    if race.candidate.is_none() {
                        race.candidate = Some(Candidate {
                            alt_idx,
                            winner_name: format!("alt{alt_idx}"),
                            value,
                            exec_latency_us: latency_us,
                            peer: Some(peer),
                        });
                    }
                }
                ALT_DEADLINE => race.deadline_seen = true,
                ALT_FAILED => self.telemetry.add(Metric::RemoteFailed, 1),
                _ => self.telemetry.add(Metric::RemoteFailed, 1),
            }
            if self.resolve(race_id, race, &mut actions) {
                races.remove(&race_id);
            }
        }
        self.act(actions);
    }

    /// A locally-redispatched leg finished (worker notifier context).
    /// Races the genuine remote result for the same slot: whichever
    /// lands first clears `pending`, the other is ignored.
    pub(crate) fn on_redispatch_result(
        &self,
        race_id: u64,
        alt_idx: u32,
        status: u8,
        value: u64,
        latency_us: u64,
    ) {
        let mut actions = Vec::new();
        {
            let mut races = self.lock();
            let Some(race) = races.get_mut(&race_id) else {
                return;
            };
            let Some(slot) = race
                .remotes
                .iter_mut()
                .find(|r| r.alt_idx == alt_idx && r.pending && r.redispatched)
            else {
                return; // the real remote result beat the redo
            };
            slot.pending = false;
            match status {
                ALT_OK => {
                    if race.candidate.is_none() {
                        race.candidate = Some(Candidate {
                            alt_idx,
                            winner_name: format!("alt{alt_idx}"),
                            value,
                            exec_latency_us: latency_us,
                            // Local execution: the stalled peer gets no
                            // credit for the win.
                            peer: None,
                        });
                    }
                }
                ALT_DEADLINE => race.deadline_seen = true,
                _ => {}
            }
            if self.resolve(race_id, race, &mut actions) {
                races.remove(&race_id);
            }
        }
        self.act(actions);
    }

    /// A shipped alternative will never run: the peer refused it, the
    /// link was down at send time, or it died before the ack.
    pub(crate) fn on_remote_refused(&self, race_id: u64, alt_idx: u32) {
        let mut actions = Vec::new();
        {
            let mut races = self.lock();
            let Some(race) = races.get_mut(&race_id) else {
                return;
            };
            let Some(slot) = race
                .remotes
                .iter_mut()
                .find(|r| r.alt_idx == alt_idx && r.pending)
            else {
                return;
            };
            slot.pending = false;
            self.telemetry.add(Metric::RemoteFailed, 1);
            if self.resolve(race_id, race, &mut actions) {
                races.remove(&race_id);
            }
        }
        self.act(actions);
    }

    /// A vote reply (or its conversion to a denial when the voter died).
    pub(crate) fn on_vote(&self, race_id: u64, voter: &str, granted: bool) {
        let mut actions = Vec::new();
        {
            let mut races = self.lock();
            let Some(race) = races.get_mut(&race_id) else {
                return;
            };
            let Some(v) = race
                .voters
                .iter_mut()
                .find(|v| v.addr == voter && v.state == VoteState::Asked)
            else {
                return; // unknown voter or already counted
            };
            v.state = VoteState::Done;
            if let Some(tally) = &mut race.tally {
                if granted {
                    tally.grant();
                } else {
                    tally.deny();
                }
            }
            if self.resolve(race_id, race, &mut actions) {
                races.remove(&race_id);
            }
        }
        self.act(actions);
    }

    /// A peer link died: every alternative it had acked but not
    /// finished becomes a failed guard. (Its unanswered votes are
    /// denied separately, tag by tag, by the peer thread.)
    pub(crate) fn on_peer_down(&self, peer: &str) {
        let mut actions = Vec::new();
        {
            let mut races = self.lock();
            let ids: Vec<u64> = races.keys().copied().collect();
            for race_id in ids {
                let race = races.get_mut(&race_id).expect("id just listed");
                let mut touched = false;
                for slot in race
                    .remotes
                    .iter_mut()
                    .filter(|r| r.pending && r.peer == peer)
                {
                    slot.pending = false;
                    touched = true;
                    self.telemetry.add(Metric::RemoteFailed, 1);
                }
                if touched && self.resolve(race_id, race, &mut actions) {
                    races.remove(&race_id);
                }
            }
        }
        self.act(actions);
    }

    /// Expires every race past its deadline-plus-grace: a candidate
    /// stuck in voting commits degraded; a race with nothing decided
    /// fails over to a deadline/error reply. This is the backstop that
    /// keeps a silent peer from stranding a client.
    pub(crate) fn sweep(&self, now: Instant) {
        self.expire_legs(now);
        self.flush_where(|race| race.expire_at <= now);
    }

    /// Expires individual remote legs past their per-leg deadline:
    /// the leg's peer gets an `ELIMINATE` and the alternative is
    /// redispatched on the local pool. The slot stays `pending` so a
    /// late genuine result can still win the slot — only the *waiting*
    /// stops. No-op until a pool is wired in.
    fn expire_legs(&self, now: Instant) {
        if self.pool.get().is_none() {
            return;
        }
        let mut actions = Vec::new();
        {
            let mut races = self.lock();
            for (&race_id, race) in races.iter_mut() {
                if race.candidate.is_some() {
                    continue; // deciding already; commit handles the legs
                }
                for slot in race
                    .remotes
                    .iter_mut()
                    .filter(|r| r.pending && !r.redispatched && r.deadline <= now)
                {
                    slot.redispatched = true;
                    self.telemetry.add(Metric::RemoteRedispatched, 1);
                    self.telemetry.add(Metric::Eliminations, 1);
                    actions.push(Action::SendEliminate {
                        peer: slot.peer.clone(),
                        race_id,
                    });
                    actions.push(Action::Redispatch {
                        race_id,
                        alt_idx: slot.alt_idx,
                        widx: race.widx,
                        arg: race.arg,
                        token: race.local_cancel.clone(),
                    });
                }
            }
        }
        self.act(actions);
    }

    /// Drain-time flush: every open race resolves *now* (degraded
    /// commit or failure) so shutdown never strands a waiter.
    pub(crate) fn shutdown_flush(&self) {
        self.flush_where(|_| true);
    }

    fn flush_where(&self, pred: impl Fn(&DistRace) -> bool) {
        let mut actions = Vec::new();
        {
            let mut races = self.lock();
            let ids: Vec<u64> = races
                .iter()
                .filter(|(_, r)| pred(r))
                .map(|(&id, _)| id)
                .collect();
            for race_id in ids {
                let race = races.get_mut(&race_id).expect("id just listed");
                // Force a decision: outstanding work is abandoned.
                race.local_cancel.cancel();
                race.local_pending = false;
                for slot in race.remotes.iter_mut().filter(|r| r.pending) {
                    slot.pending = false;
                    self.telemetry.add(Metric::RemoteFailed, 1);
                }
                if race.deadline_ms > 0 {
                    race.deadline_seen = true;
                }
                if race.candidate.is_some() {
                    // Voting stalled (voters dead or drain): degrade.
                    self.commit(race_id, race, true, &mut actions);
                } else {
                    self.fail(race, &mut actions);
                }
                races.remove(&race_id);
            }
        }
        self.act(actions);
    }

    /// Earliest race expiry — or pending leg deadline, when legs are
    /// live — for the peer thread's poll timeout.
    pub(crate) fn next_expiry(&self) -> Option<Instant> {
        let legs_live = self.pool.get().is_some();
        self.lock()
            .values()
            .flat_map(|r| {
                // A leg only contributes while its expiry would still
                // do something: undecided race, not yet redispatched.
                let legs = r
                    .remotes
                    .iter()
                    .filter(move |s| {
                        legs_live && r.candidate.is_none() && s.pending && !s.redispatched
                    })
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
        let races = self.lock();
        races
            .keys()
            .copied()
            .min()
            .unwrap_or_else(|| self.next_id.load(Ordering::Relaxed))
    }

    /// Open distributed races (diagnostic/test hook).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, DistRace>> {
        self.races.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drives one race forward after any event. Returns `true` when the
    /// race is finished and must be removed.
    fn resolve(&self, race_id: u64, race: &mut DistRace, actions: &mut Vec<Action>) -> bool {
        if race.candidate.is_none() {
            if race.local_pending || race.remotes.iter().any(|r| r.pending) {
                return false; // still racing
            }
            self.fail(race, actions);
            return true;
        }
        if race.tally.is_none() {
            self.begin_commit(race_id, race, actions);
        }
        match race.tally.expect("tally just ensured").state() {
            TallyState::Undecided => false,
            TallyState::Committed => {
                self.commit(race_id, race, false, actions);
                true
            }
            TallyState::Unreachable => {
                self.commit(race_id, race, true, actions);
                true
            }
        }
    }

    /// Opens the commit round for the first finisher: cast the origin's
    /// own ledger vote, freeze the tally, ask every voter.
    fn begin_commit(&self, race_id: u64, race: &mut DistRace, actions: &mut Vec<Action>) {
        let cand = race.candidate.as_ref().expect("caller checked");
        let cand_id = format!("{}/alt{}", self.advertise, cand.alt_idx);
        let (granted, _) = self.ledger.vote(&self.advertise, race_id, &cand_id);
        self.telemetry.add(Metric::CommitVotes, 1);
        race.tally = Some(VoteTally::new(1 + race.voters.len(), granted));
        for v in race.voters.iter_mut() {
            v.state = VoteState::Asked;
            actions.push(Action::SendVote {
                peer: v.addr.clone(),
                race_id,
                candidate: cand_id.clone(),
            });
        }
    }

    /// The candidate commits (cleanly or degraded): answer the client,
    /// eliminate surviving siblings on their peers, record the win.
    fn commit(&self, race_id: u64, race: &mut DistRace, degraded: bool, actions: &mut Vec<Action>) {
        let cand = race.candidate.take().expect("caller checked");
        let total_us = race.started.elapsed().as_micros() as u64;
        if degraded {
            self.telemetry.add(Metric::CommitsDegraded, 1);
        }
        self.telemetry.on_completed(total_us);
        self.sched
            .record_win(race.widx, cand.alt_idx as usize, cand.exec_latency_us);
        if let Some(peer) = &cand.peer {
            self.telemetry.add(Metric::RemoteWins, 1);
            actions.push(Action::NoteWin { peer: peer.clone() });
        }
        // Local siblings — and any redispatched legs, which share the
        // subrace token — are cancelled unconditionally (a no-op when
        // everything local already finished).
        race.local_cancel.cancel();
        // Remote siblings: one ELIMINATE per peer still owing a result.
        // Redispatched legs already got theirs at leg expiry.
        let mut peers: Vec<String> = race
            .remotes
            .iter()
            .filter(|r| r.pending && !r.redispatched)
            .map(|r| r.peer.clone())
            .collect();
        peers.sort();
        peers.dedup();
        for peer in peers {
            self.telemetry.add(Metric::Eliminations, 1);
            actions.push(Action::SendEliminate { peer, race_id });
        }
        actions.push(Action::Post {
            shard: race.shard,
            group: race.group,
            response: Response::Ok {
                winner: cand.alt_idx,
                winner_name: cand.winner_name,
                latency_us: total_us,
                value: cand.value,
            },
        });
    }

    /// Nothing succeeded anywhere: answer with the failure flavour the
    /// race observed.
    fn fail(&self, race: &mut DistRace, actions: &mut Vec<Action>) {
        let total_us = race.started.elapsed().as_micros() as u64;
        let response = if race.deadline_seen {
            self.telemetry.on_deadline_exceeded();
            Response::DeadlineExceeded {
                latency_us: total_us,
            }
        } else {
            self.telemetry.on_error();
            Response::Error {
                message: "no alternative succeeded".to_owned(),
            }
        };
        actions.push(Action::Post {
            shard: race.shard,
            group: race.group,
            response,
        });
    }

    /// Executes deferred side effects. Never called under the table
    /// lock.
    fn act(&self, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Post {
                    shard,
                    group,
                    response,
                } => {
                    if let Some(shards) = self.shards.get() {
                        if let Some(s) = shards.get(shard) {
                            s.post(group, response);
                        }
                    }
                }
                Action::SendVote {
                    peer,
                    race_id,
                    candidate,
                } => {
                    if let Some(h) = self.peers.get() {
                        h.send(
                            &peer,
                            Request::CommitVote {
                                race_id,
                                origin: self.advertise.clone(),
                                candidate,
                            },
                            SendTag::Vote { race_id },
                        );
                    }
                }
                Action::SendEliminate { peer, race_id } => {
                    if let Some(h) = self.peers.get() {
                        // Tagged so a link that dies before the ack can
                        // re-park the ELIMINATE for replay on reconnect
                        // (zombie executions must not outlive a
                        // partition).
                        h.send(
                            &peer,
                            Request::Eliminate {
                                race_id,
                                origin: self.advertise.clone(),
                            },
                            SendTag::Eliminate { race_id },
                        );
                    }
                }
                Action::NoteWin { peer } => {
                    if let Some(h) = self.peers.get() {
                        if let Some(stat) = h.stats().by_addr(&peer) {
                            stat.note_win();
                        }
                    }
                }
                Action::Redispatch {
                    race_id,
                    alt_idx,
                    widx,
                    arg,
                    token,
                } => {
                    if !self.redispatch(race_id, alt_idx, widx, arg, token) {
                        // Pool full or not wired: the leg converts to a
                        // failed guard like any refused dispatch.
                        self.on_remote_refused(race_id, alt_idx);
                    }
                }
            }
        }
    }

    /// Submits a local redo of an expired remote leg. The job runs the
    /// exact same single-alternative execution an `EXEC_ALT` peer
    /// would, under the subrace token so commit/expiry cancels it.
    fn redispatch(
        &self,
        race_id: u64,
        alt_idx: u32,
        widx: usize,
        arg: u64,
        token: CancelToken,
    ) -> bool {
        let (Some(pool), Some(me)) = (self.pool.get(), self.me.get()) else {
            return false;
        };
        let Some(me) = me.upgrade() else {
            return false;
        };
        let slot: Arc<Mutex<Option<(u8, u64, u64)>>> = Arc::new(Mutex::new(None));
        let job = {
            let slot = Arc::clone(&slot);
            let telemetry = Arc::clone(&self.telemetry);
            Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    crate::server::run_remote_alt(&telemetry, widx, alt_idx, arg, &token)
                }))
                .unwrap_or((ALT_FAILED, 0, 0));
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
            })
        };
        let notify = Box::new(move || {
            // An empty slot means the pool dropped the job unrun.
            let (status, value, latency_us) = slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .unwrap_or((ALT_FAILED, 0, 0));
            me.on_redispatch_result(race_id, alt_idx, status, value, latency_us);
        });
        pool.try_submit_notify(job, notify).is_ok()
    }
}

/// Executor-side table of remotely-owned alternatives, keyed by
/// `(origin, race_id)` so two origins' id spaces can never collide.
/// An `ELIMINATE` cancels every token registered under its key — the
/// cross-machine half of sibling elimination.
#[derive(Debug, Default)]
pub(crate) struct InflightRemote {
    map: Mutex<HashMap<(String, u64), Vec<(u32, CancelToken)>>>,
}

impl InflightRemote {
    pub(crate) fn new() -> Self {
        Self::default()
    }

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
        let mut map = self.lock();
        let keys: Vec<(String, u64)> = map
            .keys()
            .filter(|(o, id)| o == origin && *id < watermark)
            .cloned()
            .collect();
        let mut n = 0;
        for key in keys {
            if let Some(slots) = map.remove(&key) {
                for (_, token) in &slots {
                    token.cancel();
                }
                n += slots.len();
            }
        }
        n
    }

    /// Registered alternatives (test/diagnostic hook).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(String, u64), Vec<(u32, CancelToken)>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::HedgeConfig;

    fn registry() -> RemoteRaces {
        RemoteRaces::new(
            Arc::new(Telemetry::new()),
            Arc::new(HedgePolicy::new(HedgeConfig::default())),
            Arc::new(CommitLedger::new()),
            "origin:1".to_owned(),
        )
    }

    fn ok(winner: u32, value: u64) -> Response {
        Response::Ok {
            winner,
            winner_name: format!("alt{winner}"),
            latency_us: 500,
            value,
        }
    }

    #[test]
    fn local_win_with_no_voters_commits_immediately() {
        let races = registry();
        let id = races.create(
            0,
            7,
            0,
            0,
            0,
            CancelToken::new(),
            vec![(1, "peer:1".into())],
            vec![],
        );
        races.on_local_done(id, ok(0, 42));
        // Single-voter tally (self only) commits on the self-grant; the
        // race is gone and the still-pending remote was eliminated.
        assert_eq!(races.len(), 0);
        assert_eq!(races.telemetry.snapshot()[Metric::Completed], 1);
        assert_eq!(races.telemetry.snapshot()[Metric::Eliminations], 1);
        assert_eq!(races.ledger.votes_granted(), 1);
    }

    #[test]
    fn remote_result_wins_when_local_fails() {
        let races = registry();
        let id = races.create(
            0,
            1,
            0,
            0,
            0,
            CancelToken::new(),
            vec![(2, "peer:1".into())],
            vec![],
        );
        races.on_local_done(
            id,
            Response::Error {
                message: "guards failed".into(),
            },
        );
        assert_eq!(races.len(), 1, "race waits for the shipped alternative");
        races.on_remote_result(id, 2, ALT_OK, 99, 1_000);
        assert_eq!(races.len(), 0);
        let s = races.telemetry.snapshot();
        assert_eq!(s[Metric::Completed], 1);
        assert_eq!(s[Metric::RemoteWins], 1);
        assert_eq!(s[Metric::RemoteResults], 1);
    }

    #[test]
    fn everything_failing_answers_once_with_the_deadline_flavour() {
        let races = registry();
        let id = races.create(
            0,
            1,
            0,
            0,
            50,
            CancelToken::new(),
            vec![(1, "a:1".into()), (2, "b:2".into())],
            vec![],
        );
        races.on_remote_result(id, 1, ALT_FAILED, 0, 10);
        races.on_local_done(id, Response::DeadlineExceeded { latency_us: 50_000 });
        assert_eq!(races.len(), 1);
        races.on_remote_result(id, 2, ALT_DEADLINE, 0, 50_000);
        assert_eq!(races.len(), 0);
        let s = races.telemetry.snapshot();
        assert_eq!(s[Metric::DeadlineExceeded], 1, "deadline flavour wins");
        assert_eq!(s[Metric::Completed], 0);
    }

    #[test]
    fn peer_death_converts_its_alternatives_to_failed_guards() {
        let races = registry();
        let id = races.create(
            0,
            1,
            0,
            0,
            0,
            CancelToken::new(),
            vec![(1, "dead:1".into()), (2, "alive:2".into())],
            vec![],
        );
        races.on_local_done(
            id,
            Response::Error {
                message: "guards failed".into(),
            },
        );
        races.on_peer_down("dead:1");
        assert_eq!(races.len(), 1, "the survivor's alternative still races");
        assert_eq!(races.telemetry.snapshot()[Metric::RemoteFailed], 1);
        races.on_remote_result(id, 2, ALT_OK, 5, 100);
        assert_eq!(races.len(), 0);
        assert_eq!(races.telemetry.snapshot()[Metric::RemoteWins], 1);
    }

    #[test]
    fn dead_voters_degrade_the_commit_instead_of_blocking() {
        let races = registry();
        let token = CancelToken::new();
        let id = races.create(
            0,
            1,
            0,
            0,
            0,
            token.clone(),
            vec![],
            vec!["v1:1".into(), "v2:2".into()],
        );
        races.on_local_done(id, ok(0, 7));
        assert_eq!(races.len(), 1, "majority of 3 needs one peer grant");
        races.on_vote(id, "v1:1", false);
        assert_eq!(races.len(), 1, "one denial leaves the round undecided");
        races.on_vote(id, "v2:2", false);
        assert_eq!(races.len(), 0, "second denial makes majority unreachable");
        let s = races.telemetry.snapshot();
        assert_eq!(s[Metric::CommitsDegraded], 1);
        assert_eq!(s[Metric::Completed], 1, "the client is answered regardless");
    }

    #[test]
    fn majority_grant_commits_cleanly() {
        let races = registry();
        let id = races.create(
            0,
            1,
            0,
            0,
            0,
            CancelToken::new(),
            vec![],
            vec!["v1:1".into(), "v2:2".into()],
        );
        races.on_local_done(id, ok(1, 3));
        races.on_vote(id, "v1:1", true);
        assert_eq!(races.len(), 0, "2 of 3 grants commit");
        let s = races.telemetry.snapshot();
        assert_eq!(s[Metric::CommitsDegraded], 0);
        assert_eq!(s[Metric::Completed], 1);
    }

    #[test]
    fn duplicate_votes_are_ignored() {
        let races = registry();
        let id = races.create(
            0,
            1,
            0,
            0,
            0,
            CancelToken::new(),
            vec![],
            vec!["v1:1".into()],
        );
        races.on_local_done(id, ok(0, 1));
        assert_eq!(races.len(), 1);
        races.on_vote(id, "v1:1", false);
        assert_eq!(races.len(), 0, "1 of 2 can never be a majority");
        // Late duplicate for a removed race: no panic, no double post.
        races.on_vote(id, "v1:1", true);
    }

    #[test]
    fn sweep_expires_overdue_races() {
        let races = registry();
        let token = CancelToken::new();
        let id = races.create(
            0,
            1,
            0,
            0,
            10,
            token.clone(),
            vec![(1, "silent:1".into())],
            vec![],
        );
        assert!(races.next_expiry().is_some());
        races.sweep(Instant::now()); // not yet due
        assert_eq!(races.len(), 1);
        races.sweep(Instant::now() + Duration::from_secs(60));
        assert_eq!(races.len(), 0);
        assert!(token.is_cancelled(), "expiry cancels the local subrace");
        let s = races.telemetry.snapshot();
        assert_eq!(
            s[Metric::DeadlineExceeded],
            1,
            "deadline race expires as deadline"
        );
        let _ = id;
    }

    #[test]
    fn shutdown_flush_degrades_a_race_stuck_in_voting() {
        let races = registry();
        let id = races.create(
            0,
            1,
            0,
            0,
            0,
            CancelToken::new(),
            vec![],
            vec!["v:1".into()],
        );
        races.on_local_done(id, ok(0, 9));
        assert_eq!(races.len(), 1, "waiting on the voter");
        races.shutdown_flush();
        assert_eq!(races.len(), 0);
        let s = races.telemetry.snapshot();
        assert_eq!(s[Metric::CommitsDegraded], 1);
        assert_eq!(s[Metric::Completed], 1);
    }

    #[test]
    fn expired_leg_redispatches_locally_and_answers() {
        let races = Arc::new(registry());
        let pool = Arc::new(WorkerPool::new(2, 8));
        races.wire_pool(Arc::clone(&pool));
        races.wire_self(&races);
        // widx 0 is "trivial": both alternatives succeed instantly, so
        // the local redo of alt 1 must win the race.
        let id = races.create(
            0,
            1,
            0,
            7,
            0,
            CancelToken::new(),
            vec![(1, "stalled:1".into())],
            vec![],
        );
        races.on_local_done(
            id,
            Response::Error {
                message: "guards failed".into(),
            },
        );
        assert_eq!(races.len(), 1, "only the shipped leg can still answer");
        // The leg deadline (20ms floor; no RTT sample) passes silently.
        races.sweep(Instant::now() + Duration::from_millis(50));
        assert_eq!(races.telemetry.snapshot()[Metric::RemoteRedispatched], 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while races.len() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(races.len(), 0, "the local redo answers the race");
        let s = races.telemetry.snapshot();
        assert_eq!(s[Metric::Completed], 1);
        assert_eq!(s[Metric::RemoteWins], 0, "a local redo is not a remote win");
        assert_eq!(
            s[Metric::Eliminations],
            1,
            "the stalled peer was told to stop"
        );
        // A late genuine result for the already-decided race is a no-op.
        races.on_remote_result(id, 1, ALT_OK, 9, 100);
        assert_eq!(races.telemetry.snapshot()[Metric::Completed], 1);
        pool.shutdown();
    }

    #[test]
    fn legs_do_not_expire_without_a_pool() {
        let races = registry();
        let id = races.create(
            0,
            1,
            0,
            0,
            0,
            CancelToken::new(),
            vec![(1, "stalled:1".into())],
            vec![],
        );
        races.on_local_done(
            id,
            Response::Error {
                message: "guards failed".into(),
            },
        );
        // Well past the leg floor but before race expiry: nothing to
        // redispatch onto, so the leg keeps waiting.
        races.sweep(Instant::now() + Duration::from_millis(200));
        assert_eq!(races.len(), 1);
        assert_eq!(races.telemetry.snapshot()[Metric::RemoteRedispatched], 0);
    }

    #[test]
    fn reconcile_watermark_tracks_the_lowest_open_race() {
        let races = registry();
        assert_eq!(races.reconcile_watermark(), 1, "nothing open: next id");
        let a = races.create(
            0,
            1,
            0,
            0,
            0,
            CancelToken::new(),
            vec![(1, "p:1".into())],
            vec![],
        );
        let b = races.create(
            0,
            2,
            0,
            0,
            0,
            CancelToken::new(),
            vec![(1, "p:1".into())],
            vec![],
        );
        assert_eq!(races.reconcile_watermark(), a, "lowest open id");
        races.on_local_done(a, ok(0, 1));
        assert_eq!(races.reconcile_watermark(), b, "a decided, b still open");
        races.on_local_done(b, ok(0, 1));
        assert_eq!(races.reconcile_watermark(), b + 1, "all decided: next id");
    }

    #[test]
    fn eliminate_below_kills_only_zombies_under_the_watermark() {
        let inflight = InflightRemote::new();
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
        let inflight = InflightRemote::new();
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
