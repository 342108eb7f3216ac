//! Majority-consensus synchronization (Thomas 1979), simulated.
//!
//! The fault-tolerant 0–1 semaphore of §3.2.1/§5.1.2: N voter nodes each
//! hold one exclusive, unrevocable vote. Candidates (the alternates trying
//! to synchronize) request votes from every voter over a lossy network; a
//! candidate that collects a strict majority has synchronized. Because
//! votes are exclusive and never revoked, **at most one candidate can ever
//! win**, no matter which messages are lost or which voters crash — the
//! at-most-once guarantee survives partial failure, at the price of extra
//! messages and latency ("the additional communication and protocol of
//! multiple-node synchronization is the price paid for increased
//! robustness").

use crate::vote::{Tally, TallyState, VoteSlot};
use altx_des::{EventQueue, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// One candidate (a synchronizing alternative) in the race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSpec {
    /// Unique candidate identifier.
    pub id: u64,
    /// When the candidate begins requesting votes.
    pub start: SimTime,
    /// How long it waits for outstanding responses before re-requesting.
    pub retry_interval: SimDuration,
    /// Maximum request rounds before giving up (≥ 1).
    pub max_rounds: u32,
}

impl CandidateSpec {
    /// A candidate starting at `start` with sensible retry defaults
    /// (50 ms interval, 5 rounds).
    pub fn new(id: u64, start: SimTime) -> Self {
        CandidateSpec {
            id,
            start,
            retry_interval: SimDuration::from_millis(50),
            max_rounds: 5,
        }
    }
}

/// Failure injection for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-voter crash instant (`None` = never crashes). A crashed voter
    /// neither receives nor responds, but votes it granted earlier stand.
    pub voter_crash_times: Vec<Option<SimTime>>,
    /// Independent loss probability for every message.
    pub drop_probability: f64,
}

impl FaultPlan {
    /// No failures.
    pub fn none(n_voters: usize) -> Self {
        FaultPlan {
            voter_crash_times: vec![None; n_voters],
            drop_probability: 0.0,
        }
    }
}

/// Configuration of one consensus race.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusConfig {
    /// Number of voter nodes (odd values avoid split ties but any
    /// positive count is legal — a tie means no winner, which is safe).
    pub n_voters: usize,
    /// One-way network latency per message.
    pub latency: SimDuration,
    /// The racing candidates.
    pub candidates: Vec<CandidateSpec>,
    /// Failure injection.
    pub faults: FaultPlan,
    /// RNG seed (message drops).
    pub seed: u64,
}

impl ConsensusConfig {
    /// A failure-free race of `candidates` over `n_voters` voters with
    /// 1 ms latency.
    pub fn simple(n_voters: usize, candidates: Vec<CandidateSpec>) -> Self {
        ConsensusConfig {
            n_voters,
            latency: SimDuration::from_millis(1),
            candidates,
            faults: FaultPlan::none(n_voters),
            seed: 7,
        }
    }
}

/// Per-candidate result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// Collected a majority at the given instant after the given number
    /// of rounds.
    Won {
        /// Commit instant.
        at: SimTime,
        /// Rounds of requests used.
        rounds: u32,
    },
    /// Learned a majority was impossible (enough denials) or exhausted
    /// its retry budget.
    GaveUp {
        /// When it stopped.
        at: SimTime,
    },
    /// Still undecided when the simulation went quiescent (e.g., all its
    /// messages were lost and rounds ran out without responses).
    Undecided,
}

impl CandidateOutcome {
    /// True for [`CandidateOutcome::Won`].
    pub fn is_win(&self) -> bool {
        matches!(self, CandidateOutcome::Won { .. })
    }
}

/// The result of a consensus race.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusReport {
    /// The winning candidate, if any (at most one, guaranteed).
    pub winner: Option<u64>,
    /// When the winner committed.
    pub decided_at: Option<SimTime>,
    /// Outcome per candidate id.
    pub outcomes: BTreeMap<u64, CandidateOutcome>,
    /// Total messages offered to the network (including dropped).
    pub messages_sent: u64,
    /// Messages lost to the fault plan.
    pub messages_dropped: u64,
}

impl fmt::Display for ConsensusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.winner, self.decided_at) {
            (Some(w), Some(at)) => write!(
                f,
                "winner: candidate {w} at {at} ({} msgs, {} dropped)",
                self.messages_sent, self.messages_dropped
            ),
            _ => write!(
                f,
                "no winner ({} msgs, {} dropped)",
                self.messages_sent, self.messages_dropped
            ),
        }
    }
}

#[derive(Debug)]
enum Event {
    Request {
        candidate: u64,
        voter: usize,
    },
    Response {
        voter: usize,
        candidate: u64,
        granted: bool,
    },
    Retry {
        candidate: u64,
        round: u32,
    },
}

#[derive(Debug)]
struct CandidateState {
    spec: CandidateSpec,
    /// Which voters' answers have arrived (a retried request can be
    /// answered twice; only the first answer is a vote).
    answered: Vec<bool>,
    tally: Tally,
    rounds_used: u32,
    outcome: CandidateOutcome,
}

/// Deterministic simulator for one majority-consensus race.
#[derive(Debug)]
pub struct ConsensusSim {
    cfg: ConsensusConfig,
}

impl ConsensusSim {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if there are no voters, the fault plan's crash table length
    /// disagrees with `n_voters`, the drop probability is outside
    /// `[0, 1)`, or candidate ids are not unique.
    pub fn new(cfg: ConsensusConfig) -> Self {
        assert!(cfg.n_voters > 0, "need at least one voter");
        assert_eq!(
            cfg.faults.voter_crash_times.len(),
            cfg.n_voters,
            "fault plan must cover every voter"
        );
        assert!(
            (0.0..1.0).contains(&cfg.faults.drop_probability),
            "drop probability must be in [0, 1)"
        );
        let mut ids: Vec<u64> = cfg.candidates.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            cfg.candidates.len(),
            "candidate ids must be unique"
        );
        ConsensusSim { cfg }
    }

    /// Runs the race to quiescence.
    pub fn run(&self) -> ConsensusReport {
        let n = self.cfg.n_voters;
        let mut rng = SimRng::seed_from_u64(self.cfg.seed);
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut votes: Vec<VoteSlot<u64>> = vec![VoteSlot::new(); n];
        let mut candidates: BTreeMap<u64, CandidateState> = BTreeMap::new();
        let mut sent = 0u64;
        let mut dropped = 0u64;

        for spec in &self.cfg.candidates {
            candidates.insert(
                spec.id,
                CandidateState {
                    spec: spec.clone(),
                    answered: vec![false; n],
                    tally: Tally::new(n, false),
                    rounds_used: 0,
                    outcome: CandidateOutcome::Undecided,
                },
            );
            queue.schedule(
                spec.start,
                Event::Retry {
                    candidate: spec.id,
                    round: 0,
                },
            );
        }

        let mut winner: Option<(u64, SimTime)> = None;

        while let Some((now, event)) = queue.pop() {
            match event {
                Event::Retry { candidate, round } => {
                    let state = candidates.get_mut(&candidate).expect("known candidate");
                    if !matches!(state.outcome, CandidateOutcome::Undecided) {
                        continue;
                    }
                    if round >= state.spec.max_rounds {
                        state.outcome = CandidateOutcome::GaveUp { at: now };
                        continue;
                    }
                    state.rounds_used = round + 1;
                    // (Re-)request every voter that hasn't answered.
                    let pending: Vec<usize> = (0..n).filter(|&v| !state.answered[v]).collect();
                    let retry = state.spec.retry_interval;
                    for voter in pending {
                        sent += 1;
                        if rng.chance(self.cfg.faults.drop_probability) {
                            dropped += 1;
                            continue;
                        }
                        queue.schedule(now + self.cfg.latency, Event::Request { candidate, voter });
                    }
                    queue.schedule(
                        now + retry,
                        Event::Retry {
                            candidate,
                            round: round + 1,
                        },
                    );
                }
                Event::Request { candidate, voter } => {
                    // A crashed voter is silent.
                    if let Some(crash) = self.cfg.faults.voter_crash_times[voter] {
                        if now >= crash {
                            continue;
                        }
                    }
                    let granted = votes[voter].request(&candidate);
                    sent += 1;
                    if rng.chance(self.cfg.faults.drop_probability) {
                        dropped += 1;
                        continue;
                    }
                    queue.schedule(
                        now + self.cfg.latency,
                        Event::Response {
                            voter,
                            candidate,
                            granted,
                        },
                    );
                }
                Event::Response {
                    voter,
                    candidate,
                    granted,
                } => {
                    let state = candidates.get_mut(&candidate).expect("known candidate");
                    if !matches!(state.outcome, CandidateOutcome::Undecided) {
                        continue;
                    }
                    if !std::mem::replace(&mut state.answered[voter], true) {
                        if granted {
                            state.tally.grant();
                        } else {
                            state.tally.deny();
                        }
                    }
                    match state.tally.state() {
                        TallyState::Committed => {
                            state.outcome = CandidateOutcome::Won {
                                at: now,
                                rounds: state.rounds_used,
                            };
                            debug_assert!(winner.is_none(), "two majority winners are impossible");
                            winner = Some((candidate, now));
                        }
                        // Majority is arithmetically out of reach.
                        TallyState::Unreachable => {
                            state.outcome = CandidateOutcome::GaveUp { at: now };
                        }
                        TallyState::Undecided => {}
                    }
                }
            }
        }

        ConsensusReport {
            winner: winner.map(|(id, _)| id),
            decided_at: winner.map(|(_, at)| at),
            outcomes: candidates
                .into_iter()
                .map(|(id, s)| (id, s.outcome))
                .collect(),
            messages_sent: sent,
            messages_dropped: dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u64, start_ms: u64) -> CandidateSpec {
        CandidateSpec::new(id, SimTime::from_nanos(start_ms * 1_000_000))
    }

    #[test]
    fn single_candidate_wins_failure_free() {
        let report = ConsensusSim::new(ConsensusConfig::simple(3, vec![cand(1, 0)])).run();
        assert_eq!(report.winner, Some(1));
        assert!(report.outcomes[&1].is_win());
        assert_eq!(report.messages_dropped, 0);
    }

    #[test]
    fn earlier_candidate_beats_later() {
        let report =
            ConsensusSim::new(ConsensusConfig::simple(5, vec![cand(1, 0), cand(2, 10)])).run();
        assert_eq!(report.winner, Some(1));
        assert!(matches!(
            report.outcomes[&2],
            CandidateOutcome::GaveUp { .. }
        ));
    }

    #[test]
    fn at_most_one_winner_simultaneous_start() {
        let report = ConsensusSim::new(ConsensusConfig::simple(
            5,
            vec![cand(1, 0), cand(2, 0), cand(3, 0)],
        ))
        .run();
        let wins = report.outcomes.values().filter(|o| o.is_win()).count();
        assert!(wins <= 1, "outcomes: {:?}", report.outcomes);
        assert_eq!(report.winner.is_some(), wins == 1);
    }

    #[test]
    fn survives_minority_voter_crashes() {
        // 5 voters, 2 crash at t=0: majority (3) still reachable.
        let mut cfg = ConsensusConfig::simple(5, vec![cand(1, 0)]);
        cfg.faults.voter_crash_times[0] = Some(SimTime::ZERO);
        cfg.faults.voter_crash_times[1] = Some(SimTime::ZERO);
        let report = ConsensusSim::new(cfg).run();
        assert_eq!(report.winner, Some(1));
    }

    #[test]
    fn majority_crash_prevents_any_winner() {
        // 3 of 5 voters crashed: no candidate can reach 3 grants.
        let mut cfg = ConsensusConfig::simple(5, vec![cand(1, 0)]);
        for v in 0..3 {
            cfg.faults.voter_crash_times[v] = Some(SimTime::ZERO);
        }
        let report = ConsensusSim::new(cfg).run();
        assert_eq!(report.winner, None, "{report}");
    }

    #[test]
    fn single_voter_is_a_single_point_of_failure() {
        // The contrast the paper draws: with one sync node down, the
        // synchronization can never complete.
        let mut cfg = ConsensusConfig::simple(1, vec![cand(1, 0)]);
        cfg.faults.voter_crash_times[0] = Some(SimTime::ZERO);
        let report = ConsensusSim::new(cfg).run();
        assert_eq!(report.winner, None);
    }

    #[test]
    fn message_loss_is_overcome_by_retries() {
        let mut cfg = ConsensusConfig::simple(3, vec![cand(1, 0)]);
        cfg.faults.drop_probability = 0.4;
        cfg.seed = 42;
        let report = ConsensusSim::new(cfg).run();
        assert_eq!(report.winner, Some(1));
        assert!(report.messages_dropped > 0, "fault plan should have bitten");
    }

    #[test]
    fn retry_budget_exhaustion_gives_up() {
        // Drop everything: after max_rounds the candidate gives up.
        let mut cfg = ConsensusConfig::simple(3, vec![cand(1, 0)]);
        cfg.faults.drop_probability = 0.999_999;
        cfg.seed = 1;
        let report = ConsensusSim::new(cfg).run();
        assert_eq!(report.winner, None);
        assert!(matches!(
            report.outcomes[&1],
            CandidateOutcome::GaveUp { .. } | CandidateOutcome::Undecided
        ));
    }

    #[test]
    fn more_voters_cost_more_messages() {
        let r3 = ConsensusSim::new(ConsensusConfig::simple(3, vec![cand(1, 0)])).run();
        let r7 = ConsensusSim::new(ConsensusConfig::simple(7, vec![cand(1, 0)])).run();
        assert!(r7.messages_sent > r3.messages_sent);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mk = || {
            let mut cfg = ConsensusConfig::simple(5, vec![cand(1, 0), cand(2, 1)]);
            cfg.faults.drop_probability = 0.3;
            cfg.seed = 99;
            ConsensusSim::new(cfg).run()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "candidate ids must be unique")]
    fn duplicate_ids_rejected() {
        ConsensusSim::new(ConsensusConfig::simple(3, vec![cand(1, 0), cand(1, 5)]));
    }

    #[test]
    #[should_panic(expected = "fault plan must cover")]
    fn fault_plan_length_checked() {
        let mut cfg = ConsensusConfig::simple(3, vec![cand(1, 0)]);
        cfg.faults.voter_crash_times.pop();
        ConsensusSim::new(cfg);
    }

    #[test]
    fn report_display() {
        let report = ConsensusSim::new(ConsensusConfig::simple(3, vec![cand(1, 0)])).run();
        assert!(
            report.to_string().contains("winner: candidate 1"),
            "{report}"
        );
    }
}
