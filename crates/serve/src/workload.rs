//! The workload catalog: named alternative-blocks a request can race.
//!
//! Each workload is a recipe for an [`AltBlock`] whose alternatives are
//! mutually exclusive ways of producing one `u64`. The request's `arg`
//! parameterizes the block (problem size or RNG seed), so repeated
//! requests explore the workload's latency distribution rather than one
//! fixed point. Sleep-based workloads wait on their [`CancelToken`]
//! ([`CancelToken::sleep`]): the decision wakes a losing sibling and a
//! deadline ends the wait of everyone in the race, when it happens — the
//! serving-layer analogue of the paper's elimination signal. The `prolog`
//! bodies compute, and hand the token to their solver, which polls it
//! every 64 steps: an eliminated clause order stops within a poll of the
//! decision instead of running its search to exhaustion.

use altx::{AltBlock, CancelToken};
use altx_bench::TimeDistribution;
use altx_des::SimRng;
use altx_prolog::parser::RawQuery;
use altx_prolog::{KnowledgeBase, Solver, Term};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A catalog entry: what a workload is and which alternatives race.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Registered name (what requests put on the wire).
    pub name: &'static str,
    /// One-line description for stats dumps.
    pub description: &'static str,
    /// The alternatives' names, in block declaration order. Interned
    /// statically so telemetry and the scheduler can index wins by
    /// `(workload index, alternative index)` with no string keys on the
    /// hot path.
    pub alt_names: &'static [&'static str],
    /// Whether a body waits on its token ([`CancelToken::sleep`]) for a
    /// time the request's `arg` decides. How long such a race holds its
    /// thread is the client's choice, not something past races measure,
    /// so the scheduler never runs one on a reactor thread however short
    /// it has measured (`CatalogStats::runs_on_shard`).
    pub blocks: bool,
}

impl WorkloadSpec {
    /// Number of alternatives the block races.
    pub fn alternatives(&self) -> usize {
        self.alt_names.len()
    }

    /// Index of an alternative by name within this workload.
    pub fn alt_index(&self, alt: &str) -> Option<usize> {
        self.alt_names.iter().position(|n| *n == alt)
    }
}

/// Every workload the daemon serves.
pub const CATALOG: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "trivial",
        description: "two instant alternatives; measures pure service overhead",
        alt_names: &["instant-a", "instant-b"],
        blocks: false,
    },
    WorkloadSpec {
        name: "lognormal",
        description: "three heavy-tailed (lognormal) alternatives; racing wins",
        alt_names: &["draw-0", "draw-1", "draw-2"],
        blocks: true,
    },
    WorkloadSpec {
        name: "bimodal",
        description: "two usually-fast/sometimes-slow alternatives",
        alt_names: &["draw-0", "draw-1"],
        blocks: true,
    },
    WorkloadSpec {
        name: "sleep",
        description: "one alternative sleeping arg milliseconds; deadline fodder",
        alt_names: &["sleeper"],
        blocks: true,
    },
    WorkloadSpec {
        name: "prolog",
        description: "or-parallel countdown query raced against a reordered program",
        alt_names: &["clause-order-as-written", "clause-order-reversed"],
        blocks: false,
    },
];

/// Looks up a catalog entry by name.
pub fn spec(name: &str) -> Option<&'static WorkloadSpec> {
    CATALOG.iter().find(|w| w.name == name)
}

/// Looks up a workload's catalog index by name — the interned key the
/// scheduler and telemetry use in place of the string.
pub fn index_of(name: &str) -> Option<usize> {
    CATALOG.iter().position(|w| w.name == name)
}

/// Builds the alternative block for `name`, parameterized by `arg`.
/// Returns `None` for unregistered names.
pub fn build(name: &str, arg: u64) -> Option<AltBlock<u64>> {
    build_pruned(name, arg, None)
}

/// Like [`build`], but alternatives whose `skip` entry is `true` get an
/// instantly-failing **stub** in place of their real body — the
/// scheduler decided they are not worth constructing (near-zero win
/// rate; see `HedgePolicy::plan_pruned`). The stub preserves the
/// alternative's index and name, so launch offsets, winner accounting,
/// and the engine's suppression counting line up with the full block;
/// only the body (and whatever it would have captured or computed at
/// construction time) is skipped. Workloads that pre-draw per-
/// alternative randomness still advance the stream for skipped
/// entries, so the surviving alternatives replay exactly the values
/// they would see in an unpruned build of the same `arg`.
pub fn build_pruned(name: &str, arg: u64, skip: Option<&[bool]>) -> Option<AltBlock<u64>> {
    // The alternatives are named from the catalog entry: the names the
    // scheduler and telemetry index by are the ones the block carries,
    // and nothing is formatted per request.
    let names = spec(name)?.alt_names;
    match name {
        "trivial" => Some(trivial(names, arg, skip)),
        "lognormal" => Some(sampled(
            names,
            arg,
            TimeDistribution::LogNormal {
                median_ms: 3.0,
                sigma: 1.0,
            },
            skip,
        )),
        "bimodal" => Some(sampled(
            names,
            arg,
            TimeDistribution::Bimodal {
                fast_ms: 1.0,
                slow_ms: 20.0,
                p_fast: 0.7,
            },
            skip,
        )),
        "sleep" => Some(sleep_block(names, arg)),
        "prolog" => Some(prolog(names, arg, skip)),
        _ => None,
    }
}

/// Whether alternative `i` should be built for real. Out-of-range mask
/// entries (a catalog/spec mismatch) fail safe: build everything.
fn wanted(skip: Option<&[bool]>, i: usize) -> bool {
    !skip.is_some_and(|s| s.get(i).copied().unwrap_or(false))
}

/// Two alternatives that answer immediately. The race is decided by
/// scheduler timing alone; the value is `arg` either way, mirroring the
/// paper's requirement that alternatives be observably interchangeable.
fn trivial(names: &[&'static str], arg: u64, skip: Option<&[bool]>) -> AltBlock<u64> {
    let mut block = AltBlock::new();
    for (i, &name) in names.iter().enumerate() {
        block = if wanted(skip, i) {
            block.alternative(name, move |_ws, _t| Some(arg))
        } else {
            block.alternative(name, |_ws, _t| None)
        };
    }
    block
}

/// One alternative per name, each sleeping a time drawn from `dist` (seeded by
/// `arg`, so the same request replays the same race). Each stamps its
/// index into the workspace before succeeding — losing writes must
/// never survive, and the engine's COW containment guarantees it.
fn sampled(
    names: &[&'static str],
    arg: u64,
    dist: TimeDistribution,
    skip: Option<&[bool]>,
) -> AltBlock<u64> {
    let mut rng = SimRng::seed_from_u64(arg.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA17B);
    let mut block = AltBlock::new();
    for (i, &name) in names.iter().enumerate() {
        // Drawn even for skipped alternatives: the per-arg stream must
        // stay aligned so the kept alternatives replay their usual times.
        let ms = dist.sample(&mut rng).as_millis_f64();
        block = if wanted(skip, i) {
            block.alternative(name, move |ws, token: &CancelToken| {
                if !token.sleep(Duration::from_secs_f64(ms / 1_000.0)) {
                    return None;
                }
                ws.write(0, &[i as u8 + 1]);
                Some(ms.ceil() as u64)
            })
        } else {
            block.alternative(name, |_ws, _t| None)
        };
    }
    block
}

/// One alternative sleeping exactly `arg` milliseconds — the simplest
/// way to exercise deadlines: a deadline shorter than `arg` must come
/// back `DeadlineExceeded`, never a value.
fn sleep_block(names: &[&'static str], arg: u64) -> AltBlock<u64> {
    AltBlock::new().alternative(names[0], move |_ws, token: &CancelToken| {
        token.sleep(Duration::from_millis(arg)).then_some(arg)
    })
}

/// The canned knowledge base for the `prolog` workload. Parsed once;
/// requests share it read-only — the paper's "overwhelming
/// preponderance of read references" case.
fn prolog_kb() -> &'static (KnowledgeBase, KnowledgeBase) {
    static KB: OnceLock<(KnowledgeBase, KnowledgeBase)> = OnceLock::new();
    KB.get_or_init(|| {
        // Left program explores a dead-end branch first; the reordered
        // program reaches the witness clause immediately. Racing the two
        // clause orders is or-parallelism at the strategy level.
        let slow_first = KnowledgeBase::parse(
            "countdown(0).
             countdown(N) :- N > 0, M is N - 1, countdown(M).
             q(D) :- countdown(D), fail.
             q(_).",
        )
        .expect("canned program parses");
        let fast_first = KnowledgeBase::parse(
            "countdown(0).
             countdown(N) :- N > 0, M is N - 1, countdown(M).
             q(_).
             q(D) :- countdown(D), fail.",
        )
        .expect("canned program parses");
        (slow_first, fast_first)
    })
}

/// Races the same query under two clause orders; the winner is whichever
/// strategy proves `q/1` first. Each solver polls the race's token
/// ([`Solver::cancel`], every 64 steps), so the loser stops within a
/// poll of the decision and a deadline ends both; a search cut short
/// proves nothing and fails its guard. The query size is bounded all the
/// same, so a body nobody eliminates is short-lived too. The query is
/// built as a term, once per request, and both clause orders share it:
/// no body formats or parses text.
fn prolog(names: &[&'static str], arg: u64, skip: Option<&[bool]>) -> AltBlock<u64> {
    let depth = 50 + arg % 450;
    let query = Arc::new(RawQuery {
        goals: vec![Term::compound("q", vec![Term::Int(depth as i64)])],
        var_names: HashMap::new(),
        nvars: 0,
    });
    let (slow_first, fast_first) = prolog_kb();
    let mut block = AltBlock::new();
    for (i, (&name, kb)) in names.iter().zip([slow_first, fast_first]).enumerate() {
        block = if wanted(skip, i) {
            let query = Arc::clone(&query);
            block.alternative(name, move |_ws, token: &CancelToken| {
                let mut solver = Solver::new(kb);
                solver.cancel = Some(token.clone());
                let sols = solver.solve(&query, 1);
                (!sols.is_empty()).then(|| solver.steps())
            })
        } else {
            block.alternative(name, |_ws, _t| None)
        };
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use altx::engine::ThreadedEngine;
    use altx::Engine;
    use altx_pager::{AddressSpace, PageSize};
    use std::time::Instant;

    fn ws() -> AddressSpace {
        AddressSpace::zeroed(4096, PageSize::K4)
    }

    #[test]
    fn catalog_names_all_build() {
        for spec in CATALOG {
            let block = build(spec.name, 7).expect("catalog entry builds");
            assert_eq!(block.len(), spec.alternatives(), "{}", spec.name);
            for (i, alt) in block.alternatives().iter().enumerate() {
                assert_eq!(
                    alt.name(),
                    spec.alt_names[i],
                    "{}: interned alternative names match the block",
                    spec.name
                );
                assert_eq!(spec.alt_index(alt.name()), Some(i));
            }
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(build("no-such-workload", 0).is_none());
        assert!(spec("no-such-workload").is_none());
        assert!(index_of("no-such-workload").is_none());
    }

    #[test]
    fn index_of_matches_catalog_order() {
        for (i, w) in CATALOG.iter().enumerate() {
            assert_eq!(index_of(w.name), Some(i));
        }
    }

    #[test]
    fn trivial_returns_arg() {
        let r = ThreadedEngine::new().execute(&build("trivial", 42).unwrap(), &mut ws());
        assert_eq!(r.value, Some(42));
    }

    #[test]
    fn prolog_finds_the_witness() {
        let r = ThreadedEngine::new().execute(&build("prolog", 3).unwrap(), &mut ws());
        assert!(r.succeeded());
    }

    /// The values the benchmark's reply check recomputes: at every depth a
    /// request can ask for, the dead-end order proves `q/1` in
    /// 5·depth + 8 steps and the witness-first order in 2.
    #[test]
    fn prolog_bodies_return_their_step_counts_at_every_depth() {
        for depth in 50..=499u64 {
            let block = build("prolog", depth - 50).unwrap();
            let [dead_end, witness_first] = block.alternatives() else {
                panic!("two clause orders");
            };
            assert_eq!(
                dead_end.run(&mut ws(), &CancelToken::new()),
                Some(5 * depth + 8),
                "depth {depth}"
            );
            assert_eq!(
                witness_first.run(&mut ws(), &CancelToken::new()),
                Some(2),
                "depth {depth}"
            );
        }
    }

    /// Runs `body` while another thread — released together with it
    /// and spinning `after` first, so the body is well under way —
    /// cancels `token`.
    fn cancelled_after<T>(token: &CancelToken, after: Duration, body: impl FnOnce() -> T) -> T {
        let both = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                both.wait();
                let released = Instant::now();
                while released.elapsed() < after {
                    std::hint::spin_loop();
                }
                token.cancel();
            });
            both.wait();
            body()
        })
    }

    /// An eliminated computation stops: the dead-end clause order, run
    /// alone and cancelled from another thread while it searches, gives
    /// up within a poll of the cancel instead of running to exhaustion.
    /// Whether a given cancel lands mid-search is the scheduler's, so
    /// each attempt asserts what must hold wherever it landed and the
    /// test asks that some attempt out of many was cut mid-search.
    #[test]
    fn an_eliminated_dead_end_stops_before_it_is_exhausted() {
        let arg = 449; // depth 499: the longest dead end a request can ask for
        let (dead_end_kb, _) = prolog_kb();
        let mut alone = Solver::new(dead_end_kb);
        assert_eq!(alone.solve_str("q(499)", 1).unwrap().len(), 1);
        let full = alone.steps();
        let dead_end = build("prolog", arg).unwrap().alternatives()[0].clone();
        assert_eq!(
            dead_end.run(&mut ws(), &CancelToken::new()),
            Some(full),
            "uncancelled, the body is that search to its end"
        );

        let after = Duration::from_micros(20);
        let cut_mid_search = (0..500).any(|_| {
            let token = CancelToken::new();
            let mut solver = Solver::new(dead_end_kb);
            solver.cancel = Some(token.clone());
            let sols = cancelled_after(&token, after, || solver.solve_str("q(499)", 1).unwrap());
            if sols.is_empty() {
                assert!(solver.truncated() && solver.steps() < full);
            } else {
                assert_eq!(solver.steps(), full, "the cancel came too late to matter");
            }
            sols.is_empty() && solver.steps() > 0
        });
        assert!(
            cut_mid_search,
            "no cancel in 500 stopped a search under way"
        );

        // The workload's body hands its solver the race's token: at the
        // parent of this change it looked once, before it started.
        let stopped = (0..500).any(|_| {
            let token = CancelToken::new();
            let answer = cancelled_after(&token, after, || dead_end.run(&mut ws(), &token));
            assert!(answer.is_none() || answer == Some(full), "{answer:?}");
            answer.is_none()
        });
        assert!(stopped, "the body ran to its end under 500 cancels");
    }

    #[test]
    fn sleep_workload_is_cancellable() {
        let token = CancelToken::new();
        token.cancel();
        let start = Instant::now();
        let block = build("sleep", 5_000).unwrap();
        let mut space = ws();
        let r = ThreadedEngine::new().execute_with_token(&block, &mut space, &token);
        assert!(!r.succeeded());
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "cancel must cut the sleep short"
        );
    }
}
