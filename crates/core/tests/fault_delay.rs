//! An injected delay is a stall the race can still end: the `Delay`
//! fault waits on the token of the site it stalls, so a delayed loser
//! is woken by the decision instead of holding the race — and the
//! thread running it — for the whole delay.
//!
//! Fault plans are process-global, so this lives in a test binary of
//! its own.

use altx::engine::ThreadedEngine;
use altx::faults::{self, Fault, FaultConfig, FaultPlan};
use altx::{AddressSpace, AltBlock, Engine, PageSize};
use std::sync::Arc;
use std::time::Duration;

/// A plan whose first visit of `engine.alt.slow` is a delay of at least
/// two seconds and whose first visit of `engine.alt.fast` is no fault.
/// Decisions are a pure function of (seed, site, visit), so the search
/// runs on throw-away plans and the plan returned is fresh.
fn plan_delaying_only_the_loser() -> Arc<FaultPlan> {
    let cfg = |seed| FaultConfig {
        p_delay: 0.5,
        max_delay: Duration::from_secs(4),
        ..FaultConfig::quiet(seed)
    };
    let seed = (0..10_000u64)
        .find(|&seed| {
            let probe = FaultPlan::new(cfg(seed));
            probe.decide("engine.alt.fast").is_none()
                && matches!(
                    probe.decide("engine.alt.slow"),
                    Some(Fault::Delay(d)) if d >= Duration::from_secs(2)
                )
        })
        .expect("one seed in eight fits");
    FaultPlan::new(cfg(seed))
}

#[test]
fn a_delayed_loser_does_not_hold_a_decided_race() {
    let plan = plan_delaying_only_the_loser();
    let _installed = faults::install_guarded(plan.clone());

    // The winner's body waits until the loser's thread has gone through
    // the fault site (`decide` counts the injection before the delay
    // starts), then wins a millisecond later.
    let seen = plan.clone();
    let block: AltBlock<&'static str> = AltBlock::new()
        .alternative("fast", move |_w, _t| {
            while seen.injected_of(Fault::Delay(Duration::ZERO)) == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(1));
            Some("fast")
        })
        .alternative("slow", |_w, _t| Some("slow"));

    let mut ws = AddressSpace::zeroed(64, PageSize::new(16));
    let r = ThreadedEngine::new().execute(&block, &mut ws);

    assert_eq!(r.value, Some("fast"));
    assert_eq!(plan.injected_total(), 1, "exactly the loser's delay fired");
    assert!(
        r.wall < Duration::from_millis(200),
        "the race sat out an injected delay of at least 2 s: wall {:?}",
        r.wall
    );
}
