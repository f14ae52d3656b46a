//! Model-checker regression suite: the sound protocols must pass
//! (exhaustively at the small configurations), and the deliberately
//! weakened fixtures must be refuted with a concrete interleaving trace.
//! The weakened-barrier regressions are the checker's own canary — if a
//! future change to the memory model stops finding those
//! counterexamples, the checker has lost its teeth and these tests fail.

use btgs_analyze::model::check_scenario;
use btgs_analyze::scenarios::{engine_round, BarrierScenario};
use btgs_piconet::sync_protocol::BarrierOrderings;

const BUDGET: u64 = 200_000;

#[test]
fn sound_barrier_passes_exhaustively_at_2_and_3_threads() {
    for (n, rounds) in [(2, 1), (2, 2), (3, 1)] {
        let report = check_scenario(
            &BarrierScenario {
                n,
                rounds,
                ord: BarrierOrderings::SOUND,
                label: "sound",
            },
            BUDGET,
        );
        assert!(
            report.passed(),
            "n={n} rounds={rounds}: {:?}",
            report.failure
        );
        assert!(
            report.exhausted,
            "n={n} rounds={rounds} must be fully explored within {BUDGET}"
        );
    }
}

#[test]
fn sound_barrier_passes_bounded_at_4_threads() {
    let report = check_scenario(
        &BarrierScenario {
            n: 4,
            rounds: 1,
            ord: BarrierOrderings::SOUND,
            label: "sound",
        },
        20_000,
    );
    assert!(report.passed(), "{:?}", report.failure);
    assert_eq!(report.executions, 20_000, "budget must be spent in full");
}

/// THE regression the issue demands: weakening the waiters' generation
/// load to `Relaxed` (the classic "optimise the spin loop" mistake) must
/// produce a publish-visibility counterexample with a printed trace.
#[test]
fn weakened_spin_barrier_is_refuted_with_a_trace() {
    let report = check_scenario(
        &BarrierScenario {
            n: 2,
            rounds: 1,
            ord: BarrierOrderings::WEAK_SPIN,
            label: "weak-spin",
        },
        BUDGET,
    );
    let failure = report
        .failure
        .expect("a Relaxed spin load must lose a peer's pre-barrier publish");
    assert!(
        failure.reason.contains("publish visibility"),
        "unexpected counterexample class: {}",
        failure.reason
    );
    // The trace must show the stale read that leaked through.
    assert!(
        failure.trace.iter().any(|l| l.contains("stale")),
        "trace must pinpoint the stale read:\n{}",
        failure.trace.join("\n")
    );
}

#[test]
fn weakened_arrival_barrier_is_refuted() {
    let report = check_scenario(
        &BarrierScenario {
            n: 2,
            rounds: 1,
            ord: BarrierOrderings::WEAK_ARRIVE,
            label: "weak-arrive",
        },
        BUDGET,
    );
    assert!(
        report.failure.is_some(),
        "Relaxed arrivals must lose the releaser's view of peer publishes"
    );
}

#[test]
fn engine_round_composition_passes_exhaustively() {
    let report = check_scenario(&engine_round(2), BUDGET);
    assert!(report.passed(), "{:?}", report.failure);
    assert!(report.exhausted);
}
