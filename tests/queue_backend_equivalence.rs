//! Differential end-to-end test: every paper figure must reproduce
//! unchanged on the sorted-buffer event queue.
//!
//! The heap-backed [`btgs::des::HeapEventQueue`] is the reference model;
//! the sorted buffer replaced it purely for speed. Here full
//! [`PaperScenario`] simulations run on both backends across pollers and
//! seeds, and the resulting `RunReport`s must be **byte-identical** (the
//! full `Debug` rendering — every delay sample, ledger cell and counter —
//! not just summary statistics).

use btgs::core::{PaperScenario, PaperScenarioParams, PollerKind};
use btgs::des::{SimDuration, SimTime};
use btgs::piconet::EventQueueBackend;

fn report_bytes(
    scenario: &PaperScenario,
    kind: PollerKind,
    horizon: SimTime,
    backend: EventQueueBackend,
) -> String {
    let report = scenario
        .run_with_backend(kind, horizon, backend)
        .expect("scenario runs");
    format!("{report:#?}")
}

#[test]
fn paper_scenario_reports_identical_across_backends() {
    let horizon = SimTime::from_secs(3);
    for kind in [PollerKind::PfpGs, PollerKind::FixedGs] {
        for seed in [1u64, 7, 23, 1234] {
            let scenario = PaperScenario::build(PaperScenarioParams {
                delay_requirement: SimDuration::from_millis(40),
                seed,
                warmup: SimDuration::from_millis(500),
                include_be: true,
                ..Default::default()
            });
            let sorted = report_bytes(&scenario, kind, horizon, EventQueueBackend::Sorted);
            let heap = report_bytes(&scenario, kind, horizon, EventQueueBackend::BinaryHeap);
            assert_eq!(
                sorted, heap,
                "RunReport diverged between queue backends ({kind:?}, seed {seed})"
            );
        }
    }
}

#[test]
fn gs_only_and_tight_requirement_reports_identical() {
    // GS-only traffic exercises the idle/Idle-until paths; a tight delay
    // requirement changes the derived schedule entirely.
    let horizon = SimTime::from_secs(3);
    for (dreq_ms, include_be) in [(30u64, false), (46, false), (36, true)] {
        let scenario = PaperScenario::build(PaperScenarioParams {
            delay_requirement: SimDuration::from_millis(dreq_ms),
            seed: 5,
            warmup: SimDuration::from_millis(500),
            include_be,
            ..Default::default()
        });
        let sorted = report_bytes(
            &scenario,
            PollerKind::PfpGs,
            horizon,
            EventQueueBackend::Sorted,
        );
        let heap = report_bytes(
            &scenario,
            PollerKind::PfpGs,
            horizon,
            EventQueueBackend::BinaryHeap,
        );
        assert_eq!(
            sorted, heap,
            "RunReport diverged (Dreq {dreq_ms} ms, include_be {include_be})"
        );
    }
}

#[test]
fn long_horizon_paper_scenario_reports_identical() {
    // Two simulated minutes, far past the few seconds the cases above
    // cover: long-lived schedules, queue contents built up over ~100k
    // events and the warm-up/window arithmetic over long spans all run
    // through both backends.
    let horizon = SimTime::from_secs(120);
    let scenario = PaperScenario::build(PaperScenarioParams {
        delay_requirement: SimDuration::from_millis(40),
        seed: 11,
        warmup: SimDuration::from_millis(500),
        include_be: true,
        ..Default::default()
    });
    let sorted = scenario
        .run_with_backend(PollerKind::PfpGs, horizon, EventQueueBackend::Sorted)
        .expect("scenario runs");
    assert!(sorted.events_processed > 90_000, "the run covers all 120 s");
    let heap = report_bytes(
        &scenario,
        PollerKind::PfpGs,
        horizon,
        EventQueueBackend::BinaryHeap,
    );
    // `assert!`, not `assert_eq!`: a failure should not print two
    // multi-megabyte reports.
    assert!(
        format!("{sorted:#?}") == heap,
        "120 s RunReport diverged between queue backends"
    );
}

#[test]
fn sorted_is_the_default_backend() {
    let scenario = PaperScenario::build(PaperScenarioParams {
        delay_requirement: SimDuration::from_millis(40),
        seed: 3,
        warmup: SimDuration::from_millis(500),
        include_be: true,
        ..Default::default()
    });
    let horizon = SimTime::from_secs(2);
    let via_default = format!(
        "{:#?}",
        scenario.run(PollerKind::PfpGs, horizon).expect("runs")
    );
    let via_sorted = report_bytes(
        &scenario,
        PollerKind::PfpGs,
        horizon,
        EventQueueBackend::Sorted,
    );
    assert_eq!(via_default, via_sorted);
}
