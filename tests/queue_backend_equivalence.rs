//! Differential end-to-end test: every paper figure and every corpus
//! scatternet must reproduce unchanged on the sorted-buffer event queue.
//!
//! The heap-backed [`btgs::des::HeapEventQueue`] is the reference model;
//! the sorted buffer replaced it purely for speed. Full simulations run on
//! both queues, and the resulting reports must be **byte-identical** (the
//! full `Debug` rendering — every delay sample, ledger cell and counter —
//! not just summary statistics). The heap run goes through
//! `ScatternetSim::with_reference_queue`: the paper scenario as a
//! one-island scatternet, exactly what `PiconetSim` builds, and the corpus
//! scatternets with their bridges and relay injection.

use btgs::baseband::IdealChannel;
use btgs::core::{
    sanitizer_corpus, PaperScenario, PaperScenarioParams, PollerKind, ScatternetScenario,
};
use btgs::des::{SimDuration, SimTime};
use btgs::piconet::{RunReport, ScatternetConfig, ScatternetSim};

/// The paper scenario through `PaperScenario::run`, on the sorted buffer.
fn sorted_report(scenario: &PaperScenario, kind: PollerKind, horizon: SimTime) -> RunReport {
    scenario.run(kind, horizon).expect("scenario runs")
}

/// The same run on the heap reference: the one-island scatternet
/// `PiconetSim` wraps, built by hand so the test-only builder applies.
fn heap_report(scenario: &PaperScenario, kind: PollerKind, horizon: SimTime) -> RunReport {
    let config = ScatternetConfig {
        piconets: vec![scenario.config.clone()],
        bridges: Vec::new(),
        chains: Vec::new(),
    };
    let mut sim = ScatternetSim::new(
        config,
        vec![Box::new(scenario.poller(kind))],
        vec![Box::new(IdealChannel)],
    )
    .expect("scenario builds");
    for src in scenario.sources() {
        sim.add_source(src).expect("one source per flow");
    }
    let mut report = sim
        .with_reference_queue()
        .run(horizon)
        .expect("scenario runs");
    report.piconets.pop().expect("one island")
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
            let sorted = format!("{:#?}", sorted_report(&scenario, kind, horizon));
            let heap = format!("{:#?}", heap_report(&scenario, kind, horizon));
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
        let sorted = format!(
            "{:#?}",
            sorted_report(&scenario, PollerKind::PfpGs, horizon)
        );
        let heap = format!("{:#?}", heap_report(&scenario, PollerKind::PfpGs, horizon));
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
    let sorted = sorted_report(&scenario, PollerKind::PfpGs, horizon);
    assert!(sorted.events_processed > 90_000, "the run covers all 120 s");
    let heap = heap_report(&scenario, PollerKind::PfpGs, horizon);
    // `assert!`, not `assert_eq!`: a failure should not print two
    // multi-megabyte reports.
    assert!(
        format!("{sorted:#?}") == format!("{heap:#?}"),
        "120 s RunReport diverged between queue backends"
    );
}

#[test]
fn corpus_scatternet_reports_identical_across_backends() {
    // The three sanitizer-corpus scatternets (chain, ring, mesh): bridge
    // windows, the boundary calendar, pooled relays and their injection
    // all run on both queues.
    let horizon = SimTime::from_secs(3);
    for (label, params) in sanitizer_corpus() {
        let scenario = ScatternetScenario::build(params);
        let build = || {
            scenario
                .simulator(PollerKind::PfpGs)
                .expect("corpus scenario builds")
        };
        let sorted = build().run(horizon).expect("corpus scenario runs");
        let heap = build()
            .with_reference_queue()
            .run(horizon)
            .expect("corpus scenario runs");
        assert!(
            sorted.relays_injected > 0,
            "{label}: no relay crossed a bridge"
        );
        assert!(
            format!("{sorted:#?}") == format!("{heap:#?}"),
            "{label}: ScatternetReport diverged between queue backends"
        );
    }
}
