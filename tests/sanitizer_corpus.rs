//! The clean half of the sanitizer corpus: zero findings, unchanged
//! report bytes.
//!
//! The clean engine must produce zero causality findings across every
//! corpus topology (chain, ring, mesh) at 1, 2 and 4 threads, and
//! attaching the sanitizer must not move a single report byte — the
//! instrumentation observes the simulation, never steers it. The
//! seeded-mutation half (every broken engine variant is caught and
//! localized) lives in `crates/piconet/tests/sanitizer_mutations.rs`.
//!
//! The corpus scenarios come from [`btgs::core::sanitizer_corpus`], the
//! same trio the `btgs-analyze -- --bisect` CLI and the mutation tests
//! use.

mod common;

use btgs::core::{sanitizer_corpus, PollerKind, ScatternetScenario, ScatternetScenarioParams};
use btgs::des::SimTime;
use btgs::piconet::ScatternetSim;
use common::report_digest;

const HORIZON: SimTime = SimTime::from_millis(1500);

fn build_sim(params: ScatternetScenarioParams, threads: usize) -> ScatternetSim {
    ScatternetScenario::build(params)
        .simulator(PollerKind::PfpGs)
        .expect("corpus scenario builds")
        .with_threads(threads)
}

#[test]
fn clean_engine_has_zero_findings_across_corpus() {
    for (label, params) in sanitizer_corpus() {
        for threads in [1usize, 2, 4] {
            let run = build_sim(params, threads)
                .run_sanitized(HORIZON)
                .expect("clean corpus run succeeds");
            assert!(
                run.sanitizer.clean(),
                "{label} at {threads} threads: clean engine produced findings:\n{:#?}",
                run.sanitizer.findings
            );
            assert!(
                run.report.is_some(),
                "{label} at {threads} threads: clean sanitized run must keep its report"
            );
            assert!(
                run.sanitizer.events_checked > 0,
                "{label}: sanitizer observed no events — the hook seam is dead"
            );
            assert!(
                run.sanitizer.relays_tracked > 0,
                "{label}: sanitizer tracked no relays — corpus traffic never bridges"
            );
            // Conservation, now confirmable from the report alone: every
            // staged relay was injected or is still pooled at the horizon.
            let report = run.report.as_ref().expect("checked above");
            assert!(
                report.relays_injected <= report.relays_staged,
                "{label}: more relays injected than staged"
            );
            assert_eq!(
                report.relays_staged,
                report.relays_injected + run.sanitizer.relays_leftover,
                "{label} at {threads} threads: staged relays neither injected \
                 nor pooled at the horizon"
            );
        }
    }
}

#[test]
fn sanitizer_leaves_report_bytes_unchanged() {
    for (label, params) in sanitizer_corpus() {
        let plain = build_sim(params, 2).run(HORIZON).expect("plain run");
        let sanitized = build_sim(params, 2)
            .run_sanitized(HORIZON)
            .expect("sanitized run");
        assert_eq!(
            report_digest(&plain),
            report_digest(sanitized.report.as_ref().expect("clean run keeps report")),
            "{label}: enabling the sanitizer moved report bytes"
        );
    }
}

#[test]
fn long_horizon_corpus_is_thread_order_and_sanitizer_invariant() {
    // Two simulated minutes per scenario: the determinism invariants must
    // hold far past the short horizons the rest of the corpus runs.
    let horizon = SimTime::from_secs(120);
    for (label, params) in sanitizer_corpus() {
        let reference = build_sim(params, 1).run(horizon).expect("1-thread run");
        let reference = report_digest(&reference);
        let two = build_sim(params, 2).run(horizon).expect("2-thread run");
        assert_eq!(
            report_digest(&two),
            reference,
            "{label}: 2 threads moved report bytes"
        );
        let shuffled = build_sim(params, 2)
            .with_island_shuffle(7)
            .run(horizon)
            .expect("shuffled run");
        assert_eq!(
            report_digest(&shuffled),
            reference,
            "{label}: the island shuffle moved report bytes"
        );
        let sanitized = build_sim(params, 2)
            .run_sanitized(horizon)
            .expect("sanitized run");
        assert!(
            sanitized.sanitizer.clean(),
            "{label}: findings over the long horizon:\n{:#?}",
            sanitized.sanitizer.findings
        );
        let report = sanitized.report.as_ref().expect("clean run keeps report");
        assert_eq!(
            report_digest(report),
            reference,
            "{label}: the sanitizer moved report bytes"
        );
    }
}
