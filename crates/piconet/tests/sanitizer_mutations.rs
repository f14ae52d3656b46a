//! The seeded-mutation corpus: proof that the causality sanitizer and the
//! divergence bisector have teeth.
//!
//! Every [`EngineMutation`] — a deliberately broken engine variant behind
//! a test-only hook — must be (a) *caught* by the sanitizer with the
//! expected check on at least one corpus scenario, and (b) *localized* by
//! the bisector to a first diverging event against the clean engine on
//! that same scenario. The clean half of the corpus (zero findings,
//! unchanged report bytes) lives in the root `tests/sanitizer_corpus.rs`.
//!
//! The corpus scenarios come from [`btgs_core::sanitizer_corpus`], the
//! same trio the `btgs-analyze -- --bisect` CLI and CI's sanitized smoke
//! run use.

use btgs_core::{sanitizer_corpus, PollerKind, ScatternetScenario, ScatternetScenarioParams};
use btgs_des::SimTime;
use btgs_piconet::{bisect_runs, EngineMutation, SanitizerCheck, ScatternetSim};

const HORIZON: SimTime = SimTime::from_millis(1500);

fn build_sim(params: ScatternetScenarioParams, threads: usize) -> ScatternetSim {
    ScatternetScenario::build(params)
        .simulator(PollerKind::PfpGs)
        .expect("corpus scenario builds")
        .with_threads(threads)
}

/// The sanitizer check each mutation must trip.
fn expected_check(m: EngineMutation) -> SanitizerCheck {
    match m {
        EngineMutation::BoundaryOffByOne => SanitizerCheck::PhaseBoundary,
        EngineMutation::RelayBehindClock => SanitizerCheck::LookaheadSafety,
        EngineMutation::UnsortedStagingDrain => SanitizerCheck::InjectionOrder,
        EngineMutation::DroppedRelay => SanitizerCheck::Conservation,
        EngineMutation::DuplicatedRelay => SanitizerCheck::Conservation,
    }
}

#[test]
fn every_mutation_is_caught_and_bisector_localized() {
    for mutation in EngineMutation::ALL {
        let want = expected_check(mutation);
        let mut caught_on: Option<&'static str> = None;
        for (label, params) in sanitizer_corpus() {
            let run = build_sim(params, 1)
                .with_mutation(mutation)
                .run_sanitized(HORIZON)
                .expect("mutated corpus run completes");
            if run.sanitizer.clean() {
                continue;
            }
            assert!(
                run.sanitizer.findings.iter().any(|f| f.check == want),
                "{label}: mutation {} caught, but not by the {want} check:\n{:#?}",
                mutation.name(),
                run.sanitizer.findings
            );
            assert!(
                run.report.is_none(),
                "{label}: a tripped sanitized run must withhold its report"
            );

            // The bisector must localize the same break without any
            // sanitizer attached: clean vs mutated traces diverge at a
            // concrete first event.
            let bisect = bisect_runs(
                &|| build_sim(params, 1),
                &|| build_sim(params, 1).with_mutation(mutation),
                HORIZON,
                8,
            )
            .expect("bisection runs");
            let div = bisect.divergence.as_ref().unwrap_or_else(|| {
                panic!(
                    "{label}: mutation {} tripped the sanitizer but left \
                     byte-identical traces",
                    mutation.name()
                )
            });
            let rendered = bisect.render();
            assert!(
                rendered.contains("first divergence"),
                "render must name the divergence:\n{rendered}"
            );
            assert!(
                !div.window_a.is_empty() || !div.window_b.is_empty(),
                "{label}: divergence window is empty:\n{rendered}"
            );
            caught_on = Some(label);
            break;
        }
        assert!(
            caught_on.is_some(),
            "mutation {} was not caught on any corpus scenario",
            mutation.name()
        );
    }
}

/// Runs every corpus scenario sanitized at `threads` with `mutation`
/// seeded, and returns the label of the first scenario whose findings
/// include the mutation's expected check.
fn caught_on(mutation: EngineMutation, threads: usize) -> Option<&'static str> {
    let want = expected_check(mutation);
    sanitizer_corpus().into_iter().find_map(|(label, params)| {
        let run = build_sim(params, threads)
            .with_mutation(mutation)
            .run_sanitized(HORIZON)
            .expect("mutated corpus run completes");
        let caught = run.sanitizer.findings.iter().any(|f| f.check == want);
        assert!(
            caught || run.sanitizer.clean(),
            "{label} at {threads} threads: mutation {} caught, but not by the \
             {want} check:\n{:#?}",
            mutation.name(),
            run.sanitizer.findings
        );
        caught.then_some(label)
    })
}

#[test]
fn mutations_are_caught_under_parallel_execution_too() {
    // At 4 threads the pool drain, the deal and the owners' injections
    // (where the lookahead check runs) are spread across participants:
    // every mutation must still trip its own check on some scenario.
    for mutation in EngineMutation::ALL {
        assert!(
            caught_on(mutation, 4).is_some(),
            "mutation {} was not caught by the {} check at 4 threads",
            mutation.name(),
            expected_check(mutation)
        );
    }
}

#[test]
fn mutations_never_reach_plain_runs() {
    // A seeded mutation applies to sanitized and traced runs only: a
    // plain run with one set must be byte-identical to the clean run,
    // engine counters included.
    for (label, params) in sanitizer_corpus() {
        let clean = build_sim(params, 2).run(HORIZON).expect("clean run");
        let clean = format!("{clean:?}");
        for mutation in EngineMutation::ALL {
            let plain = build_sim(params, 2)
                .with_mutation(mutation)
                .run(HORIZON)
                .expect("plain run with a mutation set");
            assert!(
                format!("{plain:?}") == clean,
                "{label}: mutation {} reached a plain run",
                mutation.name()
            );
        }
    }
}
