//! Engine 3 — the divergence bisector CLI surface.
//!
//! When two engine configurations that must be byte-identical (threads
//! 1 vs N, a shuffled claim order) ever disagree, a
//! failing report-digest assertion says *that* they diverged, not
//! *where*. This module wraps [`btgs_piconet::bisect_runs`] — full-trace
//! rolling hashes per island, binary search to the first diverging event,
//! a re-run capturing the aligned context window — behind the
//! `btgs-analyze -- --bisect` flag, running both configurations over a
//! scenario from the shared [`sanitizer_corpus`] (the same trio the
//! mutation-corpus tests and CI's sanitized smoke prove the engine on).
//!
//! The baseline is always the default engine at one thread; `--vs`
//! specifies the configuration under suspicion, e.g.
//! `threads=4|shuffle=7`.

use btgs_core::{sanitizer_corpus, PollerKind, ScatternetScenario, ScatternetScenarioParams};
use btgs_des::SimTime;
use btgs_piconet::{bisect_runs, BisectReport, ScatternetSim};

/// One engine configuration of a bisection, parsed from a `--vs` spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BisectSpec {
    /// Worker thread count (`threads=N`).
    pub threads: usize,
    /// Deterministic island claim-order shuffle (`shuffle=SEED`).
    pub shuffle: Option<u64>,
}

impl BisectSpec {
    /// The reference configuration every bisection compares against: the
    /// default engine on one thread.
    pub fn baseline() -> BisectSpec {
        BisectSpec {
            threads: 1,
            shuffle: None,
        }
    }

    /// Parses a `|`-separated spec: `threads=4`, `shuffle=7`, in either
    /// combination. Unset knobs keep the baseline defaults.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<BisectSpec, String> {
        let mut out = BisectSpec::baseline();
        for clause in spec.split('|').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("bad --vs clause `{clause}`: expected key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "threads" => {
                    out.threads = value
                        .parse()
                        .map_err(|_| format!("bad thread count `{value}`"))?;
                }
                "shuffle" => {
                    out.shuffle = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?);
                }
                other => {
                    return Err(format!(
                        "unknown --vs knob `{other}`; known: threads shuffle"
                    ))
                }
            }
        }
        Ok(out)
    }

    fn build(self, params: ScatternetScenarioParams) -> ScatternetSim {
        let mut sim = ScatternetScenario::build(params)
            .simulator(PollerKind::PfpGs)
            .expect("corpus scenario builds")
            .with_threads(self.threads);
        if let Some(seed) = self.shuffle {
            sim = sim.with_island_shuffle(seed);
        }
        sim
    }
}

/// Events of context captured on each side of a divergence.
const CONTEXT_EVENTS: u64 = 8;

/// Runs the bisection: baseline engine vs `vs` over the corpus scenario
/// named `topology` (`chain`, `ring` or `mesh`), both to `horizon`.
///
/// # Errors
///
/// Returns a description for an unknown topology label, and propagates
/// engine run errors.
pub fn run_bisect(
    topology: &str,
    vs: &BisectSpec,
    horizon: SimTime,
) -> Result<BisectReport, String> {
    let corpus = sanitizer_corpus();
    let (_, params) = corpus
        .iter()
        .find(|(label, _)| *label == topology)
        .ok_or_else(|| {
            let known: Vec<&str> = corpus.iter().map(|(l, _)| *l).collect();
            format!(
                "unknown topology `{topology}`; corpus has: {}",
                known.join(" ")
            )
        })?;
    let params = *params;
    bisect_runs(
        &|| BisectSpec::baseline().build(params),
        &|| vs.build(params),
        horizon,
        CONTEXT_EVENTS,
    )
    .map_err(|e| format!("bisection run failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let spec = BisectSpec::parse("threads=4|shuffle=7").unwrap();
        assert_eq!(
            spec,
            BisectSpec {
                threads: 4,
                shuffle: Some(7),
            }
        );
        assert_eq!(BisectSpec::parse("").unwrap(), BisectSpec::baseline());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(BisectSpec::parse("threads")
            .unwrap_err()
            .contains("key=value"));
        assert!(BisectSpec::parse("threads=many")
            .unwrap_err()
            .contains("thread count"));
        for knob in ["turbo=on", "widening=off", "batching=off"] {
            assert!(BisectSpec::parse(knob).unwrap_err().contains("unknown"));
        }
    }

    #[test]
    fn unknown_topology_is_an_error() {
        let err = run_bisect(
            "torus",
            &BisectSpec::parse("threads=2").unwrap(),
            SimTime::from_millis(100),
        )
        .unwrap_err();
        assert!(err.contains("chain"), "{err}");
    }

    #[test]
    fn clean_engine_configurations_do_not_diverge() {
        let report = run_bisect(
            "chain",
            &BisectSpec::parse("threads=2|shuffle=3").unwrap(),
            SimTime::from_millis(900),
        )
        .unwrap();
        assert!(
            report.divergence.is_none(),
            "clean configurations diverged:\n{}",
            report.render()
        );
        assert_eq!(report.events_a, report.events_b);
        assert!(report.events_a > 0, "traces must carry events");
    }
}
