//! The checked protocol scenarios.
//!
//! Each scenario drives the **actual** engine protocol functions —
//! [`barrier_wait`] and [`block_bounds`] from
//! [`btgs_piconet::sync_protocol`] — against the model checker's memory,
//! so a pass certifies the code the scatternet engine runs, not a
//! transcription of it. The suite covers:
//!
//! * the [`SpinBarrier`](btgs_piconet) generation protocol at 2–4
//!   threads, over one or two rounds, asserting **no lost wakeup**
//!   (no schedule deadlocks), **no generation skip** (every crossing
//!   observes exactly entry + 1) and **publish visibility** (a value
//!   stored before any thread's crossing is read by every thread after
//!   it);
//! * the same barrier with the deliberately weakened
//!   [`BarrierOrderings::WEAK_SPIN`] / [`BarrierOrderings::WEAK_ARRIVE`]
//!   orderings, which the checker must *refute* — the regression tests
//!   pin those counterexamples so the checker can never silently lose
//!   its teeth;
//! * a miniature engine round — the coordinator publishes the round
//!   bound, the barrier, every participant runs its fixed
//!   [`block_bounds`] block, the barrier — the composition the real
//!   `run_phases` executes each round. It asserts every participant sees
//!   the bound and the blocks partition the islands. Visibility of a
//!   publish across a crossing is the barrier scenarios' check, and the
//!   weakened barrier fixtures keep the checker's teeth.

use crate::model::{check_scenario, ModelEnv, ModelReport, Scenario};
use btgs_piconet::sync_protocol::{barrier_wait, block_bounds, BarrierOrderings, SyncCell};
use std::sync::atomic::Ordering;

/// Modeled location of the barrier's arrival count.
const COUNT: usize = 0;
/// Modeled location of the barrier's generation word.
const GEN: usize = 1;
/// First per-thread data location (one per thread follows).
const DATA: usize = 2;

/// The value thread `t` publishes before crossing in round `r`.
fn secret(r: u64, t: usize) -> u64 {
    100 * (r + 1) + t as u64
}

/// The barrier protocol under a choice of orderings.
pub struct BarrierScenario {
    /// Thread count (2–4).
    pub n: usize,
    /// Barrier crossings per thread (1–2; two rounds exercise the
    /// count-reset race between generations).
    pub rounds: u64,
    /// The orderings to run — [`BarrierOrderings::SOUND`] or a weakened
    /// fixture.
    pub ord: BarrierOrderings,
    /// Display label for the report.
    pub label: &'static str,
}

impl Scenario for BarrierScenario {
    fn name(&self) -> String {
        format!(
            "barrier[{}] n={} rounds={}",
            self.label, self.n, self.rounds
        )
    }

    fn threads(&self) -> usize {
        self.n
    }

    fn locations(&self) -> usize {
        DATA + self.n
    }

    fn run(&self, env: &ModelEnv<'_>) {
        let count = env.cell(COUNT);
        let generation = env.cell(GEN);
        let mine = env.cell(DATA + env.t);
        for r in 0..self.rounds {
            // Publish, then cross: a plain (relaxed-modeled) store the
            // barrier must make visible to everyone on the far side.
            // ord: modeled non-atomic publish — the barrier's job, not
            // the store's, is to order this.
            mine.store(secret(r, env.t), Ordering::Relaxed);
            let g = barrier_wait(env, &count, &generation, self.n as u64, &self.ord);
            env.record(g);
            for s in 0..self.n {
                if s != env.t {
                    // Adversarial stale read of the peer's publish:
                    // visibility must come from the crossing alone.
                    env.record(env.load_oldest(DATA + s));
                }
            }
        }
    }

    fn check(&self, records: &[Vec<u64>]) -> Result<(), String> {
        for (t, rec) in records.iter().enumerate() {
            let per_round = 1 + (self.n - 1);
            if rec.len() != per_round * self.rounds as usize {
                return Err(format!(
                    "t{t} recorded {} values, expected {} (incomplete crossing)",
                    rec.len(),
                    per_round * self.rounds as usize
                ));
            }
            for r in 0..self.rounds {
                let base = r as usize * per_round;
                let g = rec[base];
                if g != r + 1 {
                    return Err(format!(
                        "generation skip: t{t} cleared round {r} at generation {g}, \
                         expected {}",
                        r + 1
                    ));
                }
                let mut i = base + 1;
                for s in 0..self.n {
                    if s == t {
                        continue;
                    }
                    let got = rec[i];
                    // The crossing guarantees visibility of round r's
                    // publish; a *later* round's value is legal (the
                    // peer may already have raced ahead and overwritten
                    // its cell). Only older values betray a lost
                    // synchronisation.
                    let current_or_later = (r..self.rounds).any(|r2| got == secret(r2, s));
                    if !current_or_later {
                        return Err(format!(
                            "publish visibility: after round {r}, t{t} read t{s}'s \
                             cell as {got}, expected at least round {r}'s publish \
                             {} — the crossing did not synchronise",
                            secret(r, s)
                        ));
                    }
                    i += 1;
                }
            }
        }
        Ok(())
    }
}

/// Modeled location of the round-bound word in [`EngineRoundScenario`]
/// (after the barrier's two words).
const BOUND: usize = 2;
/// The round bound the coordinator publishes.
const ROUND_BOUND: u64 = 7;
/// Tag on a thread's record of an island it ran.
const RAN: u64 = 1000;

/// A miniature `run_phases` round. Thread 0 is the coordinator: it
/// publishes the round bound and crosses the barrier. Every thread then
/// reads the bound, runs its fixed block of islands — cut by the real
/// [`block_bounds`] from `weights` — and crosses again. This is the exact
/// composition the engine relies on: the first crossing must carry the
/// bound to every participant, and the blocks must give every island
/// exactly one owner.
pub struct EngineRoundScenario {
    /// Participants, the coordinator included (2–3).
    pub threads: usize,
    /// One weight (flow count) per island, in island order.
    pub weights: Vec<usize>,
}

impl Scenario for EngineRoundScenario {
    fn name(&self) -> String {
        format!(
            "engine-round threads={} islands={}",
            self.threads,
            self.weights.len()
        )
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn locations(&self) -> usize {
        BOUND + 1
    }

    fn run(&self, env: &ModelEnv<'_>) {
        let count = env.cell(COUNT);
        let generation = env.cell(GEN);
        let bound = env.cell(BOUND);
        let cross = || {
            barrier_wait(
                env,
                &count,
                &generation,
                self.threads as u64,
                &BarrierOrderings::SOUND,
            )
        };
        if env.t == 0 {
            // ord: Release — the production ordering of the engine's
            // round publication (scatternet.rs run_phases).
            bound.store(ROUND_BOUND, Ordering::Release);
        }
        cross();
        // ord: Acquire — the production ordering of the workers' bound
        // read (pairs with the coordinator's Release publish).
        let b = bound.load(Ordering::Acquire);
        env.record(b);
        let blocks = block_bounds(&self.weights, self.threads);
        for i in blocks[env.t]..blocks[env.t + 1] {
            env.record(RAN + i as u64);
        }
        cross();
    }

    fn check(&self, records: &[Vec<u64>]) -> Result<(), String> {
        let islands = self.weights.len();
        let mut owners: Vec<Option<usize>> = vec![None; islands];
        for (t, rec) in records.iter().enumerate() {
            let Some((&bound, rest)) = rec.split_first() else {
                return Err(format!("t{t} recorded nothing"));
            };
            if bound != ROUND_BOUND {
                return Err(format!(
                    "t{t} read round bound {bound}, expected {ROUND_BOUND} — the \
                     crossing lost the coordinator's publish"
                ));
            }
            for &r in rest {
                let i = (r - RAN) as usize;
                let slot = owners
                    .get_mut(i)
                    .ok_or_else(|| format!("t{t} ran island {i}, past {islands}"))?;
                if let Some(prev) = slot {
                    return Err(format!("island {i} is owned by both t{prev} and t{t}"));
                }
                *slot = Some(t);
            }
        }
        if let Some(orphan) = owners.iter().position(Option::is_none) {
            return Err(format!("island {orphan} has no owner"));
        }
        Ok(())
    }
}

/// One suite entry: a report plus whether the scenario is a weakened
/// fixture the checker is *required* to refute.
pub struct SuiteEntry {
    /// The checker's report.
    pub report: ModelReport,
    /// `true` for deliberately broken fixtures: a counterexample is the
    /// passing outcome.
    pub expect_failure: bool,
    /// `true` when this configuration must be fully exhausted for the
    /// suite to count as a proof (larger configs may be budget-bounded).
    pub require_exhausted: bool,
}

impl SuiteEntry {
    /// Whether this entry's outcome is acceptable.
    pub fn ok(&self) -> bool {
        if self.expect_failure {
            self.report.failure.is_some()
        } else {
            self.report.passed() && (!self.require_exhausted || self.report.exhausted)
        }
    }
}

/// Runs the full protocol suite. `budget` bounds executions per scenario;
/// the defaults keep the whole suite under a minute on one vCPU.
pub fn run_suite(budget: u64) -> Vec<SuiteEntry> {
    let mut out = Vec::new();
    let mut push = |s: &dyn Scenario, expect_failure: bool, require_exhausted: bool, b: u64| {
        out.push(SuiteEntry {
            report: check_dyn(s, b),
            expect_failure,
            require_exhausted,
        });
    };

    // Sound barrier, exhaustively: 2 threads × 2 rounds (the count-reset
    // race between generations), 3 threads × 1 round.
    push(
        &BarrierScenario {
            n: 2,
            rounds: 2,
            ord: BarrierOrderings::SOUND,
            label: "sound",
        },
        false,
        true,
        budget,
    );
    push(
        &BarrierScenario {
            n: 3,
            rounds: 1,
            ord: BarrierOrderings::SOUND,
            label: "sound",
        },
        false,
        true,
        budget,
    );
    // 4 threads: bounded — the tree is large; the budget cap is reported
    // honestly via `exhausted`.
    push(
        &BarrierScenario {
            n: 4,
            rounds: 1,
            ord: BarrierOrderings::SOUND,
            label: "sound",
        },
        false,
        false,
        budget,
    );
    // The weakened fixtures: the checker must refute both.
    push(
        &BarrierScenario {
            n: 2,
            rounds: 1,
            ord: BarrierOrderings::WEAK_SPIN,
            label: "weak-spin",
        },
        true,
        false,
        budget,
    );
    push(
        &BarrierScenario {
            n: 2,
            rounds: 1,
            ord: BarrierOrderings::WEAK_ARRIVE,
            label: "weak-arrive",
        },
        true,
        false,
        budget,
    );
    // The composed engine round: exhaustively at 2 participants, bounded
    // at 3; weighted blocks (the heavy first island gets a block of its
    // own).
    push(&engine_round(2), false, true, budget);
    push(&engine_round(3), false, false, budget);
    out
}

/// The suite's engine round: `threads` participants over four islands
/// weighted like a skewed mesh block.
pub fn engine_round(threads: usize) -> EngineRoundScenario {
    EngineRoundScenario {
        threads,
        weights: vec![3, 1, 1, 1],
    }
}

/// Object-safe shim: [`check_scenario`] is generic; the suite builder
/// iterates heterogeneous scenarios.
fn check_dyn(s: &dyn Scenario, budget: u64) -> ModelReport {
    struct Dyn<'a>(&'a dyn Scenario);
    impl Scenario for Dyn<'_> {
        fn name(&self) -> String {
            self.0.name()
        }
        fn threads(&self) -> usize {
            self.0.threads()
        }
        fn locations(&self) -> usize {
            self.0.locations()
        }
        fn run(&self, env: &ModelEnv<'_>) {
            self.0.run(env)
        }
        fn check(&self, records: &[Vec<u64>]) -> Result<(), String> {
            self.0.check(records)
        }
    }
    check_scenario(&Dyn(s), budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sound_barrier_two_threads_exhaustive() {
        let report = check_scenario(
            &BarrierScenario {
                n: 2,
                rounds: 2,
                ord: BarrierOrderings::SOUND,
                label: "sound",
            },
            200_000,
        );
        assert!(report.passed(), "{:?}", report.failure);
        assert!(report.exhausted, "2×2 must be fully explored");
    }

    #[test]
    fn weak_spin_barrier_is_refuted() {
        let report = check_scenario(
            &BarrierScenario {
                n: 2,
                rounds: 1,
                ord: BarrierOrderings::WEAK_SPIN,
                label: "weak-spin",
            },
            200_000,
        );
        let failure = report.failure.expect("relaxed spin loads must be refuted");
        assert!(
            failure.reason.contains("publish visibility"),
            "unexpected counterexample: {}",
            failure.reason
        );
        assert!(
            !failure.trace.is_empty(),
            "counterexample must carry a trace"
        );
    }
}
