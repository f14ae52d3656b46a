//! Differential end-to-end test for the parallel island engine.
//!
//! The scatternet simulator advances each piconet island independently to
//! conservative phase boundaries derived from the bridge rendezvous
//! schedule; `with_threads(n)` only changes *which OS thread* owns and
//! runs an island, never the order in which staged relay handoffs are
//! injected. The contract: the full [`ScatternetReport`] — every delay
//! sample, ledger cell, counter and the event count — is byte-identical
//! across thread counts, topologies (mesh included), pollers, seeds and a
//! deterministically shuffled island order (which also reassigns island
//! owners). Only the engine-observability counters (`phases_run`,
//! `barrier_rounds`, `islands_claimed`, `relays_staged`,
//! `relays_injected`) are excluded: they describe the execution, not the
//! simulation.
//!
//! [`ScatternetReport`]: btgs::piconet::ScatternetReport

mod common;

use btgs::core::{PollerKind, ScatternetScenario, ScatternetScenarioParams};
use btgs::des::{SimDuration, SimTime};
use btgs::piconet::ScatternetSim;
use common::report_digest;

#[derive(Clone, Copy)]
struct EngineKnobs {
    threads: usize,
    shuffle: Option<u64>,
}

impl EngineKnobs {
    fn default_engine(threads: usize) -> EngineKnobs {
        EngineKnobs {
            threads,
            shuffle: None,
        }
    }
}

fn build(params: ScatternetScenarioParams, kind: PollerKind, knobs: EngineKnobs) -> ScatternetSim {
    let sim = ScatternetScenario::build(params)
        .simulator(kind)
        .expect("scenario builds")
        .with_threads(knobs.threads);
    match knobs.shuffle {
        Some(seed) => sim.with_island_shuffle(seed),
        None => sim,
    }
}

fn digest(
    params: ScatternetScenarioParams,
    kind: PollerKind,
    knobs: EngineKnobs,
    horizon: SimTime,
) -> String {
    let report = build(params, kind, knobs)
        .run(horizon)
        .expect("scenario runs");
    report_digest(&report)
}

fn params_for(topology: &str, seed: u64) -> ScatternetScenarioParams {
    let mut params = match topology {
        "chain" => ScatternetScenarioParams::chained(4),
        "ring" => ScatternetScenarioParams::ring(4),
        "tree" => ScatternetScenarioParams::tree(5),
        "mesh" => ScatternetScenarioParams::mesh(12, 3, 5),
        other => panic!("unknown topology {other}"),
    };
    params.seed = seed;
    params.warmup = SimDuration::from_millis(500);
    params
}

#[test]
fn parallel_reports_are_byte_identical_across_thread_counts() {
    let horizon = SimTime::from_secs(2);
    // Both pollers across every topology at seed 1, plus a second seed on
    // the densest chain — enough coverage without tripling tier-1 time.
    let mut cases: Vec<(PollerKind, &str, u64)> = Vec::new();
    for kind in [PollerKind::PfpGs, PollerKind::FixedGs] {
        for topology in ["chain", "ring", "tree", "mesh"] {
            cases.push((kind, topology, 1));
        }
    }
    cases.push((PollerKind::PfpGs, "chain", 23));
    for (kind, topology, seed) in cases {
        let base = digest(
            params_for(topology, seed),
            kind,
            EngineKnobs::default_engine(1),
            horizon,
        );
        for threads in [2usize, 4] {
            let par = digest(
                params_for(topology, seed),
                kind,
                EngineKnobs::default_engine(threads),
                horizon,
            );
            assert_eq!(
                base, par,
                "report diverged ({kind:?}, {topology}, seed {seed}, \
                 {threads} threads)"
            );
        }
    }
}

#[test]
fn island_claim_order_is_free_of_observable_effects() {
    // A shuffled island order changes the order each thread runs its
    // islands in and, because the thread blocks are cut from that order,
    // which thread owns which island. On the mesh, relays then cross
    // between blocks along different edges. The relay injection order is
    // sorted, so the report must not move by a single byte.
    let horizon = SimTime::from_secs(2);
    for topology in ["chain", "mesh"] {
        let base = digest(
            params_for(topology, 7),
            PollerKind::PfpGs,
            EngineKnobs::default_engine(1),
            horizon,
        );
        for shuffle in [3u64, 99] {
            for threads in [1usize, 2, 4] {
                let knobs = EngineKnobs {
                    threads,
                    shuffle: Some(shuffle),
                };
                let shuffled = digest(params_for(topology, 7), PollerKind::PfpGs, knobs, horizon);
                assert_eq!(
                    base, shuffled,
                    "{topology}: island shuffle {shuffle} with {threads} threads changed \
                     the report"
                );
            }
        }
    }
}

#[test]
fn tracing_on_reports_and_traces_are_byte_identical() {
    // The observability twin of the byte-identity contract. With the
    // trace ring and telemetry registry switched ON: (a) the simulated
    // report must not move by a byte relative to the plain engine, and
    // (b) the exported Perfetto trace itself must be byte-identical
    // across thread counts and shuffled claim orders — the merged
    // record order `(start_ns, track, seq)` is a total order derived
    // from simulated time, never from which OS thread ran an island.
    use btgs::piconet::ObsConfig;
    use btgs_obs::perfetto_trace_json;

    let horizon = SimTime::from_secs(2);
    let observed = |knobs: EngineKnobs| -> (String, String) {
        let params = params_for("chain", 7);
        let piconets = params.piconets as usize;
        let run = build(params, PollerKind::PfpGs, knobs)
            .run_observed(horizon, ObsConfig::default())
            .expect("scenario runs");
        (
            report_digest(&run.report),
            perfetto_trace_json(&run.trace, piconets),
        )
    };

    let plain = digest(
        params_for("chain", 7),
        PollerKind::PfpGs,
        EngineKnobs::default_engine(1),
        horizon,
    );
    let (base_report, base_trace) = observed(EngineKnobs::default_engine(1));
    assert_eq!(
        plain, base_report,
        "switching instrumentation on moved the simulated report"
    );
    assert!(
        base_trace.contains("\"traceEvents\""),
        "exporter produced a trace envelope"
    );
    for threads in [2usize, 4] {
        let (report, trace) = observed(EngineKnobs::default_engine(threads));
        assert_eq!(
            plain, report,
            "observed report diverged at {threads} threads"
        );
        assert_eq!(
            base_trace, trace,
            "exported trace diverged at {threads} threads"
        );
    }
    for shuffle in [3u64, 99] {
        for threads in [2usize, 4] {
            let knobs = EngineKnobs {
                threads,
                shuffle: Some(shuffle),
            };
            let (report, trace) = observed(knobs);
            assert_eq!(
                plain, report,
                "observed report diverged (shuffle {shuffle}, {threads} threads)"
            );
            assert_eq!(
                base_trace, trace,
                "exported trace diverged (shuffle {shuffle}, {threads} threads)"
            );
        }
    }
}

#[test]
fn parallel_longest_chain_still_composes_admitted_bounds() {
    // The admission path (guaranteed hop entities, composed bounds) rides
    // through the same engine: an admitted chain's measured worst case
    // must stay inside its composed bound under 4 threads too.
    let mut params = ScatternetScenarioParams::chained(3);
    params.delay_requirement = SimDuration::from_millis(46);
    params.bridge_cycle = SimDuration::from_millis(10);
    params.warmup = SimDuration::from_millis(500);
    params.chain_deadline = Some(SimDuration::from_millis(260));
    let scenario = ScatternetScenario::build(params);
    let report = scenario
        .simulator(PollerKind::PfpGs)
        .expect("scenario builds")
        .with_threads(4)
        .run(SimTime::from_secs(3))
        .expect("scenario runs");
    let grant = &scenario.chain_grants[0];
    let chain = &report.chains[0];
    assert!(chain.delivered_packets > 50);
    assert!(chain.e2e.max().expect("chain delivered") <= grant.composed_bound);
}

#[test]
fn mesh_admitted_chains_compose_bounds_at_scale() {
    // The 64-piconet mesh admission check: every spanning-path chain is
    // admitted atomically against a generous end-to-end deadline, and
    // each one's measured worst case honours its composed bound under the
    // parallel engine.
    // Degree 2: under the paper's conservative segment accounting
    // (`s = U = 3.75 ms`) a third guaranteed bridge entity would need
    // `x >= 3U = 11.25 ms`, above the presence-compensated poll-interval
    // ceiling at any workable rendezvous cycle — so guarantee-mode meshes
    // cap at two bridge entities per piconet. Denser meshes are exercised
    // in measured-only mode by the byte-identity tests above.
    let mut params = ScatternetScenarioParams::mesh(64, 2, 11);
    params.delay_requirement = SimDuration::from_millis(46);
    params.bridge_cycle = SimDuration::from_millis(10);
    params.warmup = SimDuration::from_millis(500);
    params.chain_deadline = Some(SimDuration::from_millis(600));
    let scenario = ScatternetScenario::build(params);
    assert_eq!(scenario.chain_grants.len(), scenario.config.chains.len());
    let report = scenario
        .simulator(PollerKind::PfpGs)
        .expect("scenario builds")
        .with_threads(4)
        .run(SimTime::from_secs(2))
        .expect("scenario runs");
    let mut delivered_total = 0;
    for (ci, chain) in report.chains.iter().enumerate() {
        let grant = &scenario.chain_grants[ci];
        delivered_total += chain.delivered_packets;
        if let Some(measured) = chain.e2e.max() {
            assert!(
                measured <= grant.composed_bound,
                "mesh chain {ci}: measured e2e max {measured} exceeds the \
                 composed bound {}",
                grant.composed_bound
            );
        }
    }
    assert!(
        delivered_total > 200,
        "mesh chains delivered only {delivered_total} packets"
    );
}
