//! End-to-end reproduction checks of the paper's evaluation (§4).

use btgs::baseband::{AmAddr, Direction, LogicalChannel};
use btgs::core::{
    BeSourceMix, CellResult, Improvements, PaperScenario, PaperScenarioParams, PollerKind,
    ScatternetScenario, ScatternetScenarioParams, ScenarioGrid,
};
use btgs::des::{SimDuration, SimTime};

fn s(n: u8) -> AmAddr {
    AmAddr::new(n).unwrap()
}

/// The Fig. 4 cell at `dreq_ms` (best effort on, 2 s warm-up) under
/// PFP-GS.
fn fig4(dreq_ms: u64, seed: u64, secs: u64) -> CellResult {
    let horizon = SimTime::from_secs(secs);
    let mut cell = ScenarioGrid::paper(vec![PollerKind::PfpGs], vec![seed], horizon).cells()[0];
    cell.delay_requirement = SimDuration::from_millis(dreq_ms);
    cell.run()
}

/// Delivered throughput of slave `n`, in kbit/s.
fn slave_kbps(cell: &CellResult, n: u8) -> f64 {
    cell.report.slave_throughput_kbps(s(n))
}

#[test]
fn gs_flows_deliver_64_kbps_regardless_of_requirement() {
    for ms in [30u64, 38, 40, 46] {
        let point = fig4(ms, 11, 20);
        // Every GS flow delivers its full 64 kbps…
        for id in point.report.flows_on(LogicalChannel::GuaranteedService) {
            let kbps = point.report.throughput_kbps(id);
            assert!((kbps - 64.0).abs() < 2.0, "{id} at {ms} ms: {kbps}");
        }
        // …so per slave S2, which carries two of them, delivers 128.
        for (n, kbps) in [(1, 64.0), (2, 128.0), (3, 64.0)] {
            let measured = slave_kbps(&point, n);
            assert!(
                (measured - kbps).abs() < kbps / 32.0,
                "S{n} at {ms} ms: {measured}"
            );
        }
    }
}

#[test]
fn requested_delay_bounds_are_never_exceeded() {
    // The paper's §4.2 claim, at three requirement levels and two seeds.
    for ms in [36u64, 40, 46] {
        for seed in [1u64, 2] {
            let point = fig4(ms, seed, 20);
            assert_eq!(point.checks().count(), 4, "flows 1-4 are guaranteed");
            for check in point.checks() {
                assert!(check.samples > 500, "enough samples: {check:?}");
                assert_eq!(check.over, 0, "at {ms} ms seed {seed}: {check:?}");
            }
        }
    }
}

#[test]
fn be_throughput_shrinks_with_tighter_requirements() {
    let loose = fig4(46, 5, 20);
    let tight = fig4(28, 5, 20);
    let be_loose: f64 = (4..=7u8).map(|n| slave_kbps(&loose, n)).sum();
    let be_tight: f64 = (4..=7u8).map(|n| slave_kbps(&tight, n)).sum();
    assert!(
        be_tight + 5.0 < be_loose,
        "BE must lose bandwidth: {be_tight} vs {be_loose}"
    );
    // GS throughput stays flat, and the highest-demand BE slave (S7)
    // gains nothing from the tighter requirement.
    let (s1_loose, s1_tight) = (slave_kbps(&loose, 1), slave_kbps(&tight, 1));
    assert!(
        (s1_loose - s1_tight).abs() < 3.0,
        "S1: {s1_tight} vs {s1_loose}"
    );
    let (s7_loose, s7_tight) = (slave_kbps(&loose, 7), slave_kbps(&tight, 7));
    assert!(s7_tight <= s7_loose + 2.0, "S7: {s7_tight} vs {s7_loose}");
}

#[test]
fn remaining_bandwidth_is_divided_max_min_fairly() {
    // Under pressure the unsaturated BE slaves converge to an equal share
    // while the smallest-demand slave keeps its maximum (the Fig. 5 shape).
    let point = fig4(28, 9, 20);
    let s4 = slave_kbps(&point, 4);
    assert!((s4 - 83.2).abs() < 2.0, "S4 saturated at its demand: {s4}");
    let shares: Vec<f64> = (5..=7u8).map(|n| slave_kbps(&point, n)).collect();
    let max = shares.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let min = shares.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    assert!(
        max - min < 3.0,
        "squeezed BE slaves share equally: {shares:?}"
    );
    // And everyone saturated-or-equal means S5..S7 below their demands.
    assert!(max < 94.4, "S5..S7 are squeezed below their maxima");
}

#[test]
fn warmup_and_windows_are_respected() {
    let scenario = PaperScenario::build(PaperScenarioParams {
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_secs(3),
        include_be: false,
        ..Default::default()
    });
    let report = scenario
        .run(PollerKind::PfpGs, SimTime::from_secs(10))
        .unwrap();
    assert_eq!(report.window_start, SimTime::from_secs(3));
    assert_eq!(report.window_end, SimTime::from_secs(10));
    assert_eq!(report.window(), SimDuration::from_secs(7));
    // ~50 packets/s per GS flow over a 7 s window.
    for plan in &scenario.gs_plans {
        let n = report.flow(plan.request.id).delay.count();
        assert!((330..=360).contains(&n), "{}: {n} samples", plan.request.id);
    }
}

#[test]
fn determinism_same_seed_same_report() {
    let run = |seed| fig4(40, seed, 10);
    let a = run(21);
    let b = run(21);
    let c = run(22);
    for n in 1..=7u8 {
        assert_eq!(
            slave_kbps(&a, n),
            slave_kbps(&b, n),
            "S{n} differs across replays"
        );
    }
    assert_eq!(a.report.ledger, b.report.ledger);
    // A different seed genuinely changes the trajectory (phases shift).
    assert_ne!(
        a.report.ledger, c.report.ledger,
        "different seeds should differ somewhere"
    );
}

#[test]
fn one_piconet_scatternet_is_the_fig4_piconet() {
    // The lone piconet of the scatternet scenario is the paper's Fig. 4
    // piconet: flows 1-4 on S1-S3, the four BE pairs on S4-S7, no bridge,
    // no chain. Its schedule, plans and report (every counter and sample,
    // compared through `Debug`) equal the Fig. 4 scenario's.
    use Direction::{MasterToSlave as Down, SlaveToMaster as Up};
    let fig4 = [
        (1, 1, Up, true),
        (2, 2, Down, true),
        (3, 2, Up, true),
        (4, 3, Up, true),
        (5, 4, Down, false),
        (6, 4, Up, false),
        (7, 5, Down, false),
        (8, 5, Up, false),
        (9, 6, Down, false),
        (10, 6, Up, false),
        (11, 7, Down, false),
        (12, 7, Up, false),
    ];
    let pollers = [
        PollerKind::PfpGs,
        PollerKind::FixedGs,
        PollerKind::Custom(Improvements::ALL),
    ];
    let mixes = [
        None,
        Some(BeSourceMix::Cbr),
        Some(BeSourceMix::Poisson),
        Some(BeSourceMix::OnOff),
    ];
    let horizon = SimTime::from_secs(5);
    for seed in [1u64, 7, 11] {
        for mix in mixes {
            let paper = PaperScenario::build(PaperScenarioParams {
                seed,
                include_be: mix.is_some(),
                be_source_mix: mix.unwrap_or_default(),
                ..Default::default()
            });
            let one = ScatternetScenario::try_build(ScatternetScenarioParams {
                seed,
                include_be: mix.is_some(),
                be_source_mix: mix.unwrap_or_default(),
                ..ScatternetScenarioParams::chained(1)
            })
            .expect("one piconet is the Fig. 4 piconet");
            let label = format!("seed {seed}, BE {mix:?}");

            assert!(one.config.bridges.is_empty(), "{label}");
            assert!(one.config.chains.is_empty(), "{label}");
            assert!(one.chain_grants.is_empty(), "{label}");
            let [config] = one.config.piconets.as_slice() else {
                panic!("{label}: one piconet, one config");
            };
            let flows: Vec<_> = config
                .flows
                .iter()
                .map(|f| (f.id.0, f.slave.get(), f.direction, f.channel.is_gs()))
                .collect();
            let expected = if mix.is_some() { &fig4[..] } else { &fig4[..4] };
            assert_eq!(flows, expected, "{label}");
            assert_eq!(
                format!("{config:?}"),
                format!("{:?}", paper.config),
                "{label}"
            );
            assert_eq!(
                one.outcomes,
                std::slice::from_ref(&paper.outcome),
                "{label}"
            );
            assert_eq!(
                format!("{:?}", one.gs_plans),
                format!("{:?}", [&paper.gs_plans]),
                "{label}"
            );

            for kind in pollers {
                let fig4_report = paper.run(kind, horizon).unwrap();
                let report = one.run(kind, horizon).unwrap();
                let [piconet] = report.piconets.as_slice() else {
                    panic!("{label}: one piconet, one report");
                };
                assert_eq!(
                    format!("{piconet:?}"),
                    format!("{fig4_report:?}"),
                    "{label}, {}",
                    kind.label()
                );
            }
        }
    }
}
