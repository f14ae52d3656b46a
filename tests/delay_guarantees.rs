//! The central invariant of the paper, exercised across many admitted
//! configurations: **every flow admitted by the Fig. 3 routine observes
//! packet delays within its Eq. 1 bound** when polled by the fixed or
//! variable interval poller — and grid summaries count every sample over
//! any guarantee of a cell, admitted chains included.

use btgs::baseband::{AmAddr, Direction, IdealChannel, LogicalChannel, PacketType};
use btgs::core::{
    admit, AdmissionConfig, AdmissionOutcome, CellSink, ExperimentRunner, GridReport, GsPoller,
    GsRequest, Guarantees, PollerKind, ScenarioGrid,
};
use btgs::des::{DetRng, SimDuration, SimTime};
use btgs::grid::OnlineAggregator;
use btgs::gs::TokenBucketSpec;
use btgs::piconet::{FlowSpec, PiconetConfig, PiconetSim, RunReport};
use btgs::traffic::{CbrSource, FlowId};

/// Simulates an admitted GS-only configuration and returns the report.
fn simulate(
    requests: &[GsRequest],
    outcome: &AdmissionOutcome,
    kind: PollerKind,
    seed: u64,
    horizon: SimTime,
) -> RunReport {
    let mut config = PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
        .with_warmup(SimDuration::from_secs(1));
    for r in requests {
        config = config.with_flow(FlowSpec::new(
            r.id,
            r.slave,
            r.direction,
            LogicalChannel::GuaranteedService,
        ));
    }
    let poller = match kind {
        PollerKind::FixedGs => GsPoller::fixed(outcome, SimTime::ZERO),
        _ => GsPoller::variable(outcome, SimTime::ZERO),
    };
    let mut sim = PiconetSim::new(config, Box::new(poller), Box::new(IdealChannel)).unwrap();
    let root = DetRng::seed_from_u64(seed);
    for r in requests {
        let mut stream = root.stream(u64::from(r.id.0));
        let interval =
            SimDuration::from_secs_f64(r.tspec.max_packet() as f64 / r.tspec.peak_rate());
        let offset = SimTime::from_nanos(stream.below(interval.as_nanos()));
        sim.add_source(Box::new(
            CbrSource::new(
                r.id,
                interval,
                r.tspec.min_policed_unit(),
                r.tspec.max_packet(),
                stream,
            )
            .starting_at(offset),
        ))
        .unwrap();
    }
    sim.run(horizon).unwrap()
}

fn assert_bounds_hold(requests: &[GsRequest], outcome: &AdmissionOutcome, report: &RunReport) {
    let mut checked = 0;
    for check in Guarantees::from(outcome).check(report) {
        assert!(check.samples > 100, "too few samples: {check:?}");
        assert_eq!(check.over, 0, "bound exceeded: {check:?}");
        checked += 1;
    }
    assert_eq!(checked, requests.len(), "every request is admitted");
}

fn tspec(interval_ms: f64, m: u32, big_m: u32) -> TokenBucketSpec {
    TokenBucketSpec::for_cbr(interval_ms / 1000.0, m, big_m).unwrap()
}

/// A handful of structurally different admitted configurations.
fn configurations() -> Vec<Vec<GsRequest>> {
    let s = |n| AmAddr::new(n).unwrap();
    vec![
        // One uplink voice flow at high rate.
        vec![GsRequest::new(
            FlowId(1),
            s(1),
            Direction::SlaveToMaster,
            tspec(20.0, 144, 176),
            12_800.0,
        )],
        // A downlink-only flow (exercises improvement (c)).
        vec![GsRequest::new(
            FlowId(1),
            s(1),
            Direction::MasterToSlave,
            tspec(20.0, 144, 176),
            9_600.0,
        )],
        // Three slaves at the token rate (the paper's shape, no BE).
        vec![
            GsRequest::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                tspec(20.0, 144, 176),
                8_800.0,
            ),
            GsRequest::new(
                FlowId(2),
                s(2),
                Direction::MasterToSlave,
                tspec(20.0, 144, 176),
                8_800.0,
            ),
            GsRequest::new(
                FlowId(3),
                s(2),
                Direction::SlaveToMaster,
                tspec(20.0, 144, 176),
                8_800.0,
            ),
            GsRequest::new(
                FlowId(4),
                s(3),
                Direction::SlaveToMaster,
                tspec(20.0, 144, 176),
                8_800.0,
            ),
        ],
        // Heterogeneous rates and packet sizes, including multi-segment
        // packets (300..400 B needs two DH3 polls at worst).
        vec![
            GsRequest::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                tspec(25.0, 300, 400),
                18_000.0,
            ),
            GsRequest::new(
                FlowId(2),
                s(2),
                Direction::SlaveToMaster,
                tspec(40.0, 144, 176),
                8_800.0,
            ),
        ],
        // Small packets over DH1-capable range.
        vec![
            GsRequest::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                tspec(15.0, 80, 100),
                9_000.0,
            ),
            GsRequest::new(
                FlowId(2),
                s(2),
                Direction::MasterToSlave,
                tspec(30.0, 144, 176),
                8_800.0,
            ),
        ],
    ]
}

#[test]
fn variable_poller_honours_every_admitted_bound() {
    for (i, requests) in configurations().into_iter().enumerate() {
        let outcome = admit(&requests, &AdmissionConfig::paper())
            .unwrap_or_else(|e| panic!("configuration {i} must be admissible: {e}"));
        for seed in [3u64, 17] {
            let report = simulate(
                &requests,
                &outcome,
                PollerKind::PfpGs,
                seed,
                SimTime::from_secs(15),
            );
            assert_bounds_hold(&requests, &outcome, &report);
        }
    }
}

#[test]
fn fixed_poller_honours_every_admitted_bound() {
    for (i, requests) in configurations().into_iter().enumerate() {
        let outcome = admit(&requests, &AdmissionConfig::paper())
            .unwrap_or_else(|e| panic!("configuration {i} must be admissible: {e}"));
        let report = simulate(
            &requests,
            &outcome,
            PollerKind::FixedGs,
            5,
            SimTime::from_secs(15),
        );
        assert_bounds_hold(&requests, &outcome, &report);
    }
}

#[test]
fn gs_throughput_equals_offered_load() {
    for requests in configurations() {
        let outcome = admit(&requests, &AdmissionConfig::paper()).unwrap();
        let report = simulate(
            &requests,
            &outcome,
            PollerKind::PfpGs,
            8,
            SimTime::from_secs(15),
        );
        for r in &requests {
            let flow_report = report.flow(r.id);
            // Packets offered in the last few milliseconds may still be in
            // flight when the horizon cuts the run; allow that slack.
            assert!(
                flow_report.delivered_packets + 2 >= flow_report.offered_packets,
                "{}: delivered {} of {} offered",
                r.id,
                flow_report.delivered_packets,
                flow_report.offered_packets
            );
        }
    }
}

#[test]
fn bursty_conforming_traffic_stays_within_bounds() {
    // A trace with jittered arrivals that still conforms to the token
    // bucket (every packet 20 ms apart or more, sizes in range).
    let s1 = AmAddr::new(1).unwrap();
    let spec = tspec(20.0, 144, 176);
    let request = GsRequest::new(FlowId(1), s1, Direction::SlaveToMaster, spec, 12_800.0);
    let outcome = admit(std::slice::from_ref(&request), &AdmissionConfig::paper()).unwrap();

    let mut config = PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
        .with_warmup(SimDuration::from_secs(1));
    config = config.with_flow(FlowSpec::new(
        FlowId(1),
        s1,
        Direction::SlaveToMaster,
        LogicalChannel::GuaranteedService,
    ));
    let poller = GsPoller::variable(&outcome, SimTime::ZERO);
    let mut sim = PiconetSim::new(config, Box::new(poller), Box::new(IdealChannel)).unwrap();
    // Arrivals at >= 20 ms spacing with pseudo-random extra gaps: conforming
    // but phase-shifting, which exercises improvement (b).
    let mut items = Vec::new();
    let mut rng = DetRng::seed_from_u64(33);
    let mut t = SimTime::from_millis(5);
    for seq in 0..600u64 {
        items.push((t, 144 + (rng.below(33) as u32)));
        let gap = 20_000_000 + rng.below(15_000_000); // 20..35 ms
        t += SimDuration::from_nanos(gap);
        let _ = seq;
    }
    sim.add_source(Box::new(btgs::traffic::TraceSource::new(FlowId(1), items)))
        .unwrap();
    let report = sim.run(SimTime::from_secs(16)).unwrap();
    let guarantees = Guarantees::from(&outcome);
    assert_eq!(guarantees.check(&report).count(), 1);
    for check in guarantees.check(&report) {
        assert!(check.samples > 400);
        assert_eq!(
            check.over, 0,
            "jittered conforming traffic must stay within the bound ({check:?})"
        );
    }
}

/// The "bound violations" column (the last) of a one-poller summary.
fn violations_column(rendered: String) -> String {
    let row = rendered.lines().nth(2).expect("one poller row");
    row.split_whitespace().last().expect("row cells").to_owned()
}

#[test]
fn grid_summaries_count_samples_over_admitted_chain_bounds() {
    // The chain is admitted against a deadline, so both end piconets
    // trade S3's flow 4 for the guaranteed hop: the summaries must check
    // the scatternet's own guarantees, not the Fig. 4 reference plans.
    let grid = ScenarioGrid {
        piconets: vec![2],
        delay_requirements: vec![SimDuration::from_millis(46)],
        chain_deadlines: vec![Some(SimDuration::from_millis(150))],
        bridge_cycle: SimDuration::from_millis(10),
        warmup: SimDuration::from_secs(1),
        ..ScenarioGrid::paper(vec![PollerKind::PfpGs], vec![1], SimTime::from_secs(3))
    };
    let report = ExperimentRunner::new().run_grid(&grid);
    let tables = |report: &GridReport| {
        let mut aggregate = OnlineAggregator::for_grid(&grid);
        for (i, cell) in report.cells.iter().enumerate() {
            aggregate.accept(i, cell);
        }
        [report.summary_table(), aggregate.summary_table()].map(|t| violations_column(t.render()))
    };
    assert_eq!(tables(&report), ["0", "0"]);

    // One end-to-end sample 1 ns over the composed bound.
    let mut tampered = report.clone();
    let cell = tampered.cells[0].scatternet.as_mut().expect("a scatternet");
    let bound = cell.scenario.chain_grants[0].composed_bound;
    cell.report.chains[0]
        .e2e
        .record(bound + SimDuration::from_nanos(1));
    assert_eq!(tables(&tampered), ["1", "1"]);
}
