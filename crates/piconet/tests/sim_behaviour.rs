//! Behavioural tests of the piconet simulator: slot-grid discipline,
//! master ignorance, logical-channel separation, and exchange accounting.

use btgs_baseband::{
    AmAddr, Direction, IdealChannel, LogicalChannel, PacketType, ScoLink, SLOT_PAIR,
};
use btgs_des::{DetRng, SimDuration, SimTime};
use btgs_piconet::{
    ExchangeReport, FlowSpec, MasterView, PiconetConfig, PiconetSim, PollDecision, Poller,
    RoundRobinForTest, ScoBinding, SegmentOutcome,
};
use btgs_traffic::{CbrSource, FlowId, GreedySource, TraceSource};
use std::sync::{Arc, Mutex};

fn s(n: u8) -> AmAddr {
    AmAddr::new(n).unwrap()
}

/// A poller that records every exchange it observes.
struct Recorder {
    inner: Box<dyn Poller>,
    log: Arc<Mutex<Vec<ExchangeReport>>>,
}

impl Poller for Recorder {
    fn decide(&mut self, now: SimTime, view: &MasterView<'_>) -> PollDecision {
        self.inner.decide(now, view)
    }
    fn on_exchange(&mut self, report: &ExchangeReport) {
        self.log.lock().unwrap().push(*report);
        self.inner.on_exchange(report);
    }
    fn name(&self) -> &'static str {
        "recorder"
    }
}

/// A poller that always polls one slave on one channel.
struct FixedTarget {
    slave: AmAddr,
    channel: LogicalChannel,
}

impl Poller for FixedTarget {
    fn decide(&mut self, _now: SimTime, _view: &MasterView<'_>) -> PollDecision {
        PollDecision::Poll {
            slave: self.slave,
            channel: self.channel,
        }
    }
    fn on_exchange(&mut self, _report: &ExchangeReport) {}
    fn name(&self) -> &'static str {
        "fixed-target"
    }
}

fn one_uplink_flow(channel: LogicalChannel) -> PiconetConfig {
    PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3]).with_flow(FlowSpec::new(
        FlowId(1),
        s(1),
        Direction::SlaveToMaster,
        channel,
    ))
}

#[test]
fn exchanges_start_on_even_slot_boundaries() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let poller = Recorder {
        inner: Box::new(FixedTarget {
            slave: s(1),
            channel: LogicalChannel::BestEffort,
        }),
        log: Arc::clone(&log),
    };
    let mut sim = PiconetSim::new(
        one_uplink_flow(LogicalChannel::BestEffort),
        Box::new(poller),
        Box::new(IdealChannel),
    )
    .unwrap();
    sim.add_source(Box::new(CbrSource::new(
        FlowId(1),
        SimDuration::from_millis(7), // deliberately off the slot grid
        176,
        176,
        DetRng::seed_from_u64(3),
    )))
    .unwrap();
    let _ = sim.run(SimTime::from_secs(1)).unwrap();
    let log = log.lock().unwrap();
    assert!(log.len() > 100);
    for ex in log.iter() {
        assert_eq!(
            ex.start.as_nanos() % SLOT_PAIR.as_nanos(),
            0,
            "master TX at {} is off the even-slot grid",
            ex.start
        );
        assert_eq!(ex.end.as_nanos() % SLOT_PAIR.as_nanos(), 0);
        assert!(ex.end > ex.start);
    }
}

#[test]
fn uplink_data_needs_to_precede_the_poll() {
    // A packet arriving mid-poll must wait for the next poll: with a
    // saturating poller the packet arriving at t=1 ms (inside the first
    // 2-slot exchange that started at t=0) is served by the poll at 2.5 ms,
    // not the one at 0.
    let log = Arc::new(Mutex::new(Vec::new()));
    let poller = Recorder {
        inner: Box::new(FixedTarget {
            slave: s(1),
            channel: LogicalChannel::BestEffort,
        }),
        log: Arc::clone(&log),
    };
    let mut sim = PiconetSim::new(
        one_uplink_flow(LogicalChannel::BestEffort),
        Box::new(poller),
        Box::new(IdealChannel),
    )
    .unwrap();
    sim.add_source(Box::new(TraceSource::new(
        FlowId(1),
        vec![(SimTime::from_millis(1), 176)],
    )))
    .unwrap();
    let report = sim.run(SimTime::from_millis(100)).unwrap();
    assert_eq!(report.flow(FlowId(1)).delivered_packets, 1);
    let log = log.lock().unwrap();
    // Find the exchange that carried data.
    let carrying = log
        .iter()
        .find(|ex| matches!(ex.up, SegmentOutcome::Data { .. }))
        .expect("one exchange carried the packet");
    assert!(
        carrying.start >= SimTime::from_millis(1),
        "served at {} before the data existed",
        carrying.start
    );
    // The exchange at t=0 must have returned NULL even though the packet
    // arrived before that exchange *ended*.
    let first = &log[0];
    assert_eq!(first.start, SimTime::ZERO);
    assert!(matches!(first.up, SegmentOutcome::Control { ty } if ty == PacketType::Null));
}

#[test]
fn gs_polls_never_move_be_data() {
    // A slave with only a BE uplink flow, polled on the GS channel: every
    // exchange must come back NULL (logical-channel separation).
    let log = Arc::new(Mutex::new(Vec::new()));
    let poller = Recorder {
        inner: Box::new(FixedTarget {
            slave: s(1),
            channel: LogicalChannel::GuaranteedService,
        }),
        log: Arc::clone(&log),
    };
    let mut sim = PiconetSim::new(
        one_uplink_flow(LogicalChannel::BestEffort),
        Box::new(poller),
        Box::new(IdealChannel),
    )
    .unwrap();
    sim.add_source(Box::new(CbrSource::new(
        FlowId(1),
        SimDuration::from_millis(10),
        176,
        176,
        DetRng::seed_from_u64(5),
    )))
    .unwrap();
    let report = sim.run(SimTime::from_secs(1)).unwrap();
    assert_eq!(
        report.flow(FlowId(1)).delivered_packets,
        0,
        "BE data must never ride a GS poll"
    );
    assert!(log.lock().unwrap().iter().all(|ex| !ex.successful()));
    // All those empty polls are accounted as GS overhead.
    assert!(report.ledger.gs_overhead > 0);
    assert_eq!(report.ledger.be_data, 0);
}

#[test]
fn downlink_and_uplink_can_share_one_exchange() {
    // A bidirectional BE pair on one slave: a single poll moves data both
    // ways (the physical basis of the paper's piggybacking argument).
    let config = PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
        .with_flow(FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::MasterToSlave,
            LogicalChannel::BestEffort,
        ))
        .with_flow(FlowSpec::new(
            FlowId(2),
            s(1),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        ));
    let log = Arc::new(Mutex::new(Vec::new()));
    let poller = Recorder {
        inner: Box::new(FixedTarget {
            slave: s(1),
            channel: LogicalChannel::BestEffort,
        }),
        log: Arc::clone(&log),
    };
    let mut sim = PiconetSim::new(config, Box::new(poller), Box::new(IdealChannel)).unwrap();
    for id in [1u32, 2] {
        sim.add_source(Box::new(TraceSource::new(
            FlowId(id),
            vec![(SimTime::ZERO, 150)],
        )))
        .unwrap();
    }
    let report = sim.run(SimTime::from_millis(50)).unwrap();
    assert_eq!(report.flow(FlowId(1)).delivered_packets, 1);
    assert_eq!(report.flow(FlowId(2)).delivered_packets, 1);
    let log = log.lock().unwrap();
    let both = &log[0];
    assert!(
        matches!(both.down, SegmentOutcome::Data { .. })
            && matches!(both.up, SegmentOutcome::Data { .. }),
        "first exchange should carry data both ways: {both:?}"
    );
    // DH3 down + DH3 up = 6 slots = 3.75 ms.
    assert_eq!(both.end - both.start, SimDuration::from_micros(3_750));
}

#[test]
fn sleep_poller_leaves_the_channel_idle() {
    struct Sleeper;
    impl Poller for Sleeper {
        fn decide(&mut self, _now: SimTime, _view: &MasterView<'_>) -> PollDecision {
            PollDecision::Sleep
        }
        fn on_exchange(&mut self, _report: &ExchangeReport) {}
        fn name(&self) -> &'static str {
            "sleeper"
        }
    }
    let mut sim = PiconetSim::new(
        one_uplink_flow(LogicalChannel::BestEffort),
        Box::new(Sleeper),
        Box::new(IdealChannel),
    )
    .unwrap();
    sim.add_source(Box::new(CbrSource::new(
        FlowId(1),
        SimDuration::from_millis(10),
        176,
        176,
        DetRng::seed_from_u64(1),
    )))
    .unwrap();
    let report = sim.run(SimTime::from_secs(1)).unwrap();
    assert_eq!(report.ledger.used(), 0);
    assert_eq!(
        report.ledger.idle_in(report.window()),
        1600,
        "every slot of the second stays idle"
    );
    assert_eq!(report.flow(FlowId(1)).delivered_packets, 0);
}

#[test]
fn missing_source_is_rejected_at_run() {
    let sim = PiconetSim::new(
        one_uplink_flow(LogicalChannel::BestEffort),
        Box::new(FixedTarget {
            slave: s(1),
            channel: LogicalChannel::BestEffort,
        }),
        Box::new(IdealChannel),
    )
    .unwrap();
    let err = sim.run(SimTime::from_secs(1)).unwrap_err();
    assert!(err.to_string().contains("no source"));
}

#[test]
fn duplicate_source_is_rejected() {
    let mut sim = PiconetSim::new(
        one_uplink_flow(LogicalChannel::BestEffort),
        Box::new(FixedTarget {
            slave: s(1),
            channel: LogicalChannel::BestEffort,
        }),
        Box::new(IdealChannel),
    )
    .unwrap();
    let mk = || {
        Box::new(CbrSource::new(
            FlowId(1),
            SimDuration::from_millis(10),
            176,
            176,
            DetRng::seed_from_u64(1),
        ))
    };
    sim.add_source(mk()).unwrap();
    assert!(sim.add_source(mk()).is_err());
    // Unknown flow ids are rejected too.
    let unknown = Box::new(CbrSource::new(
        FlowId(99),
        SimDuration::from_millis(10),
        176,
        176,
        DetRng::seed_from_u64(1),
    ));
    assert!(sim.add_source(unknown).is_err());
}

#[test]
fn run_horizon_is_the_only_cut_off_of_an_infinite_source() {
    // A greedy source offers one packet per microsecond forever; nothing
    // but the engine's run horizon stops the engine from pulling it.
    let mut sim = PiconetSim::new(
        one_uplink_flow(LogicalChannel::BestEffort),
        Box::new(RoundRobinForTest::default()),
        Box::new(IdealChannel),
    )
    .unwrap();
    sim.add_source(Box::new(GreedySource::new(FlowId(1), 176)))
        .unwrap();
    let report = sim.run(SimTime::from_millis(50)).unwrap();
    let flow = report.flow(FlowId(1));
    // Arrivals at 0, 1, ..., 50,000 µs: the one at the horizon counts.
    assert_eq!(flow.offered_packets, 50_001);
    // One DH3 exchange (2.5 ms) per 176-byte packet.
    assert_eq!(flow.delivered_packets, 20);
    assert_eq!(report.events_processed, 50_043);
}

/// A piconet with one uplink and one downlink best-effort flow, each fed
/// by CBR traffic, polled round-robin.
fn two_flow_sim() -> PiconetSim {
    let config = PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
        .with_flow(FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        ))
        .with_flow(FlowSpec::new(
            FlowId(2),
            s(2),
            Direction::MasterToSlave,
            LogicalChannel::BestEffort,
        ))
        .with_warmup(SimDuration::from_millis(250));
    let mut sim = PiconetSim::new(
        config,
        Box::new(RoundRobinForTest::default()),
        Box::new(IdealChannel),
    )
    .unwrap();
    for (flow, seed) in [(1, 11), (2, 22)] {
        sim.add_source(Box::new(CbrSource::new(
            FlowId(flow),
            SimDuration::from_millis(15),
            100,
            300,
            DetRng::seed_from_u64(seed),
        )))
        .unwrap();
    }
    sim
}

#[test]
fn checkpoint_past_the_horizon_does_not_extend_the_run() {
    // The probe checkpoint is never reached when it lies past the
    // horizon: the run stops at the horizon, exactly like a plain run,
    // and only the loop-end probe fires.
    let horizon = SimTime::from_secs(3);
    let plain = two_flow_sim().run(horizon).unwrap();
    let mut calls = 0;
    let probed = two_flow_sim()
        .run_probed(SimTime::from_secs(4), horizon, &mut || calls += 1)
        .unwrap();
    assert_eq!(calls, 1, "only the loop-end probe fires");
    assert_eq!(probed.events_processed, plain.events_processed);
    assert_eq!(format!("{probed:#?}"), format!("{plain:#?}"));
}

#[test]
fn sco_voice_id_bound_to_two_links_is_rejected() {
    // Two non-colliding HV3 links claim the same voice flow id: one
    // source could feed only one of them, so the configuration is invalid.
    let voice = |slave, offset_pairs| ScoBinding {
        slave: s(slave),
        link: ScoLink::new(PacketType::Hv3, offset_pairs).unwrap(),
        voice_flow: Some(FlowId(9)),
    };
    let config = one_uplink_flow(LogicalChannel::BestEffort)
        .with_sco(voice(2, 0))
        .with_sco(voice(3, 1));
    let err = config.validate().unwrap_err();
    assert!(err.to_string().contains("two SCO links"), "{err}");
    let err = PiconetSim::new(
        config,
        Box::new(RoundRobinForTest::default()),
        Box::new(IdealChannel),
    )
    .err()
    .expect("PiconetSim::new rejects a voice id bound twice");
    assert!(err.to_string().contains("two SCO links"), "{err}");
}
