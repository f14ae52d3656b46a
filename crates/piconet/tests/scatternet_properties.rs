//! Deterministic property tests for the scatternet layer, in the style of
//! `flow_table_properties.rs`: DetRng-driven random instances instead of a
//! proptest dependency.
//!
//! Covered:
//! * global id routing — every flow of a random layout takes its source
//!   and shows its traffic in its own piconet's report; an id (ACL or SCO
//!   voice) in two piconets is rejected at build time, an unknown id at
//!   `add_source`;
//! * bridge forwarding — per-flow FIFO across the hop, and the end-to-end
//!   identity `e2e = Σ per-hop queueing + Σ bridge residence` (exact, via
//!   sample sums).

use btgs_baseband::{
    AmAddr, ChannelModel, Direction, IdealChannel, LogicalChannel, PacketType, PiconetId, ScoLink,
    ScopedSlave,
};
use btgs_des::{DetRng, SimDuration, SimTime};
use btgs_piconet::{
    BridgeSpec, ChainSpec, FlowSpec, MasterView, PiconetConfig, PollDecision, Poller,
    RoundRobinForTest, ScatternetConfig, ScatternetSim, ScoBinding,
};
use btgs_traffic::{CbrSource, FlowId, Source, TraceSource};

fn s(n: u8) -> AmAddr {
    AmAddr::new(n).unwrap()
}

fn pic(n: u8) -> PiconetId {
    PiconetId(n.into())
}

/// Builds a random valid multi-shard flow layout: every flow id unique
/// across shards, at most one flow per (slave, direction, channel) within a
/// shard.
fn random_shards(rng: &mut DetRng, n_shards: usize) -> Vec<Vec<FlowSpec>> {
    let mut next_id = 1 + rng.below(50) as u32;
    let mut shards = Vec::new();
    for _ in 0..n_shards {
        let mut flows = Vec::new();
        for slave in 1..=7u8 {
            for direction in [Direction::MasterToSlave, Direction::SlaveToMaster] {
                for channel in [
                    LogicalChannel::GuaranteedService,
                    LogicalChannel::BestEffort,
                ] {
                    if rng.chance(0.35) {
                        flows.push(FlowSpec::new(FlowId(next_id), s(slave), direction, channel));
                        next_id += 1 + rng.below(4) as u32;
                    }
                }
            }
        }
        shards.push(flows);
    }
    shards
}

/// A bridgeless scatternet over `piconets`, one round-robin poller and an
/// ideal channel per piconet.
fn unbridged(piconets: Vec<PiconetConfig>) -> Result<ScatternetSim, btgs_piconet::PiconetError> {
    let n = piconets.len();
    ScatternetSim::new(
        ScatternetConfig {
            piconets,
            bridges: Vec::new(),
            chains: Vec::new(),
        },
        (0..n)
            .map(|_| Box::new(RoundRobinForTest::default()) as Box<dyn Poller>)
            .collect(),
        (0..n)
            .map(|_| Box::new(IdealChannel) as Box<dyn ChannelModel>)
            .collect(),
    )
}

fn layout_config(flows: &[FlowSpec]) -> PiconetConfig {
    flows.iter().cloned().fold(
        PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3]),
        PiconetConfig::with_flow,
    )
}

fn cbr(flow: FlowId, seed: u64) -> Box<dyn Source> {
    Box::new(CbrSource::new(
        flow,
        SimDuration::from_millis(20),
        100,
        100,
        DetRng::seed_from_u64(seed),
    ))
}

#[test]
fn every_flow_routes_to_its_own_piconet() {
    let mut rng = DetRng::seed_from_u64(0xA7E7A);
    for case in 0..20 {
        let n_shards = 1 + rng.below(5) as usize;
        let layouts = random_shards(&mut rng, n_shards);
        let mut sim = unbridged(layouts.iter().map(|f| layout_config(f)).collect())
            .expect("unique ids build");
        for f in layouts.iter().flatten() {
            sim.add_source(cbr(f.id, u64::from(f.id.0)))
                .unwrap_or_else(|e| panic!("case {case}: {} takes no source: {e}", f.id));
        }
        let report = sim.run(SimTime::from_millis(200)).expect("runs");
        for (p, flows) in layouts.iter().enumerate() {
            let own = report.piconet(pic(p as u8));
            assert_eq!(own.flows, *flows, "case {case}: piconet {p} flows");
            for f in flows {
                assert!(
                    own.flow(f.id).offered_packets > 0,
                    "case {case}: {} shows no offered traffic in piconet {p}",
                    f.id
                );
                for (q, other) in report.piconets.iter().enumerate() {
                    assert!(
                        q == p || !other.per_flow.contains_key(&f.id),
                        "case {case}: {} leaked into piconet {q}",
                        f.id
                    );
                }
            }
        }
    }
}

#[test]
fn ids_in_two_piconets_and_unknown_ids_are_rejected() {
    let mut rng = DetRng::seed_from_u64(0xBEEF);
    for _ in 0..50 {
        let n_shards = 1 + rng.below(4) as usize;
        let layouts = random_shards(&mut rng, n_shards);
        let all_ids: Vec<FlowId> = layouts.iter().flatten().map(|f| f.id).collect();
        if all_ids.is_empty() {
            continue;
        }
        let configs: Vec<PiconetConfig> = layouts.iter().map(|f| layout_config(f)).collect();
        // Ids not in any piconet take no source.
        let mut sim = unbridged(configs.clone()).expect("unique ids build");
        let max = all_ids.iter().map(|i| i.0).max().unwrap();
        for unknown in [max + 1, max + 999] {
            let err = sim.add_source(cbr(FlowId(unknown), 1)).unwrap_err();
            assert!(err.to_string().contains("no flow"), "{err}");
        }
        // Duplicating any non-empty piconet puts every one of its ids in
        // two piconets: rejected.
        let dup = layouts
            .iter()
            .position(|f| !f.is_empty())
            .expect("an id exists");
        let mut aliased = configs;
        aliased.push(aliased[dup].clone());
        let err = unbridged(aliased)
            .err()
            .expect("aliased ids must be rejected");
        assert!(
            err.to_string().contains("appears in more than one piconet"),
            "{err}"
        );
    }
}

#[test]
fn sco_voice_ids_are_unique_across_piconets() {
    let voice = |id: u32| ScoBinding {
        slave: s(3),
        link: ScoLink::new(PacketType::Hv3, 0).unwrap(),
        voice_flow: Some(FlowId(id)),
    };
    let acl = |id: u32| {
        FlowSpec::new(
            FlowId(id),
            s(1),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        )
    };
    let base = || PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3]);
    // Voice flow 9 in piconet 0, and again as piconet 1's voice flow or
    // as piconet 1's ACL flow: one id, two piconets.
    for other in [
        base().with_flow(acl(2)).with_sco(voice(9)),
        base().with_flow(acl(9)),
    ] {
        let piconets = vec![base().with_flow(acl(1)).with_sco(voice(9)), other];
        let err = unbridged(piconets)
            .err()
            .expect("a voice id shared across piconets must be rejected");
        assert!(
            err.to_string().contains("appears in more than one piconet"),
            "{err}"
        );
    }
    // Distinct voice ids route to their own piconets.
    let mut sim = unbridged(vec![
        base().with_flow(acl(1)).with_sco(voice(9)),
        base().with_flow(acl(2)).with_sco(voice(10)),
    ])
    .expect("distinct ids build");
    for id in [1, 2] {
        sim.add_source(cbr(FlowId(id), u64::from(id))).unwrap();
    }
    for id in [9, 10] {
        sim.add_source(Box::new(CbrSource::new(
            FlowId(id),
            SimDuration::from_micros(3750),
            30,
            30,
            DetRng::seed_from_u64(u64::from(id)),
        )))
        .unwrap();
    }
    let report = sim.run(SimTime::from_secs(1)).expect("runs");
    assert!(report.piconet(pic(0)).flow(FlowId(9)).delivered_packets > 0);
    assert!(report.piconet(pic(1)).flow(FlowId(10)).delivered_packets > 0);
}

/// A minimal presence-aware GS poller for chain tests: polls its slave's GS
/// channel whenever the slave is reachable, idles until its return
/// otherwise.
struct ChainTestPoller {
    slaves: Vec<AmAddr>,
    cursor: usize,
}

impl ChainTestPoller {
    fn new(slaves: Vec<AmAddr>) -> ChainTestPoller {
        ChainTestPoller { slaves, cursor: 0 }
    }
}

impl Poller for ChainTestPoller {
    fn decide(&mut self, _now: SimTime, view: &MasterView<'_>) -> PollDecision {
        for _ in 0..self.slaves.len() {
            let slave = self.slaves[self.cursor % self.slaves.len()];
            self.cursor += 1;
            if view.is_present(slave) {
                return PollDecision::Poll {
                    slave,
                    channel: LogicalChannel::GuaranteedService,
                };
            }
        }
        let until = self
            .slaves
            .iter()
            .map(|&sl| view.next_present(sl))
            .min()
            .expect("non-empty");
        PollDecision::Idle { until }
    }

    fn on_exchange(&mut self, _report: &btgs_piconet::ExchangeReport) {}

    fn name(&self) -> &'static str {
        "chain-test"
    }
}

/// A two-piconet scatternet with one bridged GS chain:
/// `M0 -> bridge (P0, S7)` then `bridge (P1, S7) -> M1`.
fn two_piconet_chain() -> ScatternetConfig {
    let allowed = vec![
        btgs_baseband::PacketType::Dh1,
        btgs_baseband::PacketType::Dh3,
    ];
    let p0 = PiconetConfig::new(allowed.clone()).with_flow(FlowSpec::new(
        FlowId(901),
        s(7),
        Direction::MasterToSlave,
        LogicalChannel::GuaranteedService,
    ));
    let p1 = PiconetConfig::new(allowed).with_flow(FlowSpec::new(
        FlowId(902),
        s(7),
        Direction::SlaveToMaster,
        LogicalChannel::GuaranteedService,
    ));
    ScatternetConfig {
        piconets: vec![p0, p1],
        bridges: vec![BridgeSpec {
            upstream: ScopedSlave::new(pic(0), s(7)),
            downstream: ScopedSlave::new(pic(1), s(7)),
            cycle: SimDuration::from_millis(20),
            dwell_upstream: SimDuration::from_millis(10),
        }],
        chains: vec![ChainSpec::new(vec![FlowId(901), FlowId(902)])],
    }
}

fn chain_sim(config: ScatternetConfig) -> ScatternetSim {
    let pollers: Vec<Box<dyn Poller>> = vec![
        Box::new(ChainTestPoller::new(vec![s(7)])),
        Box::new(ChainTestPoller::new(vec![s(7)])),
    ];
    let channels: Vec<Box<dyn btgs_baseband::ChannelModel>> =
        vec![Box::new(IdealChannel), Box::new(IdealChannel)];
    ScatternetSim::new(config, pollers, channels).expect("valid scatternet")
}

#[test]
fn bridged_chain_delivers_end_to_end() {
    let mut sim = chain_sim(two_piconet_chain());
    sim.add_source(Box::new(CbrSource::new(
        FlowId(901),
        SimDuration::from_millis(20),
        144,
        176,
        DetRng::seed_from_u64(7),
    )))
    .unwrap();
    let report = sim.run(SimTime::from_secs(2)).unwrap();

    let chain = &report.chains[0];
    assert!(
        chain.delivered_packets >= 90,
        "a 2 s run at 50 pkt/s should deliver most packets, got {}",
        chain.delivered_packets
    );
    assert!(chain.relayed_packets >= chain.delivered_packets);
    assert_eq!(chain.e2e.count() as u64, chain.delivered_packets);
    // Residence is bounded by the bridge's absence stretch (10 ms) and the
    // end-to-end delay includes at least one residence wait.
    assert!(chain.residence.max().unwrap() <= SimDuration::from_millis(10));
    assert!(chain.e2e.min().unwrap() > SimDuration::ZERO);

    // Per-hop stats exist in the per-piconet reports.
    let hop0 = report.piconet(pic(0)).flow(FlowId(901));
    let hop1 = report.piconet(pic(1)).flow(FlowId(902));
    assert!(hop0.delivered_packets >= chain.delivered_packets);
    assert_eq!(hop1.delivered_packets, chain.delivered_packets);
}

#[test]
fn end_to_end_equals_hop_delays_plus_residence_exactly() {
    // Zero warm-up so every sample set covers the same packets; random
    // jittered trace so segmentation and timing vary.
    let mut rng = DetRng::seed_from_u64(42);
    for case in 0..10 {
        let mut items = Vec::new();
        let mut t = SimTime::from_millis(rng.below(5));
        for _ in 0..40 {
            t += SimDuration::from_micros(5_000 + rng.below(40_000));
            items.push((t, 100 + rng.below(300) as u32));
        }
        let mut sim = chain_sim(two_piconet_chain());
        sim.add_source(Box::new(TraceSource::new(FlowId(901), items)))
            .unwrap();
        let report = sim.run(SimTime::from_secs(4)).unwrap();

        let chain = &report.chains[0];
        let hop0 = &report.piconet(pic(0)).flow(FlowId(901)).delay;
        let hop1 = &report.piconet(pic(1)).flow(FlowId(902)).delay;
        assert_eq!(chain.delivered_packets, 40, "case {case}: all delivered");
        assert_eq!(hop0.count(), 40);
        assert_eq!(hop1.count(), 40);
        assert_eq!(chain.e2e.count(), 40);
        // The identity holds sample-for-sample, so it holds for the exact
        // sums: e2e_i = hop0_i + residence_i + hop1_i.
        assert_eq!(
            chain.e2e.sum_nanos(),
            hop0.sum_nanos() + chain.residence.sum_nanos() + hop1.sum_nanos(),
            "case {case}: end-to-end must equal hop queueing plus residence"
        );
        // FIFO across the hop: the uplink hop delivered every packet the
        // downlink hop completed, in order (a reorder would desynchronise
        // the origin FIFO and panic or corrupt the counts above).
        assert_eq!(chain.relayed_packets, 40);
    }
}

#[test]
fn chain_counters_share_one_measurement_window() {
    // With a non-zero warm-up, packets straddling the boundary must not
    // smear across the chain statistics: e2e, residence and both counters
    // cover exactly the packets whose *origin* cleared warm-up.
    let mut config = two_piconet_chain();
    for cfg in &mut config.piconets {
        cfg.warmup = SimDuration::from_millis(500);
    }
    let mut sim = chain_sim(config);
    sim.add_source(Box::new(CbrSource::new(
        FlowId(901),
        SimDuration::from_millis(20),
        144,
        176,
        DetRng::seed_from_u64(3),
    )))
    .unwrap();
    let report = sim.run(SimTime::from_secs(3)).unwrap();
    let chain = &report.chains[0];
    assert!(chain.delivered_packets > 50);
    assert_eq!(chain.e2e.count() as u64, chain.delivered_packets);
    // Every counted forward of this 2-hop chain is a bridge crossing, so
    // the residence sample count equals the relayed counter exactly.
    assert_eq!(chain.residence.count() as u64, chain.relayed_packets);
    // Relays lead deliveries only by the packets still in flight.
    assert!(chain.relayed_packets >= chain.delivered_packets);
    assert!(chain.relayed_packets <= chain.delivered_packets + 2);
}

#[test]
fn chain_validation_rejects_broken_topologies() {
    // Missing bridge.
    let mut config = two_piconet_chain();
    config.bridges.clear();
    let pollers: Vec<Box<dyn Poller>> = vec![
        Box::new(ChainTestPoller::new(vec![s(7)])),
        Box::new(ChainTestPoller::new(vec![s(7)])),
    ];
    let channels: Vec<Box<dyn btgs_baseband::ChannelModel>> =
        vec![Box::new(IdealChannel), Box::new(IdealChannel)];
    let err = match ScatternetSim::new(config, pollers, channels) {
        Err(e) => e,
        Ok(_) => panic!("missing bridge must be rejected"),
    };
    assert!(err.to_string().contains("no bridge"), "{err}");

    // Wrong hop directions for a bridge crossing (uplink then downlink).
    let allowed = vec![btgs_baseband::PacketType::Dh1];
    let p0 = PiconetConfig::new(allowed.clone()).with_flow(FlowSpec::new(
        FlowId(901),
        s(7),
        Direction::SlaveToMaster,
        LogicalChannel::GuaranteedService,
    ));
    let p1 = PiconetConfig::new(allowed).with_flow(FlowSpec::new(
        FlowId(902),
        s(7),
        Direction::MasterToSlave,
        LogicalChannel::GuaranteedService,
    ));
    let config = ScatternetConfig {
        piconets: vec![p0, p1],
        bridges: vec![BridgeSpec {
            upstream: ScopedSlave::new(pic(0), s(7)),
            downstream: ScopedSlave::new(pic(1), s(7)),
            cycle: SimDuration::from_millis(20),
            dwell_upstream: SimDuration::from_millis(10),
        }],
        chains: vec![ChainSpec::new(vec![FlowId(901), FlowId(902)])],
    };
    let pollers: Vec<Box<dyn Poller>> = vec![
        Box::new(ChainTestPoller::new(vec![s(7)])),
        Box::new(ChainTestPoller::new(vec![s(7)])),
    ];
    let channels: Vec<Box<dyn btgs_baseband::ChannelModel>> =
        vec![Box::new(IdealChannel), Box::new(IdealChannel)];
    let err = match ScatternetSim::new(config, pollers, channels) {
        Err(e) => e,
        Ok(_) => panic!("wrong hop directions must be rejected"),
    };
    assert!(err.to_string().contains("downlink then uplink"), "{err}");
}

#[test]
fn relay_fed_hops_reject_sources_and_first_hops_require_them() {
    let mut sim = chain_sim(two_piconet_chain());
    // The relay-fed hop must not accept a source.
    let err = sim
        .add_source(Box::new(CbrSource::new(
            FlowId(902),
            SimDuration::from_millis(20),
            144,
            176,
            DetRng::seed_from_u64(1),
        )))
        .unwrap_err();
    assert!(err.to_string().contains("relay-fed"), "{err}");
    // Without the first-hop source the run refuses to start.
    let err = sim.run(SimTime::from_secs(1)).unwrap_err();
    assert!(err.to_string().contains("has no source"), "{err}");
}

/// Two chains cross ONE bridge in opposite directions: the forward chain
/// rides the bridge's downstream window, the reverse chain its upstream
/// window. Both deliver, and each chain's residence samples stay within
/// the worst case of its target window (cycle − target dwell).
#[test]
fn bidirectional_chains_share_one_bridge() {
    let allowed = vec![
        btgs_baseband::PacketType::Dh1,
        btgs_baseband::PacketType::Dh3,
    ];
    let p0 = PiconetConfig::new(allowed.clone())
        .with_flow(FlowSpec::new(
            FlowId(901),
            s(7),
            Direction::MasterToSlave,
            LogicalChannel::GuaranteedService,
        ))
        .with_flow(FlowSpec::new(
            FlowId(912),
            s(7),
            Direction::SlaveToMaster,
            LogicalChannel::GuaranteedService,
        ));
    let p1 = PiconetConfig::new(allowed)
        .with_flow(FlowSpec::new(
            FlowId(902),
            s(7),
            Direction::SlaveToMaster,
            LogicalChannel::GuaranteedService,
        ))
        .with_flow(FlowSpec::new(
            FlowId(911),
            s(7),
            Direction::MasterToSlave,
            LogicalChannel::GuaranteedService,
        ));
    let cycle = SimDuration::from_millis(20);
    let dwell = SimDuration::from_millis(10);
    let config = ScatternetConfig {
        piconets: vec![p0, p1],
        bridges: vec![BridgeSpec {
            upstream: ScopedSlave::new(pic(0), s(7)),
            downstream: ScopedSlave::new(pic(1), s(7)),
            cycle,
            dwell_upstream: dwell,
        }],
        chains: vec![
            // Forward: M0 -> bridge -> M1 (crosses upstream->downstream).
            ChainSpec::new(vec![FlowId(901), FlowId(902)]),
            // Reverse: M1 -> bridge -> M0 (crosses downstream->upstream).
            ChainSpec::new(vec![FlowId(911), FlowId(912)]),
        ],
    };
    let mut sim = chain_sim(config);
    for (flow, seed) in [(901u32, 7u64), (911, 8)] {
        sim.add_source(Box::new(CbrSource::new(
            FlowId(flow),
            SimDuration::from_millis(20),
            144,
            176,
            DetRng::seed_from_u64(seed),
        )))
        .unwrap();
    }
    let report = sim.run(SimTime::from_secs(4)).unwrap();
    assert_eq!(report.chains.len(), 2);
    for (ci, chain) in report.chains.iter().enumerate() {
        assert!(
            chain.delivered_packets >= 150,
            "chain {ci}: only {} delivered over 4 s at 50 pkt/s",
            chain.delivered_packets
        );
        // Worst-case residence of either crossing direction: the target
        // window's absence gap (both are 10 ms with an even split).
        let worst = cycle - dwell;
        assert!(chain.residence.count() > 0);
        assert!(
            chain.residence.max().unwrap() <= worst,
            "chain {ci}: residence {} exceeds the analytic worst case {worst}",
            chain.residence.max().unwrap()
        );
        // e2e is still the exact sum of hop queueing and residence.
        assert_eq!(chain.e2e.count() as u64, chain.delivered_packets);
    }
}

/// `hop_intervals`, when recorded, must match the hop count.
#[test]
fn mismatched_hop_interval_record_is_rejected() {
    let mut config = two_piconet_chain();
    config.chains[0].hop_intervals = vec![SimDuration::from_millis(16)];
    let pollers: Vec<Box<dyn Poller>> = vec![
        Box::new(ChainTestPoller::new(vec![s(7)])),
        Box::new(ChainTestPoller::new(vec![s(7)])),
    ];
    let channels: Vec<Box<dyn btgs_baseband::ChannelModel>> =
        vec![Box::new(IdealChannel), Box::new(IdealChannel)];
    let err = match ScatternetSim::new(config, pollers, channels) {
        Err(e) => e,
        Ok(_) => panic!("interval/hop count mismatch must be rejected"),
    };
    assert!(err.to_string().contains("granted intervals"), "{err}");
}
