//! The master's wake-up timer at t = 0.
//!
//! A piconet's run starts with one plain `Wake` event at t = 0, queued
//! behind the t = 0 arrivals. A BE uplink arrival at t = 0 finds the master
//! free and arms the scheduler's timer for t = 0 as well, behind that seed
//! Wake. The seed Wake fires first and frees the timer; the Wake the
//! timer held must then stay queued as a plain event and fire too. A timer
//! that is simply re-armed instead drops that event: these runs then
//! process one event fewer (776 and 1,237) and report differently.
//!
//! The pinned values are those of the engine that scheduled every wake as
//! a cancellable queue event, before the timer existed.

use btgs::baseband::{AmAddr, Direction, IdealChannel, LogicalChannel, PacketType};
use btgs::des::{DetRng, SimDuration, SimTime};
use btgs::grid::wire::fnv1a64;
use btgs::piconet::{
    FlowSpec, PiconetConfig, PiconetSim, RunReport, ScatternetConfig, ScatternetSim,
};
use btgs::pollers::PfpBePoller;
use btgs::traffic::{CbrSource, FlowId, Source};

/// Two BE uplink flows, S1 and S2, both starting at t = 0: S1 sends a
/// 100–176 B packet every `s1_interval`, S2 a 176 B packet every 30 ms.
fn config() -> PiconetConfig {
    let flow = |id, slave| {
        FlowSpec::new(
            FlowId(id),
            AmAddr::new(slave).unwrap(),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        )
    };
    PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
        .with_flow(flow(1, 1))
        .with_flow(flow(2, 2))
}

fn sources(s1_interval: SimDuration) -> [Box<dyn Source>; 2] {
    [
        Box::new(CbrSource::new(
            FlowId(1),
            s1_interval,
            100,
            176,
            DetRng::seed_from_u64(1),
        )),
        Box::new(CbrSource::new(
            FlowId(2),
            SimDuration::from_millis(30),
            176,
            176,
            DetRng::seed_from_u64(2),
        )),
    ]
}

fn poller() -> Box<PfpBePoller> {
    Box::new(PfpBePoller::new(SimDuration::from_millis(20)))
}

const HORIZON: SimTime = SimTime::from_secs(2);

/// The run on the production queue, as a `PiconetSim`.
fn sorted_run(s1_interval: SimDuration) -> RunReport {
    let mut sim = PiconetSim::new(config(), poller(), Box::new(IdealChannel)).unwrap();
    for src in sources(s1_interval) {
        sim.add_source(src).unwrap();
    }
    sim.run(HORIZON).unwrap()
}

/// The same run on the heap reference: the one-island scatternet
/// `PiconetSim` wraps, built by hand so the reference queue applies.
fn heap_run(s1_interval: SimDuration) -> RunReport {
    let config = ScatternetConfig {
        piconets: vec![config()],
        bridges: Vec::new(),
        chains: Vec::new(),
    };
    let mut sim = ScatternetSim::new(config, vec![poller()], vec![Box::new(IdealChannel)]).unwrap();
    for src in sources(s1_interval) {
        sim.add_source(src).unwrap();
    }
    let mut report = sim.with_reference_queue().run(HORIZON).unwrap();
    report.piconets.pop().unwrap()
}

#[test]
fn both_t0_wakes_fire_on_both_backends() {
    for (s1_ms, events, digest) in [
        (20, 777, 0x4409_4a81_1327_bca5_u64),
        (7, 1_238, 0x33f7_641d_7884_ed58),
    ] {
        let s1 = SimDuration::from_millis(s1_ms);
        for (backend, report) in [("sorted", sorted_run(s1)), ("heap", heap_run(s1))] {
            assert_eq!(
                report.events_processed, events,
                "S1 every {s1_ms} ms, {backend} queue: events processed"
            );
            assert_eq!(
                fnv1a64(format!("{report:?}").as_bytes()),
                digest,
                "S1 every {s1_ms} ms, {backend} queue: report bytes"
            );
        }
    }
}
