//! Regression tests pinning the bridge-departure boundary semantics of
//! the presence-aware pollers.
//!
//! The contract, identical for every poller and enforced by the
//! simulator's exchange cap:
//!
//! * the presence window is **end-exclusive**: an exchange *ending
//!   exactly on* the departure boundary fits; one starting *at* the
//!   boundary does not;
//! * a **GS** poll is only issued when the entity's full segment-exchange
//!   time `s` still fits before departure — a shorter remainder would
//!   silently truncate the exchange below the η_min the admission
//!   accounting promises per poll (the bug this file pins: the fit test
//!   must use the exchange *end*, not merely presence at the start slot);
//! * a **best-effort** poll may use any remainder that fits at least
//!   POLL + NULL (two slots) — BE carries no per-poll guarantee, so
//!   scraps of window are fair game.

use btgs_baseband::{AmAddr, Direction, LogicalChannel, PresenceWindow};
use btgs_core::{admit, AdmissionConfig, GsPoller, GsRequest};
use btgs_des::{SimDuration, SimTime};
use btgs_gs::TokenBucketSpec;
use btgs_piconet::{
    FlowQueue, FlowSpec, FlowState, FlowTable, MasterView, PollDecision, Poller, PresenceMask,
};
use btgs_pollers::PfpBePoller;
use btgs_traffic::{AppPacket, FlowId};

fn s(n: u8) -> AmAddr {
    AmAddr::new(n).unwrap()
}

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

/// Bridge present during the first 10 ms of every 20 ms cycle.
fn bridge_mask(slave: AmAddr) -> PresenceMask {
    let mut mask = PresenceMask::new();
    mask.set(
        slave,
        PresenceWindow::new(SimDuration::from_millis(20), SimDuration::ZERO, us(10_000)).unwrap(),
    )
    .unwrap();
    mask
}

#[test]
fn window_boundary_is_end_exclusive_for_the_exchange_cap() {
    let mask = bridge_mask(s(1));
    // A 6-slot (3.75 ms) exchange starting 3.75 ms before departure ends
    // exactly on the boundary: allowed.
    assert!(mask.fits(s(1), SimTime::from_micros(6_250), us(3_750)));
    // One slot pair later it no longer fits.
    assert!(!mask.fits(s(1), SimTime::from_micros(7_500), us(3_750)));
    // At the departure instant itself nothing fits (absent).
    assert!(!mask.fits(s(1), SimTime::from_micros(10_000), us(1_250)));
    // Full-time slaves always fit.
    assert!(mask.fits(s(2), SimTime::from_micros(10_000), us(3_750)));
    // next_fitting lands on the last start instant that still fits, then
    // wraps to the next cycle.
    assert_eq!(
        mask.next_fitting(s(1), SimTime::from_micros(6_250), us(3_750)),
        SimTime::from_micros(6_250)
    );
    assert_eq!(
        mask.next_fitting(s(1), SimTime::from_micros(7_500), us(3_750)),
        SimTime::from_micros(20_000)
    );
}

/// A GS poller over one bridge entity; the paper's DH1+DH3 configuration
/// gives the entity `s = U = 3.75 ms`.
fn gs_poller_for_bridge() -> (GsPoller, FlowTable) {
    let tspec = TokenBucketSpec::for_cbr(0.020, 144, 176).unwrap();
    let req = GsRequest::new(FlowId(1), s(1), Direction::SlaveToMaster, tspec, 8_800.0);
    let outcome = admit(&[req], &AdmissionConfig::paper()).unwrap();
    assert_eq!(outcome.entities[0].s, us(3_750));
    let poller = GsPoller::variable(&outcome, SimTime::ZERO);
    let table = FlowTable::new(vec![FlowSpec::new(
        FlowId(1),
        s(1),
        Direction::SlaveToMaster,
        LogicalChannel::GuaranteedService,
    )])
    .unwrap();
    (poller, table)
}

#[test]
fn gs_poll_requires_the_full_exchange_to_fit_before_departure() {
    let (mut poller, table) = gs_poller_for_bridge();
    let queues = FlowState::for_table(&table);
    let mask = bridge_mask(s(1));

    // 3.75 ms before departure: a full DH3+DH3 exchange still fits (it
    // ends exactly on the boundary) — the due poll is issued.
    let t = SimTime::from_micros(6_250);
    let view = MasterView::with_presence(t, &table, &queues, &mask);
    match poller.decide(t, &view) {
        PollDecision::Poll { slave, channel } => {
            assert_eq!(slave, s(1));
            assert_eq!(channel, LogicalChannel::GuaranteedService);
        }
        other => panic!("exchange ending on the boundary must be allowed: {other:?}"),
    }

    // 2.5 ms before departure the slave is still *present*, but a full
    // exchange no longer fits: the poll defers to the next window instead
    // of issuing a truncated exchange.
    let (mut poller, table) = gs_poller_for_bridge();
    let t = SimTime::from_micros(7_500);
    let view = MasterView::with_presence(t, &table, &queues, &mask);
    assert!(
        view.is_present(s(1)),
        "the boundary case: present but tight"
    );
    match poller.decide(t, &view) {
        PollDecision::Idle { until } => {
            assert_eq!(
                until,
                SimTime::from_micros(20_000),
                "deferred to the next window start"
            );
        }
        other => panic!("a truncating GS poll must be deferred: {other:?}"),
    }

    // At the departure boundary itself the slave is absent; same verdict.
    let (mut poller, table) = gs_poller_for_bridge();
    let t = SimTime::from_micros(10_000);
    let view = MasterView::with_presence(t, &table, &queues, &mask);
    assert!(!view.is_present(s(1)));
    match poller.decide(t, &view) {
        PollDecision::Idle { until } => assert_eq!(until, SimTime::from_micros(20_000)),
        other => panic!("{other:?}"),
    }
}

#[test]
fn be_poll_uses_any_remainder_but_not_the_boundary_instant() {
    let table = FlowTable::new(vec![FlowSpec::new(
        FlowId(1),
        s(1),
        Direction::MasterToSlave,
        LogicalChannel::BestEffort,
    )])
    .unwrap();
    let mut q = FlowQueue::new();
    q.push(AppPacket::new(0, FlowId(1), 100, SimTime::ZERO));
    let mut queues = FlowState::for_table(&table);
    *queues[0].queue_mut() = q;
    let mask = bridge_mask(s(1));

    // 2.5 ms before departure — where a GS poll already defers — the BE
    // poller still polls: POLL + DH1 fits, and best effort has no
    // per-poll efficiency guarantee to protect.
    let t = SimTime::from_micros(7_500);
    let view = MasterView::with_presence(t, &table, &queues, &mask);
    let mut pfp = PfpBePoller::new(SimDuration::from_millis(20));
    match pfp.decide(t, &view) {
        PollDecision::Poll { slave, channel } => {
            assert_eq!(slave, s(1));
            assert_eq!(channel, LogicalChannel::BestEffort);
        }
        other => panic!("BE may use window scraps: {other:?}"),
    }

    // At the boundary instant the slave is absent: no poll, and the idle
    // target is the next window.
    let t = SimTime::from_micros(10_000);
    let view = MasterView::with_presence(t, &table, &queues, &mask);
    let mut pfp = PfpBePoller::new(SimDuration::from_millis(20));
    match pfp.decide(t, &view) {
        PollDecision::Poll { .. } => panic!("polled an absent bridge"),
        PollDecision::Idle { .. } | PollDecision::Sleep => {}
    }
}

/// End to end through the simulator: a packet whose only service
/// opportunity ends exactly on the departure boundary is delivered, and
/// its delivery timestamp *is* the boundary.
#[test]
fn exchange_ending_exactly_on_the_boundary_delivers() {
    use btgs_baseband::{IdealChannel, PacketType};
    use btgs_des::DetRng;
    use btgs_piconet::{PiconetConfig, PiconetSim};
    use btgs_traffic::CbrSource;

    // One BE uplink flow on a bridge present [0, 2.5 ms) of every 20 ms:
    // the window fits exactly two POLL+DH1 exchanges (4 slots); the
    // second ends exactly on the boundary.
    let config = PiconetConfig::new(vec![PacketType::Dh1])
        .with_flow(FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        ))
        .with_presence(
            s(1),
            PresenceWindow::new(SimDuration::from_millis(20), SimDuration::ZERO, us(2_500))
                .unwrap(),
        );
    let mut sim = PiconetSim::new(
        config,
        Box::new(btgs_piconet::RoundRobinForTest::default()),
        Box::new(IdealChannel),
    )
    .unwrap();
    // Two 27-byte packets at t = 0: both need one DH1 each; the first
    // exchange spans [0, 1.25 ms), the second [1.25, 2.5 ms) — ending
    // exactly at departure.
    sim.add_source(Box::new(
        CbrSource::new(
            FlowId(1),
            SimDuration::from_micros(100),
            27,
            27,
            DetRng::seed_from_u64(1),
        )
        .with_packet_limit(2),
    ))
    .unwrap();
    let report = sim.run(SimTime::from_millis(30)).unwrap();
    let flow = report.flow(FlowId(1));
    assert_eq!(flow.delivered_packets, 2, "both exchanges fit the window");
    // The second delivery lands exactly on the departure boundary.
    assert_eq!(flow.delay.max().unwrap(), us(2_500) - us(100));
}

/// A window shorter than the entity's full exchange can never fit it: the
/// GS poller must degrade to polling while present (the sim truncates the
/// exchange at the departure cap) instead of idling "until now" forever —
/// the 1 ns re-wake busy loop this pins against.
#[test]
fn window_shorter_than_the_exchange_degrades_to_truncated_polls() {
    let (mut poller, table) = gs_poller_for_bridge();
    let queues = FlowState::for_table(&table);
    // Dwell 2.5 ms < s = 3.75 ms.
    let mut mask = PresenceMask::new();
    mask.set(
        s(1),
        PresenceWindow::new(SimDuration::from_millis(20), SimDuration::ZERO, us(2_500)).unwrap(),
    )
    .unwrap();

    // Inside the window the due poll must be issued (truncated by the
    // departure cap), not deferred to an instant that never comes.
    let t = SimTime::from_micros(1_250);
    let view = MasterView::with_presence(t, &table, &queues, &mask);
    match poller.decide(t, &view) {
        PollDecision::Poll { slave, .. } => assert_eq!(slave, s(1)),
        other => panic!("an unfittable window must degrade to presence: {other:?}"),
    }

    // Outside it, the idle target is the next window start — strictly in
    // the future, so the wake loop always progresses.
    let (mut poller, table) = gs_poller_for_bridge();
    let t = SimTime::from_micros(5_000);
    let view = MasterView::with_presence(t, &table, &queues, &mask);
    match poller.decide(t, &view) {
        PollDecision::Idle { until } => {
            assert_eq!(until, SimTime::from_micros(20_000));
            assert!(until > t);
        }
        other => panic!("{other:?}"),
    }
}
