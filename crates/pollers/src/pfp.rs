//! The Predictive Fair Poller (PFP) for best-effort traffic.
//!
//! Reconstruction of reference [1] of the paper (Ait Yaiz & Heijenk,
//! *Polling Best Effort Traffic in Bluetooth*, 2002) from its summary in
//! §4: *"This poller predicts the availability of data for each slave, and
//! it keeps track of fairness. Based on these two aspects, it decides which
//! slave to poll next. In the BE case, a fair share of resources is
//! determined for each slave, and the fairness is based on the fractions of
//! these fair shares."*
//!
//! Concretely, this implementation:
//!
//! 1. predicts per-slave data availability with an
//!    [`AvailabilityPredictor`] (downlink availability is known exactly —
//!    those queues live at the master);
//! 2. tracks per-slave service in slots with a [`FairShareTracker`];
//! 3. polls, among the slaves whose availability probability clears a
//!    fixed threshold of 0.4, the one furthest below its fair share;
//! 4. when nobody clears the threshold, sleeps until the earliest instant
//!    somebody will — so an idle piconet consumes (almost) no slots, which
//!    is precisely the property the paper exploits to hand spare bandwidth
//!    to best-effort traffic.

use crate::fairness::FairShareTracker;
use crate::predictor::AvailabilityPredictor;
use btgs_baseband::{AmAddr, LogicalChannel};
use btgs_des::{SimDuration, SimTime};
use btgs_piconet::{ExchangeReport, MasterView, PollDecision, Poller, SegmentOutcome};

/// One more than the highest active member address (slot 0 is unused).
const SLOTS: usize = AmAddr::MAX_SLAVES + 1;

/// Availability probability a slave must reach to be polled eagerly.
const THRESHOLD: f64 = 0.4;

/// Predictive Fair Poller for the best-effort logical channel.
///
/// Per-slave state lives in dense arrays indexed by the 3-bit active member
/// address, and the registered-slave list is kept sorted, so a decision is
/// a handful of array loads per slave — the ordered-map version this
/// replaced walked `BTreeMap`s several times per poll. Decision order is
/// unchanged (ascending address, exactly the old map iteration order).
#[derive(Clone, Debug)]
pub struct PfpBePoller {
    expected_interval: SimDuration,
    predictors: [Option<AvailabilityPredictor>; SLOTS],
    /// Registered slaves in ascending address order.
    slaves: Vec<AmAddr>,
    /// Whether a slave carries at least one best-effort uplink flow
    /// (static per run; cached by [`PfpBePoller::sync`]).
    has_uplink: [bool; SLOTS],
    /// Each slave's best-effort *downlink* flow indices into the
    /// [`btgs_piconet::FlowTable`] (static per run; cached by `sync`).
    /// Downlink queues live at the master, so availability checks walk
    /// exactly these, with no channel/direction re-filtering per decision.
    down_flows: [Vec<btgs_piconet::FlowIdx>; SLOTS],
    /// Flow count of the view when `sync` last ran. The flow set of a
    /// simulation is fixed, so an unchanged count means nothing to do.
    synced_flows: usize,
    fairness: FairShareTracker,
}

impl PfpBePoller {
    /// Creates a PFP with an initial arrival guess of one packet per
    /// `expected_interval` per slave.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    pub fn new(expected_interval: SimDuration) -> PfpBePoller {
        assert!(
            !expected_interval.is_zero(),
            "expected interval must be positive"
        );
        PfpBePoller {
            expected_interval,
            predictors: [const { None }; SLOTS],
            slaves: Vec::new(),
            has_uplink: [false; SLOTS],
            down_flows: [const { Vec::new() }; SLOTS],
            synced_flows: 0,
            fairness: FairShareTracker::new(),
        }
    }

    /// Caches per-slave flow structure from the view.
    ///
    /// A simulation's flow set is fixed for the whole run, so this runs
    /// once (guarded by the flow count). A poller instance must not be
    /// reused against a *rebuilt* flow table — cached [`FlowIdx`] values
    /// would dangle; build a fresh poller per run, as `PiconetSim` does.
    ///
    /// [`FlowIdx`]: btgs_piconet::FlowIdx
    fn sync(&mut self, view: &MasterView<'_>) {
        if self.synced_flows == view.flows().len() {
            return; // the flow set of a run is static
        }
        for slot in &mut self.down_flows {
            slot.clear();
        }
        self.has_uplink = [false; SLOTS];
        for &slave in view.slaves() {
            for &idx in view.flows_of(slave) {
                let f = view.table().spec(idx);
                if f.channel != LogicalChannel::BestEffort {
                    continue;
                }
                self.register_slave(f.slave);
                if f.direction.is_uplink() {
                    self.has_uplink[f.slave.get() as usize] = true;
                } else {
                    self.down_flows[f.slave.get() as usize].push(idx);
                }
            }
        }
        self.synced_flows = view.flows().len();
    }

    fn register_slave(&mut self, slave: AmAddr) {
        let i = slave.get() as usize;
        if self.predictors[i].is_none() {
            self.predictors[i] = Some(AvailabilityPredictor::new(self.expected_interval));
            self.fairness.register(slave, 1.0);
            let pos = self.slaves.partition_point(|s| *s < slave);
            self.slaves.insert(pos, slave);
        }
    }

    /// The probability that polling `slave` at `now` returns data in either
    /// direction. Walks only the slave's precomputed BE downlink indices.
    fn availability(&self, slave: AmAddr, now: SimTime, view: &MasterView<'_>) -> f64 {
        let i = slave.get() as usize;
        for &idx in &self.down_flows[i] {
            if view.downlink_has_data_at(idx, now) {
                // Downlink queues are at the master: exact knowledge.
                return 1.0;
            }
        }
        if !self.has_uplink[i] {
            return 0.0;
        }
        self.predictors[i]
            .as_ref()
            .map_or(0.0, |p| p.probability_at(now))
    }

    /// Test hook: the current fairness deficit of a slave in slots.
    pub fn deficit(&self, slave: AmAddr) -> f64 {
        self.fairness.deficit(slave)
    }
}

impl Poller for PfpBePoller {
    fn decide(&mut self, now: SimTime, view: &MasterView<'_>) -> PollDecision {
        self.sync(view);
        if self.slaves.is_empty() {
            return PollDecision::Sleep;
        }
        // Candidates that clear the availability threshold, by deficit.
        // Absent bridge slaves are never candidates, whatever their
        // predicted availability.
        let mut best: Option<(f64, f64, AmAddr)> = None;
        for &slave in &self.slaves {
            if !view.is_present(slave) {
                continue;
            }
            let deficit = self.fairness.deficit(slave);
            // A deficit below the best candidate's cannot win whatever its
            // availability, so its prediction (an `exp`) is not computed.
            if best.is_some_and(|(d, _, _)| deficit < d) {
                continue;
            }
            let p = self.availability(slave, now, view);
            if p < THRESHOLD {
                continue;
            }
            let key = (deficit, p);
            if best.is_none_or(|(d, pp, _)| key > (d, pp)) {
                best = Some((deficit, p, slave));
            }
        }
        if let Some((_, _, slave)) = best {
            return PollDecision::Poll {
                slave,
                channel: LogicalChannel::BestEffort,
            };
        }
        // Nobody is likely to have data: sleep until the earliest predicted
        // threshold crossing. Slaves without uplink flows never cross (their
        // downlink arrivals wake the master through the arrival path), and
        // an absent slave cannot be polled before it returns, however
        // likely its data.
        let next = self
            .slaves
            .iter()
            .filter(|slave| self.has_uplink[slave.get() as usize])
            .filter_map(|slave| {
                self.predictors[slave.get() as usize]
                    .as_ref()
                    .map(|p| (slave, p))
            })
            .map(|(slave, p)| {
                p.time_of_probability(THRESHOLD)
                    .max(view.next_present(*slave))
            })
            .min();
        match next {
            Some(t) if t > now => PollDecision::Idle { until: t },
            Some(_) => {
                // A crossing in the past means the probability is computed
                // as above-threshold next decision round; poll the most
                // underserved *present* slave directly to make progress.
                let slave = self
                    .slaves
                    .iter()
                    .copied()
                    .filter(|s| view.is_present(*s))
                    .max_by(|a, b| {
                        self.fairness
                            .deficit(*a)
                            .total_cmp(&self.fairness.deficit(*b))
                    });
                match slave {
                    Some(slave) => PollDecision::Poll {
                        slave,
                        channel: LogicalChannel::BestEffort,
                    },
                    None => {
                        // Everybody with data prospects is off in another
                        // piconet: wait for the first one back.
                        PollDecision::Idle {
                            until: view.earliest_presence(&self.slaves),
                        }
                    }
                }
            }
            None => PollDecision::Sleep,
        }
    }

    fn on_exchange(&mut self, report: &ExchangeReport) {
        if report.channel != LogicalChannel::BestEffort {
            return;
        }
        self.register_slave(report.slave);
        let slots = report.down.slots() + report.up.slots();
        self.fairness.record(report.slave, slots);
        let predictor = self.predictors[report.slave.get() as usize]
            .as_mut()
            .expect("registered above");
        match report.up {
            SegmentOutcome::Data { segment, .. } => {
                // `is_last` approximates "queue drained" — the master cannot
                // see the uplink queue, so the end of a higher-layer packet
                // is the best available signal (cf. the flow-bit pollers of
                // the paper's reference [6]).
                predictor.observe_data(report.end, segment.is_last);
            }
            SegmentOutcome::Control { .. } => predictor.observe_empty(report.end),
            SegmentOutcome::Silent => {} // lost POLL: no information
        }
    }

    fn name(&self) -> &'static str {
        "pfp-be"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_baseband::{Direction, PacketType};
    use btgs_piconet::{FlowQueue, FlowSpec, FlowState, FlowTable, SegmentPlan};
    use btgs_traffic::{AppPacket, FlowId};

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    fn uplink_flows(n: u8) -> Vec<FlowSpec> {
        (1..=n)
            .map(|k| {
                FlowSpec::new(
                    FlowId(k as u32),
                    s(k),
                    Direction::SlaveToMaster,
                    LogicalChannel::BestEffort,
                )
            })
            .collect()
    }

    fn data_report(slave: AmAddr, end: SimTime, is_last: bool) -> ExchangeReport {
        ExchangeReport {
            start: end - SimDuration::from_micros(2500),
            end,
            slave,
            channel: LogicalChannel::BestEffort,
            down: SegmentOutcome::Control {
                ty: PacketType::Poll,
            },
            up: SegmentOutcome::Data {
                flow: FlowId(1),
                segment: SegmentPlan {
                    ty: PacketType::Dh3,
                    bytes: 176,
                    is_last,
                    is_first: true,
                    packet_seq: 0,
                    packet_size: 176,
                    packet_arrival: SimTime::ZERO,
                },
                delivered: true,
                retransmission: false,
            },
        }
    }

    fn empty_report(slave: AmAddr, end: SimTime) -> ExchangeReport {
        ExchangeReport {
            up: SegmentOutcome::Control {
                ty: PacketType::Null,
            },
            ..data_report(slave, end, true)
        }
    }

    #[test]
    fn known_downlink_data_polls_immediately() {
        let flows = [FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::MasterToSlave,
            LogicalChannel::BestEffort,
        )];
        let mut q = FlowQueue::new();
        q.push(AppPacket::new(0, FlowId(1), 100, SimTime::ZERO));
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let mut queues = FlowState::for_table(&table);
        *queues[0].queue_mut() = q;
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut pfp = PfpBePoller::new(SimDuration::from_millis(20));
        match pfp.decide(SimTime::ZERO, &view) {
            PollDecision::Poll { slave, channel } => {
                assert_eq!(slave, s(1));
                assert_eq!(channel, LogicalChannel::BestEffort);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idles_when_all_unlikely() {
        let flows = uplink_flows(2);
        let mut pfp = PfpBePoller::new(SimDuration::from_millis(20));
        // Teach the predictors that both slaves were just emptied.
        let t0 = SimTime::from_millis(100);
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(t0, &table, &queues);
        let _ = pfp.decide(t0, &view);
        pfp.on_exchange(&empty_report(s(1), t0));
        pfp.on_exchange(&empty_report(s(2), t0));
        match pfp.decide(t0, &view) {
            PollDecision::Idle { until } => {
                assert!(until > t0);
                // Threshold crossing with a 50/s rate estimate happens
                // within ~20 ms.
                assert!(until < t0 + SimDuration::from_millis(40));
            }
            other => panic!("expected Idle, got {other:?}"),
        }
    }

    #[test]
    fn prefers_underserved_slave() {
        let flows = uplink_flows(2);
        let mut pfp = PfpBePoller::new(SimDuration::from_millis(20));
        let t0 = SimTime::from_millis(50);
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(t0, &table, &queues);
        let _ = pfp.decide(t0, &view);
        // Serve slave 1 a lot; slave 2 nothing.
        for k in 0..10u64 {
            pfp.on_exchange(&data_report(s(1), t0 + SimDuration::from_millis(k), false));
        }
        assert!(pfp.deficit(s(2)) > 0.0);
        // Both slaves fully available (backlogged predictor for s1; long
        // elapsed time for s2): fairness must pick s2.
        let t1 = t0 + SimDuration::from_millis(500);
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let view = MasterView::new(t1, &table, &queues);
        match pfp.decide(t1, &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, s(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deficit_ties_go_to_the_more_available_slave() {
        // S1 has a predicted uplink, S2 a downlink packet the master can
        // see: availability about 0.63 against exactly 1.
        let flows = [
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
            FlowSpec::new(
                FlowId(2),
                s(2),
                Direction::MasterToSlave,
                LogicalChannel::BestEffort,
            ),
        ];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let mut state = FlowState::for_table(&table);
        state[1]
            .queue_mut()
            .push(AppPacket::new(0, FlowId(2), 100, SimTime::ZERO));
        let mut pfp = PfpBePoller::new(SimDuration::from_millis(20));
        let t0 = SimTime::from_millis(20);
        let view = MasterView::new(t0, &table, &state);
        // Nobody served yet, so the deficits tie and availability decides,
        // although S1 comes first.
        match pfp.decide(t0, &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, s(2)),
            other => panic!("{other:?}"),
        }
        assert_eq!(pfp.deficit(s(1)), pfp.deficit(s(2)));
        // Once S2 is served, its deficit is lower and its certain data
        // cannot outweigh S1's larger claim.
        pfp.on_exchange(&data_report(
            s(2),
            t0 + SimDuration::from_micros(2500),
            true,
        ));
        assert!(pfp.deficit(s(2)) < pfp.deficit(s(1)));
        let t1 = t0 + SimDuration::from_micros(2500);
        let view = MasterView::new(t1, &table, &state);
        match pfp.decide(t1, &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, s(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sleeps_with_no_be_flows() {
        let flows = [FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::SlaveToMaster,
            LogicalChannel::GuaranteedService,
        )];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut pfp = PfpBePoller::new(SimDuration::from_millis(20));
        assert_eq!(pfp.decide(SimTime::ZERO, &view), PollDecision::Sleep);
    }

    #[test]
    fn downlink_only_slave_never_idles_forever() {
        // A slave with only a downlink flow: when its queue is empty the
        // poller sleeps (arrivals wake the master), it must not busy-poll.
        let flows = [FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::MasterToSlave,
            LogicalChannel::BestEffort,
        )];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut pfp = PfpBePoller::new(SimDuration::from_millis(20));
        assert_eq!(pfp.decide(SimTime::ZERO, &view), PollDecision::Sleep);
    }
}
