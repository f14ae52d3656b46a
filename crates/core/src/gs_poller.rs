//! The Guaranteed Service pollers (§3.1, §3.2, and the PFP implementation
//! evaluated in §4).
//!
//! One engine covers all three flavours:
//!
//! * [`GsPoller::fixed`] — §3.1: polls planned on a rigid `x_i` grid;
//! * [`GsPoller::variable`] — §3.2: the grid plus improvements (a)–(c);
//! * [`GsPoller::pfp`] — the paper's evaluation vehicle: the variable
//!   interval poller for GS entities, with the leftover slots handed to an
//!   inner best-effort poller (PFP-BE from `btgs-pollers`).
//!
//! Due GS polls always win over best-effort service and execute in priority
//! order — the property the `y_i` computation of Fig. 2 relies on.

use crate::admission::AdmissionOutcome;
use crate::plan::{Improvements, PollOutcome, PollPlan};
use btgs_baseband::{AmAddr, Direction, LogicalChannel};
use btgs_des::{SimDuration, SimTime};
use btgs_piconet::{ExchangeReport, FlowIdx, MasterView, PollDecision, Poller, SegmentOutcome};
use btgs_traffic::FlowId;

struct EntityState {
    slave: AmAddr,
    accounting_flow: FlowId,
    /// Dense index of `accounting_flow` in the piconet's flow table
    /// (static per run; cached by [`GsPoller::sync`]). `None` when the
    /// flow is not configured — the skip loop then sees no downlink data.
    accounting_idx: Option<FlowIdx>,
    accounting_direction: Direction,
    can_skip: bool,
    /// The entity's segment-exchange time `s`: a GS poll is only issued
    /// when this much of a part-time slave's presence window remains, so
    /// every executed poll can move the full η_min the admission
    /// accounting promises (a shorter remainder would silently truncate
    /// the exchange to smaller packets).
    s: SimDuration,
    plan: PollPlan,
    pending_planned: Option<SimTime>,
}

/// The paper's Guaranteed Service poller.
///
/// Construct one from an [`AdmissionOutcome`]; the poller then plans polls
/// for every admitted entity and serves best-effort traffic (through an
/// optional inner poller) whenever no GS poll is due.
///
/// # Examples
///
/// ```
/// use btgs_core::{admit, AdmissionConfig, GsPoller, GsRequest};
/// use btgs_baseband::{AmAddr, Direction};
/// use btgs_gs::TokenBucketSpec;
/// use btgs_traffic::FlowId;
/// use btgs_des::SimTime;
///
/// let tspec = TokenBucketSpec::for_cbr(0.020, 144, 176)?;
/// let req = GsRequest::new(
///     FlowId(1),
///     AmAddr::new(1).unwrap(),
///     Direction::SlaveToMaster,
///     tspec,
///     8800.0,
/// );
/// let outcome = admit(&[req], &AdmissionConfig::paper()).unwrap();
/// let poller = GsPoller::variable(&outcome, SimTime::ZERO);
/// # Ok::<(), btgs_traffic::InvalidTSpec>(())
/// ```
pub struct GsPoller {
    entities: Vec<EntityState>,
    /// `slave address - 1 -> index into entities`, so exchange feedback
    /// needs no linear search.
    entity_by_slave: [Option<usize>; AmAddr::MAX_SLAVES],
    be: Option<Box<dyn Poller>>,
    improvements: Improvements,
    name: &'static str,
    /// Flow count of the view when [`GsPoller::sync`] last resolved the
    /// entities' accounting-flow indices. The flow set of a run is static,
    /// so a matching count means the cache is valid.
    synced_flows: usize,
}

impl GsPoller {
    /// The fixed-interval poller of §3.1.
    ///
    /// # Panics
    ///
    /// Panics if two entities of `outcome` share a slave (piggybacking must
    /// be resolved by admission before polling).
    pub fn fixed(outcome: &AdmissionOutcome, start: SimTime) -> GsPoller {
        GsPoller::with_improvements(outcome, start, Improvements::NONE).named("gs-fixed")
    }

    /// The variable-interval poller of §3.2 (all three improvements).
    ///
    /// # Panics
    ///
    /// See [`GsPoller::fixed`].
    pub fn variable(outcome: &AdmissionOutcome, start: SimTime) -> GsPoller {
        GsPoller::with_improvements(outcome, start, Improvements::ALL).named("gs-variable")
    }

    /// The PFP implementation evaluated in the paper's §4: the variable
    /// interval poller with leftover slots delegated to `be`.
    ///
    /// # Panics
    ///
    /// See [`GsPoller::fixed`].
    pub fn pfp(outcome: &AdmissionOutcome, start: SimTime, be: Box<dyn Poller>) -> GsPoller {
        GsPoller::with_improvements(outcome, start, Improvements::ALL)
            .with_best_effort(be)
            .named("pfp-gs")
    }

    /// A poller with an explicit improvement selection (the ablation
    /// surface of the bench suite).
    ///
    /// # Panics
    ///
    /// Panics if two entities of `outcome` share a slave.
    pub fn with_improvements(
        outcome: &AdmissionOutcome,
        start: SimTime,
        improvements: Improvements,
    ) -> GsPoller {
        let mut entities: Vec<EntityState> = Vec::with_capacity(outcome.entities.len());
        let mut entity_by_slave = [None; AmAddr::MAX_SLAVES];
        for e in &outcome.entities {
            let slot = (e.slave.get() - 1) as usize;
            assert!(
                entity_by_slave[slot].is_none(),
                "entity slaves must be unique; admit with piggybacking enabled"
            );
            entity_by_slave[slot] = Some(entities.len());
            entities.push(EntityState {
                slave: e.slave,
                accounting_flow: e.accounting_flow,
                accounting_idx: None,
                accounting_direction: e.accounting_direction,
                can_skip: e.can_skip,
                s: e.s,
                plan: PollPlan::new(e.x, e.rate, improvements, start),
                pending_planned: None,
            });
        }
        // `outcome.entities` is priority-sorted; keep that order.
        GsPoller {
            entities,
            entity_by_slave,
            be: None,
            improvements,
            name: "gs-custom",
            synced_flows: usize::MAX,
        }
    }

    /// Resolves each entity's accounting flow to its dense table index, so
    /// the per-decide skip loop tests the downlink queue directly instead
    /// of re-hashing the flow id and snapshotting a full view every wake.
    fn sync(&mut self, view: &MasterView<'_>) {
        if self.synced_flows == view.flows().len() {
            return; // the flow set of a run is static
        }
        for e in &mut self.entities {
            e.accounting_idx = view.table().idx_of(e.accounting_flow);
        }
        self.synced_flows = view.flows().len();
    }

    /// Attaches an inner best-effort poller (builder style).
    #[must_use]
    pub fn with_best_effort(mut self, be: Box<dyn Poller>) -> GsPoller {
        self.be = Some(be);
        self
    }

    fn named(mut self, name: &'static str) -> GsPoller {
        self.name = name;
        self
    }

    /// The earliest instant a planned GS poll can actually execute: a
    /// bridge entity's plan is clamped to the next instant its slave is
    /// present *with room for the entity's full segment exchange* (a
    /// no-op for always-present slaves). The clamp only moves a plan
    /// later, so an entity planned at or after the running minimum cannot
    /// lower it and skips the presence query.
    fn next_gs_plan(&self, view: &MasterView<'_>) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        for e in &self.entities {
            let planned = e.plan.next_poll();
            if earliest.is_some_and(|t| planned >= t) {
                continue;
            }
            let at = planned.max(view.next_present_fitting(e.slave, e.s));
            earliest = Some(earliest.map_or(at, |t| t.min(at)));
        }
        earliest
    }
}

impl Poller for GsPoller {
    fn decide(&mut self, now: SimTime, view: &MasterView<'_>) -> PollDecision {
        self.sync(view);
        // Improvement (c): skip due polls of downlink-only entities whose
        // queue the master knows to be empty.
        if self.improvements.skip_empty_downlink {
            for e in &mut self.entities {
                if !e.can_skip {
                    continue;
                }
                let idx = e.accounting_idx;
                while e.plan.is_due(now) && !idx.is_some_and(|i| view.downlink_has_data_at(i, now))
                {
                    e.plan.skip();
                }
            }
        }
        // Due GS polls execute in priority order (entities are stored
        // highest priority first). A due entity whose bridge slave is off
        // in another piconet — or present without room for its full
        // segment exchange before departure (a poll issued into a shorter
        // remainder is truncated below the η_min the admission promised) —
        // cannot be addressed: lower priorities run, and the deferred poll
        // fires the instant the bridge can host a full exchange again (via
        // the presence-clamped plan minimum below).
        if let Some(e) = self
            .entities
            .iter_mut()
            .find(|e| e.plan.is_due(now) && view.fits_exchange(e.slave, e.s))
        {
            e.pending_planned = Some(e.plan.next_poll());
            return PollDecision::Poll {
                slave: e.slave,
                channel: LogicalChannel::GuaranteedService,
            };
        }
        // No GS work: hand the slot to best effort, but never past the next
        // planned GS poll. The plan minimum is a pure read, so it is only
        // computed on the idle paths — a BE poll needs no cap.
        let be_decision = match &mut self.be {
            Some(be) => be.decide(now, view),
            None => PollDecision::Sleep,
        };
        match be_decision {
            PollDecision::Poll { slave, channel } => PollDecision::Poll { slave, channel },
            PollDecision::Idle { until } => match self.next_gs_plan(view) {
                Some(gs) => PollDecision::Idle {
                    until: until.min(gs),
                },
                None => PollDecision::Idle { until },
            },
            PollDecision::Sleep => match self.next_gs_plan(view) {
                Some(gs) => PollDecision::Idle { until: gs },
                None => PollDecision::Sleep,
            },
        }
    }

    fn on_exchange(&mut self, report: &ExchangeReport) {
        if report.channel == LogicalChannel::GuaranteedService {
            let entity = self.entity_by_slave[(report.slave.get() - 1) as usize];
            if let Some(e) = entity.map(|i| &mut self.entities[i]) {
                let acct = match e.accounting_direction {
                    Direction::MasterToSlave => &report.down,
                    Direction::SlaveToMaster => &report.up,
                };
                let outcome = match acct {
                    SegmentOutcome::Data {
                        flow,
                        segment,
                        delivered,
                        ..
                    } if *flow == e.accounting_flow => {
                        if segment.is_last && *delivered {
                            PollOutcome::LastSegment {
                                packet_size: segment.packet_size,
                                first_segment: segment.is_first,
                            }
                        } else {
                            PollOutcome::MidSegment {
                                // A lost first segment is retransmitted; the
                                // packet's first *successful* plan anchor is
                                // set on the first transmission either way.
                                first_segment: segment.is_first,
                            }
                        }
                    }
                    _ => PollOutcome::Unsuccessful,
                };
                let planned = e.pending_planned.take().unwrap_or(report.start);
                e.plan.on_poll(planned, report.start, outcome);
            }
        }
        if let Some(be) = &mut self.be {
            be.on_exchange(report);
        }
    }

    fn on_downlink_arrival(&mut self, flow: FlowId, now: SimTime) {
        if let Some(be) = &mut self.be {
            be.on_downlink_arrival(flow, now);
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{admit, AdmissionConfig, GsRequest};
    use btgs_gs::TokenBucketSpec;
    use btgs_piconet::{FlowSpec, FlowState, FlowTable, SegmentPlan};
    use btgs_traffic::AppPacket;

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    fn tspec() -> TokenBucketSpec {
        TokenBucketSpec::for_cbr(0.020, 144, 176).unwrap()
    }

    fn outcome_two_uplinks() -> AdmissionOutcome {
        admit(
            &[
                GsRequest::new(FlowId(1), s(1), Direction::SlaveToMaster, tspec(), 8800.0),
                GsRequest::new(FlowId(2), s(2), Direction::SlaveToMaster, tspec(), 8800.0),
            ],
            &AdmissionConfig::paper(),
        )
        .unwrap()
    }

    fn gs_data_report(
        slave: AmAddr,
        flow: FlowId,
        start: SimTime,
        is_last: bool,
        is_first: bool,
        packet_size: u32,
    ) -> ExchangeReport {
        ExchangeReport {
            start,
            end: start + btgs_baseband::slots(4),
            slave,
            channel: LogicalChannel::GuaranteedService,
            down: SegmentOutcome::Control {
                ty: btgs_baseband::PacketType::Poll,
            },
            up: SegmentOutcome::Data {
                flow,
                segment: SegmentPlan {
                    ty: btgs_baseband::PacketType::Dh3,
                    bytes: packet_size.min(183),
                    is_last,
                    is_first,
                    packet_seq: 0,
                    packet_size,
                    packet_arrival: SimTime::ZERO,
                },
                delivered: true,
                retransmission: false,
            },
        }
    }

    fn gs_empty_report(slave: AmAddr, start: SimTime) -> ExchangeReport {
        ExchangeReport {
            start,
            end: start + btgs_baseband::slots(2),
            slave,
            channel: LogicalChannel::GuaranteedService,
            down: SegmentOutcome::Control {
                ty: btgs_baseband::PacketType::Poll,
            },
            up: SegmentOutcome::Control {
                ty: btgs_baseband::PacketType::Null,
            },
        }
    }

    #[test]
    fn due_polls_run_in_priority_order() {
        let out = outcome_two_uplinks();
        let mut poller = GsPoller::variable(&out, SimTime::ZERO);
        let flows = [
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(2),
                s(2),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
        ];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        // Both due at t = 0; S1 has priority 1.
        match poller.decide(SimTime::ZERO, &view) {
            PollDecision::Poll { slave, channel } => {
                assert_eq!(slave, s(1));
                assert_eq!(channel, LogicalChannel::GuaranteedService);
            }
            other => panic!("{other:?}"),
        }
        // After S1's poll completes (unsuccessfully), S2 is next.
        poller.on_exchange(&gs_empty_report(s(1), SimTime::ZERO));
        match poller.decide(SimTime::from_micros(1250), &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, s(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn earliest_plan_of_a_bridge_entity_is_clamped_to_its_presence() {
        use btgs_baseband::PresenceWindow;
        use btgs_piconet::PresenceMask;

        let flows = [
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(2),
                s(2),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
        ];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let quarter_ms = |v: u64| SimDuration::from_micros(v * 250);
        // S1 (priority 1) next plans 16.36 ms, S2 17.61 ms; S1 is a
        // bridge slave present for `len` of every `cycle` from `offset`
        // (all in quarter milliseconds), absent at the 2.5 ms decision,
        // and a GS exchange needs 3.75 ms.
        let next_idle = |offset: u64, len: u64, cycle: u64| {
            let out = outcome_two_uplinks();
            let mut poller = GsPoller::variable(&out, SimTime::ZERO);
            poller.on_exchange(&gs_empty_report(s(1), SimTime::ZERO));
            poller.on_exchange(&gs_empty_report(s(2), SimTime::from_micros(1250)));
            let mut mask = PresenceMask::new();
            mask.set(
                s(1),
                PresenceWindow::new(quarter_ms(cycle), quarter_ms(offset), quarter_ms(len))
                    .unwrap(),
            )
            .unwrap();
            let t = SimTime::from_micros(2500);
            let view = MasterView::with_presence(t, &table, &queues, &mask);
            match poller.decide(t, &view) {
                PollDecision::Idle { until } => until.as_nanos(),
                other => panic!("{other:?}"),
            }
        };
        // Back before its plan: S1's plan.
        assert_eq!(next_idle(60, 40, 160), 16_363_636);
        // Back after its plan but before S2's: S1's window start.
        assert_eq!(next_idle(70, 40, 160), 17_500_000);
        // Back after S2's plan: S2's plan.
        assert_eq!(next_idle(80, 40, 160), 17_613_636);
    }

    #[test]
    fn idles_until_next_plan_when_nothing_due() {
        let out = outcome_two_uplinks();
        let mut poller = GsPoller::variable(&out, SimTime::ZERO);
        let flows = [
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(2),
                s(2),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
        ];
        // Execute both due polls.
        poller.on_exchange(&gs_empty_report(s(1), SimTime::ZERO));
        poller.on_exchange(&gs_empty_report(s(2), SimTime::from_micros(1250)));
        let t = SimTime::from_micros(2500);
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(t, &table, &queues);
        match poller.decide(t, &view) {
            PollDecision::Idle { until } => {
                // Improvement (b): next = actual + x = 0 + 16.36 ms.
                assert_eq!(until.as_nanos(), 16_363_636);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn variable_poller_uses_improvement_a() {
        let out = outcome_two_uplinks();
        let mut poller = GsPoller::variable(&out, SimTime::ZERO);
        // S1's poll at plan 0 returns a 176-byte last segment.
        let flows: [FlowSpec; 0] = [];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let _ = poller.decide(SimTime::ZERO, &view); // capture planned = 0
        poller.on_exchange(&gs_data_report(
            s(1),
            FlowId(1),
            SimTime::ZERO,
            true,
            true,
            176,
        ));
        // Next plan = 176 / 8800 s = 20 ms (> planned + x = 16.36 ms).
        assert_eq!(
            poller.entities[0].plan.next_poll(),
            SimTime::from_millis(20)
        );
    }

    #[test]
    fn fixed_poller_ignores_packet_size() {
        let out = outcome_two_uplinks();
        let mut poller = GsPoller::fixed(&out, SimTime::ZERO);
        let flows: [FlowSpec; 0] = [];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let _ = poller.decide(SimTime::ZERO, &view);
        poller.on_exchange(&gs_data_report(
            s(1),
            FlowId(1),
            SimTime::ZERO,
            true,
            true,
            176,
        ));
        assert_eq!(
            poller.entities[0].plan.next_poll().as_nanos(),
            16_363_636,
            "fixed interval regardless of packet size"
        );
    }

    #[test]
    fn skip_empty_downlink_entity() {
        let out = admit(
            &[GsRequest::new(
                FlowId(1),
                s(1),
                Direction::MasterToSlave,
                tspec(),
                8800.0,
            )],
            &AdmissionConfig::paper(),
        )
        .unwrap();
        let mut poller = GsPoller::variable(&out, SimTime::ZERO);
        let flows = [FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::MasterToSlave,
            LogicalChannel::GuaranteedService,
        )];
        // Empty downlink queue: the due poll is skipped, the poller idles.
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let mut queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        match poller.decide(SimTime::ZERO, &view) {
            PollDecision::Idle { until } => assert_eq!(until.as_nanos(), 16_363_636),
            other => panic!("{other:?}"),
        }
        assert_eq!(poller.entities[0].plan.skipped(), 1);
        assert_eq!(poller.entities[0].plan.executed(), 0);
        // With data present, the poll happens.
        queues[0]
            .queue_mut()
            .push(AppPacket::new(0, FlowId(1), 160, SimTime::from_millis(17)));
        let t = SimTime::from_millis(17);
        let view = MasterView::new(t, &table, &queues);
        match poller.decide(t, &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, s(1)),
            other => panic!("{other:?}"),
        }
        assert!(poller.entities[0].pending_planned.is_some());
    }

    #[test]
    fn fixed_poller_never_skips() {
        let out = admit(
            &[GsRequest::new(
                FlowId(1),
                s(1),
                Direction::MasterToSlave,
                tspec(),
                8800.0,
            )],
            &AdmissionConfig::paper(),
        )
        .unwrap();
        let mut poller = GsPoller::fixed(&out, SimTime::ZERO);
        let flows = [FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::MasterToSlave,
            LogicalChannel::GuaranteedService,
        )];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        // Fixed poller polls even with a known-empty queue.
        match poller.decide(SimTime::ZERO, &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, s(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn be_decisions_capped_by_next_gs_plan() {
        use btgs_pollers::RoundRobinPoller;
        let out = outcome_two_uplinks();
        let mut poller = GsPoller::variable(&out, SimTime::ZERO)
            .with_best_effort(Box::new(RoundRobinPoller::new()));
        // Drain the due GS polls first.
        poller.on_exchange(&gs_empty_report(s(1), SimTime::ZERO));
        poller.on_exchange(&gs_empty_report(s(2), SimTime::from_micros(1250)));
        // A BE slave exists: the inner round robin polls it.
        let flows = [
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(9),
                s(6),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
        ];
        let t = SimTime::from_micros(2500);
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(t, &table, &queues);
        match poller.decide(t, &view) {
            PollDecision::Poll { slave, channel } => {
                assert_eq!(slave, s(6));
                assert_eq!(channel, LogicalChannel::BestEffort);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn name_reflects_flavour() {
        let out = outcome_two_uplinks();
        assert_eq!(GsPoller::fixed(&out, SimTime::ZERO).name(), "gs-fixed");
        assert_eq!(
            GsPoller::variable(&out, SimTime::ZERO).name(),
            "gs-variable"
        );
        let pfp = GsPoller::pfp(
            &out,
            SimTime::ZERO,
            Box::new(btgs_pollers::PfpBePoller::new(
                btgs_des::SimDuration::from_millis(20),
            )),
        );
        assert_eq!(pfp.name(), "pfp-gs");
    }
}
