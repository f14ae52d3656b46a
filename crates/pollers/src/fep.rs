//! The Fair Exhaustive Poller (FEP).
//!
//! Reconstruction of Johansson, Körner & Johansson's scheduler (reference
//! [7] of the paper): slaves are kept on an *active* or *inactive* list.
//! Active slaves are polled round-robin and exhaustively; a slave whose poll
//! returns no data is demoted to the inactive list; inactive slaves are
//! probed at a fixed low rate so newly busy slaves are discovered, and a
//! slave with known downlink backlog is promoted immediately.

use btgs_baseband::{AmAddr, LogicalChannel};
use btgs_des::{SimDuration, SimTime};
use btgs_piconet::{ExchangeReport, MasterView, PollDecision, Poller};

/// One more than the highest active member address (slot 0 is unused).
const SLOTS: usize = AmAddr::MAX_SLAVES + 1;

/// Fair Exhaustive Poller for best-effort traffic.
///
/// Per-slave state lives in dense arrays indexed by the 3-bit active member
/// address; every scan runs in ascending address order, matching the
/// ordered maps this replaced decision for decision — without their node
/// allocations on the hot path.
#[derive(Clone, Debug)]
pub struct FepPoller {
    probe_interval: SimDuration,
    /// Per slave: registered (`Some`) and on the active list (`true`)?
    active: [Option<bool>; SLOTS],
    /// Last time each slave was probed.
    last_probe: [SimTime; SLOTS],
    cursor: usize,
    /// Flow count of the view when the slave set was last synced (flow
    /// sets are static per run).
    synced_flows: usize,
}

impl FepPoller {
    /// Creates an FEP that probes inactive slaves every `probe_interval`.
    ///
    /// # Panics
    ///
    /// Panics if `probe_interval` is zero.
    pub fn new(probe_interval: SimDuration) -> FepPoller {
        assert!(!probe_interval.is_zero(), "probe interval must be positive");
        FepPoller {
            probe_interval,
            active: [None; SLOTS],
            last_probe: [SimTime::ZERO; SLOTS],
            cursor: 0,
            synced_flows: 0,
        }
    }

    /// Registers the view's best-effort slaves.
    ///
    /// A simulation's flow set is fixed for the whole run, so this runs
    /// once (guarded by the flow count). A poller instance must not be
    /// reused across runs with different flow sets — registrations from
    /// the old set would persist; build a fresh poller per run, as
    /// `PiconetSim` does.
    fn sync_slaves(&mut self, view: &MasterView<'_>) {
        if self.synced_flows == view.flows().len() {
            return;
        }
        for f in view.flows() {
            if f.channel == LogicalChannel::BestEffort {
                let slot = &mut self.active[f.slave.get() as usize];
                if slot.is_none() {
                    *slot = Some(true);
                }
            }
        }
        self.synced_flows = view.flows().len();
    }

    /// The registered slaves in address order.
    fn slaves(&self) -> impl Iterator<Item = (AmAddr, bool)> + '_ {
        (1..SLOTS as u8).filter_map(move |n| {
            self.active[n as usize].map(|a| (AmAddr::new(n).expect("1..=7 is a valid address"), a))
        })
    }

    /// `true` if the slave is currently on the active list (test hook).
    pub fn is_active(&self, slave: AmAddr) -> bool {
        self.active[slave.get() as usize].unwrap_or(false)
    }
}

impl Poller for FepPoller {
    fn decide(&mut self, now: SimTime, view: &MasterView<'_>) -> PollDecision {
        self.sync_slaves(view);
        if self.synced_flows == 0 || self.slaves().next().is_none() {
            return PollDecision::Sleep;
        }
        // Promote slaves with known downlink data (O(1) queue peeks via the
        // dense flow table).
        for (idx, f) in view.table().iter() {
            if f.channel == LogicalChannel::BestEffort && view.downlink_has_data_at(idx, now) {
                self.active[f.slave.get() as usize] = Some(true);
            }
        }
        // Pick the cursor-th active *and present* slave without
        // materialising the list (at most 7 slaves; two cheap passes beat
        // an allocation). Absent bridge slaves stay on the active list but
        // cannot be addressed until they return.
        let n_active = self
            .slaves()
            .filter(|(s, a)| *a && view.is_present(*s))
            .count();
        if n_active > 0 {
            let slave = self
                .slaves()
                .filter_map(|(s, a)| (a && view.is_present(s)).then_some(s))
                .nth(self.cursor % n_active)
                .expect("n_active counted above");
            return PollDecision::Poll {
                slave,
                channel: LogicalChannel::BestEffort,
            };
        }
        // Nobody pollable is active: probe the most overdue *present*
        // slave, or idle until the next probe is due. Strict `<` keeps the
        // first (lowest-address) slave on ties, exactly as the ordered-map
        // min did.
        let overdue = self
            .slaves()
            .filter(|(s, _)| view.is_present(*s))
            .map(|(s, _)| (s, self.last_probe[s.get() as usize]))
            .reduce(|best, cand| if cand.1 < best.1 { cand } else { best });
        let Some((slave, last)) = overdue else {
            // Every registered slave is off in another piconet.
            let until = self
                .slaves()
                .map(|(s, _)| view.next_present(s))
                .min()
                .expect("slave set checked non-empty above");
            return PollDecision::Idle { until };
        };
        let due = last + self.probe_interval;
        if due <= now {
            PollDecision::Poll {
                slave,
                channel: LogicalChannel::BestEffort,
            }
        } else {
            PollDecision::Idle { until: due }
        }
    }

    fn on_exchange(&mut self, report: &ExchangeReport) {
        if report.channel != LogicalChannel::BestEffort {
            return;
        }
        self.last_probe[report.slave.get() as usize] = report.end;
        if report.successful() {
            self.active[report.slave.get() as usize] = Some(true);
        } else {
            self.active[report.slave.get() as usize] = Some(false);
            // Advance past the demoted slave.
            self.cursor = self.cursor.wrapping_add(1);
        }
    }

    fn on_downlink_arrival(&mut self, _flow: btgs_traffic::FlowId, _now: SimTime) {
        // Promotion happens in `decide` via the downlink view.
    }

    fn name(&self) -> &'static str {
        "fep"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_baseband::{Direction, PacketType};
    use btgs_piconet::{FlowSpec, FlowState, FlowTable, SegmentOutcome};
    use btgs_traffic::FlowId;

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    fn flows() -> Vec<FlowSpec> {
        (1..=2)
            .map(|n| {
                FlowSpec::new(
                    FlowId(n as u32),
                    s(n),
                    Direction::SlaveToMaster,
                    LogicalChannel::BestEffort,
                )
            })
            .collect()
    }

    fn report(slave: AmAddr, successful: bool, end: SimTime) -> ExchangeReport {
        ExchangeReport {
            start: end - SimDuration::from_micros(1250),
            end,
            slave,
            channel: LogicalChannel::BestEffort,
            down: SegmentOutcome::Control {
                ty: PacketType::Poll,
            },
            up: if successful {
                SegmentOutcome::Data {
                    flow: FlowId(1),
                    segment: btgs_piconet::SegmentPlan {
                        ty: PacketType::Dh1,
                        bytes: 10,
                        is_last: true,
                        is_first: true,
                        packet_seq: 0,
                        packet_size: 10,
                        packet_arrival: SimTime::ZERO,
                    },
                    delivered: true,
                    retransmission: false,
                }
            } else {
                SegmentOutcome::Control {
                    ty: PacketType::Null,
                }
            },
        }
    }

    #[test]
    fn unsuccessful_poll_demotes() {
        let flows = flows();
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut fep = FepPoller::new(SimDuration::from_millis(50));
        let _ = fep.decide(SimTime::ZERO, &view);
        assert!(fep.is_active(s(1)) && fep.is_active(s(2)));
        fep.on_exchange(&report(s(1), false, SimTime::from_millis(2)));
        assert!(!fep.is_active(s(1)));
        assert!(fep.is_active(s(2)));
    }

    #[test]
    fn successful_poll_keeps_active() {
        let flows = flows();
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut fep = FepPoller::new(SimDuration::from_millis(50));
        let _ = fep.decide(SimTime::ZERO, &view);
        fep.on_exchange(&report(s(1), true, SimTime::from_millis(2)));
        assert!(fep.is_active(s(1)));
    }

    #[test]
    fn all_inactive_idles_until_probe() {
        let flows = flows();
        let mut fep = FepPoller::new(SimDuration::from_millis(50));
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let _ = fep.decide(SimTime::ZERO, &view);
        fep.on_exchange(&report(s(1), false, SimTime::from_millis(2)));
        fep.on_exchange(&report(s(2), false, SimTime::from_millis(3)));
        // Right after demotion: idle until the first probe is due.
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let view = MasterView::new(SimTime::from_millis(4), &table, &queues);
        match fep.decide(SimTime::from_millis(4), &view) {
            PollDecision::Idle { until } => assert_eq!(until, SimTime::from_millis(52)),
            other => panic!("expected Idle, got {other:?}"),
        }
        // At the due time the overdue slave is probed.
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let view = MasterView::new(SimTime::from_millis(52), &table, &queues);
        match fep.decide(SimTime::from_millis(52), &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, s(1)),
            other => panic!("expected Poll, got {other:?}"),
        }
    }

    #[test]
    fn downlink_backlog_promotes() {
        let flows = [FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::MasterToSlave,
            LogicalChannel::BestEffort,
        )];
        let mut q = btgs_piconet::FlowQueue::new();
        q.push(btgs_traffic::AppPacket::new(
            0,
            FlowId(1),
            50,
            SimTime::ZERO,
        ));
        let mut fep = FepPoller::new(SimDuration::from_millis(50));
        // Demote the slave first.
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let mut queues = FlowState::for_table(&table);
        *queues[0].queue_mut() = q;
        let empty_queues = FlowState::for_table(&table);
        let view0 = MasterView::new(SimTime::ZERO, &table, &empty_queues);
        let _ = fep.decide(SimTime::ZERO, &view0);
        fep.on_exchange(&report(s(1), false, SimTime::from_millis(2)));
        assert!(!fep.is_active(s(1)));
        // With downlink data visible, the next decision polls immediately.
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let view = MasterView::new(SimTime::from_millis(5), &table, &queues);
        match fep.decide(SimTime::from_millis(5), &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, s(1)),
            other => panic!("expected Poll, got {other:?}"),
        }
    }
}
