//! Head-of-line priority polling.
//!
//! Reconstruction of the HOL-priority idea of Kalia, Bansal & Shorey
//! (reference [8] of the paper): schedule by the state of the master-side
//! head-of-line packets. The slave whose downlink HOL packet has waited
//! longest is served first; slaves without downlink backlog are cycled at a
//! background rate to pick up uplink traffic.

use btgs_baseband::{AmAddr, LogicalChannel};
use btgs_des::SimTime;
use btgs_piconet::{ExchangeReport, MasterView, PollDecision, Poller};

/// Head-of-line priority poller for best-effort traffic.
#[derive(Clone, Debug, Default)]
pub struct HolPriorityPoller {
    cursor: usize,
}

impl HolPriorityPoller {
    /// Creates a HOL-priority poller.
    pub fn new() -> HolPriorityPoller {
        HolPriorityPoller::default()
    }
}

impl Poller for HolPriorityPoller {
    fn decide(&mut self, now: SimTime, view: &MasterView<'_>) -> PollDecision {
        // Oldest downlink head-of-line packet wins. Indexed iteration keeps
        // the downlink lookup O(1) per flow.
        let mut best: Option<(SimTime, AmAddr)> = None;
        for (idx, f) in view.table().iter() {
            if f.channel != LogicalChannel::BestEffort {
                continue;
            }
            if !view.is_present(f.slave) {
                // An absent bridge slave cannot be addressed, however old
                // its backlog; it is reconsidered when it returns.
                continue;
            }
            if let Some(dl) = view.downlink_at(idx) {
                if let Some(arrival) = dl.head_arrival {
                    if arrival <= now && best.is_none_or(|(b, _)| arrival < b) {
                        best = Some((arrival, f.slave));
                    }
                }
            }
        }
        if let Some((_, slave)) = best {
            return PollDecision::Poll {
                slave,
                channel: LogicalChannel::BestEffort,
            };
        }
        // No downlink backlog: cycle slaves to collect uplink data. The
        // slave list is precomputed — no per-decision allocation; absent
        // bridge slaves are skipped (bounded scan).
        let slaves = view.slaves_on(LogicalChannel::BestEffort);
        if slaves.is_empty() {
            return PollDecision::Sleep;
        }
        for _ in 0..slaves.len() {
            let slave = slaves[self.cursor % slaves.len()];
            self.cursor += 1;
            if view.is_present(slave) {
                return PollDecision::Poll {
                    slave,
                    channel: LogicalChannel::BestEffort,
                };
            }
        }
        PollDecision::Idle {
            until: view.earliest_presence(slaves),
        }
    }

    fn on_exchange(&mut self, _report: &ExchangeReport) {}

    fn name(&self) -> &'static str {
        "hol-priority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_baseband::Direction;
    use btgs_piconet::{FlowQueue, FlowSpec, FlowState, FlowTable};
    use btgs_traffic::{AppPacket, FlowId};

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    #[test]
    fn oldest_hol_packet_wins() {
        let flows = [
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::MasterToSlave,
                LogicalChannel::BestEffort,
            ),
            FlowSpec::new(
                FlowId(2),
                s(2),
                Direction::MasterToSlave,
                LogicalChannel::BestEffort,
            ),
        ];
        let mut q1 = FlowQueue::new();
        q1.push(AppPacket::new(0, FlowId(1), 50, SimTime::from_millis(5)));
        let mut q2 = FlowQueue::new();
        q2.push(AppPacket::new(0, FlowId(2), 50, SimTime::from_millis(2)));
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let mut queues = FlowState::for_table(&table);
        *queues[0].queue_mut() = q1;
        *queues[1].queue_mut() = q2;
        let view = MasterView::new(SimTime::from_millis(10), &table, &queues);
        let mut hol = HolPriorityPoller::new();
        match hol.decide(SimTime::from_millis(10), &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, s(2), "older HOL first"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn future_arrivals_do_not_count() {
        let flows = [FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::MasterToSlave,
            LogicalChannel::BestEffort,
        )];
        let mut q = FlowQueue::new();
        q.push(AppPacket::new(0, FlowId(1), 50, SimTime::from_millis(100)));
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let mut queues = FlowState::for_table(&table);
        *queues[0].queue_mut() = q;
        let view = MasterView::new(SimTime::from_millis(10), &table, &queues);
        let mut hol = HolPriorityPoller::new();
        // Not yet arrived -> falls back to cycling, which still polls S1,
        // but through the uplink-collection path.
        match hol.decide(SimTime::from_millis(10), &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, s(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cycles_when_no_downlink_data() {
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
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
        ];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut hol = HolPriorityPoller::new();
        let mut seen = Vec::new();
        for _ in 0..4 {
            if let PollDecision::Poll { slave, .. } = hol.decide(SimTime::ZERO, &view) {
                seen.push(slave.get());
            }
        }
        assert_eq!(seen, vec![1, 2, 1, 2]);
    }

    #[test]
    fn sleeps_with_no_flows() {
        let flows: Vec<FlowSpec> = vec![];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        assert_eq!(
            HolPriorityPoller::new().decide(SimTime::ZERO, &view),
            PollDecision::Sleep
        );
    }
}
