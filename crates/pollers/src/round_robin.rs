//! Plain round-robin polling.

use btgs_baseband::LogicalChannel;
use btgs_des::SimTime;
use btgs_piconet::{ExchangeReport, MasterView, PollDecision, Poller};

/// Pure round robin with limited service: every slave gets exactly one poll
/// per cycle, data or not.
///
/// This is the classical baseline the intra-piconet scheduling literature
/// measures against: trivially fair in polls, but it wastes slots on idle
/// slaves (every poll of an empty slave costs a POLL/NULL pair) and its
/// cycle time grows with the piconet size.
///
/// # Examples
///
/// ```
/// use btgs_pollers::RoundRobinPoller;
/// use btgs_piconet::{FlowSpec, FlowState, FlowTable, MasterView, PollDecision, Poller};
/// use btgs_baseband::{AmAddr, Direction, LogicalChannel};
/// use btgs_traffic::FlowId;
/// use btgs_des::SimTime;
///
/// let table = FlowTable::new(vec![
///     FlowSpec::new(FlowId(1), AmAddr::new(1).unwrap(), Direction::SlaveToMaster, LogicalChannel::BestEffort),
///     FlowSpec::new(FlowId(2), AmAddr::new(2).unwrap(), Direction::SlaveToMaster, LogicalChannel::BestEffort),
/// ]).unwrap();
/// let flows = FlowState::for_table(&table);
/// let view = MasterView::new(SimTime::ZERO, &table, &flows);
/// let mut rr = RoundRobinPoller::new();
/// let first = rr.decide(SimTime::ZERO, &view);
/// let second = rr.decide(SimTime::ZERO, &view);
/// assert_ne!(first, second); // alternates between the two slaves
/// ```
#[derive(Clone, Debug, Default)]
pub struct RoundRobinPoller {
    cursor: usize,
}

impl RoundRobinPoller {
    /// Creates a round-robin poller starting at the lowest slave address.
    pub fn new() -> RoundRobinPoller {
        RoundRobinPoller::default()
    }
}

impl Poller for RoundRobinPoller {
    fn decide(&mut self, _now: SimTime, view: &MasterView<'_>) -> PollDecision {
        // Precomputed sorted slave list — no per-decision allocation.
        let slaves = view.slaves_on(LogicalChannel::BestEffort);
        if slaves.is_empty() {
            return PollDecision::Sleep;
        }
        // Skip absent bridge slaves (always-present masks take the first
        // candidate, exactly the pre-scatternet path). The scan is bounded
        // by the slave count and allocation-free.
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
        // Every BE slave is off in another piconet: wait for the first one
        // back.
        PollDecision::Idle {
            until: view.earliest_presence(slaves),
        }
    }

    fn on_exchange(&mut self, _report: &ExchangeReport) {}

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_baseband::{AmAddr, Direction};
    use btgs_piconet::{FlowSpec, FlowState, FlowTable};
    use btgs_traffic::FlowId;

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    fn flows3() -> Vec<FlowSpec> {
        (1..=3)
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

    #[test]
    fn cycles_through_all_slaves() {
        let flows = flows3();
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut rr = RoundRobinPoller::new();
        let mut seen = Vec::new();
        for _ in 0..6 {
            match rr.decide(SimTime::ZERO, &view) {
                PollDecision::Poll { slave, channel } => {
                    assert_eq!(channel, LogicalChannel::BestEffort);
                    seen.push(slave.get());
                }
                other => panic!("expected Poll, got {other:?}"),
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn sleeps_without_be_flows() {
        let flows = [FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::SlaveToMaster,
            LogicalChannel::GuaranteedService,
        )];
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut rr = RoundRobinPoller::new();
        assert_eq!(rr.decide(SimTime::ZERO, &view), PollDecision::Sleep);
    }

    #[test]
    fn ignores_gs_only_slaves() {
        let mut flows = flows3();
        flows.push(FlowSpec::new(
            FlowId(9),
            s(7),
            Direction::SlaveToMaster,
            LogicalChannel::GuaranteedService,
        ));
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut rr = RoundRobinPoller::new();
        for _ in 0..9 {
            if let PollDecision::Poll { slave, .. } = rr.decide(SimTime::ZERO, &view) {
                assert_ne!(slave.get(), 7, "GS-only slave polled by BE round robin");
            }
        }
    }
}
