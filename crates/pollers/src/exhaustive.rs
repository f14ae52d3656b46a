//! Exhaustive round-robin polling.

use btgs_baseband::LogicalChannel;
use btgs_des::SimTime;
use btgs_piconet::{ExchangeReport, MasterView, PollDecision, Poller};

/// Exhaustive round robin: stays on a slave until an exchange moves no data
/// in either direction, then advances to the next slave.
///
/// Compared with limited (1-poll) round robin it amortises the polling
/// overhead over bursts, but a heavily loaded slave can hold the channel for
/// a long time, hurting the delay of the others.
#[derive(Clone, Debug, Default)]
pub struct ExhaustiveRoundRobinPoller {
    cursor: usize,
    /// `true` while the current slave keeps producing data.
    stay: bool,
}

impl ExhaustiveRoundRobinPoller {
    /// Creates an exhaustive round-robin poller.
    pub fn new() -> ExhaustiveRoundRobinPoller {
        ExhaustiveRoundRobinPoller::default()
    }
}

impl Poller for ExhaustiveRoundRobinPoller {
    fn decide(&mut self, _now: SimTime, view: &MasterView<'_>) -> PollDecision {
        // Precomputed sorted slave list — no per-decision allocation.
        let slaves = view.slaves_on(LogicalChannel::BestEffort);
        if slaves.is_empty() {
            return PollDecision::Sleep;
        }
        if !self.stay {
            self.cursor = (self.cursor + 1) % slaves.len();
            // Polling this slave until it runs dry.
            self.stay = true;
        }
        // Skip absent bridge slaves (bounded, allocation-free; a no-op with
        // the always-present mask).
        for _ in 0..slaves.len() {
            let slave = slaves[self.cursor % slaves.len()];
            if view.is_present(slave) {
                return PollDecision::Poll {
                    slave,
                    channel: LogicalChannel::BestEffort,
                };
            }
            self.cursor = (self.cursor + 1) % slaves.len();
        }
        // Every BE slave is off in another piconet: wait for the first one
        // back.
        PollDecision::Idle {
            until: view.earliest_presence(slaves),
        }
    }

    fn on_exchange(&mut self, report: &ExchangeReport) {
        if report.channel == LogicalChannel::BestEffort && !report.successful() {
            self.stay = false;
        }
    }

    fn name(&self) -> &'static str {
        "exhaustive-round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_baseband::{AmAddr, Direction, PacketType};
    use btgs_piconet::{FlowSpec, FlowState, FlowTable, SegmentOutcome};
    use btgs_traffic::FlowId;

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    fn flows2() -> Vec<FlowSpec> {
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

    fn unsuccessful(slave: AmAddr) -> ExchangeReport {
        ExchangeReport {
            start: SimTime::ZERO,
            end: SimTime::from_micros(1250),
            slave,
            channel: LogicalChannel::BestEffort,
            down: SegmentOutcome::Control {
                ty: PacketType::Poll,
            },
            up: SegmentOutcome::Control {
                ty: PacketType::Null,
            },
        }
    }

    #[test]
    fn stays_until_dry_then_moves() {
        let flows = flows2();
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut err_poller = ExhaustiveRoundRobinPoller::new();
        // First decision picks a slave; repeat decisions stay on it.
        let first = match err_poller.decide(SimTime::ZERO, &view) {
            PollDecision::Poll { slave, .. } => slave,
            other => panic!("{other:?}"),
        };
        for _ in 0..3 {
            match err_poller.decide(SimTime::ZERO, &view) {
                PollDecision::Poll { slave, .. } => assert_eq!(slave, first),
                other => panic!("{other:?}"),
            }
        }
        // An unsuccessful exchange releases the slave.
        err_poller.on_exchange(&unsuccessful(first));
        match err_poller.decide(SimTime::ZERO, &view) {
            PollDecision::Poll { slave, .. } => assert_ne!(slave, first),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gs_exchanges_do_not_release() {
        let flows = flows2();
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut p = ExhaustiveRoundRobinPoller::new();
        let first = match p.decide(SimTime::ZERO, &view) {
            PollDecision::Poll { slave, .. } => slave,
            other => panic!("{other:?}"),
        };
        let mut gs_report = unsuccessful(first);
        gs_report.channel = LogicalChannel::GuaranteedService;
        p.on_exchange(&gs_report);
        match p.decide(SimTime::ZERO, &view) {
            PollDecision::Poll { slave, .. } => assert_eq!(slave, first),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sleeps_without_flows() {
        let flows: Vec<FlowSpec> = Vec::new();
        let table = FlowTable::new(flows.to_vec()).unwrap();
        let queues = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &queues);
        let mut p = ExhaustiveRoundRobinPoller::new();
        assert_eq!(p.decide(SimTime::ZERO, &view), PollDecision::Sleep);
    }
}
