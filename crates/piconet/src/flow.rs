//! Flow configuration within a piconet.

use btgs_baseband::{AmAddr, Direction, LogicalChannel, PacketType};
use btgs_traffic::FlowId;
use core::fmt;

/// Static description of one flow carried by the piconet.
///
/// A flow is unidirectional: it moves higher-layer packets either from the
/// master to one slave or from that slave to the master, over either the
/// Guaranteed Service or the best-effort logical channel.
///
/// # Examples
///
/// ```
/// use btgs_piconet::FlowSpec;
/// use btgs_baseband::{AmAddr, Direction, LogicalChannel};
/// use btgs_traffic::FlowId;
///
/// let flow = FlowSpec::new(
///     FlowId(1),
///     AmAddr::new(1).unwrap(),
///     Direction::SlaveToMaster,
///     LogicalChannel::GuaranteedService,
/// );
/// assert!(flow.channel.is_gs());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Flow identifier, unique within a scenario.
    pub id: FlowId,
    /// The slave this flow terminates at (as source or sink).
    pub slave: AmAddr,
    /// Transfer direction.
    pub direction: Direction,
    /// Logical channel (GS or BE).
    pub channel: LogicalChannel,
    /// Per-flow override of the allowed baseband packet types; `None` uses
    /// the piconet-wide set.
    pub allowed_types: Option<Vec<PacketType>>,
}

impl FlowSpec {
    /// Creates a flow using the piconet-wide allowed packet types.
    pub fn new(
        id: FlowId,
        slave: AmAddr,
        direction: Direction,
        channel: LogicalChannel,
    ) -> FlowSpec {
        FlowSpec {
            id,
            slave,
            direction,
            channel,
            allowed_types: None,
        }
    }

    /// Restricts this flow to the given baseband packet types
    /// (builder style).
    #[must_use]
    pub fn with_allowed_types(mut self, types: Vec<PacketType>) -> FlowSpec {
        self.allowed_types = Some(types);
        self
    }
}

impl fmt::Display for FlowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} {} {}]",
            self.id, self.channel, self.direction, self.slave
        )
    }
}

/// Validates a set of flows for use in one piconet.
///
/// Rules enforced:
/// * flow ids are unique;
/// * at most one flow per `(slave, direction, channel)` triple, so a poll's
///   response is unambiguous (the paper's scenario obeys this: at most one
///   GS flow per direction per slave, sharing polls by piggybacking).
///
/// # Errors
///
/// Returns a human-readable description of the first violated rule.
pub fn validate_flows(flows: &[FlowSpec]) -> Result<(), String> {
    for (i, a) in flows.iter().enumerate() {
        for b in &flows[i + 1..] {
            if a.id == b.id {
                return Err(format!("duplicate flow id {}", a.id));
            }
            if a.slave == b.slave && a.direction == b.direction && a.channel == b.channel {
                return Err(format!(
                    "flows {} and {} both carry {} {} traffic at {}",
                    a.id, b.id, a.channel, a.direction, a.slave
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    #[test]
    fn validation_accepts_the_paper_scenario_shape() {
        let flows = vec![
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(2),
                s(2),
                Direction::MasterToSlave,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(3),
                s(2),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(4),
                s(3),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(5),
                s(4),
                Direction::MasterToSlave,
                LogicalChannel::BestEffort,
            ),
            FlowSpec::new(
                FlowId(6),
                s(4),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
        ];
        assert!(validate_flows(&flows).is_ok());
    }

    #[test]
    fn validation_rejects_duplicate_ids() {
        let flows = vec![
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
            FlowSpec::new(
                FlowId(1),
                s(2),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
        ];
        let err = validate_flows(&flows).unwrap_err();
        assert!(err.contains("duplicate"));
    }

    #[test]
    fn validation_rejects_colliding_flows() {
        let flows = vec![
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
            FlowSpec::new(
                FlowId(2),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
        ];
        let err = validate_flows(&flows).unwrap_err();
        assert!(err.contains("both carry"));
        // GS and BE on the same (slave, direction) are fine.
        let ok = vec![
            FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ),
            FlowSpec::new(
                FlowId(2),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
        ];
        assert!(validate_flows(&ok).is_ok());
    }

    #[test]
    fn display_reads_well() {
        let f = FlowSpec::new(
            FlowId(7),
            s(5),
            Direction::MasterToSlave,
            LogicalChannel::BestEffort,
        );
        assert_eq!(f.to_string(), "flow7 [BE M->S S5]");
    }
}
