//! Flow direction and logical-channel classification.

use core::fmt;

/// Direction of a flow within a piconet. Bluetooth is master-driven TDD:
/// master→slave traffic goes out in even slots, slave→master traffic is
/// returned in response to a poll.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Downlink: master transmits to the slave.
    MasterToSlave,
    /// Uplink: slave transmits to the master (only when polled).
    SlaveToMaster,
}

impl Direction {
    /// The opposite direction.
    pub const fn reverse(self) -> Direction {
        match self {
            Direction::MasterToSlave => Direction::SlaveToMaster,
            Direction::SlaveToMaster => Direction::MasterToSlave,
        }
    }

    /// `true` for master→slave.
    pub const fn is_downlink(self) -> bool {
        matches!(self, Direction::MasterToSlave)
    }

    /// `true` for slave→master.
    pub const fn is_uplink(self) -> bool {
        matches!(self, Direction::SlaveToMaster)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::MasterToSlave => f.write_str("M->S"),
            Direction::SlaveToMaster => f.write_str("S->M"),
        }
    }
}

/// Logical traffic class carried over an ACL link.
///
/// The paper assumes logical channels that keep QoS (Guaranteed Service)
/// traffic and best-effort traffic in separate queues, such that a poll for
/// a GS flow can never result in BE data being transmitted, and vice versa.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogicalChannel {
    /// Guaranteed Service (QoS) traffic. Always has priority over BE.
    GuaranteedService,
    /// Best-effort traffic: served from the slots the QoS schedule leaves
    /// free.
    BestEffort,
}

impl LogicalChannel {
    /// `true` for the Guaranteed Service channel.
    pub const fn is_gs(self) -> bool {
        matches!(self, LogicalChannel::GuaranteedService)
    }
}

impl fmt::Display for LogicalChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicalChannel::GuaranteedService => f.write_str("GS"),
            LogicalChannel::BestEffort => f.write_str("BE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_reverse_is_involutive() {
        for d in [Direction::MasterToSlave, Direction::SlaveToMaster] {
            assert_eq!(d.reverse().reverse(), d);
            assert_ne!(d.reverse(), d);
        }
        assert!(Direction::MasterToSlave.is_downlink());
        assert!(Direction::SlaveToMaster.is_uplink());
        assert!(!Direction::SlaveToMaster.is_downlink());
    }

    #[test]
    fn display_strings() {
        assert_eq!(Direction::MasterToSlave.to_string(), "M->S");
        assert_eq!(Direction::SlaveToMaster.to_string(), "S->M");
        assert_eq!(LogicalChannel::GuaranteedService.to_string(), "GS");
        assert_eq!(LogicalChannel::BestEffort.to_string(), "BE");
    }

    #[test]
    fn channel_classification() {
        assert!(LogicalChannel::GuaranteedService.is_gs());
        assert!(!LogicalChannel::BestEffort.is_gs());
        assert!(LogicalChannel::GuaranteedService < LogicalChannel::BestEffort);
    }
}
