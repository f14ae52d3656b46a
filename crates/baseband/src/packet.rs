//! Baseband packet types.
//!
//! Capacities and slot occupancies follow the Bluetooth 1.0b/1.1 baseband
//! specification, which is what the paper's evaluation assumes (DH1 carries
//! up to 27 payload bytes, DH3 up to 183; the paper's segmentation policy
//! uses exactly these two types).

use crate::slot::slots;
use btgs_des::SimDuration;
use core::fmt;

/// A Bluetooth baseband packet type.
///
/// Only the properties relevant to MAC scheduling are modelled: payload
/// capacity, slot occupancy, FEC protection, and link kind (ACL vs. SCO).
///
/// # Examples
///
/// ```
/// use btgs_baseband::PacketType;
///
/// assert_eq!(PacketType::Dh3.payload_capacity(), 183);
/// assert_eq!(PacketType::Dh3.slots(), 3);
/// assert_eq!(PacketType::Poll.payload_capacity(), 0);
/// assert!(PacketType::Hv3.is_sco());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PacketType {
    /// Link-control poll packet (no payload; solicits a response).
    Poll,
    /// Empty response packet (no payload, no response required).
    Null,
    /// Medium-rate ACL data, 1 slot, 2/3 FEC, up to 17 bytes.
    Dm1,
    /// Medium-rate ACL data, 3 slots, 2/3 FEC, up to 121 bytes.
    Dm3,
    /// Medium-rate ACL data, 5 slots, 2/3 FEC, up to 224 bytes.
    Dm5,
    /// High-rate ACL data, 1 slot, no FEC, up to 27 bytes.
    Dh1,
    /// High-rate ACL data, 3 slots, no FEC, up to 183 bytes.
    Dh3,
    /// High-rate ACL data, 5 slots, no FEC, up to 339 bytes.
    Dh5,
    /// SCO voice, 1 slot, 1/3 FEC, 10 bytes every 2 slot pairs.
    Hv1,
    /// SCO voice, 1 slot, 2/3 FEC, 20 bytes every 4 slot pairs.
    Hv2,
    /// SCO voice, 1 slot, no FEC, 30 bytes every 6 slot pairs.
    Hv3,
}

impl PacketType {
    /// All ACL data-bearing packet types, in increasing capacity order.
    pub const ACL_DATA: [PacketType; 6] = [
        PacketType::Dm1,
        PacketType::Dh1,
        PacketType::Dm3,
        PacketType::Dm5,
        PacketType::Dh3,
        PacketType::Dh5,
    ];

    /// Maximum payload in bytes.
    pub const fn payload_capacity(self) -> usize {
        match self {
            PacketType::Poll | PacketType::Null => 0,
            PacketType::Dm1 => 17,
            PacketType::Dm3 => 121,
            PacketType::Dm5 => 224,
            PacketType::Dh1 => 27,
            PacketType::Dh3 => 183,
            PacketType::Dh5 => 339,
            PacketType::Hv1 => 10,
            PacketType::Hv2 => 20,
            PacketType::Hv3 => 30,
        }
    }

    /// Number of slots the packet occupies on air.
    pub const fn slots(self) -> u64 {
        match self {
            PacketType::Dm3 | PacketType::Dh3 => 3,
            PacketType::Dm5 | PacketType::Dh5 => 5,
            _ => 1,
        }
    }

    /// On-air duration.
    pub const fn duration(self) -> SimDuration {
        slots(self.slots())
    }

    /// `true` for the SCO (synchronous voice) types.
    pub const fn is_sco(self) -> bool {
        matches!(self, PacketType::Hv1 | PacketType::Hv2 | PacketType::Hv3)
    }

    /// `true` for ACL types that can carry data (excludes POLL/NULL/SCO).
    pub const fn is_acl_data(self) -> bool {
        matches!(
            self,
            PacketType::Dm1
                | PacketType::Dm3
                | PacketType::Dm5
                | PacketType::Dh1
                | PacketType::Dh3
                | PacketType::Dh5
        )
    }

    /// `true` if the payload is FEC protected (DM/HV1/HV2 types).
    pub const fn is_fec_protected(self) -> bool {
        matches!(
            self,
            PacketType::Dm1 | PacketType::Dm3 | PacketType::Dm5 | PacketType::Hv1 | PacketType::Hv2
        )
    }

    /// The SCO reservation interval `T_sco` in slots (HV1: 2, HV2: 4,
    /// HV3: 6), or `None` for non-SCO types.
    pub const fn sco_interval_slots(self) -> Option<u64> {
        match self {
            PacketType::Hv1 => Some(2),
            PacketType::Hv2 => Some(4),
            PacketType::Hv3 => Some(6),
            _ => None,
        }
    }
}

impl fmt::Display for PacketType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PacketType::Poll => "POLL",
            PacketType::Null => "NULL",
            PacketType::Dm1 => "DM1",
            PacketType::Dm3 => "DM3",
            PacketType::Dm5 => "DM5",
            PacketType::Dh1 => "DH1",
            PacketType::Dh3 => "DH3",
            PacketType::Dh5 => "DH5",
            PacketType::Hv1 => "HV1",
            PacketType::Hv2 => "HV2",
            PacketType::Hv3 => "HV3",
        };
        f.write_str(name)
    }
}

/// Selects, from `allowed`, the smallest-capacity ACL data type that can
/// carry `bytes` in one packet, or `None` if none fits.
///
/// # Examples
///
/// ```
/// use btgs_baseband::{best_fit, PacketType};
///
/// let allowed = [PacketType::Dh1, PacketType::Dh3];
/// assert_eq!(best_fit(20, &allowed), Some(PacketType::Dh1));
/// assert_eq!(best_fit(144, &allowed), Some(PacketType::Dh3));
/// assert_eq!(best_fit(500, &allowed), None);
/// ```
pub fn best_fit(bytes: usize, allowed: &[PacketType]) -> Option<PacketType> {
    allowed
        .iter()
        .copied()
        .filter(|t| t.is_acl_data() && t.payload_capacity() >= bytes)
        .min_by_key(|t| (t.payload_capacity(), t.slots()))
}

/// The largest-capacity ACL data type in `allowed`, or `None` if `allowed`
/// contains no data type.
pub fn largest(allowed: &[PacketType]) -> Option<PacketType> {
    allowed
        .iter()
        .copied()
        .filter(|t| t.is_acl_data())
        .max_by_key(|t| (t.payload_capacity(), t.slots()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_match_the_spec() {
        assert_eq!(PacketType::Dm1.payload_capacity(), 17);
        assert_eq!(PacketType::Dm3.payload_capacity(), 121);
        assert_eq!(PacketType::Dm5.payload_capacity(), 224);
        assert_eq!(PacketType::Dh1.payload_capacity(), 27);
        assert_eq!(PacketType::Dh3.payload_capacity(), 183);
        assert_eq!(PacketType::Dh5.payload_capacity(), 339);
    }

    #[test]
    fn slot_occupancies() {
        assert_eq!(PacketType::Poll.slots(), 1);
        assert_eq!(PacketType::Null.slots(), 1);
        assert_eq!(PacketType::Dh1.slots(), 1);
        assert_eq!(PacketType::Dh3.slots(), 3);
        assert_eq!(PacketType::Dh5.slots(), 5);
        assert_eq!(PacketType::Hv3.slots(), 1);
        assert_eq!(PacketType::Dh3.duration().as_micros(), 1875);
    }

    #[test]
    fn classification() {
        assert!(PacketType::Hv1.is_sco());
        assert!(!PacketType::Dh1.is_sco());
        assert!(PacketType::Dh5.is_acl_data());
        assert!(!PacketType::Poll.is_acl_data());
        assert!(!PacketType::Null.is_acl_data());
        assert!(PacketType::Dm3.is_fec_protected());
        assert!(!PacketType::Dh3.is_fec_protected());
    }

    #[test]
    fn sco_intervals() {
        assert_eq!(PacketType::Hv1.sco_interval_slots(), Some(2));
        assert_eq!(PacketType::Hv2.sco_interval_slots(), Some(4));
        assert_eq!(PacketType::Hv3.sco_interval_slots(), Some(6));
        assert_eq!(PacketType::Dh1.sco_interval_slots(), None);
    }

    #[test]
    fn sco_types_sustain_64kbps() {
        // Each HV type carries exactly a 64 kbps voice stream.
        for t in [PacketType::Hv1, PacketType::Hv2, PacketType::Hv3] {
            let interval_slots = t.sco_interval_slots().unwrap();
            let bytes_per_second = t.payload_capacity() as f64 * (1600.0 / interval_slots as f64);
            assert!(
                (bytes_per_second - 8000.0).abs() < 1e-9,
                "{t}: {bytes_per_second}"
            );
        }
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let all = PacketType::ACL_DATA;
        assert_eq!(best_fit(10, &all), Some(PacketType::Dm1));
        assert_eq!(best_fit(27, &all), Some(PacketType::Dh1));
        assert_eq!(best_fit(28, &all), Some(PacketType::Dm3));
        assert_eq!(best_fit(339, &all), Some(PacketType::Dh5));
        assert_eq!(best_fit(340, &all), None);
        // The paper's allowed set.
        let paper = [PacketType::Dh1, PacketType::Dh3];
        assert_eq!(best_fit(0, &paper), Some(PacketType::Dh1));
        assert_eq!(best_fit(176, &paper), Some(PacketType::Dh3));
    }

    #[test]
    fn largest_picks_max_capacity() {
        assert_eq!(
            largest(&[PacketType::Dh1, PacketType::Dh3]),
            Some(PacketType::Dh3)
        );
        assert_eq!(largest(&PacketType::ACL_DATA), Some(PacketType::Dh5));
        assert_eq!(largest(&[PacketType::Poll]), None);
        assert_eq!(largest(&[]), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(PacketType::Dh3.to_string(), "DH3");
        assert_eq!(PacketType::Poll.to_string(), "POLL");
        assert_eq!(PacketType::Hv3.to_string(), "HV3");
    }
}
