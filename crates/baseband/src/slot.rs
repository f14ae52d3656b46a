//! Bluetooth slot timing.
//!
//! Bluetooth divides each second into 1600 time slots of 625 µs. The master
//! begins transmissions in even-numbered slots; the addressed slave responds
//! in the odd slot that follows the end of the master's packet. Packets
//! occupy 1, 3 or 5 slots, so a complete master↔slave exchange always spans
//! an even number of slots and the alternation is preserved automatically.

use btgs_des::{SimDuration, SimTime};

/// Duration of one Bluetooth time slot: 625 µs.
pub const SLOT: SimDuration = SimDuration::from_micros(625);

/// Duration of a master+slave slot pair: 1.25 ms.
pub const SLOT_PAIR: SimDuration = SimDuration::from_micros(1250);

/// Number of slots per second (1600).
pub const SLOTS_PER_SECOND: u64 = 1_600;

/// Returns the duration of `n` slots.
///
/// # Examples
///
/// ```
/// use btgs_baseband::slots;
/// assert_eq!(slots(6).as_micros(), 3750); // a DH3↔DH3 exchange
/// ```
pub const fn slots(n: u64) -> SimDuration {
    SimDuration::from_micros(625 * n)
}

/// The first instant at or after `t` at which a master transmission may
/// begin, i.e. the next even slot boundary (including `t` itself when `t`
/// is exactly such a boundary).
///
/// # Examples
///
/// ```
/// use btgs_baseband::next_master_tx_start;
/// use btgs_des::SimTime;
///
/// // 1 ns into the simulation -> wait for slot 2 (the next even slot).
/// let t = next_master_tx_start(SimTime::from_nanos(1));
/// assert_eq!(t, SimTime::from_micros(1250));
/// // Exactly on an even boundary -> no wait.
/// assert_eq!(next_master_tx_start(t), t);
/// ```
pub fn next_master_tx_start(t: SimTime) -> SimTime {
    t.align_up(SLOT_PAIR)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(SLOT * 2, SLOT_PAIR);
        assert_eq!(SLOT * SLOTS_PER_SECOND, SimDuration::from_secs(1));
        assert_eq!(slots(5), SimDuration::from_micros(3125));
        assert_eq!(slots(0), SimDuration::ZERO);
    }

    #[test]
    fn master_tx_alignment() {
        assert_eq!(next_master_tx_start(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(
            next_master_tx_start(SimTime::from_micros(1)),
            SimTime::from_micros(1250)
        );
        assert_eq!(
            next_master_tx_start(SimTime::from_micros(625)),
            SimTime::from_micros(1250)
        );
        assert_eq!(
            next_master_tx_start(SimTime::from_micros(1250)),
            SimTime::from_micros(1250)
        );
        // An exchange of any legal packet pair ends on an even boundary.
        for down in [1u64, 3, 5] {
            for up in [1u64, 3, 5] {
                let end = SimTime::ZERO + slots(down) + slots(up);
                assert_eq!(next_master_tx_start(end), end, "{down}+{up}");
            }
        }
    }
}
