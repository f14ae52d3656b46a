//! Analytical cross-checks for the paper scenario.
//!
//! Slot-budget arithmetic that predicts the *shape* of Fig. 5 without
//! simulation: how the PFP divides the slots a GS schedule leaves free
//! among the BE slaves (max-min fairly). `fig5_throughput_vs_delay` prints
//! the prediction beside its simulated table.

use crate::scenario::{BE_PACKET_SIZE, BE_RATES_KBPS};
use btgs_baseband::SLOTS_PER_SECOND;
use btgs_metrics::max_min_fair;

/// Expected BE slot demand (slots per second) of each BE slave pair at full
/// rate: one 6-slot DH3↔DH3 exchange moves one 176-byte packet in each
/// direction.
pub fn be_slot_demands() -> [f64; 4] {
    let mut out = [0.0; 4];
    for (k, kbps) in BE_RATES_KBPS.iter().enumerate() {
        let pkts_per_sec_each_way = kbps * 1000.0 / 8.0 / BE_PACKET_SIZE as f64;
        out[k] = pkts_per_sec_each_way * 6.0;
    }
    out
}

/// Predicted per-slave BE throughput (kbit/s) when `gs_slots` slots per
/// second go to the GS schedule: the remainder is divided max-min fairly
/// over the BE demands, and each allocated 6-slot exchange moves
/// `2 x 176` bytes.
pub fn predicted_be_throughput_kbps(gs_slots: f64) -> [f64; 4] {
    let capacity = (SLOTS_PER_SECOND as f64 - gs_slots).max(0.0);
    let demands = be_slot_demands();
    let alloc = max_min_fair(capacity, &demands);
    let mut out = [0.0; 4];
    for (k, slots) in alloc.iter().enumerate() {
        let exchanges = slots / 6.0;
        out[k] = exchanges * 2.0 * BE_PACKET_SIZE as f64 * 8.0 / 1000.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn be_demands_match_hand_arithmetic() {
        let d = be_slot_demands();
        // 41.6 kbps = 5200 B/s = 29.54 packets/s -> 177.3 slots/s.
        assert!((d[0] - 177.27).abs() < 0.1, "{}", d[0]);
        assert!((d[3] - 248.86).abs() < 0.1, "{}", d[3]);
        let total: f64 = d.iter().sum();
        assert!((total - 852.3).abs() < 1.0, "{total}");
    }

    #[test]
    fn prediction_saturates_be_at_loose_bounds() {
        // With ~700 GS slots the remainder covers most BE demand.
        let kbps = predicted_be_throughput_kbps(700.0);
        assert!((kbps[0] - 83.2).abs() < 0.5, "S4 saturated: {}", kbps[0]);
        // Tight GS budget: everyone is squeezed evenly.
        let squeezed = predicted_be_throughput_kbps(1100.0);
        assert!(squeezed[3] < 83.0);
        let spread = squeezed.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            - squeezed.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(spread < 1.0, "fair division under pressure: {squeezed:?}");
    }
}
