//! Segmentation and reassembly (SAR) of higher-layer packets into baseband
//! packets.
//!
//! The paper's segmentation rule: *"a segmentation policy may require that
//! the largest available baseband packet is used, unless there is a smaller
//! baseband packet available in which the remainder of the higher layer
//! packet fits."* [`next_segment_type`] implements exactly that; the number
//! of segments `n_i(L)` it produces drives the poll efficiency `eta` of the
//! paper's Eq. 4.

use btgs_baseband::{best_fit, largest, PacketType};

/// The packet type carrying the next segment when `remaining` bytes of a
/// higher-layer packet are still to be sent: the largest allowed packet,
/// unless the remainder fits into a smaller one (then the smallest
/// sufficient one). `None` if `allowed` contains no data-bearing type.
///
/// # Examples
///
/// ```
/// use btgs_piconet::next_segment_type;
/// use btgs_baseband::PacketType;
///
/// let allowed = [PacketType::Dh1, PacketType::Dh3];
/// // 144 bytes fit a DH3 (183 B) but not a DH1 (27 B):
/// assert_eq!(next_segment_type(144, &allowed), Some(PacketType::Dh3));
/// // A 20-byte remainder fits the DH1:
/// assert_eq!(next_segment_type(20, &allowed), Some(PacketType::Dh1));
/// // 200 bytes fit nothing whole -> largest (DH3) carries the first chunk:
/// assert_eq!(next_segment_type(200, &allowed), Some(PacketType::Dh3));
/// ```
pub fn next_segment_type(remaining: u32, allowed: &[PacketType]) -> Option<PacketType> {
    best_fit(remaining as usize, allowed).or_else(|| largest(allowed))
}

/// The number of baseband segments (= polls, for an uplink flow) needed to
/// carry an `size`-byte higher-layer packet — the paper's `n_i(L)`.
///
/// Every segment but the last fills the largest allowed type, and the last
/// always fits some allowed type, so `n(L) = ceil(L / C_max)`, with `C_max`
/// the payload of the largest allowed type.
///
/// # Panics
///
/// Panics if `size` is zero or `allowed` has no data-bearing type.
///
/// # Examples
///
/// ```
/// use btgs_piconet::segment_count;
/// use btgs_baseband::PacketType;
///
/// let allowed = [PacketType::Dh1, PacketType::Dh3];
/// assert_eq!(segment_count(144, &allowed), 1);
/// assert_eq!(segment_count(183, &allowed), 1);
/// assert_eq!(segment_count(184, &allowed), 2); // DH3+DH1
/// assert_eq!(segment_count(400, &allowed), 3); // DH3+DH3+DH1
/// ```
pub fn segment_count(size: u32, allowed: &[PacketType]) -> u32 {
    assert!(size > 0, "cannot segment an empty packet");
    let max = largest(allowed).expect("allowed set contains no data-bearing packet type");
    size.div_ceil(max.payload_capacity() as u32)
}

/// The full segmentation of an `size`-byte packet: the packet type and
/// payload bytes of every segment, in transmission order.
///
/// # Panics
///
/// Panics if `size` is zero or `allowed` has no data-bearing type.
pub fn segment_plan(size: u32, allowed: &[PacketType]) -> Vec<(PacketType, u32)> {
    assert!(size > 0, "cannot segment an empty packet");
    let mut remaining = size;
    let mut out = Vec::new();
    while remaining > 0 {
        let ty = next_segment_type(remaining, allowed)
            .expect("allowed set contains no data-bearing packet type");
        let take = remaining.min(ty.payload_capacity() as u32);
        out.push((ty, take));
        remaining -= take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: [PacketType; 2] = [PacketType::Dh1, PacketType::Dh3];

    #[test]
    fn paper_sizes_take_one_dh3() {
        // Every size in the paper's 144..=176 range is one DH3 segment.
        for size in 144..=176 {
            assert_eq!(segment_count(size, &PAPER), 1, "{size}");
            let plan = segment_plan(size, &PAPER);
            assert_eq!(plan, vec![(PacketType::Dh3, size)]);
        }
    }

    #[test]
    fn small_packets_use_dh1() {
        for size in 1..=27 {
            assert_eq!(segment_plan(size, &PAPER), vec![(PacketType::Dh1, size)]);
        }
        assert_eq!(segment_plan(28, &PAPER), vec![(PacketType::Dh3, 28)]);
    }

    #[test]
    fn multi_segment_plans() {
        // 184 = DH3(183) + DH1(1).
        assert_eq!(
            segment_plan(184, &PAPER),
            vec![(PacketType::Dh3, 183), (PacketType::Dh1, 1)]
        );
        // 366 = DH3 + DH3.
        assert_eq!(
            segment_plan(366, &PAPER),
            vec![(PacketType::Dh3, 183), (PacketType::Dh3, 183)]
        );
        // 367 = DH3 + DH3 + DH1.
        assert_eq!(segment_count(367, &PAPER), 3);
    }

    #[test]
    fn plan_conserves_bytes() {
        for size in [1u32, 27, 28, 144, 176, 183, 184, 210, 366, 400, 1000] {
            let plan = segment_plan(size, &PAPER);
            let total: u32 = plan.iter().map(|(_, b)| b).sum();
            assert_eq!(total, size);
            // Every segment respects its capacity.
            for (ty, b) in plan {
                assert!(b as usize <= ty.payload_capacity());
            }
        }
    }

    #[test]
    fn single_type_sets() {
        let dh1_only = [PacketType::Dh1];
        assert_eq!(segment_count(144, &dh1_only), 6); // ceil(144/27)
        let dh5_only = [PacketType::Dh5];
        assert_eq!(segment_count(339, &dh5_only), 1);
        assert_eq!(segment_count(340, &dh5_only), 2);
    }

    #[test]
    #[should_panic(expected = "empty packet")]
    fn zero_size_panics() {
        let _ = segment_plan(0, &PAPER);
    }

    #[test]
    #[should_panic(expected = "no data-bearing")]
    fn control_only_allowed_set_panics() {
        let _ = segment_plan(10, &[PacketType::Poll]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use btgs_des::DetRng;

    fn arb_allowed(rng: &mut DetRng) -> Vec<PacketType> {
        let all = PacketType::ACL_DATA;
        let mut out: Vec<PacketType> = all.iter().copied().filter(|_| rng.chance(0.5)).collect();
        if out.is_empty() {
            out.push(all[rng.below(all.len() as u64) as usize]);
        }
        out
    }

    /// Segmentation must conserve bytes, respect capacities, and use the
    /// minimum-capacity sufficient type for the final segment.
    #[test]
    fn plan_invariants() {
        let mut rng = DetRng::seed_from_u64(0xA51);
        for _ in 0..512 {
            let size = rng.range_inclusive(1, 1_999) as u32;
            let allowed = arb_allowed(&mut rng);
            let plan = segment_plan(size, &allowed);
            let total: u32 = plan.iter().map(|(_, b)| b).sum();
            assert_eq!(total, size);
            for (ty, b) in &plan {
                assert!(*b as usize <= ty.payload_capacity());
                assert!(*b > 0);
            }
            // All but the last segment fill the chosen packet completely
            // (the rule only under-fills the final segment).
            for (ty, b) in &plan[..plan.len() - 1] {
                assert_eq!(*b as usize, ty.payload_capacity());
            }
            // The closed form counts exactly the segments the plan builds.
            assert_eq!(segment_count(size, &allowed), plan.len() as u32);
        }
    }

    /// n(L) is non-decreasing in L for a fixed allowed set.
    #[test]
    fn segment_count_monotone() {
        let mut rng = DetRng::seed_from_u64(0xA52);
        for _ in 0..512 {
            let size = rng.range_inclusive(1, 1_998) as u32;
            let allowed = arb_allowed(&mut rng);
            let n1 = segment_count(size, &allowed);
            let n2 = segment_count(size + 1, &allowed);
            assert!(n2 >= n1);
        }
    }
}
