//! Poll efficiency (the paper's Eq. 4).
//!
//! A poll moves one baseband segment per direction, so the number of bytes a
//! poll moves depends on how the flow's packets segment. The *poll
//! efficiency* of packet size `L` is `eta(L) = L / n(L)` bytes per poll,
//! where `n(L)` is the segment count under the paper's segmentation rule
//! and the flow's allowed packet types. The minimum over the flow's packet
//! size range `[m, M]` — `eta_min` (Eq. 4) — is what the poll interval and
//! the exported `C` error term must be provisioned for.

use btgs_baseband::{largest, PacketType};
use btgs_piconet::segment_count;

/// Poll efficiency of one packet size: `L / n(L)` bytes per poll.
///
/// # Panics
///
/// Panics if `size` is zero or `allowed` has no data-bearing type.
///
/// # Examples
///
/// ```
/// use btgs_core::poll_efficiency;
/// use btgs_baseband::PacketType;
///
/// let allowed = [PacketType::Dh1, PacketType::Dh3];
/// // One DH3 carries the whole 144-byte packet: 144 bytes/poll.
/// assert_eq!(poll_efficiency(144, &allowed), 144.0);
/// // 184 bytes need DH3+DH1: two polls for 184 bytes = 92 bytes/poll.
/// assert_eq!(poll_efficiency(184, &allowed), 92.0);
/// ```
pub fn poll_efficiency(size: u32, allowed: &[PacketType]) -> f64 {
    size as f64 / segment_count(size, allowed) as f64
}

/// The minimum poll efficiency over all packet sizes in `[min_size,
/// max_size]` — the paper's Eq. 4:
/// `eta_min = min_{m <= L <= M} L / n(L)`.
///
/// The minimum is found in closed form. `n(L) = ceil(L / C_max)` is a step
/// function of `L`, and within a step `L / n` rises with `L`, so only
/// `min_size` and the first size of each later step can attain the
/// minimum. The first size of step `k` gives `C_max - (C_max - 1) / k`,
/// which rises with `k`, so of those only the first step past `min_size`,
/// `n(min_size) * C_max + 1`, competes — when it lies in the range.
///
/// # Panics
///
/// Panics if `min_size` is zero, `min_size > max_size`, or `allowed` has no
/// data-bearing type.
///
/// # Examples
///
/// The paper's evaluation: sizes 144–176 B with DH1+DH3 all fit one DH3, so
/// the minimum efficiency is attained at 144 B:
///
/// ```
/// use btgs_core::min_poll_efficiency;
/// use btgs_baseband::PacketType;
///
/// let allowed = [PacketType::Dh1, PacketType::Dh3];
/// let eta = min_poll_efficiency(144, 176, &allowed);
/// assert_eq!(eta, 144.0);
/// ```
pub fn min_poll_efficiency(min_size: u32, max_size: u32, allowed: &[PacketType]) -> f64 {
    assert!(min_size > 0, "packet sizes must be positive");
    assert!(
        min_size <= max_size,
        "min_size {min_size} must be <= max_size {max_size}"
    );
    let at_min = poll_efficiency(min_size, allowed);
    let c_max = largest(allowed).expect("allowed set contains no data-bearing packet type");
    let next_step = segment_count(min_size, allowed)
        .checked_mul(c_max.payload_capacity() as u32)
        .and_then(|end| end.checked_add(1))
        .filter(|&size| size <= max_size);
    match next_step {
        Some(size) => at_min.min(poll_efficiency(size, allowed)),
        None => at_min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: [PacketType; 2] = [PacketType::Dh1, PacketType::Dh3];

    /// Brute-force reference implementation.
    fn eta_min_brute(min_size: u32, max_size: u32, allowed: &[PacketType]) -> f64 {
        (min_size..=max_size)
            .map(|l| poll_efficiency(l, allowed))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn paper_eta_min_is_144() {
        assert_eq!(min_poll_efficiency(144, 176, &PAPER), 144.0);
    }

    #[test]
    fn minimum_sits_just_past_a_boundary() {
        // Range straddling the DH3 boundary: 184 = DH3+DH1 gives 92 B/poll,
        // the worst in [150, 200].
        let eta = min_poll_efficiency(150, 200, &PAPER);
        assert_eq!(eta, 92.0);
    }

    #[test]
    fn single_size_range() {
        assert_eq!(min_poll_efficiency(27, 27, &PAPER), 27.0);
        assert_eq!(min_poll_efficiency(28, 28, &PAPER), 28.0);
    }

    #[test]
    fn matches_brute_force_on_assorted_ranges() {
        for (lo, hi) in [
            (1u32, 27u32),
            (1, 200),
            (100, 400),
            (144, 176),
            (180, 190),
            (366, 400),
            (1, 1000),
            // The next step past these starts beyond `u32::MAX` (or just
            // inside it): the closed form must not overflow.
            (u32::MAX - 400, u32::MAX),
            (u32::MAX - 5, u32::MAX),
            (u32::MAX, u32::MAX),
        ] {
            let fast = min_poll_efficiency(lo, hi, &PAPER);
            let brute = eta_min_brute(lo, hi, &PAPER);
            assert_eq!(fast, brute, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn dh1_only_efficiency() {
        let dh1 = [PacketType::Dh1];
        // 28 bytes over DH1: two segments, 14 B/poll.
        assert_eq!(min_poll_efficiency(27, 28, &dh1), 14.0);
        // Wide range: worst case is 27k+1 bytes for minimal k in range.
        let eta = min_poll_efficiency(27, 1000, &dh1);
        assert_eq!(eta, eta_min_brute(27, 1000, &dh1));
    }

    #[test]
    #[should_panic(expected = "must be <=")]
    fn inverted_range_panics() {
        let _ = min_poll_efficiency(10, 5, &PAPER);
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

    /// The closed form must equal the brute-force minimum. Widths reach
    /// three times the largest payload, so a range can straddle up to three
    /// segment-count steps.
    #[test]
    fn matches_brute_force() {
        let mut rng = DetRng::seed_from_u64(0xEF1);
        for _ in 0..128 {
            let lo = rng.range_inclusive(1, 2_000) as u32;
            let allowed = arb_allowed(&mut rng);
            let c_max = largest(&allowed).unwrap().payload_capacity() as u64;
            let hi = lo + rng.below(3 * c_max + 1) as u32;
            let fast = min_poll_efficiency(lo, hi, &allowed);
            let brute = (lo..=hi)
                .map(|l| poll_efficiency(l, &allowed))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(fast, brute);
        }
    }
}
