//! Multi-hop composition of Guaranteed Service delay bounds.
//!
//! A cross-piconet chain delivers a packet through a sequence of per-hop
//! polling systems joined by bridge rendezvous crossings. Each hop carries
//! its own RFC 2212 bound ([`delay_bound`](crate::delay_bound) with that
//! hop's exported terms); each crossing adds a *residence* term — the wait
//! for the bridge to reappear in the target piconet. The end-to-end bound
//! is the plain sum
//!
//! ```text
//! D_e2e = Σ_h B_h + Σ_x R_x
//! ```
//!
//! because hops hand packets over instantaneously (master relays) or at
//! the rendezvous instant (bridge crossings): no delay term is shared
//! between stages, so the per-stage worst cases compose additively.
//!
//! This module holds the technology-independent pieces of that
//! composition: the worst-case residence of a periodic rendezvous
//! schedule, the additive composition itself, and the inverse — splitting
//! an end-to-end deadline into per-hop queueing budgets. The
//! Bluetooth-specific chain admission (which piconet grants which rate)
//! lives in `btgs-core`.

use btgs_des::SimDuration;

/// The worst-case residence of one bridge crossing, derived from the
/// *target* piconet's presence schedule: within every `cycle` the bridge
/// is reachable in the target piconet for a window of `dwell`; a packet
/// delivered to the bridge just after that window ends waits the maximum
/// gap
///
/// ```text
/// residence ≤ cycle − dwell + guard
/// ```
///
/// `guard` absorbs schedule slack the caller wants to budget on top of
/// the pure gap (e.g. a slot pair of alignment slack for hand-built,
/// non-complementary schedules); derived two-window bridge schedules need
/// none ([`SimDuration::ZERO`]).
///
/// # Panics
///
/// Panics if `dwell` is zero or exceeds `cycle` (no valid rendezvous
/// schedule has an empty or overlong target window).
///
/// # Examples
///
/// The scatternet scenario's default bridge — a 20 ms cycle split evenly —
/// bounds every crossing by 10 ms:
///
/// ```
/// use btgs_des::SimDuration;
/// use btgs_gs::worst_case_residence;
///
/// let cycle = SimDuration::from_millis(20);
/// let dwell = SimDuration::from_millis(10);
/// assert_eq!(
///     worst_case_residence(cycle, dwell, SimDuration::ZERO),
///     SimDuration::from_millis(10),
/// );
/// ```
pub fn worst_case_residence(
    cycle: SimDuration,
    dwell: SimDuration,
    guard: SimDuration,
) -> SimDuration {
    assert!(!dwell.is_zero(), "target dwell must be positive");
    assert!(
        dwell <= cycle,
        "target dwell {dwell} exceeds the rendezvous cycle {cycle}"
    );
    cycle - dwell + guard
}

/// Composes per-hop delay bounds and per-crossing residences into the
/// provable end-to-end bound `Σ hop bounds + Σ residences`.
///
/// # Panics
///
/// Panics if `hop_bounds` is empty (a chain has at least one hop) or the
/// sum overflows the nanosecond representation.
///
/// # Examples
///
/// ```
/// use btgs_des::SimDuration;
/// use btgs_gs::compose_e2e_bound;
///
/// let hops = [SimDuration::from_millis(40), SimDuration::from_millis(35)];
/// let residences = [SimDuration::from_millis(10)];
/// assert_eq!(
///     compose_e2e_bound(&hops, &residences),
///     SimDuration::from_millis(85),
/// );
/// ```
pub fn compose_e2e_bound(hop_bounds: &[SimDuration], residences: &[SimDuration]) -> SimDuration {
    assert!(!hop_bounds.is_empty(), "a chain has at least one hop");
    hop_bounds
        .iter()
        .chain(residences.iter())
        .fold(SimDuration::ZERO, |acc, &d| acc + d)
}

/// Splits an end-to-end deadline into equal per-hop *queueing* budgets
/// after the fixed, rate-independent terms (residences, poll delays `y`,
/// absence penalties) are paid: returns `floor((deadline − fixed) / hops)`
/// per hop, or `None` when the fixed terms alone consume the deadline (no
/// finite per-hop rate can help — the chain must be rejected).
///
/// The division rounds **down**, so `hops × budget + fixed ≤ deadline`
/// always holds — the split can only make the composed bound tighter than
/// the deadline, never looser.
///
/// # Panics
///
/// Panics if `hops` is zero.
///
/// # Examples
///
/// ```
/// use btgs_des::SimDuration;
/// use btgs_gs::split_queueing_budget;
///
/// let deadline = SimDuration::from_millis(100);
/// let fixed = SimDuration::from_millis(55);
/// assert_eq!(
///     split_queueing_budget(deadline, fixed, 3),
///     Some(SimDuration::from_millis(15)),
/// );
/// assert_eq!(split_queueing_budget(deadline, deadline, 3), None);
/// ```
pub fn split_queueing_budget(
    deadline: SimDuration,
    fixed: SimDuration,
    hops: usize,
) -> Option<SimDuration> {
    assert!(hops > 0, "a chain has at least one hop");
    if deadline <= fixed {
        return None;
    }
    let budget = SimDuration::from_nanos((deadline - fixed).as_nanos() / hops as u64);
    if budget.is_zero() {
        // A sub-nanosecond per-hop budget is indistinguishable from none.
        return None;
    }
    Some(budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn residence_is_the_cycle_gap() {
        assert_eq!(worst_case_residence(ms(20), ms(10), ms(0)), ms(10));
        assert_eq!(worst_case_residence(ms(20), ms(5), ms(0)), ms(15));
        // Guard adds on top.
        assert_eq!(
            worst_case_residence(ms(20), ms(10), SimDuration::from_micros(1_250)),
            SimDuration::from_micros(11_250)
        );
        // A full-cycle dwell leaves no gap.
        assert_eq!(worst_case_residence(ms(20), ms(20), ms(0)), ms(0));
    }

    #[test]
    #[should_panic(expected = "exceeds the rendezvous cycle")]
    fn residence_rejects_overlong_dwell() {
        let _ = worst_case_residence(ms(10), ms(20), ms(0));
    }

    #[test]
    #[should_panic(expected = "dwell must be positive")]
    fn residence_rejects_zero_dwell() {
        let _ = worst_case_residence(ms(10), ms(0), ms(0));
    }

    #[test]
    fn composition_is_the_plain_sum() {
        assert_eq!(compose_e2e_bound(&[ms(40)], &[]), ms(40));
        assert_eq!(
            compose_e2e_bound(&[ms(40), ms(35), ms(30)], &[ms(10), ms(10)]),
            ms(125)
        );
    }

    #[test]
    fn split_is_conservative() {
        // 45 ms over 4 hops: 11.25 ms each, floor leaves headroom.
        let q = split_queueing_budget(ms(100), ms(55), 4).unwrap();
        assert_eq!(q, SimDuration::from_micros(11_250));
        assert!(q * 4 + ms(55) <= ms(100));
        // Non-divisible: floor.
        let q = split_queueing_budget(ms(100), ms(55), 7).unwrap();
        assert!(q * 7 + ms(55) <= ms(100));
        assert!((q + SimDuration::from_nanos(1)) * 7 + ms(55) > ms(100));
    }

    #[test]
    fn split_rejects_consumed_deadlines() {
        assert_eq!(split_queueing_budget(ms(50), ms(50), 2), None);
        assert_eq!(split_queueing_budget(ms(50), ms(60), 2), None);
        // Sub-nanosecond budgets collapse to rejection too.
        assert_eq!(
            split_queueing_budget(ms(50) + SimDuration::from_nanos(1), ms(50), 2),
            None
        );
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn split_rejects_zero_hops() {
        let _ = split_queueing_budget(ms(50), ms(10), 0);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn compose_rejects_empty_chains() {
        let _ = compose_e2e_bound(&[], &[ms(10)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use btgs_des::DetRng;

    /// For random deadlines and fixed terms, an equal split never overruns
    /// the deadline when recomposed: `hops × budget + fixed ≤ deadline`.
    #[test]
    fn split_then_compose_never_exceeds_the_deadline() {
        let mut rng = DetRng::seed_from_u64(0xC0117);
        for _ in 0..512 {
            let deadline = SimDuration::from_nanos(rng.range_inclusive(1, 500_000_000));
            let fixed = SimDuration::from_nanos(rng.below(600_000_000));
            let hops = rng.range_inclusive(1, 8) as usize;
            match split_queueing_budget(deadline, fixed, hops) {
                Some(q) => {
                    assert!(!q.is_zero());
                    let hop_bounds = vec![q; hops];
                    let composed = compose_e2e_bound(&hop_bounds, &[fixed]);
                    assert!(
                        composed <= deadline,
                        "{hops} × {q} + {fixed} = {composed} > {deadline}"
                    );
                }
                None => assert!(
                    deadline.as_nanos() < fixed.as_nanos() + hops as u64,
                    "rejected although {deadline} leaves a budget past {fixed}"
                ),
            }
        }
    }
}
