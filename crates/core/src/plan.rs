//! Per-entity poll planning (§3.1 fixed interval, §3.2 variable interval).
//!
//! A [`PollPlan`] holds the planned time of an entity's next poll and
//! advances it according to the poller flavour:
//!
//! * **Fixed interval** (§3.1): every poll plans the next one `x` after its
//!   own *planned* time, unconditionally.
//! * **Variable interval** (§3.2): three improvements save polls without
//!   weakening the delay guarantee —
//!   (a) after the **last segment** of a packet of size `L`, the next poll
//!   is planned `L/R` after the planned time of the packet's **first**
//!   poll (the fluid model affords the packet `L/R` of service time, Eq. 10);
//!   (b) after an **unsuccessful** poll, the next poll is planned `x` after
//!   the poll's **actual** time (nothing was waiting, so the plan may relax
//!   to reality);
//!   (c) a due poll whose master-side queue is known empty is **skipped**
//!   outright (master→slave flows only).

use btgs_des::{SimDuration, SimTime};

/// Which of the §3.2 improvements are active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Improvements {
    /// Improvement (a): packet-size-aware postponement after a last
    /// segment.
    pub packet_aware: bool,
    /// Improvement (b): replan unsuccessful polls from their actual time.
    pub replan_from_actual: bool,
    /// Improvement (c): skip polls for known-empty master→slave flows.
    pub skip_empty_downlink: bool,
}

impl Improvements {
    /// The fixed-interval poller of §3.1 (no improvements).
    pub const NONE: Improvements = Improvements {
        packet_aware: false,
        replan_from_actual: false,
        skip_empty_downlink: false,
    };

    /// The variable-interval poller of §3.2 (all improvements).
    pub const ALL: Improvements = Improvements {
        packet_aware: true,
        replan_from_actual: true,
        skip_empty_downlink: true,
    };
}

/// What a poll observed about the entity's **accounting flow** — the flow
/// whose request drives the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollOutcome {
    /// A segment of the accounting flow moved and completed its packet.
    LastSegment {
        /// Size of the completed higher-layer packet in bytes.
        packet_size: u32,
        /// `true` if this segment also started the packet.
        first_segment: bool,
    },
    /// A segment moved but its packet is not finished (or the segment needs
    /// an ARQ retransmission).
    MidSegment {
        /// `true` if this segment started its packet.
        first_segment: bool,
    },
    /// The poll moved no data of the accounting flow — the paper's
    /// *unsuccessful poll*.
    Unsuccessful,
}

/// The poll-planning state of one GS entity.
///
/// # Examples
///
/// ```
/// use btgs_core::{Improvements, PollOutcome, PollPlan};
/// use btgs_des::{SimDuration, SimTime};
///
/// let x = SimDuration::from_millis(16);
/// let mut plan = PollPlan::new(x, 9000.0, Improvements::ALL, SimTime::ZERO);
/// assert!(plan.is_due(SimTime::ZERO));
///
/// // A 144-byte packet completes on the first poll: the next poll lands
/// // 144/9000 s = 16 ms after the first poll's *planned* time.
/// let planned = plan.next_poll();
/// plan.on_poll(
///     planned,
///     SimTime::from_millis(3), // executed late: planned time still rules
///     PollOutcome::LastSegment { packet_size: 144, first_segment: true },
/// );
/// assert_eq!(plan.next_poll(), SimTime::from_millis(16));
/// ```
#[derive(Clone, Debug)]
pub struct PollPlan {
    x: SimDuration,
    rate: f64,
    improvements: Improvements,
    next: SimTime,
    packet_first_plan: Option<SimTime>,
    skipped: u64,
    executed: u64,
}

impl PollPlan {
    /// Creates a plan whose first poll is planned at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero or `rate` is not positive and finite.
    pub fn new(x: SimDuration, rate: f64, improvements: Improvements, start: SimTime) -> PollPlan {
        assert!(!x.is_zero(), "poll interval must be positive");
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be positive and finite, got {rate}"
        );
        PollPlan {
            x,
            rate,
            improvements,
            next: start,
            packet_first_plan: None,
            skipped: 0,
            executed: 0,
        }
    }

    /// The Eq. 10 fluid service allowance `L/R` for a packet of
    /// `packet_size` bytes.
    fn fluid_allowance(&self, packet_size: u32) -> SimDuration {
        SimDuration::from_secs_f64(packet_size as f64 / self.rate)
    }

    /// The poll interval `x`.
    pub fn interval(&self) -> SimDuration {
        self.x
    }

    /// The planned time of the next poll.
    pub fn next_poll(&self) -> SimTime {
        self.next
    }

    /// `true` if the next poll's planned time has arrived.
    pub fn is_due(&self, now: SimTime) -> bool {
        self.next <= now
    }

    /// Polls skipped via improvement (c) so far.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Polls executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Skips the pending poll (improvement (c)): the next poll moves one
    /// interval forward from the skipped poll's planned time, consuming no
    /// air time.
    ///
    /// # Panics
    ///
    /// Panics if the plan's improvements do not include skipping.
    pub fn skip(&mut self) {
        assert!(
            self.improvements.skip_empty_downlink,
            "skip() requires improvement (c)"
        );
        self.next += self.x;
        self.skipped += 1;
        // A skipped poll cannot be mid-packet: packets drain consecutively.
        debug_assert!(self.packet_first_plan.is_none());
    }

    /// Records an executed poll for this entity and replans the next one.
    ///
    /// * `planned` — the poll's planned time (as read from
    ///   [`next_poll`](PollPlan::next_poll) when it was issued);
    /// * `actual` — when the master actually started the exchange;
    /// * `outcome` — what the accounting flow got out of it.
    pub fn on_poll(&mut self, planned: SimTime, actual: SimTime, outcome: PollOutcome) {
        debug_assert!(actual >= planned, "a poll cannot execute before its plan");
        self.executed += 1;
        match outcome {
            PollOutcome::LastSegment {
                packet_size,
                first_segment,
            } => {
                let first_plan = if first_segment {
                    planned
                } else {
                    self.packet_first_plan.unwrap_or(planned)
                };
                self.packet_first_plan = None;
                if self.improvements.packet_aware {
                    // Eq. 10: the fluid model affords the packet L/R of
                    // service; never plan earlier than the fixed plan would.
                    let fluid = first_plan + self.fluid_allowance(packet_size);
                    self.next = fluid.max(planned + self.x);
                } else {
                    self.next = planned + self.x;
                }
            }
            PollOutcome::MidSegment { first_segment } => {
                if first_segment {
                    self.packet_first_plan = Some(planned);
                }
                self.next = planned + self.x;
            }
            PollOutcome::Unsuccessful => {
                if self.packet_first_plan.is_some() {
                    // Only possible on a lossy radio: the poll carried no
                    // data (e.g. the POLL packet itself was lost) while a
                    // packet is still mid-drain. Keep the plan cadence and
                    // the first-poll anchor so the retransmissions continue
                    // at the provisioned rate.
                    self.next = planned + self.x;
                } else if self.improvements.replan_from_actual {
                    self.next = actual + self.x;
                } else {
                    self.next = planned + self.x;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn x16() -> SimDuration {
        SimDuration::from_millis(16)
    }

    fn fixed() -> PollPlan {
        PollPlan::new(x16(), 9000.0, Improvements::NONE, SimTime::ZERO)
    }

    fn variable() -> PollPlan {
        PollPlan::new(x16(), 9000.0, Improvements::ALL, SimTime::ZERO)
    }

    #[test]
    fn due_semantics() {
        let plan = fixed();
        assert!(plan.is_due(SimTime::ZERO));
        let mut plan = fixed();
        plan.on_poll(SimTime::ZERO, SimTime::ZERO, PollOutcome::Unsuccessful);
        assert!(!plan.is_due(ms(15)));
        assert!(plan.is_due(ms(16)));
    }

    #[test]
    fn fixed_plans_from_planned_time_always() {
        let mut plan = fixed();
        // Executed 5 ms late and unsuccessfully: next is still planned+x.
        plan.on_poll(SimTime::ZERO, ms(5), PollOutcome::Unsuccessful);
        assert_eq!(plan.next_poll(), ms(16));
        // Last segment of a big packet: fixed ignores packet size.
        plan.on_poll(
            ms(16),
            ms(17),
            PollOutcome::LastSegment {
                packet_size: 9000, // 1 second of fluid service!
                first_segment: true,
            },
        );
        assert_eq!(plan.next_poll(), ms(32));
    }

    #[test]
    fn improvement_a_postpones_by_fluid_service_time() {
        let mut plan = variable();
        // 288 bytes at 9000 B/s = 32 ms of fluid service, from the first
        // poll's planned time.
        plan.on_poll(
            SimTime::ZERO,
            SimTime::ZERO,
            PollOutcome::MidSegment {
                first_segment: true,
            },
        );
        assert_eq!(plan.next_poll(), ms(16));
        plan.on_poll(
            ms(16),
            ms(18),
            PollOutcome::LastSegment {
                packet_size: 288,
                first_segment: false,
            },
        );
        assert_eq!(plan.next_poll(), ms(32));
    }

    #[test]
    fn improvement_a_on_minimum_efficiency_packet_is_identity() {
        // The paper's remark: for the minimum-efficiency packet size the
        // next poll lands exactly x after the last planned poll.
        // x = eta_min / R with eta_min = 144, R = 9000: x = 16 ms, and a
        // single-segment 144-byte packet gives L/R = 16 ms as well.
        let mut plan = variable();
        plan.on_poll(
            SimTime::ZERO,
            ms(2),
            PollOutcome::LastSegment {
                packet_size: 144,
                first_segment: true,
            },
        );
        assert_eq!(plan.next_poll(), ms(16));
    }

    #[test]
    fn improvement_a_never_plans_before_fixed() {
        // A runt packet (below the policed minimum) must not pull the next
        // poll earlier than planned + x.
        let mut plan = variable();
        plan.on_poll(
            SimTime::ZERO,
            SimTime::ZERO,
            PollOutcome::LastSegment {
                packet_size: 10, // L/R = 1.1 ms << x
                first_segment: true,
            },
        );
        assert_eq!(plan.next_poll(), ms(16));
    }

    #[test]
    fn improvement_b_replans_from_actual() {
        let mut plan = variable();
        plan.on_poll(SimTime::ZERO, ms(7), PollOutcome::Unsuccessful);
        assert_eq!(plan.next_poll(), ms(7) + x16());
        // Fixed poller in the same situation sticks to the planned grid.
        let mut fixed_plan = fixed();
        fixed_plan.on_poll(SimTime::ZERO, ms(7), PollOutcome::Unsuccessful);
        assert_eq!(fixed_plan.next_poll(), ms(16));
    }

    #[test]
    fn improvement_c_skip_advances_plan_silently() {
        let mut plan = variable();
        plan.skip();
        plan.skip();
        assert_eq!(plan.next_poll(), ms(32));
        assert_eq!(plan.skipped(), 2);
        assert_eq!(plan.executed(), 0);
    }

    #[test]
    #[should_panic(expected = "improvement (c)")]
    fn fixed_plan_cannot_skip() {
        fixed().skip();
    }

    #[test]
    fn multi_packet_sequence() {
        let mut plan = variable();
        // Packet 1: two segments (first at t=0, second at t=16), 320 bytes.
        plan.on_poll(
            SimTime::ZERO,
            SimTime::ZERO,
            PollOutcome::MidSegment {
                first_segment: true,
            },
        );
        plan.on_poll(
            ms(16),
            ms(16),
            PollOutcome::LastSegment {
                packet_size: 320,
                first_segment: false,
            },
        );
        // 320 B / 9000 B/s = 35.56 ms from t=0.
        assert_eq!(plan.next_poll().as_nanos(), 35_555_556);
        assert_eq!(plan.executed(), 2);
    }

    #[test]
    fn lost_poll_mid_packet_keeps_cadence_and_anchor() {
        // A lossy radio can produce an unsuccessful poll while a packet is
        // mid-drain (the POLL itself got lost). The plan must neither crash
        // nor replan from the actual time — the packet keeps draining on
        // the provisioned grid.
        let mut plan = variable();
        plan.on_poll(
            SimTime::ZERO,
            SimTime::ZERO,
            PollOutcome::MidSegment {
                first_segment: true,
            },
        );
        plan.on_poll(ms(16), ms(20), PollOutcome::Unsuccessful); // lost POLL
        assert_eq!(plan.next_poll(), ms(32), "cadence from planned time");
        // The packet finally completes; improvement (a) still anchors at
        // the FIRST poll's planned time (t = 0).
        plan.on_poll(
            ms(32),
            ms(32),
            PollOutcome::LastSegment {
                packet_size: 450,
                first_segment: false,
            },
        );
        assert_eq!(plan.next_poll(), ms(50)); // 450 B / 9000 B/s from t=0
    }

    #[test]
    fn unsuccessful_when_late_and_fixed_catches_up() {
        // Fixed plans can fall behind real time; each poll advances exactly
        // one x from the planned time so the backlog of planned polls drains.
        let mut plan = fixed();
        plan.on_poll(SimTime::ZERO, ms(40), PollOutcome::Unsuccessful);
        assert_eq!(plan.next_poll(), ms(16));
        assert!(plan.is_due(ms(40)));
    }
}
