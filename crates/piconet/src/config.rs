//! Piconet configuration.

use crate::flow::{validate_flows, FlowSpec};
use crate::sar::{AlwaysLargestPolicy, MaxFirstPolicy, SegmentationPolicy};
use btgs_baseband::{AmAddr, PacketType, PresenceWindow, ScoLink, SLOT};
use btgs_des::{SimDuration, SimTime};
use btgs_traffic::FlowId;
use core::fmt;

/// Error raised by configuration or simulation-setup validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PiconetError(pub String);

impl fmt::Display for PiconetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "piconet configuration error: {}", self.0)
    }
}

impl std::error::Error for PiconetError {}

/// The segmentation policy used by every queue in the piconet.
///
/// An enum (rather than a boxed trait) keeps configurations `Clone` for
/// parameter sweeps; both variants delegate to the crate's segmentation
/// policies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SarPolicy {
    /// The paper's policy: largest packet unless the remainder fits a
    /// smaller one.
    #[default]
    MaxFirst,
    /// Always the largest allowed packet (ablation baseline).
    AlwaysLargest,
}

impl SegmentationPolicy for SarPolicy {
    fn next_type(&self, remaining: u32, allowed: &[PacketType]) -> Option<PacketType> {
        match self {
            SarPolicy::MaxFirst => MaxFirstPolicy.next_type(remaining, allowed),
            SarPolicy::AlwaysLargest => AlwaysLargestPolicy.next_type(remaining, allowed),
        }
    }
}

/// A flow's allowed packet types, pre-filtered by every possible
/// per-direction slot budget of an exchange.
///
/// When the master sizes an ACL exchange it caps each direction at
/// `window / 2` slots (the room left before the next SCO reservation). ACL
/// packets occupy 1, 3 or 5 slots, so every cap collapses to one of three
/// classes: caps 1–2 admit only single-slot types, caps 3–4 also the
/// three-slot types, and caps ≥ 5 the full set. Precomputing the three
/// filtered sets once per flow (at simulator build time) replaces the
/// per-exchange filter-into-a-fresh-`Vec` that used to run twice per poll
/// in the simulator's hot loop.
///
/// The sets are stored inline, one fixed array per class, so the table
/// lives inside the simulator's per-flow record with no heap allocation
/// of its own. Each set lists the distinct allowed types in the order of
/// their first occurrence (a type named twice is stored once; both
/// segmentation policies pick the same packet either way).
///
/// # Examples
///
/// ```
/// use btgs_piconet::AllowedByCap;
/// use btgs_baseband::PacketType;
///
/// let table = AllowedByCap::new(&[PacketType::Dh1, PacketType::Dh3]);
/// assert_eq!(table.data_types(5), Some(&[PacketType::Dh1, PacketType::Dh3][..]));
/// assert_eq!(table.data_types(4), Some(&[PacketType::Dh1, PacketType::Dh3][..]));
/// assert_eq!(table.data_types(2), Some(&[PacketType::Dh1][..]));
///
/// // A 3-slot-only flow cannot transmit data through a 2-slot budget.
/// let dh3 = AllowedByCap::new(&[PacketType::Dh3]);
/// assert_eq!(dh3.data_types(2), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowedByCap {
    /// Filtered sets for caps of 1–2, 3–4 and ≥ 5 slots: the first
    /// `len[class]` entries of `sets[class]`, in the allowed set's order
    /// (control types included, exactly like the unfiltered set handed to
    /// the segmentation policy). Unused entries hold `Poll`.
    sets: [[PacketType; PACKET_TYPES]; 3],
    len: [u8; 3],
    /// Whether the matching set contains a data-bearing type.
    has_data: [bool; 3],
}

/// The number of [`PacketType`] variants: the most distinct types an
/// allowed set can name.
const PACKET_TYPES: usize = 11;

impl AllowedByCap {
    /// Precomputes the per-cap filtered sets of `allowed`.
    pub fn new(allowed: &[PacketType]) -> AllowedByCap {
        let mut table = AllowedByCap {
            sets: [[PacketType::Poll; PACKET_TYPES]; 3],
            len: [0; 3],
            has_data: [false; 3],
        };
        for (class, cap) in [1, 3, 5].into_iter().enumerate() {
            for &t in allowed.iter().filter(|t| t.slots() <= cap) {
                let n = usize::from(table.len[class]);
                if !table.sets[class][..n].contains(&t) {
                    table.sets[class][n] = t;
                    table.len[class] += 1;
                    table.has_data[class] |= t.is_acl_data();
                }
            }
        }
        table
    }

    #[inline]
    fn class(cap: u64) -> usize {
        if cap >= 5 {
            2
        } else if cap >= 3 {
            1
        } else {
            0
        }
    }

    /// The allowed types fitting a per-direction budget of `cap` slots, or
    /// `None` if no *data-bearing* type fits (the exchange then degrades to
    /// POLL/NULL signalling).
    #[inline]
    pub fn data_types(&self, cap: u64) -> Option<&[PacketType]> {
        if cap == 0 {
            return None;
        }
        let class = Self::class(cap);
        self.has_data[class].then(|| &self.sets[class][..usize::from(self.len[class])])
    }
}

/// Per-slave presence schedule of one piconet.
///
/// Full-time slaves have no entry and are always present; a scatternet
/// bridge slave carries the [`PresenceWindow`] of its rendezvous schedule.
/// Every query is a couple of integer operations on a 7-entry array —
/// cheap enough for poller hot paths — and the default (all-present) mask
/// short-circuits to the exact pre-scatternet behaviour.
///
/// # Examples
///
/// ```
/// use btgs_piconet::PresenceMask;
/// use btgs_baseband::{AmAddr, PresenceWindow};
/// use btgs_des::{SimDuration, SimTime};
///
/// let bridge = AmAddr::new(7).unwrap();
/// let window = PresenceWindow::new(
///     SimDuration::from_millis(20),
///     SimDuration::ZERO,
///     SimDuration::from_millis(10),
/// ).unwrap();
/// let mut mask = PresenceMask::new();
/// mask.set(bridge, window).unwrap();
/// assert!(mask.is_present(bridge, SimTime::ZERO));
/// assert!(!mask.is_present(bridge, SimTime::from_millis(12)));
/// // Full-time slaves are always present.
/// assert!(mask.is_present(AmAddr::new(1).unwrap(), SimTime::from_millis(12)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PresenceMask {
    windows: [Option<PresenceWindow>; AmAddr::MAX_SLAVES],
}

impl PresenceMask {
    /// The trivial mask: every slave always present.
    pub const ALWAYS: PresenceMask = PresenceMask {
        windows: [None; AmAddr::MAX_SLAVES],
    };

    /// Creates the trivial (all-present) mask.
    pub fn new() -> PresenceMask {
        PresenceMask::ALWAYS
    }

    /// Registers the presence window of a part-time slave.
    ///
    /// # Errors
    ///
    /// Returns an error if the slave already has a window (one device
    /// cannot follow two rendezvous schedules in the same piconet).
    pub fn set(&mut self, slave: AmAddr, window: PresenceWindow) -> Result<(), PiconetError> {
        let slot = &mut self.windows[slave.index()];
        if slot.is_some() {
            return Err(PiconetError(format!(
                "slave {slave} already has a presence window"
            )));
        }
        *slot = Some(window);
        Ok(())
    }

    /// The presence window of a slave, or `None` for full-time slaves.
    pub fn window_of(&self, slave: AmAddr) -> Option<&PresenceWindow> {
        self.windows[slave.index()].as_ref()
    }

    /// `true` if no slave has a presence window (the single-piconet case).
    pub fn is_trivial(&self) -> bool {
        self.windows.iter().all(|w| w.is_none())
    }

    /// `true` if `slave` is reachable at instant `t`.
    #[inline]
    pub fn is_present(&self, slave: AmAddr, t: SimTime) -> bool {
        match &self.windows[slave.index()] {
            None => true,
            Some(w) => w.contains(t),
        }
    }

    /// The earliest instant at or after `t` at which `slave` is reachable
    /// (`t` itself for full-time slaves).
    #[inline]
    pub fn next_present(&self, slave: AmAddr, t: SimTime) -> SimTime {
        match &self.windows[slave.index()] {
            None => t,
            Some(w) => w.next_present(t),
        }
    }

    /// Whole slots for which `slave` stays reachable from `t` on
    /// (`u64::MAX` for full-time slaves).
    #[inline]
    pub fn remaining_slots(&self, slave: AmAddr, t: SimTime) -> u64 {
        match &self.windows[slave.index()] {
            None => u64::MAX,
            Some(w) => w.remaining(t).div_duration(SLOT),
        }
    }

    /// `true` if a transaction of duration `need` starting at `t` finishes
    /// at or before `slave`'s departure (always for full-time slaves). An
    /// exchange ending exactly *on* the boundary fits — the window is
    /// end-exclusive. For windows shorter than `need` this degrades to
    /// bare presence, in lock-step with [`next_fitting`]
    /// (see [`PresenceWindow::fits`]): the exchange is truncated by the
    /// departure cap, but a wait-then-recheck caller never spins.
    ///
    /// [`next_fitting`]: PresenceMask::next_fitting
    #[inline]
    pub fn fits(&self, slave: AmAddr, t: SimTime, need: SimDuration) -> bool {
        match &self.windows[slave.index()] {
            None => true,
            Some(w) => w.fits(t, need),
        }
    }

    /// The earliest instant at or after `t` at which a transaction of
    /// duration `need` with `slave` can start and still finish before the
    /// departure boundary (`t` itself for full-time slaves); see
    /// [`PresenceWindow::next_fitting`] for windows shorter than `need`.
    #[inline]
    pub fn next_fitting(&self, slave: AmAddr, t: SimTime, need: SimDuration) -> SimTime {
        match &self.windows[slave.index()] {
            None => t,
            Some(w) => w.next_fitting(t, need),
        }
    }
}

/// An SCO link bound to a slave, optionally fed by a voice flow.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoBinding {
    /// The slave holding the SCO link.
    pub slave: AmAddr,
    /// Link parameters (HV type and offset).
    pub link: ScoLink,
    /// Id of the voice flow served by this link, if its traffic is
    /// simulated (a source must then be registered for this id). SCO slots
    /// are reserved and consumed whether or not a voice flow is attached.
    pub voice_flow: Option<FlowId>,
}

/// Static description of a piconet scenario.
///
/// # Examples
///
/// ```
/// use btgs_piconet::{FlowSpec, PiconetConfig};
/// use btgs_baseband::{AmAddr, Direction, LogicalChannel, PacketType};
/// use btgs_traffic::FlowId;
///
/// let config = PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
///     .with_flow(FlowSpec::new(
///         FlowId(1),
///         AmAddr::new(1).unwrap(),
///         Direction::SlaveToMaster,
///         LogicalChannel::GuaranteedService,
///     ));
/// assert!(config.validate().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct PiconetConfig {
    /// ACL packet types any flow may use (unless overridden per flow).
    pub allowed_types: Vec<PacketType>,
    /// The flows carried by the piconet.
    pub flows: Vec<FlowSpec>,
    /// SCO links, if any.
    pub sco: Vec<ScoBinding>,
    /// Segmentation policy for all queues.
    pub sar: SarPolicy,
    /// Warm-up period excluded from all measurements.
    pub warmup: SimDuration,
    /// Per-slave presence schedule; trivial (all-present) outside a
    /// scatternet.
    pub presence: PresenceMask,
    /// Arrival batching factor: how many future source arrivals the engine
    /// may materialize eagerly per scheduled `Arrival` event (1 = one
    /// event per packet, the classic behaviour). Batching applies to
    /// uplink ACL and SCO voice sources only — their packets are invisible
    /// to the master until polled, so pre-queueing them is unobservable as
    /// long as wake-up instants are clamped to the earliest batched
    /// arrival (which the simulator does).
    pub arrival_batch: u32,
}

impl PiconetConfig {
    /// Creates a configuration with the given piconet-wide allowed ACL data
    /// packet types and no flows.
    pub fn new(allowed_types: Vec<PacketType>) -> PiconetConfig {
        PiconetConfig {
            allowed_types,
            flows: Vec::new(),
            sco: Vec::new(),
            sar: SarPolicy::MaxFirst,
            warmup: SimDuration::ZERO,
            presence: PresenceMask::ALWAYS,
            arrival_batch: 1,
        }
    }

    /// Adds a flow (builder style).
    #[must_use]
    pub fn with_flow(mut self, flow: FlowSpec) -> PiconetConfig {
        self.flows.push(flow);
        self
    }

    /// Adds an SCO binding (builder style).
    #[must_use]
    pub fn with_sco(mut self, sco: ScoBinding) -> PiconetConfig {
        self.sco.push(sco);
        self
    }

    /// Sets the warm-up period (builder style).
    #[must_use]
    pub fn with_warmup(mut self, warmup: SimDuration) -> PiconetConfig {
        self.warmup = warmup;
        self
    }

    /// Sets the segmentation policy (builder style).
    #[must_use]
    pub fn with_sar(mut self, sar: SarPolicy) -> PiconetConfig {
        self.sar = sar;
        self
    }

    /// Sets the arrival batching factor (builder style); see the
    /// [`arrival_batch`](PiconetConfig::arrival_batch) field.
    #[must_use]
    pub fn with_arrival_batch(mut self, batch: u32) -> PiconetConfig {
        self.arrival_batch = batch;
        self
    }

    /// Marks `slave` as part-time with the given presence window (builder
    /// style).
    ///
    /// # Panics
    ///
    /// Panics if the slave already has a presence window; use
    /// [`PresenceMask::set`] directly for fallible registration.
    #[must_use]
    pub fn with_presence(mut self, slave: AmAddr, window: PresenceWindow) -> PiconetConfig {
        self.presence
            .set(slave, window)
            .expect("slave registered twice in with_presence");
        self
    }

    /// The allowed packet types of a flow (its override or the piconet-wide
    /// set).
    pub fn allowed_for<'a>(&'a self, flow: &'a FlowSpec) -> &'a [PacketType] {
        flow.allowed_types.as_deref().unwrap_or(&self.allowed_types)
    }

    /// Checks the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`PiconetError`] naming the first violated rule: flow-set
    /// rules (see [`validate_flows`]), a data-bearing allowed set for every
    /// flow, at most seven slaves, non-overlapping SCO reservations, and
    /// voice-flow ids distinct from ACL flow ids and from each other.
    pub fn validate(&self) -> Result<(), PiconetError> {
        if self.arrival_batch == 0 {
            return Err(PiconetError(
                "arrival_batch must be at least 1 (1 disables batching)".into(),
            ));
        }
        validate_flows(&self.flows).map_err(PiconetError)?;
        for f in &self.flows {
            if !self.allowed_for(f).iter().any(|t| t.is_acl_data()) {
                return Err(PiconetError(format!(
                    "flow {} has no data-bearing packet type available",
                    f.id
                )));
            }
        }
        let mut slaves: Vec<AmAddr> = self.flows.iter().map(|f| f.slave).collect();
        slaves.extend(self.sco.iter().map(|s| s.slave));
        slaves.sort();
        slaves.dedup();
        if slaves.len() > AmAddr::MAX_SLAVES {
            return Err(PiconetError(format!(
                "{} slaves configured; a piconet holds at most 7",
                slaves.len()
            )));
        }
        for (i, a) in self.sco.iter().enumerate() {
            for b in &self.sco[i + 1..] {
                // Two links overlap if any reservation instant coincides;
                // with periodic grids it suffices to check over the LCM
                // window, and all HV intervals divide 12 slots.
                let horizon = btgs_des::SimTime::from_micros(625 * 12);
                let mut t = btgs_des::SimTime::ZERO;
                while t < horizon {
                    let ra = a.link.next_reservation(t);
                    if ra == b.link.next_reservation(ra) {
                        return Err(PiconetError(format!(
                            "SCO links at {} and {} collide at {}",
                            a.slave, b.slave, ra
                        )));
                    }
                    t = ra + btgs_des::SimDuration::from_micros(1250);
                }
            }
        }
        for (i, s) in self.sco.iter().enumerate() {
            if let Some(vf) = s.voice_flow {
                if self.flows.iter().any(|f| f.id == vf) {
                    return Err(PiconetError(format!(
                        "SCO voice flow id {vf} collides with an ACL flow id"
                    )));
                }
                if self.sco[i + 1..].iter().any(|b| b.voice_flow == Some(vf)) {
                    return Err(PiconetError(format!(
                        "SCO voice flow id {vf} is bound to two SCO links"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_baseband::{Direction, LogicalChannel};

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    fn base() -> PiconetConfig {
        PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
    }

    #[test]
    fn empty_config_is_valid() {
        assert!(base().validate().is_ok());
    }

    #[test]
    fn allowed_for_override() {
        let f1 = FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        );
        let f2 = FlowSpec::new(
            FlowId(2),
            s(2),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        )
        .with_allowed_types(vec![PacketType::Dh1]);
        let cfg = base().with_flow(f1.clone()).with_flow(f2.clone());
        assert_eq!(cfg.allowed_for(&f1), &[PacketType::Dh1, PacketType::Dh3]);
        assert_eq!(cfg.allowed_for(&f2), &[PacketType::Dh1]);
    }

    #[test]
    fn allowed_sets_hold_every_packet_type_inline() {
        use PacketType::*;
        // Every variant, in a scrambled order and named twice: each cap
        // class keeps the distinct types that fit, in first-occurrence
        // order.
        let every = [
            Dh5, Null, Dm3, Hv1, Dh1, Poll, Dm5, Hv2, Dh3, Dm1, Hv3, Dh5, Dm1, Poll,
        ];
        let table = AllowedByCap::new(&every);
        let fitting = |cap: u64| {
            let mut out: Vec<PacketType> = Vec::new();
            for &t in &every {
                if t.slots() <= cap && !out.contains(&t) {
                    out.push(t);
                }
            }
            out
        };
        assert_eq!(fitting(5).len(), PACKET_TYPES, "every variant is listed");
        for cap in 1..=6 {
            let class_cap = match cap {
                1 | 2 => 1,
                3 | 4 => 3,
                _ => 5,
            };
            assert_eq!(table.data_types(cap), Some(&fitting(class_cap)[..]));
        }
        assert_eq!(table.data_types(0), None);
        // Control and voice types alone carry no data at any cap.
        assert_eq!(AllowedByCap::new(&[Poll, Null, Hv3]).data_types(5), None);
    }

    #[test]
    fn rejects_flow_without_data_types() {
        let f = FlowSpec::new(
            FlowId(1),
            s(1),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        )
        .with_allowed_types(vec![PacketType::Poll]);
        let err = base().with_flow(f).validate().unwrap_err();
        assert!(err.to_string().contains("no data-bearing"));
    }

    #[test]
    fn rejects_too_many_slaves() {
        // 7 ACL slaves plus an SCO link on an eighth address is impossible
        // anyway (AmAddr caps at 7), so overfill via flows on all 7 plus…
        // seven is fine:
        let mut cfg = base();
        for n in 1..=7u8 {
            cfg = cfg.with_flow(FlowSpec::new(
                FlowId(n as u32),
                s(n),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ));
        }
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn sco_collision_detected() {
        let cfg = base()
            .with_sco(ScoBinding {
                slave: s(1),
                link: ScoLink::new(PacketType::Hv3, 0).unwrap(),
                voice_flow: None,
            })
            .with_sco(ScoBinding {
                slave: s(2),
                link: ScoLink::new(PacketType::Hv3, 0).unwrap(),
                voice_flow: None,
            });
        assert!(cfg.validate().is_err());
        // Distinct offsets coexist.
        let ok = base()
            .with_sco(ScoBinding {
                slave: s(1),
                link: ScoLink::new(PacketType::Hv3, 0).unwrap(),
                voice_flow: None,
            })
            .with_sco(ScoBinding {
                slave: s(2),
                link: ScoLink::new(PacketType::Hv3, 1).unwrap(),
                voice_flow: None,
            });
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn voice_flow_id_collision_detected() {
        let cfg = base()
            .with_flow(FlowSpec::new(
                FlowId(1),
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::BestEffort,
            ))
            .with_sco(ScoBinding {
                slave: s(2),
                link: ScoLink::new(PacketType::Hv3, 0).unwrap(),
                voice_flow: Some(FlowId(1)),
            });
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("collides"));
    }

    #[test]
    fn sar_policy_delegates() {
        let allowed = [PacketType::Dh1, PacketType::Dh3];
        assert_eq!(
            SarPolicy::MaxFirst.next_type(20, &allowed),
            Some(PacketType::Dh1)
        );
        assert_eq!(
            SarPolicy::AlwaysLargest.next_type(20, &allowed),
            Some(PacketType::Dh3)
        );
        assert_eq!(SarPolicy::default(), SarPolicy::MaxFirst);
    }
}
