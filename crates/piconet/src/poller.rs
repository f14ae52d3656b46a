//! The poller interface: how a scheduling policy plugs into the master.
//!
//! The master consults its [`Poller`] at every decision point (whenever the
//! channel is free at an even slot boundary). The poller sees only what a
//! real Bluetooth master can see — its own downlink queues and the outcomes
//! of past polls — never the slaves' uplink queues. *"With respect to the
//! upstream traffic, the master lacks knowledge about the availability of
//! data at a slave."*

use crate::config::PresenceMask;
use crate::flow::FlowSpec;
use crate::flow_table::{FlowIdx, FlowTable};
use crate::queue::SegmentPlan;
use crate::sim::FlowState;
use btgs_baseband::{AmAddr, Direction, LogicalChannel, PacketType};
use btgs_des::{SimDuration, SimTime};
use btgs_traffic::FlowId;

/// What the master should do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollDecision {
    /// Address `slave` with a poll on the given logical channel. The master
    /// forms the exchange: a downlink data segment (or POLL) plus the
    /// slave's uplink response (data or NULL).
    Poll {
        /// The slave to address.
        slave: AmAddr,
        /// Which logical channel the poll serves (GS polls never move BE
        /// data and vice versa).
        channel: LogicalChannel,
    },
    /// Nothing to do before `until`: the master sleeps and re-consults the
    /// poller at the first even slot boundary at or after `until` (or
    /// earlier if new downlink data arrives).
    Idle {
        /// Earliest instant the poller wants to be consulted again.
        until: SimTime,
    },
    /// No pending or planned work at all: sleep until the next arrival.
    Sleep,
}

/// Read-only view of the master-side state handed to [`Poller::decide`].
///
/// Exposes the [`FlowTable`] and the **downlink** queues only. Every
/// lookup is O(1) and allocation-free — this view is rebuilt at every
/// decision point, so it must stay cheap.
#[derive(Debug)]
pub struct MasterView<'a> {
    now: SimTime,
    table: &'a FlowTable,
    flows: &'a [FlowState],
    presence: &'a PresenceMask,
}

/// Snapshot of one downlink queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DownlinkView {
    /// Queued higher-layer packets (including a partially-sent head).
    pub packets: usize,
    /// Arrival instant of the head packet.
    pub head_arrival: Option<SimTime>,
    /// Outstanding bytes.
    pub backlog_bytes: u64,
}

impl<'a> MasterView<'a> {
    /// Creates a view.
    ///
    /// Normally the simulator constructs views; the constructor is public so
    /// poller implementations can unit-test their `decide` logic directly.
    /// `flows[i]` is the state of the flow at index `i` of `table` (see
    /// [`FlowState::for_table`]); only the downlink flows' queues are
    /// visible through the view.
    pub fn new(now: SimTime, table: &'a FlowTable, flows: &'a [FlowState]) -> MasterView<'a> {
        MasterView::with_presence(now, table, flows, &PresenceMask::ALWAYS)
    }

    /// Creates a view with an explicit per-slave presence mask (scatternet
    /// piconets with bridge slaves; [`MasterView::new`] assumes everybody is
    /// always present).
    pub fn with_presence(
        now: SimTime,
        table: &'a FlowTable,
        flows: &'a [FlowState],
        presence: &'a PresenceMask,
    ) -> MasterView<'a> {
        debug_assert_eq!(table.len(), flows.len());
        MasterView {
            now,
            table,
            flows,
            presence,
        }
    }

    /// The current instant (an even slot boundary).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The per-slave presence mask of the piconet.
    pub fn presence(&self) -> &'a PresenceMask {
        self.presence
    }

    /// `true` if `slave` is reachable right now (always true outside a
    /// scatternet). Pollers must not address absent bridge slaves.
    #[inline]
    pub fn is_present(&self, slave: AmAddr) -> bool {
        self.presence.is_present(slave, self.now)
    }

    /// The earliest instant at or after now at which `slave` is reachable
    /// (now itself for present slaves). O(1), allocation-free.
    #[inline]
    pub fn next_present(&self, slave: AmAddr) -> SimTime {
        self.presence.next_present(slave, self.now)
    }

    /// `true` if an exchange of duration `need` started now would finish
    /// at or before `slave`'s departure (always true for full-time
    /// slaves). Ending exactly on the boundary fits. Pollers whose service
    /// guarantee assumes a *full* exchange per poll (the GS η_min
    /// accounting) must check this instead of bare [`is_present`]: a poll
    /// issued into a shorter remainder is silently truncated to smaller
    /// packets by the departure cap, breaking the per-poll guarantee.
    ///
    /// [`is_present`]: MasterView::is_present
    #[inline]
    pub fn fits_exchange(&self, slave: AmAddr, need: SimDuration) -> bool {
        self.presence.fits(slave, self.now, need)
    }

    /// The earliest instant at or after now at which an exchange of
    /// duration `need` with `slave` can start and still finish before its
    /// departure (now itself for full-time slaves). O(1),
    /// allocation-free.
    #[inline]
    pub fn next_present_fitting(&self, slave: AmAddr, need: SimDuration) -> SimTime {
        self.presence.next_fitting(slave, self.now, need)
    }

    /// The earliest instant at or after now at which *any* of `slaves` is
    /// reachable — the shared "everybody is off in another piconet, wait
    /// for the first one back" fallback of the presence-aware pollers.
    /// Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `slaves` is empty (an empty candidate set should `Sleep`,
    /// not idle).
    pub fn earliest_presence(&self, slaves: &[AmAddr]) -> SimTime {
        slaves
            .iter()
            .map(|&s| self.next_present(s))
            .min()
            .expect("earliest_presence needs at least one candidate slave")
    }

    /// The flow table of the piconet.
    pub fn table(&self) -> &'a FlowTable {
        self.table
    }

    /// All flows configured in the piconet, in dense-index order.
    pub fn flows(&self) -> &'a [FlowSpec] {
        self.table.specs()
    }

    /// The flow with the given id, if configured. O(1).
    pub fn flow(&self, id: FlowId) -> Option<&'a FlowSpec> {
        self.table.idx_of(id).map(|idx| self.table.spec(idx))
    }

    /// The unique flow matching `(slave, direction, channel)`, if any. O(1).
    pub fn flow_at(
        &self,
        slave: AmAddr,
        direction: Direction,
        channel: LogicalChannel,
    ) -> Option<&'a FlowSpec> {
        self.table
            .at(slave, direction, channel)
            .map(|idx| self.table.spec(idx))
    }

    /// Snapshot of a downlink flow's queue. Returns `None` for uplink flows
    /// (the master cannot see those) and for unknown ids. O(1).
    pub fn downlink(&self, id: FlowId) -> Option<DownlinkView> {
        self.downlink_at(self.table.idx_of(id)?)
    }

    /// Snapshot of a downlink flow's queue by dense index. Returns `None`
    /// for uplink flows.
    pub fn downlink_at(&self, idx: FlowIdx) -> Option<DownlinkView> {
        let f = &self.flows[idx.get()];
        if !f.downlink {
            return None;
        }
        let q = &f.queue;
        Some(DownlinkView {
            packets: q.len(),
            head_arrival: q.head_arrival(),
            backlog_bytes: q.backlog_bytes(),
        })
    }

    /// `true` if the downlink flow at `idx` had data available at `t`.
    /// Uplink flows always report `false` (master ignorance).
    pub fn downlink_has_data_at(&self, idx: FlowIdx, t: SimTime) -> bool {
        // Checked on every PFP availability probe: go straight to the
        // queue's head-arrival test instead of snapshotting a full view.
        let f = &self.flows[idx.get()];
        f.downlink && f.queue.has_data_at(t)
    }

    /// The distinct slaves that have at least one flow, in address order.
    /// Precomputed — no allocation.
    pub fn slaves(&self) -> &'a [AmAddr] {
        self.table.slaves()
    }

    /// The distinct slaves with at least one flow on `channel`, in address
    /// order. Precomputed — no allocation.
    pub fn slaves_on(&self, channel: LogicalChannel) -> &'a [AmAddr] {
        self.table.slaves_on(channel)
    }

    /// The flows of one slave, as dense indices. Precomputed.
    pub fn flows_of(&self, slave: AmAddr) -> &'a [FlowIdx] {
        self.table.flows_of(slave)
    }
}

/// What one direction of a completed exchange carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentOutcome {
    /// A data segment was transmitted.
    Data {
        /// The flow the segment belongs to.
        flow: FlowId,
        /// The segment that was sent.
        segment: SegmentPlan,
        /// `true` if the radio delivered it (always true on the ideal
        /// channel); a failed segment stays at the head of its queue and is
        /// offered again (1-bit ARQ).
        delivered: bool,
        /// `true` if this transmission was a retransmission of a previously
        /// failed segment.
        retransmission: bool,
    },
    /// A control packet (POLL downlink / NULL uplink) was transmitted.
    Control {
        /// POLL or NULL.
        ty: PacketType,
    },
    /// Nothing was transmitted in this direction (e.g. the slave stayed
    /// silent because the downlink packet was lost).
    Silent,
}

impl SegmentOutcome {
    /// `true` if a data segment was delivered in this direction.
    pub fn is_delivered_data(&self) -> bool {
        matches!(
            self,
            SegmentOutcome::Data {
                delivered: true,
                ..
            }
        )
    }

    /// Slots occupied on air by this direction.
    pub fn slots(&self) -> u64 {
        match self {
            SegmentOutcome::Data { segment, .. } => segment.ty.slots(),
            SegmentOutcome::Control { ty } => ty.slots(),
            SegmentOutcome::Silent => 1, // the response window passes unused
        }
    }
}

/// Feedback to the poller after each completed exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExchangeReport {
    /// Master transmission start (even slot boundary).
    pub start: SimTime,
    /// Exchange end (the next even slot boundary after the uplink).
    pub end: SimTime,
    /// The addressed slave.
    pub slave: AmAddr,
    /// The logical channel the poll served.
    pub channel: LogicalChannel,
    /// What the master sent.
    pub down: SegmentOutcome,
    /// What the slave answered.
    pub up: SegmentOutcome,
}

impl ExchangeReport {
    /// `true` if the poll moved at least one data segment (in either
    /// direction). The paper calls a GS poll that moved no GS data an
    /// *unsuccessful* poll.
    pub fn successful(&self) -> bool {
        matches!(self.down, SegmentOutcome::Data { .. })
            || matches!(self.up, SegmentOutcome::Data { .. })
    }
}

/// A master polling policy.
///
/// Implementations decide which slave to address next and receive feedback
/// about completed exchanges and master-side (downlink) packet arrivals.
pub trait Poller: Send {
    /// Chooses the next action. Called whenever the channel is free at an
    /// even slot boundary. Must not assume it is called at any particular
    /// rate; spurious calls (e.g. after an arrival) are allowed.
    fn decide(&mut self, now: SimTime, view: &MasterView<'_>) -> PollDecision;

    /// Observes a completed exchange (including its radio outcome).
    fn on_exchange(&mut self, report: &ExchangeReport);

    /// Observes a packet arriving into a master-side (downlink) queue.
    /// Uplink arrivals are *not* reported: the master cannot see them.
    fn on_downlink_arrival(&mut self, flow: FlowId, now: SimTime) {
        let _ = (flow, now);
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u8) -> AmAddr {
        AmAddr::new(n).unwrap()
    }

    fn flows() -> Vec<FlowSpec> {
        vec![
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
                LogicalChannel::BestEffort,
            ),
        ]
    }

    #[test]
    fn view_exposes_downlink_only() {
        let table = FlowTable::new(flows()).unwrap();
        let mut state = FlowState::for_table(&table);
        let pkt = |id| btgs_traffic::AppPacket::new(0, FlowId(id), 100, SimTime::ZERO);
        state[1].queue_mut().push(pkt(2));
        // The master cannot see an uplink queue, even a non-empty one.
        state[0].queue_mut().push(pkt(1));
        let view = MasterView::new(SimTime::from_millis(1), &table, &state);

        assert_eq!(view.now(), SimTime::from_millis(1));
        assert_eq!(view.flows().len(), 2);
        assert!(
            view.downlink(FlowId(1)).is_none(),
            "uplink queue is invisible"
        );
        let dl = view.downlink(FlowId(2)).unwrap();
        assert_eq!(dl.packets, 1);
        assert_eq!(dl.backlog_bytes, 100);
        assert!(view.downlink_has_data_at(FlowIdx(1), SimTime::ZERO));
        assert!(!view.downlink_has_data_at(FlowIdx(0), SimTime::from_secs(1)));
    }

    #[test]
    fn view_lookups() {
        let table = FlowTable::new(flows()).unwrap();
        let state = FlowState::for_table(&table);
        let view = MasterView::new(SimTime::ZERO, &table, &state);
        assert_eq!(view.flow(FlowId(1)).unwrap().slave, s(1));
        assert!(view.flow(FlowId(3)).is_none());
        assert!(view
            .flow_at(
                s(1),
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService
            )
            .is_some());
        assert!(view
            .flow_at(
                s(1),
                Direction::MasterToSlave,
                LogicalChannel::GuaranteedService
            )
            .is_none());
        assert_eq!(view.slaves(), vec![s(1), s(2)]);
    }

    #[test]
    fn outcome_slots_and_success() {
        let seg = SegmentPlan {
            ty: PacketType::Dh3,
            bytes: 176,
            is_last: true,
            is_first: true,
            packet_seq: 0,
            packet_size: 176,
            packet_arrival: SimTime::ZERO,
        };
        let data = SegmentOutcome::Data {
            flow: FlowId(1),
            segment: seg,
            delivered: true,
            retransmission: false,
        };
        assert_eq!(data.slots(), 3);
        assert!(data.is_delivered_data());
        assert_eq!(
            SegmentOutcome::Control {
                ty: PacketType::Poll
            }
            .slots(),
            1
        );
        assert_eq!(SegmentOutcome::Silent.slots(), 1);

        let report = ExchangeReport {
            start: SimTime::ZERO,
            end: SimTime::from_micros(2500),
            slave: s(1),
            channel: LogicalChannel::GuaranteedService,
            down: SegmentOutcome::Control {
                ty: PacketType::Poll,
            },
            up: data,
        };
        assert!(report.successful());
        let unsuccessful = ExchangeReport {
            up: SegmentOutcome::Control {
                ty: PacketType::Null,
            },
            ..report
        };
        assert!(!unsuccessful.successful());
    }
}
