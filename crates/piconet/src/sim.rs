//! The piconet simulator: a slot-accurate model of master-driven TDD
//! polling.
//!
//! The master consults its [`Poller`] whenever the channel is free at an
//! even slot boundary. A poll becomes an *exchange*: a downlink baseband
//! packet (data segment or POLL) followed by the addressed slave's response
//! (data segment or NULL), after which the channel is free again. SCO
//! reservations pre-empt polling; ACL exchanges are sized to fit between
//! them.
//!
//! This module holds one piconet's state (`World`) and its event handlers,
//! and has no run loop of its own. Every piconet runs as an island of the
//! scatternet engine, and [`PiconetSim`] is a one-island [`ScatternetSim`]
//! with no bridges and no chains, so the paper's own scenario and every
//! scatternet share one engine.
//!
//! A world keeps one dense [`FlowState`] record per flow, in flow-index
//! order: the flow's queue, its allowed-type table (inline), its
//! measurement counters and delay-sample header, its id and, on an island
//! a relay chain touches, its route and origin FIFO. An exchange touches
//! the records of the one or two flows it serves and the world's single
//! in-flight exchange record, which already holds the poller's
//! [`ExchangeReport`]: nothing is looked up in the flow table and nothing
//! is re-packed when the exchange completes.

use crate::config::{AllowedByCap, PiconetConfig, PiconetError, PresenceMask, ScoBinding};
use crate::flow::FlowSpec;
use crate::flow_table::FlowTable;
use crate::ledger::{PollCounters, SlotLedger};
use crate::poller::{ExchangeReport, MasterView, PollDecision, Poller, SegmentOutcome};
use crate::queue::{FlowQueue, SegmentPlan};
use crate::report::{FlowReport, RunReport};
use crate::scatternet::{HopNext, ScatternetConfig, ScatternetSim};
use btgs_baseband::{
    next_master_tx_start, AmAddr, ChannelModel, Direction, LogicalChannel, PacketType, SLOT,
    SLOT_PAIR,
};
use btgs_des::{PendingEvents, Scheduler, SimDuration, SimTime};
use btgs_traffic::{AppPacket, FlowId, Source};
use std::collections::{BTreeMap, VecDeque};

/// Delay samples reserved for each packet series: a flow's delays, and a
/// relay chain's end-to-end delays and bridge residences, which gain one
/// sample per relayed packet, the rate of the chain's hop flows.
pub(crate) const SERIES_SAMPLES: usize = 1024;

/// Destination of a source's packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Target {
    /// Dense index of an ACL flow (its record in `World::flows`).
    Flow(usize),
    /// Index into the SCO bindings.
    Sco(usize),
}

/// One flow's simulation state: the dense per-flow record a world keeps
/// in flow-index order (the [`FlowTable`]'s [`FlowIdx`] addresses both).
///
/// A [`MasterView`] reads the downlink records' queues; the simulator
/// builds the records, so outside it they only serve to drive a poller's
/// `decide` directly ([`FlowState::for_table`]).
///
/// [`FlowIdx`]: crate::FlowIdx
#[derive(Debug)]
pub struct FlowState {
    /// The flow's id, so the per-packet and per-exchange paths never read
    /// the flow table.
    pub(crate) id: FlowId,
    /// The flow's direction (from its spec): whose queue `queue` is.
    /// Only downlink queues are visible to the master.
    pub(crate) downlink: bool,
    /// The flow's one queue: at the master for a downlink flow, at the
    /// slave for an uplink one.
    pub(crate) queue: FlowQueue,
    /// The flow's allowed packet types, pre-filtered by slot cap, so the
    /// hot path never builds a fresh `Vec` per exchange.
    pub(crate) allowed: AllowedByCap,
    /// Window counters and delay samples. The sample buffer is reserved
    /// after every island's hot state exists (see `World::reserve_samples`).
    pub(crate) report: FlowReport,
    /// Relay action for completed packets: `Some` exactly on the hop flows
    /// of a relay chain, whose completed deliveries are captured into the
    /// [`World::outbox`] for the scatternet to route.
    pub(crate) route: Option<HopNext>,
    /// Fed by relaying, so exempt from the one-source-per-flow rule.
    pub(crate) relay_fed: bool,
    /// Origin timestamps of the packets in flight on a relay-fed flow,
    /// FIFO: per-flow order is preserved across hops, so the consuming
    /// hop pops its packet's own origin. Empty, and unallocated, on every
    /// other flow.
    pub(crate) origins: VecDeque<SimTime>,
}

impl FlowState {
    /// The state of `spec` at the start of a run: an empty queue, no
    /// measurements, no relay route.
    fn new(spec: &FlowSpec, allowed: &[PacketType]) -> FlowState {
        FlowState {
            id: spec.id,
            downlink: spec.direction.is_downlink(),
            queue: FlowQueue::new(),
            allowed: AllowedByCap::new(allowed),
            report: FlowReport::default(),
            route: None,
            relay_fed: false,
            origins: VecDeque::new(),
        }
    }

    /// One fresh record per flow of `table`, in flow-index order, with
    /// every queue empty: the flow state a [`MasterView`] needs to drive a
    /// poller's `decide` outside a simulation (unit tests, benches). Fill
    /// downlink queues through [`FlowState::queue_mut`].
    pub fn for_table(table: &FlowTable) -> Vec<FlowState> {
        table
            .specs()
            .iter()
            .map(|f| FlowState::new(f, f.allowed_types.as_deref().unwrap_or(&[])))
            .collect()
    }

    /// The flow's queue (at the master for a downlink flow).
    pub fn queue_mut(&mut self) -> &mut FlowQueue {
        &mut self.queue
    }
}

/// The single in-flight ACL exchange, complete from the moment it is
/// planned: the [`ExchangeReport`] the poller receives on completion (its
/// end is known when the exchange starts), plus the dense indices of the
/// flows whose data segments it carries.
#[derive(Clone, Copy, Debug)]
struct PendingExchange {
    report: ExchangeReport,
    /// Flow index of `report.down`'s data segment; unused without one.
    down_idx: usize,
    /// Flow index of `report.up`'s data segment; unused without one.
    up_idx: usize,
}

#[derive(Debug)]
pub(crate) enum Ev {
    /// A higher-layer packet arrives at its queue.
    Arrival { source_idx: usize, pkt: AppPacket },
    /// The master re-evaluates what to do (channel known free).
    Wake,
    /// The in-flight ACL exchange (parked in [`World::pending_exchange`] —
    /// TDD allows only one, so the event stays payload-free and every
    /// event-queue slot small) completes.
    ExchangeDone,
    /// An SCO reservation completes.
    ScoDone { sco_idx: usize, start: SimTime },
    /// A packet relayed from another piconet (scatternet bridge or master
    /// relay) lands in the flow's queue. `pkt.arrival` is the handoff
    /// instant, which is also the event time.
    Relay { flow_idx: usize, pkt: AppPacket },
}

struct SourceSlot {
    source: Box<dyn Source>,
    target: Target,
}

struct ScoRt {
    binding: ScoBinding,
    queue: FlowQueue,
    report: FlowReport,
}

/// A higher-layer packet that completed delivery on a capture-marked flow,
/// waiting in the [`World::outbox`] for the scatternet layer to route.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Captured {
    /// Dense index of the flow the packet completed on.
    pub(crate) flow_idx: usize,
    /// The completed higher-layer packet (with this hop's arrival time).
    pub(crate) pkt: AppPacket,
    /// The delivery instant of the packet's last segment.
    pub(crate) at: SimTime,
}

pub(crate) struct World {
    pub(crate) table: FlowTable,
    /// One record per flow, in flow-index order (see [`FlowState`]).
    pub(crate) flows: Vec<FlowState>,
    sources: Vec<SourceSlot>,
    poller: Option<Box<dyn Poller>>,
    channel: Box<dyn ChannelModel>,
    sco: Vec<ScoRt>,
    /// Memoised [`World::next_sco_after`] result: `(asked, reservation)`.
    /// Valid for any query instant in `[asked, reservation)`, because the
    /// reservation grids are static and nothing lies strictly between.
    sco_cache: Option<(SimTime, SimTime)>,
    /// The single in-flight ACL exchange (the master's TDD discipline
    /// allows no more), resolved by [`Ev::ExchangeDone`].
    pending_exchange: Option<PendingExchange>,
    busy_until: SimTime,
    /// The instant the scheduler's timer is armed for: the master's one
    /// planned [`Ev::Wake`]. `None` while the timer is free.
    wake: Option<SimTime>,
    warmup: SimTime,
    /// Per-slave presence windows (bridge slaves in a scatternet); the
    /// default mask reports every slave always present and costs nothing.
    pub(crate) presence: PresenceMask,
    /// Latest admissible arrival instant: arrivals past the run horizon are
    /// never scheduled, so infinite sources cannot outrun the run loop.
    pub(crate) horizon: SimTime,
    /// Packets completed on a routed flow by the current event, drained by
    /// the scatternet loop after each handler returns. Pre-reserved on
    /// chain-touched islands; empty in steady state.
    pub(crate) outbox: Vec<Captured>,
    ledger: SlotLedger,
    gs_polls: PollCounters,
    be_polls: PollCounters,
    /// Arrival batching factor (see [`PiconetConfig::arrival_batch`]);
    /// 1 = one engine event per source packet.
    arrival_batch: u32,
    /// Per-source pending *future* arrival instants of packets that were
    /// materialized eagerly (batched) into their queues. The master's idle
    /// and sleep wake-ups clamp to the earliest of these, replacing the
    /// per-packet `Ev::Arrival` wake-up batching elides. Parallel to
    /// `sources`; empty deques when batching is off.
    batched: Vec<VecDeque<SimTime>>,
}

impl World {
    /// Builds the per-piconet simulation state from a configuration, a
    /// poller and a channel model. The configuration is consumed, so its
    /// flows and SCO bindings move into the world instead of being copied.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub(crate) fn build(
        config: PiconetConfig,
        poller: Box<dyn Poller>,
        channel: Box<dyn ChannelModel>,
    ) -> Result<World, PiconetError> {
        config.validate()?;
        let flows = config
            .flows
            .iter()
            .map(|f| FlowState::new(f, config.allowed_for(f)))
            .collect();
        // `config.validate()` above already ran `validate_flows`.
        let table = FlowTable::from_validated(config.flows);
        let sco = config
            .sco
            .into_iter()
            .map(|binding| ScoRt {
                binding,
                queue: FlowQueue::new(),
                report: FlowReport::default(),
            })
            .collect();
        Ok(World {
            table,
            flows,
            sources: Vec::new(),
            poller: Some(poller),
            channel,
            sco,
            sco_cache: None,
            pending_exchange: None,
            busy_until: SimTime::ZERO,
            wake: None,
            warmup: SimTime::ZERO + config.warmup,
            presence: config.presence,
            horizon: SimTime::MAX,
            outbox: Vec::new(),
            ledger: SlotLedger::default(),
            gs_polls: PollCounters::default(),
            be_polls: PollCounters::default(),
            arrival_batch: config.arrival_batch,
            batched: Vec::new(),
        })
    }

    /// Registers the traffic source feeding `target`, the ACL flow or SCO
    /// binding the caller resolved the source's flow id to.
    ///
    /// # Errors
    ///
    /// Returns an error if the target already has a source.
    pub(crate) fn add_source(
        &mut self,
        source: Box<dyn Source>,
        target: Target,
    ) -> Result<(), PiconetError> {
        if self.sources.iter().any(|s| s.target == target) {
            let id = source.flow();
            return Err(PiconetError(format!("flow {id} already has a source")));
        }
        self.sources.push(SourceSlot { source, target });
        // At most `arrival_batch - 1` instants are pending per source, so
        // the deque never reallocates mid-run (the zero-alloc gates cover
        // the batched steady state too).
        self.batched.push(VecDeque::with_capacity(
            self.arrival_batch.saturating_sub(1) as usize,
        ));
        Ok(())
    }

    /// Checks that every flow has a source, except the flows the
    /// scatternet feeds by relaying (they have no source of their own).
    ///
    /// # Errors
    ///
    /// Returns an error naming the first flow without a source.
    pub(crate) fn check_sources(&self) -> Result<(), PiconetError> {
        for (idx, f) in self.flows.iter().enumerate() {
            if f.relay_fed {
                continue;
            }
            if !self.sources.iter().any(|s| s.target == Target::Flow(idx)) {
                return Err(PiconetError(format!("flow {} has no source", f.id)));
            }
        }
        for (idx, s) in self.sco.iter().enumerate() {
            if let Some(vf) = s.binding.voice_flow {
                if !self
                    .sources
                    .iter()
                    .any(|src| src.target == Target::Sco(idx))
                {
                    return Err(PiconetError(format!("SCO voice flow {vf} has no source")));
                }
            }
        }
        Ok(())
    }

    /// Checks that the warm-up ends before `horizon`.
    ///
    /// # Errors
    ///
    /// Returns an error when it does not.
    pub(crate) fn check_horizon(&self, horizon: SimTime) -> Result<(), PiconetError> {
        if self.warmup >= horizon {
            return Err(PiconetError(format!(
                "warm-up {} must end before the horizon {horizon}",
                self.warmup
            )));
        }
        Ok(())
    }

    /// Assembles the per-flow [`RunReport`] of a finished run.
    pub(crate) fn into_report(mut self, window_end: SimTime, events_processed: u64) -> RunReport {
        let mut per_flow = BTreeMap::new();
        // `self` is consumed: move the reports out instead of cloning their
        // (potentially large) delay-sample buffers.
        for f in std::mem::take(&mut self.flows) {
            per_flow.insert(f.id, f.report);
        }
        let mut sco_flows = Vec::new();
        for s in &mut self.sco {
            if let Some(id) = s.binding.voice_flow {
                per_flow.insert(id, std::mem::take(&mut s.report));
                sco_flows.push((id, s.binding.slave));
            }
        }
        RunReport {
            window_start: self.warmup,
            window_end,
            flows: self.table.specs().to_vec(),
            sco_flows,
            per_flow,
            ledger: self.ledger,
            gs_polls: self.gs_polls,
            be_polls: self.be_polls,
            events_processed,
            poller: self.poller.expect("poller present").name().to_owned(),
        }
    }

    /// The voice flow ids of this world's SCO bindings, each with its
    /// binding's index.
    pub(crate) fn voice_flows(&self) -> impl Iterator<Item = (usize, btgs_traffic::FlowId)> + '_ {
        self.sco
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.binding.voice_flow?)))
    }

    /// Reserves the delay-sample buffers: [`SERIES_SAMPLES`] per flow, 4 KiB
    /// of 4-byte samples. The build leaves them empty so the scatternet
    /// can reserve every island's samples after all islands' hot state
    /// exists; the head-room keeps early in-window samples from growing a
    /// buffer mid-run (it doubles amortized beyond this).
    pub(crate) fn reserve_samples(&mut self) {
        for f in &mut self.flows {
            f.report.delay.reserve(SERIES_SAMPLES);
        }
        // Voice samples arrive every T_sco, hence the larger head-room.
        for s in &mut self.sco {
            s.report.delay.reserve(4096);
        }
    }

    /// Pre-sizes the relay machinery of a routed flow: the outbox and the
    /// flow's queue must absorb their steady-state depth without
    /// allocating.
    pub(crate) fn reserve_relay(&mut self, flow_idx: usize, queue_depth: usize) {
        self.outbox.reserve(32);
        self.flows[flow_idx].queue.reserve(queue_depth);
    }

    /// Dense index of the unique flow at `(slave, dir, channel)`, O(1) via
    /// the [`FlowTable`].
    fn flow_index(&self, slave: AmAddr, dir: Direction, channel: LogicalChannel) -> Option<usize> {
        self.table.at(slave, dir, channel).map(|idx| idx.get())
    }

    /// First SCO reservation strictly after `t`, or `None` without SCO.
    ///
    /// The result is cached: reservations form static periodic grids, so a
    /// result computed at `asked` stays the answer for every `t` up to (but
    /// excluding) that reservation. Wakes between two reservations — the
    /// common case — then cost two comparisons instead of a walk over every
    /// SCO link.
    fn next_sco_after(&mut self, t: SimTime) -> Option<SimTime> {
        if self.sco.is_empty() {
            return None;
        }
        if let Some((asked, res)) = self.sco_cache {
            if t >= asked && t < res {
                return Some(res);
            }
        }
        let res = self
            .sco
            .iter()
            .map(|s| {
                s.binding
                    .link
                    .next_reservation(t + SimDuration::from_nanos(1))
            })
            .min()
            .expect("sco is non-empty");
        self.sco_cache = Some((t, res));
        Some(res)
    }

    /// Whole slots available before the next SCO reservation.
    fn window_slots(&mut self, now: SimTime) -> u64 {
        match self.next_sco_after(now) {
            Some(res) => (res - now).div_duration(SLOT),
            None => u64::MAX,
        }
    }

    fn in_window(&self, t: SimTime) -> bool {
        t >= self.warmup
    }

    /// `true` if arrivals of `target` may be materialized eagerly: their
    /// packets are invisible to the master until it polls (uplink ACL data
    /// is announced only in the slave's response; SCO voice is consumed at
    /// reservation instants with `has_data_at` gating), so pre-queueing
    /// future packets is unobservable. Downlink arrivals notify the poller
    /// the instant they land and must keep one event per packet.
    fn batchable(&self, target: Target) -> bool {
        self.arrival_batch > 1
            && match target {
                Target::Flow(idx) => !self.flows[idx].downlink,
                Target::Sco(_) => true,
            }
    }

    /// The earliest strictly-future batched arrival instant, dropping
    /// instants at or before `now` (those packets are already visible to
    /// any decision made at `now`). `None` with batching off or no pending
    /// batched arrivals.
    fn next_batched_arrival(&mut self, now: SimTime) -> Option<SimTime> {
        if self.arrival_batch <= 1 {
            return None;
        }
        let mut next: Option<SimTime> = None;
        for q in &mut self.batched {
            while let Some(&front) = q.front() {
                if front > now {
                    next = Some(next.map_or(front, |n| n.min(front)));
                    break;
                }
                q.pop_front();
            }
        }
        next
    }
}

/// Makes sure the master wakes no later than the first slot-pair boundary
/// at or after `t`: re-arms the timer unless it is already armed at or
/// before that boundary.
fn ensure_wake<Q: PendingEvents<Ev>>(sched: &mut Scheduler<Ev, Q>, w: &mut World, t: SimTime) {
    let target = next_master_tx_start(t.max(sched.now()));
    if w.wake.is_some_and(|existing| existing <= target) {
        return;
    }
    sched.arm_timer(target, Ev::Wake);
    w.wake = Some(target);
}

/// Re-evaluates the master *now* — the instant an exchange or SCO
/// reservation ends, which is always on the slot grid.
///
/// Equivalent to `ensure_wake(sched, w, now)` followed by the queue
/// round-trip of the resulting same-instant `Ev::Wake`, but skips the
/// push/pop/dispatch when no other event is pending at this instant. When
/// one is (e.g. an arrival stamped exactly at the exchange boundary), the
/// wake is queued as before so the strict FIFO rule — same-time arrivals
/// become visible before the master decides — is preserved bit for bit.
fn wake_now<Q: PendingEvents<Ev>>(sched: &mut Scheduler<Ev, Q>, w: &mut World) {
    let now = sched.now();
    debug_assert_eq!(now, next_master_tx_start(now), "wake_now off the slot grid");
    if let Some(t) = w.wake {
        if t == now {
            return; // a Wake for this instant is already queued; FIFO runs it
        }
        sched.disarm_timer();
        w.wake = None;
    }
    match sched.next_event_time() {
        Some(t) if t <= now => {
            sched.arm_timer(now, Ev::Wake);
            w.wake = Some(now);
        }
        _ => on_wake(sched, w),
    }
}

pub(crate) fn handle<Q: PendingEvents<Ev>>(sched: &mut Scheduler<Ev, Q>, w: &mut World, ev: Ev) {
    match ev {
        Ev::Arrival { source_idx, pkt } => on_arrival(sched, w, source_idx, pkt),
        Ev::Wake => on_wake(sched, w),
        Ev::ExchangeDone => {
            let ex = w.pending_exchange.take().expect("an exchange is in flight");
            on_exchange_done(sched, w, &ex);
        }
        Ev::ScoDone { sco_idx, start } => on_sco_done(sched, w, sco_idx, start),
        Ev::Relay { flow_idx, pkt } => on_relay(sched, w, flow_idx, pkt),
    }
}

/// Books a higher-layer packet into its flow queue: offered-traffic
/// accounting, the queue push, and the poller's downlink notification —
/// shared verbatim by the arrival and relay paths so both stay bit-for-bit
/// identical in accounting order.
fn accept_flow_packet(w: &mut World, idx: usize, pkt: AppPacket, now: SimTime) {
    let in_window = w.in_window(now);
    let f = &mut w.flows[idx];
    if in_window {
        f.report.offered_packets += 1;
        f.report.offered_bytes += pkt.size as u64;
    }
    f.queue.push(pkt);
    if f.downlink {
        let flow_id = f.id;
        w.poller
            .as_mut()
            .expect("poller present")
            .on_downlink_arrival(flow_id, now);
    }
}

/// Books a higher-layer packet into its destination queue — ACL flow or
/// SCO voice — with its offered-traffic accounting at instant `at`. The
/// one enqueue path shared by arrivals (`at` = the event instant), relays
/// (same) and batched pre-materialization (`at` = the packet's future
/// arrival instant; the queues' availability gating keeps it invisible
/// until then).
fn ingress_packet(w: &mut World, target: Target, pkt: AppPacket, at: SimTime) {
    match target {
        Target::Flow(idx) => accept_flow_packet(w, idx, pkt, at),
        Target::Sco(idx) => {
            if w.in_window(at) {
                w.sco[idx].report.offered_packets += 1;
                w.sco[idx].report.offered_bytes += pkt.size as u64;
            }
            w.sco[idx].queue.push(pkt);
        }
    }
}

/// A free master may want to react to fresh data (e.g. serve a downlink
/// packet); a busy one re-evaluates at exchange end anyway. Tail shared by
/// the arrival and relay paths.
fn wake_if_free<Q: PendingEvents<Ev>>(sched: &mut Scheduler<Ev, Q>, w: &mut World, now: SimTime) {
    if now >= w.busy_until {
        ensure_wake(sched, w, now);
    }
}

/// Fetches and schedules the source's next packet(s). Arrivals past the
/// run horizon would never be popped; skipping them keeps infinite sources
/// (greedy, Poisson) from piling dead events into the queue.
///
/// With batching enabled and a batchable target, up to `arrival_batch - 1`
/// future packets are materialized into the queue right away (offered
/// accounting at their own arrival instants) before one real `Ev::Arrival`
/// is scheduled — one engine event then carries a whole batch.
fn arm_next_arrival<Q: PendingEvents<Ev>>(
    sched: &mut Scheduler<Ev, Q>,
    w: &mut World,
    source_idx: usize,
) {
    let now = sched.now();
    let target = w.sources[source_idx].target;
    if w.batchable(target) {
        // Every previous batch instant is at or before this event (the
        // scheduled arrival is drawn after the batch): drop them so the
        // deque never outgrows its `arrival_batch - 1` capacity.
        while w.batched[source_idx].front().is_some_and(|&f| f <= now) {
            w.batched[source_idx].pop_front();
        }
        debug_assert!(w.batched[source_idx].is_empty());
        for _ in 1..w.arrival_batch {
            let Some(next) = w.sources[source_idx].source.next_packet() else {
                return;
            };
            debug_assert!(next.arrival >= now, "sources must be time-ordered");
            if next.arrival > w.horizon {
                return;
            }
            w.batched[source_idx].push_back(next.arrival);
            ingress_packet(w, target, next, next.arrival);
        }
    }
    if let Some(next) = w.sources[source_idx].source.next_packet() {
        debug_assert!(next.arrival >= now, "sources must be time-ordered");
        if next.arrival <= w.horizon {
            sched.schedule_at(
                next.arrival,
                Ev::Arrival {
                    source_idx,
                    pkt: next,
                },
            );
        }
    }
}

fn on_arrival<Q: PendingEvents<Ev>>(
    sched: &mut Scheduler<Ev, Q>,
    w: &mut World,
    source_idx: usize,
    pkt: AppPacket,
) {
    let now = sched.now();
    debug_assert_eq!(pkt.arrival, now);
    debug_assert!(
        pkt.arrival <= w.horizon,
        "scheduled arrival {} exceeds the run horizon {}",
        pkt.arrival,
        w.horizon
    );
    let target = w.sources[source_idx].target;
    ingress_packet(w, target, pkt, now);
    // Re-arm before the wake check so a same-instant next arrival is
    // queued ahead of any same-instant Wake (the strict FIFO rule).
    arm_next_arrival(sched, w, source_idx);
    wake_if_free(sched, w, now);
}

/// A packet handed over from another piconet (scatternet bridge or master
/// relay): same bookkeeping as an arrival, but there is no source to
/// re-arm — the next relay is scheduled by the scatternet layer when its
/// packet completes the previous hop.
fn on_relay<Q: PendingEvents<Ev>>(
    sched: &mut Scheduler<Ev, Q>,
    w: &mut World,
    flow_idx: usize,
    pkt: AppPacket,
) {
    let now = sched.now();
    debug_assert_eq!(pkt.arrival, now, "relay handoff lands at its event time");
    ingress_packet(w, Target::Flow(flow_idx), pkt, now);
    wake_if_free(sched, w, now);
}

fn on_wake<Q: PendingEvents<Ev>>(sched: &mut Scheduler<Ev, Q>, w: &mut World) {
    let now = sched.now();
    if w.wake == Some(now) {
        // Either the timer fired (releasing it then is a no-op), or the
        // seed's untracked t = 0 Wake fired ahead of a timer armed for the
        // same instant by a t = 0 arrival. That timer's Wake must still
        // fire: it stays queued in its place as a plain event, and only
        // the timer is freed.
        sched.release_timer();
        w.wake = None;
    }
    if now < w.busy_until {
        ensure_wake(sched, w, w.busy_until);
        return;
    }
    debug_assert_eq!(now, next_master_tx_start(now), "wake off the slot grid");

    // SCO reservations pre-empt everything.
    for i in 0..w.sco.len() {
        if w.sco[i].binding.link.next_reservation(now) == now {
            start_sco(sched, w, i, now);
            return;
        }
    }

    let view = MasterView::with_presence(now, &w.table, &w.flows, &w.presence);
    let decision = w
        .poller
        .as_mut()
        .expect("poller present")
        .decide(now, &view);

    match decision {
        PollDecision::Poll { slave, channel } => start_exchange(sched, w, now, slave, channel),
        PollDecision::Idle { until } => {
            let mut t = until.max(now + SimDuration::from_nanos(1));
            if let Some(res) = w.next_sco_after(now) {
                t = t.min(res);
            }
            // A batched arrival would have woken a free master with its
            // own (elided) `Ev::Arrival`: clamp the idle period instead.
            if let Some(b) = w.next_batched_arrival(now) {
                t = t.min(b);
            }
            ensure_wake(sched, w, t);
        }
        PollDecision::Sleep => {
            let mut t = w.next_sco_after(now);
            // Same as Idle: batched arrivals must still rouse a sleeping
            // master exactly when their per-packet events would have.
            if let Some(b) = w.next_batched_arrival(now) {
                t = Some(t.map_or(b, |r| r.min(b)));
            }
            if let Some(t) = t {
                ensure_wake(sched, w, t);
            }
        }
    }
}

/// The next segment a flow would transmit through a `cap`-slot budget, using
/// its precomputed [`AllowedByCap`] table — no per-exchange filtering or
/// allocation.
fn plan_direction(f: &FlowState, now: SimTime, cap: u64) -> Option<SegmentPlan> {
    let usable = f.allowed.data_types(cap)?;
    f.queue.peek_segment(now, usable)
}

/// Marks the planned segment of flow `idx` as attempted and draws its
/// radio outcome: what the direction carries, as the poller will see it.
fn transmit(w: &mut World, idx: usize, seg: SegmentPlan) -> SegmentOutcome {
    let f = &mut w.flows[idx];
    let retransmission = f.queue.head_attempted();
    f.queue.note_attempt();
    SegmentOutcome::Data {
        flow: f.id,
        segment: seg,
        delivered: w.channel.deliver(seg.ty, seg.bytes as usize),
        retransmission,
    }
}

fn start_exchange<Q: PendingEvents<Ev>>(
    sched: &mut Scheduler<Ev, Q>,
    w: &mut World,
    now: SimTime,
    slave: AmAddr,
    channel: LogicalChannel,
) {
    let sco_window = w.window_slots(now);
    // A part-time (bridge) slave bounds the exchange again: it must finish
    // before the slave leaves for its other piconet. Always-present slaves
    // report an unbounded window, so the single-piconet path is unchanged.
    let presence_window = w.presence.remaining_slots(slave, now);
    let window = sco_window.min(presence_window);
    if window < 2 {
        // Cannot even fit POLL+NULL before the blocking boundary: wake at
        // the earliest instant a blocker clears (the SCO reservation runs,
        // or the bridge slave returns).
        let mut t = SimTime::MAX;
        if sco_window < 2 {
            t = t.min(w.next_sco_after(now).expect("window only bounded by SCO"));
        }
        if presence_window < 2 {
            t = t.min(w.presence.next_present(slave, now));
        }
        debug_assert!(t < SimTime::MAX, "window < 2 implies a blocker");
        // A batched arrival during the wait would have re-woken the free
        // master; keep that wake-up without its per-packet event.
        if let Some(b) = w.next_batched_arrival(now) {
            t = t.min(b);
        }
        ensure_wake(sched, w, t);
        return;
    }
    let cap = window / 2;

    let down_flow = w.flow_index(slave, Direction::MasterToSlave, channel);
    let up_flow = w.flow_index(slave, Direction::SlaveToMaster, channel);

    let down_plan =
        down_flow.and_then(|i| plan_direction(&w.flows[i], now, cap).map(|seg| (i, seg)));
    // The slave transmits only data that was available when the master
    // started transmitting (the paper's strict availability rule).
    let up_plan = up_flow.and_then(|i| plan_direction(&w.flows[i], now, cap).map(|seg| (i, seg)));

    // Radio outcomes are drawn now, in a fixed order, for determinism. If
    // the downlink packet is lost, the slave never hears its address and
    // stays silent for one slot.
    let (down, down_idx, down_ok) = match down_plan {
        Some((i, seg)) => {
            let down = transmit(w, i, seg);
            (down, i, down.is_delivered_data())
        }
        None => {
            let delivered = w.channel.deliver(PacketType::Poll, 0);
            let ty = PacketType::Poll;
            (SegmentOutcome::Control { ty }, 0, delivered)
        }
    };

    let (up, up_idx) = if !down_ok {
        (SegmentOutcome::Silent, 0)
    } else {
        match up_plan {
            Some((i, seg)) => (transmit(w, i, seg), i),
            None => {
                let _ = w.channel.deliver(PacketType::Null, 0);
                (
                    SegmentOutcome::Control {
                        ty: PacketType::Null,
                    },
                    0,
                )
            }
        }
    };

    let duration = (down.slots() + up.slots()) * SLOT;
    debug_assert_eq!((now + duration).align_down(SLOT_PAIR), now + duration);
    w.busy_until = now + duration;
    debug_assert!(w.pending_exchange.is_none(), "one exchange at a time");
    w.pending_exchange = Some(PendingExchange {
        report: ExchangeReport {
            start: now,
            end: w.busy_until,
            slave,
            channel,
            down,
            up,
        },
        down_idx,
        up_idx,
    });
    sched.schedule_at(w.busy_until, Ev::ExchangeDone);
}

fn on_exchange_done<Q: PendingEvents<Ev>>(
    sched: &mut Scheduler<Ev, Q>,
    w: &mut World,
    ex: &PendingExchange,
) {
    let now = sched.now();
    let report = &ex.report;
    debug_assert_eq!(report.end, now, "the exchange ends when planned");
    let in_window = w.in_window(report.start);

    // Downlink delivery lands when the downlink packet ends.
    let down_end = report.start + report.down.slots() * SLOT;
    apply_delivery(w, &report.down, ex.down_idx, down_end, in_window);
    apply_delivery(w, &report.up, ex.up_idx, now, in_window);

    if in_window {
        for tx in [&report.down, &report.up] {
            match *tx {
                SegmentOutcome::Data {
                    segment,
                    retransmission,
                    ..
                } => w
                    .ledger
                    .add_data(report.channel, segment.ty.slots(), retransmission),
                SegmentOutcome::Control { ty } => w.ledger.add_overhead(report.channel, ty.slots()),
                SegmentOutcome::Silent => w.ledger.add_overhead(report.channel, 1),
            }
        }
        match report.channel {
            LogicalChannel::GuaranteedService => w.gs_polls.record(report.successful()),
            LogicalChannel::BestEffort => w.be_polls.record(report.successful()),
        }
    }

    w.poller
        .as_mut()
        .expect("poller present")
        .on_exchange(report);

    wake_now(sched, w);
}

/// Books one direction's delivered data segment on flow `idx`: the queue
/// advances past it, the window counters and delay samples record it, and
/// a packet it completes on a routed flow is captured for relaying.
fn apply_delivery(w: &mut World, tx: &SegmentOutcome, idx: usize, at: SimTime, in_window: bool) {
    let SegmentOutcome::Data {
        segment,
        delivered: true,
        ..
    } = *tx
    else {
        return; // nothing sent, or ARQ: the segment stays at the head
    };
    let warmup = w.warmup;
    let f = &mut w.flows[idx];
    let completed = f.queue.advance(segment.bytes);
    if in_window {
        f.report.delivered_bytes += segment.bytes as u64;
        if let Some(pkt) = completed {
            f.report.delivered_packets += 1;
            if pkt.arrival >= warmup {
                f.report.delay.record(at - pkt.arrival);
            }
        }
    }
    // Relay capture runs regardless of the measurement window: a scatternet
    // must forward warm-up packets too, it just does not record them.
    if let Some(pkt) = completed {
        if f.route.is_some() {
            w.outbox.push(Captured {
                flow_idx: idx,
                pkt,
                at,
            });
        }
    }
}

fn start_sco<Q: PendingEvents<Ev>>(
    sched: &mut Scheduler<Ev, Q>,
    w: &mut World,
    sco_idx: usize,
    now: SimTime,
) {
    w.busy_until = now + SLOT_PAIR;
    sched.schedule_at(
        w.busy_until,
        Ev::ScoDone {
            sco_idx,
            start: now,
        },
    );
}

fn on_sco_done<Q: PendingEvents<Ev>>(
    sched: &mut Scheduler<Ev, Q>,
    w: &mut World,
    sco_idx: usize,
    start: SimTime,
) {
    let now = sched.now();
    let in_window = w.in_window(start);
    if in_window {
        w.ledger.sco += 2;
    }
    let ty = w.sco[sco_idx].binding.link.packet();
    let capacity = ty.payload_capacity() as u32;
    // Move up to one HV payload of voice data; SCO has no retransmission,
    // lost payloads are simply gone.
    if w.sco[sco_idx].queue.has_data_at(start) {
        let bytes = w.sco[sco_idx]
            .queue
            .head_remaining()
            .expect("has data")
            .min(capacity);
        let delivered = w.channel.deliver(ty, bytes as usize);
        let warmup = w.warmup;
        let sco = &mut w.sco[sco_idx];
        let completed = sco.queue.advance(bytes);
        if in_window {
            if delivered {
                sco.report.delivered_bytes += bytes as u64;
            } else {
                sco.report.lost_bytes += bytes as u64;
            }
            if let Some(pkt) = completed {
                if delivered {
                    sco.report.delivered_packets += 1;
                    if pkt.arrival >= warmup {
                        sco.report.delay.record(now - pkt.arrival);
                    }
                }
            }
        }
    } else {
        // The reservation burns its slots regardless.
        let _ = w.channel.deliver(ty, 0);
    }
    wake_now(sched, w);
}

/// A configured piconet simulation, ready to run.
///
/// A thin wrapper over a one-island [`ScatternetSim`]: the same engine,
/// event queue and hook seam as any scatternet, with a single
/// [`RunReport`] as its result.
///
/// # Examples
///
/// ```
/// use btgs_piconet::{FlowSpec, PiconetConfig, PiconetSim, RoundRobinForTest};
/// use btgs_baseband::{AmAddr, Direction, IdealChannel, LogicalChannel, PacketType};
/// use btgs_des::{DetRng, SimDuration, SimTime};
/// use btgs_traffic::{CbrSource, FlowId};
///
/// let config = PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
///     .with_flow(FlowSpec::new(
///         FlowId(1),
///         AmAddr::new(1).unwrap(),
///         Direction::SlaveToMaster,
///         LogicalChannel::BestEffort,
///     ));
/// let mut sim = PiconetSim::new(
///     config,
///     Box::new(RoundRobinForTest::default()),
///     Box::new(IdealChannel),
/// ).unwrap();
/// sim.add_source(Box::new(CbrSource::new(
///     FlowId(1),
///     SimDuration::from_millis(20),
///     160,
///     160,
///     DetRng::seed_from_u64(1),
/// ))).unwrap();
/// let report = sim.run(SimTime::from_secs(2)).unwrap();
/// assert!(report.throughput_kbps(FlowId(1)) > 60.0);
/// ```
pub struct PiconetSim(ScatternetSim);

/// Seeds one world's initial arrivals and wake-up. Same-time events fire in
/// scheduling order, so packets arriving at t = 0 are already queued when
/// the master makes its first decision. The island engine seeds every
/// island through this at run start.
pub(crate) fn seed_world<Q: PendingEvents<Ev>>(sched: &mut Scheduler<Ev, Q>, w: &mut World) {
    for source_idx in 0..w.sources.len() {
        if let Some(pkt) = w.sources[source_idx].source.next_packet() {
            if pkt.arrival <= w.horizon {
                sched.schedule_at(pkt.arrival, Ev::Arrival { source_idx, pkt });
            }
        }
    }
    // The initial Wake is a plain event, not the timer: an arrival at
    // t = 0 arms the timer for t = 0 behind it (see `on_wake`).
    sched.schedule_at(SimTime::ZERO, Ev::Wake);
    w.wake = None;
}

impl PiconetSim {
    /// Builds a simulation from a validated configuration, a poller and a
    /// channel model: a one-island [`ScatternetSim`] with no bridges and
    /// no chains.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(
        config: PiconetConfig,
        poller: Box<dyn Poller>,
        channel: Box<dyn ChannelModel>,
    ) -> Result<PiconetSim, PiconetError> {
        let config = ScatternetConfig {
            piconets: vec![config],
            bridges: Vec::new(),
            chains: Vec::new(),
        };
        ScatternetSim::new(config, vec![poller], vec![channel]).map(PiconetSim)
    }

    /// Registers the traffic source of one flow (ACL or SCO voice).
    ///
    /// # Errors
    ///
    /// Returns an error if the flow id is unknown or already has a source.
    pub fn add_source(&mut self, source: Box<dyn Source>) -> Result<(), PiconetError> {
        self.0.add_source(source)
    }

    /// Runs the simulation until `horizon` and returns the report.
    ///
    /// # Errors
    ///
    /// Returns an error if any configured flow lacks a source or the
    /// warm-up reaches the horizon.
    pub fn run(self, horizon: SimTime) -> Result<RunReport, PiconetError> {
        self.run_probed(horizon, horizon, &mut || {})
    }

    /// Runs to `horizon`, invoking `probe` at the first phase boundary at
    /// or after `checkpoint` and once more when the run loop finishes
    /// (before report assembly). A lone piconet has no bridge windows, so
    /// its only boundaries are the checkpoint and the horizon: the first
    /// call comes exactly at `checkpoint`. A checkpoint past the horizon
    /// is never reached and fires only the loop-end call; it never extends
    /// the run.
    ///
    /// The allocation-counting benches use this to bracket the steady-state
    /// window: the first call snapshots the allocator counters after warm-up
    /// growth has settled, the second reads them before the report's own
    /// allocations happen.
    ///
    /// # Errors
    ///
    /// Returns an error if any configured flow lacks a source or the
    /// warm-up reaches the horizon.
    pub fn run_probed(
        self,
        checkpoint: SimTime,
        horizon: SimTime,
        probe: &mut dyn FnMut(),
    ) -> Result<RunReport, PiconetError> {
        // `self` is consumed, so a sim cannot run twice by construction.
        let mut report = self.0.run_probed(checkpoint, horizon, probe)?;
        Ok(report.piconets.pop().expect("one island, one report"))
    }
}

/// A deliberately simple 1-poll-per-slave round-robin poller, used by this
/// crate's tests and doc examples. Real pollers live in `btgs-pollers` and
/// `btgs-core`.
#[derive(Debug, Default)]
pub struct RoundRobinForTest {
    cursor: usize,
}

impl Poller for RoundRobinForTest {
    fn decide(&mut self, _now: SimTime, view: &MasterView<'_>) -> PollDecision {
        let slaves = view.slaves();
        if slaves.is_empty() {
            return PollDecision::Sleep;
        }
        let slave = slaves[self.cursor % slaves.len()];
        self.cursor += 1;
        PollDecision::Poll {
            slave,
            channel: LogicalChannel::BestEffort,
        }
    }

    fn on_exchange(&mut self, _report: &ExchangeReport) {}

    fn name(&self) -> &'static str {
        "round-robin-test"
    }
}
