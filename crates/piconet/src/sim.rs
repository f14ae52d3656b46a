//! The piconet simulator: a slot-accurate model of master-driven TDD
//! polling.
//!
//! The master consults its [`Poller`] whenever the channel is free at an
//! even slot boundary. A poll becomes an *exchange*: a downlink baseband
//! packet (data segment or POLL) followed by the addressed slave's response
//! (data segment or NULL), after which the channel is free again. SCO
//! reservations pre-empt polling; ACL exchanges are sized to fit between
//! them.

use crate::config::{
    AllowedByCap, PiconetConfig, PiconetError, PresenceMask, SarPolicy, ScoBinding,
};
use crate::flow_table::FlowTable;
use crate::ledger::{PollCounters, SlotLedger};
use crate::poller::{ExchangeReport, MasterView, PollDecision, Poller, SegmentOutcome};
use crate::queue::{FlowQueue, SegmentPlan};
use crate::report::{FlowReport, RunReport};
use btgs_baseband::{
    next_master_tx_start, AmAddr, ChannelModel, Direction, LogicalChannel, PacketType, SLOT,
    SLOT_PAIR,
};
use btgs_des::{
    EventKey, EventQueue, HeapEventQueue, PendingEvents, Scheduler, SimDuration, SimTime, Simulator,
};
use btgs_traffic::{AppPacket, Source};
use std::collections::{BTreeMap, VecDeque};

/// Destination of a source's packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    /// Index into the ACL flow tables.
    Flow(usize),
    /// Index into the SCO bindings.
    Sco(usize),
}

/// The event-scheduling surface the piconet handlers need.
///
/// Handlers used to take `&mut Scheduler<Ev, Q>` directly; the scatternet
/// layer drives the *same* handlers from a shared scheduler whose event
/// type wraps [`Ev`] with a piconet id. This trait is the seam: a plain
/// scheduler implements it 1:1 (the single-piconet path compiles to exactly
/// the old code), while the scatternet adapter tags every scheduled event
/// with its piconet before it reaches the shared queue.
pub(crate) trait EvSink {
    /// The current simulated time.
    fn now(&self) -> SimTime;
    /// Schedules `ev` at the absolute instant `at`.
    fn schedule_at(&mut self, at: SimTime, ev: Ev) -> EventKey;
    /// Cancels a pending event scheduled through this sink.
    fn cancel(&mut self, key: EventKey);
    /// The firing time of the next pending event — *any* event, including
    /// other piconets' in a scatternet (the same-instant-wake inlining in
    /// [`wake_now`] only needs a conservative answer).
    fn next_event_time(&mut self) -> Option<SimTime>;
}

impl<Q: PendingEvents<Ev>> EvSink for Scheduler<Ev, Q> {
    #[inline]
    fn now(&self) -> SimTime {
        Scheduler::now(self)
    }

    #[inline]
    fn schedule_at(&mut self, at: SimTime, ev: Ev) -> EventKey {
        Scheduler::schedule_at(self, at, ev)
    }

    #[inline]
    fn cancel(&mut self, key: EventKey) {
        let _ = Scheduler::cancel(self, key);
    }

    #[inline]
    fn next_event_time(&mut self) -> Option<SimTime> {
        Scheduler::next_event_time(self)
    }
}

/// One planned transmission direction of an exchange.
#[derive(Clone, Copy, Debug)]
enum PlannedTx {
    Data {
        flow_idx: usize,
        seg: SegmentPlan,
        delivered: bool,
        retransmission: bool,
    },
    Control {
        ty: PacketType,
    },
    Silent,
}

impl PlannedTx {
    fn slots(&self) -> u64 {
        match self {
            PlannedTx::Data { seg, .. } => seg.ty.slots(),
            PlannedTx::Control { ty } => ty.slots(),
            PlannedTx::Silent => 1,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct PendingExchange {
    start: SimTime,
    slave: AmAddr,
    channel: LogicalChannel,
    down: PlannedTx,
    up: PlannedTx,
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

impl btgs_des::Tagged for Ev {
    const TAG_NAMES: &'static [&'static str] =
        &["arrival", "wake", "exchange_done", "sco_done", "relay"];

    fn tag(&self) -> u8 {
        match self {
            Ev::Arrival { .. } => 0,
            Ev::Wake => 1,
            Ev::ExchangeDone => 2,
            Ev::ScoDone { .. } => 3,
            Ev::Relay { .. } => 4,
        }
    }
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
    /// Per-flow allowed packet types, pre-filtered by slot cap so the hot
    /// path never builds a fresh `Vec` per exchange.
    allowed: Vec<AllowedByCap>,
    sar: SarPolicy,
    down_queues: Vec<Option<FlowQueue>>,
    up_queues: Vec<Option<FlowQueue>>,
    reports: Vec<FlowReport>,
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
    wake: Option<(SimTime, EventKey)>,
    warmup: SimTime,
    /// Per-slave presence windows (bridge slaves in a scatternet); the
    /// default mask reports every slave always present and costs nothing.
    pub(crate) presence: PresenceMask,
    /// Latest admissible arrival instant: arrivals past the run horizon are
    /// never scheduled, so infinite sources cannot outrun the run loop.
    pub(crate) horizon: SimTime,
    /// `capture[idx]`: completed deliveries of flow `idx` are pushed to the
    /// [`World::outbox`] for scatternet routing. All-false outside a
    /// scatternet.
    pub(crate) capture: Vec<bool>,
    /// Packets captured by the current event, drained by the scatternet
    /// loop after each handler returns. Pre-reserved; empty in steady state.
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
    /// poller and a channel model. Shared by [`PiconetSim`] and the
    /// scatternet simulator (which builds one world per piconet).
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub(crate) fn build(
        config: &PiconetConfig,
        poller: Box<dyn Poller>,
        channel: Box<dyn ChannelModel>,
    ) -> Result<World, PiconetError> {
        config.validate()?;
        // `config.validate()` above already ran `validate_flows`.
        let table = FlowTable::from_validated(config.flows.clone());
        let allowed: Vec<AllowedByCap> = table
            .specs()
            .iter()
            .map(|f| config.allowed_by_cap_for(f))
            .collect();
        let down_queues = table
            .specs()
            .iter()
            .map(|f| f.direction.is_downlink().then(FlowQueue::new))
            .collect();
        let up_queues = table
            .specs()
            .iter()
            .map(|f| f.direction.is_uplink().then(FlowQueue::new))
            .collect();
        let reports = table
            .specs()
            .iter()
            .map(|_| {
                let mut r = FlowReport::default();
                // Head-room so early in-window samples never grow the
                // buffer mid-run (it doubles amortized beyond this).
                r.delay.reserve(1024);
                r
            })
            .collect();
        let sco = config
            .sco
            .iter()
            .map(|b| ScoRt {
                binding: b.clone(),
                queue: FlowQueue::new(),
                report: {
                    let mut r = FlowReport::default();
                    // Voice samples arrive every T_sco; same head-room as
                    // the ACL reports so recording stays allocation-free.
                    r.delay.reserve(4096);
                    r
                },
            })
            .collect();
        let capture = vec![false; table.len()];
        Ok(World {
            table,
            allowed,
            sar: config.sar,
            down_queues,
            up_queues,
            reports,
            sources: Vec::new(),
            poller: Some(poller),
            channel,
            sco,
            sco_cache: None,
            pending_exchange: None,
            busy_until: SimTime::ZERO,
            wake: None,
            warmup: SimTime::ZERO + config.warmup,
            presence: config.presence.clone(),
            horizon: SimTime::MAX,
            capture,
            outbox: Vec::new(),
            ledger: SlotLedger::default(),
            gs_polls: PollCounters::default(),
            be_polls: PollCounters::default(),
            arrival_batch: config.arrival_batch,
            batched: Vec::new(),
        })
    }

    /// Registers the traffic source of one flow (ACL or SCO voice).
    ///
    /// # Errors
    ///
    /// Returns an error if the flow id is unknown or already has a source.
    pub(crate) fn add_source(&mut self, source: Box<dyn Source>) -> Result<(), PiconetError> {
        let id = source.flow();
        let target = if let Some(idx) = self.table.idx_of(id) {
            Target::Flow(idx.get())
        } else if let Some(idx) = self
            .sco
            .iter()
            .position(|s| s.binding.voice_flow == Some(id))
        {
            Target::Sco(idx)
        } else {
            return Err(PiconetError(format!("no flow {id} configured")));
        };
        if self.sources.iter().any(|s| s.target == target) {
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

    /// Checks that every flow has a source. `relay_fed(idx)` exempts flows
    /// the scatternet feeds by relaying (they have no source of their own).
    ///
    /// # Errors
    ///
    /// Returns an error naming the first flow without a source.
    pub(crate) fn check_sources(
        &self,
        relay_fed: &dyn Fn(usize) -> bool,
    ) -> Result<(), PiconetError> {
        for (idx, f) in self.table.specs().iter().enumerate() {
            if relay_fed(idx) {
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
        let reports = std::mem::take(&mut self.reports);
        for (f, report) in self.table.specs().iter().zip(reports) {
            per_flow.insert(f.id, report);
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

    /// `true` if one of this world's SCO bindings carries voice flow `id`.
    pub(crate) fn has_sco_voice(&self, id: btgs_traffic::FlowId) -> bool {
        self.sco.iter().any(|s| s.binding.voice_flow == Some(id))
    }

    /// Pre-sizes the relay machinery of a scatternet piconet: `capture`
    /// flags are set by the scatternet, the outbox and the relay-fed
    /// queues must absorb their steady-state depth without allocating.
    pub(crate) fn reserve_relay(&mut self, flow_idx: usize, queue_depth: usize) {
        self.outbox.reserve(32);
        if let Some(q) = self.down_queues[flow_idx].as_mut() {
            q.reserve(queue_depth);
        }
        if let Some(q) = self.up_queues[flow_idx].as_mut() {
            q.reserve(queue_depth);
        }
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
                Target::Flow(idx) => self.up_queues[idx].is_some(),
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

fn ensure_wake<S: EvSink>(sched: &mut S, w: &mut World, t: SimTime) {
    let target = next_master_tx_start(t.max(sched.now()));
    if let Some((existing, key)) = w.wake {
        if existing <= target {
            return;
        }
        sched.cancel(key);
    }
    let key = sched.schedule_at(target, Ev::Wake);
    w.wake = Some((target, key));
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
fn wake_now<S: EvSink>(sched: &mut S, w: &mut World) {
    let now = sched.now();
    debug_assert_eq!(now, next_master_tx_start(now), "wake_now off the slot grid");
    if let Some((t, key)) = w.wake {
        if t == now {
            return; // a Wake for this instant is already queued; FIFO runs it
        }
        sched.cancel(key);
        w.wake = None;
    }
    match sched.next_event_time() {
        Some(t) if t <= now => {
            let key = sched.schedule_at(now, Ev::Wake);
            w.wake = Some((now, key));
        }
        _ => on_wake(sched, w),
    }
}

pub(crate) fn handle<S: EvSink>(sched: &mut S, w: &mut World, ev: Ev) {
    match ev {
        Ev::Arrival { source_idx, pkt } => on_arrival(sched, w, source_idx, pkt),
        Ev::Wake => on_wake(sched, w),
        Ev::ExchangeDone => {
            let ex = w.pending_exchange.take().expect("an exchange is in flight");
            on_exchange_done(sched, w, ex);
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
    if w.in_window(now) {
        w.reports[idx].offered_packets += 1;
        w.reports[idx].offered_bytes += pkt.size as u64;
    }
    // A populated downlink queue slot *is* the direction marker —
    // no need to consult the flow spec on this per-packet path.
    if let Some(q) = w.down_queues[idx].as_mut() {
        q.push(pkt);
        let flow_id = w.table.specs()[idx].id;
        w.poller
            .as_mut()
            .expect("poller present")
            .on_downlink_arrival(flow_id, now);
    } else {
        w.up_queues[idx]
            .as_mut()
            .expect("uplink queue exists")
            .push(pkt);
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
fn wake_if_free<S: EvSink>(sched: &mut S, w: &mut World, now: SimTime) {
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
fn arm_next_arrival<S: EvSink>(sched: &mut S, w: &mut World, source_idx: usize) {
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

fn on_arrival<S: EvSink>(sched: &mut S, w: &mut World, source_idx: usize, pkt: AppPacket) {
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
fn on_relay<S: EvSink>(sched: &mut S, w: &mut World, flow_idx: usize, pkt: AppPacket) {
    let now = sched.now();
    debug_assert_eq!(pkt.arrival, now, "relay handoff lands at its event time");
    ingress_packet(w, Target::Flow(flow_idx), pkt, now);
    wake_if_free(sched, w, now);
}

fn on_wake<S: EvSink>(sched: &mut S, w: &mut World) {
    let now = sched.now();
    if let Some((t, _)) = w.wake {
        if t == now {
            w.wake = None;
        }
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

    let view = MasterView::with_presence(now, &w.table, &w.down_queues, &w.presence);
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
fn plan_direction(
    queue: Option<&FlowQueue>,
    allowed: &AllowedByCap,
    now: SimTime,
    sar: SarPolicy,
    cap: u64,
) -> Option<SegmentPlan> {
    let usable = allowed.data_types(cap)?;
    queue?.peek_segment(now, &sar, usable)
}

fn start_exchange<S: EvSink>(
    sched: &mut S,
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

    let down_idx = w.flow_index(slave, Direction::MasterToSlave, channel);
    let up_idx = w.flow_index(slave, Direction::SlaveToMaster, channel);

    let down_plan = down_idx.and_then(|i| {
        plan_direction(w.down_queues[i].as_ref(), &w.allowed[i], now, w.sar, cap)
            .map(|seg| (i, seg))
    });
    // The slave transmits only data that was available when the master
    // started transmitting (the paper's strict availability rule).
    let up_plan = up_idx.and_then(|i| {
        plan_direction(w.up_queues[i].as_ref(), &w.allowed[i], now, w.sar, cap).map(|seg| (i, seg))
    });

    // Radio outcomes are drawn now, in a fixed order, for determinism. If
    // the downlink packet is lost, the slave never hears its address and
    // stays silent for one slot.
    let (down, down_ok) = match down_plan {
        Some((flow_idx, seg)) => {
            let q = w.down_queues[flow_idx].as_mut().expect("downlink queue");
            let retransmission = q.head_attempted();
            q.note_attempt();
            let delivered = w.channel.deliver(seg.ty, seg.bytes as usize);
            (
                PlannedTx::Data {
                    flow_idx,
                    seg,
                    delivered,
                    retransmission,
                },
                delivered,
            )
        }
        None => {
            let delivered = w.channel.deliver(PacketType::Poll, 0);
            (
                PlannedTx::Control {
                    ty: PacketType::Poll,
                },
                delivered,
            )
        }
    };

    let up = if !down_ok {
        PlannedTx::Silent
    } else {
        match up_plan {
            Some((flow_idx, seg)) => {
                let q = w.up_queues[flow_idx].as_mut().expect("uplink queue");
                let retransmission = q.head_attempted();
                q.note_attempt();
                let delivered = w.channel.deliver(seg.ty, seg.bytes as usize);
                PlannedTx::Data {
                    flow_idx,
                    seg,
                    delivered,
                    retransmission,
                }
            }
            None => {
                let _ = w.channel.deliver(PacketType::Null, 0);
                PlannedTx::Control {
                    ty: PacketType::Null,
                }
            }
        }
    };

    let duration = (down.slots() + up.slots()) * SLOT;
    debug_assert_eq!((now + duration).align_down(SLOT_PAIR), now + duration);
    w.busy_until = now + duration;
    debug_assert!(w.pending_exchange.is_none(), "one exchange at a time");
    w.pending_exchange = Some(PendingExchange {
        start: now,
        slave,
        channel,
        down,
        up,
    });
    sched.schedule_at(w.busy_until, Ev::ExchangeDone);
}

fn on_exchange_done<S: EvSink>(sched: &mut S, w: &mut World, ex: PendingExchange) {
    let now = sched.now();
    let in_window = w.in_window(ex.start);

    // Downlink delivery lands when the downlink packet ends.
    let down_end = ex.start + ex.down.slots() * SLOT;
    apply_delivery(w, ex.down, down_end, in_window, Direction::MasterToSlave);
    apply_delivery(w, ex.up, now, in_window, Direction::SlaveToMaster);

    if in_window {
        for (tx, _dir) in [
            (ex.down, Direction::MasterToSlave),
            (ex.up, Direction::SlaveToMaster),
        ] {
            match tx {
                PlannedTx::Data {
                    seg,
                    retransmission,
                    ..
                } => w
                    .ledger
                    .add_data(ex.channel, seg.ty.slots(), retransmission),
                PlannedTx::Control { ty } => w.ledger.add_overhead(ex.channel, ty.slots()),
                PlannedTx::Silent => w.ledger.add_overhead(ex.channel, 1),
            }
        }
        let successful =
            matches!(ex.down, PlannedTx::Data { .. }) || matches!(ex.up, PlannedTx::Data { .. });
        match ex.channel {
            LogicalChannel::GuaranteedService => w.gs_polls.record(successful),
            LogicalChannel::BestEffort => w.be_polls.record(successful),
        }
    }

    let report = ExchangeReport {
        start: ex.start,
        end: now,
        slave: ex.slave,
        channel: ex.channel,
        down: to_outcome(w, ex.down),
        up: to_outcome(w, ex.up),
    };
    w.poller
        .as_mut()
        .expect("poller present")
        .on_exchange(&report);

    wake_now(sched, w);
}

fn to_outcome(w: &World, tx: PlannedTx) -> SegmentOutcome {
    match tx {
        PlannedTx::Data {
            flow_idx,
            seg,
            delivered,
            retransmission,
        } => SegmentOutcome::Data {
            flow: w.table.specs()[flow_idx].id,
            segment: seg,
            delivered,
            retransmission,
        },
        PlannedTx::Control { ty } => SegmentOutcome::Control { ty },
        PlannedTx::Silent => SegmentOutcome::Silent,
    }
}

fn apply_delivery(w: &mut World, tx: PlannedTx, at: SimTime, in_window: bool, dir: Direction) {
    let PlannedTx::Data {
        flow_idx,
        seg,
        delivered,
        ..
    } = tx
    else {
        return;
    };
    if !delivered {
        return; // ARQ: the segment stays at the head of its queue.
    }
    let queue = match dir {
        Direction::MasterToSlave => w.down_queues[flow_idx].as_mut(),
        Direction::SlaveToMaster => w.up_queues[flow_idx].as_mut(),
    }
    .expect("queue exists for delivering flow");
    let completed = queue.advance(seg.bytes);
    if in_window {
        let report = &mut w.reports[flow_idx];
        report.delivered_bytes += seg.bytes as u64;
        if let Some(pkt) = completed {
            report.delivered_packets += 1;
            if pkt.arrival >= w.warmup {
                report.delay.record(at - pkt.arrival);
            }
        }
    }
    // Relay capture runs regardless of the measurement window: a scatternet
    // must forward warm-up packets too, it just does not record them.
    if let Some(pkt) = completed {
        if w.capture[flow_idx] {
            w.outbox.push(Captured { flow_idx, pkt, at });
        }
    }
}

fn start_sco<S: EvSink>(sched: &mut S, w: &mut World, sco_idx: usize, now: SimTime) {
    w.busy_until = now + SLOT_PAIR;
    sched.schedule_at(
        w.busy_until,
        Ev::ScoDone {
            sco_idx,
            start: now,
        },
    );
}

fn on_sco_done<S: EvSink>(sched: &mut S, w: &mut World, sco_idx: usize, start: SimTime) {
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
pub struct PiconetSim {
    sim: Engine,
}

/// Selects the pending-event structure backing a [`PiconetSim`] run.
///
/// Production runs use the sorted buffer; the heap exists so differential
/// tests can demand byte-identical [`RunReport`]s from both backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EventQueueBackend {
    /// The sorted buffer ([`btgs_des::EventQueue`]).
    #[default]
    Sorted,
    /// The `BinaryHeap` reference ([`btgs_des::HeapEventQueue`]).
    BinaryHeap,
}

/// The simulator monomorphised per queue backend: the run loop is matched
/// once, so backend selection costs nothing per event.
enum Engine {
    Sorted(Simulator<World, Ev, EventQueue<Ev>>),
    Heap(Simulator<World, Ev, HeapEventQueue<Ev>>),
}

impl Engine {
    fn world_mut(&mut self) -> &mut World {
        match self {
            Engine::Sorted(s) => s.state_mut(),
            Engine::Heap(s) => s.state_mut(),
        }
    }
}

/// Seeds one world's initial arrivals and wake-up. Same-time events fire in
/// scheduling order, so packets arriving at t = 0 are already queued when
/// the master makes its first decision. Shared by the single-piconet run
/// loop and the scatternet (which seeds every piconet through its tagging
/// [`EvSink`]).
pub(crate) fn seed_world<S: EvSink>(sched: &mut S, w: &mut World) {
    for source_idx in 0..w.sources.len() {
        if let Some(pkt) = w.sources[source_idx].source.next_packet() {
            if pkt.arrival <= w.horizon {
                sched.schedule_at(pkt.arrival, Ev::Arrival { source_idx, pkt });
            }
        }
    }
    sched.schedule_at(SimTime::ZERO, Ev::Wake);
    // The initial Wake is tracked manually (ensure_wake was not used).
    w.wake = None;
}

/// Seeds the initial arrivals and wake-up, then drives the run loop to
/// `horizon`, invoking `probe` at `checkpoint` and again when the loop
/// finishes.
fn drive<Q: PendingEvents<Ev>>(
    sim: &mut Simulator<World, Ev, Q>,
    checkpoint: SimTime,
    horizon: SimTime,
    probe: &mut dyn FnMut(),
) {
    let (sched, w) = sim.split_mut();
    w.horizon = horizon;
    seed_world(sched, w);

    sim.run_until(checkpoint, handle);
    probe();
    sim.run_until(horizon, handle);
    probe();
}

impl PiconetSim {
    /// Builds a simulation from a validated configuration, a poller and a
    /// channel model, backed by the default sorted-buffer event queue.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(
        config: PiconetConfig,
        poller: Box<dyn Poller>,
        channel: Box<dyn ChannelModel>,
    ) -> Result<PiconetSim, PiconetError> {
        PiconetSim::with_backend(config, poller, channel, EventQueueBackend::Sorted)
    }

    /// Builds a simulation on an explicit event-queue backend (differential
    /// testing of the sorted buffer against the heap reference).
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn with_backend(
        config: PiconetConfig,
        poller: Box<dyn Poller>,
        channel: Box<dyn ChannelModel>,
        backend: EventQueueBackend,
    ) -> Result<PiconetSim, PiconetError> {
        let world = World::build(&config, poller, channel)?;
        let sim = match backend {
            EventQueueBackend::Sorted => {
                Engine::Sorted(Simulator::with_queue(world, EventQueue::new()))
            }
            EventQueueBackend::BinaryHeap => {
                Engine::Heap(Simulator::with_queue(world, HeapEventQueue::new()))
            }
        };
        Ok(PiconetSim { sim })
    }

    /// Registers the traffic source of one flow (ACL or SCO voice).
    ///
    /// # Errors
    ///
    /// Returns an error if the flow id is unknown or already has a source.
    pub fn add_source(&mut self, source: Box<dyn Source>) -> Result<(), PiconetError> {
        self.sim.world_mut().add_source(source)
    }

    /// Runs the simulation until `horizon` and returns the report.
    ///
    /// # Errors
    ///
    /// Returns an error if any configured flow lacks a source or the
    /// simulation was already run.
    pub fn run(self, horizon: SimTime) -> Result<RunReport, PiconetError> {
        self.run_probed(horizon, horizon, &mut || {})
    }

    /// Runs to `horizon`, invoking `probe` when the clock reaches
    /// `checkpoint` and once more when the run loop finishes (before report
    /// assembly).
    ///
    /// The allocation-counting benches use this to bracket the steady-state
    /// window: the first call snapshots the allocator counters after warm-up
    /// growth has settled, the second reads them before the report's own
    /// allocations happen.
    ///
    /// # Errors
    ///
    /// Returns an error if any configured flow lacks a source or the
    /// simulation was already run.
    pub fn run_probed(
        mut self,
        checkpoint: SimTime,
        horizon: SimTime,
        probe: &mut dyn FnMut(),
    ) -> Result<RunReport, PiconetError> {
        // `self` is consumed, so a sim cannot run twice by construction.
        let w = self.sim.world_mut();
        w.check_sources(&|_| false)?;
        w.check_horizon(horizon)?;

        let (events_processed, w) = match self.sim {
            Engine::Sorted(mut sim) => {
                drive(&mut sim, checkpoint, horizon, probe);
                (sim.events_processed(), sim.into_state())
            }
            Engine::Heap(mut sim) => {
                drive(&mut sim, checkpoint, horizon, probe);
                (sim.events_processed(), sim.into_state())
            }
        };
        Ok(w.into_report(horizon, events_processed))
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
