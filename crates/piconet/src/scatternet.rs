//! The scatternet layer: N piconets, bridge slaves on deterministic
//! rendezvous schedules, and cross-piconet flows relayed hop by hop.
//!
//! The paper's future-work section points at inter-piconet operation; this
//! module opens that workload without touching the single-piconet
//! semantics:
//!
//! * every global [`FlowId`] (ACL or SCO voice) is unique across the
//!   scatternet, and the flow tables' id index resolves it in O(1) to the
//!   island that owns it, against the islands' own dense flow tables;
//! * [`BridgeSpec`]s describe slaves that time-share between two piconets
//!   on a periodic rendezvous cycle; their [`PresenceWindow`]s are injected
//!   into each piconet's presence mask, so pollers skip absent bridges;
//! * [`ChainSpec`]s compose per-piconet flows into cross-piconet paths.
//!   Packets completing a hop are re-enqueued on the next hop — at the
//!   exchange end for master relays (same device), or when the bridge next
//!   appears in the target piconet (the *residence time*);
//! * [`ScatternetSim`] runs each piconet as an **island**: a full
//!   single-piconet simulator (own event queue, own clock) running the
//!   piconet event handlers verbatim. [`PiconetSim`](crate::PiconetSim)
//!   is a one-island `ScatternetSim`, so the paper's own scenario runs on
//!   this engine too. Islands only interact through bridge relays, and a
//!   relay is never live before the bridge's next presence window opens
//!   in the target piconet, so the window starts are *conservative sync
//!   points* (classic conservative parallel DES, with the rendezvous
//!   schedule as the lookahead):
//!
//!   ```text
//!    island 0  ──phase──▶|        ──▶|          ──▶|
//!    island 1  ──────────▶|  ─────▶|  ──────────▶|     (each island runs
//!    island 2  ────▶|       ──────▶|    ────────▶|      independently)
//!              ─────┼──────────────┼─────────────┼────▶ simulated time
//!                   B₁             B₂            B₃
//!             window starts = phase boundaries; staged relays
//!             pool at the coordinator, injected when t == handoff
//!   ```
//!
//!   The window starts form a precomputed **boundary calendar**: coincident
//!   `(phase, cycle)` windows from different bridges merge into one
//!   [`SyncPoint`] group, and every group's next window start is a phase
//!   boundary. Every island runs every round, and staged relays park in
//!   a coordinator-side pool until the round clock reaches their handoff
//!   instant, at which point the target island has provably processed
//!   every own event at that instant. With [`ScatternetSim::with_threads`],
//!   each island has one owner thread for the whole run (the coordinator
//!   owns a block too): the owner injects the relays dealt to its
//!   islands, runs them, and drains what they stage, so no island is
//!   shared between threads. The injection order — handoff instant, then
//!   source piconet, then staging sequence — is a total order, so reports
//!   are **byte-identical** across thread counts and island visit orders
//!   ([`ScatternetSim::with_island_shuffle`]);
//! * [`ScatternetReport`] carries each piconet's [`RunReport`] (per-hop
//!   delay statistics included) plus per-chain end-to-end and residence
//!   [`DelayStats`]: with immediate master relays, end-to-end delay is
//!   exactly the sum of per-hop queueing delays plus bridge residence.
//!
//! The round loop is generic over the engine's hook traits (see the
//! `hooks` module) and over the islands' event queue. Plain runs
//! instantiate it with `()` and the sorted buffer; the sanitized, traced
//! and observed runs bring their own hooks, so no instrumentation is
//! compiled into the production engine. A test-only builder swaps in the
//! binary-heap reference queue for differential tests.
//!
//! Each island's per-flow state is one dense record per flow (see
//! [`FlowState`](crate::FlowState)): the flow's queue, allowed-type table,
//! window counters and delay-sample header, id, and on a chain's hop
//! flows the route and origin FIFO, so relaying a completed packet reads
//! the record its exchange already touched.
//!
//! The steady state is allocation-free: relay outboxes, staging buffers,
//! origin FIFOs and report buffers are pre-reserved at build time, and
//! the relay machinery only on islands a chain touches, so a lone
//! piconet builds none at all. The build reserves hot state first: every
//! island's world (its flow records included) and relay buffers, and only
//! then, in one pass over all islands, the delay-sample buffers and
//! origin FIFOs, so the 8–32 KiB sample reserves never sit between two
//! islands' hot state (see `IslandState`).

use crate::config::{PiconetConfig, PiconetError};
use crate::flow_table::{FlowIdx, IdIndex};
use crate::hooks::{EngineHooks, IslandHooks};
use crate::poller::Poller;
use crate::report::RunReport;
use crate::sanitizer::{
    EngineMutation, Mutator, Recorder, RecorderIsland, RunTrace, SanitizedRun, Sanitizer,
    TraceConfig,
};
use crate::sim::{handle, seed_world, Ev, Target, World};
use crate::sync_protocol::{barrier_wait, block_bounds, BarrierOrderings, SyncEnv};
use crate::telemetry::{EventMeter, ObsConfig, ObservedRun, Observer};
use btgs_baseband::{ChannelModel, PiconetId, PresenceWindow, ScopedSlave, SLOT_PAIR};
use btgs_des::{
    DetRng, EventQueue, HeapEventQueue, PendingEvents, Scheduler, SimDuration, SimTime, Simulator,
};
use btgs_metrics::DelayStats;
use btgs_traffic::{AppPacket, FlowId, Source};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// The owner of one global flow id.
#[derive(Clone, Copy, Debug)]
enum Owner {
    /// An ACL flow: its piconet and its dense index there.
    Acl(PiconetId, FlowIdx),
    /// The voice flow of the piconet's SCO binding with this index.
    Voice(PiconetId, u32),
}

/// A bridge slave: one radio that is `upstream.slave` in piconet
/// `upstream.piconet` and `downstream.slave` in piconet
/// `downstream.piconet`, alternating between the two on a fixed cycle.
///
/// Within every `cycle`, the bridge spends `[0, dwell_upstream)` in the
/// upstream piconet and `[dwell_upstream, cycle)` in the downstream one.
/// Packets cross the bridge in the upstream→downstream direction: a
/// downlink hop delivers to the bridge while it sits upstream, and the
/// relayed packet becomes transmittable downstream when the bridge next
/// appears there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BridgeSpec {
    /// The bridge's identity in the piconet packets arrive from.
    pub upstream: ScopedSlave,
    /// The bridge's identity in the piconet packets continue into.
    pub downstream: ScopedSlave,
    /// Rendezvous cycle length (slot-pair aligned).
    pub cycle: SimDuration,
    /// Time per cycle spent in the upstream piconet; the remainder is spent
    /// downstream.
    pub dwell_upstream: SimDuration,
}

impl BridgeSpec {
    /// The presence windows of the bridge: `(upstream, downstream)`.
    ///
    /// # Errors
    ///
    /// Returns the window validation error (zero dwell, misaligned or
    /// overlong durations).
    pub fn windows(&self) -> Result<(PresenceWindow, PresenceWindow), PiconetError> {
        let up = PresenceWindow::new(self.cycle, SimDuration::ZERO, self.dwell_upstream)
            .map_err(|e| PiconetError(format!("bridge {}: {e}", self.upstream)))?;
        let down = PresenceWindow::new(
            self.cycle,
            self.dwell_upstream,
            self.cycle - self.dwell_upstream,
        )
        .map_err(|e| PiconetError(format!("bridge {}: {e}", self.downstream)))?;
        Ok((up, down))
    }
}

/// A cross-piconet flow: an ordered list of per-piconet hop flows.
///
/// Consecutive hops must share a device: an uplink hop followed by a
/// downlink hop in the same piconet (the master relays internally), or a
/// downlink hop to a bridge slave followed by an uplink hop from that
/// bridge's identity in the next piconet. A bridge may be crossed in
/// either direction — upstream→downstream or back — so bidirectional
/// chains share one rendezvous schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainSpec {
    /// The hop flows, in path order. The first hop is fed by a registered
    /// source; every later hop is fed by relaying.
    pub hops: Vec<FlowId>,
    /// The per-hop polling intervals granted by multi-hop admission, in
    /// path order — recorded for reporting/auditing; the simulator itself
    /// polls whatever its per-piconet pollers decide. Empty when the chain
    /// was not admission-controlled; otherwise must match `hops` in
    /// length.
    pub hop_intervals: Vec<SimDuration>,
}

impl ChainSpec {
    /// A chain over `hops` without recorded admission grants.
    pub fn new(hops: Vec<FlowId>) -> ChainSpec {
        ChainSpec {
            hops,
            hop_intervals: Vec::new(),
        }
    }

    /// Attaches the admission-granted per-hop polling intervals (builder
    /// style).
    #[must_use]
    pub fn with_intervals(mut self, hop_intervals: Vec<SimDuration>) -> ChainSpec {
        self.hop_intervals = hop_intervals;
        self
    }
}

/// Static description of a scatternet scenario.
#[derive(Clone, Debug)]
pub struct ScatternetConfig {
    /// The piconets, indexed by [`PiconetId`].
    pub piconets: Vec<PiconetConfig>,
    /// The bridge slaves connecting them.
    pub bridges: Vec<BridgeSpec>,
    /// Cross-piconet flows relayed across the bridges.
    pub chains: Vec<ChainSpec>,
}

/// What happens to a packet that completes delivery on a routed hop (the
/// route of its [`FlowState`](crate::FlowState)). `stats` is the chain's
/// slot in the island's own [`IslandState::chain_stats`], not its global
/// chain index.
#[derive(Clone, Copy, Debug)]
pub(crate) enum HopNext {
    /// Last hop of its chain: record end-to-end delay.
    Terminal { stats: u32 },
    /// Relay onto the next hop.
    Forward {
        stats: u32,
        /// The completed hop is its chain's first, whose packet arrival
        /// is the chain's origin timestamp.
        first: bool,
        /// Target piconet.
        pic: u16,
        /// Dense index of the target hop flow in its piconet.
        flow_idx: u32,
        /// Global id of the target hop flow — resolved at build time so
        /// routing a capture needs no cross-island table access.
        flow: FlowId,
        /// Bridge crossings wait for the target-piconet presence window;
        /// `None` is a master-internal relay (immediate).
        window: Option<PresenceWindow>,
    },
}

/// A relay crossing an island boundary, staged until the end of the
/// current phase, pooled by the coordinator and injected into the target
/// island by its owner.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StagedRelay {
    /// Handoff instant (the bridge's next appearance in the target
    /// piconet). Conservative phase boundaries guarantee `at >= B`.
    at: SimTime,
    /// Target piconet.
    pub(crate) pic: u16,
    /// Dense index of the target hop flow in its piconet.
    pub(crate) flow_idx: u32,
    /// The packet, restamped with the target flow id and handoff arrival.
    pkt: AppPacket,
    /// First-hop arrival of the packet's chain (for end-to-end delay).
    origin: SimTime,
}

/// Per-island share of one chain's statistics; summed across islands at
/// report time.
///
/// Every counter and statistic covers the same packet population: packets
/// whose *origin* (first-hop arrival) falls inside the measurement window.
/// The origin rides along with the packet (in the relay-fed flows' origin
/// FIFOs and in [`StagedRelay::origin`]), so the counted check is a direct
/// `origin >= warmup` comparison at every hop.
#[derive(Default)]
struct ChainLocal {
    /// The chain's global index, for report assembly.
    chain: u32,
    relayed: u64,
    delivered: u64,
    e2e: DelayStats,
    residence: DelayStats,
}

/// One piconet's island: its [`World`] plus the relay fabric it can see
/// without touching any other island. A flow's route and origin FIFO live
/// in its [`FlowState`](crate::FlowState) record, next to its queue and
/// counters, and stay empty on an island no chain touches.
///
/// Every round visits every island, so at mesh scale the islands' hot
/// state together outgrows a core's caches, and an event costs more the
/// more memory that state spans. The build therefore lays it out
/// hot-first and small:
/// * every island's world (one record per flow) and relay buffers come
///   first ([`ScatternetSim::new`] up to the relay arming);
/// * the delay-sample buffers and origin FIFOs of every island follow in
///   one pass ([`IslandState::reserve_samples`]), so no 8–32 KiB reserve
///   sits between two islands' hot state;
/// * an island keeps statistics only for the chains routed through it,
///   and its relay buffers are sized to a sustainable chain's steady
///   state, not to worst-case head-room.
struct IslandState {
    world: World,
    /// This island's piconet id.
    pic: u16,
    /// Cross-island relays captured this phase, each already keyed for
    /// the pool; the island's owner drains them into its outbox after
    /// every run. Sized only on islands with a bridge route, to the most
    /// exchanges one phase can complete ([`staging_capacity`]).
    staged: Vec<PooledRelay>,
    /// Monotone count of relays ever staged by this island — the staging
    /// sequence assigned at capture time, the last key of the
    /// deterministic pool injection order. Never reset, so the key is
    /// unique across the whole run.
    staged_seq: u64,
    /// Chain statistics are recorded for packets originating at or after
    /// this instant (the maximum piconet warm-up).
    warmup: SimTime,
    /// This island's share of the statistics of each chain routed
    /// through it, one entry per distinct chain in chain order; routes
    /// address it by slot ([`HopNext`]'s `stats`). An island on a few of
    /// a mesh's chains holds a few entries, not one per chain.
    chain_stats: Vec<ChainLocal>,
}

impl IslandState {
    /// An island with no relay machinery; [`IslandState::arm_relays`]
    /// sizes it once a chain routes through it.
    fn new(world: World, pic: u16, warmup: SimTime) -> IslandState {
        IslandState {
            world,
            pic,
            staged: Vec::new(),
            staged_seq: 0,
            warmup,
            chain_stats: Vec::new(),
        }
    }

    /// The slot of chain `chain` in this island's statistics, added on
    /// the chain's first route through the island.
    fn chain_slot(&mut self, chain: u32) -> u32 {
        let slot = match self.chain_stats.iter().position(|c| c.chain == chain) {
            Some(slot) => slot,
            None => {
                self.chain_stats.push(ChainLocal {
                    chain,
                    ..ChainLocal::default()
                });
                self.chain_stats.len() - 1
            }
        };
        u32::try_from(slot).expect("slots are bounded by the u32 chain ids")
    }

    /// Pre-sizes the hot relay buffers of the routed flows (flow queues,
    /// outbox, staging), so a chain-touched island's steady state stays
    /// allocation-free; an island with no route reserves nothing. A
    /// routed hop of a sustainable chain queues a few packets per bridge
    /// absence, so 16 queue slots leave head-room; an over-committed
    /// fabric grows the queue instead. `staging` is the calendar's
    /// staging bound ([`staging_capacity`]).
    fn arm_relays(&mut self, staging: usize) {
        let mut bridged = false;
        for idx in 0..self.world.flows.len() {
            let Some(r) = self.world.flows[idx].route else {
                continue;
            };
            self.world.reserve_relay(idx, 16);
            bridged |= matches!(
                r,
                HopNext::Forward {
                    window: Some(_),
                    ..
                }
            );
        }
        if bridged {
            self.staged.reserve(staging);
        }
    }

    /// Reserves the sample buffers (the world's delay samples, the
    /// chains' end-to-end and residence samples) and the origin FIFOs of
    /// the relay-fed flows. Run once per island after every island's hot
    /// state exists (see [`IslandState`]).
    fn reserve_samples(&mut self) {
        self.world.reserve_samples();
        for route in self.world.flows.iter().filter_map(|f| f.route) {
            match route {
                HopNext::Terminal { stats } => {
                    self.chain_stats[stats as usize].e2e.reserve(4096);
                }
                HopNext::Forward {
                    stats,
                    window: Some(_),
                    ..
                } => {
                    self.chain_stats[stats as usize].residence.reserve(4096);
                }
                HopNext::Forward { .. } => {}
            }
        }
        // A FIFO holds one origin per packet queued on its flow or in
        // transit to it, so 64 leave head-room over the queue's 16.
        for f in &mut self.world.flows {
            if f.relay_fed {
                f.origins.reserve(64);
            }
        }
    }

    /// Records the relay action of hop flow `idx`.
    ///
    /// # Errors
    ///
    /// Returns an error if the flow already serves a chain position.
    fn set_route(&mut self, idx: FlowIdx, next: HopNext) -> Result<(), PiconetError> {
        let slot = &mut self.world.flows[idx.get()].route;
        if slot.is_some() {
            return Err(PiconetError(format!(
                "hop flow {} is shared by two chain positions",
                self.world.table.id(idx)
            )));
        }
        *slot = Some(next);
        Ok(())
    }
}

/// One island: a full single-piconet simulator (own event queue, own
/// clock) over an [`IslandState`].
type IslandSim<Q> = Simulator<IslandState, Ev, Q>;

/// The per-event handler of one island: the piconet handler verbatim,
/// plus capture routing against island-local state only, with the
/// island's hooks around it (no-ops in plain runs). Inlined into the run
/// loop, so a plain run makes one call per event, into the handler, and
/// routes captures out of line.
#[inline]
fn island_handle<Q: PendingEvents<Ev>, H: IslandHooks>(
    sched: &mut Scheduler<Ev, Q>,
    st: &mut IslandState,
    hooks: &mut H,
    ev: Ev,
) {
    hooks.on_event(sched.now(), &ev);
    handle(sched, &mut st.world, ev);
    if !st.world.outbox.is_empty() {
        route_captures(sched, st, hooks);
    }
    hooks.after_event();
}

/// Routes every packet the handler completed on a captured hop. In-island
/// relays (master relays and self-loops) are scheduled directly; bridge
/// crossings are staged for the coordinator. The outbox cannot grow while
/// draining (routing only schedules or stages), so the indexed loop is
/// exact; `Captured` is `Copy`, so each read ends its borrow before the
/// routing mutates the island.
fn route_captures<Q: PendingEvents<Ev>, H: IslandHooks>(
    sched: &mut Scheduler<Ev, Q>,
    st: &mut IslandState,
    hooks: &mut H,
) {
    let captured = st.world.outbox.len();
    for i in 0..captured {
        let cap = st.world.outbox[i];
        let from = &mut st.world.flows[cap.flow_idx];
        let Some(next) = from.route else {
            debug_assert!(false, "captured flow without a route");
            continue;
        };
        match next {
            HopNext::Terminal { stats } => {
                // The terminal hop is always relay-fed, so its origin FIFO
                // holds this packet's origin at the front.
                let origin = from.origins.pop_front().expect(
                    "per-flow FIFO holds across hops: every terminal delivery has an origin",
                );
                if origin >= st.warmup {
                    let c = &mut st.chain_stats[stats as usize];
                    c.delivered += 1;
                    c.e2e.record(cap.at - origin);
                }
            }
            HopNext::Forward {
                stats,
                first,
                pic,
                flow_idx,
                flow,
                window,
            } => {
                let origin = if first {
                    // First hop: the packet's own arrival starts the clock.
                    cap.pkt.arrival
                } else {
                    from.origins.pop_front().expect(
                        "per-flow FIFO holds across hops: every relayed packet has an origin",
                    )
                };
                let now = sched.now();
                // The handoff instant: immediately for a master-internal
                // relay; when the bridge next appears in the target piconet
                // for a bridge crossing. The `max(now)` only guards against
                // hand-built non-complementary schedules — derived bridge
                // windows always put the next appearance at or after the
                // exchange end.
                let handoff = match &window {
                    Some(w) => w.next_present(cap.at).max(now),
                    None => now,
                };
                if origin >= st.warmup {
                    let c = &mut st.chain_stats[stats as usize];
                    c.relayed += 1;
                    if window.is_some() {
                        c.residence.record(handoff - cap.at);
                    }
                }
                let pkt = AppPacket::new(cap.pkt.seq, flow, cap.pkt.size, handoff);
                if pic == st.pic {
                    // Master relay: same island, immediate re-enqueue.
                    st.world.flows[flow_idx as usize].origins.push_back(origin);
                    sched.schedule_at(
                        handoff,
                        Ev::Relay {
                            flow_idx: flow_idx as usize,
                            pkt,
                        },
                    );
                    hooks.on_scheduled_relay(handoff, flow_idx, pkt.seq);
                } else {
                    st.staged.push(PooledRelay {
                        at: handoff,
                        source: st.pic,
                        seq: st.staged_seq,
                        relay: StagedRelay {
                            at: handoff,
                            pic,
                            flow_idx,
                            pkt,
                            origin,
                        },
                    });
                    st.staged_seq += 1;
                    hooks.on_staged(pic, flow_idx, handoff, pkt.seq);
                }
            }
        }
    }
    st.world.outbox.clear();
}

/// The first start of a presence window strictly after `t`, for the
/// window with `phase` offset into its `cycle`.
fn next_start_after(t: SimTime, phase: SimDuration, cycle: SimDuration) -> SimTime {
    let anchor = SimTime::ZERO + phase;
    if t < anchor {
        return anchor;
    }
    anchor + ((t - anchor).div_duration(cycle) + 1) * cycle
}

/// One calendar group: every bridge presence window sharing `(phase,
/// cycle)`. Their starts coincide, so they contribute the same sync
/// instants.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SyncPoint {
    /// Offset of the window start into its cycle.
    phase: SimDuration,
    /// The rendezvous cycle.
    cycle: SimDuration,
}

/// Registers the target window of one bridge-crossing route in the
/// calendar: coincident `(phase, cycle)` windows from different bridges
/// share a group.
fn push_sync_point(points: &mut Vec<SyncPoint>, phase: SimDuration, cycle: SimDuration) {
    let point = SyncPoint { phase, cycle };
    if !points.contains(&point) {
        points.push(point);
    }
}

/// Staging head-room of a bridged island: the most relays it can stage in
/// one phase. Only a downlink delivery crosses a bridge, one exchange
/// delivers at most one downlink packet and lasts at least a slot pair,
/// and no phase outlasts the shortest calendar cycle (each group starts a
/// window once per cycle), so a phase completes at most that cycle's
/// slot pairs of exchanges. Capped at 128 entries, so a long cycle does
/// not reserve a buffer it rarely fills; a phase that stages more grows
/// it.
fn staging_capacity(groups: &[SyncPoint]) -> usize {
    groups
        .iter()
        .map(|g| g.cycle.div_ceil_duration(SLOT_PAIR))
        .min()
        .map_or(0, |pairs| pairs.min(128) as usize)
}

/// The next phase boundary after `t`: the earliest calendar window start
/// strictly after `t`, capped by the earliest pooled relay handoff (every
/// pending injection instant is a mandatory boundary), the probe
/// checkpoint, and the horizon. A relay cannot land before the bridge's
/// next window opens in the target piconet, so every window start is a
/// safe boundary.
fn next_boundary(
    t: SimTime,
    checkpoint: SimTime,
    probed: bool,
    horizon: SimTime,
    pool_min: Option<SimTime>,
    groups: &[SyncPoint],
) -> SimTime {
    let mut b = horizon;
    if !probed && checkpoint > t && checkpoint < b {
        b = checkpoint;
    }
    if let Some(p) = pool_min {
        debug_assert!(
            p > t,
            "relays due at or before t are injected before rounds"
        );
        if p < b {
            b = p;
        }
    }
    for g in groups {
        let s = next_start_after(t, g.phase, g.cycle);
        if s < b {
            b = s;
        }
    }
    b
}

/// Spin iterations before a barrier waiter starts yielding.
const SPIN_BUDGET: u32 = 1_000;

/// Yields before a waiter in an oversubscribed pool falls back to
/// sleeping.
const YIELD_BUDGET: u32 = 64;

/// Cap on the backoff exponent: sleeps top out at `2^8` µs, the order of
/// a scheduler quantum.
const BACKOFF_CAP_EXP: u32 = 8;

/// A spinning barrier sized for sub-millisecond phases.
///
/// `std::sync::Barrier` parks threads in the kernel; at the paper's bridge
/// cycles a phase is ~10 ms of simulated time but only a few microseconds
/// of work per island, so wake-up latency would dominate. Participants
/// instead wait on a generation counter (see [`HardwareSyncEnv`] for the
/// waiting policy).
struct SpinBarrier {
    n: u64,
    count: AtomicU64,
    generation: AtomicU64,
    env: HardwareSyncEnv,
}

impl SpinBarrier {
    fn new(n: usize) -> SpinBarrier {
        // A lone participant never waits, so it skips the host query
        // (cgroup and affinity reads, ~20 µs on Linux).
        let oversubscribed =
            n > 1 && n > std::thread::available_parallelism().map_or(1, |c| c.get());
        SpinBarrier {
            n: n as u64,
            count: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            env: HardwareSyncEnv { oversubscribed },
        }
    }

    /// One crossing of the generation protocol
    /// ([`crate::sync_protocol::barrier_wait`] — the logic the
    /// `btgs-analyze` model checker explores exhaustively) on hardware
    /// atomics with the waiter below.
    fn wait(&self) {
        barrier_wait(
            &self.env,
            &self.count,
            &self.generation,
            self.n,
            &BarrierOrderings::SOUND,
        );
    }
}

/// The hardware half of the barrier seam: how a participant waits.
///
/// While the pool has no more participants than the host has cores, a
/// waiter spins briefly and then yields until released; it never sleeps.
/// A yield returns at once when nothing else is runnable, while a waiter
/// that fell asleep during the coordinator's serial section would wake
/// late for the next round. An oversubscribed pool (more participants
/// than cores — given the engine's thread clamp, a single-core host)
/// skips the spin, since spinning only steals the CPU from the thread
/// being waited for, and after a run of yields backs off into sleeps
/// capped near a scheduler quantum.
struct HardwareSyncEnv {
    /// More participants than cores.
    oversubscribed: bool,
}

impl SyncEnv for HardwareSyncEnv {
    type Cell = AtomicU64;

    fn wait_until_changed(&self, cell: &AtomicU64, old: u64, order: Ordering) -> u64 {
        let spin_budget = if self.oversubscribed { 0 } else { SPIN_BUDGET };
        let mut spins = 0u32;
        let mut yields = 0u32;
        loop {
            // ord: the caller's ordering — the barrier passes Acquire
            // (justified in sync_protocol::barrier_wait).
            let v = cell.load(order);
            if v != old {
                return v;
            }
            if spins < spin_budget {
                spins += 1;
                std::hint::spin_loop();
            } else if !self.oversubscribed || yields < YIELD_BUDGET {
                yields = yields.saturating_add(1);
                std::thread::yield_now();
            } else {
                let exp = (yields - YIELD_BUDGET).min(BACKOFF_CAP_EXP);
                yields = yields.saturating_add(1);
                std::thread::sleep(std::time::Duration::from_micros(1u64 << exp));
            }
        }
    }
}

/// `SimTime` as the nanosecond payload of the round-bound atomic
/// (`SimTime::MAX` round-trips as `u64::MAX`).
#[inline]
pub(crate) fn nanos_of(t: SimTime) -> u64 {
    (t - SimTime::ZERO).as_nanos()
}

/// Inverse of [`nanos_of`].
#[inline]
fn time_of(nanos: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(nanos)
}

/// A staged relay with its injection key, parked in the coordinator's pool
/// until the global round clock reaches its handoff instant.
#[derive(Clone)]
pub(crate) struct PooledRelay {
    /// Injection key: handoff instant, then source piconet, then staging
    /// sequence — the deterministic total order of same-instant
    /// injections.
    pub(crate) at: SimTime,
    pub(crate) source: u16,
    pub(crate) seq: u64,
    pub(crate) relay: StagedRelay,
}

/// Pool head-room: enough for every relay in flight across one rendezvous
/// cycle at mesh scale, so the steady state never grows the buffer. With
/// no bridge route (an empty calendar) nothing is ever staged, so the
/// pool and the mailboxes stay unallocated.
fn pool_capacity(islands: usize, bridged: bool) -> usize {
    if bridged {
        (islands * 8).max(1024)
    } else {
        0
    }
}

/// Restores the pool's descending key order (minimum last, so due entries
/// pop off the back).
fn sort_pool(pool: &mut [PooledRelay]) {
    // analyze: allow(unstable-sort): the key (at, source, seq) is
    // unique per entry (seq is a per-source monotone counter), so
    // unstable ties cannot occur and the order is deterministic.
    pool.sort_unstable_by_key(|p| std::cmp::Reverse((p.at, p.source, p.seq)));
}

/// Injects one pooled relay into its target island. The coordinator deals
/// a relay when the global round clock equals `relay.at`, and the
/// island's owner injects it at the start of the next round, before the
/// island runs: the target island has already processed every own event
/// at that instant (it ran inclusively to it, or had nothing due), so
/// injected relays land behind all same-instant local events in queue
/// FIFO order, in dealing order — an ordering that holds identically
/// across thread counts and island orders, which is what makes the
/// reports byte-identical across both.
fn inject_relay<Q: PendingEvents<Ev>, H: IslandHooks>(
    island: &mut IslandSim<Q>,
    hooks: &mut H,
    relay: &StagedRelay,
) {
    let (sched, st) = island.split_mut();
    st.world.flows[relay.flow_idx as usize]
        .origins
        .push_back(relay.origin);
    let now = sched.now();
    hooks.on_inject(relay.at, now);
    // In the clean engine the clamp is the identity: the round clock only
    // reaches `relay.at` while the target island's clock is at or before
    // it. It exists so the deliberately broken corpus engines (injections
    // behind the clock) keep running for the sanitizer to report the
    // violation instead of tripping the queue's no-past-scheduling assert.
    let at = relay.at.max(now);
    let pkt = AppPacket::new(relay.pkt.seq, relay.pkt.flow, relay.pkt.size, at);
    sched.schedule_at(
        at,
        Ev::Relay {
            flow_idx: relay.flow_idx as usize,
            pkt,
        },
    );
    hooks.on_scheduled_relay(at, relay.flow_idx, relay.pkt.seq);
}

/// Engine observability counters, surfaced on [`ScatternetReport`].
/// Excluded from cross-configuration byte-identity digests the way
/// `events_processed` is.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EngineCounters {
    pub(crate) phases_run: u64,
    pub(crate) barrier_rounds: u64,
    pub(crate) islands_claimed: u64,
    pub(crate) relays_staged: u64,
    pub(crate) relays_injected: u64,
}

/// One participant's relay traffic with the coordinator: the relays dealt
/// to its islands (injected at the start of the next round, each with its
/// island's index in the block) and the relays its islands staged (merged
/// into the pool at the end of the round). Pre-sized like the pool, so
/// the steady state never grows either buffer.
struct Mailbox {
    inbox: Vec<(usize, StagedRelay)>,
    outbox: Vec<PooledRelay>,
}

impl Mailbox {
    fn new(capacity: usize) -> Mailbox {
        Mailbox {
            inbox: Vec::with_capacity(capacity),
            outbox: Vec::with_capacity(capacity),
        }
    }
}

/// One participant's share of a round: inject the relays dealt to its
/// islands, run every island to `b` and drain what it staged into the
/// outbox. `hooks` is parallel to `block`.
fn run_block<Q: PendingEvents<Ev>, H: IslandHooks>(
    block: &mut [IslandSim<Q>],
    hooks: &mut [H],
    mail: &mut Mailbox,
    b: SimTime,
) {
    for (slot, relay) in mail.inbox.drain(..) {
        inject_relay(&mut block[slot], &mut hooks[slot], &relay);
    }
    for (island, hooks) in block.iter_mut().zip(hooks) {
        island.run_until(b, |sched, st, ev| island_handle(sched, st, hooks, ev));
        hooks.on_island_ran(b, island.scheduler_mut().queue_occupancy());
        mail.outbox.append(&mut island.state_mut().staged);
    }
}

/// Splits `items` at `bounds` into one mutable block per participant.
fn split_blocks<'a, T>(mut rest: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut blocks = Vec::with_capacity(bounds.len() - 1);
    for w in bounds.windows(2) {
        let (block, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
        blocks.push(block);
        rest = tail;
    }
    blocks
}

/// The phase loop, for any number of participants.
///
/// `islands` is in visit order, `island_hooks` is parallel to it, and
/// `pos_of[pic]` is piconet `pic`'s position in it; participant `p` owns
/// positions `bounds[p]..bounds[p + 1]` for the whole run, participant 0
/// being the coordinator (this thread). Each round the coordinator picks
/// the boundary from the calendar and the pooled relays, every participant
/// runs its own block through [`run_block`], and the coordinator merges
/// the outboxes into the pool, sorts it and deals the relays due at the
/// boundary into their owners' inboxes. The coordinator touches no island
/// and runs `hooks`; no island is touched by two threads. One participant
/// spawns no thread, crosses no barrier and takes no lock.
#[allow(clippy::too_many_arguments)]
fn run_phases<Q: PendingEvents<Ev> + Send, H: EngineHooks>(
    islands: &mut [IslandSim<Q>],
    island_hooks: &mut [H::Island],
    pos_of: &[usize],
    bounds: &[usize],
    groups: &[SyncPoint],
    checkpoint: SimTime,
    horizon: SimTime,
    probe: &mut dyn FnMut(),
    hooks: &mut H,
) -> EngineCounters {
    let n = islands.len();
    let participants = bounds.len() - 1;
    let owner_of: Vec<usize> = bounds
        .windows(2)
        .enumerate()
        .flat_map(|(p, w)| std::iter::repeat_n(p, w[1] - w[0]))
        .collect();
    let mut counters = EngineCounters::default();
    let bridged = !groups.is_empty();
    let mut pool: Vec<PooledRelay> = Vec::with_capacity(pool_capacity(n, bridged));
    let mut blocks = split_blocks(islands, bounds)
        .into_iter()
        .zip(split_blocks(island_hooks, bounds));
    let (own, own_hooks) = blocks.next().expect("at least one participant");
    let mut mail = Mailbox::new(pool_capacity(bounds[1], bridged));
    let mailboxes: Vec<Mutex<Mailbox>> = bounds[1..]
        .windows(2)
        .map(|w| Mutex::new(Mailbox::new(pool_capacity(w[1] - w[0], bridged))))
        .collect();
    let barrier = SpinBarrier::new(participants);
    let bound = AtomicU64::new(0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for ((block, block_hooks), mailbox) in blocks.zip(&mailboxes) {
            let (barrier, bound, stop) = (&barrier, &bound, &stop);
            scope.spawn(move || loop {
                barrier.wait();
                // ord: Acquire — pairs with the coordinator's Release
                // store before its barrier crossing; the crossing itself
                // already orders it, the explicit pair keeps the flag
                // self-contained.
                if stop.load(Ordering::Acquire) {
                    return;
                }
                // ord: Acquire — pairs with the coordinator's Release
                // publish of the round bound (same reasoning as `stop`).
                let b = time_of(bound.load(Ordering::Acquire));
                let mut mail = mailbox.lock().expect("participants do not panic");
                run_block(block, block_hooks, &mut mail, b);
                drop(mail);
                barrier.wait();
            });
        }

        // The workers' mailboxes, locked by the coordinator between
        // rounds; pre-sized so the steady state never allocates.
        let mut guards = Vec::with_capacity(mailboxes.len());
        let mut t = SimTime::ZERO;
        let mut probed = false;
        loop {
            let pool_min = pool.last().map(|p| p.at);
            let mut b = next_boundary(t, checkpoint, probed, horizon, pool_min, groups);
            if hooks.skip_boundary(b, checkpoint, probed, horizon, pool_min) {
                b = next_boundary(b, checkpoint, probed, horizon, pool_min, groups);
            }
            counters.phases_run += 1;
            counters.islands_claimed += n as u64;
            if participants > 1 {
                counters.barrier_rounds += 1;
                // ord: Release — published to the workers across the
                // barrier crossing below; the crossing's Acquire/Release
                // pair is what actually carries it, the explicit Release
                // keeps the store individually sound.
                bound.store(nanos_of(b), Ordering::Release);
                barrier.wait();
            }
            run_block(own, own_hooks, &mut mail, b);
            if participants > 1 {
                barrier.wait();
            }
            guards.extend(
                mailboxes
                    .iter()
                    .map(|m| m.lock().expect("participants do not panic")),
            );
            for outbox in
                std::iter::once(&mut mail.outbox).chain(guards.iter_mut().map(|g| &mut g.outbox))
            {
                counters.relays_staged += outbox.len() as u64;
                for p in outbox.drain(..) {
                    hooks.on_collected(b, &p);
                    pool.push(p);
                }
            }
            if let Some(held) = hooks.release_due(b) {
                pool.push(held);
            }
            sort_pool(&mut pool);
            hooks.on_sorted(&mut pool);
            hooks.on_phase(t, b, n as u64, pool.len());
            if !probed && b >= checkpoint {
                probe();
                probed = true;
            }
            t = b;
            // A halting run deals nothing more: the round that just ran
            // injected everything dealt before it, so the findings cover
            // every relay the run let through.
            let halted = hooks.halted();
            // Deal every relay due now to its target's owner; it is
            // injected and becomes live in the next round. In the clean
            // engine a due relay's handoff is exactly `t` (the
            // pending-injection cap makes every handoff a boundary); `<=`
            // keeps corpus-mutated engines draining late relays instead of
            // carrying them into next_boundary's `p > t` invariant. At the
            // horizon this is the drain: targets re-run to the horizon so
            // relays landing exactly on it still fire, and later handoffs
            // (which can never fire) are left in the pool.
            let mut due = false;
            while !halted && pool.last().is_some_and(|p| p.at <= t) {
                let p = pool.pop().expect("just peeked");
                let Some(p) = hooks.intercept(p) else {
                    continue;
                };
                hooks.on_dealt(t, &p);
                let pos = pos_of[p.relay.pic as usize];
                let owner = owner_of[pos];
                let inbox = match owner {
                    0 => &mut mail.inbox,
                    w => &mut guards[w - 1].inbox,
                };
                inbox.push((pos - bounds[owner], p.relay));
                counters.relays_injected += 1;
                due = true;
            }
            guards.clear();
            if halted || (t >= horizon && !due) {
                break;
            }
        }
        probe();
        hooks.on_leftovers(&pool);

        if participants > 1 {
            // ord: Release — carried to the workers by the final barrier
            // crossing; they read it with Acquire right after.
            stop.store(true, Ordering::Release);
            barrier.wait();
        }
    });
    counters
}

/// Measurements of one cross-piconet chain.
#[derive(Clone, Debug)]
pub struct ChainReport {
    /// The hop flows, in path order.
    pub hops: Vec<FlowId>,
    /// Packets relayed onto a further hop within the measurement window
    /// (counted once per hop crossed).
    pub relayed_packets: u64,
    /// Packets that completed the final hop and originated within the
    /// measurement window (always equal to `e2e.count()`).
    pub delivered_packets: u64,
    /// End-to-end delay: first-hop arrival to final-hop delivery. Equals
    /// the sum of per-hop queueing delays plus the bridge residence times
    /// (master relays are immediate).
    pub e2e: DelayStats,
    /// Bridge residence: delivery at the bridge to the bridge's next
    /// appearance in the target piconet, per bridge crossing.
    pub residence: DelayStats,
}

/// The complete result of one scatternet run.
#[derive(Clone, Debug)]
pub struct ScatternetReport {
    /// Per-piconet run reports (per-hop delay statistics live here, under
    /// the hop flows' ids). Each report's `events_processed` counts the
    /// events of that piconet's own island engine.
    pub piconets: Vec<RunReport>,
    /// Per-chain end-to-end measurements.
    pub chains: Vec<ChainReport>,
    /// Total events processed across all island engines. Identical across
    /// thread counts and island orders — the same events fire either way.
    pub events_processed: u64,
    /// Boundary rounds the phased loop stepped through. Engine
    /// observability, excluded from cross-configuration byte-identity
    /// digests the way `events_processed` is (so are the three counters
    /// below).
    pub phases_run: u64,
    /// Rounds dispatched through the participant barrier (two crossings
    /// each): every round of a multi-threaded run, and zero for a
    /// single-threaded one.
    pub barrier_rounds: u64,
    /// Islands run, summed over all rounds. Every island runs every
    /// round, so this is `phases_run × piconets`.
    pub islands_claimed: u64,
    /// Cross-island relays staged through the coordinator pool.
    pub relays_staged: u64,
    /// Always 0: every calendar window start is a phase boundary, so no
    /// phase is ever widened past one. Kept because the grid wire format
    /// and the benchmark still carry it.
    pub widening_stretches: u64,
    /// Always 0: every island runs every round. Kept for the same reason
    /// as `widening_stretches`.
    pub islands_skipped_idle: u64,
    /// Pooled relays actually injected into their target islands. Clean
    /// runs conserve relays: `relays_staged` equals `relays_injected`
    /// plus the relays still pooled at run end (handoffs past the
    /// horizon, reported by the sanitizer as `relays_leftover`).
    pub relays_injected: u64,
}

impl ScatternetReport {
    /// The run report of one piconet.
    ///
    /// # Panics
    ///
    /// Panics if `pic` is out of range.
    pub fn piconet(&self, pic: PiconetId) -> &RunReport {
        &self.piconets[pic.index()]
    }

    /// Aggregate delivered throughput over all piconets, in kbit/s.
    pub fn total_throughput_kbps(&self) -> f64 {
        self.piconets
            .iter()
            .map(RunReport::total_throughput_kbps)
            .sum()
    }
}

/// A configured scatternet simulation, ready to run.
///
/// Owns one island per piconet. Each island is a full single-piconet
/// simulator with its own event queue and clock; the islands advance in
/// conservative phases bounded by the bridge windows, and packets cross
/// bridges as relays injected at the phase boundaries.
pub struct ScatternetSim {
    /// The islands in piconet order. Each gets its event queue at run
    /// start.
    islands: Vec<IslandState>,
    /// Global flow id routing across the islands.
    index: IdIndex<Owner>,
    /// The chains' hop lists, for report assembly.
    chain_hops: Vec<Vec<FlowId>>,
    /// The boundary calendar: every presence window that is the target of
    /// a bridge-crossing route, grouped by coincident `(phase, cycle)`.
    sync_points: Vec<SyncPoint>,
    threads: usize,
    shuffle_seed: Option<u64>,
    /// Test-only seeded engine corruption (see [`EngineMutation`]); `None`
    /// for every supported configuration.
    mutation: Option<EngineMutation>,
    /// Test-only: plain runs use the binary-heap reference queue.
    reference_queue: bool,
}

impl ScatternetSim {
    /// Builds a scatternet simulation.
    ///
    /// `pollers` and `channels` are per piconet, in [`PiconetId`] order.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule: per-piconet configuration errors,
    /// a flow id (ACL or SCO voice) used in two piconets, bridge windows
    /// that do not fit their cycle, bridges naming unknown piconets or
    /// doubling up on a slave, chains whose hops are unknown, shared, or
    /// not connected device-to-device.
    pub fn new(
        config: ScatternetConfig,
        pollers: Vec<Box<dyn Poller>>,
        channels: Vec<Box<dyn ChannelModel>>,
    ) -> Result<ScatternetSim, PiconetError> {
        let ScatternetConfig {
            mut piconets,
            bridges,
            chains,
        } = config;
        let n = piconets.len();
        if n == 0 {
            return Err(PiconetError(
                "a scatternet needs at least one piconet".into(),
            ));
        }
        if n > u16::MAX as usize {
            return Err(PiconetError(format!(
                "{n} piconets exceed the 65535 the 16-bit PiconetId can name"
            )));
        }
        if pollers.len() != n || channels.len() != n {
            return Err(PiconetError(format!(
                "{n} piconets need exactly {n} pollers and {n} channel models"
            )));
        }

        // Inject the bridge presence windows into each piconet's mask.
        let mut bridge_windows: Vec<(PresenceWindow, PresenceWindow)> =
            Vec::with_capacity(bridges.len());
        for b in &bridges {
            if b.upstream.piconet.index() >= n || b.downstream.piconet.index() >= n {
                return Err(PiconetError(format!(
                    "bridge {} -> {} names an unknown piconet",
                    b.upstream, b.downstream
                )));
            }
            if b.upstream.piconet == b.downstream.piconet {
                return Err(PiconetError(format!(
                    "bridge {} -> {} must connect two distinct piconets",
                    b.upstream, b.downstream
                )));
            }
            let (up, down) = b.windows()?;
            piconets[b.upstream.piconet.index()]
                .presence
                .set(b.upstream.slave, up)?;
            piconets[b.downstream.piconet.index()]
                .presence
                .set(b.downstream.slave, down)?;
            bridge_windows.push((up, down));
        }

        // Build the islands, then the global id routing over their own
        // flow tables.
        let warmup = piconets
            .iter()
            .map(|c| SimTime::ZERO + c.warmup)
            .max()
            .expect("at least one piconet");
        let mut islands = Vec::with_capacity(n);
        for (pic, ((cfg, poller), channel)) in
            piconets.into_iter().zip(pollers).zip(channels).enumerate()
        {
            let world = World::build(cfg, poller, channel)?;
            islands.push(IslandState::new(world, pic as u16, warmup));
        }
        let index = IdIndex::build(|| {
            islands.iter().flat_map(|st| {
                let pic = PiconetId(st.pic);
                let acl = st
                    .world
                    .table
                    .iter()
                    .map(move |(idx, f)| (f.id, Owner::Acl(pic, idx)));
                acl.chain(
                    st.world
                        .voice_flows()
                        .map(move |(sco, id)| (id, Owner::Voice(pic, sco as u32))),
                )
            })
        })
        // Each piconet's own validation already rejects an id used twice
        // within it.
        .map_err(|id| PiconetError(format!("flow id {id} appears in more than one piconet")))?;

        // Resolve the chains into relay routes, and record every
        // route-target presence window as a sync point.
        let mut sync_points: Vec<SyncPoint> = Vec::new();
        for (ci, chain) in chains.iter().enumerate() {
            if chain.hops.len() < 2 {
                return Err(PiconetError(format!(
                    "chain {ci} needs at least two hops (a single-hop chain is just a flow)"
                )));
            }
            if !chain.hop_intervals.is_empty() && chain.hop_intervals.len() != chain.hops.len() {
                return Err(PiconetError(format!(
                    "chain {ci} records {} granted intervals for {} hops",
                    chain.hop_intervals.len(),
                    chain.hops.len()
                )));
            }
            let resolved: Vec<(PiconetId, FlowIdx)> = chain
                .hops
                .iter()
                .map(|id| match index.get(*id) {
                    Some(Owner::Acl(pic, idx)) => Ok((pic, idx)),
                    _ => Err(PiconetError(format!("chain {ci}: unknown hop flow {id}"))),
                })
                .collect::<Result<_, _>>()?;
            for (k, window) in resolved.windows(2).enumerate() {
                let (apic, aidx) = window[0];
                let (bpic, bidx) = window[1];
                let a = islands[apic.index()].world.table.spec(aidx);
                let b = islands[bpic.index()].world.table.spec(bidx);
                let bridge_window = if apic == bpic {
                    // Master relay: hop k terminates at the master, hop k+1
                    // originates there.
                    if !a.direction.is_uplink() || !b.direction.is_downlink() {
                        return Err(PiconetError(format!(
                            "chain {ci}: hops {} -> {} stay in {apic} but do not relay \
                             through the master (uplink then downlink required)",
                            a.id, b.id
                        )));
                    }
                    None
                } else {
                    // Bridge relay: hop k delivers to the bridge slave, hop
                    // k+1 transmits from its identity in the next piconet.
                    if !a.direction.is_downlink() || !b.direction.is_uplink() {
                        return Err(PiconetError(format!(
                            "chain {ci}: hops {} -> {} cross piconets but do not relay \
                             through a bridge slave (downlink then uplink required)",
                            a.id, b.id
                        )));
                    }
                    // A bridge serves crossings in both directions: the
                    // handoff waits for the bridge's window in whichever
                    // piconet the packet continues into.
                    let from = ScopedSlave::new(apic, a.slave);
                    let into = ScopedSlave::new(bpic, b.slave);
                    let (window, phase, cycle) = bridges
                        .iter()
                        .zip(&bridge_windows)
                        .find_map(|(br, (up, down))| {
                            if br.upstream == from && br.downstream == into {
                                Some((*down, br.dwell_upstream, br.cycle))
                            } else if br.upstream == into && br.downstream == from {
                                Some((*up, SimDuration::ZERO, br.cycle))
                            } else {
                                None
                            }
                        })
                        .ok_or_else(|| {
                            PiconetError(format!(
                                "chain {ci}: no bridge connects {apic}/{} to {bpic}/{}",
                                a.slave, b.slave
                            ))
                        })?;
                    push_sync_point(&mut sync_points, phase, cycle);
                    Some(window)
                };
                let flow = b.id;
                let next = HopNext::Forward {
                    stats: islands[apic.index()].chain_slot(ci as u32),
                    first: k == 0,
                    pic: bpic.0,
                    flow_idx: bidx.0,
                    flow,
                    window: bridge_window,
                };
                islands[apic.index()].set_route(aidx, next)?;
                islands[bpic.index()].world.flows[bidx.get()].relay_fed = true;
            }
            let (lpic, lidx) = *resolved.last().expect("at least two hops");
            let stats = islands[lpic.index()].chain_slot(ci as u32);
            islands[lpic.index()].set_route(lidx, HopNext::Terminal { stats })?;
        }

        // Pre-size the hot relay machinery of every island a chain
        // touches; then, with every island's hot state in place, reserve
        // the append-only sample buffers in one pass (see `IslandState`).
        let staging = staging_capacity(&sync_points);
        for st in &mut islands {
            st.arm_relays(staging);
        }
        for st in &mut islands {
            st.reserve_samples();
        }

        Ok(ScatternetSim {
            islands,
            index,
            chain_hops: chains.into_iter().map(|c| c.hops).collect(),
            sync_points,
            threads: 1,
            shuffle_seed: None,
            mutation: None,
            reference_queue: false,
        })
    }

    /// Sets the number of threads advancing islands in parallel (builder
    /// style). At run time the count is clamped to at least 1, to at most
    /// the piconet count, and to the host's available parallelism with a
    /// floor of 2 (so a parallel run still runs parallel code on a
    /// single-core host). Each thread owns one contiguous block of
    /// islands, balanced by flow count, for the whole run; reports are
    /// byte-identical across thread counts.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> ScatternetSim {
        self.threads = threads.max(1);
        self
    }

    /// Permutes the island visit order with a deterministic
    /// [`DetRng`]-driven shuffle (builder style). The order is what the
    /// thread blocks are cut from, so the shuffle also changes which
    /// thread owns which island. The reports depend on neither; this
    /// exists so equivalence tests can prove it.
    #[must_use]
    pub fn with_island_shuffle(mut self, seed: u64) -> ScatternetSim {
        self.shuffle_seed = Some(seed);
        self
    }

    /// Registers the traffic source of one flow (ACL or SCO voice),
    /// resolved through the global id space.
    ///
    /// # Errors
    ///
    /// Returns an error if the id is unknown, already has a source, or
    /// names a relay-fed hop (those are fed by the previous hop).
    pub fn add_source(&mut self, source: Box<dyn Source>) -> Result<(), PiconetError> {
        let id = source.flow();
        let (pic, target) = match self.index.get(id) {
            Some(Owner::Acl(pic, idx)) => {
                if self.islands[pic.index()].world.flows[idx.get()].relay_fed {
                    return Err(PiconetError(format!(
                        "flow {id} is relay-fed; it cannot also have a source"
                    )));
                }
                (pic, Target::Flow(idx.get()))
            }
            Some(Owner::Voice(pic, sco)) => (pic, Target::Sco(sco as usize)),
            None => return Err(PiconetError(format!("no flow {id} configured"))),
        };
        self.islands[pic.index()].world.add_source(source, target)
    }

    /// Runs the scatternet until `horizon` and returns the report.
    /// (Consuming `self` makes a second run unrepresentable.)
    ///
    /// # Errors
    ///
    /// Returns an error if a non-relay-fed flow lacks a source or a
    /// warm-up reaches past the horizon.
    pub fn run(self, horizon: SimTime) -> Result<ScatternetReport, PiconetError> {
        self.run_probed(horizon, horizon, &mut || {})
    }

    /// Runs to `horizon`, invoking `probe` at the first phase boundary at
    /// or after `checkpoint` and once more when the run loop finishes
    /// (before report assembly) — the bracketing hook of the
    /// zero-allocation gate. A checkpoint before the horizon is itself a
    /// boundary, so the first call comes exactly at `checkpoint`, with
    /// every island at that instant and every other thread waiting at the
    /// barrier. A checkpoint past the horizon is never reached and fires
    /// only the loop-end call; it never extends the run.
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`].
    pub fn run_probed(
        self,
        checkpoint: SimTime,
        horizon: SimTime,
        probe: &mut dyn FnMut(),
    ) -> Result<ScatternetReport, PiconetError> {
        let (report, ..) = if self.reference_queue {
            self.run_inner::<HeapEventQueue<Ev>, _>(checkpoint, horizon, probe, ())?
        } else {
            self.run_inner::<EventQueue<Ev>, _>(checkpoint, horizon, probe, ())?
        };
        Ok(report)
    }

    /// Runs every island on the binary-heap reference queue
    /// ([`HeapEventQueue`]) instead of the sorted buffer (builder style).
    /// Test-only: the differential tests demand byte-identical reports
    /// from both queues. Only [`run`](ScatternetSim::run) and
    /// [`run_probed`](ScatternetSim::run_probed) apply it; the sanitized,
    /// traced and observed runs always use the sorted buffer.
    #[doc(hidden)]
    #[must_use]
    pub fn with_reference_queue(mut self) -> ScatternetSim {
        self.reference_queue = true;
        self
    }

    /// Runs to `horizon` with the observability layer enabled: a
    /// deterministic structured trace (fixed-capacity per-track ring
    /// buffers, sim-time keyed — byte-identical across thread counts and
    /// claim orders) plus the pre-registered engine telemetry
    /// ([`TelemetryReport`](crate::TelemetryReport)). Plain
    /// [`run`](ScatternetSim::run) instantiates the engine without any of
    /// it (see the `hooks` module).
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`].
    pub fn run_observed(
        self,
        horizon: SimTime,
        cfg: ObsConfig,
    ) -> Result<ObservedRun, PiconetError> {
        self.run_observed_probed(horizon, horizon, &mut || {}, cfg, Vec::new())
    }

    /// [`run_observed`](ScatternetSim::run_observed) with the
    /// zero-allocation probe bracket of
    /// [`run_probed`](ScatternetSim::run_probed), plus optional per-event
    /// cost meters — one per island, in [`PiconetId`] order (or an empty
    /// vector for none). Meters receive a `begin`/`end(tag)` pair around
    /// every island event and are handed back on the
    /// [`ObservedRun`]; wall-clock meters live in the harness crates,
    /// keeping ambient time out of the simulation.
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`]; additionally rejects a meter vector
    /// whose length does not match the piconet count.
    pub fn run_observed_probed(
        self,
        checkpoint: SimTime,
        horizon: SimTime,
        probe: &mut dyn FnMut(),
        cfg: ObsConfig,
        meters: Vec<Box<dyn EventMeter>>,
    ) -> Result<ObservedRun, PiconetError> {
        if !meters.is_empty() && meters.len() != self.islands.len() {
            return Err(PiconetError(format!(
                "{} event meters for {} piconets (provide one per island, or none)",
                meters.len(),
                self.islands.len()
            )));
        }
        let observer = Observer::new(cfg, meters);
        let (report, counters, observer, islands) =
            self.run_inner::<EventQueue<Ev>, _>(checkpoint, horizon, probe, observer)?;
        Ok(observer.assemble(islands, &counters, report))
    }

    /// Runs to `horizon` with the causality sanitizer enabled: per-phase
    /// checks of lookahead safety, phase boundaries, staged-relay total
    /// order, queue FIFO and cross-island packet conservation (see the
    /// [`sanitizer`](crate::SanitizerCheck) docs). The engine halts at the
    /// end of the round that records the first finding, and the report of
    /// a run with any finding is withheld; a clean sanitized run returns a
    /// report **byte-identical** to the unsanitized run of the same
    /// configuration. Plain [`run`](ScatternetSim::run) instantiates the
    /// engine without any of this.
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`].
    pub fn run_sanitized(self, horizon: SimTime) -> Result<SanitizedRun, PiconetError> {
        let (report, sanitizer, islands) = self.run_mutated(horizon, Sanitizer::default())?;
        let sanitizer = sanitizer.into_report(islands);
        Ok(SanitizedRun {
            report: sanitizer.clean().then_some(report),
            sanitizer,
        })
    }

    /// Runs to `horizon` recording an event trace ([`TraceConfig`]):
    /// per-island rolling hashes for divergence search, or a bounded
    /// descriptor window for an aligned counterexample. The divergence
    /// bisector ([`crate::bisect_runs`]) drives two traced runs to the
    /// first diverging event.
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`].
    pub fn run_traced(
        self,
        horizon: SimTime,
        trace: TraceConfig,
    ) -> Result<(ScatternetReport, RunTrace), PiconetError> {
        let (report, _, islands) = self.run_mutated(horizon, Recorder::new(trace))?;
        let islands = islands
            .into_iter()
            .map(RecorderIsland::into_trace)
            .collect();
        Ok((report, RunTrace { islands }))
    }

    /// Seeds one deliberately broken engine variant (builder style).
    /// Test-only: the sanitizer-corpus tests prove each mutation is caught
    /// and localized; never part of a supported configuration. Only
    /// [`run_sanitized`](ScatternetSim::run_sanitized) and
    /// [`run_traced`](ScatternetSim::run_traced) apply it; every other run
    /// ignores it, so a plain run's engine cannot contain the mutation.
    #[doc(hidden)]
    #[must_use]
    pub fn with_mutation(mut self, mutation: EngineMutation) -> ScatternetSim {
        self.mutation = Some(mutation);
        self
    }

    /// Runs to `horizon` with `hooks`, wrapped in the seeded mutation when
    /// one is set, and hands back the report, the hooks and the island
    /// hooks in piconet order.
    fn run_mutated<H: EngineHooks>(
        self,
        horizon: SimTime,
        hooks: H,
    ) -> Result<(ScatternetReport, H, Vec<H::Island>), PiconetError> {
        let probe = &mut || {};
        match self.mutation {
            None => {
                let (report, _, hooks, islands) =
                    self.run_inner::<EventQueue<Ev>, _>(horizon, horizon, probe, hooks)?;
                Ok((report, hooks, islands))
            }
            Some(which) => {
                let mutated = Mutator::new(which, hooks);
                let (report, _, mutated, islands) =
                    self.run_inner::<EventQueue<Ev>, _>(horizon, horizon, probe, mutated)?;
                Ok((report, mutated.into_inner(), islands))
            }
        }
    }

    /// The shared run loop behind every public run: gives each island its
    /// event queue and seeds it, builds one island hook per piconet, lays
    /// islands and hooks out in visit order, splits them into per-thread
    /// blocks, runs the phase loop and assembles the report. Hands back the
    /// report, the engine counters, `hooks` and the island hooks in
    /// piconet order.
    #[allow(clippy::type_complexity)]
    fn run_inner<Q: PendingEvents<Ev> + Default + Send, H: EngineHooks>(
        self,
        checkpoint: SimTime,
        horizon: SimTime,
        probe: &mut dyn FnMut(),
        mut hooks: H,
    ) -> Result<(ScatternetReport, EngineCounters, H, Vec<H::Island>), PiconetError> {
        // `self` is consumed, so a sim cannot run twice by construction.
        for st in &self.islands {
            st.world.check_sources()?;
            st.world.check_horizon(horizon)?;
        }
        let mut islands: Vec<IslandSim<Q>> = self
            .islands
            .into_iter()
            .map(|st| {
                let mut island = Simulator::with_queue(st, Q::default());
                let (sched, st) = island.split_mut();
                st.world.horizon = horizon;
                seed_world(sched, &mut st.world);
                island
            })
            .collect();

        // The island visit order: identity, or a deterministic shuffle to
        // prove order independence. The islands and their hooks are laid
        // out in that order (by the shuffle's own swaps, undone in reverse
        // after the run), so the contiguous block each participant owns is
        // one slice of each.
        let n = islands.len();
        let mut island_hooks: Vec<H::Island> = (0..n).map(|pic| hooks.island(pic as u16)).collect();
        let swaps: Vec<(usize, usize)> = match self.shuffle_seed {
            Some(seed) => {
                let mut rng = DetRng::seed_from_u64(seed);
                (1..n)
                    .rev()
                    .map(|i| (i, rng.below(i as u64 + 1) as usize))
                    .collect()
            }
            None => Vec::new(),
        };
        for &(i, j) in &swaps {
            islands.swap(i, j);
            island_hooks.swap(i, j);
        }
        let mut pos_of = vec![0; n];
        for (pos, island) in islands.iter().enumerate() {
            pos_of[usize::from(island.state().pic)] = pos;
        }
        // Participants beyond the host's cores cannot run concurrently —
        // they only add barrier crossings and scheduler churn. Clamp to
        // the available parallelism, with a floor of two so a parallel run
        // still exercises the barrier on a single-core host. Reports are
        // thread-count-invariant, so the clamp never shows in results,
        // only in wall time. A one-thread run skips the host query.
        let participants = match self.threads.min(n) {
            0 | 1 => 1,
            t => t.min(
                std::thread::available_parallelism()
                    .map_or(usize::MAX, |c| c.get())
                    .max(2),
            ),
        };
        // Blocks balance flow counts, which track per-island event counts.
        let weights: Vec<usize> = islands
            .iter()
            .map(|island| island.state().world.table.len())
            .collect();
        let bounds = block_bounds(&weights, participants);
        let counters = run_phases(
            &mut islands,
            &mut island_hooks,
            &pos_of,
            &bounds,
            &self.sync_points,
            checkpoint,
            horizon,
            probe,
            &mut hooks,
        );
        for &(i, j) in swaps.iter().rev() {
            islands.swap(i, j);
            island_hooks.swap(i, j);
        }

        let mut chains: Vec<ChainReport> = self
            .chain_hops
            .into_iter()
            .map(|hops| ChainReport {
                hops,
                relayed_packets: 0,
                delivered_packets: 0,
                e2e: DelayStats::new(),
                residence: DelayStats::new(),
            })
            .collect();
        let mut piconets = Vec::with_capacity(islands.len());
        let mut events_processed = 0;
        for island in islands {
            let events = island.events_processed();
            events_processed += events;
            let st = island.into_state();
            for local in st.chain_stats {
                let report = &mut chains[local.chain as usize];
                report.relayed_packets += local.relayed;
                report.delivered_packets += local.delivered;
                report.e2e.merge(&local.e2e);
                report.residence.merge(&local.residence);
            }
            piconets.push(st.world.into_report(horizon, events));
        }
        let report = ScatternetReport {
            piconets,
            chains,
            events_processed,
            phases_run: counters.phases_run,
            barrier_rounds: counters.barrier_rounds,
            islands_claimed: counters.islands_claimed,
            relays_staged: counters.relays_staged,
            widening_stretches: 0,
            islands_skipped_idle: 0,
            relays_injected: counters.relays_injected,
        };
        Ok((report, counters, hooks, island_hooks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at_ms(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn next_start_after_is_strictly_after_t() {
        let phase = ms(3);
        let cycle = ms(10);
        // Before the anchor: the anchor itself is the first start.
        assert_eq!(next_start_after(SimTime::ZERO, phase, cycle), at_ms(3));
        // Exactly at the anchor: strictly after means one full cycle on.
        assert_eq!(next_start_after(at_ms(3), phase, cycle), at_ms(13));
        // Exactly on a later boundary: again strictly after.
        assert_eq!(next_start_after(at_ms(23), phase, cycle), at_ms(33));
        // Mid-cycle: the enclosing cycle's next start.
        assert_eq!(next_start_after(at_ms(17), phase, cycle), at_ms(23));
        // Zero phase anchors at the origin.
        assert_eq!(next_start_after(SimTime::ZERO, ms(0), cycle), at_ms(10));
    }

    #[test]
    fn next_start_after_is_on_grid_and_minimal() {
        // Property sweep: the result is strictly after t, lands on the
        // window grid, and no earlier grid point is strictly after t.
        for (phase_ms, cycle_ms) in [(0u64, 7u64), (3, 10), (9, 10), (5, 12), (11, 13)] {
            let phase = ms(phase_ms);
            let cycle = ms(cycle_ms);
            let anchor = SimTime::ZERO + phase;
            for t_ms in 0..200u64 {
                let t = at_ms(t_ms);
                let s = next_start_after(t, phase, cycle);
                assert!(s > t, "start {s} not after {t}");
                assert!(s >= anchor);
                let off = s - anchor;
                assert_eq!(
                    off.div_duration(cycle) * cycle,
                    off,
                    "start {s} off the ({phase_ms},{cycle_ms}) grid"
                );
                // Minimality: one cycle earlier is at or before t (the
                // anchor itself has no earlier grid point).
                if s != anchor {
                    assert!(s - cycle <= t);
                }
            }
        }
    }

    #[test]
    fn coincident_sync_points_merge() {
        let mut points = Vec::new();
        push_sync_point(&mut points, ms(3), ms(10));
        push_sync_point(&mut points, ms(3), ms(10)); // coincident window
        push_sync_point(&mut points, ms(5), ms(10)); // other phase
        push_sync_point(&mut points, ms(3), ms(20)); // other cycle
        let keys: Vec<(SimDuration, SimDuration)> =
            points.iter().map(|g| (g.phase, g.cycle)).collect();
        assert_eq!(
            keys,
            vec![(ms(3), ms(10)), (ms(5), ms(10)), (ms(3), ms(20))]
        );
    }

    /// Reference semantics of [`next_boundary`]: the minimum over every
    /// cap and every group's next start.
    fn naive_boundary(
        t: SimTime,
        checkpoint: SimTime,
        probed: bool,
        horizon: SimTime,
        pool_min: Option<SimTime>,
        groups: &[SyncPoint],
    ) -> SimTime {
        let mut candidates = vec![horizon];
        if !probed && checkpoint > t {
            candidates.push(checkpoint);
        }
        if let Some(p) = pool_min {
            candidates.push(p);
        }
        for g in groups {
            candidates.push(next_start_after(t, g.phase, g.cycle));
        }
        candidates
            .into_iter()
            .min()
            .expect("horizon is always there")
    }

    #[test]
    fn calendar_boundary_matches_naive_scan() {
        // A 3-group calendar (two coincident windows merged into one
        // group): the calendar walk must agree with the reference at every
        // probe time, before and after the probe checkpoint.
        let mut groups = Vec::new();
        push_sync_point(&mut groups, ms(3), ms(10));
        push_sync_point(&mut groups, ms(3), ms(10));
        push_sync_point(&mut groups, ms(5), ms(12));
        push_sync_point(&mut groups, ms(0), ms(7));
        let checkpoint = at_ms(100);
        let horizon = at_ms(180);
        for probed in [false, true] {
            for t_ms in 0..170u64 {
                let t = at_ms(t_ms);
                let pool_min = (t_ms % 3 == 0).then(|| t + ms(1 + t_ms % 17));
                let got = next_boundary(t, checkpoint, probed, horizon, pool_min, &groups);
                let want = naive_boundary(t, checkpoint, probed, horizon, pool_min, &groups);
                assert_eq!(
                    got, want,
                    "boundary diverged at t={t_ms}ms (probed {probed})"
                );
                assert!(got > t || got == horizon);
            }
        }
    }

    /// Round-robin over the present slaves' best-effort flows; idles until
    /// the first absent slave returns when none is present.
    #[derive(Default)]
    struct PresentRoundRobin {
        cursor: usize,
    }

    impl Poller for PresentRoundRobin {
        fn decide(&mut self, _now: SimTime, view: &crate::MasterView<'_>) -> crate::PollDecision {
            let slaves = view.slaves();
            for _ in 0..slaves.len() {
                let slave = slaves[self.cursor % slaves.len()];
                self.cursor += 1;
                if view.is_present(slave) {
                    return crate::PollDecision::Poll {
                        slave,
                        channel: btgs_baseband::LogicalChannel::BestEffort,
                    };
                }
            }
            match slaves.iter().map(|&s| view.next_present(s)).min() {
                Some(until) => crate::PollDecision::Idle { until },
                None => crate::PollDecision::Sleep,
            }
        }

        fn on_exchange(&mut self, _report: &crate::ExchangeReport) {}

        fn name(&self) -> &'static str {
            "present-round-robin"
        }
    }

    #[test]
    fn islands_keep_one_stats_entry_per_routed_chain() {
        use btgs_baseband::{AmAddr, Direction, IdealChannel, LogicalChannel, PacketType};
        use btgs_traffic::TraceSource;

        let s = |n| AmAddr::new(n).expect("valid slave address");
        let flow = |id, slave, dir| {
            crate::FlowSpec::new(FlowId(id), s(slave), dir, LogicalChannel::BestEffort)
        };
        let (up, down) = (Direction::SlaveToMaster, Direction::MasterToSlave);
        let piconet = |flows: Vec<crate::FlowSpec>| {
            flows.into_iter().fold(
                PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3]),
                PiconetConfig::with_flow,
            )
        };
        let bridge = |from: (u16, u8), into: (u16, u8)| BridgeSpec {
            upstream: ScopedSlave::new(PiconetId(from.0), s(from.1)),
            downstream: ScopedSlave::new(PiconetId(into.0), s(into.1)),
            cycle: ms(20),
            dwell_upstream: ms(10),
        };
        // Chain 0 stays in index order: P0 (master relay) -> P1. Chain 1
        // runs P2 -> P0 (master relay) -> P1, so island 2 carries chain 1
        // alone and islands 0 and 1 carry both, each over two routes on
        // island 0.
        let chains = [vec![11, 12, 13], vec![21, 22, 23, 24]];
        let config = ScatternetConfig {
            piconets: vec![
                piconet(vec![
                    flow(11, 1, up),
                    flow(12, 5, down),
                    flow(22, 7, up),
                    flow(23, 6, down),
                ]),
                piconet(vec![flow(13, 5, up), flow(24, 6, up)]),
                piconet(vec![flow(21, 7, down)]),
            ],
            bridges: vec![
                bridge((0, 5), (1, 5)),
                bridge((0, 6), (1, 6)),
                bridge((2, 7), (0, 7)),
            ],
            chains: chains
                .iter()
                .map(|hops| ChainSpec::new(hops.iter().map(|&id| FlowId(id)).collect()))
                .collect(),
        };
        let mut sim = ScatternetSim::new(
            config,
            (0..3)
                .map(|_| Box::new(PresentRoundRobin::default()) as Box<dyn Poller>)
                .collect(),
            (0..3)
                .map(|_| Box::new(IdealChannel) as Box<dyn ChannelModel>)
                .collect(),
        )
        .expect("valid scatternet");

        let routed: Vec<Vec<u32>> = sim
            .islands
            .iter()
            .map(|st| st.chain_stats.iter().map(|c| c.chain).collect())
            .collect();
        assert_eq!(routed, vec![vec![0, 1], vec![0, 1], vec![1]]);

        // Zero warm-up and traces that drain long before the horizon, so
        // every sample set covers the same packets.
        let mut rng = DetRng::seed_from_u64(19);
        for entry in [11, 21] {
            let mut t = SimTime::ZERO;
            let items = (0..30)
                .map(|_| {
                    t += SimDuration::from_micros(10_000 + rng.below(30_000));
                    (t, 100 + rng.below(250) as u32)
                })
                .collect();
            sim.add_source(Box::new(TraceSource::new(FlowId(entry), items)))
                .expect("entry hops take a source");
        }
        let owner = [[0, 0, 1].as_slice(), &[2, 0, 0, 1]];
        let report = sim.run(SimTime::from_secs(4)).expect("runs");
        for (ci, hops) in chains.iter().enumerate() {
            let chain = &report.chains[ci];
            assert_eq!(chain.delivered_packets, 30, "chain {ci}: all delivered");
            let hop_sum: u128 = hops
                .iter()
                .zip(owner[ci])
                .map(|(&id, &pic)| {
                    let hop = &report.piconets[pic].flow(FlowId(id)).delay;
                    assert_eq!(hop.count(), 30, "chain {ci}: hop {id} saw every packet");
                    hop.sum_nanos()
                })
                .sum();
            assert_eq!(
                chain.e2e.sum_nanos(),
                hop_sum + chain.residence.sum_nanos(),
                "chain {ci}: end-to-end must equal hop delays plus residence"
            );
        }
    }

    #[test]
    fn spin_barrier_survives_oversubscription() {
        // More waiters than the host has cores: every thread must still
        // clear every round (the backoff path keeps starved waiters from
        // spinning the releaser off the CPU).
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        let n = 4 * cores + 1;
        let rounds = 40;
        let barrier = std::sync::Arc::new(SpinBarrier::new(n));
        let hits = std::sync::Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..n)
            .map(|_| {
                let barrier = std::sync::Arc::clone(&barrier);
                let hits = std::sync::Arc::clone(&hits);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        // ord: Relaxed — a test tally; the final read is
                        // ordered by the joins below.
                        hits.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("barrier waiter panicked");
        }
        // ord: Relaxed — all writers joined above.
        assert_eq!(hits.load(Ordering::Relaxed), (n * rounds) as u64);
    }
}
