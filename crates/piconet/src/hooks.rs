//! The island engine's instrumentation seam: two hook traits, every
//! method a no-op by default.
//!
//! [`ScatternetSim`](crate::ScatternetSim)'s round loop is generic over
//! one [`EngineHooks`] implementation, which runs on the coordinator and
//! builds one [`IslandHooks`] per island; each island's hooks ride with it
//! on its owner thread. The engine is monomorphised per implementation:
//!
//! * `()` — plain [`run`](crate::ScatternetSim::run). Every hook inlines
//!   to nothing and the per-island hook vector is zero-sized, so the
//!   production engine carries no instrumentation and allocates nothing
//!   for it. The compiler, not a convention, keeps it that way;
//! * `Sanitizer` — the causality checks of
//!   [`run_sanitized`](crate::ScatternetSim::run_sanitized);
//! * `Recorder` — the bisector's event hashes and capture windows
//!   ([`run_traced`](crate::ScatternetSim::run_traced));
//! * `Observer` — trace rings, telemetry and per-event meters
//!   ([`run_observed`](crate::ScatternetSim::run_observed));
//! * `Mutator<H>` — one seeded [`EngineMutation`](crate::EngineMutation)
//!   around a sanitizer or recorder, forwarding every hook it does not
//!   corrupt. Only the sanitized and traced runs instantiate it.
//!
//! Hooks observe; none of them changes a report byte. The mutator is the
//! one deliberate exception, and plain runs never see it.

use crate::sanitizer::TraceKind;
use crate::scatternet::{nanos_of, PooledRelay};
use crate::sim::Ev;
use btgs_des::{QueueOccupancy, SimTime};

/// Per-island hooks, called by the island's owner thread around every
/// event, relay scheduling, injection and run.
pub(crate) trait IslandHooks: Send {
    /// Before the handler of event `ev` runs, with the island clock at `t`.
    fn on_event(&mut self, _t: SimTime, _ev: &Ev) {}

    /// After the handler (and the capture routing) of the last event
    /// returned.
    fn after_event(&mut self) {}

    /// A relay was scheduled into this island's own queue at `at`: a
    /// master relay, or an injection from the pool.
    fn on_scheduled_relay(&mut self, _at: SimTime, _flow_idx: u32, _seq: u64) {}

    /// A pooled relay with handoff `at` is about to be injected while the
    /// island clock reads `now`.
    fn on_inject(&mut self, _at: SimTime, _now: SimTime) {}

    /// The island staged a relay for piconet `target`, handoff `at`.
    fn on_staged(&mut self, _target: u16, _flow_idx: u32, _at: SimTime, _seq: u64) {}

    /// The island ran to the phase boundary `b`, leaving `occ` queued.
    fn on_island_ran(&mut self, _b: SimTime, _occ: QueueOccupancy) {}
}

/// Coordinator hooks: the round loop's view of boundaries, the relay pool
/// and the deal, plus the factory of the per-island hooks.
pub(crate) trait EngineHooks {
    /// The hooks each island carries.
    type Island: IslandHooks;

    /// Builds the hooks of piconet `pic`. Called once per island, in
    /// piconet order, before the run.
    fn island(&mut self, pic: u16) -> Self::Island;

    /// `true` stops the run after the current round's collection.
    fn halted(&self) -> bool {
        false
    }

    /// `true` replaces boundary `b` by the next one after it.
    fn skip_boundary(
        &mut self,
        _b: SimTime,
        _checkpoint: SimTime,
        _probed: bool,
        _horizon: SimTime,
        _pool_min: Option<SimTime>,
    ) -> bool {
        false
    }

    /// A staged relay was merged into the pool at boundary `b`.
    fn on_collected(&mut self, _b: SimTime, _p: &PooledRelay) {}

    /// The pool was just sorted (minimum key last).
    fn on_sorted(&mut self, _pool: &mut Vec<PooledRelay>) {}

    /// The phase `[t, b]` closed with `islands` run and `pool_len` relays
    /// pooled.
    fn on_phase(&mut self, _t: SimTime, _b: SimTime, _islands: u64, _pool_len: usize) {}

    /// A relay to add to the pool at boundary `t`, before it is sorted.
    fn release_due(&mut self, _t: SimTime) -> Option<PooledRelay> {
        None
    }

    /// A due relay about to be dealt; `None` withholds it.
    fn intercept(&mut self, p: PooledRelay) -> Option<PooledRelay> {
        Some(p)
    }

    /// A relay was dealt to its target's owner at round clock `t`.
    fn on_dealt(&mut self, _t: SimTime, _p: &PooledRelay) {}

    /// The relays still pooled when the run ended.
    fn on_leftovers(&mut self, _pool: &[PooledRelay]) {}
}

impl IslandHooks for () {}

impl EngineHooks for () {
    type Island = ();

    fn island(&mut self, _pic: u16) {}
}

/// The `(kind, a, b)` descriptor of an island event, as hashed by
/// the bisector and recorded by the tracer: enough to identify the event
/// without storing packets.
pub(crate) fn descriptor(ev: &Ev) -> (TraceKind, u64, u64) {
    match ev {
        Ev::Arrival { source_idx, pkt } => (TraceKind::Arrival, *source_idx as u64, pkt.seq),
        Ev::Wake => (TraceKind::Wake, 0, 0),
        Ev::ExchangeDone => (TraceKind::ExchangeDone, 0, 0),
        Ev::ScoDone { sco_idx, start } => (TraceKind::ScoDone, *sco_idx as u64, nanos_of(*start)),
        Ev::Relay { flow_idx, pkt } => (TraceKind::Relay, *flow_idx as u64, pkt.seq),
    }
}
