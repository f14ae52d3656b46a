//! The deterministic observability layer of the island engine.
//!
//! Three pillars, all in the `Observer` implementation of the engine's
//! hook traits (see the `hooks` module), the same seam as the causality
//! sanitizer. Plain [`run`](crate::ScatternetSim::run) instantiates the
//! engine with `()` instead, so no capture site is compiled into it and
//! the default path stays bit-and-allocation identical:
//!
//! * **structured tracing** — fixed-capacity ring buffers
//!   ([`TraceSink`]) of typed [`TraceRecord`]s: phase spans, island
//!   claims, relay stage/inject, and (optionally) every island event.
//!   Records are keyed by *sim-time* and a per-sink deterministic
//!   sequence — never wall time — so a merged [`EngineTrace`] is
//!   byte-identical across thread counts and claim orders. Export to
//!   Chrome/Perfetto JSON lives in the `btgs-obs` harness crate.
//!
//! * **engine telemetry** — a pre-registered, zero-allocation registry
//!   of counters and log₂ histograms ([`Histo32`]): phase width,
//!   relay-pool and event-queue occupancy, per-claim event batches and
//!   the per-poller decision mix, surfaced as a [`TelemetryReport`].
//!   Like `events_processed`, the report is *excluded* from
//!   cross-configuration byte-identity digests (it is about the engine,
//!   not the simulated system).
//!
//! * **per-event cost metering** — an [`EventMeter`] callback pair
//!   (`begin`/`end(tag)`) around every island event. The trait object
//!   is supplied by a harness (perfbench's per-island meter), which is
//!   where the wall-clock reads live; this crate never touches an ambient
//!   clock.
//!
//! Everything here is pre-sized at run start: ring buffers at their
//! configured capacity (overflow is *dropped and counted*, never
//! grown), histograms as fixed arrays. The zero-allocation gate
//! brackets an observed steady state to prove it.

use crate::hooks::{descriptor, EngineHooks, IslandHooks};
use crate::scatternet::{nanos_of, EngineCounters, PooledRelay};
use crate::sim::Ev;
use crate::ScatternetReport;
use btgs_des::{QueueOccupancy, SimTime};

/// Event-kind names, indexed by the tag byte (`TraceKind as u8`, see
/// [`TraceKind`](crate::TraceKind)) handed to [`EventMeter::end`] and
/// carried in fine-grained [`TraceRecord`]s (`arg0` of
/// [`TraceRecordKind::Event`]).
pub const EVENT_KIND_NAMES: &[&str] = &["arrival", "wake", "exchange_done", "sco_done", "relay"];

/// A fixed 32-bucket log₂ histogram: bucket `i` counts samples whose
/// value has bit length `i` (bucket 0 is exactly zero, the last bucket
/// absorbs everything ≥ 2³⁰). No allocation, `Copy`, mergeable — the
/// registry shape that survives the zero-allocation gate and the grid
/// wire format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Histo32 {
    /// Per-bucket sample counts (log₂ buckets, see the type docs).
    pub counts: [u64; 32],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values, saturating at `u64::MAX` (feeds
    /// [`Histo32::mean`] only — the buckets are the exact record).
    pub sum: u64,
}

impl Histo32 {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = (64 - u64::leading_zeros(v)).min(31) as usize;
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histo32) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The typed kind of one [`TraceRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceRecordKind {
    /// A coordinator phase `[t, b)`: `arg0` = islands run, `arg1` =
    /// staged-relay pool size at the boundary. Track 0.
    Phase = 0,
    /// One island claim `[previous boundary, b)`: `arg0` = events
    /// processed in the claim, `arg1` = event-queue live count after it.
    /// Track = piconet + 1.
    IslandRun = 1,
    /// A cross-island relay staged by this island (instant at its
    /// handoff): `arg0` = target piconet, `arg1` = packet sequence.
    RelayStage = 2,
    /// A staged relay injected by the coordinator (instant): `arg0` =
    /// target piconet, `arg1` = staging sequence. Track 0.
    RelayInject = 3,
    /// One island event (only with [`ObsConfig::fine_events`]):
    /// `arg0` = event-kind tag (see [`EVENT_KIND_NAMES`]), `arg1` =
    /// the kind's first descriptor argument.
    Event = 4,
}

impl TraceRecordKind {
    /// A stable lowercase name for exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceRecordKind::Phase => "phase",
            TraceRecordKind::IslandRun => "island_run",
            TraceRecordKind::RelayStage => "relay_stage",
            TraceRecordKind::RelayInject => "relay_inject",
            TraceRecordKind::Event => "event",
        }
    }
}

/// One trace record: a span (`start_ns < end_ns`) or an instant
/// (`start_ns == end_ns`) on a track, in sim-time nanoseconds. `Copy`
/// and fixed-size, so recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Span start (or instant) in sim-time nanoseconds.
    pub start_ns: u64,
    /// Span end in sim-time nanoseconds (equal to `start_ns` for
    /// instants).
    pub end_ns: u64,
    /// The originating sink's monotone per-record sequence — with
    /// `track` it makes the merged sort key unique.
    pub seq: u64,
    /// Track: 0 is the coordinator, island tracks are piconet + 1.
    pub track: u16,
    /// What the record describes.
    pub kind: TraceRecordKind,
    /// Kind-specific argument (see [`TraceRecordKind`]).
    pub arg0: u64,
    /// Kind-specific argument (see [`TraceRecordKind`]).
    pub arg1: u64,
}

/// A fixed-capacity trace ring: pre-allocated at run start, drops (and
/// counts) records past capacity rather than growing — recording on the
/// hot path never allocates.
struct TraceSink {
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
    seq: u64,
}

impl TraceSink {
    fn new(capacity: usize) -> TraceSink {
        TraceSink {
            records: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            seq: 0,
        }
    }

    fn push(
        &mut self,
        start_ns: u64,
        end_ns: u64,
        track: u16,
        kind: TraceRecordKind,
        arg0: u64,
        arg1: u64,
    ) {
        if self.records.len() == self.capacity {
            self.dropped += 1;
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.records.push(TraceRecord {
            start_ns,
            end_ns,
            seq,
            track,
            kind,
            arg0,
            arg1,
        });
    }
}

/// Configuration of an observed run
/// ([`run_observed`](crate::ScatternetSim::run_observed)).
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Capacity of each trace ring (one per island plus the
    /// coordinator's). Overflow is dropped and counted, never grown.
    pub ring_capacity: usize,
    /// Record a [`TraceRecordKind::Event`] instant for every island
    /// event (fine-grained; the dominant trace volume when on).
    pub fine_events: bool,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            ring_capacity: 1 << 16,
            fine_events: false,
        }
    }
}

/// A per-event cost meter: `begin` is called before each island event's
/// handler, `end` after it with the event-kind tag (index into
/// [`EVENT_KIND_NAMES`]). Implementations live in the harness crates —
/// that is where wall-clock reads are allowed — and travel into worker
/// threads, hence `Send`.
pub trait EventMeter: Send {
    /// Called immediately before an event handler runs.
    fn begin(&mut self);
    /// Called after the handler returned, with the event's kind tag.
    fn end(&mut self, tag: u8);
    /// Reflective escape hatch: recovers the concrete meter type from
    /// the boxed meters an [`ObservedRun`] hands back.
    fn as_any(&self) -> &dyn core::any::Any;
}

/// The merged structured trace of an observed run: records sorted by
/// `(start_ns, track, seq)` — a total order independent of thread
/// count and claim order — plus the global overflow count.
#[derive(Debug, Default)]
pub struct EngineTrace {
    /// All records, in the deterministic merged order.
    pub records: Vec<TraceRecord>,
    /// Records dropped across all rings (capacity overflow).
    pub dropped: u64,
}

/// The pre-registered engine telemetry of one observed run. Excluded
/// from cross-configuration byte-identity digests (the
/// `events_processed` precedent): it describes the *engine*, not the
/// simulated system, and may legitimately vary with the thread count.
/// Fixed size and `Copy`, so carrying it through the grid aggregator
/// allocates nothing per cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Total events processed across all islands.
    pub events_processed: u64,
    /// Coordinator phases run.
    pub phases_run: u64,
    /// Barrier round-trips (parallel engine only).
    pub barrier_rounds: u64,
    /// Island claims executed.
    pub islands_claimed: u64,
    /// Cross-island relays staged.
    pub relays_staged: u64,
    /// Cross-island relays injected.
    pub relays_injected: u64,
    /// Always 0 (see [`ScatternetReport::widening_stretches`]); kept
    /// because the grid wire format carries it.
    pub widening_stretches: u64,
    /// Always 0 (see [`ScatternetReport::islands_skipped_idle`]); kept
    /// because the grid wire format carries it.
    pub islands_skipped_idle: u64,
    /// GS (guaranteed-service) polls that moved data.
    pub gs_polls_successful: u64,
    /// GS polls that moved none.
    pub gs_polls_unsuccessful: u64,
    /// Best-effort polls that moved data.
    pub be_polls_successful: u64,
    /// Best-effort polls that moved none.
    pub be_polls_unsuccessful: u64,
    /// Phase widths in nanoseconds.
    pub phase_width_ns: Histo32,
    /// Staged-relay pool size at each phase boundary.
    pub relay_pool: Histo32,
    /// Island event-queue live-event count after each claim. (The
    /// `wheel_` names predate the sorted buffer; the grid wire format and
    /// benchmark metrics carry them.)
    pub wheel_pending: Histo32,
    /// Island event-queue stored entries after each claim. The production
    /// queue stores exactly its live events, so this equals
    /// `wheel_pending` there; only the heap reference also stores
    /// replaced timer events not yet dropped. It stays because the grid
    /// wire format and the benchmark metrics carry it.
    pub wheel_near: Histo32,
    /// Events processed per island claim.
    pub events_per_claim: Histo32,
    /// Trace records dropped (ring-capacity overflow).
    pub trace_dropped: u64,
}

impl TelemetryReport {
    /// Folds another shard's telemetry into this one (grid
    /// aggregation).
    pub fn merge(&mut self, other: &TelemetryReport) {
        self.events_processed += other.events_processed;
        self.phases_run += other.phases_run;
        self.barrier_rounds += other.barrier_rounds;
        self.islands_claimed += other.islands_claimed;
        self.relays_staged += other.relays_staged;
        self.relays_injected += other.relays_injected;
        self.widening_stretches += other.widening_stretches;
        self.islands_skipped_idle += other.islands_skipped_idle;
        self.gs_polls_successful += other.gs_polls_successful;
        self.gs_polls_unsuccessful += other.gs_polls_unsuccessful;
        self.be_polls_successful += other.be_polls_successful;
        self.be_polls_unsuccessful += other.be_polls_unsuccessful;
        self.phase_width_ns.merge(&other.phase_width_ns);
        self.relay_pool.merge(&other.relay_pool);
        self.wheel_pending.merge(&other.wheel_pending);
        self.wheel_near.merge(&other.wheel_near);
        self.events_per_claim.merge(&other.events_per_claim);
        self.trace_dropped += other.trace_dropped;
    }
}

/// Everything an observed run returns
/// ([`run_observed`](crate::ScatternetSim::run_observed)): the ordinary
/// report (byte-identical to an unobserved run), the telemetry, the
/// merged trace and the per-event meters handed back to the harness.
pub struct ObservedRun {
    /// The ordinary run report — byte-identical to the unobserved run
    /// of the same configuration.
    pub report: ScatternetReport,
    /// The engine telemetry registry.
    pub telemetry: TelemetryReport,
    /// The merged structured trace.
    pub trace: EngineTrace,
    /// The per-event meters passed in, in piconet order (empty when
    /// none were supplied).
    pub meters: Vec<Box<dyn EventMeter>>,
}

/// Per-island observability state: the island's own trace ring, its
/// queue and claim histograms, and its optional event meter. It rides
/// with the island on its owner thread, so parallel claims cannot
/// interleave records.
pub(crate) struct IslandObs {
    sink: TraceSink,
    fine: bool,
    track: u16,
    prev_b_ns: u64,
    events_in_claim: u64,
    last_tag: u8,
    meter: Option<Box<dyn EventMeter>>,
    wheel_pending: Histo32,
    wheel_near: Histo32,
    events_per_claim: Histo32,
}

impl IslandHooks for IslandObs {
    fn on_event(&mut self, t: SimTime, ev: &Ev) {
        let (kind, a, _) = descriptor(ev);
        self.events_in_claim += 1;
        self.last_tag = kind as u8;
        if self.fine {
            let t_ns = nanos_of(t);
            self.sink.push(
                t_ns,
                t_ns,
                self.track,
                TraceRecordKind::Event,
                kind as u8 as u64,
                a,
            );
        }
        if let Some(m) = self.meter.as_mut() {
            m.begin();
        }
    }

    fn after_event(&mut self) {
        if let Some(m) = self.meter.as_mut() {
            m.end(self.last_tag);
        }
    }

    fn on_staged(&mut self, target: u16, _flow_idx: u32, at: SimTime, seq: u64) {
        let at_ns = nanos_of(at);
        self.sink.push(
            at_ns,
            at_ns,
            self.track,
            TraceRecordKind::RelayStage,
            u64::from(target),
            seq,
        );
    }

    fn on_island_ran(&mut self, b: SimTime, occ: QueueOccupancy) {
        let b_ns = nanos_of(b);
        let (live, near) = (occ.live as u64, occ.near as u64);
        self.sink.push(
            self.prev_b_ns,
            b_ns,
            self.track,
            TraceRecordKind::IslandRun,
            self.events_in_claim,
            live,
        );
        self.wheel_pending.record(live);
        self.wheel_near.record(near);
        self.events_per_claim.record(self.events_in_claim);
        self.events_in_claim = 0;
        self.prev_b_ns = b_ns;
    }
}

/// The observability hooks: coordinator-side phase spans, injections and
/// engine-shape histograms, plus one [`IslandObs`] per island. Only ever
/// touched by the coordinating thread (between barrier rounds in the
/// parallel engine), so its record order is thread-count-invariant.
pub(crate) struct Observer {
    cfg: ObsConfig,
    /// The caller's meters, handed out in piconet order (none left means
    /// no meter).
    meters: std::vec::IntoIter<Box<dyn EventMeter>>,
    sink: TraceSink,
    phase_width_ns: Histo32,
    relay_pool: Histo32,
}

impl Observer {
    pub(crate) fn new(cfg: ObsConfig, meters: Vec<Box<dyn EventMeter>>) -> Observer {
        Observer {
            cfg,
            meters: meters.into_iter(),
            sink: TraceSink::new(cfg.ring_capacity),
            phase_width_ns: Histo32::default(),
            relay_pool: Histo32::default(),
        }
    }

    /// Merges the coordinator's and every island's sinks (`islands` in
    /// piconet order) into the final [`EngineTrace`], assembles the
    /// [`TelemetryReport`] from the engine counters, the report's poll mix
    /// and the registered histograms, and hands the meters back.
    pub(crate) fn assemble(
        self,
        islands: Vec<IslandObs>,
        counters: &EngineCounters,
        report: ScatternetReport,
    ) -> ObservedRun {
        let mut telemetry = TelemetryReport {
            events_processed: report.events_processed,
            phases_run: counters.phases_run,
            barrier_rounds: counters.barrier_rounds,
            islands_claimed: counters.islands_claimed,
            relays_staged: counters.relays_staged,
            relays_injected: counters.relays_injected,
            phase_width_ns: self.phase_width_ns,
            relay_pool: self.relay_pool,
            ..TelemetryReport::default()
        };
        for p in &report.piconets {
            telemetry.gs_polls_successful += p.gs_polls.successful;
            telemetry.gs_polls_unsuccessful += p.gs_polls.unsuccessful;
            telemetry.be_polls_successful += p.be_polls.successful;
            telemetry.be_polls_unsuccessful += p.be_polls.unsuccessful;
        }

        let mut dropped = self.sink.dropped;
        let mut records = self.sink.records;
        let mut meters = Vec::new();
        for island in islands {
            dropped += island.sink.dropped;
            records.extend_from_slice(&island.sink.records);
            telemetry.wheel_pending.merge(&island.wheel_pending);
            telemetry.wheel_near.merge(&island.wheel_near);
            telemetry.events_per_claim.merge(&island.events_per_claim);
            if let Some(m) = island.meter {
                meters.push(m);
            }
        }
        telemetry.trace_dropped = dropped;
        // analyze: allow(unstable-sort): the key `(start_ns, track, seq)` is
        // provably unique — `track` identifies the originating sink and `seq`
        // is that sink's monotone per-record counter, so no two records
        // compare equal.
        records.sort_unstable_by_key(|r| (r.start_ns, r.track, r.seq));
        ObservedRun {
            report,
            telemetry,
            trace: EngineTrace { records, dropped },
            meters,
        }
    }
}

impl EngineHooks for Observer {
    type Island = IslandObs;

    fn island(&mut self, pic: u16) -> IslandObs {
        IslandObs {
            sink: TraceSink::new(self.cfg.ring_capacity),
            fine: self.cfg.fine_events,
            track: pic + 1,
            prev_b_ns: 0,
            events_in_claim: 0,
            last_tag: 0,
            meter: self.meters.next(),
            wheel_pending: Histo32::default(),
            wheel_near: Histo32::default(),
            events_per_claim: Histo32::default(),
        }
    }

    /// Records one closed phase: the `[t, b]` slice, the islands run and
    /// the post-collect relay pool occupancy. Every argument is derived
    /// from thread-count-invariant engine state, so the recorded trace is
    /// byte-identical across 1/2/4 threads and island orders.
    fn on_phase(&mut self, t: SimTime, b: SimTime, islands: u64, pool_len: usize) {
        let t_ns = nanos_of(t);
        let b_ns = nanos_of(b);
        self.sink.push(
            t_ns,
            b_ns,
            0,
            TraceRecordKind::Phase,
            islands,
            pool_len as u64,
        );
        self.phase_width_ns.record(b_ns - t_ns);
        self.relay_pool.record(pool_len as u64);
    }

    /// Records one dealt relay (target island and staging sequence).
    fn on_dealt(&mut self, t: SimTime, p: &PooledRelay) {
        let t_ns = nanos_of(t);
        self.sink.push(
            t_ns,
            t_ns,
            0,
            TraceRecordKind::RelayInject,
            u64::from(p.relay.pic),
            p.seq,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histo_buckets_are_log2() {
        let mut h = Histo32::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1 << 20);
        h.record(u64::MAX);
        assert_eq!(h.counts[0], 1); // zero
        assert_eq!(h.counts[1], 1); // 1
        assert_eq!(h.counts[2], 2); // 2, 3
        assert_eq!(h.counts[21], 1); // 2^20
        assert_eq!(h.counts[31], 1); // clamp
        assert_eq!(h.count, 6);
    }

    #[test]
    fn histo_merge_adds() {
        let mut a = Histo32::default();
        let mut b = Histo32::default();
        a.record(5);
        b.record(5);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 19);
    }

    #[test]
    fn sink_drops_past_capacity_and_counts() {
        let mut s = TraceSink::new(2);
        for i in 0..5 {
            s.push(i, i, 0, TraceRecordKind::Phase, 0, 0);
        }
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.records[1].seq, 1);
    }
}
