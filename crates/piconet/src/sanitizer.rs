//! The runtime causality sanitizer and divergence bisector of the island
//! engine.
//!
//! The conservative PDES engine in [`scatternet`](crate::ScatternetSim)
//! rests on a lookahead argument: staged cross-island relays are injected
//! exactly when the global round clock reaches their handoff instant, at
//! which point the target island has provably processed every own event at
//! that instant. Until this module, that argument was only validated
//! end-to-end — a diverging report said *something* broke, with no way to
//! localize the first bad event. This module adds:
//!
//! * a **sanitizer** ([`ScatternetSim::run_sanitized`]): per-phase runtime
//!   checks of the causality invariants —
//!   - *lookahead safety*: every injected relay's timestamp is at or after
//!     the target island's local clock;
//!   - *phase boundary*: no phase runs past a boundary that a staged
//!     relay lands on (every relay collected at boundary `b` has handoff
//!     `>= b`);
//!   - *injection order*: the staged-relay `(handoff, source, sequence)`
//!     keys are strictly increasing across the whole run;
//!   - *queue FIFO* (reported as `wheel-fifo`): relays scheduled into an
//!     island's event queue fire in scheduling order within each
//!     timestamp, and the island's event times are monotone;
//!   - *conservation*: every relay staged is injected exactly once (per
//!     target flow: staged = injected + still-pooled at the horizon).
//!
//!   The checks are one implementation of the engine's hook traits (see
//!   the `hooks` module): `Sanitizer` on the coordinator, one
//!   `SanitizerIsland` per island on its owner thread, where the
//!   lookahead check runs at injection. Plain
//!   [`run`](crate::ScatternetSim::run) instantiates the engine with `()`
//!   instead, so the sanitizer is not compiled into it — the
//!   zero-allocation gate and the steady-state benches see the exact
//!   production code. A sanitized run halts at the end of the round that
//!   raised its first finding, so a broken engine cannot cascade into
//!   queue panics before the violation is reported, and the report of a
//!   run with any finding is withheld; a clean sanitized run returns a
//!   report byte-identical to the unsanitized one.
//!
//! * a **divergence bisector** ([`bisect_runs`]): given two engine
//!   configurations that must be byte-identical (threads 1 vs N, a
//!   shuffled claim order — or a seeded [`EngineMutation`]), run both
//!   with per-island rolling event hashes (the `Recorder` hooks),
//!   binary-search each island's hash sequence to its first diverging
//!   event, pick the earliest across islands, then re-run with a bounded
//!   capture window around that index and print a minimal aligned trace
//!   (island, time, event kind, hash prefix). "Reports differ" becomes an
//!   actionable counterexample.
//!
//! * a **seeded-mutation corpus** ([`EngineMutation`]): deliberately broken
//!   engine variants (off-by-one boundary walk, relay injected behind the
//!   clock, unsorted staging drain, dropped relay, duplicated relay),
//!   each a `Mutator` wrapped around the sanitizer or recorder hooks, used
//!   by `crates/piconet/tests/sanitizer_mutations.rs` to prove every
//!   mutation is caught by the sanitizer *and* localized by the
//!   bisector, and never reaches a plain run; `tests/sanitizer_corpus.rs`
//!   proves the clean engine reports zero findings.

use crate::config::PiconetError;
use crate::hooks::{descriptor, EngineHooks, IslandHooks};
use crate::scatternet::{nanos_of, PooledRelay};
use crate::sim::Ev;
use crate::ScatternetSim;
use btgs_des::SimTime;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which causality invariant a [`SanitizerFinding`] violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SanitizerCheck {
    /// An injected relay's timestamp was behind the target island's clock.
    LookaheadSafety,
    /// A phase ran past a boundary that a staged relay lands on.
    PhaseBoundary,
    /// The staged-relay total order was violated at injection.
    InjectionOrder,
    /// Relays fired out of scheduling order within a timestamp, or an
    /// island's event times went backwards.
    WheelFifo,
    /// A staged relay was dropped, duplicated, or otherwise unaccounted
    /// for across islands.
    Conservation,
}

impl fmt::Display for SanitizerCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SanitizerCheck::LookaheadSafety => "lookahead-safety",
            SanitizerCheck::PhaseBoundary => "phase-boundary",
            SanitizerCheck::InjectionOrder => "injection-order",
            SanitizerCheck::WheelFifo => "wheel-fifo",
            SanitizerCheck::Conservation => "conservation",
        })
    }
}

/// One causality violation found by the sanitizer.
#[derive(Clone, Debug)]
pub struct SanitizerFinding {
    /// The violated invariant.
    pub check: SanitizerCheck,
    /// The island the violation surfaced on (the target island for
    /// injection checks, `u16::MAX` for run-global findings).
    pub island: u16,
    /// Simulated instant of the violation ([`SimTime::MAX`] for end-of-run
    /// reconciliation findings).
    pub at: SimTime,
    /// Human-readable description with the violating values.
    pub message: String,
}

impl fmt::Display for SanitizerFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.island == u16::MAX {
            write!(f, "[{}] {}", self.check, self.message)
        } else {
            write!(
                f,
                "[{}] island {} at {}: {}",
                self.check, self.island, self.at, self.message
            )
        }
    }
}

/// The outcome of the sanitizer side of one sanitized run.
#[derive(Clone, Debug, Default)]
pub struct SanitizerReport {
    /// Every violation found, coordinator findings first, then per-island
    /// findings in piconet order. Empty for a clean engine.
    pub findings: Vec<SanitizerFinding>,
    /// Island events the per-island sanitizer hooks checked.
    pub events_checked: u64,
    /// Cross-island relays tracked through stage → pool → injection.
    pub relays_tracked: u64,
    /// Relays still pooled at run end — handoffs past the horizon, which
    /// can never fire. A clean run conserves staged relays exactly:
    /// `relays_staged == relays_injected + relays_leftover`.
    pub relays_leftover: u64,
}

impl SanitizerReport {
    /// `true` when no invariant was violated.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A sanitized run: the report (withheld when the sanitizer halted the
/// engine at a finding) plus the sanitizer's verdict.
#[derive(Debug)]
pub struct SanitizedRun {
    /// The scatternet report — `None` when the run halted at a finding.
    /// A clean sanitized run's report is byte-identical to the
    /// unsanitized run of the same configuration.
    pub report: Option<crate::ScatternetReport>,
    /// The sanitizer's findings and counters.
    pub sanitizer: SanitizerReport,
}

/// Deliberately broken engine variants for the sanitizer's self-test
/// corpus. Test-only: not part of the supported API surface.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMutation {
    /// The boundary walk skips every needed calendar start and takes the
    /// next one instead (pending-injection caps still honored).
    BoundaryOffByOne,
    /// The first due relay is withheld a round and injected one boundary
    /// late — behind the target island's clock.
    RelayBehindClock,
    /// The staging-drain sort breaks its sequence tie-break, so
    /// same-instant same-source relays inject in reverse staging order.
    UnsortedStagingDrain,
    /// One collected relay is silently dropped from the coordinator pool.
    DroppedRelay,
    /// One collected relay is duplicated in the coordinator pool.
    DuplicatedRelay,
}

impl EngineMutation {
    /// Every corpus mutation, in a fixed order.
    #[doc(hidden)]
    pub const ALL: [EngineMutation; 5] = [
        EngineMutation::BoundaryOffByOne,
        EngineMutation::RelayBehindClock,
        EngineMutation::UnsortedStagingDrain,
        EngineMutation::DroppedRelay,
        EngineMutation::DuplicatedRelay,
    ];

    /// Stable corpus name (used by test output).
    #[doc(hidden)]
    pub fn name(&self) -> &'static str {
        match self {
            EngineMutation::BoundaryOffByOne => "boundary-off-by-one",
            EngineMutation::RelayBehindClock => "relay-behind-clock",
            EngineMutation::UnsortedStagingDrain => "unsorted-staging-drain",
            EngineMutation::DroppedRelay => "dropped-relay",
            EngineMutation::DuplicatedRelay => "duplicated-relay",
        }
    }
}

/// Event kinds as they appear in traces (mirrors the island event enum).
/// The discriminant is the kind's tag byte, and
/// [`EVENT_KIND_NAMES`](crate::EVENT_KIND_NAMES) names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A source packet arrival.
    Arrival,
    /// A master wake/re-evaluation.
    Wake,
    /// An ACL exchange completion.
    ExchangeDone,
    /// An SCO reservation completion.
    ScoDone,
    /// A relayed packet landing in a flow queue.
    Relay,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(crate::EVENT_KIND_NAMES[*self as usize])
    }
}

/// One traced island event, captured inside a bisection window.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// 0-based ordinal of the event within its island's run.
    pub index: u64,
    /// The event's simulated instant.
    pub at: SimTime,
    /// The event kind.
    pub kind: TraceKind,
    /// Kind-specific identity (source index, SCO index, or flow index).
    pub a: u64,
    /// Kind-specific payload (packet sequence number, or instant nanos).
    pub b: u64,
    /// The island's rolling event hash *after* this event.
    pub hash: u64,
}

/// What a traced run records.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceConfig {
    /// Record the full per-island rolling-hash and event-time sequences
    /// (the bisector's first pass).
    pub hashes: bool,
    /// Capture full event descriptors inside one island's index window
    /// (the bisector's second pass — the bounded "ring buffer" around a
    /// suspected divergence).
    pub window: Option<TraceWindow>,
}

impl TraceConfig {
    /// Hash-only capture across every island.
    pub fn hashes() -> TraceConfig {
        TraceConfig {
            hashes: true,
            window: None,
        }
    }

    /// Descriptor capture for `len` events of `island` starting at event
    /// ordinal `start`.
    pub fn window(island: u16, start: u64, len: u64) -> TraceConfig {
        TraceConfig {
            hashes: false,
            window: Some(TraceWindow { island, start, len }),
        }
    }
}

/// A bounded descriptor-capture window (see [`TraceConfig::window`]).
#[derive(Clone, Copy, Debug)]
pub struct TraceWindow {
    /// The island to capture.
    pub island: u16,
    /// First captured event ordinal.
    pub start: u64,
    /// Number of events to capture.
    pub len: u64,
}

/// The trace of one island across one run.
#[derive(Clone, Debug, Default)]
pub struct IslandTrace {
    /// Rolling event hash after each event (empty unless
    /// [`TraceConfig::hashes`]).
    pub hashes: Vec<u64>,
    /// Event time (nanos) of each event (parallel to `hashes`).
    pub times: Vec<u64>,
    /// Captured descriptors (empty unless a [`TraceWindow`] selected this
    /// island).
    pub window: Vec<TraceEvent>,
    /// Total events the island processed (valid in every mode).
    pub events: u64,
}

/// The traces of every island across one run, in piconet order.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// Per-island traces.
    pub islands: Vec<IslandTrace>,
}

/// FNV-1a-style fold of one word into a rolling hash.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// The rolling hash after an event `(t, kind, a, b)` on top of `h`.
#[inline]
pub(crate) fn event_hash(h: u64, t_nanos: u64, kind: TraceKind, a: u64, b: u64) -> u64 {
    mix(mix(mix(mix(h, t_nanos), kind as u64), a), b)
}

/// Per-island sanitizer state: the checks an island's owner can make
/// alone (event-time monotonicity, queue FIFO, lookahead safety at
/// injection) and its staging counts for the end-of-run conservation
/// reconciliation.
pub(crate) struct SanitizerIsland {
    pic: u16,
    tripped: Arc<AtomicBool>,
    findings: Vec<SanitizerFinding>,
    /// Monotone-clock watermark: the last handled event's instant.
    last_event: Option<SimTime>,
    /// Queue-FIFO expectations: event-time nanos → FIFO of
    /// `(flow_idx, packet seq)` in scheduling order.
    expect: BTreeMap<u64, VecDeque<(u32, u64)>>,
    /// Cross-island relays this island staged, per target flow
    /// (`(target piconet, flow_idx)`), counted at staging time.
    staged_by_flow: BTreeMap<(u16, u32), u64>,
    events: u64,
}

impl SanitizerIsland {
    fn report(&mut self, check: SanitizerCheck, at: SimTime, message: String) {
        self.findings.push(SanitizerFinding {
            check,
            island: self.pic,
            at,
            message,
        });
        // ord: Relaxed — a best-effort halt flag the coordinator polls
        // between rounds; the findings themselves are read only after the
        // engine's locks/joins, which order them.
        self.tripped.store(true, Ordering::Relaxed);
    }
}

impl IslandHooks for SanitizerIsland {
    fn on_event(&mut self, t: SimTime, ev: &Ev) {
        self.events += 1;
        if let Some(last) = self.last_event {
            if t < last {
                self.report(
                    SanitizerCheck::WheelFifo,
                    t,
                    format!("event time went backwards: {t} after {last}"),
                );
            }
        }
        self.last_event = Some(t);
        let Ev::Relay { flow_idx, pkt } = ev else {
            return;
        };
        let (a, b) = (*flow_idx as u64, pkt.seq);
        let t_nanos = nanos_of(t);
        let expected = self.expect.get_mut(&t_nanos).and_then(|q| q.pop_front());
        match expected {
            Some((flow_idx, seq)) if u64::from(flow_idx) == a && seq == b => {}
            Some((flow_idx, seq)) => self.report(
                SanitizerCheck::WheelFifo,
                t,
                format!(
                    "relay fired out of scheduling order within its timestamp: \
                     got flow {a} seq {b}, expected flow {flow_idx} seq {seq}"
                ),
            ),
            None => self.report(
                SanitizerCheck::WheelFifo,
                t,
                format!("relay for flow {a} seq {b} fired with no matching schedule"),
            ),
        }
        if self.expect.get(&t_nanos).is_some_and(VecDeque::is_empty) {
            self.expect.remove(&t_nanos);
        }
    }

    fn on_scheduled_relay(&mut self, at: SimTime, flow_idx: u32, seq: u64) {
        self.expect
            .entry(nanos_of(at))
            .or_default()
            .push_back((flow_idx, seq));
    }

    fn on_inject(&mut self, at: SimTime, now: SimTime) {
        if at < now {
            self.report(
                SanitizerCheck::LookaheadSafety,
                at,
                format!("relay handoff {at} is behind the target island's clock {now}"),
            );
        }
    }

    fn on_staged(&mut self, target: u16, flow_idx: u32, _at: SimTime, _seq: u64) {
        *self.staged_by_flow.entry((target, flow_idx)).or_default() += 1;
    }
}

/// Coordinator-side sanitizer state: the checks that see the staged-relay
/// pool and the deal (the per-island checks live in [`SanitizerIsland`]).
#[derive(Default)]
pub(crate) struct Sanitizer {
    /// Raised by every finding, coordinator or island; the engine halts
    /// at the end of the round that raised it.
    tripped: Arc<AtomicBool>,
    findings: Vec<SanitizerFinding>,
    /// The last dealt `(handoff, source, seq)` key — the global total
    /// order.
    last_key: Option<(SimTime, u16, u64)>,
    /// `(source, seq)` of every dealt relay, for duplicate detection.
    injected_keys: BTreeSet<(u16, u64)>,
    received_total: u64,
    injected_by_flow: BTreeMap<(u16, u32), u64>,
    leftover_by_flow: BTreeMap<(u16, u32), u64>,
}

impl Sanitizer {
    fn report(&mut self, check: SanitizerCheck, island: u16, at: SimTime, message: String) {
        self.findings.push(SanitizerFinding {
            check,
            island,
            at,
            message,
        });
        // ord: Relaxed — coordinator-local flag raise; see
        // SanitizerIsland::report.
        self.tripped.store(true, Ordering::Relaxed);
    }

    /// End-of-run conservation reconciliation against every island's
    /// staging counts, then the final report: the coordinator's findings
    /// first, then every island's (piconet order).
    pub(crate) fn into_report(mut self, islands: Vec<SanitizerIsland>) -> SanitizerReport {
        let mut staged_by_flow: BTreeMap<(u16, u32), u64> = BTreeMap::new();
        for island in &islands {
            for (&flow, &n) in &island.staged_by_flow {
                *staged_by_flow.entry(flow).or_default() += n;
            }
        }
        let staged_total: u64 = staged_by_flow.values().sum();
        if staged_total != self.received_total {
            self.report(
                SanitizerCheck::Conservation,
                u16::MAX,
                SimTime::MAX,
                format!(
                    "islands staged {staged_total} relays but the coordinator pool \
                     received {}",
                    self.received_total
                ),
            );
        }
        let flows: BTreeSet<(u16, u32)> = staged_by_flow
            .keys()
            .chain(self.injected_by_flow.keys())
            .chain(self.leftover_by_flow.keys())
            .copied()
            .collect();
        for flow in flows {
            let staged = staged_by_flow.get(&flow).copied().unwrap_or(0);
            let injected = self.injected_by_flow.get(&flow).copied().unwrap_or(0);
            let leftover = self.leftover_by_flow.get(&flow).copied().unwrap_or(0);
            if staged != injected + leftover {
                self.report(
                    SanitizerCheck::Conservation,
                    flow.0,
                    SimTime::MAX,
                    format!(
                        "hop flow {} of piconet {}: {staged} relays staged but \
                         {injected} injected + {leftover} still pooled",
                        flow.1, flow.0
                    ),
                );
            }
        }
        let mut findings = self.findings;
        let mut events_checked = 0;
        for mut island in islands {
            findings.append(&mut island.findings);
            events_checked += island.events;
        }
        SanitizerReport {
            findings,
            events_checked,
            relays_tracked: self.received_total,
            relays_leftover: self.leftover_by_flow.values().sum(),
        }
    }
}

impl EngineHooks for Sanitizer {
    type Island = SanitizerIsland;

    fn island(&mut self, pic: u16) -> SanitizerIsland {
        SanitizerIsland {
            pic,
            tripped: Arc::clone(&self.tripped),
            findings: Vec::new(),
            last_event: None,
            expect: BTreeMap::new(),
            staged_by_flow: BTreeMap::new(),
            events: 0,
        }
    }

    fn halted(&self) -> bool {
        // ord: Relaxed — best-effort halt poll; the round's barrier
        // crossings already order every island's raise before it.
        self.tripped.load(Ordering::Relaxed)
    }

    /// Phase boundary: a relay collected at boundary `b` with a handoff
    /// before `b` means the phase ran past a boundary it lands on.
    fn on_collected(&mut self, b: SimTime, p: &PooledRelay) {
        self.received_total += 1;
        if p.at < b {
            let at = p.at;
            self.report(
                SanitizerCheck::PhaseBoundary,
                p.source,
                at,
                format!(
                    "phase ran to {b} across a boundary a staged relay lands on \
                     (handoff {at} < phase end)"
                ),
            );
        }
    }

    /// Injection order and duplication: dealt keys must be strictly
    /// increasing across the whole run.
    fn on_dealt(&mut self, _t: SimTime, p: &PooledRelay) {
        let key = (p.at, p.source, p.seq);
        let (at, source, seq) = key;
        let target = p.relay.pic;
        if let Some(last) = self.last_key {
            if key <= last {
                self.report(
                    SanitizerCheck::InjectionOrder,
                    target,
                    at,
                    format!(
                        "injection key (at {at}, source {source}, seq {seq}) is not \
                         strictly after (at {}, source {}, seq {})",
                        last.0, last.1, last.2
                    ),
                );
            }
        }
        self.last_key = Some(key);
        if !self.injected_keys.insert((source, seq)) {
            self.report(
                SanitizerCheck::Conservation,
                target,
                at,
                format!("relay (source {source}, seq {seq}) injected twice"),
            );
        }
        *self
            .injected_by_flow
            .entry((target, p.relay.flow_idx))
            .or_default() += 1;
    }

    /// Relays still pooled when the run ended — legitimate for handoffs
    /// past the horizon.
    fn on_leftovers(&mut self, pool: &[PooledRelay]) {
        for p in pool {
            *self
                .leftover_by_flow
                .entry((p.relay.pic, p.relay.flow_idx))
                .or_default() += 1;
        }
    }
}

/// The bisector's recorder: builds one [`RecorderIsland`] per island from
/// the run's [`TraceConfig`].
pub(crate) struct Recorder {
    trace: TraceConfig,
}

impl Recorder {
    pub(crate) fn new(trace: TraceConfig) -> Recorder {
        Recorder { trace }
    }
}

impl EngineHooks for Recorder {
    type Island = RecorderIsland;

    fn island(&mut self, pic: u16) -> RecorderIsland {
        let window = self
            .trace
            .window
            .filter(|w| w.island == pic)
            .map(|w| (w.start, w.len));
        RecorderIsland {
            hashes: self.trace.hashes,
            window,
            hash: 0,
            trace: IslandTrace {
                window: Vec::with_capacity(window.map_or(0, |(_, len)| len as usize)),
                ..IslandTrace::default()
            },
        }
    }
}

/// One island's rolling event hash, its hash/time sequences and its
/// descriptor capture window.
pub(crate) struct RecorderIsland {
    /// Record the full hash and time sequences.
    hashes: bool,
    /// `(start, len)` of the descriptor capture window on this island.
    window: Option<(u64, u64)>,
    hash: u64,
    trace: IslandTrace,
}

impl RecorderIsland {
    pub(crate) fn into_trace(self) -> IslandTrace {
        self.trace
    }
}

impl IslandHooks for RecorderIsland {
    fn on_event(&mut self, t: SimTime, ev: &Ev) {
        let (kind, a, b) = descriptor(ev);
        let t_nanos = nanos_of(t);
        let index = self.trace.events;
        self.trace.events += 1;
        self.hash = event_hash(self.hash, t_nanos, kind, a, b);
        if self.hashes {
            self.trace.hashes.push(self.hash);
            self.trace.times.push(t_nanos);
        }
        if let Some((start, len)) = self.window {
            if index >= start && index < start + len {
                self.trace.window.push(TraceEvent {
                    index,
                    at: t,
                    kind,
                    a,
                    b,
                    hash: self.hash,
                });
            }
        }
    }
}

/// One seeded [`EngineMutation`] wrapped around a hook set `H` (the
/// sanitizer or the recorder): it corrupts the boundary walk, the pool or
/// the deal as its mutation says, and forwards every other hook to `H`.
pub(crate) struct Mutator<H> {
    which: EngineMutation,
    /// [`EngineMutation::RelayBehindClock`]: the withheld relay, released
    /// one boundary late.
    held: Option<PooledRelay>,
    /// One-shot latch for the hold/drop/duplicate corruptions.
    fired: bool,
    inner: H,
}

impl<H> Mutator<H> {
    pub(crate) fn new(which: EngineMutation, inner: H) -> Mutator<H> {
        Mutator {
            which,
            held: None,
            fired: false,
            inner,
        }
    }

    pub(crate) fn into_inner(self) -> H {
        self.inner
    }
}

impl<H: EngineHooks> EngineHooks for Mutator<H> {
    type Island = H::Island;

    fn island(&mut self, pic: u16) -> H::Island {
        self.inner.island(pic)
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    /// [`EngineMutation::BoundaryOffByOne`]: skips `b` when it is a plain
    /// calendar start — never a pending-injection, checkpoint or horizon
    /// cap, so the mutated walk skips sync points without deadlocking the
    /// round loop or scheduling injections it already owes.
    fn skip_boundary(
        &mut self,
        b: SimTime,
        checkpoint: SimTime,
        probed: bool,
        horizon: SimTime,
        pool_min: Option<SimTime>,
    ) -> bool {
        if self.which == EngineMutation::BoundaryOffByOne {
            b < horizon && pool_min != Some(b) && (probed || b != checkpoint)
        } else {
            self.inner
                .skip_boundary(b, checkpoint, probed, horizon, pool_min)
        }
    }

    fn on_collected(&mut self, b: SimTime, p: &PooledRelay) {
        self.inner.on_collected(b, p);
    }

    /// [`EngineMutation::UnsortedStagingDrain`] re-sorts the pool with the
    /// staging-sequence tie-break flipped, so same-instant same-source
    /// relays pop in reverse staging order. [`EngineMutation::DroppedRelay`]
    /// and [`EngineMutation::DuplicatedRelay`] corrupt the first non-empty
    /// pool once — after the collected relays were counted, so
    /// conservation is checked against the true staging counts.
    fn on_sorted(&mut self, pool: &mut Vec<PooledRelay>) {
        self.inner.on_sorted(pool);
        match self.which {
            EngineMutation::UnsortedStagingDrain => pool.sort_by(|x, y| {
                (y.at, y.source)
                    .cmp(&(x.at, x.source))
                    .then(x.seq.cmp(&y.seq))
            }),
            EngineMutation::DroppedRelay if !self.fired && !pool.is_empty() => {
                self.fired = true;
                pool.pop();
            }
            EngineMutation::DuplicatedRelay if !self.fired && !pool.is_empty() => {
                self.fired = true;
                let dup = pool.last().expect("pool checked non-empty").clone();
                pool.push(dup);
            }
            _ => {}
        }
    }

    fn on_phase(&mut self, t: SimTime, b: SimTime, islands: u64, pool_len: usize) {
        self.inner.on_phase(t, b, islands, pool_len);
    }

    /// [`EngineMutation::RelayBehindClock`]: hands the withheld relay back
    /// at the first boundary past its handoff — an injection behind the
    /// target island's clock.
    fn release_due(&mut self, t: SimTime) -> Option<PooledRelay> {
        self.held
            .take_if(|h| h.at < t)
            .or_else(|| self.inner.release_due(t))
    }

    /// [`EngineMutation::RelayBehindClock`]: withholds the first due relay.
    fn intercept(&mut self, p: PooledRelay) -> Option<PooledRelay> {
        if self.which == EngineMutation::RelayBehindClock && !self.fired {
            self.fired = true;
            self.held = Some(p);
            return None;
        }
        self.inner.intercept(p)
    }

    fn on_dealt(&mut self, t: SimTime, p: &PooledRelay) {
        self.inner.on_dealt(t, p);
    }

    /// Forwards the pool only: a relay still held by the behind-clock
    /// mutation is deliberately not reported, so a never-released hold
    /// trips the conservation check.
    fn on_leftovers(&mut self, pool: &[PooledRelay]) {
        self.inner.on_leftovers(pool);
    }
}

/// The first diverging event between two runs, with its aligned context
/// windows.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The island the earliest divergence occurred on.
    pub island: u16,
    /// 0-based event ordinal of the first diverging event on that island.
    pub index: u64,
    /// That event's instant in run A (`None` when A ended before it).
    pub at_a: Option<SimTime>,
    /// That event's instant in run B (`None` when B ended before it).
    pub at_b: Option<SimTime>,
    /// Captured events around the divergence in run A.
    pub window_a: Vec<TraceEvent>,
    /// Captured events around the divergence in run B.
    pub window_b: Vec<TraceEvent>,
}

/// The outcome of one bisection ([`bisect_runs`]).
#[derive(Clone, Debug)]
pub struct BisectReport {
    /// The first diverging event, or `None` when the traces are
    /// identical.
    pub divergence: Option<Divergence>,
    /// Total events traced in run A.
    pub events_a: u64,
    /// Total events traced in run B.
    pub events_b: u64,
}

impl BisectReport {
    /// Renders the minimal aligned trace around the divergence (or the
    /// no-divergence verdict) for terminals and test output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let Some(d) = &self.divergence else {
            let _ = writeln!(
                out,
                "no divergence: {} events traced in both runs, all hashes equal",
                self.events_a
            );
            return out;
        };
        let _ = writeln!(
            out,
            "first divergence: island {} event #{} (A: {} events, B: {} events)",
            d.island, d.index, self.events_a, self.events_b
        );
        let row = |ev: Option<&TraceEvent>| -> String {
            match ev {
                Some(e) => format!(
                    "{} {:>9} a={} b={} {:08x}",
                    e.at,
                    e.kind.to_string(),
                    e.a,
                    e.b,
                    e.hash >> 32
                ),
                None => "<run ended>".into(),
            }
        };
        let lo = d
            .window_a
            .first()
            .map(|e| e.index)
            .min(d.window_b.first().map(|e| e.index))
            .unwrap_or(d.index);
        let hi = d
            .window_a
            .last()
            .map(|e| e.index)
            .max(d.window_b.last().map(|e| e.index))
            .unwrap_or(d.index);
        for idx in lo..=hi {
            let a = d.window_a.iter().find(|e| e.index == idx);
            let b = d.window_b.iter().find(|e| e.index == idx);
            let marker = if idx == d.index { ">>" } else { "  " };
            let same = match (a, b) {
                (Some(x), Some(y)) => x.hash == y.hash,
                _ => false,
            };
            let sep = if same { " == " } else { " != " };
            let _ = writeln!(out, "{marker} #{idx:<8} A: {}{sep}B: {}", row(a), row(b));
        }
        out
    }
}

/// Bisects two engine configurations that should be byte-identical down
/// to their first diverging event.
///
/// `make_a`/`make_b` build fresh, fully configured simulations (they are
/// called twice each: a hash pass over the whole run, then a bounded
/// descriptor-capture pass of `context` events around the divergence).
/// Determinism makes re-running equivalent to rewinding.
///
/// # Errors
///
/// Propagates run errors (missing sources, bad horizons) from either
/// configuration.
pub fn bisect_runs(
    make_a: &dyn Fn() -> ScatternetSim,
    make_b: &dyn Fn() -> ScatternetSim,
    horizon: SimTime,
    context: u64,
) -> Result<BisectReport, PiconetError> {
    let (_, ta) = make_a().run_traced(horizon, TraceConfig::hashes())?;
    let (_, tb) = make_b().run_traced(horizon, TraceConfig::hashes())?;
    let events_a: u64 = ta.islands.iter().map(|i| i.events).sum();
    let events_b: u64 = tb.islands.iter().map(|i| i.events).sum();

    // Per island: binary-search the rolling-hash sequences to the first
    // diverging event. A rolling hash diverges permanently once the
    // underlying events diverge, so "prefixes equal up to k" is monotone
    // in k and the search is sound.
    let mut best: Option<(u64, u16, u64)> = None; // (time nanos, island, index)
    for (pic, (ia, ib)) in ta.islands.iter().zip(&tb.islands).enumerate() {
        let common = ia.hashes.len().min(ib.hashes.len());
        let (mut lo, mut hi) = (0usize, common);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if ia.hashes[mid] == ib.hashes[mid] {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let index = if lo < common {
            lo
        } else if ia.hashes.len() != ib.hashes.len() {
            common // one run has events the other never produced
        } else {
            continue;
        };
        let t = match (ia.times.get(index), ib.times.get(index)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => continue,
        };
        let key = (t, pic as u16, index as u64);
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }

    let Some((_, island, index)) = best else {
        return Ok(BisectReport {
            divergence: None,
            events_a,
            events_b,
        });
    };

    // Second pass: bounded descriptor capture around the divergence.
    let start = index.saturating_sub(context / 2);
    let cfg = TraceConfig::window(island, start, context.max(1));
    let (_, wa) = make_a().run_traced(horizon, cfg)?;
    let (_, wb) = make_b().run_traced(horizon, cfg)?;
    let win = |t: &RunTrace| t.islands[island as usize].window.clone();
    let (window_a, window_b) = (win(&wa), win(&wb));
    let at_of = |w: &[TraceEvent]| w.iter().find(|e| e.index == index).map(|e| e.at);
    Ok(BisectReport {
        divergence: Some(Divergence {
            island,
            index,
            at_a: at_of(&window_a),
            at_b: at_of(&window_b),
            window_a,
            window_b,
        }),
        events_a,
        events_b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_hash_separates_fields() {
        let h = event_hash(0, 100, TraceKind::Relay, 1, 2);
        assert_ne!(h, event_hash(0, 100, TraceKind::Relay, 2, 1));
        assert_ne!(h, event_hash(0, 101, TraceKind::Relay, 1, 2));
        assert_ne!(h, event_hash(0, 100, TraceKind::Arrival, 1, 2));
        assert_ne!(h, event_hash(1, 100, TraceKind::Relay, 1, 2));
    }
}
