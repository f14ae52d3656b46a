//! # btgs-piconet — slot-accurate Bluetooth piconet simulator
//!
//! The simulation substrate for the `btgs` reproduction of *"Providing Delay
//! Guarantees in Bluetooth"* (Ait Yaiz & Heijenk, ICDCSW'03). It stands in
//! for the ns-2 + Ericsson Switchlab Bluetooth extensions the paper used:
//!
//! * master-driven TDD on the 625 µs slot grid: the master addresses one
//!   slave per exchange (data segment or POLL down, data segment or NULL
//!   back up);
//! * a dense [`FlowTable`] arena ([`FlowIdx`] handles, O(1) lookups,
//!   precomputed slave/flow lists) backing every per-decision query, so
//!   the simulation hot path neither scans nor allocates;
//! * per-flow queues with [segmentation](next_segment_type) of higher-layer
//!   packets into DH1/DH3/… baseband packets, exactly the paper's policy;
//! * strict master ignorance of uplink queues — pollers see only the
//!   [`MasterView`];
//! * separate Guaranteed Service and best-effort logical channels (a GS
//!   poll never moves BE data and vice versa);
//! * SCO reserved-slot links, a BER channel model with 1-bit ARQ
//!   retransmission for the paper's future-work benches;
//! * full accounting: per-flow delays and throughput, per-category
//!   [slot usage](SlotLedger), poll success counters;
//! * one engine for one piconet or many: [`ScatternetSim`] runs each
//!   piconet as an island with its own event queue, routes globally
//!   unique flow ids to their islands, time-shares bridge slaves on
//!   deterministic rendezvous schedules ([`PresenceMask`]), and relays
//!   cross-piconet chains with end-to-end and bridge-residence delay
//!   accounting ([`ChainReport`]); [`PiconetSim`] is a one-island
//!   `ScatternetSim` with no bridges and no chains.
//!
//! Polling *policies* plug in through the [`Poller`] trait; baselines live
//! in `btgs-pollers`, and the paper's Guaranteed Service pollers in
//! `btgs-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod flow;
mod flow_table;
mod hooks;
mod ledger;
mod poller;
mod queue;
mod report;
mod sanitizer;
mod sar;
mod scatternet;
mod sim;
pub mod sync_protocol;
mod telemetry;

pub use config::{AllowedByCap, PiconetConfig, PiconetError, PresenceMask, ScoBinding};
pub use flow::{validate_flows, FlowSpec};
pub use flow_table::{FlowIdx, FlowTable};
pub use ledger::{PollCounters, SlotLedger};
pub use poller::{DownlinkView, ExchangeReport, MasterView, PollDecision, Poller, SegmentOutcome};
pub use queue::{FlowQueue, SegmentPlan};
pub use report::{FlowReport, RunReport};
pub use sanitizer::{
    bisect_runs, BisectReport, Divergence, EngineMutation, IslandTrace, RunTrace, SanitizedRun,
    SanitizerCheck, SanitizerFinding, SanitizerReport, TraceConfig, TraceEvent, TraceKind,
    TraceWindow,
};
pub use sar::{next_segment_type, segment_count, segment_plan};
pub use scatternet::{
    BridgeSpec, ChainReport, ChainSpec, ScatternetConfig, ScatternetReport, ScatternetSim,
};
pub use sim::{FlowState, PiconetSim, RoundRobinForTest};
pub use telemetry::{
    EngineTrace, EventMeter, Histo32, ObsConfig, ObservedRun, TelemetryReport, TraceRecord,
    TraceRecordKind, EVENT_KIND_NAMES,
};
