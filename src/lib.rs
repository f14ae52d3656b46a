//! # btgs — delay guarantees in Bluetooth piconets
//!
//! A comprehensive reproduction of **"Providing Delay Guarantees in
//! Bluetooth"** (R. Ait Yaiz and G. Heijenk, ICDCS Workshops 2003) as a
//! Rust workspace: the Guaranteed Service (RFC 2212) mathematics, the
//! paper's poll-planning and admission-control algorithms, the Predictive
//! Fair Poller, and the slot-accurate piconet simulator the evaluation
//! needs.
//!
//! This facade crate re-exports the workspace's public API under stable
//! module names:
//!
//! * [`des`] — deterministic discrete-event simulation engine;
//! * [`baseband`] — Bluetooth packet types, slot timing, channel models;
//! * [`traffic`] — token buckets and traffic sources;
//! * [`metrics`] — delay/throughput/fairness statistics and tables;
//! * [`gs`] — RFC 2212 delay bound and error-term composition;
//! * [`piconet`] — the piconet simulator, its dense
//!   [`piconet::FlowTable`] arena, and the [`piconet::Poller`] trait;
//! * [`pollers`] — baseline schedulers (round robin, FEP, PFP-BE, …);
//! * [`core`] — the paper's contribution: poll efficiency, `x`/`y`
//!   computations, C/D export, admission control, the GS pollers, the
//!   Fig. 4/Fig. 5 evaluation scenario, the [`core::Guarantees`] oracle
//!   that checks a run against every guarantee, and the parallel
//!   [`core::ExperimentRunner`] that sweeps scenario grids across
//!   threads deterministically;
//! * [`grid`] — sharded, streaming, resumable grid execution: the
//!   [`grid::GridPartitioner`], the multi-process
//!   [`grid::ShardedGridRunner`] with per-shard checkpoints, the
//!   bounded-memory [`grid::OnlineAggregator`] and the
//!   [`grid::JsonlSpillSink`] archive.
//!
//! # Quickstart
//!
//! Admit a Guaranteed Service flow, run the paper's scenario, check that
//! the delay bound held:
//!
//! ```
//! use btgs::core::{Guarantees, PaperScenario, PaperScenarioParams, PollerKind};
//! use btgs::des::{SimDuration, SimTime};
//!
//! let scenario = PaperScenario::build(PaperScenarioParams {
//!     delay_requirement: SimDuration::from_millis(40),
//!     seed: 42,
//!     warmup: SimDuration::from_millis(500),
//!     include_be: false,
//!     ..Default::default()
//! });
//! let report = scenario.run(PollerKind::PfpGs, SimTime::from_secs(5)).unwrap();
//! for check in Guarantees::from(&scenario).check(&report) {
//!     assert_eq!(check.over, 0, "{check:?}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use btgs_baseband as baseband;
pub use btgs_core as core;
pub use btgs_des as des;
pub use btgs_grid as grid;
pub use btgs_gs as gs;
pub use btgs_metrics as metrics;
pub use btgs_piconet as piconet;
pub use btgs_pollers as pollers;
pub use btgs_traffic as traffic;
