//! # btgs-grid — sharded, streaming, resumable experiment-grid execution
//!
//! `btgs-core`'s [`ExperimentRunner`](btgs_core::ExperimentRunner)
//! streams the cells of a [`ScenarioGrid`](btgs_core::ScenarioGrid) into
//! a [`CellSink`](btgs_core::CellSink) on one process. This crate streams
//! the same grid into the same sinks from worker processes, with
//! checkpoints that survive a killed run:
//!
//! ```text
//!   ScenarioGrid ──GridPartitioner──▶ GridShards (content-addressed,
//!        │                             pure fn of the grid digest)
//!        │              ┌──────────────┴──────────────┐
//!        │        grid_worker #1  …  grid_worker #N   (processes)
//!        │              │  length-prefixed JSONL frames │
//!        │              ▼                              ▼
//!        │        per-shard checkpoints (kill-and-resume)
//!        │              └──────────────┬──────────────┘
//!        ▼                             ▼
//!   CellSink streaming:   OnlineAggregator (O(pollers) memory)
//!                         JsonlSpillSink   (full-fidelity archive)
//!                         CollectSink      (merged GridReport)
//! ```
//!
//! * [`GridPartitioner`] — splits a grid into [`GridShard`]s; the cell →
//!   shard map is a pure function of the grid digest, so every worker
//!   count (and every machine) sees the same shards.
//! * [`wire`] — the full-fidelity JSON wire format plus length-prefixed
//!   framing with torn-tail detection.
//! * [`OnlineAggregator`] — mergeable per-poller summaries
//!   ([`DelaySummary`](btgs_metrics::DelaySummary) + fixed histograms);
//!   memory bounded by the number of summary series, not cells.
//! * [`JsonlSpillSink`] — archives every cell as one JSONL frame.
//! * [`ShardedGridRunner`] — spawns N `grid_worker` processes,
//!   checkpoints every frame and streams it into the caller's sink; a
//!   [`CollectSink`](btgs_core::CollectSink) there merges a
//!   [`GridReport`](btgs_core::GridReport) **byte-identical** to the
//!   in-process runner's at any worker count, including after a worker
//!   is killed mid-shard and the run resumed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod partition;
mod runner;
mod sink;
pub mod wire;
mod worker;

pub use partition::{GridPartitioner, GridShard};
pub use runner::{GridError, ShardedGridRunner, ShardedStreamStats};
pub use sink::{JsonlSpillSink, OnlineAggregator};
pub use worker::{fault_injection_from_env, run_worker, FaultInjection};
