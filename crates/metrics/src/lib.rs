//! # btgs-metrics — measurement substrate
//!
//! Statistics used by the `btgs` reproduction of *"Providing Delay
//! Guarantees in Bluetooth"* (Ait Yaiz & Heijenk, ICDCSW'03):
//!
//! * [`DelayStats`] — exact per-packet delay summaries (min/mean/quantiles/
//!   max) plus bound-violation counting, the paper's §4.2 validation metric.
//! * [`DelaySummary`] — bounded-size, exactly mergeable delay digests for
//!   streaming aggregation over arbitrarily many grid cells.
//! * [`jain_index`] / [`max_min_fair`] — fairness measures for the
//!   best-effort bandwidth division performed by PFP.
//! * [`Histogram`] — delay distributions for the extension benches.
//! * [`Table`] — plain-text rendering of every table and figure the bench
//!   harness regenerates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod fairness;
mod histogram;
mod table;

pub use delay::{DelayStats, DelaySummary};
pub use fairness::{jain_index, max_min_fair};
pub use histogram::{Histogram, HistogramShapeMismatch, InvalidHistogram};
pub use table::{fmt_f64, Table};
