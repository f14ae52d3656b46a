//! # btgs-bench — experiment harness
//!
//! One binary per table/figure/claim of the paper (`src/bin/`; each prints
//! its table beside the values the paper reports), plus Criterion-shaped
//! micro-benchmarks of the implementation itself.
//!
//! Every binary accepts:
//!
//! * `--seconds N` — simulated seconds per run (default varies per
//!   experiment; the paper uses 530 s);
//! * `--seed N` — root RNG seed (default 1);
//! * `--step N` — sweep step in milliseconds where applicable;
//! * `--scatternet` — run the experiment's scatternet mode where one
//!   exists (currently `delay_bound_validation`).

// `deny` rather than `forbid`: `alloc_counter` implements `GlobalAlloc`
// (an inherently unsafe trait) and carries a scoped `allow`. This is the
// lint-enforced workspace policy (btgs-analyze's unsafe-policy rule):
// every sim crate `#![forbid(unsafe_code)]`, this crate `deny` with
// exactly one `allow` on that impl.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_counter;
pub mod microbench;

use btgs_des::SimTime;

/// Command-line options shared by all experiment binaries.
#[derive(Clone, Copy, Debug)]
pub struct BenchArgs {
    /// Simulated duration of each run.
    pub seconds: u64,
    /// Root RNG seed.
    pub seed: u64,
    /// Sweep step (ms) where applicable.
    pub step_ms: u64,
    /// Run the experiment's scatternet mode where one exists
    /// (`--scatternet`).
    pub scatternet: bool,
}

impl BenchArgs {
    /// Parses `--seconds`, `--seed` and `--step` from `std::env::args`,
    /// with the given default duration.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_seconds: u64) -> BenchArgs {
        let mut out = BenchArgs {
            seconds: default_seconds,
            seed: 1,
            step_ms: 2,
            scatternet: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut take = |name: &str| -> u64 {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("usage: {name} <positive integer>"))
            };
            match flag.as_str() {
                "--seconds" => out.seconds = take("--seconds"),
                "--seed" => out.seed = take("--seed"),
                "--step" => out.step_ms = take("--step"),
                "--scatternet" => out.scatternet = true,
                other => {
                    panic!("unknown flag {other}; known: --seconds --seed --step --scatternet")
                }
            }
        }
        assert!(
            out.seconds > 0 && out.step_ms > 0,
            "values must be positive"
        );
        out
    }

    /// The simulation horizon.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_secs(self.seconds)
    }
}

/// Aggregate best-effort throughput (slaves S4..S7) in kbit/s.
pub fn be_total_kbps(report: &btgs_piconet::RunReport) -> f64 {
    (4..=7u8)
        .map(|n| {
            report.slave_throughput_kbps(btgs_baseband::AmAddr::new(n).expect("S4..S7 are valid"))
        })
        .sum()
}

/// Prints the standard experiment header.
pub fn banner(title: &str, args: &BenchArgs) {
    println!("=== {title} ===");
    println!(
        "(simulated {} s per point, seed {}; paper: ns-2, 530 s, 25 000 samples/flow)",
        args.seconds, args.seed
    );
    println!();
}
