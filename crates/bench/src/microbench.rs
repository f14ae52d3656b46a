//! A tiny, dependency-free micro-benchmark harness with a Criterion-shaped
//! API.
//!
//! The workspace builds in fully offline environments, so it cannot pull
//! `criterion` from crates.io. This module provides the subset of its
//! surface the bench files use — [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`],
//! [`Bencher::iter_batched`], and the
//! [`criterion_group!`](crate::criterion_group) and
//! [`criterion_main!`](crate::criterion_main) macros — backed by a plain
//! `std::time::Instant` loop: a warm-up phase to calibrate the iteration
//! count, then a fixed number of timed samples, reporting the best and
//! median ns/iteration. Results print to stdout; run with
//! `cargo bench -p btgs-bench`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock budget of one sample batch.
const SAMPLE_BUDGET: Duration = Duration::from_millis(40);
/// Timed sample batches per benchmark.
const DEFAULT_SAMPLES: usize = 12;

/// The measurement driver handed to every benchmark closure.
pub struct Bencher {
    iters_per_sample: u64,
    samples: usize,
    /// Best observed nanoseconds per iteration.
    pub best_ns: f64,
    /// Median observed nanoseconds per iteration.
    pub median_ns: f64,
}

impl Bencher {
    /// Times `f`, choosing an iteration count so one sample batch lasts
    /// about `SAMPLE_BUDGET` (40 ms).
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        self.sample(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed()
        });
    }

    /// Times `routine` on a fresh input from `setup` per iteration (mirrors
    /// `criterion::Bencher::iter_batched`). Only the routine is timed:
    /// building the input stays out of the measurement.
    pub fn iter_batched<I, R, S: FnMut() -> I, F: FnMut(I) -> R>(
        &mut self,
        mut setup: S,
        mut routine: F,
    ) {
        self.sample(|iters| {
            let mut spent = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                spent += start.elapsed();
            }
            spent
        });
    }

    /// Calibrates, then records the samples: `batch(iters)` runs `iters`
    /// iterations and returns the time spent in what it measures.
    fn sample(&mut self, mut batch: impl FnMut(u64) -> Duration) {
        // Calibrate: grow the batch until it costs a measurable slice.
        let mut iters = 1u64;
        loop {
            let spent = batch(iters);
            if spent >= SAMPLE_BUDGET / 4 || iters >= 1 << 30 {
                let per_iter = spent.as_secs_f64() / iters as f64;
                if per_iter > 0.0 {
                    let target = SAMPLE_BUDGET.as_secs_f64() / per_iter;
                    iters = (target as u64).clamp(1, 1 << 30);
                }
                break;
            }
            iters = iters.saturating_mul(4);
        }
        self.iters_per_sample = iters;
        // Measure.
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            per_iter_ns.push(batch(iters).as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(f64::total_cmp);
        self.best_ns = per_iter_ns[0];
        self.median_ns = per_iter_ns[per_iter_ns.len() / 2];
    }
}

/// Declared per-iteration workload, mirroring `criterion::Throughput`.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements (e.g. simulation events) processed per iteration; enables
    /// the derived elements/sec column of the printed line.
    Elements(u64),
}

/// One completed benchmark.
#[derive(Clone, Debug)]
struct BenchResult {
    name: String,
    median_ns: f64,
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Runs one named benchmark and prints its result line.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        self.bench_inner(name, None, f)
    }

    fn bench_inner<F: FnMut(&mut Bencher)>(
        &mut self,
        name: &str,
        elements: Option<u64>,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            iters_per_sample: 0,
            samples: DEFAULT_SAMPLES,
            best_ns: f64::NAN,
            median_ns: f64::NAN,
        };
        f(&mut b);
        let rate = elements
            .map(|n| format!("  {:>12}", format_rate(n as f64 * 1e9 / b.median_ns)))
            .unwrap_or_default();
        println!(
            "{name:<44} {:>14}/iter (best {:>12}, {} x {} iters){rate}",
            format_ns(b.median_ns),
            format_ns(b.best_ns),
            DEFAULT_SAMPLES,
            b.iters_per_sample,
        );
        self.results.push(BenchResult {
            name: name.to_owned(),
            median_ns: b.median_ns,
        });
        self
    }

    /// Opens a named group (grouping only affects the printed names).
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_owned(),
            elements: None,
        }
    }

    /// Prints the closing summary. Called by
    /// [`criterion_main!`](crate::criterion_main).
    pub fn final_summary(&self) {
        println!("\n{} benchmarks completed", self.results.len());
    }

    /// The median ns/iter of a completed benchmark, for programmatic
    /// before/after comparisons.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    }
}

/// Group handle mirroring `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    elements: Option<u64>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for criterion compatibility; sampling here is fixed.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Declares the per-iteration workload of subsequent benchmarks in this
    /// group (mirrors `criterion::BenchmarkGroup::throughput`).
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        let Throughput::Elements(n) = t;
        self.elements = Some(n);
        self
    }

    /// Runs one benchmark within the group's namespace.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        let elements = self.elements;
        self.criterion.bench_inner(&full, elements, f);
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn format_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2} Mel/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1} kel/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.0} el/s")
    }
}

/// Mirrors `criterion::criterion_group!`: bundles benchmark functions into
/// one group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::microbench::Criterion) {
            $($target(c);)+
        }
    };
}

/// Mirrors `criterion::criterion_main!`: emits `main` running the groups,
/// then printing the closing summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::microbench::Criterion::default();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}
