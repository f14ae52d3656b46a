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
//!
//! # Machine-readable output
//!
//! When the environment variable `BTGS_BENCH_JSON` names a directory, each
//! bench binary additionally writes `BENCH_<bench>.json` there: one record
//! per benchmark with `median_ns`, `best_ns` and — where the bench declared
//! a [`Throughput`] — `elements_per_iter` and `elements_per_sec`
//! (events/sec for the engine benches), tagged with the host fingerprint.
//! CI uploads them as artifacts; the record every change is judged by is
//! the repository benchmark (`perfbench`), not these files.

use std::hint::black_box;
use std::io::Write;
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
    /// the derived elements/sec figure in print and JSON output.
    Elements(u64),
}

/// One completed benchmark.
#[derive(Clone, Debug)]
struct BenchResult {
    name: String,
    median_ns: f64,
    best_ns: f64,
    elements: Option<u64>,
    /// Bench-supplied integer annotations (e.g. engine phase counters),
    /// serialized verbatim into the JSON record.
    extras: Vec<(String, u64)>,
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
            best_ns: b.best_ns,
            elements,
            extras: Vec::new(),
        });
        self
    }

    /// Attaches integer annotations to the most recently completed
    /// benchmark whose name ends with `suffix` (workload-derived counters
    /// the measurement loop itself cannot observe). They ride along in
    /// the JSON record.
    pub fn annotate(&mut self, suffix: &str, extras: &[(&str, u64)]) {
        if let Some(r) = self
            .results
            .iter_mut()
            .rev()
            .find(|r| r.name.ends_with(suffix))
        {
            r.extras
                .extend(extras.iter().map(|&(k, v)| (k.to_owned(), v)));
        }
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

    /// Renders every result as a JSON array (ns/op plus derived
    /// elements/sec where a [`Throughput`] was declared).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            let sep = if i + 1 == self.results.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"median_ns\": {:.1}, \"best_ns\": {:.1}",
                json_escape(&r.name),
                r.median_ns,
                r.best_ns,
            ));
            if let Some(n) = r.elements {
                out.push_str(&format!(
                    ", \"elements_per_iter\": {n}, \"elements_per_sec\": {:.1}",
                    n as f64 * 1e9 / r.median_ns
                ));
            }
            for (k, v) in &r.extras {
                out.push_str(&format!(", \"{}\": {v}", json_escape(k)));
            }
            out.push_str(&format!("}}{sep}\n"));
        }
        out.push(']');
        out
    }

    /// Writes `BENCH_<bench>.json` into the directory named by the
    /// `BTGS_BENCH_JSON` environment variable, if set. Called by
    /// [`criterion_main!`](crate::criterion_main) with the bench binary's
    /// name. The payload
    /// carries the host fingerprint, so the records are self-describing
    /// (cross-host wall clock is not comparable).
    pub fn write_json_from_env(&self, bench: &str) {
        let Ok(dir) = std::env::var("BTGS_BENCH_JSON") else {
            return;
        };
        let path = std::path::Path::new(&dir).join(format!("BENCH_{bench}.json"));
        let payload = format!(
            "{{\n\"bench\": \"{}\",\n\"host\": \"{}\",\n\"results\": {}\n}}\n",
            json_escape(bench),
            json_escape(&crate::host::host_fingerprint()),
            self.to_json()
        );
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(payload.as_bytes())) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("BTGS_BENCH_JSON: cannot write {}: {e}", path.display()),
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The invoking bench binary's logical name: the executable file stem with
/// cargo's trailing `-<16-hex-digit>` disambiguator removed.
pub fn bench_binary_name() -> String {
    let arg0 = std::env::args().next().unwrap_or_default();
    let stem = std::path::Path::new(&arg0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench")
        .to_owned();
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            base.to_owned()
        }
        _ => stem,
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

    /// Forwards to [`Criterion::annotate`] for a benchmark of this group.
    pub fn annotate(&mut self, name: &str, extras: &[(&str, u64)]) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        self.criterion.annotate(&full, extras);
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
/// then emitting JSON when `BTGS_BENCH_JSON` is set.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::microbench::Criterion::default();
            $($group(&mut c);)+
            c.final_summary();
            c.write_json_from_env(&$crate::microbench::bench_binary_name());
        }
    };
}
