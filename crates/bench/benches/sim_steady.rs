//! Macro-benchmark: simulated seconds per wall second for the
//! full paper scenario.
//!
//! Throughput is declared in engine events (measured from a probe run), so
//! the JSON output records events/sec alongside ns/op. The `*_heap`
//! variants run the identical scenario on the binary-heap reference queue
//! in the same process, giving a noise-immune sorted-vs-heap ratio.

use btgs_bench::microbench::{Criterion, Throughput};
use btgs_bench::{criterion_group, criterion_main};
use btgs_core::{PaperScenario, PaperScenarioParams, PollerKind};
use btgs_des::{SimDuration, SimTime};
use btgs_piconet::EventQueueBackend;
use std::hint::black_box;

fn params(include_be: bool) -> PaperScenarioParams {
    PaperScenarioParams {
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_millis(500),
        include_be,
        ..Default::default()
    }
}

fn run(include_be: bool, backend: EventQueueBackend) -> btgs_piconet::RunReport {
    let scenario = PaperScenario::build(params(include_be));
    scenario
        .run_with_backend(PollerKind::PfpGs, SimTime::from_secs(5), backend)
        .expect("scenario runs")
}

fn sim_throughput(c: &mut Criterion) {
    // One probe run per scenario supplies the event count for the
    // events/sec figure (runs are deterministic, so it is exact).
    let full_events = run(true, EventQueueBackend::Sorted).events_processed;
    let gs_events = run(false, EventQueueBackend::Sorted).events_processed;

    let mut group = c.benchmark_group("sim_steady");
    group.sample_size(10);
    group.throughput(Throughput::Elements(full_events));
    group.bench_function("paper_scenario_5s_simulated", |b| {
        b.iter(|| black_box(run(true, EventQueueBackend::Sorted).total_throughput_kbps()))
    });
    group.bench_function("paper_scenario_5s_simulated_heap", |b| {
        b.iter(|| black_box(run(true, EventQueueBackend::BinaryHeap).total_throughput_kbps()))
    });
    group.throughput(Throughput::Elements(gs_events));
    group.bench_function("gs_only_5s_simulated", |b| {
        b.iter(|| black_box(run(false, EventQueueBackend::Sorted).total_throughput_kbps()))
    });
    group.finish();
}

criterion_group!(benches, sim_throughput);
criterion_main!(benches);
