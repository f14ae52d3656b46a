//! Macro-benchmark: simulated seconds per wall second for the
//! full paper scenario.
//!
//! Throughput is declared in engine events (measured from a probe run), so
//! each printed line reports events/sec alongside ns/op.

use btgs_bench::microbench::{Criterion, Throughput};
use btgs_bench::{criterion_group, criterion_main};
use btgs_core::{PaperScenario, PaperScenarioParams, PollerKind};
use btgs_des::{SimDuration, SimTime};
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

fn run(include_be: bool) -> btgs_piconet::RunReport {
    let scenario = PaperScenario::build(params(include_be));
    scenario
        .run(PollerKind::PfpGs, SimTime::from_secs(5))
        .expect("scenario runs")
}

fn sim_throughput(c: &mut Criterion) {
    // One probe run per scenario supplies the event count for the
    // events/sec figure (runs are deterministic, so it is exact).
    let full_events = run(true).events_processed;
    let gs_events = run(false).events_processed;

    let mut group = c.benchmark_group("sim_steady");
    group.sample_size(10);
    group.throughput(Throughput::Elements(full_events));
    group.bench_function("paper_scenario_5s_simulated", |b| {
        b.iter(|| black_box(run(true).total_throughput_kbps()))
    });
    group.throughput(Throughput::Elements(gs_events));
    group.bench_function("gs_only_5s_simulated", |b| {
        b.iter(|| black_box(run(false).total_throughput_kbps()))
    });
    group.finish();
}

criterion_group!(benches, sim_throughput);
criterion_main!(benches);
