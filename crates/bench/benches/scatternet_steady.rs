//! Macro-benchmark: simulated seconds per wall second for the chained
//! scatternet scenario (2, 3, 8 and 16 Fig. 4 piconets plus an 8-piconet
//! ring, one bridged GS flow per chain) and random-geometric meshes of 16,
//! 64 and 256 piconets (degree-3, topology seed 11, every spanning edge
//! covered by a relay chain).
//!
//! Throughput is declared in engine events (measured from a probe run),
//! so each printed line reports events/sec alongside ns/op — the same
//! convention as `sim_steady`. Each iteration times the run alone:
//! building the scenario (topology, admission) and assembling its
//! simulator is the untimed setup of [`Bencher::iter_batched`]. The
//! single-piconet `sim_steady` numbers are the baseline: a scatternet run
//! costs roughly the sum of its piconets plus the (small) relay fabric.
//!
//! The `parallel4` twins run the *same* scenarios through the island
//! engine with four threads ([`ScatternetSim::with_threads`], clamped to
//! the host's cores); reports are byte-identical to the serial runs
//! (asserted by `tests/parallel_equivalence.rs`), so a twin's speedup is
//! pure engine parallelism, not a different workload.
//!
//! Each probe run also prints the engine's observability counters
//! (`phases_run`, `barrier_rounds`, `islands_claimed`, `relays_staged`),
//! so the round structure (one round per calendar window start, every
//! island run every round) shows alongside the wall clock.
//!
//! After the runs it prints the same-session one-thread ns/event ratios
//! `mesh256/mesh64` and `mesh64/mesh16`. The meshes run the same
//! per-piconet workload, so a ratio above 1 is the cost of spreading the
//! islands' state over more memory than a core's caches hold, the
//! measure of how cache-compact island state is.
//!
//! The `sanitized` twin runs one small scenario through
//! [`ScatternetSim::run_sanitized`] — the engine monomorphised with the
//! causality sanitizer's hooks. Its cost rides *only* on that twin:
//! every other case runs the engine instantiated with `()` hooks, so the
//! serial and parallel cases above show that the sanitizer costs the
//! production engine nothing.
//!
//! [`Bencher::iter_batched`]: btgs_bench::microbench::Bencher::iter_batched
//! [`ScatternetSim::with_threads`]: btgs_piconet::ScatternetSim::with_threads
//! [`ScatternetSim::run_sanitized`]: btgs_piconet::ScatternetSim::run_sanitized

use btgs_bench::microbench::{Criterion, Throughput};
use btgs_bench::{criterion_group, criterion_main};
use btgs_core::{BeSourceMix, PollerKind, ScatternetScenario, ScatternetScenarioParams, Topology};
use btgs_des::{SimDuration, SimTime};
use btgs_piconet::ScatternetSim;
use std::hint::black_box;

fn params(piconets: u16, topology: Topology) -> ScatternetScenarioParams {
    // Mesh cells allocate bridge roles down from S7 into the best-effort
    // slave range, so they run without the Fig. 4 BE pairs.
    let include_be = !matches!(topology, Topology::Mesh { .. });
    ScatternetScenarioParams {
        piconets,
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_millis(500),
        include_be,
        bridge_cycle: SimDuration::from_millis(20),
        chain_deadline: None,
        bidirectional: false,
        be_load_scale: 1.0,
        be_source_mix: BeSourceMix::Cbr,
        topology,
    }
}

/// Builds the scenario and assembles its simulator: the untimed setup of
/// every case.
fn sim(piconets: u16, topology: Topology, threads: usize) -> ScatternetSim {
    ScatternetScenario::build(params(piconets, topology))
        .simulator(PollerKind::PfpGs)
        .expect("scenario builds")
        .with_threads(threads)
}

fn run(sim: ScatternetSim) -> btgs_piconet::ScatternetReport {
    sim.run(SimTime::from_secs(5)).expect("scenario runs")
}

fn scatternet_throughput(c: &mut Criterion) {
    let mesh = Topology::Mesh {
        degree: 3,
        seed: 11,
    };
    let cases: &[(&str, u16, Topology)] = &[
        ("chained2", 2, Topology::Chain),
        ("chained3", 3, Topology::Chain),
        ("chained8", 8, Topology::Chain),
        ("chained16", 16, Topology::Chain),
        ("ring8", 8, Topology::Ring),
        ("mesh16", 16, mesh),
        ("mesh64", 64, mesh),
        ("mesh256", 256, mesh),
    ];
    let mut events_of = Vec::with_capacity(cases.len());
    let mut group = c.benchmark_group("scatternet_steady");
    group.sample_size(10);
    for &(name, n, topology) in cases {
        // One probe run per scenario supplies the event count for the
        // events/sec figure (runs are deterministic, so it is exact) and
        // the engine counters printed below.
        let probe = run(sim(n, topology, 1));
        let events = probe.events_processed;
        events_of.push((name, events));
        println!(
            "{name:<44} {} phases, {} islands claimed, {} relays staged",
            probe.phases_run, probe.islands_claimed, probe.relays_staged,
        );
        group.throughput(Throughput::Elements(events));
        group.bench_function(&format!("{name}_5s_simulated"), |b| {
            b.iter_batched(
                || sim(n, topology, 1),
                |s| black_box(run(s).total_throughput_kbps()),
            )
        });
        // The parallel twin simulates the identical scenario; only the
        // wall clock (and the barrier-round count) may differ.
        let par_probe = run(sim(n, topology, 4));
        println!(
            "{name:<44} {} barrier rounds at 4 threads",
            par_probe.barrier_rounds,
        );
        group.throughput(Throughput::Elements(events));
        group.bench_function(&format!("{name}_5s_parallel4"), |b| {
            b.iter_batched(
                || sim(n, topology, 4),
                |s| black_box(run(s).total_throughput_kbps()),
            )
        });
    }
    // The sanitized twin: the chained-3 scenario under the causality
    // sanitizer. Tracks the instrumentation's own overhead; the default
    // cases above stay on the compiled-out path.
    let san_probe = run(sim(3, Topology::Chain, 1));
    group.throughput(Throughput::Elements(san_probe.events_processed));
    group.bench_function("chained3_5s_sanitized", |b| {
        b.iter_batched(
            || sim(3, Topology::Chain, 1),
            |s| {
                let sanitized = s
                    .run_sanitized(SimTime::from_secs(5))
                    .expect("scenario runs");
                assert!(sanitized.sanitizer.clean(), "clean engine tripped");
                black_box(sanitized.sanitizer.events_checked)
            },
        )
    });
    group.finish();

    // Same-session one-thread ns/event of the meshes, and their ratios.
    let ns_per_event = |name: &str| {
        let (_, events) = events_of
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a benchmarked case");
        let ns = c
            .median_ns(&format!("scatternet_steady/{name}_5s_simulated"))
            .expect("the case ran");
        ns / *events as f64
    };
    let (m16, m64, m256) = (
        ns_per_event("mesh16"),
        ns_per_event("mesh64"),
        ns_per_event("mesh256"),
    );
    println!("mesh ns/event (one thread): mesh16 {m16:.1}, mesh64 {m64:.1}, mesh256 {m256:.1}");
    println!("mesh ns/event ratio mesh256/mesh64: {:.3}", m256 / m64);
    println!("mesh ns/event ratio mesh64/mesh16: {:.3}", m64 / m16);
}

criterion_group!(benches, scatternet_throughput);
criterion_main!(benches);
