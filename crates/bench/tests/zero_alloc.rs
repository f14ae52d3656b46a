//! CI enforcement of the allocation-free hot paths (ROADMAP item).
//!
//! Installs the counting global allocator and asserts a **zero** allocation
//! delta across three hot loops:
//!
//! 1. every poller's per-decision path,
//! 2. the DES engine's event loop (sorted-buffer push/pop cycle),
//! 3. the full piconet simulator's steady state, bracketed inside a run
//!    via [`PiconetSim::run_probed`] after warm-up growth has settled.
//!
//! It also holds the one-island build of the Fig. 4 piconet to a fixed
//! allocation budget, in set-up and at run start, and the `mesh256` build
//! to a byte budget.
//!
//! The binary runs **without the libtest harness** (`harness = false`):
//! the allocation counter is process-global, and even an otherwise idle
//! harness occasionally allocates from its controller thread, which would
//! make a zero-delta assertion flaky. Here `main` is the only thread.

use btgs_baseband::{AmAddr, ChannelModel, Direction, IdealChannel, LogicalChannel, PacketType};
use btgs_bench::alloc_counter::{allocated_bytes, allocation_count, CountingAllocator};
use btgs_core::{
    BeSourceMix, PaperScenario, PaperScenarioParams, PollerKind, ScatternetScenario,
    ScatternetScenarioParams, Topology,
};
use btgs_des::{DetRng, SimDuration, SimTime, Simulator};
use btgs_piconet::{FlowSpec, FlowState, FlowTable, MasterView, PiconetSim, Poller};
use btgs_pollers::{
    ExhaustiveRoundRobinPoller, FepPoller, HolPriorityPoller, PfpBePoller, RoundRobinPoller,
};
use btgs_traffic::{CbrSource, FlowId};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The paper's Fig. 4 flow layout (4 GS + 8 BE flows over 7 slaves).
fn fig4_flows() -> Vec<FlowSpec> {
    let s = |n| AmAddr::new(n).unwrap();
    let mut out = Vec::new();
    let gs = [
        (1, 1, Direction::SlaveToMaster),
        (2, 2, Direction::MasterToSlave),
        (3, 2, Direction::SlaveToMaster),
        (4, 3, Direction::SlaveToMaster),
    ];
    for (id, slave, dir) in gs {
        out.push(FlowSpec::new(
            FlowId(id),
            s(slave),
            dir,
            LogicalChannel::GuaranteedService,
        ));
    }
    for k in 0..4u32 {
        let sl = s(4 + k as u8);
        out.push(FlowSpec::new(
            FlowId(5 + 2 * k),
            sl,
            Direction::MasterToSlave,
            LogicalChannel::BestEffort,
        ));
        out.push(FlowSpec::new(
            FlowId(6 + 2 * k),
            sl,
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        ));
    }
    out
}

/// Drives `poller.decide` across moving instants; returns the allocation
/// delta over the timed loop (after a warm-up pass that may register
/// per-slave state).
fn decide_loop_allocs(poller: &mut dyn Poller) -> u64 {
    let table = FlowTable::new(fig4_flows()).unwrap();
    let queues = FlowState::for_table(&table);
    let mut t = 0u64;
    let mut run = |n: u32, t: &mut u64| {
        for _ in 0..n {
            *t += 1_250_000;
            let now = SimTime::from_nanos(*t);
            let view = MasterView::new(now, &table, &queues);
            black_box(poller.decide(now, &view));
        }
    };
    run(64, &mut t); // warm-up: first-decision registration may allocate
    let before = allocation_count();
    run(4096, &mut t);
    allocation_count() - before
}

fn poller_decisions_are_allocation_free() {
    let pollers: Vec<(&str, Box<dyn Poller>)> = vec![
        ("round-robin", Box::new(RoundRobinPoller::new())),
        ("exhaustive", Box::new(ExhaustiveRoundRobinPoller::new())),
        (
            "fep",
            Box::new(FepPoller::new(SimDuration::from_millis(25))),
        ),
        ("hol", Box::new(HolPriorityPoller::new())),
        (
            "pfp-be",
            Box::new(PfpBePoller::new(SimDuration::from_millis(25))),
        ),
    ];
    for (name, mut poller) in pollers {
        let delta = decide_loop_allocs(poller.as_mut());
        assert_eq!(delta, 0, "poller '{name}' allocated {delta} times");
    }
}

fn des_event_loop_is_allocation_free() {
    let mut sim = Simulator::new(0u64);
    sim.scheduler_mut().schedule_at(SimTime::ZERO, ());
    // Warm-up: grow the event buffer to its working capacity.
    sim.run_until(SimTime::from_millis(300), |sched, count, ()| {
        *count += 1;
        sched.schedule_in(SimDuration::from_millis(1), ());
    });
    let before = allocation_count();
    sim.run_until(SimTime::from_millis(2_300), |sched, count, ()| {
        *count += 1;
        sched.schedule_in(SimDuration::from_millis(1), ());
    });
    let delta = allocation_count() - before;
    assert_eq!(delta, 0, "DES event loop allocated {delta} times");
    assert!(*sim.state() > 2_000, "loop actually ran");
}

fn sim_steady_state_is_allocation_free() {
    // The paper scenario without the (deliberately overloading) BE flows:
    // queues stay bounded, so after warm-up the event loop must not touch
    // the allocator at all — queue slots, the event buffer, poller state and
    // report buffers all recycle.
    let scenario = PaperScenario::build(PaperScenarioParams {
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_millis(500),
        include_be: false,
        ..Default::default()
    });
    let poller = scenario.poller(PollerKind::PfpGs);
    let mut sim = PiconetSim::new(
        scenario.config.clone(),
        Box::new(poller),
        Box::new(IdealChannel),
    )
    .unwrap();
    for src in scenario.sources() {
        sim.add_source(src).unwrap();
    }
    // Bracket simulated seconds 2..6 inside the run: the first probe fires
    // at the checkpoint, the second when the run loop finishes (before any
    // report assembly).
    let mut marks = [0u64; 2];
    let mut i = 0;
    let report = sim
        .run_probed(SimTime::from_secs(2), SimTime::from_secs(6), &mut || {
            marks[i.min(1)] = allocation_count();
            i += 1;
        })
        .unwrap();
    assert_eq!(i, 2, "probe fires at checkpoint and at loop end");
    let delta = marks[1] - marks[0];
    assert_eq!(
        delta, 0,
        "sim steady state allocated {delta} times over 4 simulated seconds"
    );
    // Sanity: the bracketed window processed real work.
    assert!(report.events_processed > 2_000);
    assert!(report.total_throughput_kbps() > 200.0);
}

/// Allocation budget of a one-island build. The Fig. 4 `PiconetSim` runs
/// on the island engine, and must still build and start about as cheaply
/// as a dedicated single-piconet engine: set-up (`PiconetSim::new` plus
/// the sources) and run start (the island's event queue, seeding, the
/// first simulated millisecond) are counted separately. Allocation counts
/// are deterministic, so this pins the set-up cost where wall-clock
/// timings on a drifting host cannot.
///
/// Measured: set-up 36 allocations; run start 11 allocations of 3,448
/// bytes. Each flow's state is one record in one vector per world, its
/// allowed-type sets stored inline; a world that keeps parallel per-flow
/// vectors and three heap sets per flow makes 76 set-up allocations and
/// fails the budget. The island's event queue holds its events inline in
/// one buffer sized when it is created, so seeding grows nothing.
fn one_island_build_stays_within_budget() {
    const BUILD_ALLOCS: u64 = 38;
    const START_ALLOCS: u64 = 14;
    const START_BYTES: u64 = 4 * 1024;
    let scenario = PaperScenario::build(PaperScenarioParams {
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_millis(500),
        include_be: true,
        ..Default::default()
    });
    let config = scenario.config.clone();
    let poller: Box<dyn Poller> = Box::new(scenario.poller(PollerKind::PfpGs));
    let channel: Box<dyn ChannelModel> = Box::new(IdealChannel);
    let sources = scenario.sources();

    let before = allocation_count();
    let mut sim = PiconetSim::new(config, poller, channel).unwrap();
    for src in sources {
        sim.add_source(src).unwrap();
    }
    let build = allocation_count() - before;
    assert!(
        build <= BUILD_ALLOCS,
        "PiconetSim::new plus sources allocated {build} times (budget {BUILD_ALLOCS})"
    );

    let (count0, bytes0) = (allocation_count(), allocated_bytes());
    let mut start = None;
    let report = sim
        .run_probed(SimTime::from_millis(1), SimTime::from_secs(1), &mut || {
            start.get_or_insert((allocation_count() - count0, allocated_bytes() - bytes0));
        })
        .unwrap();
    let (allocs, bytes) = start.expect("the probe fires at the checkpoint");
    assert!(
        allocs <= START_ALLOCS && bytes <= START_BYTES,
        "run start to a 1 ms checkpoint allocated {allocs} times, {bytes} bytes \
         (budget {START_ALLOCS} times, {START_BYTES} bytes)"
    );
    assert!(report.events_processed > 0);
    println!("  build: {build} allocations; run start: {allocs} allocations, {bytes} bytes");
}

/// Byte budget of the `mesh256` build: perfbench's mesh cell (256
/// piconets, degree-3 mesh, topology seed 11, GS only) assembled through
/// `ScatternetScenario::simulator`, sources included. The islands keep
/// statistics only for the chains routed through them, stage at most one
/// phase's relays and size their relay queues and origin FIFOs to a
/// sustainable chain, and every flow's state is one record with its
/// allowed-type sets inline: the build asks for 18,843,674 bytes, and
/// the budget leaves 5 % head-room. Parallel per-flow vectors and heap
/// allowed-type sets add under 0.1 MB (18,938,694 bytes), too little for
/// this gate; the one-island allocation budget pins that layout. A build
/// that also sizes every chain's statistics on every island, 128 staging
/// slots per bridged island, 64 queue slots per routed hop and
/// 1,024-entry origin FIFOs asks for 28,275,782 bytes and fails it.
fn mesh256_build_stays_within_budget() {
    const BUILD_BYTES: u64 = 19_800_000;
    let scenario = ScatternetScenario::build(ScatternetScenarioParams {
        piconets: 256,
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_millis(500),
        include_be: false,
        bridge_cycle: SimDuration::from_millis(20),
        chain_deadline: None,
        bidirectional: false,
        be_load_scale: 1.0,
        be_source_mix: BeSourceMix::Cbr,
        topology: Topology::Mesh {
            degree: 3,
            seed: 11,
        },
    });
    let bytes0 = allocated_bytes();
    let sim = scenario.simulator(PollerKind::PfpGs).unwrap();
    let bytes = allocated_bytes() - bytes0;
    black_box(sim);
    assert!(
        bytes <= BUILD_BYTES,
        "the mesh256 build asked for {bytes} bytes (budget {BUILD_BYTES})"
    );
    println!("  mesh256 build: {bytes} bytes");
}

fn scatternet_steady_state_is_allocation_free() {
    // Two chained Fig. 4 piconets with one bridged GS flow, without the
    // (deliberately overloading) BE load: after warm-up the event queues,
    // both piconet worlds, the relay outboxes, the origin FIFO and the
    // chain statistics must all recycle — zero allocator traffic even
    // while packets cross the bridge every cycle.
    let scenario = ScatternetScenario::build(ScatternetScenarioParams {
        piconets: 2,
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_millis(500),
        include_be: false,
        bridge_cycle: SimDuration::from_millis(20),
        chain_deadline: None,
        bidirectional: false,
        be_load_scale: 1.0,
        be_source_mix: BeSourceMix::Cbr,
        topology: Topology::Chain,
    });
    let sim = scenario.simulator(PollerKind::PfpGs).unwrap();
    let mut marks = [0u64; 2];
    let mut i = 0;
    let report = sim
        .run_probed(SimTime::from_secs(2), SimTime::from_secs(6), &mut || {
            marks[i.min(1)] = allocation_count();
            i += 1;
        })
        .unwrap();
    assert_eq!(i, 2, "probe fires at checkpoint and at loop end");
    let delta = marks[1] - marks[0];
    assert_eq!(
        delta, 0,
        "scatternet steady state allocated {delta} times over 4 simulated seconds"
    );
    // Sanity: the bracketed window processed real cross-piconet work.
    assert!(report.events_processed > 4_000);
    assert!(report.chains[0].delivered_packets > 100);
}

fn mixed_acl_sco_steady_state_is_allocation_free() {
    // An SCO link alongside a CBR ACL flow exercises the reservation cache
    // and the SCO handlers in the bracketed window.
    use btgs_baseband::ScoLink;
    use btgs_piconet::{PiconetConfig, ScoBinding};

    let config = PiconetConfig::new(vec![PacketType::Dh1, PacketType::Dh3])
        .with_flow(FlowSpec::new(
            FlowId(1),
            AmAddr::new(1).unwrap(),
            Direction::SlaveToMaster,
            LogicalChannel::BestEffort,
        ))
        .with_sco(ScoBinding {
            slave: AmAddr::new(2).unwrap(),
            link: ScoLink::new(PacketType::Hv3, 0).unwrap(),
            voice_flow: Some(FlowId(9)),
        })
        .with_warmup(SimDuration::from_millis(500));
    let mut sim = PiconetSim::new(
        config,
        Box::new(btgs_piconet::RoundRobinForTest::default()),
        Box::new(IdealChannel),
    )
    .unwrap();
    sim.add_source(Box::new(CbrSource::new(
        FlowId(1),
        SimDuration::from_millis(20),
        160,
        160,
        DetRng::seed_from_u64(1),
    )))
    .unwrap();
    sim.add_source(Box::new(CbrSource::new(
        FlowId(9),
        SimDuration::from_millis(3750) / 1000,
        30,
        30,
        DetRng::seed_from_u64(2),
    )))
    .unwrap();
    let mut marks = [0u64; 2];
    let mut i = 0;
    let report = sim
        .run_probed(SimTime::from_secs(2), SimTime::from_secs(5), &mut || {
            marks[i.min(1)] = allocation_count();
            i += 1;
        })
        .unwrap();
    let delta = marks[1] - marks[0];
    assert_eq!(delta, 0, "ACL+SCO steady state allocated {delta} times");
    assert!(report.events_processed > 1_000);
}

fn observed_scatternet_steady_state_is_allocation_free() {
    // The same chained scenario as above, but through the observed engine
    // with the trace ring, the telemetry registry and per-island event
    // meters all switched ON (`fine_events` records one instant per
    // island event). Everything is pre-sized — the rings at sink
    // creation, the histograms and counters as fixed arrays, the meter
    // state inline — so even fully instrumented the steady state must
    // not touch the allocator. This is the gate that keeps the
    // observability seam honest: "compiled in and enabled" may cost
    // cycles, never heap traffic.
    use btgs_piconet::{EventMeter, ObsConfig};

    /// A clock-free meter: tallies `begin`/`end` pairs per tag. (Wall
    /// meters live in the benchmark harness; here only the call protocol
    /// and its allocation behaviour are under test.)
    #[derive(Default)]
    struct TallyMeter {
        counts: [u64; 8],
        open: bool,
    }
    impl EventMeter for TallyMeter {
        fn begin(&mut self) {
            self.open = true;
        }
        fn end(&mut self, tag: u8) {
            assert!(self.open, "end without begin");
            self.open = false;
            self.counts[(tag as usize).min(7)] += 1;
        }
        fn as_any(&self) -> &dyn core::any::Any {
            self
        }
    }

    let scenario = ScatternetScenario::build(ScatternetScenarioParams {
        piconets: 2,
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_millis(500),
        include_be: false,
        bridge_cycle: SimDuration::from_millis(20),
        chain_deadline: None,
        bidirectional: false,
        be_load_scale: 1.0,
        be_source_mix: BeSourceMix::Cbr,
        topology: Topology::Chain,
    });
    let sim = scenario.simulator(PollerKind::PfpGs).unwrap();
    let meters: Vec<Box<dyn EventMeter>> =
        vec![Box::<TallyMeter>::default(), Box::<TallyMeter>::default()];
    let cfg = ObsConfig {
        ring_capacity: 1 << 16,
        fine_events: true,
    };
    let mut marks = [0u64; 2];
    let mut i = 0;
    let run = sim
        .run_observed_probed(
            SimTime::from_secs(2),
            SimTime::from_secs(6),
            &mut || {
                marks[i.min(1)] = allocation_count();
                i += 1;
            },
            cfg,
            meters,
        )
        .unwrap();
    assert_eq!(i, 2, "probe fires at checkpoint and at loop end");
    let delta = marks[1] - marks[0];
    assert_eq!(
        delta, 0,
        "observed scatternet steady state allocated {delta} times over 4 simulated seconds"
    );
    // Sanity: the instrumentation actually observed the window.
    assert!(run.report.events_processed > 4_000);
    assert!(run.telemetry.events_processed > 4_000);
    assert!(!run.trace.records.is_empty(), "trace ring captured records");
    let metered: u64 = run
        .meters
        .iter()
        .map(|m| {
            m.as_any()
                .downcast_ref::<TallyMeter>()
                .expect("meters come back as handed in")
                .counts
                .iter()
                .sum::<u64>()
        })
        .sum();
    assert_eq!(
        metered, run.telemetry.events_processed,
        "every island event gets a begin/end pair"
    );
}

fn parallel_scatternet_steady_state_is_allocation_free() {
    // The same bracketed window as `scatternet_steady_state_is_allocation_
    // free`, but through the phased engine with two worker threads. The
    // workers are spawned once at run start (before the checkpoint), the
    // staging scratch and every island buffer are pre-sized, and workers
    // only ever lock-and-run islands between barriers — so the steady
    // state must stay allocation-free even though the counter is
    // process-global and sees every thread.
    let scenario = ScatternetScenario::build(ScatternetScenarioParams {
        piconets: 2,
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_millis(500),
        include_be: false,
        bridge_cycle: SimDuration::from_millis(20),
        chain_deadline: None,
        bidirectional: false,
        be_load_scale: 1.0,
        be_source_mix: BeSourceMix::Cbr,
        topology: Topology::Chain,
    });
    let sim = scenario
        .simulator(PollerKind::PfpGs)
        .unwrap()
        .with_threads(2);
    let mut marks = [0u64; 2];
    let mut i = 0;
    let report = sim
        .run_probed(SimTime::from_secs(2), SimTime::from_secs(6), &mut || {
            marks[i.min(1)] = allocation_count();
            i += 1;
        })
        .unwrap();
    assert_eq!(i, 2, "probe fires at checkpoint and at loop end");
    let delta = marks[1] - marks[0];
    assert_eq!(
        delta, 0,
        "parallel scatternet steady state allocated {delta} times over 4 simulated seconds"
    );
    assert!(report.events_processed > 4_000);
    assert!(report.chains[0].delivered_packets > 100);
}

fn mesh_scatternet_steady_state_is_allocation_free() {
    // Mesh scale: 256 random-geometric piconets, every spanning edge
    // covered by a relay chain, run through the adaptive parallel engine.
    // The relay pool, the boundary calendar, the per-island meta table
    // and the staging buffers are all sized up front, so even hundreds of
    // islands exchanging relays every rendezvous cycle must not touch
    // the allocator after warm-up. Degree 2: each piconet then carries at
    // most one inbound and one outbound bridge role, whose presence
    // windows anti-phase within the rendezvous cycle — the same
    // sustainable transit layout as a chain. (At degree 3 two inbound
    // bridge slaves share one half-cycle window and the relay fabric is
    // over-committed by construction — the bench covers that regime; a
    // steady-state gate cannot.)
    let scenario = ScatternetScenario::build(ScatternetScenarioParams {
        piconets: 256,
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_millis(500),
        include_be: false,
        bridge_cycle: SimDuration::from_millis(20),
        chain_deadline: None,
        bidirectional: false,
        be_load_scale: 1.0,
        be_source_mix: BeSourceMix::Cbr,
        topology: Topology::Mesh {
            degree: 2,
            seed: 11,
        },
    });
    let sim = scenario
        .simulator(PollerKind::PfpGs)
        .unwrap()
        .with_threads(2);
    let mut marks = [0u64; 2];
    let mut i = 0;
    let report = sim
        .run_probed(SimTime::from_secs(2), SimTime::from_secs(6), &mut || {
            marks[i.min(1)] = allocation_count();
            i += 1;
        })
        .unwrap();
    assert_eq!(i, 2, "probe fires at checkpoint and at loop end");
    let delta = marks[1] - marks[0];
    assert_eq!(
        delta, 0,
        "mesh scatternet steady state allocated {delta} times over 4 simulated seconds"
    );
    assert!(report.events_processed > 100_000);
    assert!(
        report
            .chains
            .iter()
            .map(|c| c.delivered_packets)
            .sum::<u64>()
            > 1_000
    );
}

/// The streaming grid aggregator's memory must be bounded by the number
/// of summary series, **not** the cell count (the ISSUE's acceptance
/// criterion for "millions of cells" sweeps): aggregating 256 cells must
/// allocate exactly as much as aggregating 16 — and, once every poller
/// series exists, exactly nothing.
fn grid_aggregator_memory_is_independent_of_cell_count() {
    use btgs_core::{BeSourceMix, CellSink, GridCell, ScenarioGrid};
    use btgs_grid::OnlineAggregator;

    let grid = ScenarioGrid {
        pollers: vec![PollerKind::PfpGs, PollerKind::FixedGs],
        piconets: vec![1],
        seeds: vec![1],
        topologies: vec![Topology::Chain],
        delay_requirements: vec![SimDuration::from_millis(40)],
        chain_deadlines: vec![None],
        bidirectional: false,
        bridge_cycle: SimDuration::from_millis(20),
        horizon: SimTime::from_secs(1),
        warmup: SimDuration::from_millis(250),
        include_be: true,
        be_load_scale: vec![1.0],
        be_source_mix: BeSourceMix::Cbr,
        telemetry: false,
    };
    // Two simulated results re-presented under many indices: the
    // aggregator only ever sees (cell coordinates, reports), so this is
    // indistinguishable from a genuinely large grid with identical
    // outcomes — and isolates *aggregation* allocation from simulation.
    let results: Vec<_> = grid.cells().iter().map(GridCell::run).collect();

    let aggregate = |cells: usize| -> u64 {
        let mut agg = OnlineAggregator::for_grid(&grid);
        let before = allocation_count();
        for i in 0..cells {
            agg.accept(i, &results[i % results.len()]);
        }
        let delta = allocation_count() - before;
        assert_eq!(agg.cells() as usize, cells);
        black_box(agg);
        delta
    };

    let small = aggregate(16);
    let large = aggregate(256);
    assert_eq!(
        small, large,
        "aggregating 256 cells must allocate exactly as much as 16 \
         (got {small} vs {large} allocations)"
    );
    // Stronger: with the series pre-registered, streaming allocates
    // nothing at all.
    assert_eq!(
        small, 0,
        "pre-registered aggregator must stream without allocating"
    );
}

fn main() {
    poller_decisions_are_allocation_free();
    println!("ok - poller decisions are allocation-free");
    des_event_loop_is_allocation_free();
    println!("ok - DES event loop is allocation-free");
    sim_steady_state_is_allocation_free();
    println!("ok - simulator steady state is allocation-free");
    mixed_acl_sco_steady_state_is_allocation_free();
    println!("ok - ACL+SCO steady state is allocation-free");
    one_island_build_stays_within_budget();
    println!("ok - one-island build stays within its allocation budget");
    mesh256_build_stays_within_budget();
    println!("ok - mesh256 build stays within its byte budget");
    scatternet_steady_state_is_allocation_free();
    println!("ok - scatternet steady state is allocation-free");
    observed_scatternet_steady_state_is_allocation_free();
    println!("ok - observed (traced+metered) scatternet steady state is allocation-free");
    parallel_scatternet_steady_state_is_allocation_free();
    println!("ok - parallel scatternet steady state is allocation-free");
    mesh_scatternet_steady_state_is_allocation_free();
    println!("ok - 256-piconet mesh steady state is allocation-free");
    grid_aggregator_memory_is_independent_of_cell_count();
    println!("ok - grid aggregator memory is independent of cell count");
}
