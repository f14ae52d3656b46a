//! **Ablation B** — the three §3.2 improvements toggled individually:
//!
//! * (a) packet-size-aware postponement after a packet's last segment;
//! * (b) replanning unsuccessful polls from their actual time;
//! * (c) skipping polls for known-empty master→slave flows.
//!
//! All five variants run concurrently through [`ExperimentRunner`].

use btgs_bench::{banner, be_total_kbps, BenchArgs};
use btgs_core::{
    BeSourceMix, CollectSink, ExperimentRunner, Improvements, MultiSink, PollerKind, ScenarioGrid,
    Topology,
};
use btgs_des::SimDuration;
use btgs_grid::OnlineAggregator;
use btgs_metrics::Table;

fn main() {
    let args = BenchArgs::parse(60);
    banner("Ablation: §3.2 improvements (a)/(b)/(c)", &args);

    let variants: [(&str, Improvements); 5] = [
        ("none (fixed §3.1)", Improvements::NONE),
        (
            "(a) only",
            Improvements {
                packet_aware: true,
                replan_from_actual: false,
                skip_empty_downlink: false,
            },
        ),
        (
            "(a)+(b)",
            Improvements {
                packet_aware: true,
                replan_from_actual: true,
                skip_empty_downlink: false,
            },
        ),
        (
            "(b) only",
            Improvements {
                packet_aware: false,
                replan_from_actual: true,
                skip_empty_downlink: false,
            },
        ),
        ("(a)+(b)+(c) (§3.2)", Improvements::ALL),
    ];

    let grid = ScenarioGrid {
        pollers: variants
            .iter()
            .map(|(_, imp)| PollerKind::Custom(*imp))
            .collect(),
        piconets: vec![1],
        seeds: vec![args.seed],
        topologies: vec![Topology::Chain],
        delay_requirements: vec![SimDuration::from_millis(40)],
        chain_deadlines: vec![None],
        bidirectional: false,
        bridge_cycle: SimDuration::from_millis(20),
        horizon: args.horizon(),
        warmup: SimDuration::from_secs(2),
        include_be: true,
        be_load_scale: vec![1.0],
        be_source_mix: BeSourceMix::Cbr,
        telemetry: false,
    };
    // Streamed execution: the in-memory collector and the bounded-memory
    // aggregator ride the same CellSink pass (grid-subsystem plumbing).
    let mut collect = CollectSink::new();
    let mut aggregate = OnlineAggregator::for_grid(&grid);
    {
        let mut sinks = MultiSink::new(vec![&mut collect, &mut aggregate]);
        ExperimentRunner::new()
            .run_grid_streaming(&grid, &mut sinks)
            .expect("ablation grid is valid");
    }
    let report = collect.into_report();

    let mut t = Table::new(vec![
        "improvements",
        "GS slots/s",
        "unsuccessful GS polls/s",
        "BE total [kbps]",
        "GS max delay",
        "violations",
    ]);
    // Grid order is poller-major with one seed and one requirement, so the
    // cells land exactly in variant order.
    for ((label, _), cell) in variants.iter().zip(&report.cells) {
        let window_s = cell.report.window().as_secs_f64();
        t.row(vec![
            (*label).into(),
            format!("{:.0}", cell.report.ledger.gs_total() as f64 / window_s),
            format!("{:.1}", cell.report.gs_polls.unsuccessful as f64 / window_s),
            format!("{:.1}", be_total_kbps(&cell.report)),
            cell.checks()
                .filter_map(|c| c.max)
                .max()
                .expect("GS flows see traffic")
                .to_string(),
            cell.checks().map(|c| c.over).sum::<usize>().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("\nStreaming per-poller aggregate (bounded memory):");
    println!("{}", aggregate.summary_table().render());
    println!("Expected: every variant keeps the guarantee; GS slot usage falls as");
    println!("improvements are added. Improvement (c) has no effect in this scenario:");
    println!("the only master->slave GS flow (flow 2) shares its polls with uplink");
    println!("flow 3 (piggybacking), and polls with a possible uplink payload can");
    println!("never be skipped — the master cannot see the slave's queue.");
}
