//! **Ablation A** — fixed-interval (§3.1) vs. variable-interval (§3.2)
//! polling: the motivation for the paper's improvements.
//!
//! Both pollers provide the same delay guarantee; the fixed poller simply
//! polls more often than needed, burning slots that the variable poller
//! leaves to best-effort traffic. The 2 × 3 grid runs in parallel through
//! [`ExperimentRunner`].

use btgs_bench::{banner, be_total_kbps, BenchArgs};
use btgs_core::{
    BeSourceMix, CollectSink, ExperimentRunner, MultiSink, PollerKind, ScenarioGrid, Topology,
};
use btgs_des::SimDuration;
use btgs_grid::OnlineAggregator;
use btgs_metrics::Table;

fn main() {
    let args = BenchArgs::parse(60);
    banner("Ablation: fixed vs. variable interval poller", &args);

    let grid = ScenarioGrid {
        pollers: vec![PollerKind::FixedGs, PollerKind::PfpGs],
        piconets: vec![1],
        seeds: vec![args.seed],
        topologies: vec![Topology::Chain],
        delay_requirements: [36u64, 40, 46]
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .collect(),
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
    // Streamed execution through the grid subsystem's sinks.
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
        "Dreq",
        "poller",
        "GS slots/s",
        "GS overhead slots/s",
        "unsuccessful GS polls/s",
        "BE total [kbps]",
        "GS max delay",
        "violations",
    ]);
    // Render requirement-major (the paper's reading order); the grid itself
    // is poller-major.
    for &dreq in &grid.delay_requirements {
        for &kind in &grid.pollers {
            let label = match kind {
                PollerKind::FixedGs => "fixed (§3.1)",
                _ => "variable (§3.2)",
            };
            let cell = report
                .cells
                .iter()
                .find(|c| c.cell.poller == kind && c.cell.delay_requirement == dreq)
                .expect("cell present in grid");
            let window_s = cell.report.window().as_secs_f64();
            t.row(vec![
                dreq.to_string(),
                label.into(),
                format!("{:.0}", cell.report.ledger.gs_total() as f64 / window_s),
                format!("{:.0}", cell.report.ledger.gs_overhead as f64 / window_s),
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
    }
    println!("{}", t.render());
    println!("\nStreaming per-poller aggregate (bounded memory):");
    println!("{}", aggregate.summary_table().render());
    println!("Expected: both meet the bound (violations = 0); the variable poller");
    println!("spends fewer GS slots, leaving more for BE — the §3.2 claim.");
}
