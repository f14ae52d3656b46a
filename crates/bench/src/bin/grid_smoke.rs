//! Sharded-runner smoke check (CI gate).
//!
//! Runs one grid twice — in-process via `ExperimentRunner`, and sharded
//! across worker *processes* via `btgs_grid::ShardedGridRunner` — and
//! asserts the merged `GridReport`s are **bit-for-bit identical**
//! (digest and summary table). The sharded pass streams every cell into
//! a `CollectSink` for its merged report, through the bounded-memory
//! `OnlineAggregator`, and into a JSONL spill file for the CI artifacts.
//!
//! Usage: `grid_smoke [--seconds N] [--seed N] [--workers N]`. The
//! spill and checkpoints land in `$BTGS_GRID_ARTIFACTS` (default
//! `grid-artifacts/`).
//!
//! Exits non-zero on any mismatch.

use btgs_core::{
    comparison_pollers, BeSourceMix, CollectSink, ExperimentRunner, MultiSink, ScenarioGrid,
    Topology,
};
use btgs_des::{SimDuration, SimTime};
use btgs_grid::{GridPartitioner, JsonlSpillSink, OnlineAggregator, ShardedGridRunner};
use std::path::PathBuf;
use std::process::ExitCode;

fn worker_bin() -> PathBuf {
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("binary directory");
    let candidate = dir.join(format!("grid_worker{}", std::env::consts::EXE_SUFFIX));
    assert!(
        candidate.exists(),
        "grid_worker binary not found next to grid_smoke at {}; build it with \
         `cargo build -p btgs-bench --bin grid_worker`",
        candidate.display()
    );
    candidate
}

fn main() -> ExitCode {
    // Minimal arg parsing (the shared BenchArgs lacks --workers).
    let mut seconds = 2u64;
    let mut seed = 1u64;
    let mut workers = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = || {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .expect("flag needs a positive integer")
        };
        match flag.as_str() {
            "--seconds" => seconds = take(),
            "--seed" => seed = take(),
            "--workers" => workers = take() as usize,
            other => panic!("unknown flag {other}; known: --seconds --seed --workers"),
        }
    }

    let grid = ScenarioGrid {
        pollers: comparison_pollers(),
        piconets: vec![1, 2],
        seeds: (seed..seed + 4).collect(),
        topologies: vec![Topology::Chain],
        delay_requirements: vec![SimDuration::from_millis(40)],
        chain_deadlines: vec![None],
        bidirectional: false,
        bridge_cycle: SimDuration::from_millis(20),
        horizon: SimTime::from_secs(seconds),
        warmup: SimDuration::from_millis(500),
        include_be: true,
        be_load_scale: vec![1.0, 1.5],
        be_source_mix: BeSourceMix::Cbr,
        telemetry: false,
    };
    let cells = grid.cells().len();
    println!("=== sharded-runner smoke: {cells} cells, {workers} worker processes ===");

    let reference = ExperimentRunner::new().run_grid(&grid);

    let artifacts = PathBuf::from(
        std::env::var("BTGS_GRID_ARTIFACTS").unwrap_or_else(|_| "grid-artifacts".into()),
    );
    std::fs::create_dir_all(&artifacts).expect("artifact dir");
    let ckpt_dir = artifacts.join("checkpoints");
    // A fresh smoke run must not resume an older one's checkpoints.
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let mut collect = CollectSink::new();
    let mut aggregator = OnlineAggregator::for_grid(&grid);
    let mut spill =
        JsonlSpillSink::create(&artifacts.join("grid_cells.jsonl"), &grid).expect("spill file");
    let stats = {
        let mut sinks = MultiSink::new(vec![&mut collect, &mut aggregator, &mut spill]);
        ShardedGridRunner::new(&worker_bin(), &ckpt_dir, workers)
            .with_partitioner(GridPartitioner::with_target_cells_per_shard(4))
            .run_streaming(&grid, &mut sinks)
            .expect("sharded run must complete")
    };
    let (spill_path, lines) = spill.finish().expect("spill flushed");
    println!(
        "sharded: {} workers spawned, {} cells executed, {} replayed; spill {} ({lines} lines)",
        stats.workers_spawned,
        stats.executed_cells,
        stats.replayed_cells,
        spill_path.display(),
    );
    let sharded = collect.into_report();

    let mut failed = false;
    if reference.digest() != sharded.digest() {
        eprintln!("FAIL: sharded digest differs from in-process digest");
        failed = true;
    }
    if reference.summary_table().render() != sharded.summary_table().render() {
        eprintln!("FAIL: sharded summary table differs from in-process table");
        failed = true;
    }
    if lines != cells as u64 {
        eprintln!("FAIL: spill has {lines} lines for {cells} cells");
        failed = true;
    }
    if aggregator.cells() != cells as u64 {
        eprintln!(
            "FAIL: aggregator saw {} cells of {cells}",
            aggregator.cells()
        );
        failed = true;
    }

    println!("\nstreaming aggregator summary (bounded memory):");
    println!("{}", aggregator.summary_table().render());
    println!("\nin-process summary (reference):");
    println!("{}", reference.summary_table().render());

    if failed {
        eprintln!("sharded-runner smoke FAILED");
        return ExitCode::FAILURE;
    }
    println!("sharded run is bit-for-bit identical to the in-process runner ✓");
    ExitCode::SUCCESS
}
