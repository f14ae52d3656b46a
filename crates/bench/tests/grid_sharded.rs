//! Multi-process sharded-runner contract tests.
//!
//! The acceptance bar: a sharded run of a ≥ 64-cell grid streams into a
//! `CollectSink` a `GridReport` **byte-identical** to the single-process
//! `ExperimentRunner`'s at any worker count (1, 2, 4), including after a
//! worker is killed mid-shard and the run resumed from checkpoints.
//!
//! These tests spawn the real `grid_worker` binary
//! (`CARGO_BIN_EXE_grid_worker`), so they cover the full pipeline:
//! partitioning, the spec hand-off on stdin, length-prefixed frames over
//! stdout, checkpoint append/replay/truncation, retry, and the merge.

use btgs_core::{
    comparison_pollers, BeSourceMix, CellOutcome, CellResult, CellSink, CollectSink,
    ExperimentRunner, MultiSink, PaperScenario, PollerKind, ScenarioGrid, Topology,
};
use btgs_des::{SimDuration, SimTime};
use btgs_grid::wire::{
    frame_from_json, frame_to_json, write_frame, CellFrame, FrameRead, FrameReader,
};
use btgs_grid::{GridPartitioner, JsonlSpillSink, OnlineAggregator, ShardedGridRunner};
use btgs_piconet::ScatternetReport;
use btgs_traffic::FlowId;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

fn worker_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_grid_worker"))
}

/// The crash-injection env vars are process-global and inherited by every
/// spawned worker, so tests that spawn workers must not overlap.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_guard() -> MutexGuard<'static, ()> {
    ENV_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fresh scratch dir per test (removed on success; kept for post-mortem
/// on failure).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btgs-grid-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// 4 pollers × 2 piconet counts × 4 seeds × 2 BE load scales = 64
/// cells (the acceptance floor), scatternet cells included.
fn grid_64() -> ScenarioGrid {
    ScenarioGrid {
        pollers: comparison_pollers(),
        piconets: vec![1, 2],
        seeds: (1..=4).collect(),
        topologies: vec![Topology::Chain],
        delay_requirements: vec![SimDuration::from_millis(40)],
        chain_deadlines: vec![None],
        bidirectional: false,
        bridge_cycle: SimDuration::from_millis(20),
        horizon: SimTime::from_secs(1),
        warmup: SimDuration::from_millis(250),
        include_be: true,
        be_load_scale: vec![1.0, 1.5],
        be_source_mix: BeSourceMix::Cbr,
        telemetry: false,
    }
}

/// A smaller mixed grid including scatternet cells (heavier per cell).
fn grid_scatternet() -> ScenarioGrid {
    ScenarioGrid {
        pollers: vec![PollerKind::PfpGs],
        piconets: vec![1, 2],
        seeds: vec![1, 2],
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
    }
}

/// Two admission-controlled two-piconet chain cells: both end piconets
/// trade S3's flow 4 for the guaranteed chain hop, so each cell answers
/// to the scatternet's own guarantees, not the Fig. 4 reference plans.
fn grid_admitted() -> ScenarioGrid {
    ScenarioGrid {
        piconets: vec![2],
        delay_requirements: vec![SimDuration::from_millis(46)],
        chain_deadlines: vec![Some(SimDuration::from_millis(150))],
        bridge_cycle: SimDuration::from_millis(10),
        warmup: SimDuration::from_secs(1),
        ..ScenarioGrid::paper(vec![PollerKind::PfpGs], vec![1, 2], SimTime::from_secs(3))
    }
}

#[test]
fn sharded_64_cell_grid_is_byte_identical_at_any_worker_count() {
    let _env = env_guard();
    let grid = grid_64();
    assert_eq!(grid.cells().len(), 64);
    let reference = ExperimentRunner::new().run_grid(&grid);
    let ref_digest = reference.digest();
    let ref_table = reference.summary_table().render();

    for workers in [1, 2, 4] {
        let dir = scratch(&format!("workers{workers}"));
        let mut collect = CollectSink::new();
        let mut aggregator = OnlineAggregator::for_grid(&grid);
        let stats = ShardedGridRunner::new(worker_bin(), &dir, workers)
            .with_partitioner(GridPartitioner::with_target_cells_per_shard(8))
            .run_streaming(
                &grid,
                &mut MultiSink::new(vec![&mut collect, &mut aggregator]),
            )
            .expect("sharded run completes");
        let report = collect.into_report();
        assert_eq!(
            report.digest(),
            ref_digest,
            "{workers} workers: digest mismatch"
        );
        assert_eq!(
            report.summary_table().render(),
            ref_table,
            "{workers} workers: summary mismatch"
        );
        assert_eq!(stats.executed_cells, 64);
        assert_eq!(stats.replayed_cells, 0);
        assert!(stats.workers_spawned >= workers.min(8));
        assert_eq!(aggregator.cells(), 64, "sink saw every streamed cell");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Scatternet cells, admitted-chain ones included, merge from worker
/// frames exactly as they do in process. An admitted-chain cell answers
/// to the scatternet's own guarantees, which the parent checks each frame
/// against before the sinks see it.
#[test]
fn scatternet_cells_cross_the_process_boundary_intact() {
    let _env = env_guard();
    for (tag, grid) in [
        ("scatternet", grid_scatternet()),
        ("admitted", grid_admitted()),
    ] {
        let reference = ExperimentRunner::new().run_grid(&grid);
        let mut in_process = OnlineAggregator::for_grid(&grid);
        for (index, result) in reference.cells.iter().enumerate() {
            in_process.accept(index, result);
        }
        let dir = scratch(tag);
        let mut collect = CollectSink::new();
        let mut aggregator = OnlineAggregator::for_grid(&grid);
        ShardedGridRunner::new(worker_bin(), &dir, 2)
            .with_partitioner(GridPartitioner::with_target_cells_per_shard(1))
            .run_streaming(
                &grid,
                &mut MultiSink::new(vec![&mut collect, &mut aggregator]),
            )
            .expect("sharded run completes");
        let report = collect.into_report();
        assert_eq!(report.digest(), reference.digest(), "{tag}");
        let (ours, theirs) = (report.summary_table(), reference.summary_table());
        assert_eq!(ours.render(), theirs.render(), "{tag}");
        let (ours, theirs) = (aggregator.summary_table(), in_process.summary_table());
        assert_eq!(ours.render(), theirs.render(), "{tag}");
        // Chain statistics survived the wire with exact sums.
        for (a, b) in reference.cells.iter().zip(&report.cells) {
            match (&a.scatternet, &b.scatternet) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(
                        x.report.chains[0].e2e.sum_nanos(),
                        y.report.chains[0].e2e.sum_nanos()
                    );
                    assert_eq!(x.report.events_processed, y.report.events_processed);
                }
                _ => panic!("scatternet presence mismatch"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Kill a worker mid-shard (torn frame included), then resume: the
/// merged report must be byte-identical to an uninterrupted run, with
/// the first run's completed cells replayed from checkpoints rather
/// than re-simulated.
#[test]
fn kill_and_resume_is_byte_identical() {
    let _env = env_guard();
    let grid = grid_64();
    let reference = ExperimentRunner::new().run_grid(&grid);
    let dir = scratch("resume");

    // First attempt: every worker crashes after 3 cells, mid-write, and
    // with retries disabled the run must report Incomplete.
    std::env::set_var("BTGS_GRID_CRASH_AFTER_CELLS", "3");
    std::env::set_var("BTGS_GRID_CRASH_TORN", "1");
    let crashed = ShardedGridRunner::new(worker_bin(), &dir, 2)
        .with_partitioner(GridPartitioner::with_target_cells_per_shard(8))
        .with_retries(0)
        .run_streaming(&grid, &mut CollectSink::new());
    std::env::remove_var("BTGS_GRID_CRASH_AFTER_CELLS");
    std::env::remove_var("BTGS_GRID_CRASH_TORN");
    let err = crashed.expect_err("crashing workers must not complete the run");
    let msg = err.to_string();
    assert!(msg.contains("incomplete"), "{msg}");

    // Resume: checkpoints hold the partial results; the rerun replays
    // them and only simulates the remainder.
    let mut collect = CollectSink::new();
    let mut aggregator = OnlineAggregator::for_grid(&grid);
    let stats = ShardedGridRunner::new(worker_bin(), &dir, 4)
        .with_partitioner(GridPartitioner::with_target_cells_per_shard(8))
        .run_streaming(
            &grid,
            &mut MultiSink::new(vec![&mut collect, &mut aggregator]),
        )
        .expect("resume completes");
    assert!(
        stats.replayed_cells > 0,
        "the crashed run's cells must be replayed, not re-simulated"
    );
    assert_eq!(stats.replayed_cells + stats.executed_cells, 64);
    let report = collect.into_report();
    assert_eq!(
        report.digest(),
        reference.digest(),
        "kill-and-resume changed the merged report"
    );
    assert_eq!(
        report.summary_table().render(),
        reference.summary_table().render()
    );
    assert_eq!(aggregator.cells(), 64, "replayed cells reach the sink too");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With retries enabled, a single crash wave self-heals in one call.
#[test]
fn retries_recover_from_crashes_within_one_run() {
    let _env = env_guard();
    let grid = grid_scatternet();
    let reference = ExperimentRunner::new().run_grid(&grid);
    let dir = scratch("retry");
    // Every spawned worker crashes after writing one cell, so each
    // attempt banks exactly one more cell per live shard into the
    // checkpoints; with 4 cells across up-to-4-cell shards, 4 retries
    // are guaranteed to drain the grid within one `run_streaming` call
    // (retries re-dispatch only each shard's missing remainder).
    std::env::set_var("BTGS_GRID_CRASH_AFTER_CELLS", "1");
    let mut collect = CollectSink::new();
    let stats = ShardedGridRunner::new(worker_bin(), &dir, 2)
        .with_partitioner(GridPartitioner::with_target_cells_per_shard(4))
        .with_retries(4)
        .run_streaming(&grid, &mut collect);
    std::env::remove_var("BTGS_GRID_CRASH_AFTER_CELLS");
    let stats = stats.expect("retries drain the crash-looping shards");
    assert_eq!(stats.executed_cells, 4);
    assert_eq!(collect.into_report().digest(), reference.digest());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The spill archive equals the grid: one parseable frame per cell, and
/// a fresh aggregation of the spill matches the live aggregation.
#[test]
fn spill_archive_round_trips_through_frames() {
    let _env = env_guard();
    let grid = grid_scatternet();
    let dir = scratch("spill");
    let spill_path = dir.join("cells.jsonl");
    let mut live = OnlineAggregator::for_grid(&grid);
    let mut spill = JsonlSpillSink::create(&spill_path, &grid).expect("spill");
    {
        let mut sinks = btgs_core::MultiSink::new(vec![&mut live, &mut spill]);
        ShardedGridRunner::new(worker_bin(), &dir.join("ckpt"), 2)
            .run_streaming(&grid, &mut sinks)
            .expect("sharded run completes");
    }
    let (path, lines) = spill.finish().unwrap();
    assert_eq!(lines, grid.cells().len() as u64);

    // Re-aggregate from the archive alone.
    let cells = grid.cells();
    let digest = btgs_grid::wire::grid_digest(&grid);
    let mut replayed = OnlineAggregator::for_grid(&grid);
    for line in std::fs::read_to_string(&path).unwrap().lines() {
        let frame = btgs_grid::wire::frame_from_json(line).unwrap();
        assert_eq!(frame.grid_digest, digest);
        assert_eq!(frame.cell, cells[frame.index]);
        let result = CellResult::reassemble(frame.cell, frame.outcome);
        replayed.accept(frame.index, &result);
    }
    assert_eq!(replayed.digest(), live.digest());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The runner retains nothing in the parent but feeds every sink each
/// cell once: a live aggregation equals one rebuilt from the collected
/// report, and a rerun replays every cell from the checkpoints into the
/// same aggregate.
#[test]
fn run_streaming_feeds_sinks_without_retaining_results() {
    let _env = env_guard();
    let grid = grid_scatternet();
    let cells = grid.cells().len();
    let dir = scratch("streaming");
    let runner = ShardedGridRunner::new(worker_bin(), &dir, 2);

    let mut collect = CollectSink::new();
    let mut live = OnlineAggregator::for_grid(&grid);
    let stats = runner
        .run_streaming(&grid, &mut MultiSink::new(vec![&mut collect, &mut live]))
        .expect("streaming run completes");
    assert_eq!(stats.cells, cells);
    assert_eq!(stats.executed_cells, cells);
    assert_eq!(live.cells(), cells as u64);
    let mut rebuilt = OnlineAggregator::for_grid(&grid);
    for (index, result) in collect.into_report().cells.iter().enumerate() {
        rebuilt.accept(index, result);
    }
    assert_eq!(live.digest(), rebuilt.digest());

    let mut again = OnlineAggregator::for_grid(&grid);
    let stats = runner
        .run_streaming(&grid, &mut again)
        .expect("streaming resume completes");
    assert_eq!(stats.replayed_cells, cells);
    assert_eq!(stats.executed_cells, 0);
    assert_eq!(again.digest(), live.digest());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoints from a *different* grid are ignored (content
/// addressing), not merged.
#[test]
fn foreign_checkpoints_are_never_merged() {
    let _env = env_guard();
    let grid_a = grid_scatternet();
    let mut grid_b = grid_scatternet();
    grid_b.seeds = vec![7, 8]; // different grid, different digest
    let dir = scratch("foreign");

    let runner = ShardedGridRunner::new(worker_bin(), &dir, 2);
    let run = |grid: &ScenarioGrid, what: &str| {
        let mut collect = CollectSink::new();
        let stats = runner.run_streaming(grid, &mut collect).expect(what);
        (stats, collect.into_report().digest())
    };
    let (a, a_digest) = run(&grid_a, "run A");
    // Run B into the same checkpoint dir: shard ids differ, so nothing
    // of A's is replayed.
    let (b, b_digest) = run(&grid_b, "run B");
    assert_eq!(a.replayed_cells, 0);
    assert_eq!(b.replayed_cells, 0, "foreign checkpoints must not replay");
    assert_ne!(a_digest, b_digest);
    // Re-running A now replays everything and simulates nothing.
    let (again, again_digest) = run(&grid_a, "rerun A");
    assert_eq!(again.replayed_cells, grid_a.cells().len());
    assert_eq!(again.executed_cells, 0);
    assert_eq!(again_digest, a_digest);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The first checkpoint (in file-name order) holding a scatternet cell,
/// with its decoded frame. Each checkpoint holds one frame here.
fn scatternet_checkpoint(dir: &Path) -> (PathBuf, CellFrame) {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    for path in paths {
        let file = File::open(&path).expect("checkpoint opens");
        let FrameRead::Frame(payload) = FrameReader::new(BufReader::new(file))
            .next_frame()
            .expect("checkpoint reads")
        else {
            continue;
        };
        let frame = frame_from_json(&payload).expect("checkpoint frame decodes");
        if matches!(frame.outcome, CellOutcome::Scatternet(..)) {
            return (path, frame);
        }
    }
    panic!("no scatternet checkpoint in {}", dir.display());
}

/// Removes GS flow `id` from piconet `p`'s report, listing included, so
/// the frame still decodes.
fn drop_flow(report: &mut ScatternetReport, p: usize, id: FlowId) {
    let piconet = &mut report.piconets[p];
    piconet.flows.retain(|f| f.id != id);
    assert!(piconet.per_flow.remove(&id).is_some(), "{id} was reported");
}

/// A checkpoint frame that parses but does not fit its cell — a
/// scatternet report without piconets, a piconet without one of the
/// cell's guaranteed GS flows, or no report for an admitted chain — is
/// rejected on replay: the cell is re-simulated and the merged report
/// matches the clean run's.
#[test]
fn corrupt_checkpoint_frames_are_resimulated() {
    let _env = env_guard();
    type Corruption = fn(&CellFrame, &mut ScatternetReport);
    let measured: [(&str, Corruption); 3] = [
        ("no piconet reports", |_, report| report.piconets.clear()),
        ("a planned GS flow missing", |frame, report| {
            let plans = PaperScenario::build(frame.cell.params()).gs_plans;
            drop_flow(report, 0, plans[0].request.id);
        }),
        ("piconet 1's GS flow missing", |_, report| {
            drop_flow(report, 1, FlowId(101))
        }),
    ];
    let admitted: [(&str, Corruption); 1] = [("no admitted chain report", |_, report| {
        report.chains.clear()
    })];
    for (tag, grid, corruptions) in [
        ("corrupt", grid_scatternet(), &measured[..]),
        ("corrupt-admitted", grid_admitted(), &admitted[..]),
    ] {
        let cells = grid.cells().len();
        let dir = scratch(tag);
        // One cell per shard: each checkpoint file holds exactly one frame.
        let runner = ShardedGridRunner::new(worker_bin(), &dir, 2)
            .with_partitioner(GridPartitioner::with_target_cells_per_shard(1));
        let mut clean = CollectSink::new();
        runner
            .run_streaming(&grid, &mut clean)
            .expect("clean run completes");
        let clean = clean.into_report().digest();

        for &(what, corrupt) in corruptions {
            // Rewrite the frame whole, so its length prefix stays valid.
            let (path, frame) = scatternet_checkpoint(&dir);
            let CellOutcome::Scatternet(mut report, telemetry) = frame.outcome.clone() else {
                unreachable!("picked for its scatternet outcome");
            };
            corrupt(&frame, &mut report);
            let payload = frame_to_json(
                frame.grid_digest,
                frame.index,
                &frame.cell,
                &CellOutcome::Scatternet(report, telemetry),
            );
            let mut file = File::create(&path).expect("checkpoint rewrites");
            write_frame(&mut file, &payload).expect("frame writes");
            drop(file);

            let mut again = CollectSink::new();
            let stats = runner
                .run_streaming(&grid, &mut again)
                .expect("replay over a corrupt frame completes");
            assert_eq!(stats.executed_cells, 1, "{what}: the cell is re-simulated");
            assert_eq!(stats.replayed_cells, cells - 1, "{what}");
            let again = again.into_report().digest();
            assert_eq!(again, clean, "{what}: merged report moved");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A checkpoint frame written by an older build (frame version 1, with
/// decimal sample arrays) is rejected on replay like any unusable frame:
/// the file is cut at that frame, the cells from it on are re-simulated,
/// and the merged report matches the in-process one.
#[test]
fn old_version_checkpoint_frames_are_resimulated() {
    let _env = env_guard();
    let grid = grid_scatternet();
    let cells = grid.cells().len();
    let reference = ExperimentRunner::new().run_grid(&grid).digest();
    let dir = scratch("v1");
    // One shard: its checkpoint holds every cell's frame, in run order.
    let runner = ShardedGridRunner::new(worker_bin(), &dir, 2)
        .with_partitioner(GridPartitioner::with_target_cells_per_shard(cells));
    runner
        .run_streaming(&grid, &mut CollectSink::new())
        .expect("clean run completes");

    let paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    let [path] = &paths[..] else {
        panic!("one shard, one checkpoint: {paths:?}");
    };
    let bytes = std::fs::read_to_string(path).expect("checkpoint reads");
    let mut reader = FrameReader::new(BufReader::new(bytes.as_bytes()));
    for _ in 0..2 {
        assert!(matches!(reader.next_frame(), Ok(FrameRead::Frame(_))));
    }
    let (kept, rest) = bytes.split_at(reader.consumed() as usize);
    // The third frame becomes version 1; the length prefix stays valid.
    let old = format!("{kept}{}", rest.replacen("{\"v\":2,", "{\"v\":1,", 1));
    assert_ne!(old, bytes, "the third frame carries a version");
    std::fs::write(path, old).expect("checkpoint rewrites");

    let mut again = CollectSink::new();
    let stats = runner
        .run_streaming(&grid, &mut again)
        .expect("replay over an old frame completes");
    assert_eq!(stats.replayed_cells, 2, "the frames before it replay");
    assert_eq!(
        stats.executed_cells,
        cells - 2,
        "its cells are re-simulated"
    );
    assert_eq!(
        again.into_report().digest(),
        reference,
        "merged report moved"
    );

    // Cut exactly at the old frame, then the re-simulated cells appended.
    let after = std::fs::read_to_string(path).expect("checkpoint reads");
    assert!(after.starts_with(kept), "the frames before it are kept");
    let mut reader = FrameReader::new(BufReader::new(after.as_bytes()));
    let mut frames = 0;
    while let FrameRead::Frame(payload) = reader.next_frame().expect("checkpoint reads") {
        frame_from_json(&payload).expect("only current frames remain");
        frames += 1;
    }
    assert_eq!(frames, cells);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A rejected checkpoint frame behind a non-canonical length prefix
/// (`"{len} \n"`, which the frame reader accepts) is cut off exactly at
/// its first byte: the next run re-simulates the cell once and appends a
/// well-formed frame, and the run after that replays everything.
#[test]
fn rejected_frame_behind_a_padded_prefix_is_rewound_exactly() {
    let _env = env_guard();
    let grid = grid_scatternet();
    let cells = grid.cells().len();
    let dir = scratch("padded");
    // One cell per shard: each checkpoint file holds exactly one frame.
    let runner = ShardedGridRunner::new(worker_bin(), &dir, 2)
        .with_partitioner(GridPartitioner::with_target_cells_per_shard(1));
    let mut clean = CollectSink::new();
    runner
        .run_streaming(&grid, &mut clean)
        .expect("clean run completes");
    let clean = clean.into_report().digest();

    let (path, frame) = scatternet_checkpoint(&dir);
    let foreign = frame_to_json(
        frame.grid_digest ^ 1,
        frame.index,
        &frame.cell,
        &frame.outcome,
    );
    let padded = format!("{} \n{foreign}\n", foreign.len());
    std::fs::write(&path, padded).expect("checkpoint rewrites");

    for (run, executed) in [("first rerun", 1), ("second rerun", 0)] {
        let mut again = CollectSink::new();
        let stats = runner
            .run_streaming(&grid, &mut again)
            .expect("replay over a rejected frame completes");
        assert_eq!(stats.executed_cells, executed, "{run}: cells re-simulated");
        assert_eq!(stats.replayed_cells, cells - executed, "{run}");
        let again = again.into_report().digest();
        assert_eq!(again, clean, "{run}: merged report moved");
    }

    let bytes = std::fs::read_to_string(&path).expect("checkpoint reads");
    let mut reader = FrameReader::new(BufReader::new(bytes.as_bytes()));
    let FrameRead::Frame(payload) = reader.next_frame().expect("frame reads") else {
        panic!("the rewritten checkpoint holds no frame");
    };
    assert_eq!(
        bytes,
        format!("{}\n{payload}\n", payload.len()),
        "one canonical frame"
    );
    assert_eq!(reader.next_frame().expect("reads"), FrameRead::Eof);
    std::fs::remove_dir_all(&dir).unwrap();
}
