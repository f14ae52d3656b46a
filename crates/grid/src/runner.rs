//! The multi-process sharded grid runner.
//!
//! A [`ShardedGridRunner`] executes a [`ScenarioGrid`] by spawning worker
//! *processes* (the `grid_worker` binary of `btgs-bench`), handing each a
//! [`GridShard`] spec on stdin, and streaming length-prefixed cell-result
//! frames back over stdout. Every received frame is
//!
//! 1. appended (verbatim bytes) to the shard's **checkpoint file**,
//! 2. reassembled into a [`CellResult`] and handed to the caller's
//!    [`CellSink`] — the parent keeps nothing else; a
//!    [`CollectSink`](btgs_core::CollectSink) merges the
//!    [`GridReport`](btgs_core::GridReport).
//!
//! Shard jobs fan out through the in-process runner's claim pool
//! ([`ExperimentRunner::run`]), one job per pool thread at a time.
//!
//! # Determinism & resumability
//!
//! Cells are deterministic functions of their grid coordinates, shards
//! are a pure function of the grid digest ([`GridPartitioner`]), and every
//! frame is keyed by cell index — so a collected report is
//! **byte-identical** to the in-process [`ExperimentRunner`]'s at any
//! worker count, after any interleaving, and across kill-and-resume: a
//! rerun replays completed cells from the checkpoints (identical bytes,
//! same digest checks) and only simulates what is missing. Torn
//! checkpoint tails (a parent killed mid-append) are truncated away on
//! resume.

use crate::partition::{GridPartitioner, GridShard};
use crate::wire::{
    frame_from_json, grid_digest, shard_spec_to_json, write_frame, FrameRead, FrameReader,
};
use btgs_core::{CellOutcome, CellResult, CellSink, ExperimentRunner, GridCell, ScenarioGrid};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;

/// An error from the sharded runner.
#[derive(Debug)]
pub enum GridError {
    /// The grid failed [`ScenarioGrid::validate`].
    InvalidGrid(String),
    /// Filesystem or pipe trouble.
    Io(String),
    /// A worker misbehaved (crash, protocol violation, wrong-grid frame).
    Worker(String),
    /// After all retries some cells are still missing; the checkpoints
    /// retain everything that completed, so a rerun resumes from there.
    Incomplete {
        /// Cells with results.
        done: usize,
        /// Total cells in the grid.
        total: usize,
        /// The last per-shard failure messages.
        failures: Vec<String>,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::InvalidGrid(e) => write!(f, "invalid grid: {e}"),
            GridError::Io(e) => write!(f, "I/O error: {e}"),
            GridError::Worker(e) => write!(f, "worker error: {e}"),
            GridError::Incomplete {
                done,
                total,
                failures,
            } => {
                write!(
                    f,
                    "run incomplete: {done}/{total} cells finished (checkpoints retained; \
                     rerun to resume); failures: {}",
                    failures.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for GridError {}

impl From<std::io::Error> for GridError {
    fn from(e: std::io::Error) -> GridError {
        GridError::Io(e.to_string())
    }
}

/// What a [`ShardedGridRunner::run_streaming`] run reports: counters
/// only — the results themselves went to the sink.
#[derive(Clone, Copy, Debug)]
pub struct ShardedStreamStats {
    /// Total cells in the grid (all delivered to the sink).
    pub cells: usize,
    /// Cells replayed from checkpoint files (no simulation).
    pub replayed_cells: usize,
    /// Cells executed by workers in this invocation.
    pub executed_cells: usize,
    /// Worker processes spawned.
    pub workers_spawned: usize,
}

/// Multi-process sharded execution of scenario grids.
pub struct ShardedGridRunner {
    worker_bin: PathBuf,
    checkpoint_dir: PathBuf,
    workers: usize,
    partitioner: GridPartitioner,
    retries: usize,
}

impl ShardedGridRunner {
    /// Creates a runner driving `workers` parallel processes of
    /// `worker_bin` (the `grid_worker` binary), checkpointing into
    /// `checkpoint_dir` (created if missing).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(worker_bin: &Path, checkpoint_dir: &Path, workers: usize) -> ShardedGridRunner {
        assert!(workers > 0, "at least one worker process is required");
        ShardedGridRunner {
            worker_bin: worker_bin.to_owned(),
            checkpoint_dir: checkpoint_dir.to_owned(),
            workers,
            partitioner: GridPartitioner::new(),
            retries: 1,
        }
    }

    /// Overrides the partitioner (builder style).
    #[must_use]
    pub fn with_partitioner(mut self, p: GridPartitioner) -> ShardedGridRunner {
        self.partitioner = p;
        self
    }

    /// Overrides how many times a failed shard is re-dispatched before
    /// the run gives up (default 1; completed cells are never re-run —
    /// retries cover only a shard's missing remainder). `0` fails fast,
    /// leaving resumption to a later invocation.
    #[must_use]
    pub fn with_retries(mut self, retries: usize) -> ShardedGridRunner {
        self.retries = retries;
        self
    }

    /// The checkpoint file of one shard.
    pub fn checkpoint_path(&self, shard: &GridShard) -> PathBuf {
        self.checkpoint_dir.join(format!("shard-{}.ckpt", shard.id))
    }

    /// Runs the grid, streaming every cell result (checkpoint-replayed
    /// and freshly executed alike) into `sink` exactly once, as it
    /// arrives. Nothing is retained in the parent: with bounded sinks
    /// ([`OnlineAggregator`](crate::OnlineAggregator),
    /// [`JsonlSpillSink`](crate::JsonlSpillSink)) its memory is
    /// independent of the cell count, and a
    /// [`CollectSink`](btgs_core::CollectSink) merges the
    /// [`GridReport`](btgs_core::GridReport).
    ///
    /// # Errors
    ///
    /// * [`GridError::InvalidGrid`] before anything runs,
    /// * [`GridError::Io`] on checkpoint/pipe failures,
    /// * [`GridError::Incomplete`] when cells are still missing after the
    ///   configured retries — checkpoints retain all completed cells, so
    ///   calling `run_streaming` again resumes instead of restarting.
    pub fn run_streaming(
        &self,
        grid: &ScenarioGrid,
        sink: &mut dyn CellSink,
    ) -> Result<ShardedStreamStats, GridError> {
        grid.validate().map_err(GridError::InvalidGrid)?;
        let cells = grid.cells();
        let digest = grid_digest(grid);
        let shards = self.partitioner.partition(grid);
        fs::create_dir_all(&self.checkpoint_dir)?;

        let mut merge = MergeState {
            received: vec![false; cells.len()],
            sink,
            done: 0,
        };

        // Phase 1: replay checkpoints.
        let mut replayed = 0usize;
        for shard in &shards {
            let path = self.checkpoint_path(shard);
            replayed += replay_checkpoint(&path, shard, digest, &cells, &mut merge)?;
        }
        let mut jobs: Vec<ShardJob> = shards.iter().filter_map(|s| merge.job_for(s)).collect();

        // Phase 2: dispatch workers, retrying failed shards on their
        // remainders.
        let pool = ExperimentRunner::with_threads(self.workers);
        let mut executed = 0usize;
        let mut spawned = 0usize;
        let mut failures: Vec<String> = Vec::new();
        let mut attempt = 0usize;
        while !jobs.is_empty() && attempt <= self.retries {
            let merge_lock = Mutex::new(&mut merge);
            let verdicts = pool.run(&jobs, |job| {
                self.run_shard_job(grid, digest, &cells, job, &merge_lock)
            });
            spawned += jobs.len();
            // Cells simulated count even when their worker crashed later.
            executed += verdicts.iter().map(|(count, _)| count).sum::<usize>();
            // Shards are disjoint, so a failed job's remainder is the same
            // now as when it failed.
            failures.clear();
            let mut retry = Vec::new();
            for (job, (_, verdict)) in jobs.iter().zip(verdicts) {
                if let (Err(e), Some(next)) = (verdict, merge.job_for(&job.shard)) {
                    failures.push(e.to_string());
                    retry.push(next);
                }
            }
            jobs = retry;
            attempt += 1;
        }

        if merge.done < cells.len() {
            return Err(GridError::Incomplete {
                done: merge.done,
                total: cells.len(),
                failures,
            });
        }
        Ok(ShardedStreamStats {
            cells: cells.len(),
            replayed_cells: replayed,
            executed_cells: executed,
            workers_spawned: spawned,
        })
    }

    /// Spawns one worker for `job` and merges its frames; returns the
    /// number of cells received (whatever the verdict — a crashed worker
    /// may still have banked results) plus the job's verdict.
    fn run_shard_job(
        &self,
        grid: &ScenarioGrid,
        digest: u64,
        cells: &[GridCell],
        job: &ShardJob,
        merge: &Mutex<&mut MergeState<'_>>,
    ) -> (usize, Result<(), GridError>) {
        let spec = shard_spec_to_json(grid, &job.shard.id, &job.remaining);
        let mut child = match Command::new(&self.worker_bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
        {
            Ok(child) => child,
            Err(e) => {
                return (
                    0,
                    Err(GridError::Io(format!(
                        "cannot spawn {}: {e}",
                        self.worker_bin.display()
                    ))),
                )
            }
        };
        // The worker consumes all of stdin before producing output, so
        // writing the whole spec first cannot deadlock.
        if let Err(e) = child
            .stdin
            .take()
            .expect("stdin was piped")
            .write_all(spec.as_bytes())
        {
            return (0, Err(reap(&mut child, format!("writing shard spec: {e}"))));
        }
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut reader = FrameReader::new(BufReader::new(stdout));
        let mut ckpt = match OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.checkpoint_path(&job.shard))
        {
            Ok(f) => f,
            Err(e) => return (0, Err(reap(&mut child, format!("opening checkpoint: {e}")))),
        };

        let mut received = 0usize;
        let verdict = loop {
            match reader.next_frame() {
                Err(e) => break Err(format!("reading worker stream: {e}")),
                Ok(FrameRead::Eof) => break Ok(()),
                Ok(FrameRead::Torn) => break Err("worker stream torn mid-frame".into()),
                Ok(FrameRead::Frame(payload)) => {
                    match accept_frame(&payload, digest, cells, Some(&job.remaining)) {
                        Err(e) => break Err(e),
                        Ok((index, result)) => {
                            // Checkpoint first (durable), then deliver.
                            if let Err(e) =
                                write_frame(&mut ckpt, &payload).and_then(|()| ckpt.flush())
                            {
                                break Err(format!("appending checkpoint: {e}"));
                            }
                            let mut merge = merge.lock().expect("merge lock");
                            merge.deliver(index, result);
                            received += 1;
                        }
                    }
                }
            }
        };
        let status = match child.wait() {
            Ok(s) => s,
            Err(e) => return (received, Err(GridError::Io(e.to_string()))),
        };
        let result = match verdict {
            Err(e) => Err(GridError::Worker(format!("shard {}: {e}", job.shard.id))),
            Ok(()) if !status.success() => Err(GridError::Worker(format!(
                "shard {}: worker exited with {status}",
                job.shard.id
            ))),
            Ok(()) if received < job.remaining.len() => Err(GridError::Worker(format!(
                "shard {}: worker stopped after {received}/{} cells",
                job.shard.id,
                job.remaining.len()
            ))),
            Ok(()) => Ok(()),
        };
        (received, result)
    }
}

struct ShardJob {
    shard: GridShard,
    remaining: Vec<usize>,
}

struct MergeState<'a> {
    received: Vec<bool>,
    sink: &'a mut dyn CellSink,
    done: usize,
}

impl MergeState<'_> {
    /// Hands a first delivery of `index` to the sink; returns whether it
    /// was one.
    fn deliver(&mut self, index: usize, result: CellResult) -> bool {
        if self.received[index] {
            // A duplicate can only come from overlapping checkpoints of a
            // corrupt dir; first write wins, duplicates are dropped.
            return false;
        }
        self.received[index] = true;
        self.sink.accept_owned(index, result);
        self.done += 1;
        true
    }

    /// The job that runs the cells of `shard` not received yet, if any.
    fn job_for(&self, shard: &GridShard) -> Option<ShardJob> {
        let remaining: Vec<usize> = shard
            .cells
            .iter()
            .copied()
            .filter(|&i| !self.received[i])
            .collect();
        (!remaining.is_empty()).then(|| ShardJob {
            shard: shard.clone(),
            remaining,
        })
    }
}

fn reap(child: &mut Child, msg: String) -> GridError {
    let _ = child.kill();
    let _ = child.wait();
    GridError::Worker(msg)
}

/// Validates and reassembles one frame payload.
fn accept_frame(
    payload: &str,
    digest: u64,
    cells: &[GridCell],
    allowed: Option<&[usize]>,
) -> Result<(usize, CellResult), String> {
    let frame = frame_from_json(payload).map_err(|e| e.to_string())?;
    if frame.grid_digest != digest {
        return Err(format!(
            "frame is for grid {:016x}, expected {digest:016x}",
            frame.grid_digest
        ));
    }
    let Some(expected) = cells.get(frame.index) else {
        return Err(format!("frame cell index {} out of range", frame.index));
    };
    if frame.cell != *expected {
        return Err(format!("frame cell {} mismatches the grid", frame.index));
    }
    if let Some(allowed) = allowed {
        if !allowed.contains(&frame.index) {
            return Err(format!(
                "worker returned cell {} outside its shard",
                frame.index
            ));
        }
    }
    // Shape checks before `reassemble` and the sinks, whose asserts and
    // lookups would otherwise turn a corrupt-but-parseable frame into a
    // parent panic — this path must stay an Err so checkpoint truncation
    // and shard retries can handle it. `reassemble` takes piconet 0 of a
    // scatternet outcome; the sinks check every guarantee of the cell
    // against its reports, and `Guarantees::check` panics on a flow or
    // chain the reports lack.
    let shape_matches = match &frame.outcome {
        CellOutcome::Piconet(_) => expected.piconets <= 1,
        CellOutcome::Scatternet(report, _) => {
            expected.piconets >= 2 && report.piconets.len() == usize::from(expected.piconets)
        }
    };
    if !shape_matches {
        return Err(format!(
            "frame cell {} does not carry an outcome for {} piconet(s)",
            frame.index, expected.piconets
        ));
    }
    let result = CellResult::reassemble(*expected, frame.outcome);
    if let Some(subject) = result.guarantees.first_missing(&result) {
        return Err(format!(
            "frame cell {} has no report for its guaranteed {subject:?}",
            frame.index
        ));
    }
    Ok((frame.index, result))
}

/// Replays one shard checkpoint into the merge state; truncates torn
/// tails so subsequent appends keep the file parseable. Returns the
/// number of cells replayed.
fn replay_checkpoint(
    path: &Path,
    shard: &GridShard,
    digest: u64,
    cells: &[GridCell],
    merge: &mut MergeState<'_>,
) -> Result<usize, GridError> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(GridError::Io(format!("{}: {e}", path.display()))),
    };
    let len = file.metadata()?.len();
    let mut reader = FrameReader::new(BufReader::new(file));
    let mut replayed = 0usize;
    let valid_prefix = loop {
        let start = reader.consumed();
        match reader.next_frame()? {
            FrameRead::Eof => break reader.consumed(),
            FrameRead::Torn => break reader.consumed(),
            FrameRead::Frame(payload) => {
                match accept_frame(&payload, digest, cells, Some(&shard.cells)) {
                    // A checkpoint frame this parent cannot use (foreign
                    // grid after a hash collision, corruption) poisons
                    // the file from that point; keep the valid prefix.
                    Err(_) => break start,
                    Ok((index, result)) => replayed += usize::from(merge.deliver(index, result)),
                }
            }
        }
    };
    if valid_prefix < len {
        // Drop the torn/foreign tail so this run's appends stay well-
        // formed.
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_prefix)?;
    }
    Ok(replayed)
}
