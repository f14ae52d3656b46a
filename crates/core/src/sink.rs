//! Streaming consumption of grid-cell results.
//!
//! Both grid runners — [`ExperimentRunner`](crate::ExperimentRunner) on
//! threads and `btgs-grid`'s sharded runner on worker processes — stream
//! every [`CellResult`] into a [`CellSink`] as its cell completes, and
//! what is retained is the sink's choice. [`CollectSink`] keeps every
//! result and merges the [`GridReport`]; `btgs-grid` adds an online
//! aggregator whose memory is bounded by the number of summary series and
//! a JSONL spill sink for full-fidelity archiving; [`MultiSink`] feeds
//! several sinks in one pass.
//!
//! # Ordering contract
//!
//! Cells complete in an arbitrary order (thread schedules in-process,
//! shard interleaving across processes). A sink receives each result
//! exactly once, tagged with its **grid index**, and must produce output
//! invariant to the delivery order — either by being commutative (the
//! aggregator) or by reordering on the index (this collector). The
//! completion-order property tests shuffle deliveries to enforce this.

use crate::runner::{CellResult, GridReport};

/// A consumer of streamed grid-cell results.
pub trait CellSink: Send {
    /// Observes the result of the cell at `index` in grid order. Called
    /// exactly once per cell, in completion order.
    fn accept(&mut self, index: usize, result: &CellResult);

    /// Like [`CellSink::accept`], but passes ownership; sinks that retain
    /// whole results override this to avoid a deep clone.
    fn accept_owned(&mut self, index: usize, result: CellResult) {
        self.accept(index, &result);
    }
}

/// The all-in-memory sink: retains every result and reassembles them in
/// grid order, whatever order they completed in.
#[derive(Debug, Default)]
pub struct CollectSink {
    slots: Vec<Option<CellResult>>,
    received: usize,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// Results received so far.
    pub fn len(&self) -> usize {
        self.received
    }

    /// `true` if no results were received yet.
    pub fn is_empty(&self) -> bool {
        self.received == 0
    }

    /// Stores one owned result under its grid index.
    ///
    /// # Panics
    ///
    /// Panics if the index was already filled — every cell must be
    /// delivered exactly once.
    fn store(&mut self, index: usize, result: CellResult) {
        if self.slots.len() <= index {
            self.slots.resize_with(index + 1, || None);
        }
        assert!(
            self.slots[index].replace(result).is_none(),
            "cell {index} delivered twice"
        );
        self.received += 1;
    }

    /// The merged report, in grid order.
    ///
    /// # Panics
    ///
    /// Panics if any index in `0..max_delivered` was never delivered.
    pub fn into_report(self) -> GridReport {
        let cells: Vec<CellResult> = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("cell {i} was never delivered")))
            .collect();
        GridReport { cells }
    }
}

impl CellSink for CollectSink {
    fn accept(&mut self, index: usize, result: &CellResult) {
        self.store(index, result.clone());
    }

    fn accept_owned(&mut self, index: usize, result: CellResult) {
        self.store(index, result);
    }
}

/// Fans every result out to several sinks (e.g. collect + aggregate +
/// spill in one pass).
pub struct MultiSink<'a> {
    sinks: Vec<&'a mut dyn CellSink>,
}

impl<'a> MultiSink<'a> {
    /// Combines the given sinks; each receives every result, in delivery
    /// order.
    pub fn new(sinks: Vec<&'a mut dyn CellSink>) -> MultiSink<'a> {
        MultiSink { sinks }
    }
}

impl CellSink for MultiSink<'_> {
    fn accept(&mut self, index: usize, result: &CellResult) {
        for sink in &mut self.sinks {
            sink.accept(index, result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{GridCell, ScenarioGrid};
    use crate::scenario::{BeSourceMix, PollerKind};
    use btgs_des::{SimDuration, SimTime};

    fn tiny_grid() -> ScenarioGrid {
        ScenarioGrid {
            pollers: vec![PollerKind::PfpGs],
            piconets: vec![1],
            seeds: vec![1, 2, 3],
            topologies: vec![crate::Topology::Chain],
            delay_requirements: vec![SimDuration::from_millis(40)],
            chain_deadlines: vec![None],
            bidirectional: false,
            bridge_cycle: SimDuration::from_millis(20),
            horizon: SimTime::from_secs(1),
            warmup: SimDuration::from_millis(200),
            include_be: false,
            be_load_scale: vec![1.0],
            be_source_mix: BeSourceMix::Cbr,
            telemetry: false,
        }
    }

    #[test]
    fn collect_reorders_out_of_order_deliveries() {
        let cells = tiny_grid().cells();
        let results: Vec<_> = cells.iter().map(GridCell::run).collect();
        let mut sink = CollectSink::new();
        assert!(sink.is_empty());
        // Deliver in reverse completion order.
        for (i, r) in results.iter().enumerate().rev() {
            sink.accept(i, r);
        }
        assert_eq!(sink.len(), 3);
        let report = sink.into_report();
        for (cell, result) in cells.iter().zip(&report.cells) {
            assert_eq!(*cell, result.cell);
        }
    }

    #[test]
    #[should_panic(expected = "delivered twice")]
    fn double_delivery_is_rejected() {
        let cell = tiny_grid().cells()[0];
        let result = cell.run();
        let mut sink = CollectSink::new();
        sink.accept(0, &result);
        sink.accept(0, &result);
    }

    #[test]
    #[should_panic(expected = "never delivered")]
    fn gaps_are_rejected_at_merge_time() {
        let cell = tiny_grid().cells()[0];
        let mut sink = CollectSink::new();
        sink.accept_owned(2, cell.run());
        let _ = sink.into_report();
    }

    #[test]
    fn multi_sink_fans_out() {
        let cell = tiny_grid().cells()[0];
        let result = cell.run();
        let mut a = CollectSink::new();
        let mut b = CollectSink::new();
        {
            let mut multi = MultiSink::new(vec![&mut a, &mut b]);
            multi.accept(0, &result);
        }
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(
            a.into_report().digest(),
            b.into_report().digest(),
            "both sinks saw the same result"
        );
    }
}
