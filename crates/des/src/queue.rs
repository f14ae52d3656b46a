//! The pending-event set: keys, payload storage, the queue interface, and
//! the binary-heap reference implementation.
//!
//! The production queue is the sorted buffer in [`crate::sorted`]
//! (re-exported as [`EventQueue`](crate::EventQueue)); the
//! [`HeapEventQueue`] here implements the exact same contract on a
//! `BinaryHeap` and exists as the *reference model*: differential tests
//! drive both with identical operation sequences and demand identical
//! behaviour, and full simulation runs must produce byte-identical reports
//! under either backend.

use crate::time::SimTime;
use core::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable to [cancel](HeapEventQueue::cancel)
/// it.
///
/// Keys are unique for the lifetime of the queue: a key is never reused for a
/// different event, so a stale key is safely rejected rather than cancelling
/// an unrelated event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventKey {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

/// An event popped from the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The instant the event fires.
    pub time: SimTime,
    /// The event payload.
    pub event: E,
}

/// A structural snapshot of a pending-event queue, for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueOccupancy {
    /// Total live (not yet popped or cancelled) events.
    pub live: usize,
    /// Index entries the backend stores, cancelled ones not yet dropped
    /// included: `live` plus the lazily cancelled backlog.
    pub near: usize,
}

/// The interface between the [`Simulator`](crate::Simulator) run loop and a
/// pending-event structure.
///
/// Both implementations — the sorted-buffer [`EventQueue`](crate::EventQueue)
/// and the [`HeapEventQueue`] reference — honour the same contract: events
/// pop in `(time, insertion order)` order, same-time events are FIFO, and a
/// cancelled or popped key is stale forever.
pub trait PendingEvents<E> {
    /// Schedules `event` at `time` and returns a key that can cancel it.
    fn push(&mut self, time: SimTime, event: E) -> EventKey;

    /// Cancels a scheduled event, returning its payload if it was still
    /// pending. Stale keys (already fired or cancelled) return `None`.
    fn cancel(&mut self, key: EventKey) -> Option<E>;

    /// The firing time of the earliest pending event.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Removes and returns the earliest pending event.
    fn pop(&mut self) -> Option<Scheduled<E>>;

    /// Removes and returns the earliest pending event if it fires no later
    /// than `horizon`.
    fn pop_if_due(&mut self, horizon: SimTime) -> Option<Scheduled<E>> {
        match self.peek_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Number of live (not yet popped or cancelled) events.
    fn len(&self) -> usize;

    /// `true` if no live events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A structural snapshot of the stored entries (see
    /// [`QueueOccupancy`]).
    fn occupancy(&self) -> QueueOccupancy;
}

/// An index entry for one scheduled event; the payload lives in the
/// [`SlotArena`]. Ordered so the *earliest* `(time, seq)` is the maximum
/// (`BinaryHeap` is a max-heap).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted so the earliest (time, seq) pops first from a max-heap.
        // `seq` makes same-time events fire in scheduling order (FIFO),
        // which keeps runs deterministic.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// Generation-checked payload storage shared by both queue backends.
///
/// Every scheduled event's payload lives in a slot; the `(slot, generation)`
/// pair is the [`EventKey`]. Cancellation bumps the generation, so index
/// entries still sitting in the heap or the sorted buffer are recognised as
/// dead and skipped lazily. Freed slots are recycled through a free list, so
/// the arena stops allocating once it reaches the high-water mark of
/// concurrently pending events.
pub(crate) struct SlotArena<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Most recently retired slot: the single-event churn pattern (pop then
    /// re-push, the dominant cycle of a self-rescheduling model) recycles
    /// it through this register without touching the free vector.
    last_free: Option<u32>,
}

impl<E> SlotArena<E> {
    pub(crate) fn new() -> Self {
        SlotArena {
            slots: Vec::new(),
            free: Vec::new(),
            last_free: None,
        }
    }

    /// Stores `payload`, returning its `(slot, generation)` key.
    #[inline]
    pub(crate) fn alloc(&mut self, payload: E) -> (u32, u32) {
        let recycled = self.last_free.take().or_else(|| self.free.pop());
        let slot = match recycled {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                debug_assert!(s.payload.is_none());
                s.payload = Some(payload);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("event queue slot overflow");
                self.slots.push(Slot {
                    generation: 0,
                    payload: Some(payload),
                });
                // Keep the free list able to hold every slot: growing it
                // here (the path that is allowed to allocate) means `take`
                // never has to, so cancellations stay allocation-free even
                // when more slots are simultaneously free late in a run
                // than at any point during warm-up.
                self.free.reserve(self.slots.len() - self.free.len());
                idx
            }
        };
        (slot, self.slots[slot as usize].generation)
    }

    /// Removes the payload a key refers to, if the key is still current.
    #[inline]
    pub(crate) fn take(&mut self, key: EventKey) -> Option<E> {
        let slot = self.slots.get_mut(key.slot as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        let payload = slot.payload.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        if let Some(prev) = self.last_free.replace(key.slot) {
            self.free.push(prev);
        }
        Some(payload)
    }

    /// `true` if the entry still refers to a pending payload.
    #[inline]
    pub(crate) fn is_live(&self, entry: &Entry) -> bool {
        let slot = &self.slots[entry.slot as usize];
        slot.generation == entry.generation && slot.payload.is_some()
    }
}

/// The reference pending-event set: a `BinaryHeap` ordered by
/// `(time, insertion order)`.
///
/// Same-time events pop in the order they were pushed, which makes runs
/// reproducible without relying on heap internals. The production
/// [`EventQueue`](crate::EventQueue) (a sorted buffer) must be
/// operationally indistinguishable from this structure; it exists so
/// differential tests have an obviously-correct model to compare against.
///
/// # Examples
///
/// ```
/// use btgs_des::{HeapEventQueue, SimTime};
///
/// let mut q = HeapEventQueue::new();
/// q.push(SimTime::from_millis(2), "late");
/// let key = q.push(SimTime::from_millis(1), "early");
/// q.push(SimTime::from_millis(1), "early2");
///
/// assert!(q.cancel(key).is_some());
/// let first = q.pop().unwrap();
/// assert_eq!(first.event, "early2");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry>,
    arena: SlotArena<E>,
    next_seq: u64,
    live: usize,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            arena: SlotArena::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Number of live (not yet popped or cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `event` at `time` and returns a key that can cancel it.
    pub fn push(&mut self, time: SimTime, event: E) -> EventKey {
        let (slot, generation) = self.arena.alloc(event);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            seq,
            slot,
            generation,
        });
        self.live += 1;
        EventKey { slot, generation }
    }

    /// Cancels a scheduled event, returning its payload if it was still
    /// pending. Stale keys (already fired or cancelled) return `None`.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let payload = self.arena.take(key)?;
        self.live -= 1;
        Some(payload)
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim_dead();
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        loop {
            let entry = self.heap.pop()?;
            let Some(event) = self.arena.take(EventKey {
                slot: entry.slot,
                generation: entry.generation,
            }) else {
                continue; // cancelled
            };
            self.live -= 1;
            return Some(Scheduled {
                time: entry.time,
                event,
            });
        }
    }

    /// Drops dead (cancelled) entries off the top of the heap so `peek_time`
    /// reports a live event.
    fn skim_dead(&mut self) {
        while let Some(entry) = self.heap.peek() {
            if self.arena.is_live(entry) {
                return;
            }
            self.heap.pop();
        }
    }
}

impl<E> PendingEvents<E> for HeapEventQueue<E> {
    fn push(&mut self, time: SimTime, event: E) -> EventKey {
        HeapEventQueue::push(self, time, event)
    }

    fn cancel(&mut self, key: EventKey) -> Option<E> {
        HeapEventQueue::cancel(self, key)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        HeapEventQueue::peek_time(self)
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        HeapEventQueue::pop(self)
    }

    fn len(&self) -> usize {
        HeapEventQueue::len(self)
    }

    fn occupancy(&self) -> QueueOccupancy {
        QueueOccupancy {
            live: self.live,
            near: self.heap.len(),
        }
    }
}

impl<E: core::fmt::Debug> core::fmt::Debug for HeapEventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HeapEventQueue")
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorted::EventQueue;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Every contract test runs against both backends.
    fn both(check: impl Fn(&mut dyn PendingEvents<i32>)) {
        let mut sorted: EventQueue<i32> = EventQueue::new();
        check(&mut sorted);
        let mut heap: HeapEventQueue<i32> = HeapEventQueue::new();
        check(&mut heap);
    }

    #[test]
    fn far_future_times_pop_last() {
        both(|q| {
            q.push(SimTime::from_nanos(u64::MAX - 1), 2);
            q.push(SimTime::from_secs(1), 1);
            assert_eq!(q.pop().unwrap().event, 1);
            assert_eq!(q.pop().unwrap().event, 2);
            assert!(q.pop().is_none());
        });
    }

    #[test]
    fn cancelled_entries_are_skipped_at_every_distance() {
        both(|q| {
            let a = q.push(t(1), 1);
            let b = q.push(SimTime::from_secs(1), 2);
            let c = q.push(SimTime::from_secs(100), 3);
            let keep = q.push(SimTime::from_secs(200), 4);
            assert_eq!(q.cancel(a), Some(1));
            assert_eq!(q.cancel(b), Some(2));
            assert_eq!(q.cancel(c), Some(3));
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(200)));
            assert_eq!(q.pop().unwrap().event, 4);
            assert_eq!(q.cancel(keep), None, "popped key is stale");
        });
    }

    #[test]
    fn pushes_between_pops_keep_fifo_ties() {
        both(|q| {
            q.push(t(1), 1);
            q.push(t(1), 2);
            q.push(t(9), 9);
            assert_eq!(q.pop().unwrap().event, 1);
            // Same time as an entry still pending: FIFO puts it after.
            q.push(t(1), 3);
            // Earlier than everything left: pops first.
            q.push(SimTime::from_micros(50), 0);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
            assert_eq!(order, vec![0, 2, 3, 9]);
        });
    }

    #[test]
    fn occupancy_counts_stored_entries() {
        both(|q| {
            let a = q.push(t(1), 1);
            q.push(t(2), 2);
            q.cancel(a);
            let occ = q.occupancy();
            assert_eq!((occ.live, occ.near), (1, 2), "cancelled entry still stored");
            assert_eq!(q.peek_time(), Some(t(2)));
            let occ = q.occupancy();
            assert_eq!((occ.live, occ.near), (1, 1), "peek dropped it");
        });
    }

    #[test]
    fn slot_grid_workload_round_trips() {
        // The simulator's actual pattern: wake/done events marching down
        // the 625 µs slot grid, plus periodic arrivals ~20 ms out.
        both(|q| {
            let slot = 625_000u64;
            let mut popped = 0;
            let mut t = 0u64;
            q.push(SimTime::from_nanos(0), 0);
            for i in 1..=2_000 {
                let s = q.pop().unwrap();
                assert!(s.time.as_nanos() >= t);
                t = s.time.as_nanos();
                popped += 1;
                // Re-arm two slots ahead, and every 32nd event plant an
                // arrival 20 ms out, then cancel it.
                q.push(SimTime::from_nanos(t + 2 * slot), i);
                if i % 32 == 0 {
                    let k = q.push(SimTime::from_nanos(t + 20_000_000), 1_000_000 + i);
                    q.cancel(k);
                }
                if q.len() > 1 {
                    q.pop(); // keep the population small and marching
                }
            }
            assert_eq!(popped, 2_000);
        });
    }

    #[test]
    fn pops_in_time_order() {
        both(|q| {
            q.push(t(5), 5);
            q.push(t(1), 1);
            q.push(t(3), 3);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
            assert_eq!(order, vec![1, 3, 5]);
        });
    }

    #[test]
    fn same_time_is_fifo() {
        both(|q| {
            for i in 0..10 {
                q.push(t(7), i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn cancel_removes_event() {
        both(|q| {
            let a = q.push(t(1), 10);
            q.push(t(2), 20);
            assert_eq!(q.len(), 2);
            assert_eq!(q.cancel(a), Some(10));
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().unwrap().event, 20);
            assert!(q.is_empty());
        });
    }

    #[test]
    fn stale_keys_are_rejected() {
        both(|q| {
            let a = q.push(t(1), 1);
            assert!(q.cancel(a).is_some());
            assert!(q.cancel(a).is_none(), "double cancel");
            // Slot gets reused by a fresh event; old key must not touch it.
            let _b = q.push(t(2), 2);
            assert!(q.cancel(a).is_none(), "stale key after reuse");
            assert_eq!(q.pop().unwrap().event, 2);
        });
    }

    #[test]
    fn key_of_popped_event_is_stale() {
        both(|q| {
            let a = q.push(t(1), 1);
            assert_eq!(q.pop().unwrap().event, 1);
            assert!(q.cancel(a).is_none());
        });
    }

    #[test]
    fn peek_time_skips_cancelled() {
        both(|q| {
            let a = q.push(t(1), 1);
            q.push(t(4), 4);
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(t(4)));
        });
    }

    #[test]
    fn pop_if_due_respects_horizon() {
        both(|q| {
            q.push(t(1), 1);
            q.push(t(5), 5);
            assert_eq!(q.pop_if_due(t(0)), None);
            assert_eq!(q.pop_if_due(t(1)).unwrap().event, 1);
            assert_eq!(q.pop_if_due(t(4)), None);
            assert_eq!(q.pop_if_due(t(5)).unwrap().event, 5);
            assert_eq!(q.pop_if_due(SimTime::MAX), None);
        });
    }

    #[test]
    fn empty_queue_behaviour() {
        both(|q| {
            assert!(q.is_empty());
            assert_eq!(q.len(), 0);
            assert_eq!(q.peek_time(), None);
            assert!(q.pop().is_none());
        });
    }

    #[test]
    fn heavy_mixed_usage_stays_consistent() {
        both(|q| {
            let mut keys = Vec::new();
            for round in 0u64..50 {
                for i in 0u64..20 {
                    keys.push(q.push(t(round * 10 + i % 7), (round * 100 + i) as i32));
                }
                // Cancel every third key from this round.
                let start = keys.len() - 20;
                for k in keys[start..].iter().step_by(3) {
                    q.cancel(*k);
                }
            }
            let mut last = SimTime::ZERO;
            let mut popped = 0;
            while let Some(s) = q.pop() {
                assert!(s.time >= last, "time order violated");
                last = s.time;
                popped += 1;
            }
            // 20 per round, 7 cancelled per round (indices 0,3,6,...,18).
            assert_eq!(popped, 50 * (20 - 7));
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::DetRng;
    use crate::sorted::EventQueue;

    /// Popping must always yield a non-decreasing time sequence and
    /// same-time events in FIFO order, under any interleaving of pushes
    /// and cancels — for both backends.
    #[test]
    fn ordering_invariant() {
        fn run(q: &mut dyn PendingEvents<usize>, rng: &mut DetRng) {
            let n_ops = rng.range_inclusive(1, 199) as usize;
            let mut keys = Vec::new();
            let mut expect_live = 0usize;
            for i in 0..n_ops {
                let time_ms = rng.below(100);
                let cancel_one = rng.chance(0.5);
                keys.push(q.push(SimTime::from_millis(time_ms), i));
                expect_live += 1;
                if cancel_one && !keys.is_empty() {
                    let k = keys.remove(keys.len() / 2);
                    if q.cancel(k).is_some() {
                        expect_live -= 1;
                    }
                }
            }
            assert_eq!(q.len(), expect_live);
            let mut last: Option<(SimTime, usize)> = None;
            let mut count = 0usize;
            while let Some(s) = q.pop() {
                if let Some((lt, lseq)) = last {
                    assert!(s.time >= lt);
                    if s.time == lt {
                        assert!(s.event > lseq, "FIFO within same timestamp");
                    }
                }
                last = Some((s.time, s.event));
                count += 1;
            }
            assert_eq!(count, expect_live);
        }

        let mut rng = DetRng::seed_from_u64(0xDE5);
        for _ in 0..128 {
            run(&mut EventQueue::new(), &mut rng);
        }
        let mut rng = DetRng::seed_from_u64(0xDE5);
        for _ in 0..128 {
            run(&mut HeapEventQueue::new(), &mut rng);
        }
    }
}
