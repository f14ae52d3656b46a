//! The pending-event set: the queue interface, and the binary-heap
//! reference implementation.
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
    /// Total live (not yet popped or disarmed) events, the armed timer
    /// included.
    pub live: usize,
    /// Entries the backend stores. The sorted buffer stores exactly its
    /// live events (buffered ones plus the armed timer), so this equals
    /// `live` there; the heap reference also counts the entries of
    /// disarmed or replaced timers it has not yet dropped.
    pub near: usize,
}

/// The interface between the [`Simulator`](crate::Simulator) run loop and a
/// pending-event structure.
///
/// Both implementations — the sorted-buffer [`EventQueue`](crate::EventQueue)
/// and the [`HeapEventQueue`] reference — honour the same contract: events
/// pop in `(time, insertion order)` order, so same-time events are FIFO.
///
/// Beside its plain events a queue holds one re-armable *timer*: a single
/// event slot that [`arm_timer`](PendingEvents::arm_timer) sets afresh.
/// Arming takes the next insertion number, exactly like a push, so a
/// re-armed timer fires where cancelling the old event and pushing a new
/// one would put it.
pub trait PendingEvents<E> {
    /// Schedules `event` at `time`, behind every event already pending at
    /// `time`.
    fn push(&mut self, time: SimTime, event: E);

    /// Arms the timer: `event` fires at `time`, behind every event already
    /// pending at `time`. An event the timer already held is dropped.
    fn arm_timer(&mut self, time: SimTime, event: E);

    /// Disarms the timer, returning its event if it was armed.
    fn disarm_timer(&mut self) -> Option<E>;

    /// Hands the armed timer's event over to the queue as a plain event
    /// that keeps its place in `(time, insertion order)`; the timer is
    /// free to arm again. A no-op when the timer is not armed.
    fn release_timer(&mut self);

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

    /// Number of live (not yet popped or disarmed) events.
    fn len(&self) -> usize;

    /// `true` if no live events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A structural snapshot of the stored entries (see
    /// [`QueueOccupancy`]).
    fn occupancy(&self) -> QueueOccupancy;
}

/// Handle to an event in the reference heap's slot arena. Keys are unique
/// for the lifetime of the queue: a key is never reused for a different
/// event, so a stale key is safely rejected rather than cancelling an
/// unrelated event.
#[derive(Clone, Copy, PartialEq, Eq)]
struct EventKey {
    slot: u32,
    generation: u32,
}

/// An index entry for one scheduled event; the payload lives in the
/// [`SlotArena`]. Ordered so the *earliest* `(time, seq)` is the maximum
/// (`BinaryHeap` is a max-heap).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    key: EventKey,
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

/// Generation-checked payload storage of the reference heap.
///
/// Every scheduled event's payload lives in a slot; the `(slot, generation)`
/// pair is its [`EventKey`]. Cancellation bumps the generation, so index
/// entries still sitting in the heap are recognised as dead and skipped
/// lazily. Freed slots are recycled through a free list.
struct SlotArena<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
}

impl<E> SlotArena<E> {
    fn new() -> Self {
        SlotArena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `payload`, returning its key.
    fn alloc(&mut self, payload: E) -> EventKey {
        let slot = match self.free.pop() {
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
                idx
            }
        };
        EventKey {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// Removes the payload a key refers to, if the key is still current.
    fn take(&mut self, key: EventKey) -> Option<E> {
        let slot = self.slots.get_mut(key.slot as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        let payload = slot.payload.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(key.slot);
        Some(payload)
    }

    /// `true` if the key still refers to a pending payload.
    fn is_live(&self, key: EventKey) -> bool {
        let slot = &self.slots[key.slot as usize];
        slot.generation == key.generation && slot.payload.is_some()
    }
}

/// The reference pending-event set: a `BinaryHeap` ordered by
/// `(time, insertion order)`, with payloads in a generation-checked slot
/// arena.
///
/// Same-time events pop in the order they were pushed, which makes runs
/// reproducible without relying on heap internals. The timer is modelled
/// literally: arming cancels the previous timer event (its heap entry dies
/// lazily) and pushes a new one, and releasing the timer just forgets the
/// key, leaving the event queued where it was. The production
/// [`EventQueue`](crate::EventQueue) (a sorted buffer with an inline
/// timer) must be operationally indistinguishable from this structure; it
/// exists so differential tests have an obviously-correct model to compare
/// against.
///
/// # Examples
///
/// ```
/// use btgs_des::{HeapEventQueue, SimTime};
///
/// let mut q = HeapEventQueue::new();
/// q.push(SimTime::from_millis(2), "late");
/// q.arm_timer(SimTime::from_millis(1), "early");
/// q.push(SimTime::from_millis(1), "early2");
///
/// assert_eq!(q.disarm_timer(), Some("early"));
/// let first = q.pop().unwrap();
/// assert_eq!(first.event, "early2");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry>,
    arena: SlotArena<E>,
    /// Key of the timer's event while the timer is armed (it may have
    /// popped since: the key is then stale).
    timer: Option<EventKey>,
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
            timer: None,
            next_seq: 0,
            live: 0,
        }
    }

    /// Number of live (not yet popped or disarmed) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `event` at `time`, behind every event already pending at
    /// `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_keyed(time, event);
    }

    fn push_keyed(&mut self, time: SimTime, event: E) -> EventKey {
        let key = self.arena.alloc(event);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, key });
        self.live += 1;
        key
    }

    fn cancel(&mut self, key: EventKey) -> Option<E> {
        let payload = self.arena.take(key)?;
        self.live -= 1;
        Some(payload)
    }

    /// Arms the timer: cancels its previous event, if still pending, and
    /// pushes `event` at `time`.
    pub fn arm_timer(&mut self, time: SimTime, event: E) {
        self.disarm_timer();
        self.timer = Some(self.push_keyed(time, event));
    }

    /// Disarms the timer by cancelling its event, returned if it was still
    /// pending.
    pub fn disarm_timer(&mut self) -> Option<E> {
        let key = self.timer.take()?;
        self.cancel(key)
    }

    /// Forgets the timer's key: its event stays queued as a plain event.
    pub fn release_timer(&mut self) {
        self.timer = None;
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
            let Some(event) = self.arena.take(entry.key) else {
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
            if self.arena.is_live(entry.key) {
                return;
            }
            self.heap.pop();
        }
    }
}

impl<E> PendingEvents<E> for HeapEventQueue<E> {
    fn push(&mut self, time: SimTime, event: E) {
        HeapEventQueue::push(self, time, event);
    }

    fn arm_timer(&mut self, time: SimTime, event: E) {
        HeapEventQueue::arm_timer(self, time, event);
    }

    fn disarm_timer(&mut self) -> Option<E> {
        HeapEventQueue::disarm_timer(self)
    }

    fn release_timer(&mut self) {
        HeapEventQueue::release_timer(self);
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

    fn drain(q: &mut dyn PendingEvents<i32>) -> Vec<i32> {
        std::iter::from_fn(|| q.pop().map(|s| s.event)).collect()
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
    fn replaced_timer_events_are_dropped_at_every_distance() {
        both(|q| {
            q.arm_timer(t(1), 1);
            q.arm_timer(SimTime::from_secs(1), 2);
            q.arm_timer(SimTime::from_secs(100), 3);
            q.push(SimTime::from_secs(200), 4);
            assert_eq!(q.len(), 2);
            assert_eq!(q.disarm_timer(), Some(3));
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(200)));
            assert_eq!(q.pop().unwrap().event, 4);
            assert_eq!(q.disarm_timer(), None, "a disarmed timer stays empty");
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
            assert_eq!(drain(q), vec![0, 2, 3, 9]);
        });
    }

    #[test]
    fn rearming_is_cancel_then_push() {
        both(|q| {
            q.push(t(1), 1);
            q.arm_timer(t(1), 10);
            q.push(t(1), 2);
            // Re-armed at the same instant: behind every event pushed so
            // far, where a cancelled-and-pushed event would land.
            q.arm_timer(t(1), 11);
            q.push(t(1), 3);
            assert_eq!(q.len(), 4);
            assert_eq!(drain(q), vec![1, 2, 11, 3]);
        });
    }

    #[test]
    fn a_released_timer_event_keeps_its_place() {
        both(|q| {
            q.arm_timer(t(1), 10);
            q.push(t(1), 1);
            q.push(t(2), 2);
            q.release_timer();
            assert_eq!(q.disarm_timer(), None, "released: nothing armed");
            q.arm_timer(t(1), 11);
            assert_eq!(q.len(), 4);
            assert_eq!(drain(q), vec![10, 1, 11, 2]);
        });
    }

    #[test]
    fn the_timer_pops_in_time_order_with_the_buffer() {
        both(|q| {
            q.push(t(2), 2);
            q.arm_timer(t(3), 3);
            q.push(t(4), 4);
            assert_eq!(q.pop().unwrap().event, 2);
            assert_eq!(q.peek_time(), Some(t(3)));
            assert_eq!(q.pop().unwrap().event, 3);
            assert_eq!(q.disarm_timer(), None, "the timer fired");
            q.arm_timer(t(5), 5);
            assert_eq!(drain(q), vec![4, 5]);
        });
    }

    #[test]
    fn occupancy_counts_live_events_and_the_timer() {
        both(|q| {
            q.arm_timer(t(1), 1);
            q.push(t(2), 2);
            q.arm_timer(t(3), 3);
            let occ = q.occupancy();
            assert_eq!(occ.live, 2, "the replaced timer event is gone");
            assert!(occ.near >= occ.live);
            assert_eq!(q.peek_time(), Some(t(2)));
            let occ = q.occupancy();
            assert_eq!((occ.live, occ.near), (2, 2), "peek dropped any dead entry");
        });
    }

    #[test]
    fn the_sorted_buffer_stores_only_live_events() {
        let mut q = EventQueue::new();
        q.arm_timer(t(1), 1);
        q.push(t(2), 2);
        q.arm_timer(t(3), 3);
        assert_eq!(q.occupancy(), QueueOccupancy { live: 2, near: 2 });
        q.release_timer();
        q.arm_timer(t(4), 4);
        assert_eq!(q.occupancy(), QueueOccupancy { live: 3, near: 3 });
    }

    #[test]
    fn slot_grid_workload_round_trips() {
        // The simulator's actual pattern: wake/done events marching down
        // the 625 µs slot grid, plus a timer re-armed tens of
        // milliseconds out that sometimes fires and sometimes is replaced.
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
                // Re-arm two slots ahead. Every 32nd event arms the timer
                // 20 ms out, where it fires; eight events later another
                // re-arm replaces it first half the time.
                q.push(SimTime::from_nanos(t + 2 * slot), i);
                if i % 32 == 0 {
                    q.arm_timer(SimTime::from_nanos(t + 20_000_000), 1_000_000 + i);
                } else if i % 64 == 8 {
                    q.arm_timer(SimTime::from_nanos(t + 30_000_000), 2_000_000 + i);
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
            assert_eq!(drain(q), vec![1, 3, 5]);
        });
    }

    #[test]
    fn same_time_is_fifo() {
        both(|q| {
            for i in 0..10 {
                q.push(t(7), i);
            }
            assert_eq!(drain(q), (0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn disarm_removes_the_timer_event() {
        both(|q| {
            q.arm_timer(t(1), 10);
            q.push(t(2), 20);
            assert_eq!(q.len(), 2);
            assert_eq!(q.disarm_timer(), Some(10));
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().unwrap().event, 20);
            assert!(q.is_empty());
        });
    }

    #[test]
    fn a_timer_that_fired_or_was_disarmed_is_empty() {
        both(|q| {
            q.arm_timer(t(1), 1);
            assert_eq!(q.disarm_timer(), Some(1));
            assert_eq!(q.disarm_timer(), None, "double disarm");
            q.arm_timer(t(2), 2);
            assert_eq!(q.pop().unwrap().event, 2);
            assert_eq!(q.disarm_timer(), None, "the timer fired");
            assert!(q.is_empty());
        });
    }

    #[test]
    fn peek_time_skips_a_replaced_timer_event() {
        both(|q| {
            q.arm_timer(t(1), 1);
            q.push(t(4), 4);
            q.arm_timer(t(5), 5);
            assert_eq!(q.peek_time(), Some(t(4)));
        });
    }

    #[test]
    fn pop_if_due_respects_horizon() {
        both(|q| {
            q.push(t(1), 1);
            q.arm_timer(t(3), 3);
            q.push(t(5), 5);
            assert_eq!(q.pop_if_due(t(0)), None);
            assert_eq!(q.pop_if_due(t(1)).unwrap().event, 1);
            assert_eq!(q.pop_if_due(t(2)), None);
            assert_eq!(q.pop_if_due(t(3)).unwrap().event, 3);
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
            assert_eq!(q.disarm_timer(), None);
            q.release_timer();
            assert!(q.is_empty());
        });
    }

    #[test]
    fn heavy_mixed_usage_stays_consistent() {
        both(|q| {
            for round in 0u64..50 {
                for i in 0u64..20 {
                    let (at, ev) = (t(round * 10 + i % 7), (round * 100 + i) as i32);
                    // Every third event re-arms the timer, replacing the
                    // one armed before it.
                    if i % 3 == 0 {
                        q.arm_timer(at, ev);
                    } else {
                        q.push(at, ev);
                    }
                }
            }
            let mut last = SimTime::ZERO;
            let mut popped = 0;
            while let Some(s) = q.pop() {
                assert!(s.time >= last, "time order violated");
                last = s.time;
                popped += 1;
            }
            // 13 pushes per round, plus the one timer event never replaced.
            assert_eq!(popped, 50 * 13 + 1);
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
    /// and timer arms, disarms and releases — for both backends.
    #[test]
    fn ordering_invariant() {
        fn run(q: &mut dyn PendingEvents<usize>, rng: &mut DetRng) {
            let n_ops = rng.range_inclusive(1, 199) as usize;
            let mut expect_live = 0usize;
            let mut armed = false;
            for i in 0..n_ops {
                let time = SimTime::from_millis(rng.below(100));
                match rng.below(8) {
                    0 | 1 => {
                        q.arm_timer(time, i);
                        expect_live += usize::from(!armed);
                        armed = true;
                    }
                    2 => {
                        assert_eq!(q.disarm_timer().is_some(), armed);
                        expect_live -= usize::from(armed);
                        armed = false;
                    }
                    3 => {
                        q.release_timer();
                        armed = false;
                    }
                    _ => {
                        q.push(time, i);
                        expect_live += 1;
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
