//! The production pending-event set: one sorted buffer.
//!
//! Index entries sit in one `Vec` sorted descending by `(time, seq)`, so
//! the earliest event is at the back; payloads live in the shared slot
//! arena, as in the heap backend.
//!
//! * **Push** scans from the back past every entry due at or before the
//!   new one and inserts there. The new entry has the largest `seq` so
//!   far, so it lands after every same-time entry: FIFO within a
//!   timestamp, the `(time, insertion order)` contract of the
//!   [`HeapEventQueue`](crate::HeapEventQueue) reference.
//! * **Pop** takes the back.
//! * **Cancel** bumps the entry's generation in the arena; the dead entry
//!   is dropped when it reaches the back.
//!
//! # Cost model
//!
//! A push is linear in the stored entries and a pop is `O(1)`. That fits
//! because one simulator's pending set is small: its traffic sources, its
//! in-flight relays, one master timer, and cancelled wake-ups not yet
//! dropped. Most pushes land a few slots ahead, so the scan stops after a
//! step or two. High-water marks, as live/stored entries, over the
//! benchmark's workloads at two seeds each:
//!
//! | workload | live | stored |
//! |---|---|---|
//! | the paper's Fig. 4 piconet (4 GS + 8 BE flows), 1000 s | 13 | 16 |
//! | a 1–2 piconet grid cell, 20 s | 13 | 17 |
//! | one island of the 256-piconet mesh, 10 s | 5 | 7 |
//!
//! A whole queue fits in a few cache lines, so an island whose turn comes
//! round again finds it warm. A set thousands deep pays quadratically, as
//! the `des_engine` microbenchmarks with 10 000 pending events show; no
//! simulator comes near that.

use crate::queue::{Entry, EventKey, PendingEvents, QueueOccupancy, Scheduled, SlotArena};
use crate::time::SimTime;

/// Initial buffer capacity: about twice the largest stored count above, in
/// 768 bytes, so none of those workloads ever grows the buffer.
const PREALLOC: usize = 32;

/// A pending-event set ordered by `(time, insertion order)`: same-time
/// events pop in push order, exactly as from the
/// [`HeapEventQueue`](crate::HeapEventQueue) reference model.
///
/// # Examples
///
/// ```
/// use btgs_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
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
pub struct EventQueue<E> {
    /// Index entries sorted descending by `(time, seq)`: the earliest is at
    /// the back. Cancelled entries stay until they reach the back.
    entries: Vec<Entry>,
    arena: SlotArena<E>,
    next_seq: u64,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::with_capacity(PREALLOC),
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
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) -> EventKey {
        let (slot, generation) = self.arena.alloc(event);
        let seq = self.next_seq;
        self.next_seq += 1;
        // Everything from the back up to the last entry later than `time`
        // fires first: earlier, or same time with a smaller seq.
        let pos = self
            .entries
            .iter()
            .rposition(|e| e.time > time)
            .map_or(0, |i| i + 1);
        self.entries.insert(
            pos,
            Entry {
                time,
                seq,
                slot,
                generation,
            },
        );
        self.live += 1;
        EventKey { slot, generation }
    }

    /// Cancels a scheduled event, returning its payload if it was still
    /// pending. Stale keys (already fired or cancelled) return `None`.
    ///
    /// The index entry stays in the buffer and is dropped when it reaches
    /// the back.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let payload = self.arena.take(key)?;
        self.live -= 1;
        Some(payload)
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(e) = self.entries.last() {
            if self.arena.is_live(e) {
                return Some(e.time);
            }
            self.entries.pop();
        }
        None
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.pop_if_due(SimTime::MAX)
    }

    /// Removes and returns the earliest pending event if it fires no later
    /// than `horizon`.
    #[inline]
    pub fn pop_if_due(&mut self, horizon: SimTime) -> Option<Scheduled<E>> {
        while let Some(&e) = self.entries.last() {
            // The back is the earliest entry, live or not: once it lies
            // past the horizon, so does every live one.
            if e.time > horizon {
                return None;
            }
            self.entries.pop();
            if let Some(event) = self.arena.take(EventKey {
                slot: e.slot,
                generation: e.generation,
            }) {
                self.live -= 1;
                return Some(Scheduled {
                    time: e.time,
                    event,
                });
            }
        }
        None
    }
}

impl<E> PendingEvents<E> for EventQueue<E> {
    fn push(&mut self, time: SimTime, event: E) -> EventKey {
        EventQueue::push(self, time, event)
    }

    fn cancel(&mut self, key: EventKey) -> Option<E> {
        EventQueue::cancel(self, key)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        EventQueue::pop(self)
    }

    fn pop_if_due(&mut self, horizon: SimTime) -> Option<Scheduled<E>> {
        EventQueue::pop_if_due(self, horizon)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    fn occupancy(&self) -> QueueOccupancy {
        QueueOccupancy {
            live: self.live,
            near: self.entries.len(),
        }
    }
}

impl<E: core::fmt::Debug> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}
