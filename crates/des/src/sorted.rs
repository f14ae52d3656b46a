//! The production pending-event set: one sorted buffer and one timer.
//!
//! Events sit inline in one `Vec`, as `(time, seq, event)` sorted
//! descending by `(time, seq)`, so the earliest event is at the back. There
//! is no payload arena and nothing is ever cancelled: the one event a model
//! re-plans — the master's next wake-up — lives in the timer beside the
//! buffer instead.
//!
//! * **Push** takes the next `seq`, scans from the back past every entry
//!   due at or before the new one and inserts there. The new entry has the
//!   largest `seq` so far, so it lands after every same-time entry: FIFO
//!   within a timestamp, the `(time, insertion order)` contract of the
//!   [`HeapEventQueue`](crate::HeapEventQueue) reference.
//! * **Arming the timer** takes the next `seq` too and overwrites the
//!   timer's event, so a re-armed timer fires exactly where cancelling the
//!   old event and pushing a new one would put it.
//! * **Pop** takes the timer if its `(time, seq)` is below the buffer's
//!   back, and the back otherwise.
//! * **Releasing the timer** inserts its event into the buffer at its own
//!   `(time, seq)`: it still fires in its place, and the timer is free.
//!
//! # Cost model
//!
//! A push is linear in the buffered events; arming, disarming and popping
//! are `O(1)`. That fits because one simulator's pending set is small: its
//! traffic sources, its in-flight relays and one master timer. Most pushes
//! land a few slots ahead, so the scan stops after a step or two. The
//! queue stores exactly its live events (buffered ones plus the armed
//! timer). High-water marks of live events over the benchmark's workloads
//! at two seeds each:
//!
//! | workload | live |
//! |---|---|
//! | the paper's Fig. 4 piconet (4 GS + 8 BE flows), 1000 s | 13 |
//! | a 1–2 piconet grid cell, 20 s | 13 |
//! | one island of the 256-piconet mesh, 10 s | 5 |
//!
//! A whole queue fits in a few cache lines, so an island whose turn comes
//! round again finds it warm. A set thousands deep pays quadratically, as
//! the `des_engine` microbenchmarks with 10 000 pending events show; no
//! simulator comes near that.

use crate::queue::{PendingEvents, QueueOccupancy, Scheduled};
use crate::time::SimTime;

/// Initial buffer capacity: about twice the largest live count above, so
/// none of those workloads ever grows the buffer.
const PREALLOC: usize = 32;

/// One pending event with its insertion number.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The pop order: earliest time first, then insertion order.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

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
/// q.arm_timer(SimTime::from_millis(1), "early");
/// q.push(SimTime::from_millis(1), "early2");
///
/// assert_eq!(q.disarm_timer(), Some("early"));
/// let first = q.pop().unwrap();
/// assert_eq!(first.event, "early2");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Buffered events sorted descending by `(time, seq)`: the earliest is
    /// at the back.
    entries: Vec<Entry<E>>,
    /// The armed timer, if any.
    timer: Option<Entry<E>>,
    next_seq: u64,
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
            timer: None,
            next_seq: 0,
        }
    }

    /// Number of live (not yet popped or disarmed) events, the armed timer
    /// included.
    pub fn len(&self) -> usize {
        self.entries.len() + usize::from(self.timer.is_some())
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.timer.is_none()
    }

    #[inline]
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` at `time`, behind every event already pending at
    /// `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq();
        // Everything from the back up to the last entry later than `time`
        // fires first: earlier, or same time with a smaller seq.
        let pos = self
            .entries
            .iter()
            .rposition(|e| e.time > time)
            .map_or(0, |i| i + 1);
        self.entries.insert(pos, Entry { time, seq, event });
    }

    /// Arms the timer: `event` fires at `time`, behind every event already
    /// pending at `time`. An event the timer already held is dropped.
    #[inline]
    pub fn arm_timer(&mut self, time: SimTime, event: E) {
        let seq = self.take_seq();
        self.timer = Some(Entry { time, seq, event });
    }

    /// Disarms the timer, returning its event if it was armed.
    #[inline]
    pub fn disarm_timer(&mut self) -> Option<E> {
        self.timer.take().map(|e| e.event)
    }

    /// Moves the armed timer's event into the buffer at its own
    /// `(time, seq)`; the timer is free to arm again.
    pub fn release_timer(&mut self) {
        if let Some(entry) = self.timer.take() {
            let key = entry.key();
            let pos = self
                .entries
                .iter()
                .rposition(|e| e.key() > key)
                .map_or(0, |i| i + 1);
            self.entries.insert(pos, entry);
        }
    }

    /// `true` if the armed timer fires before every buffered event.
    #[inline]
    fn timer_is_next(&self) -> bool {
        match (&self.timer, self.entries.last()) {
            (Some(timer), Some(back)) => timer.key() < back.key(),
            (timer, None) => timer.is_some(),
            (None, Some(_)) => false,
        }
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let next = if self.timer_is_next() {
            self.timer.as_ref()
        } else {
            self.entries.last()
        };
        next.map(|e| e.time)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.pop_if_due(SimTime::MAX)
    }

    /// Removes and returns the earliest pending event if it fires no later
    /// than `horizon`.
    #[inline]
    pub fn pop_if_due(&mut self, horizon: SimTime) -> Option<Scheduled<E>> {
        let from_timer = self.timer_is_next();
        let next = if from_timer {
            self.timer.as_ref()
        } else {
            self.entries.last()
        };
        if next?.time > horizon {
            return None;
        }
        let e = if from_timer {
            self.timer.take()
        } else {
            self.entries.pop()
        }?;
        Some(Scheduled {
            time: e.time,
            event: e.event,
        })
    }
}

impl<E> PendingEvents<E> for EventQueue<E> {
    fn push(&mut self, time: SimTime, event: E) {
        EventQueue::push(self, time, event);
    }

    fn arm_timer(&mut self, time: SimTime, event: E) {
        EventQueue::arm_timer(self, time, event);
    }

    fn disarm_timer(&mut self) -> Option<E> {
        EventQueue::disarm_timer(self)
    }

    fn release_timer(&mut self) {
        EventQueue::release_timer(self);
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
        // Nothing is stored that is not live.
        let live = self.len();
        QueueOccupancy { live, near: live }
    }
}

impl<E: core::fmt::Debug> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.len())
            .finish_non_exhaustive()
    }
}
