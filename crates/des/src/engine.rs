//! The discrete-event simulation driver.

use crate::queue::{PendingEvents, QueueOccupancy};
use crate::sorted::EventQueue;
use crate::time::{SimDuration, SimTime};
use core::marker::PhantomData;

/// Scheduling facade handed to event handlers.
///
/// A handler receives `&mut Scheduler<E, Q>` and may plant new events or
/// re-arm, disarm or release the scheduler's one timer (see
/// [`PendingEvents`]); it cannot rewind the clock. The queue backend `Q`
/// defaults to the sorted-buffer [`EventQueue`]; differential tests swap in
/// the [`HeapEventQueue`](crate::HeapEventQueue) reference.
#[derive(Debug)]
pub struct Scheduler<E, Q: PendingEvents<E> = EventQueue<E>> {
    now: SimTime,
    queue: Q,
    stopped: bool,
    _event: PhantomData<fn() -> E>,
}

impl<E, Q: PendingEvents<E>> Scheduler<E, Q> {
    fn with_queue(queue: Q) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue,
            stopped: false,
            _event: PhantomData,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past (`at < now`); scheduling events behind
    /// the clock is always a logic error.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.assert_not_past(at);
        self.queue.push(at, event);
    }

    /// Schedules `event` after the relative delay `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.queue.push(at, event);
    }

    /// Arms the timer: `event` fires at the absolute instant `at`, behind
    /// every event already pending at `at`, and the event the timer held
    /// before, if any, is dropped. Re-arming is therefore exactly
    /// cancelling the old event and scheduling the new one.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past (`at < now`).
    pub fn arm_timer(&mut self, at: SimTime, event: E) {
        self.assert_not_past(at);
        self.queue.arm_timer(at, event);
    }

    /// Disarms the timer, returning its event if it was armed and had not
    /// fired.
    pub fn disarm_timer(&mut self) -> Option<E> {
        self.queue.disarm_timer()
    }

    /// Hands the armed timer's event over to the queue as a plain event
    /// that keeps its place; the timer is free to arm again. A no-op when
    /// the timer is not armed (for instance because it just fired).
    pub fn release_timer(&mut self) {
        self.queue.release_timer();
    }

    fn assert_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} < now={}",
            self.now
        );
    }

    /// The firing time of the next pending event, if any.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// A structural snapshot of the pending-event set (see
    /// [`QueueOccupancy`]): live events and stored entries. Observability
    /// only — reading it never perturbs the queue.
    pub fn queue_occupancy(&self) -> QueueOccupancy {
        self.queue.occupancy()
    }

    /// Requests that the run loop stop after the current handler returns.
    pub fn stop(&mut self) {
        self.stopped = true;
    }
}

/// A discrete-event simulator over a user state `S` and event type `E`.
///
/// The simulator owns the clock and the pending-event set; the caller owns
/// the domain state and the handler logic. This split keeps the engine
/// reusable for any model (here: a Bluetooth piconet) while the borrow
/// checker still allows handlers to mutate the state and schedule more
/// events at the same time.
///
/// The third parameter selects the pending-event backend. It defaults to
/// the sorted-buffer [`EventQueue`]; [`Simulator::with_queue`] accepts any
/// [`PendingEvents`] implementation, which the differential tests use to
/// run the same model against the heap reference.
///
/// # Examples
///
/// A counter that re-arms itself until the horizon:
///
/// ```
/// use btgs_des::{Simulator, SimTime, SimDuration};
///
/// #[derive(Debug)]
/// struct Tick;
///
/// let mut sim = Simulator::new(0u32);
/// sim.scheduler_mut().schedule_at(SimTime::ZERO, Tick);
/// sim.run_until(SimTime::from_millis(10), |sched, count, Tick| {
///     *count += 1;
///     sched.schedule_in(SimDuration::from_millis(1), Tick);
/// });
/// assert_eq!(*sim.state(), 11); // fires at 0..=10 ms inclusive
/// ```
#[derive(Debug)]
pub struct Simulator<S, E, Q: PendingEvents<E> = EventQueue<E>> {
    scheduler: Scheduler<E, Q>,
    state: S,
    events_processed: u64,
}

impl<S, E> Simulator<S, E> {
    /// Creates a simulator owning `state`, with the clock at zero, backed
    /// by the sorted-buffer [`EventQueue`].
    pub fn new(state: S) -> Self {
        Simulator::with_queue(state, EventQueue::new())
    }
}

impl<S, E, Q: PendingEvents<E>> Simulator<S, E, Q> {
    /// Creates a simulator owning `state`, with the clock at zero, backed
    /// by the given pending-event structure.
    pub fn with_queue(state: S, queue: Q) -> Self {
        Simulator {
            scheduler: Scheduler::with_queue(queue),
            state,
            events_processed: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now
    }

    /// Shared access to the domain state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the domain state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consumes the simulator and hands back the domain state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Access to the scheduler, e.g. to seed initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<E, Q> {
        &mut self.scheduler
    }

    /// Simultaneous exclusive access to the scheduler and the domain state,
    /// for seeding routines that plant events while mutating state (the
    /// borrow checker cannot split the two through separate method calls).
    pub fn split_mut(&mut self) -> (&mut Scheduler<E, Q>, &mut S) {
        (&mut self.scheduler, &mut self.state)
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Processes a single event (the earliest pending one), advancing the
    /// clock to its timestamp. Returns `false` if no event was pending.
    pub fn step<F>(&mut self, mut handler: F) -> bool
    where
        F: FnMut(&mut Scheduler<E, Q>, &mut S, E),
    {
        match self.scheduler.queue.pop() {
            Some(scheduled) => {
                debug_assert!(scheduled.time >= self.scheduler.now);
                self.scheduler.now = scheduled.time;
                self.events_processed += 1;
                handler(&mut self.scheduler, &mut self.state, scheduled.event);
                true
            }
            None => false,
        }
    }

    /// Runs until the pending-event set drains, `horizon` passes, or a
    /// handler calls [`Scheduler::stop`].
    ///
    /// Events stamped exactly at `horizon` still fire; the clock never
    /// advances past `horizon`. Returns the number of events processed by
    /// this call.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut Scheduler<E, Q>, &mut S, E),
    {
        let start = self.events_processed;
        self.scheduler.stopped = false;
        while !self.scheduler.stopped {
            // One queue traversal serves both the horizon check and the pop.
            let Some(scheduled) = self.scheduler.queue.pop_if_due(horizon) else {
                break;
            };
            debug_assert!(scheduled.time >= self.scheduler.now);
            self.scheduler.now = scheduled.time;
            self.events_processed += 1;
            handler(&mut self.scheduler, &mut self.state, scheduled.event);
        }
        // Park the clock at the horizon so a subsequent run resumes cleanly.
        if self.scheduler.now < horizon && self.scheduler.queue.peek_time().is_none() {
            self.scheduler.now = horizon;
        }
        self.events_processed - start
    }

    /// Runs until the pending-event set drains or a handler calls
    /// [`Scheduler::stop`]. Returns the number of events processed.
    pub fn run<F>(&mut self, mut handler: F) -> u64
    where
        F: FnMut(&mut Scheduler<E, Q>, &mut S, E),
    {
        let start = self.events_processed;
        self.scheduler.stopped = false;
        while !self.scheduler.stopped && self.step(&mut handler) {}
        self.events_processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::HeapEventQueue;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping,
        Pong,
    }

    #[test]
    fn clock_advances_to_event_times() {
        let mut sim: Simulator<Vec<(SimTime, Ev)>, Ev> = Simulator::new(Vec::new());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_millis(3), Ev::Ping);
        sim.scheduler_mut()
            .schedule_at(SimTime::from_millis(1), Ev::Pong);
        sim.run(|sched, log, ev| log.push((sched.now(), ev)));
        assert_eq!(
            *sim.state(),
            vec![
                (SimTime::from_millis(1), Ev::Pong),
                (SimTime::from_millis(3), Ev::Ping)
            ]
        );
        assert_eq!(sim.now(), SimTime::from_millis(3));
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn run_until_respects_horizon_inclusive() {
        let mut sim = Simulator::new(0u32);
        sim.scheduler_mut().schedule_at(SimTime::ZERO, ());
        let n = sim.run_until(SimTime::from_millis(5), |sched, count, ()| {
            *count += 1;
            sched.schedule_in(SimDuration::from_millis(1), ());
        });
        assert_eq!(n, 6); // t = 0,1,2,3,4,5
        assert_eq!(sim.now(), SimTime::from_millis(5));
        // The event planted at t=6 is still pending.
        assert_eq!(sim.scheduler_mut().pending(), 1);
        // Resuming picks it up.
        let n2 = sim.run_until(SimTime::from_millis(6), |_, count, ()| {
            *count += 1;
        });
        assert_eq!(n2, 1);
        assert_eq!(*sim.state(), 7);
    }

    #[test]
    fn run_until_parks_clock_when_drained() {
        let mut sim: Simulator<(), ()> = Simulator::new(());
        sim.run_until(SimTime::from_secs(2), |_, _, ()| {});
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn stop_halts_the_loop() {
        let mut sim = Simulator::new(0u32);
        sim.scheduler_mut().schedule_at(SimTime::ZERO, ());
        sim.run(|sched, count, ()| {
            *count += 1;
            if *count == 3 {
                sched.stop();
            } else {
                sched.schedule_in(SimDuration::from_millis(1), ());
            }
        });
        assert_eq!(*sim.state(), 3);
    }

    #[test]
    fn timer_disarmed_from_handler() {
        let mut sim = Simulator::new(Vec::<&str>::new());
        let sched = sim.scheduler_mut();
        sched.schedule_at(SimTime::from_millis(1), "first");
        sched.arm_timer(SimTime::from_millis(2), "doomed");
        sched.schedule_at(SimTime::from_millis(3), "last");
        sim.run(move |sched, log, ev| {
            log.push(ev);
            if ev == "first" {
                assert_eq!(sched.disarm_timer(), Some("doomed"));
            }
        });
        assert_eq!(*sim.state(), vec!["first", "last"]);
    }

    #[test]
    fn timer_rearmed_from_handler_fires_once() {
        // A watchdog re-armed by every tick fires only after the ticks
        // stop, on either backend.
        fn run<Q: PendingEvents<&'static str>>(queue: Q) -> Vec<(SimTime, &'static str)> {
            let mut sim = Simulator::with_queue(Vec::new(), queue);
            sim.scheduler_mut().schedule_at(SimTime::ZERO, "tick");
            sim.run(|sched, log, ev| {
                log.push((sched.now(), ev));
                if ev == "tick" && sched.now() < SimTime::from_millis(3) {
                    sched.schedule_in(SimDuration::from_millis(1), "tick");
                    sched.arm_timer(sched.now() + SimDuration::from_millis(2), "watchdog");
                }
            });
            sim.into_state()
        }
        let ms = SimTime::from_millis;
        let expected = vec![
            (ms(0), "tick"),
            (ms(1), "tick"),
            (ms(2), "tick"),
            (ms(3), "tick"),
            (ms(4), "watchdog"),
        ];
        assert_eq!(run(EventQueue::new()), expected);
        assert_eq!(run(HeapEventQueue::new()), expected);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn arming_into_the_past_panics() {
        let mut sim = Simulator::new(());
        sim.scheduler_mut().schedule_at(SimTime::from_millis(5), ());
        sim.run(|sched, _, ()| {
            sched.arm_timer(SimTime::from_millis(1), ());
        });
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new(());
        sim.scheduler_mut().schedule_at(SimTime::from_millis(5), ());
        sim.run(|sched, _, ()| {
            sched.schedule_at(SimTime::from_millis(1), ());
        });
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        let mut sim = Simulator::new(Vec::<u32>::new());
        for i in 0..5 {
            sim.scheduler_mut().schedule_at(SimTime::from_millis(1), i);
        }
        sim.run(|_, log, i| log.push(i));
        assert_eq!(*sim.state(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heap_backend_drives_the_same_model() {
        let mut sim: Simulator<u32, (), HeapEventQueue<()>> =
            Simulator::with_queue(0, HeapEventQueue::new());
        sim.scheduler_mut().schedule_at(SimTime::ZERO, ());
        let n = sim.run_until(SimTime::from_millis(5), |sched, count, ()| {
            *count += 1;
            sched.schedule_in(SimDuration::from_millis(1), ());
        });
        assert_eq!(n, 6);
        assert_eq!(*sim.state(), 6);
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }
}
