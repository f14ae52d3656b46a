//! # btgs-des — deterministic discrete-event simulation engine
//!
//! The simulation substrate for the `btgs` workspace (a reproduction of
//! *"Providing Delay Guarantees in Bluetooth"*, Ait Yaiz & Heijenk,
//! ICDCSW'03). The paper's evaluation runs on ns-2 with Bluetooth
//! extensions; this crate provides the equivalent event-driven kernel:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, so
//!   slot arithmetic (1 Bluetooth slot = 625 µs) is exact.
//! * [`EventQueue`] — the pending-event set: one sorted buffer holding its
//!   events inline, with stable FIFO ordering for same-time events, `O(1)`
//!   pop and a push that scans only the few entries due before it, plus one
//!   re-armable timer beside it for the event a model keeps re-planning.
//! * [`HeapEventQueue`] — the binary-heap reference implementation of the
//!   same [`PendingEvents`] contract, kept for differential testing.
//! * [`Simulator`] / [`Scheduler`] — the run loop: handlers mutate domain
//!   state, plant future events and re-arm or disarm the timer; generic
//!   over the queue backend (defaults to the sorted buffer).
//! * [`DetRng`] — self-contained xoshiro256++ PRNG with independent
//!   sub-streams, so experiments replay bit-for-bit on any platform.
//!
//! One [`Simulator`] runs on one thread, and determinism is a feature of the
//! reproduction: the same inputs replay bit-for-bit. Parallelism lives a
//! layer up, where the scatternet engine runs one simulator per piconet
//! island on a worker pool.
//!
//! # Examples
//!
//! ```
//! use btgs_des::{Simulator, SimTime, SimDuration};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival }
//!
//! let mut sim = Simulator::new(0u64);
//! sim.scheduler_mut().schedule_at(SimTime::ZERO, Ev::Arrival);
//! sim.run_until(SimTime::from_secs(1), |sched, arrivals, ev| match ev {
//!     Ev::Arrival => {
//!         *arrivals += 1;
//!         sched.schedule_in(SimDuration::from_millis(20), Ev::Arrival);
//!     }
//! });
//! assert_eq!(*sim.state(), 51); // t = 0, 20 ms, ..., 1000 ms
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod queue;
mod rng;
mod sorted;
mod time;

pub use engine::{Scheduler, Simulator};
pub use queue::{HeapEventQueue, PendingEvents, QueueOccupancy, Scheduled};
pub use rng::DetRng;
pub use sorted::EventQueue;
pub use time::{SimDuration, SimTime};
