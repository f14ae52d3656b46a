//! Differential property test: the sorted-buffer [`EventQueue`] against the
//! [`HeapEventQueue`] reference model under DetRng-driven random
//! push/timer/pop interleavings.
//!
//! Both structures receive the identical operation sequence; after every
//! operation their observable behaviour (lengths, peeked times, popped
//! `(time, payload)` pairs, disarmed timer events) must match exactly. The
//! heap models the timer literally, as cancel plus push, so the sorted
//! buffer's inline timer is checked against that model. Time
//! offsets range from the same instant to minutes ahead — the slot-grid
//! neighbourhood, tens of milliseconds, tens of seconds, and pushes more
//! than 34 s out — and pops interleave with pushes, so entries land at the
//! back, in the middle and at the front of the buffer, and same-time ties
//! arrive both before and after pops.

use btgs_des::{DetRng, EventQueue, HeapEventQueue, PendingEvents, SimTime};

/// One randomly generated operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push(SimTime),
    ArmTimer(SimTime),
    DisarmTimer,
    ReleaseTimer,
    Pop,
    PopIfDue(SimTime),
    Peek,
}

/// Draws a time offset from one of four distance classes.
fn arb_offset(rng: &mut DetRng) -> u64 {
    match rng.below(10) {
        // The immediate slot-grid neighbourhood (a few slots).
        0..=3 => rng.below(2_000_000),
        // Traffic-arrival distances (up to ~134 ms).
        4..=6 => rng.below(130_000_000),
        // Up to ~34 s.
        7..=8 => rng.below(30_000_000_000),
        // More than 34 s out.
        _ => 34_000_000_000 + rng.below(300_000_000_000),
    }
}

fn run_sequence(rng: &mut DetRng, n_ops: usize) {
    let mut sorted: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut last_popped = SimTime::ZERO;
    let mut payload = 0u64;

    for step in 0..n_ops {
        let op = match rng.below(10) {
            0..=4 => {
                // Mirror engine usage: never schedule behind the clock.
                Op::Push(last_popped + btgs_des::SimDuration::from_nanos(arb_offset(rng)))
            }
            5 => match rng.below(4) {
                0 | 1 => {
                    Op::ArmTimer(last_popped + btgs_des::SimDuration::from_nanos(arb_offset(rng)))
                }
                2 => Op::DisarmTimer,
                _ => Op::ReleaseTimer,
            },
            6..=7 => Op::Pop,
            8 => Op::PopIfDue(
                last_popped + btgs_des::SimDuration::from_nanos(rng.below(200_000_000)),
            ),
            _ => Op::Peek,
        };
        match op {
            Op::Push(t) => {
                payload += 1;
                sorted.push(t, payload);
                heap.push(t, payload);
            }
            Op::ArmTimer(t) => {
                payload += 1;
                sorted.arm_timer(t, payload);
                heap.arm_timer(t, payload);
            }
            Op::DisarmTimer => {
                assert_eq!(
                    sorted.disarm_timer(),
                    heap.disarm_timer(),
                    "disarm at step {step}"
                );
                // A second disarm finds the timer empty in both.
                assert_eq!(sorted.disarm_timer(), None);
                assert_eq!(heap.disarm_timer(), None);
            }
            Op::ReleaseTimer => {
                sorted.release_timer();
                heap.release_timer();
            }
            Op::Pop => {
                let s = sorted.pop();
                let h = heap.pop();
                match (&s, &h) {
                    (Some(a), Some(b)) => {
                        assert_eq!((a.time, a.event), (b.time, b.event), "pop at step {step}");
                        assert!(a.time >= last_popped, "time went backwards");
                        last_popped = a.time;
                    }
                    (None, None) => {}
                    _ => panic!("pop divergence at step {step}: {s:?} vs {h:?}"),
                }
            }
            Op::PopIfDue(h) => {
                let a = sorted.pop_if_due(h);
                let b = heap.pop_if_due(h);
                match (&a, &b) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.event), (y.time, y.event));
                        assert!(x.time <= h, "pop_if_due returned a late event");
                        last_popped = x.time;
                    }
                    (None, None) => {}
                    _ => panic!("pop_if_due divergence at step {step}: {a:?} vs {b:?}"),
                }
            }
            Op::Peek => {
                assert_eq!(sorted.peek_time(), heap.peek_time(), "peek at step {step}");
            }
        }
        assert_eq!(sorted.len(), heap.len(), "len after step {step}");
        assert_eq!(sorted.is_empty(), heap.is_empty());
    }

    // Drain both completely: the full remaining order must be identical,
    // non-decreasing in time, and FIFO within equal timestamps (payloads
    // are issued in push order, so equal times must pop ascending).
    let mut last: Option<(SimTime, u64)> = None;
    loop {
        let s = sorted.pop();
        let h = heap.pop();
        match (s, h) {
            (Some(a), Some(b)) => {
                assert_eq!((a.time, a.event), (b.time, b.event), "drain divergence");
                if let Some((lt, lp)) = last {
                    assert!(a.time >= lt);
                    if a.time == lt {
                        assert!(a.event > lp, "FIFO within same timestamp");
                    }
                }
                last = Some((a.time, a.event));
            }
            (None, None) => break,
            (s, h) => panic!("drain length divergence: {s:?} vs {h:?}"),
        }
    }
    assert!(sorted.is_empty() && heap.is_empty());
}

#[test]
fn sorted_matches_heap_reference_under_random_interleavings() {
    let mut rng = DetRng::seed_from_u64(0x77EE1);
    for _ in 0..64 {
        let n_ops = rng.range_inclusive(50, 800) as usize;
        run_sequence(&mut rng, n_ops);
    }
}

#[test]
fn sorted_matches_heap_on_dense_slot_grid() {
    // A focused sequence shaped like the simulator: slot-grid times with
    // many exact collisions, frequent re-arms of the timer (the master
    // wake-up), the occasional hand-back of an armed timer to the queue,
    // and interleaved pops.
    let mut rng = DetRng::seed_from_u64(0x5107);
    for _ in 0..32 {
        let mut sorted: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
        let mut now = SimTime::ZERO;
        for i in 0..600u32 {
            let pairs_ahead = rng.range_inclusive(0, 40);
            let t = now + btgs_des::SimDuration::from_micros(1250 * pairs_ahead);
            match rng.below(20) {
                // Re-arm the wake timer, like ensure_wake.
                0..=5 => {
                    sorted.arm_timer(t, i);
                    heap.arm_timer(t, i);
                }
                6 => {
                    sorted.release_timer();
                    heap.release_timer();
                }
                _ => {
                    sorted.push(t, i);
                    heap.push(t, i);
                }
            }
            if rng.chance(0.6) {
                let a = sorted.pop();
                let b = heap.pop();
                assert_eq!(
                    a.as_ref().map(|s| (s.time, s.event)),
                    b.as_ref().map(|s| (s.time, s.event))
                );
                if let Some(s) = a {
                    now = s.time;
                }
            }
        }
        while let (Some(a), Some(b)) = (sorted.pop(), heap.pop()) {
            assert_eq!((a.time, a.event), (b.time, b.event));
        }
        assert_eq!(sorted.len(), heap.len());
    }
}
