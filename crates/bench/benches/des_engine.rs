//! Micro-benchmark: raw event throughput of the DES engine.
//!
//! Each benchmark of the sorted-buffer [`EventQueue`] has a `*_heap` twin
//! running the identical workload on the [`HeapEventQueue`] reference
//! backend, measured in the same process — the in-run ratio is immune to
//! machine noise between sessions.
//!
//! `queue_push_pop_10k` holds 10 000 events pending at once, hundreds of
//! times more than any simulator does. The sorted buffer's push is linear
//! in the pending set, so it is quadratic on it and far slower than on the
//! heap; it charts that known price, not the simulator's workload.
//!
//! `timer_rearm` charts the piconet master's wake-up pattern instead: a
//! small pending set whose timer is re-armed on almost every event. The
//! sorted buffer overwrites its inline timer; the heap cancels the old
//! event and pushes a new one.

use btgs_bench::microbench::{Criterion, Throughput};
use btgs_bench::{criterion_group, criterion_main};
use btgs_des::{EventQueue, HeapEventQueue, PendingEvents, SimDuration, SimTime, Simulator};
use std::hint::black_box;

/// Events fired by the self-rescheduling loop (t = 0..=100_000 ms).
const SELF_RESCHED_EVENTS: u64 = 100_001;

fn self_resched<Q: PendingEvents<()>>(queue: Q) -> u64 {
    let mut sim = Simulator::with_queue(0u64, queue);
    sim.scheduler_mut().schedule_at(SimTime::ZERO, ());
    sim.run_until(SimTime::from_millis(100_000), |sched, count, ()| {
        *count += 1;
        sched.schedule_in(SimDuration::from_millis(1), ());
    });
    *sim.state()
}

fn push_pop_10k<Q: PendingEvents<u64>>(mut q: Q) -> u64 {
    for i in 0..10_000u64 {
        // Scatter times to exercise bucket/heap reordering.
        q.push(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000), i);
    }
    let mut sum = 0u64;
    while let Some(s) = q.pop() {
        sum = sum.wrapping_add(s.event);
    }
    sum
}

/// Events fired by the timer workload: 100 001 ticks (t = 0..=100_000
/// ms) and a timer pop 500 µs after each tick but the last.
const TIMER_EVENTS: u64 = 200_001;

enum Ev {
    Tick,
    Wake,
}

/// One self-rescheduling tick per millisecond. Each tick parks the timer
/// 1.5 ms out, the way an idle decision does, then pulls it in to
/// 500 µs, the way `ensure_wake` does for an arrival that needs an earlier
/// wake-up: two arms per tick, one of them replacing an armed timer, and
/// one timer pop.
fn timer_rearm<Q: PendingEvents<Ev>>(queue: Q) -> u64 {
    let mut sim = Simulator::with_queue(0u64, queue);
    sim.scheduler_mut().schedule_at(SimTime::ZERO, Ev::Tick);
    sim.run_until(SimTime::from_millis(100_000), |sched, wakes, ev| match ev {
        Ev::Tick => {
            let now = sched.now();
            sched.schedule_in(SimDuration::from_millis(1), Ev::Tick);
            sched.arm_timer(now + SimDuration::from_micros(1_500), Ev::Wake);
            sched.arm_timer(now + SimDuration::from_micros(500), Ev::Wake);
        }
        Ev::Wake => *wakes += 1,
    });
    *sim.state()
}

fn engine_event_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("des");
    group.throughput(Throughput::Elements(SELF_RESCHED_EVENTS));
    group.bench_function("self_rescheduling_event_100k", |b| {
        b.iter(|| black_box(self_resched(EventQueue::new())))
    });
    group.bench_function("self_rescheduling_event_100k_heap", |b| {
        b.iter(|| black_box(self_resched(HeapEventQueue::new())))
    });
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("queue_push_pop_10k", |b| {
        b.iter(|| black_box(push_pop_10k(EventQueue::new())))
    });
    group.bench_function("queue_push_pop_10k_heap", |b| {
        b.iter(|| black_box(push_pop_10k(HeapEventQueue::new())))
    });
    group.throughput(Throughput::Elements(TIMER_EVENTS));
    group.bench_function("timer_rearm", |b| {
        b.iter(|| black_box(timer_rearm(EventQueue::new())))
    });
    group.bench_function("timer_rearm_heap", |b| {
        b.iter(|| black_box(timer_rearm(HeapEventQueue::new())))
    });
    group.finish();
}

criterion_group!(benches, engine_event_throughput);
criterion_main!(benches);
