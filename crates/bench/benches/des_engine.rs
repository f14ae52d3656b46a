//! Micro-benchmark: raw event throughput of the DES engine.
//!
//! Each benchmark of the sorted-buffer [`EventQueue`] has a `*_heap` twin
//! running the identical workload on the [`HeapEventQueue`] reference
//! backend, measured in the same process — the in-run ratio is immune to
//! machine noise between sessions.
//!
//! `queue_push_pop_10k` and `queue_cancel_heavy` hold 10 000 events
//! pending at once, hundreds of times more than any simulator does. The
//! sorted buffer's push is linear in the pending set, so these two are
//! quadratic on it and far slower than on the heap; they chart that
//! known price, not the simulator's workload.

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

fn cancel_heavy<Q: PendingEvents<u64>>(mut q: Q) -> u64 {
    let keys: Vec<_> = (0..10_000u64)
        .map(|i| q.push(SimTime::from_nanos(i), i))
        .collect();
    for k in keys.iter().step_by(2) {
        q.cancel(*k);
    }
    let mut n = 0;
    while q.pop().is_some() {
        n += 1;
    }
    n
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
    group.bench_function("queue_cancel_heavy", |b| {
        b.iter(|| black_box(cancel_heavy(EventQueue::new())))
    });
    group.bench_function("queue_cancel_heavy_heap", |b| {
        b.iter(|| black_box(cancel_heavy(HeapEventQueue::new())))
    });
    group.finish();
}

criterion_group!(benches, engine_event_throughput);
criterion_main!(benches);
