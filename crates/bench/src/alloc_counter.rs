//! A counting global allocator for zero-allocation assertions.
//!
//! The simulator's steady state is designed to be allocation-free: the
//! event queue is pre-sized and recycles its slots, flow queues reuse their
//! capacity, and the pollers precompute every table they need. This
//! module provides the proof: install [`CountingAllocator`] as the
//! `#[global_allocator]` of a test or bench binary, snapshot
//! [`allocation_count`] around the code under test, and assert the delta
//! is zero. [`allocated_bytes`] sums the sizes those allocations asked
//! for, for budgets on code that must allocate, such as set-up.
//! [`live_bytes`] is what is allocated and not yet freed, and
//! [`peak_live_bytes`] its high-water mark since the last
//! [`reset_peak_live_bytes`], for budgets on a footprint: what a build
//! and its run hold at once, however the allocator places it.
//!
//! Counting uses relaxed atomics — the counters are diagnostics, not
//! synchronisation points — and adds a handful of nanoseconds per
//! allocation, which is irrelevant for the zero-allocation windows it
//! exists to certify.
//!
//! This is the one place in the workspace that needs `unsafe`: a
//! [`GlobalAlloc`] implementation is inherently an unsafe contract. The
//! implementation delegates straight to [`System`] and touches nothing
//! else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Tallies one allocation event of `bytes` bytes, now live.
#[inline]
fn count(bytes: usize) {
    // ord: Relaxed — statistical tallies; the assertions read them from
    // the same thread that allocated.
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // ord: Relaxed — same tally as above.
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // ord: Relaxed — same tally as above; the high-water mark below needs
    // no order with it, since the footprint gates read both on the
    // thread that allocated, after the measured code.
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    // ord: Relaxed — a monotone maximum of the tally above.
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Tallies `bytes` bytes freed.
#[inline]
fn free(bytes: usize) {
    // ord: Relaxed — same tally as in `count`.
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// A [`System`]-delegating allocator that counts every allocation.
///
/// # Examples
///
/// Install it in a test binary and bracket the code under test:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: btgs_bench::alloc_counter::CountingAllocator =
///     btgs_bench::alloc_counter::CountingAllocator;
///
/// let before = btgs_bench::alloc_counter::allocation_count();
/// hot_loop();
/// assert_eq!(btgs_bench::alloc_counter::allocation_count(), before);
/// ```
pub struct CountingAllocator;

// SAFETY: delegates every operation verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on allocation
// behaviour.
// This is the one `#[allow(unsafe_code)]` the determinism lint's
// unsafe-policy rule permits in the workspace (btgs-analyze enforces it:
// exactly one, on this impl).
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // ord: Relaxed — same tally as above.
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        free(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move the block: count it as an allocation event of
        // its new size — the steady state must not grow *any* buffer —
        // live alongside the old block until that is freed.
        count(new_size);
        free(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Heap allocation events (alloc, alloc_zeroed, realloc) since process
/// start. Only meaningful when [`CountingAllocator`] is installed as the
/// global allocator.
pub fn allocation_count() -> u64 {
    // ord: Relaxed — the assertion brackets run on the allocating thread.
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested by every allocation event since process start (a
/// realloc counts its new size). Only meaningful when
/// [`CountingAllocator`] is installed as the global allocator.
pub fn allocated_bytes() -> u64 {
    // ord: Relaxed — same single-thread bracket read as above.
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Heap deallocation events since process start.
pub fn deallocation_count() -> u64 {
    // ord: Relaxed — same single-thread bracket read as above.
    DEALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed. Only meaningful when
/// [`CountingAllocator`] is installed as the global allocator.
pub fn live_bytes() -> u64 {
    // ord: Relaxed — same single-thread bracket read as above.
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last
/// [`reset_peak_live_bytes`] (or process start). A realloc counts its
/// old and new blocks as live together for that instant.
pub fn peak_live_bytes() -> u64 {
    // ord: Relaxed — same single-thread bracket read as above.
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the bytes live now, so
/// [`peak_live_bytes`] minus [`live_bytes`] read here is the most a
/// measured stretch of code holds at once.
pub fn reset_peak_live_bytes() {
    // ord: Relaxed — a single-thread bracket, as above.
    PEAK_LIVE_BYTES.store(live_bytes(), Ordering::Relaxed);
}
