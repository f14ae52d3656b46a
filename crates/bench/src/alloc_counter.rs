//! A counting global allocator for zero-allocation assertions.
//!
//! The simulator's steady state is designed to be allocation-free: the
//! event queue is pre-sized and recycles its slots, flow queues reuse their
//! capacity, and the pollers precompute every table they need. This
//! module provides the proof: install [`CountingAllocator`] as the
//! `#[global_allocator]` of a test or bench binary, snapshot
//! [`allocation_count`] around the code under test, and assert the delta
//! is zero.
//!
//! Counting uses a relaxed atomic — the counter is a diagnostic, not a
//! synchronisation point — and adds a handful of nanoseconds per
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
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);

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
        // ord: Relaxed — a statistical tally; the zero-alloc assertions
        // read it from the same thread that allocated.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // ord: Relaxed — same tally as above.
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc may move the block: count it as an allocation event —
        // the steady state must not grow *any* buffer.
        // ord: Relaxed — same tally as above.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ord: Relaxed — same tally as above.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Heap deallocation events since process start.
pub fn deallocation_count() -> u64 {
    // ord: Relaxed — same single-thread bracket read as above.
    DEALLOCATIONS.load(Ordering::Relaxed)
}
