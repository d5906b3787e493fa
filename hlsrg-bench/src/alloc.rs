//! A pass-through global allocator that counts allocations while armed.
//!
//! The binary installs [`CountingAlloc`]; the traced run arms it, so
//! `scenario.allocs_per_event` is measured there and the timed runs pay one
//! relaxed load per allocation. Without the allocator installed (unit tests)
//! the count stays 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts `alloc` and `realloc` calls made while [`arm`]ed.
pub struct CountingAlloc;

// SAFETY: every operation is deferred to `System` unchanged; the only addition
// is a statistic kept in atomics, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Starts or stops counting.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
