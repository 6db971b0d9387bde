//! Allocation counting for the allocation-budget test.
//!
//! [`CountingAlloc`] is a pass-through global allocator that counts heap
//! allocation *requests* (alloc + realloc calls) while armed. The root
//! package's `tests/alloc_budget.rs` installs it with `#[global_allocator]`;
//! a program that does not install it simply observes zero counts, so
//! [`count_allocs_during`] is safe to call anywhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// Pass-through allocator that counts allocation requests while armed.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for `#[global_allocator]` statics.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f`, returning its result and the number of heap allocation requests
/// made while it ran, on any thread. Counts are 0 unless [`CountingAlloc`] is
/// installed as the global allocator.
pub fn count_allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let r = f();
    ENABLED.store(false, Ordering::SeqCst);
    (r, COUNT.load(Ordering::SeqCst))
}
