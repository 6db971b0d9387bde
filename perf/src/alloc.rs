//! Counting global allocator local to the harness.
//!
//! Counts heap allocation *requests* (`alloc`, `alloc_zeroed`, `realloc`),
//! live bytes and their peak. It forwards every call to [`System`] unchanged —
//! including `alloc_zeroed`, so large zeroed buffers still come from `calloc`
//! and the library runs at the speed it has under the default allocator.
//! [`set_tracking`] turns the bookkeeping off so its cost can be measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};

static TRACKING: AtomicBool = AtomicBool::new(true);
static REQUESTS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Pass-through allocator with request/live/peak counters.
pub struct CountingAlloc;

#[inline]
fn grow(bytes: usize) {
    REQUESTS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    // A plain load first: new peaks are rare, read-modify-writes are not free.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            grow(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if TRACKING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
            grow(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation requests since process start.
pub fn requests() -> u64 {
    REQUESTS.load(Ordering::Relaxed)
}

/// Bytes currently allocated.
pub fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Restart peak tracking from the current live size (once per phase).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live size since the last [`reset_peak`].
pub fn peak_bytes() -> isize {
    PEAK.load(Ordering::Relaxed)
}

/// Switch the bookkeeping off (or back on). A block allocated on one side of
/// the switch and freed on the other shifts the live count by its size, so
/// switch only between measurements: differences taken inside one tracked
/// stretch (requests made, peak above a starting point) stay exact.
pub fn set_tracking(on: bool) {
    TRACKING.store(on, Ordering::SeqCst);
}

/// Run `f` and return its result with the allocation requests it made.
pub fn count_requests<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = requests();
    let r = f();
    (r, requests() - before)
}
