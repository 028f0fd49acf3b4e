//! A counting global allocator for the `peak_heap_mib` metric.
//!
//! Only blocks of at least [`TRACKED_MIN`] bytes are counted. They hold
//! every buffer that scales with the input (sources, outputs, splice
//! temporaries), while the many small blocks a parallel call allocates
//! (job boxes, latches) would cost a shared atomic update each on the
//! hot path and move the peak by kilobytes at most.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest block size the counter tracks.
pub const TRACKED_MIN: usize = 4096;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus live/peak byte counters for large blocks.
/// Install it with `#[global_allocator]`.
pub struct PeakAlloc;

fn tracked(size: usize) -> usize {
    if size >= TRACKED_MIN {
        size
    } else {
        0
    }
}

// Relaxed ordering throughout: the counters are statistics and publish
// no other data.
fn grow(bytes: usize) {
    if bytes > 0 {
        let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if bytes > 0 {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter updates
// touch only atomics and never allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(tracked(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(tracked(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(tracked(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from `System` through this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrink(tracked(layout.size()));
            grow(tracked(new_size));
        }
        p
    }
}

/// Bytes currently held in tracked blocks.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Highest [`live_bytes`] seen since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
