//! A counting global allocator for the traced run.
//!
//! Counting is off until [`enable`] is called, and costs one relaxed
//! load per allocation while off, so the untraced run measures the
//! program, not the counter. Blocks allocated before counting starts
//! and freed after it count as negative live bytes; the traced run
//! enables counting before it builds anything it will free, so that
//! drift is a few bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

// Relaxed throughout: the counters are statistics read on the thread
// that runs the cells, and publish no other data.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator, plus allocation and live-byte counters.
pub struct Counting;

fn grow(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only
// read the layout sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is; `ptr` came from this allocator with
        // `layout`, which is `System` underneath.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `realloc`'s
        // contract for a block `System` allocated.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Starts counting.
pub fn enable() {
    ON.store(true, Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes currently live, as counted.
pub fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}

/// Restarts the peak at the current live byte count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The highest live byte count since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Relaxed)
}
