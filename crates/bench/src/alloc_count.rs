//! Thread-local allocation counting for the `--bench-report` ledger.
//!
//! The `count-allocs` feature makes the `expt` binary install
//! [`CountingAlloc`] as the global allocator; `--bench-report` then
//! records, for each experiment, how many heap allocations the run
//! performed, the bytes requested, and the peak live heap — turning "the
//! hot path is allocation-free" from a claim into a regression-checked
//! number.
//!
//! Counters are thread-local so worker threads never contend on them;
//! `--bench-report` runs at `--jobs 1`, where every experiment executes
//! entirely on the calling thread (see `runpar::par_map`), which is what
//! makes per-experiment attribution exact. Without the feature the
//! allocator is never registered and the counters read zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// Point-in-time view of this thread's allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations performed (allocs + reallocs count once each).
    pub allocs: u64,
    /// Total bytes requested across all allocations.
    pub bytes: u64,
    /// Bytes currently live.
    pub current: u64,
    /// High-water mark of live bytes since the last [`reset_peak`].
    pub peak: u64,
}

/// Reads this thread's counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        current: CURRENT.with(Cell::get),
        peak: PEAK.with(Cell::get),
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    let cur = CURRENT.with(Cell::get);
    PEAK.with(|p| p.set(cur));
}

/// True when the binary was built with the counting allocator.
pub fn enabled() -> bool {
    cfg!(feature = "count-allocs")
}

#[inline]
fn on_alloc(size: u64) {
    // `try_with`: TLS may be mid-teardown when late destructors allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size));
    let _ = CURRENT.try_with(|c| {
        let cur = c.get() + size;
        c.set(cur);
        let _ = PEAK.try_with(|p| {
            if cur > p.get() {
                p.set(cur);
            }
        });
    });
}

#[inline]
fn on_dealloc(size: u64) {
    let _ = CURRENT.try_with(|c| c.set(c.get().saturating_sub(size)));
}

/// A [`System`]-backed global allocator that keeps per-thread counters.
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the bookkeeping around
// the delegation does not allocate (thread-local `Cell`s only).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size() as u64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size() as u64);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size() as u64);
        on_alloc(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
