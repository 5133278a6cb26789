//! A counting global allocator. Per thread it counts allocations and
//! reallocations, so the benchmark can show that a warmed hash path
//! allocates nothing, and tracks live and peak heap bytes, which give an
//! exact memory figure that page-level effects do not blur.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Signed: a block freed on another thread than its own is possible.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: isize) {
    LIVE_BYTES.with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        PEAK_BYTES.with(|peak| peak.set(peak.get().max(now)));
    });
}

fn counted(bytes: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    grow(bytes as isize);
}

pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-local `Cell`s and allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        grow(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations the current thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The most heap bytes the current thread has had live at once since the
/// last [`reset_peak`].
pub fn peak_heap_bytes() -> u64 {
    PEAK_BYTES.with(Cell::get).max(0) as u64
}

/// Restarts the peak from the current thread's live heap bytes.
pub fn reset_peak() {
    PEAK_BYTES.with(|peak| peak.set(LIVE_BYTES.with(Cell::get)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_heap_tracks_the_largest_live_set() {
        let before = peak_heap_bytes();
        let block = vec![0u8; 8 << 20];
        assert!(peak_heap_bytes() >= before.max(8 << 20));
        drop(block);
        let after_drop = peak_heap_bytes();
        // Freeing never lowers the peak; a smaller block never raises it.
        let small = vec![0u8; 1 << 10];
        assert_eq!(peak_heap_bytes(), after_drop);
        drop(small);
        // A reset forgets the freed block.
        reset_peak();
        assert!(peak_heap_bytes() < 8 << 20);
    }
}
