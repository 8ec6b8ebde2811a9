//! A counting global allocator: allocation calls and bytes requested,
//! process-wide, while counting is switched on.
//!
//! Counting is on only during the traced run's allocation
//! measurements; with it off every allocation pays one relaxed load of
//! a read-shared flag, so the end-to-end runs are not perturbed by
//! cache-line traffic on the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Statistics only: none of these publishes other data, so Relaxed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested by `f`, on every thread that
/// ran while it did (a serving call allocates on worker threads too).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (
        out,
        CALLS.load(Ordering::Relaxed) - calls,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_counted() {
        // Other tests allocate concurrently, so only lower bounds hold.
        let (v, calls, bytes) = counted(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(calls >= 1);
        assert!(bytes >= 4096);
    }
}
