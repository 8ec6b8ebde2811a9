//! The allocation budget of one served request, as an assertion.
//!
//! A warmed-up 1-row `predict_keyed` on a 2-worker runtime allocates a
//! fixed number of times: the request struct, routing, the reply
//! channel, the worker's table and scores, the response. A JSON round
//! trip on that path, or a new per-request collection, shows here as a
//! larger count.
//!
//! This is a test binary of its own, with one test, because it installs
//! a counting `#[global_allocator]`; the `unsafe impl` lives here so
//! that every crate root can stay `#![deny(unsafe_code)]`. Unlike the
//! per-thread counters of `crates/models/tests/alloc_budget.rs`, the
//! count is process-wide: a request is served on a worker thread, not
//! on the caller's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use willump_data::{Table, Value};
use willump_serve::{Servable, ServerConfig, ServingRuntime, WireRow};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Score = 2x.
struct Doubler;
impl Servable for Doubler {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        let xs = table
            .column("x")
            .ok_or("missing x")?
            .as_f64_slice()
            .ok_or("x is not a float column")?;
        Ok(xs.iter().map(|x| 2.0 * x).collect())
    }
}

fn one_row(x: f64) -> Vec<WireRow> {
    vec![vec![("x".to_string(), Value::Float(x))]]
}

/// Allocations, in every thread, of one warmed-up 1-row
/// `predict_keyed`: 16 on the caller and the serving worker together,
/// in debug and release builds alike (95 while the call was a JSON
/// round trip inside the process).
const ONE_REQUEST: u64 = 16;

#[test]
fn one_warmed_request_stays_within_its_allocation_budget() {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("m", Arc::new(Doubler)).shards(2);
    let runtime = b.build().expect("runtime builds");
    let client = runtime.client();
    for i in 0..64 {
        let scores = client.predict_keyed("m", "k", one_row(f64::from(i)));
        assert_eq!(scores, Ok(vec![2.0 * f64::from(i)]));
    }
    // The rows are the caller's input, built before the count starts.
    let counts: Vec<u64> = (0..32)
        .map(|i| {
            let rows = one_row(f64::from(i));
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let scores = client.predict_keyed("m", "k", rows);
            let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(scores, Ok(vec![2.0 * f64::from(i)]));
            n
        })
        .collect();
    assert_eq!(counts, vec![ONE_REQUEST; 32], "allocations per request");
}
