//! The allocation budget of one served request, as an assertion.
//!
//! A warmed-up 1-row `predict_keyed` on an idle 2-worker runtime runs
//! on the calling thread and allocates a fixed number of times: the
//! request's endpoint and key strings, the table (a column of values,
//! the column name twice — in the table
//! and in its name index — the column list and the index), the scores
//! and the endpoint name the response echoes. A JSON round trip on that
//! path, a reply channel, or a new per-request collection shows here
//! as a larger count.
//!
//! A request that finds no free execution slot is queued and served on
//! a worker thread instead; on top of the same allocations it pays for
//! its reply channel and the worker's batch of jobs. That path — every
//! request of a caller that finds all slots taken, and every request a
//! node queues for its workers — has a budget of its own.
//!
//! This is a test binary of its own, with one test, because it installs
//! a counting `#[global_allocator]`; the `unsafe impl` lives here so
//! that every crate root can stay `#![deny(unsafe_code)]`. Unlike the
//! per-thread counters of `crates/models/tests/alloc_budget.rs`, the
//! count is process-wide, because a queued request is served on a
//! worker thread, not on the caller's; threads that only stage a
//! measurement opt out of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use willump_data::{Table, Value};
use willump_serve::{Servable, ServerConfig, ServingRuntime, WireRow};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it from
    // inside the allocator neither allocates nor registers anything.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // A thread being torn down may no longer have the flag; count it.
    if !UNCOUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// [`Doubler`] that records the thread it runs on and, while `closed`,
/// waits there, holding the execution slot it runs under.
#[derive(Default)]
struct Held {
    ran_on: Mutex<Option<ThreadId>>,
    closed: Mutex<bool>,
    opened: Condvar,
}

impl Servable for Held {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        *self.ran_on.lock().unwrap() = Some(std::thread::current().id());
        drop(
            self.opened
                .wait_while(self.closed.lock().unwrap(), |closed| *closed)
                .unwrap(),
        );
        Doubler.predict_table(table)
    }
}

impl Held {
    fn ran_on(&self) -> Option<ThreadId> {
        *self.ran_on.lock().unwrap()
    }

    fn set_closed(&self, closed: bool) {
        *self.closed.lock().unwrap() = closed;
        self.opened.notify_all();
    }
}

fn one_row(x: f64) -> Vec<WireRow> {
    vec![vec![("x".to_string(), Value::Float(x))]]
}

/// Wait until the runtime's `n` threads have started and gone to
/// sleep: a thread's first run allocates, once, and that must not land
/// in a request's count. Every warm-up request may have run on its
/// caller, so a runtime thread need not have run yet.
fn runtime_threads_asleep(n: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let asleep = std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter(|task| {
                let dir = task.as_ref().expect("entry").path();
                let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
                let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
                name.starts_with("willump-worker-")
                    && status
                        .lines()
                        .any(|line| line.starts_with("State:") && line.contains("(sleeping)"))
            })
            .count();
        if asleep == n {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{asleep} of {n} runtime threads asleep"
        );
        std::thread::yield_now();
    }
}

/// Allocations, in every thread, of one warmed-up 1-row
/// `predict_keyed` that its caller runs: 9, in debug and release
/// builds alike.
const ONE_REQUEST: u64 = 9;

/// Allocations, in every thread, of one warmed-up 1-row
/// `predict_keyed` that finds no free slot and is served by a worker:
/// 15, in debug and release builds alike (95 while the call was a JSON
/// round trip inside the process).
const ONE_QUEUED_REQUEST: u64 = 15;

#[test]
fn one_warmed_request_stays_within_its_allocation_budget() {
    assert_eq!(
        inline_counts(),
        vec![ONE_REQUEST; 32],
        "allocations per request run by its caller"
    );
    let queued = queued_counts();
    assert!(queued.len() >= 16, "{} of 32 requests queued", queued.len());
    assert_eq!(
        queued,
        vec![ONE_QUEUED_REQUEST; queued.len()],
        "allocations per queued request"
    );
}

/// Allocation counts of 32 requests on an idle runtime.
fn inline_counts() -> Vec<u64> {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("m", Arc::new(Doubler)).shards(2);
    let runtime = b.build().expect("runtime builds");
    let client = runtime.client();
    for i in 0..64 {
        let scores = client.predict_keyed("m", "k", one_row(f64::from(i)));
        assert_eq!(scores, Ok(vec![2.0 * f64::from(i)]));
    }
    runtime_threads_asleep(2);
    // The rows are the caller's input, built before the count starts.
    (0..32)
        .map(|i| {
            let rows = one_row(f64::from(i));
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let scores = client.predict_keyed("m", "k", rows);
            let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(scores, Ok(vec![2.0 * f64::from(i)]));
            n
        })
        .collect()
}

/// Allocation counts of those of 32 requests that queued, after eight
/// warm-up rounds. In each round a holder thread runs a `hold` request
/// that takes the one-worker runtime's only slot and waits; a measuring
/// thread then sends its request, which queues for the worker, and
/// 20 ms later the holder is let go. The holder and this thread are
/// left out of the count, so it covers the measured request alone: its
/// caller and the worker that serves it. A round whose `hold` request
/// did not run on the holder, or whose measured request did not queue,
/// is left out.
fn queued_counts() -> Vec<u64> {
    const WARM_UP: usize = 8;
    const ROUNDS: usize = WARM_UP + 32;
    let hold = Arc::new(Held::default());
    let traced = Arc::new(Held::default());
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(1).build());
    b.endpoint("m", Arc::clone(&traced) as Arc<dyn Servable>);
    b.endpoint("hold", Arc::clone(&hold) as Arc<dyn Servable>);
    let runtime = b.build().expect("runtime builds");
    UNCOUNTED.set(true);
    let round = Barrier::new(3);
    let (holder_id, measured_id, counts) = std::thread::scope(|s| {
        let holder = s.spawn(|| {
            UNCOUNTED.set(true);
            let client = runtime.client();
            for _ in 0..ROUNDS {
                round.wait();
                let scores = client.predict_endpoint("hold", one_row(1.0));
                assert_eq!(scores, Ok(vec![2.0]));
                round.wait();
            }
        });
        let measured = s.spawn(|| {
            let client = runtime.client();
            let mut counts = Vec::with_capacity(ROUNDS);
            for i in 0..ROUNDS {
                let x = i as f64;
                let rows = one_row(x);
                round.wait();
                while hold.ran_on().is_none() {
                    std::thread::yield_now();
                }
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let scores = client.predict_keyed("m", "k", rows);
                let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
                assert_eq!(scores, Ok(vec![2.0 * x]));
                counts.push(n);
                round.wait();
            }
            counts
        });
        let mut ran_on = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            // The worker gives its slot back just after it answered the
            // last round's request.
            std::thread::sleep(Duration::from_millis(1));
            hold.set_closed(true);
            *hold.ran_on.lock().unwrap() = None;
            round.wait();
            while hold.ran_on().is_none() {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            hold.set_closed(false);
            round.wait();
            ran_on.push((hold.ran_on(), traced.ran_on()));
        }
        let holder_id = holder.thread().id();
        let measured_id = measured.thread().id();
        holder.join().unwrap();
        (
            holder_id,
            measured_id,
            measured.join().unwrap().into_iter().zip(ran_on),
        )
    });
    counts
        .skip(WARM_UP)
        .filter(|(_, (hold_on, traced_on))| {
            *hold_on == Some(holder_id) && *traced_on != Some(measured_id)
        })
        .map(|(n, _)| n)
        .collect()
}
