//! Workspace-level exercise of the debug-only lock-order deadlock
//! detector in the vendored `parking_lot` stand-in.
//!
//! Runs only with the tracker compiled in:
//!
//! ```sh
//! cargo test -q --features lock-order-tracking
//! ```
//!
//! (the CI `locks` job). Everything here deliberately creates a
//! classic two-lock inversion — the pattern behind a server shutdown
//! deadlock fixed early in the project — and asserts the detector reports
//! it with both of the conflicting acquisition sites instead of
//! letting the suite hang.

#![cfg(all(feature = "lock-order-tracking", debug_assertions))]

use parking_lot::{Mutex, RwLock};

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// The deliberate inversion: establish stats-then-queue, then acquire
/// queue-then-stats. The detector must panic (instead of risking a
/// deadlock under concurrency) and name both acquisition sites.
#[test]
fn deliberate_inversion_fires_with_both_sites() {
    let stats = Mutex::new(0u64);
    let queue = Mutex::new(Vec::<u64>::new());

    // Establish the canonical order: stats, then queue.
    {
        let s = stats.lock();
        queue.lock().push(*s);
    }

    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let q = queue.lock();
        let _s = stats.lock(); // inversion: queue held, acquiring stats
        drop(q);
    }))
    .expect_err("the detector must flag the inverted acquisition");

    let msg = panic_message(err);
    assert!(
        msg.contains("lock-order inversion"),
        "unexpected panic message: {msg}"
    );
    // Both of the conflicting acquisition sites — the current one and
    // the one that established the opposite ordering — are in this
    // file.
    assert!(
        msg.matches("tests/lock_order.rs").count() >= 2,
        "expected both acquisition sites in the message, got: {msg}"
    );
}

/// A cycle through three locks (a->b, b->c, then c->a) is caught even
/// though no two locks are ever directly inverted.
#[test]
fn transitive_cycle_is_caught() {
    let a = Mutex::new(());
    let b = RwLock::new(());
    let c = Mutex::new(());

    {
        let _ga = a.lock();
        let _gb = b.write(); // a -> b
    }
    {
        let _gb = b.read();
        let _gc = c.lock(); // b -> c
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _gc = c.lock();
        let _ga = a.lock(); // closes the cycle c -> a
    }))
    .expect_err("the transitive cycle must be detected");
    let msg = panic_message(err);
    assert!(msg.contains("lock-order inversion"), "got: {msg}");
}

/// A consistent discipline across threads stays silent, so the
/// detector can ride along under the entire test suite without false
/// positives.
#[test]
fn consistent_cross_thread_order_is_silent() {
    let outer = Mutex::new(0u64);
    let inner = Mutex::new(0u64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..100 {
                    let o = outer.lock();
                    let mut i = inner.lock();
                    *i += *o;
                }
            });
        }
    });
    assert_eq!(*outer.lock(), 0);
}
