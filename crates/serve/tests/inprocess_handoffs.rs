//! One in-process request path, counted in threads woken: a blocking
//! 1-row call on a warmed-up, idle runtime runs on the calling thread,
//! so no runtime worker wakes up for it — and the caller does not park
//! on a reply channel either.
//!
//! The kernel keeps the count: a thread's `voluntary_ctxt_switches`
//! goes up by one each time it blocks, which is once per wake-up.
//!
//! This file holds a single test because it tells the runtime's
//! threads apart by name, and every runtime in a process names its
//! threads the same.

use std::sync::Arc;

use willump_data::{Table, Value};
use willump_serve::{Servable, ServerConfig, ServingRuntime};

struct Doubler;
impl Servable for Doubler {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        let xs = table
            .column("x")
            .ok_or_else(|| "missing x".to_string())?
            .to_f64_vec()
            .map_err(|e| e.to_string())?;
        Ok(xs.into_iter().map(|x| 2.0 * x).collect())
    }
}

/// How often each of the runtime's threads has blocked so far.
fn worker_blocks() -> Vec<u64> {
    let mut blocked = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("entry").path();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !name.starts_with("willump-worker-") {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
        blocked.push(
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|n| n.trim().parse::<u64>().ok())
                .unwrap_or(0),
        );
    }
    blocked
}

#[test]
fn back_to_back_calls_wake_no_runtime_worker() {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("double", Arc::new(Doubler)).shards(2);
    let runtime = b.build().expect("builds");
    let client = runtime.client();
    let row = |x: f64| vec![vec![("x".to_string(), Value::Float(x))]];
    for i in 0..100 {
        client
            .predict_keyed("double", &format!("k{i}"), row(1.0))
            .expect("warms up");
    }

    // A worker names itself once it first runs, which it need not
    // have done yet: every warm-up call ran on this thread.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while worker_blocks().len() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "the count never saw both workers"
        );
        std::thread::yield_now();
    }

    const N: u64 = 2000;
    let batches = || -> u64 { runtime.stats().worker_batches().iter().sum() };
    let (blocked_before, batches_before) = (worker_blocks(), batches());
    assert_eq!(blocked_before.len(), 2, "the count sees both workers");
    for i in 0..N {
        let x = i as f64;
        let scores = client.predict_keyed("double", &format!("k{}", i % 64), row(x));
        assert_eq!(scores, Ok(vec![2.0 * x]));
    }
    let woken = worker_blocks().iter().sum::<u64>() - blocked_before.iter().sum::<u64>();

    // Every request was one batch of the worker it was routed to, and
    // its caller ran it: the workers stayed parked, where a worker
    // serving each request woke about once per request.
    assert_eq!(batches() - batches_before, N);
    assert!(woken <= N / 100, "{woken} worker wake-ups for {N} requests");
}
