//! One in-process request path, counted in threads woken: a blocking
//! 1-row call on a warmed-up, idle runtime runs on the calling thread,
//! so no runtime worker wakes up for it — and the caller does not park
//! on a reply channel either.
//!
//! The kernel keeps the count: a thread's `voluntary_ctxt_switches`
//! goes up by one each time it blocks, which is once per wake-up.
//!
//! This file holds a single test because it tells the runtime's worker
//! threads apart by name: unnamed threads inherit the name of the
//! thread that spawned them, so the workers share the test thread's.

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

/// How often each thread named like this one — the runtime's workers —
/// has blocked so far, this thread left out.
fn worker_blocks() -> Vec<u64> {
    let me = std::fs::read_link("/proc/thread-self").expect("procfs");
    let name = std::fs::read_to_string("/proc/thread-self/comm").expect("procfs");
    let mut blocked = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("entry").path();
        if dir.file_name() == me.file_name()
            || std::fs::read_to_string(dir.join("comm")).unwrap_or_default() != name
        {
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
