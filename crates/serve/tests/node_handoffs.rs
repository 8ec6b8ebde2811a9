//! One request path through a node, counted in threads woken: a wire2
//! request on a warmed-up idle node wakes the runtime thread that
//! holds the poll set (on the bytes), which hands the poll set to the
//! node's other thread and serves the request itself — the response
//! is written by the thread that read the request.
//!
//! The kernel keeps the count: a thread's `voluntary_ctxt_switches`
//! goes up by one each time it blocks, which is once per wake-up.
//!
//! This file holds a single test because it tells the node's threads
//! apart by name, and every node in a process names its threads the
//! same.

use std::sync::Arc;
use std::time::{Duration, Instant};

use willump_data::{Table, Value};
use willump_serve::{
    RemoteRuntimeNode, RemoteWorker, Request, Servable, ServerConfig, ServingRuntime,
    WorkerTransport,
};

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

fn request(id: u64, forwarded: bool) -> Request {
    Request {
        endpoint: Some("double".to_string()),
        forwarded,
        ..Request::new(id, vec![vec![("x".to_string(), Value::Float(id as f64))]])
    }
}

/// How often each of the node's threads — the runtime's
/// `willump-worker-*` and `willump-node-0` — has blocked so far, by
/// thread name (the kernel keeps 15 bytes of it).
fn blocked_by_name() -> std::collections::HashMap<String, u64> {
    let mut counts = std::collections::HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("entry").path();
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !name.starts_with("willump-") {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
        let blocked = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse::<u64>().ok())
            .unwrap_or(0);
        *counts.entry(name.trim_end().to_string()).or_insert(0) += blocked;
    }
    counts
}

/// Whether every other thread of this process is asleep. None is
/// runnable, so each has parked where it waits for work: one that has
/// not started yet, or one still holding a lock another waits for,
/// would be running.
fn others_asleep() -> bool {
    let me = std::fs::read_link("/proc/thread-self").expect("procfs");
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .all(|task| {
            let dir = task.expect("entry").path();
            let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
            dir.file_name() == me.file_name()
                || status
                    .lines()
                    .any(|line| line.starts_with("State:") && line.contains("(sleeping)"))
        })
}

/// The node's threads' counts at a moment every other thread is asleep
/// and no count moves. A thread's first park is not a wake-up: on a
/// busy host a node thread may not have run yet, or may still be on its
/// way to its first wait behind another on the runtime's lock, and
/// would park inside the counting window.
fn settled() -> std::collections::HashMap<String, u64> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let counts = blocked_by_name();
        if others_asleep() && blocked_by_name() == counts {
            return counts;
        }
        assert!(
            Instant::now() < deadline,
            "threads never settled: {counts:?}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn one_remote_request_wakes_one_node_thread_on_its_path() {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(1).build());
    b.endpoint("double", Arc::new(Doubler));
    let node = RemoteRuntimeNode::bind("127.0.0.1:0", b.build().expect("builds")).expect("binds");
    let worker = RemoteWorker::new(&node.local_addr().to_string());
    for i in 0..100 {
        worker.forward_request(&request(i, true)).expect("warms up");
    }

    const N: u64 = 2000;
    let batches =
        |node: &RemoteRuntimeNode| -> u64 { node.runtime().stats().worker_batches().iter().sum() };
    let before = settled();
    let batches_before = batches(&node);
    // One at a time, each sent to an idle node — once every thread is
    // asleep again — a forwarded frame and a plain one alternating:
    // with no remote shard behind this node both are admitted by the
    // thread holding the poll set. Sent back to back instead, on a
    // host whose cores were busy, the node's threads blocked less than
    // once per request together in some runs.
    for i in 0..N {
        let reply = worker
            .forward_request(&request(i, i % 2 == 0))
            .expect("served");
        assert_eq!(reply.response.scores, vec![2.0 * i as f64]);
        settled();
    }
    let (after, batches_after) = (blocked_by_name(), batches(&node));
    let woken = |name: &str| after.get(name).copied().unwrap_or(0) - before[name];

    // Every request was one batch of the one worker's. The node's
    // threads woke once per request on the bytes, and at most once
    // more for the thread the poll set was handed to — two per
    // request together.
    assert_eq!(batches_after - batches_before, N);
    let mut threads: Vec<&String> = before.keys().collect();
    threads.sort();
    // `willump-worker-0` is one byte over what the kernel keeps.
    assert_eq!(
        threads,
        ["willump-node-0", "willump-worker-"],
        "the worker and the node's thread"
    );
    let node_woken: u64 = threads.iter().map(|name| woken(name)).sum();
    assert!(
        node_woken <= 2 * N + N / 10,
        "{node_woken} node-thread wake-ups for {N}"
    );
    // Each request found the poll set's holder asleep in `poll`, and
    // it was asleep again before the next: at least one per request.
    assert!(node_woken >= N, "the count saw no node thread");
}
