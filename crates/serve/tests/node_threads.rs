//! The threads a runtime and a node start, counted from `/proc`: a
//! `workers(2)` runtime starts exactly two (`willump-worker-*`), a node
//! serving it adds exactly one (`willump-node-0`), serving starts none,
//! and shutdown joins every one of them.
//!
//! This file holds a single test because it counts every thread of its
//! process by name, and thread names are process-wide.

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

/// The names of this process's threads (the kernel keeps 15 bytes of
/// each).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|task| {
            let comm = task.expect("entry").path().join("comm");
            let name = std::fs::read_to_string(comm).unwrap_or_default();
            name.trim_end().to_string()
        })
        .collect()
}

/// How many of this process's threads are named `prefix`*.
fn named(prefix: &str) -> usize {
    thread_names()
        .iter()
        .filter(|name| name.starts_with(prefix))
        .count()
}

/// Wait until the process runs `total` threads, `ours` of them named
/// `willump-*`: a new thread names itself once it runs, and a joined
/// one may still be listed for a moment after its join returns.
fn settles_at(total: usize, ours: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while thread_names().len() != total || named("willump-") != ours {
        assert!(
            Instant::now() < deadline,
            "not {total} threads, {ours} of them ours: {:?}",
            thread_names()
        );
        std::thread::yield_now();
    }
}

/// A request for `rows` rows, the first of them `x`.
fn request(id: u64, x: f64, rows: usize) -> Request {
    let rows = (0..rows)
        .map(|r| vec![("x".to_string(), Value::Float(x + r as f64))])
        .collect();
    Request {
        endpoint: Some("double".to_string()),
        ..Request::new(id, rows)
    }
}

#[test]
fn a_node_runs_its_runtimes_threads_and_one_more() {
    let baseline = thread_names().len();
    assert_eq!(named("willump-"), 0, "{:?}", thread_names());

    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("double", Arc::new(Doubler)).shards(2);
    let runtime = b.build().expect("builds");
    settles_at(baseline + 2, 2);
    assert_eq!(named("willump-worker-"), 2);

    let mut node = RemoteRuntimeNode::bind("127.0.0.1:0", runtime).expect("binds");
    settles_at(baseline + 3, 3);
    assert_eq!(named("willump-node-0"), 1);

    // Two connections, 1 000 frames between them, 1-row and 32-row
    // frames alternating: the node's threads stay the three it has.
    let addr = node.local_addr().to_string();
    std::thread::scope(|s| {
        for c in 0..2u64 {
            let addr = &addr;
            s.spawn(move || {
                let worker = RemoteWorker::new(addr);
                for i in 0..500 {
                    let rows = if i % 2 == 0 { 1 } else { 32 };
                    let x = (c * 500 + i) as f64;
                    let reply = worker
                        .forward_request(&request(c * 500 + i + 1, x, rows))
                        .expect("served");
                    assert_eq!(reply.response.scores.len(), rows);
                    assert_eq!(reply.response.scores[0], 2.0 * x);
                    if i % 100 == 0 {
                        assert_eq!(named("willump-"), 3, "{:?}", thread_names());
                    }
                }
            });
        }
    });
    assert_eq!(node.transport_stats().forwards, 1000);
    settles_at(baseline + 3, 3);

    node.shutdown();
    settles_at(baseline, 0);
}
