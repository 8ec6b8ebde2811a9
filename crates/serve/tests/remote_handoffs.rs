//! One forward's path through the parent, counted in threads woken: a
//! [`RemoteWorker`] whose caller forwards back to back reads its own
//! answer off the socket, so no other thread of the parent's process
//! wakes up for it — there is no reader thread to hand the answer
//! over.
//!
//! The node runs in a child process (this test binary, started again
//! with [`NODE_ENV`] set), so every thread of this process but the
//! caller belongs to the parent side. The kernel keeps the count: a
//! thread's `voluntary_ctxt_switches` goes up by one each time it
//! blocks, which is once per wake-up.
//!
//! This file holds a single test because it counts every thread of
//! its process.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use willump_data::{Table, Value};
use willump_serve::{
    RemoteRuntimeNode, RemoteWorker, Request, Servable, ServerConfig, ServingRuntime,
    WorkerTransport,
};

/// Set in the child process: serve a node instead of running the test.
const NODE_ENV: &str = "WILLUMP_REMOTE_HANDOFFS_NODE";

/// What the child prints before the node's address.
const LISTENING: &str = "node listening on ";

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

fn request(id: u64) -> Request {
    Request {
        endpoint: Some("double".to_string()),
        forwarded: true,
        ..Request::new(id, vec![vec![("x".to_string(), Value::Float(id as f64))]])
    }
}

/// The child's part: serve a node until the parent closes stdin.
fn serve_node() {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(1).build());
    b.endpoint("double", Arc::new(Doubler));
    let node = RemoteRuntimeNode::bind("127.0.0.1:0", b.build().expect("builds")).expect("binds");
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{LISTENING}{}", node.local_addr()).expect("prints");
    stdout.flush().expect("flushes");
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
}

/// The child process, killed if the test fails before it ends it.
struct NodeProcess(Child);

impl Drop for NodeProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Every other thread of this process, by name, with how often it has
/// blocked so far.
fn other_threads() -> Vec<(String, u64)> {
    let me = std::fs::read_link("/proc/thread-self").expect("procfs");
    let mut threads = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("entry").path();
        if dir.file_name() == me.file_name() {
            continue;
        }
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        let status = std::fs::read_to_string(dir.join("status")).unwrap_or_default();
        let blocked = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse::<u64>().ok())
            .unwrap_or(0);
        threads.push((name.trim_end().to_string(), blocked));
    }
    threads
}

fn blocked(threads: &[(String, u64)]) -> u64 {
    threads.iter().map(|(_, n)| n).sum()
}

#[test]
fn back_to_back_forwards_wake_no_other_thread() {
    if std::env::var_os(NODE_ENV).is_some() {
        serve_node();
        return;
    }
    let mut child = Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "--exact",
            "back_to_back_forwards_wake_no_other_thread",
            "--nocapture",
        ])
        .env(NODE_ENV, "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("starts the node");
    let stdout = child.stdout.take().expect("piped");
    let node = NodeProcess(child);
    let addr = BufReader::new(stdout)
        .lines()
        .map(|line| line.expect("reads"))
        // The harness may have printed the test's name on the same line.
        .find_map(|line| Some(line.split_once(LISTENING)?.1.trim().to_string()))
        .expect("the node prints its address");

    let worker = RemoteWorker::new(&addr);
    for i in 0..100 {
        worker.forward_request(&request(i)).expect("warms up");
    }
    // Count from a moment no other thread's count moves.
    let deadline = Instant::now() + Duration::from_secs(60);
    let before = loop {
        let threads = other_threads();
        std::thread::sleep(Duration::from_millis(10));
        if other_threads() == threads {
            break threads;
        }
        assert!(Instant::now() < deadline, "threads never settled");
    };

    const N: u64 = 2000;
    for i in 0..N {
        let reply = worker.forward_request(&request(i)).expect("served");
        assert_eq!(reply.response.scores, vec![2.0 * i as f64]);
    }
    let after = other_threads();
    drop(node);

    // The caller read every answer itself: no reader thread exists,
    // and nothing else in the process woke up, where a reader thread
    // handing each answer over woke about once per forward.
    assert!(
        after
            .iter()
            .all(|(name, _)| !name.starts_with("willump-mux")),
        "a reader thread: {after:?}"
    );
    let woken = blocked(&after) - blocked(&before);
    assert!(woken <= N / 100, "{woken} wake-ups for {N} forwards");
}
