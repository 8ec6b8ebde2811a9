//! Descriptor exhaustion on a node: `accept` fails with `EMFILE` while
//! the pending connection keeps the listener readable, so a node
//! thread that parks on readiness must drop the listener for that park
//! instead of spinning on it, keep serving the connections it has, and
//! accept again once descriptors are free.
//!
//! This file holds a single test because it uses up the process's
//! descriptors: any test running beside it would fail at random.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

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

fn request(id: u64, x: f64) -> Request {
    Request {
        endpoint: Some("double".to_string()),
        ..Request::new(id, vec![vec![("x".to_string(), Value::Float(x))]])
    }
}

/// The `stat` and `status` files of one thread.
struct ThreadFiles {
    stat: File,
    status: File,
}

/// What a set of threads has used together so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ThreadUse {
    /// CPU time in clock ticks (user + system).
    cpu_ticks: u64,
    /// Times a thread blocked: once per wake-up.
    voluntary_switches: u64,
    /// Times a thread was preempted while it could still run.
    involuntary_switches: u64,
}

/// The files of this process's threads whose name starts with `prefix`
/// (the kernel keeps 15 bytes of a thread name).
fn thread_stats(prefix: &str) -> Vec<ThreadFiles> {
    let mut stats = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.starts_with(prefix) {
            stats.push(ThreadFiles {
                stat: File::open(dir.join("stat")).expect("opens"),
                status: File::open(dir.join("status")).expect("opens"),
            });
        }
    }
    assert!(!stats.is_empty(), "no thread named {prefix}*");
    stats
}

/// A file's whole text, read again from the start.
fn reread(file: &mut File) -> String {
    let mut text = String::new();
    file.seek(SeekFrom::Start(0)).expect("seeks");
    file.read_to_string(&mut text).expect("reads");
    text
}

/// What the threads have used together so far.
fn thread_use(stats: &mut [ThreadFiles]) -> ThreadUse {
    let mut sum = ThreadUse::default();
    for thread in stats {
        let stat = reread(&mut thread.stat);
        // Fields after the parenthesised name; utime and stime are the
        // 14th and 15th of the line, so the 12th and 13th after `)`.
        let after = &stat[stat.rfind(')').expect("comm") + 1..];
        let fields: Vec<&str> = after.split_whitespace().collect();
        sum.cpu_ticks +=
            fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
        let status = reread(&mut thread.status);
        let switches = |key: &str| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|n| n.trim().parse::<u64>().ok())
                .expect("a switch count")
        };
        sum.voluntary_switches += switches("voluntary_ctxt_switches:");
        sum.involuntary_switches += switches("nonvoluntary_ctxt_switches:");
    }
    sum
}

#[test]
fn accept_failing_with_emfile_neither_spins_nor_stops_the_node() {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(1).build());
    b.endpoint("double", Arc::new(Doubler));
    let node = RemoteRuntimeNode::bind("127.0.0.1:0", b.build().expect("builds")).expect("binds");
    let established = RemoteWorker::new(&node.local_addr().to_string());
    let reply = established
        .forward_request(&request(1, 1.0))
        .expect("served");
    assert_eq!(reply.response.scores, vec![2.0]);
    // Every thread of the node: whichever holds the poll set.
    let mut stats = thread_stats("willump-");

    // Use up every descriptor, then hand exactly one back for the
    // client side of a new connection: the node has none to accept it.
    let mut hog = Vec::new();
    let exhausted = loop {
        match File::open("/dev/null") {
            Ok(file) => hog.push(file),
            Err(e) => break e,
        }
    };
    assert_eq!(
        exhausted.raw_os_error(),
        Some(24),
        "EMFILE, got {exhausted}"
    );
    hog.pop();
    let mut pending = TcpStream::connect(node.local_addr()).expect("the backlog takes it");
    pending
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");

    // The node keeps serving the connection it has — each request
    // also makes it retry the failing accept — and sleeps otherwise:
    // a loop spinning on the readable listener would burn the whole
    // window (about 30 ticks of 10 ms). The sleep is the measurement
    // window for other threads' CPU time, not synchronisation.
    for i in 0..20 {
        let reply = established
            .forward_request(&request(i, i as f64))
            .expect("served under descriptor pressure");
        assert_eq!(reply.response.scores, vec![2.0 * i as f64]);
    }
    let before = thread_use(&mut stats);
    std::thread::sleep(Duration::from_millis(300));
    let after = thread_use(&mut stats);
    let burned = after.cpu_ticks - before.cpu_ticks;
    assert!(
        burned <= 5,
        "the node's threads used {burned} ticks while accept kept failing \
         ({before:?} before the window, {after:?} after)"
    );

    // Descriptors come back; the next event of any kind — here a
    // request — takes the leader through accept again.
    drop(hog);
    established
        .forward_request(&request(99, 1.0))
        .expect("served");
    pending.write_all(b"WILLUMP/WIRE2\n").expect("writes");
    let mut ack = [0u8; 11];
    pending
        .read_exact(&mut ack)
        .expect("the pending connection is accepted and negotiated");
}
