//! Cluster lifecycle: kill a node and watch the health prober
//! re-admit it, then live-drain a shard under load and rejoin it.
//!
//! Like `cross_process`, this example really crosses process
//! boundaries: it re-executes its own binary with `--node NAME`, and
//! each child hosts a runtime behind a `RemoteRuntimeNode` TCP
//! listener. The parent then walks the full control-plane story:
//!
//! 1. serves `affine` with 2 local + 2 remote shards (node A) with the
//!    background prober running (`ServingRuntime::start_cluster`);
//! 2. kills node A mid-traffic — breakers open, requests fail over —
//!    then restarts it at the same address and waits for the prober to
//!    close the breakers again: **automatic re-admission**, no restart
//!    of the parent, no manual call;
//! 3. live-drains one remote shard under continuous load
//!    (`drain_shard`: zero in-flight loss, key-hash domain shrinks
//!    atomically) and rejoins it (`add_remote_shard`).
//!
//! ```text
//! cargo run --release --example cluster_lifecycle
//! ```

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use willump_repro::prelude::*;

/// The deterministic predictor every process serves: 3x - 1.
struct Affine;
impl Servable for Affine {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        let xs = table
            .column("x")
            .ok_or("missing x")?
            .to_f64_vec()
            .map_err(|e| e.to_string())?;
        Ok(xs.into_iter().map(|x| 3.0 * x - 1.0).collect())
    }
}

fn wire_rows(xs: &[f64]) -> Vec<WireRow> {
    xs.iter()
        .map(|&x| vec![("x".to_string(), Value::Float(x))])
        .collect()
}

/// Child mode: host a runtime, announce the address, serve until the
/// parent closes stdin. `--addr` pins the listen address so a killed
/// node can be "restarted" where the parent expects it.
fn run_node(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("affine", Arc::new(Affine)).shards(2);
    let node = RemoteRuntimeNode::bind(addr, b.build()?)?;
    println!("NODE_ADDR {}", node.local_addr());
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
    Ok(())
}

/// Spawn a child node (optionally pinned to `addr`) and return it with
/// its announced address.
fn spawn_node(addr: &str) -> Result<(Child, String), Box<dyn std::error::Error>> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(["--node", addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("child announces its address")?;
        if let Some(addr) = line.strip_prefix("NODE_ADDR ") {
            break addr.to_string();
        }
    };
    Ok((child, addr))
}

fn kill(mut child: Child) -> Result<(), Box<dyn std::error::Error>> {
    child.kill()?;
    child.wait()?;
    drop(child.stdin.take());
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--node") {
        return run_node(args.get(i + 1).map(String::as_str).unwrap_or("127.0.0.1:0"));
    }

    // ---- a 2-local + 2-remote endpoint with the prober running -----
    let (node_a, addr_a) = spawn_node("127.0.0.1:0")?;
    println!("node A listening on {addr_a}");

    let long_cooldown = Duration::from_secs(600); // only the prober may re-admit
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("affine", Arc::new(Affine))
        .shards(2)
        .shard_transport(Arc::new(
            RemoteWorker::new(&addr_a)
                .with_timeout(Duration::from_secs(2))
                .with_breaker(2, long_cooldown),
        ))
        .shard_transport(Arc::new(
            RemoteWorker::new(&addr_a)
                .with_timeout(Duration::from_secs(2))
                .with_breaker(2, long_cooldown),
        ));
    let runtime = b.build()?;
    let cluster = runtime.start_cluster(ClusterConfig {
        probe_interval: Duration::from_millis(20),
        ..ClusterConfig::default()
    });
    let client = runtime.client();
    let ep = runtime.endpoint("affine", 1).expect("registered");

    for i in 0..20 {
        client.predict_keyed("affine", &format!("user-{i}"), wire_rows(&[i as f64]))?;
    }
    println!(
        "20 keyed requests served; per-shard {:?} (shards 2,3 on node A)\n",
        ep.stats().shard_requests()
    );

    // ---- kill node A: breakers open, traffic fails over ------------
    println!("killing node A…");
    kill(node_a)?;
    for i in 0..8 {
        client.predict_keyed("affine", &format!("user-{i}"), wire_rows(&[i as f64]))?;
    }
    println!(
        "8 requests with node A dead: all served, failovers {}, breakers {:?}",
        runtime.stats().failovers(),
        ep.transport_breaker_states()
    );
    assert!(ep
        .transport_breaker_states()
        .iter()
        .any(|s| *s != BreakerState::Closed));

    // ---- restart node A: the prober re-admits it automatically -----
    println!("\nrestarting node A at {addr_a}…");
    let (node_a, _) = {
        // The OS may hold the port briefly; retry the pinned bind.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match spawn_node(&addr_a) {
                Ok(pair) => break pair,
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(100));
                }
                Err(e) => return Err(e),
            }
        }
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while ep
        .transport_breaker_states()
        .iter()
        .any(|s| *s != BreakerState::Closed)
    {
        assert!(
            Instant::now() < deadline,
            "prober failed to re-admit node A within 10s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "prober re-admitted node A: breakers {:?}, probes sent {} ok {}",
        ep.transport_breaker_states(),
        runtime.stats().probes_sent(),
        runtime.stats().probes_ok()
    );

    // ---- live drain + rejoin under continuous load ------------------
    println!("\ndraining remote shard 3 under load…");
    let served_during_drain = std::sync::atomic::AtomicU64::new(0);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| -> Result<(), ServeError> {
        let load_client = runtime.client();
        let served = &served_during_drain;
        let stop = &stop;
        scope.spawn(move || {
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                load_client
                    .predict_keyed("affine", &format!("key-{i}"), wire_rows(&[i as f64]))
                    .expect("no request may fail during a drain");
                served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                i += 1;
            }
        });
        while served.load(std::sync::atomic::Ordering::Relaxed) < 100 {
            std::thread::sleep(Duration::from_millis(1));
        }
        runtime.drain_shard("affine", 1, 3, Duration::from_secs(10))?;
        let mark = served.load(std::sync::atomic::Ordering::Relaxed);
        while served.load(std::sync::atomic::Ordering::Relaxed) < mark + 100 {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    })?;
    println!(
        "drain completed with zero failed requests ({} served concurrently); shards now {}",
        served_during_drain.load(std::sync::atomic::Ordering::Relaxed),
        ep.shards()
    );
    assert_eq!(ep.shards(), 3);
    let rejoined = runtime.add_remote_shard("affine", 1, Arc::new(RemoteWorker::new(&addr_a)))?;
    println!("shard {rejoined} rejoined; shards back to {}", ep.shards());

    let scores = client.predict_keyed("affine", "user-1", wire_rows(&[5.0]))?;
    assert_eq!(scores, vec![14.0]);

    cluster.stop();
    kill(node_a)?;
    println!("\ncluster lifecycle OK");
    Ok(())
}
