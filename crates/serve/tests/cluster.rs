//! Integration tests for the cluster control plane: automatic
//! re-admission of a killed-then-recovered node by the health prober,
//! live topology mutation (add/drain/remove) with zero in-flight
//! loss, and the counters probe's binary codec.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use willump_data::{Table, Value};
use willump_serve::wire2::{decode_request_payload, encode_request_payload};
use willump_serve::{
    BreakerState, ClusterConfig, ControlRequest, InProcessWorker, RemoteRuntimeNode, RemoteWorker,
    Request, Servable, ServeError, ServerConfig, ServingRuntime, WireRow,
};

/// Deterministic predictor shared with the remote.rs suite: local and
/// remote shards provably answer identically.
struct Affine;
impl Servable for Affine {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        let xs = table
            .column("x")
            .ok_or_else(|| "missing x".to_string())?
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

/// A child runtime serving `Affine` under `name` on a loopback port.
fn spawn_node(name: &str, shards: usize) -> RemoteRuntimeNode {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint(name, Arc::new(Affine)).shards(shards);
    RemoteRuntimeNode::bind("127.0.0.1:0", b.build().expect("child builds")).expect("node binds")
}

/// Rebind a node at the exact address a previous incarnation used
/// (retrying through the OS releasing the port).
fn respawn_node_at(addr: &str, name: &str, shards: usize) -> RemoteRuntimeNode {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(2).build());
        b.endpoint(name, Arc::new(Affine)).shards(shards);
        match RemoteRuntimeNode::bind(addr, b.build().expect("child builds")) {
            Ok(node) => return node,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "could not rebind {addr} within 10s: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// A key routed to shard `want` out of `domain` under key-hash
/// routing.
fn key_for_shard(want: usize, domain: usize) -> String {
    (0..10_000)
        .map(|i| format!("key-{i}"))
        .find(|k| willump_serve::shard_for_key(k, domain) == want)
        .expect("some key hashes to the wanted shard")
}

/// THE tentpole acceptance test: a runtime with 2 local + 2 remote
/// shards survives kill → recover of the remote node with **automatic
/// re-admission** — no restart, no manual call. The breaker cooldown
/// is set to 10 minutes, so time-based half-opening cannot re-admit
/// the node inside this test: only the cluster prober can, by
/// exercising `forward_probe` and closing the breaker on success.
#[test]
fn killed_node_is_re_admitted_by_the_prober() {
    let mut node = spawn_node("affine", 2);
    let addr = node.local_addr().to_string();

    let long = Duration::from_secs(600);
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("affine", Arc::new(Affine))
        .shards(2)
        .shard_transport(Arc::new(
            RemoteWorker::new(&addr)
                .with_timeout(Duration::from_secs(2))
                .with_breaker(2, long),
        ))
        .shard_transport(Arc::new(
            RemoteWorker::new(&addr)
                .with_timeout(Duration::from_secs(2))
                .with_breaker(2, long),
        ));
    let runtime = b.build().expect("runtime builds");
    let ep = runtime.endpoint("affine", 1).expect("endpoint exists");
    assert_eq!(ep.shards(), 4);
    let cluster = runtime.start_cluster(ClusterConfig {
        probe_interval: Duration::from_millis(10),
        ..ClusterConfig::default()
    });
    let client = runtime.client();

    // Remote shards serve while the node lives.
    let remote_key = key_for_shard(2, 4);
    assert_eq!(
        client
            .predict_keyed("affine", &remote_key, wire_rows(&[2.0]))
            .expect("remote shard serves"),
        vec![5.0]
    );
    assert!(runtime.stats().remote_forwards() >= 1);

    // Kill the node. Keyed requests fail over to local shards and the
    // breakers open (threshold 2, and each failed request tries both
    // slots).
    node.shutdown();
    for i in 0..3 {
        assert_eq!(
            client
                .predict_keyed("affine", &remote_key, wire_rows(&[i as f64]))
                .expect("fail-over keeps serving"),
            vec![3.0 * i as f64 - 1.0]
        );
    }
    assert!(runtime.stats().failovers() >= 3);
    assert!(
        ep.transport_breaker_states()
            .iter()
            .all(|s| *s != BreakerState::Closed),
        "breakers must leave Closed after repeated failures: {:?}",
        ep.transport_breaker_states()
    );

    // Recover the node at the same address. The prober must re-admit
    // it: breakers close with no restart and no manual call.
    let node2 = respawn_node_at(&addr, "affine", 2);
    let deadline = Instant::now() + Duration::from_secs(10);
    while ep
        .transport_breaker_states()
        .iter()
        .any(|s| *s != BreakerState::Closed)
    {
        assert!(
            Instant::now() < deadline,
            "prober did not re-admit the recovered node within 10s \
             (states {:?}, probes sent {})",
            ep.transport_breaker_states(),
            runtime.stats().probes_sent()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Re-admitted for real: the same key serves remotely again.
    let forwards_before = runtime.stats().remote_forwards();
    assert_eq!(
        client
            .predict_keyed("affine", &remote_key, wire_rows(&[4.0]))
            .expect("re-admitted shard serves"),
        vec![11.0]
    );
    assert!(runtime.stats().remote_forwards() > forwards_before);

    // Probe traffic is visible at every stats level and never counted
    // as forwards.
    assert!(runtime.stats().probes_sent() >= 1);
    assert!(runtime.stats().probes_ok() >= 1);
    assert!(ep.stats().probes_sent() >= 1);
    assert!(ep.stats().probes_ok() >= 1);
    let transport_probes: u64 = ep.transport_stats().iter().map(|t| t.probes_sent).sum();
    let transport_probes_ok: u64 = ep.transport_stats().iter().map(|t| t.probes_ok).sum();
    assert!(transport_probes >= 1);
    assert!(transport_probes_ok >= 1);
    assert_eq!(
        runtime.summed_endpoint_stats().probes_sent,
        runtime.stats().probes_sent()
    );

    cluster.stop();
    drop(node2);
}

/// Drain-under-load: while concurrent clients hammer a 2-local +
/// 2-remote endpoint, one remote shard is drained mid-stream. Not a
/// single request may fail — in-flight forwards complete on their own
/// slot handles, new requests re-map over the shrunk key-hash domain
/// — and the shard then rejoins live.
#[test]
fn drain_under_load_drops_nothing_then_rejoins() {
    let node = spawn_node("affine", 2);
    let addr = node.local_addr().to_string();

    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("affine", Arc::new(Affine))
        .shards(2)
        .shard_remote(&addr)
        .shard_remote(&addr);
    let runtime = b.build().expect("runtime builds");
    let ep = runtime.endpoint("affine", 1).expect("endpoint exists");
    assert_eq!(ep.shards(), 4);

    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for worker in 0..4u64 {
            let client = runtime.client();
            let stop = &stop;
            let served = &served;
            scope.spawn(move || {
                let mut i = worker;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("key-{i}");
                    let x = i as f64;
                    let scores = client
                        .predict_keyed("affine", &key, wire_rows(&[x]))
                        .expect("no request may fail during a drain");
                    assert_eq!(scores, vec![3.0 * x - 1.0]);
                    served.fetch_add(1, Ordering::Relaxed);
                    i += 4;
                }
            });
        }

        // Let load build, then drain remote shard 3 mid-stream.
        while served.load(Ordering::Relaxed) < 200 {
            std::thread::sleep(Duration::from_millis(1));
        }
        runtime
            .drain_shard("affine", 1, 3, Duration::from_secs(10))
            .expect("drain completes");
        assert_eq!(ep.shards(), 3);

        // Keep serving on the shrunk domain, then rejoin the shard.
        let mark = served.load(Ordering::Relaxed);
        while served.load(Ordering::Relaxed) < mark + 200 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let shard = runtime
            .add_remote_shard("affine", 1, Arc::new(RemoteWorker::new(&addr)))
            .expect("rejoin succeeds");
        assert_eq!(shard, 3);
        assert_eq!(ep.shards(), 4);

        let mark = served.load(Ordering::Relaxed);
        while served.load(Ordering::Relaxed) < mark + 200 {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
    });

    // The rejoined slot starts with fresh per-shard counters and the
    // stats view tracks the live topology.
    assert_eq!(ep.stats().shard_requests().len(), 4);
    assert!(served.load(Ordering::Relaxed) >= 600);
    assert_eq!(runtime.stats().decode_errors(), 0);
    assert_eq!(runtime.stats().route_errors(), 0);
}

/// Live topology over in-process transports: `add_remote_shard`
/// extends the key-hash domain with the next request, draining a
/// local shard is refused, and out-of-range shards error cleanly.
#[test]
fn add_drain_remove_validate_shard_indices() {
    let mut backend_builder = ServingRuntime::builder();
    backend_builder.endpoint("m", Arc::new(Affine)).shards(1);
    let backend = backend_builder.build().expect("backend builds");

    let mut b = ServingRuntime::builder();
    b.endpoint("m", Arc::new(Affine)).shards(1);
    let runtime = b.build().expect("runtime builds");
    let ep = runtime.endpoint("m", 1).expect("endpoint exists");
    assert_eq!(ep.shards(), 1);

    let shard = runtime
        .add_remote_shard("m", 1, Arc::new(InProcessWorker::new(&backend)))
        .expect("attach in-process shard");
    assert_eq!(shard, 1);
    assert_eq!(ep.shards(), 2);
    assert_eq!(ep.stats().shard_requests().len(), 2);

    // The new slot serves: a key hashed to shard 1 forwards.
    let client = runtime.client();
    let key = key_for_shard(1, 2);
    assert_eq!(
        client
            .predict_keyed("m", &key, wire_rows(&[3.0]))
            .expect("remote slot serves"),
        vec![8.0]
    );
    assert_eq!(ep.stats().shard_requests()[1], 1);

    // Local shards cannot be drained or removed; bogus indices and
    // endpoints error cleanly.
    assert!(matches!(
        runtime.drain_shard("m", 1, 0, Duration::from_secs(1)),
        Err(ServeError::BadRequest { .. })
    ));
    assert!(matches!(
        runtime.remove_shard("m", 1, 9),
        Err(ServeError::BadRequest { .. })
    ));
    assert!(matches!(
        runtime.add_remote_shard("nope", 1, Arc::new(InProcessWorker::new(&backend))),
        Err(ServeError::BadRequest { .. })
    ));

    runtime.remove_shard("m", 1, 1).expect("remove detaches");
    assert_eq!(ep.shards(), 1);
    // All traffic re-maps onto the surviving local shard.
    assert_eq!(
        client
            .predict_keyed("m", &key, wire_rows(&[1.0]))
            .expect("local shard serves after removal"),
        vec![2.0]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The counters probe survives the binary codec, and any other
    /// control tag — v3's retired lifecycle tags 1–3 or one from a
    /// newer peer — is a codec error on this build, not a silent
    /// misroute.
    #[test]
    fn control_frames_round_trip_the_binary_codec(
        id in 1u64..u64::MAX,
        unknown_tag in 1u32..256,
    ) {
        let req = Request::counters_probe(id);
        let mut wire = encode_request_payload(&req);
        let back = decode_request_payload(&wire).expect("decodable");
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(back.control, Some(ControlRequest::Counters));

        // The control tag is the frame's last byte.
        *wire.last_mut().expect("non-empty frame") = unknown_tag as u8;
        prop_assert!(decode_request_payload(&wire).is_err());
    }
}
