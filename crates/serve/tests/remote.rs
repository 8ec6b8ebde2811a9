//! Integration tests for cross-process sharding: shard-forwarding
//! frame round-trips (property-based), local-vs-remote prediction
//! equivalence over real TCP, kill-the-node fail-over, the
//! forwarding-loop guard, and the remote plan-counters feed for the
//! parent's merged counters.

use proptest::prelude::*;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use willump_data::{Table, Value};
use willump_serve::wire2::{
    decode_request_payload, decode_response_payload, encode_frame, encode_header,
    encode_request_payload, encode_response_frame, encode_response_payload, read_frame, FrameType,
    MAX_FRAME_PAYLOAD, WIRE2_MIN_VERSION, WIRE2_PREAMBLE,
};
use willump_serve::{
    ControlRequest, EndpointCounters, ForwardReply, InProcessWorker, RemoteRuntimeNode,
    RemoteWorker, Request, Response, Servable, ServeError, ServerConfig, ServingRuntime,
    TransportStats, WireRow, WorkerTransport,
};

/// A deterministic predictor with a visible formula, so local and
/// remote shards can be proven to answer identically.
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

/// A child runtime serving `Affine` under `name`, exposed on a free
/// loopback port.
fn spawn_node(name: &str, shards: usize) -> RemoteRuntimeNode {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint(name, Arc::new(Affine)).shards(shards);
    RemoteRuntimeNode::bind("127.0.0.1:0", b.build().expect("child builds")).expect("node binds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Shard-forwarding frames — the wire form a parent router sends a
    /// remote node, with the `forwarded` loop guard and resolved
    /// endpoint/version — round-trip losslessly.
    #[test]
    fn forwarding_frame_round_trip_is_lossless(
        id in 1u64..u64::MAX,
        xs in prop::collection::vec(-1e9f64..1e9, 1..5),
        endpoint in ".{1,12}",
        version in 0u32..u32::MAX,
        key in (any::<bool>(), ".{0,12}"),
        forwarded in any::<bool>(),
    ) {
        let req = Request {
            endpoint: Some(endpoint),
            version: Some(version),
            key: key.0.then_some(key.1),
            forwarded,
            ..Request::new(id, wire_rows(&xs))
        };
        let back = decode_request_payload(&encode_request_payload(&req)).expect("decodable");
        prop_assert_eq!(&back, &req);
    }

    /// Counters control responses round-trip losslessly for arbitrary
    /// endpoint reports.
    #[test]
    fn counters_response_round_trip_is_lossless(
        id in 0u64..u64::MAX,
        reports in prop::collection::vec(
            (".{0,12}", 0u32..64, (any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>())),
            0..4,
        ),
    ) {
        let counters = reports
            .into_iter()
            .map(|(endpoint, version, (rows, gate_resolved), (escalated, filter_dropped))| {
                EndpointCounters {
                    endpoint,
                    version,
                    counters: willump::PlanCountersSnapshot {
                        rows,
                        gate_resolved,
                        escalated,
                        filter_dropped,
                    },
                }
            })
            .collect();
        let resp = Response {
            id,
            scores: Vec::new(),
            error: None,
            endpoint: None,
            version: None,
            counters: Some(counters),
            degraded: false,
            overloaded: false,
        };
        let wire = encode_response_payload(&resp);
        prop_assert_eq!(decode_response_payload(&wire).expect("decodable"), resp);
    }
}

/// THE acceptance test for cross-process sharding: an endpoint with 2
/// local + 2 TCP-remote shards returns predictions identical to a
/// 4-local endpoint, for keyed and unkeyed traffic, while the remote
/// shards really serve (child-side request counters move and the
/// parent records transport latency).
#[test]
fn two_local_two_remote_matches_four_local() {
    let node = spawn_node("affine", 2);
    let addr = node.local_addr().to_string();

    let mut all_local = ServingRuntime::builder();
    all_local.config(ServerConfig::builder().workers(2).build());
    all_local.endpoint("affine", Arc::new(Affine)).shards(4);
    let all_local = all_local.build().expect("4-local builds");

    let mut mixed = ServingRuntime::builder();
    mixed.config(ServerConfig::builder().workers(2).build());
    mixed
        .endpoint("affine", Arc::new(Affine))
        .shards(2)
        .shard_remote(&addr)
        .shard_remote(&addr);
    let mixed = mixed.build().expect("mixed builds");

    let local_client = all_local.client();
    let mixed_client = mixed.client();
    // Keyed traffic (sticky shards, some keys land remote) and
    // unkeyed traffic (round-robin over all four shards).
    for i in 0..24 {
        let rows = wire_rows(&[i as f64, i as f64 * 0.5 - 3.0]);
        let expected = local_client
            .predict_keyed("affine", &format!("user-{i}"), rows.clone())
            .expect("4-local serves");
        let got = mixed_client
            .predict_keyed("affine", &format!("user-{i}"), rows)
            .expect("2+2 serves");
        assert_eq!(got, expected, "keyed request {i} diverged");
    }
    for i in 0..16 {
        let rows = wire_rows(&[-(i as f64)]);
        let expected = local_client
            .predict_endpoint("affine", rows.clone())
            .unwrap();
        let got = mixed_client.predict_endpoint("affine", rows).unwrap();
        assert_eq!(got, expected, "unkeyed request {i} diverged");
    }

    // The remote shards actually served: the child saw traffic, the
    // parent counted remote forwards and per-shard transport latency.
    let ep = mixed.endpoint("affine", 1).unwrap();
    assert_eq!(ep.local_shards(), 2);
    assert_eq!(ep.remote_shards(), 2);
    let per_shard = ep.stats().shard_requests();
    assert_eq!(per_shard.len(), 4);
    assert_eq!(per_shard.iter().sum::<u64>(), 40);
    assert!(
        per_shard[2] + per_shard[3] > 0,
        "remote shards never routed: {per_shard:?}"
    );
    assert!(node.runtime().stats().requests() > 0, "child never served");
    assert_eq!(
        mixed.stats().remote_forwards(),
        per_shard[2] + per_shard[3],
        "every remote-routed request was forwarded"
    );
    let nanos = ep.stats().shard_transport_nanos();
    assert_eq!(nanos[0], 0, "local shards record no transport latency");
    assert!(
        nanos[2] + nanos[3] > 0,
        "remote forwards must record latency"
    );
    assert_eq!(mixed.stats().transport_errors(), 0);
    // Transport-level stats agree.
    let tstats = ep.transport_stats();
    assert_eq!(tstats.len(), 2);
    assert_eq!(
        tstats.iter().map(|t| t.forwards).sum::<u64>(),
        per_shard[2] + per_shard[3]
    );
}

/// Kill-the-node fail-over: requests keyed to a dead remote shard are
/// re-routed to a surviving local shard, the failure is counted, and
/// service never degrades to an error.
#[test]
fn dead_remote_shard_fails_over_to_local() {
    let mut node = spawn_node("affine", 1);
    let addr = node.local_addr().to_string();

    let mut b = ServingRuntime::builder();
    b.endpoint("affine", Arc::new(Affine))
        .shards(1)
        .shard_transport(Arc::new(
            RemoteWorker::new(&addr).with_timeout(Duration::from_secs(2)),
        ));
    let runtime = b.build().expect("runtime builds");
    let client = runtime.client();

    // Find a key that routes to the remote shard (index 1 of 2).
    let remote_key = (0..1000)
        .map(|i| format!("key-{i}"))
        .find(|k| willump_serve::shard_for_key(k, 2) == 1)
        .expect("some key hashes to shard 1");

    // Remote shard serves while the node lives.
    assert_eq!(
        client
            .predict_keyed("affine", &remote_key, wire_rows(&[2.0]))
            .expect("remote shard serves"),
        vec![5.0]
    );
    assert_eq!(runtime.stats().remote_forwards(), 1);
    assert_eq!(runtime.stats().failovers(), 0);

    node.shutdown();

    // Same key, dead node: the request must still be answered — by
    // the surviving local shard — and the failure counted.
    for i in 0..3 {
        assert_eq!(
            client
                .predict_keyed("affine", &remote_key, wire_rows(&[i as f64]))
                .expect("fail-over must keep serving"),
            vec![3.0 * i as f64 - 1.0]
        );
    }
    assert!(runtime.stats().transport_errors() >= 3);
    assert!(runtime.stats().failovers() >= 3);
    let ep = runtime.endpoint("affine", 1).unwrap();
    assert!(ep.stats().failovers() >= 3);
    assert!(ep.stats().transport_errors() >= 3);
}

/// An all-remote endpoint (0 local shards) serves through its
/// transports; when every transport is dead the client gets a clean
/// predictor error, not a hang.
#[test]
fn all_remote_endpoint_serves_and_fails_cleanly() {
    let mut node = spawn_node("affine", 2);
    let addr = node.local_addr().to_string();

    let mut b = ServingRuntime::builder();
    b.endpoint("affine", Arc::new(Affine))
        .shards(0)
        .shard_transport(Arc::new(
            RemoteWorker::new(&addr).with_timeout(Duration::from_secs(2)),
        ))
        .shard_transport(Arc::new(
            RemoteWorker::new(&addr).with_timeout(Duration::from_secs(2)),
        ));
    let runtime = b.build().expect("runtime builds");
    let ep = runtime.endpoint("affine", 1).unwrap();
    assert_eq!(ep.local_shards(), 0);
    assert_eq!(ep.shards(), 2);

    let client = runtime.client();
    assert_eq!(
        client
            .predict_endpoint("affine", wire_rows(&[4.0]))
            .expect("all-remote endpoint serves"),
        vec![11.0]
    );

    node.shutdown();
    match client.predict_endpoint("affine", wire_rows(&[1.0])) {
        Err(ServeError::Predictor(msg)) => {
            assert!(
                msg.contains("every remote shard"),
                "unexpected message: {msg}"
            );
        }
        other => panic!("expected total-failure error, got {other:?}"),
    }
    // Both transports were tried before giving up.
    assert!(runtime.stats().transport_errors() >= 2);
}

/// The forwarding-loop guard: a frame already marked `forwarded` must
/// never leave the receiving runtime. On a node with local shards it
/// is served locally; on an all-remote endpoint it is a route error
/// rather than a second hop.
#[test]
fn forwarded_frames_never_forward_again() {
    let node = spawn_node("affine", 1);
    let addr = node.local_addr().to_string();

    // An all-remote endpoint: plain frames forward, forwarded frames
    // must not.
    let mut b = ServingRuntime::builder();
    b.endpoint("affine", Arc::new(Affine))
        .shards(0)
        .shard_remote(&addr);
    let runtime = b.build().expect("runtime builds");
    let client = runtime.client();

    let forwarded = Request {
        endpoint: Some("affine".to_string()),
        version: Some(1),
        forwarded: true,
        ..Request::new(41, wire_rows(&[1.0]))
    };
    let resp = client.call(forwarded).expect("admission answers");
    assert_eq!(resp.id, 41);
    let err = resp.error.expect("forwarded frame must not hop again");
    assert!(err.contains("no local shards"), "unexpected error: {err}");
    assert_eq!(runtime.stats().remote_forwards(), 0);
    assert_eq!(runtime.stats().route_errors(), 1);
    // The child never saw the frame.
    assert_eq!(node.runtime().stats().requests(), 0);
}

/// The local-queue transport: `InProcessWorker` puts another
/// runtime's worker queues behind the same shard/transport machinery,
/// with identical predictions and working stats.
#[test]
fn in_process_transport_behaves_like_a_remote_shard() {
    let mut backend = ServingRuntime::builder();
    backend.endpoint("affine", Arc::new(Affine)).shards(2);
    let backend = backend.build().expect("backend builds");

    let mut front = ServingRuntime::builder();
    front
        .endpoint("affine", Arc::new(Affine))
        .shards(1)
        .shard_transport(Arc::new(InProcessWorker::new(&backend)));
    let front = front.build().expect("front builds");
    let client = front.client();

    for i in 0..10 {
        assert_eq!(
            client
                .predict_endpoint("affine", wire_rows(&[i as f64]))
                .unwrap(),
            vec![3.0 * i as f64 - 1.0]
        );
    }
    // Round-robin over 1 local + 1 transport shard: half the traffic
    // crossed into the backend runtime.
    assert_eq!(backend.stats().requests(), 5);
    assert_eq!(front.stats().remote_forwards(), 5);
}

/// A servable that panics behind an `InProcessWorker` reads to the
/// front runtime as a failed transport: the request fails over to the
/// local shard, no forward stays counted in flight, so the shard still
/// drains, and the backend keeps serving.
#[test]
fn a_panicking_in_process_backend_fails_over_and_still_drains() {
    /// `Affine`, panicking on a negative x.
    struct PanicsOnNegative;
    impl Servable for PanicsOnNegative {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            let scores = Affine.predict_table(table)?;
            assert!(scores.iter().all(|&s| s >= -1.0), "negative x");
            Ok(scores)
        }
    }
    let mut backend = ServingRuntime::builder();
    backend.config(ServerConfig::builder().workers(1).build());
    backend.endpoint("affine", Arc::new(PanicsOnNegative));
    let backend = backend.build().expect("backend builds");

    let mut front = ServingRuntime::builder();
    front
        .endpoint("affine", Arc::new(Affine))
        .shards(1)
        .shard_transport(Arc::new(InProcessWorker::new(&backend)));
    let front = front.build().expect("front builds");
    let client = front.client();
    let remote_key = (0..1000)
        .map(|i| format!("key-{i}"))
        .find(|k| willump_serve::shard_for_key(k, 2) == 1)
        .expect("some key hashes to shard 1");

    assert_eq!(
        client
            .predict_keyed("affine", &remote_key, wire_rows(&[-1.0]))
            .expect("the local shard serves it"),
        vec![-4.0]
    );
    assert_eq!(front.stats().transport_errors(), 1);
    assert_eq!(front.stats().failovers(), 1);
    assert_eq!(
        client
            .predict_keyed("affine", &remote_key, wire_rows(&[2.0]))
            .expect("the backend serves it"),
        vec![5.0]
    );
    assert_eq!(front.stats().remote_forwards(), 1);
    front
        .drain_shard("affine", 1, 1, Duration::from_secs(5))
        .expect("no forward is left in flight");
}

/// Remote plan counters feed the parent: a child whose cascade plan
/// escalates every row reports its `PlanCountersSnapshot` through a
/// counters control frame, and after `refresh_remote_counters` the
/// parent endpoint's escalation rate reflects traffic that ran in
/// the child runtime.
#[test]
fn remote_counters_reach_the_parent_scheduler() {
    use willump::ServingPlan;
    use willump_data::Column;
    use willump_graph::{EngineMode, Executor, GraphBuilder, Operator};
    use willump_models::{LogisticParams, ModelSpec};

    // A tiny two-feature cascade fixture (FG0 is the efficient
    // subset); threshold 1.0 escalates every row, threshold 0.0 none.
    let build_cascade = |threshold: f64| -> (ServingPlan, Table) {
        let mut gb = GraphBuilder::new();
        let a = gb.source("a");
        let c = gb.source("b");
        let f0 = gb.add("f0", Operator::NumericColumn, [a]).unwrap();
        let f1 = gb.add("f1", Operator::NumericColumn, [c]).unwrap();
        let graph = Arc::new(gb.finish_with_concat("cat", [f0, f1]).unwrap());
        let exec = Executor::new(graph, EngineMode::Compiled).unwrap();

        let mut t = Table::new();
        let avals: Vec<f64> = (0..60)
            .map(|i| if i % 2 == 0 { -2.0 } else { 2.0 })
            .collect();
        let bvals: Vec<f64> = (0..60).map(|i| i as f64 * 0.01).collect();
        let y: Vec<f64> = (0..60).map(|i| (i % 2) as f64).collect();
        t.add_column("a", Column::from(avals)).unwrap();
        t.add_column("b", Column::from(bvals)).unwrap();

        let full_feats = exec.features_batch(&t, None).unwrap();
        let full = Arc::new(
            ModelSpec::Logistic(LogisticParams::default())
                .fit(&full_feats, &y, 1)
                .unwrap(),
        );
        let eff_feats = exec.features_batch(&t, Some(&[0])).unwrap();
        let small = Arc::new(
            ModelSpec::Logistic(LogisticParams::default())
                .fit(&eff_feats, &y, 1)
                .unwrap(),
        );
        let plan = ServingPlan::cascade(exec, small, full, threshold, vec![0]).unwrap();
        (plan, t)
    };

    // Child: an always-escalating cascade, exposed over TCP.
    let (child_plan, table) = build_cascade(1.0);
    let mut child = ServingRuntime::builder();
    child.plan("m", child_plan);
    let node =
        RemoteRuntimeNode::bind("127.0.0.1:0", child.build().expect("child builds")).unwrap();
    let addr = node.local_addr().to_string();

    // Parent: a never-escalating local shard plus the child as TWO
    // remote shards (same node — its node-wide counters must merge
    // once, not once per shard).
    let (parent_plan, _) = build_cascade(0.0);
    let mut parent = ServingRuntime::builder();
    parent
        .plan("m", parent_plan)
        .shards(1)
        .shard_remote(&addr)
        .shard_remote(&addr);
    let parent = parent.build().expect("parent builds");
    let client = parent.client();

    // Unkeyed traffic round-robins over both shards, so roughly half
    // the rows escalate — but only inside the child process's plan.
    let rows: Vec<WireRow> = (0..table.n_rows())
        .map(|r| willump_serve::table_row_to_wire(&table, r).unwrap())
        .collect();
    for chunk in rows.chunks(6) {
        client.predict_endpoint("m", chunk.to_vec()).unwrap();
    }

    let ep = parent.endpoint("m", 1).unwrap();
    let local_only = ep.merged_counters();
    assert_eq!(
        local_only.escalated, 0,
        "parent's local plan never escalates"
    );

    // A direct probe through the transport sees the child's counters…
    let probe = RemoteWorker::new(&addr);
    let snap = probe.probe_counters("m", 1).expect("probe answers");
    assert!(snap.rows > 0, "child plan ran rows");
    assert_eq!(snap.escalated, snap.rows, "child escalates everything");

    // …and refreshing folds them into the parent endpoint's merged view.
    // Both remote shards answer, but they are ONE node: its counters
    // must merge once, not once per shard.
    assert_eq!(parent.refresh_remote_counters(), 2);
    let merged = ep.merged_counters();
    assert_eq!(
        merged.escalated, snap.escalated,
        "same-node shards must not double-count"
    );
    assert!(
        merged.escalation_rate() > 0.3,
        "remote escalations must raise the merged rate, got {}",
        merged.escalation_rate()
    );

    // Unknown endpoints are a clean probe error.
    assert!(probe.probe_counters("nonesuch", 1).is_err());
}

/// A transport standing in for an overloaded remote node: every
/// forwarded request comes back as an admission-control shed response.
#[derive(Default)]
struct SheddingTransport {
    forwards: std::sync::atomic::AtomicU64,
}
impl WorkerTransport for SheddingTransport {
    fn forward_request(&self, req: &Request) -> Result<ForwardReply, ServeError> {
        self.forwards
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(ForwardReply {
            response: Response::shed(req.id, "affine", 1),
            bytes_sent: 0,
            bytes_received: 0,
        })
    }
    fn describe(&self) -> String {
        "always-shedding".to_string()
    }
    fn stats(&self) -> TransportStats {
        TransportStats {
            forwards: self.forwards.load(std::sync::atomic::Ordering::Relaxed),
            ..TransportStats::default()
        }
    }
}

/// A remote node's shed responses relay to the caller verbatim but
/// are *excluded* from `shard_transport_nanos` — a shed round trip
/// measures the remote's admission gate, not its service latency, so
/// counting it would drag the per-shard latency signal toward zero
/// exactly when the remote is overloaded (mirrors the counters-probe
/// exclusion).
#[test]
fn remote_shed_responses_skip_transport_latency_accounting() {
    let mut b = ServingRuntime::builder();
    b.endpoint("affine", Arc::new(Affine))
        .shards(1)
        .shard_transport(Arc::new(SheddingTransport::default()));
    let runtime = b.build().expect("runtime builds");
    let client = runtime.client();

    // A key that routes to the transport shard (index 1 of 2).
    let remote_key = (0..1000)
        .map(|i| format!("key-{i}"))
        .find(|k| willump_serve::shard_for_key(k, 2) == 1)
        .expect("some key hashes to shard 1");

    let resp = client
        .call(Request {
            endpoint: Some("affine".to_string()),
            key: Some(remote_key.clone()),
            ..Request::new(11, wire_rows(&[4.0]))
        })
        .expect("shed response still decodes");
    assert!(resp.overloaded, "remote shed must relay: {resp:?}");
    assert!(resp.scores.is_empty());

    let ep = runtime.endpoint("affine", 1).unwrap();
    assert_eq!(runtime.stats().remote_forwards(), 1);
    assert_eq!(
        ep.stats().shard_transport_nanos()[1],
        0,
        "shed round trips must not count as transport latency"
    );

    // A local request on the same endpoint still serves normally.
    let local_key = (0..1000)
        .map(|i| format!("key-{i}"))
        .find(|k| willump_serve::shard_for_key(k, 2) == 0)
        .expect("some key hashes to shard 0");
    assert_eq!(
        client
            .predict_keyed("affine", &local_key, wire_rows(&[2.0]))
            .unwrap(),
        vec![5.0]
    );
}

/// A v3 `Drain` frame (control tag 2) is a codec error since wire2 v4:
/// the node answers it in band, counts one `decode_errors`, and keeps
/// serving predictions on the same connection — nothing latches it
/// shut.
#[test]
fn a_former_drain_tag_is_answered_in_band_and_the_node_keeps_serving() {
    let node = spawn_node("affine", 1);
    // One connection, opened the way a `RemoteWorker` opens it.
    let stream = TcpStream::connect(node.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    writer.write_all(WIRE2_PREAMBLE).expect("preamble");
    let (hdr, _) = read_frame(&mut reader).expect("ack").expect("not eof");
    assert_eq!(hdr.frame_type, FrameType::HelloAck);
    let mut round_trip = |mux_id: u32, payload: &[u8]| {
        let frame = encode_frame(FrameType::BinRequest, mux_id, payload).expect("encodes");
        writer.write_all(&frame).expect("writes");
        let (hdr, payload) = read_frame(&mut reader).expect("frame").expect("not eof");
        assert_eq!(
            (hdr.frame_type, hdr.request_id),
            (FrameType::BinResponse, mux_id)
        );
        decode_response_payload(&payload).expect("decodes")
    };

    // What a v3 `Drain` encodes: a counters probe whose control tag,
    // the payload's last byte, is 2.
    let mut drain = encode_request_payload(&Request::counters_probe(7));
    *drain.last_mut().expect("non-empty payload") = 2;
    let before = node.transport_stats().decode_errors;
    let refused = round_trip(1, &drain);
    assert!(refused
        .error
        .expect("an in-band error")
        .contains("control tag"));
    assert_eq!(node.transport_stats().decode_errors, before + 1);

    let predict = Request {
        endpoint: Some("affine".to_string()),
        ..Request::new(8, wire_rows(&[2.0]))
    };
    let served = round_trip(2, &encode_request_payload(&predict));
    assert!(!served.overloaded, "the node refused: {:?}", served.error);
    assert_eq!((served.error, served.scores), (None, vec![5.0]));
}

/// A header of the oldest version the node decodes, whose length
/// prefix exceeds the frame bound, is answered in band on its mux id
/// like a current-version one, and then the connection drains.
#[test]
fn an_oversized_frame_of_an_older_version_is_answered_in_band() {
    let node = spawn_node("affine", 1);
    let stream = TcpStream::connect(node.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    writer.write_all(WIRE2_PREAMBLE).expect("preamble");
    let (hdr, _) = read_frame(&mut reader).expect("ack").expect("not eof");
    assert_eq!(hdr.frame_type, FrameType::HelloAck);

    let mut header = encode_header(FrameType::BinRequest, 9, MAX_FRAME_PAYLOAD + 1);
    header[1] = WIRE2_MIN_VERSION;
    writer.write_all(&header).expect("writes");
    let (hdr, payload) = read_frame(&mut reader)
        .expect("frame")
        .expect("an in-band reply, not EOF");
    assert_eq!(
        (hdr.frame_type, hdr.request_id),
        (FrameType::BinResponse, 9)
    );
    let err = decode_response_payload(&payload)
        .expect("decodes")
        .error
        .expect("is an error");
    assert!(err.contains("exceeds the frame bound"), "got: {err}");
    assert!(matches!(read_frame(&mut reader), Ok(None)));
    assert_eq!(node.transport_stats().decode_errors, 1);
}

// ---- wire2 round trips over arbitrary frames -------------------------

/// A strategy over wire rows exercising every `Value` variant.
fn arb_rows() -> impl Strategy<Value = Vec<WireRow>> {
    let value = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        ".{0,8}".prop_map(|s| Value::str(s.as_str())),
    ];
    prop::collection::vec(
        prop::collection::vec((".{1,6}", value), 0..4).prop_map(|cols| cols.into_iter().collect()),
        0..3,
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        1u64..u64::MAX,
        arb_rows(),
        prop::option::of(".{0,12}"),
        prop::option::of(0u32..u32::MAX),
        prop::option::of(".{0,12}"),
        any::<bool>(),
        prop::option::of(Just(ControlRequest::Counters)),
    )
        .prop_map(
            |(id, rows, endpoint, version, key, forwarded, control)| Request {
                id,
                rows,
                endpoint,
                version,
                key,
                forwarded,
                control,
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    let counters = prop::collection::vec(
        (
            ".{0,10}",
            0u32..64,
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        )
            .prop_map(
                |(endpoint, version, (rows, gate_resolved, escalated, filter_dropped))| {
                    EndpointCounters {
                        endpoint,
                        version,
                        counters: willump::PlanCountersSnapshot {
                            rows,
                            gate_resolved,
                            escalated,
                            filter_dropped,
                        },
                    }
                },
            ),
        0..3,
    );
    (
        0u64..u64::MAX,
        prop::collection::vec(-1e12f64..1e12, 0..4),
        prop::option::of(".{0,16}"),
        prop::option::of(".{0,12}"),
        prop::option::of(0u32..u32::MAX),
        prop::option::of(counters),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(id, scores, error, endpoint, version, counters, degraded, overloaded)| Response {
                id,
                scores,
                error,
                endpoint,
                version,
                counters,
                degraded,
                overloaded,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every request — any value shape, addressing, loop guard and
    /// control op — round-trips the binary v2 codec to the identical
    /// struct.
    #[test]
    fn binary_request_encoding_round_trips(req in arb_request()) {
        let bin = encode_request_payload(&req);
        prop_assert_eq!(decode_request_payload(&bin).expect("binary decodes"), req);
    }

    /// Every response — including shed, degraded, error, and counters
    /// frames — round-trips the binary v2 codec to the identical
    /// struct.
    #[test]
    fn binary_response_encoding_round_trips(resp in arb_response()) {
        let bin = encode_response_payload(&resp);
        prop_assert_eq!(decode_response_payload(&bin).expect("binary decodes"), resp);
    }

    /// Shed responses specifically survive the binary codec with the
    /// overloaded marker intact (the admission gate depends on it).
    #[test]
    fn shed_responses_round_trip_the_binary_codec(
        id in 0u64..u64::MAX,
        endpoint in "[a-z0-9./ -]{0,16}",
        version in 0u32..u32::MAX,
    ) {
        let resp = Response::shed(id, &endpoint, version);
        let bin = encode_response_payload(&resp);
        let back = decode_response_payload(&bin).expect("decodes");
        prop_assert!(back.overloaded);
        prop_assert_eq!(back, resp);
    }

    /// A shed response survives a whole wire2 frame — header, mux id
    /// and payload, as a node writes it and a client reads it — with
    /// only the overloaded marker set.
    #[test]
    fn shed_responses_round_trip_the_wire(
        id in 0u64..u64::MAX,
        mux_id in 1u32..u32::MAX,
        endpoint in "[a-z0-9./ -]{0,16}",
        version in 0u32..u32::MAX,
    ) {
        let resp = Response::shed(id, &endpoint, version);
        let frame = encode_response_frame(mux_id, &resp).expect("shed response frames");
        let mut reader: &[u8] = &frame;
        let (hdr, payload) = read_frame(&mut reader).expect("frame reads").expect("not eof");
        prop_assert_eq!(hdr.frame_type, FrameType::BinResponse);
        prop_assert_eq!(hdr.request_id, mux_id);
        let back = decode_response_payload(&payload).expect("shed response decodes");
        prop_assert!(back.overloaded);
        prop_assert!(!back.degraded);
        prop_assert!(back.scores.is_empty());
        prop_assert_eq!(back, resp);
    }
}

/// A servable that scores NaN gets one answer on every boundary into a
/// runtime: the typed call and a wire2 frame both return the same
/// predictor error, never the NaN.
#[test]
fn a_non_finite_score_is_one_predictor_error_on_every_boundary() {
    struct NanScores;
    impl Servable for NanScores {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            Ok(vec![f64::NAN; table.n_rows()])
        }
    }
    let mut b = ServingRuntime::builder();
    b.endpoint("nan", Arc::new(NanScores));
    let node = RemoteRuntimeNode::bind("127.0.0.1:0", b.build().expect("node builds"))
        .expect("node binds");
    let client = node.runtime().client();
    let req = Request {
        endpoint: Some("nan".to_string()),
        ..Request::new(5, wire_rows(&[1.0]))
    };

    let typed = client.call(req.clone()).expect("typed call answers");
    let error = typed.error.as_deref().expect("NaN is an error");
    assert!(error.contains("encoding failed"), "got: {error}");
    assert!(typed.scores.is_empty());

    let wire2 = RemoteWorker::new(&node.local_addr().to_string())
        .with_timeout(Duration::from_secs(5))
        .forward_request(&req)
        .expect("wire2 frame answers");
    assert_eq!(wire2.response, typed);

    assert!(matches!(
        client.predict_endpoint("nan", wire_rows(&[1.0])),
        Err(ServeError::Predictor(m)) if m == error
    ));
}
