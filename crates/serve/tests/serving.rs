//! Integration tests for the serving layer: wire-protocol round-trip
//! properties (including the multi-endpoint addressing fields),
//! coalesced-vs-sequential serving equivalence, and the
//! `ServingRuntime`'s routing and sharding behavior.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use willump_data::{Table, Value};
use willump_serve::wire2::{
    decode_request_payload, decode_response_payload, encode_request_payload,
    encode_response_payload,
};
use willump_serve::{
    EndpointStatsSnapshot, RemoteRuntimeNode, RemoteWorker, Request, Response, Servable,
    ServerConfig, ServingRuntime, WireRow, WorkerTransport, DEFAULT_ENDPOINT,
};

/// A runtime serving `predictor` as its default endpoint, one shard
/// per worker.
fn one_endpoint(predictor: Arc<dyn Servable>, config: ServerConfig) -> ServingRuntime {
    let mut builder = ServingRuntime::builder();
    builder.config(config);
    builder
        .endpoint(DEFAULT_ENDPOINT, predictor)
        .shards(config.workers.max(1));
    builder.build().expect("a one-endpoint runtime builds")
}

/// Build a request whose rows exercise every wire-representable value
/// shape: strings (arbitrary printable content), finite floats, ints,
/// and bools.
fn build_request(id: u64, cells: Vec<(String, f64, i64, bool)>) -> Request {
    let rows = cells
        .into_iter()
        .map(|(s, f, i, b)| {
            vec![
                ("text".to_string(), Value::from(s.as_str())),
                ("score".to_string(), Value::Float(f)),
                ("count".to_string(), Value::Int(i)),
                ("flag".to_string(), Value::Bool(b)),
            ]
        })
        .collect();
    Request::new(id, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Request wire round-trip is lossless for arbitrary strings,
    /// finite floats, ints, and bools — with or without the endpoint
    /// addressing fields (endpoint name, version pin, routing key).
    #[test]
    fn request_wire_round_trip_is_lossless(
        id in 1u64..u64::MAX,
        cells in prop::collection::vec(
            (".{0,24}", -1e12f64..1e12, any::<i64>(), any::<bool>()),
            1..6,
        ),
        endpoint in (any::<bool>(), ".{0,16}"),
        version in (any::<bool>(), 0u32..u32::MAX),
        key in (any::<bool>(), ".{0,16}"),
    ) {
        let mut req = build_request(id, cells);
        req.endpoint = endpoint.0.then_some(endpoint.1);
        req.version = version.0.then_some(version.1);
        req.key = key.0.then_some(key.1);
        let back = decode_request_payload(&encode_request_payload(&req)).expect("decodable");
        prop_assert_eq!(req, back);
    }

    /// Response wire round-trip is lossless for arbitrary scores and
    /// error strings, with or without the endpoint/version echo.
    #[test]
    fn response_wire_round_trip_is_lossless(
        id in 0u64..u64::MAX,
        scores in prop::collection::vec(-1e12f64..1e12, 0..8),
        error in (any::<bool>(), ".{0,48}"),
        endpoint in (any::<bool>(), ".{0,16}"),
        version in (any::<bool>(), 0u32..u32::MAX),
        degraded in any::<bool>(),
        overloaded in any::<bool>(),
    ) {
        let resp = Response {
            id,
            scores,
            error: error.0.then_some(error.1),
            endpoint: endpoint.0.then_some(endpoint.1),
            version: version.0.then_some(version.1),
            counters: None,
            degraded,
            overloaded,
        };
        let back = decode_response_payload(&encode_response_payload(&resp)).expect("decodable");
        prop_assert_eq!(resp, back);
    }

}

/// A predictor with a visible formula, so expected scores can be
/// computed independently of the serving path.
struct AffineSummer;
impl Servable for AffineSummer {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        let xs = table
            .column("x")
            .ok_or_else(|| "missing x".to_string())?
            .to_f64_vec()
            .map_err(|e| e.to_string())?;
        let ys = table
            .column("y")
            .ok_or_else(|| "missing y".to_string())?
            .to_f64_vec()
            .map_err(|e| e.to_string())?;
        Ok(xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| 3.0 * x - 0.5 * y + 1.0)
            .collect())
    }
}

fn wire_row(x: f64, y: f64) -> WireRow {
    vec![
        ("x".to_string(), Value::Float(x)),
        ("y".to_string(), Value::Float(y)),
    ]
}

/// One of two identical runtimes: one endpoint, two shards, two
/// workers.
fn twin_runtime() -> ServingRuntime {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("affine", Arc::new(AffineSummer)).shards(2);
    b.build().expect("runtime builds")
}

/// Rows, then picks of endpoint and version, a pick that is 0 for a
/// counters probe, and a key.
type FrameSpec = (Vec<(f64, f64)>, usize, usize, usize, Option<String>);

fn frame(id: u64, (rows, endpoint, version, control, key): FrameSpec) -> Request {
    Request {
        id,
        rows: rows.iter().map(|&(x, y)| wire_row(x, y)).collect(),
        endpoint: [None, Some("affine"), Some("nonesuch")][endpoint].map(str::to_string),
        version: [None, Some(1), Some(2), Some(9)][version],
        key,
        forwarded: false,
        control: (control == 0).then_some(willump_serve::ControlRequest::Counters),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The typed call and a wire2 frame answer alike: one runtime takes
    /// a sequence of requests through `call`, its twin behind a node
    /// takes the same sequence as wire2 frames, and every response
    /// matches field for field, scores bit for bit. The twins route in
    /// step (round-robin cursors), so the sequence covers keyed and
    /// unkeyed requests, unknown endpoints, the pinned version and
    /// unserved ones, and counters probes.
    #[test]
    fn typed_call_answers_like_a_wire2_frame(
        frames in prop::collection::vec(
            (
                prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 0..4),
                0usize..3,
                0usize..4,
                0usize..4,
                prop::option::of(".{1,6}"),
            ),
            1..12,
        ),
    ) {
        let typed_rt = twin_runtime();
        let typed_client = typed_rt.client();
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", twin_runtime()).expect("node binds");
        let wire_client =
            RemoteWorker::new(&node.local_addr().to_string()).with_timeout(Duration::from_secs(5));
        for (i, spec) in frames.into_iter().enumerate() {
            let req = frame(i as u64 + 1, spec);
            let framed = wire_client.forward_request(&req).expect("the node answers").response;
            let typed = typed_client.call(req).expect("typed call answers");
            let bits = |r: &Response| r.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&typed), bits(&framed));
            prop_assert_eq!(typed, framed);
        }
    }
}

/// Coalesced multi-request batches must score identically to
/// sequential single-request serving: pile concurrent requests behind
/// a slow first call so they merge, then compare every score against
/// the sequential answer bit-for-bit.
#[test]
fn coalesced_batches_equal_sequential_serving() {
    struct Slowed<S>(S, Duration);
    impl<S: Servable> Servable for Slowed<S> {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            std::thread::sleep(self.1);
            self.0.predict_table(table)
        }
    }

    // Sequential reference: one request at a time, coalescing moot.
    let sequential = one_endpoint(Arc::new(AffineSummer), ServerConfig::default());
    let seq_client = sequential.client();
    let inputs: Vec<Vec<(f64, f64)>> = (0..12)
        .map(|t| {
            (0..=(t % 3))
                .map(|r| (t as f64 + r as f64 * 0.25, 2.0 - t as f64 * 0.5))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<f64>> = inputs
        .iter()
        .map(|req| {
            seq_client
                .predict(req.iter().map(|&(x, y)| wire_row(x, y)).collect())
                .expect("sequential serving succeeds")
        })
        .collect();

    // Concurrent: same requests, forced to pile up and coalesce. With a
    // single worker there is a single execution slot, which the slow
    // first call holds on its caller's thread, so the pile-up lands on
    // one queue.
    let server = one_endpoint(
        Arc::new(Slowed(AffineSummer, Duration::from_millis(400))),
        ServerConfig::default(),
    );
    let results: Vec<Vec<f64>> = std::thread::scope(|s| {
        let blocker = server.client();
        let warm = s.spawn(move || blocker.predict(vec![wire_row(0.0, 0.0)]));
        // Generous margin: the 12 clients only need to enqueue while
        // the blocker holds the slot for 400ms.
        std::thread::sleep(Duration::from_millis(100));
        let handles: Vec<_> = inputs
            .iter()
            .map(|req| {
                let client = server.client();
                s.spawn(move || {
                    client
                        .predict(req.iter().map(|&(x, y)| wire_row(x, y)).collect())
                        .expect("concurrent serving succeeds")
                })
            })
            .collect();
        warm.join().unwrap().unwrap();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(results, expected);
    // The pile-up really did merge requests into model-level batches.
    assert!(
        server.stats().coalesced_rows() > 0,
        "no coalescing happened: {:?}",
        server.stats()
    );
}

/// At most `workers` predictions run at once, whether worker threads or
/// their callers run them: eight callers on two workers, held inside
/// the servable until all eight are admitted, never overlap more than
/// two `predict_table` calls, and the requests that found no free slot
/// queue and coalesce.
#[test]
fn at_most_workers_predictions_run_at_once() {
    struct Gated {
        running: AtomicUsize,
        peak: AtomicUsize,
        open: (Mutex<bool>, Condvar),
    }
    impl Servable for Gated {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            let (open, opened) = &self.open;
            drop(opened.wait_while(open.lock().unwrap(), |open| !*open));
            let scores = AffineSummer.predict_table(table);
            self.running.fetch_sub(1, Ordering::SeqCst);
            scores
        }
    }
    let gated = Arc::new(Gated {
        running: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
        open: (Mutex::new(false), Condvar::new()),
    });
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("gated", Arc::clone(&gated) as Arc<dyn Servable>)
        .shards(2);
    let runtime = b.build().expect("runtime builds");

    std::thread::scope(|s| {
        let callers: Vec<_> = (0..8)
            .map(|i| {
                let client = runtime.client();
                s.spawn(move || {
                    let x = f64::from(i);
                    let rows = vec![wire_row(x, 1.0)];
                    let scores = client.predict_endpoint("gated", rows).expect("served");
                    assert_eq!(scores, vec![3.0 * x - 0.5 + 1.0], "caller {i}");
                })
            })
            .collect();
        while runtime.stats().requests() < 8 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Generous margin for the last admitted callers to reach a
        // queue: a few microseconds of routing each.
        std::thread::sleep(Duration::from_millis(100));
        *gated.open.0.lock().unwrap() = true;
        gated.open.1.notify_all();
        for caller in callers {
            caller.join().unwrap();
        }
    });

    let peak = gated.peak.load(Ordering::SeqCst);
    assert!((1..=2).contains(&peak), "{peak} predictions ran at once");
    let stats = runtime.stats();
    assert!(stats.coalesced_rows() > 0, "no coalescing: {stats:?}");
    assert_eq!(stats.worker_batches().iter().sum::<u64>(), stats.batches());
}

/// Synthetic two-feature-generator workload shared by the plan-serving
/// tests: FG0 carries the easy signal, FG1 is needed for hard rows.
mod plan_fixture {
    use std::sync::Arc;
    use willump_data::{Column, Table};
    use willump_graph::{EngineMode, Executor, GraphBuilder, Operator};
    use willump_models::{LogisticParams, ModelSpec, TrainedModel};

    pub fn executor() -> Executor {
        let mut b = GraphBuilder::new();
        let a = b.source("a");
        let c = b.source("b");
        let f0 = b.add("f0", Operator::NumericColumn, [a]).unwrap();
        let f1 = b.add("f1", Operator::NumericColumn, [c]).unwrap();
        let graph = Arc::new(b.finish_with_concat("cat", [f0, f1]).unwrap());
        Executor::new(graph, EngineMode::Compiled).unwrap()
    }

    pub fn table(n: usize) -> (Table, Vec<f64>) {
        let mut avals = Vec::new();
        let mut bvals = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let y = (i % 2) as f64;
            let jitter = i as f64 * 1e-4;
            if i % 3 != 0 {
                avals.push(if y > 0.5 { 3.0 + jitter } else { -3.0 - jitter });
                bvals.push(jitter);
            } else {
                avals.push(jitter * 0.1);
                bvals.push(if y > 0.5 { 2.0 + jitter } else { -2.0 - jitter });
            }
            labels.push(y);
        }
        let mut t = Table::new();
        t.add_column("a", Column::from(avals)).unwrap();
        t.add_column("b", Column::from(bvals)).unwrap();
        (t, labels)
    }

    pub fn models(exec: &Executor, t: &Table, y: &[f64]) -> (Arc<TrainedModel>, Arc<TrainedModel>) {
        let full_feats = exec.features_batch(t, None).unwrap();
        let full = Arc::new(
            ModelSpec::Logistic(LogisticParams::default())
                .fit(&full_feats, y, 1)
                .unwrap(),
        );
        let eff_feats = exec.features_batch(t, Some(&[0])).unwrap();
        let small = Arc::new(
            ModelSpec::Logistic(LogisticParams::default())
                .fit(&eff_feats, y, 1)
                .unwrap(),
        );
        (small, full)
    }
}

/// THE acceptance test for the multi-endpoint redesign: one
/// `ServingRuntime` serves a cascade plan and a top-K plan as two
/// named endpoints with two shards each, behind one client — and for
/// each, the answer is bit-identical to running the same plan
/// directly.
#[test]
fn runtime_serves_two_endpoints_identically_to_their_plans() {
    use willump::{ServingPlan, TopKConfig};

    let exec = plan_fixture::executor();
    let (t, y) = plan_fixture::table(200);
    let (small, full) = plan_fixture::models(&exec, &t, &y);

    let cascade =
        ServingPlan::cascade(exec.clone(), small.clone(), full.clone(), 0.9, vec![0]).unwrap();
    let topk =
        ServingPlan::top_k_filter(exec, small, full, 10, TopKConfig::default(), vec![0]).unwrap();

    // One runtime, two named endpoints, two shards each.
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.plan("cascade", cascade.clone()).shards(2);
    b.plan("topk", topk.clone()).shards(2);
    let runtime = b.build().expect("runtime builds");
    assert_eq!(runtime.endpoints().len(), 2);
    assert!(runtime.endpoints().iter().all(|e| e.shards() == 2));

    let client = runtime.client();
    let rows: Vec<WireRow> = (0..t.n_rows())
        .map(|r| willump_serve::table_row_to_wire(&t, r).unwrap())
        .collect();

    let rt_cascade = client
        .predict_endpoint("cascade", rows.clone())
        .expect("runtime cascade serves");
    let rt_topk = client
        .predict_endpoint("topk", rows.clone())
        .expect("runtime topk serves");
    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&rt_cascade), bits(&cascade.predict_batch(&t).unwrap()));
    assert_eq!(bits(&rt_topk), bits(&topk.predict_batch(&t).unwrap()));

    // Both endpoints really served through the one runtime.
    assert_eq!(runtime.stats().requests(), 2);
    assert_eq!(
        runtime.endpoint("cascade", 1).unwrap().stats().requests(),
        1
    );
    assert_eq!(runtime.endpoint("topk", 1).unwrap().stats().requests(), 1);
}

/// Per-endpoint counters must sum to the global counters under
/// concurrent clients hitting different endpoints.
#[test]
fn endpoint_stats_sum_to_global_stats_under_concurrency() {
    struct Scale(f64);
    impl Servable for Scale {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            let xs = table
                .column("x")
                .ok_or("missing x")?
                .to_f64_vec()
                .map_err(|e| e.to_string())?;
            Ok(xs.into_iter().map(|x| x * self.0).collect())
        }
    }
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(3).build());
    b.endpoint("double", Arc::new(Scale(2.0))).shards(3);
    b.endpoint("triple", Arc::new(Scale(3.0))).shards(2);
    let runtime = b.build().unwrap();

    std::thread::scope(|s| {
        for t in 0..6 {
            let client = runtime.client();
            s.spawn(move || {
                let (name, factor) = if t % 2 == 0 {
                    ("double", 2.0)
                } else {
                    ("triple", 3.0)
                };
                for i in 0..20 {
                    let x = (t * 20 + i) as f64;
                    let rows = vec![vec![("x".to_string(), Value::Float(x))]];
                    let scores = client
                        .predict_keyed(name, &format!("k{t}-{i}"), rows)
                        .unwrap();
                    assert_eq!(scores, vec![factor * x]);
                }
            });
        }
    });

    let global = runtime.stats();
    assert_eq!(global.requests(), 120);
    assert_eq!(global.rows(), 120);
    let per_endpoint: Vec<_> = runtime.endpoints();
    let req_sum: u64 = per_endpoint.iter().map(|e| e.stats().requests()).sum();
    let row_sum: u64 = per_endpoint.iter().map(|e| e.stats().rows()).sum();
    assert_eq!(req_sum, global.requests());
    assert_eq!(row_sum, global.rows());
    // Shard counters sum to their endpoint's request counter.
    for e in &per_endpoint {
        assert_eq!(
            e.stats().shard_requests().iter().sum::<u64>(),
            e.stats().requests(),
            "endpoint {}",
            e.name()
        );
    }
    // Worker iteration counters stay consistent too.
    assert_eq!(
        global.worker_batches().iter().sum::<u64>(),
        global.batches()
    );

    // The one-call aggregate view reconciles with both the global
    // counters and a hand-rolled per-endpoint merge.
    let summed = runtime.summed_endpoint_stats();
    assert_eq!(summed.requests, global.requests());
    assert_eq!(summed.rows, global.rows());
    assert_eq!(summed.shard_requests, global.requests());
    assert_eq!(summed.shed, 0);
    let by_hand = per_endpoint
        .iter()
        .map(|e| e.stats().snapshot())
        .fold(EndpointStatsSnapshot::default(), |acc, s| acc.merged(&s));
    assert_eq!(summed, by_hand);
    assert_eq!(
        summed.max_batch_rows,
        per_endpoint
            .iter()
            .map(|e| e.stats().max_batch_rows())
            .max()
            .unwrap_or(0),
        "max_batch_rows merges as a high-water mark, not a sum"
    );
}

/// The serialized stats snapshots keep their keys and key order:
/// exporters and remote peers read them by name.
#[test]
fn stats_snapshot_json_keys_are_stable() {
    assert_eq!(
        serde_json::to_string(&willump_serve::ServerStatsSnapshot::default()).unwrap(),
        "{\"requests\":0,\"rows\":0,\"batches\":0,\"decode_errors\":0,\"route_errors\":0,\
         \"coalesced_rows\":0,\"max_batch_rows\":0,\"remote_forwards\":0,\
         \"remote_bytes_sent\":0,\"remote_bytes_received\":0,\"remote_max_in_flight\":0,\
         \"transport_errors\":0,\"failovers\":0,\"degraded\":0,\"shed\":0,\
         \"probes_sent\":0,\"probes_ok\":0,\"worker_batches\":[]}"
    );
    assert_eq!(
        serde_json::to_string(&EndpointStatsSnapshot::default()).unwrap(),
        "{\"requests\":0,\"rows\":0,\"coalesced_rows\":0,\"max_batch_rows\":0,\
         \"shard_requests\":0,\"shard_transport_nanos\":0,\"remote_bytes_sent\":0,\
         \"remote_bytes_received\":0,\"remote_max_in_flight\":0,\"transport_errors\":0,\
         \"failovers\":0,\"degraded\":0,\"shed\":0,\"probes_sent\":0,\
         \"probes_ok\":0}"
    );
    assert_eq!(
        serde_json::to_string(&willump::PlanCountersSnapshot::default()).unwrap(),
        "{\"rows\":0,\"gate_resolved\":0,\"escalated\":0,\"filter_dropped\":0}"
    );
}

/// Same routing key, same shard — across many concurrent requests —
/// while distinct keys spread over multiple shards.
#[test]
fn shard_routing_is_sticky_per_key() {
    struct Echo;
    impl Servable for Echo {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            Ok(vec![1.0; table.n_rows()])
        }
    }
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(4).build());
    b.endpoint("e", Arc::new(Echo)).shards(4);
    let runtime = b.build().unwrap();

    std::thread::scope(|s| {
        for _ in 0..4 {
            let client = runtime.client();
            s.spawn(move || {
                for i in 0..10 {
                    let rows = vec![vec![("x".to_string(), Value::Float(i as f64))]];
                    client.predict_keyed("e", "sticky-key", rows).unwrap();
                }
            });
        }
    });
    let ep = runtime.endpoint("e", 1).unwrap();
    let per_shard = ep.stats().shard_requests();
    assert_eq!(per_shard.iter().sum::<u64>(), 40);
    assert_eq!(
        per_shard.iter().filter(|&&c| c > 0).count(),
        1,
        "one key must stick to one shard: {per_shard:?}"
    );

    // Distinct keys spread: 64 keys over 4 shards hit more than one.
    let client = runtime.client();
    for i in 0..64 {
        let rows = vec![vec![("x".to_string(), Value::Float(i as f64))]];
        client
            .predict_keyed("e", &format!("key-{i}"), rows)
            .unwrap();
    }
    let per_shard = ep.stats().shard_requests();
    assert!(
        per_shard.iter().filter(|&&c| c > 0).count() > 1,
        "distinct keys should spread: {per_shard:?}"
    );
}

/// A composed serving plan — cascade confidence gate + end-to-end
/// cache + top-K filter in ONE plan — served through the runtime
/// as a single `Servable`. This is the composition the pre-plan
/// wrapper structs could not express: scores cross the serving
/// boundary, repeats hit the shared cache, and the batch answer
/// matches a direct local run bit-for-bit.
#[test]
fn composed_plan_serves_through_clipper_server() {
    use willump::{ServingPlan, TopKConfig};
    use willump_serve::table_row_to_wire;

    let exec = plan_fixture::executor();
    // Every row gets a unique (a, b) pair, so the end-to-end cache
    // keys are one-per-row (duplicate keys would be legitimate but
    // make per-row repeat expectations ambiguous).
    let (t, y) = plan_fixture::table(200);
    let (small, full) = plan_fixture::models(&exec, &t, &y);

    // Cascade + e2e cache + top-K: one composed plan.
    let plan = ServingPlan::top_k_filter(exec, small, full, 10, TopKConfig::default(), vec![0])
        .unwrap()
        .with_confidence_gate(0.9)
        .unwrap()
        .with_e2e_cache(vec!["a".to_string(), "b".to_string()], None)
        .unwrap();

    // Local reference run, then serve the same batch through the
    // server (the plan clone shares the cache, so clear it first to
    // make the served run's hit pattern match the local one's).
    let local = plan.predict_batch(&t).unwrap();
    plan.clear_cache();

    let served_plan = plan.clone();
    let server = one_endpoint(
        Arc::new(served_plan),
        ServerConfig::builder().workers(2).build(),
    );
    let client = server.client();
    let rows: Vec<WireRow> = (0..t.n_rows())
        .map(|r| table_row_to_wire(&t, r).unwrap())
        .collect();
    let scores = client.predict(rows.clone()).unwrap();
    assert_eq!(scores, local);

    // The composed plan resolved rows through every mechanism.
    assert!(plan.counters().filter_dropped() > 0, "filter never ran");
    assert!(plan.counters().escalated() > 0, "nothing escalated");

    // Rows the filter kept were cached with their final (gate or full)
    // scores; filter-dropped rows were deliberately NOT cached (their
    // filter score is "not in the top K", not an answer). Warm the
    // remainder with a local run through the shared cache, then a
    // repeat request through the server must be answered entirely
    // from cache and match that warmed run exactly.
    let hits_before_warm = plan.cache_hits();
    let warmed = plan.predict_batch(&t).unwrap();
    assert!(
        plan.cache_hits() > hits_before_warm,
        "warm run should hit the kept candidates' cached scores"
    );
    let hits_before_repeat = plan.cache_hits();
    let again = client.predict(rows).unwrap();
    assert_eq!(again, warmed);
    assert!(
        plan.cache_hits() >= hits_before_repeat + t.n_rows() as u64,
        "repeat batch should hit the e2e cache for every row"
    );
    assert_eq!(server.stats().requests(), 2);
}

/// Shutting down under load: every admitted request is answered, and
/// late requests fail cleanly with `Disconnected` instead of hanging.
#[test]
fn shutdown_under_load_answers_admitted_requests() {
    let mut server = one_endpoint(
        Arc::new(AffineSummer),
        ServerConfig::builder().workers(3).build(),
    );
    let clients: Vec<_> = (0..6).map(|_| server.client()).collect();
    std::thread::scope(|s| {
        for (t, client) in clients.iter().enumerate() {
            s.spawn(move || {
                for i in 0..10 {
                    let x = (t * 10 + i) as f64;
                    match client.predict(vec![wire_row(x, 1.0)]) {
                        Ok(scores) => assert_eq!(scores, vec![3.0 * x - 0.5 + 1.0]),
                        // Acceptable once the gate has closed — but it
                        // must be an error, never a hang.
                        Err(willump_serve::ServeError::Disconnected) => {}
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(5));
        server.shutdown();
    });
    assert!(matches!(
        clients[0].predict(vec![wire_row(1.0, 1.0)]),
        Err(willump_serve::ServeError::Disconnected)
    ));
}
