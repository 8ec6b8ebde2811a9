//! Integration tests for the live ops surface (`StatsHub`): sample
//! coherence under concurrent load (property-based), deterministic
//! sampler scheduling through an injectable `ManualClock`, derived
//! event detection (topology, breakers, shed episodes), and THE soak
//! test — a full cluster lifecycle (kill → prober re-admission →
//! live drain under load → removal) reconstructed
//! purely from the hub's history and event feed, with no direct
//! runtime inspection in any assertion.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use willump::ManualClock;
use willump_data::{Table, Value};
use willump_serve::{
    AdmissionPolicy, BreakerState, ClusterConfig, ForwardReply, InProcessWorker, MonitorConfig,
    MonitorEvent, MonitorSample, RemoteRuntimeNode, RemoteWorker, Request, Servable, ServeError,
    ServerConfig, ServingRuntime, StatsHub, TimedEvent, TransportStats, WireRow, WorkerTransport,
};

/// Deterministic predictor shared with the cluster.rs suite.
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

/// A predictor with a fixed service time, for admission shedding.
struct SlowAffine(Duration);
impl Servable for SlowAffine {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        std::thread::sleep(self.0);
        Affine.predict_table(table)
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

/// A transport whose forwards block while `gate` reads true — it
/// pins a request in flight for as long as the test wants, making the
/// draining window deterministic instead of a race against how fast
/// the backend answers.
#[derive(Debug)]
struct GatedTransport {
    inner: InProcessWorker,
    gate: Arc<AtomicBool>,
    /// Forwards that have *entered* (whether or not they completed) —
    /// lets the test know a request is pinned behind the gate.
    entered: Arc<std::sync::atomic::AtomicU64>,
}

impl WorkerTransport for GatedTransport {
    fn forward_request(&self, req: &Request) -> Result<ForwardReply, ServeError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        while self.gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.inner.forward_request(req)
    }

    fn describe(&self) -> String {
        "gated-in-process".to_string()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// The cumulative (strictly additive) counter fields of a sample, in
/// a fixed order; high-water marks are excluded (they ratchet, but a
/// delta carries the later value rather than a difference, so they do
/// not telescope).
fn additive_counters(s: &MonitorSample) -> [u64; 15] {
    [
        s.server.requests,
        s.server.rows,
        s.server.batches,
        s.server.decode_errors,
        s.server.route_errors,
        s.server.coalesced_rows,
        s.server.remote_forwards,
        s.server.remote_bytes_sent,
        s.server.remote_bytes_received,
        s.server.transport_errors,
        s.server.failovers,
        s.server.degraded,
        s.server.shed,
        s.server.probes_sent,
        s.server.probes_ok,
    ]
}

/// The high-water-mark fields (monotone, non-telescoping).
fn watermark_counters(s: &MonitorSample) -> [u64; 2] {
    [s.server.max_batch_rows, s.server.remote_max_in_flight]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE sample-coherence property: while 4 client threads hammer a
    /// 2-local + 1-remote endpoint and a sampler thread races them
    /// with `sample_now`, every counter in consecutive hub samples is
    /// monotonically non-decreasing, sequence numbers are gapless,
    /// and the per-interval deltas telescope exactly: the first
    /// sample plus the sum of all deltas equals the final snapshot.
    #[test]
    fn samples_are_monotone_and_deltas_telescope(per_thread in 3usize..16) {
        let mut backend_builder = ServingRuntime::builder();
        backend_builder.config(ServerConfig::builder().workers(1).build());
        backend_builder.endpoint("affine", Arc::new(Affine)).shards(1);
        let backend = backend_builder.build().expect("backend builds");

        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(2).build());
        b.endpoint("affine", Arc::new(Affine))
            .shards(2)
            .shard_transport(Arc::new(InProcessWorker::new(&backend)));
        let runtime = b.build().expect("runtime builds");

        let hub = StatsHub::new(4_096);
        let _ = hub.sample_now(&runtime);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sampler_hub = hub.clone();
            let sampler_runtime = &runtime;
            let done = &done;
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let _ = sampler_hub.sample_now(sampler_runtime);
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            let clients: Vec<_> = (0..4u64)
                .map(|worker| {
                    let client = runtime.client();
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            let x = i as f64;
                            let scores = client
                                .predict_keyed(
                                    "affine",
                                    &format!("w{worker}-k{i}"),
                                    wire_rows(&[x]),
                                )
                                .expect("serving succeeds");
                            assert_eq!(scores, vec![3.0 * x - 1.0]);
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().expect("client thread completes");
            }
            // Only now may the sampler stop — it must have raced the
            // load, and the scope would deadlock on it otherwise.
            done.store(true, Ordering::Relaxed);
        });
        let last = hub.sample_now(&runtime);

        // Every offered request is accounted for in the final sample,
        // at both the server and the endpoint level.
        prop_assert_eq!(last.server.requests, 4 * per_thread as u64);
        let ep = last.endpoint("affine", 1).expect("endpoint sampled");
        prop_assert_eq!(ep.stats.requests, 4 * per_thread as u64);

        let samples = hub.samples();
        prop_assert!(samples.len() >= 2);
        for pair in samples.windows(2) {
            // Gapless, strictly increasing sequence; monotone clock.
            prop_assert_eq!(pair[1].seq, pair[0].seq + 1);
            prop_assert!(pair[1].at_nanos >= pair[0].at_nanos);
            // Every counter is monotonically non-decreasing.
            let (a, b) = (additive_counters(&pair[0]), additive_counters(&pair[1]));
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                prop_assert!(y >= x, "additive counter {i} regressed: {x} -> {y}");
            }
            let (a, b) = (watermark_counters(&pair[0]), watermark_counters(&pair[1]));
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                prop_assert!(y >= x, "watermark {i} regressed: {x} -> {y}");
            }
            let (pa, pb) = (
                pair[0].endpoint("affine", 1).expect("sampled"),
                pair[1].endpoint("affine", 1).expect("sampled"),
            );
            prop_assert!(pb.stats.requests >= pa.stats.requests);
            prop_assert!(pb.stats.rows >= pa.stats.rows);
        }

        // Telescoping: first + sum(deltas) == last, field for field.
        let first = &samples[0];
        let deltas = hub.deltas();
        prop_assert_eq!(deltas.len(), samples.len() - 1);
        let mut acc = additive_counters(first);
        let mut ep_requests = first.endpoint("affine", 1).expect("sampled").stats.requests;
        let mut elapsed = 0u64;
        for d in &deltas {
            for (a, x) in acc.iter_mut().zip(additive_counters(d)) {
                *a += x;
            }
            ep_requests += d.endpoint("affine", 1).expect("sampled").stats.requests;
            elapsed += d.at_nanos;
        }
        let final_sample = samples.last().expect("non-empty");
        prop_assert_eq!(acc, additive_counters(final_sample));
        prop_assert_eq!(
            ep_requests,
            final_sample.endpoint("affine", 1).expect("sampled").stats.requests
        );
        prop_assert_eq!(elapsed, final_sample.at_nanos - first.at_nanos);
    }
}

/// The background sampler ticks exactly when its injected
/// `ManualClock` says so: no samples while simulated time stands
/// still (however long the CI host stalls), one sample per advanced
/// interval, timestamps from the manual clock verbatim.
#[test]
fn background_sampler_is_driven_by_the_injected_clock() {
    let mut b = ServingRuntime::builder();
    b.endpoint("affine", Arc::new(Affine)).shards(1);
    let runtime = b.build().expect("runtime builds");

    let clock = Arc::new(ManualClock::new());
    let interval = Duration::from_millis(50);
    let handle = runtime.start_monitor(MonitorConfig {
        interval,
        history: 32,
        clock: Arc::clone(&clock) as Arc<dyn willump::Clock>,
    });
    let hub = handle.hub().clone();

    let wait_for_len = |n: usize| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while hub.samples().len() < n {
            assert!(
                Instant::now() < deadline,
                "sampler produced {} samples, wanted {n}",
                hub.samples().len()
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    };

    // The sampler takes its first sample immediately, at t = 0.
    wait_for_len(1);
    // Simulated time stands still: no further samples, no matter how
    // much real time passes.
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(hub.samples().len(), 1, "sampler ticked without the clock");

    clock.advance(u64::try_from(interval.as_nanos()).expect("fits"));
    wait_for_len(2);
    std::thread::sleep(Duration::from_millis(10));
    assert_eq!(hub.samples().len(), 2);

    clock.advance(u64::try_from(interval.as_nanos()).expect("fits"));
    wait_for_len(3);

    let hub = handle.stop();
    let samples = hub.samples();
    assert_eq!(
        samples.iter().map(|s| s.at_nanos).collect::<Vec<_>>(),
        vec![0, 50_000_000, 100_000_000],
        "timestamps must come from the manual clock verbatim"
    );
    assert_eq!(
        samples.iter().map(|s| s.seq).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    // The hub (and its history) outlives the sampler.
    assert_eq!(hub.latest().expect("sampled").seq, 2);
}

/// First sight of an endpoint baselines its topology silently; after
/// that, add and remove surface as events carrying the stable slot
/// id, and the ring bounds both histories without breaking sequence
/// numbers or the `events_since` cursor.
#[test]
fn topology_events_and_bounded_rings() {
    let mut backend_builder = ServingRuntime::builder();
    backend_builder
        .endpoint("affine", Arc::new(Affine))
        .shards(1);
    let backend = backend_builder.build().expect("backend builds");

    let mut b = ServingRuntime::builder();
    b.endpoint("affine", Arc::new(Affine))
        .shards(1)
        .shard_transport(Arc::new(InProcessWorker::new(&backend)));
    let runtime = b.build().expect("runtime builds");

    let hub = StatsHub::new(3);
    assert_eq!(hub.history(), 3);
    // Steady state is not an event: the pre-existing remote slot is
    // baselined silently.
    let first = hub.sample_now(&runtime);
    assert_eq!(
        first.endpoint("affine", 1).expect("sampled").shards.len(),
        1
    );
    assert!(hub.events().is_empty(), "{:?}", hub.events());

    // Add → ShardAdded, remove → ShardRemoved, same stable slot id.
    let shard = runtime
        .add_remote_shard("affine", 1, Arc::new(InProcessWorker::new(&backend)))
        .expect("attach");
    let sample = hub.sample_now(&runtime);
    let added_slot = sample
        .endpoint("affine", 1)
        .expect("sampled")
        .shards
        .iter()
        .find(|s| s.shard == shard)
        .expect("new slot sampled")
        .slot_id;
    runtime.remove_shard("affine", 1, shard).expect("detach");
    let _ = hub.sample_now(&runtime);

    let events = hub.events();
    assert!(
        events.iter().any(|e| matches!(
            &e.event,
            MonitorEvent::ShardAdded { endpoint, slot_id, .. }
                if endpoint == "affine" && *slot_id == added_slot
        )),
        "{events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            &e.event,
            MonitorEvent::ShardRemoved { endpoint, slot_id, .. }
                if endpoint == "affine" && *slot_id == added_slot
        )),
        "{events:?}"
    );
    let added_seq = events
        .iter()
        .find(|e| matches!(&e.event, MonitorEvent::ShardAdded { .. }))
        .expect("added event")
        .seq;
    assert_eq!(
        hub.events_since(added_seq + 1).len(),
        events.len() - added_seq as usize - 1
    );

    // Churn add/remove well past both ring bounds: the sample ring
    // keeps the newest `history`, the event ring `history * 4`, and
    // sequence numbers stay gapless.
    for _ in 0..8 {
        let shard = runtime
            .add_remote_shard("affine", 1, Arc::new(InProcessWorker::new(&backend)))
            .expect("attach");
        let _ = hub.sample_now(&runtime);
        runtime.remove_shard("affine", 1, shard).expect("detach");
        let _ = hub.sample_now(&runtime);
    }
    let samples = hub.samples();
    assert_eq!(samples.len(), 3);
    assert!(samples.windows(2).all(|w| w[1].seq == w[0].seq + 1));
    assert_eq!(hub.latest().expect("sampled").seq, 18);
    assert_eq!(hub.deltas().len(), 2);
    let events = hub.events();
    assert_eq!(events.len(), 3 * 4, "event ring must bound at history x 4");
    assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
}

/// A delta differences each remote shard's transport counters against
/// the same slot in the earlier sample, like every other cumulative
/// counter.
#[test]
fn shard_transport_counters_are_differenced_per_slot() {
    let mut backend_builder = ServingRuntime::builder();
    backend_builder.endpoint("affine", Arc::new(Affine));
    let backend = backend_builder.build().expect("backend builds");

    let mut b = ServingRuntime::builder();
    b.endpoint("affine", Arc::new(Affine))
        .shards(0)
        .shard_transport(Arc::new(InProcessWorker::new(&backend)));
    let runtime = b.build().expect("runtime builds");
    let client = runtime.client();
    let send = |n: usize| {
        for i in 0..n {
            client
                .predict_endpoint("affine", wire_rows(&[i as f64]))
                .expect("remote shard serves");
        }
    };

    let hub = StatsHub::new(8);
    send(3);
    let _ = hub.sample_now(&runtime);
    send(2);
    let _ = hub.sample_now(&runtime);

    let deltas = hub.deltas();
    let shards = &deltas[0].endpoint("affine", 1).expect("sampled").shards;
    assert_eq!(shards.len(), 1);
    assert_eq!(shards[0].stats.forwards, 2, "{:?}", shards[0].stats);
}

/// Shed episodes are derived from the endpoint's shed counter alone:
/// a still → moving edge starts one, a full still interval ends it,
/// and the episode's shed total matches the counter delta exactly.
#[test]
fn shed_episode_events_bracket_the_overload() {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(1).build());
    b.admission(AdmissionPolicy::with_slo_p99(Duration::from_micros(10)).min_samples(4));
    b.endpoint("slow", Arc::new(SlowAffine(Duration::from_millis(3))));
    let runtime = b.build().expect("runtime builds");
    let client = runtime.client();
    let hub = StatsHub::new(64);
    let _ = hub.sample_now(&runtime);

    // Warm the latency estimator below min_samples: all admitted.
    for i in 0..4 {
        client
            .predict_endpoint("slow", wire_rows(&[i as f64]))
            .expect("warm-up admitted");
    }
    let _ = hub.sample_now(&runtime);
    assert!(hub.events().is_empty(), "no shed yet: {:?}", hub.events());

    // With observed p99 ~3ms against a 10µs SLO, every further
    // request sheds deterministically.
    let mut shed_sent = 0u64;
    for i in 0..3 {
        let resp = client
            .call(Request {
                endpoint: Some("slow".to_string()),
                ..Request::new(100 + i, wire_rows(&[1.0]))
            })
            .expect("shed responses still answer");
        assert!(resp.overloaded, "expected shed, got {resp:?}");
        shed_sent += 1;
    }
    let _ = hub.sample_now(&runtime);
    assert!(
        hub.events().iter().any(|e| matches!(
            &e.event,
            MonitorEvent::ShedStarted { endpoint, version } if endpoint == "slow" && *version == 1
        )),
        "{:?}",
        hub.events()
    );

    // More sheds inside the same episode: no second ShedStarted.
    for i in 0..2 {
        let resp = client
            .call(Request {
                endpoint: Some("slow".to_string()),
                ..Request::new(200 + i, wire_rows(&[1.0]))
            })
            .expect("shed responses still answer");
        assert!(resp.overloaded);
        shed_sent += 1;
    }
    let _ = hub.sample_now(&runtime);
    let started = hub
        .events()
        .iter()
        .filter(|e| matches!(&e.event, MonitorEvent::ShedStarted { .. }))
        .count();
    assert_eq!(started, 1, "one episode, one start: {:?}", hub.events());

    // A full still interval ends the episode, reporting its total.
    let _ = hub.sample_now(&runtime);
    let events = hub.events();
    let end = events
        .iter()
        .find_map(|e| match &e.event {
            MonitorEvent::ShedEnded {
                endpoint,
                version,
                shed,
            } if endpoint == "slow" && *version == 1 => Some(*shed),
            _ => None,
        })
        .expect("episode must end after a still interval");
    assert_eq!(end, shed_sent);
    // Reconstructable from samples too: the final sample's shed
    // counter carries the same total.
    assert_eq!(hub.latest().expect("sampled").server.shed, shed_sent);
}

/// THE soak test: a full cluster lifecycle — node death, breaker
/// opening, prober re-admission, live drain under load, removal —
/// each phase surfacing as the correct `MonitorEvent` sequence,
/// reconstructed purely from `StatsHub` history and events.
/// Not one assertion reads the runtime's own stats.
#[test]
fn soak_full_lifecycle_is_reconstructable_from_the_hub_alone() {
    let mut node = spawn_node("affine", 2);
    let addr_a = node.local_addr().to_string();

    // Long-cooldown breakers: only the prober may re-admit.
    let long = Duration::from_secs(600);
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint("affine", Arc::new(Affine))
        .shards(2)
        .shard_transport(Arc::new(
            RemoteWorker::new(&addr_a)
                .with_timeout(Duration::from_secs(2))
                .with_breaker(2, long),
        ))
        .shard_transport(Arc::new(
            RemoteWorker::new(&addr_a)
                .with_timeout(Duration::from_secs(2))
                .with_breaker(2, long),
        ));
    let runtime = b.build().expect("runtime builds");
    let client = runtime.client();
    let cluster = runtime.start_cluster(ClusterConfig {
        probe_interval: Duration::from_millis(10),
        ..ClusterConfig::default()
    });
    let monitor = runtime.start_monitor(MonitorConfig {
        interval: Duration::from_millis(5),
        history: 4_096,
        ..MonitorConfig::default()
    });
    let hub = monitor.hub().clone();

    let wait_for_event = |what: &str, pred: &dyn Fn(&TimedEvent) -> bool| -> u64 {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            if let Some(e) = hub.events().iter().find(|e| pred(e)) {
                return e.seq;
            }
            assert!(
                Instant::now() < deadline,
                "no `{what}` event within 15s; feed: {:?}",
                hub.events()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // ---- phase 1: steady state ------------------------------------
    let remote_key = key_for_shard(2, 4);
    for i in 0..4 {
        client
            .predict_keyed("affine", &remote_key, wire_rows(&[i as f64]))
            .expect("steady state serves");
    }
    let phase1 = hub.sample_now(&runtime);
    assert_eq!(phase1.server.failovers, 0, "no failovers in steady state");
    assert!(phase1.server.remote_forwards >= 1, "remote shard served");

    // ---- phase 2: node death → breakers open ----------------------
    node.shutdown();
    for i in 0..3 {
        client
            .predict_keyed("affine", &remote_key, wire_rows(&[i as f64]))
            .expect("fail-over keeps serving");
    }
    let opened_seq = wait_for_event("breaker-opened", &|e| {
        matches!(
            &e.event,
            MonitorEvent::BreakerTransition { endpoint, from, to, .. }
                if endpoint == "affine" && *from == BreakerState::Closed && *to != BreakerState::Closed
        )
    });
    let phase2 = hub.sample_now(&runtime);
    assert!(
        phase2.server.failovers >= phase1.server.failovers + 3,
        "the death phase must show up as failovers in the samples: {} -> {}",
        phase1.server.failovers,
        phase2.server.failovers
    );

    // ---- phase 3: recovery → prober re-admission ------------------
    let node2 = respawn_node_at(&addr_a, "affine", 2);
    let closed_seq = wait_for_event("breaker-closed", &|e| {
        e.seq > opened_seq
            && matches!(
                &e.event,
                MonitorEvent::BreakerTransition { endpoint, to, .. }
                    if endpoint == "affine" && *to == BreakerState::Closed
            )
    });
    let phase3 = hub.sample_now(&runtime);
    assert!(
        phase3.server.probes_ok > phase2.server.probes_ok,
        "re-admission must show as successful probes in the samples"
    );

    // The prober has done its job; stop it so the gated transport
    // below cannot stall a probe sweep.
    cluster.stop();

    // ---- phase 4: live drain under load ---------------------------
    let mut backend_builder = ServingRuntime::builder();
    backend_builder
        .endpoint("affine", Arc::new(Affine))
        .shards(1);
    let backend = backend_builder.build().expect("backend builds");
    let gate = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let gated_shard = runtime
        .add_remote_shard(
            "affine",
            1,
            Arc::new(GatedTransport {
                inner: InProcessWorker::new(&backend),
                gate: Arc::clone(&gate),
                entered: Arc::clone(&entered),
            }),
        )
        .expect("gated shard attaches");
    assert_eq!(gated_shard, 4);
    let added_sample = hub.sample_now(&runtime);
    let gated_slot = added_sample
        .endpoint("affine", 1)
        .expect("sampled")
        .shards
        .iter()
        .find(|s| s.description == "gated-in-process")
        .expect("gated slot sampled")
        .slot_id;
    let added_seq = wait_for_event("gated-shard-added", &|e| {
        matches!(
            &e.event,
            MonitorEvent::ShardAdded { slot_id, .. } if *slot_id == gated_slot
        )
    });

    // Load runs throughout the drain; the gate pins one request in
    // flight on the draining slot so the draining window is real.
    let gated_key = key_for_shard(gated_shard, 5);
    let local_key = (0..10_000)
        .map(|i| format!("key-{i}"))
        .find(|k| willump_serve::shard_for_key(k, 5) < 2 && willump_serve::shard_for_key(k, 4) < 2)
        .expect("some key stays local across both domains");
    gate.store(true, Ordering::SeqCst);
    let stop_load = AtomicBool::new(false);
    // Failures inside the scope must release the gate *before* the
    // scope joins its threads, or a failed assertion would hang the
    // test on the still-pinned request — so poll without panicking,
    // record the failure, always release, and panic after the joins.
    let mut failure: Option<String> = None;
    std::thread::scope(|scope| {
        let pinned_client = runtime.client();
        let pinned_key = gated_key.clone();
        let pinned = scope.spawn(move || {
            pinned_client
                .predict_keyed("affine", &pinned_key, wire_rows(&[7.0]))
                .expect("the gated request completes after release")
        });
        let load_client = runtime.client();
        let load_key = &local_key;
        let stop_ref = &stop_load;
        let load = scope.spawn(move || {
            let mut served = 0u64;
            while !stop_ref.load(Ordering::Relaxed) {
                load_client
                    .predict_keyed("affine", load_key, wire_rows(&[1.0]))
                    .expect("no request may fail during a drain");
                served += 1;
            }
            served
        });
        // Wait until the pinned request is actually held behind the
        // gate before draining (transport counters only move on
        // completion, so the gate counts entries itself).
        let deadline = Instant::now() + Duration::from_secs(10);
        while entered.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if entered.load(Ordering::SeqCst) == 0 {
            failure = Some("pinned request never went in flight".to_string());
        }
        let drainer = if failure.is_none() {
            let drain_runtime = &runtime;
            Some(scope.spawn(move || {
                drain_runtime
                    .drain_shard("affine", 1, gated_shard, Duration::from_secs(30))
                    .expect("drain completes");
            }))
        } else {
            None
        };
        if failure.is_none() {
            // The gate holds the slot draining; the monitor must
            // observe the window before we release it.
            let deadline = Instant::now() + Duration::from_secs(15);
            let seen = |hub: &StatsHub| {
                hub.events().iter().any(|e| {
                    matches!(
                        &e.event,
                        MonitorEvent::ShardDraining { slot_id, .. } if *slot_id == gated_slot
                    )
                })
            };
            while !seen(&hub) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if !seen(&hub) {
                failure = Some(format!(
                    "draining window never observed; feed: {:?}",
                    hub.events()
                ));
            }
        }
        gate.store(false, Ordering::SeqCst);
        if let Some(drainer) = drainer {
            drainer.join().expect("drainer thread completes");
        }
        let pinned_scores = pinned.join().expect("pinned thread completes");
        if failure.is_none() && pinned_scores != vec![20.0] {
            failure = Some(format!(
                "zero in-flight loss violated: pinned request returned {pinned_scores:?}"
            ));
        }
        stop_load.store(true, Ordering::Relaxed);
        let served = load.join().expect("load thread completes");
        if failure.is_none() && served == 0 {
            failure = Some("background load never served during the drain".to_string());
        }
    });
    if let Some(failure) = failure {
        panic!("{failure}");
    }
    let drained_seq = wait_for_event("gated-shard-draining", &|e| {
        matches!(
            &e.event,
            MonitorEvent::ShardDraining { slot_id, .. } if *slot_id == gated_slot
        )
    });
    let removed_seq = wait_for_event("gated-shard-removed", &|e| {
        matches!(
            &e.event,
            MonitorEvent::ShardRemoved { slot_id, .. } if *slot_id == gated_slot
        )
    });

    // ---- the reconstruction: the whole story, in order, from the
    // ---- event feed alone -----------------------------------------
    assert!(
        opened_seq < closed_seq
            && closed_seq < added_seq
            && added_seq < drained_seq
            && drained_seq < removed_seq,
        "lifecycle out of order: open {opened_seq} < re-admit {closed_seq} < \
         add {added_seq} < drain {drained_seq} < remove {removed_seq}"
    );
    drop(monitor);
    drop(node2);
}
