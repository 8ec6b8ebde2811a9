//! The multi-endpoint serving runtime: named, shard-routed deployments
//! behind one worker pool.
//!
//! Paper Table 6 fronts one pipeline per Clipper deployment; here the
//! paper's six workloads — and the cascade / top-K / cached plan
//! variants of each — share one runtime, one endpoint per pipeline. A
//! [`ServingRuntime`] serves a **registry of endpoints**:
//!
//! - each endpoint has a **name** and serves exactly one **version**;
//!   a request may pin the version ([`crate::Request::version`]), and
//!   the response echoes the name and version that answered it;
//! - each endpoint is divided into **shards**: the runtime hashes a
//!   request's routing key ([`crate::Request::key`]) so equal keys
//!   always land on the same shard (unkeyed requests spread
//!   round-robin), and local shards are placed round-robin over the
//!   workers once, when the runtime is built;
//! - a **statistical admission layer** ([`AdmissionPolicy`], set with
//!   [`RuntimeBuilder::admission`]) keeps per-endpoint streaming
//!   telemetry — arrival rate (windowed EWMA), service-time quantiles
//!   (fixed-bucket latency histogram), and worker queue depth — and,
//!   when the estimated p99 breaches the configured SLO, first
//!   **degrades** plan endpoints to their small-model lowering
//!   ([`willump::ServingPlan::degraded`]) and only past the shed
//!   threshold **sheds** with an explicit
//!   [`Response::overloaded`] marker. Admission never re-routes: a
//!   keyed request lands on its key-hash shard however hot its key
//!   runs, so that shard's feature caches keep serving it.
//!
//! At most [`ServerConfig::workers`] predictions run at once, each
//! holding one of as many execution slots. While blocking in-process
//! callers number no more than the workers, a call whose routed worker
//! has nothing queued runs on the calling thread when a slot is free,
//! waking no thread; otherwise it is queued on its worker's queue, and
//! the runtime's threads (`willump-worker-{i}`, one per worker) keep
//! the coalescing behavior paper Table 6 measures: a free thread
//! drains a queue up to [`ServerConfig::max_batch_requests`] envelopes
//! and merges same-endpoint, same-schema requests into one
//! model-level `predict_table` call. A [`crate::RemoteRuntimeNode`]
//! lends its poll set to those threads and adds one more.
//!
//! Build a runtime with [`ServingRuntime::builder`]:
//!
//! ```text
//! let mut b = ServingRuntime::builder();
//! b.config(ServerConfig::builder().workers(4).build());
//! b.plan("music", cascade_plan).shards(4);
//! b.plan("toxic", topk_plan).shards(2);
//! let runtime = b.build()?;
//! let client = runtime.client();
//! let scores = client.predict_endpoint("music", rows)?;
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use willump::{LatencyHistogram, PlanCounters, PlanCountersSnapshot, RateEstimator};
use willump_data::{Column, DataType, Table};

use crate::protocol::{ControlRequest, EndpointCounters, Request, Response, WireRow};
use crate::remote::{BreakerState, EventLoop, RemoteWorker, TransportStats, WorkerTransport};
use crate::server::{Servable, ServerConfig};
use crate::ServeError;

/// The endpoint a request without [`Request::endpoint`] is routed to.
pub const DEFAULT_ENDPOINT: &str = "default";

/// Deterministic shard routing: hash a key onto one of `shards`
/// shards. Equal keys always map to equal shards; `shards <= 1`
/// always maps to shard 0.
#[must_use]
pub fn shard_for_key(key: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

// ---- statistics ----------------------------------------------------

/// `n` counters at zero.
fn zeroed(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

willump::counter_set! {
    /// Global server-side counters for a [`ServingRuntime`].
    #[derive(Debug)]
    pub struct ServerStats(workers: usize);

    /// Owned point-in-time copy of [`ServerStats`] (see
    /// [`ServerStats::snapshot`]), for export or before/after diffing.
    #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ServerStatsSnapshot {
        /// Requests received, including ones that failed to decode or
        /// route.
        sum requests,
        /// Total input rows across successfully decoded *and routed*
        /// requests (rows of requests addressing an unknown endpoint or
        /// version are not counted — see
        /// [`route_errors`](ServerStats::route_errors)).
        sum rows,
        /// Batches served (each handling >= 1 coalesced requests): worker
        /// iterations, plus requests their caller ran inline, which count
        /// as one batch of the worker they were routed to.
        sum batches,
        /// Request frames a [`crate::RemoteRuntimeNode`] serving this
        /// runtime could not decode; these are counted in
        /// [`requests`](ServerStats::requests) too and are answered with
        /// [`crate::ERROR_RESPONSE_ID`]. (The node's transport counters
        /// also count them, with its framing and preamble errors.)
        sum decode_errors,
        /// Well-formed requests addressing an unknown endpoint or version;
        /// counted in [`requests`](ServerStats::requests) too and answered
        /// with an error response echoing the request id.
        sum route_errors,
        /// Rows served through merged model batches spanning more than
        /// one request (0 until concurrency actually coalesces).
        sum coalesced_rows,
        /// Largest number of rows handed to a single successful
        /// `predict_table` call.
        peak max_batch_rows,
        /// Requests answered by a remote shard (successful
        /// [`crate::WorkerTransport`] forwards, including ones that
        /// succeeded only after fail-over to another remote shard).
        sum remote_forwards,
        /// Bytes written to remote-shard transports (0 for in-process
        /// transports, whose "wire" is a channel send).
        sum remote_bytes_sent,
        /// Bytes read back from remote-shard transports.
        sum remote_bytes_received,
        /// Peak number of remote forwards simultaneously in flight across
        /// all endpoints.
        peak remote_max_in_flight,
        /// Transport forwards that failed (each triggers fail-over; a
        /// request can count more than once when several shards fail).
        sum transport_errors,
        /// Requests re-routed to a surviving shard after their routed
        /// shard's transport failed.
        sum failovers,
        /// Requests served by an endpoint's *degraded* plan lowering
        /// because admission control judged the latency SLO at risk.
        sum degraded,
        /// Requests shed at admission with a [`Response::overloaded`]
        /// marker (no prediction ran; not counted in
        /// [`rows`](ServerStats::rows)).
        sum shed,
        /// Health probes sent by the cluster control plane (counter
        /// probes against open-breaker shards; never counted as
        /// [`remote_forwards`](ServerStats::remote_forwards)).
        sum probes_sent,
        /// Health probes the probed node answered (each closes the
        /// shard's circuit breaker, re-admitting the node).
        sum probes_ok,
        /// Batches served, one entry per worker (per worker queue).
        sum worker_batches: Vec<AtomicU64> = zeroed(workers)
            => Vec<u64> = |s| s.worker_batches(),
    }
}

impl ServerStats {
    /// [`batches`](ServerStats::batches) per worker, one entry per
    /// worker queue; they sum to `batches`.
    pub fn worker_batches(&self) -> Vec<u64> {
        self.worker_batches
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    pub(crate) fn record_probe(&self, ok: bool) {
        self.probes_sent.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.probes_ok.fetch_add(1, Ordering::Relaxed);
        }
    }
}

willump::counter_set! {
    /// Per-endpoint (name + version) serving counters.
    ///
    /// Per-shard views cover local shards (backed by fixed counters here)
    /// followed by the endpoint's **live** remote slots (counters ride on
    /// the live topology slot itself, so they follow the slot through
    /// drain/re-add instead of being pinned to a build-time index).
    #[derive(Debug)]
    pub struct EndpointStats(local_shards: usize, remote: Arc<RemoteTopology>) {
        /// The endpoint's remote slots, shared with [`Endpoint`] so
        /// per-shard views stay index-aligned with routing.
        remote: Arc<RemoteTopology> = remote,
    }

    /// Owned point-in-time copy of [`EndpointStats`], additive across
    /// endpoints via [`merged`](EndpointStatsSnapshot::merged) (see
    /// [`ServingRuntime::summed_endpoint_stats`]). Per-shard vectors are
    /// collapsed to totals so snapshots from endpoints with different
    /// shard counts still merge.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct EndpointStatsSnapshot {
        /// Requests routed to this endpoint.
        sum requests,
        /// Input rows routed to this endpoint.
        sum rows,
        /// Rows served through merged multi-request model batches.
        sum coalesced_rows,
        /// Largest successful `predict_table` batch for this endpoint.
        peak max_batch_rows,
        /// Shard-routed requests summed across shards.
        sum shard_requests: Vec<AtomicU64> = zeroed(local_shards)
            => u64 = |s| s.shard_requests().iter().sum(),
        /// Cumulative transport round-trip nanoseconds summed across
        /// shards.
        sum shard_transport_nanos: Vec<AtomicU64> = zeroed(local_shards)
            => u64 = |s| s.shard_transport_nanos().iter().sum(),
        /// Bytes written to this endpoint's remote-shard transports (0
        /// for in-process transports, whose "wire" is a channel send).
        sum remote_bytes_sent,
        /// Bytes read back from this endpoint's remote-shard transports.
        sum remote_bytes_received,
        /// Peak number of this endpoint's remote forwards simultaneously
        /// in flight.
        peak remote_max_in_flight,
        /// Failed transport forwards to this endpoint's remote shards.
        sum transport_errors,
        /// Requests re-routed to a surviving shard after a transport
        /// failure.
        sum failovers,
        /// Requests served by this endpoint's *degraded* plan lowering.
        sum degraded,
        /// Requests shed at admission (answered with
        /// [`Response::overloaded`], no prediction ran).
        sum shed,
        /// Health probes sent against this endpoint's remote shards.
        sum probes_sent,
        /// Health probes this endpoint's remote shards answered.
        sum probes_ok,
    }
}

impl EndpointStats {
    /// Requests per shard, local shards first then the current remote
    /// slots (shard-routing observability: equal keys increment
    /// exactly one entry). Remote entries follow their slot through
    /// topology changes, so the vector length tracks the live shard
    /// count.
    pub fn shard_requests(&self) -> Vec<u64> {
        let mut per_shard: Vec<u64> = self
            .shard_requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        per_shard.extend(
            self.remote
                .slots()
                .iter()
                .map(|s| s.requests.load(Ordering::Relaxed)),
        );
        per_shard
    }

    /// Cumulative transport round-trip nanoseconds per shard. Local
    /// shards (whose "transport" is an in-process queue hop measured
    /// inside worker batching instead) always read 0; remote shards
    /// accumulate the full forward latency.
    pub fn shard_transport_nanos(&self) -> Vec<u64> {
        let mut per_shard: Vec<u64> = self
            .shard_transport_nanos
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        per_shard.extend(
            self.remote
                .slots()
                .iter()
                .map(|s| s.transport_nanos.load(Ordering::Relaxed)),
        );
        per_shard
    }

    pub(crate) fn record_probe(&self, ok: bool) {
        self.probes_sent.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.probes_ok.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---- admission control ---------------------------------------------

/// Statistical admission control for a [`ServingRuntime`] (install
/// with [`RuntimeBuilder::admission`]).
///
/// The runtime keeps per-endpoint streaming telemetry — arrival rate
/// (windowed EWMA), service-time quantiles (fixed-bucket latency
/// histogram), and the routed worker's queue depth — and estimates
/// each request's p99 latency as `service_p99 x (queue_depth + 1)`
/// (every queued request is served before this one). Against the
/// configured SLO the policy acts in two bands:
///
/// 1. **Degrade** (`slo < estimate <= slo x shed_factor`): endpoints
///    with a degraded lowering ([`willump::ServingPlan::degraded`],
///    attached automatically by [`RuntimeBuilder::plan`]) serve the
///    request with the small model only — cheaper, never escalating —
///    and mark the response [`Response::degraded`].
/// 2. **Shed** (`estimate > slo x shed_factor`): the request is
///    answered immediately with [`Response::overloaded`] and an
///    explicit error; no prediction runs.
///
/// Admission never changes where a request goes: a keyed request
/// always lands on its key-hash shard, so the shard's feature caches
/// keep serving that key.
///
/// Decisions apply to locally-served traffic; requests routed to a
/// remote shard are forwarded and subject to the *remote* node's own
/// admission policy instead (its shed responses relay back verbatim).
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    slo_p99_nanos: u64,
    shed_factor: f64,
    min_samples: u64,
}

impl AdmissionPolicy {
    /// A policy targeting the given p99 latency SLO, with defaults:
    /// shed factor 2.0, 32 minimum samples.
    ///
    /// # Panics
    /// Panics on a zero SLO.
    #[must_use]
    pub fn with_slo_p99(slo: Duration) -> AdmissionPolicy {
        let nanos = u64::try_from(slo.as_nanos()).unwrap_or(u64::MAX);
        assert!(nanos > 0, "the p99 SLO must be positive");
        AdmissionPolicy {
            slo_p99_nanos: nanos,
            shed_factor: 2.0,
            min_samples: 32,
        }
    }

    /// Shed when the estimated p99 exceeds `factor x` the SLO
    /// (between 1x and `factor x`, degrade instead). Default 2.0.
    ///
    /// # Panics
    /// Panics for `factor < 1.0` (the shed band may not start below
    /// the degrade band).
    #[must_use]
    pub fn shed_factor(mut self, factor: f64) -> AdmissionPolicy {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "shed_factor must be >= 1.0, got {factor}"
        );
        self.shed_factor = factor;
        self
    }

    /// Minimum service-time observations before the policy degrades
    /// or sheds anything; until then it accepts. Default 32.
    #[must_use]
    pub fn min_samples(mut self, n: u64) -> AdmissionPolicy {
        self.min_samples = n;
        self
    }

    /// The configured p99 SLO in nanoseconds.
    #[must_use]
    pub fn slo_p99_nanos(&self) -> u64 {
        self.slo_p99_nanos
    }
}

/// Service-time histograms halve at this sample count, so quantiles
/// track the recent regime instead of averaging over all history.
const SERVICE_HISTORY_LIMIT: u64 = 8192;

/// Per-endpoint streaming telemetry backing admission decisions
/// (allocated only when the runtime has an [`AdmissionPolicy`]).
struct Telemetry {
    /// Arrival rate: windowed EWMA over admission timestamps.
    arrivals: Mutex<RateEstimator>,
    /// Service-time distribution of completed local predictions.
    service: Mutex<LatencyHistogram>,
}

impl Telemetry {
    fn new() -> Telemetry {
        Telemetry {
            // 100ms windows, EWMA alpha 0.3: fast enough to track a
            // load spike, smooth enough to ignore single-batch jitter.
            arrivals: Mutex::new(RateEstimator::new(100_000_000, 0.3)),
            // 26 exponential buckets from 1µs: covers ~1µs..34s.
            service: Mutex::new(LatencyHistogram::exponential(1_000, 2.0, 26)),
        }
    }
}

/// What the admission policy decided for one locally-routed request.
enum AdmissionDecision {
    Accept,
    Degrade,
    Shed,
}

// ---- remote shard slots --------------------------------------------

/// One live remote shard slot of an [`Endpoint`].
///
/// Slots are held by `Arc` everywhere they are touched — routing
/// snapshots, per-shard stats views, the cluster prober — so a slot
/// detached by [`ServingRuntime::remove_shard`] or
/// [`ServingRuntime::drain_shard`] stays fully valid for forwards
/// that already picked it: topology mutation can never invalidate
/// in-flight work.
pub(crate) struct RemoteShard {
    /// Process-wide unique slot id, stable for the slot's lifetime.
    /// Shard *indices* shift as slots splice in and out, so anything
    /// that diffs topology over time (the monitor's event detector)
    /// keys on this instead.
    pub(crate) id: u64,
    /// Transport reaching the remote node.
    pub(crate) transport: Arc<dyn WorkerTransport>,
    /// Last [`PlanCountersSnapshot`] fetched from the node (refreshed
    /// by [`ServingRuntime::refresh_remote_counters`] and by the
    /// cluster prober on successful health probes).
    pub(crate) counters: Mutex<PlanCountersSnapshot>,
    /// Requests routed to this slot (the dynamic analogue of the
    /// local fixed `shard_requests` entries).
    requests: AtomicU64,
    /// Cumulative forward round-trip nanoseconds.
    transport_nanos: AtomicU64,
    /// Forwards currently in flight on this slot
    /// ([`ServingRuntime::drain_shard`] waits for 0 before detaching).
    in_flight: AtomicUsize,
    /// A draining slot is excluded from new routing domains but keeps
    /// finishing in-flight work.
    draining: AtomicBool,
}

impl std::fmt::Debug for RemoteShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShard")
            .field("transport", &self.transport.describe())
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl RemoteShard {
    /// Whether the slot is excluded from new routing domains.
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    fn new(transport: Arc<dyn WorkerTransport>) -> RemoteShard {
        static NEXT_SLOT_ID: AtomicU64 = AtomicU64::new(0);
        RemoteShard {
            id: NEXT_SLOT_ID.fetch_add(1, Ordering::Relaxed),
            transport,
            counters: Mutex::new(PlanCountersSnapshot::default()),
            requests: AtomicU64::new(0),
            transport_nanos: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
        }
    }
}

/// The live remote-slot list of an endpoint, shared between the
/// [`Endpoint`] (routing) and its [`EndpointStats`] (per-shard views)
/// so both always index shards identically. The lock is only ever
/// held to copy or splice the `Arc` list — never across a transport
/// call (the lock-order deadlock detector enforces this in CI).
#[derive(Debug, Default)]
pub(crate) struct RemoteTopology {
    slots: RwLock<Vec<Arc<RemoteShard>>>,
}

impl RemoteTopology {
    /// All slots, including draining ones (stats/prober view).
    pub(crate) fn slots(&self) -> Vec<Arc<RemoteShard>> {
        self.slots.read().clone()
    }

    /// Slots admitting new work (routing view): draining slots are
    /// excluded, so the key-hash domain shrinks the instant a drain
    /// starts.
    fn active(&self) -> Vec<Arc<RemoteShard>> {
        self.slots
            .read()
            .iter()
            .filter(|s| !s.draining.load(Ordering::Relaxed))
            .cloned()
            .collect()
    }

    fn len(&self) -> usize {
        self.slots.read().len()
    }

    fn push(&self, slot: Arc<RemoteShard>) -> usize {
        let mut slots = self.slots.write();
        slots.push(slot);
        slots.len() - 1
    }

    /// Detach `slot` (matched by identity, so concurrent removals of
    /// other slots cannot shift it under us).
    fn remove(&self, slot: &Arc<RemoteShard>) -> bool {
        let mut slots = self.slots.write();
        match slots.iter().position(|s| Arc::ptr_eq(s, slot)) {
            Some(pos) => {
                slots.remove(pos);
                true
            }
            None => false,
        }
    }
}

// ---- endpoints -----------------------------------------------------

/// One registered endpoint: a named, sharded deployment of one
/// version of a [`Servable`].
///
/// Shards `0..local_shards` run on the runtime's own worker pool;
/// shards `local_shards..shards()` are **remote**, each backed by a
/// [`WorkerTransport`] (typically a [`RemoteWorker`] pointing at a
/// [`crate::RemoteRuntimeNode`] in another process). Key-hash routing
/// is uniform over all shards, so a key can stick to a remote shard
/// exactly as it sticks to a local one. The remote side is **live**:
/// [`ServingRuntime::add_remote_shard`], [`ServingRuntime::drain_shard`]
/// and [`ServingRuntime::remove_shard`] splice slots while serving,
/// and every request routes over a coherent snapshot of the slot
/// list.
pub struct Endpoint {
    name: String,
    version: u32,
    servable: Arc<dyn Servable>,
    /// Cheaper fallback (typically the plan's small-model lowering)
    /// served when admission control is in the degrade band.
    degraded_servable: Option<Arc<dyn Servable>>,
    /// Admission telemetry; present only when the runtime has an
    /// [`AdmissionPolicy`].
    telemetry: Option<Telemetry>,
    counters: Option<Arc<PlanCounters>>,
    /// Shards served by the runtime's own worker pool.
    local_shards: usize,
    /// Live remote shard slots (shared with [`EndpointStats`]).
    remote: Arc<RemoteTopology>,
    /// Local shard -> worker index, fixed when the runtime is built.
    assignment: Vec<usize>,
    /// Round-robin cursor for unkeyed plain requests (full domain).
    next_shard: AtomicUsize,
    /// Round-robin cursor for unkeyed forwarded frames (local-shard
    /// domain; separate so the two rotations cannot skew each other).
    next_forwarded: AtomicUsize,
    /// Round-robin cursor for fail-over re-routes onto local shards.
    next_failover: AtomicUsize,
    /// Remote forwards currently in flight (feeds the endpoint's
    /// `remote_max_in_flight` high-water mark).
    remote_in_flight: AtomicUsize,
    stats: EndpointStats,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("shards", &self.shards())
            .finish_non_exhaustive()
    }
}

impl Endpoint {
    /// The endpoint name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The endpoint version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Total number of shards (local + remote) at this instant; the
    /// remote side can change while serving.
    pub fn shards(&self) -> usize {
        self.local_shards + self.remote.len()
    }

    /// Shards served by this runtime's own worker pool (shard indices
    /// `0..local_shards()`).
    pub fn local_shards(&self) -> usize {
        self.local_shards
    }

    /// Shards served through a [`WorkerTransport`] (shard indices
    /// `local_shards()..shards()`) at this instant.
    pub fn remote_shards(&self) -> usize {
        self.remote.len()
    }

    /// Per-remote-shard transport counters, in shard order (empty for
    /// all-local endpoints).
    pub fn transport_stats(&self) -> Vec<TransportStats> {
        self.remote
            .slots()
            .iter()
            .map(|s| s.transport.stats())
            .collect()
    }

    /// Per-remote-shard circuit-breaker states, in shard order.
    pub fn transport_breaker_states(&self) -> Vec<BreakerState> {
        self.remote
            .slots()
            .iter()
            .map(|s| s.transport.breaker_state())
            .collect()
    }

    /// Per-remote-shard transport descriptions, in shard order.
    pub fn transport_descriptions(&self) -> Vec<String> {
        self.remote
            .slots()
            .iter()
            .map(|s| s.transport.describe())
            .collect()
    }

    /// Current remote slots, including draining ones (cluster-plane
    /// view).
    pub(crate) fn remote_slots(&self) -> Vec<Arc<RemoteShard>> {
        self.remote.slots()
    }

    /// Serving counters for this endpoint.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// The local-shard -> worker assignment (one entry per local
    /// shard; remote shards have no worker).
    pub fn assignment(&self) -> Vec<usize> {
        self.assignment.clone()
    }

    /// This endpoint's plan counters: the attached local
    /// [`PlanCounters`] merged with the last snapshot fetched from
    /// each remote shard (see
    /// [`ServingRuntime::refresh_remote_counters`]).
    pub fn merged_counters(&self) -> PlanCountersSnapshot {
        let local = self
            .counters
            .as_ref()
            .map_or_else(PlanCountersSnapshot::default, |c| c.snapshot());
        // Several shards may point at the SAME node (a node-wide
        // counters report per probe), so merge one snapshot per
        // distinct backend, not per shard — otherwise an N-shard
        // node's traffic would be weighed N-fold.
        let mut seen: Vec<String> = Vec::new();
        let mut acc = local;
        for slot in self.remote.slots() {
            let who = slot.transport.describe();
            if seen.contains(&who) {
                continue;
            }
            acc = acc.merged(&slot.counters.lock());
            seen.push(who);
        }
        acc
    }

    /// Whether admission control can degrade this endpoint instead of
    /// shedding (a degraded lowering is attached — automatic for
    /// [`RuntimeBuilder::plan`] endpoints whose plan
    /// [`can_degrade`](willump::ServingPlan::can_degrade)).
    pub fn can_degrade(&self) -> bool {
        self.degraded_servable.is_some()
    }

    /// Observed p99 service time of local predictions in nanoseconds
    /// (`None` without admission telemetry or completed predictions).
    pub fn service_p99_nanos(&self) -> Option<u64> {
        self.telemetry.as_ref().and_then(|t| t.service.lock().p99())
    }

    /// Smoothed arrival rate in requests/sec as of the last admitted
    /// request (0.0 without admission telemetry).
    pub fn arrival_rate(&self) -> f64 {
        self.telemetry
            .as_ref()
            .map_or(0.0, |t| t.arrivals.lock().rate_per_sec())
    }

    /// The servable that handles a job, honoring its degrade marker.
    fn active_servable(&self, degraded: bool) -> &Arc<dyn Servable> {
        if degraded {
            self.degraded_servable.as_ref().unwrap_or(&self.servable)
        } else {
            &self.servable
        }
    }
}

// ---- plumbing ------------------------------------------------------

/// A completion sink: called with the response on the thread that
/// produced it — a runtime thread, or the submitting thread itself
/// when admission answers — so it must not block. A sink dropped
/// without being called means the runtime shut down (or a predictor
/// panicked) before the request was answered.
pub(crate) type ResponseSink = Box<dyn Fn(Response) + Send>;

/// Where a routed job's response goes.
enum Reply {
    /// To the admitting caller, which blocks on the other end.
    Channel(SyncSender<Response>),
    /// Into a sink handed to [`Shared::submit`].
    Sink(ResponseSink),
}

/// A routed request, ready to serve.
pub(crate) struct RoutedJob {
    req: Request,
    entry: Arc<Endpoint>,
    /// Admission control put this request in the degrade band: serve
    /// it with the endpoint's degraded lowering. Only ever `true`
    /// when the endpoint has one.
    degraded: bool,
}

/// The runtime's queued work and the counts its threads go by, under
/// one lock ([`Shared::work`]).
///
/// A runtime thread that is free does the first of these that
/// applies: drain a worker queue that has requests while an execution
/// slot is free, coalescing what is queued there; forward a frame
/// routed onward (a round trip, which needs a thread but no slot);
/// take a node's poll set while nobody holds it; sleep on
/// [`Shared::wake`]. Whoever adds work that can start now wakes one
/// sleeping thread, so nothing that could start waits while a thread
/// sleeps; work that cannot start yet waits for the next thread that
/// finishes, which looks here before it sleeps.
struct Work {
    /// Per worker, the requests routed to its shards, oldest first.
    queues: Vec<VecDeque<(RoutedJob, Reply)>>,
    /// Execution slots nobody holds. A prediction runs — on a runtime
    /// thread, or inline on the thread that called — only while it
    /// holds one, so at most `workers` run at once, whoever runs them.
    free: usize,
    /// Frames routed onward to a remote shard, each waiting for a
    /// thread to forward it.
    onward: VecDeque<Forward>,
    /// A node's poll set while no thread holds it.
    poll: Option<EventLoop>,
    /// Threads asleep on `wake`.
    idle: usize,
    /// Shut down: nothing more is admitted, and the threads exit once
    /// what was admitted is served.
    closed: bool,
    /// The queue the next drain looks at first, so that one busy
    /// queue does not keep the others waiting.
    next: usize,
}

impl Work {
    /// A worker queue that has requests, when a slot is free to serve
    /// them.
    fn ready(&self) -> Option<usize> {
        let n = self.queues.len();
        if self.free == 0 {
            return None;
        }
        (0..n)
            .map(|i| (self.next + i) % n)
            .find(|&w| !self.queues[w].is_empty())
    }

    /// Whether anything admitted still waits for a thread.
    fn pending(&self) -> bool {
        !self.onward.is_empty() || self.queues.iter().any(|q| !q.is_empty())
    }
}

/// A held execution slot, given back on drop — also when a servable
/// panics — waking a sleeping thread when queued work was waiting for
/// a slot.
struct Slot<'a>(&'a Shared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        let mut work = shared.lock_work();
        work.free += 1;
        if work.closed {
            // Shutdown waits for every slot.
            shared.wake.notify_all();
        } else if work.ready().is_some() {
            shared.wake_one(work);
        }
    }
}

pub(crate) struct Shared {
    /// Every endpoint, in registration order; names are unique.
    endpoints: Vec<Arc<Endpoint>>,
    /// Index into `endpoints` of the one unaddressed requests go to.
    default_endpoint: usize,
    config: ServerConfig,
    admission: Option<AdmissionPolicy>,
    /// Monotonic origin for admission telemetry timestamps.
    started: Instant,
    /// Queued work, free slots and sleeping threads.
    work: std::sync::Mutex<Work>,
    /// Where free runtime threads sleep, and where shutdown waits for
    /// the slots.
    wake: Condvar,
    /// Blocking callers between a local hop and their answer. Only
    /// while they number no more than the workers may one run its
    /// request itself.
    local_callers: AtomicUsize,
    /// Remote forwards currently in flight runtime-wide (feeds the
    /// global `remote_max_in_flight` high-water mark).
    remote_in_flight: AtomicUsize,
    stats: ServerStats,
    n_workers: usize,
}

/// A request that passed routing and admission control and has only
/// its hop left: onto the worker queue of a local shard, or through
/// the transport of a remote one.
pub(crate) struct Routed {
    req: Request,
    entry: Arc<Endpoint>,
    shard: usize,
    /// The remote slots `shard` was picked over (empty for forwarded
    /// frames), snapshotted once so topology changes cannot touch a
    /// request in flight.
    remote_active: Vec<Arc<RemoteShard>>,
    degraded: bool,
}

impl Routed {
    /// The job a runtime thread — or the caller, inline — serves.
    fn into_job(self) -> RoutedJob {
        RoutedJob {
            req: self.req,
            entry: self.entry,
            degraded: self.degraded,
        }
    }
}

/// What routing one request decided.
enum Planned {
    /// Answered at admission (control frames, route errors, shed and
    /// drain markers).
    Answered(Response),
    Routed(Routed),
}

/// A submitted request routed to a remote shard, waiting for a
/// runtime thread to forward it.
struct Forward(Routed, ResponseSink);

/// A submitted request that may run right now on the thread that
/// submitted it, by the rule a blocking caller's request runs by: the
/// worker queue of its shard is empty, and it holds one of the
/// runtime's execution slots. The runtime thread that holds a node's
/// poll set hands it back, and then runs it.
pub(crate) struct Runnable<'a> {
    slot: Slot<'a>,
    /// The request; its response goes to `sink`.
    job: RoutedJob,
    worker: usize,
    sink: ResponseSink,
}

impl Runnable<'_> {
    /// Serve the request on this thread, exactly as a blocking
    /// caller's is served inline, and hand the response to the sink.
    /// The slot goes back first, so the request the answer lets in
    /// finds it free. A servable that panics is caught: the sink is
    /// then dropped unanswered.
    fn run(self) {
        let Runnable {
            slot,
            job,
            worker,
            sink,
        } = self;
        let served = slot.0.serve_here(&job, worker);
        drop(slot);
        if let Ok(resp) = served {
            sink(resp);
        }
    }
}

impl Shared {
    /// No code runs under this lock but queue moves and count updates,
    /// each of which leaves [`Work`] valid, so a poisoned lock is
    /// sound.
    fn lock_work(&self) -> MutexGuard<'_, Work> {
        self.work.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake one sleeping runtime thread, if one sleeps, for work that
    /// can start now — once the lock is let go, so that the thread
    /// woken does not go back to sleep on the lock at once.
    fn wake_one(&self, work: MutexGuard<'_, Work>) {
        let sleeping = work.idle > 0;
        drop(work);
        if sleeping {
            self.wake.notify_one();
        }
    }

    /// Every endpoint, in registration order — the cluster prober's
    /// sweep list.
    pub(crate) fn all_endpoints(&self) -> Vec<Arc<Endpoint>> {
        self.endpoints.clone()
    }

    /// Global server counters (probe accounting for the cluster
    /// prober).
    pub(crate) fn server_stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The endpoint named `name`, or the default one for `None`.
    fn find_endpoint(&self, name: Option<&str>) -> Option<&Arc<Endpoint>> {
        match name {
            None => self.endpoints.get(self.default_endpoint),
            Some(n) => self.endpoints.iter().find(|e| e.name == n),
        }
    }

    /// Answer a [`ControlRequest::Counters`] probe: every endpoint's
    /// merged plan-counter snapshot (zeros for endpoints without
    /// attached counters).
    fn counters_report(&self, id: u64) -> Response {
        let report: Vec<EndpointCounters> = self
            .endpoints
            .iter()
            .map(|e| EndpointCounters {
                endpoint: e.name.clone(),
                version: e.version,
                counters: e.merged_counters(),
            })
            .collect();
        Response {
            id,
            scores: Vec::new(),
            error: None,
            endpoint: None,
            version: None,
            counters: Some(report),
            degraded: false,
            overloaded: false,
        }
    }

    /// Count a request frame that arrived but could not be decoded —
    /// unless the runtime is closed, which records nothing.
    pub(crate) fn count_decode_error(&self) {
        if self.count_request().is_ok() {
            self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Admit one request and wait for its answer — the typed admission
    /// boundary behind [`RuntimeClient::call`], which every in-process
    /// caller and the in-process transport use.
    fn admit_request(&self, req: Request) -> Result<Response, ServeError> {
        self.count_request()?;
        self.route_request(req)
    }

    /// Count one arriving request — unless the runtime is closed,
    /// which fails fast before any side effect: a closed runtime
    /// admits nothing and records nothing, so post-shutdown retries
    /// cannot skew stats.
    fn count_request(&self) -> Result<(), ServeError> {
        if self.lock_work().closed {
            return Err(ServeError::Disconnected);
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The blocking admission body: route, take the hop — a remote
    /// shard's round trip included — then serve a local request with
    /// [`serve_local`](Self::serve_local).
    fn route_request(&self, req: Request) -> Result<Response, ServeError> {
        let mut routed = match self.plan_route(req) {
            Planned::Answered(resp) => return Ok(resp),
            Planned::Routed(routed) => routed,
        };
        let worker = match self.resolve_hop(&mut routed) {
            Ok(worker) => worker,
            Err(resp) => return Ok(resp),
        };
        let others = self.local_callers.fetch_add(1, Ordering::Relaxed);
        let served = self.serve_local(routed.into_job(), worker, others < self.n_workers);
        self.local_callers.fetch_sub(1, Ordering::Relaxed);
        served
    }

    /// Run a locally routed request right here when `may_run_inline`
    /// and [`inline_slot`](Self::inline_slot) gives a slot; otherwise
    /// queue it for `worker`, sleeping while the queue is full, and
    /// wait for a runtime thread's answer. Callers that outnumber the
    /// workers never run inline, so they queue and coalesce as they did
    /// when runtime threads ran every request: a request run alone in a
    /// slot costs a batch's fixed cost — a feature store's round trip —
    /// for its rows only.
    fn serve_local(
        &self,
        job: RoutedJob,
        worker: usize,
        may_run_inline: bool,
    ) -> Result<Response, ServeError> {
        let slot = if may_run_inline {
            self.inline_slot(worker)?
        } else {
            None
        };
        if let Some(slot) = slot {
            let served = self.serve_here(&job, worker);
            drop(slot);
            return served.map_err(|_| ServeError::Disconnected);
        }
        // Capacity 0: this thread waits in `recv` from right after the
        // enqueue, so the answer goes straight into it and the channel
        // allocates no buffer.
        let (reply_tx, reply_rx) = sync_channel(0);
        self.enqueue(job, Reply::Channel(reply_tx), worker)?;
        reply_rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// Serve `job` on the calling thread, which holds a slot, as one
    /// batch of `worker`. A servable that panics is caught, so no
    /// caller of `call` — the forwarding and node paths included —
    /// ever unwinds.
    fn serve_here(&self, job: &RoutedJob, worker: usize) -> std::thread::Result<Response> {
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.worker_batches[worker].fetch_add(1, Ordering::Relaxed);
        std::panic::catch_unwind(AssertUnwindSafe(|| handle_one(job, &self.stats)))
    }

    /// A slot for running a request routed to `worker` on the calling
    /// thread, given only while that worker's queue is empty — nothing
    /// to coalesce with or to overtake — and a slot is free. Taken
    /// under the work lock, so a closed runtime starts nothing.
    fn inline_slot(&self, worker: usize) -> Result<Option<Slot<'_>>, ServeError> {
        let mut work = self.lock_work();
        if work.closed {
            return Err(ServeError::Disconnected);
        }
        if work.free == 0 || !work.queues[worker].is_empty() {
            return Ok(None);
        }
        work.free -= 1;
        Ok(Some(Slot(self)))
    }

    /// [`route_request`](Self::route_request) for a caller that must
    /// not block — the thread holding a node's poll set: every counter
    /// is recorded here exactly once, and the response goes to `sink`
    /// (on whichever thread serves the request, or right here when
    /// admission itself answers) instead of a channel this thread would
    /// wait on. A request routed to a remote shard is queued for a
    /// runtime thread to forward, and a local one for its worker —
    /// unless `may_run` and it could run inline by
    /// [`inline_slot`](Self::inline_slot)'s rule: then it comes back
    /// [`Runnable`], holding the slot. Nothing runs or waits here, and
    /// no queue is too full for a submitted request.
    ///
    /// # Errors
    /// Returns [`ServeError::Disconnected`] when the runtime has shut
    /// down; the sink is dropped uncalled.
    pub(crate) fn submit(
        &self,
        req: Request,
        sink: ResponseSink,
        may_run: bool,
    ) -> Result<Option<Runnable<'_>>, ServeError> {
        self.count_request()?;
        let routed = match self.plan_route(req) {
            Planned::Answered(resp) => {
                sink(resp);
                return Ok(None);
            }
            Planned::Routed(routed) => routed,
        };
        let mut work = self.lock_work();
        if work.closed {
            return Err(ServeError::Disconnected);
        }
        if routed.shard >= routed.entry.local_shards {
            work.onward.push_back(Forward(routed, sink));
            self.wake_one(work);
            return Ok(None);
        }
        let worker = routed.entry.assignment[routed.shard];
        let job = routed.into_job();
        if may_run && work.free > 0 && work.queues[worker].is_empty() {
            work.free -= 1;
            return Ok(Some(Runnable {
                slot: Slot(self),
                job,
                worker,
                sink,
            }));
        }
        self.push(work, job, Reply::Sink(sink), worker);
        Ok(None)
    }

    /// Forward a [`submit`](Self::submit)ted request to its remote
    /// shard, on a runtime thread, and — when every transport failed —
    /// fail it over onto a local worker's queue. On shutdown the sink
    /// is dropped unanswered.
    fn forward(&self, forward: Forward) {
        let Forward(mut routed, sink) = forward;
        match self.resolve_hop(&mut routed) {
            Ok(worker) => {
                let _ = self.enqueue(routed.into_job(), Reply::Sink(sink), worker);
            }
            Err(resp) => sink(resp),
        }
    }

    /// Control frames, routing and admission control: every step of
    /// admission that never waits.
    fn plan_route(&self, req: Request) -> Planned {
        // A counters probe is answered at admission — it never touches
        // worker queues or row counters.
        if let Some(ControlRequest::Counters) = req.control {
            return Planned::Answered(self.counters_report(req.id));
        }
        let Some(entry) = self.find_endpoint(req.endpoint.as_deref()) else {
            self.stats.route_errors.fetch_add(1, Ordering::Relaxed);
            let name = req.endpoint.as_deref().unwrap_or(DEFAULT_ENDPOINT);
            return Planned::Answered(Response::failure(
                req.id,
                format!("unknown endpoint `{name}`"),
            ));
        };
        if let Some(v) = req.version.filter(|&v| v != entry.version) {
            self.stats.route_errors.fetch_add(1, Ordering::Relaxed);
            return Planned::Answered(Response::failure(
                req.id,
                format!("endpoint `{}` has no version {v}", entry.name),
            ));
        }
        let entry = Arc::clone(entry);

        // ---- statistical admission telemetry -----------------------
        if let Some(tel) = &entry.telemetry {
            let now = self.started.elapsed().as_nanos() as u64;
            tel.arrivals.lock().record(now);
        }

        // Forwarded frames stay on local shards (the forwarding-loop
        // guard); plain frames route uniformly over local shards plus
        // the remote slots currently admitting work. The slot list is
        // snapshotted once per request, so a concurrent drain or add
        // rebuilds the key-hash domain atomically *between* requests,
        // never inside one — and every forward below works on `Arc`s
        // from this snapshot, immune to topology mutation.
        let remote_active: Vec<Arc<RemoteShard>> = if req.forwarded {
            Vec::new()
        } else {
            entry.remote.active()
        };
        let domain = entry.local_shards + remote_active.len();
        if domain == 0 {
            self.stats.route_errors.fetch_add(1, Ordering::Relaxed);
            let why = if req.forwarded {
                "no local shards to serve a forwarded frame"
            } else {
                "no shards admitting new requests"
            };
            return Planned::Answered(Response::failure(
                req.id,
                format!("endpoint `{}` has {why}", entry.name),
            ));
        }
        let shard = pick_shard(&entry, req.key.as_deref(), domain, req.forwarded);

        // ---- degrade-then-shed decision ----------------------------
        // Locally-routed requests pass the admission policy before
        // anything is enqueued: the degrade band swaps in the
        // endpoint's cheaper lowering, the shed band answers with an
        // explicit Overloaded marker and runs nothing. Remote-routed
        // requests are judged by the remote node's own policy.
        let mut degraded = false;
        if shard < entry.local_shards {
            match self.admission_decision(&entry, entry.assignment[shard]) {
                AdmissionDecision::Accept => {}
                AdmissionDecision::Degrade => {
                    // Endpoints without a degraded lowering stay on
                    // the full path until the shed threshold.
                    if entry.can_degrade() {
                        degraded = true;
                        self.stats.degraded.fetch_add(1, Ordering::Relaxed);
                        entry.stats.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                }
                AdmissionDecision::Shed => {
                    self.stats.shed.fetch_add(1, Ordering::Relaxed);
                    entry.stats.shed.fetch_add(1, Ordering::Relaxed);
                    // Shed requests are not routed (no row counters).
                    let resp = Response::shed(req.id, &entry.name, entry.version);
                    return Planned::Answered(resp);
                }
            }
        }

        record_route(&entry, shard, &remote_active, &req);
        self.stats
            .rows
            .fetch_add(req.rows.len() as u64, Ordering::Relaxed);
        Planned::Routed(Routed {
            req,
            entry,
            shard,
            remote_active,
            degraded,
        })
    }

    /// The worker whose queue serves `routed`. For a local shard that
    /// is a lookup; for a remote shard it **blocks** for the forward,
    /// and the answer — or, when every transport failed and there is
    /// no local shard to fail over to, the failure — comes back as
    /// `Err`.
    fn resolve_hop(&self, routed: &mut Routed) -> Result<usize, Response> {
        let entry = &routed.entry;
        if routed.shard < entry.local_shards {
            return Ok(entry.assignment[routed.shard]);
        }
        let outcome =
            self.forward_remote(entry, routed.shard, &routed.remote_active, &mut routed.req);
        match outcome {
            RemoteOutcome::Served(response) => Err(response),
            RemoteOutcome::AllFailed if entry.local_shards == 0 => Err(Response::failure(
                routed.req.id,
                format!(
                    "endpoint `{}`: every remote shard's transport failed",
                    entry.name
                ),
            )),
            RemoteOutcome::AllFailed => {
                // Fail over onto the local shards, round-robin.
                entry.stats.failovers.fetch_add(1, Ordering::Relaxed);
                self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                let fallback =
                    entry.next_failover.fetch_add(1, Ordering::Relaxed) % entry.local_shards;
                Ok(entry.assignment[fallback])
            }
        }
    }

    /// Queue `job` for `worker`. A blocking caller (`Reply::Channel`)
    /// sleeps while the queue holds [`ServerConfig::queue_capacity`]
    /// requests, retrying without holding the lock, so one slow
    /// endpoint cannot stall admissions to every other endpoint; a
    /// sink never waits — the runtime's own threads queue through
    /// sinks, and one that waited for room it drains itself could wait
    /// for ever.
    fn enqueue(&self, job: RoutedJob, reply: Reply, worker: usize) -> Result<(), ServeError> {
        let capacity = match reply {
            Reply::Channel(_) => self.config.queue_capacity.max(1),
            Reply::Sink(_) => usize::MAX,
        };
        loop {
            let work = self.lock_work();
            if work.closed {
                return Err(ServeError::Disconnected);
            }
            if work.queues[worker].len() < capacity {
                self.push(work, job, reply, worker);
                return Ok(());
            }
            drop(work);
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Append to `worker`'s queue, waking a sleeping thread when a slot
    /// is free to serve it.
    fn push(&self, mut work: MutexGuard<'_, Work>, job: RoutedJob, reply: Reply, worker: usize) {
        work.queues[worker].push_back((job, reply));
        if work.free > 0 {
            self.wake_one(work);
        }
    }

    /// Forward a request to remote shard `shard` of `entry`,
    /// failing over across the endpoint's other active remote slots
    /// when the routed one's transport errors. Forward latency lands
    /// on the slot's transport counter; wire bytes and peak in-flight
    /// depth land on both stats levels.
    fn forward_remote(
        &self,
        entry: &Endpoint,
        shard: usize,
        slots: &[Arc<RemoteShard>],
        req: &mut Request,
    ) -> RemoteOutcome {
        let depth = self.remote_in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats
            .remote_max_in_flight
            .fetch_max(depth as u64, Ordering::Relaxed);
        let entry_depth = entry.remote_in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        entry
            .stats
            .remote_max_in_flight
            .fetch_max(entry_depth as u64, Ordering::Relaxed);
        // The forwarding frame differs from the request in three
        // header fields only, so it borrows the rows and the key for
        // the round trip and hands them back: a fail-over onto a
        // local shard serves the request it was given.
        let frame = Request {
            id: req.id,
            rows: std::mem::take(&mut req.rows),
            endpoint: Some(entry.name.clone()),
            version: Some(entry.version),
            key: req.key.take(),
            forwarded: true,
            control: None,
        };
        let outcome = self.forward_frame(entry, shard, slots, &frame);
        req.rows = frame.rows;
        req.key = frame.key;
        entry.remote_in_flight.fetch_sub(1, Ordering::Relaxed);
        self.remote_in_flight.fetch_sub(1, Ordering::Relaxed);
        outcome
    }

    fn forward_frame(
        &self,
        entry: &Endpoint,
        shard: usize,
        slots: &[Arc<RemoteShard>],
        frame: &Request,
    ) -> RemoteOutcome {
        let n_remote = slots.len();
        let first = shard - entry.local_shards;
        for i in 0..n_remote {
            let idx = (first + i) % n_remote;
            let slot = &slots[idx];
            if i > 0 {
                // Trying a shard other than the routed one is a
                // fail-over re-route.
                entry.stats.failovers.fetch_add(1, Ordering::Relaxed);
                self.stats.failovers.fetch_add(1, Ordering::Relaxed);
            }
            let start = std::time::Instant::now();
            // The slot gauge brackets the transport call so
            // `drain_shard` knows when the slot has gone quiet.
            slot.in_flight.fetch_add(1, Ordering::SeqCst);
            let forwarded = slot.transport.forward_request(frame);
            slot.in_flight.fetch_sub(1, Ordering::SeqCst);
            match forwarded {
                Ok(reply) => {
                    let nanos = start.elapsed().as_nanos() as u64;
                    // A shed (Overloaded) answer measured no
                    // prediction work — mirroring the counters-probe
                    // exclusion, it must not skew per-shard transport
                    // latency.
                    if !reply.response.overloaded {
                        slot.transport_nanos.fetch_add(nanos, Ordering::Relaxed);
                    }
                    self.stats.remote_forwards.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .remote_bytes_sent
                        .fetch_add(reply.bytes_sent, Ordering::Relaxed);
                    self.stats
                        .remote_bytes_received
                        .fetch_add(reply.bytes_received, Ordering::Relaxed);
                    entry
                        .stats
                        .remote_bytes_sent
                        .fetch_add(reply.bytes_sent, Ordering::Relaxed);
                    entry
                        .stats
                        .remote_bytes_received
                        .fetch_add(reply.bytes_received, Ordering::Relaxed);
                    return RemoteOutcome::Served(reply.response);
                }
                // A codec failure is not a connectivity failure: the
                // peer may well have executed the request, so failing
                // over would risk double-execution — report instead.
                Err(ServeError::Codec(e)) => {
                    entry.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                    self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                    return RemoteOutcome::Served(Response::failure(
                        frame.id,
                        format!("forwarding frame codec failure: {e}"),
                    ));
                }
                Err(_) => {
                    entry.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                    self.stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        RemoteOutcome::AllFailed
    }

    /// Judge one locally-routed request against the admission policy:
    /// estimate its p99 latency as the endpoint's observed service-time
    /// p99 scaled by the routed worker's queue depth (every queued
    /// request is served before this one), and compare against the
    /// SLO's degrade and shed bands. Accepts everything until
    /// [`AdmissionPolicy::min_samples`] service times are observed.
    fn admission_decision(&self, entry: &Endpoint, worker: usize) -> AdmissionDecision {
        let Some(policy) = &self.admission else {
            return AdmissionDecision::Accept;
        };
        let Some(tel) = &entry.telemetry else {
            return AdmissionDecision::Accept;
        };
        let (count, p99) = {
            let service = tel.service.lock();
            (service.count(), service.p99())
        };
        if count < policy.min_samples {
            return AdmissionDecision::Accept;
        }
        let Some(p99) = p99 else {
            return AdmissionDecision::Accept;
        };
        let depth = self.lock_work().queues[worker].len() as u64;
        let estimate = p99.saturating_mul(depth + 1);
        if estimate as f64 > policy.slo_p99_nanos as f64 * policy.shed_factor {
            AdmissionDecision::Shed
        } else if estimate > policy.slo_p99_nanos {
            AdmissionDecision::Degrade
        } else {
            AdmissionDecision::Accept
        }
    }
}

/// What forwarding a request to an endpoint's remote shards produced.
enum RemoteOutcome {
    /// A remote shard answered: the decoded response to relay.
    Served(Response),
    /// Every remote shard's transport failed; the caller should fail
    /// over to a local shard (or report total failure).
    AllFailed,
}

/// Pick a shard within `domain` (the first `domain` shards of
/// `entry`). Keyed requests hash to a sticky shard; unkeyed requests
/// spread round-robin (preserving the old shared-queue load balancing
/// for legacy clients, whose hot identical requests must not all pile
/// onto one worker). Forwarded frames advance their own cursor: one
/// cursor taken modulo two different domains would skew both
/// rotations when plain and forwarded traffic mix.
fn pick_shard(entry: &Endpoint, key: Option<&str>, domain: usize, forwarded: bool) -> usize {
    let cursor = if forwarded {
        &entry.next_forwarded
    } else {
        &entry.next_shard
    };
    match key {
        Some(k) => shard_for_key(k, domain),
        None => cursor.fetch_add(1, Ordering::Relaxed) % domain,
    }
}

/// Record per-endpoint request/rows/shard counters for one routed
/// request. Remote routes land on the slot picked from this request's
/// routing snapshot, so the counter follows the slot through topology
/// changes.
fn record_route(entry: &Endpoint, shard: usize, remote: &[Arc<RemoteShard>], req: &Request) {
    entry.stats.requests.fetch_add(1, Ordering::Relaxed);
    entry
        .stats
        .rows
        .fetch_add(req.rows.len() as u64, Ordering::Relaxed);
    if shard < entry.local_shards {
        entry.stats.shard_requests[shard].fetch_add(1, Ordering::Relaxed);
    } else {
        remote[shard - entry.local_shards]
            .requests
            .fetch_add(1, Ordering::Relaxed);
    }
}

// ---- worker-side serving -------------------------------------------

/// Build a table from wire rows; all rows must share the first row's
/// schema. The rows are borrowed and walked once per column, so a
/// coalesced group merges its requests' rows without collecting them.
pub(crate) fn rows_to_table<'a, I>(rows: I) -> Result<Table, ServeError>
where
    I: IntoIterator<Item = &'a WireRow>,
    I::IntoIter: Clone,
{
    let rows = rows.into_iter();
    let Some(first) = rows.clone().next() else {
        return Ok(Table::new());
    };
    let mut table = Table::new();
    for (at, (name, proto)) in first.iter().enumerate() {
        let dt = proto.data_type();
        let mut col = Column::empty(dt).ok_or_else(|| ServeError::BadRequest {
            reason: format!("column `{name}` has null prototype value"),
        })?;
        for row in rows.clone() {
            // Rows of one client list their columns in one order, so
            // the value is at the first row's position; a row in
            // another order is searched by name.
            let cell = match row.get(at) {
                Some(cell) if cell.0 == *name => Some(cell),
                _ => row.iter().find(|(n, _)| n == name),
            };
            let (_, v) = cell.ok_or_else(|| ServeError::BadRequest {
                reason: format!("row missing column `{name}`"),
            })?;
            col.push(v.clone()).map_err(|e| ServeError::BadRequest {
                reason: format!("column `{name}`: {e}"),
            })?;
        }
        table
            .add_column(name.clone(), col)
            .map_err(|e| ServeError::BadRequest {
                reason: e.to_string(),
            })?;
    }
    Ok(table)
}

/// The (name, type) schema of a request, taken from its first row;
/// requests merge into one model batch only when this — and the
/// target endpoint — match exactly.
type SchemaKey<'a> = Vec<(&'a str, DataType)>;

fn request_schema(req: &Request) -> SchemaKey<'_> {
    req.rows.first().map_or_else(Vec::new, |row| {
        row.iter()
            .map(|(n, v)| (n.as_str(), v.data_type()))
            .collect()
    })
}

/// Hand one response to whoever waits for it, as a decoded struct: the
/// wire boundary encodes it only where the bytes
/// actually leave the process — for a sink, right here on the worker.
fn respond(reply: &Reply, resp: Response) {
    match reply {
        Reply::Channel(reply) => {
            let _ = reply.send(resp);
        }
        Reply::Sink(sink) => sink(resp),
    }
}

/// Feed one completed local prediction's wall time into the
/// endpoint's service-time histogram (no-op without admission
/// telemetry), halving at [`SERVICE_HISTORY_LIMIT`] so quantiles
/// track the recent regime.
fn record_service(entry: &Endpoint, nanos: u64) {
    if let Some(tel) = &entry.telemetry {
        let mut service = tel.service.lock();
        service.record(nanos);
        if service.count() >= SERVICE_HISTORY_LIMIT {
            service.halve();
        }
    }
}

/// Serve one already-decoded request individually (the per-request
/// dispatch path, also the fallback when a coalesced batch fails).
fn handle_one(job: &RoutedJob, stats: &ServerStats) -> Response {
    let entry = &job.entry;
    let req = &job.req;
    let table = match rows_to_table(&req.rows) {
        Ok(t) => t,
        Err(e) => return endpoint_failure(entry, req.id, e.to_string()),
    };
    let started = Instant::now();
    match entry.active_servable(job.degraded).predict_table(&table) {
        Ok(scores) => {
            record_service(entry, started.elapsed().as_nanos() as u64);
            let n = req.rows.len() as u64;
            stats.max_batch_rows.fetch_max(n, Ordering::Relaxed);
            entry.stats.max_batch_rows.fetch_max(n, Ordering::Relaxed);
            scored(job, scores)
        }
        Err(e) => endpoint_failure(entry, req.id, e),
    }
}

/// The response carrying a servable's scores for `job` — or, when one
/// is NaN or infinite, the predictor error every boundary answers it
/// with, so no caller in or out of process is handed such a score.
fn scored(job: &RoutedJob, scores: Vec<f64>) -> Response {
    let entry = &job.entry;
    if let Some(row) = scores.iter().position(|s| !s.is_finite()) {
        let message = format!(
            "response encoding failed: the score of row {row} is {}",
            scores[row]
        );
        return endpoint_failure(entry, job.req.id, message);
    }
    Response {
        id: job.req.id,
        scores,
        error: None,
        endpoint: Some(entry.name.clone()),
        version: Some(entry.version),
        counters: None,
        degraded: job.degraded,
        overloaded: false,
    }
}

fn endpoint_failure(entry: &Endpoint, id: u64, message: String) -> Response {
    Response {
        id,
        scores: Vec::new(),
        error: Some(message),
        endpoint: Some(entry.name.clone()),
        version: Some(entry.version),
        counters: None,
        degraded: false,
        overloaded: false,
    }
}

/// Serve a group of same-endpoint, same-schema requests as one merged
/// model batch, scattering scores back per request; falls back to
/// per-request dispatch when the merge or the batched prediction
/// fails, so one bad request cannot poison its groupmates.
fn serve_group(group: &[&(RoutedJob, Reply)], stats: &ServerStats) {
    // A lone request gains nothing from the merge path; dispatch it
    // directly so a failing prediction is not pointlessly retried.
    if let [(job, reply)] = group {
        respond(reply, handle_one(job, stats));
        return;
    }
    let entry = &group[0].0.entry;
    let total: usize = group.iter().map(|(j, _)| j.req.rows.len()).sum();
    // Grouping keys on the degrade marker, so the whole group shares
    // the first job's servable choice.
    let degraded = group[0].0.degraded;
    let started = Instant::now();
    let batched = rows_to_table(group.iter().flat_map(|(j, _)| &j.req.rows))
        .map_err(|e| e.to_string())
        .and_then(|table| entry.active_servable(degraded).predict_table(&table))
        .ok()
        .filter(|scores| scores.len() == total);
    match batched {
        Some(scores) => {
            // Every member experienced the batch's service time.
            let nanos = started.elapsed().as_nanos() as u64;
            for _ in 0..group.len() {
                record_service(entry, nanos);
            }
            stats
                .max_batch_rows
                .fetch_max(total as u64, Ordering::Relaxed);
            entry
                .stats
                .max_batch_rows
                .fetch_max(total as u64, Ordering::Relaxed);
            // The early single-request return above guarantees this
            // batch merged >= 2 requests, so all its rows count as
            // coalesced.
            stats
                .coalesced_rows
                .fetch_add(total as u64, Ordering::Relaxed);
            entry
                .stats
                .coalesced_rows
                .fetch_add(total as u64, Ordering::Relaxed);
            let mut offset = 0;
            for (job, reply) in group {
                let n = job.req.rows.len();
                respond(reply, scored(job, scores[offset..offset + n].to_vec()));
                offset += n;
            }
        }
        None => {
            for (job, reply) in group {
                respond(reply, handle_one(job, stats));
            }
        }
    }
}

/// One worker iteration over a drained batch of routed jobs: group by
/// (endpoint, schema), serve each group coalesced (or per-request when
/// coalescing is off).
fn process_batch(jobs: &[(RoutedJob, Reply)], stats: &ServerStats, coalesce: bool) {
    if !coalesce {
        for (job, reply) in jobs {
            respond(reply, handle_one(job, stats));
        }
        return;
    }
    // Group by endpoint identity + degrade marker + schema,
    // preserving arrival order within each group (degraded and full
    // jobs of one endpoint run different servables, so they must not
    // merge).
    type GroupKey<'a> = (*const Endpoint, bool, SchemaKey<'a>);
    let mut groups: Vec<(GroupKey<'_>, Vec<&(RoutedJob, Reply)>)> = Vec::new();
    for member in jobs {
        let job = &member.0;
        let key: GroupKey<'_> = (
            Arc::as_ptr(&job.entry),
            job.degraded,
            request_schema(&job.req),
        );
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(member),
            None => groups.push((key, vec![member])),
        }
    }
    for (_, members) in &groups {
        serve_group(members, stats);
    }
}

/// A runtime thread: does what [`Work`] says a free thread does, until
/// the runtime has shut down and nothing admitted is left.
///
/// A batch is drained from one worker queue, up to
/// [`ServerConfig::max_batch_requests`] requests, and served under one
/// slot; a servable that panics is caught, and the batch's callers read
/// `Disconnected`. A node's poll set is held by one thread at a time
/// ([`EventLoop::lead`]); that thread runs no servable until it has put
/// the poll set back and woken a sleeping thread, if one sleeps, to
/// take it. With none asleep, every other thread is busy, and the poll
/// set waits for the next one that finishes.
fn worker_loop(shared: &Shared) {
    let max_batch = shared.config.max_batch_requests.max(1);
    let mut work = shared.lock_work();
    loop {
        if let Some(worker) = work.ready() {
            work.free -= 1;
            work.next = worker + 1;
            let n = work.queues[worker].len().min(max_batch);
            let jobs: Vec<_> = work.queues[worker].drain(..n).collect();
            drop(work);
            shared.stats.batches.fetch_add(1, Ordering::Relaxed);
            shared.stats.worker_batches[worker].fetch_add(1, Ordering::Relaxed);
            let coalesce = shared.config.coalesce;
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                process_batch(&jobs, &shared.stats, coalesce);
            }));
            drop(jobs);
            work = shared.lock_work();
            work.free += 1;
        } else if let Some(forward) = work.onward.pop_front() {
            drop(work);
            shared.forward(forward);
            work = shared.lock_work();
        } else if let Some(mut events) = work.poll.take() {
            drop(work);
            let Some(runnable) = events.lead(shared) else {
                drop(events);
                work = shared.lock_work();
                continue;
            };
            work = shared.lock_work();
            work.poll = Some(events);
            shared.wake_one(work);
            runnable.run();
            work = shared.lock_work();
        } else if work.closed && !work.pending() {
            return;
        } else {
            work.idle += 1;
            work = shared
                .wake
                .wait(work)
                .unwrap_or_else(PoisonError::into_inner);
            work.idle -= 1;
        }
    }
}

// ---- builder -------------------------------------------------------

struct EndpointSpec {
    name: String,
    version: u32,
    servable: Arc<dyn Servable>,
    degraded: Option<Arc<dyn Servable>>,
    counters: Option<Arc<PlanCounters>>,
    shards: usize,
    transports: Vec<Arc<dyn WorkerTransport>>,
}

/// Builder for a [`ServingRuntime`]: register named, sharded
/// endpoints — one version per name — then
/// [`build`](RuntimeBuilder::build).
///
/// # Examples
///
/// Two named endpoints, one of them sharded, and a call pinned to a
/// version:
///
/// ```
/// use std::sync::Arc;
/// use willump_serve::{Servable, ServerConfig, ServingRuntime};
/// use willump_data::Table;
///
/// struct Constant(f64);
/// impl Servable for Constant {
///     fn predict_table(&self, t: &Table) -> Result<Vec<f64>, String> {
///         Ok(vec![self.0; t.n_rows()])
///     }
/// }
///
/// # fn main() -> Result<(), willump_serve::ServeError> {
/// let mut b = ServingRuntime::builder();
/// b.config(ServerConfig::builder().workers(2).build());
/// b.endpoint("stable", Arc::new(Constant(1.0))).shards(2);
/// // Remote shards live behind `RemoteRuntimeNode`s; see
/// // `shard_remote` for the TCP form.
/// b.endpoint("experimental", Arc::new(Constant(0.0))).version(2);
/// let runtime = b.build()?;
///
/// let client = runtime.client();
/// let rows = vec![vec![("x".to_string(), willump_data::Value::Float(0.0))]];
/// assert_eq!(client.predict_endpoint("stable", rows.clone())?, vec![1.0]);
/// // A pin must name the endpoint's one version.
/// assert_eq!(client.predict_version("experimental", 2, rows.clone())?, vec![0.0]);
/// assert!(client.predict_version("experimental", 1, rows).is_err());
/// # Ok(())
/// # }
/// ```
#[must_use]
#[derive(Default)]
pub struct RuntimeBuilder {
    config: ServerConfig,
    admission: Option<AdmissionPolicy>,
    endpoints: Vec<EndpointSpec>,
    default_endpoint: Option<String>,
}

impl std::fmt::Debug for RuntimeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeBuilder")
            .field("config", &self.config)
            .field("endpoints", &self.endpoints.len())
            .finish_non_exhaustive()
    }
}

impl RuntimeBuilder {
    /// A fresh builder with default configuration.
    pub fn new() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Set the worker-pool / batching configuration.
    pub fn config(&mut self, config: ServerConfig) -> &mut RuntimeBuilder {
        self.config = config;
        self
    }

    /// Install a statistical [`AdmissionPolicy`]: the runtime keeps
    /// per-endpoint telemetry (arrival rate, service-time quantiles,
    /// queue depth) and degrades — then sheds — requests whose
    /// estimated p99 latency breaches the policy's SLO. Without a
    /// policy (the default), every request is accepted and no
    /// telemetry is recorded.
    pub fn admission(&mut self, policy: AdmissionPolicy) -> &mut RuntimeBuilder {
        self.admission = Some(policy);
        self
    }

    /// Route requests without an explicit endpoint to `name`
    /// (default: the first registered endpoint).
    pub fn default_endpoint(&mut self, name: &str) -> &mut RuntimeBuilder {
        self.default_endpoint = Some(name.to_string());
        self
    }

    /// Register an endpoint serving `servable` under `name`; chain
    /// [`EndpointBuilder`] calls to set its version and shards.
    pub fn endpoint(&mut self, name: &str, servable: Arc<dyn Servable>) -> EndpointBuilder<'_> {
        self.endpoints.push(EndpointSpec {
            name: name.to_string(),
            version: 1,
            servable,
            degraded: None,
            counters: None,
            shards: 1,
            transports: Vec::new(),
        });
        EndpointBuilder {
            spec: self.endpoints.last_mut().expect("just pushed"),
        }
    }

    /// Register a [`willump::ServingPlan`] endpoint, automatically
    /// attaching its [`PlanCounters`] so
    /// [`Endpoint::merged_counters`] and counters probes report the
    /// plan's statistics — and, when the plan
    /// [`can_degrade`](willump::ServingPlan::can_degrade), its
    /// [`degraded`](willump::ServingPlan::degraded) lowering so
    /// admission control can degrade before shedding.
    pub fn plan(&mut self, name: &str, plan: willump::ServingPlan) -> EndpointBuilder<'_> {
        let counters = plan.counters_handle();
        let degraded = plan.degraded().map(|p| Arc::new(p) as Arc<dyn Servable>);
        let mut eb = self.endpoint(name, Arc::new(plan)).counters(counters);
        if let Some(d) = degraded {
            eb = eb.degraded_servable(d);
        }
        eb
    }

    /// Build and start the runtime.
    ///
    /// # Errors
    /// Returns [`ServeError::BadRequest`] when no endpoints are
    /// registered, a name is registered twice (whatever the
    /// versions), or the default endpoint does not exist.
    pub fn build(self) -> Result<ServingRuntime, ServeError> {
        let bad = |reason: String| ServeError::BadRequest { reason };
        if self.endpoints.is_empty() {
            return Err(bad("a serving runtime needs at least one endpoint".into()));
        }
        let n_workers = self.config.workers.max(1);
        let with_admission = self.admission.is_some();

        // Local shards go round-robin over the workers, in
        // registration order; remote shards are placed by their own
        // node.
        let mut placed = 0;
        let mut endpoints: Vec<Arc<Endpoint>> = Vec::with_capacity(self.endpoints.len());
        for spec in self.endpoints {
            if endpoints.iter().any(|e| e.name == spec.name) {
                return Err(bad(format!("endpoint `{}` registered twice", spec.name)));
            }
            // Remote shards allow an all-remote endpoint (0 local
            // shards); without them at least one local shard exists.
            let local_shards = if spec.transports.is_empty() {
                spec.shards.max(1)
            } else {
                spec.shards
            };
            let remote = Arc::new(RemoteTopology {
                slots: RwLock::new(
                    spec.transports
                        .into_iter()
                        .map(|t| Arc::new(RemoteShard::new(t)))
                        .collect(),
                ),
            });
            endpoints.push(Arc::new(Endpoint {
                name: spec.name,
                version: spec.version,
                servable: spec.servable,
                degraded_servable: spec.degraded,
                telemetry: with_admission.then(Telemetry::new),
                counters: spec.counters,
                local_shards,
                remote: Arc::clone(&remote),
                assignment: (placed..placed + local_shards)
                    .map(|w| w % n_workers)
                    .collect(),
                next_shard: AtomicUsize::new(0),
                next_forwarded: AtomicUsize::new(0),
                next_failover: AtomicUsize::new(0),
                remote_in_flight: AtomicUsize::new(0),
                stats: EndpointStats::new(local_shards, remote),
            }));
            placed += local_shards;
        }

        let default_endpoint = match &self.default_endpoint {
            None => 0,
            Some(name) => endpoints
                .iter()
                .position(|e| e.name == *name)
                .ok_or_else(|| bad(format!("default endpoint `{name}` is not registered")))?,
        };

        let shared = Arc::new(Shared {
            endpoints,
            default_endpoint,
            config: self.config,
            admission: self.admission,
            started: Instant::now(),
            work: std::sync::Mutex::new(Work {
                queues: (0..n_workers).map(|_| VecDeque::new()).collect(),
                free: n_workers,
                onward: VecDeque::new(),
                poll: None,
                idle: 0,
                closed: false,
                next: 0,
            }),
            wake: Condvar::new(),
            local_callers: AtomicUsize::new(0),
            remote_in_flight: AtomicUsize::new(0),
            stats: ServerStats::new(n_workers),
            n_workers,
        });
        let mut runtime = ServingRuntime {
            shared,
            threads: Vec::with_capacity(n_workers),
        };
        for wi in 0..n_workers {
            runtime.spawn(format!("willump-worker-{wi}"))?;
        }
        Ok(runtime)
    }
}

/// Chained per-endpoint configuration (returned by
/// [`RuntimeBuilder::endpoint`] / [`RuntimeBuilder::plan`]).
#[derive(Debug)]
pub struct EndpointBuilder<'b> {
    spec: &'b mut EndpointSpec,
}

impl std::fmt::Debug for EndpointSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndpointSpec")
            .field("name", &self.name)
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

impl EndpointBuilder<'_> {
    /// Set the endpoint's version (default 1): the one a pinned
    /// [`crate::Request::version`] must name, echoed in every response.
    pub fn version(self, version: u32) -> Self {
        self.spec.version = version;
        self
    }

    /// Set the **local** shard count (default 1). Values below 1 are
    /// treated as 1, unless the endpoint also has remote shards
    /// ([`shard_remote`](Self::shard_remote)), in which case 0 local
    /// shards is a valid all-remote configuration.
    pub fn shards(self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Append a **remote shard** served by the
    /// [`crate::RemoteRuntimeNode`] at `addr` (`"host:port"`), via a
    /// TCP [`RemoteWorker`]. Remote shards share the endpoint's
    /// key-hash routing domain with its local shards, so a routing
    /// key can stick to a remote shard; their forward latency and
    /// failure counts land in the endpoint's [`EndpointStats`], and a
    /// failed transport fails over to surviving shards.
    ///
    /// The connection is lazy: nothing is dialed until the first
    /// request routes there.
    pub fn shard_remote(self, addr: &str) -> Self {
        self.shard_transport(Arc::new(RemoteWorker::new(addr)))
    }

    /// Append a remote shard served by an arbitrary
    /// [`WorkerTransport`] (e.g. an [`crate::InProcessWorker`]
    /// forwarding to another runtime in this process).
    pub fn shard_transport(self, transport: Arc<dyn WorkerTransport>) -> Self {
        self.spec.transports.push(transport);
        self
    }

    /// Attach the [`PlanCounters`] that
    /// [`Endpoint::merged_counters`] and counters probes report for
    /// this endpoint ([`RuntimeBuilder::plan`] does this
    /// automatically).
    pub fn counters(self, counters: Arc<PlanCounters>) -> Self {
        self.spec.counters = Some(counters);
        self
    }

    /// Attach a cheaper fallback servable that admission control
    /// serves instead of the primary while the estimated p99 sits in
    /// the degrade band ([`RuntimeBuilder::plan`] attaches the plan's
    /// [`degraded`](willump::ServingPlan::degraded) lowering
    /// automatically). Endpoints without one skip straight from full
    /// service to shedding.
    pub fn degraded_servable(self, servable: Arc<dyn Servable>) -> Self {
        self.spec.degraded = Some(servable);
        self
    }
}

// ---- the runtime ---------------------------------------------------

/// A multi-endpoint model serving runtime.
///
/// Requests are admitted as typed [`Request`]s, are routed
/// by endpoint name, version, and shard key at admission,
/// and are handled by [`ServerConfig::workers`] threads with
/// adaptive, coalescing batching (per endpoint + schema) — or, while
/// blocking callers number no more than `workers`, the routed worker
/// has nothing queued and fewer than `workers` predictions run, by the
/// blocking caller itself. Shards may
/// also be **remote** — served by a [`crate::RemoteRuntimeNode`] in
/// another process via a [`WorkerTransport`] — behind the same
/// admission path.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use willump_serve::{Servable, ServingRuntime};
/// use willump_data::Table;
///
/// struct Count;
/// impl Servable for Count {
///     fn predict_table(&self, t: &Table) -> Result<Vec<f64>, String> {
///         Ok((0..t.n_rows()).map(|i| i as f64).collect())
///     }
/// }
///
/// # fn main() -> Result<(), willump_serve::ServeError> {
/// let mut b = ServingRuntime::builder();
/// b.endpoint("count", Arc::new(Count)).shards(2);
/// let runtime = b.build()?;
///
/// let client = runtime.client();
/// let row = vec![("x".to_string(), willump_data::Value::Int(1))];
/// // Equal keys stick to one shard; stats record the routing.
/// client.predict_keyed("count", "user-7", vec![row.clone()])?;
/// client.predict_keyed("count", "user-7", vec![row])?;
/// let ep = runtime.endpoint("count", 1).expect("registered");
/// let per_shard = ep.stats().shard_requests();
/// assert_eq!(per_shard.iter().sum::<u64>(), 2);
/// assert_eq!(per_shard.iter().filter(|&&c| c > 0).count(), 1);
/// # Ok(())
/// # }
/// ```
///
/// # Shutdown semantics
///
/// [`shutdown`](ServingRuntime::shutdown) (idempotent, also invoked by
/// `Drop`) closes admission, lets the runtime's threads serve what is
/// queued, joins them, and waits until no caller runs a request
/// inline. Requests admitted before admission closed are all answered;
/// client calls issued afterwards return
/// [`ServeError::Disconnected`]. Live clients never prevent the
/// runtime from shutting down.
pub struct ServingRuntime {
    shared: Arc<Shared>,
    /// `willump-worker-{i}` for each of the workers, and
    /// `willump-node-0` once a node lends its poll set.
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServingRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingRuntime")
            .field("endpoints", &self.endpoints())
            .field("workers", &self.shared.n_workers)
            .finish_non_exhaustive()
    }
}

impl ServingRuntime {
    /// A fresh [`RuntimeBuilder`].
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// Global server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Number of workers: execution slots, worker queues, and threads
    /// started for them.
    pub fn n_workers(&self) -> usize {
        self.shared.n_workers
    }

    /// The name unaddressed requests route to.
    pub fn default_endpoint(&self) -> &str {
        &self.shared.endpoints[self.shared.default_endpoint].name
    }

    /// Every registered endpoint, in registration order.
    pub fn endpoints(&self) -> Vec<Arc<Endpoint>> {
        self.shared.all_endpoints()
    }

    /// Every endpoint's counters merged into one workload-wide
    /// [`EndpointStatsSnapshot`]. The additive fields of the result
    /// reconcile with the global [`stats`](Self::stats) view;
    /// high-water marks take the max.
    pub fn summed_endpoint_stats(&self) -> EndpointStatsSnapshot {
        self.endpoints()
            .iter()
            .map(|e| e.stats().snapshot())
            .fold(EndpointStatsSnapshot::default(), |acc, s| acc.merged(&s))
    }

    /// Look up the endpoint named `name`, when it serves `version`.
    pub fn endpoint(&self, name: &str, version: u32) -> Option<Arc<Endpoint>> {
        self.shared
            .endpoints
            .iter()
            .find(|e| e.name == name && e.version == version)
            .map(Arc::clone)
    }

    /// Poll every remote shard for its node's plan counters
    /// ([`crate::ControlRequest::Counters`] probes) and cache the
    /// snapshots, so [`Endpoint::merged_counters`] sees statistics
    /// that accumulated in other processes. Returns how many shards
    /// answered.
    ///
    /// Best-effort and synchronous: each probe is one transport round
    /// trip, and unreachable shards are skipped (their last snapshot
    /// stays). The cluster prober refreshes a shard's snapshot on
    /// every successful health probe; call this (e.g. from a periodic
    /// maintenance thread) for a fresh view of every shard at once.
    pub fn refresh_remote_counters(&self) -> usize {
        let mut updated = 0;
        for e in self.endpoints() {
            for slot in e.remote_slots() {
                if let Ok(snap) = slot.transport.probe_counters(&e.name, e.version) {
                    *slot.counters.lock() = snap;
                    updated += 1;
                }
            }
        }
        updated
    }

    /// Attach a new remote shard to a running endpoint. The shard
    /// joins the key-hash routing domain with the next admitted
    /// request; no restart, no queue flush. Returns the new shard
    /// index (`local_shards()..` at the instant of the splice).
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] when no endpoint matches
    /// `name`/`version`.
    pub fn add_remote_shard(
        &self,
        name: &str,
        version: u32,
        transport: Arc<dyn WorkerTransport>,
    ) -> Result<usize, ServeError> {
        let entry = self
            .endpoint(name, version)
            .ok_or_else(|| ServeError::BadRequest {
                reason: format!("no endpoint `{name}` v{version} to add a shard to"),
            })?;
        let slot = entry.remote.push(Arc::new(RemoteShard::new(transport)));
        Ok(entry.local_shards + slot)
    }

    /// Detach remote shard `shard` (a `local_shards()..shards()`
    /// index) of `name`/`version` immediately. Requests that already
    /// routed to the slot finish on their own `Arc` handles — nothing
    /// in flight is dropped — but no new request will pick it. Use
    /// [`drain_shard`](Self::drain_shard) to also wait for in-flight
    /// work before detaching.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] when the endpoint or shard index
    /// does not exist, or the index names a local shard.
    pub fn remove_shard(&self, name: &str, version: u32, shard: usize) -> Result<(), ServeError> {
        let (entry, slot) = self.remote_slot(name, version, shard)?;
        slot.draining.store(true, Ordering::SeqCst);
        entry.remote.remove(&slot);
        Ok(())
    }

    /// Take remote shard `shard` (a `local_shards()..shards()` index)
    /// of `name`/`version` out of service: stop admitting new requests
    /// to it at once, wait until its in-flight forwards complete (up to
    /// `timeout`), then detach it. Zero in-flight loss: every request
    /// that picked the slot holds its own `Arc` and completes
    /// normally.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] when the endpoint or shard index
    /// does not exist or the index names a local shard;
    /// [`ServeError::Transport`] when in-flight work did not finish
    /// within `timeout` (the slot stays attached but draining — call
    /// again, or [`remove_shard`](Self::remove_shard) to force).
    pub fn drain_shard(
        &self,
        name: &str,
        version: u32,
        shard: usize,
        timeout: Duration,
    ) -> Result<(), ServeError> {
        let (entry, slot) = self.remote_slot(name, version, shard)?;
        // New routing snapshots exclude the slot from here on.
        slot.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        while slot.in_flight.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                return Err(ServeError::Transport(format!(
                    "drain of `{name}` v{version} shard {shard} timed out with {} forwards in flight",
                    slot.in_flight.load(Ordering::SeqCst)
                )));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        entry.remote.remove(&slot);
        Ok(())
    }

    /// Resolve a global remote-shard index to its endpoint and slot.
    fn remote_slot(
        &self,
        name: &str,
        version: u32,
        shard: usize,
    ) -> Result<(Arc<Endpoint>, Arc<RemoteShard>), ServeError> {
        let bad = |reason: String| ServeError::BadRequest { reason };
        let entry = self
            .endpoint(name, version)
            .ok_or_else(|| bad(format!("no endpoint `{name}` v{version}")))?;
        if shard < entry.local_shards {
            return Err(bad(format!(
                "shard {shard} of `{name}` v{version} is local; only remote shards can be drained or removed"
            )));
        }
        let slot = entry
            .remote
            .slots()
            .get(shard - entry.local_shards)
            .cloned()
            .ok_or_else(|| {
                bad(format!(
                    "endpoint `{name}` v{version} has no remote shard {shard}"
                ))
            })?;
        Ok((entry, slot))
    }

    /// The shared core handed to the cluster prober thread (see
    /// `crate::cluster`).
    pub(crate) fn cluster_core(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// A client handle for this runtime.
    pub fn client(&self) -> RuntimeClient {
        RuntimeClient {
            shared: Arc::clone(&self.shared),
            next_id: AtomicU64::new(1),
        }
    }

    /// Start one more runtime thread, named `name`.
    fn spawn(&mut self, name: String) -> Result<(), ServeError> {
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || worker_loop(&shared))
            .map_err(|e| ServeError::Transport(format!("spawn a runtime thread: {e}")))?;
        self.threads.push(handle);
        Ok(())
    }

    /// Lend a node's poll set to this runtime's threads, and start one
    /// more, `willump-node-0`: with every slot held there is still a
    /// thread to hold the poll set.
    pub(crate) fn lend_poll_set(&mut self, events: EventLoop) -> Result<(), ServeError> {
        let mut work = self.shared.lock_work();
        work.poll = Some(events);
        self.shared.wake_one(work);
        self.spawn("willump-node-0".to_string())
    }

    /// Shut the runtime down: close admission, let the threads serve
    /// what is queued and exit, join them, and wait for the requests
    /// callers are running inline. Idempotent; invoked automatically on
    /// drop. Requests admitted before the call are still answered, and
    /// when it returns no prediction is executing; later client calls
    /// return [`ServeError::Disconnected`]. A lent poll set must be
    /// done with first: its holder leaves only when its node shuts
    /// down.
    pub fn shutdown(&mut self) {
        self.shared.lock_work().closed = true;
        self.shared.wake.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        let mut work = self.shared.lock_work();
        while work.free < self.shared.n_workers {
            work = self
                .shared
                .wake
                .wait(work)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for ServingRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---- client --------------------------------------------------------

/// A client for a [`ServingRuntime`].
///
/// Clients stay valid across runtime shutdown: once the runtime is
/// shut down (or dropped), calls return [`ServeError::Disconnected`]
/// instead of blocking.
pub struct RuntimeClient {
    shared: Arc<Shared>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for RuntimeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeClient")
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl RuntimeClient {
    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A stable identity for the runtime this client talks to (equal
    /// for clients of one runtime, distinct across runtimes). Lets
    /// transports describe which backend they reach, so per-backend
    /// deduplication (e.g. in counter merging) works in-process too.
    #[must_use]
    pub fn runtime_id(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }

    /// An independent client over the same runtime (fresh request-id
    /// counter). Useful for handing each connection or thread its own
    /// handle when the runtime value itself is out of reach — e.g.
    /// the accept loop of a [`crate::RemoteRuntimeNode`].
    #[must_use]
    pub fn fork(&self) -> RuntimeClient {
        RuntimeClient {
            shared: Arc::clone(&self.shared),
            next_id: AtomicU64::new(1),
        }
    }

    /// Predict through the runtime's default endpoint.
    ///
    /// # Errors
    /// Returns [`ServeError::Disconnected`] on a shut-down runtime and
    /// [`ServeError::Predictor`] when the response carries an error: a
    /// predictor failure, a non-finite score, a request refused at
    /// admission.
    pub fn predict(&self, rows: Vec<WireRow>) -> Result<Vec<f64>, ServeError> {
        self.call(Request::new(self.next_id(), rows))
            .and_then(Self::scores)
    }

    /// Predict through a named endpoint, whichever version it serves.
    ///
    /// # Errors
    /// Same conditions as [`predict`](RuntimeClient::predict), plus an
    /// unknown endpoint name.
    pub fn predict_endpoint(
        &self,
        endpoint: &str,
        rows: Vec<WireRow>,
    ) -> Result<Vec<f64>, ServeError> {
        self.call(Request {
            endpoint: Some(endpoint.to_string()),
            ..Request::new(self.next_id(), rows)
        })
        .and_then(Self::scores)
    }

    /// Predict through a named endpoint with an explicit shard-routing
    /// key: equal keys always land on the same shard.
    ///
    /// # Errors
    /// Same conditions as
    /// [`predict_endpoint`](RuntimeClient::predict_endpoint).
    pub fn predict_keyed(
        &self,
        endpoint: &str,
        key: &str,
        rows: Vec<WireRow>,
    ) -> Result<Vec<f64>, ServeError> {
        self.call(Request {
            endpoint: Some(endpoint.to_string()),
            key: Some(key.to_string()),
            ..Request::new(self.next_id(), rows)
        })
        .and_then(Self::scores)
    }

    /// Predict through a named endpoint pinned to `version`: a version
    /// the endpoint does not serve is a route error.
    ///
    /// # Errors
    /// Same conditions as
    /// [`predict_endpoint`](RuntimeClient::predict_endpoint), plus an
    /// unknown version.
    pub fn predict_version(
        &self,
        endpoint: &str,
        version: u32,
        rows: Vec<WireRow>,
    ) -> Result<Vec<f64>, ServeError> {
        self.call(Request {
            endpoint: Some(endpoint.to_string()),
            version: Some(version),
            ..Request::new(self.next_id(), rows)
        })
        .and_then(Self::scores)
    }

    /// Send a fully-specified [`Request`] and return its [`Response`]
    /// (including the endpoint/version echo). Both stay structs end to
    /// end: nothing is serialized inside the process. The request's
    /// `id` is used as given — assign nonzero ids.
    ///
    /// A request routed to a local shard whose worker has nothing
    /// queued runs on the calling thread when one of the runtime's
    /// [`ServerConfig::workers`] execution slots is free and no more
    /// than `workers` callers wait for local answers, so no thread is
    /// woken; otherwise it is queued for the worker.
    ///
    /// # Errors
    /// Returns [`ServeError::Disconnected`] when the runtime has shut
    /// down, or when the servable panicked while serving this request —
    /// on a runtime thread or on this one; the panic is caught either
    /// way and the runtime keeps serving. A predictor-side
    /// failure is *not* an `Err` here; it arrives as
    /// [`Response::error`].
    pub fn call(&self, req: Request) -> Result<Response, ServeError> {
        self.shared.admit_request(req)
    }

    fn scores(resp: Response) -> Result<Vec<f64>, ServeError> {
        match resp.error {
            Some(err) => Err(ServeError::Predictor(err)),
            None => Ok(resp.scores),
        }
    }
}

/// Build a wire row from a table row (helper for clients and
/// experiments).
///
/// # Errors
/// Returns [`ServeError::BadRequest`] for out-of-range rows.
pub fn table_row_to_wire(table: &Table, r: usize) -> Result<WireRow, ServeError> {
    let values = table.row(r).map_err(|e| ServeError::BadRequest {
        reason: e.to_string(),
    })?;
    Ok(table
        .column_names()
        .into_iter()
        .map(str::to_string)
        .zip(values)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use willump_data::Value;

    /// A trivial predictor: score = factor * x.
    struct Scaler(f64);
    impl Servable for Scaler {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            let col = table
                .column("x")
                .ok_or_else(|| "missing x".to_string())?
                .to_f64_vec()
                .map_err(|e| e.to_string())?;
            Ok(col.into_iter().map(|v| v * self.0).collect())
        }
    }

    fn wire_rows(xs: &[f64]) -> Vec<WireRow> {
        xs.iter()
            .map(|&x| vec![("x".to_string(), Value::Float(x))])
            .collect()
    }

    fn two_endpoint_runtime(workers: usize) -> ServingRuntime {
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(workers).build());
        b.endpoint("double", Arc::new(Scaler(2.0))).shards(2);
        b.endpoint("triple", Arc::new(Scaler(3.0))).shards(2);
        b.build().expect("runtime builds")
    }

    #[test]
    fn routes_by_endpoint_name() {
        let rt = two_endpoint_runtime(2);
        let client = rt.client();
        assert_eq!(
            client
                .predict_endpoint("double", wire_rows(&[2.0]))
                .unwrap(),
            vec![4.0]
        );
        assert_eq!(
            client
                .predict_endpoint("triple", wire_rows(&[2.0]))
                .unwrap(),
            vec![6.0]
        );
        // Unaddressed requests go to the first registered endpoint.
        assert_eq!(rt.default_endpoint(), "double");
        assert_eq!(client.predict(wire_rows(&[5.0])).unwrap(), vec![10.0]);
    }

    #[test]
    fn unknown_endpoint_and_version_are_route_errors() {
        let rt = two_endpoint_runtime(1);
        let client = rt.client();
        let err = client
            .predict_endpoint("nonesuch", wire_rows(&[1.0]))
            .unwrap_err();
        assert!(matches!(err, ServeError::Predictor(ref m) if m.contains("unknown endpoint")));
        let err = client
            .predict_version("double", 9, wire_rows(&[1.0]))
            .unwrap_err();
        assert!(matches!(err, ServeError::Predictor(ref m) if m.contains("no version 9")));
        assert_eq!(rt.stats().route_errors(), 2);
        assert_eq!(rt.stats().requests(), 2);
    }

    #[test]
    fn response_echoes_endpoint_and_version() {
        let rt = two_endpoint_runtime(1);
        let client = rt.client();
        let resp = client
            .call(Request {
                endpoint: Some("triple".to_string()),
                ..Request::new(41, wire_rows(&[1.0]))
            })
            .unwrap();
        assert_eq!(resp.id, 41);
        assert_eq!(resp.endpoint.as_deref(), Some("triple"));
        assert_eq!(resp.version, Some(1));
    }

    #[test]
    fn same_key_same_shard() {
        for shards in [1usize, 2, 3, 8] {
            let a = shard_for_key("user-42", shards);
            for _ in 0..10 {
                assert_eq!(shard_for_key("user-42", shards), a);
                assert!(shard_for_key("user-42", shards) < shards.max(1));
            }
        }
        // Different keys spread: over many keys, more than one shard
        // is hit (probabilistic but astronomically safe).
        let hit: std::collections::HashSet<usize> = (0..64)
            .map(|i| shard_for_key(&format!("k{i}"), 8))
            .collect();
        assert!(hit.len() > 1);
    }

    #[test]
    fn keyed_requests_stick_to_one_shard() {
        let rt = two_endpoint_runtime(4);
        let client = rt.client();
        for i in 0..12 {
            client
                .predict_keyed("double", "session-7", wire_rows(&[i as f64]))
                .unwrap();
        }
        let ep = rt.endpoint("double", 1).unwrap();
        let per_shard = ep.stats().shard_requests();
        assert_eq!(per_shard.iter().sum::<u64>(), 12);
        assert_eq!(
            per_shard.iter().filter(|&&c| c > 0).count(),
            1,
            "one key must land on exactly one shard: {per_shard:?}"
        );
    }

    #[test]
    fn builder_rejects_bad_registrations() {
        // No endpoints.
        assert!(ServingRuntime::builder().build().is_err());
        // A name registered twice, under the same version or another.
        for version in [1, 2] {
            let mut b = ServingRuntime::builder();
            b.endpoint("m", Arc::new(Scaler(1.0)));
            b.endpoint("m", Arc::new(Scaler(2.0))).version(version);
            let reason = "endpoint `m` registered twice".to_string();
            assert_eq!(b.build().err(), Some(ServeError::BadRequest { reason }));
        }
        // Unknown default endpoint.
        let mut b = ServingRuntime::builder();
        b.endpoint("m", Arc::new(Scaler(1.0)));
        b.default_endpoint("nope");
        assert!(b.build().is_err());
    }

    #[test]
    fn static_scheduler_spreads_shards_over_workers() {
        let rt = two_endpoint_runtime(4);
        let eps = rt.endpoints();
        let all: Vec<usize> = eps.iter().flat_map(|e| e.assignment()).collect();
        // 2 endpoints x 2 shards round-robin over 4 workers.
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unkeyed_requests_spread_round_robin() {
        let rt = two_endpoint_runtime(4);
        let client = rt.client();
        for i in 0..8 {
            // Identical content every time: a hot unkeyed request must
            // still spread over the shards (old shared-queue behavior),
            // not pile onto one worker.
            let _ = i;
            client
                .predict_endpoint("double", wire_rows(&[7.0]))
                .unwrap();
        }
        let per_shard = rt.endpoint("double", 1).unwrap().stats().shard_requests();
        assert_eq!(per_shard, vec![4, 4]);
    }

    /// A predictor with a controllable service time, for driving the
    /// admission estimator into its degrade/shed bands.
    struct SlowScaler(Duration, f64);
    impl Servable for SlowScaler {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            std::thread::sleep(self.0);
            Scaler(self.1).predict_table(table)
        }
    }

    #[test]
    fn admission_sheds_when_estimated_p99_breaches_slo() {
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(1).build());
        b.admission(AdmissionPolicy::with_slo_p99(Duration::from_micros(10)).min_samples(4));
        b.endpoint("slow", Arc::new(SlowScaler(Duration::from_millis(3), 2.0)));
        let rt = b.build().unwrap();
        let client = rt.client();
        // Below `min_samples` observed service times, everything is
        // admitted — the estimator refuses to act on thin data.
        for _ in 0..4 {
            assert_eq!(
                client.predict_endpoint("slow", wire_rows(&[1.0])).unwrap(),
                vec![2.0]
            );
        }
        // With observed p99 around 3 ms against a 10 µs SLO (and no
        // degraded form registered), the next request is shed.
        let resp = client
            .call(Request {
                endpoint: Some("slow".to_string()),
                ..Request::new(99, wire_rows(&[1.0]))
            })
            .unwrap();
        assert!(resp.overloaded, "expected shed, got {resp:?}");
        assert!(resp.scores.is_empty());
        assert!(resp
            .error
            .as_deref()
            .unwrap_or_default()
            .contains("overloaded"));
        assert_eq!(resp.endpoint.as_deref(), Some("slow"));
        assert_eq!(resp.version, Some(1));
        let ep = rt.endpoint("slow", 1).unwrap();
        assert_eq!(rt.stats().shed(), 1);
        assert_eq!(ep.stats().shed(), 1);
        assert!(ep.service_p99_nanos().unwrap() >= 2_000_000);
        // Shed requests count as requests but never as served rows.
        assert_eq!(rt.stats().requests(), 5);
        assert_eq!(rt.stats().rows(), 4);
        // The arrival-rate EWMA reports only completed windows: let
        // the 100 ms bin close, then one more (shed) arrival seals it.
        std::thread::sleep(Duration::from_millis(120));
        let resp = client
            .call(Request {
                endpoint: Some("slow".to_string()),
                ..Request::new(100, wire_rows(&[1.0]))
            })
            .unwrap();
        assert!(resp.overloaded);
        assert!(ep.arrival_rate() > 0.0);
    }

    #[test]
    fn admission_degrades_before_shedding() {
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(1).build());
        // An effectively infinite shed factor keeps the overload
        // estimate inside the degrade band.
        b.admission(
            AdmissionPolicy::with_slo_p99(Duration::from_micros(10))
                .shed_factor(1e12)
                .min_samples(4),
        );
        b.endpoint("slow", Arc::new(SlowScaler(Duration::from_millis(3), 2.0)))
            .degraded_servable(Arc::new(Scaler(10.0)));
        let rt = b.build().unwrap();
        assert!(rt.endpoint("slow", 1).unwrap().can_degrade());
        let client = rt.client();
        for _ in 0..4 {
            assert_eq!(
                client.predict_endpoint("slow", wire_rows(&[1.0])).unwrap(),
                vec![2.0]
            );
        }
        // Past the SLO but below the shed line: served by the degraded
        // servable (scale 10), marked `degraded`, never `overloaded`.
        let resp = client
            .call(Request {
                endpoint: Some("slow".to_string()),
                ..Request::new(7, wire_rows(&[1.0]))
            })
            .unwrap();
        assert!(resp.degraded, "expected degraded service, got {resp:?}");
        assert!(!resp.overloaded);
        assert_eq!(resp.scores, vec![10.0]);
        assert_eq!(rt.stats().degraded(), 1);
        assert_eq!(rt.endpoint("slow", 1).unwrap().stats().degraded(), 1);
        assert_eq!(rt.stats().shed(), 0);
    }

    #[test]
    fn degrade_band_without_lowering_serves_full() {
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(1).build());
        b.admission(
            AdmissionPolicy::with_slo_p99(Duration::from_micros(10))
                .shed_factor(1e12)
                .min_samples(4),
        );
        // No degraded servable registered: the degrade band must fall
        // back to full service rather than shedding.
        b.endpoint("slow", Arc::new(SlowScaler(Duration::from_millis(3), 2.0)));
        let rt = b.build().unwrap();
        assert!(!rt.endpoint("slow", 1).unwrap().can_degrade());
        let client = rt.client();
        for _ in 0..6 {
            assert_eq!(
                client.predict_endpoint("slow", wire_rows(&[1.0])).unwrap(),
                vec![2.0]
            );
        }
        assert_eq!(rt.stats().degraded(), 0);
        assert_eq!(rt.stats().shed(), 0);
    }

    #[test]
    fn dominant_key_stays_on_its_key_hash_shard() {
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(2).build());
        // A far-away SLO: admission records telemetry but never
        // degrades or sheds.
        b.admission(AdmissionPolicy::with_slo_p99(Duration::from_secs(60)).min_samples(4));
        b.endpoint("hot", Arc::new(Scaler(2.0))).shards(2);
        let rt = b.build().unwrap();
        let client = rt.client();
        // One key dominating the stream keeps landing on its key-hash
        // shard, where that shard's caches hold its features.
        for i in 0..40 {
            client
                .predict_keyed("hot", "viral-item", wire_rows(&[f64::from(i)]))
                .unwrap();
        }
        let ep = rt.endpoint("hot", 1).unwrap();
        let mut expected = vec![0; 2];
        expected[shard_for_key("viral-item", 2)] = 40;
        assert_eq!(ep.stats().shard_requests(), expected);
        assert_eq!(rt.stats().shed(), 0);
        assert_eq!(rt.stats().degraded(), 0);
    }

    #[test]
    fn cold_keys_keep_key_hash_affinity_under_admission() {
        let mut b = ServingRuntime::builder();
        b.config(ServerConfig::builder().workers(2).build());
        b.admission(AdmissionPolicy::with_slo_p99(Duration::from_secs(60)).min_samples(4));
        b.endpoint("m", Arc::new(Scaler(2.0))).shards(2);
        let rt = b.build().unwrap();
        let client = rt.client();
        // A spread of distinct keys: each keeps deterministic key-hash
        // affinity while admission records telemetry.
        for i in 0..24 {
            let key = format!("user-{}", i % 6);
            let shard = shard_for_key(&key, 2);
            let before = rt.endpoint("m", 1).unwrap().stats().shard_requests();
            client.predict_keyed("m", &key, wire_rows(&[1.0])).unwrap();
            let after = rt.endpoint("m", 1).unwrap().stats().shard_requests();
            assert_eq!(after[shard], before[shard] + 1);
        }
        // Replaying one of those keys lands on its key-hash shard.
        let expect = shard_for_key("user-3", 2);
        let before = rt.endpoint("m", 1).unwrap().stats().shard_requests();
        client
            .predict_keyed("m", "user-3", wire_rows(&[1.0]))
            .unwrap();
        let after = rt.endpoint("m", 1).unwrap().stats().shard_requests();
        assert_eq!(after[expect], before[expect] + 1);
        assert_eq!(rt.stats().shed(), 0);
    }

    #[test]
    fn shutdown_disconnects_clients() {
        let mut rt = two_endpoint_runtime(2);
        let client = rt.client();
        assert!(client.predict(wire_rows(&[1.0])).is_ok());
        rt.shutdown();
        rt.shutdown();
        let before = rt.stats().requests();
        assert!(matches!(
            client.predict(wire_rows(&[1.0])),
            Err(ServeError::Disconnected)
        ));
        // Rejected post-shutdown calls leave no trace in the stats.
        assert_eq!(rt.stats().requests(), before);
    }

    /// Execution slots through a panic and a shutdown. A leaked slot or
    /// a lost wake-up hangs instead of failing, so each test runs under
    /// a watchdog.
    mod slots {
        use super::*;
        use std::sync::mpsc::{self, RecvTimeoutError};
        use std::thread::ThreadId;

        /// Run `body` on a thread of its own; fail when it panics or
        /// has not returned within ten seconds.
        fn under_watchdog(body: impl FnOnce() + Send + 'static) {
            let (done_tx, done_rx) = mpsc::channel();
            let body = std::thread::spawn(move || {
                body();
                let _ = done_tx.send(());
            });
            // A panicking body drops the sender; the join reports it.
            if done_rx.recv_timeout(Duration::from_secs(10)) == Err(RecvTimeoutError::Timeout) {
                panic!("hung: a slot leaked or a wake-up was lost");
            }
            if let Err(panic) = body.join() {
                std::panic::resume_unwind(panic);
            }
        }

        /// Scores 2x, and panics on a negative x.
        struct PanicsOnNegative;
        impl Servable for PanicsOnNegative {
            fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
                let scores = Scaler(2.0).predict_table(table)?;
                assert!(scores.iter().all(|&s| s >= 0.0), "negative input");
                Ok(scores)
            }
        }

        #[test]
        fn an_inline_panic_answers_disconnected_and_gives_the_slot_back() {
            under_watchdog(|| {
                let mut b = ServingRuntime::builder();
                b.config(ServerConfig::builder().workers(1).build());
                b.endpoint("m", Arc::new(PanicsOnNegative));
                let rt = b.build().unwrap();
                let client = rt.client();
                // The caller runs it, and reads what a panic on a
                // runtime thread gives a queued caller.
                assert_eq!(
                    client.predict(wire_rows(&[-1.0])),
                    Err(ServeError::Disconnected)
                );
                assert_eq!(rt.stats().worker_batches(), vec![1]);
                // Had the runtime's one slot leaked, this request would
                // queue for a worker that never gets a slot, and the
                // drop would wait for the slot forever.
                assert_eq!(client.predict(wire_rows(&[3.0])).unwrap(), vec![6.0]);
                drop(rt);
            });
        }

        /// A servable that panics on a runtime thread fails the batch it
        /// was serving, and the thread serves on: with one worker, the
        /// next queued request would otherwise never be answered.
        #[test]
        fn a_queued_panic_answers_disconnected_and_the_thread_serves_on() {
            under_watchdog(|| {
                let mut b = ServingRuntime::builder();
                b.config(ServerConfig::builder().workers(1).build());
                b.endpoint("m", Arc::new(PanicsOnNegative));
                let rt = b.build().unwrap();
                // Counted beside another caller, every call queues.
                rt.shared.local_callers.store(1, Ordering::SeqCst);
                let client = rt.client();
                assert_eq!(
                    client.predict(wire_rows(&[-1.0])),
                    Err(ServeError::Disconnected)
                );
                assert_eq!(client.predict(wire_rows(&[3.0])).unwrap(), vec![6.0]);
                assert_eq!(rt.stats().worker_batches(), vec![2]);
                rt.shared.local_callers.store(0, Ordering::SeqCst);
                drop(rt);
            });
        }

        /// Shutdown against inline callers, on one worker with a
        /// one-job queue: shutdown closes admission while callers run
        /// inline, queue, or wait for queue room, and must return once
        /// every slot is back, with every caller answered or refused.
        #[test]
        fn shutdown_racing_inline_callers_returns() {
            under_watchdog(|| {
                for _ in 0..200 {
                    let mut b = ServingRuntime::builder();
                    b.config(ServerConfig::builder().workers(1).queue_capacity(1).build());
                    b.endpoint("m", Arc::new(Scaler(2.0)));
                    let mut rt = b.build().unwrap();
                    let callers: Vec<_> = (0..3)
                        .map(|_| {
                            let client = rt.client();
                            std::thread::spawn(move || {
                                while let Ok(scores) = client.predict(wire_rows(&[1.0])) {
                                    assert_eq!(scores, vec![2.0]);
                                }
                            })
                        })
                        .collect();
                    while rt.stats().requests() < 8 {
                        std::thread::yield_now();
                    }
                    rt.shutdown();
                    for caller in callers {
                        caller.join().unwrap();
                    }
                }
            });
        }

        /// Scores 2x once the test opens it, after reporting which
        /// thread runs it; `finished` is set on the way out.
        struct Gated {
            entered: mpsc::Sender<ThreadId>,
            open: Mutex<mpsc::Receiver<()>>,
            finished: AtomicBool,
        }
        impl Servable for Gated {
            fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
                let _ = self.entered.send(std::thread::current().id());
                let _ = self.open.lock().recv();
                let scores = Scaler(2.0).predict_table(table);
                self.finished.store(true, Ordering::SeqCst);
                scores
            }
        }

        #[test]
        fn shutdown_returns_only_after_an_inline_request_is_answered() {
            under_watchdog(|| {
                let (entered_tx, entered_rx) = mpsc::channel();
                let (open_tx, open_rx) = mpsc::channel();
                let gated = Arc::new(Gated {
                    entered: entered_tx,
                    open: Mutex::new(open_rx),
                    finished: AtomicBool::new(false),
                });
                let mut b = ServingRuntime::builder();
                b.config(ServerConfig::builder().workers(1).build());
                b.endpoint("m", Arc::clone(&gated) as Arc<dyn Servable>);
                let mut rt = b.build().unwrap();
                let client = rt.client();
                let caller = std::thread::spawn(move || client.predict(wire_rows(&[2.0])));
                let runs_on = entered_rx.recv().unwrap();
                assert_eq!(runs_on, caller.thread().id(), "the caller runs it");

                let (down_tx, down_rx) = mpsc::channel();
                let shutdown = std::thread::spawn(move || {
                    rt.shutdown();
                    let _ = down_tx.send(gated.finished.load(Ordering::SeqCst));
                });
                assert_eq!(
                    down_rx.recv_timeout(Duration::from_millis(50)),
                    Err(RecvTimeoutError::Timeout),
                    "shutdown returned while the request ran"
                );
                open_tx.send(()).unwrap();
                assert_eq!(down_rx.recv(), Ok(true), "the request finished first");
                assert_eq!(caller.join().unwrap(), Ok(vec![4.0]));
                shutdown.join().unwrap();
            });
        }

        fn gated() -> (Arc<Gated>, mpsc::Receiver<ThreadId>, mpsc::Sender<()>) {
            let (entered_tx, entered_rx) = mpsc::channel();
            let (open_tx, open_rx) = mpsc::channel();
            let gated = Arc::new(Gated {
                entered: entered_tx,
                open: Mutex::new(open_rx),
                finished: AtomicBool::new(false),
            });
            (gated, entered_rx, open_tx)
        }

        /// Callers that outnumber the workers queue even while a slot
        /// is free: on two workers, with two other callers counted as
        /// waiting for local answers, a caller whose worker has nothing
        /// queued is served by a runtime thread rather than on its own.
        #[test]
        fn callers_that_outnumber_the_workers_queue() {
            under_watchdog(|| {
                let (t, t_entered, t_open) = gated();
                let mut b = ServingRuntime::builder();
                b.config(ServerConfig::builder().workers(2).build());
                b.endpoint("t", t as Arc<dyn Servable>).shards(2);
                let rt = b.build().unwrap();
                drop(t_open);

                rt.shared.local_callers.store(2, Ordering::SeqCst);
                let client = rt.client();
                let third =
                    std::thread::spawn(move || client.predict_endpoint("t", wire_rows(&[1.0])));
                let runs_on = t_entered.recv().unwrap();
                assert_ne!(runs_on, third.thread().id(), "the third caller ran it");
                assert_eq!(third.join().unwrap(), Ok(vec![2.0]));

                // Counted alone, the caller runs its request itself.
                rt.shared.local_callers.store(0, Ordering::SeqCst);
                let client = rt.client();
                let alone =
                    std::thread::spawn(move || client.predict_endpoint("t", wire_rows(&[1.0])));
                assert_eq!(t_entered.recv().unwrap(), alone.thread().id());
                assert_eq!(alone.join().unwrap(), Ok(vec![2.0]));
            });
        }
    }

    fn x_then_n(x: f64, n: i64) -> WireRow {
        vec![
            ("x".to_string(), Value::Float(x)),
            ("n".to_string(), Value::Int(n)),
        ]
    }

    fn n_then_x(x: f64, n: i64) -> WireRow {
        x_then_n(x, n).into_iter().rev().collect()
    }

    fn bad_request(built: Result<Table, ServeError>) -> String {
        match built {
            Err(ServeError::BadRequest { reason }) => reason,
            other => panic!("expected a bad request, got {other:?}"),
        }
    }

    /// A row listing its columns in another order than the first row
    /// puts its values in the right columns, whether the rows are one
    /// request's (`handle_one`) or a coalesced group's (`serve_group`).
    #[test]
    fn a_reordered_row_lands_in_the_right_columns() {
        let single = vec![x_then_n(1.0, 10), n_then_x(2.0, 20), x_then_n(3.0, 30)];
        let group = [
            vec![x_then_n(1.0, 10)],
            vec![n_then_x(2.0, 20), x_then_n(3.0, 30)],
        ];
        for table in [
            rows_to_table(&single).unwrap(),
            rows_to_table(group.iter().flatten()).unwrap(),
        ] {
            assert_eq!(table.column_names(), vec!["x", "n"]);
            let xs = table.column("x").unwrap().to_f64_vec().unwrap();
            assert_eq!(xs, vec![1.0, 2.0, 3.0]);
            let ns = table.column("n").unwrap().to_f64_vec().unwrap();
            assert_eq!(ns, vec![10.0, 20.0, 30.0]);
        }
    }

    /// A row without one of the first row's columns is a bad request on
    /// both paths; so are a value of the wrong type and a null value in
    /// the first row, each with its own reason.
    #[test]
    fn a_row_missing_a_column_is_a_bad_request() {
        let short = vec![("n".to_string(), Value::Int(20))];
        let single = vec![x_then_n(1.0, 10), short.clone()];
        let group = [vec![x_then_n(1.0, 10)], vec![short]];
        for built in [
            rows_to_table(&single),
            rows_to_table(group.iter().flatten()),
        ] {
            assert_eq!(bad_request(built), "row missing column `x`");
        }

        let mistyped = vec![
            ("x".to_string(), Value::from("two")),
            ("n".to_string(), Value::Int(20)),
        ];
        let reason = bad_request(rows_to_table(&[x_then_n(1.0, 10), mistyped]));
        assert!(reason.starts_with("column `x`: "), "{reason}");

        let null = vec![("x".to_string(), Value::Null)];
        assert_eq!(
            bad_request(rows_to_table(&[null])),
            "column `x` has null prototype value"
        );
    }
}
