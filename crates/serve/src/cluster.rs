//! Cluster control plane: active health probing with automatic shard
//! re-admission, and statistics-driven shard placement.
//!
//! PR 5 and PR 8 gave the runtime cross-process shards over a binary
//! wire, but membership was frozen at build time: a circuit breaker
//! stopped routing to a dead node and nothing ever brought it back,
//! and shard→node assignment was hand-written. This module closes the
//! loop, the same move Willump makes for pipeline compilation —
//! drive decisions from *measured* statistics instead of static
//! configuration:
//!
//! - **Prober** ([`ServingRuntime::start_cluster`]): a background
//!   thread that sweeps every endpoint's remote slots and exercises
//!   [`WorkerTransport::forward_probe`] against any shard whose
//!   breaker is not [`BreakerState::Closed`]. A successful probe
//!   refreshes the slot's cached plan counters *and* closes the
//!   breaker, so a recovered node re-enters the key-hash routing
//!   domain with no restart and no manual call. Probe traffic is
//!   visible at every stats level (`probes_sent` / `probes_ok` on
//!   [`TransportStats`], [`crate::EndpointStats`], and
//!   [`crate::ServerStats`]) and never counts as a forward.
//! - **Coordinator** ([`ClusterCoordinator`]): scores each registered
//!   node from the statistics the runtime already collects — merged
//!   [`PlanCountersSnapshot`]s, transport latency, failure counts,
//!   breaker state — and [`rebalance`](ClusterCoordinator::rebalance)
//!   migrates **at most one shard per cycle** from the hottest node
//!   to the coolest (drain, detach, re-attach), without thrash.
//!
//! The drain lifecycle underneath ([`ServingRuntime::drain_shard`])
//! guarantees zero in-flight loss structurally: every request routes
//! over an `Arc` snapshot of the slot list, so detaching a slot can
//! never invalidate work that already picked it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use willump::{Clock, PlanCountersSnapshot, SystemClock};

use crate::monitor::{MonitorEvent, StatsHub};
use crate::remote::{BreakerState, RemoteWorker, TransportStats, WorkerTransport};
use crate::runtime::{Endpoint, ServingRuntime, Shared};

/// Configuration for the background cluster prober
/// ([`ServingRuntime::start_cluster`]).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// How often the prober sweeps every endpoint's remote slots
    /// (default 50ms). Each sweep probes only shards whose breaker is
    /// not [`BreakerState::Closed`], so a healthy cluster pays
    /// nothing.
    pub probe_interval: Duration,
    /// Time source the prober waits on (default [`SystemClock`]).
    /// Inject a [`willump::ManualClock`] to drive sweeps
    /// deterministically in tests.
    pub clock: Arc<dyn Clock>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            probe_interval: Duration::from_millis(50),
            clock: Arc::new(SystemClock::new()),
        }
    }
}

/// Handle to a running cluster prober. Stop it explicitly with
/// [`stop`](ClusterHandle::stop) or implicitly by dropping; either
/// joins the prober thread.
#[derive(Debug)]
pub struct ClusterHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ClusterHandle {
    /// Signal the prober to exit and join it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ClusterHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

impl ServingRuntime {
    /// Start the cluster health prober: a background thread that
    /// periodically exercises [`WorkerTransport::forward_probe`]
    /// against every remote shard whose circuit breaker is not
    /// [`BreakerState::Closed`], automatically re-admitting nodes
    /// that answer (their breaker closes and their cached plan
    /// counters refresh). The prober holds only the runtime's shared
    /// core, so it never blocks shutdown; stop it via the returned
    /// [`ClusterHandle`].
    pub fn start_cluster(&self, config: ClusterConfig) -> ClusterHandle {
        let core = self.cluster_core();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let interval = u64::try_from(config.probe_interval.as_nanos()).unwrap_or(u64::MAX);
        let thread = std::thread::spawn(move || {
            let clock = config.clock;
            let mut deadline = clock.now_nanos();
            while !stop_flag.load(Ordering::Relaxed) {
                probe_sweep(&core);
                // Schedule from the previous deadline, not from "now",
                // so a slow sweep doesn't drift the cadence.
                deadline = deadline.saturating_add(interval).max(clock.now_nanos());
                if !clock.wait_until(deadline, &stop_flag) {
                    return;
                }
            }
        });
        ClusterHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// One prober pass: probe every non-closed remote slot of every
/// endpoint, recording probe traffic at the endpoint and server
/// levels (the transport records its own `probes_sent`/`probes_ok`).
fn probe_sweep(core: &Shared) {
    for endpoint in core.all_endpoints() {
        for slot in endpoint.remote_slots() {
            if slot.transport.breaker_state() == BreakerState::Closed {
                continue;
            }
            let ok = match slot
                .transport
                .probe_counters(endpoint.name(), endpoint.version())
            {
                Ok(snapshot) => {
                    // A node that answers is healthy again: cache its
                    // counters so the next placement pass scores it
                    // from fresh statistics, not from before it died.
                    *slot.counters.lock() = snapshot;
                    true
                }
                Err(_) => false,
            };
            core.server_stats().record_probe(ok);
            endpoint.stats().record_probe(ok);
        }
    }
}

// ---- placement -----------------------------------------------------

/// Atomic per-remote-shard placement view (see
/// [`Endpoint::remote_shard_views`]): everything the
/// [`ClusterCoordinator`] scores, snapshotted from one coherent slot
/// list.
#[derive(Debug, Clone)]
pub struct RemoteShardView {
    /// Process-wide unique slot id, stable for the slot's lifetime
    /// (shard *indices* shift as slots splice in and out; topology
    /// diffing keys on this).
    pub slot_id: u64,
    /// Global shard index (`local_shards()..`) at snapshot time.
    pub shard: usize,
    /// Transport description (e.g. `tcp://host:port`).
    pub description: String,
    /// Transport counters, including probe traffic.
    pub stats: TransportStats,
    /// Circuit-breaker state.
    pub breaker: BreakerState,
    /// Last plan-counter snapshot fetched from the node.
    pub counters: PlanCountersSnapshot,
    /// Whether the slot is draining (excluded from routing).
    pub draining: bool,
}

impl Endpoint {
    /// Per-remote-shard placement views in shard order, snapshotted
    /// from one coherent slot list (unlike combining
    /// [`transport_stats`](Endpoint::transport_stats) and friends,
    /// which each re-read the live topology).
    pub fn remote_shard_views(&self) -> Vec<RemoteShardView> {
        let local = self.local_shards();
        self.remote_slots()
            .iter()
            .enumerate()
            .map(|(i, slot)| RemoteShardView {
                slot_id: slot.id,
                shard: local + i,
                description: slot.transport.describe(),
                stats: slot.transport.stats(),
                breaker: slot.transport.breaker_state(),
                counters: *slot.counters.lock(),
                draining: slot.is_draining(),
            })
            .collect()
    }
}

/// One shard migration decided (and, via
/// [`ClusterCoordinator::rebalance`], applied) by the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// Endpoint name.
    pub endpoint: String,
    /// Endpoint version.
    pub version: u32,
    /// Global shard index drained off the hot node.
    pub shard: usize,
    /// Node address the shard left.
    pub from: String,
    /// Node address the replacement shard was attached to.
    pub to: String,
}

/// Statistics-driven shard placement across a set of registered
/// nodes.
///
/// The coordinator places remote shards from the statistics the
/// runtime already collects: it reads each **node's**
/// [`PlanCountersSnapshot`] (the plans' [`PlanCounters`], fetched by
/// counters probes and by [`ServingRuntime::refresh_remote_counters`])
/// plus its transports' latency/failure counters to decide which node
/// each remote shard should live on. A
/// [`rebalance`](ClusterCoordinator::rebalance) cycle migrates **at
/// most one**
/// shard (hottest node → coolest node) and only when the score gap
/// exceeds the hysteresis threshold, so placement converges instead
/// of thrashing.
///
/// [`PlanCounters`]: willump::PlanCounters
#[derive(Debug, Clone)]
pub struct ClusterCoordinator {
    nodes: Vec<String>,
    min_score_gap: f64,
    drain_timeout: Duration,
    monitor: Option<StatsHub>,
}

impl Default for ClusterCoordinator {
    fn default() -> ClusterCoordinator {
        ClusterCoordinator::new()
    }
}

impl ClusterCoordinator {
    /// A coordinator with no registered nodes, a score-gap hysteresis
    /// of 1.0, and a 5s migration drain timeout.
    #[must_use]
    pub fn new() -> ClusterCoordinator {
        ClusterCoordinator {
            nodes: Vec::new(),
            min_score_gap: 1.0,
            drain_timeout: Duration::from_secs(5),
            monitor: None,
        }
    }

    /// Publish every applied migration to `hub` as a
    /// [`MonitorEvent::Migration`], threading coordinator decisions
    /// into the same event history the sampler writes.
    pub fn with_monitor(&mut self, hub: StatsHub) -> &mut ClusterCoordinator {
        self.monitor = Some(hub);
        self
    }

    /// Register a node address (`host:port`) as a placement target.
    /// Shards are matched to nodes by transport description, so the
    /// address must match what the shard's transport reports (a
    /// [`RemoteWorker`] reports `tcp://{addr}`).
    pub fn register_node(&mut self, addr: &str) -> &mut ClusterCoordinator {
        if !self.nodes.iter().any(|n| n == addr) {
            self.nodes.push(addr.to_string());
        }
        self
    }

    /// Set the minimum hot-to-cool score gap below which
    /// [`rebalance`](ClusterCoordinator::rebalance) holds still.
    pub fn min_score_gap(&mut self, gap: f64) -> &mut ClusterCoordinator {
        self.min_score_gap = gap;
        self
    }

    /// Set how long a migration waits for the drained shard's
    /// in-flight forwards before force-detaching it.
    pub fn drain_timeout(&mut self, timeout: Duration) -> &mut ClusterCoordinator {
        self.drain_timeout = timeout;
        self
    }

    /// The registered node addresses.
    #[must_use]
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Score every registered node from the runtime's current
    /// statistics (higher = more loaded). A node's score sums, over
    /// every non-draining slot it serves: the node's plan-counter
    /// [`placement_pressure`](PlanCountersSnapshot::placement_pressure),
    /// the slot's mean forward latency in milliseconds, a 10-point
    /// penalty per transport failure, and a 100-point penalty for an
    /// open breaker (a dead node should shed its shards first).
    pub fn node_scores(&self, runtime: &ServingRuntime) -> Vec<(String, f64)> {
        self.nodes
            .iter()
            .map(|addr| {
                let mut score = 0.0;
                for endpoint in runtime.endpoints() {
                    for view in endpoint.remote_shard_views() {
                        if view.draining || !view.description.contains(addr.as_str()) {
                            continue;
                        }
                        score += view.counters.placement_pressure();
                        if view.stats.forwards > 0 {
                            score += view.stats.total_nanos as f64
                                / view.stats.forwards as f64
                                / 1_000_000.0;
                        }
                        score += view.stats.failures as f64 * 10.0;
                        if view.breaker == BreakerState::Open {
                            score += 100.0;
                        }
                    }
                }
                (addr.clone(), score)
            })
            .collect()
    }

    /// Decide the next migration without applying it: the first
    /// non-draining shard found on the hottest node moves to the
    /// coolest node, provided the score gap exceeds the hysteresis
    /// threshold. Returns `None` when placement is already balanced
    /// (or fewer than two nodes are registered).
    #[must_use]
    pub fn plan(&self, runtime: &ServingRuntime) -> Option<Migration> {
        let scores = self.node_scores(runtime);
        if scores.len() < 2 {
            return None;
        }
        let (hot, hot_score) = scores
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, s)| (n.clone(), *s))?;
        let (cool, cool_score) = scores
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, s)| (n.clone(), *s))?;
        if hot == cool || hot_score - cool_score < self.min_score_gap {
            return None;
        }
        for endpoint in runtime.endpoints() {
            for view in endpoint.remote_shard_views() {
                if view.draining || !view.description.contains(hot.as_str()) {
                    continue;
                }
                return Some(Migration {
                    endpoint: endpoint.name().to_string(),
                    version: endpoint.version(),
                    shard: view.shard,
                    from: hot,
                    to: cool,
                });
            }
        }
        None
    }

    /// Run one placement cycle: [`plan`](ClusterCoordinator::plan)
    /// a migration and apply it — drain the shard off the hot node
    /// (force-detaching after the drain timeout; in-flight work still
    /// completes on its own handles either way) and attach a
    /// replacement [`RemoteWorker`] shard on the cool node. At most
    /// one shard moves per call. Returns the applied migration, or
    /// `None` when placement is already balanced.
    pub fn rebalance(&self, runtime: &ServingRuntime) -> Option<Migration> {
        let migration = self.plan(runtime)?;
        if runtime
            .drain_shard(
                &migration.endpoint,
                migration.version,
                migration.shard,
                self.drain_timeout,
            )
            .is_err()
        {
            runtime
                .remove_shard(&migration.endpoint, migration.version, migration.shard)
                .ok()?;
        }
        let transport: Arc<dyn WorkerTransport> = Arc::new(RemoteWorker::new(&migration.to));
        runtime
            .add_remote_shard(&migration.endpoint, migration.version, transport)
            .ok()?;
        if let Some(hub) = &self.monitor {
            hub.record_event(MonitorEvent::Migration(migration.clone()));
        }
        Some(migration)
    }
}
