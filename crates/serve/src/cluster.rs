//! Cluster control plane: active health probing with automatic shard
//! re-admission.
//!
//! A circuit breaker stops routing to a dead node; the prober brings
//! it back once it answers again, so membership needs no restart and
//! no manual call:
//!
//! - **Prober** ([`ServingRuntime::start_cluster`]): a background
//!   thread that sweeps every endpoint's remote slots and exercises
//!   [`crate::WorkerTransport::forward_probe`] against any shard whose
//!   breaker is not [`BreakerState::Closed`]. A successful probe
//!   refreshes the slot's cached plan counters *and* closes the
//!   breaker, so a recovered node re-enters the key-hash routing
//!   domain. Probe traffic is visible at every stats level
//!   (`probes_sent` / `probes_ok` on [`crate::TransportStats`],
//!   [`crate::EndpointStats`], and [`crate::ServerStats`]) and never
//!   counts as a forward.
//!
//! Placement itself is fixed: a keyed request hashes onto the
//! endpoint's current shard domain ([`crate::shard_for_key`]) and
//! nothing moves a key or a shard behind the operator's back. Shards
//! change only through [`ServingRuntime::add_remote_shard`],
//! [`ServingRuntime::drain_shard`] and
//! [`ServingRuntime::remove_shard`]. The drain lifecycle guarantees
//! zero in-flight loss structurally: every request routes over an
//! `Arc` snapshot of the slot list, so detaching a slot can never
//! invalidate work that already picked it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use willump::{Clock, SystemClock};

use crate::remote::BreakerState;
use crate::runtime::{ServingRuntime, Shared};

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
    /// periodically exercises [`crate::WorkerTransport::forward_probe`]
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
                    // counters so merged endpoint counters read fresh
                    // statistics, not those from before it died.
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
