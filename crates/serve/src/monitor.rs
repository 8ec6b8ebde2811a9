//! Live ops surface: the [`StatsHub`] monitor.
//!
//! Every PR so far added counters — [`crate::ServerStats`],
//! [`crate::EndpointStats`], [`crate::TransportStats`], breaker
//! states, plan counters — but reading them meant polling the runtime
//! by hand and diffing snapshots in test code. This module packages
//! that pattern as a first-class subsystem:
//!
//! - A [`StatsHub`] holds a bounded ring of [`MonitorSample`]s — each
//!   a coherent point-in-time copy of the global
//!   [`ServerStatsSnapshot`](crate::ServerStatsSnapshot), per-endpoint
//!   [`EndpointStatsSnapshot`], and per-remote-shard transport /
//!   breaker state — plus a typed [`MonitorEvent`] feed.
//! - [`ServingRuntime::start_monitor`] spawns a background sampler
//!   that ticks on a fixed interval through an injectable
//!   [`Clock`], so deterministic tests drive it with a
//!   [`willump::ManualClock`] while production uses wall time.
//! - Events are *derived*, not instrumented: the sampler diffs
//!   consecutive topology snapshots (keyed on stable slot ids, which
//!   survive index shifts as slots splice in and out) to detect
//!   breaker transitions, shard add/drain/remove, and SLO shed
//!   episodes.
//!
//! The history is the ops contract: a cluster lifecycle — node death,
//! breaker opening, prober re-admission, live drain, removal — must
//! be reconstructable purely from [`StatsHub::samples`] and
//! [`StatsHub::events`], with no direct runtime inspection. The soak
//! test in `tests/monitor.rs` holds the crate to exactly that.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use willump::{Clock, SystemClock};

use crate::remote::{BreakerState, TransportStats};
use crate::runtime::{
    Endpoint, EndpointStatsSnapshot, ServerStatsSnapshot, ServingRuntime, Shared,
};

/// Events are small and drops are costly (a missed `ShardRemoved`
/// breaks lifecycle reconstruction), so the event ring holds this
/// many entries per sample-history slot.
const EVENT_HISTORY_FACTOR: usize = 4;

/// Configuration for [`ServingRuntime::start_monitor`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Sampling interval (default 100ms).
    pub interval: Duration,
    /// Number of samples the ring buffer retains (default 512).
    pub history: usize,
    /// Time source the sampler waits on (default [`SystemClock`]).
    /// Inject a [`willump::ManualClock`] to drive ticks
    /// deterministically in tests.
    pub clock: Arc<dyn Clock>,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            interval: Duration::from_millis(100),
            history: 512,
            clock: Arc::new(SystemClock::new()),
        }
    }
}

// ---- samples -------------------------------------------------------

/// One coherent monitor observation: the global server counters next
/// to a timestamp and sequence number, plus one [`EndpointSample`] per
/// endpoint.
///
/// All counter fields are cumulative since runtime start;
/// [`delta`](MonitorSample::delta) turns two consecutive samples into
/// a per-interval view with rate helpers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorSample {
    /// Monotonic sample sequence number (0-based).
    pub seq: u64,
    /// Clock timestamp of the sample in nanoseconds. On a
    /// [`delta`](MonitorSample::delta) this holds the interval length
    /// instead.
    pub at_nanos: u64,
    /// The runtime's global counters at sample time.
    pub server: ServerStatsSnapshot,
    /// Per-endpoint observations, in registration order.
    pub endpoints: Vec<EndpointSample>,
}

impl MonitorSample {
    /// The per-interval view between `prev` and `self` (two samples
    /// from the same hub, `prev` earlier): counters become
    /// differences, high-water marks and gauges carry the later
    /// value, `at_nanos` becomes the interval length, and endpoint
    /// stats are differenced per (name, version).
    #[must_use]
    pub fn delta(&self, prev: &MonitorSample) -> MonitorSample {
        MonitorSample {
            seq: self.seq,
            at_nanos: self.at_nanos.saturating_sub(prev.at_nanos),
            server: self.server.delta(&prev.server),
            endpoints: self
                .endpoints
                .iter()
                .map(|e| match prev.endpoint(&e.name, e.version) {
                    Some(p) => e.delta(p),
                    None => e.clone(),
                })
                .collect(),
        }
    }

    /// Interval length in seconds (meaningful on a
    /// [`delta`](MonitorSample::delta)).
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.at_nanos as f64 / 1e9
    }

    /// Request throughput in requests/sec (meaningful on a
    /// [`delta`](MonitorSample::delta); 0 over an empty interval).
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        let secs = self.elapsed_secs();
        if secs <= 0.0 {
            return 0.0;
        }
        self.server.requests as f64 / secs
    }

    /// Fraction of requests shed at admission (0 with no requests).
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        if self.server.requests == 0 {
            return 0.0;
        }
        self.server.shed as f64 / self.server.requests as f64
    }

    /// Fraction of requests served degraded (0 with no requests).
    #[must_use]
    pub fn degraded_fraction(&self) -> f64 {
        if self.server.requests == 0 {
            return 0.0;
        }
        self.server.degraded as f64 / self.server.requests as f64
    }

    /// The sample of one endpoint by name and version, if present.
    #[must_use]
    pub fn endpoint(&self, name: &str, version: u32) -> Option<&EndpointSample> {
        self.endpoints
            .iter()
            .find(|e| e.name == name && e.version == version)
    }
}

/// One endpoint's slice of a [`MonitorSample`].
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSample {
    /// Endpoint name.
    pub name: String,
    /// Endpoint version.
    pub version: u32,
    /// The endpoint's counters at sample time.
    pub stats: EndpointStatsSnapshot,
    /// Smoothed arrival rate in requests/sec (admission telemetry; 0
    /// without an [`crate::AdmissionPolicy`]).
    pub arrival_rate: f64,
    /// Observed p99 service time of local predictions in nanoseconds
    /// (`None` without telemetry or completed predictions).
    pub service_p99_nanos: Option<u64>,
    /// Per-remote-shard observations, in shard order.
    pub shards: Vec<ShardSample>,
}

impl EndpointSample {
    /// Per-interval view against an earlier sample of the same
    /// endpoint: cumulative counters, the shards' transport counters
    /// among them, become differences; gauges (arrival rate, service
    /// p99, shard states) carry the later value. A shard slot absent
    /// from `prev` keeps its full counts.
    #[must_use]
    pub fn delta(&self, prev: &EndpointSample) -> EndpointSample {
        EndpointSample {
            name: self.name.clone(),
            version: self.version,
            stats: self.stats.delta(&prev.stats),
            arrival_rate: self.arrival_rate,
            service_p99_nanos: self.service_p99_nanos,
            shards: self
                .shards
                .iter()
                .map(|shard| {
                    let before = prev.shards.iter().find(|p| p.slot_id == shard.slot_id);
                    ShardSample {
                        stats: before.map_or(shard.stats, |p| shard.stats.delta(&p.stats)),
                        ..shard.clone()
                    }
                })
                .collect(),
        }
    }
}

/// One remote shard's slice of an [`EndpointSample`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSample {
    /// Process-wide unique slot id, stable for the slot's lifetime
    /// (shard *indices* shift as slots splice in and out; event
    /// detection keys on this).
    pub slot_id: u64,
    /// Global shard index (`local_shards()..`) at sample time.
    pub shard: usize,
    /// Transport description (e.g. `tcp://host:port`).
    pub description: String,
    /// Circuit-breaker state.
    pub breaker: BreakerState,
    /// Whether the slot was draining.
    pub draining: bool,
    /// Transport counters, including probe traffic.
    pub stats: TransportStats,
}

/// `endpoint`'s remote shards in shard order, snapshotted from one
/// coherent slot list (unlike combining
/// [`Endpoint::transport_stats`] and friends, which each re-read the
/// live topology).
fn shard_samples(endpoint: &Endpoint) -> Vec<ShardSample> {
    let local = endpoint.local_shards();
    endpoint
        .remote_slots()
        .iter()
        .enumerate()
        .map(|(i, slot)| ShardSample {
            slot_id: slot.id,
            shard: local + i,
            description: slot.transport.describe(),
            breaker: slot.transport.breaker_state(),
            draining: slot.is_draining(),
            stats: slot.transport.stats(),
        })
        .collect()
}

// ---- events --------------------------------------------------------

/// A state change derived by the monitor. The sampler emits these by
/// diffing consecutive samples, so an event's resolution is one sampling
/// interval: a breaker that opened and closed entirely between two
/// ticks is invisible, exactly as it would be to a polling operator.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorEvent {
    /// A remote shard's circuit breaker changed state (e.g. a node
    /// died: `Closed` → `Open`; the prober re-admitted it: `Open` /
    /// `Probing` → `Closed`).
    BreakerTransition {
        /// Endpoint name.
        endpoint: String,
        /// Endpoint version.
        version: u32,
        /// Stable slot id.
        slot_id: u64,
        /// Transport description.
        description: String,
        /// State at the previous sample.
        from: BreakerState,
        /// State at this sample.
        to: BreakerState,
    },
    /// A remote shard joined the endpoint's routing domain.
    ShardAdded {
        /// Endpoint name.
        endpoint: String,
        /// Endpoint version.
        version: u32,
        /// Stable slot id.
        slot_id: u64,
        /// Transport description.
        description: String,
    },
    /// A remote shard started draining (excluded from new routing,
    /// finishing in-flight work).
    ShardDraining {
        /// Endpoint name.
        endpoint: String,
        /// Endpoint version.
        version: u32,
        /// Stable slot id.
        slot_id: u64,
        /// Transport description.
        description: String,
    },
    /// A remote shard was detached.
    ShardRemoved {
        /// Endpoint name.
        endpoint: String,
        /// Endpoint version.
        version: u32,
        /// Stable slot id.
        slot_id: u64,
        /// Transport description.
        description: String,
    },
    /// An endpoint began shedding at admission (its shed counter
    /// moved during the last interval after being still).
    ShedStarted {
        /// Endpoint name.
        endpoint: String,
        /// Endpoint version.
        version: u32,
    },
    /// The shed episode ended (a full interval passed with no new
    /// sheds).
    ShedEnded {
        /// Endpoint name.
        endpoint: String,
        /// Endpoint version.
        version: u32,
        /// Requests shed during the episode.
        shed: u64,
    },
}

/// A [`MonitorEvent`] stamped with its sequence number and clock
/// time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Monotonic event sequence number (0-based, shared across all
    /// event kinds).
    pub seq: u64,
    /// Clock timestamp in nanoseconds.
    pub at_nanos: u64,
    /// The event.
    pub event: MonitorEvent,
}

// ---- the hub -------------------------------------------------------

/// Per-slot state the event detector tracks between samples.
#[derive(Debug, Clone)]
struct SlotWatch {
    breaker: BreakerState,
    draining: bool,
    description: String,
}

/// Per-endpoint state the event detector tracks between samples.
#[derive(Debug, Default)]
struct EndpointWatch {
    slots: HashMap<u64, SlotWatch>,
    /// Shed counter at the previous sample.
    last_shed: u64,
    /// Shed counter when the current episode started (`None` when not
    /// in an episode).
    episode_base: Option<u64>,
}

#[derive(Debug, Default)]
struct HubState {
    samples: VecDeque<MonitorSample>,
    events: VecDeque<TimedEvent>,
    next_sample_seq: u64,
    next_event_seq: u64,
    watch: HashMap<(String, u32), EndpointWatch>,
}

#[derive(Debug)]
struct HubInner {
    clock: Arc<dyn Clock>,
    history: usize,
    state: Mutex<HubState>,
}

/// The monitor's shared state: a bounded ring of [`MonitorSample`]s
/// plus a bounded [`TimedEvent`] feed. Cloning is cheap (shared
/// state): the background sampler and any number of readers hold
/// handles to the same hub.
///
/// Feed it from a background sampler
/// ([`ServingRuntime::start_monitor`]) or manually
/// ([`StatsHub::sample_now`]) — both run the same sampling and
/// event-detection path.
#[derive(Debug, Clone)]
pub struct StatsHub {
    inner: Arc<HubInner>,
}

impl StatsHub {
    /// A hub retaining `history` samples (and
    /// `history * EVENT_HISTORY_FACTOR` events), stamped by a
    /// [`SystemClock`].
    #[must_use]
    pub fn new(history: usize) -> StatsHub {
        StatsHub::with_clock(history, Arc::new(SystemClock::new()))
    }

    /// A hub stamped by the given clock (deterministic tests inject a
    /// [`willump::ManualClock`]).
    #[must_use]
    pub fn with_clock(history: usize, clock: Arc<dyn Clock>) -> StatsHub {
        StatsHub {
            inner: Arc::new(HubInner {
                clock,
                history: history.max(2),
                state: Mutex::new(HubState::default()),
            }),
        }
    }

    /// Number of samples the ring retains.
    #[must_use]
    pub fn history(&self) -> usize {
        self.inner.history
    }

    /// Take one sample of `runtime` right now (the manual analogue of
    /// one background-sampler tick) and return it.
    pub fn sample_now(&self, runtime: &ServingRuntime) -> MonitorSample {
        self.sample_core(&runtime.cluster_core())
    }

    /// The sampling + event-detection path shared by
    /// [`sample_now`](StatsHub::sample_now) and the background
    /// sampler thread.
    pub(crate) fn sample_core(&self, core: &Shared) -> MonitorSample {
        let at_nanos = self.inner.clock.now_nanos();
        let server = core.server_stats().snapshot();
        let mut endpoints = Vec::new();
        for endpoint in core.all_endpoints() {
            let shards = shard_samples(&endpoint);
            endpoints.push(EndpointSample {
                name: endpoint.name().to_string(),
                version: endpoint.version(),
                stats: endpoint.stats().snapshot(),
                arrival_rate: endpoint.arrival_rate(),
                service_p99_nanos: endpoint.service_p99_nanos(),
                shards,
            });
        }

        let mut st = self.inner.state.lock();
        let sample = MonitorSample {
            seq: st.next_sample_seq,
            at_nanos,
            server,
            endpoints,
        };
        st.next_sample_seq += 1;
        self.detect_events(&mut st, &sample, at_nanos);
        st.samples.push_back(sample.clone());
        while st.samples.len() > self.inner.history {
            st.samples.pop_front();
        }
        sample
    }

    /// Diff `sample` against the watch state and emit events. The
    /// first sighting of an endpoint establishes its baseline
    /// topology silently (steady state is not an event).
    fn detect_events(&self, st: &mut HubState, sample: &MonitorSample, at_nanos: u64) {
        let mut pending: Vec<MonitorEvent> = Vec::new();
        for e in &sample.endpoints {
            let key = (e.name.clone(), e.version);
            let first_sight = !st.watch.contains_key(&key);
            let watch = st.watch.entry(key).or_default();

            let mut seen: HashMap<u64, SlotWatch> = HashMap::new();
            for shard in &e.shards {
                let now = SlotWatch {
                    breaker: shard.breaker,
                    draining: shard.draining,
                    description: shard.description.clone(),
                };
                match watch.slots.get(&shard.slot_id) {
                    None if !first_sight => pending.push(MonitorEvent::ShardAdded {
                        endpoint: e.name.clone(),
                        version: e.version,
                        slot_id: shard.slot_id,
                        description: shard.description.clone(),
                    }),
                    Some(prev) => {
                        if prev.breaker != shard.breaker {
                            pending.push(MonitorEvent::BreakerTransition {
                                endpoint: e.name.clone(),
                                version: e.version,
                                slot_id: shard.slot_id,
                                description: shard.description.clone(),
                                from: prev.breaker,
                                to: shard.breaker,
                            });
                        }
                        if !prev.draining && shard.draining {
                            pending.push(MonitorEvent::ShardDraining {
                                endpoint: e.name.clone(),
                                version: e.version,
                                slot_id: shard.slot_id,
                                description: shard.description.clone(),
                            });
                        }
                    }
                    None => {}
                }
                seen.insert(shard.slot_id, now);
            }
            for (slot_id, prev) in &watch.slots {
                if !seen.contains_key(slot_id) {
                    pending.push(MonitorEvent::ShardRemoved {
                        endpoint: e.name.clone(),
                        version: e.version,
                        slot_id: *slot_id,
                        description: prev.description.clone(),
                    });
                }
            }
            watch.slots = seen;

            // Shed episodes: started when the counter moves after
            // being still, ended after a full still interval.
            let shed = e.stats.shed;
            if first_sight {
                watch.last_shed = shed;
            } else if shed > watch.last_shed {
                if watch.episode_base.is_none() {
                    watch.episode_base = Some(watch.last_shed);
                    pending.push(MonitorEvent::ShedStarted {
                        endpoint: e.name.clone(),
                        version: e.version,
                    });
                }
            } else if let Some(base) = watch.episode_base.take() {
                pending.push(MonitorEvent::ShedEnded {
                    endpoint: e.name.clone(),
                    version: e.version,
                    shed: shed.saturating_sub(base),
                });
            }
            watch.last_shed = shed;
        }
        for event in pending {
            Self::push_event(&self.inner, st, event, at_nanos);
        }
    }

    fn push_event(inner: &HubInner, st: &mut HubState, event: MonitorEvent, at_nanos: u64) {
        let seq = st.next_event_seq;
        st.next_event_seq += 1;
        st.events.push_back(TimedEvent {
            seq,
            at_nanos,
            event,
        });
        while st.events.len() > inner.history * EVENT_HISTORY_FACTOR {
            st.events.pop_front();
        }
    }

    /// The retained samples, oldest first.
    #[must_use]
    pub fn samples(&self) -> Vec<MonitorSample> {
        self.inner.state.lock().samples.iter().cloned().collect()
    }

    /// The most recent sample, if any was taken.
    #[must_use]
    pub fn latest(&self) -> Option<MonitorSample> {
        self.inner.state.lock().samples.back().cloned()
    }

    /// Per-interval views between consecutive retained samples,
    /// oldest first (empty with fewer than two samples).
    #[must_use]
    pub fn deltas(&self) -> Vec<MonitorSample> {
        let samples = self.samples();
        samples
            .windows(2)
            .map(|pair| pair[1].delta(&pair[0]))
            .collect()
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TimedEvent> {
        self.inner.state.lock().events.iter().cloned().collect()
    }

    /// Retained events with sequence number >= `seq` (cursor-style
    /// incremental reads).
    #[must_use]
    pub fn events_since(&self, seq: u64) -> Vec<TimedEvent> {
        self.inner
            .state
            .lock()
            .events
            .iter()
            .filter(|e| e.seq >= seq)
            .cloned()
            .collect()
    }
}

// ---- the background sampler ----------------------------------------

/// Handle to a running background sampler. The hub stays readable
/// through [`hub`](MonitorHandle::hub) while sampling runs; stop the
/// sampler explicitly with [`stop`](MonitorHandle::stop) or
/// implicitly by dropping (either joins the thread — the hub and its
/// history survive, only sampling ends).
#[derive(Debug)]
pub struct MonitorHandle {
    hub: StatsHub,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MonitorHandle {
    /// The hub the sampler writes into.
    #[must_use]
    pub fn hub(&self) -> &StatsHub {
        &self.hub
    }

    /// Signal the sampler to exit and join it. The hub (and its
    /// retained history) remains readable through clones.
    pub fn stop(mut self) -> StatsHub {
        self.halt();
        self.hub.clone()
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MonitorHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

impl ServingRuntime {
    /// Start the background monitor: a [`StatsHub`] fed by a sampler
    /// thread that takes one [`MonitorSample`] per
    /// [`MonitorConfig::interval`] tick (scheduled on
    /// [`MonitorConfig::clock`], so tests can drive it with a
    /// [`willump::ManualClock`]). The sampler holds only the
    /// runtime's shared core, so it never blocks shutdown; stop it
    /// via the returned [`MonitorHandle`].
    pub fn start_monitor(&self, config: MonitorConfig) -> MonitorHandle {
        let core = self.cluster_core();
        let hub = StatsHub::with_clock(config.history, Arc::clone(&config.clock));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let sampler_hub = hub.clone();
        let interval = u64::try_from(config.interval.as_nanos()).unwrap_or(u64::MAX);
        let thread = std::thread::spawn(move || {
            let clock = config.clock;
            let mut deadline = clock.now_nanos();
            loop {
                sampler_hub.sample_core(&core);
                // Schedule from the previous deadline, not from
                // "now", so a slow sample doesn't drift the cadence.
                deadline = deadline.saturating_add(interval).max(clock.now_nanos());
                if !clock.wait_until(deadline, &stop_flag) {
                    return;
                }
            }
        });
        MonitorHandle {
            hub,
            stop,
            thread: Some(thread),
        }
    }
}
