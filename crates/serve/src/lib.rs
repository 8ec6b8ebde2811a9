//! # willump-serve
//!
//! The serving layer for the Willump reproduction (see DESIGN.md's
//! substitution table): a **multi-endpoint runtime** —
//! [`ServingRuntime`] — serving named, versioned, shard-routed
//! deployments behind one worker pool, with per-worker request queues
//! and adaptive coalescing batching.
//!
//! Paper Table 6 serves Willump-optimized pipelines through Clipper
//! and observes that (a) fixed per-request overheads amortize with
//! batch size, and (b) variable serialization overheads remain. Here
//! in-process callers hand the runtime typed [`Request`]s, so a
//! request is serialized only where it crosses a process boundary —
//! as a binary [`wire2`] frame. Workers *coalesce*: all
//! same-endpoint, same-schema requests drained in one iteration merge
//! into a single model-level batch (one `predict_table` call), so
//! concurrent small requests amortize per-call fixed overheads exactly
//! the way client-side batching does in Table 6.
//!
//! The runtime goes beyond the paper's single-predictor Clipper
//! substrate:
//!
//! - **Named endpoints** ([`RuntimeBuilder::endpoint`]): all six paper
//!   workloads — and several plan variants of each — share one
//!   runtime, one worker pool, and one client. Each name serves one
//!   version; a request may pin it ([`Request::version`]), and every
//!   response echoes the name and version that answered.
//! - **Key-hash shard routing**: equal [`Request::key`]s always land
//!   on the same shard ([`shard_for_key`]), and local shards are placed
//!   round-robin over the workers when the runtime is built.
//! - **Cross-process sharding** ([`WorkerTransport`]): a shard can be
//!   served by a *remote runtime* — an [`RemoteRuntimeNode`]-hosted
//!   process reached over TCP by a [`RemoteWorker`]
//!   ([`EndpointBuilder::shard_remote`]) — behind the same admission
//!   path, with per-shard transport latency in [`EndpointStats`],
//!   automatic fail-over to surviving shards, and remote plan
//!   counters folded into each endpoint's view
//!   ([`ServingRuntime::refresh_remote_counters`],
//!   [`Endpoint::merged_counters`]).
//!
//! A request without an endpoint name goes to [`DEFAULT_ENDPOINT`], so
//! a single-predictor deployment is one
//! `builder.endpoint(DEFAULT_ENDPOINT, predictor)` and a
//! [`RuntimeClient::predict`]. Shutdown is explicit and deadlock-free
//! even while client handles are still alive (see
//! [`ServingRuntime::shutdown`]).
//!
//! Every `willump::ServingPlan` is [`Servable`], so any lowered
//! optimization — or composition of optimizations (a cascade behind
//! an end-to-end cache with a top-K filter, say) — serves as one
//! endpoint.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod cluster;
mod e2e_cache;
mod error;
mod monitor;
mod protocol;
#[allow(unsafe_code)]
#[cfg(unix)]
mod readiness;
mod remote;
mod runtime;
mod server;
pub mod wire2;

pub use cluster::{ClusterConfig, ClusterHandle};
pub use e2e_cache::E2eCachedPredictor;
pub use error::ServeError;
pub use monitor::{
    EndpointSample, MonitorConfig, MonitorEvent, MonitorHandle, MonitorSample, ShardSample,
    StatsHub, TimedEvent,
};
pub use protocol::{
    ControlRequest, EndpointCounters, Request, Response, WireRow, ERROR_RESPONSE_ID,
};
pub use remote::{
    BreakerState, ForwardReply, InProcessWorker, RemoteRuntimeNode, RemoteWorker, TransportStats,
    WorkerTransport, REMOTE_WORKER_BREAKER_COOLDOWN, REMOTE_WORKER_BREAKER_FAILURES,
    REMOTE_WORKER_TIMEOUT,
};
pub use runtime::{
    shard_for_key, table_row_to_wire, AdmissionPolicy, Endpoint, EndpointBuilder, EndpointStats,
    EndpointStatsSnapshot, RuntimeBuilder, RuntimeClient, ServerStats, ServerStatsSnapshot,
    ServingRuntime, DEFAULT_ENDPOINT,
};
pub use server::{Servable, ServerConfig, ServerConfigBuilder};
