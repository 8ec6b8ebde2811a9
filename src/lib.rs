//! # willump-repro
//!
//! Facade crate for the Willump reproduction (Kraft et al., MLSys
//! 2020): re-exports every subsystem under one roof so examples and
//! integration tests can depend on a single crate.
//!
//! Start with [`prelude`] (the optimizer + serving surface most
//! programs need), [`willump::Willump`] and [`willump::Pipeline`]
//! (the optimizer), [`willump_workloads`] (the six paper benchmarks),
//! and the repository README for a tour.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use willump;
pub use willump_data;
pub use willump_featurize;
pub use willump_graph;
pub use willump_models;
pub use willump_serve;
pub use willump_store;
pub use willump_workloads;

/// The one-import surface: optimizer, plan IR, and the multi-endpoint
/// serving runtime.
///
/// ```no_run
/// use willump_repro::prelude::*;
///
/// # fn demo(cascade_plan: ServingPlan, topk_plan: ServingPlan)
/// # -> Result<(), Box<dyn std::error::Error>> {
/// // Register named, versioned, sharded endpoints on one runtime.
/// // Shards can be local (this worker pool) or remote — served by a
/// // `RemoteRuntimeNode` in another process over TCP.
/// let mut builder = ServingRuntime::builder();
/// builder.config(ServerConfig::builder().workers(4).build());
/// builder
///     .plan("music", cascade_plan)
///     .shards(4)
///     .shard_remote("127.0.0.1:7878");
/// builder.plan("toxic", topk_plan).shards(2);
/// let runtime = builder.build()?;
/// let client = runtime.client();
/// # let rows = Vec::new();
/// let scores = client.predict_endpoint("music", rows)?;
/// # let _ = scores;
/// # Ok(())
/// # }
/// ```
///
/// A single-predictor deployment is a one-endpoint runtime:
/// `builder.endpoint(DEFAULT_ENDPOINT, p)`, then
/// [`willump_serve::RuntimeClient::predict`] routes unaddressed rows
/// to it.
pub mod prelude {
    pub use willump::{
        OptimizedPipeline, PlanCounters, PlanCountersSnapshot, PlanRunReport, QueryMode,
        ServingPlan, TopKConfig, Willump, WillumpConfig,
    };
    pub use willump_data::{Table, Value};
    pub use willump_serve::{
        shard_for_key, table_row_to_wire, BreakerState, ClusterConfig, ClusterHandle, Endpoint,
        InProcessWorker, MonitorConfig, MonitorEvent, MonitorHandle, MonitorSample,
        RemoteRuntimeNode, RemoteWorker, Request, Response, RuntimeBuilder, RuntimeClient,
        Servable, ServeError, ServerConfig, ServingRuntime, StatsHub, TimedEvent, TransportStats,
        WireRow, WorkerTransport, DEFAULT_ENDPOINT,
    };
    pub use willump_workloads::{Workload, WorkloadConfig, WorkloadKind};
}
