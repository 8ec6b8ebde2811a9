//! # willump
//!
//! The core of the Willump reproduction: a statistically-aware
//! end-to-end optimizer for ML inference pipelines (Kraft et al.,
//! MLSys 2020).
//!
//! Given a [`Pipeline`] — a transformation graph plus a model spec —
//! and training/validation data, [`Willump::optimize`] produces an
//! [`OptimizedPipeline`] that applies the paper's optimizations:
//!
//! - **Automatic end-to-end cascades** (§4.2): compute per-IFV
//!   prediction importances and computational costs, select the
//!   *efficient* IFV set with Algorithm 1 ([`efficient`]), train a
//!   small model on the efficient features, pick a cascade threshold
//!   on a validation set, and serve easy inputs with the small model.
//! - **Automatic top-K filter models** (§4.3): reuse the small-model
//!   construction as a filter that discards low-scoring inputs before
//!   the full model ranks the survivors.
//! - **Query-aware parallelization** (§4.4): a large batch of a
//!   row-local plan runs as row chunks on every core, and so does a
//!   large model stage of a top-K or store-lookup plan
//!   ([`plan::PlanExecutor::run_batch`]); one input's feature
//!   generators run concurrently through the executor's per-input
//!   parallelism. **Feature-level caching** (§4.5) is the
//!   executor's too.
//! - **End-to-end compilation** (§5): the optimized pipeline runs on
//!   the compiled engine; the original runs on the interpreted
//!   engine (`Pipeline::baseline`).
//!
//! Every optimization lowers into the [`plan`] module's
//! [`ServingPlan`] IR — an explicit stage sequence run by one
//! [`plan::PlanExecutor`] — so cascades, top-K filters, end-to-end
//! caching, and model selection *compose* instead of living in
//! separate wrapper structs: a deployed cascade or top-K filter *is*
//! a plan ([`OptimizedPipeline::cascade`], [`OptimizedPipeline::filter`]).
//!
//! See `willump-workloads` for ready-made benchmark pipelines and
//! `examples/` at the repository root for usage.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cascade;
pub mod clock;
mod config;
pub mod counters;
pub mod efficient;
mod error;
mod layout;
mod optimize;
mod pipeline;
pub mod plan;
pub mod stats;
pub mod topk;

pub use cascade::ScoreCalibrator;
pub use clock::{Clock, ManualClock, SystemClock};
pub use config::{CachingConfig, Calibration, QueryMode, TopKConfig, WillumpConfig};
pub use error::WillumpError;
pub use optimize::{OptimizationReport, OptimizedPipeline, Willump};
pub use pipeline::{BaselinePipeline, Pipeline};
pub use plan::{
    FeatureSet, ModelSlot, PlanCounters, PlanCountersSnapshot, PlanExecutor, PlanOutcome,
    PlanRunReport, PlanStage, RowOutcome, ServingPlan, StageProfile, StageTrace,
};
pub use stats::{IfvStats, LatencyHistogram, RateEstimator};
