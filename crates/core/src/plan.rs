//! The `ServingPlan` IR: one composable representation for every
//! statistically-aware serving-path optimization (paper §4), run by a
//! single [`PlanExecutor`].
//!
//! Willump's optimizations — end-to-end cascades (§4.2), top-K filter
//! models (§4.3), and prediction caching (§4.5) — all share the same
//! skeleton: compute a cheap subset of features, score it with a cheap
//! model, decide per input whether that answer suffices, and escalate
//! the rest to the full pipeline without recomputing what is already
//! in hand. Historically each optimization was a bespoke wrapper
//! struct with its own predict path; the plan IR makes the skeleton
//! explicit as a sequence of [`PlanStage`]s over shared resources
//! (executor, models, layouts, cache), so optimizations *compose*: a
//! cascade behind an end-to-end cache, a top-K filter with a
//! confidence gate — all execute through the same [`PlanExecutor`],
//! batch-wise or row-wise, and all report per-stage cost and row
//! counters the serving layer can inspect.
//!
//! [`crate::Willump::optimize`] lowers its decisions into plans, and
//! [`crate::OptimizedPipeline`] serves through them.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use willump_data::{FeatureMatrix, Table};
use willump_graph::parallel::{claim, cores};
use willump_graph::{Executor, InputRow, Operator};
use willump_models::{metrics, Task, TrainedModel};
use willump_store::LruCache;

use crate::cascade::ScoreCalibrator;
use crate::config::TopKConfig;
use crate::layout::{merge_subset_rows, Remapper};
use crate::WillumpError;

/// Which feature subset a [`PlanStage::ComputeFeatures`] stage
/// computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSet {
    /// The efficient IFV subset selected by Algorithm 1.
    Efficient,
    /// All feature generators (the canonical full layout).
    Full,
}

/// Which trained model a [`PlanStage::PredictModel`] stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSlot {
    /// The small/filter model trained on the efficient features.
    Small,
    /// The full model trained on the complete feature layout.
    Full,
}

/// One stage of a [`ServingPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStage {
    /// Compute features for the rows still in flight.
    ComputeFeatures {
        /// Which generator subset to compute.
        subset: FeatureSet,
    },
    /// Look each in-flight row up in the end-to-end prediction cache;
    /// hits resolve immediately with the cached score.
    CacheLookup,
    /// Write the scores of rows that missed [`PlanStage::CacheLookup`]
    /// back into the cache (place after the final predict stage).
    /// Rows dropped by a [`PlanStage::TopKFilter`] are *not* filled —
    /// their filter score means "not in the top K", not an answer.
    CacheFill,
    /// Score the rows still in flight with a model.
    PredictModel {
        /// Which model to run.
        slot: ModelSlot,
    },
    /// Resolve rows whose confidence `max(s, 1-s)` exceeds the
    /// threshold with their current score (paper §4.2); the rest stay
    /// in flight for escalation.
    ConfidenceGate {
        /// The cascade threshold t_c.
        threshold: f64,
    },
    /// Keep only the top filter-scored candidates in flight (paper
    /// §4.3); dropped rows resolve with their current (filter) score.
    TopKFilter {
        /// Default K when the query does not supply one.
        k: usize,
        /// Subset-size tuning (`ck`, minimum fraction).
        config: TopKConfig,
    },
    /// Compute the inefficient features for the rows still in flight
    /// and merge them with the already-computed efficient block into
    /// the full layout (paper Figure 3: escalation never recomputes).
    Escalate,
}

impl PlanStage {
    /// Short human-readable label (stage traces, profiles, logs).
    pub fn label(&self) -> String {
        match self {
            PlanStage::ComputeFeatures {
                subset: FeatureSet::Efficient,
            } => "compute_features(efficient)".to_string(),
            PlanStage::ComputeFeatures {
                subset: FeatureSet::Full,
            } => "compute_features(full)".to_string(),
            PlanStage::CacheLookup => "cache_lookup".to_string(),
            PlanStage::CacheFill => "cache_fill".to_string(),
            PlanStage::PredictModel { slot } => match slot {
                ModelSlot::Small => "predict(small)".to_string(),
                ModelSlot::Full => "predict(full)".to_string(),
            },
            PlanStage::ConfidenceGate { threshold } => {
                format!("confidence_gate(t={threshold})")
            }
            PlanStage::TopKFilter { k, config } => {
                format!("topk_filter(k={k}, ck={})", config.ck)
            }
            PlanStage::Escalate => "escalate".to_string(),
        }
    }
}

/// Subset layouts shared by every escalating stage.
#[derive(Debug, Clone)]
struct SubsetLayouts {
    efficient: Vec<usize>,
    inefficient: Vec<usize>,
    eff_remap: Remapper,
    ineff_remap: Remapper,
    full_width: usize,
}

impl SubsetLayouts {
    fn new(exec: &Executor, efficient: Vec<usize>) -> Result<SubsetLayouts, WillumpError> {
        let n_fgs = exec.analysis().generators.len();
        if efficient.is_empty() || efficient.len() >= n_fgs {
            return Err(WillumpError::Unsupported {
                reason: format!(
                    "subset stages need a proper non-empty efficient subset ({} of {} IFVs)",
                    efficient.len(),
                    n_fgs
                ),
            });
        }
        let inefficient = exec.complement_subset(&efficient);
        let eff_remap = Remapper::new(exec.graph(), exec.analysis(), &efficient)?;
        let ineff_remap = Remapper::new(exec.graph(), exec.analysis(), &inefficient)?;
        let full_width = eff_remap.full_width();
        Ok(SubsetLayouts {
            efficient,
            inefficient,
            eff_remap,
            ineff_remap,
            full_width,
        })
    }
}

/// The end-to-end prediction cache of a plan (paper §4.5's baseline,
/// now a composable pair of stages). Keys are the stringified values
/// of the pipeline's source columns, exactly like
/// Clipper-style end-to-end caching.
#[derive(Clone)]
struct PlanCache {
    sources: Vec<String>,
    store: Arc<Mutex<LruCache<Vec<String>, f64>>>,
}

crate::counter_set! {
    /// Cumulative serving counters of a plan, shared by every clone (the
    /// per-stage introspection the serving layer reads for scheduling
    /// decisions).
    #[derive(Debug)]
    pub struct PlanCounters;

    /// A wire-friendly, point-in-time copy of a [`PlanCounters`].
    ///
    /// [`PlanCounters`] itself is a block of shared atomics — clones of a
    /// plan in one process update it in place, but it cannot cross a
    /// process boundary. A snapshot is plain integers with serde derives:
    /// a remote serving node reports its plans' statistics to a parent
    /// router as snapshots, and the parent's escalation-aware scheduler
    /// folds them into its own view with [`merged`](Self::merged).
    ///
    /// Every field is `#[serde(default)]`, so a serialized snapshot that
    /// lacks a counter still deserializes (missing counters read 0).
    ///
    /// # Examples
    ///
    /// ```
    /// use willump::{PlanCounters, PlanCountersSnapshot};
    ///
    /// let local = PlanCounters::default().snapshot();
    /// let remote = PlanCountersSnapshot {
    ///     rows: 100,
    ///     escalated: 40,
    ///     ..PlanCountersSnapshot::default()
    /// };
    /// let combined = local.merged(&remote);
    /// assert_eq!(combined.rows, 100);
    /// assert!((combined.escalation_rate() - 0.4).abs() < 1e-12);
    /// ```
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct PlanCountersSnapshot {
        /// Total input rows run through the plan.
        sum rows,
        /// Rows resolved early by a [`PlanStage::ConfidenceGate`].
        sum gate_resolved,
        /// Rows escalated to the full feature layout.
        sum escalated,
        /// Rows dropped from candidacy by a [`PlanStage::TopKFilter`].
        sum filter_dropped,
    }
}

impl PlanCounters {
    /// Fraction of rows escalated to the full feature layout
    /// (0 before any rows have run).
    pub fn escalation_rate(&self) -> f64 {
        let rows = self.rows();
        if rows == 0 {
            0.0
        } else {
            self.escalated() as f64 / rows as f64
        }
    }
}

impl PlanCountersSnapshot {
    /// Fraction of rows escalated to the full feature layout
    /// (0 when no rows ran) — the same statistic as
    /// [`PlanCounters::escalation_rate`], computed over the snapshot.
    pub fn escalation_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.escalated as f64 / self.rows as f64
        }
    }
}

/// Per-stage cumulative meters (time and rows), shared by clones.
#[derive(Debug)]
struct StageMeters {
    nanos: Vec<AtomicU64>,
    rows_in: Vec<AtomicU64>,
    runs: Vec<AtomicU64>,
}

impl StageMeters {
    fn new(n: usize) -> StageMeters {
        StageMeters {
            nanos: (0..n).map(|_| AtomicU64::new(0)).collect(),
            rows_in: (0..n).map(|_| AtomicU64::new(0)).collect(),
            runs: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, stage: usize, rows: usize, nanos: u64) {
        self.nanos[stage].fetch_add(nanos, Ordering::Relaxed);
        self.rows_in[stage].fetch_add(rows as u64, Ordering::Relaxed);
        self.runs[stage].fetch_add(1, Ordering::Relaxed);
    }

    /// Nanoseconds the plan has spent per input row, over every stage
    /// and every run so far; `None` before the first run.
    fn nanos_per_row(&self) -> Option<f64> {
        let rows = self.rows_in.first()?.load(Ordering::Relaxed);
        let nanos: u64 = self.nanos.iter().map(|n| n.load(Ordering::Relaxed)).sum();
        (rows > 0).then(|| nanos as f64 / rows as f64)
    }

    /// Nanoseconds one stage has spent per row entering it, over every
    /// run so far; `None` before any row entered it.
    fn stage_nanos_per_row(&self, stage: usize) -> Option<f64> {
        let rows = self.rows_in[stage].load(Ordering::Relaxed);
        let nanos = self.nanos[stage].load(Ordering::Relaxed);
        (rows > 0).then(|| nanos as f64 / rows as f64)
    }
}

/// A stage's cumulative execution profile (see
/// [`ServingPlan::stage_profiles`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Stage label ([`PlanStage::label`]).
    pub label: String,
    /// Times the stage executed.
    pub runs: u64,
    /// Total rows entering the stage.
    pub rows_in: u64,
    /// Total seconds spent in the stage. This is a cost, not a wall
    /// time: a batch run in chunks adds up the seconds of its chunks,
    /// which ran at the same time on different threads.
    pub seconds: f64,
}

/// One stage's trace within a single run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTrace {
    /// Stage label ([`PlanStage::label`]).
    pub label: String,
    /// Rows in flight when the stage started.
    pub rows_in: usize,
    /// Rows still in flight afterwards.
    pub rows_out: usize,
    /// Seconds the stage took. A batch run in chunks, or a model stage
    /// scored in chunks, reports the sum over its chunks: a cost, not
    /// a wall time.
    pub seconds: f64,
    /// Claim jobs this stage handed the helper pool to score its row
    /// chunks beside the calling thread (0 unless a
    /// [`PlanStage::PredictModel`] stage split; see
    /// [`PlanExecutor::run_batch`]). Every chunk a helper claimed was
    /// done before the stage ended.
    pub helpers: usize,
}

/// What one batch run did, stage by stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanRunReport {
    /// Per-stage traces in execution order.
    pub stages: Vec<StageTrace>,
    /// Rows resolved by a confidence gate (small-model answers).
    pub gate_resolved: usize,
    /// Rows escalated to the full layout.
    pub escalated: usize,
    /// Rows answered from the end-to-end cache.
    pub cache_hits: usize,
    /// Rows that missed the end-to-end cache.
    pub cache_misses: usize,
    /// Rows entering the top-K filter, when one ran.
    pub filter_batch: Option<usize>,
    /// Candidates the top-K filter kept, when one ran.
    pub filter_kept: Option<usize>,
    /// Row chunks the batch ran as (1: in one piece; see
    /// [`PlanExecutor::run_batch`]). A stage that split on its own
    /// counts in its [`StageTrace::helpers`], not here.
    pub chunks: usize,
    /// Claim jobs the batch handed the helper pool to run its chunks
    /// beside the calling thread. Every chunk a helper claimed was
    /// done before the run returned.
    pub helpers: usize,
}

impl PlanRunReport {
    /// Add a chunk's report of the same plan to this one. Only the
    /// counts a row-local plan produces are summed: chunked plans have
    /// no cache or filter stage.
    fn absorb(&mut self, chunk: PlanRunReport) {
        if self.stages.is_empty() {
            *self = chunk;
            return;
        }
        for (total, part) in self.stages.iter_mut().zip(chunk.stages) {
            total.rows_in += part.rows_in;
            total.rows_out += part.rows_out;
            total.seconds += part.seconds;
            total.helpers += part.helpers;
        }
        self.gate_resolved += chunk.gate_resolved;
        self.escalated += chunk.escalated;
    }
}

/// The result of one batch run.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// Final score per input row.
    pub scores: Vec<f64>,
    /// Predicted top-K row indices, best first (present when the plan
    /// contains a [`PlanStage::TopKFilter`]).
    pub ranked: Option<Vec<usize>>,
    /// Stage-by-stage report.
    pub report: PlanRunReport,
}

/// The result of one row-wise run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowOutcome {
    /// The final score.
    pub score: f64,
    /// Whether the input escalated to the full layout.
    pub escalated: bool,
    /// Whether the end-to-end cache answered the input.
    pub cache_hit: bool,
}

/// An executable serving plan: stages plus the shared resources they
/// reference.
///
/// Clones share the cache and counters (they are views of one serving
/// artifact); stage lists are cloned by value, so
/// [`set_threshold`](ServingPlan::set_threshold)-style edits are
/// per-clone. A clone costs one reference count until it is edited.
///
/// # Examples
///
/// Assemble the trivial full-model plan by hand (the optimizer's
/// [`crate::Willump::optimize`] lowers its decisions into richer
/// plans automatically — see
/// [`crate::OptimizedPipeline::serving_plan`]), then compose an
/// end-to-end cache onto it:
///
/// ```
/// use std::sync::Arc;
/// use willump::ServingPlan;
/// use willump_data::{Column, Table};
/// use willump_graph::{EngineMode, Executor, GraphBuilder, Operator};
/// use willump_models::{LogisticParams, ModelSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A one-feature pipeline graph and a model fitted on it.
/// let mut b = GraphBuilder::new();
/// let src = b.source("x");
/// let f = b.add("f", Operator::NumericColumn, [src])?;
/// let graph = Arc::new(b.finish_with_concat("features", [f])?);
/// let exec = Executor::new(graph, EngineMode::Compiled)?;
///
/// let mut train = Table::new();
/// train.add_column("x", Column::from(vec![-2.0, -1.0, 1.0, 2.0]))?;
/// let y = vec![0.0, 0.0, 1.0, 1.0];
/// let feats = exec.features_batch(&train, None)?;
/// let model = Arc::new(ModelSpec::Logistic(LogisticParams::default()).fit(&feats, &y, 1)?);
///
/// // The plan, with a composed end-to-end cache keyed on `x`.
/// let plan = ServingPlan::full_model_plan(exec, model)
///     .with_e2e_cache(vec!["x".to_string()], None)?;
/// let first = plan.predict_batch(&train)?;
/// let again = plan.predict_batch(&train)?;
/// assert_eq!(first, again);
/// assert_eq!(plan.cache_hits(), 4, "repeat batch served from cache");
/// assert_eq!(plan.counters().rows(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct ServingPlan {
    /// Shared by clones until one is edited (`Arc::make_mut`), so a
    /// split batch hands the helper pool the plan without copying it.
    inner: Arc<PlanParts>,
}

/// What a [`ServingPlan`] is made of.
#[derive(Clone)]
struct PlanParts {
    exec: Executor,
    full: Arc<TrainedModel>,
    small: Option<Arc<TrainedModel>>,
    calibrator: Option<ScoreCalibrator>,
    subsets: Option<SubsetLayouts>,
    cache: Option<PlanCache>,
    stages: Vec<PlanStage>,
    counters: Arc<PlanCounters>,
    meters: Arc<StageMeters>,
}

impl std::fmt::Debug for ServingPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingPlan")
            .field("stages", &self.describe())
            .field("cached", &self.inner.cache.is_some())
            .finish_non_exhaustive()
    }
}

impl ServingPlan {
    fn assemble(
        exec: Executor,
        full: Arc<TrainedModel>,
        small: Option<Arc<TrainedModel>>,
        subsets: Option<SubsetLayouts>,
        stages: Vec<PlanStage>,
    ) -> Result<ServingPlan, WillumpError> {
        let meters = Arc::new(StageMeters::new(stages.len()));
        let parts = PlanParts {
            exec,
            full,
            small,
            calibrator: None,
            subsets,
            cache: None,
            stages,
            counters: Arc::new(PlanCounters::default()),
            meters,
        };
        parts.validate()?;
        Ok(ServingPlan {
            inner: Arc::new(parts),
        })
    }

    /// The trivial plan: compute all features, predict with the full
    /// model (compiled execution with no statistical optimization).
    pub fn full_model_plan(exec: Executor, full: Arc<TrainedModel>) -> ServingPlan {
        ServingPlan::assemble(
            exec,
            full,
            None,
            None,
            vec![
                PlanStage::ComputeFeatures {
                    subset: FeatureSet::Full,
                },
                PlanStage::PredictModel {
                    slot: ModelSlot::Full,
                },
            ],
        )
        .expect("the full-model plan is always valid")
    }

    /// Lower an end-to-end cascade (paper §4.2) into a plan:
    /// efficient features → small model → confidence gate → escalate →
    /// full model.
    ///
    /// # Errors
    /// Returns [`WillumpError`] when the efficient subset is not a
    /// proper non-empty subset or layouts cannot be built.
    pub fn cascade(
        exec: Executor,
        small: Arc<TrainedModel>,
        full: Arc<TrainedModel>,
        threshold: f64,
        efficient: Vec<usize>,
    ) -> Result<ServingPlan, WillumpError> {
        let subsets = SubsetLayouts::new(&exec, efficient)?;
        ServingPlan::assemble(
            exec,
            full,
            Some(small),
            Some(subsets),
            vec![
                PlanStage::ComputeFeatures {
                    subset: FeatureSet::Efficient,
                },
                PlanStage::PredictModel {
                    slot: ModelSlot::Small,
                },
                PlanStage::ConfidenceGate { threshold },
                PlanStage::Escalate,
                PlanStage::PredictModel {
                    slot: ModelSlot::Full,
                },
            ],
        )
    }

    /// Lower a top-K filter (paper §4.3) into a plan: efficient
    /// features → filter model → keep top candidates → escalate →
    /// full model reranks.
    ///
    /// `default_k` is used when a query does not supply its own K
    /// (row-wise runs, plain `predict_batch`).
    ///
    /// # Errors
    /// Returns [`WillumpError`] for `default_k == 0`, an improper
    /// efficient subset, or layout failures.
    pub fn top_k_filter(
        exec: Executor,
        filter: Arc<TrainedModel>,
        full: Arc<TrainedModel>,
        default_k: usize,
        config: TopKConfig,
        efficient: Vec<usize>,
    ) -> Result<ServingPlan, WillumpError> {
        let subsets = SubsetLayouts::new(&exec, efficient)?;
        ServingPlan::assemble(
            exec,
            full,
            Some(filter),
            Some(subsets),
            vec![
                PlanStage::ComputeFeatures {
                    subset: FeatureSet::Efficient,
                },
                PlanStage::PredictModel {
                    slot: ModelSlot::Small,
                },
                PlanStage::TopKFilter {
                    k: default_k,
                    config,
                },
                PlanStage::Escalate,
                PlanStage::PredictModel {
                    slot: ModelSlot::Full,
                },
            ],
        )
    }

    /// Attach a fitted score calibrator: small-model scores map
    /// through it before gates and when returned as predictions.
    #[must_use]
    pub fn with_calibrator(mut self, calibrator: Option<ScoreCalibrator>) -> ServingPlan {
        Arc::make_mut(&mut self.inner).calibrator = calibrator;
        self
    }

    /// Compose an end-to-end prediction cache around the plan:
    /// a [`PlanStage::CacheLookup`] runs first (hits skip the whole
    /// pipeline, including remote feature requests) and a
    /// [`PlanStage::CacheFill`] stores every missed row's final score.
    /// `sources` are the input columns forming the key; `capacity`
    /// bounds the LRU (`None` = unbounded, the paper's setting).
    ///
    /// # Errors
    /// Returns [`WillumpError::BadConfig`] when the plan is already
    /// cached.
    pub fn with_e2e_cache(
        mut self,
        sources: Vec<String>,
        capacity: Option<usize>,
    ) -> Result<ServingPlan, WillumpError> {
        if self.inner.cache.is_some() {
            return Err(WillumpError::BadConfig {
                reason: "plan already has an end-to-end cache".into(),
            });
        }
        let store = match capacity {
            Some(c) => LruCache::with_capacity(c),
            None => LruCache::unbounded(),
        };
        let parts = Arc::make_mut(&mut self.inner);
        parts.cache = Some(PlanCache {
            sources,
            store: Arc::new(Mutex::new(store)),
        });
        parts.stages.insert(0, PlanStage::CacheLookup);
        parts.stages.push(PlanStage::CacheFill);
        parts.meters = Arc::new(StageMeters::new(parts.stages.len()));
        parts.validate()?;
        Ok(self)
    }

    /// Compose a cascade confidence gate into an escalating plan,
    /// inserted directly before the first [`PlanStage::Escalate`]
    /// (e.g. a top-K plan gains cascade semantics: confident
    /// candidates keep their filter score and skip the full model).
    ///
    /// # Errors
    /// Returns [`WillumpError::BadConfig`] when the plan has no
    /// escalation stage or no small model.
    pub fn with_confidence_gate(mut self, threshold: f64) -> Result<ServingPlan, WillumpError> {
        let Some(pos) = self
            .inner
            .stages
            .iter()
            .position(|s| matches!(s, PlanStage::Escalate))
        else {
            return Err(WillumpError::BadConfig {
                reason: "confidence gate needs an escalating plan".into(),
            });
        };
        let parts = Arc::make_mut(&mut self.inner);
        parts
            .stages
            .insert(pos, PlanStage::ConfidenceGate { threshold });
        parts.meters = Arc::new(StageMeters::new(parts.stages.len()));
        parts.validate()?;
        Ok(self)
    }

    /// Whether [`degraded`](ServingPlan::degraded) can produce a
    /// cheaper form of this plan.
    pub fn can_degrade(&self) -> bool {
        let plan = &self.inner;
        plan.small.is_some()
            && plan.subsets.is_some()
            && plan.stages.iter().any(|s| {
                matches!(
                    s,
                    PlanStage::PredictModel {
                        slot: ModelSlot::Full
                    }
                )
            })
    }

    /// Lower the plan to its degraded (load-shedding) form: the
    /// cascade short-circuits at the small model, so every row is
    /// answered from the efficient features without ever escalating
    /// to the full layout or full model.
    ///
    /// The degraded plan is a *view* of the same serving artifact —
    /// it shares the original's end-to-end cache and counters — with
    /// a rewritten stage list: an attached cache still answers
    /// lookups (hits are full-quality scores), but degraded answers
    /// are **not** written back, so the cache is never poisoned with
    /// small-model scores that would outlive the overload. A top-K
    /// filter stage is kept, ranking by filter score without the
    /// full-model rerank.
    ///
    /// Returns `None` when the plan has no cheaper form to fall back
    /// to (no small model, no efficient subset, or no full-model
    /// predict stage to cut) — see
    /// [`can_degrade`](ServingPlan::can_degrade). The admission layer
    /// uses this under SLO pressure: degrade first, shed only when
    /// degrading is not enough (or not possible).
    pub fn degraded(&self) -> Option<ServingPlan> {
        if !self.can_degrade() {
            return None;
        }
        let mut p = self.clone();
        let mut stages = Vec::with_capacity(4);
        if p.inner.cache.is_some() {
            stages.push(PlanStage::CacheLookup);
        }
        stages.push(PlanStage::ComputeFeatures {
            subset: FeatureSet::Efficient,
        });
        stages.push(PlanStage::PredictModel {
            slot: ModelSlot::Small,
        });
        if let Some(filter) = self
            .inner
            .stages
            .iter()
            .find(|s| matches!(s, PlanStage::TopKFilter { .. }))
        {
            stages.push(filter.clone());
        }
        let parts = Arc::make_mut(&mut p.inner);
        parts.meters = Arc::new(StageMeters::new(stages.len()));
        parts.stages = stages;
        parts
            .validate()
            .expect("the degraded lowering is structurally valid");
        Some(p)
    }

    // ----- accessors & mutators ------------------------------------

    /// The stage sequence.
    pub fn stages(&self) -> &[PlanStage] {
        &self.inner.stages
    }

    /// Stage labels in execution order (debugging, docs, logs).
    pub fn describe(&self) -> Vec<String> {
        self.inner.stages.iter().map(PlanStage::label).collect()
    }

    /// The executor used for feature computation.
    pub fn executor(&self) -> &Executor {
        &self.inner.exec
    }

    /// The full model.
    pub fn full_model(&self) -> &Arc<TrainedModel> {
        &self.inner.full
    }

    /// The small/filter model, when the plan has one.
    pub fn small_model(&self) -> Option<&Arc<TrainedModel>> {
        self.inner.small.as_ref()
    }

    /// The attached calibrator, if any.
    pub fn calibrator(&self) -> Option<&ScoreCalibrator> {
        self.inner.calibrator.as_ref()
    }

    /// The efficient generator subset, when the plan has one.
    pub fn efficient_set(&self) -> Option<&[usize]> {
        self.inner.subsets.as_ref().map(|s| s.efficient.as_slice())
    }

    /// The first confidence-gate threshold, when the plan has one.
    pub fn threshold(&self) -> Option<f64> {
        self.inner.stages.iter().find_map(|s| match s {
            PlanStage::ConfidenceGate { threshold } => Some(*threshold),
            _ => None,
        })
    }

    /// Override every confidence-gate threshold (threshold sweeps).
    /// Returns whether any gate was present.
    pub fn set_threshold(&mut self, tc: f64) -> bool {
        let mut found = false;
        for stage in &mut Arc::make_mut(&mut self.inner).stages {
            if let PlanStage::ConfidenceGate { threshold } = stage {
                *threshold = tc;
                found = true;
            }
        }
        found
    }

    /// The first top-K filter configuration, when the plan has one.
    pub fn topk_config(&self) -> Option<TopKConfig> {
        self.inner.stages.iter().find_map(|s| match s {
            PlanStage::TopKFilter { config, .. } => Some(*config),
            _ => None,
        })
    }

    /// Override every top-K filter configuration (subset-size sweeps).
    /// Returns whether any filter stage was present.
    pub fn set_topk_config(&mut self, new: TopKConfig) -> bool {
        let mut found = false;
        for stage in &mut Arc::make_mut(&mut self.inner).stages {
            if let PlanStage::TopKFilter { config, .. } = stage {
                *config = new;
                found = true;
            }
        }
        found
    }

    /// Cumulative counters (shared across clones).
    pub fn counters(&self) -> &PlanCounters {
        &self.inner.counters
    }

    /// An owning handle to the shared counters, outliving this clone.
    ///
    /// The serving layer attaches this to an endpoint so its scheduler
    /// can read escalation statistics without holding the plan itself.
    pub fn counters_handle(&self) -> Arc<PlanCounters> {
        Arc::clone(&self.inner.counters)
    }

    /// Cumulative per-stage execution profiles (shared across clones).
    pub fn stage_profiles(&self) -> Vec<StageProfile> {
        self.inner
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| StageProfile {
                label: s.label(),
                runs: self.inner.meters.runs[i].load(Ordering::Relaxed),
                rows_in: self.inner.meters.rows_in[i].load(Ordering::Relaxed),
                seconds: self.inner.meters.nanos[i].load(Ordering::Relaxed) as f64 / 1e9,
            })
            .collect()
    }

    /// End-to-end cache hits so far (0 without a cache).
    pub fn cache_hits(&self) -> u64 {
        self.inner
            .cache
            .as_ref()
            .map_or(0, |c| c.store.lock().hits())
    }

    /// End-to-end cache misses so far (0 without a cache).
    pub fn cache_misses(&self) -> u64 {
        self.inner
            .cache
            .as_ref()
            .map_or(0, |c| c.store.lock().misses())
    }

    /// End-to-end cache hit rate (0 without a cache or lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        self.inner
            .cache
            .as_ref()
            .map_or(0.0, |c| c.store.lock().hit_rate())
    }

    /// Clear the end-to-end cache's contents and counters.
    pub fn clear_cache(&self) {
        if let Some(c) = &self.inner.cache {
            c.store.lock().clear();
        }
    }

    // ----- execution conveniences ----------------------------------

    /// Run the plan over a batch, returning the scores.
    ///
    /// # Errors
    /// Propagates execution failures.
    pub fn predict_batch(&self, table: &Table) -> Result<Vec<f64>, WillumpError> {
        Ok(self.run_batch(table)?.scores)
    }

    /// Run the plan over a batch with the full outcome (scores,
    /// ranking, stage report). A large batch of a row-local plan runs
    /// as row chunks on every core, and a large model stage of any
    /// other plan scores its rows in chunks on every core, with the
    /// same scores and counts as one piece (see
    /// [`PlanExecutor::run_batch`]).
    ///
    /// # Errors
    /// Propagates execution failures.
    pub fn run_batch(&self, table: &Table) -> Result<PlanOutcome, WillumpError> {
        PlanExecutor::new(self).run_batch(table, None)
    }

    /// Run the plan row-wise for one input, returning the score.
    ///
    /// # Errors
    /// Propagates execution failures.
    pub fn predict_one(&self, input: &InputRow) -> Result<f64, WillumpError> {
        Ok(self.run_one(input)?.score)
    }

    /// Run the plan row-wise for one input with the full outcome.
    ///
    /// # Errors
    /// Propagates execution failures.
    pub fn run_one(&self, input: &InputRow) -> Result<RowOutcome, WillumpError> {
        PlanExecutor::new(self).run_row(input)
    }

    /// Answer a top-`k` query: the plan's filter stage runs with this
    /// K, and the returned indices are the final candidates ranked
    /// best-first by their last predicted score.
    ///
    /// # Errors
    /// Errors when `k == 0` or the plan has no
    /// [`PlanStage::TopKFilter`]; propagates execution failures.
    pub fn top_k(
        &self,
        table: &Table,
        k: usize,
    ) -> Result<(Vec<usize>, PlanRunReport), WillumpError> {
        if k == 0 {
            return Err(WillumpError::BadConfig {
                reason: "top-K requires k >= 1".into(),
            });
        }
        let out = PlanExecutor::new(self).run_batch(table, Some(k))?;
        let ranked = out.ranked.ok_or_else(|| WillumpError::BadConfig {
            reason: "plan has no topk_filter stage".into(),
        })?;
        Ok((ranked, out.report))
    }
}

impl PlanParts {
    /// Structural validation: every stage's prerequisites must be
    /// satisfied by the stages before it and the attached resources.
    fn validate(&self) -> Result<(), WillumpError> {
        let bad = |reason: String| -> WillumpError { WillumpError::BadConfig { reason } };
        if self.stages.is_empty() {
            return Err(bad("a serving plan needs at least one stage".into()));
        }
        let mut has_feats = false;
        let mut has_eff = false;
        let mut has_scores = false;
        let mut last_slot: Option<ModelSlot> = None;
        for stage in &self.stages {
            match stage {
                PlanStage::ComputeFeatures { subset } => {
                    if *subset == FeatureSet::Efficient && self.subsets.is_none() {
                        return Err(bad("efficient features need a subset plan".into()));
                    }
                    has_feats = true;
                    has_eff = *subset == FeatureSet::Efficient;
                }
                PlanStage::CacheLookup | PlanStage::CacheFill => {
                    if self.cache.is_none() {
                        return Err(bad(format!(
                            "{} needs an attached cache (with_e2e_cache)",
                            stage.label()
                        )));
                    }
                    if matches!(stage, PlanStage::CacheFill) && !has_scores {
                        return Err(bad("cache_fill must follow a predict stage".into()));
                    }
                }
                PlanStage::PredictModel { slot } => {
                    if !has_feats {
                        return Err(bad(format!(
                            "{} has no computed features to read",
                            stage.label()
                        )));
                    }
                    if *slot == ModelSlot::Small && self.small.is_none() {
                        return Err(bad("predict(small) needs a small model".into()));
                    }
                    has_scores = true;
                    last_slot = Some(*slot);
                }
                PlanStage::ConfidenceGate { threshold } => {
                    if !has_scores {
                        return Err(bad("confidence_gate must follow a predict stage".into()));
                    }
                    if !(0.0..=1.0).contains(threshold) {
                        return Err(bad(format!("threshold {threshold} not in [0, 1]")));
                    }
                    // `max(s, 1 - s)` only means confidence for
                    // classification probabilities; gating unbounded
                    // regression scores would silently "pass" anything
                    // far from [0, 1].
                    let gated = self.model(last_slot.expect("has_scores implies a predict ran"));
                    if gated.task() != Task::BinaryClassification {
                        return Err(bad("confidence gates require classification scores".into()));
                    }
                }
                PlanStage::TopKFilter { k, config } => {
                    if !has_scores {
                        return Err(bad("topk_filter must follow a predict stage".into()));
                    }
                    if *k == 0 || config.ck == 0 {
                        return Err(bad("top-K stages require k >= 1 and ck >= 1".into()));
                    }
                    if !(0.0..=1.0).contains(&config.min_subset_frac) {
                        return Err(bad(format!(
                            "min_subset_frac {} not in [0, 1]",
                            config.min_subset_frac
                        )));
                    }
                }
                PlanStage::Escalate => {
                    if !has_eff || self.subsets.is_none() {
                        return Err(bad(
                            "escalate needs previously computed efficient features".into()
                        ));
                    }
                    has_feats = true;
                }
            }
        }
        Ok(())
    }

    fn cache_key_row(&self, table: &Table, r: usize) -> Result<Vec<String>, WillumpError> {
        let cache = self.cache.as_ref().expect("validated cache");
        cache
            .sources
            .iter()
            .map(|s| {
                table
                    .value(r, s)
                    .map(|v| v.to_string())
                    .ok_or_else(|| WillumpError::BadData {
                        reason: format!("input missing source column `{s}`"),
                    })
            })
            .collect()
    }

    fn cache_key_input(&self, input: &InputRow) -> Result<Vec<String>, WillumpError> {
        let cache = self.cache.as_ref().expect("validated cache");
        cache
            .sources
            .iter()
            .map(|s| {
                input
                    .get(s)
                    .map(std::string::ToString::to_string)
                    .ok_or_else(|| WillumpError::BadData {
                        reason: format!("input missing source column `{s}`"),
                    })
            })
            .collect()
    }

    fn model(&self, slot: ModelSlot) -> &Arc<TrainedModel> {
        match slot {
            ModelSlot::Small => self.small.as_ref().expect("validated small model"),
            ModelSlot::Full => &self.full,
        }
    }

    fn calibrated(&self, score: f64) -> f64 {
        match &self.calibrator {
            Some(c) => c.calibrate(score),
            None => score,
        }
    }

    /// Whether each input row's score depends on that row alone, so a
    /// batch can run in pieces. A top-K filter ranks the whole batch,
    /// the cache stages share state across the batch, and a store
    /// lookup batches its keys into one round trip per node.
    fn is_row_local(&self) -> bool {
        let shared_stage = self.stages.iter().any(|s| {
            matches!(
                s,
                PlanStage::TopKFilter { .. } | PlanStage::CacheLookup | PlanStage::CacheFill
            )
        });
        let store_lookup = self
            .exec
            .graph()
            .nodes()
            .iter()
            .any(|node| matches!(node.op, Operator::StoreLookup(_)));
        !shared_stage && !store_lookup
    }
}

/// Rows per chunk when [`PlanExecutor::run_batch`] splits a batch or
/// a model stage: small enough that a chunk's intermediates stay
/// small, large enough that a chunk's fixed costs vanish in its rows.
const CHUNK_ROWS: usize = 256;

/// The least estimated cost of a batch or a model stage worth
/// splitting, set when every split spawned its helpers: on a 2-vCPU
/// host a scoped thread's start and join took 24–28 µs back to back,
/// 50–145 µs right after a 3 ms serial run (the idle vCPU wakes up
/// first). From 0.5 ms a helper taking half the rows saved more than
/// that, and the music filter stage (0.87–1.7 ms) splits at any host
/// speed. A split now queues a job on lasting helpers instead; the
/// value stays until it is derived again from that dispatch cost, as
/// the benchmark measures it.
const CHUNK_MIN_NANOS: f64 = 0.5e6;

/// Helper jobs worth queuing for `rows` rows that cost an estimated
/// `nanos_per_row` each (`None`: never measured): one per further
/// core, at most one per chunk past the first, when the rows make at
/// least two chunks and cost at least [`CHUNK_MIN_NANOS`]; else 0.
fn helpers_for(rows: usize, nanos_per_row: Option<f64>) -> usize {
    let chunks = rows.div_ceil(CHUNK_ROWS);
    match nanos_per_row {
        Some(per_row) if chunks >= 2 && per_row * rows as f64 >= CHUNK_MIN_NANOS => {
            (cores() - 1).min(chunks - 1)
        }
        _ => 0,
    }
}

/// [`claim`] over the [`CHUNK_ROWS`]-row chunks of `rows` rows: the
/// calling thread and up to `helpers` pool jobs run `work` on each
/// chunk's row range; results come back in row order.
fn claim_chunks<T: Send + 'static>(
    rows: usize,
    helpers: usize,
    work: impl Fn(Range<usize>) -> Result<T, WillumpError> + Send + Sync + 'static,
) -> Result<(Vec<T>, usize), WillumpError> {
    claim(rows.div_ceil(CHUNK_ROWS), helpers, move |c| {
        work(c * CHUNK_ROWS..rows.min((c + 1) * CHUNK_ROWS))
    })
}

/// Runs any [`ServingPlan`] batch-wise ([`run_batch`]) or row-wise
/// ([`run_row`]) over the existing [`Executor`]/engine machinery.
///
/// [`ServingPlan::predict_batch`] / [`ServingPlan::predict_one`] are
/// sugar over this; use the executor directly when you want the
/// stage-by-stage [`PlanRunReport`] or a per-run top-K override.
///
/// # Examples
///
/// ```no_run
/// use willump::{PlanExecutor, ServingPlan};
/// # fn demo(plan: &ServingPlan, table: &willump_data::Table)
/// # -> Result<(), willump::WillumpError> {
/// let outcome = PlanExecutor::new(plan).run_batch(table, Some(20))?;
/// for trace in &outcome.report.stages {
///     println!(
///         "{:<16} {:>6} -> {:>6} rows  {:.1}ms",
///         trace.label, trace.rows_in, trace.rows_out,
///         trace.seconds * 1e3,
///     );
/// }
/// # Ok(())
/// # }
/// ```
///
/// [`run_batch`]: PlanExecutor::run_batch
/// [`run_row`]: PlanExecutor::run_row
#[derive(Debug, Clone, Copy)]
pub struct PlanExecutor<'p> {
    plan: &'p ServingPlan,
}

impl<'p> PlanExecutor<'p> {
    /// An executor over one plan.
    pub fn new(plan: &'p ServingPlan) -> PlanExecutor<'p> {
        PlanExecutor { plan }
    }

    /// Run the plan over a batch. `k_override` replaces every
    /// [`PlanStage::TopKFilter`]'s default K for this run.
    ///
    /// Large batches use every core (paper §4.4: different data inputs
    /// on different threads), in 256-row chunks that the calling
    /// thread and up to one job per further core on the process's
    /// helper pool claim in turn. Each chunk scores its own rows, so
    /// every row's score is the one the batch gives in one piece.
    ///
    /// - A *row-local* plan (no top-K filter or cache stage, and no
    ///   store lookup in the graph) runs the whole plan on each chunk
    ///   of the batch.
    /// - Any other plan — a top-K query, a cached or store-lookup
    ///   plan — runs its batch in one piece, and only a
    ///   [`PlanStage::PredictModel`] stage splits: its model scores
    ///   the chunks of the stage's feature matrix (tree ensembles read
    ///   dense rows in place), while the store lookups, the top-K
    ///   selection and every other stage run whole. A row-local
    ///   plan's batch that does not split itself may split its model
    ///   stages the same way.
    ///
    /// A batch or a stage splits only when it makes at least two
    /// chunks and its measured cost per row
    /// ([`ServingPlan::stage_profiles`]: the plan's, or the stage's
    /// own) puts it at 0.5 ms or more, so a plan that has never run
    /// hands the pool no job. The report's stage rows and counts, and the
    /// [`PlanCounters`] deltas, are those of one piece; the stage
    /// seconds of a split batch or stage are summed over its chunks.
    /// [`PlanRunReport::helpers`] counts the jobs a split batch handed
    /// the pool and [`StageTrace::helpers`] a split stage's. The first
    /// failing chunk's error is returned, and a panic on a helper
    /// resumes on the caller.
    ///
    /// # Errors
    /// Propagates feature computation and cache-key failures.
    pub fn run_batch(
        &self,
        table: &Table,
        k_override: Option<usize>,
    ) -> Result<PlanOutcome, WillumpError> {
        let helpers = if self.plan.inner.is_row_local() {
            helpers_for(table.n_rows(), self.plan.inner.meters.nanos_per_row())
        } else {
            0
        };
        let out = if helpers > 0 {
            self.run_in_chunks(table, helpers)?
        } else {
            self.run_stages(table, k_override, None)?
        };
        Ok(self.recorded(out))
    }

    /// Run a batch split with exactly `helpers` jobs handed to the
    /// helper pool (fewer when there are fewer chunks), whatever its
    /// size or cost: a
    /// row-local plan as batch chunks, any other plan in one piece
    /// with every model stage split. This exists so tests can drive
    /// both splits on any host.
    #[doc(hidden)]
    pub fn run_batch_in_chunks(
        &self,
        table: &Table,
        helpers: usize,
    ) -> Result<PlanOutcome, WillumpError> {
        let out = if self.plan.inner.is_row_local() && table.n_rows() > 0 {
            self.run_in_chunks(table, helpers)?
        } else {
            self.run_stages(table, None, Some(helpers))?
        };
        Ok(self.recorded(out))
    }

    /// Record each stage's meters once for a finished batch.
    fn recorded(&self, out: PlanOutcome) -> PlanOutcome {
        for (si, trace) in out.report.stages.iter().enumerate() {
            self.plan
                .inner
                .meters
                .record(si, trace.rows_in, (trace.seconds * 1e9) as u64);
        }
        out
    }

    /// The plan's stages over `table` as batch chunks on the calling
    /// thread and `helpers` pool jobs (see
    /// [`run_batch`](PlanExecutor::run_batch)), which share one copy
    /// of the table and the plan.
    fn run_in_chunks(&self, table: &Table, helpers: usize) -> Result<PlanOutcome, WillumpError> {
        let plan = self.plan.clone();
        let shared = Arc::new(table.clone());
        let (chunks, helpers) = claim_chunks(table.n_rows(), helpers, move |rows| {
            PlanExecutor::new(&plan).run_stages(&shared.slice_rows(rows), None, None)
        })?;
        let mut scores = Vec::with_capacity(table.n_rows());
        let mut report = PlanRunReport::default();
        for chunk in chunks {
            scores.extend_from_slice(&chunk.scores);
            report.absorb(chunk.report);
        }
        report.chunks = table.n_rows().div_ceil(CHUNK_ROWS);
        report.helpers = helpers;
        Ok(PlanOutcome {
            scores,
            ranked: None,
            report,
        })
    }

    /// The plan's stages over one batch in one piece: the serial loop
    /// every batch chunk runs. A model stage splits when its own
    /// estimate says so, or always with `stage_helpers` helpers when
    /// that is given. Stage meters are left to the caller.
    fn run_stages(
        &self,
        table: &Table,
        k_override: Option<usize>,
        stage_helpers: Option<usize>,
    ) -> Result<PlanOutcome, WillumpError> {
        let plan = &*self.plan.inner;
        let n = table.n_rows();
        let mut scores = vec![0.0; n];
        let mut active: Vec<usize> = (0..n).collect();
        let mut is_active = vec![true; n];

        // Efficient-feature block (kept for escalation merges) and
        // the current feature matrix, each with the original-row list
        // it is aligned to.
        let mut eff_m: Option<FeatureMatrix> = None;
        let mut eff_index: Vec<Option<usize>> = Vec::new();
        let mut other_m: Option<FeatureMatrix> = None;
        let mut other_rows: Vec<usize> = Vec::new();
        let mut eff_rows: Vec<usize> = Vec::new();
        // Whether the next predict stage reads the efficient block, else
        // `other_m` (`None` before any features are computed).
        let mut efficient_current = false;

        let mut missed: Vec<(usize, Vec<String>)> = Vec::new();
        let mut dropped_by_filter = vec![false; n];
        let mut cache_resolved: Vec<usize> = Vec::new();
        let mut ranked_k: Option<usize> = None;
        // Candidate list captured by the (last) top-K filter, in kept
        // (descending filter-score) order. Rows that resolve early —
        // by gate or cache — stay ranked; only filter-dropped rows
        // leave the candidate set.
        let mut candidates: Option<Vec<usize>> = None;
        let mut report = PlanRunReport::default();

        for (si, stage) in plan.stages.iter().enumerate() {
            let rows_in = active.len();
            let started = Instant::now();
            // What a split stage's chunks cost beyond the wall time of
            // its split, and its helpers.
            let mut split = (0.0, 0);
            match stage {
                PlanStage::ComputeFeatures { subset } => {
                    let cols: Option<&[usize]> = match subset {
                        FeatureSet::Efficient => {
                            Some(&plan.subsets.as_ref().expect("validated subsets").efficient)
                        }
                        FeatureSet::Full => None,
                    };
                    let m = if active.len() == n {
                        plan.exec.features_batch(table, cols)?
                    } else {
                        plan.exec.features_batch(&table.take_rows(&active), cols)?
                    };
                    match subset {
                        FeatureSet::Efficient => {
                            eff_index = vec![None; n];
                            for (j, &r) in active.iter().enumerate() {
                                eff_index[r] = Some(j);
                            }
                            eff_rows = active.clone();
                            eff_m = Some(m);
                            efficient_current = true;
                        }
                        FeatureSet::Full => {
                            other_rows = active.clone();
                            other_m = Some(m);
                            efficient_current = false;
                        }
                    }
                }
                PlanStage::CacheLookup => {
                    let cache = plan.cache.as_ref().expect("validated cache");
                    let mut still = Vec::with_capacity(active.len());
                    let mut store = cache.store.lock();
                    for &r in &active {
                        let key = plan.cache_key_row(table, r)?;
                        if let Some(v) = store.get(&key) {
                            scores[r] = *v;
                            is_active[r] = false;
                            cache_resolved.push(r);
                            report.cache_hits += 1;
                        } else {
                            missed.push((r, key));
                            still.push(r);
                        }
                    }
                    report.cache_misses += still.len();
                    active = still;
                }
                PlanStage::CacheFill => {
                    let cache = plan.cache.as_ref().expect("validated cache");
                    let mut store = cache.store.lock();
                    for (r, key) in missed.drain(..) {
                        // Filter-dropped rows never reached a final
                        // predict — their score means "not in the
                        // top K", not an answer; caching it would
                        // poison later queries with filter-model
                        // scores.
                        if !dropped_by_filter[r] {
                            store.put(key, scores[r]);
                        }
                    }
                }
                PlanStage::PredictModel { slot } => {
                    let (m, rows) = if efficient_current {
                        (&mut eff_m, &eff_rows)
                    } else {
                        (&mut other_m, &other_rows)
                    };
                    if let Some(n_rows) = m.as_ref().map(FeatureMatrix::n_rows) {
                        if n_rows > 0 {
                            let helpers = stage_helpers.or_else(|| {
                                let estimate = plan.meters.stage_nanos_per_row(si);
                                Some(helpers_for(n_rows, estimate)).filter(|&h| h > 0)
                            });
                            let s;
                            (s, split) = self.score(*slot, m, helpers)?;
                            for (j, &r) in rows.iter().enumerate() {
                                if is_active[r] {
                                    scores[r] = s[j];
                                }
                            }
                        }
                    }
                }
                PlanStage::ConfidenceGate { threshold } => {
                    let before = active.len();
                    active.retain(|&r| {
                        let s = scores[r];
                        if s.max(1.0 - s) > *threshold {
                            is_active[r] = false;
                            false
                        } else {
                            true
                        }
                    });
                    let resolved = before - active.len();
                    report.gate_resolved += resolved;
                    plan.counters
                        .gate_resolved
                        .fetch_add(resolved as u64, Ordering::Relaxed);
                }
                PlanStage::TopKFilter { k, config } => {
                    let k = k_override.unwrap_or(*k);
                    let nn = active.len();
                    let subset_size = config.subset_size(nn, k);
                    let active_scores: Vec<f64> = active.iter().map(|&r| scores[r]).collect();
                    let kept_pos = metrics::top_k_indices(&active_scores, subset_size);
                    for &r in &active {
                        is_active[r] = false;
                        dropped_by_filter[r] = true;
                    }
                    let kept: Vec<usize> = kept_pos.into_iter().map(|p| active[p]).collect();
                    for &r in &kept {
                        is_active[r] = true;
                        dropped_by_filter[r] = false;
                    }
                    plan.counters
                        .filter_dropped
                        .fetch_add((nn - kept.len()) as u64, Ordering::Relaxed);
                    report.filter_batch = Some(nn);
                    report.filter_kept = Some(subset_size);
                    ranked_k = Some(k);
                    candidates = Some(kept.clone());
                    active = kept;
                }
                PlanStage::Escalate => {
                    let subsets = plan.subsets.as_ref().expect("validated subsets");
                    report.escalated += active.len();
                    plan.counters
                        .escalated
                        .fetch_add(active.len() as u64, Ordering::Relaxed);
                    if active.is_empty() {
                        other_m = None;
                        other_rows.clear();
                        efficient_current = false;
                    } else {
                        let sub = table.take_rows(&active);
                        let ineff = plan.exec.features_batch(&sub, Some(&subsets.inefficient))?;
                        let eff = eff_m.as_ref().expect("validated efficient features");
                        let pick: Vec<usize> = active
                            .iter()
                            .map(|&r| eff_index[r].expect("active rows have efficient features"))
                            .collect();
                        let merged = merge_subset_rows(
                            &subsets.eff_remap,
                            &subsets.ineff_remap,
                            eff,
                            &pick,
                            &ineff,
                            subsets.full_width,
                        );
                        other_m = Some(merged);
                        other_rows = active.clone();
                        efficient_current = false;
                    }
                }
            }
            report.stages.push(StageTrace {
                label: stage.label(),
                rows_in,
                rows_out: active.len(),
                seconds: started.elapsed().as_secs_f64() + split.0,
                helpers: split.1,
            });
        }
        report.chunks = 1;
        plan.counters.rows.fetch_add(n as u64, Ordering::Relaxed);

        let ranked = ranked_k.map(|k| {
            // All filter candidates rank, including ones that resolved
            // early via a confidence gate; rows answered straight from
            // the cache (they never reached the filter) rank too, with
            // their cached final score.
            let mut pool = candidates.take().unwrap_or_default();
            pool.extend(cache_resolved.iter().copied());
            let pool_scores: Vec<f64> = pool.iter().map(|&r| scores[r]).collect();
            metrics::top_k_indices(&pool_scores, k.min(pool.len()))
                .into_iter()
                .map(|p| pool[p])
                .collect()
        });
        Ok(PlanOutcome {
            scores,
            ranked,
            report,
        })
    }

    /// Score every row of the matrix in `m` with the `slot` model,
    /// small-model scores calibrated: in one piece (`helpers: None`),
    /// or as chunks on the calling thread and `helpers` pool jobs that
    /// share the matrix. Also returns what a split's chunks cost beyond
    /// its wall time (a split stage reports their summed seconds), and
    /// the jobs it handed the pool.
    fn score(
        &self,
        slot: ModelSlot,
        m: &mut Option<FeatureMatrix>,
        helpers: Option<usize>,
    ) -> Result<(Vec<f64>, (f64, usize)), WillumpError> {
        let (plan, model) = (self.plan.clone(), Arc::clone(self.plan.inner.model(slot)));
        let calibrated = move |mut s: Vec<f64>| {
            if slot == ModelSlot::Small {
                s.iter_mut().for_each(|v| *v = plan.inner.calibrated(*v));
            }
            s
        };
        let Some(helpers) = helpers else {
            let s = model.predict_scores(m.as_ref().expect("a matrix to score"));
            return Ok((calibrated(s), (0.0, 0)));
        };
        let (wall, shared) = (
            Instant::now(),
            Arc::new(m.take().expect("a matrix to score")),
        );
        let matrix = Arc::clone(&shared);
        let (chunks, helpers) = claim_chunks(shared.n_rows(), helpers, move |rows| {
            let (chunk, mut out) = (Instant::now(), vec![0.0; rows.len()]);
            model.predict_scores_into(&matrix, rows.start, &mut out);
            Ok((calibrated(out), chunk.elapsed().as_nanos() as u64))
        })?;
        // The settled claim has dropped its work and its hold on the matrix.
        *m = Some(Arc::try_unwrap(shared).unwrap_or_else(|m| FeatureMatrix::clone(&m)));
        let (scores, nanos): (Vec<Vec<f64>>, Vec<u64>) = chunks.into_iter().unzip();
        let cost = nanos.iter().sum::<u64>() as f64 / 1e9;
        Ok((
            scores.concat(),
            (cost - wall.elapsed().as_secs_f64(), helpers),
        ))
    }

    /// Run the plan row-wise for one input (the example-at-a-time
    /// serving path: the input's feature generators run serially on
    /// the calling thread, and feature-level caches in the executor
    /// apply).
    ///
    /// [`PlanStage::TopKFilter`] is a no-op row-wise — a single input
    /// is always its own candidate.
    ///
    /// # Errors
    /// Propagates feature computation and cache-key failures.
    pub fn run_row(&self, input: &InputRow) -> Result<RowOutcome, WillumpError> {
        let plan = &*self.plan.inner;
        let mut score = 0.0;
        let mut resolved = false;
        let mut escalated = false;
        let mut cache_hit = false;
        let mut missed_key: Option<Vec<String>> = None;

        let mut eff_entries: Vec<(usize, f64)> = Vec::new();
        let mut entries: Vec<(usize, f64)> = Vec::new();
        let mut width = 0usize;

        for (si, stage) in plan.stages.iter().enumerate() {
            let started = Instant::now();
            let rows_in = usize::from(!resolved);
            // Stages after resolution (except the cache fill) do not
            // execute and are not metered.
            if resolved && !matches!(stage, PlanStage::CacheFill) {
                continue;
            }
            match stage {
                PlanStage::ComputeFeatures { subset } => {
                    let cols: Option<&[usize]> = match subset {
                        FeatureSet::Efficient => {
                            Some(&plan.subsets.as_ref().expect("validated subsets").efficient)
                        }
                        FeatureSet::Full => None,
                    };
                    let rf = plan.exec.features_one(input, cols)?;
                    if *subset == FeatureSet::Efficient {
                        eff_entries.clone_from(&rf.entries);
                    }
                    entries = rf.entries;
                    width = rf.width;
                }
                PlanStage::CacheLookup => {
                    let cache = plan.cache.as_ref().expect("validated cache");
                    let key = plan.cache_key_input(input)?;
                    if let Some(v) = cache.store.lock().get(&key) {
                        score = *v;
                        resolved = true;
                        cache_hit = true;
                    } else {
                        missed_key = Some(key);
                    }
                }
                PlanStage::CacheFill => {
                    if let Some(key) = missed_key.take() {
                        let cache = plan.cache.as_ref().expect("validated cache");
                        cache.store.lock().put(key, score);
                    }
                }
                PlanStage::PredictModel { slot } => {
                    score = plan.model(*slot).predict_score_row(&entries, width);
                    if *slot == ModelSlot::Small {
                        score = plan.calibrated(score);
                    }
                }
                PlanStage::ConfidenceGate { threshold } => {
                    if score.max(1.0 - score) > *threshold {
                        resolved = true;
                        plan.counters.gate_resolved.fetch_add(1, Ordering::Relaxed);
                    }
                }
                PlanStage::TopKFilter { .. } => {
                    // A single row is always within its own top-K
                    // candidate set: nothing to drop.
                }
                PlanStage::Escalate => {
                    let subsets = plan.subsets.as_ref().expect("validated subsets");
                    let ineff = plan.exec.features_one(input, Some(&subsets.inefficient))?;
                    entries = Remapper::merge_full(
                        subsets.eff_remap.to_full(&eff_entries),
                        subsets.ineff_remap.to_full(&ineff.entries),
                    );
                    width = subsets.full_width;
                    escalated = true;
                    plan.counters.escalated.fetch_add(1, Ordering::Relaxed);
                }
            }
            plan.meters
                .record(si, rows_in, started.elapsed().as_nanos() as u64);
        }
        plan.counters.rows.fetch_add(1, Ordering::Relaxed);
        Ok(RowOutcome {
            score,
            escalated,
            cache_hit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use willump_data::{Column, Value};
    use willump_graph::{EngineMode, GraphBuilder, Operator};
    use willump_models::{LinearParams, LogisticParams, ModelSpec};

    /// Two numeric FGs; FG0 alone classifies "easy" inputs, FG1 is
    /// needed for the hard ones (same shape as the cascade tests).
    fn setup() -> (Executor, Table, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let a = b.source("a");
        let c = b.source("b");
        let f0 = b.add("f0", Operator::NumericColumn, [a]).unwrap();
        let f1 = b.add("f1", Operator::NumericColumn, [c]).unwrap();
        let g = Arc::new(b.finish_with_concat("cat", [f0, f1]).unwrap());
        let exec = Executor::new(g, EngineMode::Compiled).unwrap();
        let mut avals = Vec::new();
        let mut bvals = Vec::new();
        let mut labels = Vec::new();
        for i in 0..240 {
            let easy = i % 3 != 0;
            let y = (i % 2) as f64;
            if easy {
                avals.push(if y > 0.5 { 3.0 } else { -3.0 });
                bvals.push(0.0);
            } else {
                avals.push(0.0);
                bvals.push(if y > 0.5 { 2.0 } else { -2.0 });
            }
            labels.push(y);
        }
        let mut t = Table::new();
        t.add_column("a", Column::from(avals)).unwrap();
        t.add_column("b", Column::from(bvals)).unwrap();
        (exec, t, labels)
    }

    fn train(exec: &Executor, t: &Table, y: &[f64]) -> (Arc<TrainedModel>, Arc<TrainedModel>) {
        let full_feats = exec.features_batch(t, None).unwrap();
        let full = ModelSpec::Logistic(LogisticParams::default())
            .fit(&full_feats, y, 1)
            .unwrap();
        let eff_feats = exec.features_batch(t, Some(&[0])).unwrap();
        let small = ModelSpec::Logistic(LogisticParams::default())
            .fit(&eff_feats, y, 1)
            .unwrap();
        (Arc::new(small), Arc::new(full))
    }

    #[test]
    fn full_plan_matches_direct_prediction() {
        let (exec, t, y) = setup();
        let (_, full) = train(&exec, &t, &y);
        let plan = ServingPlan::full_model_plan(exec.clone(), full.clone());
        assert_eq!(
            plan.describe(),
            vec!["compute_features(full)", "predict(full)"]
        );
        let scores = plan.predict_batch(&t).unwrap();
        let direct = full.predict_scores(&exec.features_batch(&t, None).unwrap());
        assert_eq!(scores, direct);
        // Row-wise agrees with batch.
        for r in (0..t.n_rows()).step_by(37) {
            let input = InputRow::from_table(&t, r).unwrap();
            assert!((plan.predict_one(&input).unwrap() - scores[r]).abs() < 1e-9);
        }
        assert_eq!(plan.counters().rows() as usize, t.n_rows() + 7);
    }

    #[test]
    fn cascade_plan_gates_and_escalates() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let plan = ServingPlan::cascade(exec, small, full, 0.8, vec![0]).unwrap();
        assert_eq!(plan.threshold(), Some(0.8));
        let out = plan.run_batch(&t).unwrap();
        assert_eq!(out.scores.len(), t.n_rows());
        assert!(out.report.gate_resolved > 0, "{:?}", out.report);
        assert!(out.report.escalated > 0);
        assert_eq!(out.report.gate_resolved + out.report.escalated, t.n_rows());
        // Accuracy is preserved for this easy synthetic data.
        let acc = metrics::accuracy(&out.scores, &y);
        assert!(acc > 0.95, "accuracy {acc}");
        // Row-wise agrees with batch.
        for r in (0..t.n_rows()).step_by(29) {
            let input = InputRow::from_table(&t, r).unwrap();
            let row = plan.run_one(&input).unwrap();
            assert!((row.score - out.scores[r]).abs() < 1e-9, "row {r}");
        }
        // Stage profiles accumulated for every stage.
        let profiles = plan.stage_profiles();
        assert_eq!(profiles.len(), 5);
        assert!(profiles.iter().all(|p| p.runs > 0));
    }

    #[test]
    fn degraded_cascade_never_escalates() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let plan = ServingPlan::cascade(exec.clone(), small.clone(), full, 0.8, vec![0]).unwrap();
        assert!(plan.can_degrade());
        let degraded = plan.degraded().expect("cascades degrade");
        assert_eq!(
            degraded.describe(),
            vec!["compute_features(efficient)", "predict(small)"]
        );
        let out = degraded.run_batch(&t).unwrap();
        assert_eq!(out.report.escalated, 0, "degraded plans never escalate");
        // Every score is the small model's answer over the efficient
        // subset.
        let eff = exec.features_batch(&t, Some(&[0])).unwrap();
        assert_eq!(out.scores, small.predict_scores(&eff));
        // Counters are shared: the degraded view's rows land in the
        // original plan's statistics.
        assert_eq!(plan.counters().rows() as usize, t.n_rows());
    }

    #[test]
    fn degraded_plan_reads_but_never_fills_the_cache() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let plan = ServingPlan::cascade(exec, small, full, 0.8, vec![0])
            .unwrap()
            .with_e2e_cache(vec!["a".to_string(), "b".to_string()], None)
            .unwrap();
        let degraded = plan.degraded().unwrap();
        assert_eq!(
            degraded.describe(),
            vec![
                "cache_lookup",
                "compute_features(efficient)",
                "predict(small)",
            ]
        );
        // Degraded answers are not written back…
        let input = InputRow::new([("a", Value::Float(3.0)), ("b", Value::Float(0.0))]);
        let d = degraded.run_one(&input).unwrap();
        assert!(!d.cache_hit);
        assert!(!degraded.run_one(&input).unwrap().cache_hit);
        // …but full-quality answers cached before (or between)
        // overloads are served from the shared cache.
        let f = plan.run_one(&input).unwrap();
        assert!(!f.cache_hit);
        let d2 = degraded.run_one(&input).unwrap();
        assert!(d2.cache_hit, "degraded view shares the plan's cache");
        assert!((d2.score - f.score).abs() < 1e-12);
        let _ = d;
    }

    #[test]
    fn degraded_topk_keeps_ranking() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let plan = ServingPlan::top_k_filter(exec, small, full, 10, TopKConfig::default(), vec![0])
            .unwrap();
        let degraded = plan.degraded().unwrap();
        assert_eq!(
            degraded.describe(),
            vec![
                "compute_features(efficient)",
                "predict(small)",
                "topk_filter(k=10, ck=10)",
            ]
        );
        let (ranked, report) = degraded.top_k(&t, 5).unwrap();
        assert_eq!(ranked.len(), 5);
        assert!(report.filter_batch.is_some());
        assert_eq!(report.escalated, 0);
    }

    #[test]
    fn full_model_plans_cannot_degrade() {
        let (exec, t, y) = setup();
        let (_, full) = train(&exec, &t, &y);
        let plan = ServingPlan::full_model_plan(exec, full);
        assert!(!plan.can_degrade());
        assert!(plan.degraded().is_none());
    }

    #[test]
    fn cached_plan_hits_skip_computation() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let plan = ServingPlan::cascade(exec.clone(), small, full, 0.8, vec![0])
            .unwrap()
            .with_e2e_cache(vec!["a".to_string(), "b".to_string()], None)
            .unwrap();
        let generators_before = exec.stats().generators_computed();
        let first = plan.predict_batch(&t).unwrap();
        let computed_first = exec.stats().generators_computed() - generators_before;
        assert!(computed_first > 0);
        let second = plan.predict_batch(&t).unwrap();
        assert_eq!(first, second);
        // The synthetic data has many duplicate (a, b) rows, so even
        // the first pass hits; the second pass must hit fully.
        assert!(plan.cache_hits() >= t.n_rows() as u64);
        assert!(plan.cache_hit_rate() >= 0.5);
        // Row-wise cache path.
        let input = InputRow::new([("a", Value::Float(3.0)), ("b", Value::Float(0.0))]);
        let row = plan.run_one(&input).unwrap();
        assert!(row.cache_hit);
        plan.clear_cache();
        assert_eq!(plan.cache_hits(), 0);
        let row = plan.run_one(&input).unwrap();
        assert!(!row.cache_hit);
    }

    #[test]
    fn composed_gate_and_filter_plan_runs() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let plan = ServingPlan::top_k_filter(exec, small, full, 10, TopKConfig::default(), vec![0])
            .unwrap()
            .with_confidence_gate(0.9)
            .unwrap()
            .with_e2e_cache(vec!["a".to_string(), "b".to_string()], None)
            .unwrap();
        assert_eq!(
            plan.describe(),
            vec![
                "cache_lookup",
                "compute_features(efficient)",
                "predict(small)",
                "topk_filter(k=10, ck=10)",
                "confidence_gate(t=0.9)",
                "escalate",
                "predict(full)",
                "cache_fill",
            ]
        );
        let (ranked, report) = plan.top_k(&t, 5).unwrap();
        assert_eq!(ranked.len(), 5);
        assert!(report.filter_batch.is_some());
        let _ = y;
    }

    #[test]
    fn invalid_plans_rejected() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        // Improper efficient subsets.
        assert!(
            ServingPlan::cascade(exec.clone(), small.clone(), full.clone(), 0.8, vec![]).is_err()
        );
        assert!(
            ServingPlan::cascade(exec.clone(), small.clone(), full.clone(), 0.8, vec![0, 1])
                .is_err()
        );
        // Out-of-range threshold.
        assert!(
            ServingPlan::cascade(exec.clone(), small.clone(), full.clone(), 1.5, vec![0]).is_err()
        );
        // k = 0 filter.
        assert!(ServingPlan::top_k_filter(
            exec.clone(),
            small.clone(),
            full.clone(),
            0,
            TopKConfig::default(),
            vec![0]
        )
        .is_err());
        // Gate on a non-escalating plan.
        assert!(ServingPlan::full_model_plan(exec.clone(), full.clone())
            .with_confidence_gate(0.5)
            .is_err());
        // Double cache.
        assert!(ServingPlan::full_model_plan(exec.clone(), full.clone())
            .with_e2e_cache(vec!["a".into()], None)
            .unwrap()
            .with_e2e_cache(vec!["a".into()], None)
            .is_err());
        // Top-K queries need a filter stage and k >= 1.
        let plain = ServingPlan::full_model_plan(exec.clone(), full.clone());
        assert!(plain.top_k(&t, 5).is_err());
        assert!(plain.top_k(&t, 0).is_err());
        assert_eq!(full.task(), willump_models::Task::BinaryClassification);
        // Confidence gates over regression scores are rejected.
        let lin_full = Arc::new(
            ModelSpec::Linear(LinearParams::default())
                .fit(&exec.features_batch(&t, None).unwrap(), &y, 1)
                .unwrap(),
        );
        let lin_small = Arc::new(
            ModelSpec::Linear(LinearParams::default())
                .fit(&exec.features_batch(&t, Some(&[0])).unwrap(), &y, 1)
                .unwrap(),
        );
        assert!(ServingPlan::cascade(exec, lin_small, lin_full, 0.8, vec![0]).is_err());
    }

    /// A 600-row table in the shape of [`setup`]'s (three chunks).
    fn long_table() -> Table {
        let mut t = Table::new();
        let a: Vec<f64> = (0..600).map(|i| f64::from(i % 7) - 3.0).collect();
        let b: Vec<f64> = (0..600).map(|i| f64::from(i % 5) - 2.0).collect();
        t.add_column("a", Column::from(a)).unwrap();
        t.add_column("b", Column::from(b)).unwrap();
        t
    }

    /// Score `rows` of `table` with `plan`'s stages.
    fn run_rows(
        plan: &ServingPlan,
        table: &Table,
        rows: Range<usize>,
    ) -> Result<Vec<f64>, WillumpError> {
        let chunk = PlanExecutor::new(plan).run_stages(&table.slice_rows(rows), None, None)?;
        Ok(chunk.scores)
    }

    #[test]
    fn a_failing_chunk_returns_its_error_and_stops_the_claims() {
        let (exec, t, y) = setup();
        let (_, full) = train(&exec, &t, &y);
        let plan = ServingPlan::full_model_plan(exec, full);
        let table = Arc::new(long_table());
        let ran = Arc::new(AtomicU64::new(0));
        let (counter, chunks) = (Arc::clone(&ran), Arc::clone(&table));
        let err = claim_chunks(table.n_rows(), 0, move |rows| -> Result<(), _> {
            counter.fetch_add(1, Ordering::Relaxed);
            let chunk = chunks.slice_rows(rows);
            let first = chunk.value(0, "a").expect("column a").to_string();
            Err(WillumpError::BadData {
                reason: format!("chunk starting at a = {first}"),
            })
        })
        .unwrap_err();
        assert!(
            matches!(&err, WillumpError::BadData { reason } if reason == "chunk starting at a = -3"),
            "{err}"
        );
        assert_eq!(
            ran.load(Ordering::Relaxed),
            1,
            "no chunk claimed after a failure"
        );

        // Only the second chunk fails: its error comes back, whichever
        // thread ran it.
        let chunks = Arc::clone(&table);
        let err = claim_chunks(table.n_rows(), 2, move |rows| {
            let second = chunks.slice_rows(rows.clone());
            if second.value(0, "b").expect("column b").to_string() == "-1" {
                return Err(WillumpError::BadData {
                    reason: "the second chunk".into(),
                });
            }
            run_rows(&plan, &chunks, rows)
        })
        .unwrap_err();
        assert!(
            matches!(&err, WillumpError::BadData { reason } if reason == "the second chunk"),
            "{err}"
        );
    }

    #[test]
    fn a_panic_on_a_helper_resumes_on_the_caller() {
        let (exec, t, y) = setup();
        let (_, full) = train(&exec, &t, &y);
        let plan = ServingPlan::full_model_plan(exec, full);
        let table = long_table();
        let helper_ran = Arc::new(AtomicBool::new(false));
        let ran = Arc::clone(&helper_ran);
        let caught = std::panic::catch_unwind(move || {
            claim_chunks(table.n_rows(), 1, move |rows| {
                let name = std::thread::current().name().map(str::to_string);
                if name.is_some_and(|n| n.starts_with("willump-helper-")) {
                    ran.store(true, Ordering::SeqCst);
                    panic!("a helper's chunk");
                }
                // The caller's chunks succeed; it waits for the helper
                // to take one, so the panic is the helper's alone.
                let waited = Instant::now();
                while !ran.load(Ordering::SeqCst) && waited.elapsed().as_secs() < 10 {
                    std::thread::yield_now();
                }
                run_rows(&plan, &table, rows)
            })
        });
        assert!(helper_ran.load(Ordering::SeqCst));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"a helper's chunk"));
    }

    #[test]
    fn chunk_reports_add_up_to_the_one_piece_report() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let one_piece =
            ServingPlan::cascade(exec.clone(), small.clone(), full.clone(), 0.8, vec![0])
                .unwrap()
                .run_batch(&long_table())
                .unwrap();
        assert_eq!((one_piece.report.chunks, one_piece.report.helpers), (1, 0));
        let plan = ServingPlan::cascade(exec, small, full, 0.8, vec![0]).unwrap();
        let chunked = PlanExecutor::new(&plan)
            .run_batch_in_chunks(&long_table(), 1)
            .unwrap();
        assert_eq!(chunked.report.chunks, 3);
        assert_eq!(chunked.scores, one_piece.scores);
        let rows = |r: &PlanRunReport| -> Vec<(usize, usize)> {
            r.stages.iter().map(|s| (s.rows_in, s.rows_out)).collect()
        };
        assert_eq!(rows(&chunked.report), rows(&one_piece.report));
        assert_eq!(chunked.report.gate_resolved, one_piece.report.gate_resolved);
        assert_eq!(chunked.report.escalated, one_piece.report.escalated);
        // Meters record each stage once per batch.
        assert!(plan.stage_profiles().iter().all(|p| p.runs == 1));
        assert!(plan.stage_profiles().iter().all(|p| p.rows_in > 0));
    }

    #[test]
    fn threshold_and_config_mutators() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let mut plan =
            ServingPlan::cascade(exec.clone(), small.clone(), full.clone(), 0.8, vec![0]).unwrap();
        assert!(plan.set_threshold(1.0));
        assert_eq!(plan.threshold(), Some(1.0));
        // Threshold 1.0 escalates everything: plan equals full model.
        let out = plan.run_batch(&t).unwrap();
        assert_eq!(out.report.gate_resolved, 0);
        let direct = full.predict_scores(&exec.features_batch(&t, None).unwrap());
        for (a, b) in out.scores.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9);
        }
        let mut filter =
            ServingPlan::top_k_filter(exec, small, full, 10, TopKConfig::default(), vec![0])
                .unwrap();
        assert!(filter.set_topk_config(TopKConfig {
            ck: 2,
            min_subset_frac: 0.0,
        }));
        assert_eq!(filter.topk_config().unwrap().ck, 2);
        assert!(!filter.set_threshold(0.5));
    }
}
