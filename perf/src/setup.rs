//! Set-up shared by the workloads: generate the data, optimize the
//! pipeline, stand up the serving rig, and check — before anything is
//! timed — that the program's answers are right.

use std::time::Instant;

use willump::{PlanStage, QueryMode, ServingPlan, Willump, WillumpConfig};
use willump_data::Table;
use willump_models::metrics;
use willump_serve::{
    table_row_to_wire, RemoteRuntimeNode, RuntimeClient, ServerConfig, ServingRuntime, WireRow,
};
use willump_workloads::{Workload, WorkloadConfig, WorkloadKind};

pub type Res<T> = Result<T, String>;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub const N_TRAIN: usize = 2_000;
pub const N_VALID: usize = 1_000;
/// Rows in the test table: the batch `run_batch` scores, the candidate
/// set `top_k` ranks, and the pool requests are drawn from.
pub const N_TEST: usize = 2_000;
pub const TOP_K: usize = 20;
/// The one endpoint the serve workloads register.
pub const ENDPOINT: &str = "toxic";
/// Worker threads per runtime, and local shards per endpoint.
pub const WORKERS: usize = 2;
/// Served scores must equal `run_batch` on the same rows this closely.
pub const SCORE_TOLERANCE: f64 = 1e-12;

/// Which pipeline a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Toxic comments optimized for batch queries: a cascade.
    ToxicCascade,
    /// Music recommendation optimized for top-K queries: a filter.
    MusicTopK,
}

/// A generated workload and its optimized plan, with what each step
/// of getting there cost.
pub struct Built {
    pub workload: Workload,
    pub plan: ServingPlan,
    pub generate_s: f64,
    pub optimize_s: f64,
}

/// Generate the data from `seed` and run `Willump::optimize` on it.
///
/// # Errors
/// Fails when generation or optimization fails, or when the optimizer
/// did not lower the stage the workload exists to exercise (a
/// `ConfidenceGate` on toxic, a `TopKFilter` on music).
pub fn build(pipeline: Pipeline, seed: u64) -> Res<Built> {
    let (kind, mode) = match pipeline {
        Pipeline::ToxicCascade => (WorkloadKind::Toxic, QueryMode::Batch),
        Pipeline::MusicTopK => (WorkloadKind::Music, QueryMode::TopK { k: TOP_K }),
    };
    let started = Instant::now();
    let workload = kind
        .generate(&WorkloadConfig {
            n_train: N_TRAIN,
            n_valid: N_VALID,
            n_test: N_TEST,
            seed,
            remote: None,
        })
        .map_err(err)?;
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let optimized = Willump::new(WillumpConfig {
        mode,
        seed,
        ..WillumpConfig::default()
    })
    .optimize(
        &workload.pipeline,
        &workload.train,
        &workload.train_y,
        &workload.valid,
        &workload.valid_y,
    )
    .map_err(err)?;
    let plan = optimized.serving_plan();
    let optimize_s = started.elapsed().as_secs_f64();

    let lowered = plan.stages().iter().any(|s| match pipeline {
        Pipeline::ToxicCascade => matches!(s, PlanStage::ConfidenceGate { .. }),
        Pipeline::MusicTopK => matches!(s, PlanStage::TopKFilter { .. }),
    });
    if !lowered {
        return Err(format!(
            "{pipeline:?} at seed {seed}: the optimizer lowered {:?}, without the stage this workload measures",
            plan.describe()
        ));
    }
    Ok(Built {
        workload,
        plan,
        generate_s,
        optimize_s,
    })
}

/// Build the toxic cascade, score the test table with `run_batch`, and
/// check those scores against the hand replay. Returns the plan, the
/// reference scores, and how many of them the replay disagrees with.
pub fn build_toxic(seed: u64) -> Res<(Built, Vec<f64>, u64)> {
    let built = build(Pipeline::ToxicCascade, seed)?;
    let test = &built.workload.test;
    let reference = built.plan.run_batch(test).map_err(err)?.scores;
    let failed = score_mismatches(&reference, &replay_cascade(&built.plan, test)?) as u64;
    Ok((built, reference, failed))
}

/// Cascade scores recomputed by hand through the layers' public
/// functions: efficient features → small model → gate at the plan's
/// threshold → full features and full model for the escalated rows.
pub fn replay_cascade(plan: &ServingPlan, table: &Table) -> Res<Vec<f64>> {
    let (exec, full) = (plan.executor(), plan.full_model());
    let small = plan
        .small_model()
        .ok_or("cascade plan has no small model")?;
    let efficient = plan
        .efficient_set()
        .ok_or("cascade plan has no efficient set")?;
    let threshold = plan.threshold().ok_or("cascade plan has no threshold")?;
    let mut scores =
        small.predict_scores(&exec.features_batch(table, Some(efficient)).map_err(err)?);
    let escalated: Vec<usize> = (0..scores.len())
        .filter(|&r| scores[r].max(1.0 - scores[r]) <= threshold)
        .collect();
    if !escalated.is_empty() {
        let feats = exec
            .features_batch(&table.take_rows(&escalated), None)
            .map_err(err)?;
        for (&r, s) in escalated.iter().zip(full.predict_scores(&feats)) {
            scores[r] = s;
        }
    }
    Ok(scores)
}

/// The filter's ranking recomputed by hand: efficient features →
/// filter model → keep the top `max(ck * k, min_frac * n)` → full
/// features and full model for the kept rows → top `k` of those.
pub fn replay_top_k(plan: &ServingPlan, table: &Table, k: usize) -> Res<Vec<usize>> {
    let (exec, full) = (plan.executor(), plan.full_model());
    let filter = plan
        .small_model()
        .ok_or("filter plan has no filter model")?;
    let efficient = plan
        .efficient_set()
        .ok_or("filter plan has no efficient set")?;
    let config = plan.topk_config().ok_or("filter plan has no top-K stage")?;
    let n = table.n_rows();
    let keep = (config.ck * k)
        .max((config.min_subset_frac * n as f64).ceil() as usize)
        .min(n);
    let filter_scores =
        filter.predict_scores(&exec.features_batch(table, Some(efficient)).map_err(err)?);
    let kept = metrics::top_k_indices(&filter_scores, keep);
    let feats = exec
        .features_batch(&table.take_rows(&kept), None)
        .map_err(err)?;
    Ok(
        metrics::top_k_indices(&full.predict_scores(&feats), k.min(kept.len()))
            .into_iter()
            .map(|p| kept[p])
            .collect(),
    )
}

/// How many positions differ by more than [`SCORE_TOLERANCE`].
pub fn score_mismatches(got: &[f64], want: &[f64]) -> usize {
    if got.len() != want.len() {
        return got.len().max(want.len());
    }
    got.iter()
        .zip(want)
        .filter(|(g, w)| (*g - *w).abs() > SCORE_TOLERANCE)
        .count()
}

/// The serving rig: the runtime clients talk to and, for the remote
/// workload, the node its two shards forward to over loopback TCP.
pub struct Rig {
    // Declared (and therefore dropped) before the node, so the parent
    // stops forwarding before the node stops listening.
    pub runtime: ServingRuntime,
    pub node: Option<RemoteRuntimeNode>,
}

fn runtime_builder() -> willump_serve::RuntimeBuilder {
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(WORKERS).build());
    b
}

impl Rig {
    /// One endpoint, two local shards, coalescing on.
    pub fn local(plan: &ServingPlan) -> Res<Rig> {
        let mut b = runtime_builder();
        b.plan(ENDPOINT, plan.clone()).shards(WORKERS);
        Ok(Rig {
            runtime: b.build().map_err(err)?,
            node: None,
        })
    }

    /// The same endpoint with both shards remote: a node in this
    /// process, bound on an ephemeral loopback port, hosts the plan on
    /// a runtime configured exactly like [`Rig::local`]'s.
    pub fn remote(plan: &ServingPlan) -> Res<Rig> {
        let hosted = Rig::local(plan)?.runtime;
        let node = RemoteRuntimeNode::bind("127.0.0.1:0", hosted).map_err(err)?;
        let addr = node.local_addr().to_string();
        let mut b = runtime_builder();
        b.plan(ENDPOINT, plan.clone())
            .shards(0)
            .shard_remote(&addr)
            .shard_remote(&addr);
        Ok(Rig {
            runtime: b.build().map_err(err)?,
            node: Some(node),
        })
    }

    /// The runtime that executes the plan: the node's when the shards
    /// are remote, else the one clients talk to.
    pub fn executing_runtime(&self) -> &ServingRuntime {
        self.node
            .as_ref()
            .map_or(&self.runtime, RemoteRuntimeNode::runtime)
    }
}

/// The request pool of the serve workloads: every test row in wire
/// form, its routing key, and the score `run_batch` gives it.
pub struct Requests {
    rows: Vec<WireRow>,
    keys: Vec<String>,
    pub reference: Vec<f64>,
}

impl Requests {
    pub fn new(test: &Table, reference: Vec<f64>) -> Res<Requests> {
        let n = test.n_rows();
        Ok(Requests {
            rows: (0..n)
                .map(|r| table_row_to_wire(test, r).map_err(err))
                .collect::<Res<_>>()?,
            keys: (0..n).map(|r| r.to_string()).collect(),
            reference,
        })
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `len` consecutive rows starting at `first`, wrapping around.
    pub fn batch(&self, first: usize, len: usize) -> Vec<WireRow> {
        (0..len)
            .map(|i| self.rows[(first + i) % self.rows.len()].clone())
            .collect()
    }

    /// Send rows `first..first + len` as one request keyed by the
    /// first row's id; `true` when every score matches `run_batch`.
    pub fn call(&self, client: &RuntimeClient, first: usize, len: usize) -> bool {
        let first = first % self.len();
        match client.predict_keyed(ENDPOINT, &self.keys[first], self.batch(first, len)) {
            Ok(scores) => {
                scores.len() == len
                    && scores.iter().enumerate().all(|(i, s)| {
                        (s - self.reference[(first + i) % self.len()]).abs() <= SCORE_TOLERANCE
                    })
            }
            Err(_) => false,
        }
    }
}
