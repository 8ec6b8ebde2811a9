//! When `PlanExecutor::run_batch` runs a batch, or one model stage of
//! it, as row chunks on helper threads, and what a failing or
//! panicking chunk does.
//!
//! A batch is split only when it makes at least two 256-row chunks,
//! the plan is row-local, and the plan's own measured cost per row puts
//! the batch at 0.5 ms or more. A plan that does not split its batch —
//! top-K, cached and store-lookup plans among them — splits a model
//! stage by the same rule, judged from that stage's own measured cost
//! per row. `PlanRunReport::helpers` counts the jobs a split batch
//! handed the process's helper pool and `StageTrace::helpers` those a
//! split stage handed it (every chunk a helper claimed is done before
//! the run returns), so "starts no thread" is both at 0. The pool's
//! threads (`willump-helper-*`) start with its first job and serve
//! every later split.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use willump::{
    PlanExecutor, PlanRunReport, QueryMode, ServingPlan, TopKConfig, Willump, WillumpConfig,
};
use willump_data::{Column, Table};
use willump_graph::{EngineMode, Executor, GraphBuilder, Operator, Parallelism};
use willump_models::{LogisticParams, ModelSpec, TrainedModel};
use willump_serve::{
    table_row_to_wire, Servable, ServeError, ServerConfig, ServingRuntime, DEFAULT_ENDPOINT,
};
use willump_workloads::{WorkloadConfig, WorkloadKind};

/// `n` rows of two numeric inputs: `a` alone separates most of them.
fn rows(n: usize) -> (Table, Vec<f64>) {
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = (i % 2) as f64;
        let sign = if label > 0.5 { 1.0 } else { -1.0 };
        if i % 3 == 0 {
            a.push(0.0);
            b.push(2.0 * sign);
        } else {
            a.push(3.0 * sign);
            b.push(0.0);
        }
        y.push(label);
    }
    let mut t = Table::new();
    t.add_column("a", Column::from(a)).unwrap();
    t.add_column("b", Column::from(b)).unwrap();
    (t, y)
}

/// An executor over two numeric feature generators and a small/full
/// logistic pair fitted on it.
fn fitted() -> (Executor, Arc<TrainedModel>, Arc<TrainedModel>) {
    let mut g = GraphBuilder::new();
    let a = g.source("a");
    let b = g.source("b");
    let f0 = g.add("f0", Operator::NumericColumn, [a]).unwrap();
    let f1 = g.add("f1", Operator::NumericColumn, [b]).unwrap();
    let graph = Arc::new(g.finish_with_concat("cat", [f0, f1]).unwrap());
    let exec = Executor::new(graph, EngineMode::Compiled).unwrap();
    let (t, y) = rows(300);
    let fit = |subset: Option<&[usize]>| {
        let feats = exec.features_batch(&t, subset).unwrap();
        Arc::new(
            ModelSpec::Logistic(LogisticParams::default())
                .fit(&feats, &y, 1)
                .unwrap(),
        )
    };
    let (small, full) = (fit(Some(&[0])), fit(None));
    (exec, small, full)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The least estimated cost, in seconds, of a batch or a stage that
/// splits.
const FLOOR: f64 = 0.5e-3;

/// The plan's measured cost of one row so far: every stage's seconds
/// over the rows that entered its first stage.
fn seconds_per_row(plan: &ServingPlan) -> f64 {
    let profiles = plan.stage_profiles();
    let seconds: f64 = profiles.iter().map(|p| p.seconds).sum();
    seconds / profiles[0].rows_in as f64
}

/// One stage's measured cost of a row entering it so far.
fn stage_seconds_per_row(plan: &ServingPlan, stage: usize) -> f64 {
    let profile = &plan.stage_profiles()[stage];
    profile.seconds / profile.rows_in as f64
}

/// Jobs a run handed the helper pool, for its batch and for all its
/// stages.
fn threads_started(report: &PlanRunReport) -> usize {
    report.helpers + report.stages.iter().map(|s| s.helpers).sum::<usize>()
}

/// The music workload and its optimizer-lowered top-K plan.
fn music_top_k() -> (willump_workloads::Workload, ServingPlan) {
    let w = WorkloadKind::Music
        .generate(&WorkloadConfig::small())
        .expect("generates");
    let plan = Willump::new(WillumpConfig {
        mode: QueryMode::TopK { k: 20 },
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes")
    .serving_plan();
    (w, plan)
}

#[test]
fn a_fresh_plans_first_batch_starts_no_thread() {
    let (exec, small, full) = fitted();
    let plan = ServingPlan::cascade(exec, small, full, 0.9, vec![0]).unwrap();
    let out = plan.run_batch(&rows(20_000).0).unwrap();
    assert_eq!((out.report.chunks, out.report.helpers), (1, 0));
    assert_eq!(threads_started(&out.report), 0);
}

/// A top-K plan's first query measures its stages before any of them
/// may split: it starts no thread.
#[test]
fn a_fresh_top_k_plans_first_query_starts_no_thread() {
    let (w, plan) = music_top_k();
    let (_, report) = plan.top_k(&w.test, 20).expect("top-K query");
    assert_eq!((report.chunks, report.helpers), (1, 0));
    assert_eq!(threads_started(&report), 0);

    let (exec, small, full) = fitted();
    let plan =
        ServingPlan::top_k_filter(exec, small, full, 10, TopKConfig::default(), vec![0]).unwrap();
    let (_, report) = plan.top_k(&rows(20_000).0, 10).expect("top-K query");
    assert_eq!(threads_started(&report), 0);
}

/// Each batch is split exactly when the rule says so, judged from the
/// cost the plan has measured right before it runs.
#[test]
fn a_batch_splits_only_when_its_estimated_cost_reaches_half_a_millisecond() {
    let (exec, small, full) = fitted();
    let plan = ServingPlan::cascade(exec, small, full, 0.9, vec![0]).unwrap();
    plan.run_batch(&rows(2_000).0).unwrap();
    let per_row = seconds_per_row(&plan);
    // Well under the floor (when even two chunks' worth is), and over
    // it.
    let under = ((FLOOR / 4.0 / per_row) as usize).max(257);
    let over = ((2.0 * FLOOR / per_row).ceil() as usize).clamp(513, 200_000);
    let mut judged_under = false;
    for n in [256, under, over, under, over] {
        let estimate = seconds_per_row(&plan) * n as f64;
        let out = plan.run_batch(&rows(n).0).unwrap();
        let split = n > 256 && estimate >= FLOOR && cores() > 1;
        assert_eq!(out.report.helpers > 0, split, "{n} rows, {estimate} s");
        if split {
            assert_eq!(out.report.chunks, n.div_ceil(256));
            assert!(out.report.helpers < cores());
        } else {
            assert_eq!((out.report.chunks, out.report.helpers), (1, 0));
            judged_under |= n > 256;
        }
    }
    assert!(
        judged_under || seconds_per_row(&plan) * 257.0 >= FLOOR / 4.0,
        "no batch of two chunks ran under the floor"
    );
}

/// A top-K plan's filter stage splits exactly when its own estimate
/// says so, judged from the stage's cost measured right before each
/// query; the batch itself never splits.
#[test]
fn a_large_filter_stage_splits_only_when_its_estimated_cost_reaches_half_a_millisecond() {
    let (exec, small, full) = fitted();
    let plan =
        ServingPlan::top_k_filter(exec, small, full, 10, TopKConfig::default(), vec![0]).unwrap();
    let filter = plan
        .describe()
        .iter()
        .position(|label| label == "predict(small)")
        .expect("a filter stage");
    plan.top_k(&rows(2_000).0, 10).unwrap();
    let per_row = stage_seconds_per_row(&plan, filter);
    let under = ((FLOOR / 4.0 / per_row) as usize).clamp(257, 200_000);
    let over = ((2.0 * FLOOR / per_row).ceil() as usize).clamp(513, 400_000);
    let mut judged = [false; 2];
    for n in [256, under, over, under, over] {
        let estimate = stage_seconds_per_row(&plan, filter) * n as f64;
        let (_, report) = plan.top_k(&rows(n).0, 10).unwrap();
        assert_eq!((report.chunks, report.helpers), (1, 0), "{n} rows");
        let stage = &report.stages[filter];
        assert_eq!(stage.rows_in, n);
        let split = n > 256 && estimate >= FLOOR && cores() > 1;
        assert_eq!(stage.helpers > 0, split, "{n} rows, {estimate} s");
        if split {
            assert!(stage.helpers < cores().min(n.div_ceil(256)));
        }
        judged[usize::from(split)] |= n > 256;
        // No other stage splits.
        assert_eq!(threads_started(&report), stage.helpers, "{n} rows");
    }
    assert!(
        judged[0] || stage_seconds_per_row(&plan, filter) * 257.0 >= FLOOR / 4.0,
        "no filter stage of two chunks ran under the floor"
    );
    assert!(
        judged[1] || cores() == 1 || stage_seconds_per_row(&plan, filter) * 400_000.0 < FLOOR,
        "no filter stage ran over the floor"
    );
}

/// The music top-K query keeps its five store round trips per query
/// while its filter stage splits: a split stage scores the features
/// the whole batch's lookups fetched.
#[test]
fn the_music_top_k_query_keeps_five_round_trips_while_its_filter_stage_splits() {
    let (w, plan) = music_top_k();
    let store = w.store.clone().expect("music has a store");
    let trips = || store.stats().round_trips();
    let filter = plan
        .describe()
        .iter()
        .position(|label| label == "predict(small)")
        .expect("a filter stage");
    for helpers in 1..=3 {
        let before = trips();
        let out = PlanExecutor::new(&plan)
            .run_batch_in_chunks(&w.test, helpers)
            .unwrap();
        assert!(out.ranked.is_some());
        assert_eq!((out.report.chunks, out.report.helpers), (1, 0));
        let chunks = w.test.n_rows().div_ceil(256);
        assert_eq!(out.report.stages[filter].helpers, helpers.min(chunks - 1));
        assert_eq!(trips() - before, 5);
    }
    // Queries split their filter stage by the rule alone.
    for _ in 0..3 {
        let estimate = stage_seconds_per_row(&plan, filter) * w.test.n_rows() as f64;
        let before = trips();
        let (_, report) = plan.top_k(&w.test, 20).expect("top-K query");
        assert_eq!(trips() - before, 5);
        let split = w.test.n_rows() > 256 && estimate >= FLOOR && cores() > 1;
        assert_eq!(report.stages[filter].helpers > 0, split, "{estimate} s");
    }
}

/// A top-K filter ranks the whole batch and a cache is state shared
/// across it: such plans run every batch in one piece.
#[test]
fn plans_with_batch_wide_stages_never_split() {
    let (exec, small, full) = fitted();
    let (t, _) = rows(2_001);
    let plans = [
        ServingPlan::top_k_filter(
            exec.clone(),
            small.clone(),
            full.clone(),
            10,
            TopKConfig::default(),
            vec![0],
        )
        .unwrap(),
        ServingPlan::cascade(exec, small, full, 0.9, vec![0])
            .unwrap()
            .with_e2e_cache(vec!["a".into(), "b".into()], None)
            .unwrap(),
    ];
    for plan in &plans {
        for _ in 0..3 {
            let out = plan.run_batch(&t).unwrap();
            assert_eq!((out.report.chunks, out.report.helpers), (1, 0));
        }
        let forced = PlanExecutor::new(plan).run_batch_in_chunks(&t, 3).unwrap();
        assert_eq!(
            (forced.report.chunks, forced.report.helpers),
            (1, 0),
            "{:?}",
            plan.describe()
        );
    }
}

/// A store lookup batches a batch's keys into one round trip per lookup
/// node, so a plan over one is never split: the music top-K query keeps
/// its five round trips per query, and so does a full-model batch.
#[test]
fn store_lookup_plans_never_split() {
    let w = WorkloadKind::Music
        .generate(&WorkloadConfig::small())
        .expect("generates");
    let store = w.store.clone().expect("music has a store");
    let trips = || store.stats().round_trips();

    let opt = Willump::new(WillumpConfig {
        mode: QueryMode::TopK { k: 20 },
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");
    let plan = opt.serving_plan();
    for _ in 0..3 {
        let before = trips();
        plan.top_k(&w.test, 20).expect("top-K query");
        assert_eq!(trips() - before, 5);
    }

    let full = ServingPlan::full_model_plan(plan.executor().clone(), plan.full_model().clone());
    for _ in 0..3 {
        let before = trips();
        let out = PlanExecutor::new(&full)
            .run_batch_in_chunks(&w.test, 3)
            .unwrap();
        assert_eq!((out.report.chunks, out.report.helpers), (1, 0));
        assert_eq!(trips() - before, 5);
    }
}

/// A batch whose chunks fail returns the failure, as one piece would.
#[test]
fn a_failing_chunk_returns_its_error() {
    let (exec, _, full) = fitted();
    let plan = ServingPlan::full_model_plan(exec, full);
    // Input `b` is missing.
    let mut t = Table::new();
    t.add_column("a", Column::from(vec![1.0; 2_001])).unwrap();
    let one_piece = plan.run_batch(&t).unwrap_err().to_string();
    for helpers in 0..=3 {
        let chunked = PlanExecutor::new(&plan)
            .run_batch_in_chunks(&t, helpers)
            .unwrap_err();
        assert_eq!(chunked.to_string(), one_piece);
    }
}

/// Serves the batch in chunks with three helper jobs, whatever its cost.
struct InChunks(ServingPlan);

impl Servable for InChunks {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        PlanExecutor::new(&self.0)
            .run_batch_in_chunks(table, 3)
            .map(|out| out.scores)
            .map_err(|e| e.to_string())
    }
}

/// A chunk that panics on a helper thread panics the call on the
/// thread that ran it, where the runtime catches it: the caller reads
/// `Disconnected`, and the runtime serves on.
#[test]
fn a_panicking_chunk_reads_disconnected_through_the_runtime() {
    use willump_featurize::{TfIdfVectorizer, VectorizerConfig};

    // Sparse text features scored by a model fitted on one column: the
    // sparse dot product panics on its too-short weights.
    let docs: Vec<String> = (0..1_000)
        .map(|i| format!("word{} common", i % 50))
        .collect();
    let mut vectorizer = TfIdfVectorizer::new(VectorizerConfig::default()).unwrap();
    vectorizer.fit(&docs);
    let mut g = GraphBuilder::new();
    let text = g.source("text");
    let tfidf = g
        .add("tfidf", Operator::TfIdf(Arc::new(vectorizer)), [text])
        .unwrap();
    let graph = Arc::new(g.finish_with_concat("features", [tfidf]).unwrap());
    let exec = Executor::new(graph, EngineMode::Compiled).unwrap();
    let (_, small, _) = fitted();
    let mut t = Table::new();
    t.add_column("text", Column::from(docs)).unwrap();
    let panics = ServingPlan::full_model_plan(exec, small);

    let (exec, _, full) = fitted();
    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.endpoint(DEFAULT_ENDPOINT, Arc::new(InChunks(panics)));
    b.endpoint(
        "serves",
        Arc::new(InChunks(ServingPlan::full_model_plan(exec, full))),
    );
    let rt = b.build().unwrap();
    let client = rt.client();
    let wire = |table: &Table| -> Vec<_> {
        (0..table.n_rows())
            .map(|r| table_row_to_wire(table, r).unwrap())
            .collect()
    };
    assert_eq!(client.predict(wire(&t)), Err(ServeError::Disconnected));
    let (numbers, _) = rows(600);
    let scores = client
        .predict_endpoint("serves", wire(&numbers))
        .expect("the runtime serves on");
    assert_eq!(scores.len(), 600);
    drop(rt);
}

/// This process's threads as `(tid, name)`; the kernel keeps 15 bytes
/// of a name, so every helper reads `willump-helper-`.
fn threads() -> Vec<(String, String)> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| {
            let task = task.ok()?;
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            let tid = task.file_name().to_string_lossy().into_owned();
            Some((tid, name.trim_end().to_string()))
        })
        .collect()
}

/// Fails if a thread of a kind the helper pool replaced is listed: an
/// executor's own pool or a batch's scoped helpers.
fn no_pool_or_batch_threads() {
    let threads = threads();
    assert!(
        !threads
            .iter()
            .any(|(_, name)| name.starts_with("willump-pool") || name.starts_with("willump-batch")),
        "{threads:?}"
    );
}

/// The tids of the helper pool, once exactly `n` helpers are listed (a
/// new thread names itself only once it runs).
fn helper_tids(n: usize) -> BTreeSet<String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        no_pool_or_batch_threads();
        let threads = threads();
        let helpers: BTreeSet<String> = threads
            .iter()
            .filter(|(_, name)| name.starts_with("willump-helper"))
            .map(|(tid, _)| tid.clone())
            .collect();
        if helpers.len() == n {
            return helpers;
        }
        assert!(Instant::now() < deadline, "not {n} helpers: {threads:?}");
        std::thread::yield_now();
    }
}

/// The helpers outlive the splits that start them: 100 large batches of
/// a row-local plan and then 100 music top-K queries run on the same
/// `max(1, cores − 1)` helper threads, and neither an executor's own
/// pool nor a batch's scoped helpers ever shows up. Building per-input
/// executors starts no thread.
#[test]
fn every_split_runs_on_the_same_lasting_helpers() {
    let (exec, small, full) = fitted();
    let per_input: Vec<Executor> = (0..10)
        .map(|_| exec.clone().with_parallelism(Parallelism::PerInput(4)))
        .collect();
    no_pool_or_batch_threads();
    drop(per_input);

    let pool = cores().saturating_sub(1).max(1);
    let mut first: Option<BTreeSet<String>> = None;
    let mut census = |split: bool| {
        if split {
            let now = helper_tids(pool);
            assert_eq!(first.get_or_insert_with(|| now.clone()), &now);
        } else {
            no_pool_or_batch_threads();
        }
    };
    let plan = ServingPlan::cascade(exec, small, full, 0.9, vec![0]).unwrap();
    let (t, _) = rows(20_000);
    for _ in 0..100 {
        let out = plan.run_batch(&t).unwrap();
        census(threads_started(&out.report) > 0);
    }
    let (w, music) = music_top_k();
    for _ in 0..100 {
        let (_, report) = music.top_k(&w.test, 20).expect("top-K query");
        census(threads_started(&report) > 0);
    }
    // On one core nothing splits by the rule.
    assert_eq!(first.is_some(), cores() > 1);
}
