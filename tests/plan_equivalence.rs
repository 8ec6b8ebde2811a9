//! Plan-equivalence properties: a lowered `ServingPlan` must produce
//! outputs identical to the optimization it was lowered from, on
//! arbitrary generated batches.
//!
//! Each property checks the lowered plan run by the `PlanExecutor`
//! against an independently-coded *reference* of the paper semantics
//! (computed straight from the executor and models) or, for the
//! end-to-end cache, against the `E2eCachedPredictor` wrapper.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

use willump::cascade::THRESHOLD_CANDIDATES;
use willump::{ServingPlan, TopKConfig};
use willump_data::{Column, Table};
use willump_graph::{EngineMode, Executor, GraphBuilder, InputRow, TransformGraph};
use willump_models::{metrics, LinearParams, LogisticParams, ModelSpec, TrainedModel};
use willump_serve::E2eCachedPredictor;

/// Two numeric feature generators over sources `a` and `b`.
fn two_fg_graph() -> Arc<TransformGraph> {
    let mut b = GraphBuilder::new();
    let a = b.source("a");
    let c = b.source("b");
    let f0 = b
        .add("f0", willump_graph::Operator::NumericColumn, [a])
        .unwrap();
    let f1 = b
        .add("f1", willump_graph::Operator::NumericColumn, [c])
        .unwrap();
    Arc::new(b.finish_with_concat("cat", [f0, f1]).unwrap())
}

fn table_from_pairs(rows: &[(f64, f64)]) -> Table {
    let mut t = Table::new();
    t.add_column(
        "a",
        Column::from(rows.iter().map(|r| r.0).collect::<Vec<_>>()),
    )
    .unwrap();
    t.add_column(
        "b",
        Column::from(rows.iter().map(|r| r.1).collect::<Vec<_>>()),
    )
    .unwrap();
    t
}

struct Fixture {
    exec: Executor,
    /// Classification pair (cascades).
    small: Arc<TrainedModel>,
    full: Arc<TrainedModel>,
    /// Regression pair (top-K).
    filter: Arc<TrainedModel>,
    ranker: Arc<TrainedModel>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let exec = Executor::new(two_fg_graph(), EngineMode::Compiled).unwrap();
        // Classification data: FG0 signals easy rows, FG1 hard ones.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..300 {
            let y = (i % 2) as f64;
            if i % 3 != 0 {
                rows.push((if y > 0.5 { 3.0 } else { -3.0 }, 0.0));
            } else {
                rows.push((0.0, if y > 0.5 { 2.0 } else { -2.0 }));
            }
            labels.push(y);
        }
        let t = table_from_pairs(&rows);
        let full_feats = exec.features_batch(&t, None).unwrap();
        let eff_feats = exec.features_batch(&t, Some(&[0])).unwrap();
        let full = Arc::new(
            ModelSpec::Logistic(LogisticParams::default())
                .fit(&full_feats, &labels, 1)
                .unwrap(),
        );
        let small = Arc::new(
            ModelSpec::Logistic(LogisticParams::default())
                .fit(&eff_feats, &labels, 1)
                .unwrap(),
        );
        // Regression data: score dominated by FG0, corrected by FG1.
        let targets: Vec<f64> = rows.iter().map(|(a, b)| 2.0 * a + 0.3 * b).collect();
        let params = LinearParams {
            epochs: 120,
            learning_rate: 0.05,
            decay: 0.001,
            l2: 0.0,
        };
        let ranker = Arc::new(
            ModelSpec::Linear(params.clone())
                .fit(&full_feats, &targets, 1)
                .unwrap(),
        );
        let filter = Arc::new(
            ModelSpec::Linear(params)
                .fit(&eff_feats, &targets, 1)
                .unwrap(),
        );
        Fixture {
            exec,
            small,
            full,
            filter,
            ranker,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The lowered cascade plan matches an independent reference of
    /// the paper's cascade semantics, batch-wise and row-wise, on
    /// arbitrary batches and thresholds.
    #[test]
    fn cascade_plan_matches_reference(
        rows in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 1..40),
        t_idx in 0usize..THRESHOLD_CANDIDATES.len(),
    ) {
        let fx = fixture();
        let threshold = THRESHOLD_CANDIDATES[t_idx];
        let t = table_from_pairs(&rows);

        // Reference: small scores on efficient features, full scores
        // on the complete layout, per-row threshold arbitration.
        let eff = fx.exec.features_batch(&t, Some(&[0])).unwrap();
        let small_scores = fx.small.predict_scores(&eff);
        let full_feats = fx.exec.features_batch(&t, None).unwrap();
        let full_scores = fx.full.predict_scores(&full_feats);
        let reference: Vec<f64> = small_scores
            .iter()
            .zip(&full_scores)
            .map(|(&s, &f)| if s.max(1.0 - s) > threshold { s } else { f })
            .collect();

        let plan = ServingPlan::cascade(
            fx.exec.clone(),
            fx.small.clone(),
            fx.full.clone(),
            threshold,
            vec![0],
        )
        .unwrap();
        let out = plan.run_batch(&t).unwrap();
        prop_assert_eq!(out.scores.len(), reference.len());
        for (i, (p, r)) in out.scores.iter().zip(&reference).enumerate() {
            prop_assert!((p - r).abs() <= 1e-12, "row {}: plan {} vs reference {}", i, p, r);
        }
        let escalated_ref = reference
            .iter()
            .zip(&small_scores)
            .filter(|(_, &s)| s.max(1.0 - s) <= threshold)
            .count();
        prop_assert_eq!(out.report.escalated, escalated_ref);

        // The row path agrees with the batch path.
        for (r, &s) in small_scores.iter().enumerate().take(5) {
            let input = InputRow::from_table(&t, r).unwrap();
            let one = plan.run_one(&input).unwrap();
            prop_assert!((one.score - out.scores[r]).abs() <= 1e-9);
            prop_assert_eq!(one.escalated, s.max(1.0 - s) <= threshold);
        }
    }

    /// The lowered top-K plan returns exactly the indices the paper's
    /// filter semantics prescribe, and reports the subset it kept.
    #[test]
    fn topk_plan_matches_reference(
        rows in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 2..50),
        k in 1usize..8,
        ck in 1usize..5,
        frac_pct in 0usize..30,
    ) {
        let fx = fixture();
        let config = TopKConfig {
            ck,
            min_subset_frac: frac_pct as f64 / 100.0,
        };
        let t = table_from_pairs(&rows);
        let n = t.n_rows();

        // Reference: filter scores -> top subset -> full rerank.
        let eff = fx.exec.features_batch(&t, Some(&[0])).unwrap();
        let filter_scores = fx.filter.predict_scores(&eff);
        let by_ck = ck.saturating_mul(k);
        let by_frac = (config.min_subset_frac * n as f64).ceil() as usize;
        let subset_size = by_ck.max(by_frac).min(n);
        let candidates = metrics::top_k_indices(&filter_scores, subset_size);
        let sub = t.take_rows(&candidates);
        let sub_full = fx.exec.features_batch(&sub, None).unwrap();
        let sub_scores = fx.ranker.predict_scores(&sub_full);
        let reference: Vec<usize> = metrics::top_k_indices(&sub_scores, k.min(candidates.len()))
            .into_iter()
            .map(|j| candidates[j])
            .collect();

        let plan = ServingPlan::top_k_filter(
            fx.exec.clone(),
            fx.filter.clone(),
            fx.ranker.clone(),
            k,
            config,
            vec![0],
        )
        .unwrap();
        let (ranked, report) = plan.top_k(&t, k).unwrap();
        prop_assert_eq!(&ranked, &reference);
        prop_assert_eq!(report.filter_batch, Some(n));
        prop_assert_eq!(report.filter_kept, Some(subset_size));
    }

    /// A plan with composed cache stages behaves exactly like the
    /// legacy `E2eCachedPredictor` wrapped around the same plan: same
    /// scores, same hit/miss counts, on query streams with repeats.
    #[test]
    fn cached_plan_matches_legacy_cache_wrapper(
        queries in prop::collection::vec((0u8..5, 0u8..5), 1..60),
    ) {
        let fx = fixture();
        let base = ServingPlan::full_model_plan(fx.exec.clone(), fx.full.clone());
        let cached_plan = base
            .clone()
            .with_e2e_cache(vec!["a".to_string(), "b".to_string()], None)
            .unwrap();
        let inner = base.clone();
        let legacy = E2eCachedPredictor::new(
            move |input| inner.predict_one(input).map_err(|e| e.to_string()),
            vec!["a".to_string(), "b".to_string()],
            None,
        );
        for &(qa, qb) in &queries {
            let input = InputRow::new([
                ("a", willump_data::Value::Float(f64::from(qa))),
                ("b", willump_data::Value::Float(f64::from(qb))),
            ]);
            let from_plan = cached_plan.run_one(&input).unwrap();
            let from_legacy = legacy.predict_one(&input).unwrap();
            prop_assert!((from_plan.score - from_legacy).abs() <= 1e-12);
        }
        prop_assert_eq!(cached_plan.cache_hits(), legacy.hits());
        prop_assert_eq!(cached_plan.cache_misses(), legacy.misses());
    }
}

/// The optimizer's deployed serving plan is the plan the
/// `OptimizedPipeline` accessors expose, and its batch path equals the
/// `OptimizedPipeline` prediction path.
#[test]
fn optimizer_lowered_plan_matches_pipeline_path() {
    use willump::{QueryMode, Willump, WillumpConfig};
    use willump_workloads::{WorkloadConfig, WorkloadKind};

    let w = WorkloadKind::Product
        .generate(&WorkloadConfig::small())
        .expect("generates");
    let opt = Willump::new(WillumpConfig {
        cascade_gate: false,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");

    let plan = opt.serving_plan();
    let via_plan = plan.predict_batch(&w.test).expect("plan predicts");
    let via_pipeline = opt.predict_batch(&w.test).expect("pipeline predicts");
    assert_eq!(via_plan, via_pipeline);
    if opt.report().cascades_deployed {
        assert!(plan.threshold().is_some(), "cascade plan carries its gate");
        assert_eq!(plan.efficient_set(), opt.cascade().unwrap().efficient_set());
    }

    // Top-K mode lowers a filter plan.
    let opt = Willump::new(WillumpConfig {
        mode: QueryMode::TopK { k: 10 },
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");
    if opt.report().filter_deployed {
        let plan = opt.serving_plan();
        assert!(plan.topk_config().is_some());
        let (via_plan, _) = plan.top_k(&w.test, 10).expect("plan top-k");
        let (via_pipeline, _) = opt.top_k(&w.test, 10).expect("pipeline top-k");
        assert_eq!(via_plan, via_pipeline);
    }
}

/// At the benchmark's sizes and seeds the toxic cascade's efficient
/// set is its two cheap IFVs, string statistics and word TF-IDF, and
/// not the char n-gram TF-IDF, behind a 0.5 confidence gate. The
/// optimizer selects from costs it measures, so this pins the
/// selection while the text kernels' costs change.
#[test]
fn toxic_cascade_selects_string_stats_and_word_tfidf() {
    use willump::{QueryMode, Willump, WillumpConfig};
    use willump_workloads::{WorkloadConfig, WorkloadKind};

    for seed in [42, 7] {
        let w = WorkloadKind::Toxic
            .generate(&WorkloadConfig {
                n_train: 2_000,
                n_valid: 1_000,
                n_test: 2_000,
                seed,
                remote: None,
            })
            .expect("generates");
        let opt = Willump::new(WillumpConfig {
            mode: QueryMode::Batch,
            seed,
            ..WillumpConfig::default()
        })
        .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
        .expect("optimizes");
        let plan = opt.serving_plan();
        let exec = plan.executor();
        let generators = &exec.analysis().generators;
        let efficient: Vec<&str> = plan
            .efficient_set()
            .expect("a cascade plan")
            .iter()
            .map(|&g| exec.graph().node(generators[g].root).name.as_str())
            .collect();
        assert_eq!(
            efficient,
            ["comment_stats_scaled", "word_tfidf"],
            "seed {seed}"
        );
        assert_eq!(plan.threshold(), Some(0.5), "seed {seed}");
    }
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// A sweep through `cascade_mut()` / `filter_mut()` changes the plan
/// `serving_plan()` hands to a runtime endpoint, not only the one
/// `predict_batch` / `top_k` run.
#[test]
fn serving_plan_follows_sweeps_through_the_mutable_accessors() {
    use willump::{QueryMode, Willump, WillumpConfig};
    use willump_workloads::{WorkloadConfig, WorkloadKind};

    let w = WorkloadKind::Toxic
        .generate(&WorkloadConfig::small())
        .expect("generates");
    let mut opt = Willump::new(WillumpConfig {
        cascade_gate: false,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");
    opt.cascade_mut()
        .expect("gate off deploys a cascade")
        .set_threshold(1.01);
    let plan = opt.serving_plan();
    assert_eq!(plan.threshold(), Some(1.01));
    assert_eq!(
        bits(&plan.predict_batch(&w.test).expect("plan predicts")),
        bits(&opt.predict_batch(&w.test).expect("pipeline predicts"))
    );

    let mut opt = Willump::new(WillumpConfig {
        mode: QueryMode::TopK { k: 10 },
        cascade_gate: false,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");
    let config = TopKConfig {
        ck: 2,
        min_subset_frac: 0.0,
    };
    opt.filter_mut()
        .expect("top-K mode deploys a filter")
        .set_topk_config(config);
    let plan = opt.serving_plan();
    assert_eq!(plan.topk_config(), Some(config));
    let (via_plan, plan_report) = plan.top_k(&w.test, 10).expect("plan top-k");
    let (via_pipeline, pipeline_report) = opt.top_k(&w.test, 10).expect("pipeline top-k");
    assert_eq!(via_plan, via_pipeline);
    assert_eq!(
        plan_report.filter_kept,
        pipeline_report.expect("filter ran").filter_kept
    );
}
