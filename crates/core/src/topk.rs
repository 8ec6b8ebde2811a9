//! Automatic top-K filter models (paper §4.3).
//!
//! For top-K queries only the relative ranking of the K top-scoring
//! inputs matters. The filter model — constructed exactly like a
//! cascade's small model — scores the whole batch cheaply, keeps a
//! subset of [`crate::TopKConfig::subset_size`] top candidates, and
//! only those are scored by the full model (reusing the
//! already-computed efficient features). The returned ranking is the
//! full model's ordering of the surviving candidates.
//!
//! The filter is a [`crate::ServingPlan`] lowered by
//! [`crate::ServingPlan::top_k_filter`] (`compute_features(efficient)`
//! → `predict(small)` → `topk_filter` → `escalate` → `predict(full)`);
//! this module keeps the exact baseline it is measured against.

use willump_data::Table;
use willump_graph::Executor;
use willump_models::{metrics, TrainedModel};

use crate::WillumpError;

/// Exact top-K baseline: full model over the whole batch.
///
/// # Errors
/// Propagates feature-computation failures.
pub fn exact_top_k(
    exec: &Executor,
    full: &TrainedModel,
    table: &Table,
    k: usize,
) -> Result<Vec<usize>, WillumpError> {
    let feats = exec.features_batch(table, None)?;
    let scores = full.predict_scores(&feats);
    Ok(metrics::top_k_indices(&scores, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopKConfig;
    use crate::plan::ServingPlan;
    use std::sync::Arc;
    use willump_data::Column;
    use willump_graph::{EngineMode, GraphBuilder, Operator};
    use willump_models::{LinearParams, ModelSpec};

    /// Regression pipeline with two numeric FGs; the true score is
    /// dominated by FG0 (so the filter works) with a correction from
    /// FG1 (so the full model reranks).
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
        let mut y = Vec::new();
        for i in 0..500 {
            let a = ((i * 37) % 500) as f64 / 500.0;
            let b = ((i * 91) % 100) as f64 / 100.0;
            avals.push(a);
            bvals.push(b);
            y.push(2.0 * a + 0.3 * b);
        }
        let mut t = Table::new();
        t.add_column("a", Column::from(avals)).unwrap();
        t.add_column("b", Column::from(bvals)).unwrap();
        (exec, t, y)
    }

    fn models(exec: &Executor, t: &Table, y: &[f64]) -> (Arc<TrainedModel>, Arc<TrainedModel>) {
        let params = LinearParams {
            epochs: 120,
            learning_rate: 0.1,
            decay: 0.001,
            l2: 0.0,
        };
        let full_feats = exec.features_batch(t, None).unwrap();
        let full = ModelSpec::Linear(params.clone())
            .fit(&full_feats, y, 1)
            .unwrap();
        let eff_feats = exec.features_batch(t, Some(&[0])).unwrap();
        let filter = ModelSpec::Linear(params).fit(&eff_feats, y, 1).unwrap();
        (Arc::new(filter), Arc::new(full))
    }

    #[test]
    fn filtered_topk_is_accurate() {
        let (exec, t, y) = setup();
        let (filter, full) = models(&exec, &t, &y);
        let f = ServingPlan::top_k_filter(
            exec.clone(),
            filter,
            full.clone(),
            1,
            TopKConfig::default(),
            vec![0],
        )
        .unwrap();
        let k = 20;
        let (approx, report) = f.top_k(&t, k).unwrap();
        let exact = exact_top_k(&exec, &full, &t, k).unwrap();
        assert_eq!(approx.len(), k);
        assert_eq!(report.filter_batch, Some(500));
        assert_eq!(report.filter_kept, Some(200));
        let precision = metrics::precision_at_k(&approx, &exact);
        assert!(precision >= 0.9, "precision {precision}");
        // Average value of the approximate top-K should be close to
        // the exact top-K's.
        let approx_value = metrics::average_value(&approx, &y);
        let exact_value = metrics::average_value(&exact, &y);
        assert!(
            (exact_value - approx_value) / exact_value < 0.02,
            "{approx_value} vs {exact_value}"
        );
    }

    #[test]
    fn tiny_subset_hurts_accuracy() {
        let (exec, t, y) = setup();
        let (filter, full) = models(&exec, &t, &y);
        let generous = ServingPlan::top_k_filter(
            exec.clone(),
            filter.clone(),
            full.clone(),
            1,
            TopKConfig {
                ck: 10,
                min_subset_frac: 0.05,
            },
            vec![0],
        )
        .unwrap();
        let mut stingy = generous.clone();
        stingy.set_topk_config(TopKConfig {
            ck: 1,
            min_subset_frac: 0.0,
        });
        let exact = exact_top_k(&exec, &full, &t, 20).unwrap();
        let (gen_k, _) = generous.top_k(&t, 20).unwrap();
        let (sting_k, sting_report) = stingy.top_k(&t, 20).unwrap();
        assert_eq!(sting_report.filter_kept, Some(20));
        let p_gen = metrics::precision_at_k(&gen_k, &exact);
        let p_sting = metrics::precision_at_k(&sting_k, &exact);
        assert!(p_gen >= p_sting, "{p_gen} vs {p_sting}");
    }

    #[test]
    fn k_zero_rejected() {
        let (exec, t, y) = setup();
        let (filter, full) = models(&exec, &t, &y);
        let f = ServingPlan::top_k_filter(exec, filter, full, 1, TopKConfig::default(), vec![0])
            .unwrap();
        assert!(f.top_k(&t, 0).is_err());
    }

    #[test]
    fn bad_subsets_rejected() {
        let (exec, t, y) = setup();
        let (filter, full) = models(&exec, &t, &y);
        assert!(ServingPlan::top_k_filter(
            exec.clone(),
            filter.clone(),
            full.clone(),
            1,
            TopKConfig::default(),
            vec![]
        )
        .is_err());
        assert!(ServingPlan::top_k_filter(
            exec,
            filter,
            full,
            1,
            TopKConfig::default(),
            vec![0, 1]
        )
        .is_err());
        let _ = t;
    }

    #[test]
    fn k_larger_than_batch() {
        let (exec, t, y) = setup();
        let (filter, full) = models(&exec, &t, &y);
        let f = ServingPlan::top_k_filter(exec, filter, full, 1, TopKConfig::default(), vec![0])
            .unwrap();
        let small = t.take_rows(&(0..5).collect::<Vec<_>>());
        let (idx, _) = f.top_k(&small, 10).unwrap();
        assert_eq!(idx.len(), 5);
    }
}
