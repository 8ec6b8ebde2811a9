//! Automatic end-to-end cascades (paper §4.2).
//!
//! A cascade serves with a *small* model over the efficient IFVs
//! first; if the small model's confidence exceeds the cascade
//! threshold the prediction is returned, otherwise the *inefficient*
//! features are computed, merged with the already-computed efficient
//! features, and the full model predicts (paper Figure 3 — escalation
//! never recomputes the efficient features, which is what cuts remote
//! requests in Table 2).
//!
//! This module chooses the cascade's parameters: the threshold
//! ([`select_threshold`]) and the small model's calibration
//! ([`ScoreCalibrator`]). Serving is a [`ServingPlan`] lowered by
//! [`ServingPlan::cascade`] (`compute_features(efficient)` →
//! `predict(small)` → `confidence_gate` → `escalate` →
//! `predict(full)`), run by [`crate::plan::PlanExecutor`].

use std::sync::Arc;

use willump_data::Table;
use willump_graph::Executor;
use willump_models::{metrics, IsotonicCalibrator, PlattScaler, TrainedModel};

use crate::config::Calibration;
use crate::plan::ServingPlan;
use crate::WillumpError;

/// A fitted small-model score calibrator (see
/// [`crate::Calibration`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreCalibrator {
    /// Fitted Platt scaler.
    Platt(PlattScaler),
    /// Fitted isotonic calibrator.
    Isotonic(IsotonicCalibrator),
}

impl ScoreCalibrator {
    /// Fit the requested calibration method on validation scores.
    /// Returns `None` for [`Calibration::None`] or when the fit is
    /// impossible (e.g. single-class validation labels for Platt) —
    /// cascades then fall back to raw scores.
    pub fn fit(method: Calibration, scores: &[f64], labels: &[f64]) -> Option<ScoreCalibrator> {
        match method {
            Calibration::None => None,
            Calibration::Platt => PlattScaler::fit(scores, labels)
                .ok()
                .map(ScoreCalibrator::Platt),
            Calibration::Isotonic => IsotonicCalibrator::fit(scores, labels)
                .ok()
                .map(ScoreCalibrator::Isotonic),
        }
    }

    /// Map a raw score to a calibrated probability.
    pub fn calibrate(&self, score: f64) -> f64 {
        match self {
            ScoreCalibrator::Platt(p) => p.calibrate(score),
            ScoreCalibrator::Isotonic(i) => i.calibrate(score),
        }
    }
}

/// Candidate cascade thresholds. The paper restricts thresholds to
/// integer multiples of 0.1 to avoid overfitting the validation set
/// (§4.2); we keep that grid but add two coarse candidates in the
/// (0.9, 1.0) gap. On validation sets orders of magnitude smaller than
/// the paper's Kaggle test sets, the top decile of confidence is where
/// well-calibrated small models sit, and jumping straight from 0.9 to
/// 1.0 (= never trust the small model) forfeits exactly the cascades
/// the paper reports. Confidence of a binary classifier is at least
/// 0.5, so candidates below 0.5 are vacuous.
pub const THRESHOLD_CANDIDATES: [f64; 8] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0];

/// Outcome of threshold selection on a validation set.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSelection {
    /// The chosen threshold.
    pub threshold: f64,
    /// Full-model validation accuracy.
    pub full_accuracy: f64,
    /// Cascade validation accuracy at the chosen threshold.
    pub cascade_accuracy: f64,
    /// Fraction of validation inputs the small model kept (confidence
    /// above threshold).
    pub kept_fraction: f64,
}

/// Pick the lowest candidate threshold whose cascade accuracy on the
/// validation set is within `accuracy_target` of the full model's
/// (paper §4.2, "Identifying the Cascade Threshold").
///
/// `small_scores`/`full_scores` are the two models' validation scores;
/// `labels` are the 0/1 ground truth.
///
/// # Errors
/// Returns [`WillumpError::BadData`] on length mismatches or empty
/// inputs.
pub fn select_threshold(
    small_scores: &[f64],
    full_scores: &[f64],
    labels: &[f64],
    accuracy_target: f64,
) -> Result<ThresholdSelection, WillumpError> {
    if small_scores.len() != labels.len() || full_scores.len() != labels.len() {
        return Err(WillumpError::BadData {
            reason: "validation scores and labels must align".into(),
        });
    }
    if labels.is_empty() {
        return Err(WillumpError::BadData {
            reason: "validation set is empty".into(),
        });
    }
    let full_accuracy = metrics::accuracy(full_scores, labels);
    for &tc in &THRESHOLD_CANDIDATES {
        let mut correct = 0usize;
        let mut kept = 0usize;
        for ((s, f), y) in small_scores.iter().zip(full_scores).zip(labels) {
            let confidence = s.max(1.0 - *s);
            let score = if confidence > tc {
                kept += 1;
                *s
            } else {
                *f
            };
            if (score > 0.5) == (*y > 0.5) {
                correct += 1;
            }
        }
        let cascade_accuracy = correct as f64 / labels.len() as f64;
        if cascade_accuracy >= full_accuracy - accuracy_target {
            return Ok(ThresholdSelection {
                threshold: tc,
                full_accuracy,
                cascade_accuracy,
                kept_fraction: kept as f64 / labels.len() as f64,
            });
        }
    }
    // tc = 1.0 always escalates everything, so this is unreachable for
    // valid inputs; keep a defensive fallback.
    Ok(ThresholdSelection {
        threshold: 1.0,
        full_accuracy,
        cascade_accuracy: full_accuracy,
        kept_fraction: 0.0,
    })
}

/// Train a cascade for an explicit efficient subset: fit the small
/// model on the subset's features, select the threshold on the
/// validation set, and lower the cascade around an already-trained
/// full model into a [`ServingPlan`].
///
/// [`crate::Willump::optimize`] uses Algorithm 1 to pick the subset;
/// this lower-level entry point lets experiments force one (the
/// paper's Table 8 strategy comparison and §6.4 γ-rule ablation).
///
/// # Errors
/// Propagates execution, training, and lowering failures.
#[allow(clippy::too_many_arguments)]
pub fn train_cascade_with_subset(
    exec: &Executor,
    spec: &willump_models::ModelSpec,
    full: Arc<TrainedModel>,
    train: &Table,
    train_labels: &[f64],
    valid: &Table,
    valid_labels: &[f64],
    efficient: Vec<usize>,
    accuracy_target: f64,
    seed: u64,
) -> Result<(ServingPlan, ThresholdSelection), WillumpError> {
    let eff_train = exec.features_batch(train, Some(&efficient))?;
    let small = Arc::new(spec.fit(&eff_train, train_labels, seed)?);
    let eff_valid = exec.features_batch(valid, Some(&efficient))?;
    let full_valid = exec.features_batch(valid, None)?;
    let selection = select_threshold(
        &small.predict_scores(&eff_valid),
        &full.predict_scores(&full_valid),
        valid_labels,
        accuracy_target,
    )?;
    let plan = ServingPlan::cascade(exec.clone(), small, full, selection.threshold, efficient)?;
    Ok((plan, selection))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use willump_data::Column;
    use willump_graph::{EngineMode, GraphBuilder, InputRow, Operator};
    use willump_models::{LogisticParams, ModelSpec};

    /// Two numeric FGs; FG0 alone classifies "easy" inputs (|a| large),
    /// FG1 needed for the hard ones.
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
        for i in 0..300 {
            let easy = i % 3 != 0;
            let y = (i % 2) as f64;
            if easy {
                // a strongly signals the label.
                avals.push(if y > 0.5 { 3.0 } else { -3.0 });
                bvals.push(0.0);
            } else {
                // a is uninformative; b carries the label.
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
    fn threshold_selection_meets_target() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let eff = exec.features_batch(&t, Some(&[0])).unwrap();
        let fullf = exec.features_batch(&t, None).unwrap();
        let sel = select_threshold(
            &small.predict_scores(&eff),
            &full.predict_scores(&fullf),
            &y,
            0.001,
        )
        .unwrap();
        assert!(sel.cascade_accuracy >= sel.full_accuracy - 0.001);
        assert!(sel.kept_fraction > 0.3, "kept {}", sel.kept_fraction);
        assert!(THRESHOLD_CANDIDATES.contains(&sel.threshold));
    }

    #[test]
    fn threshold_validation_errors() {
        assert!(select_threshold(&[0.5], &[0.5, 0.5], &[1.0], 0.1).is_err());
        assert!(select_threshold(&[], &[], &[], 0.1).is_err());
    }

    #[test]
    fn cascade_matches_full_model_accuracy() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let eff = exec.features_batch(&t, Some(&[0])).unwrap();
        let fullf = exec.features_batch(&t, None).unwrap();
        let sel = select_threshold(
            &small.predict_scores(&eff),
            &full.predict_scores(&fullf),
            &y,
            0.001,
        )
        .unwrap();
        let cascade =
            ServingPlan::cascade(exec.clone(), small, full.clone(), sel.threshold, vec![0])
                .unwrap();
        let out = cascade.run_batch(&t).unwrap();
        let cascade_acc = metrics::accuracy(&out.scores, &y);
        let full_acc = metrics::accuracy(&full.predict_scores(&fullf), &y);
        assert!(
            cascade_acc >= full_acc - 0.001,
            "{cascade_acc} vs {full_acc}"
        );
        assert!(out.report.gate_resolved > 0);
        assert!(out.report.escalated > 0);
    }

    #[test]
    fn single_input_matches_batch() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let cascade = ServingPlan::cascade(exec, small, full, 0.8, vec![0]).unwrap();
        let batch_scores = cascade.predict_batch(&t).unwrap();
        for r in (0..t.n_rows()).step_by(29) {
            let input = InputRow::from_table(&t, r).unwrap();
            let score = cascade.predict_one(&input).unwrap();
            assert!(
                (score - batch_scores[r]).abs() < 1e-9,
                "row {r}: {score} vs {}",
                batch_scores[r]
            );
        }
    }

    #[test]
    fn threshold_one_always_escalates() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        let cascade = ServingPlan::cascade(exec, small, full.clone(), 1.0, vec![0]).unwrap();
        let out = cascade.run_batch(&t).unwrap();
        assert_eq!(out.report.gate_resolved, 0);
        let fullf = cascade.executor().features_batch(&t, None).unwrap();
        let full_scores = full.predict_scores(&fullf);
        for (a, b) in out.scores.iter().zip(&full_scores) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_bad_configurations() {
        let (exec, t, y) = setup();
        let (small, full) = train(&exec, &t, &y);
        // Empty efficient set.
        assert!(
            ServingPlan::cascade(exec.clone(), small.clone(), full.clone(), 0.8, vec![]).is_err()
        );
        // Efficient set = everything.
        assert!(ServingPlan::cascade(exec, small, full, 0.8, vec![0, 1]).is_err());
    }
}
