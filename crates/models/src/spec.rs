//! Uniform model specification and trained-model dispatch.
//!
//! Willump's cascade optimizer trains *two* models from the same spec
//! — a small model on the efficient feature subset and a full model on
//! everything (paper §4.2, "Training Models") — so specs must be
//! reusable across feature widths. [`ModelSpec::fit`] is that factory;
//! [`TrainedModel`] is the width-specific result.

use std::cell::Cell;

use serde::{Deserialize, Serialize};
use willump_data::FeatureMatrix;

use crate::forest::{ForestObjective, ForestParams, RandomForest};
use crate::gbdt::{Gbdt, GbdtObjective, GbdtParams};
use crate::linear::{LinearParams, LinearRegression, LogisticParams, LogisticRegression};
use crate::mlp::{Mlp, MlpParams};
use crate::ModelError;

/// The prediction task of a pipeline (paper Table 1's "Prediction
/// Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Task {
    /// Binary classification; scores are positive-class probabilities.
    BinaryClassification,
    /// Regression; scores are predicted values.
    Regression,
}

/// A trainable model family with hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Logistic regression (classification).
    Logistic(LogisticParams),
    /// Ordinary least squares (regression).
    Linear(LinearParams),
    /// GBDT with logistic loss (classification).
    GbdtClassifier(GbdtParams),
    /// GBDT with squared loss (regression).
    GbdtRegressor(GbdtParams),
    /// Random forest with vote averaging (classification).
    ForestClassifier(ForestParams),
    /// Random forest with leaf averaging (regression).
    ForestRegressor(ForestParams),
    /// MLP with sigmoid output (classification).
    MlpClassifier(MlpParams),
    /// MLP with linear output (regression).
    MlpRegressor(MlpParams),
}

impl ModelSpec {
    /// The task this spec trains for.
    pub fn task(&self) -> Task {
        match self {
            ModelSpec::Logistic(_)
            | ModelSpec::GbdtClassifier(_)
            | ModelSpec::ForestClassifier(_)
            | ModelSpec::MlpClassifier(_) => Task::BinaryClassification,
            ModelSpec::Linear(_)
            | ModelSpec::GbdtRegressor(_)
            | ModelSpec::ForestRegressor(_)
            | ModelSpec::MlpRegressor(_) => Task::Regression,
        }
    }

    /// Train on features `x` and labels `y`.
    ///
    /// # Errors
    /// Propagates the underlying model's validation errors.
    pub fn fit(&self, x: &FeatureMatrix, y: &[f64], seed: u64) -> Result<TrainedModel, ModelError> {
        Ok(match self {
            ModelSpec::Logistic(p) => {
                TrainedModel::Logistic(LogisticRegression::fit(x, y, p, seed)?)
            }
            ModelSpec::Linear(p) => TrainedModel::Linear(LinearRegression::fit(x, y, p, seed)?),
            ModelSpec::GbdtClassifier(p) => {
                TrainedModel::Gbdt(Gbdt::fit(x, y, GbdtObjective::Logistic, p)?)
            }
            ModelSpec::GbdtRegressor(p) => {
                TrainedModel::Gbdt(Gbdt::fit(x, y, GbdtObjective::Squared, p)?)
            }
            ModelSpec::ForestClassifier(p) => TrainedModel::Forest(RandomForest::fit(
                x,
                y,
                ForestObjective::Classification,
                p,
                seed,
            )?),
            ModelSpec::ForestRegressor(p) => TrainedModel::Forest(RandomForest::fit(
                x,
                y,
                ForestObjective::Regression,
                p,
                seed,
            )?),
            ModelSpec::MlpClassifier(p) => {
                let params = MlpParams {
                    classification: true,
                    ..p.clone()
                };
                TrainedModel::Mlp(Mlp::fit(x, y, &params, seed)?)
            }
            ModelSpec::MlpRegressor(p) => {
                let params = MlpParams {
                    classification: false,
                    ..p.clone()
                };
                TrainedModel::Mlp(Mlp::fit(x, y, &params, seed)?)
            }
        })
    }
}

/// A trained model of any supported family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrainedModel {
    /// Trained logistic regression.
    Logistic(LogisticRegression),
    /// Trained linear regression.
    Linear(LinearRegression),
    /// Trained GBDT (either objective).
    Gbdt(Gbdt),
    /// Trained random forest (either objective).
    Forest(RandomForest),
    /// Trained MLP (either output).
    Mlp(Mlp),
}

impl TrainedModel {
    /// The model's task.
    pub fn task(&self) -> Task {
        match self {
            TrainedModel::Logistic(_) => Task::BinaryClassification,
            TrainedModel::Linear(_) => Task::Regression,
            TrainedModel::Gbdt(g) => match g.objective() {
                GbdtObjective::Logistic => Task::BinaryClassification,
                GbdtObjective::Squared => Task::Regression,
            },
            TrainedModel::Forest(f) => match f.objective() {
                ForestObjective::Classification => Task::BinaryClassification,
                ForestObjective::Regression => Task::Regression,
            },
            TrainedModel::Mlp(m) => {
                if m.is_classifier() {
                    Task::BinaryClassification
                } else {
                    Task::Regression
                }
            }
        }
    }

    /// Score every row of `x`: positive-class probability for
    /// classification, predicted value for regression.
    pub fn predict_scores(&self, x: &FeatureMatrix) -> Vec<f64> {
        match self {
            TrainedModel::Logistic(m) => m.predict_proba(x),
            TrainedModel::Linear(m) => m.predict(x),
            TrainedModel::Gbdt(m) => m.predict(x),
            TrainedModel::Forest(m) => m.predict(x),
            TrainedModel::Mlp(m) => m.predict(x),
        }
    }

    /// Score one row given sparse `(column, value)` entries.
    ///
    /// Trees index features positionally, so for GBDTs and forests the
    /// entries are scattered into a per-thread dense row; a warmed-up
    /// thread scores without allocating.
    pub fn predict_score_row(&self, entries: &[(usize, f64)], n_cols: usize) -> f64 {
        match self {
            TrainedModel::Logistic(m) => m.predict_proba_row(entries),
            TrainedModel::Linear(m) => m.predict_row(entries),
            TrainedModel::Mlp(m) => m.predict_row(entries),
            TrainedModel::Gbdt(m) => with_dense_row(entries, n_cols, |row| m.predict_row(row)),
            TrainedModel::Forest(m) => with_dense_row(entries, n_cols, |row| m.predict_row(row)),
        }
    }

    /// Hard 0/1 predictions at threshold 0.5 (classification only).
    pub fn predict_classes(&self, x: &FeatureMatrix) -> Vec<f64> {
        self.predict_scores(x)
            .into_iter()
            .map(|p| if p > 0.5 { 1.0 } else { 0.0 })
            .collect()
    }

    /// Classification confidence per row: `max(p, 1 - p)`.
    ///
    /// This is the quantity compared against Willump's cascade
    /// threshold (paper §4.2, "Identifying the Cascade Threshold").
    pub fn confidences(&self, x: &FeatureMatrix) -> Vec<f64> {
        self.predict_scores(x)
            .into_iter()
            .map(|p| p.max(1.0 - p))
            .collect()
    }

    /// Native feature importances, if the family has them: |coef| for
    /// linear models (to be scaled by feature magnitude), normalized
    /// split gain for GBDTs. MLPs return `None` (the paper's GBDT
    /// proxy is implemented in [`crate::importance`]).
    pub fn native_importances(&self) -> Option<Vec<f64>> {
        match self {
            TrainedModel::Logistic(m) => Some(m.weights().iter().map(|w| w.abs()).collect()),
            TrainedModel::Linear(m) => Some(m.weights().iter().map(|w| w.abs()).collect()),
            TrainedModel::Gbdt(m) => Some(m.feature_importances()),
            TrainedModel::Forest(m) => Some(m.feature_importances()),
            TrainedModel::Mlp(_) => None,
        }
    }
}

thread_local! {
    /// An all-zero row, reused by [`with_dense_row`].
    static DENSE_ROW: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Call `f` on the dense row of width `n_cols` that holds `entries`.
///
/// The row is taken out of its thread-local for the call and zeroed
/// again through the entries just written, so the cost follows the
/// entries, not the width. A panic in between drops the taken row and
/// the next call starts from a fresh one.
fn with_dense_row<R>(entries: &[(usize, f64)], n_cols: usize, f: impl FnOnce(&[f64]) -> R) -> R {
    let mut buf = DENSE_ROW.take();
    if buf.len() < n_cols {
        buf.resize(n_cols, 0.0);
    }
    let row = &mut buf[..n_cols];
    for &(c, v) in entries {
        row[c] = v;
    }
    let out = f(row);
    for &(c, _) in entries {
        row[c] = 0.0;
    }
    DENSE_ROW.set(buf);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use willump_data::Matrix;

    fn tiny() -> (FeatureMatrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let a = (i % 10) as f64 / 10.0;
            rows.push(vec![a, 1.0 - a]);
            y.push(if a > 0.5 { 1.0 } else { 0.0 });
        }
        (FeatureMatrix::Dense(Matrix::from_rows(&rows)), y)
    }

    #[test]
    fn spec_tasks() {
        assert_eq!(
            ModelSpec::Logistic(LogisticParams::default()).task(),
            Task::BinaryClassification
        );
        assert_eq!(
            ModelSpec::GbdtRegressor(GbdtParams::default()).task(),
            Task::Regression
        );
        assert_eq!(
            ModelSpec::MlpClassifier(MlpParams::default()).task(),
            Task::BinaryClassification
        );
    }

    #[test]
    fn every_family_trains_and_scores() {
        let (x, y) = tiny();
        let values: Vec<f64> = (0..40).map(|i| i as f64 / 40.0).collect();
        let specs = [
            ModelSpec::Logistic(LogisticParams::default()),
            ModelSpec::GbdtClassifier(GbdtParams::default()),
            ModelSpec::MlpClassifier(MlpParams::default()),
        ];
        for spec in specs {
            let m = spec.fit(&x, &y, 1).unwrap();
            assert_eq!(m.task(), Task::BinaryClassification);
            let p = m.predict_scores(&x);
            assert_eq!(p.len(), 40);
            assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        let specs = [
            ModelSpec::Linear(LinearParams::default()),
            ModelSpec::GbdtRegressor(GbdtParams::default()),
            ModelSpec::MlpRegressor(MlpParams::default()),
        ];
        for spec in specs {
            let m = spec.fit(&x, &values, 1).unwrap();
            assert_eq!(m.task(), Task::Regression);
            assert_eq!(m.predict_scores(&x).len(), 40);
        }
    }

    #[test]
    fn confidence_is_distance_from_half() {
        let (x, y) = tiny();
        let m = ModelSpec::Logistic(LogisticParams::default())
            .fit(&x, &y, 3)
            .unwrap();
        let p = m.predict_scores(&x);
        let c = m.confidences(&x);
        for (pi, ci) in p.iter().zip(&c) {
            assert!((ci - pi.max(1.0 - pi)).abs() < 1e-12);
            assert!(*ci >= 0.5);
        }
    }

    #[test]
    fn row_scoring_matches_batch_for_gbdt() {
        let (x, y) = tiny();
        let m = ModelSpec::GbdtClassifier(GbdtParams::default())
            .fit(&x, &y, 1)
            .unwrap();
        let batch = m.predict_scores(&x);
        for (r, b) in batch.iter().enumerate() {
            let one = m.predict_score_row(&x.row_entries(r), x.n_cols());
            assert_eq!(one.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn native_importances_presence() {
        let (x, y) = tiny();
        let lg = ModelSpec::Logistic(LogisticParams::default())
            .fit(&x, &y, 1)
            .unwrap();
        assert!(lg.native_importances().is_some());
        let mlp = ModelSpec::MlpClassifier(MlpParams::default())
            .fit(&x, &y, 1)
            .unwrap();
        assert!(mlp.native_importances().is_none());
    }

    #[test]
    fn predict_classes_thresholds() {
        let (x, y) = tiny();
        let m = ModelSpec::Logistic(LogisticParams::default())
            .fit(&x, &y, 2)
            .unwrap();
        let cls = m.predict_classes(&x);
        assert!(cls.iter().all(|c| *c == 0.0 || *c == 1.0));
    }
}
