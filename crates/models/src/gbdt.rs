//! Gradient-boosted decision trees for classification and regression.
//!
//! The "GBDT" model of paper Table 1 (Music, Credit, Tracking). Trees
//! are fit to first/second-order gradients of logistic loss
//! (classification) or squared loss (regression) over histogram-binned
//! features, with per-feature gain importances — the importances
//! Willump's cascade optimizer consumes for ensembles.

use serde::{Deserialize, Serialize};
use willump_data::{FeatureMatrix, Matrix};

use crate::ensemble::TreeEnsemble;
use crate::tree::{BinMapper, DecisionTree, TreeParams};
use crate::ModelError;

/// Objective of a [`Gbdt`] ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GbdtObjective {
    /// Binary classification with logistic loss; scores are
    /// probabilities.
    Logistic,
    /// Regression with squared loss; scores are raw predictions.
    Squared,
}

/// Hyperparameters for [`Gbdt`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtParams {
    /// Number of boosting rounds (trees).
    pub n_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Base-learner parameters.
    pub tree: TreeParams,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_trees: 50,
            learning_rate: 0.1,
            tree: TreeParams::default(),
        }
    }
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// A trained gradient-boosted tree ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gbdt {
    objective: GbdtObjective,
    base_score: f64,
    learning_rate: f64,
    ensemble: TreeEnsemble,
}

impl Gbdt {
    /// Fit an ensemble.
    ///
    /// Sparse inputs are densified: GBDTs in the benchmarks run on
    /// narrow tabular features, so this mirrors how the original
    /// pipelines call LightGBM.
    ///
    /// # Errors
    /// Returns [`ModelError`] on empty/mismatched data or, for the
    /// logistic objective, labels outside {0, 1}.
    pub fn fit(
        x: &FeatureMatrix,
        y: &[f64],
        objective: GbdtObjective,
        params: &GbdtParams,
    ) -> Result<Gbdt, ModelError> {
        if x.n_rows() == 0 {
            return Err(ModelError::EmptyTrainingSet);
        }
        if x.n_rows() != y.len() {
            return Err(ModelError::ShapeMismatch {
                context: format!("{} feature rows vs {} labels", x.n_rows(), y.len()),
            });
        }
        if objective == GbdtObjective::Logistic && y.iter().any(|v| *v != 0.0 && *v != 1.0) {
            return Err(ModelError::BadLabels {
                reason: "logistic GBDT expects labels in {0, 1}".into(),
            });
        }
        let dense = x.dense_view();
        let mapper = BinMapper::fit(&dense);
        let bins = mapper.bin_matrix(&dense);
        let n = y.len();

        let base_score = match objective {
            GbdtObjective::Logistic => {
                let p = (y.iter().sum::<f64>() / n as f64).clamp(1e-6, 1.0 - 1e-6);
                (p / (1.0 - p)).ln()
            }
            GbdtObjective::Squared => y.iter().sum::<f64>() / n as f64,
        };

        let mut raw = vec![base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        for _ in 0..params.n_trees {
            match objective {
                GbdtObjective::Logistic => {
                    for i in 0..n {
                        let p = sigmoid(raw[i]);
                        grad[i] = p - y[i];
                        hess[i] = (p * (1.0 - p)).max(1e-9);
                    }
                }
                GbdtObjective::Squared => {
                    for i in 0..n {
                        grad[i] = raw[i] - y[i];
                        hess[i] = 1.0;
                    }
                }
            }
            let tree = DecisionTree::fit_gradients(&bins, &mapper, &grad, &hess, &params.tree)?;
            for (i, r) in raw.iter_mut().enumerate() {
                *r += params.learning_rate * tree.predict_row(dense.row(i));
            }
            trees.push(tree);
        }
        Ok(Gbdt::from_trees(
            objective,
            base_score,
            params.learning_rate,
            &trees,
            dense.n_cols(),
        ))
    }

    /// Assemble an ensemble from trained trees: a row's margin is
    /// `base_score + learning_rate * (sum of the trees' leaf values)`.
    ///
    /// # Panics
    /// Panics if a tree splits on a feature at or past `n_features`.
    pub fn from_trees(
        objective: GbdtObjective,
        base_score: f64,
        learning_rate: f64,
        trees: &[DecisionTree],
        n_features: usize,
    ) -> Gbdt {
        Gbdt {
            objective,
            base_score,
            learning_rate,
            ensemble: TreeEnsemble::from_trees(trees, n_features),
        }
    }

    /// The ensemble objective.
    pub fn objective(&self) -> GbdtObjective {
        self.objective
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.ensemble.n_trees()
    }

    /// Number of input features expected.
    pub fn n_features(&self) -> usize {
        self.ensemble.n_features()
    }

    /// The margin of a row whose leaf values sum to `leaf_sum`.
    fn margin(&self, leaf_sum: f64) -> f64 {
        self.base_score + self.learning_rate * leaf_sum
    }

    /// The score of a row whose leaf values sum to `leaf_sum`.
    fn score(&self, leaf_sum: f64) -> f64 {
        let raw = self.margin(leaf_sum);
        match self.objective {
            GbdtObjective::Logistic => sigmoid(raw),
            GbdtObjective::Squared => raw,
        }
    }

    /// Raw (margin) prediction for one dense row.
    pub fn predict_raw_row(&self, row: &[f64]) -> f64 {
        self.margin(self.ensemble.sum_row(row))
    }

    /// Score one dense row: probability (logistic) or value (squared).
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.score(self.ensemble.sum_row(row))
    }

    /// Score every row of `x`; a dense `x` is read in place.
    pub fn predict(&self, x: &FeatureMatrix) -> Vec<f64> {
        self.predict_dense(&x.dense_view())
    }

    /// Score every row of a dense matrix without conversion.
    pub fn predict_dense(&self, x: &Matrix) -> Vec<f64> {
        let mut scores = vec![0.0; x.n_rows()];
        self.predict_dense_into(x, 0, &mut scores);
        scores
    }

    /// Score rows `first..first + out.len()` of a dense matrix into
    /// `out`, reading them in place; each score is the one
    /// [`Self::predict_dense`] gives the row.
    pub fn predict_dense_into(&self, x: &Matrix, first: usize, out: &mut [f64]) {
        self.ensemble.sum_rows_into(x, first, out);
        for s in out {
            *s = self.score(*s);
        }
    }

    /// Total split gain per feature, normalized to sum to 1 (zero
    /// vector when the ensemble never split).
    pub fn feature_importances(&self) -> Vec<f64> {
        self.ensemble.feature_importances()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_like() -> (FeatureMatrix, Vec<f64>) {
        // Nonlinear target: y = 1 iff (x0 > 0.5) xor (x1 > 0.5).
        // Linear models fail here; trees should not.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..400 {
            let a = (i % 20) as f64 / 20.0;
            let b = (i / 20) as f64 / 20.0;
            rows.push(vec![a, b]);
            y.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
        }
        (FeatureMatrix::Dense(Matrix::from_rows(&rows)), y)
    }

    #[test]
    fn classifier_learns_xor() {
        let (x, y) = xor_like();
        let m = Gbdt::fit(&x, &y, GbdtObjective::Logistic, &GbdtParams::default()).unwrap();
        let p = m.predict(&x);
        let acc = p
            .iter()
            .zip(&y)
            .filter(|(pi, yi)| (**pi > 0.5) == (**yi > 0.5))
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn regressor_fits_smooth_function() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let a = i as f64 / 300.0;
            rows.push(vec![a]);
            y.push((a * 6.0).sin());
        }
        let x = FeatureMatrix::Dense(Matrix::from_rows(&rows));
        let m = Gbdt::fit(
            &x,
            &y,
            GbdtObjective::Squared,
            &GbdtParams {
                n_trees: 100,
                learning_rate: 0.2,
                tree: TreeParams {
                    max_depth: 4,
                    min_samples_leaf: 5,
                    ..TreeParams::default()
                },
            },
        )
        .unwrap();
        let pred = m.predict(&x);
        let mse: f64 = pred
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn probabilities_are_in_unit_interval() {
        let (x, y) = xor_like();
        let m = Gbdt::fit(&x, &y, GbdtObjective::Logistic, &GbdtParams::default()).unwrap();
        for p in m.predict(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn importances_sum_to_one_and_favor_signal() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let signal = (i % 2) as f64;
            // Noise is constant across each (label 0, label 1) pair, so
            // it carries no information about the label.
            let noise = ((i / 2 * 37) % 100) as f64 / 100.0;
            rows.push(vec![signal, noise]);
            y.push(signal);
        }
        let x = FeatureMatrix::Dense(Matrix::from_rows(&rows));
        let m = Gbdt::fit(&x, &y, GbdtObjective::Logistic, &GbdtParams::default()).unwrap();
        let imp = m.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.9, "importances {imp:?}");
    }

    #[test]
    fn label_validation() {
        let x = FeatureMatrix::Dense(Matrix::from_rows(&[vec![1.0], vec![2.0]]));
        assert!(matches!(
            Gbdt::fit(
                &x,
                &[0.3, 0.7],
                GbdtObjective::Logistic,
                &GbdtParams::default()
            ),
            Err(ModelError::BadLabels { .. })
        ));
        // Same labels are fine for regression.
        assert!(Gbdt::fit(
            &x,
            &[0.3, 0.7],
            GbdtObjective::Squared,
            &GbdtParams::default()
        )
        .is_ok());
    }

    #[test]
    fn empty_and_mismatched_inputs() {
        let x = FeatureMatrix::Dense(Matrix::zeros(0, 1));
        assert!(matches!(
            Gbdt::fit(&x, &[], GbdtObjective::Squared, &GbdtParams::default()),
            Err(ModelError::EmptyTrainingSet)
        ));
        let x = FeatureMatrix::Dense(Matrix::zeros(2, 1));
        assert!(Gbdt::fit(&x, &[1.0], GbdtObjective::Squared, &GbdtParams::default()).is_err());
    }

    #[test]
    fn single_row_matches_batch() {
        let (x, y) = xor_like();
        let m = Gbdt::fit(&x, &y, GbdtObjective::Logistic, &GbdtParams::default()).unwrap();
        let batch = m.predict(&x);
        let dense = x.to_dense();
        for r in (0..dense.n_rows()).step_by(37) {
            assert!((m.predict_row(dense.row(r)) - batch[r]).abs() < 1e-12);
        }
    }

    #[test]
    fn base_score_handles_all_one_class() {
        let x = FeatureMatrix::Dense(Matrix::from_rows(&vec![vec![1.0]; 20]));
        let y = vec![1.0; 20];
        let m = Gbdt::fit(&x, &y, GbdtObjective::Logistic, &GbdtParams::default()).unwrap();
        assert!(m.predict_row(&[1.0]) > 0.99);
    }
}
