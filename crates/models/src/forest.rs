//! Random forests: bagged CART trees with feature subsampling.
//!
//! Paper §4.2 names random forests alongside GBDTs as the ensemble
//! families whose prediction importances Willump estimates by
//! permutation. This implementation reuses the histogram tree builder
//! with bootstrap resampling and per-tree feature masks.

use serde::{Deserialize, Serialize};
use willump_data::{FeatureMatrix, Matrix};

use crate::ensemble::TreeEnsemble;
use crate::tree::{BinMapper, DecisionTree, TreeParams};
use crate::ModelError;

/// Objective of a [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForestObjective {
    /// Binary classification; scores are vote-averaged probabilities.
    Classification,
    /// Regression; scores are leaf-value averages.
    Regression,
}

/// Hyperparameters for [`RandomForest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Fraction of features considered per tree (`0 < f <= 1`).
    pub feature_fraction: f64,
    /// Base-learner parameters.
    pub tree: TreeParams,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 40,
            feature_fraction: 0.7,
            tree: TreeParams {
                max_depth: 8,
                min_samples_leaf: 3,
                // A whisper of regularization keeps empty-bootstrap
                // leaves at value 0 instead of 0/0.
                lambda: 1e-6,
                min_gain: 1e-9,
            },
        }
    }
}

/// splitmix64 mixer for bootstrap sampling and feature masks.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bagged ensemble of CART trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    objective: ForestObjective,
    ensemble: TreeEnsemble,
}

impl RandomForest {
    /// Fit a forest with bootstrap rows and per-tree feature masks.
    ///
    /// # Errors
    /// Returns [`ModelError`] on empty/mismatched data, labels outside
    /// {0, 1} for classification, or invalid `feature_fraction`.
    pub fn fit(
        x: &FeatureMatrix,
        y: &[f64],
        objective: ForestObjective,
        params: &ForestParams,
        seed: u64,
    ) -> Result<RandomForest, ModelError> {
        if x.n_rows() == 0 {
            return Err(ModelError::EmptyTrainingSet);
        }
        if x.n_rows() != y.len() {
            return Err(ModelError::ShapeMismatch {
                context: format!("{} feature rows vs {} labels", x.n_rows(), y.len()),
            });
        }
        if objective == ForestObjective::Classification && y.iter().any(|v| *v != 0.0 && *v != 1.0)
        {
            return Err(ModelError::BadLabels {
                reason: "classification forest expects labels in {0, 1}".into(),
            });
        }
        if !(0.0..=1.0).contains(&params.feature_fraction) || params.feature_fraction == 0.0 {
            return Err(ModelError::BadLabels {
                reason: format!(
                    "feature_fraction {} must be in (0, 1]",
                    params.feature_fraction
                ),
            });
        }
        let dense = x.dense_view();
        let n = dense.n_rows();
        let d = dense.n_cols();
        let mapper = BinMapper::fit(&dense);
        let bins = mapper.bin_matrix(&dense);
        let keep = ((d as f64 * params.feature_fraction).ceil() as usize).clamp(1, d);

        let mut state = seed ^ 0xF0E1_D2C3_B4A5_9687;
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut boot_grad = vec![0.0; n];
        let mut boot_hess = vec![0.0; n];
        for _ in 0..params.n_trees {
            // Bootstrap: weight rows by their draw count; squared loss
            // against raw labels makes leaves bagged means.
            boot_grad.fill(0.0);
            boot_hess.fill(0.0);
            for _ in 0..n {
                let r = (mix(&mut state) % n as u64) as usize;
                boot_grad[r] -= y[r];
                boot_hess[r] += 1.0;
            }
            // Feature mask: trees only see a random subset; masked
            // features get zero hessian gain by zeroing their bins is
            // not possible, so we emulate the mask by duplicating the
            // binned buffer with masked columns collapsed to bin 0.
            let mut masked_bins = bins.clone();
            if keep < d {
                let mut allowed = vec![false; d];
                let mut chosen = 0;
                while chosen < keep {
                    let f = (mix(&mut state) % d as u64) as usize;
                    if !allowed[f] {
                        allowed[f] = true;
                        chosen += 1;
                    }
                }
                for (i, b) in masked_bins.iter_mut().enumerate() {
                    if !allowed[i % d] {
                        *b = 0;
                    }
                }
            }
            // Rows with zero hessian (not drawn) contribute nothing.
            let tree = DecisionTree::fit_gradients(
                &masked_bins,
                &mapper,
                &boot_grad,
                &boot_hess,
                &params.tree,
            )?;
            trees.push(tree);
        }
        Ok(RandomForest::from_trees(objective, &trees, d))
    }

    /// Assemble a forest from trained trees: a row's score is the mean
    /// of the trees' leaf values.
    ///
    /// # Panics
    /// Panics if a tree splits on a feature at or past `n_features`.
    pub fn from_trees(
        objective: ForestObjective,
        trees: &[DecisionTree],
        n_features: usize,
    ) -> RandomForest {
        RandomForest {
            objective,
            ensemble: TreeEnsemble::from_trees(trees, n_features),
        }
    }

    /// The forest objective.
    pub fn objective(&self) -> ForestObjective {
        self.objective
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.ensemble.n_trees()
    }

    /// The score of a row whose leaf values sum to `leaf_sum`: the
    /// mean over trees, clamped to [0, 1] for classification.
    fn score(&self, leaf_sum: f64) -> f64 {
        let mean = leaf_sum / self.n_trees().max(1) as f64;
        match self.objective {
            ForestObjective::Classification => mean.clamp(0.0, 1.0),
            ForestObjective::Regression => mean,
        }
    }

    /// Score one dense row.
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

    /// Gain-based feature importances, normalized to sum to 1.
    pub fn feature_importances(&self) -> Vec<f64> {
        self.ensemble.feature_importances()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (FeatureMatrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..400 {
            let a = (i % 20) as f64 / 20.0;
            let b = ((i / 2 * 13) % 50) as f64 / 50.0; // pair-constant noise
            rows.push(vec![a, b]);
            y.push(if a > 0.5 { 1.0 } else { 0.0 });
        }
        (FeatureMatrix::Dense(Matrix::from_rows(&rows)), y)
    }

    #[test]
    fn classifies_step_function() {
        let (x, y) = step_data();
        let f = RandomForest::fit(
            &x,
            &y,
            ForestObjective::Classification,
            &ForestParams::default(),
            7,
        )
        .unwrap();
        let p = f.predict(&x);
        let acc = p
            .iter()
            .zip(&y)
            .filter(|(pi, yi)| (**pi > 0.5) == (**yi > 0.5))
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
        assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn regression_tracks_targets() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let a = i as f64 / 300.0;
            rows.push(vec![a]);
            y.push(2.0 * a + 1.0);
        }
        let x = FeatureMatrix::Dense(Matrix::from_rows(&rows));
        let f = RandomForest::fit(
            &x,
            &y,
            ForestObjective::Regression,
            &ForestParams::default(),
            3,
        )
        .unwrap();
        let pred = f.predict(&x);
        let mse = pred
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.05, "mse {mse}");
    }

    #[test]
    fn importances_favor_signal() {
        let (x, y) = step_data();
        let f = RandomForest::fit(
            &x,
            &y,
            ForestObjective::Classification,
            &ForestParams::default(),
            1,
        )
        .unwrap();
        let imp = f.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.8, "{imp:?}");
    }

    #[test]
    fn validation() {
        let (x, y) = step_data();
        assert!(RandomForest::fit(
            &x,
            &y,
            ForestObjective::Classification,
            &ForestParams {
                feature_fraction: 0.0,
                ..ForestParams::default()
            },
            0,
        )
        .is_err());
        let empty = FeatureMatrix::Dense(Matrix::zeros(0, 1));
        assert!(RandomForest::fit(
            &empty,
            &[],
            ForestObjective::Regression,
            &ForestParams::default(),
            0
        )
        .is_err());
        assert!(RandomForest::fit(
            &x,
            &vec![0.5; x.n_rows()],
            ForestObjective::Classification,
            &ForestParams::default(),
            0
        )
        .is_err());
    }

    #[test]
    fn deterministic_per_seed_and_varied_across_seeds() {
        let (x, y) = step_data();
        let a = RandomForest::fit(
            &x,
            &y,
            ForestObjective::Classification,
            &ForestParams::default(),
            9,
        )
        .unwrap();
        let b = RandomForest::fit(
            &x,
            &y,
            ForestObjective::Classification,
            &ForestParams::default(),
            9,
        )
        .unwrap();
        assert_eq!(a, b);
        let c = RandomForest::fit(
            &x,
            &y,
            ForestObjective::Classification,
            &ForestParams::default(),
            10,
        )
        .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn single_row_matches_batch() {
        let (x, y) = step_data();
        let f = RandomForest::fit(
            &x,
            &y,
            ForestObjective::Classification,
            &ForestParams::default(),
            2,
        )
        .unwrap();
        let batch = f.predict(&x);
        let dense = x.to_dense();
        for r in (0..dense.n_rows()).step_by(57) {
            assert!((f.predict_row(dense.row(r)) - batch[r]).abs() < 1e-12);
        }
    }
}
