//! Linear and logistic regression trained with averaged SGD.
//!
//! These cover the "Linear" model rows of paper Table 1 (Product and
//! Toxic use logistic regression over TF-IDF features). Training
//! iterates sparse or dense rows directly, so wide text features stay
//! cheap.

use serde::{Deserialize, Serialize};
use willump_data::FeatureMatrix;

use crate::ModelError;

/// Hyperparameters for [`LogisticRegression`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticParams {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Initial learning rate (decays as `lr / (1 + t * decay)`).
    pub learning_rate: f64,
    /// Learning-rate decay constant.
    pub decay: f64,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for LogisticParams {
    fn default() -> Self {
        LogisticParams {
            epochs: 30,
            learning_rate: 0.5,
            decay: 0.01,
            l2: 1e-6,
        }
    }
}

/// Hyperparameters for [`LinearRegression`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearParams {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Initial learning rate (decays as `lr / (1 + t * decay)`).
    pub learning_rate: f64,
    /// Learning-rate decay constant.
    pub decay: f64,
    /// L2 regularization strength.
    pub l2: f64,
}

impl Default for LinearParams {
    fn default() -> Self {
        LinearParams {
            epochs: 40,
            learning_rate: 0.05,
            decay: 0.01,
            l2: 1e-6,
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

fn validate(x: &FeatureMatrix, y: &[f64]) -> Result<(), ModelError> {
    if x.n_rows() == 0 {
        return Err(ModelError::EmptyTrainingSet);
    }
    if x.n_rows() != y.len() {
        return Err(ModelError::ShapeMismatch {
            context: format!("{} feature rows vs {} labels", x.n_rows(), y.len()),
        });
    }
    Ok(())
}

/// Shuffled row order per epoch, derived deterministically from a seed
/// with a splitmix64-style mixer (keeps this module independent of the
/// `rand` crate's API churn).
fn epoch_order(n: usize, seed: u64, epoch: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Binary logistic regression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Fit on features `x` and 0/1 labels `y`.
    ///
    /// # Errors
    /// Returns [`ModelError`] on shape mismatches, empty data, or
    /// labels outside {0, 1}.
    pub fn fit(
        x: &FeatureMatrix,
        y: &[f64],
        params: &LogisticParams,
        seed: u64,
    ) -> Result<LogisticRegression, ModelError> {
        validate(x, y)?;
        if y.iter().any(|v| *v != 0.0 && *v != 1.0) {
            return Err(ModelError::BadLabels {
                reason: "logistic regression expects labels in {0, 1}".into(),
            });
        }
        let d = x.n_cols();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut t = 0.0f64;
        for epoch in 0..params.epochs {
            for &i in &epoch_order(x.n_rows(), seed, epoch) {
                let lr = params.learning_rate / (1.0 + t * params.decay);
                t += 1.0;
                let z = x.row_dot(i, &w) + b;
                let err = sigmoid(z) - y[i];
                x.for_each_entry(i, |c, v| w[c] -= lr * (err * v + params.l2 * w[c]));
                b -= lr * err;
            }
        }
        Ok(LogisticRegression {
            weights: w,
            bias: b,
        })
    }

    /// Fitted weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Probability of the positive class for every row of `x`.
    pub fn predict_proba(&self, x: &FeatureMatrix) -> Vec<f64> {
        (0..x.n_rows())
            .map(|r| sigmoid(x.row_dot(r, &self.weights) + self.bias))
            .collect()
    }

    /// Probability of the positive class for one sparse/dense row.
    pub fn predict_proba_row(&self, entries: &[(usize, f64)]) -> f64 {
        let z: f64 = entries
            .iter()
            .map(|(c, v)| self.weights[*c] * v)
            .sum::<f64>()
            + self.bias;
        sigmoid(z)
    }
}

/// Ordinary least squares fit by averaged SGD.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearRegression {
    /// Fit on features `x` and real-valued targets `y`.
    ///
    /// # Errors
    /// Returns [`ModelError`] on shape mismatches or empty data.
    pub fn fit(
        x: &FeatureMatrix,
        y: &[f64],
        params: &LinearParams,
        seed: u64,
    ) -> Result<LinearRegression, ModelError> {
        validate(x, y)?;
        let d = x.n_cols();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut t = 0.0f64;
        for epoch in 0..params.epochs {
            for &i in &epoch_order(x.n_rows(), seed, epoch) {
                let lr = params.learning_rate / (1.0 + t * params.decay);
                t += 1.0;
                let err = x.row_dot(i, &w) + b - y[i];
                x.for_each_entry(i, |c, v| w[c] -= lr * (err * v + params.l2 * w[c]));
                b -= lr * err;
            }
        }
        Ok(LinearRegression {
            weights: w,
            bias: b,
        })
    }

    /// Fitted weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Predicted value for every row of `x`.
    pub fn predict(&self, x: &FeatureMatrix) -> Vec<f64> {
        (0..x.n_rows())
            .map(|r| x.row_dot(r, &self.weights) + self.bias)
            .collect()
    }

    /// Predicted value for one sparse/dense row.
    pub fn predict_row(&self, entries: &[(usize, f64)]) -> f64 {
        entries
            .iter()
            .map(|(c, v)| self.weights[*c] * v)
            .sum::<f64>()
            + self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use willump_data::{Matrix, SparseMatrix};

    fn separable() -> (FeatureMatrix, Vec<f64>) {
        // y = 1 iff x0 > x1.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let a = (i % 10) as f64 / 10.0;
            let b = ((i * 7) % 10) as f64 / 10.0;
            rows.push(vec![a, b]);
            y.push(if a > b { 1.0 } else { 0.0 });
        }
        (FeatureMatrix::Dense(Matrix::from_rows(&rows)), y)
    }

    #[test]
    fn logistic_learns_separable_data() {
        let (x, y) = separable();
        let m = LogisticRegression::fit(&x, &y, &LogisticParams::default(), 1).unwrap();
        let p = m.predict_proba(&x);
        let acc = p
            .iter()
            .zip(&y)
            .filter(|(pi, yi)| (**pi > 0.5) == (**yi > 0.5))
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn logistic_rejects_bad_labels() {
        let x = FeatureMatrix::Dense(Matrix::from_rows(&[vec![1.0]]));
        assert!(matches!(
            LogisticRegression::fit(&x, &[0.5], &LogisticParams::default(), 0),
            Err(ModelError::BadLabels { .. })
        ));
    }

    #[test]
    fn shape_errors() {
        let x = FeatureMatrix::Dense(Matrix::from_rows(&[vec![1.0]]));
        assert!(matches!(
            LogisticRegression::fit(&x, &[1.0, 0.0], &LogisticParams::default(), 0),
            Err(ModelError::ShapeMismatch { .. })
        ));
        let empty = FeatureMatrix::Dense(Matrix::zeros(0, 2));
        assert!(matches!(
            LinearRegression::fit(&empty, &[], &LinearParams::default(), 0),
            Err(ModelError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn linear_recovers_coefficients() {
        // y = 2*x0 - 3*x1 + 1
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            let a = (i as f64) / 25.0 - 1.0;
            let b = ((i * 13 % 50) as f64) / 25.0 - 1.0;
            rows.push(vec![a, b]);
            y.push(2.0 * a - 3.0 * b + 1.0);
        }
        let x = FeatureMatrix::Dense(Matrix::from_rows(&rows));
        let m = LinearRegression::fit(
            &x,
            &y,
            &LinearParams {
                epochs: 200,
                learning_rate: 0.1,
                decay: 0.001,
                l2: 0.0,
            },
            3,
        )
        .unwrap();
        assert!((m.weights()[0] - 2.0).abs() < 0.05, "{:?}", m.weights());
        assert!((m.weights()[1] + 3.0).abs() < 0.05);
        assert!((m.bias() - 1.0).abs() < 0.05);
    }

    #[test]
    fn sparse_and_dense_agree() {
        let (x, y) = separable();
        let dense = LogisticRegression::fit(&x, &y, &LogisticParams::default(), 7).unwrap();
        let sparse_x = FeatureMatrix::Sparse(SparseMatrix::from_dense(&x.to_dense()));
        let sparse = LogisticRegression::fit(&sparse_x, &y, &LogisticParams::default(), 7).unwrap();
        for (a, b) in dense.weights().iter().zip(sparse.weights()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn row_prediction_matches_batch() {
        let (x, y) = separable();
        let m = LogisticRegression::fit(&x, &y, &LogisticParams::default(), 5).unwrap();
        let batch = m.predict_proba(&x);
        for (r, b) in batch.iter().enumerate() {
            let one = m.predict_proba_row(&x.row_entries(r));
            assert!((b - one).abs() < 1e-12);
        }
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (x, y) = separable();
        let a = LogisticRegression::fit(&x, &y, &LogisticParams::default(), 9).unwrap();
        let b = LogisticRegression::fit(&x, &y, &LogisticParams::default(), 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
