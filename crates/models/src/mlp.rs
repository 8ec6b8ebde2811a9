//! A small single-hidden-layer neural network.
//!
//! The Price benchmark's model (paper Table 1: "NN") is a compact MLP
//! over sparse TF-IDF + one-hot features; this implementation keeps
//! the first-layer forward and backward passes proportional to the
//! nonzeros of the input row.

use serde::{Deserialize, Serialize};
use willump_data::FeatureMatrix;

use crate::ModelError;

/// Hyperparameters for [`Mlp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpParams {
    /// Hidden layer width.
    pub hidden: usize,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Train a sigmoid output for classification (`true`) or a linear
    /// output for regression (`false`).
    pub classification: bool,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams {
            hidden: 32,
            epochs: 20,
            learning_rate: 0.05,
            l2: 1e-6,
            classification: false,
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

/// splitmix64 PRNG for weight init and row shuffling.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A 1-hidden-layer MLP with ReLU activations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    /// `w1[h]` is the input→hidden weight row for hidden unit `h`.
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    w2: Vec<f64>,
    b2: f64,
    classification: bool,
}

impl Mlp {
    /// Fit the network with plain SGD.
    ///
    /// # Errors
    /// Returns [`ModelError`] on empty/mismatched data or, in
    /// classification mode, labels outside {0, 1}.
    pub fn fit(
        x: &FeatureMatrix,
        y: &[f64],
        params: &MlpParams,
        seed: u64,
    ) -> Result<Mlp, ModelError> {
        if x.n_rows() == 0 {
            return Err(ModelError::EmptyTrainingSet);
        }
        if x.n_rows() != y.len() {
            return Err(ModelError::ShapeMismatch {
                context: format!("{} feature rows vs {} labels", x.n_rows(), y.len()),
            });
        }
        if params.classification && y.iter().any(|v| *v != 0.0 && *v != 1.0) {
            return Err(ModelError::BadLabels {
                reason: "classification MLP expects labels in {0, 1}".into(),
            });
        }
        let d = x.n_cols();
        let h = params.hidden.max(1);
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        let scale = (2.0 / (d.max(1) as f64)).sqrt();
        let mut w1: Vec<Vec<f64>> = (0..h)
            .map(|_| {
                (0..d)
                    .map(|_| (uniform(&mut state) - 0.5) * 2.0 * scale)
                    .collect()
            })
            .collect();
        let mut b1 = vec![0.0; h];
        let w2_scale = (2.0 / h as f64).sqrt();
        let mut w2: Vec<f64> = (0..h)
            .map(|_| (uniform(&mut state) - 0.5) * 2.0 * w2_scale)
            .collect();
        let mut b2 = if params.classification {
            0.0
        } else {
            y.iter().sum::<f64>() / y.len() as f64
        };

        let n = x.n_rows();
        let mut hidden = vec![0.0; h];
        let mut act = vec![0.0; h];
        // The current row's entries, read from `x` once per row and
        // reused across rows.
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for epoch in 0..params.epochs {
            // Deterministic per-epoch row order.
            let mut order: Vec<usize> = (0..n).collect();
            let mut st = seed ^ (epoch as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            for i in (1..n).rev() {
                let j = (mix(&mut st) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let lr = params.learning_rate / (1.0 + epoch as f64 * 0.1);
            for &i in &order {
                entries.clear();
                x.for_each_entry(i, |c, v| entries.push((c, v)));
                for k in 0..h {
                    let mut z = b1[k];
                    let wrow = &w1[k];
                    for (c, v) in &entries {
                        z += wrow[*c] * v;
                    }
                    hidden[k] = z;
                    act[k] = z.max(0.0);
                }
                let out = act.iter().zip(&w2).map(|(a, w)| a * w).sum::<f64>() + b2;
                let pred = if params.classification {
                    sigmoid(out)
                } else {
                    out
                };
                // dL/dout is (pred - y) for both squared loss and
                // logistic loss with sigmoid output.
                let delta = pred - y[i];
                for k in 0..h {
                    let grad_w2 = delta * act[k];
                    let grad_hidden = if hidden[k] > 0.0 { delta * w2[k] } else { 0.0 };
                    w2[k] -= lr * (grad_w2 + params.l2 * w2[k]);
                    if grad_hidden != 0.0 {
                        let wrow = &mut w1[k];
                        for (c, v) in &entries {
                            wrow[*c] -= lr * (grad_hidden * v + params.l2 * wrow[*c]);
                        }
                        b1[k] -= lr * grad_hidden;
                    }
                }
                b2 -= lr * delta;
            }
        }
        Ok(Mlp {
            w1,
            b1,
            w2,
            b2,
            classification: params.classification,
        })
    }

    /// Whether the output is a probability.
    pub fn is_classifier(&self) -> bool {
        self.classification
    }

    /// Hidden layer width.
    pub fn hidden_width(&self) -> usize {
        self.w2.len()
    }

    /// Score one row given sparse `(column, value)` entries.
    pub fn predict_row(&self, entries: &[(usize, f64)]) -> f64 {
        let mut out = self.b2;
        for (k, wrow) in self.w1.iter().enumerate() {
            let mut z = self.b1[k];
            for (c, v) in entries {
                z += wrow[*c] * v;
            }
            if z > 0.0 {
                out += z * self.w2[k];
            }
        }
        if self.classification {
            sigmoid(out)
        } else {
            out
        }
    }

    /// Score every row of `x`.
    pub fn predict(&self, x: &FeatureMatrix) -> Vec<f64> {
        (0..x.n_rows())
            .map(|r| self.predict_row(&x.row_entries(r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use willump_data::{Matrix, SparseMatrix};

    #[test]
    fn regressor_learns_nonlinear_function() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let a = i as f64 / 300.0;
            rows.push(vec![a, 1.0 - a]);
            y.push((a - 0.5).abs()); // V shape: not linear
        }
        let x = FeatureMatrix::Dense(Matrix::from_rows(&rows));
        let m = Mlp::fit(
            &x,
            &y,
            &MlpParams {
                hidden: 16,
                epochs: 80,
                learning_rate: 0.1,
                ..MlpParams::default()
            },
            11,
        )
        .unwrap();
        let pred = m.predict(&x);
        let mse = pred
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.004, "mse {mse}");
    }

    #[test]
    fn classifier_outputs_probabilities() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i % 20) as f64 / 20.0;
            rows.push(vec![a]);
            y.push(if a > 0.5 { 1.0 } else { 0.0 });
        }
        let x = FeatureMatrix::Dense(Matrix::from_rows(&rows));
        let m = Mlp::fit(
            &x,
            &y,
            &MlpParams {
                classification: true,
                epochs: 60,
                learning_rate: 0.2,
                ..MlpParams::default()
            },
            5,
        )
        .unwrap();
        let p = m.predict(&x);
        assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
        let acc = p
            .iter()
            .zip(&y)
            .filter(|(pi, yi)| (**pi > 0.5) == (**yi > 0.5))
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.9, "acc {acc}");
    }

    #[test]
    fn sparse_input_supported() {
        let dense = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let x = FeatureMatrix::Sparse(SparseMatrix::from_dense(&dense));
        let m = Mlp::fit(&x, &[0.0, 1.0], &MlpParams::default(), 1).unwrap();
        let p = m.predict(&x);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn validation_errors() {
        let x = FeatureMatrix::Dense(Matrix::zeros(0, 1));
        assert!(Mlp::fit(&x, &[], &MlpParams::default(), 0).is_err());
        let x = FeatureMatrix::Dense(Matrix::zeros(2, 1));
        assert!(Mlp::fit(&x, &[1.0], &MlpParams::default(), 0).is_err());
        assert!(Mlp::fit(
            &x,
            &[0.5, 0.5],
            &MlpParams {
                classification: true,
                ..MlpParams::default()
            },
            0
        )
        .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let x = FeatureMatrix::Dense(Matrix::from_rows(&[vec![0.2], vec![0.8]]));
        let y = [0.0, 1.0];
        let a = Mlp::fit(&x, &y, &MlpParams::default(), 99).unwrap();
        let b = Mlp::fit(&x, &y, &MlpParams::default(), 99).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn row_matches_batch() {
        let x = FeatureMatrix::Dense(Matrix::from_rows(&[vec![0.3, 0.7], vec![0.9, 0.1]]));
        let m = Mlp::fit(&x, &[0.0, 1.0], &MlpParams::default(), 2).unwrap();
        let batch = m.predict(&x);
        for (r, b) in batch.iter().enumerate() {
            assert!((m.predict_row(&x.row_entries(r)) - b).abs() < 1e-12);
        }
    }
}
