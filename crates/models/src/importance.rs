//! Prediction-importance estimators (paper §4.2, "Computing IFV
//! Statistics").
//!
//! Willump needs a per-feature importance for every model family:
//!
//! - **linear models**: |coefficient| scaled by the feature's average
//!   magnitude,
//! - **ensembles (GBDT)**: permutation importance — the increase in
//!   prediction error when one feature's values are shuffled,
//! - **models with no native metric (MLP)**: train a proxy GBDT on the
//!   same data and use its importances.
//!
//! Group (IFV-level) importance is the sum over the IFV's features.

use willump_data::FeatureMatrix;

use crate::gbdt::{Gbdt, GbdtObjective, GbdtParams};
use crate::metrics;
use crate::spec::{Task, TrainedModel};
use crate::ModelError;

/// splitmix64 mixer for deterministic permutation shuffles.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Linear-model importance: `|coef_j| * mean(|x_j|)`.
///
/// # Panics
/// Panics if `coefs.len() != x.n_cols()`.
pub fn linear_importances(coefs: &[f64], x: &FeatureMatrix) -> Vec<f64> {
    assert_eq!(coefs.len(), x.n_cols(), "coefficient width mismatch");
    let mean_abs = match x {
        FeatureMatrix::Dense(m) => m.column_mean_abs(),
        FeatureMatrix::Sparse(m) => m.column_mean_abs(),
    };
    coefs
        .iter()
        .zip(&mean_abs)
        .map(|(c, m)| c.abs() * m)
        .collect()
}

/// Permutation importance of every feature: the drop in quality
/// (accuracy for classification, negative MSE for regression) when
/// that feature's column is shuffled while others are left unchanged.
///
/// Negative drops are clamped to zero — shuffling a useless feature
/// can improve error by chance, but "negative importance" has no
/// meaning for cascade selection.
pub fn permutation_importances(
    model: &TrainedModel,
    x: &FeatureMatrix,
    y: &[f64],
    seed: u64,
) -> Vec<f64> {
    let dense = x.dense_view();
    let n = dense.n_rows();
    let base_scores = model.predict_scores(x);
    let base_quality = quality(model.task(), &base_scores, y);
    let mut out = Vec::with_capacity(dense.n_cols());
    let mut state = seed ^ 0xABCD_EF01_2345_6789;
    for f in 0..dense.n_cols() {
        // Deterministic shuffle of column f.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (mix(&mut state) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let mut shuffled = dense.as_ref().clone();
        for (r, &src) in perm.iter().enumerate() {
            let v = dense.get(src, f);
            shuffled.set(r, f, v);
        }
        let scores = model.predict_scores(&FeatureMatrix::Dense(shuffled));
        let q = quality(model.task(), &scores, y);
        out.push((base_quality - q).max(0.0));
    }
    out
}

fn quality(task: Task, scores: &[f64], y: &[f64]) -> f64 {
    match task {
        Task::BinaryClassification => metrics::accuracy(scores, y),
        Task::Regression => -metrics::mse(scores, y),
    }
}

/// Row cap for the GBDT proxy's training sample.
const PROXY_MAX_ROWS: usize = 1_000;
/// Feature cap for the GBDT proxy (top columns by mass).
const PROXY_MAX_FEATURES: usize = 256;

/// GBDT-proxy importances for models with no native metric (the
/// paper's fallback for neural nets): train a GBDT on `(x, y)` and
/// return its gain importances.
///
/// Proxy training is bounded — at most `PROXY_MAX_ROWS` (1 000) rows
/// and the `PROXY_MAX_FEATURES` (256) columns with the largest mass
/// (other columns report zero importance). Feature selection by proxy
/// is routinely done on subsamples; unbounded proxy training on a
/// wide TF-IDF matrix would cost more than the model being optimized.
///
/// # Errors
/// Propagates GBDT training errors.
pub fn gbdt_proxy_importances(
    x: &FeatureMatrix,
    y: &[f64],
    task: Task,
) -> Result<Vec<f64>, ModelError> {
    let n_rows = x.n_rows().min(PROXY_MAX_ROWS);
    let n_cols = x.n_cols();

    // Column mass over the sampled rows; densify only the selected
    // columns.
    let mut mass = vec![0.0f64; n_cols];
    for r in 0..n_rows {
        x.for_each_entry(r, |c, v| mass[c] += v.abs());
    }
    let mut order: Vec<usize> = (0..n_cols).collect();
    order.sort_unstable_by(|&a, &b| {
        mass[b]
            .partial_cmp(&mass[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let selected: Vec<usize> = order
        .into_iter()
        .take(PROXY_MAX_FEATURES)
        .filter(|&c| mass[c] > 0.0)
        .collect();
    let mut col_to_slot = vec![usize::MAX; n_cols];
    for (slot, &c) in selected.iter().enumerate() {
        col_to_slot[c] = slot;
    }
    let mut sub = willump_data::Matrix::zeros(n_rows, selected.len().max(1));
    for r in 0..n_rows {
        let row = sub.row_mut(r);
        x.for_each_entry(r, |c, v| {
            let slot = col_to_slot[c];
            if slot != usize::MAX {
                row[slot] = v;
            }
        });
    }

    let params = GbdtParams {
        n_trees: 30,
        ..GbdtParams::default()
    };
    let objective = match task {
        Task::BinaryClassification => GbdtObjective::Logistic,
        Task::Regression => GbdtObjective::Squared,
    };
    let gbdt = Gbdt::fit(&FeatureMatrix::Dense(sub), &y[..n_rows], objective, &params)?;
    let proxy_imp = gbdt.feature_importances();
    let mut out = vec![0.0; n_cols];
    for (slot, &c) in selected.iter().enumerate() {
        out[c] = proxy_imp[slot];
    }
    Ok(out)
}

/// Importance of a feature *group* (an IFV): the sum of its features'
/// importances (paper §4.2: "The prediction importance of an IFV is
/// the sum of the prediction importances of its features").
///
/// # Panics
/// Panics if any index is out of bounds.
pub fn group_importance(per_feature: &[f64], group: &[usize]) -> f64 {
    group.iter().map(|&i| per_feature[i]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{LogisticParams, LogisticRegression};
    use crate::spec::ModelSpec;
    use willump_data::Matrix;

    /// Feature 0 decides the label; feature 1 is noise.
    fn signal_noise() -> (FeatureMatrix, Vec<f64>) {
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
        (FeatureMatrix::Dense(Matrix::from_rows(&rows)), y)
    }

    #[test]
    fn linear_importance_scales_by_magnitude() {
        // Same coefficient, different feature scales.
        let x = FeatureMatrix::Dense(Matrix::from_rows(&[vec![1.0, 100.0], vec![2.0, 200.0]]));
        let imp = linear_importances(&[1.0, 1.0], &x);
        assert!(imp[1] > imp[0] * 50.0);
    }

    #[test]
    fn permutation_importance_finds_the_signal() {
        let (x, y) = signal_noise();
        let model = ModelSpec::GbdtClassifier(GbdtParams::default())
            .fit(&x, &y, 0)
            .unwrap();
        let imp = permutation_importances(&model, &x, &y, 7);
        assert!(imp[0] > 0.3, "signal importance {imp:?}");
        assert!(imp[1] < 0.05, "noise importance {imp:?}");
    }

    #[test]
    fn permutation_importance_regression() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let a = i as f64 / 100.0;
            rows.push(vec![a, 0.5]);
            y.push(3.0 * a);
        }
        let x = FeatureMatrix::Dense(Matrix::from_rows(&rows));
        let model = ModelSpec::GbdtRegressor(GbdtParams::default())
            .fit(&x, &y, 0)
            .unwrap();
        let imp = permutation_importances(&model, &x, &y, 3);
        assert!(imp[0] > imp[1]);
        assert!(imp[1] >= 0.0);
    }

    #[test]
    fn gbdt_proxy_matches_signal() {
        let (x, y) = signal_noise();
        let imp = gbdt_proxy_importances(&x, &y, Task::BinaryClassification).unwrap();
        assert!(imp[0] > 0.9, "{imp:?}");
    }

    #[test]
    fn gbdt_proxy_bounds_wide_matrices() {
        // 600 columns, signal in column 500: the proxy must stay
        // bounded yet still surface the signal (column 500 carries
        // the most mass, so selection keeps it).
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..120 {
            let mut r = vec![0.0; 600];
            let signal = (i % 2) as f64;
            r[500] = signal * 2.0 + 0.1;
            r[i % 400] = 0.01; // scattered low-mass noise
            rows.push(r);
            y.push(signal);
        }
        let x = FeatureMatrix::Dense(Matrix::from_rows(&rows));
        let imp = gbdt_proxy_importances(&x, &y, Task::BinaryClassification).unwrap();
        assert_eq!(imp.len(), 600);
        assert!(imp[500] > 0.9, "signal col importance {}", imp[500]);
        // Unselected columns report exactly zero.
        let nonzero = imp.iter().filter(|v| **v > 0.0).count();
        assert!(nonzero <= PROXY_MAX_FEATURES, "nonzero {nonzero}");
    }

    #[test]
    fn group_importance_sums() {
        let per = [0.1, 0.2, 0.3];
        assert!((group_importance(&per, &[0, 2]) - 0.4).abs() < 1e-12);
        assert_eq!(group_importance(&per, &[]), 0.0);
    }

    #[test]
    fn logistic_coefficients_feed_linear_importance() {
        let (x, y) = signal_noise();
        let m = LogisticRegression::fit(&x, &y, &LogisticParams::default(), 0).unwrap();
        let coefs: Vec<f64> = m.weights().to_vec();
        let imp = linear_importances(&coefs, &x);
        assert!(imp[0] > imp[1]);
    }
}
