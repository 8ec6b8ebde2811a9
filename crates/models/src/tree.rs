//! Histogram-based CART regression trees.
//!
//! The base learner for [`crate::Gbdt`]. Features are quantile-binned
//! once per training run (LightGBM-style — the library the paper's
//! Music/Credit/Tracking Kaggle entries used), so finding a split is a
//! linear scan over at most 64 bins per feature.

use serde::{Deserialize, Serialize};
use willump_data::Matrix;

use crate::ModelError;

/// Maximum number of histogram bins per feature.
pub const MAX_BINS: usize = 64;

/// Hyperparameters for a [`DecisionTree`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of rows in a leaf.
    pub min_samples_leaf: usize,
    /// L2 regularization on leaf values (XGBoost-style lambda).
    pub lambda: f64,
    /// Minimum gain for a split to be kept.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 5,
            min_samples_leaf: 10,
            lambda: 1.0,
            min_gain: 1e-6,
        }
    }
}

/// Per-feature quantile bin edges shared by all trees of an ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinMapper {
    /// `edges[f]` are ascending thresholds; bin b holds values in
    /// `(edges[b-1], edges[b]]`, with the last bin unbounded above.
    edges: Vec<Vec<f64>>,
}

impl BinMapper {
    /// Build quantile bin edges from training features.
    pub fn fit(x: &Matrix) -> BinMapper {
        let mut edges = Vec::with_capacity(x.n_cols());
        for f in 0..x.n_cols() {
            let mut vals = x.column(f);
            vals.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite features"));
            vals.dedup();
            let mut e = Vec::new();
            if vals.len() > 1 {
                let bins = vals.len().min(MAX_BINS);
                for b in 1..bins {
                    // The edge is the *largest value of the left group*,
                    // so `value <= edge` routes it left.
                    let idx = (b * vals.len() / bins).clamp(1, vals.len() - 1);
                    let edge = vals[idx - 1];
                    if e.last().is_none_or(|last| *last < edge) {
                        e.push(edge);
                    }
                }
            }
            edges.push(e);
        }
        BinMapper { edges }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.edges.len()
    }

    /// Number of bins for feature `f` (≥ 1).
    pub fn n_bins(&self, f: usize) -> usize {
        self.edges[f].len() + 1
    }

    /// Bin index of `value` for feature `f`.
    pub fn bin(&self, f: usize, value: f64) -> u8 {
        let e = &self.edges[f];
        // Values <= edges[i] fall in bin i; above all edges -> last bin.
        let idx = e.partition_point(|edge| *edge < value);
        idx as u8
    }

    /// The numeric threshold separating bin `b` from bin `b+1` of
    /// feature `f` (i.e. go left iff `value <= threshold`).
    pub fn threshold(&self, f: usize, b: u8) -> f64 {
        self.edges[f][b as usize]
    }

    /// Bin an entire matrix (row-major `u8` bins).
    pub fn bin_matrix(&self, x: &Matrix) -> Vec<u8> {
        let mut out = Vec::with_capacity(x.n_rows() * x.n_cols());
        for r in 0..x.n_rows() {
            for (f, v) in x.row(r).iter().enumerate() {
                out.push(self.bin(f, *v));
            }
        }
        out
    }
}

/// One node of a [`DecisionTree`]; children index the tree's own node
/// list.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Split {
        feature: u32,
        /// Go left iff `value <= threshold`.
        threshold: f64,
        left: u32,
        right: u32,
    },
    Leaf {
        value: f64,
    },
}

/// A regression tree fit to gradient/hessian targets.
///
/// This is the training-time form. A trained ensemble is stored and
/// scored as a [`crate::TreeEnsemble`]; [`DecisionTree::predict_row`]
/// is the definition that kernel is tested against.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    /// Total split gain credited to each feature (for importances).
    feature_gains: Vec<f64>,
}

struct BuildCtx<'a> {
    bins: &'a [u8],
    n_features: usize,
    mapper: &'a BinMapper,
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a TreeParams,
}

impl DecisionTree {
    /// Fit a tree minimizing the second-order objective on the given
    /// gradients and hessians (XGBoost-style), using pre-binned
    /// features.
    ///
    /// # Errors
    /// Returns [`ModelError::ShapeMismatch`] if `grad`/`hess` lengths
    /// disagree with the row count implied by `bins`.
    pub fn fit_gradients(
        bins: &[u8],
        mapper: &BinMapper,
        grad: &[f64],
        hess: &[f64],
        params: &TreeParams,
    ) -> Result<DecisionTree, ModelError> {
        let n_features = mapper.n_features();
        if n_features == 0 || !bins.len().is_multiple_of(n_features) {
            return Err(ModelError::ShapeMismatch {
                context: "binned buffer does not divide into feature rows".into(),
            });
        }
        let n_rows = bins.len() / n_features;
        if grad.len() != n_rows || hess.len() != n_rows {
            return Err(ModelError::ShapeMismatch {
                context: format!(
                    "{n_rows} binned rows vs {} gradients / {} hessians",
                    grad.len(),
                    hess.len()
                ),
            });
        }
        if n_rows == 0 {
            return Err(ModelError::EmptyTrainingSet);
        }
        let ctx = BuildCtx {
            bins,
            n_features,
            mapper,
            grad,
            hess,
            params,
        };
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            feature_gains: vec![0.0; n_features],
        };
        let rows: Vec<u32> = (0..n_rows as u32).collect();
        tree.build(&ctx, rows, 0);
        Ok(tree)
    }

    /// Recursively build the subtree over `rows`, returning its index.
    fn build(&mut self, ctx: &BuildCtx<'_>, rows: Vec<u32>, depth: usize) -> u32 {
        let (g_total, h_total) = rows.iter().fold((0.0, 0.0), |(g, h), &r| {
            (g + ctx.grad[r as usize], h + ctx.hess[r as usize])
        });
        let leaf_value = -g_total / (h_total + ctx.params.lambda);
        let make_leaf = |tree: &mut DecisionTree| {
            tree.nodes.push(Node::Leaf { value: leaf_value });
            (tree.nodes.len() - 1) as u32
        };
        if depth >= ctx.params.max_depth || rows.len() < 2 * ctx.params.min_samples_leaf {
            return make_leaf(self);
        }
        let parent_score = g_total * g_total / (h_total + ctx.params.lambda);
        let mut best: Option<(usize, u8, f64)> = None; // (feature, bin, gain)
        let mut hist_g = [0.0f64; MAX_BINS];
        let mut hist_h = [0.0f64; MAX_BINS];
        let mut hist_n = [0u32; MAX_BINS];
        for f in 0..ctx.n_features {
            let n_bins = ctx.mapper.n_bins(f);
            if n_bins < 2 {
                continue;
            }
            hist_g[..n_bins].fill(0.0);
            hist_h[..n_bins].fill(0.0);
            hist_n[..n_bins].fill(0);
            for &r in &rows {
                let b = ctx.bins[r as usize * ctx.n_features + f] as usize;
                hist_g[b] += ctx.grad[r as usize];
                hist_h[b] += ctx.hess[r as usize];
                hist_n[b] += 1;
            }
            let mut g_left = 0.0;
            let mut h_left = 0.0;
            let mut n_left = 0u32;
            for b in 0..n_bins - 1 {
                g_left += hist_g[b];
                h_left += hist_h[b];
                n_left += hist_n[b];
                let n_right = rows.len() as u32 - n_left;
                if (n_left as usize) < ctx.params.min_samples_leaf
                    || (n_right as usize) < ctx.params.min_samples_leaf
                {
                    continue;
                }
                let g_right = g_total - g_left;
                let h_right = h_total - h_left;
                let gain = g_left * g_left / (h_left + ctx.params.lambda)
                    + g_right * g_right / (h_right + ctx.params.lambda)
                    - parent_score;
                if gain > ctx.params.min_gain && best.is_none_or(|(_, _, bg)| gain > bg) {
                    best = Some((f, b as u8, gain));
                }
            }
        }
        let Some((feature, bin, gain)) = best else {
            return make_leaf(self);
        };
        self.feature_gains[feature] += gain;
        let threshold = ctx.mapper.threshold(feature, bin);
        let (left_rows, right_rows): (Vec<u32>, Vec<u32>) = rows
            .iter()
            .partition(|&&r| ctx.bins[r as usize * ctx.n_features + feature] <= bin);
        let node_idx = self.nodes.len() as u32;
        self.nodes.push(Node::Split {
            feature: feature as u32,
            threshold,
            left: 0,
            right: 0,
        });
        let left = self.build(ctx, left_rows, depth + 1);
        let right = self.build(ctx, right_rows, depth + 1);
        match &mut self.nodes[node_idx as usize] {
            Node::Split {
                left: l, right: r, ..
            } => {
                *l = left;
                *r = right;
            }
            Node::Leaf { .. } => unreachable!("just pushed a split"),
        }
        node_idx
    }

    /// Predict the leaf value for one dense feature row.
    ///
    /// # Panics
    /// Panics if `row` is narrower than the features the tree splits on.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes in the order they were built: a split precedes both
    /// of its subtrees, and node 0 is the root.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Total split gain credited to each feature.
    pub fn feature_gains(&self) -> &[f64] {
        &self.feature_gains
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Matrix, Vec<f64>) {
        // Target is a step function of feature 0; feature 1 is noise.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let x0 = i as f64 / 200.0;
            let x1 = ((i * 31) % 200) as f64 / 200.0;
            rows.push(vec![x0, x1]);
            y.push(if x0 > 0.5 { 2.0 } else { -1.0 });
        }
        (Matrix::from_rows(&rows), y)
    }

    fn fit_regression(x: &Matrix, y: &[f64], params: &TreeParams) -> (DecisionTree, BinMapper) {
        let mapper = BinMapper::fit(x);
        let bins = mapper.bin_matrix(x);
        // Squared loss: grad = pred - y with pred = 0, hess = 1.
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; y.len()];
        let tree = DecisionTree::fit_gradients(&bins, &mapper, &grad, &hess, params).unwrap();
        (tree, mapper)
    }

    #[test]
    fn bin_mapper_quantiles() {
        let x = Matrix::from_rows(&(0..100).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let m = BinMapper::fit(&x);
        assert_eq!(m.n_features(), 1);
        assert!(m.n_bins(0) <= MAX_BINS);
        assert!(m.n_bins(0) > 32);
        // Monotone binning.
        assert!(m.bin(0, 0.0) <= m.bin(0, 50.0));
        assert!(m.bin(0, 50.0) <= m.bin(0, 99.0));
    }

    #[test]
    fn constant_feature_gets_single_bin() {
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]);
        let m = BinMapper::fit(&x);
        assert_eq!(m.n_bins(0), 1);
    }

    #[test]
    fn learns_step_function() {
        let (x, y) = step_data();
        let (tree, _) = fit_regression(&x, &y, &TreeParams::default());
        // With lambda=1 predictions shrink slightly; check sign and rough level.
        let lo = tree.predict_row(&[0.1, 0.5]);
        let hi = tree.predict_row(&[0.9, 0.5]);
        assert!(lo < -0.8, "lo {lo}");
        assert!(hi > 1.7, "hi {hi}");
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let (x, y) = step_data();
        let (tree, _) = fit_regression(
            &x,
            &y,
            &TreeParams {
                max_depth: 0,
                ..TreeParams::default()
            },
        );
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (x, y) = step_data();
        let (tree, _) = fit_regression(
            &x,
            &y,
            &TreeParams {
                min_samples_leaf: 150,
                ..TreeParams::default()
            },
        );
        // 200 rows cannot split into two leaves of >= 150.
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn informative_feature_earns_the_gain() {
        let (x, y) = step_data();
        let (tree, _) = fit_regression(&x, &y, &TreeParams::default());
        let gains = tree.feature_gains();
        assert!(gains[0] > 0.0);
        assert!(gains[0] > gains[1] * 10.0, "gains {gains:?}");
    }

    #[test]
    fn shape_validation() {
        let mapper = BinMapper::fit(&Matrix::from_rows(&[vec![1.0], vec![2.0]]));
        let bins = vec![0u8, 1];
        assert!(DecisionTree::fit_gradients(
            &bins,
            &mapper,
            &[1.0],
            &[1.0, 1.0],
            &TreeParams::default()
        )
        .is_err());
    }
}
