//! The one representation a tree ensemble is stored, serialized and
//! scored in.
//!
//! [`crate::Gbdt`] and [`crate::RandomForest`] train
//! [`DecisionTree`]s and then keep only a [`TreeEnsemble`]: every tree
//! of the ensemble in one flat node array, each node carrying
//! `feature`, `threshold`, `left`, `right` and `value`. A split node
//! routes a row left iff `row[feature] <= threshold`; a leaf points
//! both children at itself (with a finite dummy threshold, so the
//! model survives JSON), which makes "take `max_depth` steps from the
//! root" land on the right leaf whatever the leaf's own depth. That is
//! what lets the scoring loop be free of data-dependent branches: a
//! step is two loads, a comparison and a select, never a `match` on
//! the node kind or an early exit.
//!
//! Rows are scored [`BLOCK`] at a time, tree by tree, so the eight
//! independent traversals overlap each other's load latency, and a
//! tree is applied to a whole [`TILE`] of rows before the next one is
//! touched, so its nodes and the tile's features stay in the L1 cache.
//! Each row's leaf values are still added in tree order, starting from
//! the additive identity `-0.0`, exactly as
//! `trees.iter().map(|t| t.predict_row(row)).sum::<f64>()` adds them:
//! scores are bit-identical to walking the trees one row at a time.

use serde::{Content, DeError, Deserialize, Serialize};
use willump_data::Matrix;

use crate::tree::{DecisionTree, Node};

/// Rows traversed side by side through one tree.
const BLOCK: usize = 8;
/// Rows one tree is applied to before the next tree is loaded.
const TILE: usize = 8 * BLOCK;

/// What a row's sum starts from: the additive identity, as in
/// `Iterator::sum`. `-0.0 + v` is `v` for every `v`, while
/// `0.0 + -0.0` is not `-0.0`.
const ZERO: f64 = -0.0;

/// One node of a [`TreeEnsemble`]; `left`/`right` index the ensemble's
/// node array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct FlatNode {
    /// Go left iff `row[feature] <= threshold` (0 in a leaf).
    threshold: f64,
    /// The leaf's value (0 in a split).
    value: f64,
    feature: u32,
    left: u32,
    right: u32,
}

impl FlatNode {
    /// Where a row whose `feature` is `v` goes next. NaN compares
    /// false and goes right, as in [`DecisionTree::predict_row`].
    #[inline]
    fn next(&self, v: f64) -> usize {
        (if v <= self.threshold {
            self.left
        } else {
            self.right
        }) as usize
    }
}

/// A trained tree ensemble, flattened for scoring.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TreeEnsemble {
    nodes: Vec<FlatNode>,
    /// Index of each tree's root, in tree order.
    roots: Vec<u32>,
    /// Splits on the longest root-to-leaf path of any tree.
    max_depth: usize,
    /// Split gain credited to each feature, summed over the trees.
    feature_gains: Vec<f64>,
}

impl TreeEnsemble {
    /// Flatten `trees`, which split on features below `n_features`.
    ///
    /// # Panics
    /// Panics if a tree splits on a feature at or past `n_features`,
    /// or if the ensemble has more than `u32::MAX` nodes.
    pub fn from_trees(trees: &[DecisionTree], n_features: usize) -> TreeEnsemble {
        let mut nodes = Vec::with_capacity(trees.iter().map(DecisionTree::n_nodes).sum());
        let mut roots = Vec::with_capacity(trees.len());
        let mut feature_gains = vec![0.0; n_features];
        for tree in trees {
            let base = u32::try_from(nodes.len()).expect("node indices fit in u32");
            roots.push(base);
            for (i, node) in tree.nodes().iter().enumerate() {
                let this = base + i as u32;
                nodes.push(match *node {
                    Node::Leaf { value } => FlatNode {
                        threshold: 0.0,
                        value,
                        feature: 0,
                        left: this,
                        right: this,
                    },
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => FlatNode {
                        threshold,
                        value: 0.0,
                        feature,
                        left: base + left,
                        right: base + right,
                    },
                });
            }
            for (g, tg) in feature_gains.iter_mut().zip(tree.feature_gains()) {
                *g += tg;
            }
        }
        let max_depth = depth_of(&nodes, &roots, n_features)
            .unwrap_or_else(|why| panic!("trained trees do not flatten: {why}"));
        TreeEnsemble {
            nodes,
            roots,
            max_depth,
            feature_gains,
        }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Number of input features expected.
    pub fn n_features(&self) -> usize {
        self.feature_gains.len()
    }

    /// Total split gain per feature, normalized to sum to 1 (zero
    /// vector when the ensemble never split).
    pub fn feature_importances(&self) -> Vec<f64> {
        let total: f64 = self.feature_gains.iter().sum();
        let mut gains = self.feature_gains.clone();
        if total > 0.0 {
            for g in &mut gains {
                *g /= total;
            }
        }
        gains
    }

    /// Sum of the trees' leaf values for one dense row, in tree order.
    ///
    /// # Panics
    /// Panics if `row` is narrower than [`Self::n_features`].
    pub fn sum_row(&self, row: &[f64]) -> f64 {
        assert!(row.len() >= self.n_features(), "row narrower than model");
        self.roots
            .iter()
            .fold(ZERO, |sum, &root| sum + self.leaf_value(root, row))
    }

    /// [`Self::sum_row`] for every row of `x`; the returned `Vec` is
    /// the only allocation.
    ///
    /// # Panics
    /// Panics if `x` is narrower than [`Self::n_features`].
    pub fn sum_rows(&self, x: &Matrix) -> Vec<f64> {
        let (n, width) = (x.n_rows(), x.n_cols());
        assert!(width >= self.n_features(), "matrix narrower than model");
        let data = x.as_slice();
        let nodes = self.nodes.as_slice();
        let mut sums = vec![ZERO; n];
        for tile in (0..n).step_by(TILE) {
            let tile_end = (tile + TILE).min(n);
            let blocks_end = tile_end - (tile_end - tile) % BLOCK;
            for &root in &self.roots {
                for at in (tile..blocks_end).step_by(BLOCK) {
                    let rows = &data[at * width..(at + BLOCK) * width];
                    let mut idx = [root as usize; BLOCK];
                    for _ in 0..self.max_depth {
                        for (lane, i) in idx.iter_mut().enumerate() {
                            let node = &nodes[*i];
                            *i = node.next(rows[lane * width + node.feature as usize]);
                        }
                    }
                    for (sum, i) in sums[at..at + BLOCK].iter_mut().zip(idx) {
                        *sum += nodes[i].value;
                    }
                }
                for r in blocks_end..tile_end {
                    sums[r] += self.leaf_value(root, &data[r * width..(r + 1) * width]);
                }
            }
        }
        sums
    }

    /// The value of the leaf `row` reaches from `root`.
    fn leaf_value(&self, root: u32, row: &[f64]) -> f64 {
        let mut i = root as usize;
        for _ in 0..self.max_depth {
            let node = &self.nodes[i];
            i = node.next(row[node.feature as usize]);
        }
        self.nodes[i].value
    }
}

/// The deepest root-to-leaf path, in splits, or why `nodes` and
/// `roots` are not an ensemble the scoring loop can trust: it relies
/// on every index being in range, on every feature being below
/// `n_features`, and on `max_depth` steps reaching a self-looping leaf.
fn depth_of(nodes: &[FlatNode], roots: &[u32], n_features: usize) -> Result<usize, String> {
    // Children follow their parent (the builder emits pre-order), so
    // one backward pass sees every child before its parent and no
    // path can cycle.
    let mut height = vec![0usize; nodes.len()];
    for (i, node) in nodes.iter().enumerate().rev() {
        let (left, right) = (node.left as usize, node.right as usize);
        if node.feature as usize >= n_features {
            return Err(format!(
                "node {i} reads feature {} of {n_features}",
                node.feature
            ));
        }
        if left == i && right == i {
            continue;
        }
        if left <= i || right <= i || left >= nodes.len() || right >= nodes.len() {
            return Err(format!(
                "node {i} has children {left} and {right}, not later nodes"
            ));
        }
        height[i] = 1 + height[left].max(height[right]);
    }
    let mut depth = 0;
    for &root in roots {
        let h = height
            .get(root as usize)
            .ok_or_else(|| format!("root {root} of {} nodes", nodes.len()))?;
        depth = depth.max(*h);
    }
    Ok(depth)
}

/// A model file is input from outside the program: what the derive
/// would accept unchecked is checked here, once, so that scoring can
/// index without looking.
impl Deserialize for TreeEnsemble {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        fn field<T: Deserialize>(content: &Content, name: &str) -> Result<T, DeError> {
            let value = content
                .get(name)
                .ok_or_else(|| DeError::custom(format!("TreeEnsemble: missing field `{name}`")))?;
            T::from_content(value)
        }
        let ensemble = TreeEnsemble {
            nodes: field(content, "nodes")?,
            roots: field(content, "roots")?,
            max_depth: field(content, "max_depth")?,
            feature_gains: field(content, "feature_gains")?,
        };
        let depth = depth_of(&ensemble.nodes, &ensemble.roots, ensemble.n_features())
            .map_err(|why| DeError::custom(format!("TreeEnsemble: {why}")))?;
        if depth != ensemble.max_depth {
            return Err(DeError::custom(format!(
                "TreeEnsemble: max_depth {} but the deepest tree has {depth} splits",
                ensemble.max_depth
            )));
        }
        Ok(ensemble)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(at: u32, value: f64) -> FlatNode {
        FlatNode {
            threshold: 0.0,
            value,
            feature: 0,
            left: at,
            right: at,
        }
    }

    /// Two trees over two features: a stump on feature 1, and a lone
    /// leaf.
    fn tiny() -> TreeEnsemble {
        let nodes = vec![
            FlatNode {
                threshold: 0.5,
                value: 0.0,
                feature: 1,
                left: 1,
                right: 2,
            },
            leaf(1, -1.0),
            leaf(2, 2.0),
            leaf(3, 0.25),
        ];
        let roots = vec![0, 3];
        let max_depth = depth_of(&nodes, &roots, 2).unwrap();
        TreeEnsemble {
            nodes,
            roots,
            max_depth,
            feature_gains: vec![0.0, 3.0],
        }
    }

    #[test]
    fn leaves_absorb_the_extra_steps() {
        let e = tiny();
        assert_eq!(e.max_depth, 1);
        assert_eq!(e.sum_row(&[9.0, 0.5]), -0.75);
        assert_eq!(e.sum_row(&[9.0, 0.6]), 2.25);
        // NaN compares false, so it goes right, as in the tree walk.
        assert_eq!(e.sum_row(&[9.0, f64::NAN]), 2.25);
        assert_eq!(e.feature_importances(), vec![0.0, 1.0]);
    }

    #[test]
    fn an_empty_ensemble_sums_to_the_additive_identity() {
        let e = TreeEnsemble::from_trees(&[], 3);
        assert_eq!((e.n_trees(), e.n_features(), e.max_depth), (0, 3, 0));
        assert_eq!(e.sum_row(&[0.0; 3]).to_bits(), ZERO.to_bits());
        assert_eq!(e.feature_importances(), vec![0.0; 3]);
    }

    #[test]
    fn round_trips_and_rejects_what_scoring_could_not_trust() {
        let e = tiny();
        assert_eq!(TreeEnsemble::from_content(&e.to_content()).unwrap(), e);

        let broken = |edit: fn(&mut TreeEnsemble)| {
            let mut bad = tiny();
            edit(&mut bad);
            TreeEnsemble::from_content(&bad.to_content()).unwrap_err()
        };
        broken(|e| e.nodes[0].right = 9); // child out of range
        broken(|e| e.nodes[0].left = 0); // cycle
        broken(|e| e.nodes[2].feature = 2); // feature out of range
        broken(|e| e.roots[1] = 4); // root out of range
        broken(|e| e.max_depth = 0); // would stop short of the leaves
    }

    #[test]
    #[should_panic(expected = "narrower")]
    fn a_narrow_row_is_refused() {
        tiny().sum_row(&[1.0]);
    }
}
