//! The tree-scoring kernel against its definition.
//!
//! `Gbdt` and `RandomForest` keep only a flattened `TreeEnsemble` and
//! score it eight rows at a time without data-dependent branches. The
//! definition of a score is older and simpler: walk each
//! `DecisionTree` with `predict_row`, add the leaf values in tree
//! order, apply the objective. Every scoring entry point must agree
//! with that definition bit for bit — `to_bits()`, not a tolerance —
//! because plans, cascade thresholds and top-K rankings recorded
//! before the kernel existed must not move.

use willump_data::{FeatureMatrix, Matrix, SparseMatrix};
use willump_models::{
    BinMapper, DecisionTree, ForestObjective, ForestParams, Gbdt, GbdtObjective, GbdtParams,
    ModelSpec, RandomForest, TrainedModel, TreeEnsemble, TreeParams,
};

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const TRAIN_ROWS: usize = 300;

/// Training features on a coarse grid, so that probe rows drawn from
/// the same grid land exactly on split thresholds.
fn training_features(rng: &mut Rng, n_features: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = (0..TRAIN_ROWS)
        .map(|_| {
            (0..n_features)
                .map(|_| rng.below(40) as f64 / 8.0 - 2.0)
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows)
}

/// One tree per entry of `depths`, each fit to fresh random gradients
/// with that depth limit: 0 gives a lone leaf, and a mix gives an
/// ensemble whose leaves sit at every depth up to the deepest.
fn random_trees(rng: &mut Rng, x: &Matrix, depths: &[usize]) -> Vec<DecisionTree> {
    let mapper = BinMapper::fit(x);
    let bins = mapper.bin_matrix(x);
    depths
        .iter()
        .map(|&max_depth| {
            let grad: Vec<f64> = (0..x.n_rows()).map(|_| rng.unit() - 0.5).collect();
            let hess: Vec<f64> = (0..x.n_rows()).map(|_| 0.5 + rng.unit()).collect();
            let params = TreeParams {
                max_depth,
                min_samples_leaf: 1 + rng.below(6),
                lambda: 1.0,
                min_gain: 1e-9,
            };
            DecisionTree::fit_gradients(&bins, &mapper, &grad, &hess, &params).expect("fits")
        })
        .collect()
}

/// `n` rows to score: grid values (ties with thresholds), off-grid
/// values, and the values a comparison treats specially.
fn probe_rows(rng: &mut Rng, n: usize, n_features: usize) -> Matrix {
    let special = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN_POSITIVE,
    ];
    let mut m = Matrix::zeros(n, n_features);
    for r in 0..n {
        for c in 0..n_features {
            let v = match rng.below(10) {
                0 => special[rng.below(special.len())],
                1..=4 => rng.below(40) as f64 / 8.0 - 2.0,
                _ => 6.0 * rng.unit() - 3.0,
            };
            m.set(r, c, v);
        }
    }
    m
}

/// The sum the kernel must reproduce: one walk per tree, added in
/// tree order.
fn walk_sum(trees: &[DecisionTree], row: &[f64]) -> f64 {
    trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
}

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

const BASE_SCORE: f64 = -0.375;
const LEARNING_RATE: f64 = 0.1;

/// A name, the model built from some trees, and the definition of its
/// score as a function of a row's leaf sum.
type Objective = (&'static str, TrainedModel, Box<dyn Fn(f64) -> f64>);

/// The four ways an ensemble turns a leaf sum into a score.
fn objectives(trees: &[DecisionTree], n_features: usize) -> Vec<Objective> {
    let gbdt = |objective| {
        TrainedModel::Gbdt(Gbdt::from_trees(
            objective,
            BASE_SCORE,
            LEARNING_RATE,
            trees,
            n_features,
        ))
    };
    let forest =
        |objective| TrainedModel::Forest(RandomForest::from_trees(objective, trees, n_features));
    let n_trees = trees.len().max(1) as f64;
    vec![
        (
            "gbdt logistic",
            gbdt(GbdtObjective::Logistic),
            Box::new(|sum| sigmoid(BASE_SCORE + LEARNING_RATE * sum)),
        ),
        (
            "gbdt squared",
            gbdt(GbdtObjective::Squared),
            Box::new(|sum| BASE_SCORE + LEARNING_RATE * sum),
        ),
        (
            "forest classification",
            forest(ForestObjective::Classification),
            Box::new(move |sum| (sum / n_trees).clamp(0.0, 1.0)),
        ),
        (
            "forest regression",
            forest(ForestObjective::Regression),
            Box::new(move |sum| sum / n_trees),
        ),
    ]
}

fn assert_same_bits(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: row {r}: {g:e} vs {w:e}");
    }
}

/// Every entry point of every objective against the walk, for one
/// ensemble and one batch.
fn check_ensemble(label: &str, trees: &[DecisionTree], n_features: usize, x: &Matrix) {
    let n = x.n_rows();
    let sums: Vec<f64> = (0..n).map(|r| walk_sum(trees, x.row(r))).collect();

    let ensemble = TreeEnsemble::from_trees(trees, n_features);
    assert_eq!(ensemble.n_trees(), trees.len());
    assert_same_bits(&format!("{label}: sum_rows"), &ensemble.sum_rows(x), &sums);
    let by_row: Vec<f64> = (0..n).map(|r| ensemble.sum_row(x.row(r))).collect();
    assert_same_bits(&format!("{label}: sum_row"), &by_row, &sums);

    let dense = FeatureMatrix::Dense(x.clone());
    let sparse = FeatureMatrix::Sparse(SparseMatrix::from_dense(x));
    for (objective, model, score) in objectives(trees, n_features) {
        let what = format!("{label}, {objective}, {n} rows");
        let want: Vec<f64> = sums.iter().map(|s| score(*s)).collect();
        assert_same_bits(
            &format!("{what}: batch"),
            &model.predict_scores(&dense),
            &want,
        );
        assert_same_bits(
            &format!("{what}: sparse batch"),
            &model.predict_scores(&sparse),
            &want,
        );
        let rows: Vec<f64> = (0..n)
            .map(|r| model.predict_score_row(&dense.row_entries(r), n_features))
            .collect();
        assert_same_bits(&format!("{what}: row entries"), &rows, &want);
        let (direct_batch, direct_rows): (Vec<f64>, Vec<f64>) = match &model {
            TrainedModel::Gbdt(m) => (
                m.predict_dense(x),
                (0..n).map(|r| m.predict_row(x.row(r))).collect(),
            ),
            TrainedModel::Forest(m) => (
                m.predict_dense(x),
                (0..n).map(|r| m.predict_row(x.row(r))).collect(),
            ),
            _ => unreachable!("tree models only"),
        };
        assert_same_bits(&format!("{what}: predict_dense"), &direct_batch, &want);
        assert_same_bits(&format!("{what}: predict_row"), &direct_rows, &want);
    }
}

/// Batch sizes around the kernel's block of 8 and tile of 64 rows.
const BATCHES: [usize; 11] = [0, 1, 7, 8, 9, 63, 64, 65, 71, 130, 2_000];

#[test]
fn kernel_matches_the_tree_walk_on_random_ensembles() {
    let mut rng = Rng(0x5EED);
    for case in 0..12 {
        let n_features = 1 + rng.below(12);
        let x = training_features(&mut rng, n_features);
        let n_trees = 1 + rng.below(40);
        let depths: Vec<usize> = (0..n_trees).map(|_| rng.below(9)).collect();
        let trees = random_trees(&mut rng, &x, &depths);
        assert!(
            case != 0 || trees.iter().any(|t| t.n_nodes() > 1),
            "the grid data must produce splits"
        );
        for n in BATCHES {
            // The largest batch once per objective is enough.
            if n == 2_000 && case % 4 != 0 {
                continue;
            }
            let probes = probe_rows(&mut rng, n, n_features);
            check_ensemble(&format!("case {case}"), &trees, n_features, &probes);
        }
    }
}

#[test]
fn kernel_matches_the_tree_walk_at_the_edges_of_the_shape() {
    let mut rng = Rng(0xED6E);
    let n_features = 5;
    let x = training_features(&mut rng, n_features);
    let shapes: [(&str, Vec<usize>); 5] = [
        ("no trees", vec![]),
        ("one lone leaf", vec![0]),
        ("lone leaves only", vec![0; 9]),
        ("one deep tree among leaves", vec![0, 0, 8, 0]),
        ("all deep", vec![8; 30]),
    ];
    for (label, depths) in shapes {
        let trees = random_trees(&mut rng, &x, &depths);
        for n in BATCHES {
            let probes = probe_rows(&mut rng, n, n_features);
            check_ensemble(label, &trees, n_features, &probes);
        }
    }
}

#[test]
fn wider_input_than_the_model_scores_the_leading_columns() {
    let mut rng = Rng(7);
    let x = training_features(&mut rng, 3);
    let trees = random_trees(&mut rng, &x, &[4; 10]);
    let wide = probe_rows(&mut rng, 50, 6);
    let ensemble = TreeEnsemble::from_trees(&trees, 3);
    let want: Vec<f64> = (0..50).map(|r| walk_sum(&trees, wide.row(r))).collect();
    assert_same_bits("wide", &ensemble.sum_rows(&wide), &want);
}

/// Models trained the way the optimizer trains them: the row path and
/// the batch path are one kernel, so they agree exactly — on the
/// training rows and on rows with non-finite values.
#[test]
fn trained_models_score_rows_and_batches_identically() {
    let mut rng = Rng(0x7A11);
    let n_features = 6;
    let x = training_features(&mut rng, n_features);
    let labels: Vec<f64> = (0..x.n_rows())
        .map(|r| f64::from(x.get(r, 0) + x.get(r, 1) * x.get(r, 2) > 0.5))
        .collect();
    let values: Vec<f64> = (0..x.n_rows())
        .map(|r| 2.0 * x.get(r, 0) - x.get(r, 3) + 0.1 * rng.unit())
        .collect();
    let forest = ForestParams {
        n_trees: 15,
        ..ForestParams::default()
    };
    let specs = [
        (ModelSpec::GbdtClassifier(GbdtParams::default()), &labels),
        (ModelSpec::GbdtRegressor(GbdtParams::default()), &values),
        (ModelSpec::ForestClassifier(forest.clone()), &labels),
        (ModelSpec::ForestRegressor(forest), &values),
    ];
    let train = FeatureMatrix::Dense(x.clone());
    let probes = FeatureMatrix::Dense(probe_rows(&mut rng, 777, n_features));
    for (spec, y) in specs {
        let model = spec.fit(&train, y, 11).expect("trains");
        for batch in [&train, &probes] {
            let scores = model.predict_scores(batch);
            let rows: Vec<f64> = (0..batch.n_rows())
                .map(|r| model.predict_score_row(&batch.row_entries(r), n_features))
                .collect();
            assert_same_bits(&format!("{spec:?}"), &rows, &scores);
        }
    }
}
