//! Model persistence: trained models must survive a JSON round trip
//! with bit-identical predictions. Production serving trains offline
//! and loads at deploy time, so serialization fidelity is part of the
//! public contract (every `TrainedModel` family derives serde).

use willump_data::{FeatureMatrix, Matrix};
use willump_models::{
    ForestParams, GbdtParams, LinearParams, LogisticParams, MlpParams, ModelSpec, TrainedModel,
};

fn training_data() -> (FeatureMatrix, Vec<f64>, Vec<f64>) {
    let mut rows = Vec::new();
    let mut classes = Vec::new();
    let mut values = Vec::new();
    for i in 0..120 {
        let a = (i % 12) as f64 / 12.0;
        let b = ((i * 7) % 12) as f64 / 12.0;
        rows.push(vec![a, b, a * b]);
        classes.push(f64::from(a + b > 1.0));
        values.push(2.0 * a - b);
    }
    (
        FeatureMatrix::Dense(Matrix::from_rows(&rows)),
        classes,
        values,
    )
}

fn assert_round_trip(model: &TrainedModel, x: &FeatureMatrix) {
    let json = serde_json::to_string(model).expect("serializes");
    let back: TrainedModel = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.task(), model.task());
    let before = model.predict_scores(x);
    let after = back.predict_scores(x);
    for (i, (a, b)) in before.iter().zip(&after).enumerate() {
        assert!(
            (a - b).abs() < 1e-15,
            "row {i}: {a} vs {b} after round trip"
        );
    }
}

/// Tree ensembles are stored in the layout they are scored in, so a
/// reloaded model is the same value and scores the same bits, through
/// the batch kernel and through the row path.
fn assert_tree_round_trip(model: &TrainedModel, x: &FeatureMatrix) {
    let json = serde_json::to_string(model).expect("serializes");
    let back: TrainedModel = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(&back, model);
    let before = model.predict_scores(x);
    let after = back.predict_scores(x);
    for (r, (a, b)) in before.iter().zip(&after).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "row {r}: batch");
        let row = back.predict_score_row(&x.row_entries(r), x.n_cols());
        assert_eq!(a.to_bits(), row.to_bits(), "row {r}: row path");
    }
}

#[test]
fn logistic_round_trips() {
    let (x, y, _) = training_data();
    let m = ModelSpec::Logistic(LogisticParams::default())
        .fit(&x, &y, 7)
        .expect("trains");
    assert_round_trip(&m, &x);
}

#[test]
fn linear_round_trips() {
    let (x, _, v) = training_data();
    let m = ModelSpec::Linear(LinearParams::default())
        .fit(&x, &v, 7)
        .expect("trains");
    assert_round_trip(&m, &x);
}

#[test]
fn gbdt_round_trips() {
    let (x, y, v) = training_data();
    let c = ModelSpec::GbdtClassifier(GbdtParams::default())
        .fit(&x, &y, 7)
        .expect("trains");
    assert_tree_round_trip(&c, &x);
    let r = ModelSpec::GbdtRegressor(GbdtParams::default())
        .fit(&x, &v, 7)
        .expect("trains");
    assert_tree_round_trip(&r, &x);
}

#[test]
fn forest_round_trips() {
    let (x, y, v) = training_data();
    let c = ModelSpec::ForestClassifier(ForestParams::default())
        .fit(&x, &y, 7)
        .expect("trains");
    assert_tree_round_trip(&c, &x);
    let r = ModelSpec::ForestRegressor(ForestParams::default())
        .fit(&x, &v, 7)
        .expect("trains");
    assert_tree_round_trip(&r, &x);
}

/// A model file is outside input: one whose node indices the scoring
/// kernel could not follow is refused at load, not at the first query.
#[test]
fn a_tree_model_with_a_dangling_child_is_refused() {
    let (x, y, _) = training_data();
    let m = ModelSpec::GbdtClassifier(GbdtParams {
        n_trees: 2,
        ..GbdtParams::default()
    })
    .fit(&x, &y, 7)
    .expect("trains");
    let json = serde_json::to_string(&m).expect("serializes");
    assert!(json.contains("\"right\":2}"), "a split's right child");
    let dangling = json.replacen("\"right\":2}", "\"right\":1000000}", 1);
    let err = serde_json::from_str::<TrainedModel>(&dangling).expect_err("refused");
    assert!(err.to_string().contains("TreeEnsemble"), "{err}");
}

#[test]
fn mlp_round_trips() {
    let (x, y, _) = training_data();
    let m = ModelSpec::MlpClassifier(MlpParams::default())
        .fit(&x, &y, 7)
        .expect("trains");
    assert_round_trip(&m, &x);
}

#[test]
fn calibrators_round_trip() {
    use willump_models::{IsotonicCalibrator, PlattScaler};
    let scores: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
    let labels: Vec<f64> = scores.iter().map(|s| f64::from(*s > 0.3)).collect();

    let p = PlattScaler::fit(&scores, &labels).expect("fits");
    let p2: PlattScaler =
        serde_json::from_str(&serde_json::to_string(&p).expect("ser")).expect("de");
    let iso = IsotonicCalibrator::fit(&scores, &labels).expect("fits");
    let iso2: IsotonicCalibrator =
        serde_json::from_str(&serde_json::to_string(&iso).expect("ser")).expect("de");
    for s in [0.0, 0.1, 0.31, 0.5, 0.99] {
        assert!((p.calibrate(s) - p2.calibrate(s)).abs() < 1e-15);
        assert!((iso.calibrate(s) - iso2.calibrate(s)).abs() < 1e-15);
    }
}

#[test]
fn model_spec_round_trips_with_hyperparameters() {
    let spec = ModelSpec::GbdtClassifier(GbdtParams {
        n_trees: 17,
        ..GbdtParams::default()
    });
    let json = serde_json::to_string(&spec).expect("serializes");
    let back: ModelSpec = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, spec, "hyperparameters must survive");
}
