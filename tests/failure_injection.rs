//! Failure injection and degenerate-input tests: the optimizer and
//! serving paths must return errors (never panic, never silently
//! mispredict) when the substrate misbehaves or the data is broken.

use willump::{CachingConfig, QueryMode, Willump, WillumpConfig};
use willump_data::{Column, Table};
use willump_graph::InputRow;
use willump_store::FaultPlan;
use willump_workloads::{WorkloadConfig, WorkloadKind};

fn music() -> willump_workloads::Workload {
    let cfg = WorkloadConfig {
        n_train: 500,
        n_valid: 300,
        n_test: 200,
        seed: 11,
        remote: None,
    }
    .with_remote_tables();
    WorkloadKind::Music.generate(&cfg).expect("music generates")
}

#[test]
fn store_faults_surface_as_errors_not_panics() {
    let w = music();
    let store = w.store.clone().expect("music has a store");
    let opt = Willump::new(WillumpConfig {
        mode: QueryMode::ExampleAtATime,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes before faults start");

    // Fail every store round trip: every lookup-dependent prediction
    // must return Err, and none may panic.
    store.set_fault_plan(Some(FaultPlan { rate: 1.0, seed: 3 }));
    for r in 0..20 {
        let input = InputRow::from_table(&w.test, r).expect("row");
        assert!(opt.predict_one(&input).is_err(), "row {r} should fail");
    }
    assert!(store.stats().faults() >= 20);

    // Recovery: clearing the plan restores service with no residue.
    store.set_fault_plan(None);
    for r in 0..20 {
        let input = InputRow::from_table(&w.test, r).expect("row");
        assert!(opt.predict_one(&input).is_ok(), "row {r} should recover");
    }
}

#[test]
fn partial_faults_fail_only_affected_queries() {
    let w = music();
    let store = w.store.clone().expect("music has a store");
    let opt = Willump::new(WillumpConfig {
        mode: QueryMode::ExampleAtATime,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");

    store.set_fault_plan(Some(FaultPlan { rate: 0.3, seed: 5 }));
    store.stats().reset();
    let mut ok = 0;
    let mut failed = 0;
    for r in 0..w.test.n_rows() {
        let input = InputRow::from_table(&w.test, r).expect("row");
        match opt.predict_one(&input) {
            Ok(score) => {
                assert!(score.is_finite());
                ok += 1;
            }
            Err(_) => failed += 1,
        }
    }
    store.set_fault_plan(None);
    assert!(ok > 0, "some queries must dodge the 30% fault rate");
    assert!(failed > 0, "some queries must hit the 30% fault rate");
}

#[test]
fn faults_during_batch_prediction_are_errors() {
    let w = music();
    let store = w.store.clone().expect("music has a store");
    let opt = Willump::new(WillumpConfig::default())
        .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
        .expect("optimizes");
    store.set_fault_plan(Some(FaultPlan { rate: 1.0, seed: 1 }));
    assert!(opt.predict_batch(&w.test).is_err());
    store.set_fault_plan(None);
}

#[test]
fn feature_cache_reduces_fault_exposure() {
    // With feature-level caching, cached entities never touch the
    // faulty store, so a 100% fault rate only fails cache misses.
    let w = music();
    let store = w.store.clone().expect("music has a store");
    let cached = Willump::new(WillumpConfig {
        mode: QueryMode::ExampleAtATime,
        caching: Some(CachingConfig { capacity: None }),
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");

    // Warm the cache with a clean pass.
    for r in 0..w.test.n_rows() {
        let input = InputRow::from_table(&w.test, r).expect("row");
        cached.predict_one(&input).expect("warm pass succeeds");
    }

    store.set_fault_plan(Some(FaultPlan { rate: 1.0, seed: 2 }));
    let mut survived = 0;
    for r in 0..w.test.n_rows() {
        let input = InputRow::from_table(&w.test, r).expect("row");
        if cached.predict_one(&input).is_ok() {
            survived += 1;
        }
    }
    store.set_fault_plan(None);
    assert_eq!(
        survived,
        w.test.n_rows(),
        "warm cache should satisfy repeated queries without the store"
    );
}

#[test]
fn empty_validation_set_is_rejected() {
    let w = WorkloadKind::Product
        .generate(&WorkloadConfig::small())
        .expect("generates");
    let empty = Table::new();
    let res = Willump::new(WillumpConfig::default()).optimize(
        &w.pipeline,
        &w.train,
        &w.train_y,
        &empty,
        &[],
    );
    assert!(res.is_err(), "empty validation set must be rejected");
}

#[test]
fn single_class_training_labels_do_not_panic() {
    let w = WorkloadKind::Product
        .generate(&WorkloadConfig::small())
        .expect("generates");
    let ones = vec![1.0; w.train.n_rows()];
    let valid_ones = vec![1.0; w.valid.n_rows()];
    // Must either optimize (predicting the constant class) or error
    // cleanly; both are acceptable, panicking is not.
    if let Ok(opt) = Willump::new(WillumpConfig::default()).optimize(
        &w.pipeline,
        &w.train,
        &ones,
        &w.valid,
        &valid_ones,
    ) {
        let scores = opt.predict_batch(&w.test).expect("predicts");
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}

#[test]
fn unknown_source_column_in_input_row_errors() {
    let w = WorkloadKind::Product
        .generate(&WorkloadConfig::small())
        .expect("generates");
    let opt = Willump::new(WillumpConfig::default())
        .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
        .expect("optimizes");
    // A table with none of the pipeline's source columns.
    let mut bogus = Table::new();
    bogus
        .add_column("unrelated", Column::from(vec![1.0, 2.0]))
        .expect("fresh table");
    assert!(opt.predict_batch(&bogus).is_err());
}

#[test]
fn tiny_cache_capacity_still_serves_correctly() {
    let w = music();
    for capacity in [Some(1), Some(2)] {
        let opt = Willump::new(WillumpConfig {
            mode: QueryMode::ExampleAtATime,
            caching: Some(CachingConfig { capacity }),
            cascades: false,
            ..WillumpConfig::default()
        })
        .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
        .expect("optimizes");
        let plain = Willump::new(WillumpConfig {
            mode: QueryMode::ExampleAtATime,
            cascades: false,
            ..WillumpConfig::default()
        })
        .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
        .expect("optimizes");
        for r in (0..w.test.n_rows()).step_by(17) {
            let input = InputRow::from_table(&w.test, r).expect("row");
            let a = opt.predict_one(&input).expect("cached predicts");
            let b = plain.predict_one(&input).expect("plain predicts");
            assert!(
                (a - b).abs() < 1e-9,
                "capacity {capacity:?} row {r}: {a} vs {b} (thrashing cache must not corrupt)"
            );
        }
    }
}

#[test]
fn cascade_threshold_extremes_behave() {
    let w = WorkloadKind::Toxic
        .generate(&WorkloadConfig::small())
        .expect("generates");
    let mut opt = Willump::new(WillumpConfig {
        cascade_gate: false,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");
    let cascade = opt.cascade_mut().expect("gate off deploys cascade");

    // Threshold above any attainable confidence: everything escalates,
    // so predictions equal the full model's.
    cascade.set_threshold(1.01);
    let (scores, stats) = opt.predict_batch_with_stats(&w.test).expect("predicts");
    assert_eq!(stats.gate_resolved, 0);
    let full_feats = opt
        .executor()
        .features_batch(&w.test, None)
        .expect("features");
    let full = opt.full_model().predict_scores(&full_feats);
    for (a, b) in scores.iter().zip(&full) {
        assert!((a - b).abs() < 1e-9);
    }

    // Threshold at the floor: confidence is always >= 0.5, so nothing
    // escalates and the small model answers everything.
    let cascade = opt.cascade_mut().expect("cascade still deployed");
    cascade.set_threshold(0.0);
    let (_, stats) = opt.predict_batch_with_stats(&w.test).expect("predicts");
    assert_eq!(stats.escalated, 0);
}

#[test]
fn topk_with_k_larger_than_batch_is_clamped_or_errors() {
    let w = WorkloadKind::Product
        .generate(&WorkloadConfig::small())
        .expect("generates");
    let opt = Willump::new(WillumpConfig {
        mode: QueryMode::TopK { k: 10 },
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");
    let tiny = w.test.take_rows(&[0, 1, 2]);
    if let Ok((idx, _)) = opt.top_k(&tiny, 10) {
        assert!(idx.len() <= 3, "cannot return more rows than exist");
        // No duplicate indices.
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), idx.len());
    }
}
