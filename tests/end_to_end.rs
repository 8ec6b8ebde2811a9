//! Integration tests spanning every crate: generate workloads, run
//! the Willump optimizer end-to-end, and check the paper's core
//! claims hold (accuracy preserved, requests reduced, top-K close to
//! exact).

use willump::{CachingConfig, QueryMode, Willump, WillumpConfig};
use willump_graph::{EngineMode, Executor, InputRow};
use willump_models::metrics;
use willump_workloads::{WorkloadConfig, WorkloadKind};

fn small(kind: WorkloadKind, remote: bool) -> willump_workloads::Workload {
    let mut cfg = WorkloadConfig {
        n_train: 800,
        n_valid: 500,
        n_test: 500,
        seed: 42,
        remote: None,
    };
    if remote {
        cfg = cfg.with_remote_tables();
    }
    kind.generate(&cfg).expect("workload generates")
}

#[test]
fn every_workload_optimizes_without_accuracy_loss() {
    for kind in WorkloadKind::ALL {
        let w = small(kind, false);
        let opt = Willump::new(WillumpConfig::default())
            .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
            .expect("optimization succeeds");
        let scores = opt.predict_batch(&w.test).expect("prediction succeeds");

        if kind.is_classification() {
            let exec = opt.executor();
            let full_feats = exec.features_batch(&w.test, None).expect("features");
            let full_scores = opt.full_model().predict_scores(&full_feats);
            let full_acc = metrics::accuracy(&full_scores, &w.test_y);
            let opt_acc = metrics::accuracy(&scores, &w.test_y);
            // Within the paper's statistical-significance margin.
            let margin = metrics::accuracy_ci_95(full_acc, w.test_y.len());
            assert!(
                opt_acc >= full_acc - margin,
                "{}: optimized {opt_acc} vs full {full_acc} (margin {margin})",
                kind.name()
            );
        } else {
            let mse = metrics::mse(&scores, &w.test_y);
            assert!(mse.is_finite(), "{}: mse {mse}", kind.name());
        }
    }
}

#[test]
fn interpreted_and_compiled_engines_agree_on_features() {
    for kind in WorkloadKind::ALL {
        let w = small(kind, false);
        let interp = Executor::new(w.pipeline.graph().clone(), EngineMode::Interpreted)
            .expect("interp executor");
        let compiled = Executor::new(w.pipeline.graph().clone(), EngineMode::Compiled)
            .expect("compiled executor");
        let sample: Vec<usize> = (0..w.test.n_rows()).step_by(97).collect();
        let sub = w.test.take_rows(&sample);
        let a = interp.features_batch(&sub, None).expect("interp features");
        let b = compiled
            .features_batch(&sub, None)
            .expect("compiled features");
        assert_eq!(a.n_rows(), b.n_rows(), "{}", kind.name());
        assert_eq!(a.n_cols(), b.n_cols(), "{}", kind.name());
        for r in 0..a.n_rows() {
            let ea = a.row_entries(r);
            let eb = b.row_entries(r);
            assert_eq!(ea.len(), eb.len(), "{} row {r}", kind.name());
            for ((c1, v1), (c2, v2)) in ea.iter().zip(&eb) {
                assert_eq!(c1, c2, "{} row {r}", kind.name());
                assert!((v1 - v2).abs() < 1e-9, "{} row {r} col {c1}", kind.name());
            }
        }
    }
}

#[test]
fn single_input_serving_matches_batch_everywhere() {
    for kind in WorkloadKind::ALL {
        let w = small(kind, false);
        let opt = Willump::new(WillumpConfig::default())
            .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
            .expect("optimization succeeds");
        let batch = opt.predict_batch(&w.test).expect("batch predicts");
        for r in (0..w.test.n_rows()).step_by(73) {
            let input = InputRow::from_table(&w.test, r).expect("row");
            let one = opt.predict_one(&input).expect("single predicts");
            assert!(
                (one - batch[r]).abs() < 1e-9,
                "{} row {r}: {one} vs {}",
                kind.name(),
                batch[r]
            );
        }
    }
}

#[test]
fn cascades_reduce_remote_requests_on_music() {
    let w = small(WorkloadKind::Music, true);
    let store = w.store.clone().expect("music has a store");

    let plain = Willump::new(WillumpConfig {
        cascades: false,
        mode: QueryMode::ExampleAtATime,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");
    store.stats().reset();
    for r in 0..w.test.n_rows() {
        let input = InputRow::from_table(&w.test, r).expect("row");
        plain.predict_one(&input).expect("predicts");
    }
    let base_requests = store.stats().round_trips();

    let casc = Willump::new(WillumpConfig {
        cascades: true,
        mode: QueryMode::ExampleAtATime,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");
    if !casc.report().cascades_deployed {
        // The economic gate can decline on tiny data; nothing to test.
        return;
    }
    store.stats().reset();
    for r in 0..w.test.n_rows() {
        let input = InputRow::from_table(&w.test, r).expect("row");
        casc.predict_one(&input).expect("predicts");
    }
    let casc_requests = store.stats().round_trips();
    assert!(
        casc_requests < base_requests,
        "cascades {casc_requests} vs baseline {base_requests}"
    );
}

#[test]
fn feature_caching_reduces_remote_requests_more_than_e2e() {
    let w = small(WorkloadKind::Music, true);
    let store = w.store.clone().expect("music has a store");

    let serve = |opt: &willump::OptimizedPipeline| {
        store.stats().reset();
        for r in 0..w.test.n_rows() {
            let input = InputRow::from_table(&w.test, r).expect("row");
            opt.predict_one(&input).expect("predicts");
        }
        store.stats().round_trips()
    };

    let plain = Willump::new(WillumpConfig {
        cascades: false,
        mode: QueryMode::ExampleAtATime,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");
    let base_requests = serve(&plain);

    let cached = Willump::new(WillumpConfig {
        cascades: false,
        mode: QueryMode::ExampleAtATime,
        caching: Some(CachingConfig { capacity: None }),
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimizes");
    let cached_requests = serve(&cached);

    // Zipfian entities must produce a large feature-cache reduction.
    assert!(
        (cached_requests as f64) < 0.7 * base_requests as f64,
        "cached {cached_requests} vs base {base_requests}"
    );
}

#[test]
fn topk_filter_stays_close_to_exact() {
    for kind in [
        WorkloadKind::Product,
        WorkloadKind::Price,
        WorkloadKind::Credit,
    ] {
        let w = small(kind, false);
        let k = 25;
        let opt = Willump::new(WillumpConfig {
            mode: QueryMode::TopK { k },
            ..WillumpConfig::default()
        })
        .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
        .expect("optimizes");

        let exec = opt.executor();
        let feats = exec.features_batch(&w.test, None).expect("features");
        let exact_scores = opt.full_model().predict_scores(&feats);
        let exact = metrics::top_k_indices(&exact_scores, k);

        let (approx, _) = opt.top_k(&w.test, k).expect("top-K succeeds");
        assert_eq!(approx.len(), k, "{}", kind.name());
        let exact_value = metrics::average_value(&exact, &exact_scores);
        let approx_value = metrics::average_value(&approx, &exact_scores);
        // Average value of the returned set within 5% of exact.
        assert!(
            (exact_value - approx_value).abs() <= 0.05 * exact_value.abs().max(1e-9),
            "{}: approx {approx_value} vs exact {exact_value}",
            kind.name()
        );
    }
}

#[test]
fn clipper_layer_serves_optimized_pipelines() {
    use std::sync::Arc;
    use willump_serve::{table_row_to_wire, Servable, ServingRuntime, DEFAULT_ENDPOINT};

    let w = small(WorkloadKind::Product, false);
    let opt = Willump::new(WillumpConfig::default())
        .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
        .expect("optimizes");
    let direct = opt.predict_batch(&w.test).expect("direct predicts");

    let servable: Arc<dyn Servable> = Arc::new(opt);
    let mut builder = ServingRuntime::builder();
    builder.endpoint(DEFAULT_ENDPOINT, servable);
    let server = builder.build().expect("runtime builds");
    let client = server.client();
    let rows: Vec<_> = (0..10)
        .map(|r| table_row_to_wire(&w.test, r).expect("wire row"))
        .collect();
    let scores = client.predict(rows).expect("serving succeeds");
    for (r, s) in scores.iter().enumerate() {
        assert!((s - direct[r]).abs() < 1e-9, "row {r}");
    }
    assert_eq!(server.stats().requests(), 1);
}

#[test]
fn optimization_time_is_bounded() {
    // Paper §6.4: optimization never exceeds thirty seconds.
    for kind in WorkloadKind::ALL {
        let w = small(kind, false);
        let opt = Willump::new(WillumpConfig::default())
            .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
            .expect("optimizes");
        assert!(
            opt.report().optimization_seconds < 30.0,
            "{}: {}s",
            kind.name(),
            opt.report().optimization_seconds
        );
    }
}
