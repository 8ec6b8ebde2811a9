//! Section 6.4 microbenchmarks not covered by the other binaries:
//!
//! - `gamma`: the Algorithm 1 stopping-rule ablation on Music,
//! - `threshold`: cascade-threshold robustness across validation
//!   splits,
//! - `driver`: engine-boundary ("Weld driver") overhead share,
//! - `opttime`: end-to-end optimization times,
//! - `calibration`: cascade confidence calibration ablation (an
//!   extension beyond the paper; see DESIGN.md §4b),
//! - `treekernel`: scoring a tree ensemble by walking each
//!   `DecisionTree` per row (the definition) vs the flat
//!   `TreeEnsemble` kernel every GBDT and forest scores through.
//!
//! Run one section with `cargo run -p willump-bench --release --bin
//! micro -- <section>`, or everything with no argument. The
//! `treekernel` section is the recorded one: `--smoke` runs its
//! CI-speed pass and `--record` rewrites its EXPERIMENTS.md section.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use willump::cascade::train_cascade_with_subset;
use willump::efficient::{select_efficient_ifvs, SelectionStrategy};
use willump::stats::compute_ifv_stats;
use willump::{Calibration, QueryMode, Willump, WillumpConfig};
use willump_bench::{
    batch_throughput, fmt_speedup, format_table, generate, optimize_level, print_table,
    run_recorded_experiment, OptLevel,
};
use willump_data::Matrix;
use willump_graph::cost::measure_costs;
use willump_graph::{EngineMode, Executor};
use willump_models::{metrics, BinMapper, DecisionTree, TreeEnsemble, TreeParams};
use willump_workloads::{Workload, WorkloadKind};

/// The schema header CI greps for in EXPERIMENTS.md; bump the version
/// when the recorded table shape changes.
const TREEKERNEL_SCHEMA: &str = "<!-- schema: micro-treekernel v1 -->";
const RECORD_CMD: &str = "cargo run --release -p willump-bench --bin micro -- --record";

fn gamma_ablation() {
    // Paper §6.4: on Music (the classification benchmark with the most
    // IFVs), disabling the gamma rule lowers the cascade speedup at
    // matched accuracy targets.
    let w = generate(WorkloadKind::Music, true);
    let opt = optimize_level(&w, OptLevel::Compiled, QueryMode::Batch, None);
    let exec = opt.executor();
    let full_feats = exec.features_batch(&w.train, None).expect("features");
    let stats = compute_ifv_stats(
        exec,
        opt.full_model(),
        &full_feats,
        &w.train,
        &w.train_y,
        42,
    )
    .expect("stats");
    let base_tp = batch_throughput(&w, 3, || {
        opt.predict_batch(&w.test).expect("predicts");
    });

    let mut rows = Vec::new();
    for (label, use_rule) in [("with gamma rule", true), ("without gamma rule", false)] {
        let subset = select_efficient_ifvs(
            &stats,
            SelectionStrategy::CostEffective {
                gamma: 0.25,
                use_gamma_rule: use_rule,
            },
            0.5,
        );
        for target in [0.001, 0.005] {
            let n_fgs = exec.analysis().generators.len();
            let cell = if subset.is_empty() || subset.len() >= n_fgs {
                "no cascade".to_string()
            } else {
                let (cascade, _) = train_cascade_with_subset(
                    exec,
                    w.pipeline.spec(),
                    Arc::clone(opt.full_model()),
                    &w.train,
                    &w.train_y,
                    &w.valid,
                    &w.valid_y,
                    subset.clone(),
                    target,
                    42,
                )
                .expect("cascade trains");
                let tp = batch_throughput(&w, 3, || {
                    cascade.predict_batch(&w.test).expect("predicts");
                });
                fmt_speedup(tp / base_tp)
            };
            rows.push(vec![
                label.to_string(),
                format!("{:.1}%", target * 100.0),
                format!("{subset:?}"),
                cell,
            ]);
        }
    }
    print_table(
        "Micro (gamma): Algorithm 1 stopping rule on Music (speedup over compiled)",
        &[
            "variant",
            "accuracy target",
            "efficient set",
            "cascade speedup",
        ],
        &rows,
    );
}

fn threshold_robustness() {
    // Paper §6.4: a threshold chosen on one validation set holds on
    // another (accuracy within the target, not statistically
    // significant).
    let mut rows = Vec::new();
    for kind in [
        WorkloadKind::Product,
        WorkloadKind::Toxic,
        WorkloadKind::Music,
        WorkloadKind::Tracking,
    ] {
        let w = generate(kind, false);
        // Split validation in half: choose on A, evaluate on B.
        let half = w.valid.n_rows() / 2;
        let a_idx: Vec<usize> = (0..half).collect();
        let b_idx: Vec<usize> = (half..w.valid.n_rows()).collect();
        let valid_a = w.valid.take_rows(&a_idx);
        let valid_a_y = a_idx.iter().map(|&i| w.valid_y[i]).collect::<Vec<_>>();
        let valid_b = w.valid.take_rows(&b_idx);
        let valid_b_y: Vec<f64> = b_idx.iter().map(|&i| w.valid_y[i]).collect();

        let sub = Workload {
            valid: valid_a,
            valid_y: valid_a_y,
            ..w.clone()
        };
        let opt = {
            let cfg = WillumpConfig {
                cascades: true,
                cascade_gate: false,
                ..WillumpConfig::default()
            };
            Willump::new(cfg)
                .optimize(
                    &sub.pipeline,
                    &sub.train,
                    &sub.train_y,
                    &sub.valid,
                    &sub.valid_y,
                )
                .expect("optimizes")
        };
        let Some(sel) = opt.report().threshold.clone() else {
            rows.push(vec![
                kind.name().to_string(),
                "no cascade".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        // Evaluate on validation half B.
        let scores = opt.predict_batch(&valid_b).expect("predicts");
        let full_feats = opt
            .executor()
            .features_batch(&valid_b, None)
            .expect("features");
        let full_acc = metrics::accuracy(&opt.full_model().predict_scores(&full_feats), &valid_b_y);
        let cascade_acc = metrics::accuracy(&scores, &valid_b_y);
        let ci = metrics::accuracy_ci_95(full_acc, valid_b_y.len());
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.1}", sel.threshold),
            format!("{full_acc:.4}"),
            format!("{cascade_acc:.4}"),
            if cascade_acc >= full_acc - ci {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    print_table(
        "Micro (threshold): robustness across validation splits",
        &[
            "benchmark",
            "threshold (split A)",
            "full acc (split B)",
            "cascade acc (split B)",
            "within 95% CI",
        ],
        &rows,
    );
}

fn driver_overhead() {
    // Paper §6.4: engine-boundary overheads are <= 1.6 % of runtime.
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = generate(kind, false);
        let exec = Executor::new(w.pipeline.graph().clone(), EngineMode::Compiled)
            .expect("executor builds");
        let report = measure_costs(&exec, &w.test).expect("costs measured");
        let share = 100.0 * report.boundary / report.total().max(1e-12);
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.2}us", report.boundary * 1e6),
            format!("{:.2}us", report.total() * 1e6),
            format!("{share:.2}%"),
        ]);
    }
    print_table(
        "Micro (driver): engine-boundary overhead per input row",
        &["benchmark", "boundary", "total", "share"],
        &rows,
    );
}

fn optimization_times() {
    // Paper §6.4: optimization never exceeds thirty seconds.
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = generate(kind, kind.uses_store());
        let mode = if kind.is_classification() {
            QueryMode::Batch
        } else {
            QueryMode::TopK { k: 100 }
        };
        let opt = optimize_level(&w, OptLevel::Cascades, mode, None);
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.2}s", opt.report().optimization_seconds),
            opt.report().cascades_deployed.to_string(),
            opt.report().filter_deployed.to_string(),
        ]);
    }
    print_table(
        "Micro (opttime): Willump optimization wall time",
        &["benchmark", "optimization time", "cascades", "filter"],
        &rows,
    );
}

fn calibration_ablation() {
    // Extension (DESIGN.md §4b): calibrating small-model confidences
    // changes which inputs the cascade keeps. We compare raw vs Platt
    // vs isotonic on the classification benchmarks, reporting the
    // selected threshold, kept fraction, and test accuracy drift.
    let mut rows = Vec::new();
    for kind in [
        WorkloadKind::Product,
        WorkloadKind::Toxic,
        WorkloadKind::Music,
    ] {
        let w = generate(kind, false);
        for (label, method) in [
            ("raw scores (paper)", Calibration::None),
            ("platt", Calibration::Platt),
            ("isotonic", Calibration::Isotonic),
        ] {
            let cfg = WillumpConfig {
                cascade_gate: false,
                calibration: method,
                ..WillumpConfig::default()
            };
            let opt = Willump::new(cfg)
                .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
                .expect("optimizes");
            let Some(sel) = opt.report().threshold.clone() else {
                rows.push(vec![
                    kind.name().to_string(),
                    label.to_string(),
                    "no cascade".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            };
            let (scores, stats) = opt.predict_batch_with_stats(&w.test).expect("predicts");
            let acc = metrics::accuracy(&scores, &w.test_y);
            let kept =
                stats.gate_resolved as f64 / (stats.gate_resolved + stats.escalated).max(1) as f64;
            rows.push(vec![
                kind.name().to_string(),
                label.to_string(),
                format!("{:.1}", sel.threshold),
                format!("{:.1}%", 100.0 * kept),
                format!("{acc:.4}"),
            ]);
        }
    }
    print_table(
        "Micro (calibration): cascade confidence calibration ablation",
        &[
            "benchmark",
            "calibration",
            "threshold",
            "kept by small model",
            "test accuracy",
        ],
        &rows,
    );
}

/// Nanoseconds of the fastest of `passes` calls of `a` and of `b`,
/// the two called in turn. The host changes speed every few seconds:
/// alternating puts both under the same speeds, and interference only
/// ever slows a pass down, so each side's fastest pass is the one to
/// compare. A pass here is long enough (2 000 rows) for the clock's
/// resolution not to matter.
fn best_passes_ns(passes: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_nanos() as f64
    };
    (0..passes).fold((f64::INFINITY, f64::INFINITY), |(best_a, best_b), _| {
        (best_a.min(timed(&mut a)), best_b.min(timed(&mut b)))
    })
}

/// Walking every tree per row vs the flat ensemble kernel, on 60
/// trees over 20 features, at the depths the workloads train (music 5,
/// forests 8) and one shallower.
fn treekernel_comparison(smoke: bool) -> String {
    const TREES: usize = 60;
    const FEATURES: usize = 20;
    const POOL: usize = 2_000;
    let passes: u32 = if smoke { 2 } else { 300 };

    let mut rng = willump_data::rng::seeded(19);
    let mut uniform = |rows: usize| {
        let mut m = Matrix::zeros(rows, FEATURES);
        for r in 0..rows {
            m.row_mut(r).fill_with(|| rng.gen::<f64>());
        }
        m
    };
    let train = uniform(POOL);
    // Scored rows come from a pool of 2 000 whatever the batch size,
    // so that a batch of 1 is not the same row (and the same branch
    // history) every time.
    let pool = uniform(POOL);
    let mapper = BinMapper::fit(&train);
    let bins = mapper.bin_matrix(&train);

    let mut rows = Vec::new();
    for depth in [3usize, 5, 8] {
        let params = TreeParams {
            max_depth: depth,
            min_samples_leaf: 2,
            lambda: 1.0,
            min_gain: 1e-9,
        };
        let hess = vec![1.0; POOL];
        let trees: Vec<DecisionTree> = (0..TREES)
            .map(|_| {
                let grad: Vec<f64> = (0..POOL).map(|_| rng.gen::<f64>() - 0.5).collect();
                DecisionTree::fit_gradients(&bins, &mapper, &grad, &hess, &params).expect("fits")
            })
            .collect();
        let ensemble = TreeEnsemble::from_trees(&trees, FEATURES);
        let nodes: usize = trees.iter().map(DecisionTree::n_nodes).sum();
        // What is timed below is one function computed two ways.
        for (r, sum) in ensemble.sum_rows(&pool).iter().enumerate() {
            let walked: f64 = trees.iter().map(|t| t.predict_row(pool.row(r))).sum();
            assert_eq!(sum.to_bits(), walked.to_bits(), "depth {depth}, row {r}");
        }

        for batch in [1usize, 8, POOL] {
            let batches: Vec<Matrix> = (0..POOL / batch)
                .map(|b| pool.take_rows(&(b * batch..(b + 1) * batch).collect::<Vec<_>>()))
                .collect();
            let (walk, kernel) = best_passes_ns(
                passes,
                || {
                    for x in &batches {
                        for r in 0..x.n_rows() {
                            let row = black_box(x.row(r));
                            black_box(trees.iter().map(|t| t.predict_row(row)).sum::<f64>());
                        }
                    }
                },
                || {
                    for x in &batches {
                        if batch == 1 {
                            black_box(ensemble.sum_row(black_box(x.row(0))));
                        } else {
                            black_box(ensemble.sum_rows(black_box(x)));
                        }
                    }
                },
            );
            let per_row = |ns_per_pass: f64| ns_per_pass / POOL as f64 / 1000.0;
            rows.push(vec![
                depth.to_string(),
                nodes.to_string(),
                batch.to_string(),
                format!("{:.3}", per_row(walk)),
                format!("{:.3}", per_row(kernel)),
                fmt_speedup(walk / kernel),
            ]);
        }
    }
    format_table(
        "Micro (treekernel): tree-ensemble scoring, per-tree walk vs flat kernel",
        &[
            "max depth",
            "nodes",
            "rows per call",
            "walk us/row",
            "kernel us/row",
            "speedup",
        ],
        &rows,
    )
}

fn run_recorded_sections() {
    run_recorded_experiment(TREEKERNEL_SCHEMA, RECORD_CMD, |smoke| {
        let table = treekernel_comparison(smoke);
        let body = format!(
            "60 trees over 20 uniform features, fit to random gradients at each depth limit; \
             2 000 pool rows scored per pass in calls of 1, 8 and 2 000 rows. `walk` adds \
             `DecisionTree::predict_row` over the trees (the definition, and what `Gbdt` and \
             `RandomForest` did per row before the flat ensemble); `kernel` is \
             `TreeEnsemble::sum_row` for 1-row calls and `TreeEnsemble::sum_rows` otherwise \
             (the returned `Vec` included). Sums are asserted bit-identical. Regenerate with \
             `{RECORD_CMD}`.\n{table}"
        );
        (table, body)
    });
}

fn main() {
    let section = std::env::args().nth(1);
    match section.as_deref() {
        Some("gamma") => gamma_ablation(),
        Some("threshold") => threshold_robustness(),
        Some("driver") => driver_overhead(),
        Some("opttime") => optimization_times(),
        Some("calibration") => calibration_ablation(),
        Some("treekernel") => print!("{}", treekernel_comparison(false)),
        // `--smoke` / `--record` route through the recording harness,
        // which re-parses the flags itself; only the treekernel
        // section is recorded (the others are analyses, not claims).
        Some("--smoke") | Some("--record") => run_recorded_sections(),
        Some(other) => {
            eprintln!(
                "unknown section `{other}`; use \
                 gamma|threshold|driver|opttime|calibration|treekernel"
            );
        }
        None => {
            gamma_ablation();
            threshold_robustness();
            driver_overhead();
            optimization_times();
            calibration_ablation();
            run_recorded_sections();
        }
    }
}
