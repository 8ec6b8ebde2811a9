//! Table 8: comparison of efficient-IFV selection strategies on
//! Product and Toxic — Willump's cost-effectiveness greedy
//! (Algorithm 1) versus most-important, cheapest, and a brute-force
//! oracle over all proper subsets.
//!
//! Flags (mirroring `table6`):
//!
//! - `--smoke`: tiny workloads — a CI-speed sanity pass over the full
//!   code path (including the oracle enumeration) that also checks
//!   EXPERIMENTS.md carries this binary's schema header (never writes
//!   the file).
//! - `--record`: rewrite this binary's EXPERIMENTS.md section with
//!   the measured table.

use std::sync::Arc;

use willump::cascade::train_cascade_with_subset;
use willump::efficient::{enumerate_proper_subsets, select_efficient_ifvs, SelectionStrategy};
use willump::stats::compute_ifv_stats;
use willump::QueryMode;
use willump_bench::{
    batch_throughput, fmt_throughput, format_table, generate, generate_smoke, optimize_level,
    run_recorded_experiment, OptLevel,
};
use willump_models::metrics;
use willump_workloads::{Workload, WorkloadKind};

/// The schema header CI greps for in EXPERIMENTS.md; bump the version
/// when the recorded table shape changes.
const EXPERIMENTS_SCHEMA: &str = "<!-- schema: table8-ifv-strategies v1 -->";
const RECORD_CMD: &str = "cargo run --release -p willump-bench --bin table8 -- --record";

/// Throughput of a cascade built over a forced subset, or `None` when
/// the cascade's test accuracy misses the target.
fn subset_throughput(
    w: &Workload,
    opt: &willump::OptimizedPipeline,
    subset: Vec<usize>,
) -> Option<f64> {
    let exec = opt.executor().clone();
    let full = opt.full_model().clone();
    let full_feats = exec.features_batch(&w.test, None).ok()?;
    let full_acc = metrics::accuracy(&full.predict_scores(&full_feats), &w.test_y);
    let (cascade, _sel) = train_cascade_with_subset(
        &exec,
        w.pipeline.spec(),
        Arc::clone(&full),
        &w.train,
        &w.train_y,
        &w.valid,
        &w.valid_y,
        subset,
        0.001,
        42,
    )
    .ok()?;
    let scores = cascade.predict_batch(&w.test).ok()?;
    let acc = metrics::accuracy(&scores, &w.test_y);
    // Enforce the accuracy target with the paper's significance margin
    // (95 % CI half-width on the test set).
    let margin = metrics::accuracy_ci_95(full_acc, w.test_y.len());
    if acc < full_acc - margin {
        return None;
    }
    Some(batch_throughput(w, 3, || {
        cascade.predict_batch(&w.test).expect("cascade predicts");
    }))
}

fn gen_workload(kind: WorkloadKind, smoke: bool) -> Workload {
    if smoke {
        generate_smoke(kind, false)
    } else {
        generate(kind, false)
    }
}

fn strategy_table(smoke: bool) -> String {
    let kinds = [WorkloadKind::Product, WorkloadKind::Toxic];
    let mut rows = Vec::new();
    for kind in kinds {
        let w = gen_workload(kind, smoke);
        let opt = optimize_level(&w, OptLevel::Compiled, QueryMode::Batch, None);
        let orig_tp = batch_throughput(&w, 3, || {
            opt.predict_batch(&w.test).expect("compiled predicts");
        });

        // IFV statistics drive the heuristic strategies.
        let exec = opt.executor();
        let full_feats = exec
            .features_batch(&w.train, None)
            .expect("training features");
        let stats = compute_ifv_stats(
            exec,
            opt.full_model(),
            &full_feats,
            &w.train,
            &w.train_y,
            42,
        )
        .expect("stats computed");
        let n_fgs = exec.analysis().generators.len();

        let strategies: [(&str, Vec<usize>); 3] = [
            (
                "willump",
                // The optimizer's production default (WillumpConfig
                // gamma), so this column shows what Willump deploys.
                select_efficient_ifvs(
                    &stats,
                    SelectionStrategy::CostEffective {
                        gamma: 0.02,
                        use_gamma_rule: true,
                    },
                    0.5,
                ),
            ),
            (
                "important",
                select_efficient_ifvs(&stats, SelectionStrategy::MostImportant, 0.5),
            ),
            (
                "cheap",
                select_efficient_ifvs(&stats, SelectionStrategy::Cheapest, 0.5),
            ),
        ];

        let mut cells = vec![kind.name().to_string(), fmt_throughput(orig_tp)];
        for (name, subset) in strategies {
            let tp = if subset.is_empty() || subset.len() >= n_fgs {
                None
            } else {
                subset_throughput(&w, &opt, subset.clone())
            };
            let cell = match tp {
                Some(v) => format!("{} {:?}", fmt_throughput(v), subset),
                None => "no cascade".to_string(),
            };
            let _ = name;
            cells.push(cell);
        }

        // Oracle: best throughput over every accuracy-passing proper
        // subset.
        let mut best: Option<(f64, Vec<usize>)> = None;
        for subset in enumerate_proper_subsets(n_fgs) {
            if let Some(tp) = subset_throughput(&w, &opt, subset.clone()) {
                if best.as_ref().is_none_or(|(b, _)| tp > *b) {
                    best = Some((tp, subset));
                }
            }
        }
        cells.push(match best {
            Some((tp, subset)) => format!("{} {:?}", fmt_throughput(tp), subset),
            None => "no cascade".to_string(),
        });
        rows.push(cells);
    }
    format_table(
        "Table 8: cascade throughput by efficient-IFV selection strategy (subset in brackets)",
        &[
            "benchmark",
            "no cascade",
            "willump",
            "important",
            "cheap",
            "oracle",
        ],
        &rows,
    )
}

fn main() {
    run_recorded_experiment(EXPERIMENTS_SCHEMA, RECORD_CMD, |smoke| {
        let table = strategy_table(smoke);
        let body = format!(
            "Efficient-IFV selection strategy comparison, incl. the\n\
             brute-force oracle over all proper subsets (paper Table 8).\n\
             Regenerate with `{RECORD_CMD}`.\n{table}"
        );
        (table, body)
    });
}
