//! Table 7: effect of the filtered subset size on top-100 query
//! performance and accuracy for Music and Toxic. Shrinking the subset
//! barely improves throughput (the filter model dominates the cost)
//! but sharply degrades accuracy once the subset approaches K.
//!
//! Flags (mirroring `table6`):
//!
//! - `--smoke`: tiny workloads — a CI-speed sanity pass over the full
//!   code path that also checks EXPERIMENTS.md carries this binary's
//!   schema header (never writes the file).
//! - `--record`: rewrite this binary's EXPERIMENTS.md section with
//!   the measured tables.

use willump::{QueryMode, TopKConfig};
use willump_bench::{
    baseline, effective_seconds, fmt_throughput, format_table, generate, generate_smoke,
    optimize_level, run_recorded_experiment, test_sample, OptLevel, PYTHON_SAMPLE_ROWS,
};
use willump_models::metrics;
use willump_workloads::{Workload, WorkloadKind};

/// The schema header CI greps for in EXPERIMENTS.md; bump the version
/// when the recorded table shape changes.
const EXPERIMENTS_SCHEMA: &str = "<!-- schema: table7-topk-subset v1 -->";
const RECORD_CMD: &str = "cargo run --release -p willump-bench --bin table7 -- --record";

fn gen_workload(kind: WorkloadKind, smoke: bool) -> Workload {
    if smoke {
        generate_smoke(kind, kind.uses_store())
    } else {
        generate(kind, kind.uses_store())
    }
}

fn subset_tables(smoke: bool) -> String {
    let k = if smoke { 20 } else { 100 };
    let kinds = [WorkloadKind::Music, WorkloadKind::Toxic];
    // Subset sizes as fractions of the batch; the last point equals K
    // itself (the paper's 0.55 % of 18 000 = 100 = K endpoint).
    let fractions = [0.10, 0.08, 0.06, 0.05];
    let mut out = String::new();
    for kind in kinds {
        let w = gen_workload(kind, smoke);
        let n = w.test.n_rows();

        let mut opt = optimize_level(&w, OptLevel::Cascades, QueryMode::TopK { k }, None);

        // Python-baseline throughput timed on a bounded sample; the
        // exact reference ranking comes from the compiled engine's
        // identical features.
        let python = baseline(&w);
        let py_sample = test_sample(&w, if smoke { 50 } else { PYTHON_SAMPLE_ROWS });
        let (py_secs, _) = effective_seconds(&w, || {
            python.predict_batch(&py_sample).expect("baseline predicts")
        });
        let ref_feats = opt
            .executor()
            .features_batch(&w.test, None)
            .expect("reference features");
        let py_scores = opt.full_model().predict_scores(&ref_feats);
        let exact_topk = metrics::top_k_indices(&py_scores, k);

        let mut rows = vec![vec![
            "python exact".to_string(),
            n.to_string(),
            fmt_throughput(py_sample.n_rows() as f64 / py_secs),
            "1.00".to_string(),
            "1.00".to_string(),
            format!("{:.4}", metrics::average_value(&exact_topk, &py_scores)),
        ]];
        if !opt.report().filter_deployed {
            out.push_str(&format!(
                "\n## Table 7 ({}): filter not deployed\n",
                kind.name()
            ));
            continue;
        }
        for &frac in &fractions {
            let config = TopKConfig {
                ck: 1,
                min_subset_frac: frac,
            };
            opt.filter_mut()
                .expect("filter deployed")
                .set_topk_config(config);
            let (secs, approx) =
                effective_seconds(&w, || opt.top_k(&w.test, k).expect("top-K succeeds").0);
            let subset_size = config.subset_size(n, k);
            rows.push(vec![
                format!("{:.1}% subset", frac * 100.0),
                subset_size.to_string(),
                fmt_throughput(n as f64 / secs),
                format!("{:.2}", metrics::precision_at_k(&approx, &exact_topk)),
                format!(
                    "{:.2}",
                    metrics::mean_average_precision(&approx, &exact_topk)
                ),
                format!("{:.4}", metrics::average_value(&approx, &py_scores)),
            ]);
        }
        out.push_str(&format_table(
            &format!("Table 7 ({}): subset size vs top-{k} accuracy", kind.name()),
            &[
                "subset",
                "subset size",
                "throughput",
                "precision",
                "mAP",
                "avg value",
            ],
            &rows,
        ));
    }
    out
}

fn main() {
    run_recorded_experiment(EXPERIMENTS_SCHEMA, RECORD_CMD, |smoke| {
        let table = subset_tables(smoke);
        let body = format!(
            "Top-K filtered subset size vs throughput and ranking accuracy\n\
             (paper Table 7). Regenerate with `{RECORD_CMD}`.\n{table}"
        );
        (table, body)
    });
}
