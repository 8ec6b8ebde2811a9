//! Table 4: top-K (K=100) query performance and accuracy with
//! automatic filter models on Product, Toxic, Price, Music, and
//! Credit (Tracking excluded: its near-deterministic duplicate tuples
//! make top-K ill-defined, as in the paper). Lookup workloads use
//! remote tables.

use willump::QueryMode;
use willump_bench::{
    baseline, effective_seconds, fmt_throughput, generate, optimize_level, print_table,
    test_sample, OptLevel, PYTHON_SAMPLE_ROWS,
};
use willump_models::metrics;
use willump_workloads::WorkloadKind;

const K: usize = 100;

fn main() {
    let kinds = [
        WorkloadKind::Product,
        WorkloadKind::Toxic,
        WorkloadKind::Price,
        WorkloadKind::Music,
        WorkloadKind::Credit,
    ];
    let mut rows = Vec::new();
    for kind in kinds {
        let w = generate(kind, kind.uses_store());
        let n = w.test.n_rows() as f64;

        // Python-baseline throughput, timed on a bounded sample (the
        // engines produce identical features, so the exact reference
        // scores come from the compiled engine below).
        let python = baseline(&w);
        let py_sample = test_sample(&w, PYTHON_SAMPLE_ROWS);
        let (py_secs, _) = effective_seconds(&w, || {
            python.predict_batch(&py_sample).expect("baseline predicts")
        });
        let py_tp = py_sample.n_rows() as f64 / py_secs;

        // Compiled, exact top-K; its full-model scores are the exact
        // reference ranking.
        let compiled = optimize_level(&w, OptLevel::Compiled, QueryMode::TopK { k: K }, None);
        let ref_feats = compiled
            .executor()
            .features_batch(&w.test, None)
            .expect("reference features");
        let py_scores = compiled.full_model().predict_scores(&ref_feats);
        let exact_topk = metrics::top_k_indices(&py_scores, K);
        let (c_secs, _) = effective_seconds(&w, || {
            compiled
                .top_k(&w.test, K)
                .expect("compiled top-K succeeds")
                .0
        });

        // Compiled + filter model.
        let filtered = optimize_level(&w, OptLevel::Cascades, QueryMode::TopK { k: K }, None);
        assert!(
            filtered.report().filter_deployed,
            "{}: filter must deploy",
            kind.name()
        );
        let (f_secs, approx_topk) = effective_seconds(&w, || {
            filtered
                .top_k(&w.test, K)
                .expect("filtered top-K succeeds")
                .0
        });

        let precision = metrics::precision_at_k(&approx_topk, &exact_topk);
        let map = metrics::mean_average_precision(&approx_topk, &exact_topk);
        let exact_value = metrics::average_value(&exact_topk, &py_scores);
        let approx_value = metrics::average_value(&approx_topk, &py_scores);

        rows.push(vec![
            kind.name().to_string(),
            fmt_throughput(py_tp),
            fmt_throughput(n / c_secs),
            fmt_throughput(n / f_secs),
            format!("{precision:.2}"),
            format!("{map:.2}"),
            format!("{exact_value:.4}"),
            format!("{approx_value:.4}"),
        ]);
    }
    print_table(
        "Table 4: top-100 queries (filter models; remote tables for lookup workloads)",
        &[
            "benchmark",
            "python tput",
            "compiled tput",
            "filtered tput",
            "precision",
            "mAP",
            "exact avg value",
            "filtered avg value",
        ],
        &rows,
    );
}
