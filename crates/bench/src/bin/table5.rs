//! Table 5: automatically constructed filter models versus random
//! sampling on the benchmarks where filter models were least accurate
//! (Music, Product, Credit). Sampling ratios are chosen so the sampled
//! exact query costs the same as the filtered query, then accuracy is
//! compared at equal throughput.

use willump::QueryMode;
use willump_bench::{effective_seconds, generate, optimize_level, print_table, OptLevel};
use willump_data::rng::seeded;
use willump_models::metrics;
use willump_workloads::WorkloadKind;

const K: usize = 100;

fn main() {
    let kinds = [
        WorkloadKind::Music,
        WorkloadKind::Product,
        WorkloadKind::Credit,
    ];
    let mut rows = Vec::new();
    for kind in kinds {
        let w = generate(kind, kind.uses_store());
        let n = w.test.n_rows();

        // Exact (compiled) scores define ground truth and the cost of
        // a full pass.
        let compiled = optimize_level(&w, OptLevel::Compiled, QueryMode::TopK { k: K }, None);
        let exec = compiled.executor().clone();
        let full_model = compiled.full_model().clone();
        let (full_secs, exact_scores) = effective_seconds(&w, || {
            let feats = exec.features_batch(&w.test, None).expect("features");
            full_model.predict_scores(&feats)
        });
        let exact_topk = metrics::top_k_indices(&exact_scores, K);

        // Filtered top-K and its cost.
        let filtered = optimize_level(&w, OptLevel::Cascades, QueryMode::TopK { k: K }, None);
        let (filt_secs, approx_topk) =
            effective_seconds(&w, || filtered.top_k(&w.test, K).expect("filtered top-K").0);

        // Random sampling at equal cost: the sampled pass may touch
        // only n / ratio rows, where ratio = full cost / filtered cost.
        let ratio = (full_secs / filt_secs).max(1.0);
        let sample_size = ((n as f64 / ratio).round() as usize).clamp(K.min(n), n);
        let mut rng = seeded(7);
        let sample = willump_data::rng::permutation(&mut rng, n)[..sample_size].to_vec();
        let sample_table = w.test.take_rows(&sample);
        let sampled_scores = {
            let feats = exec.features_batch(&sample_table, None).expect("features");
            full_model.predict_scores(&feats)
        };
        let sampled_topk: Vec<usize> = metrics::top_k_indices(&sampled_scores, K)
            .into_iter()
            .map(|j| sample[j])
            .collect();

        let true_value = metrics::average_value(&exact_topk, &exact_scores);
        rows.push(vec![
            kind.name().to_string(),
            format!("{ratio:.1}x"),
            format!("{:.2}", metrics::precision_at_k(&sampled_topk, &exact_topk)),
            format!("{:.2}", metrics::precision_at_k(&approx_topk, &exact_topk)),
            format!(
                "{:.2}",
                metrics::mean_average_precision(&sampled_topk, &exact_topk)
            ),
            format!(
                "{:.2}",
                metrics::mean_average_precision(&approx_topk, &exact_topk)
            ),
            format!(
                "{:.4}",
                metrics::average_value(&sampled_topk, &exact_scores)
            ),
            format!("{:.4}", metrics::average_value(&approx_topk, &exact_scores)),
            format!("{true_value:.4}"),
        ]);
    }
    print_table(
        "Table 5: filter models vs random sampling at matched cost (top-100)",
        &[
            "benchmark",
            "sampling ratio",
            "sampled precision",
            "filtered precision",
            "sampled mAP",
            "filtered mAP",
            "sampled avg value",
            "filtered avg value",
            "true avg value",
        ],
        &rows,
    );
}
