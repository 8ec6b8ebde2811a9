//! Top-K serving with automatic filter models (paper §4.3): rank the
//! 100 items most likely to default in the Credit workload, comparing
//! the exact full-model pass against Willump's filtered pass.
//!
//! ```text
//! cargo run --release --example topk_serving
//! ```

use std::error::Error;
use std::time::Instant;

use willump::{QueryMode, Willump, WillumpConfig};
use willump_models::metrics;
use willump_workloads::{WorkloadConfig, WorkloadKind};

fn main() -> Result<(), Box<dyn Error>> {
    let k = 100;
    let w = WorkloadKind::Credit.generate(&WorkloadConfig {
        n_test: 4_000,
        ..WorkloadConfig::default()
    })?;
    println!(
        "credit workload: find the top {k} highest-risk clients of {}",
        w.test.n_rows()
    );

    let opt = Willump::new(WillumpConfig {
        mode: QueryMode::TopK { k },
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)?;
    println!(
        "filter model deployed: {} (efficient IFVs {:?})",
        opt.report().filter_deployed,
        opt.report().efficient_set
    );

    // Exact: full model over the entire batch.
    let start = Instant::now();
    let feats = opt.executor().features_batch(&w.test, None)?;
    let exact_scores = opt.full_model().predict_scores(&feats);
    let exact = metrics::top_k_indices(&exact_scores, k);
    let exact_time = start.elapsed();

    // Filtered: filter model scores all, full model reranks survivors.
    let start = Instant::now();
    let (approx, stats) = opt.top_k(&w.test, k)?;
    let approx_time = start.elapsed();

    if let Some(s) = stats {
        println!(
            "filter kept {} of {} candidates for the full model",
            s.filter_kept.unwrap_or(0),
            s.filter_batch.unwrap_or(0)
        );
    }
    println!("\nexact:    {exact_time:>8.1?}");
    println!(
        "filtered: {approx_time:>8.1?}  ({:.1}x speedup)",
        exact_time.as_secs_f64() / approx_time.as_secs_f64()
    );
    println!(
        "precision {:.2}, mAP {:.2}",
        metrics::precision_at_k(&approx, &exact),
        metrics::mean_average_precision(&approx, &exact),
    );
    println!(
        "average default-risk of returned set: {:.4} (exact {:.4})",
        metrics::average_value(&approx, &exact_scores),
        metrics::average_value(&exact, &exact_scores),
    );
    Ok(())
}
