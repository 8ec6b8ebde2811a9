//! The paper's motivating scenario (§1): a toxic-comment classifier
//! where curse words let an approximate model short-circuit most
//! inputs while expensive character-n-gram TF-IDF handles the rest.
//!
//! ```text
//! cargo run --release --example toxic_comments
//! ```

use std::error::Error;
use std::time::Instant;

use willump::{QueryMode, Willump, WillumpConfig};
use willump_models::metrics;
use willump_workloads::{WorkloadConfig, WorkloadKind};

fn main() -> Result<(), Box<dyn Error>> {
    // Generate the Toxic benchmark (synthetic Jigsaw-style comments).
    let w = WorkloadKind::Toxic.generate(&WorkloadConfig::default())?;
    println!(
        "generated {} train / {} test comments",
        w.train.n_rows(),
        w.test.n_rows()
    );

    // Unoptimized: interpreted execution, every feature computed for
    // every comment.
    let baseline = w.pipeline.fit_baseline(&w.train, &w.train_y, 42)?;
    let start = Instant::now();
    let base_scores = baseline.predict_batch(&w.test)?;
    let base_time = start.elapsed();

    // Willump-optimized with end-to-end cascades.
    let optimized = Willump::new(WillumpConfig {
        mode: QueryMode::Batch,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)?;

    let start = Instant::now();
    let (scores, stats) = optimized.predict_batch_with_stats(&w.test)?;
    let opt_time = start.elapsed();

    let report = optimized.report();
    println!("\nIFV statistics (importance / cost):");
    for (g, (imp, cost)) in report
        .ifv_stats
        .importance
        .iter()
        .zip(&report.ifv_stats.cost)
        .enumerate()
    {
        let marker = if report.efficient_set.contains(&g) {
            " <- efficient"
        } else {
            ""
        };
        println!(
            "  IFV {g}: importance {imp:.4}, cost {:.1}us/row{marker}",
            cost * 1e6
        );
    }
    if let Some(sel) = &report.threshold {
        println!(
            "cascade threshold {:.1} (full acc {:.4}, cascade acc {:.4} on validation)",
            sel.threshold, sel.full_accuracy, sel.cascade_accuracy
        );
    }
    if optimized.cascade().is_some() {
        let rows = stats.gate_resolved + stats.escalated;
        println!(
            "small model resolved {}/{rows} comments ({:.0}%)",
            stats.gate_resolved,
            100.0 * stats.gate_resolved as f64 / rows.max(1) as f64
        );
    }
    println!(
        "\nbaseline:  {base_time:>8.1?}  accuracy {:.4}",
        metrics::accuracy(&base_scores, &w.test_y)
    );
    println!(
        "optimized: {opt_time:>8.1?}  accuracy {:.4}  ({:.1}x end-to-end speedup)",
        metrics::accuracy(&scores, &w.test_y),
        base_time.as_secs_f64() / opt_time.as_secs_f64()
    );
    Ok(())
}
