//! Cascade threshold tuning: the throughput-vs-accuracy tradeoff of
//! end-to-end cascades (the scenario behind paper Figure 7).
//!
//! We optimize the Toxic workload with cascades forced on, then sweep
//! the cascade threshold from "trust the small model completely" to
//! "escalate everything" and print throughput, accuracy, and the
//! fraction of inputs resolved by the small model at each setting.
//!
//! ```text
//! cargo run --release --example cascade_tuning
//! ```

use std::error::Error;
use std::time::Instant;

use willump::{Willump, WillumpConfig};
use willump_models::metrics;
use willump_workloads::{WorkloadConfig, WorkloadKind};

fn main() -> Result<(), Box<dyn Error>> {
    let w = WorkloadKind::Toxic.generate(&WorkloadConfig::default())?;

    // Force cascade deployment (no economic gate) so the sweep always
    // has a cascade to tune, as the paper's Figure 7 sweep does.
    let mut optimized = Willump::new(WillumpConfig {
        cascade_gate: false,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)?;

    let report = optimized.report().clone();
    println!("workload: toxic");
    println!("efficient IFVs: {:?}", report.efficient_set);
    if let Some(sel) = &report.threshold {
        println!(
            "selected threshold: {:.1} (kept fraction {:.2})\n",
            sel.threshold, sel.kept_fraction
        );
    }

    // Full-model reference accuracy.
    let full_feats = optimized.executor().features_batch(&w.test, None)?;
    let full_acc = metrics::accuracy(
        &optimized.full_model().predict_scores(&full_feats),
        &w.test_y,
    );

    println!(
        "{:>9} {:>14} {:>10} {:>12} {:>12}",
        "threshold", "rows/s", "accuracy", "vs full", "small-model%"
    );
    for t in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let cascade = optimized
            .cascade_mut()
            .expect("cascade deployed with gate off");
        cascade.set_threshold(t);

        let start = Instant::now();
        let (scores, stats) = optimized.predict_batch_with_stats(&w.test)?;
        let secs = start.elapsed().as_secs_f64();

        let acc = metrics::accuracy(&scores, &w.test_y);
        println!(
            "{:>9.1} {:>14.0} {:>10.4} {:>+11.4} {:>11.1}%",
            t,
            w.test.n_rows() as f64 / secs,
            acc,
            acc - full_acc,
            100.0 * stats.gate_resolved as f64 / (stats.gate_resolved + stats.escalated) as f64,
        );
    }

    println!(
        "\nLow thresholds trust the small model on hard inputs and lose \
         accuracy; high thresholds escalate almost everything and lose \
         throughput. Willump picks the lowest threshold whose validation \
         accuracy stays within the configured target of the full model \
         (paper §4.2)."
    );
    Ok(())
}
