//! Figure 5: batch-query throughput of Python, Willump compilation,
//! and compilation + cascades on all six benchmarks (local tables).
//!
//! Flags:
//!
//! - `--smoke`: tiny workloads and a single rep — a CI-speed sanity
//!   pass over the full code path that also validates the committed
//!   EXPERIMENTS.md schema header (never rewrites the file).
//! - `--record`: re-measure at full experiment size and rewrite this
//!   binary's EXPERIMENTS.md section.

use willump::QueryMode;
use willump_bench::{
    baseline, batch_throughput, batch_throughput_rows, fmt_speedup, fmt_throughput, format_table,
    generate, generate_smoke, optimize_level, run_recorded_experiment, test_sample, OptLevel,
    PYTHON_SAMPLE_ROWS,
};
use willump_workloads::WorkloadKind;

/// The schema header CI greps for in EXPERIMENTS.md; bump the version
/// when the recorded table shape changes.
const EXPERIMENTS_SCHEMA: &str = "<!-- schema: fig5-batch-throughput v1 -->";
const RECORD_CMD: &str = "cargo run --release -p willump-bench --bin fig5 -- --record";

fn throughput_table(smoke: bool) -> String {
    let reps = if smoke { 1 } else { 3 };
    let py_rows = if smoke { 40 } else { PYTHON_SAMPLE_ROWS };
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let t0 = std::time::Instant::now();
        let w = if smoke {
            generate_smoke(kind, false)
        } else {
            generate(kind, false)
        };
        eprintln!(
            "[fig5] {} generated ({:.0}s)",
            kind.name(),
            t0.elapsed().as_secs_f64()
        );

        // The interpreted baseline is timed on a bounded sample (see
        // PYTHON_SAMPLE_ROWS); throughput is a per-row rate.
        let python = baseline(&w);
        let py_sample = test_sample(&w, py_rows);
        let py_tp = batch_throughput_rows(&w, py_sample.n_rows(), 1, || {
            python.predict_batch(&py_sample).expect("baseline predicts");
        });
        eprintln!(
            "[fig5] {} python done ({:.0}s)",
            kind.name(),
            t0.elapsed().as_secs_f64()
        );

        let compiled = optimize_level(&w, OptLevel::Compiled, QueryMode::Batch, None);
        let c_tp = batch_throughput(&w, reps, || {
            compiled.predict_batch(&w.test).expect("compiled predicts");
        });
        eprintln!(
            "[fig5] {} compiled done ({:.0}s)",
            kind.name(),
            t0.elapsed().as_secs_f64()
        );

        let (casc_cell, casc_speedup) = if kind.is_classification() {
            let cascades = optimize_level(&w, OptLevel::Cascades, QueryMode::Batch, None);
            let k_tp = batch_throughput(&w, reps, || {
                cascades.predict_batch(&w.test).expect("cascade predicts");
            });
            (fmt_throughput(k_tp), fmt_speedup(k_tp / c_tp))
        } else {
            ("N/A".to_string(), "N/A".to_string())
        };
        eprintln!(
            "[fig5] {} finished ({:.0}s)",
            kind.name(),
            t0.elapsed().as_secs_f64()
        );

        rows.push(vec![
            kind.name().to_string(),
            fmt_throughput(py_tp),
            fmt_throughput(c_tp),
            casc_cell,
            fmt_speedup(c_tp / py_tp),
            casc_speedup,
        ]);
    }
    format_table(
        "Figure 5: batch throughput (rows/s), local tables",
        &[
            "benchmark",
            "python",
            "compiled",
            "compiled+cascades",
            "compile speedup",
            "cascade speedup",
        ],
        &rows,
    )
}

fn main() {
    run_recorded_experiment(EXPERIMENTS_SCHEMA, RECORD_CMD, |smoke| {
        let table = throughput_table(smoke);
        let body = format!(
            "Batch-query throughput at the three optimization levels \
             (paper Figure 5): regenerate with\n`{RECORD_CMD}`.\n\
             The interpreted baseline is timed on a \
             {PYTHON_SAMPLE_ROWS}-row sample (throughput is a per-row \
             rate); optimized\nconfigurations run the full test set.\
             \n{table}"
        );
        (table, body)
    });
}
