//! Figure 6: example-at-a-time latency of Python, Willump compilation,
//! and compilation + cascades on all six benchmarks (local tables).
//!
//! Flags:
//!
//! - `--smoke`: tiny workloads and input counts — a CI-speed sanity
//!   pass that also validates the committed EXPERIMENTS.md schema
//!   header (never rewrites the file).
//! - `--record`: re-measure at full experiment size and rewrite this
//!   binary's EXPERIMENTS.md section.

use willump::QueryMode;
use willump_bench::{
    baseline, fmt_latency, fmt_speedup, format_table, generate, generate_smoke, optimize_level,
    per_input_latency, run_recorded_experiment, OptLevel,
};
use willump_workloads::WorkloadKind;

/// The schema header CI greps for in EXPERIMENTS.md; bump the version
/// when the recorded table shape changes.
const EXPERIMENTS_SCHEMA: &str = "<!-- schema: fig6-per-input-latency v1 -->";
const RECORD_CMD: &str = "cargo run --release -p willump-bench --bin fig6 -- --record";

fn latency_table(smoke: bool) -> String {
    let n = if smoke { 40 } else { 400 };
    // The interpreted baseline's per-row latency is hundreds of
    // milliseconds on the text workloads; a small sample estimates
    // its mean stably without dominating the suite. Optimized
    // configurations are measured over the full `n`.
    let n_python = if smoke { 6 } else { 60 };
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = if smoke {
            generate_smoke(kind, false)
        } else {
            generate(kind, false)
        };

        let python = baseline(&w);
        let py_lat = per_input_latency(&w, n_python, |input| {
            python.predict_one(input).expect("baseline predicts")
        });

        let compiled = optimize_level(&w, OptLevel::Compiled, QueryMode::ExampleAtATime, None);
        let c_lat = per_input_latency(&w, n, |input| {
            compiled.predict_one(input).expect("compiled predicts")
        });

        let (casc_cell, casc_speedup) = if kind.is_classification() {
            let cascades = optimize_level(&w, OptLevel::Cascades, QueryMode::ExampleAtATime, None);
            let k_lat = per_input_latency(&w, n, |input| {
                cascades.predict_one(input).expect("cascade predicts")
            });
            (fmt_latency(k_lat), fmt_speedup(c_lat / k_lat))
        } else {
            ("N/A".to_string(), "N/A".to_string())
        };

        rows.push(vec![
            kind.name().to_string(),
            fmt_latency(py_lat),
            fmt_latency(c_lat),
            casc_cell,
            fmt_speedup(py_lat / c_lat),
            casc_speedup,
        ]);
    }
    format_table(
        "Figure 6: example-at-a-time latency, local tables",
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
        let table = latency_table(smoke);
        let body = format!(
            "Example-at-a-time latency at the three optimization levels \
             (paper Figure 6): regenerate with\n`{RECORD_CMD}`.\n\
             The interpreted baseline is timed on a 60-input sample; \
             optimized configurations run 400 inputs.\n{table}"
        );
        (table, body)
    });
}
