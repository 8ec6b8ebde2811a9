//! Table 3: average per-input latency on Music and Tracking with
//! remote tables under the same configurations as Table 2, plus the
//! unoptimized (interpreted) pipeline.
//!
//! As in `table2`, every optimized configuration is a lowered
//! `ServingPlan` run row-wise; the end-to-end cache rows compose
//! `with_e2e_cache` onto the plain compiled plan.
//!
//! Flags (mirroring `table6`):
//!
//! - `--smoke`: tiny workloads and input counts — a CI-speed sanity
//!   pass that also checks EXPERIMENTS.md carries this binary's
//!   schema header (never writes the file).
//! - `--record`: rewrite this binary's EXPERIMENTS.md section with
//!   the measured table.

use willump::{CachingConfig, QueryMode};
use willump_bench::{
    baseline, fmt_latency, format_table, generate_remote, optimize_level, per_input_latency,
    run_recorded_experiment, OptLevel,
};
use willump_workloads::WorkloadKind;

/// The schema header CI greps for in EXPERIMENTS.md; bump the version
/// when the recorded table shape changes.
const EXPERIMENTS_SCHEMA: &str = "<!-- schema: table3-per-input-latency v1 -->";
const RECORD_CMD: &str = "cargo run --release -p willump-bench --bin table3 -- --record";

fn latency_table(smoke: bool) -> String {
    let kinds = [WorkloadKind::Music, WorkloadKind::Tracking];
    let n = if smoke { 100 } else { 500 };
    let mut results: Vec<Vec<String>> = vec![
        vec!["Unoptimized".to_string()],
        vec!["End-to-end Caching + No Cascades".to_string()],
        vec!["Feature-Level Caching + No Cascades".to_string()],
        vec!["No Caching + Cascades".to_string()],
        vec!["Feature-Level Caching + Cascades".to_string()],
    ];

    for kind in kinds {
        let w = generate_remote(kind, smoke);

        let python = baseline(&w);
        let lat_unopt = per_input_latency(&w, n, |input| {
            python.predict_one(input).expect("prediction succeeds")
        });

        let plain = optimize_level(&w, OptLevel::Compiled, QueryMode::ExampleAtATime, None);
        let e2e = plain
            .serving_plan()
            .with_e2e_cache(w.source_columns(), None)
            .expect("cache composes onto the plain plan");
        let lat_e2e = per_input_latency(&w, n, |input| {
            e2e.predict_one(input).expect("prediction succeeds")
        });

        let feat = optimize_level(
            &w,
            OptLevel::Compiled,
            QueryMode::ExampleAtATime,
            Some(CachingConfig { capacity: None }),
        )
        .serving_plan();
        let lat_feat = per_input_latency(&w, n, |input| {
            feat.predict_one(input).expect("prediction succeeds")
        });

        let casc =
            optimize_level(&w, OptLevel::Cascades, QueryMode::ExampleAtATime, None).serving_plan();
        let lat_casc = per_input_latency(&w, n, |input| {
            casc.predict_one(input).expect("prediction succeeds")
        });

        let both = optimize_level(
            &w,
            OptLevel::Cascades,
            QueryMode::ExampleAtATime,
            Some(CachingConfig { capacity: None }),
        )
        .serving_plan();
        let lat_both = per_input_latency(&w, n, |input| {
            both.predict_one(input).expect("prediction succeeds")
        });

        for (row, lat) in results
            .iter_mut()
            .zip([lat_unopt, lat_e2e, lat_feat, lat_casc, lat_both])
        {
            row.push(fmt_latency(lat));
        }
    }

    format_table(
        "Table 3: average per-input latency (remote tables; effective = wall + simulated network)",
        &["configuration", "music", "tracking"],
        &results,
    )
}

fn main() {
    run_recorded_experiment(EXPERIMENTS_SCHEMA, RECORD_CMD, |smoke| {
        let table = latency_table(smoke);
        let body = format!(
            "Per-input latency per serving configuration (effective time =\n\
             wall + simulated network wait); optimized configurations are\n\
             lowered/composed `ServingPlan`s run row-wise.\n\
             Regenerate with `{RECORD_CMD}`.\n{table}"
        );
        (table, body)
    });
}
