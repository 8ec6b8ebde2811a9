//! Table 2: percent reduction in remote requests made by per-input
//! queries on Music and Tracking with remote tables, under four
//! optimization combinations (end-to-end caching, feature-level
//! caching, cascades, and feature caching + cascades).
//!
//! Every configuration is a lowered `ServingPlan`: the end-to-end
//! cache rows compose `with_e2e_cache` onto the plain compiled plan
//! instead of wrapping a bespoke cached predictor, and the cascade
//! rows run the cascade plan the optimizer lowered.
//!
//! Flags (mirroring `table6`):
//!
//! - `--smoke`: tiny workloads — a CI-speed sanity pass over the full
//!   code path that also checks EXPERIMENTS.md carries this binary's
//!   schema header (never writes the file).
//! - `--record`: rewrite this binary's EXPERIMENTS.md section with
//!   the measured table.

use willump::{CachingConfig, QueryMode, ServingPlan};
use willump_bench::{
    format_table, generate_remote, optimize_level, run_recorded_experiment, OptLevel,
};
use willump_graph::InputRow;
use willump_workloads::{Workload, WorkloadKind};

/// The schema header CI greps for in EXPERIMENTS.md; bump the version
/// when the recorded table shape changes.
const EXPERIMENTS_SCHEMA: &str = "<!-- schema: table2-remote-requests v1 -->";
const RECORD_CMD: &str = "cargo run --release -p willump-bench --bin table2 -- --record";

/// Serve the test set one input at a time through a plan, returning
/// the feature store's round trips.
fn serve_and_count(w: &Workload, plan: &ServingPlan) -> u64 {
    let store = w.store.clone().expect("lookup workload has a store");
    store.stats().reset();
    for r in 0..w.test.n_rows() {
        let input = InputRow::from_table(&w.test, r).expect("row in range");
        plan.predict_one(&input).expect("prediction succeeds");
    }
    store.stats().round_trips()
}

fn reduction(baseline: u64, observed: u64) -> String {
    format!("{:.1}%", 100.0 * (1.0 - observed as f64 / baseline as f64))
}

fn remote_request_table(smoke: bool) -> String {
    let kinds = [WorkloadKind::Music, WorkloadKind::Tracking];
    let mut results: Vec<Vec<String>> = vec![
        vec!["End-to-end Caching + No Cascades".to_string()],
        vec!["Feature-Level Caching + No Cascades".to_string()],
        vec!["No Caching + Cascades".to_string()],
        vec!["Feature-Level Caching + Cascades".to_string()],
    ];

    for kind in kinds {
        let w = generate_remote(kind, smoke);

        // Baseline: the plain compiled plan — no caching, no cascades.
        let plain = optimize_level(&w, OptLevel::Compiled, QueryMode::ExampleAtATime, None);
        let base_requests = serve_and_count(&w, &plain.serving_plan());

        // 1. End-to-end caching (Clipper-style): the same plan with
        //    cache_lookup/cache_fill stages composed around it.
        let e2e = plain
            .serving_plan()
            .with_e2e_cache(w.source_columns(), None)
            .expect("cache composes onto the plain plan");
        let e2e_requests = serve_and_count(&w, &e2e);

        // 2. Feature-level caching, no cascades (executor-level
        //    per-IFV caches; the plan is otherwise the plain one).
        let feat = optimize_level(
            &w,
            OptLevel::Compiled,
            QueryMode::ExampleAtATime,
            Some(CachingConfig { capacity: None }),
        );
        let feat_requests = serve_and_count(&w, &feat.serving_plan());

        // 3. Cascades, no caching: the lowered cascade plan.
        let casc = optimize_level(&w, OptLevel::Cascades, QueryMode::ExampleAtATime, None);
        let casc_requests = serve_and_count(&w, &casc.serving_plan());

        // 4. Feature-level caching + cascades.
        let both = optimize_level(
            &w,
            OptLevel::Cascades,
            QueryMode::ExampleAtATime,
            Some(CachingConfig { capacity: None }),
        );
        let both_requests = serve_and_count(&w, &both.serving_plan());

        results[0].push(reduction(base_requests, e2e_requests));
        results[1].push(reduction(base_requests, feat_requests));
        results[2].push(reduction(base_requests, casc_requests));
        results[3].push(reduction(base_requests, both_requests));
    }

    format_table(
        "Table 2: percent reduction in remote requests (per-input queries, remote tables)",
        &["configuration", "music", "tracking"],
        &results,
    )
}

fn main() {
    run_recorded_experiment(EXPERIMENTS_SCHEMA, RECORD_CMD, |smoke| {
        let table = remote_request_table(smoke);
        let body = format!(
            "Remote-request reduction per serving configuration; every\n\
             configuration is a lowered/composed `ServingPlan` run row-wise.\n\
             Regenerate with `{RECORD_CMD}`.\n{table}"
        );
        (table, body)
    });
}
