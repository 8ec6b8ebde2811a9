//! One input served row-wise (`PlanExecutor::run_row`, the
//! example-at-a-time path) computes its feature generators serially on
//! the calling thread, and hands the process's helper pool no job.
//!
//! The pool's threads (`willump-helper-*`) start with its first job, so
//! none is listed while nothing split. This file holds a single test
//! because every test in a process shares the pool.

use willump::{QueryMode, Willump, WillumpConfig};
use willump_graph::InputRow;
use willump_workloads::{WorkloadConfig, WorkloadKind};

/// The helper pool's threads listed for this process (the kernel keeps
/// 15 bytes of a name, so every helper reads `willump-helper-`).
fn helpers() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("willump-helper"))
        .collect()
}

#[test]
fn product_and_toxic_inputs_hand_the_pool_no_job() {
    for kind in [WorkloadKind::Product, WorkloadKind::Toxic] {
        let w = kind.generate(&WorkloadConfig::small()).expect("generates");
        let plan = Willump::new(WillumpConfig {
            mode: QueryMode::ExampleAtATime,
            ..WillumpConfig::default()
        })
        .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
        .expect("optimizes")
        .serving_plan();
        for r in 0..100 {
            let input = InputRow::from_table(&w.test, r).unwrap();
            plan.run_one(&input).expect("scores");
        }
        assert_eq!(helpers(), Vec::<String>::new(), "{kind:?}");
    }
}
