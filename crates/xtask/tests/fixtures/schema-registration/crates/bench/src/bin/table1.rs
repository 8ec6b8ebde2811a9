//! Healthy recording binary: schema registered and present in
//! EXPERIMENTS.md — contributes no violation.

const EXPERIMENTS_SCHEMA: &str = "<!-- schema: table1-good v2 -->";
const RECORD_CMD: &str = "cargo run --bin table1 -- --record";

fn main() {
    willump_bench::run_recorded_experiment(EXPERIMENTS_SCHEMA, RECORD_CMD, || {});
}
