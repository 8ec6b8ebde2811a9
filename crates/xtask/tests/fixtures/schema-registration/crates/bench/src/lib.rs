//! WL004 fixture registry: `table1` is healthy (at v2; the fixture's
//! EXPERIMENTS.md still carries its superseded v1 block — one
//! violation), `table9-stale` is registered but declared by no binary
//! (and absent from EXPERIMENTS.md) — two more violations come from
//! here.

pub const RECORDED_SCHEMAS: &[(&str, &str)] = &[
    (
        "<!-- schema: table1-good v2 -->",
        "cargo run --bin table1 -- --record",
    ),
    (
        "<!-- schema: table9-stale v1 -->",
        "cargo run --bin table9 -- --record",
    ),
];

pub fn run_recorded_experiment(_schema: &str, _cmd: &str, run: impl FnOnce()) {
    run();
}
