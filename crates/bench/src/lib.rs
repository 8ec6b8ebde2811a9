//! # willump-bench
//!
//! Shared harness for the experiment binaries that regenerate every
//! table and figure of the Willump paper's evaluation (§6). Each
//! binary prints a paper-shaped table; `EXPERIMENTS.md` records the
//! measured output next to the paper's numbers.
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run -p willump-bench --release --bin fig5
//! ```
//!
//! Timing convention: every measurement reports *effective* time =
//! wall-clock time plus any simulated network wait charged to the
//! workload's virtual clock (see `willump-store::SimClock`), so local
//! and remote configurations are directly comparable.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod loadgen;

use std::time::Instant;

use willump::{CachingConfig, OptimizedPipeline, QueryMode, Willump, WillumpConfig};
use willump_data::Table;
use willump_graph::InputRow;
use willump_serve::{table_row_to_wire, ServingRuntime, WireRow};
use willump_workloads::{Workload, WorkloadConfig, WorkloadKind};

/// Default experiment sizes (larger than unit-test sizes, small enough
/// to finish a full `cargo bench` run in minutes).
pub fn experiment_config() -> WorkloadConfig {
    WorkloadConfig {
        n_train: 2_000,
        n_valid: 1_000,
        n_test: 2_000,
        seed: 42,
        remote: None,
    }
}

/// The three optimization levels of paper Figures 5 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// Original interpreted pipeline ("Python").
    Python,
    /// Compiled engine, no statistically-aware optimizations
    /// ("Willump Compilation").
    Compiled,
    /// Compiled engine plus end-to-end cascades
    /// ("Willump Compilation + Cascades").
    Cascades,
}

impl OptLevel {
    /// Column label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Python => "Python",
            OptLevel::Compiled => "Compilation",
            OptLevel::Cascades => "Compilation+Cascades",
        }
    }
}

/// Virtual-clock nanos for a workload (0 when no store).
pub fn virtual_nanos(w: &Workload) -> u64 {
    w.store.as_ref().map_or(0, |s| s.clock().now_nanos())
}

/// Measure effective seconds (wall + virtual) of a closure.
pub fn effective_seconds<T>(w: &Workload, f: impl FnOnce() -> T) -> (f64, T) {
    let v0 = virtual_nanos(w);
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let v1 = virtual_nanos(w);
    (wall + (v1 - v0) as f64 / 1e9, out)
}

/// Optimize a workload at a given level, with optional overrides.
///
/// # Panics
/// Panics on optimization failure (experiment binaries fail loudly).
pub fn optimize_level(
    w: &Workload,
    level: OptLevel,
    mode: QueryMode,
    caching: Option<CachingConfig>,
) -> OptimizedPipeline {
    assert_ne!(level, OptLevel::Python, "Python level has no optimizer");
    let cfg = WillumpConfig {
        cascades: level == OptLevel::Cascades,
        mode,
        caching,
        ..WillumpConfig::default()
    };
    Willump::new(cfg)
        .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
        .expect("optimization succeeds")
}

/// Train the interpreted baseline.
///
/// # Panics
/// Panics on training failure.
pub fn baseline(w: &Workload) -> willump::BaselinePipeline {
    w.pipeline
        .fit_baseline(&w.train, &w.train_y, 42)
        .expect("baseline training succeeds")
}

/// Batch throughput (rows/s, effective time) of a closure processing
/// the workload's test set `reps` times.
pub fn batch_throughput(w: &Workload, reps: usize, mut f: impl FnMut()) -> f64 {
    // Warm-up run (populates lazily-initialized state).
    f();
    let (secs, ()) = effective_seconds(w, || {
        for _ in 0..reps {
            f();
        }
    });
    (w.test.n_rows() * reps) as f64 / secs
}

/// The first `max_rows` of the workload's test set, for bounded-cost
/// measurements of the interpreted baseline (see
/// [`python_sample_rows`]).
pub fn test_sample(w: &Workload, max_rows: usize) -> willump_data::Table {
    let idx: Vec<usize> = (0..w.test.n_rows().min(max_rows)).collect();
    w.test.take_rows(&idx)
}

/// Sample size used when timing the interpreted ("Python") baseline on
/// batch queries. The interpreted engine's row-at-a-time text
/// featurization is 2–3 orders of magnitude slower than the compiled
/// engine, so timing it over the full test set would dominate the
/// entire experiment suite; throughput and latency are per-row rates,
/// and a few hundred rows estimate them stably (EXPERIMENTS.md notes
/// this). Optimized configurations are always measured on the full
/// test set.
pub const PYTHON_SAMPLE_ROWS: usize = 300;

/// Convenience: `PYTHON_SAMPLE_ROWS` as a function for binaries.
pub fn python_sample_rows() -> usize {
    PYTHON_SAMPLE_ROWS
}

/// Batch throughput (rows/s, effective time) of a closure processing
/// an explicit `n_rows`-row table once per rep, with one warm-up call.
pub fn batch_throughput_rows(w: &Workload, n_rows: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let (secs, ()) = effective_seconds(w, || {
        for _ in 0..reps {
            f();
        }
    });
    (n_rows * reps) as f64 / secs
}

/// Mean per-input latency (seconds, effective time) over the first
/// `n` test rows.
///
/// # Panics
/// Panics if prediction fails.
pub fn per_input_latency(w: &Workload, n: usize, mut predict: impl FnMut(&InputRow) -> f64) -> f64 {
    let n = n.min(w.test.n_rows());
    let inputs: Vec<InputRow> = (0..n)
        .map(|r| InputRow::from_table(&w.test, r).expect("row in range"))
        .collect();
    // Warm-up on one input.
    let _ = predict(&inputs[0]);
    let (secs, ()) = effective_seconds(w, || {
        for input in &inputs {
            let _ = predict(input);
        }
    });
    secs / n as f64
}

/// Where the benchmark-trajectory capture lives, relative to the
/// working directory the experiment binaries run from (the repository
/// root under `cargo run`).
pub const EXPERIMENTS_PATH: &str = "EXPERIMENTS.md";

/// Preamble written when EXPERIMENTS.md does not exist yet.
const EXPERIMENTS_PREAMBLE: &str = "# EXPERIMENTS\n\n\
Benchmark-trajectory capture (ROADMAP item). Each section below is\n\
recorded by one experiment binary's `--record` flag, delimited by its\n\
`<!-- schema: ... -->` marker, and schema-checked by that binary's\n\
`--smoke` run in CI. Re-recording one binary leaves the other\n\
sections untouched.\n";

/// Pure section-replacement: a section spans from its
/// `<!-- schema: ... -->` marker line to the next marker (or EOF).
/// Replaces the `schema` section's content with `body`, or appends a
/// new section when the marker is absent.
fn upsert_section(existing: &str, schema: &str, body: &str) -> String {
    let section = format!("{schema}\n\n{}\n", body.trim_matches('\n'));
    let mut out = String::new();
    let mut replaced = false;
    let mut skipping = false;
    for line in existing.lines() {
        let is_marker = line.trim_start().starts_with("<!-- schema:");
        if is_marker {
            if line.trim() == schema {
                // The blank line that separated the old section from
                // the next marker is inside the skipped span, so emit
                // a fresh one to keep re-records byte-stable.
                out.push_str(&section);
                out.push('\n');
                replaced = true;
                skipping = true;
                continue;
            }
            skipping = false;
        }
        if !skipping {
            out.push_str(line);
            out.push('\n');
        }
    }
    if !replaced {
        while !out.is_empty() && !out.ends_with("\n\n") {
            out.push('\n');
        }
        out.push_str(&section);
    }
    // A replaced final section would otherwise leave a trailing blank.
    while out.ends_with("\n\n") {
        out.pop();
    }
    out
}

/// Record one experiment's section of `EXPERIMENTS.md`, preserving
/// every other binary's section (a section spans from its
/// `<!-- schema: ... -->` marker to the next marker or EOF, and is
/// replaced in place; a new marker appends).
///
/// # Panics
/// Panics when the file cannot be written.
pub fn record_experiments_section(schema: &str, body: &str) {
    let existing = std::fs::read_to_string(EXPERIMENTS_PATH)
        .unwrap_or_else(|_| EXPERIMENTS_PREAMBLE.to_string());
    std::fs::write(EXPERIMENTS_PATH, upsert_section(&existing, schema, body))
        .expect("write EXPERIMENTS.md");
    println!("\nrecorded section {schema} -> {EXPERIMENTS_PATH}");
}

/// Every recording binary's `(schema header, record command)` pair —
/// the registry audited by `xtask lint` rule WL004
/// (schema-registration): every recording binary's schema must be
/// listed here, every entry must map to a live binary, and every
/// registered section must exist in the committed EXPERIMENTS.md. A
/// binary whose schema constant drifts from this table also fails its
/// own `--smoke` run (see [`run_recorded_experiment`]), so the
/// registry cannot silently go stale.
pub const RECORDED_SCHEMAS: &[(&str, &str)] = &[
    (
        "<!-- schema: micro-treekernel v1 -->",
        "cargo run --release -p willump-bench --bin micro -- --record",
    ),
    (
        "<!-- schema: table2-remote-requests v1 -->",
        "cargo run --release -p willump-bench --bin table2 -- --record",
    ),
    (
        "<!-- schema: table3-per-input-latency v1 -->",
        "cargo run --release -p willump-bench --bin table3 -- --record",
    ),
    (
        "<!-- schema: table6-serving-sweep v3 -->",
        "cargo run --release -p willump-bench --bin table6 -- --record",
    ),
    (
        "<!-- schema: table7-topk-subset v1 -->",
        "cargo run --release -p willump-bench --bin table7 -- --record",
    ),
    (
        "<!-- schema: table8-ifv-strategies v1 -->",
        "cargo run --release -p willump-bench --bin table8 -- --record",
    ),
    (
        "<!-- schema: table9-admission-overload v1 -->",
        "cargo run --release -p willump-bench --bin table9 -- --record",
    ),
    (
        "<!-- schema: table10-cluster-recovery v1 -->",
        "cargo run --release -p willump-bench --bin table10 -- --record",
    ),
    (
        "<!-- schema: table11-streaming v1 -->",
        "cargo run --release -p willump-bench --bin table11 -- --record",
    ),
    (
        "<!-- schema: fig5-batch-throughput v1 -->",
        "cargo run --release -p willump-bench --bin fig5 -- --record",
    ),
    (
        "<!-- schema: fig6-per-input-latency v1 -->",
        "cargo run --release -p willump-bench --bin fig6 -- --record",
    ),
    (
        "<!-- schema: fig7-threshold-sweep v1 -->",
        "cargo run --release -p willump-bench --bin fig7 -- --record",
    ),
    (
        "<!-- schema: fig8-parallel-speedup v1 -->",
        "cargo run --release -p willump-bench --bin fig8 -- --record",
    ),
];

/// The CI smoke check: the committed EXPERIMENTS.md must carry the
/// schema marker this binary records (single source of truth is the
/// binary's schema constant — bump both together).
///
/// # Panics
/// Panics when the file is missing or lacks the marker.
pub fn assert_experiments_schema(schema: &str, record_cmd: &str) {
    let recorded = std::fs::read_to_string(EXPERIMENTS_PATH)
        .unwrap_or_else(|_| panic!("EXPERIMENTS.md missing; run `{record_cmd}` and commit it"));
    assert!(
        recorded.contains(schema),
        "EXPERIMENTS.md lacks schema header {schema:?}; re-record with `{record_cmd}`"
    );
    println!("\nEXPERIMENTS.md schema header OK: {schema}");
}

/// The whole `--smoke`/`--record` workflow every recording binary
/// shares: parse the flags, run the measurement (`run(smoke)` returns
/// the printed output and the full EXPERIMENTS.md section body),
/// print it, validate the committed schema header on `--smoke`, and
/// rewrite this binary's section on `--record`. Keeping the flag
/// semantics here means a workflow change edits one function, not ten
/// `main`s. (Registry-wide validation — every registered section
/// present in EXPERIMENTS.md, no stale entries — lives in `xtask
/// lint` rule WL004, which subsumed the old `--check-schemas` mode.)
///
/// # Panics
/// Panics on unknown flags, a schema constant missing from
/// [`RECORDED_SCHEMAS`], a missing/stale schema header during
/// `--smoke`, or an unwritable EXPERIMENTS.md during `--record`.
pub fn run_recorded_experiment(
    schema: &str,
    record_cmd: &str,
    run: impl FnOnce(bool) -> (String, String),
) {
    assert!(
        RECORDED_SCHEMAS.iter().any(|(s, _)| *s == schema),
        "schema {schema:?} is not in RECORDED_SCHEMAS; register it so \
         `xtask lint` (WL004) covers this binary"
    );
    let flags = experiment_flags();
    let (output, record_body) = run(flags.smoke);
    print!("{output}");
    if flags.smoke {
        assert_experiments_schema(schema, record_cmd);
    }
    if flags.record && !flags.smoke {
        record_experiments_section(schema, &record_body);
    }
}

/// Parsed command-line flags shared by every recording experiment
/// binary (see [`experiment_flags`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExperimentFlags {
    /// `--smoke`: tiny CI-speed pass + schema-header assertion.
    pub smoke: bool,
    /// `--record`: rewrite this binary's EXPERIMENTS.md section.
    pub record: bool,
}

/// Parse the `--smoke` / `--record` flags every recording experiment
/// binary shares; panics on unknown arguments.
pub fn experiment_flags() -> ExperimentFlags {
    let mut flags = ExperimentFlags::default();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => flags.smoke = true,
            "--record" => flags.record = true,
            other => panic!("unknown flag {other}; supported: --smoke --record"),
        }
    }
    flags
}

/// Render a markdown table (title as an `##` heading, aligned cells).
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let mut out = format!("\n## {title}\n\n");
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Pretty-print a markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", format_table(title, headers, rows));
}

/// Format a throughput as `12.3K rows/s`-style strings.
pub fn fmt_throughput(rows_per_sec: f64) -> String {
    if rows_per_sec >= 1e6 {
        format!("{:.2}M", rows_per_sec / 1e6)
    } else if rows_per_sec >= 1e3 {
        format!("{:.1}K", rows_per_sec / 1e3)
    } else {
        format!("{rows_per_sec:.0}")
    }
}

/// Format a latency in adaptive units.
pub fn fmt_latency(seconds: f64) -> String {
    if seconds >= 1e-3 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{:.0}us", seconds * 1e6)
    }
}

/// Format a speedup factor.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.1}x")
}

/// Serving throughput (rows/s, wall-clock) through a
/// [`ServingRuntime`] under `clients` closed-loop concurrent client
/// threads, each sending `reqs` requests of `batch` rows drawn
/// cyclically from `test` at a per-client offset. Requests address
/// `endpoint` when given (`None` measures the default endpoint).
/// Request payloads are built into wire rows before the clock starts
/// and each client sends one warm-up request, so the measurement
/// covers the serving boundary (admission, routing, queueing,
/// batching, prediction), not test-harness setup.
///
/// # Panics
/// Panics if serving fails or `test` is empty.
pub fn serving_throughput(
    runtime: &ServingRuntime,
    endpoint: Option<&str>,
    test: &Table,
    batch: usize,
    clients: usize,
    reqs: usize,
) -> f64 {
    let n = test.n_rows();
    assert!(n > 0, "empty test table");
    let per_client: Vec<Vec<Vec<WireRow>>> = (0..clients)
        .map(|c| {
            (0..reqs)
                .map(|r| {
                    (0..batch)
                        .map(|i| {
                            table_row_to_wire(test, (c * 7919 + r * batch + i) % n).expect("row")
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let barrier = std::sync::Barrier::new(clients + 1);
    let start = std::thread::scope(|s| {
        for requests in &per_client {
            let client = runtime.client();
            let barrier = &barrier;
            let send = move |rows: Vec<WireRow>| match endpoint {
                Some(name) => client.predict_endpoint(name, rows),
                None => client.predict(rows),
            };
            s.spawn(move || {
                send(requests[0].clone()).expect("warm-up succeeds");
                barrier.wait();
                for rows in requests {
                    send(rows.clone()).expect("serving succeeds");
                }
            });
        }
        barrier.wait();
        Instant::now()
    });
    // scope joins every client before returning, so `start.elapsed()`
    // spans exactly the post-warm-up request storm.
    (clients * reqs * batch) as f64 / start.elapsed().as_secs_f64()
}

/// Generate one workload at experiment size.
///
/// # Panics
/// Panics on generation failure.
pub fn generate(kind: WorkloadKind, remote: bool) -> Workload {
    let mut cfg = experiment_config();
    if remote {
        cfg = cfg.with_remote_tables();
    }
    kind.generate(&cfg).expect("workload generates")
}

/// The shared tiny workload config every `--smoke` binary uses.
fn smoke_config() -> WorkloadConfig {
    WorkloadConfig {
        n_train: 300,
        n_valid: 150,
        n_test: 200,
        seed: 42,
        remote: None,
    }
}

/// Generate one workload at the shared CI-speed smoke size,
/// optionally with remote tables (shared by every recording binary's
/// `--smoke` pass).
///
/// # Panics
/// Panics on generation failure.
pub fn generate_smoke(kind: WorkloadKind, remote: bool) -> Workload {
    let mut cfg = smoke_config();
    if remote {
        cfg = cfg.with_remote_tables();
    }
    kind.generate(&cfg).expect("workload generates")
}

/// Generate a remote-tables workload at experiment size, or at a tiny
/// smoke size for CI-speed passes (shared by the `table2`/`table3`
/// recording binaries).
///
/// # Panics
/// Panics on generation failure.
pub fn generate_remote(kind: WorkloadKind, smoke: bool) -> Workload {
    let base = if smoke {
        smoke_config()
    } else {
        experiment_config()
    };
    kind.generate(&base.with_remote_tables())
        .expect("workload generates")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_throughput(1_500_000.0), "1.50M");
        assert_eq!(fmt_throughput(12_300.0), "12.3K");
        assert_eq!(fmt_throughput(42.0), "42");
        assert_eq!(fmt_latency(0.0042), "4.20ms");
        assert_eq!(fmt_latency(55e-6), "55us");
        assert_eq!(fmt_speedup(3.17), "3.2x");
    }

    #[test]
    fn effective_time_includes_virtual_wait() {
        // Small config: this only exercises the clock accounting.
        let cfg = WorkloadConfig {
            n_train: 200,
            n_valid: 100,
            n_test: 100,
            ..WorkloadConfig::default()
        }
        .with_remote_tables();
        let w = WorkloadKind::Music.generate(&cfg).expect("generates");
        let store = w.store.clone().unwrap();
        let (secs, ()) = effective_seconds(&w, || {
            store.clock().advance(50_000_000); // 50ms of virtual wait
        });
        assert!(secs >= 0.05, "effective {secs}");
    }

    #[test]
    fn upsert_section_replaces_and_appends() {
        let s1 = "<!-- schema: alpha v1 -->";
        let s2 = "<!-- schema: beta v1 -->";
        // Append to a fresh preamble.
        let one = upsert_section("# EXPERIMENTS\n", s1, "alpha body\n");
        assert!(one.starts_with("# EXPERIMENTS\n"));
        assert!(one.contains("alpha body"));
        // Append a second section; the first survives.
        let two = upsert_section(&one, s2, "beta body");
        assert!(two.contains("alpha body") && two.contains("beta body"));
        // Replace the first section only.
        let three = upsert_section(&two, s1, "alpha v2 body");
        assert!(!three.contains("alpha body\n"), "{three}");
        assert!(three.contains("alpha v2 body") && three.contains("beta body"));
        // Section order is stable and markers appear exactly once.
        assert_eq!(three.matches(s1).count(), 1);
        assert_eq!(three.matches(s2).count(), 1);
        assert!(three.find(s1).unwrap() < three.find(s2).unwrap());
        // Re-recording identical content is byte-stable, for every
        // section position (middle and last).
        assert_eq!(upsert_section(&three, s1, "alpha v2 body"), three);
        assert_eq!(upsert_section(&three, s2, "beta body"), three);
    }

    #[test]
    fn recorded_schema_registry_is_consistent() {
        let mut seen = std::collections::HashSet::new();
        for (schema, cmd) in RECORDED_SCHEMAS {
            assert!(
                schema.starts_with("<!-- schema: ") && schema.ends_with(" -->"),
                "malformed marker {schema:?}"
            );
            assert!(seen.insert(schema), "duplicate schema {schema:?}");
            // Each record command targets the binary the schema names.
            let bin = schema
                .trim_start_matches("<!-- schema: ")
                .split('-')
                .next()
                .unwrap();
            assert!(
                cmd.contains(&format!("--bin {bin} ")) && cmd.ends_with("--record"),
                "command {cmd:?} does not record {bin}"
            );
        }
    }

    #[test]
    fn levels_have_labels() {
        assert_eq!(OptLevel::Python.label(), "Python");
        assert_eq!(OptLevel::Cascades.label(), "Compilation+Cascades");
    }

    #[test]
    fn test_sample_bounds_rows() {
        let cfg = WorkloadConfig {
            n_train: 200,
            n_valid: 100,
            n_test: 50,
            ..WorkloadConfig::default()
        };
        let w = WorkloadKind::Product.generate(&cfg).expect("generates");
        assert_eq!(test_sample(&w, 10).n_rows(), 10);
        // Caps at the test set size when the sample is larger.
        assert_eq!(test_sample(&w, 500).n_rows(), 50);
        const { assert!(PYTHON_SAMPLE_ROWS >= 100, "sample must stay meaningful") };
    }
}
