//! Table 9 (repo extension): statistically-aware admission control
//! under open-loop Poisson overload.
//!
//! An open-loop generator offers Poisson traffic at 0.5x, 1x, and 2x
//! of an endpoint's nominal service capacity, against two otherwise
//! identical runtimes: one plain, one with an [`AdmissionPolicy`]
//! (degrade to the small-model plan form past the SLO, shed past
//! `shed_factor` x SLO). Latency is measured from each request's
//! *scheduled* arrival time — not its send time — so queue-induced
//! send delay counts (no coordinated omission).
//!
//! Flags (mirroring the other recording binaries):
//!
//! - `--smoke`: tiny CI-speed sweep + EXPERIMENTS.md schema check.
//! - `--record`: rewrite this binary's EXPERIMENTS.md section.
//!
//! (Registry-wide section validation lives in `cargo run -p xtask --
//! lint`, rule WL004, which replaced the old `--check-schemas` mode.)

use std::sync::Arc;
use std::time::Duration;

use willump_bench::loadgen::{open_loop, poisson_schedule, CallOutcome, LoadReport};
use willump_bench::{format_table, run_recorded_experiment};
use willump_data::{Table, Value};
use willump_serve::{AdmissionPolicy, Request, Servable, ServerConfig, ServingRuntime, WireRow};

/// The schema header CI greps for in EXPERIMENTS.md; bump the version
/// when the recorded table shape changes.
const EXPERIMENTS_SCHEMA: &str = "<!-- schema: table9-admission-overload v1 -->";
const RECORD_CMD: &str = "cargo run --release -p willump-bench --bin table9 -- --record";

/// Per-request full service time: 5 ms (long against scheduler wake
/// jitter), so two workers give a nominal capacity of 400 rows/s and
/// the load multipliers below are honest.
const SERVICE: Duration = Duration::from_millis(5);
/// The degraded (small-model) form answers 5x faster.
const DEGRADED_SERVICE: Duration = Duration::from_millis(1);
/// Target p99 SLO handed to the admission policy.
const SLO: Duration = Duration::from_millis(25);
const WORKERS: usize = 2;
const SHARDS: usize = 2;

/// A predictor with a fixed, known service time (score = 2x).
struct FixedService(Duration);
impl Servable for FixedService {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        std::thread::sleep(self.0);
        let xs = table
            .column("x")
            .ok_or_else(|| "missing x".to_string())?
            .to_f64_vec()
            .map_err(|e| e.to_string())?;
        Ok(xs.into_iter().map(|x| 2.0 * x).collect())
    }
}

/// One runtime per sweep cell, so queue state never leaks between
/// cells. Coalescing is off: every request pays the full service
/// time, keeping the nominal capacity exact.
fn build_runtime(admission: bool) -> ServingRuntime {
    let mut b = ServingRuntime::builder();
    b.config(
        ServerConfig::builder()
            .workers(WORKERS)
            .coalesce(false)
            .build(),
    );
    if admission {
        b.admission(
            AdmissionPolicy::with_slo_p99(SLO)
                .shed_factor(2.0)
                .min_samples(16),
        );
    }
    b.endpoint("model", Arc::new(FixedService(SERVICE)))
        .shards(SHARDS)
        .degraded_servable(Arc::new(FixedService(DEGRADED_SERVICE)));
    b.build().expect("runtime builds")
}

fn one_row(x: f64) -> Vec<WireRow> {
    vec![vec![("x".to_string(), Value::Float(x))]]
}

/// Drive one open-loop cell through the shared generator
/// ([`willump_bench::loadgen`]): one `Sync` client is shared by every
/// sender thread; shed responses map to [`CallOutcome::Shed`] and
/// contribute no latency sample (nothing was served).
fn run_cell(runtime: &ServingRuntime, arrivals: &[f64], threads: usize) -> LoadReport {
    let client = runtime.client();
    let report = open_loop(arrivals, threads, |i| {
        let resp = client
            .call(Request {
                endpoint: Some("model".to_string()),
                ..Request::new(i as u64, one_row(i as f64))
            })
            .expect("serving succeeds");
        if resp.overloaded {
            CallOutcome::Shed
        } else {
            assert!(resp.error.is_none(), "unexpected error: {:?}", resp.error);
            CallOutcome::Served
        }
    });
    assert_eq!(report.errors, 0, "every response was checked above");
    report
}

fn fmt_ms(seconds: f64) -> String {
    format!("{:.1}ms", seconds * 1e3)
}

fn sweep(smoke: bool) -> (String, String) {
    let capacity = WORKERS as f64 / SERVICE.as_secs_f64();
    let (multipliers, duration, threads): (&[f64], f64, usize) = if smoke {
        (&[0.5, 2.0], 0.25, 32)
    } else {
        (&[0.5, 1.0, 2.0], 2.0, 128)
    };

    let mut rows = Vec::new();
    let mut worst: Option<(f64, f64)> = None; // (plain p99, admission p99)
    for &mult in multipliers {
        let rate = capacity * mult;
        let n = (rate * duration).ceil() as usize;
        let mut pair = (0.0, 0.0);
        for admission in [false, true] {
            let runtime = build_runtime(admission);
            let arrivals = poisson_schedule(rate, n, 42 + mult as u64);
            let cell = run_cell(&runtime, &arrivals, threads);
            if admission {
                pair.1 = cell.p99();
            } else {
                pair.0 = cell.p99();
            }
            rows.push(vec![
                format!("{mult}x"),
                if admission { "on" } else { "off" }.to_string(),
                cell.served.to_string(),
                cell.shed.to_string(),
                runtime.stats().degraded().to_string(),
                fmt_ms(cell.p50()),
                fmt_ms(cell.p99()),
            ]);
        }
        worst = Some(pair);
    }

    // THE acceptance check: at the highest offered load, admission
    // control must at least halve the open-loop p99.
    let (plain_p99, admission_p99) = worst.expect("sweep ran");
    if !smoke {
        assert!(
            admission_p99 <= 0.5 * plain_p99,
            "admission p99 {admission_p99:.4}s not <= 0.5x plain p99 {plain_p99:.4}s"
        );
    }

    let output = format_table(
        "Table 9: open-loop Poisson overload, admission control on/off",
        &[
            "offered load",
            "admission",
            "served",
            "shed",
            "degraded",
            "p50",
            "p99",
        ],
        &rows,
    );
    let body = format!(
        "Statistically-aware admission control (repo extension beyond\n\
         the paper): open-loop Poisson traffic at fractions of nominal\n\
         capacity ({capacity:.0} rows/s = {WORKERS} workers x {SERVICE:?}\n\
         service), SLO p99 {SLO:?}, shed factor 2.0. Latency is measured\n\
         from scheduled arrival (coordinated-omission-safe); shed\n\
         responses serve no rows and record no latency.\n\
         Regenerate with `{RECORD_CMD}`.\n{output}"
    );
    (output, body)
}

fn main() {
    run_recorded_experiment(EXPERIMENTS_SCHEMA, RECORD_CMD, sweep);
}
