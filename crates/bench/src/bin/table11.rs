//! Table 11 (repo extension): a stateful streaming workload under
//! open-loop load, watched live through the `StatsHub` monitor.
//!
//! The clickstream workload (remote lookups + live event folds) is
//! optimized to a `ServingPlan` and served over 2 local shards plus 1
//! in-process remote shard, with feature-store lookups behind a
//! real-sleeping network model so each request has a known fixed
//! service time and the nominal capacity is honest. Three cells offer
//! Poisson traffic at 0.5x, 1x, and 3x of capacity while:
//!
//! - a writer thread continuously folds click events into the
//!   feature-store tables the serving path reads (`ClickstreamFolder`
//!   — the stateful-streaming part);
//! - a background [`StatsHub`] sampler records per-interval counter
//!   deltas and topology events;
//! - one third into the top-rate cell, the remote shard is
//!   live-drained under load, and the drain must be visible purely in
//!   the monitor's event feed (`ShardDraining` -> `ShardRemoved`).
//!
//! Past capacity the open loop shows queueing collapse: p99 measured
//! from *scheduled* arrival (coordinated-omission-safe) grows by
//! multiples, which the recorded table captures alongside the
//! monitor's view of the same run. Flags (mirroring the other
//! recording binaries):
//!
//! - `--smoke`: tiny CI-speed run + EXPERIMENTS.md schema check.
//! - `--record`: rewrite this binary's EXPERIMENTS.md section.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use willump::{QueryMode, ServingPlan, Willump, WillumpConfig};
use willump_bench::loadgen::{open_loop, poisson_schedule, CallOutcome, LoadReport};
use willump_bench::{format_table, run_recorded_experiment};
use willump_serve::{
    table_row_to_wire, InProcessWorker, MonitorConfig, MonitorEvent, ServerConfig, ServingRuntime,
    StatsHub, WireRow,
};
use willump_store::LatencyModel;
use willump_workloads::clickstream::{event_stream, ClickstreamFolder};
use willump_workloads::{Workload, WorkloadConfig, WorkloadKind};

/// The schema header CI greps for in EXPERIMENTS.md; bump the version
/// when the recorded table shape changes.
const EXPERIMENTS_SCHEMA: &str = "<!-- schema: table11-streaming v1 -->";
const RECORD_CMD: &str = "cargo run --release -p willump-bench --bin table11 -- --record";

/// Store lookup per-key cost (small against the round trip, so the
/// per-request service time is ~2 round trips: one per joined table).
const PER_KEY_NANOS: u64 = 10_000;
const WORKERS: usize = 2;
/// 2 local shards + 1 in-process remote shard (index 2, the drain
/// target).
const LOCAL_SHARDS: usize = 2;
const REMOTE_SHARD: usize = 2;

/// Per-run parameters: the smoke cell must finish in CI seconds.
struct Params {
    round_trip: Duration,
    multipliers: &'static [f64],
    duration: f64,
    threads: usize,
    sample_interval: Duration,
}

fn params(smoke: bool) -> Params {
    if smoke {
        Params {
            round_trip: Duration::from_millis(1),
            multipliers: &[0.5, 3.0],
            duration: 0.25,
            threads: 32,
            sample_interval: Duration::from_millis(10),
        }
    } else {
        Params {
            round_trip: Duration::from_millis(2),
            multipliers: &[0.5, 1.0, 3.0],
            duration: 2.0,
            threads: 128,
            sample_interval: Duration::from_millis(20),
        }
    }
}

/// Generate the clickstream workload with real-sleeping store lookups
/// and compile its serving plan (no cascades: every request pays both
/// table lookups, keeping the per-request service time fixed).
fn build_plan(p: &Params, smoke: bool) -> (Workload, ServingPlan) {
    let (n_train, n_valid, n_test) = if smoke {
        (300, 150, 200)
    } else {
        (1_200, 600, 1_200)
    };
    let cfg = WorkloadConfig {
        n_train,
        n_valid,
        n_test,
        seed: 42,
        remote: Some(LatencyModel::real_network(
            u64::try_from(p.round_trip.as_nanos()).expect("round trip fits"),
            PER_KEY_NANOS,
        )),
    };
    let w = WorkloadKind::Clickstream
        .generate(&cfg)
        .expect("workload generates");
    let plan = Willump::new(WillumpConfig {
        cascades: false,
        mode: QueryMode::ExampleAtATime,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)
    .expect("optimization succeeds")
    .serving_plan();
    (w, plan)
}

/// One fresh runtime per cell (queue state never leaks between
/// cells): 2 local shards + 1 in-process remote shard serving a clone
/// of the same plan against the same shared store.
fn build_runtime(plan: &ServingPlan) -> (ServingRuntime, ServingRuntime) {
    let mut backend = ServingRuntime::builder();
    backend.config(ServerConfig::builder().workers(WORKERS).build());
    backend.plan("clickstream", plan.clone()).shards(1);
    let backend = backend.build().expect("backend builds");

    let mut b = ServingRuntime::builder();
    b.config(
        ServerConfig::builder()
            .workers(WORKERS)
            .coalesce(false)
            .build(),
    );
    b.plan("clickstream", plan.clone())
        .shards(LOCAL_SHARDS)
        .shard_transport(Arc::new(InProcessWorker::new(&backend)));
    (b.build().expect("runtime builds"), backend)
}

struct CellResult {
    report: LoadReport,
    folded: u64,
    hub: StatsHub,
}

/// Drive one open-loop cell with the folder writing beside the
/// readers and the monitor sampling throughout. When `drain` is set,
/// one third in, the remote shard is live-drained under load.
fn run_cell(p: &Params, w: &Workload, plan: &ServingPlan, rate: f64, drain: bool) -> CellResult {
    let (runtime, _backend) = build_runtime(plan);
    let monitor = runtime.start_monitor(MonitorConfig {
        interval: p.sample_interval,
        history: 4_096,
        ..MonitorConfig::default()
    });

    let n = (rate * p.duration).ceil() as usize;
    let arrivals = poisson_schedule(rate, n, 42 + n as u64);
    let rows: Vec<WireRow> = (0..w.test.n_rows())
        .map(|r| table_row_to_wire(&w.test, r).expect("test row serializes"))
        .collect();
    let client = runtime.client();

    let folder = ClickstreamFolder::new(w.store.clone().expect("clickstream has a store"), 256);
    let events = event_stream(7, 512);
    let stop_writer = AtomicBool::new(false);

    let report = std::thread::scope(|s| {
        // The stateful-streaming part: click events fold into the
        // same store tables the serving path joins against.
        let writer = s.spawn(|| {
            let mut i = 0usize;
            while !stop_writer.load(Ordering::Relaxed) {
                folder
                    .fold(&events[i % events.len()])
                    .expect("folds never fail");
                i += 1;
            }
        });

        let load = s.spawn(|| {
            open_loop(&arrivals, p.threads, |i| {
                client
                    .predict_keyed(
                        "clickstream",
                        &format!("user-{i}"),
                        vec![rows[i % rows.len()].clone()],
                    )
                    .expect("serving succeeds");
                CallOutcome::Served
            })
        });

        if drain {
            // One third into the cell, live-drain the remote shard.
            // Sampling in a tight loop alongside the (blocking) drain
            // guarantees the monitor observes the draining window.
            std::thread::sleep(Duration::from_secs_f64(p.duration / 3.0));
            let drainer = s.spawn(|| {
                runtime
                    .drain_shard("clickstream", 1, REMOTE_SHARD, Duration::from_secs(30))
                    .expect("drain completes");
            });
            while !drainer.is_finished() {
                let _ = monitor.hub().sample_now(&runtime);
                std::thread::sleep(Duration::from_millis(2));
            }
            drainer.join().expect("drainer thread completes");
        }

        let report = load.join().expect("load threads complete");
        stop_writer.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread completes");
        report
    });

    // A final explicit sample so the hub's history ends at the cell's
    // settled state, then stop the background sampler.
    let _ = monitor.hub().sample_now(&runtime);
    let hub = monitor.stop();
    CellResult {
        report,
        folded: folder.folded(),
        hub,
    }
}

fn fmt_ms(seconds: f64) -> String {
    format!("{:.1}ms", seconds * 1e3)
}

fn sweep(smoke: bool) -> (String, String) {
    let p = params(smoke);
    // Per-request service: one round trip per joined table (2 tables),
    // per-key cost negligible. Capacity = workers / service.
    let service = 2.0 * p.round_trip.as_secs_f64();
    let capacity = WORKERS as f64 / service;
    let (w, plan) = build_plan(&p, smoke);

    let top = p.multipliers.last().copied().expect("multipliers set");
    let mut rows = Vec::new();
    let mut low_p99 = 0.0;
    let mut top_cell = None;
    for &mult in p.multipliers {
        let rate = capacity * mult;
        let cell = run_cell(&p, &w, &plan, rate, mult == top);
        assert_eq!(cell.report.errors, 0, "no request may fail");
        assert_eq!(
            cell.report.shed, 0,
            "no admission control in this experiment"
        );
        if mult == *p.multipliers.first().expect("multipliers set") {
            low_p99 = cell.report.p99();
        }
        rows.push(vec![
            format!("{mult}x"),
            format!("{rate:.0}/s"),
            cell.report.offered.to_string(),
            cell.report.served.to_string(),
            cell.folded.to_string(),
            fmt_ms(cell.report.p50()),
            fmt_ms(cell.report.p99()),
            fmt_ms(cell.report.p999()),
        ]);
        if mult == top {
            top_cell = Some(cell);
        }
    }
    let top_cell = top_cell.expect("top cell ran");

    // The monitor's view of the top cell, reconstructed purely from
    // hub history and events — no runtime inspection.
    let final_sample = top_cell.hub.latest().expect("sampler ran");
    assert_eq!(
        final_sample.server.requests, top_cell.report.offered,
        "the hub's final sample must account for every offered request"
    );
    let peak_rate = top_cell
        .hub
        .deltas()
        .iter()
        .map(|d| d.requests_per_sec())
        .fold(0.0f64, f64::max);
    let events = top_cell.hub.events();
    let drained = events
        .iter()
        .any(|e| matches!(&e.event, MonitorEvent::ShardDraining { endpoint, .. } if endpoint == "clickstream"));
    let removed = events
        .iter()
        .any(|e| matches!(&e.event, MonitorEvent::ShardRemoved { endpoint, .. } if endpoint == "clickstream"));
    assert!(
        removed,
        "the live drain must surface in the monitor event feed: {events:?}"
    );

    // THE acceptance checks (full runs only; smoke cells are too short
    // for stable percentiles): past capacity the open loop must show
    // queueing collapse, and the drain must be visible as a
    // draining-then-removed event sequence.
    let top_p99 = top_cell.report.p99();
    if !smoke {
        assert!(
            top_p99 >= 3.0 * low_p99,
            "no queueing collapse past capacity: p99 {top_p99:.4}s vs {low_p99:.4}s at 0.5x"
        );
        assert!(
            drained,
            "the draining window must be sampled before removal: {events:?}"
        );
    }

    let table = format_table(
        "Table 11: stateful streaming clickstream under open-loop load, monitored live",
        &[
            "offered load",
            "rate",
            "offered",
            "served",
            "events folded",
            "p50",
            "p99",
            "p99.9",
        ],
        &rows,
    );
    let monitor_summary = format!(
        "\nMonitor view of the {top}x cell: {} samples, final requests counter \
         {}, peak interval rate {peak_rate:.0} rows/s; live drain observed as \
         events [draining: {drained}, removed: {removed}].\n",
        top_cell.hub.samples().len(),
        final_sample.server.requests,
    );
    let output = format!("{table}{monitor_summary}");
    let body = format!(
        "Stateful streaming serving (repo extension beyond the paper):\n\
         the clickstream workload's plan (2 real-network store lookups\n\
         per request, {service:.3}s fixed service, no cascades) served over\n\
         2 local + 1 in-process remote shard at {capacity:.0} rows/s nominal\n\
         capacity ({WORKERS} workers), while a writer thread folds click\n\
         events into the same store tables and a StatsHub sampler\n\
         ({:?} interval) records deltas and topology events. One third\n\
         into the top cell the remote shard is live-drained under load.\n\
         Latency is measured from scheduled arrival\n\
         (coordinated-omission-safe). Regenerate with `{RECORD_CMD}`.\n{output}",
        p.sample_interval,
    );
    (output, body)
}

fn main() {
    run_recorded_experiment(EXPERIMENTS_SCHEMA, RECORD_CMD, sweep);
}
