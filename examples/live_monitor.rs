//! Live ops monitoring: watch a serving runtime through a `StatsHub`
//! while a stateful streaming workload runs — and reconstruct what
//! happened purely from the monitor's history and event feed.
//!
//! The clickstream workload folds click events into the same feature
//! store tables the serving path joins against (streaming fraud
//! detection). This example:
//!
//! 1. serves the clickstream plan over 2 local shards plus 1
//!    in-process remote shard, with a background monitor sampling
//!    every 10ms (`ServingRuntime::start_monitor`);
//! 2. drives keyed traffic while a writer thread folds click events
//!    concurrently (`ClickstreamFolder`);
//! 3. live-drains the remote shard mid-run;
//! 4. then prints the whole story from the hub alone — per-interval
//!    rates from `StatsHub::deltas`, topology changes from
//!    `StatsHub::events` — without touching the runtime's own stats.
//!
//! ```text
//! cargo run --release --example live_monitor
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use willump_repro::prelude::*;
use willump_repro::willump_workloads::clickstream::{event_stream, ClickstreamFolder};

const REQUESTS_PER_THREAD: usize = 200;
const LOAD_THREADS: usize = 2;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- the streaming workload, compiled to a serving plan --------
    let cfg = WorkloadConfig {
        n_train: 400,
        n_valid: 200,
        n_test: 300,
        seed: 42,
        ..WorkloadConfig::default()
    };
    let w = WorkloadKind::Clickstream.generate(&cfg)?;
    let plan = Willump::new(WillumpConfig {
        mode: QueryMode::ExampleAtATime,
        ..WillumpConfig::default()
    })
    .optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)?
    .serving_plan();

    // ---- 2 local + 1 in-process remote shard, monitor attached -----
    let mut backend = ServingRuntime::builder();
    backend.config(ServerConfig::builder().workers(2).build());
    backend.plan("clickstream", plan.clone()).shards(1);
    let backend = backend.build()?;

    let mut b = ServingRuntime::builder();
    b.config(ServerConfig::builder().workers(2).build());
    b.plan("clickstream", plan)
        .shards(2)
        .shard_transport(Arc::new(InProcessWorker::new(&backend)));
    let runtime = b.build()?;

    let monitor = runtime.start_monitor(MonitorConfig {
        interval: Duration::from_millis(10),
        history: 1_024,
        ..MonitorConfig::default()
    });
    println!("monitor sampling every 10ms into a 1024-sample ring\n");

    // ---- traffic + concurrent event folds + a mid-run drain --------
    let rows: Vec<WireRow> = (0..w.test.n_rows())
        .map(|r| table_row_to_wire(&w.test, r).expect("test row serializes"))
        .collect();
    let folder = ClickstreamFolder::new(w.store.clone().expect("clickstream has a store"), 256);
    let clicks = event_stream(7, 512);
    let stop_writer = AtomicBool::new(false);
    std::thread::scope(|s| -> Result<(), ServeError> {
        let writer = s.spawn(|| {
            let mut i = 0usize;
            while !stop_writer.load(Ordering::Relaxed) {
                folder
                    .fold(&clicks[i % clicks.len()])
                    .expect("folds never fail");
                i += 1;
            }
        });
        let loaders: Vec<_> = (0..LOAD_THREADS)
            .map(|t| {
                let client = runtime.client();
                let rows = &rows;
                s.spawn(move || {
                    for i in 0..REQUESTS_PER_THREAD {
                        let row = rows[(t * REQUESTS_PER_THREAD + i) % rows.len()].clone();
                        client
                            .predict_keyed("clickstream", &format!("user-{t}-{i}"), vec![row])
                            .expect("serving succeeds");
                        std::thread::sleep(Duration::from_micros(500));
                    }
                })
            })
            .collect();

        // Mid-run: live-drain the remote shard under load. Sampling
        // beside the blocking drain guarantees the monitor observes
        // the draining window when there is one.
        std::thread::sleep(Duration::from_millis(60));
        let drainer = s.spawn(|| runtime.drain_shard("clickstream", 1, 2, Duration::from_secs(10)));
        while !drainer.is_finished() {
            let _ = monitor.hub().sample_now(&runtime);
            std::thread::sleep(Duration::from_millis(1));
        }
        drainer.join().expect("drainer thread completes")?;
        println!("remote shard live-drained mid-run (zero in-flight loss)\n");

        for l in loaders {
            l.join().expect("load thread completes");
        }
        stop_writer.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread completes");
        Ok(())
    })?;

    // One settled sample, then stop the sampler — the hub survives.
    let _ = monitor.hub().sample_now(&runtime);
    let hub = monitor.stop();

    // ---- the dashboard: everything below reads the hub only --------
    println!(
        "{:>5} {:>9} {:>10} {:>8}",
        "seq", "interval", "rows/s", "shed"
    );
    let deltas = hub.deltas();
    let busiest: Vec<&MonitorSample> = {
        let mut d: Vec<&MonitorSample> = deltas.iter().collect();
        d.sort_by_key(|d| std::cmp::Reverse(d.server.requests));
        d.into_iter().take(8).collect()
    };
    for d in &busiest {
        println!(
            "{:>5} {:>8.1}ms {:>10.0} {:>8}",
            d.seq,
            d.elapsed_secs() * 1e3,
            d.requests_per_sec(),
            d.server.shed
        );
    }
    println!("(8 busiest of {} sampled intervals)\n", deltas.len());

    println!("event feed:");
    for e in hub.events() {
        println!("  [{:>4}] {:?}", e.seq, e.event);
    }

    let total = u64::try_from(LOAD_THREADS * REQUESTS_PER_THREAD).expect("fits");
    let last = hub.latest().expect("sampler ran");
    assert_eq!(
        last.server.requests, total,
        "the hub's final sample must account for every request"
    );
    assert!(
        hub.events()
            .iter()
            .any(|e| matches!(&e.event, MonitorEvent::ShardRemoved { endpoint, .. } if endpoint == "clickstream")),
        "the drain must surface in the event feed"
    );
    let ep = last.endpoint("clickstream", 1).expect("endpoint sampled");
    println!(
        "\nfinal sample: {} requests ({} rows), {} folds applied by the writer, \
         endpoint now {} remote shard(s)",
        last.server.requests,
        last.server.rows,
        folder.folded(),
        ep.shards.len()
    );
    println!("\nlive monitor OK — every claim above came from the StatsHub");
    Ok(())
}
