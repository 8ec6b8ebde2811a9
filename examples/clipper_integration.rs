//! Serving a Willump-optimized pipeline through the serving layer
//! (paper §6.3, Table 6): same RPC boundary, faster pipeline. Built
//! on the modern `ServingRuntime` builder API — the plain and
//! optimized pipelines are two *named endpoints* of one runtime
//! instead of two separate servers — then a worker sweep showing how
//! coalesced batching and multiple executor threads lift throughput
//! under concurrent clients.
//!
//! ```text
//! cargo run --release --example clipper_integration
//! ```

use std::error::Error;
use std::sync::Arc;
use std::time::Instant;

use willump::{Willump, WillumpConfig};
use willump_serve::{table_row_to_wire, Servable, ServerConfig, ServingRuntime};
use willump_workloads::{WorkloadConfig, WorkloadKind};

fn mean_latency(
    runtime: &ServingRuntime,
    endpoint: &str,
    test: &willump_data::Table,
    batch: usize,
    reqs: usize,
) -> Result<f64, Box<dyn Error>> {
    let client = runtime.client();
    let n = test.n_rows();
    // Warm-up.
    let rows: Vec<_> = (0..batch)
        .map(|i| table_row_to_wire(test, i % n))
        .collect::<Result<_, _>>()?;
    client.predict_endpoint(endpoint, rows)?;
    let start = Instant::now();
    for r in 0..reqs {
        let rows: Vec<_> = (0..batch)
            .map(|i| table_row_to_wire(test, (r * batch + i) % n))
            .collect::<Result<_, _>>()?;
        client.predict_endpoint(endpoint, rows)?;
    }
    Ok(start.elapsed().as_secs_f64() / reqs as f64)
}

fn main() -> Result<(), Box<dyn Error>> {
    let w = WorkloadKind::Toxic.generate(&WorkloadConfig::default())?;

    // Both pipelines behind ONE runtime, as named endpoints.
    let plain: Arc<dyn Servable> = Arc::new(w.pipeline.fit_baseline(&w.train, &w.train_y, 42)?);
    let optimized: Arc<dyn Servable> = Arc::new(Willump::new(WillumpConfig::default()).optimize(
        &w.pipeline,
        &w.train,
        &w.train_y,
        &w.valid,
        &w.valid_y,
    )?);
    let mut builder = ServingRuntime::builder();
    builder.endpoint("toxic-plain", plain);
    builder.endpoint("toxic-willump", optimized.clone());
    let runtime = builder.build()?;

    println!("serving the toxic-comment pipeline through the RPC layer:\n");
    println!("batch | clipper      | clipper+willump | speedup");
    println!("------|--------------|-----------------|--------");
    for batch in [1usize, 10, 100] {
        let reqs = (300 / batch).clamp(10, 100);
        let reqs_plain = (60 / batch).clamp(5, 60);
        let lat_plain = mean_latency(&runtime, "toxic-plain", &w.test, batch, reqs_plain)?;
        let lat_opt = mean_latency(&runtime, "toxic-willump", &w.test, batch, reqs)?;
        println!(
            "{batch:>5} | {:>9.2?}    | {:>9.2?}       | {:.1}x",
            std::time::Duration::from_secs_f64(lat_plain),
            std::time::Duration::from_secs_f64(lat_opt),
            lat_plain / lat_opt
        );
    }
    println!("\nfixed RPC overheads amortize with batch size, so the");
    println!("speedup grows as batches get larger (paper Table 6).");

    // Scale-out sweep: the same optimized pipeline behind runtimes
    // with 1/2/4 workers and coalesced batching, against the
    // pre-coalescing single-worker configuration, under concurrent
    // clients.
    println!("\nworker sweep (4 concurrent clients, batch 10):\n");
    println!("config                  | throughput");
    println!("------------------------|------------");
    let configs = [
        ("seed (1w, no coalesce)", 1usize, false),
        ("1 worker, coalescing  ", 1, true),
        ("2 workers, coalescing ", 2, true),
        ("4 workers, coalescing ", 4, true),
    ];
    for (label, workers, coalesce) in configs {
        let mut builder = ServingRuntime::builder();
        builder.config(
            ServerConfig::builder()
                .workers(workers)
                .coalesce(coalesce)
                .build(),
        );
        builder
            .endpoint("toxic-willump", optimized.clone())
            .shards(workers);
        let runtime = builder.build()?;
        // The same harness the recorded EXPERIMENTS.md sweep uses.
        let tput =
            willump_bench::serving_throughput(&runtime, Some("toxic-willump"), &w.test, 10, 4, 40);
        println!("{label}  | {tput:>7.0} rows/s");
    }
    println!("\ncoalescing merges concurrent same-endpoint, same-schema");
    println!("requests into one model-level batch; extra workers overlap");
    println!("request handling.");
    Ok(())
}
