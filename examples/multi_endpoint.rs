//! The multi-endpoint `ServingRuntime`: two paper workloads served as
//! named, sharded endpoints behind a single worker pool and client.
//!
//! Demonstrates the builder surface:
//! - named plan endpoints (`product`, `toxic`) with shard counts, one
//!   version each;
//! - key-hash shard routing (equal keys stick to one shard), unkeyed
//!   round-robin, and version pinning (a pin to a version the endpoint
//!   does not serve is a route error);
//! - per-endpoint stats, the fixed shard -> worker assignment, and the
//!   plans' escalation rates read from their `PlanCounters`.
//!
//! ```text
//! cargo run --release --example multi_endpoint
//! ```

use std::error::Error;

use willump_repro::prelude::*;

fn optimize(w: &Workload) -> Result<ServingPlan, Box<dyn Error>> {
    let cfg = WillumpConfig {
        cascades: true,
        ..WillumpConfig::default()
    };
    let opt =
        Willump::new(cfg).optimize(&w.pipeline, &w.train, &w.train_y, &w.valid, &w.valid_y)?;
    Ok(opt.serving_plan())
}

fn main() -> Result<(), Box<dyn Error>> {
    // Small workloads: this example doubles as a CI smoke.
    let cfg = WorkloadConfig {
        n_train: 400,
        n_valid: 200,
        n_test: 200,
        ..WorkloadConfig::default()
    };
    let product = WorkloadKind::Product.generate(&cfg)?;
    let toxic = WorkloadKind::Toxic.generate(&cfg)?;

    let mut builder = ServingRuntime::builder();
    builder.config(ServerConfig::builder().workers(4).build());
    builder.plan("product", optimize(&product)?).shards(2);
    builder
        .plan("toxic", optimize(&toxic)?)
        .version(2)
        .shards(2);
    let runtime = builder.build()?;
    let client = runtime.client();

    println!("one runtime, two endpoints:\n");
    for e in runtime.endpoints() {
        println!("  {}@v{}  shards={}", e.name(), e.version(), e.shards());
    }

    // Keyed traffic sticks to a shard; unkeyed traffic spreads
    // round-robin; pinned traffic must name the endpoint's version.
    for r in 0..120 {
        let row = table_row_to_wire(&product.test, r % product.test.n_rows())?;
        client.predict_keyed("product", &format!("user-{}", r % 10), vec![row])?;
    }
    for r in 0..60 {
        let row = table_row_to_wire(&toxic.test, r)?;
        client.predict_endpoint("toxic", vec![row])?;
    }
    for r in 0..40 {
        let row = table_row_to_wire(&toxic.test, r)?;
        client.predict_version("toxic", 2, vec![row])?;
    }
    let row = table_row_to_wire(&toxic.test, 0)?;
    let refused = client.predict_version("toxic", 1, vec![row]);
    println!("\na pin to toxic@v1: {}", refused.unwrap_err());

    println!("\ntraffic after 120 keyed + 60 unkeyed + 40 pinned requests:\n");
    for e in runtime.endpoints() {
        println!(
            "  {}@v{}  requests={:<4} rows={:<4} per-shard={:?}  workers={:?}  escalation={:.2}",
            e.name(),
            e.version(),
            e.stats().requests(),
            e.stats().rows(),
            e.stats().shard_requests(),
            e.assignment(),
            e.merged_counters().escalation_rate(),
        );
    }

    println!(
        "\nglobal: requests={} route_errors={} rows={} batches={} coalesced_rows={}",
        runtime.stats().requests(),
        runtime.stats().route_errors(),
        runtime.stats().rows(),
        runtime.stats().batches(),
        runtime.stats().coalesced_rows(),
    );
    Ok(())
}
