//! The serving-side predictor abstraction and the runtime's
//! worker-pool configuration.
//!
//! [`Servable`] is what a [`crate::ServingRuntime`] endpoint serves;
//! [`ServerConfig`] holds the worker-pool and batching knobs the
//! runtime is built with ([`crate::RuntimeBuilder::config`]).

use willump_data::Table;

/// Anything that can serve batch predictions for raw-input tables.
///
/// Implemented for the baseline and Willump-optimized pipelines so the
/// same server can front either (paper Table 6 compares exactly that).
pub trait Servable: Send + Sync {
    /// Predict scores for a batch of inputs.
    ///
    /// # Errors
    /// Returns a display string on failure (crossing the serving
    /// boundary erases error types, as an RPC would).
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String>;
}

impl Servable for willump::BaselinePipeline {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        self.predict_batch(table).map_err(|e| e.to_string())
    }
}

impl Servable for willump::OptimizedPipeline {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        self.predict_batch(table).map_err(|e| e.to_string())
    }
}

/// Any [`willump::ServingPlan`] is servable, so every lowered
/// optimization — and any *composition* of them (cascade + end-to-end
/// cache + top-K filter in one plan) — runs behind the multi-worker
/// coalescing runtime as a single endpoint.
impl Servable for willump::ServingPlan {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        self.predict_batch(table).map_err(|e| e.to_string())
    }
}

/// Server configuration: the worker-pool and batching knobs of a
/// [`crate::ServingRuntime`].
///
/// Construct with [`ServerConfig::builder`] (the struct is
/// `#[non_exhaustive]`, so future fields — shard defaults, say — are
/// non-breaking) or start from
/// [`ServerConfig::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Maximum requests coalesced into one worker iteration (adaptive
    /// batching: the queue is drained up to this bound without
    /// waiting). Values below 1 are treated as 1.
    pub max_batch_requests: usize,
    /// Per-worker queue capacity before a blocking caller waits for
    /// room. Requests a node admits never wait: they queue past it.
    pub queue_capacity: usize,
    /// Number of workers: execution slots, worker queues, and threads
    /// draining them. Values below 1 are treated as 1.
    pub workers: usize,
    /// Merge same-endpoint, same-schema requests drained in one
    /// iteration into a single model-level batch (one `predict_table`
    /// call), scattering scores back per request. When off, every
    /// request is dispatched individually (the pre-coalescing
    /// behavior, kept for A/B benchmarking).
    pub coalesce: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch_requests: 16,
            queue_capacity: 1024,
            workers: 1,
            coalesce: true,
        }
    }
}

impl ServerConfig {
    /// A builder starting from [`ServerConfig::default`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// Builder for [`ServerConfig`] (see [`ServerConfig::builder`]).
#[derive(Debug, Clone)]
#[must_use]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Set [`ServerConfig::max_batch_requests`].
    pub fn max_batch_requests(mut self, n: usize) -> Self {
        self.config.max_batch_requests = n;
        self
    }

    /// Set [`ServerConfig::queue_capacity`].
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.config.queue_capacity = n;
        self
    }

    /// Set [`ServerConfig::workers`].
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Set [`ServerConfig::coalesce`].
    pub fn coalesce(mut self, on: bool) -> Self {
        self.config.coalesce = on;
        self
    }

    /// Finish the configuration.
    #[must_use]
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{rows_to_table, table_row_to_wire};
    use crate::{Request, ServeError, ServingRuntime, WireRow, DEFAULT_ENDPOINT};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;
    use willump_data::{Column, Value};

    /// A runtime serving `predictor` as its default endpoint, one shard
    /// per worker.
    fn one_endpoint(predictor: Arc<dyn Servable>, config: ServerConfig) -> ServingRuntime {
        let mut builder = ServingRuntime::builder();
        builder.config(config);
        builder
            .endpoint(DEFAULT_ENDPOINT, predictor)
            .shards(config.workers.max(1));
        builder.build().expect("a one-endpoint runtime builds")
    }

    /// A trivial predictor: score = 2 * x.
    struct Doubler;
    impl Servable for Doubler {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            let col = table
                .column("x")
                .ok_or_else(|| "missing x".to_string())?
                .to_f64_vec()
                .map_err(|e| e.to_string())?;
            Ok(col.into_iter().map(|v| v * 2.0).collect())
        }
    }

    /// A Doubler that also sleeps, to force requests to pile up behind
    /// the execution slot it holds so batching tests are deterministic.
    struct SlowDoubler(Duration);
    impl Servable for SlowDoubler {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            std::thread::sleep(self.0);
            Doubler.predict_table(table)
        }
    }

    fn wire_rows(xs: &[f64]) -> Vec<WireRow> {
        xs.iter()
            .map(|&x| vec![("x".to_string(), Value::Float(x))])
            .collect()
    }

    #[test]
    fn config_builder_sets_every_field() {
        let cfg = ServerConfig::builder()
            .max_batch_requests(9)
            .queue_capacity(77)
            .workers(3)
            .coalesce(false)
            .build();
        assert_eq!(cfg.max_batch_requests, 9);
        assert_eq!(cfg.queue_capacity, 77);
        assert_eq!(cfg.workers, 3);
        assert!(!cfg.coalesce);
        assert_eq!(ServerConfig::builder().build(), ServerConfig::default());
    }

    #[test]
    fn round_trip_through_server() {
        let server = one_endpoint(Arc::new(Doubler), ServerConfig::default());
        let client = server.client();
        let scores = client.predict(wire_rows(&[1.0, 2.5])).unwrap();
        assert_eq!(scores, vec![2.0, 5.0]);
        assert_eq!(server.stats().requests(), 1);
        assert_eq!(server.stats().rows(), 2);
    }

    #[test]
    fn many_requests_from_multiple_clients() {
        let server = one_endpoint(Arc::new(Doubler), ServerConfig::default());
        std::thread::scope(|s| {
            for t in 0..4 {
                let client = server.client();
                s.spawn(move || {
                    for i in 0..25 {
                        let x = (t * 25 + i) as f64;
                        let scores = client.predict(wire_rows(&[x])).unwrap();
                        assert_eq!(scores, vec![2.0 * x]);
                    }
                });
            }
        });
        assert_eq!(server.stats().requests(), 100);
        // Adaptive batching coalesces at least some iterations under
        // concurrency; batches <= requests always holds.
        assert!(server.stats().batches() <= 100);
    }

    #[test]
    fn multi_worker_round_trip() {
        let server = one_endpoint(
            Arc::new(Doubler),
            ServerConfig::builder().workers(4).build(),
        );
        assert_eq!(server.n_workers(), 4);
        std::thread::scope(|s| {
            for t in 0..8 {
                let client = server.client();
                s.spawn(move || {
                    for i in 0..20 {
                        let x = (t * 20 + i) as f64;
                        assert_eq!(client.predict(wire_rows(&[x])).unwrap(), vec![2.0 * x]);
                    }
                });
            }
        });
        assert_eq!(server.stats().requests(), 160);
        let per_worker = server.stats().worker_batches();
        assert_eq!(per_worker.len(), 4);
        assert_eq!(per_worker.iter().sum::<u64>(), server.stats().batches());
        // The default endpoint is sharded across the pool and unkeyed
        // requests spread round-robin, so more than one worker serves.
        assert!(per_worker.iter().filter(|&&b| b > 0).count() > 1);
    }

    #[test]
    fn coalesced_batches_match_sequential_scores() {
        // A slow first request holds the only execution slot on its
        // caller's thread, so the other clients' requests pile up on
        // the worker's queue and must be coalesced.
        let server = one_endpoint(
            Arc::new(SlowDoubler(Duration::from_millis(500))),
            ServerConfig::default(),
        );
        std::thread::scope(|s| {
            let blocker = server.client();
            s.spawn(move || {
                blocker.predict(wire_rows(&[0.0])).unwrap();
            });
            // Generous margin: the blocker holds the slot for 500ms
            // while these clients only need to enqueue (a channel send
            // each), so even a heavily loaded machine coalesces them.
            std::thread::sleep(Duration::from_millis(100));
            for t in 1..7 {
                let client = server.client();
                s.spawn(move || {
                    let xs = [t as f64, t as f64 + 0.5];
                    let scores = client.predict(wire_rows(&xs)).unwrap();
                    assert_eq!(scores, vec![2.0 * xs[0], 2.0 * xs[1]]);
                });
            }
        });
        assert_eq!(server.stats().requests(), 7);
        // The six queued requests were merged into (at least one)
        // multi-request model batch.
        assert!(
            server.stats().coalesced_rows() >= 4,
            "expected coalescing, stats: {:?}",
            server.stats()
        );
        assert!(server.stats().max_batch_rows() >= 4);
        assert!(server.stats().batches() < 7);
    }

    #[test]
    fn drop_with_live_client_does_not_deadlock() {
        // Regression: the seed server's Drop joined the worker while
        // cloned client senders kept the channel open, hanging forever.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let server = one_endpoint(Arc::new(Doubler), ServerConfig::default());
            let client = server.client();
            assert_eq!(client.predict(wire_rows(&[1.0])).unwrap(), vec![2.0]);
            drop(server); // client is still alive
            assert!(matches!(
                client.predict(wire_rows(&[2.0])),
                Err(ServeError::Disconnected)
            ));
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("server drop deadlocked with a live client");
    }

    #[test]
    fn shutdown_is_explicit_and_idempotent() {
        let mut server = one_endpoint(
            Arc::new(Doubler),
            ServerConfig::builder().workers(3).build(),
        );
        let client = server.client();
        assert!(client.predict(wire_rows(&[1.0])).is_ok());
        server.shutdown();
        server.shutdown();
        assert!(matches!(
            client.predict(wire_rows(&[1.0])),
            Err(ServeError::Disconnected)
        ));
    }

    #[test]
    fn legacy_wire_frame_routes_to_default_endpoint() {
        // A request in the pre-runtime shape: no endpoint, version or
        // key. The default endpoint answers it and names itself.
        let server = one_endpoint(Arc::new(Doubler), ServerConfig::default());
        let client = server.client();
        let resp = client.call(Request::new(1, wire_rows(&[4.0]))).unwrap();
        assert_eq!(resp.error, None);
        assert_eq!(resp.scores, vec![8.0]);
        assert_eq!(resp.endpoint.as_deref(), Some(DEFAULT_ENDPOINT));
        assert_eq!(resp.version, Some(1));
    }

    #[test]
    fn hostile_predictor_error_round_trips() {
        struct Hostile;
        impl Servable for Hostile {
            fn predict_table(&self, _t: &Table) -> Result<Vec<f64>, String> {
                Err("bad \"quotes\" and \\slashes\\\nand newlines".to_string())
            }
        }
        let server = one_endpoint(Arc::new(Hostile), ServerConfig::default());
        let client = server.client();
        match client.predict(wire_rows(&[1.0])) {
            Err(ServeError::Predictor(msg)) => {
                assert_eq!(msg, "bad \"quotes\" and \\slashes\\\nand newlines");
            }
            other => panic!("expected predictor error, got {other:?}"),
        }
    }

    #[test]
    fn mixed_schema_batches_fall_back_per_request() {
        // Pile up requests with two different schemas behind a slow
        // first request; each group must still be answered correctly.
        struct SlowSummer;
        impl Servable for SlowSummer {
            fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
                std::thread::sleep(Duration::from_millis(300));
                let names = table.column_names();
                let first = names.first().ok_or("empty table")?.to_string();
                table
                    .column(&first)
                    .ok_or("missing column")?
                    .to_f64_vec()
                    .map_err(|e| e.to_string())
            }
        }
        let server = one_endpoint(Arc::new(SlowSummer), ServerConfig::default());
        std::thread::scope(|s| {
            let blocker = server.client();
            s.spawn(move || {
                blocker.predict(wire_rows(&[0.0])).unwrap();
            });
            std::thread::sleep(Duration::from_millis(60));
            for t in 0..4 {
                let client = server.client();
                s.spawn(move || {
                    let name = if t % 2 == 0 { "x" } else { "y" };
                    let rows = vec![vec![(name.to_string(), Value::Float(t as f64))]];
                    assert_eq!(client.predict(rows).unwrap(), vec![t as f64]);
                });
            }
        });
        assert_eq!(server.stats().requests(), 5);
    }

    #[test]
    fn predictor_error_propagates() {
        struct Failing;
        impl Servable for Failing {
            fn predict_table(&self, _t: &Table) -> Result<Vec<f64>, String> {
                Err("nope".to_string())
            }
        }
        let server = one_endpoint(Arc::new(Failing), ServerConfig::default());
        let client = server.client();
        assert!(matches!(
            client.predict(wire_rows(&[1.0])),
            Err(ServeError::Predictor(_))
        ));
    }

    #[test]
    fn failing_single_request_predicts_only_once() {
        // A lone request must not pay the coalesced-path fallback: a
        // failing prediction runs exactly once, not merge-then-retry.
        struct CountingFailer(std::sync::atomic::AtomicU64);
        impl Servable for CountingFailer {
            fn predict_table(&self, _t: &Table) -> Result<Vec<f64>, String> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Err("nope".to_string())
            }
        }
        let predictor = Arc::new(CountingFailer(AtomicU64::new(0)));
        let server = one_endpoint(predictor.clone(), ServerConfig::default());
        let client = server.client();
        assert!(client.predict(wire_rows(&[1.0])).is_err());
        assert_eq!(predictor.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn inconsistent_rows_rejected() {
        let server = one_endpoint(Arc::new(Doubler), ServerConfig::default());
        let client = server.client();
        let rows = vec![
            vec![("x".to_string(), Value::Float(1.0))],
            vec![("y".to_string(), Value::Float(2.0))],
        ];
        assert!(client.predict(rows).is_err());
    }

    #[test]
    fn table_conversion_helpers() {
        let mut t = Table::new();
        t.add_column("x", Column::from(vec![1.0f64, 2.0])).unwrap();
        t.add_column("s", Column::from(vec!["a", "b"])).unwrap();
        let wire = table_row_to_wire(&t, 1).unwrap();
        assert_eq!(wire[0], ("x".to_string(), Value::Float(2.0)));
        assert_eq!(wire[1], ("s".to_string(), Value::from("b")));
        let back = rows_to_table(&[wire.clone(), wire]).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.value(0, "s"), Some(Value::from("b")));
        assert!(table_row_to_wire(&t, 9).is_err());
    }

    #[test]
    fn empty_request_is_fine() {
        let server = one_endpoint(Arc::new(Doubler), ServerConfig::default());
        let client = server.client();
        // Zero rows: zero scores (Doubler sees an empty table with no
        // columns and errors on missing x — acceptable too; accept
        // either a clean empty result or a predictor error).
        match client.predict(Vec::new()) {
            Ok(scores) => assert!(scores.is_empty()),
            Err(ServeError::Predictor(_)) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
