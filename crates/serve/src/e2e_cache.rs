//! End-to-end prediction caching: the Clipper-style baseline that
//! paper §4.5 and Table 2 compare feature-level caching against.
//!
//! "Existing model serving systems cache ML inference pipelines
//! end-to-end, caching the prediction made for each data input
//! received. This does not capture recomputation of the same features
//! between different data inputs." The cache key here is the *entire*
//! input row, so two queries sharing only a user id (but differing in
//! song id) always miss.
//!
//! [`E2eCachedPredictor`] wraps an *arbitrary* prediction closure.
//! When the predictor is a Willump pipeline, prefer composing the
//! cache into its plan instead —
//! [`willump::ServingPlan::with_e2e_cache`] adds `cache_lookup` /
//! `cache_fill` stages with identical key semantics, batch-aware
//! lookups, and per-stage introspection, and the cached plan stays a
//! single [`Servable`].

use parking_lot::Mutex;
use std::sync::Arc;

use willump_data::Value;
use willump_graph::InputRow;
use willump_store::LruCache;

use crate::server::Servable;
use crate::ServeError;

/// A boxed single-input prediction function.
type PredictFn = Box<dyn Fn(&InputRow) -> Result<f64, String> + Send + Sync>;

/// A predictor wrapped with an end-to-end prediction cache.
pub struct E2eCachedPredictor {
    predict: PredictFn,
    /// Source column names, fixed order, defining the cache key.
    sources: Vec<String>,
    cache: Arc<Mutex<LruCache<Vec<String>, f64>>>,
}

impl std::fmt::Debug for E2eCachedPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("E2eCachedPredictor")
            .field("sources", &self.sources)
            .finish_non_exhaustive()
    }
}

impl E2eCachedPredictor {
    /// Wrap a single-input predictor. `sources` are the input column
    /// names forming the cache key; `capacity` bounds the LRU
    /// (`None` = unbounded, the paper's setting).
    pub fn new(
        predict: impl Fn(&InputRow) -> Result<f64, String> + Send + Sync + 'static,
        sources: Vec<String>,
        capacity: Option<usize>,
    ) -> E2eCachedPredictor {
        let cache = match capacity {
            Some(c) => LruCache::with_capacity(c),
            None => LruCache::unbounded(),
        };
        E2eCachedPredictor {
            predict: Box::new(predict),
            sources,
            cache: Arc::new(Mutex::new(cache)),
        }
    }

    fn key(&self, input: &InputRow) -> Result<Vec<String>, ServeError> {
        self.sources
            .iter()
            .map(|s| {
                input
                    .get(s)
                    .map(Value::to_string)
                    .ok_or_else(|| ServeError::BadRequest {
                        reason: format!("input missing source column `{s}`"),
                    })
            })
            .collect()
    }

    /// Predict with caching: a hit skips the pipeline entirely
    /// (including any remote feature requests).
    ///
    /// # Errors
    /// Returns [`ServeError`] on missing columns or predictor failure.
    pub fn predict_one(&self, input: &InputRow) -> Result<f64, ServeError> {
        let key = self.key(input)?;
        if let Some(score) = self.cache.lock().get(&key) {
            return Ok(*score);
        }
        let score = (self.predict)(input).map_err(ServeError::Predictor)?;
        self.cache.lock().put(key, score);
        Ok(score)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.cache.lock().hits()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.cache.lock().misses()
    }

    /// Hit rate over all lookups (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        self.cache.lock().hit_rate()
    }

    /// Clear cache contents and counters.
    pub fn clear(&self) {
        self.cache.lock().clear();
    }
}

/// An end-to-end-cached predictor is servable, so the Clipper-style
/// baseline can sit directly behind a (multi-worker)
/// [`crate::ServingRuntime`] endpoint: each row of a (possibly
/// coalesced) batch is looked up — and on miss, computed —
/// individually, which is exactly the per-input granularity
/// end-to-end prediction caches operate at.
impl Servable for E2eCachedPredictor {
    fn predict_table(&self, table: &willump_data::Table) -> Result<Vec<f64>, String> {
        (0..table.n_rows())
            .map(|r| {
                let input = InputRow::from_table(table, r).map_err(|e| e.to_string())?;
                self.predict_one(&input).map_err(|e| e.to_string())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn counting_predictor() -> (E2eCachedPredictor, Arc<AtomicU64>) {
        let calls = Arc::new(AtomicU64::new(0));
        let c = calls.clone();
        let p = E2eCachedPredictor::new(
            move |input| {
                c.fetch_add(1, Ordering::Relaxed);
                Ok(input.get("x").and_then(Value::as_f64).unwrap_or(0.0) * 2.0)
            },
            vec!["x".to_string(), "y".to_string()],
            None,
        );
        (p, calls)
    }

    fn row(x: f64, y: &str) -> InputRow {
        InputRow::new([("x", Value::Float(x)), ("y", Value::from(y))])
    }

    #[test]
    fn repeat_inputs_hit() {
        let (p, calls) = counting_predictor();
        assert_eq!(p.predict_one(&row(1.0, "a")).unwrap(), 2.0);
        assert_eq!(p.predict_one(&row(1.0, "a")).unwrap(), 2.0);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn partial_overlap_misses() {
        let (p, calls) = counting_predictor();
        p.predict_one(&row(1.0, "a")).unwrap();
        // Same x, different y: end-to-end caching cannot reuse it.
        p.predict_one(&row(1.0, "b")).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(p.hits(), 0);
    }

    #[test]
    fn missing_column_is_bad_request() {
        let (p, _) = counting_predictor();
        let input = InputRow::new([("x", Value::Float(1.0))]);
        assert!(matches!(
            p.predict_one(&input),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn clear_resets() {
        let (p, calls) = counting_predictor();
        p.predict_one(&row(1.0, "a")).unwrap();
        p.clear();
        p.predict_one(&row(1.0, "a")).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(p.hit_rate(), 0.0);
    }

    #[test]
    fn cached_predictor_serves_behind_clipper_server() {
        use crate::{ServingRuntime, DEFAULT_ENDPOINT};
        use willump_data::Value;

        let (p, calls) = counting_predictor();
        let mut builder = ServingRuntime::builder();
        builder.endpoint(DEFAULT_ENDPOINT, Arc::new(p));
        let server = builder.build().unwrap();
        let client = server.client();
        let wire_row = |x: f64, y: &str| {
            vec![
                ("x".to_string(), Value::Float(x)),
                ("y".to_string(), Value::from(y)),
            ]
        };
        // Two identical rows in one batch: second is a cache hit.
        let scores = client
            .predict(vec![wire_row(2.0, "a"), wire_row(2.0, "a")])
            .unwrap();
        assert_eq!(scores, vec![4.0, 4.0]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // A repeat request hits entirely.
        let scores = client.predict(vec![wire_row(2.0, "a")]).unwrap();
        assert_eq!(scores, vec![4.0]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn predictor_errors_propagate() {
        let p = E2eCachedPredictor::new(|_| Err("boom".to_string()), vec!["x".to_string()], None);
        let input = InputRow::new([("x", Value::Float(1.0))]);
        assert!(matches!(
            p.predict_one(&input),
            Err(ServeError::Predictor(_))
        ));
    }
}
