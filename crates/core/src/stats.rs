//! IFV statistics: prediction importance and computational cost
//! (paper §4.2, "Computing IFV Statistics"), plus the streaming
//! telemetry primitives — a windowed-EWMA arrival-rate estimator and
//! a fixed-bucket latency histogram — that the serving runtime's
//! statistical admission layer builds its shed/degrade decisions on.

use willump_data::{FeatureMatrix, Table};
use willump_graph::analysis::subset_layout;
use willump_graph::cost::{measure_costs, measure_costs_per_row};
use willump_graph::Executor;
use willump_models::{importance, Task, TrainedModel};

use crate::WillumpError;

/// How IFV computational costs are measured (query-aware, §2.3):
/// batch queries amortize fixed per-request costs (like a remote round
/// trip) over the batch; example-at-a-time queries pay them per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostBasis {
    /// Batched execution over the training sample.
    Batch,
    /// Single-input serving over (up to) the given number of sampled
    /// rows.
    PerRow {
        /// Sample size cap (per-row measurement is slower).
        max_rows: usize,
    },
}

/// Per-IFV statistics feeding Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct IfvStats {
    /// Prediction importance per generator (sum over its features).
    pub importance: Vec<f64>,
    /// Computational cost per generator, seconds per row.
    pub cost: Vec<f64>,
    /// Boundary (driver) cost per row, seconds.
    pub boundary_cost: f64,
}

impl IfvStats {
    /// Number of IFVs described.
    pub fn len(&self) -> usize {
        self.importance.len()
    }

    /// Whether there are no IFVs.
    pub fn is_empty(&self) -> bool {
        self.importance.is_empty()
    }

    /// Cost-effectiveness (importance / cost) of one IFV; zero-cost
    /// IFVs get infinite cost-effectiveness if they carry importance.
    pub fn cost_effectiveness(&self, g: usize) -> f64 {
        let c = self.cost[g];
        let i = self.importance[g];
        if c <= 0.0 {
            if i > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            i / c
        }
    }

    /// Total pipeline cost (all generators).
    pub fn total_cost(&self) -> f64 {
        self.cost.iter().sum()
    }
}

/// Compute per-feature prediction importances for a trained full model
/// (paper §4.2):
///
/// - linear models: |coefficient| x mean |feature value|,
/// - ensembles (GBDT): permutation importance on the training sample,
/// - others (MLP): importances of a proxy GBDT trained on the same
///   data.
///
/// # Errors
/// Propagates model errors from the proxy-GBDT fallback.
pub fn feature_importances(
    model: &TrainedModel,
    features: &FeatureMatrix,
    labels: &[f64],
    seed: u64,
) -> Result<Vec<f64>, WillumpError> {
    match model {
        TrainedModel::Logistic(_) | TrainedModel::Linear(_) => {
            let coefs = model
                .native_importances()
                .expect("linear models have coefficients");
            Ok(importance::linear_importances(&coefs, features))
        }
        TrainedModel::Gbdt(_) | TrainedModel::Forest(_) => Ok(importance::permutation_importances(
            model, features, labels, seed,
        )),
        TrainedModel::Mlp(m) => {
            let task = if m.is_classifier() {
                Task::BinaryClassification
            } else {
                Task::Regression
            };
            importance::gbdt_proxy_importances(features, labels, task).map_err(WillumpError::from)
        }
    }
}

/// Compute full IFV statistics: importances from the trained model and
/// features, costs from instrumented execution on the training sample
/// (batched — paper §4.2's "during model training" measurement).
///
/// # Errors
/// Propagates execution and model errors.
pub fn compute_ifv_stats(
    exec: &Executor,
    model: &TrainedModel,
    train_features: &FeatureMatrix,
    train_table: &Table,
    labels: &[f64],
    seed: u64,
) -> Result<IfvStats, WillumpError> {
    compute_ifv_stats_with_basis(
        exec,
        model,
        train_features,
        train_table,
        labels,
        seed,
        CostBasis::Batch,
    )
}

/// [`compute_ifv_stats`] with an explicit cost basis. The optimizer
/// passes [`CostBasis::PerRow`] when tuning for example-at-a-time
/// queries, where each input pays fixed costs (remote round trips) in
/// full.
///
/// # Errors
/// Propagates execution and model errors.
pub fn compute_ifv_stats_with_basis(
    exec: &Executor,
    model: &TrainedModel,
    train_features: &FeatureMatrix,
    train_table: &Table,
    labels: &[f64],
    seed: u64,
    basis: CostBasis,
) -> Result<IfvStats, WillumpError> {
    let per_feature = feature_importances(model, train_features, labels, seed)?;
    let analysis = exec.analysis();
    let full: Vec<usize> = (0..analysis.generators.len()).collect();
    let layout = subset_layout(exec.graph(), analysis, &full).map_err(WillumpError::from)?;
    let importance: Vec<f64> = layout
        .iter()
        .map(|&(_, offset, width)| {
            let group: Vec<usize> = (offset..offset + width).collect();
            importance::group_importance(&per_feature, &group)
        })
        .collect();
    let costs = match basis {
        CostBasis::Batch => measure_costs(exec, train_table).map_err(WillumpError::from)?,
        CostBasis::PerRow { max_rows } => {
            measure_costs_per_row(exec, train_table, max_rows).map_err(WillumpError::from)?
        }
    };
    Ok(IfvStats {
        importance,
        cost: costs.per_generator,
        boundary_cost: costs.boundary,
    })
}

/// Streaming arrival-rate estimator: a windowed EWMA over event
/// counts.
///
/// Events are binned into fixed wall-clock windows; each completed
/// window's instantaneous rate (`count / window`) folds into an
/// exponentially-weighted moving average with smoothing `alpha`.
/// Windows with no events decay the average toward zero, so a burst
/// that ended a while ago stops inflating the estimate. Timestamps
/// are caller-supplied nanoseconds, keeping the estimator
/// deterministic under test and compatible with virtual clocks.
///
/// ```
/// use willump::stats::RateEstimator;
///
/// let mut r = RateEstimator::new(1_000_000_000, 0.5); // 1s windows
/// for i in 0..10u64 {
///     r.record(i * 100_000_000); // 10 events/s for 1s
/// }
/// r.record(1_000_000_000); // closes the first window
/// assert!(r.rate_per_sec() > 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window_nanos: u64,
    alpha: f64,
    window_start: u64,
    in_window: u64,
    rate: f64,
    primed: bool,
}

impl RateEstimator {
    /// An estimator with `window_nanos`-wide bins and EWMA smoothing
    /// factor `alpha` (weight of the newest window).
    ///
    /// # Panics
    /// Panics unless `window_nanos > 0` and `0 < alpha <= 1`.
    pub fn new(window_nanos: u64, alpha: f64) -> RateEstimator {
        assert!(window_nanos > 0, "window must be positive");
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        RateEstimator {
            window_nanos,
            alpha,
            window_start: 0,
            in_window: 0,
            rate: 0.0,
            primed: false,
        }
    }

    /// Record one event at `now_nanos` (monotonic; out-of-order
    /// timestamps count into the current window).
    pub fn record(&mut self, now_nanos: u64) {
        if !self.primed {
            self.primed = true;
            self.window_start = now_nanos;
        }
        self.roll_to(now_nanos);
        self.in_window += 1;
    }

    /// The smoothed arrival rate in events per second, as of
    /// `now_nanos` (events in the still-open window are not counted;
    /// windows that elapsed empty decay the estimate first).
    pub fn rate_at(&mut self, now_nanos: u64) -> f64 {
        if self.primed {
            self.roll_to(now_nanos);
        }
        self.rate
    }

    /// The smoothed arrival rate in events per second as of the last
    /// recorded event.
    pub fn rate_per_sec(&self) -> f64 {
        self.rate
    }

    /// Fold every window completed before `now_nanos` into the EWMA.
    fn roll_to(&mut self, now_nanos: u64) {
        while now_nanos.saturating_sub(self.window_start) >= self.window_nanos {
            let inst = self.in_window as f64 * 1e9 / self.window_nanos as f64;
            self.rate = self.alpha * inst + (1.0 - self.alpha) * self.rate;
            self.in_window = 0;
            self.window_start += self.window_nanos;
        }
    }
}

/// A fixed-bucket latency histogram with quantile estimation.
///
/// Buckets have exponentially-growing upper bounds, so one small
/// array covers microseconds through seconds at bounded relative
/// error. Quantiles interpolate linearly inside the covering bucket;
/// samples beyond the last bound clamp to it. [`halve`] ages out old
/// samples so a long-running server's p99 tracks *recent* service
/// times.
///
/// ```
/// use willump::stats::LatencyHistogram;
///
/// let mut h = LatencyHistogram::exponential(1_000, 2.0, 20);
/// for i in 1..=100u64 {
///     h.record(i * 1_000); // 1..100 µs
/// }
/// let p99 = h.quantile(0.99).unwrap();
/// assert!(p99 >= 64_000 && p99 <= 128_000);
/// ```
///
/// [`halve`]: LatencyHistogram::halve
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Ascending bucket upper bounds in nanoseconds; bucket `i` counts
    /// samples in `(bounds[i-1], bounds[i]]`.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
}

impl LatencyHistogram {
    /// A histogram of `n_buckets` buckets whose upper bounds start at
    /// `first_bound_nanos` and grow by `factor` per bucket.
    ///
    /// # Panics
    /// Panics unless `first_bound_nanos > 0`, `factor > 1`, and
    /// `n_buckets > 0`.
    pub fn exponential(first_bound_nanos: u64, factor: f64, n_buckets: usize) -> LatencyHistogram {
        assert!(first_bound_nanos > 0, "first bound must be positive");
        assert!(factor > 1.0, "factor must exceed 1, got {factor}");
        assert!(n_buckets > 0, "need at least one bucket");
        let mut bounds = Vec::with_capacity(n_buckets);
        let mut b = first_bound_nanos as f64;
        for _ in 0..n_buckets {
            bounds.push(b.min(u64::MAX as f64) as u64);
            b *= factor;
        }
        bounds.dedup();
        LatencyHistogram::with_bounds(bounds)
    }

    /// A histogram over explicit ascending upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: Vec<u64>) -> LatencyHistogram {
        assert!(!bounds.is_empty(), "need at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly ascending"
        );
        let n = bounds.len();
        LatencyHistogram {
            bounds,
            counts: vec![0; n],
            total: 0,
        }
    }

    /// Record one sample; values past the last bound clamp into the
    /// final bucket.
    pub fn record(&mut self, nanos: u64) {
        let idx = self.bounds.partition_point(|&b| b < nanos);
        let idx = idx.min(self.bounds.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Estimated latency at quantile `q` in `[0, 1]`; `None` when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let within = (rank - seen) as f64 / c as f64;
                return Some(lower + ((upper - lower) as f64 * within) as u64);
            }
            seen += c;
        }
        Some(*self.bounds.last().expect("non-empty bounds"))
    }

    /// Estimated median latency in nanoseconds.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Estimated 99th-percentile latency in nanoseconds.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Estimated 99.9th-percentile latency in nanoseconds.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Halve every bucket count, aging out stale samples (an
    /// exponential decay).
    pub fn halve(&mut self) {
        self.total = 0;
        for c in &mut self.counts {
            *c >>= 1;
            self.total += *c;
        }
    }

    /// Reset all buckets.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use willump_data::{Column, Matrix};
    use willump_graph::{EngineMode, GraphBuilder, Operator};
    use willump_models::{GbdtParams, LogisticParams, MlpParams, ModelSpec};

    fn exec_with_two_fgs() -> (Executor, Table) {
        let mut b = GraphBuilder::new();
        let a = b.source("a");
        let c = b.source("b");
        let f0 = b.add("f0", Operator::NumericColumn, [a]).unwrap();
        let f1 = b.add("f1", Operator::NumericColumn, [c]).unwrap();
        let g = Arc::new(b.finish_with_concat("cat", [f0, f1]).unwrap());
        let exec = Executor::new(g, EngineMode::Compiled).unwrap();
        let mut t = Table::new();
        // Feature a decides the label; b is pair-constant noise.
        let avals: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
        let bvals: Vec<f64> = (0..100)
            .map(|i| ((i / 2 * 17) % 10) as f64 / 10.0)
            .collect();
        t.add_column("a", Column::from(avals)).unwrap();
        t.add_column("b", Column::from(bvals)).unwrap();
        (exec, t)
    }

    fn labels() -> Vec<f64> {
        (0..100).map(|i| (i % 2) as f64).collect()
    }

    #[test]
    fn stats_find_important_generator() {
        let (exec, t) = exec_with_two_fgs();
        let y = labels();
        let feats = exec.features_batch(&t, None).unwrap();
        let model = ModelSpec::Logistic(LogisticParams::default())
            .fit(&feats, &y, 1)
            .unwrap();
        let stats = compute_ifv_stats(&exec, &model, &feats, &t, &y, 1).unwrap();
        assert_eq!(stats.len(), 2);
        assert!(stats.importance[0] > stats.importance[1] * 2.0, "{stats:?}");
        assert!(stats.cost.iter().all(|c| *c >= 0.0));
        assert!(stats.total_cost() >= 0.0);
    }

    #[test]
    fn importances_for_every_model_family() {
        let (exec, t) = exec_with_two_fgs();
        let y = labels();
        let feats = exec.features_batch(&t, None).unwrap();
        for spec in [
            ModelSpec::Logistic(LogisticParams::default()),
            ModelSpec::GbdtClassifier(GbdtParams::default()),
            ModelSpec::MlpClassifier(MlpParams::default()),
        ] {
            let model = spec.fit(&feats, &y, 1).unwrap();
            let imp = feature_importances(&model, &feats, &y, 1).unwrap();
            assert_eq!(imp.len(), 2);
            assert!(imp[0] > imp[1], "family {spec:?} importances {imp:?}");
        }
    }

    #[test]
    fn cost_effectiveness_handles_zero_cost() {
        let stats = IfvStats {
            importance: vec![1.0, 0.0],
            cost: vec![0.0, 0.0],
            boundary_cost: 0.0,
        };
        assert!(stats.cost_effectiveness(0).is_infinite());
        assert_eq!(stats.cost_effectiveness(1), 0.0);
    }

    #[test]
    fn rate_estimator_converges_to_steady_rate() {
        let mut r = RateEstimator::new(1_000_000_000, 0.3);
        // 50 events/s for 20 seconds.
        for i in 0..1000u64 {
            r.record(i * 20_000_000);
        }
        let rate = r.rate_at(20_000_000_000);
        assert!((rate - 50.0).abs() < 2.0, "rate {rate}");
    }

    #[test]
    fn rate_estimator_decays_when_traffic_stops() {
        let mut r = RateEstimator::new(1_000_000_000, 0.5);
        for i in 0..100u64 {
            r.record(i * 10_000_000); // 100/s burst inside 1s
        }
        r.record(1_000_000_000); // close the burst window
        let peak = r.rate_per_sec();
        assert!(peak > 40.0, "peak {peak}");
        // 10 silent seconds: the estimate must collapse toward zero.
        let later = r.rate_at(11_000_000_000);
        assert!(later < peak / 100.0, "decayed rate {later} vs {peak}");
    }

    #[test]
    fn rate_estimator_is_quiet_before_any_event() {
        let mut r = RateEstimator::new(1_000_000, 0.5);
        assert_eq!(r.rate_per_sec(), 0.0);
        assert_eq!(r.rate_at(5_000_000_000), 0.0);
    }

    #[test]
    fn histogram_quantiles_bracket_known_distribution() {
        let mut h = LatencyHistogram::exponential(1_000, 2.0, 24);
        // Uniform 1..=1000 µs: p50 ≈ 500µs, p99 ≈ 990µs.
        for i in 1..=1000u64 {
            h.record(i * 1_000);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!((256_000..=1_024_000).contains(&p50), "p50 {p50}");
        assert!((512_000..=2_048_000).contains(&p99), "p99 {p99}");
        assert!(p99 > p50);
    }

    #[test]
    fn histogram_clamps_overflow_and_handles_empty() {
        let mut h = LatencyHistogram::with_bounds(vec![10, 100]);
        assert_eq!(h.quantile(0.5), None);
        h.record(1_000_000); // far past the last bound
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), Some(100));
        h.clear();
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_halving_ages_out_slow_past() {
        let mut h = LatencyHistogram::exponential(1_000, 2.0, 20);
        for _ in 0..512 {
            h.record(400_000); // a slow regime: p99 ≈ 400µs
        }
        assert!(h.p99().unwrap() >= 256_000);
        // The service recovers; decay forgets the slow era.
        for _ in 0..10 {
            h.halve();
            for _ in 0..64 {
                h.record(2_000);
            }
        }
        assert!(h.p99().unwrap() <= 16_000, "p99 {:?}", h.p99());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_panic() {
        let _ = LatencyHistogram::with_bounds(vec![100, 10]);
    }

    /// The exact-sort reference for histogram quantiles, using the
    /// SAME rank rule the histogram uses (`ceil(q * n)`, min rank 1),
    /// so the only divergence left is bucket quantization.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank - 1]
    }

    /// The exponential-bucket interval `(lo, hi]` a value falls in
    /// (values past the last bound clamp into the final bucket, like
    /// `LatencyHistogram::record`).
    fn bucket_bounds(bounds: &[u64], value: u64) -> (u64, u64) {
        let idx = bounds.partition_point(|&b| b < value);
        let idx = idx.min(bounds.len() - 1);
        let lo = if idx == 0 { 0 } else { bounds[idx - 1] };
        (lo, bounds[idx])
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Percentile accuracy (satellite of the observability PR):
        /// for arbitrary samples, the histogram's p50/p99/p99.9 must
        /// land inside the exponential bucket containing the
        /// exact-sorted quantile — the tightest guarantee a bucketed
        /// histogram can make, and exactly the relative-error bound
        /// the bucket growth factor promises.
        #[test]
        fn histogram_quantiles_stay_within_bucket_bound(
            values in proptest::collection::vec(1u64..50_000_000, 1..400),
        ) {
            let hist = LatencyHistogram::exponential(1_000, 2.0, 26);
            let mut h = hist.clone();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            // Reconstruct the bucket bounds the constructor produced.
            let mut bounds = Vec::new();
            let mut b = 1_000f64;
            for _ in 0..26 {
                bounds.push(b as u64);
                b *= 2.0;
            }
            for q in [0.5, 0.99, 0.999] {
                let est = h.quantile(q).expect("non-empty");
                let exact = exact_quantile(&sorted, q);
                let (lo, hi) = bucket_bounds(&bounds, exact);
                prop_assert!(
                    est > lo && est <= hi,
                    "q={q}: estimate {est} outside bucket ({lo}, {hi}] of exact {exact}"
                );
            }
        }

        /// p50 <= p99 <= p99.9 for any sample set (quantile
        /// monotonicity survives interpolation).
        #[test]
        fn histogram_quantiles_are_monotone(
            values in proptest::collection::vec(1u64..50_000_000, 1..200),
        ) {
            let mut h = LatencyHistogram::exponential(1_000, 2.0, 26);
            for &v in &values {
                h.record(v);
            }
            let p50 = h.p50().expect("non-empty");
            let p99 = h.p99().expect("non-empty");
            let p999 = h.p999().expect("non-empty");
            prop_assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        }
    }

    #[test]
    fn dense_feature_path_works() {
        // feature_importances also accepts dense matrices directly.
        let x = FeatureMatrix::Dense(Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
        ]));
        let y = [1.0, 0.0, 1.0, 0.0];
        let model = ModelSpec::Logistic(LogisticParams::default())
            .fit(&x, &y, 1)
            .unwrap();
        let imp = feature_importances(&model, &x, &y, 1).unwrap();
        assert!(imp[0] > imp[1]);
    }
}
