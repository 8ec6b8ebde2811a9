//! Optimizer configuration.

/// The query modality a pipeline is optimized for (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// High-throughput batch inference.
    Batch,
    /// Low-latency single-input inference (feature costs are measured
    /// per row, as the single-input path pays them).
    ExampleAtATime,
    /// Top-K ranking queries (enables the automatic filter model).
    TopK {
        /// How many top-scoring inputs the application requests.
        k: usize,
    },
}

/// Top-K filter-model tuning (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKConfig {
    /// Subset size multiplier: the filter keeps `ck * K` candidates
    /// for the full model. Paper default: 10.
    pub ck: usize,
    /// Minimum subset size as a fraction of the input batch. Paper
    /// default: 5 %.
    pub min_subset_frac: f64,
}

impl Default for TopKConfig {
    fn default() -> Self {
        TopKConfig {
            ck: 10,
            min_subset_frac: 0.05,
        }
    }
}

impl TopKConfig {
    /// Candidates the filter keeps from a batch of `n` for a top-`k`
    /// query: `max(ck * k, ceil(min_subset_frac * n))`, at most `n`.
    #[must_use]
    pub fn subset_size(&self, n: usize, k: usize) -> usize {
        let by_ck = self.ck.saturating_mul(k);
        let by_frac = (self.min_subset_frac * n as f64).ceil() as usize;
        by_ck.max(by_frac).min(n)
    }
}

/// Feature-level caching configuration (paper §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachingConfig {
    /// Per-IFV LRU capacity (`None` = unbounded, the paper's Table 2/3
    /// setting).
    pub capacity: Option<usize>,
}

/// How small-model confidences are calibrated before being compared
/// against the cascade threshold.
///
/// The cascade threshold treats small-model scores as probabilities of
/// correctness (paper §4.2); when the small model is miscalibrated
/// (common for GBDTs and MLPs), an explicit calibration fit on the
/// validation set makes the threshold mean what it says. An extension
/// beyond the paper, which uses raw scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Calibration {
    /// Use raw small-model scores (the paper's behaviour).
    #[default]
    None,
    /// Platt scaling: logistic fit over validation scores.
    Platt,
    /// Isotonic regression (pool-adjacent-violators) over validation
    /// scores.
    Isotonic,
}

/// Configuration for [`crate::Willump::optimize`].
#[derive(Debug, Clone, PartialEq)]
pub struct WillumpConfig {
    /// Maximum allowed accuracy loss of cascades relative to the full
    /// model on the validation set. Paper evaluates 0.001 (0.1 %).
    pub accuracy_target: f64,
    /// Cost-effectiveness stopping ratio γ of Algorithm 1: stop adding
    /// IFVs when the next IFV's cost-effectiveness falls below
    /// `γ x` the average of the efficient set. The default is small
    /// because compiled-engine IFV costs span several orders of
    /// magnitude (string stats cost microseconds, TF-IDF milliseconds),
    /// so cost-effectiveness ratios are wide.
    pub gamma: f64,
    /// Enable automatic end-to-end cascades (classification only).
    pub cascades: bool,
    /// Deploy cascades only when the expected per-row saving (kept
    /// fraction x inefficient feature cost) exceeds the small model's
    /// own prediction cost. The paper observes cascades give "no
    /// speedup" on pipelines whose features are cheap local lookups
    /// (§6.3, Music/Tracking with local tables); the gate turns that
    /// observation into a deployment decision. Disable to force
    /// deployment (threshold sweeps).
    pub cascade_gate: bool,
    /// Query modality being optimized for.
    pub mode: QueryMode,
    /// Top-K filter tuning (used when `mode` is [`QueryMode::TopK`]).
    pub topk: TopKConfig,
    /// Attach per-IFV feature caches to the serving path.
    pub caching: Option<CachingConfig>,
    /// Calibrate small-model confidences before threshold comparison.
    pub calibration: Calibration,
    /// Seed for model training and validation shuffling.
    pub seed: u64,
}

impl Default for WillumpConfig {
    fn default() -> Self {
        WillumpConfig {
            accuracy_target: 0.001,
            gamma: 0.02,
            cascades: true,
            cascade_gate: true,
            mode: QueryMode::Batch,
            topk: TopKConfig::default(),
            caching: None,
            calibration: Calibration::None,
            seed: 42,
        }
    }
}

impl WillumpConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns [`crate::WillumpError::BadConfig`] for out-of-range
    /// values.
    pub fn validate(&self) -> Result<(), crate::WillumpError> {
        if !(0.0..=1.0).contains(&self.accuracy_target) {
            return Err(crate::WillumpError::BadConfig {
                reason: format!("accuracy_target {} not in [0, 1]", self.accuracy_target),
            });
        }
        if self.gamma < 0.0 {
            return Err(crate::WillumpError::BadConfig {
                reason: format!("gamma {} must be non-negative", self.gamma),
            });
        }
        if let QueryMode::TopK { k } = self.mode {
            if k == 0 {
                return Err(crate::WillumpError::BadConfig {
                    reason: "top-K requires k >= 1".into(),
                });
            }
        }
        if self.topk.ck == 0 {
            return Err(crate::WillumpError::BadConfig {
                reason: "topk.ck must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.topk.min_subset_frac) {
            return Err(crate::WillumpError::BadConfig {
                reason: format!(
                    "topk.min_subset_frac {} not in [0, 1]",
                    self.topk.min_subset_frac
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(WillumpConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_values() {
        let bad = WillumpConfig {
            accuracy_target: 2.0,
            ..WillumpConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = WillumpConfig {
            gamma: -1.0,
            ..WillumpConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = WillumpConfig {
            mode: QueryMode::TopK { k: 0 },
            ..WillumpConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = WillumpConfig {
            topk: TopKConfig {
                ck: 0,
                ..TopKConfig::default()
            },
            ..WillumpConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn subset_size_rules() {
        let config = TopKConfig::default();
        // ck*K dominates: 10*20 = 200 > 5% of 500 = 25.
        assert_eq!(config.subset_size(500, 20), 200);
        // Fraction floor dominates for tiny K: max(10, 25) = 25.
        assert_eq!(config.subset_size(500, 1), 25);
        // Clamped to batch size.
        assert_eq!(config.subset_size(50, 20), 50);
    }

    #[test]
    fn paper_defaults() {
        let c = WillumpConfig::default();
        assert_eq!(c.topk.ck, 10);
        assert!((c.topk.min_subset_frac - 0.05).abs() < 1e-12);
        assert!((c.accuracy_target - 0.001).abs() < 1e-12);
    }
}
