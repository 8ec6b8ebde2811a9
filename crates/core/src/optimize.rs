//! The end-to-end optimizer driver (paper §3's workflow: dataflow →
//! optimization → compilation).

use std::sync::Arc;
use std::time::Instant;

use willump_data::Table;
use willump_graph::{EngineMode, Executor, FeatureCaches, InputRow, Parallelism};
use willump_models::{Task, TrainedModel};

use crate::cascade::{select_threshold, ScoreCalibrator, ThresholdSelection};
use crate::config::{QueryMode, WillumpConfig};
use crate::efficient::{select_efficient_ifvs, SelectionStrategy};
use crate::pipeline::Pipeline;
use crate::plan::{PlanRunReport, ServingPlan};
use crate::stats::{compute_ifv_stats_with_basis, CostBasis, IfvStats};
use crate::WillumpError;

/// What the optimizer did and measured (paper §6.4's "optimization
/// times" and the cascade microbenchmarks read this).
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// Per-IFV statistics computed during optimization.
    pub ifv_stats: IfvStats,
    /// The efficient IFV subset selected by Algorithm 1 (empty when
    /// cascades were not deployable).
    pub efficient_set: Vec<usize>,
    /// Threshold-selection outcome (classification + cascades only).
    pub threshold: Option<ThresholdSelection>,
    /// Wall-clock time of the entire optimization, seconds.
    pub optimization_seconds: f64,
    /// Whether a cascade was deployed.
    pub cascades_deployed: bool,
    /// Why the economic gate declined to deploy cascades, when it did.
    pub cascade_gate_reason: Option<String>,
    /// Whether a top-K filter was deployed.
    pub filter_deployed: bool,
}

/// The Willump optimizer.
///
/// ```no_run
/// use willump::{Willump, WillumpConfig, Pipeline};
/// # fn main() -> Result<(), willump::WillumpError> {
/// # let (pipeline, train, train_y, valid, valid_y): (Pipeline, willump_data::Table, Vec<f64>, willump_data::Table, Vec<f64>) = unimplemented!();
/// let optimized = Willump::new(WillumpConfig::default())
///     .optimize(&pipeline, &train, &train_y, &valid, &valid_y)?;
/// let scores = optimized.predict_batch(&valid)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Willump {
    config: WillumpConfig,
}

impl Willump {
    /// An optimizer with the given configuration.
    pub fn new(config: WillumpConfig) -> Willump {
        Willump { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WillumpConfig {
        &self.config
    }

    /// Optimize a pipeline: train the full model, compute IFV
    /// statistics, select efficient IFVs, train the small model, pick
    /// the cascade threshold, and assemble the optimized serving path.
    ///
    /// # Errors
    /// Propagates configuration, execution, and training failures.
    pub fn optimize(
        &self,
        pipeline: &Pipeline,
        train: &Table,
        train_labels: &[f64],
        valid: &Table,
        valid_labels: &[f64],
    ) -> Result<OptimizedPipeline, WillumpError> {
        self.config.validate()?;
        if train.n_rows() != train_labels.len() || valid.n_rows() != valid_labels.len() {
            return Err(WillumpError::BadData {
                reason: "tables and labels must have matching lengths".into(),
            });
        }
        let started = Instant::now();
        let cfg = &self.config;

        // Compilation: the optimized pipeline always runs on the
        // compiled engine, with per-input parallelism for
        // example-at-a-time queries (batch queries are split into row
        // chunks by the plan executor).
        let parallelism = match (cfg.mode, cfg.threads) {
            (QueryMode::ExampleAtATime, t) if t > 1 => Parallelism::PerInput(t),
            _ => Parallelism::None,
        };
        let mut exec = Executor::new(pipeline.graph().clone(), EngineMode::Compiled)?
            .with_parallelism(parallelism);
        if let Some(caching) = cfg.caching {
            let n = exec.analysis().generators.len();
            exec = exec.with_caches(FeatureCaches::new(n, caching.capacity));
        }

        // Train the full model on all features.
        let full_feats = exec.features_batch(train, None)?;
        let full_model = Arc::new(pipeline.spec().fit(&full_feats, train_labels, cfg.seed)?);

        // IFV statistics (importance x cost). Costs are measured on
        // the batch path for batch/top-K queries and on the
        // single-input serving path for example-at-a-time queries,
        // where fixed costs (remote round trips) hit every row.
        let basis = match cfg.mode {
            QueryMode::ExampleAtATime => CostBasis::PerRow { max_rows: 64 },
            _ => CostBasis::Batch,
        };
        let ifv_stats = compute_ifv_stats_with_basis(
            &exec,
            &full_model,
            &full_feats,
            train,
            train_labels,
            cfg.seed,
            basis,
        )?;

        // LPT thread assignment uses measured generator costs.
        exec = exec.with_generator_costs(ifv_stats.cost.clone());

        // Efficient IFV selection (Algorithm 1).
        let strategy = SelectionStrategy::CostEffective {
            gamma: cfg.gamma,
            use_gamma_rule: true,
        };
        let efficient = select_efficient_ifvs(&ifv_stats, strategy, cfg.max_cost_fraction);
        let n_fgs = exec.analysis().generators.len();
        let proper = !efficient.is_empty() && efficient.len() < n_fgs;

        // Small/filter model over the efficient features.
        let small_model = if proper {
            let eff_feats = exec.features_batch(train, Some(&efficient))?;
            Some(Arc::new(pipeline.spec().fit(
                &eff_feats,
                train_labels,
                cfg.seed,
            )?))
        } else {
            None
        };

        // Cascade deployment (classification only).
        let mut threshold = None;
        let mut gate_reason = None;
        let cascade = if cfg.cascades && proper && pipeline.task() == Task::BinaryClassification {
            let small = small_model.clone().expect("proper subset has small model");
            let eff_valid = exec.features_batch(valid, Some(&efficient))?;
            let full_valid = exec.features_batch(valid, None)?;
            let raw_small_valid = small.predict_scores(&eff_valid);
            // Optional confidence calibration (extension; paper uses
            // raw scores). The calibrator is fit on the validation
            // split and applied consistently at threshold-selection
            // and serving time.
            let calibrator = ScoreCalibrator::fit(cfg.calibration, &raw_small_valid, valid_labels);
            let small_valid: Vec<f64> = match &calibrator {
                Some(c) => raw_small_valid.iter().map(|&s| c.calibrate(s)).collect(),
                None => raw_small_valid,
            };
            let sel = select_threshold(
                &small_valid,
                &full_model.predict_scores(&full_valid),
                valid_labels,
                cfg.accuracy_target,
            )?;
            // Economic gate: cascades pay when the features they skip
            // cost more than the extra small-model prediction they add.
            let deploy = if !cfg.cascade_gate {
                true
            } else {
                let model_cost = {
                    let start = Instant::now();
                    let _ = full_model.predict_scores(&full_valid);
                    start.elapsed().as_secs_f64() / valid.n_rows().max(1) as f64
                };
                let ineff_cost: f64 = (0..ifv_stats.len())
                    .filter(|g| !efficient.contains(g))
                    .map(|g| ifv_stats.cost[g])
                    .sum();
                let saving = sel.kept_fraction * ineff_cost;
                if saving <= model_cost {
                    gate_reason = Some(format!(
                        "expected saving {:.2}us/row <= small-model cost {:.2}us/row",
                        saving * 1e6,
                        model_cost * 1e6
                    ));
                    false
                } else {
                    true
                }
            };
            if deploy {
                // Lower the decisions (efficient subset, threshold,
                // calibration) into a serving plan.
                let plan = ServingPlan::cascade(
                    exec.clone(),
                    small,
                    full_model.clone(),
                    sel.threshold,
                    efficient.clone(),
                )?
                .with_calibrator(calibrator);
                threshold = Some(sel);
                Some(plan)
            } else {
                None
            }
        } else {
            None
        };

        // Top-K filter deployment (any task), lowered the same way.
        let filter = if let (QueryMode::TopK { k }, true) = (cfg.mode, proper) {
            let small = small_model.clone().expect("proper subset has small model");
            Some(ServingPlan::top_k_filter(
                exec.clone(),
                small,
                full_model.clone(),
                k,
                cfg.topk,
                efficient.clone(),
            )?)
        } else {
            None
        };

        let report = OptimizationReport {
            efficient_set: efficient,
            threshold,
            optimization_seconds: started.elapsed().as_secs_f64(),
            cascades_deployed: cascade.is_some(),
            cascade_gate_reason: gate_reason,
            filter_deployed: filter.is_some(),
            ifv_stats,
        };
        Ok(OptimizedPipeline {
            full: ServingPlan::full_model_plan(exec, full_model),
            cascade,
            filter,
            report,
        })
    }
}

/// A pipeline after Willump optimization: compiled execution, plus
/// cascades and/or a top-K filter when deployed, each a lowered
/// [`ServingPlan`].
///
/// Every plan is built once at optimization time, so clones of the
/// pipeline and of [`serving_plan`](OptimizedPipeline::serving_plan)
/// share each plan's counters; a plan's stage list (threshold, top-K
/// configuration) belongs to the pipeline that holds it.
#[derive(Debug, Clone)]
pub struct OptimizedPipeline {
    full: ServingPlan,
    cascade: Option<ServingPlan>,
    filter: Option<ServingPlan>,
    report: OptimizationReport,
}

impl OptimizedPipeline {
    /// The optimization report.
    pub fn report(&self) -> &OptimizationReport {
        &self.report
    }

    /// The compiled executor (for instrumentation).
    pub fn executor(&self) -> &Executor {
        self.full.executor()
    }

    /// The trained full model.
    pub fn full_model(&self) -> &Arc<TrainedModel> {
        self.full.full_model()
    }

    /// The deployed cascade plan, if any.
    pub fn cascade(&self) -> Option<&ServingPlan> {
        self.cascade.as_ref()
    }

    /// Mutable access to the deployed cascade plan (threshold sweeps).
    pub fn cascade_mut(&mut self) -> Option<&mut ServingPlan> {
        self.cascade.as_mut()
    }

    /// The deployed top-K filter plan, if any.
    pub fn filter(&self) -> Option<&ServingPlan> {
        self.filter.as_ref()
    }

    /// Mutable access to the deployed filter plan (subset-size sweeps).
    pub fn filter_mut(&mut self) -> Option<&mut ServingPlan> {
        self.filter.as_mut()
    }

    /// The lowered [`ServingPlan`] this pipeline serves with: the
    /// top-K plan when a filter deployed (the pipeline was optimized
    /// for top-K queries), otherwise the cascade plan when cascades
    /// deployed, otherwise the plain compiled full-model plan.
    /// The returned plan is a clone of the deployed one — same stages,
    /// shared counters and executor — so compose freely (e.g.
    /// [`ServingPlan::with_e2e_cache`]) and serve it directly.
    pub fn serving_plan(&self) -> ServingPlan {
        self.filter
            .as_ref()
            .or(self.cascade.as_ref())
            .unwrap_or(&self.full)
            .clone()
    }

    /// The plan [`predict_batch`](Self::predict_batch) and
    /// [`predict_one`](Self::predict_one) run: the cascade when one
    /// deployed, else the full model.
    fn scoring_plan(&self) -> &ServingPlan {
        self.cascade.as_ref().unwrap_or(&self.full)
    }

    /// Predict scores for a batch: cascaded when a cascade is
    /// deployed, otherwise compiled full-model inference.
    ///
    /// # Errors
    /// Propagates execution failures.
    pub fn predict_batch(&self, table: &Table) -> Result<Vec<f64>, WillumpError> {
        self.scoring_plan().predict_batch(table)
    }

    /// Batch prediction returning the plan's run report (its
    /// `gate_resolved` and `escalated` counts are zero without a
    /// cascade).
    ///
    /// # Errors
    /// Propagates execution failures.
    pub fn predict_batch_with_stats(
        &self,
        table: &Table,
    ) -> Result<(Vec<f64>, PlanRunReport), WillumpError> {
        let out = self.scoring_plan().run_batch(table)?;
        Ok((out.scores, out.report))
    }

    /// Predict the score for one input.
    ///
    /// # Errors
    /// Propagates execution failures.
    pub fn predict_one(&self, input: &InputRow) -> Result<f64, WillumpError> {
        self.scoring_plan().predict_one(input)
    }

    /// Answer a top-K query: filtered when a filter is deployed, with
    /// the filter plan's run report (`filter_batch`, `filter_kept`),
    /// otherwise exact.
    ///
    /// # Errors
    /// Propagates execution failures.
    pub fn top_k(
        &self,
        table: &Table,
        k: usize,
    ) -> Result<(Vec<usize>, Option<PlanRunReport>), WillumpError> {
        match &self.filter {
            Some(f) => {
                let (idx, report) = f.top_k(table, k)?;
                Ok((idx, Some(report)))
            }
            None => {
                let idx = crate::topk::exact_top_k(self.executor(), self.full_model(), table, k)?;
                Ok((idx, None))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use willump_data::Column;
    use willump_graph::{GraphBuilder, Operator};
    use willump_models::{LogisticParams, ModelSpec};

    /// Classification data with easy (FG0-signaled) and hard
    /// (FG1-signaled) inputs; FG1 artificially expensive via a second
    /// chained op would be nice, but cost differences arise naturally.
    fn setup() -> (Pipeline, Table, Vec<f64>, Table, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let a = b.source("a");
        let c = b.source("btxt");
        let f0 = b.add("f0", Operator::NumericColumn, [a]).unwrap();
        // FG1 is a string-stats op (more expensive than a numeric
        // passthrough) whose char_len carries the hard signal.
        let f1 = b.add("f1", Operator::StringStats, [c]).unwrap();
        let g = Arc::new(b.finish_with_concat("cat", [f0, f1]).unwrap());
        let p = Pipeline::new(g, ModelSpec::Logistic(LogisticParams::default()));

        let make = |n: usize, offset: usize| {
            let mut avals = Vec::new();
            let mut bvals: Vec<String> = Vec::new();
            let mut y = Vec::new();
            for j in 0..n {
                let i = j + offset;
                let label = (i % 2) as f64;
                let easy = !i.is_multiple_of(4);
                if easy {
                    avals.push(if label > 0.5 { 2.5 } else { -2.5 });
                    bvals.push("mid".to_string());
                } else {
                    avals.push(0.0);
                    bvals.push(if label > 0.5 {
                        "very long positive text".to_string()
                    } else {
                        "x".to_string()
                    });
                }
                y.push(label);
            }
            let mut t = Table::new();
            t.add_column("a", Column::from(avals)).unwrap();
            t.add_column("btxt", Column::from(bvals)).unwrap();
            (t, y)
        };
        let (train, train_y) = make(400, 0);
        let (valid, valid_y) = make(200, 400);
        (p, train, train_y, valid, valid_y)
    }

    #[test]
    fn end_to_end_optimization_deploys_cascades() {
        let (p, train, train_y, valid, valid_y) = setup();
        let opt = Willump::new(WillumpConfig::default())
            .optimize(&p, &train, &train_y, &valid, &valid_y)
            .unwrap();
        let report = opt.report();
        assert!(report.optimization_seconds < 30.0);
        // Accuracy within target of the full model on validation.
        let scores = opt.predict_batch(&valid).unwrap();
        let acc = willump_models::metrics::accuracy(&scores, &valid_y);
        let full_feats = opt.executor().features_batch(&valid, None).unwrap();
        let full_acc = willump_models::metrics::accuracy(
            &opt.full_model().predict_scores(&full_feats),
            &valid_y,
        );
        assert!(acc >= full_acc - 0.002, "{acc} vs {full_acc}");
        if report.cascades_deployed {
            let stats = opt.predict_batch_with_stats(&valid).unwrap().1;
            assert!(stats.gate_resolved + stats.escalated == valid.n_rows());
        }
    }

    #[test]
    fn single_input_agrees_with_batch() {
        let (p, train, train_y, valid, valid_y) = setup();
        let opt = Willump::new(WillumpConfig::default())
            .optimize(&p, &train, &train_y, &valid, &valid_y)
            .unwrap();
        let batch = opt.predict_batch(&valid).unwrap();
        for r in (0..valid.n_rows()).step_by(41) {
            let input = InputRow::from_table(&valid, r).unwrap();
            let one = opt.predict_one(&input).unwrap();
            assert!((one - batch[r]).abs() < 1e-9, "row {r}");
        }
    }

    #[test]
    fn cascades_can_be_disabled() {
        let (p, train, train_y, valid, valid_y) = setup();
        let cfg = WillumpConfig {
            cascades: false,
            ..WillumpConfig::default()
        };
        let opt = Willump::new(cfg)
            .optimize(&p, &train, &train_y, &valid, &valid_y)
            .unwrap();
        assert!(!opt.report().cascades_deployed);
        assert!(opt.cascade().is_none());
    }

    #[test]
    fn topk_mode_deploys_filter() {
        let (p, train, train_y, valid, valid_y) = setup();
        let cfg = WillumpConfig {
            mode: QueryMode::TopK { k: 10 },
            ..WillumpConfig::default()
        };
        let opt = Willump::new(cfg)
            .optimize(&p, &train, &train_y, &valid, &valid_y)
            .unwrap();
        let (idx, stats) = opt.top_k(&valid, 10).unwrap();
        assert_eq!(idx.len(), 10);
        if opt.report().filter_deployed {
            assert!(stats.unwrap().filter_kept.unwrap() >= 10);
        }
    }

    #[test]
    fn calibrated_cascades_preserve_accuracy() {
        use crate::config::Calibration;
        let (p, train, train_y, valid, valid_y) = setup();
        for method in [Calibration::Platt, Calibration::Isotonic] {
            let opt = Willump::new(WillumpConfig {
                calibration: method,
                cascade_gate: false,
                ..WillumpConfig::default()
            })
            .optimize(&p, &train, &train_y, &valid, &valid_y)
            .unwrap();
            let scores = opt.predict_batch(&valid).unwrap();
            let acc = willump_models::metrics::accuracy(&scores, &valid_y);
            let full_feats = opt.executor().features_batch(&valid, None).unwrap();
            let full_acc = willump_models::metrics::accuracy(
                &opt.full_model().predict_scores(&full_feats),
                &valid_y,
            );
            assert!(
                acc >= full_acc - 0.01,
                "{method:?}: calibrated cascade {acc} vs full {full_acc}"
            );
            if opt.report().cascades_deployed {
                assert!(
                    opt.cascade().unwrap().calibrator().is_some(),
                    "{method:?}: calibrator should be attached"
                );
            }
        }
    }

    #[test]
    fn mismatched_labels_rejected() {
        let (p, train, train_y, valid, _) = setup();
        let bad = vec![0.0; 3];
        assert!(Willump::new(WillumpConfig::default())
            .optimize(&p, &train, &train_y, &valid, &bad)
            .is_err());
    }
}
