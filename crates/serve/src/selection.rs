//! Multi-armed-bandit model selection, Clipper's selection layer.
//!
//! The paper (§7) notes that Clipper layers a model-selection policy
//! over user-provided models, using multi-armed bandits to route each
//! query session to whichever model has been predicting it best over
//! timescales of thousands of queries. This module reproduces that
//! substrate: a [`ModelSelector`] owns several [`Servable`]s, a
//! [`SelectionPolicy`] picks which one answers the next query, and
//! reward feedback (`1 - loss`) updates the policy's state.
//!
//! Three standard policies are provided:
//!
//! - [`SelectionPolicy::EpsilonGreedy`]: explore uniformly with
//!   probability ε, otherwise exploit the best empirical mean,
//! - [`SelectionPolicy::Ucb1`]: optimism under uncertainty via the
//!   UCB1 index `mean + sqrt(2 ln t / n)`,
//! - [`SelectionPolicy::Exp3`]: exponential weights for adversarial
//!   reward sequences.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use willump_data::Table;

use crate::server::Servable;
use crate::ServeError;

/// Which bandit algorithm routes queries to models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionPolicy {
    /// Explore with probability `epsilon`, otherwise play the best
    /// empirical arm.
    EpsilonGreedy {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
    },
    /// UCB1 (Auer et al. 2002): play the arm maximizing
    /// `mean + sqrt(2 ln t / n)`.
    Ucb1,
    /// Exp3 exponential-weight selection with exploration mix `gamma`.
    Exp3 {
        /// Exploration mixture in `(0, 1]`.
        gamma: f64,
    },
}

impl SelectionPolicy {
    fn validate(&self) -> Result<(), ServeError> {
        let ok = match self {
            SelectionPolicy::EpsilonGreedy { epsilon } => (0.0..=1.0).contains(epsilon),
            SelectionPolicy::Ucb1 => true,
            SelectionPolicy::Exp3 { gamma } => *gamma > 0.0 && *gamma <= 1.0,
        };
        if ok {
            Ok(())
        } else {
            Err(ServeError::BadRequest {
                reason: format!("invalid selection policy parameters: {self:?}"),
            })
        }
    }
}

/// Per-arm statistics, readable for monitoring.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmStats {
    /// Times this arm served a query.
    pub pulls: u64,
    /// Sum of observed rewards.
    pub reward_sum: f64,
    /// Exp3 weight (1.0 unless the Exp3 policy is active).
    pub weight: f64,
}

impl ArmStats {
    /// Empirical mean reward (0 before the first pull).
    pub fn mean(&self) -> f64 {
        if self.pulls == 0 {
            0.0
        } else {
            self.reward_sum / self.pulls as f64
        }
    }
}

struct SelectorState {
    arms: Vec<ArmStats>,
    total_pulls: u64,
    rng: StdRng,
}

/// A bandit-routed ensemble of servables.
///
/// `select` picks an arm, `predict` serves a batch through the chosen
/// arm, and `reward` feeds accuracy feedback (e.g. `1 - loss` once
/// ground truth arrives) back into the policy. Thread-safe: state is
/// behind a mutex, matching Clipper's shared selection state.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use willump_serve::{ModelSelector, Servable, SelectionPolicy};
/// use willump_data::Table;
///
/// struct Constant(f64);
/// impl Servable for Constant {
///     fn predict_table(&self, t: &Table) -> Result<Vec<f64>, String> {
///         Ok(vec![self.0; t.n_rows()])
///     }
/// }
///
/// # fn main() -> Result<(), willump_serve::ServeError> {
/// let selector = ModelSelector::new(
///     vec![
///         ("good".to_string(), Arc::new(Constant(1.0)) as Arc<dyn Servable>),
///         ("bad".to_string(), Arc::new(Constant(0.0)) as Arc<dyn Servable>),
///     ],
///     SelectionPolicy::EpsilonGreedy { epsilon: 0.1 },
///     42,
/// )?;
/// // Route queries, then feed back rewards for the pulled arm.
/// for _ in 0..50 {
///     let arm = selector.select_pull();
///     selector.reward(arm, if arm == 0 { 0.9 } else { 0.1 });
/// }
/// let pulls: Vec<u64> = selector.arm_stats().iter().map(|a| a.pulls).collect();
/// assert!(pulls[0] > pulls[1], "the rewarded arm dominates: {pulls:?}");
/// # Ok(())
/// # }
/// ```
pub struct ModelSelector {
    models: Vec<Arc<dyn Servable>>,
    names: Vec<String>,
    policy: SelectionPolicy,
    state: Mutex<SelectorState>,
}

impl std::fmt::Debug for ModelSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSelector")
            .field("names", &self.names)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl ModelSelector {
    /// A selector over named models under the given policy.
    ///
    /// # Errors
    /// Returns [`ServeError::BadRequest`] when no models are supplied,
    /// names and models mismatch, or the policy parameters are out of
    /// range.
    pub fn new(
        models: Vec<(String, Arc<dyn Servable>)>,
        policy: SelectionPolicy,
        seed: u64,
    ) -> Result<ModelSelector, ServeError> {
        if models.is_empty() {
            return Err(ServeError::BadRequest {
                reason: "model selector needs at least one model".into(),
            });
        }
        policy.validate()?;
        let (names, models): (Vec<_>, Vec<_>) = models.into_iter().unzip();
        let n = models.len();
        Ok(ModelSelector {
            models,
            names,
            policy,
            state: Mutex::new(SelectorState {
                arms: vec![
                    ArmStats {
                        pulls: 0,
                        reward_sum: 0.0,
                        weight: 1.0,
                    };
                    n
                ],
                total_pulls: 0,
                rng: StdRng::seed_from_u64(seed),
            }),
        })
    }

    /// A selector whose arms are lowered [`willump::ServingPlan`]s:
    /// bandit-routed selection *across* whole serving plans, the
    /// coarse-grained complement of the within-plan `SelectArm` stage
    /// (which picks among full-model variants inside one plan).
    ///
    /// # Errors
    /// Same conditions as [`ModelSelector::new`].
    pub fn from_plans(
        plans: Vec<(String, willump::ServingPlan)>,
        policy: SelectionPolicy,
        seed: u64,
    ) -> Result<ModelSelector, ServeError> {
        ModelSelector::new(
            plans
                .into_iter()
                .map(|(name, plan)| (name, Arc::new(plan) as Arc<dyn Servable>))
                .collect(),
            policy,
            seed,
        )
    }

    /// Number of models.
    pub fn n_models(&self) -> usize {
        self.models.len()
    }

    /// The name of model `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Snapshot of per-arm statistics.
    pub fn arm_stats(&self) -> Vec<ArmStats> {
        self.state.lock().arms.clone()
    }

    /// Pick the arm the policy wants to play next (does not serve).
    pub fn select(&self) -> usize {
        let mut st = self.state.lock();
        let n = self.models.len();
        match self.policy {
            SelectionPolicy::EpsilonGreedy { epsilon } => {
                if st.rng.gen::<f64>() < epsilon {
                    st.rng.gen_range(0..n)
                } else {
                    best_mean(&st.arms)
                }
            }
            SelectionPolicy::Ucb1 => {
                // Play each arm once first.
                if let Some(unplayed) = st.arms.iter().position(|a| a.pulls == 0) {
                    return unplayed;
                }
                let t = st.total_pulls.max(1) as f64;
                let mut best = 0;
                let mut best_idx = f64::NEG_INFINITY;
                for (i, a) in st.arms.iter().enumerate() {
                    let bonus = (2.0 * t.ln() / a.pulls as f64).sqrt();
                    let idx = a.mean() + bonus;
                    if idx > best_idx {
                        best_idx = idx;
                        best = i;
                    }
                }
                best
            }
            SelectionPolicy::Exp3 { gamma } => {
                let total_w: f64 = st.arms.iter().map(|a| a.weight).sum();
                let probs: Vec<f64> = st
                    .arms
                    .iter()
                    .map(|a| (1.0 - gamma) * a.weight / total_w + gamma / n as f64)
                    .collect();
                let mut u = st.rng.gen::<f64>();
                for (i, p) in probs.iter().enumerate() {
                    if u < *p {
                        return i;
                    }
                    u -= p;
                }
                n - 1
            }
        }
    }

    /// Pick an arm *and record the pull*, without serving through the
    /// selector. For callers that dispatch the prediction themselves —
    /// the multi-endpoint [`crate::ServingRuntime`] uses this as its
    /// canary router between endpoint versions: the selector's arms
    /// are the versions, `select_pull` picks which version serves the
    /// next unpinned request, and accuracy feedback flows back through
    /// [`reward`](ModelSelector::reward) once ground truth arrives.
    pub fn select_pull(&self) -> usize {
        let arm = self.select();
        let mut st = self.state.lock();
        st.arms[arm].pulls += 1;
        st.total_pulls += 1;
        arm
    }

    /// Serve a batch through the policy-chosen model; returns the
    /// scores and the arm that served them (pass it to [`reward`]).
    ///
    /// [`reward`]: ModelSelector::reward
    ///
    /// # Errors
    /// Returns [`ServeError::Predictor`] when the chosen model fails.
    pub fn predict(&self, table: &Table) -> Result<(Vec<f64>, usize), ServeError> {
        let arm = self.select();
        let scores = self.models[arm]
            .predict_table(table)
            .map_err(ServeError::Predictor)?;
        self.state.lock().arms[arm].pulls += 1;
        self.state.lock().total_pulls += 1;
        Ok((scores, arm))
    }

    /// Feed reward in `[0, 1]` for a pull of `arm` back into the
    /// policy (clamped otherwise).
    ///
    /// # Panics
    /// Panics if `arm` is out of range.
    pub fn reward(&self, arm: usize, reward: f64) {
        assert!(arm < self.models.len(), "arm {arm} out of range");
        let reward = reward.clamp(0.0, 1.0);
        let mut st = self.state.lock();
        st.arms[arm].reward_sum += reward;
        if let SelectionPolicy::Exp3 { gamma } = self.policy {
            let n = self.models.len() as f64;
            let total_w: f64 = st.arms.iter().map(|a| a.weight).sum();
            let p = (1.0 - gamma) * st.arms[arm].weight / total_w + gamma / n;
            let xhat = reward / p.max(1e-12);
            let w = &mut st.arms[arm].weight;
            *w *= (gamma * xhat / n).exp();
            // Renormalize to dodge overflow on long runs.
            if *w > 1e100 {
                for a in &mut st.arms {
                    a.weight /= 1e100;
                }
            }
        }
    }
}

/// A selector is itself servable, so a bandit-routed ensemble can sit
/// behind a (multi-worker) [`crate::ServingRuntime`] endpoint: each
/// coalesced batch is routed through the policy-chosen arm. The served arm index
/// is not observable through this path — keep a shared `Arc` to the
/// selector and feed [`ModelSelector::reward`] out of band once ground
/// truth arrives, as Clipper does with delayed feedback.
impl Servable for ModelSelector {
    fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
        self.predict(table)
            .map(|(scores, _arm)| scores)
            .map_err(|e| e.to_string())
    }
}

fn best_mean(arms: &[ArmStats]) -> usize {
    let mut best = 0;
    let mut best_mean = f64::NEG_INFINITY;
    for (i, a) in arms.iter().enumerate() {
        let m = a.mean();
        if m > best_mean {
            best_mean = m;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A servable that always predicts a constant; its "quality" is
    /// injected by the test's reward function.
    struct Constant(f64);

    impl Servable for Constant {
        fn predict_table(&self, table: &Table) -> Result<Vec<f64>, String> {
            Ok(vec![self.0; table.n_rows().max(1)])
        }
    }

    fn two_arm_selector(policy: SelectionPolicy) -> ModelSelector {
        ModelSelector::new(
            vec![
                (
                    "bad".to_string(),
                    Arc::new(Constant(0.0)) as Arc<dyn Servable>,
                ),
                (
                    "good".to_string(),
                    Arc::new(Constant(1.0)) as Arc<dyn Servable>,
                ),
            ],
            policy,
            42,
        )
        .unwrap()
    }

    /// Run `rounds` pulls where arm 1 yields reward 0.9 and arm 0
    /// yields 0.1; return the fraction of pulls landing on arm 1 in
    /// the second half.
    fn late_good_fraction(sel: &ModelSelector, rounds: usize) -> f64 {
        let t = Table::new();
        let mut late_good = 0;
        let half = rounds / 2;
        for i in 0..rounds {
            let (_, arm) = sel.predict(&t).unwrap();
            sel.reward(arm, if arm == 1 { 0.9 } else { 0.1 });
            if i >= half && arm == 1 {
                late_good += 1;
            }
        }
        late_good as f64 / half as f64
    }

    #[test]
    fn epsilon_greedy_converges_to_better_arm() {
        let sel = two_arm_selector(SelectionPolicy::EpsilonGreedy { epsilon: 0.1 });
        assert!(late_good_fraction(&sel, 400) > 0.8);
    }

    #[test]
    fn ucb1_converges_to_better_arm() {
        let sel = two_arm_selector(SelectionPolicy::Ucb1);
        assert!(late_good_fraction(&sel, 400) > 0.8);
    }

    #[test]
    fn exp3_converges_to_better_arm() {
        let sel = two_arm_selector(SelectionPolicy::Exp3 { gamma: 0.1 });
        assert!(late_good_fraction(&sel, 1000) > 0.6);
    }

    #[test]
    fn ucb1_plays_every_arm_first() {
        let sel = two_arm_selector(SelectionPolicy::Ucb1);
        let t = Table::new();
        let (_, a0) = sel.predict(&t).unwrap();
        let (_, a1) = sel.predict(&t).unwrap();
        let mut seen = [a0, a1];
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
    }

    #[test]
    fn stats_track_pulls_and_rewards() {
        let sel = two_arm_selector(SelectionPolicy::EpsilonGreedy { epsilon: 1.0 });
        let t = Table::new();
        for _ in 0..50 {
            let (_, arm) = sel.predict(&t).unwrap();
            sel.reward(arm, 0.5);
        }
        let stats = sel.arm_stats();
        assert_eq!(stats.iter().map(|a| a.pulls).sum::<u64>(), 50);
        for a in &stats {
            if a.pulls > 0 {
                assert!((a.mean() - 0.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rewards_are_clamped() {
        let sel = two_arm_selector(SelectionPolicy::Ucb1);
        let t = Table::new();
        let (_, arm) = sel.predict(&t).unwrap();
        sel.reward(arm, 17.0);
        assert!(sel.arm_stats()[arm].mean() <= 1.0);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(ModelSelector::new(vec![], SelectionPolicy::Ucb1, 1).is_err());
        let m: Vec<(String, Arc<dyn Servable>)> =
            vec![("a".into(), Arc::new(Constant(0.0)) as Arc<dyn Servable>)];
        assert!(ModelSelector::new(m, SelectionPolicy::EpsilonGreedy { epsilon: 1.5 }, 1).is_err());
        let m: Vec<(String, Arc<dyn Servable>)> =
            vec![("a".into(), Arc::new(Constant(0.0)) as Arc<dyn Servable>)];
        assert!(ModelSelector::new(m, SelectionPolicy::Exp3 { gamma: 0.0 }, 1).is_err());
    }

    #[test]
    fn predict_propagates_model_failure() {
        struct Failing;
        impl Servable for Failing {
            fn predict_table(&self, _: &Table) -> Result<Vec<f64>, String> {
                Err("boom".into())
            }
        }
        let sel = ModelSelector::new(
            vec![("f".into(), Arc::new(Failing) as Arc<dyn Servable>)],
            SelectionPolicy::Ucb1,
            1,
        )
        .unwrap();
        assert!(matches!(
            sel.predict(&Table::new()),
            Err(ServeError::Predictor(_))
        ));
    }

    #[test]
    fn selector_serves_behind_clipper_server() {
        use crate::{table_row_to_wire, ServingRuntime, DEFAULT_ENDPOINT};
        use willump_data::Column;

        let sel = Arc::new(two_arm_selector(SelectionPolicy::Ucb1));
        let mut builder = ServingRuntime::builder();
        builder.endpoint(DEFAULT_ENDPOINT, sel.clone());
        let server = builder.build().unwrap();
        let client = server.client();
        let mut t = Table::new();
        t.add_column("x", Column::from(vec![1.0f64, 2.0])).unwrap();
        for _ in 0..4 {
            let rows = vec![
                table_row_to_wire(&t, 0).unwrap(),
                table_row_to_wire(&t, 1).unwrap(),
            ];
            let scores = client.predict(rows).unwrap();
            assert_eq!(scores.len(), 2);
            // Constant(0.0) or Constant(1.0), depending on the arm.
            assert!(scores.iter().all(|&s| s == 0.0 || s == 1.0));
        }
        // Reward feedback still flows through the shared handle.
        sel.reward(0, 0.3);
        assert_eq!(sel.arm_stats().iter().map(|a| a.pulls).sum::<u64>(), 4);
    }

    #[test]
    fn names_accessible() {
        let sel = two_arm_selector(SelectionPolicy::Ucb1);
        assert_eq!(sel.n_models(), 2);
        assert_eq!(sel.name(0), "bad");
        assert_eq!(sel.name(1), "good");
    }
}
