//! # willump-models
//!
//! From-scratch ML models for the Willump reproduction, covering the
//! model types of the paper's six benchmarks (Table 1): linear models
//! (Product, Toxic), gradient-boosted decision trees (Music, Credit,
//! Tracking), and a small neural network (Price).
//!
//! The crate exposes a uniform [`ModelSpec`] → [`TrainedModel`]
//! interface so Willump's optimizer can train *small* models on
//! efficient feature subsets and *full* models on all features with
//! the same code path, plus:
//!
//! - [`metrics`]: accuracy/AUC/MSE and the top-K metrics the paper
//!   reports (precision@K, mean average precision, average value),
//! - [`importance`]: prediction-importance estimators per paper §4.2
//!   (coefficient-based for linear models, gain- and permutation-based
//!   for ensembles, GBDT-proxy for models with no native importances).
//!
//! ```
//! use willump_data::{FeatureMatrix, Matrix};
//! use willump_models::{LogisticParams, ModelSpec};
//!
//! # fn main() -> Result<(), willump_models::ModelError> {
//! let x = FeatureMatrix::Dense(Matrix::from_rows(&[
//!     vec![0.0, 1.0],
//!     vec![1.0, 0.0],
//!     vec![0.1, 0.9],
//!     vec![0.9, 0.2],
//! ]));
//! let y = [0.0, 1.0, 0.0, 1.0];
//! let model = ModelSpec::Logistic(LogisticParams::default()).fit(&x, &y, 42)?;
//! let p = model.predict_scores(&x);
//! assert!(p[1] > p[0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod calibrate;
mod ensemble;
mod error;
mod forest;
mod gbdt;
pub mod importance;
mod linear;
pub mod metrics;
mod mlp;
mod spec;
mod tree;

pub use calibrate::{IsotonicCalibrator, PlattScaler};
pub use ensemble::TreeEnsemble;
pub use error::ModelError;
pub use forest::{ForestObjective, ForestParams, RandomForest};
pub use gbdt::{Gbdt, GbdtObjective, GbdtParams};
pub use linear::{LinearParams, LinearRegression, LogisticParams, LogisticRegression};
pub use mlp::{Mlp, MlpParams};
pub use spec::{ModelSpec, Task, TrainedModel};
pub use tree::{BinMapper, DecisionTree, TreeParams};
