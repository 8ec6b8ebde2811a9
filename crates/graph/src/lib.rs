//! # willump-graph
//!
//! The transformation-graph substrate of the Willump reproduction
//! (paper §5): a directed acyclic graph whose nodes are feature
//! transformations, whose edges are materialized data, whose sources
//! are raw pipeline inputs, and whose single sink feeds the model.
//!
//! This crate provides:
//!
//! - [`TransformGraph`] / [`GraphBuilder`]: the IR and its
//!   construction API (our stand-in for the paper's Python-AST
//!   frontend — see DESIGN.md's substitution table),
//! - [`analysis`]: identification of independent feature vectors
//!   (IFVs) and their feature generators via the paper's three rules
//!   (§5.1), plus the transition-minimizing node sort (§5.2),
//! - [`Executor`]: two execution engines over the same graph — an
//!   **interpreted** engine with boxed dynamic values and row-at-a-time
//!   dispatch (the Python-baseline stand-in) and a **compiled** engine
//!   with columnar, batched, cache-aware execution and one input's
//!   generators optionally split into groups
//!   (the Weld stand-in),
//! - [`cost`]: per-node cost measurement used by the optimizer's IFV
//!   statistics (§4.2).
//!
//! ```
//! use willump_graph::{GraphBuilder, Operator, Executor, EngineMode};
//! use willump_data::{Table, Column};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new();
//! let title = b.source("title");
//! let stats = b.add("stats", Operator::StringStats, [title])?;
//! let graph = b.finish_with_concat("features", [stats])?;
//!
//! let mut t = Table::new();
//! t.add_column("title", Column::from(vec!["Big Sale!!", "ok"]))?;
//! let exec = Executor::new(graph.into(), EngineMode::Compiled)?;
//! let feats = exec.features_batch(&t, None)?;
//! assert_eq!(feats.n_rows(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
mod cache;
pub mod cost;
mod error;
mod exec;
mod graph;
mod interp;
mod op;
pub mod parallel;
pub mod parse;
mod row;

pub use cache::FeatureCaches;
pub use error::GraphError;
pub use exec::{EngineMode, ExecStats, Executor};
pub use graph::{GraphBuilder, Node, NodeId, TransformGraph};
pub use op::Operator;
pub use parse::parse_pipeline;
pub use row::{InputRow, RowFeatures};
