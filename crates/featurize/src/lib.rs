//! # willump-featurize
//!
//! Feature-computation substrate for the Willump reproduction: the
//! operators that benchmark pipelines use to turn raw inputs into
//! numeric features (paper Table 1's "feature-computing operators").
//!
//! - text: [`CountVectorizer`], [`TfIdfVectorizer`] (string
//!   processing, n-grams, TF-IDF) over [`VectorizerConfig::analyze`];
//!   [`tokenize`] and [`ngrams`] are the analyzers' reference
//!   implementation, which `analyze` is tested against,
//! - categorical: [`OneHotEncoder`], [`OrdinalEncoder`],
//!   [`FeatureHasher`], [`TargetEncoder`] (feature encoding),
//! - stateless text: [`HashingVectorizer`] (hashing trick over the
//!   same word/char analyzers),
//! - discretization: [`QuantileBinner`] (equal-frequency binning),
//! - numeric: [`StandardScaler`], [`string_stats`] (cheap string
//!   statistics — the kind of inexpensive-but-informative features
//!   Willump's cascades love),
//! - lookups: [`StoreJoin`] (remote data lookup / data joins against a
//!   `willump-store` feature store).
//!
//! Every transformer follows a `fit` / `transform` convention and
//! supports both batch (`transform`) and single-row (`transform_one`)
//! paths, since Willump optimizes both batch and example-at-a-time
//! query modalities.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod binning;
mod encode;
mod error;
mod hashvec;
mod join;
pub mod ngrams;
mod scale;
pub mod stringstats;
mod target;
pub mod tokenize;
mod vectorize;
mod vocab;

pub use binning::QuantileBinner;
pub use encode::{FeatureHasher, OneHotEncoder, OrdinalEncoder};
pub use error::FeatError;
pub use hashvec::HashingVectorizer;
pub use join::StoreJoin;
pub use scale::StandardScaler;
pub use stringstats::{string_stats, STRING_STAT_NAMES};
pub use target::TargetEncoder;
pub use vectorize::{Analyzer, CountVectorizer, Norm, TfIdfVectorizer, VectorizerConfig};
pub use vocab::{VocabBuilder, Vocabulary};
