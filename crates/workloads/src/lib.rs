//! # willump-workloads
//!
//! The six benchmark workloads of the Willump paper (Table 1),
//! rebuilt as seeded synthetic generators with matched statistical
//! structure (see DESIGN.md's substitution table):
//!
//! | Workload  | Feature operators                        | Task           | Model  |
//! |-----------|------------------------------------------|----------------|--------|
//! | Product   | string stats, n-grams, TF-IDF            | classification | linear |
//! | Music     | remote lookups, joins                    | classification | GBDT   |
//! | Toxic     | string stats, n-grams, TF-IDF            | classification | linear |
//! | Credit    | remote lookups, joins                    | regression     | GBDT   |
//! | Price     | feature encoding, string proc., TF-IDF   | regression     | MLP    |
//! | Tracking  | remote lookups, joins                    | classification | GBDT   |
//!
//! Plus a seventh, *stateful streaming* workload beyond Table 1:
//!
//! | Workload    | Feature operators                      | Task           | Model  |
//! |-------------|----------------------------------------|----------------|--------|
//! | Clickstream | remote lookups + live event folds      | classification | GBDT   |
//!
//! Clickstream pairs the serving pipeline with a
//! [`clickstream::ClickstreamFolder`] that folds arriving click
//! events back into the feature store's tables while serving reads
//! them — the fraud-detection shape where entity state updates
//! continuously under concurrent write load.
//!
//! Each generator controls the statistics that Willump's
//! optimizations exploit: the easy/hard input mix (cascades), the
//! skew of feature-computation cost across IFVs (efficient-IFV
//! selection), Zipfian entity popularity (feature-level caching), and
//! score concentration (top-K filtering).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod clickstream;
mod common;
pub mod credit;
pub mod music;
pub mod price;
pub mod product;
pub mod toxic;
pub mod tracking;

pub use common::{Workload, WorkloadConfig};

/// The benchmark workloads by name, matching the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// CIKM AnalytiCup 2017 Lazada product-title quality (linear).
    Product,
    /// WSDM Cup 2018 KKBox music recommendation (GBDT).
    Music,
    /// Kaggle Jigsaw toxic-comment classification (linear).
    Toxic,
    /// Kaggle Home Credit default risk (GBDT regression).
    Credit,
    /// Kaggle Mercari price suggestion (MLP regression).
    Price,
    /// Kaggle TalkingData ad-tracking fraud detection (GBDT).
    Tracking,
    /// Stateful streaming clickstream fraud detection: live event
    /// folds into the feature store while serving (GBDT).
    Clickstream,
}

impl WorkloadKind {
    /// All workloads: the six Table 1 benchmarks in paper order, then
    /// the streaming Clickstream workload.
    pub const ALL: [WorkloadKind; 7] = [
        WorkloadKind::Product,
        WorkloadKind::Music,
        WorkloadKind::Toxic,
        WorkloadKind::Credit,
        WorkloadKind::Price,
        WorkloadKind::Tracking,
        WorkloadKind::Clickstream,
    ];

    /// Lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Product => "product",
            WorkloadKind::Music => "music",
            WorkloadKind::Toxic => "toxic",
            WorkloadKind::Credit => "credit",
            WorkloadKind::Price => "price",
            WorkloadKind::Tracking => "tracking",
            WorkloadKind::Clickstream => "clickstream",
        }
    }

    /// Whether the workload is binary classification.
    pub fn is_classification(self) -> bool {
        matches!(
            self,
            WorkloadKind::Product
                | WorkloadKind::Music
                | WorkloadKind::Toxic
                | WorkloadKind::Tracking
                | WorkloadKind::Clickstream
        )
    }

    /// Whether the workload queries external data tables.
    pub fn uses_store(self) -> bool {
        matches!(
            self,
            WorkloadKind::Music
                | WorkloadKind::Credit
                | WorkloadKind::Tracking
                | WorkloadKind::Clickstream
        )
    }

    /// Generate the workload with the given configuration.
    ///
    /// # Errors
    /// Propagates generator failures (these indicate bugs rather than
    /// user error).
    pub fn generate(self, cfg: &WorkloadConfig) -> Result<Workload, willump::WillumpError> {
        match self {
            WorkloadKind::Product => product::generate(cfg),
            WorkloadKind::Music => music::generate(cfg),
            WorkloadKind::Toxic => toxic::generate(cfg),
            WorkloadKind::Credit => credit::generate(cfg),
            WorkloadKind::Price => price::generate(cfg),
            WorkloadKind::Tracking => tracking::generate(cfg),
            WorkloadKind::Clickstream => clickstream::generate(cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_metadata() {
        assert_eq!(WorkloadKind::ALL.len(), 7);
        assert!(WorkloadKind::Music.uses_store());
        assert!(!WorkloadKind::Toxic.uses_store());
        assert!(WorkloadKind::Product.is_classification());
        assert!(!WorkloadKind::Price.is_classification());
        assert_eq!(WorkloadKind::Tracking.name(), "tracking");
        assert_eq!(WorkloadKind::Clickstream.name(), "clickstream");
        assert!(WorkloadKind::Clickstream.uses_store());
        assert!(WorkloadKind::Clickstream.is_classification());
    }
}
