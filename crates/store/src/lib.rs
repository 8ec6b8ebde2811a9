//! # willump-store
//!
//! Feature-store substrate for the Willump reproduction.
//!
//! Three of the paper's benchmarks (Music, Credit, Tracking) compute
//! most of their features by *looking them up* in data tables that may
//! live on a remote Redis server. This crate provides:
//!
//! - [`FeatureTable`]: an in-memory key → feature-row table,
//! - [`Store`]: a collection of tables behind a [`LatencyModel`] that
//!   simulates network round trips (virtually by default, with an
//!   opt-in real-sleep mode) and counts requests,
//! - [`LruCache`]: the fixed-size LRU used by Willump's feature-level
//!   caching optimization (paper §4.5),
//! - [`SimClock`]: a virtual clock so latency experiments (Table 3)
//!   are fast and deterministic.
//!
//! ```
//! use willump_store::{FeatureTable, Key, LatencyModel, Store};
//!
//! # fn main() -> Result<(), willump_store::StoreError> {
//! let mut users = FeatureTable::new(2);
//! users.insert(Key::Int(7), vec![0.5, 1.0])?;
//! let store = Store::remote(
//!     [("users".to_string(), users)],
//!     LatencyModel::virtual_network(1_000_000, 10_000), // 1ms RTT, 10us/key
//! );
//! let rows = store.get_batch("users", &[Key::Int(7)])?;
//! assert_eq!(&*rows[0], &[0.5, 1.0]);
//! assert_eq!(store.stats().round_trips(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod clock;
mod error;
mod kv;
mod lru;

pub use clock::SimClock;
pub use error::StoreError;
pub use kv::{FaultPlan, FeatureTable, Key, LatencyMode, LatencyModel, Store, StoreStats};
pub use lru::LruCache;
