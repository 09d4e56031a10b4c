//! # throttledb-bufferpool
//!
//! The database page buffer pool, as the analytic footprint model the
//! discrete-event engine uses: [`model::HitRateModel`] translates "buffer
//! pool of X bytes against a working set of Y bytes" into a physical-I/O
//! fraction, so multi-hour SALES runs over a 524 GB warehouse do not need
//! 64 million page frames in the simulator's memory. The engine sizes the
//! pool as whatever brokered memory compilation, grants and caches do not
//! hold, so every byte the Memory Broker hands elsewhere costs I/O here.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod model;

pub use model::HitRateModel;
