//! # throttledb-engine
//!
//! The simulated DBMS server that reproduces the paper's evaluation (§5).
//!
//! The engine runs the SALES benchmark as a discrete-event simulation of the
//! paper's machine (8 CPUs, 4 GB RAM, one RAID array): a closed-loop client
//! population submits uniquified SALES queries; each query compiles through
//! the **real** gateway-ladder policy code of `throttledb-core`, competes for
//! execution memory grants, reads through the buffer-pool model and
//! completes or fails. The figures of the paper are regenerated by counting
//! successful completions per time slice with throttling on versus off.
//!
//! The [`server`] dispatches events to the pipeline [`stages`], and the
//! stages spend the machine's resources through its three stations (the
//! crate-private `machine` module): the CPU, the disk, and memory with the
//! broker and the per-class grant pools.
//!
//! Compilation behaviour is *characterized, not invented*: before a run, the
//! engine compiles every workload template once through the real
//! `throttledb-optimizer` and records its peak memory, its transformation
//! count and its plan's execution profile ([`profile::CompileProfile`]). The
//! simulation then replays those measured curves (with per-submission
//! jitter), which keeps multi-hour, 40-client experiments fast while the
//! policy decisions — gateway admissions, dynamic thresholds, broker
//! verdicts, grant queueing — are all made by the same code a threaded
//! deployment would run.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod arrival_plane;
pub mod config;
pub mod experiment;
pub mod fault;
pub(crate) mod machine;
#[cfg(test)]
mod merge_tests;
pub mod metrics;
pub mod profile;
pub mod server;
pub mod stages;
pub mod trace;

pub use config::{ArrivalSourceConfig, PolicyKind, ServerConfig, WorkloadClassConfig};
pub use experiment::figure2_timeline;
pub use fault::{FaultKind, FaultSpec};
pub use metrics::{
    ArrivalSourceMetrics, ClassMetrics, DispatchCounts, FailureKind, MetricsFold, PhaseReport,
    RunMetrics,
};
pub use profile::{CompileProfile, WorkloadProfiles};
pub use server::Server;
pub use stages::QueryLifecycle;
// Re-exported so downstream crates (scenario, bench) can configure and
// decode circuit-breaker state without a direct governor dependency.
pub use throttledb_governor::{BreakerConfig, BreakerState};
pub use trace::{TraceEvent, TraceSink};
