//! # throttledb-core
//!
//! The paper's primary contribution: **query compilation throttling** via a
//! ladder of memory monitors ("gateways"), with the two §4.1 extensions —
//! dynamic thresholds derived from the Memory Broker's compilation target,
//! and best-effort plans instead of out-of-memory failures.
//!
//! ## The mechanism (§4 of the paper)
//!
//! A compilation is blocked not at fixed points in the compilation process
//! but *as a function of the memory it has allocated*. The ladder has three
//! monitors with progressively higher memory thresholds and progressively
//! lower concurrency limits:
//!
//! | monitor | acquired when compile memory exceeds | concurrent holders |
//! |---------|--------------------------------------|--------------------|
//! | small   | a per-architecture floor (small diagnostic queries never reach it) | 4 × CPUs |
//! | medium  | the medium threshold (dynamic under pressure) | 1 × CPU |
//! | big     | the big threshold (dynamic under pressure) | 1 (serialized) |
//!
//! Monitors are acquired in order as a compilation grows and released in
//! reverse order when it completes. A compilation that cannot acquire the
//! next monitor waits; if it waits longer than that monitor's timeout, it is
//! aborted with a *timeout* error (not an out-of-memory error). Preference
//! goes to compilations that have already made the most progress — later
//! monitors have longer timeouts and fewer competitors.
//!
//! ## Crate layout
//!
//! * [`config`] — thresholds, concurrency limits, timeouts, the per-CPU
//!   scaling rules and the `F` fractions for dynamic thresholds.
//! * [`ladder`] — the ordered set of gateways plus per-task state: decides,
//!   on every memory report, whether a compilation proceeds or waits. Each
//!   gateway is a counting semaphore — a unit-request
//!   [`ResourcePool`](throttledb_governor::ResourcePool) from the governor
//!   layer, whose FIFO queue every choke point shares.
//! * [`dynamic`] — §4.1 extension 1: thresholds recomputed from the broker's
//!   compilation-memory target (`threshold = target · F / S`).
//! * [`threaded`] — a real, blocking deployment of the ladder for
//!   multi-threaded embedders: implements the optimizer's
//!   [`MemoryGovernor`](throttledb_optimizer::MemoryGovernor) hook via
//!   condition variables. (The discrete-event engine drives the same
//!   [`ladder`] state machine directly.)
//! * [`stats`] — counters for every figure: waits, wait time, timeouts,
//!   exemptions, best-effort completions.
//!
//! ## Quick example (threaded deployment)
//!
//! ```
//! use std::sync::Arc;
//! use throttledb_core::{ThreadedThrottle, ThrottleConfig};
//! use throttledb_membroker::{MemoryBroker, BrokerConfig, SubcomponentKind};
//! use throttledb_optimizer::Optimizer;
//! use throttledb_catalog::{tpch_schema};
//! use throttledb_sqlparse::parse;
//!
//! let broker = MemoryBroker::new(BrokerConfig::paper_machine());
//! let throttle = Arc::new(ThreadedThrottle::new(ThrottleConfig::for_cpus(8), broker.clone()));
//! let catalog = tpch_schema(1.0);
//! let optimizer = Optimizer::new(&catalog);
//!
//! let stmt = parse("SELECT COUNT(*) FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey").unwrap();
//! let clerk = broker.register(SubcomponentKind::Compilation);
//! let governor = throttle.governor();
//! let outcome = optimizer.optimize_with_governor(&stmt, governor, Some(clerk)).unwrap();
//! assert!(outcome.plan.join_count() > 0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod dynamic;
pub mod ladder;
pub mod stats;
pub mod threaded;

pub use config::{Concurrency, MonitorConfig, ThrottleConfig};
pub use dynamic::DynamicThresholds;
pub use ladder::{GatewayLadder, LadderDecision, TaskId};
pub use stats::ThrottleStats;
pub use threaded::ThreadedThrottle;
