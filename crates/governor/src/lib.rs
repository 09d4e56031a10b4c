//! # throttledb-governor
//!
//! The unified **resource-governor layer**: one waiting/admission substrate
//! shared by every choke point in the system.
//!
//! The paper's core idea is a single throttling *policy* — the gateway
//! ladder plus the memory broker — applied at several choke points: the
//! compilation ladder's per-level queues, the execution memory-grant queue,
//! and the broker's pressure notifications. This crate factors the common
//! machinery out of those call sites:
//!
//! * [`ResourcePool`] — the one FIFO admission primitive: a budget, a
//!   [`WaitQueue`] and [`PoolStats`], with a single admit loop that every
//!   mutating call (request, release, cancel, budget change) reaches, so a
//!   waiter that fits is never left queued. Each gateway of the core
//!   crate's ladder is a pool of unit requests (its concurrency limit is
//!   the budget), so are [`PidPolicy`]'s slots, and each workload class's
//!   execution grant manager is a pool of bytes.
//! * [`WaitQueue`] — the FIFO wait queue under every pool: deadlines per
//!   waiter and O(1) cancellation via slot-indexed tickets.
//! * [`AdmissionDecision`] — the common decision vocabulary
//!   (admit / degrade / wait-with-deadline / reject) the pools answer in
//!   and `LadderDecision` and broker notifications translate into.
//! * [`Policy`] — the pluggable compilation-admission policy interface,
//!   with a PID feedback controller ([`PidPolicy`]) and a cost-based
//!   planner ([`CostPolicy`], which keeps its own queue: its
//!   always-admit-one floor and in-place reservation growth are policy,
//!   not queueing); the paper's gateway ladder implements the trait in
//!   `throttledb-core`.
//! * [`ThrottleStats`] — the admission counters every policy reports
//!   through (formerly private to the core crate's ladder).
//! * [`CircuitBreaker`] — a per-class Closed/Open/HalfOpen breaker over a
//!   rolling failure-rate window, with a brownout exemption for small
//!   arrivals; the graceful-degradation side of admission control.
//!
//! Layering: this crate depends only on `throttledb-sim` (virtual time and
//! histograms); `throttledb-core`, `throttledb-executor`,
//! `throttledb-membroker` and the engine all build on it.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod breaker;
pub mod decision;
pub mod policy;
pub mod pool;
pub mod queue;
pub mod stats;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use decision::AdmissionDecision;
pub use policy::{CostPolicy, PidPolicy, Policy, PolicyDecision, PolicySignals};
pub use pool::{PoolStats, PoolTag, ResourcePool};
pub use queue::{WaitQueue, Waiter, WaiterKey};
pub use stats::ThrottleStats;
