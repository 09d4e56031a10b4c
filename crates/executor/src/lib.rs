//! # throttledb-executor
//!
//! The query-execution substrate. The paper's interest in execution is its
//! memory behaviour — "the memory consumed during query execution is usually
//! predictable as many of the largest allocations can be made using early,
//! high-level decisions at the start of the execution of a query" — and the
//! way hash-heavy DSS plans compete with compilation and the buffer pool.
//!
//! * [`grant::GrantManager`] — the execution memory-grant queue (SQL
//!   Server's "resource semaphore"): a query asks for its grant up front,
//!   waits in FIFO order when memory is unavailable, may accept a reduced
//!   grant (spilling), and times out with a resource error if it waits too
//!   long.
//! * [`exec::ExecutionModel`] — converts an optimizer
//!   [`PhysicalPlan`](throttledb_optimizer::PhysicalPlan) into the execution
//!   profile the engine simulates: CPU seconds, buffer-pool footprint, and
//!   the memory grant, including the slow-down applied when the grant is
//!   reduced (hash spills).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exec;
pub mod grant;

pub use exec::{spill_slowdown, ExecutionModel, ExecutionProfile};
pub use grant::{GrantManager, GrantRequestId};
