//! # throttledb-optimizer
//!
//! A Cascades-style, memo-based query optimizer built from scratch for the
//! `throttledb` reproduction of *"Managing Query Compilation Memory
//! Consumption to Improve DBMS Throughput"* (CIDR 2007).
//!
//! The paper's subject is the **memory consumed while optimizing**: "many
//! modern optimizers consider a number of functionally equivalent
//! alternatives ... this entire process uses memory to store the different
//! alternatives for the duration of the optimization process. The memory
//! consumed during optimization is closely related to the number of
//! considered alternatives." This crate therefore makes that memory a
//! first-class, byte-accurate quantity:
//!
//! * every memo group, group expression, rule binding and physical
//!   alternative is charged to a [`memory::CompilationMemory`] account;
//! * the account can forward its running total to a
//!   [`throttledb_membroker::Clerk`], so the Memory Broker sees compilation
//!   alongside the buffer pool and execution grants;
//! * a [`memory::MemoryGovernor`] callback observes every change and can
//!   pause (in threaded deployments, by blocking inside the callback), demand
//!   the *best plan so far*, or abort the compilation — which is exactly the
//!   hook the gateway ladder in `throttledb-core` plugs into.
//!
//! Optimization is *staged* ("dynamic optimization" in the paper's terms): a
//! cheap query gets a trivial or quick pass, an expensive DSS query gets a
//! full exploration whose transformation budget grows with its estimated
//! cost — so SALES-style 15–20-join queries naturally consume one to two
//! orders of magnitude more compilation memory than TPC-H-style queries, as
//! §5.1 reports.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binder;
pub mod cardinality;
pub mod cost;
pub mod error;
pub mod implementation;
pub mod logical;
pub mod memo;
pub mod memory;
pub mod names;
pub mod physical;
pub mod rules;
pub mod search;
pub mod stage;

pub use binder::Binder;
pub use error::OptimizerError;
pub use memory::{CompilationMemory, GovernorDirective, MemoryGovernor, UnlimitedGovernor};
pub use physical::{PhysicalOp, PhysicalPlan};
pub use search::{OptimizationOutcome, Optimizer, OptimizerConfig};
pub use stage::OptimizationStage;
