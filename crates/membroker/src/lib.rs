//! # throttledb-membroker
//!
//! The **Memory Broker** described in §3 of *"Managing Query Compilation
//! Memory Consumption to Improve DBMS Throughput"* (Baryshnikov et al.,
//! CIDR 2007).
//!
//! The broker is the central accountant for physical memory inside the DBMS.
//! Each memory-consuming subcomponent — the database page buffer pool, query
//! execution (memory grants), query compilation, the compiled-plan cache —
//! has an account in one [`BrokerCore`], charged through `&mut self` by the
//! core's single owner; [`MemoryBroker`] puts a core behind one lock for
//! subcomponents on threads of their own, each reporting through a [`Clerk`].
//! Periodically (or whenever a component asks), the broker:
//!
//! 1. sums current usage across clerks,
//! 2. **predicts** near-future usage per clerk by fitting a trend to recent
//!    samples ([`trend::TrendEstimator`]),
//! 3. if the predicted total would exceed available physical memory, computes
//!    a per-clerk **target** and emits a [`Notification`] telling the clerk
//!    whether it may keep growing, should hold its allocation rate, or must
//!    shrink toward the target,
//! 4. otherwise stays silent — "if the system is not using all available
//!    physical memory, no action is taken and the system behaves as if the
//!    Memory Broker was not there."
//!
//! The broker never forcibly reclaims memory: as in the paper, it is an
//! *indirect communication channel*, and relies on subcomponents making
//! intelligent decisions about the value of optional allocations.
//!
//! ## Quick example
//!
//! ```
//! use throttledb_membroker::{MemoryBroker, BrokerConfig, SubcomponentKind, NotificationKind};
//! use throttledb_sim::SimTime;
//!
//! // A 1 GiB machine.
//! let broker = MemoryBroker::new(BrokerConfig::with_total_memory(1 << 30));
//! let buffer_pool = broker.register(SubcomponentKind::BufferPool);
//! let compilation = broker.register(SubcomponentKind::Compilation);
//!
//! // The buffer pool grabs 900 MiB, compilation starts ramping up.
//! buffer_pool.allocate(900 << 20);
//! compilation.allocate(50 << 20);
//! let _ = broker.recalculate(SimTime::from_secs(1));
//! compilation.allocate(120 << 20);
//! let decisions = broker.recalculate(SimTime::from_secs(2));
//!
//! // Under pressure the broker hands out targets instead of staying silent.
//! assert!(decisions.iter().any(|d| d.notification.kind != NotificationKind::Grow));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accounting;
pub mod broker;
pub mod clerk;
pub mod config;
pub mod notification;
pub mod pressure;
pub mod trend;

pub use broker::{BrokerCore, BrokerDecision, BrokerSnapshot, ClerkSnapshot, MemoryBroker};
pub use clerk::{Clerk, ClerkId, SubcomponentKind};
pub use config::BrokerConfig;
pub use notification::{Notification, NotificationKind};
pub use pressure::PressureLevel;
