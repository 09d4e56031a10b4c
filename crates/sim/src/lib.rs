//! # throttledb-sim
//!
//! Deterministic discrete-event simulation (DES) substrate used by the
//! `throttledb` reproduction of *"Managing Query Compilation Memory
//! Consumption to Improve DBMS Throughput"* (CIDR 2007).
//!
//! The paper's evaluation runs a DBMS for hours of wall-clock time on an
//! 8-CPU / 4 GB machine. We reproduce the *shape* of those experiments by
//! running the same memory-management policy code against a virtual clock:
//! hours of model time execute in seconds, and every run is exactly
//! reproducible because all randomness flows through [`rng::SimRng`].
//!
//! The crate deliberately knows nothing about databases. It provides:
//!
//! * [`clock`] — virtual time ([`SimTime`], [`SimDuration`]) with microsecond
//!   resolution.
//! * [`events`] — a monotonic event queue / scheduler with stable FIFO
//!   ordering for simultaneous events: a sorted band of imminent events in
//!   front of an unsorted parked list, plus the binary heap it is tested
//!   against.
//! * [`arrival`] — open-loop arrival processes (Poisson, MMPP,
//!   bounded-Pareto, diurnal) for request streams decoupled from service
//!   times.
//! * [`rng`] — a deterministic random-number generator with the
//!   distributions the workload model needs (uniform, exponential, zipf,
//!   log-normal-ish compile-time jitter).
//! * [`series`] — bucketed time-series recorders used to regenerate the
//!   paper's "completed queries per time slice" figures.
//! * [`slab`] — a generation-checked slab and its per-slot side table:
//!   dense, hash-free ids for values that come and go.
//! * [`stats`] — histograms and summary statistics.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrival;
pub mod clock;
pub mod events;
pub mod rng;
pub mod series;
pub mod slab;
pub mod stats;

pub use arrival::{ArrivalProcess, ArrivalSampler};
pub use clock::{SimDuration, SimTime};
pub use events::{EventId, EventQueue, HeapEventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use series::{GaugeTimeline, TimeSeries};
pub use slab::{Slab, SlotRef, SlotTable};
pub use stats::{Histogram, Running, Summary};
