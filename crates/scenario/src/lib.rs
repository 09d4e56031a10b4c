//! # throttledb-scenario
//!
//! Declarative multi-phase workloads for the `throttledb` reproduction of
//! *"Managing Query Compilation Memory Consumption to Improve DBMS
//! Throughput"* (CIDR 2007).
//!
//! The paper's evaluation (§5) is a handful of fixed closed-loop runs.
//! This crate turns the reproduction into a general experiment platform
//! for the same admission-control policy:
//!
//! * [`Scenario`] — a base server configuration plus an ordered schedule
//!   of timed [`Phase`]s, each binding a client count, a
//!   [`throttledb_workload::WorkloadMix`] over the SALES / TPC-H-like /
//!   OLTP template families, and per-phase overrides (think time,
//!   grant-budget scale). Ramps and diurnal cycles are piecewise-constant
//!   phase sequences ([`Phase::ramp`], [`Phase::diurnal`]).
//! * [`ScenarioRunner`] — drives the discrete-event engine through the
//!   schedule using the engine's phase hooks
//!   ([`throttledb_engine::Server::run_until`] and friends) and emits one
//!   [`PhaseReport`] per phase plus the run's full
//!   [`throttledb_engine::RunMetrics`].
//! * [`Trace`] — the recorded admission/grant event stream, serialized to
//!   a diffable line format; [`Trace::replay`] reconstructs the per-phase
//!   reports from the events alone, so a stored trace is a regression
//!   golden file: same seed + same policy code ⇒ byte-identical trace and
//!   identical reports.
//! * [`FaultPlan`] — deterministic chaos: timed fault events (memory-leak
//!   ramps, compile stalls, executor slot loss, grant-budget collapse,
//!   client surges) attached to any scenario. Faults ride the engine's
//!   event queue like every other event, so faulted runs record and
//!   replay byte-identically too; the chaos built-ins
//!   (`memory_leak_creep`, `retry_storm`, …) exercise the governor's
//!   graceful-degradation machinery end to end.
//!
//! Built-in scenarios cover the paper's own figures
//! ([`Scenario::paper_figure3`] …) and workload shapes the paper never
//! ran (compile storms, diurnal cycles, degrading grant pools, mix
//! shifts); see [`Scenario::builtin_names`]. The `scenario_runner` binary
//! in `throttledb-bench` runs any of them from the command line, and
//! `docs/EXPERIMENTS.md` is the user guide.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fault;
pub mod phase;
pub mod runner;
pub mod scenario;
pub mod trace;
pub mod trace_v2;

pub use fault::{FaultEvent, FaultPlan};
pub use phase::{Phase, PhaseOverrides};
pub use runner::{PhaseReport, ScenarioOutcome, ScenarioRunner};
pub use scenario::{Scale, Scenario};
pub use trace::{Trace, TraceError};
pub use trace_v2::{
    is_v2, replay_v2, transcode_v1_to_v2, transcode_v2_to_v1, TraceReaderV2, TraceV2Error,
    TraceV2Summary, TraceWriterV2, TranscodeError, V2ReplaySummary, MAGIC_V2,
};
