//! # throttledb-workload
//!
//! The workloads of the paper's evaluation (§5):
//!
//! * [`templates::sales_templates`] — the **SALES benchmark**: 10 complex
//!   decision-support query templates over the star-schema warehouse, each
//!   joining the fact table to 14–19 dimensions and aggregating over the
//!   join result, mirroring the published description ("the 'average' query
//!   contains between 15 and 20 joins and computes aggregate(s) on the join
//!   results").
//! * [`templates::tpch_like_templates`] — a TPC-H-like comparison set with
//!   0–8 joins, used for the compile-memory-magnitude comparison.
//! * [`templates::oltp_templates`] — small point/diagnostic queries that the
//!   first gateway threshold exempts.
//! * [`uniquify`] — the load generator's trick of editing each base query
//!   before submission "to make it appear unique and to defeat plan-caching
//!   features in the DBMS".
//! * [`client`] — the closed-loop client model (think time, retry behaviour)
//!   used by the discrete-event engine.
//! * [`mix`] — workload-mix sampling across the three template families,
//!   the knob the scenario subsystem turns per phase.
//! * [`catalog`] — the template intern table: every template gets a compact
//!   [`TemplateId`] so the engine's hot path moves 4-byte ids instead of
//!   cloned SQL strings.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod client;
pub mod mix;
pub mod templates;
pub mod uniquify;

pub use catalog::{TemplateCatalog, TemplateId};
pub use client::{ClientModel, TemplateSkew};
pub use mix::WorkloadMix;
pub use templates::{
    oltp_templates, sales_templates, tpch_like_templates, QueryTemplate, WorkloadKind,
};
pub use uniquify::{fnv1a_64, Fnv64, Uniquifier};
