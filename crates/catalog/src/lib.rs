//! # throttledb-catalog
//!
//! Catalog substrate for the `throttledb` reproduction: table and column
//! definitions, indexes, per-table and per-column statistics, and builders
//! for the two schemas the paper's evaluation needs:
//!
//! * the **SALES** data-warehouse schema (§5.1): one large fact table
//!   (>400 million rows) and a constellation of dimension tables, totalling
//!   roughly 524 GB, and
//! * a **TPC-H-like** schema used as the "moderate compile memory" baseline.
//!
//! The catalog stores *statistics*, not data. The optimizer derives
//! cardinality estimates and the buffer-pool footprint model from these
//! statistics; the execution engine scales a small in-memory sample by them.
//! This is the substitution documented in `DESIGN.md`: compilation memory —
//! the paper's subject — depends on schema complexity and statistics, not on
//! the stored bytes themselves.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod column;
pub mod index;
pub mod schema;
pub mod statistics;
pub mod table;
pub mod types;
pub mod warehouse;

pub use builder::TableBuilder;
pub use column::ColumnDef;
pub use index::IndexDef;
pub use schema::Catalog;
pub use statistics::{ColumnStatistics, HistogramBucket, TableStatistics};
pub use table::TableDef;
pub use types::DataType;
pub use warehouse::{sales_schema, tpch_schema, SalesScale};

use std::borrow::Cow;

/// `name` in the catalog's stored (ASCII lower) case. Names are folded
/// once by the SQL lexer, so a lookup borrows them as they are; only a
/// name with ASCII upper case pays for a lower-cased copy.
pub(crate) fn folded(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}
