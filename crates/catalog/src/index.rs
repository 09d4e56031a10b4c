//! Index definitions.
//!
//! Indexes matter to the reproduction for two reasons: they expand the
//! optimizer's search space (index-scan and index-join alternatives are what
//! makes compilation memory grow with schema complexity — the paper notes
//! TPC-H has "similar numbers of indexes per table" to SALES), and they give
//! the cost model cheaper access paths.

use crate::folded;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A (possibly composite) index over one table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexDef {
    /// Index name, unique within the catalog.
    pub name: String,
    /// Columns in key order.
    pub key_columns: Vec<String>,
    /// Whether the key is unique.
    pub unique: bool,
    /// Whether this is the clustered (primary storage) index.
    pub clustered: bool,
}

impl IndexDef {
    /// A non-unique secondary index.
    pub fn secondary(name: impl Into<String>, key_columns: Vec<&str>) -> Self {
        IndexDef {
            name: name.into().to_ascii_lowercase(),
            key_columns: key_columns.iter().map(|c| c.to_ascii_lowercase()).collect(),
            unique: false,
            clustered: false,
        }
    }

    /// A unique clustered primary-key index.
    pub fn primary(name: impl Into<String>, key_columns: Vec<&str>) -> Self {
        IndexDef {
            name: name.into().to_ascii_lowercase(),
            key_columns: key_columns.iter().map(|c| c.to_ascii_lowercase()).collect(),
            unique: true,
            clustered: true,
        }
    }

    /// True when `column` is the leading key column (the index can seek on
    /// an equality or range predicate over it).
    pub fn covers_prefix(&self, column: &str) -> bool {
        self.key_columns
            .first()
            .is_some_and(|c| *c == *folded(column))
    }
}

impl fmt::Display for IndexDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} {}({})",
            if self.unique { "UNIQUE " } else { "" },
            if self.clustered { "CLUSTERED" } else { "INDEX" },
            self.name,
            self.key_columns.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_is_unique_and_clustered() {
        let idx = IndexDef::primary("pk_orders", vec!["O_OrderKey"]);
        assert!(idx.unique);
        assert!(idx.clustered);
        assert_eq!(idx.key_columns, vec!["o_orderkey"]);
    }

    #[test]
    fn secondary_is_neither() {
        let idx = IndexDef::secondary("ix_cust", vec!["o_custkey", "o_orderdate"]);
        assert!(!idx.unique);
        assert!(!idx.clustered);
        assert_eq!(idx.key_columns.len(), 2);
    }

    #[test]
    fn covers_prefix_checks_leading_column() {
        let idx = IndexDef::secondary("ix", vec!["a", "b"]);
        assert!(idx.covers_prefix("A"));
        assert!(!idx.covers_prefix("b"));
    }

    #[test]
    fn display_is_readable() {
        let idx = IndexDef::primary("pk", vec!["id"]);
        assert_eq!(idx.to_string(), "UNIQUE CLUSTERED pk(id)");
    }
}
