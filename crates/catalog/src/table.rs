//! Table definitions.

use crate::column::ColumnDef;
use crate::folded;
use crate::index::IndexDef;
use crate::statistics::TableStatistics;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default page size used to convert table bytes into page counts for the
/// buffer-pool footprint model (8 KiB, as in SQL Server).
pub const PAGE_SIZE_BYTES: u64 = 8 * 1024;

/// A table: columns, indexes and full-scale statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableDef {
    /// Table name, unique within the catalog (case-insensitive, stored
    /// lower-case).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Indexes on this table.
    pub indexes: Vec<IndexDef>,
    /// Full-scale statistics.
    pub statistics: TableStatistics,
}

impl TableDef {
    /// Create a table with the given columns and row count, no indexes and
    /// default (empty) column statistics.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>, row_count: u64) -> Self {
        TableDef {
            name: name.into().to_ascii_lowercase(),
            columns,
            indexes: Vec::new(),
            statistics: TableStatistics::new(row_count),
        }
    }

    /// Number of rows at full scale.
    pub fn row_count(&self) -> u64 {
        self.statistics.row_count
    }

    /// Find a column by name (case-insensitive).
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        let name = folded(name);
        self.columns.iter().find(|c| c.name == *name)
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let name = folded(name);
        self.columns.iter().position(|c| c.name == *name)
    }

    /// Average row width in bytes, computed from the column types unless the
    /// statistics carry an explicit value.
    pub fn avg_row_bytes(&self) -> u32 {
        if self.statistics.avg_row_bytes > 0 {
            self.statistics.avg_row_bytes
        } else {
            // Row header overhead plus column widths.
            9 + self
                .columns
                .iter()
                .map(|c| c.avg_width_bytes())
                .sum::<u32>()
        }
    }

    /// Total size at full scale, in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.statistics.total_bytes(self.avg_row_bytes())
    }

    /// Total size at full scale, in 8 KiB pages (rounded up, at least 1).
    pub fn total_pages(&self) -> u64 {
        self.total_bytes().div_ceil(PAGE_SIZE_BYTES).max(1)
    }

    /// Indexes whose leading key column is `column`.
    pub fn indexes_on(&self, column: &str) -> Vec<&IndexDef> {
        self.indexes
            .iter()
            .filter(|ix| ix.covers_prefix(column))
            .collect()
    }

    /// Number of alternatives an optimizer has for accessing this table
    /// (heap/clustered scan plus each index). Used by tests asserting the
    /// search-space size scales with schema complexity.
    pub fn access_path_count(&self) -> usize {
        1 + self.indexes.len()
    }
}

impl fmt::Display for TableDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TABLE {} ({} rows)", self.name, self.row_count())?;
        for c in &self.columns {
            writeln!(f, "  {c}")?;
        }
        for ix in &self.indexes {
            writeln!(f, "  {ix}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn orders() -> TableDef {
        let mut t = TableDef::new(
            "Orders",
            vec![
                ColumnDef::new("o_orderkey", DataType::BigInt),
                ColumnDef::new("o_custkey", DataType::BigInt),
                ColumnDef::nullable("o_comment", DataType::Varchar(80)),
            ],
            1_000_000,
        );
        t.indexes
            .push(IndexDef::primary("pk_orders", vec!["o_orderkey"]));
        t.indexes
            .push(IndexDef::secondary("ix_orders_cust", vec!["o_custkey"]));
        t
    }

    #[test]
    fn names_are_lowercased_and_lookups_case_insensitive() {
        let t = orders();
        assert_eq!(t.name, "orders");
        assert!(t.column("O_CUSTKEY").is_some());
        assert_eq!(t.column_index("o_comment"), Some(2));
        assert!(t.column("nope").is_none());
    }

    #[test]
    fn row_width_sums_columns_plus_header() {
        let t = orders();
        // 9 header + 8 + 8 + (40 + 1 null byte) = 66
        assert_eq!(t.avg_row_bytes(), 66);
        assert_eq!(t.total_bytes(), 66 * 1_000_000);
        assert!(t.total_pages() > 0);
    }

    #[test]
    fn statistics_width_overrides_computed() {
        let mut t = orders();
        t.statistics.avg_row_bytes = 100;
        assert_eq!(t.avg_row_bytes(), 100);
    }

    #[test]
    fn indexes_on_matches_leading_column() {
        let t = orders();
        assert_eq!(t.indexes_on("o_custkey").len(), 1);
        assert_eq!(t.indexes_on("o_comment").len(), 0);
        assert_eq!(t.access_path_count(), 3);
    }

    #[test]
    fn pages_round_up() {
        let t = TableDef::new("tiny", vec![ColumnDef::new("a", DataType::Int)], 1);
        assert_eq!(t.total_pages(), 1);
    }
}
