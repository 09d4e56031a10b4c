//! The catalog: a named collection of tables.

use crate::folded;
use crate::table::TableDef;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A database catalog holding table definitions and their statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    name: String,
    tables: BTreeMap<String, TableDef>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new(name: impl Into<String>) -> Self {
        Catalog {
            name: name.into(),
            tables: BTreeMap::new(),
        }
    }

    /// The catalog (database) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a table, replacing any previous definition with the same name.
    pub fn add_table(&mut self, table: TableDef) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Look up a table by name (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&TableDef> {
        self.tables.get(&*folded(name))
    }

    /// True when the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&*folded(name))
    }

    /// Iterate all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total size of the database at full scale, in bytes. The SALES catalog
    /// reports ≈524 GB here, matching the paper's data-mart snapshot.
    pub fn total_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.total_bytes()).sum()
    }

    /// Total size in 8 KiB pages.
    pub fn total_pages(&self) -> u64 {
        self.tables.values().map(|t| t.total_pages()).sum()
    }

    /// Total number of indexes across all tables.
    pub fn index_count(&self) -> usize {
        self.tables.values().map(|t| t.indexes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnDef;
    use crate::types::DataType;

    fn simple_catalog() -> Catalog {
        let mut cat = Catalog::new("test");
        cat.add_table(TableDef::new(
            "T1",
            vec![ColumnDef::new("a", DataType::Int)],
            100,
        ));
        cat.add_table(TableDef::new(
            "t2",
            vec![ColumnDef::new("b", DataType::BigInt)],
            200,
        ));
        cat
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let cat = simple_catalog();
        assert!(cat.table("t1").is_some());
        assert!(cat.table("T1").is_some());
        assert!(cat.contains("T2"));
        assert!(!cat.contains("t3"));
        assert_eq!(cat.table_count(), 2);
    }

    #[test]
    fn add_table_replaces_existing() {
        let mut cat = simple_catalog();
        cat.add_table(TableDef::new(
            "t1",
            vec![ColumnDef::new("a", DataType::Int)],
            999,
        ));
        assert_eq!(cat.table("t1").unwrap().row_count(), 999);
        assert_eq!(cat.table_count(), 2);
    }

    #[test]
    fn totals_aggregate_tables() {
        let cat = simple_catalog();
        let expected: u64 = cat.tables().map(|t| t.total_bytes()).sum();
        assert_eq!(cat.total_bytes(), expected);
        assert!(cat.total_pages() >= 2);
        assert_eq!(cat.index_count(), 0);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let cat = simple_catalog();
        let names: Vec<_> = cat.tables().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["t1", "t2"]);
    }
}
