//! Table and column statistics.
//!
//! The optimizer's cardinality estimation — and therefore its cost model,
//! and therefore how long and how much memory it spends exploring
//! alternatives — is driven entirely by these statistics. They describe the
//! *full-scale* warehouse (e.g. a 400-million-row fact table) even though the
//! execution engine only materializes a sample, which is how the reproduction
//! gets paper-scale compilation behaviour on laptop-scale hardware.

use crate::folded;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One bucket of an equi-depth histogram over a column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound of the bucket (values are normalized to f64).
    pub lo: f64,
    /// Inclusive upper bound of the bucket.
    pub hi: f64,
    /// Rows falling in the bucket.
    pub rows: u64,
    /// Distinct values in the bucket.
    pub distinct: u64,
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStatistics {
    /// Number of distinct values.
    pub distinct_values: u64,
    /// Fraction of NULL rows in `[0, 1]`.
    pub null_fraction: f64,
    /// Minimum value (normalized to f64; strings hash to a number).
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Optional equi-depth histogram; empty means "assume uniform".
    pub histogram: Vec<HistogramBucket>,
}

impl ColumnStatistics {
    /// Uniform statistics over `[min, max]` with `distinct_values` NDV.
    pub fn uniform(distinct_values: u64, min: f64, max: f64) -> Self {
        ColumnStatistics {
            distinct_values: distinct_values.max(1),
            null_fraction: 0.0,
            min,
            max,
            histogram: Vec::new(),
        }
    }

    /// Statistics for a dense surrogate-key column `0..n`.
    pub fn key_column(n: u64) -> Self {
        ColumnStatistics::uniform(n.max(1), 0.0, n.saturating_sub(1) as f64)
    }

    /// Selectivity of an equality predicate `col = literal`.
    pub fn eq_selectivity(&self) -> f64 {
        (1.0 - self.null_fraction) / self.distinct_values.max(1) as f64
    }

    /// Selectivity of a range predicate covering `fraction` of the domain,
    /// refined by the histogram when one is present.
    pub fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        let lo = lo.max(self.min);
        let hi = hi.min(self.max);
        if hi <= lo {
            return 0.0;
        }
        if self.histogram.is_empty() {
            let domain = (self.max - self.min).max(f64::EPSILON);
            ((hi - lo) / domain).clamp(0.0, 1.0) * (1.0 - self.null_fraction)
        } else {
            let total: u64 = self.histogram.iter().map(|b| b.rows).sum();
            if total == 0 {
                return 0.0;
            }
            let mut covered = 0.0;
            for b in &self.histogram {
                let blo = b.lo.max(lo);
                let bhi = b.hi.min(hi);
                if bhi > blo {
                    let width = (b.hi - b.lo).max(f64::EPSILON);
                    covered += b.rows as f64 * ((bhi - blo) / width).clamp(0.0, 1.0);
                }
            }
            (covered / total as f64).clamp(0.0, 1.0) * (1.0 - self.null_fraction)
        }
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStatistics {
    /// Total number of rows at full scale.
    pub row_count: u64,
    /// Average row width in bytes (computed from the columns if zero).
    pub avg_row_bytes: u32,
    /// Per-column statistics keyed by column name.
    pub columns: BTreeMap<String, ColumnStatistics>,
}

impl TableStatistics {
    /// Empty statistics for a table of `row_count` rows.
    pub fn new(row_count: u64) -> Self {
        TableStatistics {
            row_count,
            avg_row_bytes: 0,
            columns: BTreeMap::new(),
        }
    }

    /// Add or replace statistics for a column.
    pub fn with_column(mut self, name: impl Into<String>, stats: ColumnStatistics) -> Self {
        self.columns.insert(name.into().to_ascii_lowercase(), stats);
        self
    }

    /// Look up a column's statistics.
    pub fn column(&self, name: &str) -> Option<&ColumnStatistics> {
        self.columns.get(&*folded(name))
    }

    /// Distinct values for a column, defaulting to 10% of rows (a common
    /// optimizer guess) when no statistics exist.
    pub fn distinct_or_default(&self, name: &str) -> u64 {
        self.column(name)
            .map(|c| c.distinct_values)
            .unwrap_or_else(|| (self.row_count / 10).max(1))
    }

    /// Total bytes this table occupies at full scale.
    pub fn total_bytes(&self, computed_row_width: u32) -> u64 {
        let width = if self.avg_row_bytes > 0 {
            self.avg_row_bytes
        } else {
            computed_row_width
        };
        self.row_count * width as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_selectivity_is_one_over_ndv() {
        let s = ColumnStatistics::uniform(100, 0.0, 99.0);
        assert!((s.eq_selectivity() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn eq_selectivity_accounts_for_nulls() {
        let mut s = ColumnStatistics::uniform(10, 0.0, 9.0);
        s.null_fraction = 0.5;
        assert!((s.eq_selectivity() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn range_selectivity_uniform() {
        let s = ColumnStatistics::uniform(1000, 0.0, 100.0);
        let sel = s.range_selectivity(0.0, 50.0);
        assert!((sel - 0.5).abs() < 1e-9);
        assert_eq!(s.range_selectivity(200.0, 300.0), 0.0);
        assert!((s.range_selectivity(-100.0, 200.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn range_selectivity_uses_histogram() {
        // 90% of rows in [0,10), 10% in [10,100).
        let s = ColumnStatistics {
            distinct_values: 100,
            null_fraction: 0.0,
            min: 0.0,
            max: 100.0,
            histogram: vec![
                HistogramBucket {
                    lo: 0.0,
                    hi: 10.0,
                    rows: 900,
                    distinct: 10,
                },
                HistogramBucket {
                    lo: 10.0,
                    hi: 100.0,
                    rows: 100,
                    distinct: 90,
                },
            ],
        };
        let sel = s.range_selectivity(0.0, 10.0);
        assert!(
            (sel - 0.9).abs() < 1e-9,
            "histogram should concentrate selectivity, got {sel}"
        );
        // Uniform assumption would have said 0.1.
    }

    #[test]
    fn key_column_spans_zero_to_n() {
        let s = ColumnStatistics::key_column(1000);
        assert_eq!(s.distinct_values, 1000);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 999.0);
    }

    #[test]
    fn table_statistics_lookup_is_case_insensitive() {
        let t =
            TableStatistics::new(500).with_column("OrderKey", ColumnStatistics::key_column(500));
        assert!(t.column("orderkey").is_some());
        assert!(t.column("ORDERKEY").is_some());
        assert_eq!(t.distinct_or_default("orderkey"), 500);
        assert_eq!(t.distinct_or_default("missing"), 50);
    }

    #[test]
    fn total_bytes_prefers_explicit_width() {
        let mut t = TableStatistics::new(100);
        assert_eq!(t.total_bytes(40), 4000);
        t.avg_row_bytes = 80;
        assert_eq!(t.total_bytes(40), 8000);
    }
}
