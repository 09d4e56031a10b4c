//! Cardinality estimation from catalog statistics.

use crate::logical::{ColumnRef, JoinPredicate, Predicate};
use throttledb_catalog::Catalog;

/// Minimum row estimate — never let cardinalities collapse to zero, the cost
/// model divides by them.
const MIN_ROWS: f64 = 1.0;

/// Estimates operator output cardinalities against a catalog.
#[derive(Debug, Clone, Copy)]
pub struct CardinalityEstimator<'a> {
    catalog: &'a Catalog,
}

impl<'a> CardinalityEstimator<'a> {
    /// Create an estimator over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        CardinalityEstimator { catalog }
    }

    /// Number of distinct values of a column (falls back to 10% of rows).
    pub fn distinct_values(&self, column: &ColumnRef) -> f64 {
        match self.catalog.table(&column.table) {
            Some(t) => t.statistics.distinct_or_default(&column.column) as f64,
            None => 100.0,
        }
    }

    /// Base row count of a table.
    pub fn table_rows(&self, table: &str) -> f64 {
        self.catalog
            .table(table)
            .map(|t| t.row_count() as f64)
            .unwrap_or(1000.0)
            .max(MIN_ROWS)
    }

    /// Average row width of a table in bytes.
    pub fn table_row_width(&self, table: &str) -> u32 {
        self.catalog
            .table(table)
            .map(|t| t.avg_row_bytes())
            .unwrap_or(64)
    }

    /// Selectivity of one single-table predicate.
    pub fn predicate_selectivity(&self, pred: &Predicate) -> f64 {
        let sel = match pred {
            Predicate::Equals { column, value } => {
                match self
                    .catalog
                    .table(&column.table)
                    .and_then(|t| t.statistics.column(&column.column))
                {
                    Some(stats) => {
                        if stats.histogram.is_empty() {
                            stats.eq_selectivity()
                        } else {
                            // Locate the bucket containing the literal and
                            // spread its rows evenly over its distinct values.
                            let total: u64 = stats.histogram.iter().map(|b| b.rows).sum();
                            stats
                                .histogram
                                .iter()
                                .find(|b| b.lo <= value.0 && value.0 <= b.hi)
                                .map(|b| {
                                    (b.rows as f64 / total.max(1) as f64) / b.distinct.max(1) as f64
                                })
                                .unwrap_or_else(|| stats.eq_selectivity())
                        }
                    }
                    None => 0.01,
                }
            }
            Predicate::Range { column, lo, hi } => {
                match self
                    .catalog
                    .table(&column.table)
                    .and_then(|t| t.statistics.column(&column.column))
                {
                    Some(stats) => stats.range_selectivity(lo.0, hi.0),
                    None => 0.3,
                }
            }
            Predicate::InList { column, count } => {
                let eq = match self
                    .catalog
                    .table(&column.table)
                    .and_then(|t| t.statistics.column(&column.column))
                {
                    Some(stats) => stats.eq_selectivity(),
                    None => 0.01,
                };
                (eq * *count as f64).min(1.0)
            }
            Predicate::Like { .. } => 0.1,
            Predicate::IsNull { column, negated } => {
                let null_fraction = self
                    .catalog
                    .table(&column.table)
                    .and_then(|t| t.statistics.column(&column.column))
                    .map(|s| s.null_fraction)
                    .unwrap_or(0.05);
                if *negated {
                    1.0 - null_fraction
                } else {
                    null_fraction.max(0.001)
                }
            }
            Predicate::Or(parts) => {
                // Independence assumption: 1 - ∏(1 - s_i).
                let mut keep = 1.0;
                for p in parts {
                    keep *= 1.0 - self.predicate_selectivity(p);
                }
                1.0 - keep
            }
            Predicate::Opaque { selectivity_ppm } => *selectivity_ppm as f64 / 1_000_000.0,
        };
        sel.clamp(1e-9, 1.0)
    }

    /// Output rows of a `Get` (scan with pushed-down filters).
    pub fn get_rows(&self, table: &str, predicates: &[Predicate]) -> f64 {
        let mut rows = self.table_rows(table);
        for p in predicates {
            rows *= self.predicate_selectivity(p);
        }
        rows.max(MIN_ROWS)
    }

    /// What one equi-join predicate divides a join's cardinality by:
    /// `max(ndv(l), ndv(r))` of the classic `|L|·|R| / max(ndv(l), ndv(r))`
    /// formula. The memo looks this up once per distinct predicate.
    pub fn join_predicate_ndv(&self, predicate: &JoinPredicate) -> f64 {
        self.distinct_values(&predicate.left)
            .max(self.distinct_values(&predicate.right))
            .max(1.0)
    }

    /// Output rows of a join given child cardinalities and the
    /// [`join_predicate_ndv`](Self::join_predicate_ndv) of each of its
    /// equi-join predicates; with no predicate it is a cross product.
    pub fn join_rows(left_rows: f64, right_rows: f64, ndvs: impl IntoIterator<Item = f64>) -> f64 {
        let mut rows = left_rows * right_rows;
        for ndv in ndvs {
            rows /= ndv;
        }
        rows.max(MIN_ROWS)
    }

    /// Output rows of a group-by aggregation.
    pub fn aggregate_rows(&self, input_rows: f64, group_by: &[ColumnRef]) -> f64 {
        if group_by.is_empty() {
            return 1.0;
        }
        let mut groups = 1.0;
        for c in group_by {
            groups *= self.distinct_values(c).max(1.0);
        }
        groups.min(input_rows).max(MIN_ROWS)
    }

    /// Output rows of a residual filter with the given selectivity.
    pub fn filter_rows(input_rows: f64, selectivity_ppm: u32) -> f64 {
        (input_rows * (selectivity_ppm as f64 / 1_000_000.0)).max(MIN_ROWS)
    }

    /// Output rows of a `LIMIT count`.
    pub fn limit_rows(input_rows: f64, count: u64) -> f64 {
        input_rows.min(count as f64).max(MIN_ROWS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::OrderedF64;
    use throttledb_catalog::tpch_schema;

    fn est(catalog: &Catalog) -> CardinalityEstimator<'_> {
        CardinalityEstimator::new(catalog)
    }

    fn col(table: &str, column: &str) -> ColumnRef {
        ColumnRef::new(table, table, column)
    }

    #[test]
    fn table_rows_come_from_catalog() {
        let cat = tpch_schema(1.0);
        let e = est(&cat);
        assert_eq!(e.table_rows("orders"), 1_500_000.0);
        assert_eq!(e.table_rows("nonexistent"), 1000.0);
    }

    #[test]
    fn equality_selectivity_uses_ndv() {
        let cat = tpch_schema(1.0);
        let e = est(&cat);
        // c_mktsegment has 5 distinct values -> rows/5.
        let rows = e.get_rows(
            "customer",
            &[Predicate::Equals {
                column: col("customer", "c_mktsegment"),
                value: OrderedF64(2.0),
            }],
        );
        let expected = 150_000.0 / 5.0;
        assert!(
            (rows - expected).abs() / expected < 0.5,
            "rows {rows} expected ~{expected}"
        );
    }

    #[test]
    fn range_selectivity_shrinks_rows() {
        let cat = tpch_schema(1.0);
        let e = est(&cat);
        let all = e.table_rows("orders");
        let filtered = e.get_rows(
            "orders",
            &[Predicate::Range {
                column: col("orders", "o_orderdate"),
                lo: OrderedF64(0.0),
                hi: OrderedF64(255.0), // ~10% of a 7-year domain
            }],
        );
        assert!(filtered < all * 0.2);
        assert!(filtered > all * 0.01);
    }

    #[test]
    fn in_list_scales_with_member_count() {
        let cat = tpch_schema(1.0);
        let e = est(&cat);
        let one = e.get_rows(
            "part",
            &[Predicate::InList {
                column: col("part", "p_size"),
                count: 1,
            }],
        );
        let five = e.get_rows(
            "part",
            &[Predicate::InList {
                column: col("part", "p_size"),
                count: 5,
            }],
        );
        assert!((five / one - 5.0).abs() < 0.1);
    }

    #[test]
    fn fk_pk_join_returns_fact_side_rows() {
        let cat = tpch_schema(1.0);
        let e = est(&cat);
        let orders = e.table_rows("orders");
        let customers = e.table_rows("customer");
        let ndv = e.join_predicate_ndv(&JoinPredicate {
            left: col("orders", "o_custkey"),
            right: col("customer", "c_custkey"),
        });
        let joined = CardinalityEstimator::join_rows(orders, customers, [ndv]);
        // FK->PK join keeps roughly the fact-side cardinality.
        assert!(
            (joined - orders).abs() / orders < 0.01,
            "joined {joined} orders {orders}"
        );
    }

    #[test]
    fn cross_join_multiplies() {
        assert_eq!(CardinalityEstimator::join_rows(100.0, 50.0, []), 5000.0);
    }

    #[test]
    fn aggregate_rows_bounded_by_input_and_groups() {
        let cat = tpch_schema(1.0);
        let e = est(&cat);
        // Grouping by a 3-value column cannot produce more than 3 rows.
        let g = e.aggregate_rows(1_000_000.0, &[col("lineitem", "l_returnflag")]);
        assert!(g <= 3.0 + 1e-9);
        // Global aggregate returns one row.
        assert_eq!(e.aggregate_rows(500.0, &[]), 1.0);
        // Grouping by a high-NDV column is capped by input rows.
        let g = e.aggregate_rows(10.0, &[col("orders", "o_orderkey")]);
        assert!(g <= 10.0);
    }

    #[test]
    fn or_combines_via_independence() {
        let cat = tpch_schema(1.0);
        let e = est(&cat);
        let p = Predicate::Or(vec![
            Predicate::Opaque {
                selectivity_ppm: 100_000,
            },
            Predicate::Opaque {
                selectivity_ppm: 100_000,
            },
        ]);
        let s = e.predicate_selectivity(&p);
        assert!((s - 0.19).abs() < 1e-9);
    }

    #[test]
    fn filter_and_limit_rows() {
        assert_eq!(CardinalityEstimator::limit_rows(500.0, 10), 10.0);
        assert_eq!(CardinalityEstimator::limit_rows(5.0, 10), 5.0);
        assert_eq!(CardinalityEstimator::filter_rows(500.0, 500_000), 250.0);
        assert_eq!(CardinalityEstimator::filter_rows(500.0, 1), 1.0);
    }

    #[test]
    fn selectivities_stay_in_unit_interval() {
        let cat = tpch_schema(1.0);
        let e = est(&cat);
        let preds = vec![
            Predicate::Like {
                column: col("part", "p_type"),
            },
            Predicate::IsNull {
                column: col("part", "p_size"),
                negated: false,
            },
            Predicate::IsNull {
                column: col("part", "p_size"),
                negated: true,
            },
            Predicate::Opaque {
                selectivity_ppm: 2_000_000,
            }, // over-range input
        ];
        for p in preds {
            let s = e.predicate_selectivity(&p);
            assert!(
                (0.0..=1.0).contains(&s),
                "selectivity {s} out of range for {p:?}"
            );
        }
    }
}
