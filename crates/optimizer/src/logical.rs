//! The logical algebra: resolved column references, classified predicates
//! and the operators the memo keeps whole.
//!
//! The binder classifies a parsed
//! [`SelectStatement`](throttledb_sqlparse::SelectStatement)'s predicates
//! into single-table filters, pushed into a `Get`, and equi-join
//! conditions, attached to joins, with every column reference resolved.
//! Keeping predicates in this simplified, resolved form lets the
//! cardinality estimator work directly from catalog statistics without
//! re-walking SQL expressions. Joins are not [`LogicalOp`]s: rules rewrite
//! them, so the memo stores them as [`crate::memo::MemoOp::Join`] over
//! interned predicates, and keeps only scans and unary operators whole in
//! the compilation's [`crate::names::Names`] table.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An f64 wrapper with total equality, so operators containing literals
/// can be compared when the memo looks for duplicates.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OrderedF64(pub f64);

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for OrderedF64 {}
impl From<f64> for OrderedF64 {
    fn from(v: f64) -> Self {
        OrderedF64(v)
    }
}

/// A fully resolved column reference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnRef {
    /// The binding name used in the query (alias or table name).
    pub binding: String,
    /// The underlying catalog table name.
    pub table: String,
    /// The column name.
    pub column: String,
}

impl ColumnRef {
    /// Construct a column reference.
    pub fn new(binding: &str, table: &str, column: &str) -> Self {
        ColumnRef {
            binding: binding.to_string(),
            table: table.to_string(),
            column: column.to_string(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.binding, self.column)
    }
}

/// A resolved single-table predicate in a shape the cardinality estimator
/// understands.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Predicate {
    /// `col = literal`.
    Equals {
        /// Filtered column.
        column: ColumnRef,
        /// Literal value (strings are hashed to a number by the binder).
        value: OrderedF64,
    },
    /// `col` restricted to `[lo, hi]` (from `<`, `>`, `BETWEEN`, ...).
    Range {
        /// Filtered column.
        column: ColumnRef,
        /// Inclusive lower bound.
        lo: OrderedF64,
        /// Inclusive upper bound.
        hi: OrderedF64,
    },
    /// `col IN (...)` with `count` list members.
    InList {
        /// Filtered column.
        column: ColumnRef,
        /// Number of IN-list members.
        count: u32,
    },
    /// `col LIKE pattern` — fixed selectivity.
    Like {
        /// Filtered column.
        column: ColumnRef,
    },
    /// `col IS NULL` / `IS NOT NULL`.
    IsNull {
        /// Filtered column.
        column: ColumnRef,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// A disjunction of predicates over the same table.
    Or(Vec<Predicate>),
    /// Anything the binder could not classify; carries a guessed selectivity
    /// (stored ×1e6 to stay comparable).
    Opaque {
        /// Guessed selectivity in millionths.
        selectivity_ppm: u32,
    },
}

impl Predicate {
    /// The column this predicate filters, when it has a single target.
    pub fn column(&self) -> Option<&ColumnRef> {
        match self {
            Predicate::Equals { column, .. }
            | Predicate::Range { column, .. }
            | Predicate::InList { column, .. }
            | Predicate::Like { column }
            | Predicate::IsNull { column, .. } => Some(column),
            Predicate::Or(_) | Predicate::Opaque { .. } => None,
        }
    }
}

/// An equi-join condition `left = right` between two bindings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinPredicate {
    /// Column from the left input.
    pub left: ColumnRef,
    /// Column from the right input.
    pub right: ColumnRef,
}

impl JoinPredicate {
    /// Swap the sides.
    pub fn flipped(self) -> JoinPredicate {
        JoinPredicate {
            left: self.right,
            right: self.left,
        }
    }
}

impl fmt::Display for JoinPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.left, self.right)
    }
}

/// A scan or unary operator, kept whole in the compilation's name table.
/// Its input, if any, is a memo group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogicalOp {
    /// Scan of a base table with pushed-down filters. Leaf.
    Get {
        /// Catalog table name.
        table: String,
        /// Binding name (alias) in the query.
        binding: String,
        /// Filters applying only to this table.
        predicates: Vec<Predicate>,
    },
    /// Residual filter (predicates that reference multiple tables but are
    /// not equi-joins, or HAVING applied above an aggregate).
    Filter {
        /// Unclassified predicates with their guessed combined selectivity
        /// in millionths.
        selectivity_ppm: u32,
    },
    /// Group-by aggregation.
    Aggregate {
        /// Grouping columns.
        group_by: Vec<ColumnRef>,
        /// Number of aggregate expressions computed.
        aggregate_count: u32,
    },
    /// Projection (column pruning); only the width matters to the model.
    Project {
        /// Number of projected expressions.
        column_count: u32,
    },
    /// Sort for ORDER BY.
    Sort {
        /// Number of sort keys.
        key_count: u32,
    },
    /// LIMIT.
    Limit {
        /// Maximum rows returned.
        count: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_predicate_flip_swaps_sides() {
        let p = JoinPredicate {
            left: ColumnRef::new("f", "fact", "k"),
            right: ColumnRef::new("d", "dim", "key"),
        };
        let q = p.clone().flipped();
        assert_eq!(q.left, p.right);
        assert_eq!(q.right, p.left);
        assert_eq!(q.flipped(), p);
    }

    #[test]
    fn ordered_f64_equality_by_bits() {
        assert_eq!(OrderedF64(1.5), OrderedF64(1.5));
        assert_ne!(OrderedF64(1.5), OrderedF64(2.5));
        let nan1 = OrderedF64(f64::NAN);
        let nan2 = OrderedF64(f64::NAN);
        assert_eq!(nan1, nan2);
    }

    #[test]
    fn predicate_column_extraction() {
        let c = ColumnRef::new("f", "fact", "amount");
        let p = Predicate::Equals {
            column: c.clone(),
            value: 5.0.into(),
        };
        assert_eq!(p.column(), Some(&c));
        assert_eq!(
            Predicate::Opaque {
                selectivity_ppm: 100
            }
            .column(),
            None
        );
    }
}
