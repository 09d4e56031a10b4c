//! The logical algebra: resolved operators the memo explores.
//!
//! The binder lowers a parsed [`SelectStatement`](throttledb_sqlparse::SelectStatement)
//! into a tree of [`LogicalOp`]s with *resolved* column references and
//! *classified* predicates (single-table filters pushed into `Get`,
//! equi-join conditions attached to `Join`). Keeping predicates in this
//! simplified, resolved form lets the cardinality estimator work directly
//! from catalog statistics without re-walking SQL expressions.

use serde::{Deserialize, Serialize};
use std::fmt;
pub use throttledb_sqlparse::JoinKind;

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

/// A logical operator. Children are kept outside the operator (in the plan
/// tree or in memo group references), so the same operator value can be
/// shared by both representations.
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
    /// Join of two inputs.
    Join {
        /// Inner/left/right.
        kind: JoinKind,
        /// Equi-join conditions.
        predicates: Vec<JoinPredicate>,
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

impl LogicalOp {
    /// Number of children this operator expects.
    pub fn arity(&self) -> usize {
        match self {
            LogicalOp::Get { .. } => 0,
            LogicalOp::Join { .. } => 2,
            LogicalOp::Filter { .. }
            | LogicalOp::Aggregate { .. }
            | LogicalOp::Project { .. }
            | LogicalOp::Sort { .. }
            | LogicalOp::Limit { .. } => 1,
        }
    }

    /// True for join operators (the target of the reordering rules).
    pub fn is_join(&self) -> bool {
        matches!(self, LogicalOp::Join { .. })
    }

    /// Short name for debugging output.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalOp::Get { .. } => "Get",
            LogicalOp::Join { .. } => "Join",
            LogicalOp::Filter { .. } => "Filter",
            LogicalOp::Aggregate { .. } => "Aggregate",
            LogicalOp::Project { .. } => "Project",
            LogicalOp::Sort { .. } => "Sort",
            LogicalOp::Limit { .. } => "Limit",
        }
    }
}

/// A logical plan tree (binder output, memo input).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogicalPlan {
    /// The operator at this node.
    pub op: LogicalOp,
    /// Child plans, `op.arity()` of them.
    pub children: Vec<LogicalPlan>,
}

impl LogicalPlan {
    /// Create a leaf plan node.
    pub fn leaf(op: LogicalOp) -> Self {
        debug_assert_eq!(op.arity(), 0);
        LogicalPlan {
            op,
            children: Vec::new(),
        }
    }

    /// Create a unary plan node.
    pub fn unary(op: LogicalOp, child: LogicalPlan) -> Self {
        debug_assert_eq!(op.arity(), 1);
        LogicalPlan {
            op,
            children: vec![child],
        }
    }

    /// Create a binary plan node.
    pub fn binary(op: LogicalOp, left: LogicalPlan, right: LogicalPlan) -> Self {
        debug_assert_eq!(op.arity(), 2);
        LogicalPlan {
            op,
            children: vec![left, right],
        }
    }

    /// Total number of operator nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Number of `Get` leaves (base tables).
    pub fn table_count(&self) -> usize {
        match &self.op {
            LogicalOp::Get { .. } => 1,
            _ => self.children.iter().map(|c| c.table_count()).sum(),
        }
    }

    /// Number of join operators in the tree.
    pub fn join_count(&self) -> usize {
        let own = usize::from(self.op.is_join());
        own + self.children.iter().map(|c| c.join_count()).sum::<usize>()
    }

    /// Depth-first visit.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a LogicalPlan)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }

    /// Render an indented tree (for debugging and EXPLAIN-style output).
    pub fn display_indented(&self) -> String {
        fn rec(plan: &LogicalPlan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            match &plan.op {
                LogicalOp::Get {
                    table,
                    binding,
                    predicates,
                } => {
                    out.push_str(&format!(
                        "Get {table} as {binding} [{} filters]\n",
                        predicates.len()
                    ));
                }
                LogicalOp::Join { kind, predicates } => {
                    out.push_str(&format!(
                        "Join {kind:?} on {} predicate(s)\n",
                        predicates.len()
                    ));
                }
                other => out.push_str(&format!("{}\n", other.name())),
            }
            for c in &plan.children {
                rec(c, depth + 1, out);
            }
        }
        let mut s = String::new();
        rec(self, 0, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(table: &str) -> LogicalPlan {
        LogicalPlan::leaf(LogicalOp::Get {
            table: table.to_string(),
            binding: table.to_string(),
            predicates: vec![],
        })
    }

    fn join(left: LogicalPlan, right: LogicalPlan) -> LogicalPlan {
        LogicalPlan::binary(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                predicates: vec![JoinPredicate {
                    left: ColumnRef::new("a", "a", "k"),
                    right: ColumnRef::new("b", "b", "k"),
                }],
            },
            left,
            right,
        )
    }

    #[test]
    fn arity_matches_structure() {
        assert_eq!(
            LogicalOp::Get {
                table: "t".into(),
                binding: "t".into(),
                predicates: vec![]
            }
            .arity(),
            0
        );
        assert_eq!(LogicalOp::Limit { count: 1 }.arity(), 1);
        assert_eq!(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                predicates: vec![]
            }
            .arity(),
            2
        );
    }

    #[test]
    fn counts_over_a_small_tree() {
        let plan = LogicalPlan::unary(
            LogicalOp::Aggregate {
                group_by: vec![],
                aggregate_count: 1,
            },
            join(join(get("a"), get("b")), get("c")),
        );
        assert_eq!(plan.table_count(), 3);
        assert_eq!(plan.join_count(), 2);
        assert_eq!(plan.node_count(), 6);
    }

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

    #[test]
    fn display_indented_shows_structure() {
        let plan = join(get("fact"), get("dim"));
        let s = plan.display_indented();
        assert!(s.contains("Join"));
        assert!(s.contains("Get fact"));
        assert!(s.contains("  Get dim"));
    }

    #[test]
    fn walk_visits_all_nodes() {
        let plan = join(get("a"), join(get("b"), get("c")));
        let mut names = Vec::new();
        plan.walk(&mut |p| names.push(p.op.name()));
        assert_eq!(names, vec!["Join", "Get", "Join", "Get", "Get"]);
    }
}
