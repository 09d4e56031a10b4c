//! Implementation and costing: turning logical groups into physical winners.
//!
//! This is the "optimize inputs / implement" half of a Cascades optimizer,
//! run as a bottom-up pass over the memo. Every physical alternative
//! considered charges compilation memory, just like logical alternatives do
//! — but considering one builds nothing: alternatives are costed straight
//! from the memo's operators, a group remembers its winner as a
//! [`PhysicalChoice`], and a [`PhysicalOp`] with owned names exists only for
//! the operators of the plan [`extract_plan`] returns.

use crate::cardinality::CardinalityEstimator;
use crate::cost::{Cost, CostModel};
use crate::logical::{LogicalOp, Predicate};
use crate::memo::{GroupId, Memo, MemoExpr, MemoOp, Winner};
use crate::memory::{sizes, CompilationMemory};
use crate::physical::{PhysicalOp, PhysicalPlan};
use throttledb_catalog::{Catalog, IndexDef, TableDef};

/// Context shared by the implementation pass.
pub struct ImplementationContext<'a> {
    /// The catalog (for page counts and index lookups).
    pub catalog: &'a Catalog,
    /// Cardinality estimator.
    pub estimator: CardinalityEstimator<'a>,
    /// Cost model.
    pub model: CostModel,
}

/// Which physical implementation of a logical expression was chosen. Only
/// scans and joins have more than one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicalChoice {
    /// Full sequential scan.
    TableScan,
    /// Seek on the n-th of the indexes the scan's filters can use.
    IndexSeek(u32),
    /// Hash join, building on the right child.
    HashJoin,
    /// Nested-loop join.
    NestedLoopJoin,
    /// The single implementation of a unary operator.
    Only,
}

/// Compute winners for `group` and (recursively) everything it depends on.
/// Returns the winner's total cost, or `None` when the group has no
/// implementable expression (cannot happen for binder-produced plans).
pub fn optimize_group(
    memo: &mut Memo,
    group: GroupId,
    ctx: &ImplementationContext<'_>,
    mem: &mut CompilationMemory,
) -> Option<Cost> {
    if let Some(w) = &memo.group(group).winner {
        return Some(w.total_cost);
    }
    let mut best: Option<Winner> = None;

    let mut next = memo.group(group).first_expr;
    'members: while let Some(expr_id) = next {
        let expr = *memo.expr(expr_id);
        next = expr.next_in_group();
        // Optimize children first.
        let mut child_total = Cost::ZERO;
        for c in expr.children() {
            match optimize_group(memo, *c, ctx, mem) {
                Some(cost) => child_total = child_total + cost,
                None => continue 'members,
            }
        }

        for_each_alternative(
            memo,
            group,
            &expr,
            ctx,
            |choice, local_cost, memory_bytes| {
                mem.charge(sizes::PHYSICAL_EXPR_BYTES);
                let total_cost = local_cost + child_total;
                if best.map_or(true, |b| total_cost.total() < b.total_cost.total()) {
                    best = Some(Winner {
                        expr: expr_id,
                        choice,
                        local_cost,
                        total_cost,
                        memory_bytes,
                    });
                }
            },
        );
    }

    memo.group_mut(group).winner = best;
    best.map(|w| w.total_cost)
}

/// The indexes a scan could seek on: for each filter with a single target
/// column, every index of the table led by that column — what
/// `TableDef::indexes_on` collects, without a `Vec` per filter on the
/// point-query path.
fn seek_indexes<'a>(
    table: &'a TableDef,
    predicates: &'a [Predicate],
) -> impl Iterator<Item = &'a IndexDef> {
    let columns = predicates.iter().filter_map(Predicate::column);
    let indexes = table.indexes.iter();
    columns.flat_map(move |col| indexes.clone().filter(|ix| ix.covers_prefix(&col.column)))
}

/// Cost the physical alternatives of one logical expression, handing each
/// `(choice, local cost, execution memory)` to `consider`.
fn for_each_alternative(
    memo: &Memo,
    group: GroupId,
    expr: &MemoExpr,
    ctx: &ImplementationContext<'_>,
    mut consider: impl FnMut(PhysicalChoice, Cost, u64),
) {
    let model = &ctx.model;
    let out = memo.group(group);
    let input = |nth: usize| memo.group(expr.children[nth]);
    let plain = match expr.op {
        MemoOp::Join { preds, .. } => {
            let (left, right) = (input(0), input(1));
            // Hash join: build on the right child.
            if !preds.is_empty() {
                consider(
                    PhysicalChoice::HashJoin,
                    model.hash_join(right.rows, left.rows, out.rows),
                    model.hash_join_memory(right.rows, right.row_width),
                );
            }
            // Nested loops: re-evaluate the right side per left row.
            let right_cost = right
                .winner
                .map(|w| w.total_cost.total())
                .unwrap_or(right.rows * model.cpu_per_row);
            let cost = model.nested_loop_join(left.rows, right_cost, out.rows);
            return consider(PhysicalChoice::NestedLoopJoin, cost, 0);
        }
        MemoOp::Plain(id) => memo.names().plain(id),
    };
    match plain {
        LogicalOp::Get {
            table, predicates, ..
        } => {
            let table = ctx.catalog.table(table);
            let (pages, raw_rows) = match table {
                Some(t) => (t.total_pages() as f64, t.row_count() as f64),
                None => (1000.0, 100_000.0),
            };
            let scan = model.table_scan(raw_rows, pages);
            consider(PhysicalChoice::TableScan, scan, 0);
            // An index seek is possible when some predicate's column is the
            // leading key of an index on this table.
            let seeks = table.map(|t| seek_indexes(t, predicates));
            for (nth, _) in seeks.into_iter().flatten().enumerate() {
                let cost = model.index_seek(out.rows, pages);
                consider(PhysicalChoice::IndexSeek(nth as u32), cost, 0);
            }
        }
        LogicalOp::Aggregate { .. } => consider(
            PhysicalChoice::Only,
            model.hash_aggregate(input(0).rows, out.rows),
            model.hash_aggregate_memory(out.rows, out.row_width),
        ),
        LogicalOp::Filter { .. } | LogicalOp::Project { .. } => {
            consider(PhysicalChoice::Only, model.streaming(input(0).rows), 0)
        }
        LogicalOp::Sort { .. } => consider(
            PhysicalChoice::Only,
            model.sort(input(0).rows),
            model.sort_memory(input(0).rows, input(0).row_width),
        ),
        LogicalOp::Limit { count } => {
            let rows = input(0).rows.min(*count as f64);
            consider(PhysicalChoice::Only, model.streaming(rows), 0)
        }
    }
}

/// Build the chosen implementation of `expr` with owned names.
fn materialize(
    memo: &Memo,
    expr: &MemoExpr,
    choice: PhysicalChoice,
    catalog: &Catalog,
) -> Option<PhysicalOp> {
    let names = memo.names();
    let plain = match expr.op {
        MemoOp::Join { kind, preds } => {
            let predicates = memo.pred_list(preds).iter();
            let predicates = predicates.map(|p| names.join_predicate(*p)).collect();
            return Some(match choice {
                PhysicalChoice::HashJoin => PhysicalOp::HashJoin { kind, predicates },
                _ => PhysicalOp::NestedLoopJoin { kind, predicates },
            });
        }
        MemoOp::Plain(id) => names.plain(id),
    };
    Some(match plain.clone() {
        LogicalOp::Get {
            table,
            binding,
            predicates,
        } => match choice {
            PhysicalChoice::IndexSeek(nth) => PhysicalOp::IndexSeek {
                index: {
                    let mut seeks = seek_indexes(catalog.table(&table)?, &predicates);
                    seeks.nth(nth as usize)?.name.clone()
                },
                table,
                binding,
                predicates,
            },
            _ => PhysicalOp::TableScan {
                table,
                binding,
                predicates,
            },
        },
        LogicalOp::Aggregate {
            group_by,
            aggregate_count,
        } => PhysicalOp::HashAggregate {
            group_by,
            aggregate_count,
        },
        LogicalOp::Filter { selectivity_ppm } => PhysicalOp::Filter { selectivity_ppm },
        LogicalOp::Project { column_count } => PhysicalOp::Project { column_count },
        LogicalOp::Sort { key_count } => PhysicalOp::Sort { key_count },
        LogicalOp::Limit { count } => PhysicalOp::Limit { count },
    })
}

/// Extract the winner of `group` as a materialized [`PhysicalPlan`] tree.
/// `catalog` must be the one the winners were costed against.
pub fn extract_plan(memo: &Memo, group: GroupId, catalog: &Catalog) -> Option<PhysicalPlan> {
    let g = memo.group(group);
    let w = g.winner.as_ref()?;
    let expr = memo.expr(w.expr);
    let mut children = Vec::with_capacity(expr.children().len());
    for c in expr.children() {
        children.push(extract_plan(memo, *c, catalog)?);
    }
    Some(PhysicalPlan {
        op: materialize(memo, expr, w.choice, catalog)?,
        children,
        est_rows: g.rows,
        est_row_width: g.row_width,
        local_cost: w.local_cost,
        total_cost: w.total_cost,
        memory_bytes: w.memory_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use throttledb_catalog::tpch_schema;
    use throttledb_sqlparse::parse;

    fn optimize(sql: &str) -> (Memo, GroupId, PhysicalPlan) {
        let cat = tpch_schema(1.0);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let bound = Binder::new(&cat).bind(&parse(sql).unwrap()).unwrap();
        let root = memo.insert_plan(bound, &est, &mut mem);
        let ctx = ImplementationContext {
            catalog: &cat,
            estimator: est,
            model: CostModel::default(),
        };
        optimize_group(&mut memo, root, &ctx, &mut mem).expect("optimizable");
        let phys = extract_plan(&memo, root, &cat).expect("winner");
        (memo, root, phys)
    }

    #[test]
    fn single_table_query_becomes_a_scan() {
        let (_, _, plan) = optimize("SELECT o_orderkey FROM orders");
        assert_eq!(plan.scan_count(), 1);
        assert_eq!(plan.join_count(), 0);
        assert!(plan.total_cost.total() > 0.0);
    }

    #[test]
    fn selective_predicate_prefers_index_seek() {
        let (_, _, plan) = optimize("SELECT o_orderkey FROM orders WHERE o_orderkey = 12345");
        let mut used_seek = false;
        plan.walk(&mut |p| {
            if matches!(p.op, PhysicalOp::IndexSeek { .. }) {
                used_seek = true;
            }
        });
        assert!(
            used_seek,
            "point lookup on the PK should use an index seek:\n{}",
            plan.display_indented()
        );
    }

    #[test]
    fn unselective_scan_prefers_table_scan() {
        let (_, _, plan) = optimize("SELECT o_orderkey FROM orders WHERE o_totalprice > 1");
        let mut used_scan = false;
        plan.walk(&mut |p| {
            if matches!(p.op, PhysicalOp::TableScan { .. }) {
                used_scan = true;
            }
        });
        assert!(used_scan);
    }

    #[test]
    fn equi_join_uses_hash_join_for_large_tables() {
        let (_, _, plan) = optimize(
            "SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey",
        );
        assert_eq!(plan.join_count(), 1);
        let mut hash = false;
        plan.walk(&mut |p| {
            if matches!(p.op, PhysicalOp::HashJoin { .. }) {
                hash = true;
            }
        });
        assert!(
            hash,
            "large equi-join should hash:\n{}",
            plan.display_indented()
        );
        assert!(plan.total_memory_requirement() > 0);
    }

    #[test]
    fn aggregate_query_contains_hash_aggregate_with_memory() {
        let (_, _, plan) = optimize(
            "SELECT c.c_mktsegment, SUM(o.o_totalprice) FROM orders o \
             JOIN customer c ON o.o_custkey = c.c_custkey GROUP BY c.c_mktsegment",
        );
        let mut agg_mem = 0;
        plan.walk(&mut |p| {
            if matches!(p.op, PhysicalOp::HashAggregate { .. }) {
                agg_mem = p.memory_bytes;
            }
        });
        assert!(agg_mem > 0);
    }

    #[test]
    fn winners_are_cached_per_group() {
        let cat = tpch_schema(1.0);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let bound = Binder::new(&cat)
            .bind(&parse("SELECT o_orderkey FROM orders").unwrap())
            .unwrap();
        let root = memo.insert_plan(bound, &est, &mut mem);
        let ctx = ImplementationContext {
            catalog: &cat,
            estimator: est,
            model: CostModel::default(),
        };
        let c1 = optimize_group(&mut memo, root, &ctx, &mut mem).unwrap();
        let used_after_first = mem.used_bytes();
        let c2 = optimize_group(&mut memo, root, &ctx, &mut mem).unwrap();
        assert_eq!(c1.total(), c2.total());
        assert_eq!(
            mem.used_bytes(),
            used_after_first,
            "cached winner should not re-charge"
        );
    }

    #[test]
    fn costing_charges_physical_memory() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let bound = Binder::new(&cat)
            .bind(&parse("SELECT o_orderkey FROM orders").unwrap())
            .unwrap();
        let root = memo.insert_plan(bound, &est, &mut mem);
        let before = mem.used_bytes();
        let ctx = ImplementationContext {
            catalog: &cat,
            estimator: est,
            model: CostModel::default(),
        };
        optimize_group(&mut memo, root, &ctx, &mut mem).unwrap();
        assert!(mem.used_bytes() > before);
    }

    #[test]
    fn extract_plan_requires_winners() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let bound = Binder::new(&cat)
            .bind(&parse("SELECT o_orderkey FROM orders").unwrap())
            .unwrap();
        let root = memo.insert_plan(bound, &est, &mut mem);
        assert!(extract_plan(&memo, root, &cat).is_none());
    }
}
