//! Transformation rules: the generators of alternatives (and therefore of
//! compilation memory).
//!
//! Two rules are enough to enumerate the bushy join-order space when applied
//! to a fixed point: **join commutativity** and **left associativity**
//! (`(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)`). Both are restricted to inner equi-joins
//! and never introduce cross products — matching the pruning every
//! production optimizer applies. The number of rule applications is bounded
//! by the stage budget in [`crate::search`], which is how "dynamic
//! optimization" limits effort (and memory) for cheap queries.

use crate::cardinality::CardinalityEstimator;
use crate::memo::{ExprId, GroupId, Memo, MemoOp, PredList};
use crate::memory::{sizes, CompilationMemory};
use crate::names::PredRef;
use std::collections::VecDeque;
use throttledb_sqlparse::JoinKind;

/// The transformation rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `A ⋈ B → B ⋈ A`.
    JoinCommute,
    /// `(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)`.
    JoinAssociateLeft,
}

impl Rule {
    /// All rules, in application order.
    pub const ALL: [Rule; 2] = [Rule::JoinCommute, Rule::JoinAssociateLeft];

    /// Bit used in [`crate::memo::MemoExpr::rules_applied`].
    pub fn mask(self) -> u32 {
        match self {
            Rule::JoinCommute => 1 << 0,
            Rule::JoinAssociateLeft => 1 << 1,
        }
    }

    /// Human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::JoinCommute => "JoinCommute",
            Rule::JoinAssociateLeft => "JoinAssociateLeft",
        }
    }
}

/// One exploration: the work list of expressions whose rules have not fired
/// yet, plus the predicate buffers every rule application reuses.
#[derive(Debug, Default)]
pub struct Exploration {
    /// Expressions waiting for their rules, in discovery order. Rule
    /// applications append the expressions they create.
    pub queue: VecDeque<ExprId>,
    /// Predicates of the join a rule is building below the new top join
    /// (or of the commuted join).
    lower: Vec<PredRef>,
    /// Predicates of the new top join.
    upper: Vec<PredRef>,
}

impl Exploration {
    /// Apply `rule` to `expr_id`, inserting any new alternatives into the
    /// memo and queueing them. Returns the number of substitute expressions
    /// generated, including duplicates that the memo rejected — the
    /// "transformations attempted" count the stage budget limits.
    ///
    /// Transient rule-binding memory is charged and released around the
    /// application, as a production optimizer's rule bindings would be.
    pub fn apply_rule(
        &mut self,
        rule: Rule,
        memo: &mut Memo,
        expr_id: ExprId,
        est: &CardinalityEstimator<'_>,
        mem: &mut CompilationMemory,
    ) -> u64 {
        // Mark applied regardless of outcome so the search never retries.
        let expr = memo.expr_mut(expr_id);
        if expr.rules_applied & rule.mask() != 0 {
            return 0;
        }
        expr.rules_applied |= rule.mask();

        mem.charge(sizes::RULE_BINDING_BYTES);
        let attempted = match rule {
            Rule::JoinCommute => self.apply_commute(memo, expr_id, mem),
            Rule::JoinAssociateLeft => self.apply_associate_left(memo, expr_id, est, mem),
        };
        mem.release(sizes::RULE_BINDING_BYTES);
        attempted
    }

    fn apply_commute(
        &mut self,
        memo: &mut Memo,
        expr_id: ExprId,
        mem: &mut CompilationMemory,
    ) -> u64 {
        let Some((preds, [left, right])) = as_inner_join(memo, expr_id) else {
            return 0;
        };
        let group = memo.expr(expr_id).group;
        self.lower.clear();
        self.lower
            .extend(memo.pred_list(preds).iter().map(|p| p.flipped()));
        if let Some(new_expr) =
            memo.add_join_to_group(group, JoinKind::Inner, &self.lower, [right, left], mem)
        {
            // The commuted form has, by construction, the same children swapped;
            // applying commute to it again would just regenerate the original.
            memo.expr_mut(new_expr).rules_applied |= Rule::JoinCommute.mask();
            self.queue.push_back(new_expr);
        }
        1
    }

    fn apply_associate_left(
        &mut self,
        memo: &mut Memo,
        expr_id: ExprId,
        est: &CardinalityEstimator<'_>,
        mem: &mut CompilationMemory,
    ) -> u64 {
        let Some((top_preds, [left_group, right_group])) = as_inner_join(memo, expr_id) else {
            return 0;
        };
        let top_group = memo.expr(expr_id).group;
        let mut attempted = 0;

        // For every inner-join expression (A ⋈ B) that is in the left child
        // group now, produce A ⋈ (B ⋈ C) where C is the right child.
        let last = memo.group(left_group).last_expr;
        let mut next = memo.group(left_group).first_expr;
        while let Some(inner_id) = next {
            next = if next == last {
                None
            } else {
                memo.expr(inner_id).next_in_group()
            };
            let Some((inner_preds, [a_group, b_group])) = as_inner_join(memo, inner_id) else {
                continue;
            };
            let names = memo.names();
            let a_bindings = memo.group(a_group).bindings;
            let b_bindings = memo.group(b_group).bindings;

            // Split the top predicates: those touching B go into the new
            // inner join (B ⋈ C); those touching only A stay at the new top
            // join, after the old inner predicates (A–B).
            self.lower.clear();
            self.upper.clear();
            self.upper.extend_from_slice(memo.pred_list(inner_preds));
            for &p in memo.pred_list(top_preds) {
                // Top preds connect (A∪B) with C; the left column is on the A∪B side.
                let left_binding = names.left_binding(p);
                if b_bindings.contains(left_binding) {
                    self.lower.push(p);
                } else if a_bindings.contains(left_binding) {
                    self.upper.push(p);
                } else if b_bindings.contains(names.left_binding(p.flipped())) {
                    // Orientation was flipped.
                    self.lower.push(p.flipped());
                } else {
                    self.upper.push(p);
                }
            }
            // Refuse to create a cross product for (B ⋈ C).
            if self.lower.is_empty() {
                continue;
            }

            attempted += 1;
            // Create (or find) the group for (B ⋈ C).
            let (bc_group, bc_expr) = memo.insert_join(
                JoinKind::Inner,
                &self.lower,
                [b_group, right_group],
                est,
                mem,
            );
            // The intermediate join is itself a new expression that further
            // rules (commute, associate) must get a chance to expand.
            self.queue.extend(bc_expr);
            // Add A ⋈ (B ⋈ C) as an alternative of the top group.
            let new_top = memo.add_join_to_group(
                top_group,
                JoinKind::Inner,
                &self.upper,
                [a_group, bc_group],
                mem,
            );
            self.queue.extend(new_top);
        }
        attempted
    }
}

/// The predicates and children of `expr_id` when it is an inner join with at
/// least one equi-predicate.
fn as_inner_join(memo: &Memo, expr_id: ExprId) -> Option<(PredList, [GroupId; 2])> {
    let expr = memo.expr(expr_id);
    match expr.op {
        MemoOp::Join {
            kind: JoinKind::Inner,
            preds,
        } if !preds.is_empty() => Some((preds, expr.children)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::{Binder, BoundQuery};
    use throttledb_catalog::{tpch_schema, Catalog};
    use throttledb_sqlparse::parse;

    fn bind(catalog: &Catalog, sql: &str) -> BoundQuery {
        Binder::new(catalog).bind(&parse(sql).unwrap()).unwrap()
    }

    /// Find the topmost join group in a freshly inserted plan.
    fn top_join_expr(memo: &Memo) -> ExprId {
        memo.expr_ids()
            .filter(|e| matches!(memo.expr(*e).op, MemoOp::Join { .. }))
            .last()
            .expect("plan contains a join")
    }

    fn member_count(memo: &Memo, group: GroupId) -> usize {
        let first = memo.group(group).first_expr;
        std::iter::successors(first, |e| memo.expr(*e).next_in_group()).count()
    }

    const ORDERS_CUSTOMER: &str =
        "SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey";

    #[test]
    fn commute_adds_flipped_alternative() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let mut run = Exploration::default();
        memo.insert_plan(bind(&cat, ORDERS_CUSTOMER), &est, &mut mem);
        let join = top_join_expr(&memo);
        let group = memo.expr(join).group;
        let before = member_count(&memo, group);
        let attempted = run.apply_rule(Rule::JoinCommute, &mut memo, join, &est, &mut mem);
        assert_eq!(attempted, 1);
        assert_eq!(run.queue.len(), 1);
        assert_eq!(member_count(&memo, group), before + 1);
        // Children and predicate sides are swapped in the new expression.
        let new = memo.expr(run.queue[0]);
        let old = memo.expr(join);
        assert_eq!(new.children, [old.children[1], old.children[0]]);
        let (
            MemoOp::Join {
                preds: new_preds, ..
            },
            MemoOp::Join {
                preds: old_preds, ..
            },
        ) = (new.op, old.op)
        else {
            panic!("both are joins");
        };
        assert_eq!(
            memo.names().join_predicate(memo.pred_list(new_preds)[0]),
            memo.names()
                .join_predicate(memo.pred_list(old_preds)[0])
                .flipped()
        );
    }

    #[test]
    fn commute_is_applied_at_most_once_per_expr() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let mut run = Exploration::default();
        memo.insert_plan(bind(&cat, ORDERS_CUSTOMER), &est, &mut mem);
        let join = top_join_expr(&memo);
        run.apply_rule(Rule::JoinCommute, &mut memo, join, &est, &mut mem);
        assert_eq!(run.queue.len(), 1);
        let second = run.apply_rule(Rule::JoinCommute, &mut memo, join, &est, &mut mem);
        assert_eq!((second, run.queue.len()), (0, 1));
        // And the commuted expression never regenerates the original.
        let commuted = run.queue[0];
        let third = run.apply_rule(Rule::JoinCommute, &mut memo, commuted, &est, &mut mem);
        assert_eq!((third, run.queue.len()), (0, 1));
    }

    #[test]
    fn commute_ignores_non_joins() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let mut run = Exploration::default();
        let plan = bind(&cat, "SELECT o_orderkey FROM orders");
        memo.insert_plan(plan, &est, &mut mem);
        let get = memo
            .expr_ids()
            .find(|e| matches!(memo.expr(*e).op, MemoOp::Plain(_)))
            .unwrap();
        let attempted = run.apply_rule(Rule::JoinCommute, &mut memo, get, &est, &mut mem);
        assert_eq!(attempted, 0);
        assert!(run.queue.is_empty());
    }

    #[test]
    fn associate_left_creates_new_intermediate_group() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let mut run = Exploration::default();
        // ((lineitem ⋈ orders) ⋈ customer) — associating gives
        // lineitem ⋈ (orders ⋈ customer).
        let plan = bind(
            &cat,
            "SELECT l.l_id FROM lineitem l \
             JOIN orders o ON l.l_orderkey = o.o_orderkey \
             JOIN customer c ON o.o_custkey = c.c_custkey",
        );
        memo.insert_plan(plan, &est, &mut mem);
        let top = top_join_expr(&memo);
        let groups_before = memo.group_count();
        let attempted = run.apply_rule(Rule::JoinAssociateLeft, &mut memo, top, &est, &mut mem);
        assert_eq!(attempted, 1);
        // Two new expressions: the intermediate (orders ⋈ customer) join and
        // the re-associated alternative in the top group.
        assert_eq!(run.queue.len(), 2);
        assert_eq!(
            memo.group_count(),
            groups_before + 1,
            "a new (orders ⋈ customer) group"
        );
        // The intermediate join comes first and lives in its own (new) group;
        // the re-associated alternative joins the original top join's group.
        let top_group = memo.expr(top).group;
        assert_ne!(memo.expr(run.queue[0]).group, top_group);
        assert_eq!(memo.expr(run.queue[1]).group, top_group);
    }

    #[test]
    fn associate_left_refuses_cross_products() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        let mut run = Exploration::default();
        // customer joins orders, then nation joins on the *customer* key:
        // the top predicate touches only A (customer side).
        let plan = bind(
            &cat,
            "SELECT c.c_custkey FROM customer c \
             JOIN orders o ON c.c_custkey = o.o_custkey \
             JOIN nation n ON c.c_nationkey = n.n_nationkey",
        );
        memo.insert_plan(plan, &est, &mut mem);
        let top = top_join_expr(&memo);
        let groups_before = memo.group_count();
        let attempted = run.apply_rule(Rule::JoinAssociateLeft, &mut memo, top, &est, &mut mem);
        // The only association would build (orders ⋈ nation) with no
        // predicate — a cross product — so nothing should be generated.
        assert_eq!(attempted, 0);
        assert!(run.queue.is_empty());
        assert_eq!(memo.group_count(), groups_before);
    }

    #[test]
    fn rule_masks_are_distinct() {
        assert_ne!(Rule::JoinCommute.mask(), Rule::JoinAssociateLeft.mask());
        assert_eq!(Rule::ALL.len(), 2);
        assert_eq!(Rule::JoinCommute.name(), "JoinCommute");
    }

    #[test]
    fn transient_rule_memory_is_released() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let mut memo = Memo::new();
        memo.insert_plan(bind(&cat, ORDERS_CUSTOMER), &est, &mut mem);
        let before_used = mem.used_bytes();
        let join = top_join_expr(&memo);
        Exploration::default().apply_rule(Rule::JoinCommute, &mut memo, join, &est, &mut mem);
        // Live memory grew only by the new expression, not the binding scratch.
        assert_eq!(mem.used_bytes(), before_used + sizes::LOGICAL_EXPR_BYTES);
        // But the peak saw the transient binding.
        assert!(mem.peak_bytes() >= before_used + sizes::RULE_BINDING_BYTES);
    }
}
