//! The memo: groups of logically equivalent expressions.
//!
//! The memo is where compilation memory goes, and two different quantities
//! are measured on it:
//!
//! * **Modelled bytes** — every group and every group expression inserted
//!   charges the compilation's [`crate::memory::CompilationMemory`] account
//!   with the [`sizes`] of a production optimizer's memo objects, so the
//!   number of alternatives explored maps directly to bytes — "the memory
//!   consumed during optimization is closely related to the number of
//!   considered alternatives." This is what the gateway ladder and the
//!   broker see, and the paper's subject.
//! * **Real heap** — what this process allocates to hold the same memo: a
//!   small constant per expression. The binder has already resolved every
//!   name into the compilation's [`Names`] table, which the memo takes over
//!   with the [`BoundQuery`] it is seeded from, so an operator is a `Copy`
//!   value of integer ids, a group's covered bindings are a bitset,
//!   children are a fixed pair, join predicate lists sit back to back in
//!   one arena, a group's members are threaded through the expression
//!   array, and duplicate detection hashes a candidate and compares it with
//!   the stored expressions. Each expression is hashed once, when it is
//!   first offered: it keeps the low word of its hash, so growing the
//!   table re-places it without hashing again. Adding an alternative
//!   allocates nothing beyond amortized growth of those few arrays.
//!
//! The first must not move when the second does.

use crate::binder::BoundQuery;
use crate::cardinality::CardinalityEstimator;
use crate::cost::Cost;
use crate::implementation::PhysicalChoice;
use crate::logical::LogicalOp;
use crate::memory::{sizes, CompilationMemory};
use crate::names::{BindingSet, Names, PlainId, PredRef};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use throttledb_sqlparse::JoinKind;

/// Identifies a memo group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl GroupId {
    /// Fills the child slots an operator of lower arity does not use.
    pub const NONE: GroupId = GroupId(u32::MAX);
}

/// Identifies a logical expression within the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// A join's equi-join predicates, ordered and oriented: a range of a
/// predicate arena — the memo's, read through [`Memo::pred_list`], or a
/// [`BoundQuery`]'s.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredList {
    start: u32,
    len: u32,
}

impl PredList {
    /// Append `preds` to `arena` and return their range.
    pub(crate) fn append(
        arena: &mut Vec<PredRef>,
        preds: impl IntoIterator<Item = PredRef>,
    ) -> PredList {
        let start = arena.len() as u32;
        arena.extend(preds);
        let len = arena.len() as u32 - start;
        PredList { start, len }
    }

    /// The predicates this list ranges over in `arena`.
    pub(crate) fn of(self, arena: &[PredRef]) -> &[PredRef] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }

    /// True for a join without equi-join predicates (a cross product).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A logical operator with its names resolved in the compilation's
/// [`Names`]: what the binder emits and the memo stores.
#[derive(Debug, Clone, Copy)]
pub enum MemoOp {
    /// A scan or unary operator. Rules only rewrite joins, so these stay
    /// as the binder built them, in the name table.
    Plain(PlainId),
    /// Join of two inputs.
    Join {
        /// Inner/left/right.
        kind: JoinKind,
        /// Equi-join conditions.
        preds: PredList,
    },
}

impl MemoOp {
    /// A join whose predicate list the memo assigns when it stores it.
    fn join(kind: JoinKind) -> MemoOp {
        let preds = PredList::default();
        MemoOp::Join { kind, preds }
    }

    /// Everything two operators must agree on to be equal, a join's
    /// predicate list aside.
    fn key(&self) -> (bool, u32) {
        match *self {
            MemoOp::Plain(id) => (false, id.0),
            MemoOp::Join { kind, .. } => (true, kind as u32),
        }
    }
}

/// A logical expression stored in the memo: an operator over child groups.
#[derive(Debug, Clone, Copy)]
pub struct MemoExpr {
    /// The group it belongs to.
    pub group: GroupId,
    /// The operator.
    pub op: MemoOp,
    /// Child groups, padded with [`GroupId::NONE`].
    pub children: [GroupId; 2],
    /// Bitmask of transformation rules already applied to this expression.
    pub rules_applied: u32,
    /// The group's next member, in insertion order; [`NONE`] after the last.
    next_in_group: u32,
    /// The low word of the expression's hash, which is all of it a slot
    /// index uses.
    hash: u32,
}

/// Pinned because the memo's expressions are most of a compile's heap: a
/// wider `MemoExpr` moves the benchmark's `compile_real` `peak_heap_mb` and
/// `BENCH_compile.json`'s `heap_bytes_per_expr`.
const _: () = assert!(std::mem::size_of::<MemoExpr>() == 36);

impl MemoExpr {
    /// The group's next member, in insertion order.
    pub fn next_in_group(&self) -> Option<ExprId> {
        (self.next_in_group != NONE).then_some(ExprId(self.next_in_group))
    }

    /// The child groups the operator actually has.
    pub fn children(&self) -> &[GroupId] {
        let arity = self.children.iter().take_while(|c| **c != GroupId::NONE);
        &self.children[..arity.count()]
    }
}

/// The best physical implementation found for a group. The operator with
/// owned names is built from it only if it ends up in the extracted plan.
#[derive(Debug, Clone, Copy)]
pub struct Winner {
    /// The logical expression that won (its children are the plan's).
    pub expr: ExprId,
    /// Which of its physical implementations.
    pub choice: PhysicalChoice,
    /// Cost of this operator alone.
    pub local_cost: Cost,
    /// Cost of the whole subtree.
    pub total_cost: Cost,
    /// Execution memory this operator needs.
    pub memory_bytes: u64,
}

/// A memo group: the set of logically equivalent expressions plus shared
/// logical properties (cardinality, width, covered bindings) and the winner.
#[derive(Debug, Clone, Copy)]
pub struct Group {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output row width in bytes.
    pub row_width: u32,
    /// Query bindings (table aliases) covered by this group.
    pub bindings: BindingSet,
    /// Best implementation found so far, if the group has been optimized.
    pub winner: Option<Winner>,
    /// First member; the rest hang off [`MemoExpr::next_in_group`].
    pub first_expr: Option<ExprId>,
    /// Last member so far.
    pub last_expr: Option<ExprId>,
}

/// Marks an unused slot of the duplicate-detection table and the end of a
/// group's member chain.
const NONE: u32 = u32::MAX;

/// The memo structure.
#[derive(Debug, Default)]
pub struct Memo {
    names: Names,
    groups: Vec<Group>,
    exprs: Vec<MemoExpr>,
    /// Every join expression's predicate list, back to back.
    preds: Vec<PredRef>,
    /// Duplicate detection: an open-addressing table of indexes into
    /// `exprs`, at most half full, probed linearly. The expressions are
    /// the keys; nothing is copied into the table. Each is hashed once;
    /// growth re-places it from its stored hash word.
    slots: Vec<u32>,
    /// Randomly keyed, like a `HashMap`'s: operators derive from user SQL.
    hasher: RandomState,
    /// Hashes computed by [`Memo::hash`].
    #[cfg(test)]
    hashes: std::cell::Cell<usize>,
}

impl Memo {
    /// An empty memo.
    pub fn new() -> Self {
        Memo::default()
    }

    /// The compilation's name table.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of logical expressions across all groups.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }

    /// Access a group.
    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[id.0 as usize]
    }

    /// Mutable access to a group.
    pub fn group_mut(&mut self, id: GroupId) -> &mut Group {
        &mut self.groups[id.0 as usize]
    }

    /// Access an expression.
    pub fn expr(&self, id: ExprId) -> &MemoExpr {
        &self.exprs[id.0 as usize]
    }

    /// Mutable access to an expression.
    pub fn expr_mut(&mut self, id: ExprId) -> &mut MemoExpr {
        &mut self.exprs[id.0 as usize]
    }

    /// Iterate all expression ids.
    pub fn expr_ids(&self) -> impl Iterator<Item = ExprId> {
        (0..self.exprs.len() as u32).map(ExprId)
    }

    /// A join's predicates.
    pub fn pred_list(&self, list: PredList) -> &[PredRef] {
        list.of(&self.preds)
    }

    /// The predicates of `op` when it is a join, none otherwise.
    fn op_preds(&self, op: &MemoOp) -> &[PredRef] {
        match op {
            MemoOp::Join { preds, .. } => self.pred_list(*preds),
            MemoOp::Plain(_) => &[],
        }
    }

    /// Seed an empty memo with a bound query: take over its name table and
    /// insert its expressions in order, one group each. Returns the group
    /// of the last expression, the query's root.
    pub fn insert_plan(
        &mut self,
        bound: BoundQuery,
        est: &CardinalityEstimator<'_>,
        mem: &mut CompilationMemory,
    ) -> GroupId {
        self.names = bound.names;
        let mut groups = Vec::with_capacity(bound.exprs.len());
        let mut root = GroupId::NONE;
        for e in &bound.exprs {
            let children = e.children.map(|c| c.map_or(GroupId::NONE, |at| groups[at]));
            let scanned = e.scans.map_or_else(BindingSet::default, BindingSet::single);
            let preds = match e.op {
                MemoOp::Join { preds, .. } => preds.of(&bound.preds),
                MemoOp::Plain(_) => &[],
            };
            root = self.insert_expr(e.op, preds, children, scanned, est, mem).0;
            groups.push(root);
        }
        root
    }

    /// Insert a join; if an identical one exists, return its group.
    /// Otherwise create a new group for it. Returns the group and, when the
    /// expression was new, its id.
    pub fn insert_join(
        &mut self,
        kind: JoinKind,
        preds: &[PredRef],
        children: [GroupId; 2],
        est: &CardinalityEstimator<'_>,
        mem: &mut CompilationMemory,
    ) -> (GroupId, Option<ExprId>) {
        let none_scanned = BindingSet::default();
        self.insert_expr(MemoOp::join(kind), preds, children, none_scanned, est, mem)
    }

    /// `insert_join` for any operator: `preds` is the predicate list when
    /// `op` is a join (its own `PredList` is assigned when it is stored) and
    /// `scanned` the binding when it is a scan.
    fn insert_expr(
        &mut self,
        op: MemoOp,
        preds: &[PredRef],
        children: [GroupId; 2],
        scanned: BindingSet,
        est: &CardinalityEstimator<'_>,
        mem: &mut CompilationMemory,
    ) -> (GroupId, Option<ExprId>) {
        let hash = self.hash(&op, preds, &children);
        if let Some(existing) = self.find(hash, &op, preds, &children) {
            return (self.expr(existing).group, None);
        }
        let group_id = GroupId(self.groups.len() as u32);
        let (rows, row_width) = self.derive_properties(&op, preds, &children, est);
        let inputs = children.iter().filter(|c| **c != GroupId::NONE);
        let bindings = inputs.fold(scanned, |all, c| all.union(self.group(*c).bindings));
        self.groups.push(Group {
            rows,
            row_width,
            bindings,
            winner: None,
            first_expr: None,
            last_expr: None,
        });
        mem.charge(sizes::GROUP_BYTES);
        let expr_id = self.push_expr(group_id, op, preds, children, hash, mem);
        (group_id, Some(expr_id))
    }

    /// Add an alternative join to an *existing* group (the result of a
    /// transformation rule). Returns `Some(expr)` if it was new, `None` if an
    /// identical expression already existed anywhere in the memo.
    pub fn add_join_to_group(
        &mut self,
        group: GroupId,
        kind: JoinKind,
        preds: &[PredRef],
        children: [GroupId; 2],
        mem: &mut CompilationMemory,
    ) -> Option<ExprId> {
        let op = MemoOp::join(kind);
        let hash = self.hash(&op, preds, &children);
        match self.find(hash, &op, preds, &children) {
            Some(_) => None,
            None => Some(self.push_expr(group, op, preds, children, hash, mem)),
        }
    }

    fn push_expr(
        &mut self,
        group: GroupId,
        mut op: MemoOp,
        new_preds: &[PredRef],
        children: [GroupId; 2],
        hash: u32,
        mem: &mut CompilationMemory,
    ) -> ExprId {
        if let MemoOp::Join { preds, .. } = &mut op {
            *preds = PredList::append(&mut self.preds, new_preds.iter().copied());
        }
        let expr_id = ExprId(self.exprs.len() as u32);
        self.exprs.push(MemoExpr {
            group,
            op,
            children,
            rules_applied: 0,
            next_in_group: NONE,
            hash,
        });
        let members = &mut self.groups[group.0 as usize];
        match members.last_expr.replace(expr_id) {
            Some(previous) => self.exprs[previous.0 as usize].next_in_group = expr_id.0,
            None => members.first_expr = Some(expr_id),
        }
        if self.exprs.len() * 2 > self.slots.len() {
            self.grow_slots();
        } else {
            place(&mut self.slots, hash, expr_id.0);
        }
        mem.charge(sizes::LOGICAL_EXPR_BYTES);
        expr_id
    }

    /// A candidate's hash: computed once per insert attempt and, when the
    /// candidate is new, stored with it.
    fn hash(&self, op: &MemoOp, preds: &[PredRef], children: &[GroupId; 2]) -> u32 {
        #[cfg(test)]
        self.hashes.set(self.hashes.get() + 1);
        self.digest(op, preds, children)
    }

    /// The expression's keyed SipHash, cut to the word a slot index uses:
    /// the operator key and both children as two packed words, then each
    /// predicate. The predicates come last, so their count is not needed.
    fn digest(&self, op: &MemoOp, preds: &[PredRef], children: &[GroupId; 2]) -> u32 {
        let mut h = self.hasher.build_hasher();
        let (is_join, id) = op.key();
        h.write_u64(u64::from(is_join) << 32 | u64::from(id));
        h.write_u64(u64::from(children[0].0) << 32 | u64::from(children[1].0));
        for p in preds {
            p.hash(&mut h);
        }
        h.finish() as u32
    }

    /// The stored expression equal to the candidate, if any: same operator,
    /// same ordered and oriented predicates, same children.
    fn find(
        &self,
        hash: u32,
        op: &MemoOp,
        preds: &[PredRef],
        children: &[GroupId; 2],
    ) -> Option<ExprId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at] != NONE {
            let stored = &self.exprs[self.slots[at] as usize];
            if stored.op.key() == op.key()
                && stored.children == *children
                && self.op_preds(&stored.op) == preds
            {
                return Some(ExprId(self.slots[at]));
            }
            at = (at + 1) & mask;
        }
        None
    }

    /// Double the duplicate-detection table and re-place every expression
    /// from its stored hash word.
    fn grow_slots(&mut self) {
        let mut slots = std::mem::take(&mut self.slots);
        let size = (slots.len() * 2).max(16);
        // A slot index is the hash word masked, so the word must cover it.
        debug_assert!(size as u64 <= 1 << 32, "{size} slots outgrow a u32 hash");
        slots.clear();
        slots.resize(size, NONE);
        for (at, e) in self.exprs.iter().enumerate() {
            debug_assert_eq!(
                e.hash,
                self.digest(&e.op, self.op_preds(&e.op), &e.children),
                "stale hash on expression {at}"
            );
            place(&mut slots, e.hash, at as u32);
        }
        self.slots = slots;
    }

    /// Derive a new group's cardinality and row width from its defining
    /// expression.
    fn derive_properties(
        &self,
        op: &MemoOp,
        preds: &[PredRef],
        children: &[GroupId; 2],
        est: &CardinalityEstimator<'_>,
    ) -> (f64, u32) {
        let input = |nth: usize| self.group(children[nth]);
        let plain = match *op {
            MemoOp::Join { .. } => {
                let ndvs = preds.iter().map(|p| self.names.ndv(*p));
                return (
                    CardinalityEstimator::join_rows(input(0).rows, input(1).rows, ndvs),
                    input(0).row_width + input(1).row_width,
                );
            }
            MemoOp::Plain(id) => self.names.plain(id),
        };
        match plain {
            LogicalOp::Get {
                table, predicates, ..
            } => (est.get_rows(table, predicates), est.table_row_width(table)),
            LogicalOp::Filter { selectivity_ppm } => (
                CardinalityEstimator::filter_rows(input(0).rows, *selectivity_ppm),
                input(0).row_width,
            ),
            LogicalOp::Aggregate {
                group_by,
                aggregate_count,
            } => (
                est.aggregate_rows(input(0).rows, group_by),
                (group_by.len() as u32 + aggregate_count) * 8 + 16,
            ),
            LogicalOp::Project { column_count } => (
                input(0).rows,
                (column_count * 8 + 8).min(input(0).row_width.max(8)),
            ),
            LogicalOp::Sort { .. } => (input(0).rows, input(0).row_width),
            LogicalOp::Limit { count } => (
                CardinalityEstimator::limit_rows(input(0).rows, *count),
                input(0).row_width,
            ),
        }
    }

    /// Clear all winners (used before a re-costing pass after exploration
    /// added new alternatives).
    pub fn clear_winners(&mut self) {
        for g in &mut self.groups {
            g.winner = None;
        }
    }
}

/// Put `value` in the first free slot at or after `hash`'s home.
fn place(slots: &mut [u32], hash: u32, value: u32) {
    let mask = slots.len() - 1;
    let mut at = hash as usize & mask;
    while slots[at] != NONE {
        at = (at + 1) & mask;
    }
    slots[at] = value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use throttledb_catalog::{tpch_schema, Catalog};
    use throttledb_sqlparse::parse;

    /// Seeds four groups: orders, customer, their join and a projection.
    const ORDERS_CUSTOMER: &str =
        "SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey";
    const ORDERS: GroupId = GroupId(0);
    const CUSTOMER: GroupId = GroupId(1);
    const JOIN: GroupId = GroupId(2);

    /// A memo seeded with `sql` bound against `catalog`, and its root.
    fn seeded(catalog: &Catalog, sql: &str, mem: &mut CompilationMemory) -> (Memo, GroupId) {
        let bound = Binder::new(catalog).bind(&parse(sql).unwrap()).unwrap();
        let mut memo = Memo::new();
        let root = memo.insert_plan(bound, &CardinalityEstimator::new(catalog), mem);
        (memo, root)
    }

    /// The members of `group`, in order.
    fn members(memo: &Memo, group: GroupId) -> Vec<ExprId> {
        let first = memo.group(group).first_expr;
        let members = std::iter::successors(first, |e| memo.expr(*e).next_in_group());
        let members: Vec<ExprId> = members.collect();
        assert_eq!(members.last(), memo.group(group).last_expr.as_ref());
        members
    }

    #[test]
    fn insert_plan_creates_one_group_per_node() {
        let cat = tpch_schema(0.1);
        let mut mem = CompilationMemory::unlimited();
        let (memo, root) = seeded(&cat, ORDERS_CUSTOMER, &mut mem);
        assert_eq!(memo.group_count(), 4);
        assert_eq!(memo.expr_count(), 4);
        assert_eq!(memo.expr(members(&memo, root)[0]).children(), [JOIN]);
        let [orders, customer] = memo.expr(members(&memo, JOIN)[0]).children;
        assert_eq!((orders, customer), (ORDERS, CUSTOMER));
        let covered = memo.group(JOIN).bindings;
        assert_eq!(
            covered,
            memo.group(orders)
                .bindings
                .union(memo.group(customer).bindings)
        );
        assert_ne!(covered, memo.group(orders).bindings);
        assert_eq!(memo.group(root).bindings, covered);
        assert!(mem.used_bytes() >= 4 * sizes::GROUP_BYTES);
    }

    #[test]
    fn duplicate_expressions_are_not_reinserted() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let (mut memo, _) = seeded(&cat, ORDERS_CUSTOMER, &mut mem);
        let join = *memo.expr(members(&memo, JOIN)[0]);
        let preds = memo.op_preds(&join.op).to_vec();
        // The whole join is found again, predicates and children included.
        let again = memo.insert_join(JoinKind::Inner, &preds, join.children, &est, &mut mem);
        assert_eq!(again, (JOIN, None));
        assert_eq!(memo.expr_count(), 4);
        // Without its predicate it is another expression, in another group.
        let (group, expr) = memo.insert_join(JoinKind::Inner, &[], join.children, &est, &mut mem);
        assert!(expr.is_some());
        assert_ne!(group, JOIN);
    }

    #[test]
    fn duplicate_detection_survives_table_growth() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let from: Vec<String> = (0..30).map(|i| format!("nation n{i}")).collect();
        let sql = format!("SELECT COUNT(*) FROM {}", from.join(", "));
        let (mut memo, _) = seeded(&cat, &sql, &mut mem);
        let seeds = memo.expr_count();
        let scans: Vec<GroupId> = memo
            .expr_ids()
            .map(|e| *memo.expr(e))
            .filter(|e| e.children().is_empty())
            .map(|e| e.group)
            .collect();
        assert_eq!(scans.len(), 30);
        let pairs: Vec<[GroupId; 2]> = scans
            .iter()
            .flat_map(|a| scans.iter().filter(move |b| *b != a).map(move |b| [*a, *b]))
            .collect();
        let groups: Vec<GroupId> = pairs
            .iter()
            .map(|c| memo.insert_join(JoinKind::Inner, &[], *c, &est, &mut mem).0)
            .collect();
        // Every ordered pair is a new cross product but the seeded n0 ⋈ n1.
        let grown = memo.expr_count();
        assert_eq!(grown, seeds + pairs.len() - 1);
        for (children, group) in pairs.iter().zip(&groups) {
            let again = memo.insert_join(JoinKind::Inner, &[], *children, &est, &mut mem);
            assert_eq!(again, (*group, None));
        }
        assert_eq!(memo.expr_count(), grown);
        // One hash per offered expression, seeds included: growing the
        // table several times hashed nothing again.
        assert!(memo.slots.len() >= 16 << 6);
        assert_eq!(memo.hashes.get(), seeds + 2 * pairs.len());
    }

    /// Seeds a memo whose join predicates give six oriented `PredRef`s.
    const FOUR_WAY: &str = "SELECT COUNT(*) FROM customer c \
         JOIN orders o ON c.c_custkey = o.o_custkey \
         JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
         JOIN nation n ON c.c_nationkey = n.n_nationkey";

    proptest! {
        /// Random `insert_join` / `add_join_to_group` sequences, some ops
        /// replaying earlier ones, against a map keyed by the whole
        /// expression: the memo must make every dedup decision the map
        /// makes, across at least four doublings of its table.
        #[test]
        fn dedup_matches_a_naive_map_across_growth(
            ops in proptest::collection::vec(
                (0u8..8, (0u32..u32::MAX, 0u32..u32::MAX), 0u32..864, 0u32..u32::MAX),
                200..400,
            ),
        ) {
            let cat = tpch_schema(0.1);
            let est = CardinalityEstimator::new(&cat);
            let mut mem = CompilationMemory::unlimited();
            let (mut memo, _) = seeded(&cat, FOUR_WAY, &mut mem);
            let mut refs: Vec<PredRef> = Vec::new();
            let mut naive: HashMap<(JoinKind, Vec<PredRef>, [GroupId; 2]), GroupId> = HashMap::new();
            for e in memo.expr_ids().map(|e| *memo.expr(e)) {
                if let MemoOp::Join { kind, preds } = e.op {
                    let preds = memo.pred_list(preds).to_vec();
                    refs.extend(preds.iter().flat_map(|p| [*p, p.flipped()]));
                    naive.insert((kind, preds, e.children), e.group);
                }
            }
            prop_assert_eq!(refs.len(), 6);
            prop_assert!(memo.group_count() >= 8);
            let plain = memo.expr_count() - naive.len();
            let mut duplicates = 0;
            let mut done: Vec<(u8, [GroupId; 2], u32, GroupId)> = Vec::new();
            for (sel, (a, b), code, target) in ops {
                let groups = memo.group_count() as u32;
                // Sixes and sevens replay an earlier op through the other call.
                let (sel, children, code, target) = match sel {
                    6 | 7 if !done.is_empty() => {
                        let (sel, children, code, target) = done[a as usize % done.len()];
                        ((sel + 3) % 6, children, code, target)
                    }
                    6 | 7 => continue,
                    _ => {
                        // Few child pairs, so many candidates differ in
                        // their predicates alone.
                        let children = [GroupId(a % 8), GroupId(b % 8)];
                        (sel, children, code, GroupId(target % groups))
                    }
                };
                done.push((sel, children, code, target));
                let kind = [JoinKind::Inner, JoinKind::Left, JoinKind::Right][usize::from(sel % 3)];
                // Up to three of the six predicates, repeats allowed.
                let preds: Vec<PredRef> = (0..code % 4)
                    .map(|i| refs[(code / 4 / 6u32.pow(i)) as usize % 6])
                    .collect();
                let key = (kind, preds.clone(), children);
                let existing = naive.get(&key).copied();
                duplicates += usize::from(existing.is_some());
                let new = existing.is_none().then_some(ExprId(memo.expr_count() as u32));
                if sel < 3 {
                    let got = memo.insert_join(kind, &preds, children, &est, &mut mem);
                    let group = existing.unwrap_or(GroupId(groups));
                    prop_assert_eq!(got, (group, new));
                    naive.insert(key, group);
                } else {
                    let got = memo.add_join_to_group(target, kind, &preds, children, &mut mem);
                    prop_assert_eq!(got, new);
                    naive.entry(key).or_insert(target);
                }
            }
            prop_assert_eq!(memo.expr_count(), plain + naive.len());
            prop_assert!(memo.slots.len() >= 16 << 4, "{} slots", memo.slots.len());
            prop_assert!(duplicates > 20, "{duplicates} duplicates");
        }
    }

    #[test]
    fn add_join_to_group_dedups_alternatives() {
        let cat = tpch_schema(0.1);
        let mut mem = CompilationMemory::unlimited();
        let (mut memo, _) = seeded(&cat, ORDERS_CUSTOMER, &mut mem);
        let join = *memo.expr(members(&memo, JOIN)[0]);
        let [go, gc] = join.children;
        let flipped: Vec<PredRef> = memo
            .op_preds(&join.op)
            .iter()
            .map(|p| p.flipped())
            .collect();
        // Same predicate, same orientation, same children: a duplicate.
        let same = memo.op_preds(&join.op).to_vec();
        let dup = memo.add_join_to_group(JOIN, JoinKind::Inner, &same, [go, gc], &mut mem);
        assert!(dup.is_none());
        // The commuted alternative is new...
        let alt = memo.add_join_to_group(JOIN, JoinKind::Inner, &flipped, [gc, go], &mut mem);
        assert!(alt.is_some());
        // ...but adding it again is a no-op.
        let again = memo.add_join_to_group(JOIN, JoinKind::Inner, &flipped, [gc, go], &mut mem);
        assert!(again.is_none());
        assert_eq!(members(&memo, JOIN), vec![ExprId(2), alt.unwrap()]);
        assert_eq!(memo.group_count(), 4, "no extra group for the alternative");
        // Orientation is part of a predicate list's identity.
        let unflipped = memo.add_join_to_group(JOIN, JoinKind::Inner, &same, [gc, go], &mut mem);
        assert!(unflipped.is_some());
    }

    #[test]
    fn group_properties_reflect_statistics() {
        let cat = tpch_schema(1.0);
        let mut mem = CompilationMemory::unlimited();
        let (memo, _) = seeded(&cat, ORDERS_CUSTOMER, &mut mem);
        assert_eq!(memo.group(ORDERS).rows, 1_500_000.0);
        assert_eq!(memo.group(CUSTOMER).rows, 150_000.0);
        let j = memo.group(JOIN);
        // FK->PK join keeps the orders cardinality.
        assert!((j.rows - 1_500_000.0).abs() < 1.0);
        assert_eq!(
            j.row_width,
            memo.group(ORDERS).row_width + memo.group(CUSTOMER).row_width
        );
    }

    #[test]
    fn memory_is_charged_per_group_and_expr() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut mem = CompilationMemory::unlimited();
        let (mut memo, _) = seeded(&cat, ORDERS_CUSTOMER, &mut mem);
        let one = sizes::GROUP_BYTES + sizes::LOGICAL_EXPR_BYTES;
        assert_eq!(mem.used_bytes(), 4 * one);
        let children = [CUSTOMER, ORDERS];
        let (cross, _) = memo.insert_join(JoinKind::Inner, &[], children, &est, &mut mem);
        assert_eq!(mem.used_bytes(), 5 * one);
        let children = [ORDERS, CUSTOMER];
        memo.add_join_to_group(cross, JoinKind::Inner, &[], children, &mut mem);
        assert_eq!(
            mem.used_bytes(),
            5 * one + sizes::LOGICAL_EXPR_BYTES,
            "an alternative adds no group"
        );
    }

    #[test]
    fn clear_winners_resets_all_groups() {
        let cat = tpch_schema(0.1);
        let mut mem = CompilationMemory::unlimited();
        let (mut memo, g) = seeded(&cat, "SELECT o_orderkey FROM orders", &mut mem);
        memo.group_mut(g).winner = Some(Winner {
            expr: ExprId(0),
            choice: PhysicalChoice::TableScan,
            local_cost: Cost::ZERO,
            total_cost: Cost::ZERO,
            memory_bytes: 0,
        });
        memo.clear_winners();
        assert!(memo.group(g).winner.is_none());
    }
}
