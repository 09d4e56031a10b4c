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
//!   children are a fixed pair, a join's only predicate sits in its
//!   operator and longer predicate lists back to back in one arena, and a
//!   group's members are threaded through the expression array. Adding an
//!   alternative allocates nothing beyond amortized growth of those few
//!   arrays.
//!
//! The first must not move when the second does.
//!
//! How the memo keeps the second small and cheap:
//!
//! * **One hash per candidate.** Duplicate detection hashes a candidate
//!   with a keyed folded multiply (the construction of wyhash and
//!   foldhash) under three keys drawn per memo from a `RandomState`
//!   (operators derive from user SQL, so a memo is keyed apart as a
//!   `HashMap` is) and compares it with the stored expressions: two
//!   multiplies for a join with at most one predicate, every candidate a
//!   SALES exploration offers. A stored expression keeps the low 30 bits of
//!   its hash beside the two bits of its applied rules, so growing the
//!   table re-places it without hashing again, in a 32-byte [`MemoExpr`].
//! * **No probe for a new group.** A candidate with a child group that no
//!   stored expression references yet — the group an `insert_join` has just
//!   created — cannot equal a stored expression, so it is not looked up.
//!   Memos of fewer than 16 expressions are searched linearly and have no
//!   table at all.
//! * **Winners beside the groups.** A costing pass records each group's
//!   best implementation in a table the pass sizes once, one slot per
//!   group; a [`Group`] holds only logical properties. The dedup table is
//!   freed when exploration ends, before the final pass sizes the winners
//!   table, so the two large tables are never live together (the seed
//!   pass's winners, one per seeded group, are all that survive
//!   exploration).
//! * **Exploration needs no queue.** Every expression waits for its rules
//!   from its creation on, and expressions are created in id order, so the
//!   work list is the id range between a cursor and the end of the array
//!   ([`crate::rules::Exploration`]).

use crate::binder::BoundQuery;
use crate::cardinality::CardinalityEstimator;
use crate::cost::Cost;
use crate::implementation::PhysicalChoice;
use crate::logical::LogicalOp;
use crate::memory::{sizes, CompilationMemory};
use crate::names::{BindingSet, Names, PlainId, PredRef};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
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

/// A join's equi-join predicates, ordered and oriented. A single
/// predicate, the common case, is held in the list itself; a longer list
/// is a range of a predicate arena — the memo's, read through
/// [`Memo::pred_list`], or a [`BoundQuery`]'s.
#[derive(Debug, Clone, Copy)]
pub struct PredList {
    /// The predicate when `len` is 1; the arena offset of the first when
    /// it is more.
    head: PredRef,
    len: u32,
}

impl PredList {
    /// The list of no predicates.
    const EMPTY: PredList = PredList {
        head: PredRef(0),
        len: 0,
    };

    /// The list of `preds`: held in the list when there is one, appended
    /// to `arena` when there are more.
    pub(crate) fn append(
        arena: &mut Vec<PredRef>,
        preds: impl IntoIterator<Item = PredRef>,
    ) -> PredList {
        let mut preds = preds.into_iter();
        let Some(first) = preds.next() else {
            return PredList::EMPTY;
        };
        let Some(second) = preds.next() else {
            return PredList {
                head: first,
                len: 1,
            };
        };
        let start = arena.len() as u32;
        arena.extend([first, second]);
        arena.extend(preds);
        let len = arena.len() as u32 - start;
        PredList {
            head: PredRef(start),
            len,
        }
    }

    /// The predicates of this list, whose longer lists range over `arena`.
    pub(crate) fn of<'a>(&'a self, arena: &'a [PredRef]) -> &'a [PredRef] {
        match self.len {
            0 => &[],
            1 => std::slice::from_ref(&self.head),
            len => &arena[self.head.0 as usize..(self.head.0 + len) as usize],
        }
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
        let preds = PredList::EMPTY;
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

    /// The key as the first word of the hashed message. Plain ids are
    /// small, so setting the top bit for a join keeps it apart.
    fn key_word(&self) -> u32 {
        let (is_join, id) = self.key();
        id | u32::from(is_join) << 31
    }
}

/// Bits of a [`MemoExpr`]'s hash word that hold the hash; the two above
/// them hold the rules applied.
const HASH_BITS: u32 = 30;
const HASH_MASK: u32 = (1 << HASH_BITS) - 1;

/// A logical expression stored in the memo: an operator over child groups.
#[derive(Debug, Clone, Copy)]
pub struct MemoExpr {
    /// The group it belongs to.
    pub group: GroupId,
    /// The operator.
    pub op: MemoOp,
    /// Child groups, padded with [`GroupId::NONE`].
    pub children: [GroupId; 2],
    /// The group's next member, in insertion order; [`NONE`] after the last.
    next_in_group: u32,
    /// The low [`HASH_BITS`] bits of the expression's hash, which is all of
    /// it a slot index uses, under the masks of the rules already applied.
    hash_and_rules: u32,
}

/// Pinned because the memo's expressions are most of a compile's heap: a
/// wider `MemoExpr` moves the benchmark's `compile_real` `peak_heap_mb` and
/// `BENCH_compile.json`'s `heap_bytes_per_expr`. 32 bytes, two to a cache
/// line, is why the rule bits share a word with the hash.
const _: () = assert!(std::mem::size_of::<MemoExpr>() == 32);

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

    /// Bitmask of the transformation rules already applied to this
    /// expression ([`crate::rules::Rule::mask`]).
    pub fn rules_applied(&self) -> u32 {
        self.hash_and_rules >> HASH_BITS
    }

    /// Record the rules of `mask` as applied.
    pub(crate) fn mark_applied(&mut self, mask: u32) {
        debug_assert!(mask >> (32 - HASH_BITS) == 0, "rule mask {mask:#x}");
        self.hash_and_rules |= mask << HASH_BITS;
    }

    /// The stored hash word.
    fn hash(&self) -> u32 {
        self.hash_and_rules & HASH_MASK
    }
}

/// The best physical implementation found for a group. The operator with
/// owned names, its own cost and its execution memory are derived from it
/// only if it ends up in the extracted plan.
#[derive(Debug, Clone, Copy)]
pub struct Winner {
    /// The logical expression that won (its children are the plan's).
    pub expr: ExprId,
    /// Which of its physical implementations.
    pub choice: PhysicalChoice,
    /// Cost of the whole subtree.
    pub total_cost: Cost,
}

/// Pinned because a costing pass holds one slot per group: the winners
/// table is a group count of these, and an empty slot must cost no tag
/// word beside the winner's own.
const _: () =
    assert!(std::mem::size_of::<Winner>() == 32 && std::mem::size_of::<Option<Winner>>() == 32);

/// A memo group: the set of logically equivalent expressions plus shared
/// logical properties (cardinality, width, covered bindings).
#[derive(Debug, Clone, Copy)]
pub struct Group {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output row width in bytes.
    pub row_width: u32,
    /// Query bindings (table aliases) covered by this group.
    pub bindings: BindingSet,
    /// First member; the rest hang off [`MemoExpr::next_in_group`].
    first_expr: u32,
    /// Last member so far.
    last_expr: u32,
}

/// Pinned because every group the exploration creates is one of these,
/// for the whole compile: the 256-bit binding set is most of it, and
/// winners live in the costing pass's table instead.
const _: () = assert!(std::mem::size_of::<Group>() == 56);

impl Group {
    /// First member.
    pub fn first_expr(&self) -> Option<ExprId> {
        (self.first_expr != NONE).then_some(ExprId(self.first_expr))
    }

    /// Last member so far.
    pub fn last_expr(&self) -> Option<ExprId> {
        (self.last_expr != NONE).then_some(ExprId(self.last_expr))
    }
}

/// Marks an unused slot of the duplicate-detection table, the end of a
/// group's member chain, and a join's missing predicate in a hashed
/// message.
const NONE: u32 = u32::MAX;

/// Memos with fewer expressions than this are searched linearly and build
/// no duplicate-detection table.
const SCAN_LIMIT: usize = 16;

/// The three keys of a memo's hash.
#[derive(Debug, Clone, Copy)]
struct HashKeys {
    k0: u64,
    k1: u64,
    k2: u64,
}

impl HashKeys {
    /// Keys as random as a `HashMap`'s: three words of a fresh
    /// `RandomState`'s own keyed hash.
    fn random() -> HashKeys {
        let state = RandomState::new();
        HashKeys {
            k0: state.hash_one(0u64),
            k1: state.hash_one(1u64),
            k2: state.hash_one(2u64),
        }
    }
}

/// The folded multiply of wyhash and foldhash: the low and high halves of
/// the 128-bit product `x · y`, xored.
#[inline(always)]
fn fold(x: u64, y: u64) -> u64 {
    let product = u128::from(x) * u128::from(y);
    product as u64 ^ (product >> 64) as u64
}

/// Two 32-bit message words as one little-endian 64-bit word.
fn pair(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

/// The memo structure.
#[derive(Debug)]
pub struct Memo {
    names: Names,
    groups: Vec<Group>,
    exprs: Vec<MemoExpr>,
    /// The predicate lists of joins with more than one, back to back.
    preds: Vec<PredRef>,
    /// Duplicate detection: an open-addressing table of indexes into
    /// `exprs`, at most half full, probed linearly; empty below
    /// [`SCAN_LIMIT`] expressions and after exploration. The expressions
    /// are the keys; nothing is copied into the table.
    slots: Vec<u32>,
    /// The costing pass's best implementation per group.
    winners: Vec<Option<Winner>>,
    /// The newest group while no stored expression has it as a child.
    fresh: Option<GroupId>,
    keys: HashKeys,
    /// Hashes computed by [`Memo::hash`].
    #[cfg(test)]
    hashes: std::cell::Cell<usize>,
    /// Table lookups by [`Memo::find`], and the occupied slots they
    /// visited.
    #[cfg(test)]
    lookups: std::cell::Cell<usize>,
    #[cfg(test)]
    probes: std::cell::Cell<usize>,
}

impl Default for Memo {
    fn default() -> Self {
        Memo {
            names: Names::default(),
            groups: Vec::new(),
            exprs: Vec::new(),
            preds: Vec::new(),
            slots: Vec::new(),
            winners: Vec::new(),
            fresh: None,
            keys: HashKeys::random(),
            #[cfg(test)]
            hashes: std::cell::Cell::new(0),
            #[cfg(test)]
            lookups: std::cell::Cell::new(0),
            #[cfg(test)]
            probes: std::cell::Cell::new(0),
        }
    }
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
    pub fn pred_list<'a>(&'a self, list: &'a PredList) -> &'a [PredRef] {
        list.of(&self.preds)
    }

    /// The predicates of `op` when it is a join, none otherwise.
    fn op_preds<'a>(&'a self, op: &'a MemoOp) -> &'a [PredRef] {
        match op {
            MemoOp::Join { preds, .. } => self.pred_list(preds),
            MemoOp::Plain(_) => &[],
        }
    }

    /// The winner the current costing pass found for `group`, if any.
    pub fn winner(&self, group: GroupId) -> Option<&Winner> {
        self.winners.get(group.0 as usize)?.as_ref()
    }

    /// Record `group`'s winner in the current costing pass.
    pub fn set_winner(&mut self, group: GroupId, winner: Option<Winner>) {
        debug_assert_eq!(
            self.winners.len(),
            self.groups.len(),
            "clear_winners sizes the table for a costing pass"
        );
        self.winners[group.0 as usize] = winner;
    }

    /// Start a costing pass: one empty winner slot per group, sized once.
    pub fn clear_winners(&mut self) {
        self.winners.clear();
        self.winners.resize(self.groups.len(), None);
    }

    /// Exploration is about to add alternatives: the seed pass's winners
    /// are stale.
    pub fn begin_exploration(&mut self) {
        self.winners.clear();
    }

    /// No alternative is added from here on: free the duplicate-detection
    /// table before the final costing pass sizes the winners table. (Were
    /// one added, the table would be rebuilt first.)
    pub fn end_exploration(&mut self) {
        self.slots = Vec::new();
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
            let preds = match &e.op {
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
            first_expr: NONE,
            last_expr: NONE,
        });
        mem.charge(sizes::GROUP_BYTES);
        let expr_id = self.push_expr(group_id, op, preds, children, hash, mem);
        self.fresh = Some(group_id);
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
        if self.fresh.is_some_and(|g| children.contains(&g)) {
            self.fresh = None;
        }
        let expr_id = ExprId(self.exprs.len() as u32);
        self.exprs.push(MemoExpr {
            group,
            op,
            children,
            next_in_group: NONE,
            hash_and_rules: hash,
        });
        let members = &mut self.groups[group.0 as usize];
        match std::mem::replace(&mut members.last_expr, expr_id.0) {
            NONE => members.first_expr = expr_id.0,
            previous => self.exprs[previous as usize].next_in_group = expr_id.0,
        }
        if self.exprs.len() * 2 <= self.slots.len() {
            place(&mut self.slots, hash, expr_id.0);
        } else if self.exprs.len() >= SCAN_LIMIT {
            self.grow_slots();
        }
        mem.charge(sizes::LOGICAL_EXPR_BYTES);
        expr_id
    }

    /// A candidate's hash: computed once per insert attempt and, when the
    /// candidate is new, stored with it.
    fn hash(&self, op: &MemoOp, preds: &[PredRef], children: &[GroupId; 2]) -> u32 {
        #[cfg(test)]
        self.hashes.set(self.hashes.get() + 1);
        self.digest(op, preds, children) as u32 & HASH_MASK
    }

    /// The candidate's keyed hash: one [`fold`] of its first four words in
    /// two keyed pairs ([`NONE`] for a missing first predicate), then each
    /// further predicate and last the list's length folded on under the
    /// third key. Without that last fold some key draws leave a slot
    /// index to a few of the words (`docs/EXPERIMENTS.md` §8).
    fn digest(&self, op: &MemoOp, preds: &[PredRef], children: &[GroupId; 2]) -> u64 {
        let (first, rest) = match preds.split_first() {
            Some((first, rest)) => (first.0, rest),
            None => (NONE, &[][..]),
        };
        let HashKeys { k0, k1, k2 } = self.keys;
        let h = fold(
            pair(op.key_word(), children[0].0) ^ k0,
            pair(children[1].0, first) ^ k1,
        );
        let h = rest.iter().fold(h, |h, p| fold(h ^ u64::from(p.0), k2));
        fold(h ^ preds.len() as u64, k2)
    }

    /// The stored expression equal to the candidate, if any: same operator,
    /// same ordered and oriented predicates, same children. A candidate
    /// over the fresh group has none, and is not looked up.
    fn find(
        &self,
        hash: u32,
        op: &MemoOp,
        preds: &[PredRef],
        children: &[GroupId; 2],
    ) -> Option<ExprId> {
        if self.fresh.is_some_and(|g| children.contains(&g)) {
            return None;
        }
        let equal = |stored: &MemoExpr| {
            stored.hash() == hash
                && stored.op.key() == op.key()
                && stored.children == *children
                && self.op_preds(&stored.op) == preds
        };
        if self.slots.is_empty() {
            let at = self.exprs.iter().position(equal)?;
            return Some(ExprId(at as u32));
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        #[cfg(test)]
        self.lookups.set(self.lookups.get() + 1);
        while self.slots[at] != NONE {
            #[cfg(test)]
            self.probes.set(self.probes.get() + 1);
            if equal(&self.exprs[self.slots[at] as usize]) {
                return Some(ExprId(self.slots[at]));
            }
            at = (at + 1) & mask;
        }
        None
    }

    /// Double the duplicate-detection table (or build it, at most half
    /// full) and re-place every expression from its stored hash word.
    fn grow_slots(&mut self) {
        let size = (self.exprs.len() * 2).next_power_of_two();
        // A slot index is the hash word masked, so the word must cover it.
        debug_assert!(size <= 1 << HASH_BITS, "{size} slots outgrow the hash word");
        // Free the old table first: none of it is kept, so a reallocation
        // would only copy it.
        self.slots = Vec::new();
        let mut slots = vec![NONE; size];
        for (at, e) in self.exprs.iter().enumerate() {
            debug_assert_eq!(
                e.hash(),
                self.digest(&e.op, self.op_preds(&e.op), &e.children) as u32 & HASH_MASK,
                "stale hash on expression {at}"
            );
            place(&mut slots, e.hash(), at as u32);
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
        let first = memo.group(group).first_expr();
        let members = std::iter::successors(first, |e| memo.expr(*e).next_in_group());
        let members: Vec<ExprId> = members.collect();
        assert_eq!(members.last().copied(), memo.group(group).last_expr());
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
        // Without its table the memo still finds every expression, and an
        // insert rebuilds the table at most half full.
        memo.end_exploration();
        assert!(memo.slots.is_empty());
        let again = memo.insert_join(JoinKind::Inner, &[], pairs[7], &est, &mut mem);
        assert_eq!(again, (groups[7], None));
        let (_, new) = memo.insert_join(JoinKind::Left, &[], pairs[7], &est, &mut mem);
        assert!(new.is_some());
        assert!(memo.slots.len() >= 2 * memo.expr_count());
        assert_eq!(
            memo.insert_join(JoinKind::Left, &[], pairs[7], &est, &mut mem)
                .1,
            None
        );
    }

    /// Seeds a memo whose join predicates give six oriented `PredRef`s.
    const FOUR_WAY: &str = "SELECT COUNT(*) FROM customer c \
         JOIN orders o ON c.c_custkey = o.o_custkey \
         JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
         JOIN nation n ON c.c_nationkey = n.n_nationkey";

    /// Every join in the memo, keyed by the whole expression, with its
    /// group: the dedup decisions the memo must make.
    type NaiveMap = HashMap<(JoinKind, Vec<PredRef>, [GroupId; 2]), GroupId>;

    /// `insert_join`, checked against the naive map. Returns its group and
    /// whether the map already held it.
    fn checked_insert(
        memo: &mut Memo,
        naive: &mut NaiveMap,
        est: &CardinalityEstimator<'_>,
        mem: &mut CompilationMemory,
        (kind, preds, children): (JoinKind, Vec<PredRef>, [GroupId; 2]),
    ) -> (GroupId, bool) {
        let key = (kind, preds, children);
        let existing = naive.get(&key).copied();
        let next = ExprId(memo.expr_count() as u32);
        let group = existing.unwrap_or(GroupId(memo.group_count() as u32));
        let got = memo.insert_join(kind, &key.1, children, est, mem);
        prop_assert_eq!(got, (group, existing.is_none().then_some(next)));
        naive.insert(key, group);
        (group, existing.is_some())
    }

    /// `add_join_to_group`, checked against the naive map. Returns whether
    /// the map already held the expression.
    fn checked_add(
        memo: &mut Memo,
        naive: &mut NaiveMap,
        mem: &mut CompilationMemory,
        target: GroupId,
        (kind, preds, children): (JoinKind, Vec<PredRef>, [GroupId; 2]),
    ) -> bool {
        let key = (kind, preds, children);
        let existing = naive.get(&key).copied();
        let next = ExprId(memo.expr_count() as u32);
        let got = memo.add_join_to_group(target, kind, &key.1, children, mem);
        prop_assert_eq!(got, existing.is_none().then_some(next));
        naive.entry(key).or_insert(target);
        existing.is_some()
    }

    proptest! {
        /// Random `insert_join` / `add_join_to_group` sequences, some ops
        /// replaying earlier ones, against a map keyed by the whole
        /// expression: the memo must make every dedup decision the map
        /// makes, across at least four doublings of its table. Eights and
        /// nines are what association does: an `insert_join`, then an
        /// `add_join_to_group` over the group it returned, which the memo
        /// does not look up when that group is new.
        #[test]
        fn dedup_matches_a_naive_map_across_growth(
            ops in proptest::collection::vec(
                (0u8..12, (0u32..u32::MAX, 0u32..u32::MAX), 0u32..864, 0u32..u32::MAX),
                200..400,
            ),
        ) {
            let cat = tpch_schema(0.1);
            let est = CardinalityEstimator::new(&cat);
            let mut mem = CompilationMemory::unlimited();
            let (mut memo, _) = seeded(&cat, FOUR_WAY, &mut mem);
            let mut refs: Vec<PredRef> = Vec::new();
            let mut naive = NaiveMap::new();
            for e in memo.expr_ids().map(|e| *memo.expr(e)) {
                if let MemoOp::Join { kind, preds } = e.op {
                    let preds = memo.pred_list(&preds).to_vec();
                    refs.extend(preds.iter().flat_map(|p| [*p, p.flipped()]));
                    naive.insert((kind, preds, e.children), e.group);
                }
            }
            prop_assert_eq!(refs.len(), 6);
            prop_assert!(memo.group_count() >= 8);
            let plain = memo.expr_count() - naive.len();
            // Up to three of the six predicates, repeats allowed.
            let preds_of = |code: u32| -> Vec<PredRef> {
                (0..code % 4)
                    .map(|i| refs[(code / 4 / 6u32.pow(i)) as usize % 6])
                    .collect()
            };
            let kind_of = |sel: u8| [JoinKind::Inner, JoinKind::Left, JoinKind::Right][usize::from(sel % 3)];
            let mut duplicates = 0;
            let (mut pairs, mut fresh_pairs, mut dup_pairs) = (0, 0, 0);
            let mut done: Vec<(u8, [GroupId; 2], u32, GroupId, GroupId, u32)> = Vec::new();
            for (sel, (a, b), code, target) in ops {
                let groups = memo.group_count() as u32;
                // Tens replay an earlier single op through the other call,
                // elevens an earlier pair as it was.
                let replays = |pairs: bool| done.iter().filter(move |op| (op.0 >= 6) == pairs);
                let (sel, children, code, target, other, top_code) = match sel {
                    10 | 11 if replays(sel == 11).next().is_some() => {
                        let earlier = replays(sel == 11).count();
                        let (sel, children, code, target, other, top_code) =
                            *replays(sel == 11).nth(a as usize % earlier).unwrap();
                        let sel = if sel < 6 { (sel + 3) % 6 } else { sel };
                        (sel, children, code, target, other, top_code)
                    }
                    10 | 11 => continue,
                    _ => {
                        // Few child pairs, so many candidates differ in
                        // their predicates alone.
                        let children = [GroupId(a % 8), GroupId(b % 8)];
                        let other = GroupId(a / 8 % 8);
                        let top_code = b / 8 % 864;
                        (sel, children, code, GroupId(target % groups), other, top_code)
                    }
                };
                done.push((sel, children, code, target, other, top_code));
                let candidate = (kind_of(sel), preds_of(code), children);
                if sel < 3 {
                    let (_, dup) = checked_insert(&mut memo, &mut naive, &est, &mut mem, candidate);
                    duplicates += usize::from(dup);
                } else if sel < 6 {
                    duplicates += usize::from(checked_add(&mut memo, &mut naive, &mut mem, target, candidate));
                } else {
                    let (bc, dup) = checked_insert(&mut memo, &mut naive, &est, &mut mem, candidate);
                    let top_children = if sel % 2 == 0 { [other, bc] } else { [bc, other] };
                    let top = (kind_of(sel / 2), preds_of(top_code), top_children);
                    let top_dup = checked_add(&mut memo, &mut naive, &mut mem, target, top);
                    duplicates += usize::from(dup) + usize::from(top_dup);
                    pairs += 1;
                    fresh_pairs += usize::from(!dup);
                    dup_pairs += usize::from(dup && top_dup);
                }
            }
            prop_assert_eq!(memo.expr_count(), plain + naive.len());
            prop_assert!(memo.slots.len() >= 16 << 4, "{} slots", memo.slots.len());
            prop_assert!(duplicates > 20, "{duplicates} duplicates");
            // Both sides of the skip ran: pairs over a new group, and pairs
            // whose group existed and whose top join did too.
            prop_assert!(fresh_pairs > 0 && dup_pairs > 0, "{pairs} pairs: {fresh_pairs} over a new group, {dup_pairs} wholly repeated");
        }

        /// Under random keys, the memo's hash of a random candidate is the
        /// reference's.
        #[test]
        fn candidate_hash_matches_the_reference_on_random_candidates(
            sel in 0u8..4,
            id in 0u32..u32::MAX,
            children in (0u32..u32::MAX, 0u32..u32::MAX),
            preds in proptest::collection::vec(0u32..u32::MAX, 0..7),
            keys in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        ) {
            let mut memo = Memo::new();
            memo.keys = HashKeys { k0: keys.0, k1: keys.1, k2: keys.2 };
            let op = match sel {
                3 => MemoOp::Plain(PlainId(id >> 1)),
                kind => MemoOp::join([JoinKind::Inner, JoinKind::Left, JoinKind::Right][usize::from(kind)]),
            };
            let children = [GroupId(children.0), GroupId(children.1)];
            let preds: Vec<PredRef> = preds.into_iter().map(PredRef).collect();
            let want = reference(memo.keys, &op, &children, &preds);
            prop_assert_eq!(memo.digest(&op, &preds, &children), want);
        }
    }

    /// The memo's hash written out plainly.
    fn reference(keys: HashKeys, op: &MemoOp, children: &[GroupId; 2], preds: &[PredRef]) -> u64 {
        let mul = |x: u64, y: u64| {
            let product = x as u128 * y as u128;
            (product as u64) ^ ((product >> 64) as u64)
        };
        let first = preds.first().map_or(u32::MAX, |p| p.0) as u64;
        let a = op.key_word() as u64 + ((children[0].0 as u64) << 32);
        let b = children[1].0 as u64 + (first << 32);
        let mut h = mul(a ^ keys.k0, b ^ keys.k1);
        for p in preds.iter().skip(1) {
            h = mul(h ^ p.0 as u64, keys.k2);
        }
        mul(h ^ preds.len() as u64, keys.k2)
    }

    /// Fixed keys, fixed candidates, and their hashes as an independent
    /// implementation of the construction computes them: predicate lists
    /// of none, one, two and five.
    #[test]
    fn candidate_hash_matches_known_answers_on_fixed_candidates() {
        let mut memo = Memo::new();
        memo.keys = HashKeys {
            k0: 0x0123_4567_89ab_cdef,
            k1: 0xfedc_ba98_7654_3210,
            k2: 0x9e37_79b9_7f4a_7c15,
        };
        let (join, none, max) = (MemoOp::join(JoinKind::Inner), GroupId::NONE, PredRef(NONE));
        let (left, right) = (MemoOp::join(JoinKind::Left), MemoOp::join(JoinKind::Right));
        let p = |ids: &[u32]| -> Vec<PredRef> { ids.iter().copied().map(PredRef).collect() };
        let g = GroupId;
        let cases = [
            (join, [g(3), g(7)], p(&[5]), 0x5279_e1d3_564c_312a),
            (join, [g(0), g(0)], p(&[]), 0xc47b_1cd0_a42e_8c33),
            (
                MemoOp::Plain(PlainId(4)),
                [g(1), none],
                p(&[]),
                0x4bb5_f841_4075_8a19,
            ),
            (right, [g(9), g(2)], p(&[0]), 0x0335_a801_833f_64d2),
            (join, [g(1), g(2)], p(&[3, 4]), 0xfa0a_850d_92fb_9718),
            (join, [none, none], vec![max; 5], 0xb723_114c_f91e_d4cb),
            (
                left,
                [g(1), g(2)],
                p(&[3, 4, 5, 6, 7]),
                0xe3fa_363f_c34d_744b,
            ),
            // The length keeps one "none" predicate apart from the empty list.
            (join, [none, none], vec![max], 0x807c_3ed4_5d35_280a),
        ];
        for (op, children, preds, known) in cases {
            let got = memo.digest(&op, &preds, &children);
            assert_eq!(got, known, "{op:?} {children:?} {preds:?}");
            assert_eq!(reference(memo.keys, &op, &children, &preds), known);
        }
    }

    /// Over the ten SALES templates, explored to the compile's own
    /// budget, a table lookup visits few occupied slots: the hash spreads
    /// the candidates an exploration offers.
    #[test]
    fn sales_lookups_visit_few_occupied_slots() {
        use crate::rules::Exploration;
        use crate::search::Optimizer;
        use throttledb_catalog::{sales_schema, SalesScale};
        use throttledb_workload::sales_templates;

        let catalog = sales_schema(SalesScale::paper());
        let est = CardinalityEstimator::new(&catalog);
        let mut worst: f64 = 0.0;
        let (mut lookups, mut visited) = (0, 0);
        for template in sales_templates() {
            let stmt = parse(&template.sql).unwrap();
            let stats = Optimizer::new(&catalog).optimize(&stmt).unwrap().stats;
            let bound = Binder::new(&catalog).bind(&stmt).unwrap();
            let mut mem = CompilationMemory::unlimited();
            let mut memo = Memo::new();
            memo.insert_plan(bound, &est, &mut mem);
            Exploration::default().explore(&mut memo, stats.transformations, &est, &mut mem);
            assert_eq!(memo.expr_count(), stats.memo_exprs, "{}", template.name);
            let (n, v) = (memo.lookups.get(), memo.probes.get());
            assert!(n > 10_000, "{}: {n} lookups", template.name);
            worst = worst.max(v as f64 / n as f64);
            (lookups, visited) = (lookups + n, visited + v);
        }
        let mean = visited as f64 / lookups as f64;
        assert!(mean <= 1.25, "{mean:.3} occupied slots per lookup");
        assert!(worst <= 1.35, "worst template {worst:.3} per lookup");
    }

    #[test]
    fn each_memo_keys_the_same_candidate_differently() {
        let (a, b) = (Memo::new(), Memo::new());
        let op = MemoOp::join(JoinKind::Inner);
        let children = [GroupId(3), GroupId(7)];
        let preds = [PredRef(5)];
        assert_ne!((a.keys.k0, a.keys.k1), (b.keys.k0, b.keys.k1));
        assert_ne!(
            a.digest(&op, &preds, &children),
            b.digest(&op, &preds, &children)
        );
        // A memo hashes one candidate the same way every time.
        assert_eq!(
            a.digest(&op, &preds, &children),
            a.digest(&op, &preds, &children)
        );
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
        assert!(memo.winner(g).is_none(), "no costing pass yet");
        memo.clear_winners();
        assert_eq!(memo.winners.len(), memo.group_count());
        memo.set_winner(
            g,
            Some(Winner {
                expr: ExprId(0),
                choice: PhysicalChoice::TableScan,
                total_cost: Cost::ZERO,
            }),
        );
        assert!(memo.winner(g).is_some());
        memo.clear_winners();
        assert!(memo.winner(g).is_none());
        assert_eq!(memo.winners.len(), memo.group_count());
    }
}
