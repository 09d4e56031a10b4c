//! The per-compilation name table.
//!
//! The binder resolves a statement's names **once**, while it classifies
//! its predicates, into this table, so that exploring an alternative
//! touches no `String`:
//!
//! * every binding (table alias) is its FROM-list position, a
//!   [`BindingId`] and a bit in a [`BindingSet`];
//! * every distinct equi-join predicate becomes a [`PredRef`] — with the
//!   bindings of its two sides and its `max(ndv)` looked up here, not once
//!   per new join group;
//! * scans and unary operators, which no rule rewrites, are kept as the
//!   binder built them and referred to by [`PlainId`].
//!
//! Ids are assigned by value — equal operators or predicates share an id —
//! so comparing ids is exactly comparing what they stand for. Lookups are
//! linear scans: a query has tens of names, and scanning them beats building
//! a hash map per compilation. The table lives and dies with one compilation
//! (aliases are user input; nothing is interned globally); the memo takes it
//! over from the binder, and owned names leave it only when
//! [`crate::implementation::extract_plan`] builds the final plan.

use crate::cardinality::CardinalityEstimator;
use crate::logical::{JoinPredicate, LogicalOp};

/// Widest FROM/JOIN list the binder accepts (SQL Server's own limit) and
/// the width of a [`BindingSet`].
pub const MAX_BINDINGS: usize = 256;

/// A query binding (table alias): its FROM-list position, and its bit
/// position in a [`BindingSet`].
pub type BindingId = u8;

/// Identifies a scan or unary operator kept in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlainId(pub(crate) u32);

/// An *oriented* reference to a distinct equi-join predicate: the low bit
/// says whether the sides are swapped relative to the stored predicate.
/// Equal `PredRef`s are equal [`JoinPredicate`]s, orientation included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredRef(pub(crate) u32);

impl PredRef {
    /// The same predicate with its sides swapped (join commutativity).
    pub fn flipped(self) -> PredRef {
        PredRef(self.0 ^ 1)
    }
}

/// The set of bindings a memo group covers, as a fixed-width bitset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BindingSet([u64; MAX_BINDINGS / 64]);

impl BindingSet {
    /// The set holding only `binding`.
    pub fn single(binding: BindingId) -> Self {
        let mut set = BindingSet::default();
        set.0[usize::from(binding) / 64] |= 1 << (binding % 64);
        set
    }

    /// Set union.
    pub fn union(mut self, other: BindingSet) -> Self {
        for (word, theirs) in self.0.iter_mut().zip(other.0) {
            *word |= theirs;
        }
        self
    }

    /// Membership test.
    pub fn contains(&self, binding: BindingId) -> bool {
        self.0[usize::from(binding) / 64] & (1 << (binding % 64)) != 0
    }
}

#[derive(Debug)]
struct JoinPredEntry {
    predicate: JoinPredicate,
    /// Bindings of the stored predicate's left and right column.
    sides: [BindingId; 2],
    /// What one application of the predicate divides a join's rows by.
    ndv: f64,
}

/// The name table of one compilation.
#[derive(Debug, Default)]
pub struct Names {
    plain: Vec<LogicalOp>,
    join_predicates: Vec<JoinPredEntry>,
}

impl Names {
    /// Keep a scan or unary operator. Joins are not kept whole: their
    /// predicates go through [`Names::pred_ref`].
    pub fn plain_id(&mut self, op: LogicalOp) -> PlainId {
        let known = self.plain.iter().position(|k| *k == op);
        let at = known.unwrap_or_else(|| {
            self.plain.push(op);
            self.plain.len() - 1
        });
        PlainId(at as u32)
    }

    /// Resolve an equi-join predicate whose left and right columns belong
    /// to the bindings `sides`, looking its `ndv` up once.
    pub fn pred_ref(
        &mut self,
        predicate: JoinPredicate,
        sides: [BindingId; 2],
        est: &CardinalityEstimator<'_>,
    ) -> PredRef {
        for (at, known) in self.join_predicates.iter().enumerate() {
            let known = &known.predicate;
            if *known == predicate {
                return PredRef((at as u32) << 1);
            }
            if known.left == predicate.right && known.right == predicate.left {
                return PredRef((at as u32) << 1 | 1);
            }
        }
        let ndv = est.join_predicate_ndv(&predicate);
        self.join_predicates.push(JoinPredEntry {
            predicate,
            sides,
            ndv,
        });
        PredRef((self.join_predicates.len() as u32 - 1) << 1)
    }

    /// A kept scan or unary operator.
    pub fn plain(&self, id: PlainId) -> &LogicalOp {
        &self.plain[id.0 as usize]
    }

    fn entry(&self, pred: PredRef) -> &JoinPredEntry {
        &self.join_predicates[(pred.0 >> 1) as usize]
    }

    /// The binding of the predicate's left column, as oriented by `pred`.
    pub fn left_binding(&self, pred: PredRef) -> BindingId {
        self.entry(pred).sides[(pred.0 & 1) as usize]
    }

    /// What the predicate divides a join's cardinality by.
    pub fn ndv(&self, pred: PredRef) -> f64 {
        self.entry(pred).ndv
    }

    /// The predicate with owned names, oriented as `pred` says.
    pub fn join_predicate(&self, pred: PredRef) -> JoinPredicate {
        let stored = self.entry(pred).predicate.clone();
        if pred.0 & 1 == 1 {
            stored.flipped()
        } else {
            stored
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::ColumnRef;
    use throttledb_catalog::tpch_schema;

    #[test]
    fn both_orientations_of_a_predicate_intern_to_one_entry() {
        let cat = tpch_schema(0.1);
        let est = CardinalityEstimator::new(&cat);
        let mut names = Names::default();
        let a_x = ColumnRef::new("o", "orders", "o_custkey");
        let b_y = ColumnRef::new("c", "customer", "c_custkey");
        let ab = JoinPredicate {
            left: a_x,
            right: b_y,
        };
        let forward = names.pred_ref(ab.clone(), [0, 1], &est);
        let backward = names.pred_ref(ab.clone().flipped(), [1, 0], &est);
        assert_eq!(names.join_predicates.len(), 1, "one predicate");
        assert_eq!(backward, forward.flipped(), "opposite orientation");
        assert_eq!(names.join_predicate(forward), ab);
        assert_eq!(names.join_predicate(backward), ab.flipped());
        assert_eq!(names.left_binding(forward), 0);
        assert_eq!(names.left_binding(backward), 1);
        assert_eq!(names.ndv(forward), names.ndv(backward));
    }
}
