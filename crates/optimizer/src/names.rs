//! The per-compilation name table.
//!
//! When a bound plan enters the memo its names are resolved **once** into
//! this table, so that exploring an alternative touches no `String`:
//!
//! * every distinct equi-join predicate becomes a [`PredRef`] — with the
//!   bindings of its two sides and its `max(ndv)` looked up here, not once
//!   per new join group;
//! * every binding (table alias) becomes a bit position in a [`BindingSet`];
//! * scans and unary operators, which no rule rewrites, are kept as the
//!   binder built them and referred to by [`PlainId`].
//!
//! Ids are assigned by value — equal operators or predicates share an id —
//! so comparing ids is exactly comparing what they stand for. Lookups are
//! linear scans: a query has tens of names, and scanning them beats building
//! a hash map per compilation. The table lives and dies with one compilation
//! (aliases are user input; nothing is interned globally); owned names leave
//! it only when [`crate::implementation::extract_plan`] builds the final plan.

use crate::cardinality::CardinalityEstimator;
use crate::error::OptimizerError;
use crate::logical::{JoinPredicate, LogicalOp};

/// Widest FROM/JOIN list the memo accepts (SQL Server's own limit) and the
/// width of a [`BindingSet`].
pub const MAX_BINDINGS: usize = 256;

/// A query binding (table alias): its bit position in a [`BindingSet`].
pub type BindingId = u8;

/// Identifies a scan or unary operator kept in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlainId(pub(crate) u32);

/// An *oriented* reference to a distinct equi-join predicate: the low bit
/// says whether the sides are swapped relative to the stored predicate.
/// Equal `PredRef`s are equal [`JoinPredicate`]s, orientation included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredRef(u32);

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
    bindings: Vec<String>,
    plain: Vec<LogicalOp>,
    join_predicates: Vec<JoinPredEntry>,
}

impl Names {
    /// Resolve a binding name; fails on the 257th distinct one.
    pub fn binding_id(&mut self, name: &str) -> Result<BindingId, OptimizerError> {
        let known = self.bindings.iter().position(|b| b == name);
        let at = known.unwrap_or_else(|| {
            self.bindings.push(name.to_string());
            self.bindings.len() - 1
        });
        BindingId::try_from(at).map_err(|_| {
            OptimizerError::Unsupported(format!("more than {MAX_BINDINGS} tables in one query"))
        })
    }

    /// Keep a scan or unary operator. Joins are not kept whole: their
    /// predicates go through [`Names::pred_ref`].
    pub fn plain_id(&mut self, op: LogicalOp) -> PlainId {
        debug_assert!(!op.is_join());
        let known = self.plain.iter().position(|k| *k == op);
        let at = known.unwrap_or_else(|| {
            self.plain.push(op);
            self.plain.len() - 1
        });
        PlainId(at as u32)
    }

    /// Resolve an equi-join predicate, looking its `ndv` up once.
    pub fn pred_ref(
        &mut self,
        predicate: JoinPredicate,
        est: &CardinalityEstimator<'_>,
    ) -> Result<PredRef, OptimizerError> {
        for (at, known) in self.join_predicates.iter().enumerate() {
            let known = &known.predicate;
            if *known == predicate {
                return Ok(PredRef((at as u32) << 1));
            }
            if known.left == predicate.right && known.right == predicate.left {
                return Ok(PredRef((at as u32) << 1 | 1));
            }
        }
        let entry = JoinPredEntry {
            sides: [
                self.binding_id(&predicate.left.binding)?,
                self.binding_id(&predicate.right.binding)?,
            ],
            ndv: est.join_predicate_ndv(&predicate),
            predicate,
        };
        self.join_predicates.push(entry);
        Ok(PredRef((self.join_predicates.len() as u32 - 1) << 1))
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
