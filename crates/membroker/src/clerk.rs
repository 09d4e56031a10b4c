//! Clerks: the per-subcomponent handles through which memory is reported.
//!
//! Every DBMS subcomponent that consumes significant memory has an account
//! in the broker, named by a [`ClerkId`]. A single owner of the broker's
//! accounts ([`BrokerCore`](crate::BrokerCore)) charges them through
//! `&mut self`; a subcomponent on a thread of its own holds a [`Clerk`], the
//! id plus the shared [`MemoryBroker`], and reports allocations and frees in
//! bytes through the broker's one lock. Clerks are cheap to clone, so a
//! subcomponent can hand copies to its internal workers.

use crate::broker::MemoryBroker;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifies a registered clerk within one broker instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClerkId(pub(crate) u32);

impl ClerkId {
    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ClerkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clerk#{}", self.0)
    }
}

/// The DBMS subcomponents the paper reasons about, plus an escape hatch.
///
/// The kind determines the default brokering policy:
/// * **shrink priority** — which consumers are asked to give memory back
///   first when the machine is oversubscribed (caches first, then
///   compilation, then execution, buffer pool last since it backs every data
///   access), and
/// * **entitlement weight** — how the brokered memory is split when everyone
///   wants more than exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubcomponentKind {
    /// The database page buffer pool (§2.1, §3).
    BufferPool,
    /// Query execution memory grants (hashes and sorts).
    Execution,
    /// Query compilation / optimization memory — the paper's focus.
    Compilation,
    /// The compiled plan cache.
    PlanCache,
    /// Any other cache that can shrink on demand.
    OtherCache,
    /// Fixed overheads that the broker tracks but never squeezes.
    Fixed,
}

impl SubcomponentKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [SubcomponentKind; 6] = [
        SubcomponentKind::BufferPool,
        SubcomponentKind::Execution,
        SubcomponentKind::Compilation,
        SubcomponentKind::PlanCache,
        SubcomponentKind::OtherCache,
        SubcomponentKind::Fixed,
    ];

    /// Lower numbers shrink first when the broker needs memory back.
    pub fn shrink_priority(self) -> u8 {
        match self {
            SubcomponentKind::OtherCache => 0,
            SubcomponentKind::PlanCache => 1,
            SubcomponentKind::Compilation => 2,
            SubcomponentKind::BufferPool => 3,
            SubcomponentKind::Execution => 4,
            SubcomponentKind::Fixed => u8::MAX,
        }
    }

    /// Relative share of brokered memory this kind is entitled to when the
    /// sum of demands exceeds physical memory. These mirror the relative
    /// values the paper implies: the buffer pool and execution dominate,
    /// compilation is entitled to a sizable-but-bounded slice, caches less.
    pub fn entitlement_weight(self) -> f64 {
        match self {
            SubcomponentKind::BufferPool => 0.45,
            SubcomponentKind::Execution => 0.25,
            SubcomponentKind::Compilation => 0.15,
            SubcomponentKind::PlanCache => 0.10,
            SubcomponentKind::OtherCache => 0.05,
            SubcomponentKind::Fixed => 0.0,
        }
    }

    /// True when the broker may ask this consumer to release memory.
    pub fn is_squeezable(self) -> bool {
        !matches!(self, SubcomponentKind::Fixed)
    }

    /// Short label used in reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            SubcomponentKind::BufferPool => "buffer-pool",
            SubcomponentKind::Execution => "execution",
            SubcomponentKind::Compilation => "compilation",
            SubcomponentKind::PlanCache => "plan-cache",
            SubcomponentKind::OtherCache => "other-cache",
            SubcomponentKind::Fixed => "fixed",
        }
    }
}

impl fmt::Display for SubcomponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A subcomponent's handle on its account in a shared [`MemoryBroker`].
/// Each call takes the broker's lock once; clones share the account.
#[derive(Debug, Clone)]
pub struct Clerk {
    pub(crate) broker: Arc<MemoryBroker>,
    pub(crate) id: ClerkId,
}

impl Clerk {
    /// This clerk's identifier.
    pub fn id(&self) -> ClerkId {
        self.id
    }

    /// The subcomponent kind this clerk reports for.
    pub fn kind(&self) -> SubcomponentKind {
        self.broker.core.lock().account(self.id).kind()
    }

    /// The human-readable name: the kind's label.
    pub fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// Report that `bytes` were allocated.
    pub fn allocate(&self, bytes: u64) {
        self.broker.core.lock().allocate(self.id, bytes);
    }

    /// Report that `bytes` were freed. Freeing more than is live is a
    /// subcomponent accounting bug, so it panics in every build.
    pub fn free(&self, bytes: u64) {
        self.broker.core.lock().free(self.id, bytes);
    }

    /// Live bytes currently reported by this subcomponent.
    pub fn used_bytes(&self) -> u64 {
        self.broker.core.lock().account(self.id).used_bytes()
    }

    /// Total bytes ever reported allocated.
    pub fn total_allocated(&self) -> u64 {
        self.broker.core.lock().account(self.id).total_allocated()
    }

    /// The most recent target installed by the broker, if any.
    ///
    /// A target of `None` means the broker has not constrained this clerk
    /// (the "system behaves as if the Memory Broker was not there" case).
    pub fn target_bytes(&self) -> Option<u64> {
        self.broker.core.lock().account(self.id).target_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BrokerConfig;
    use throttledb_sim::SimTime;

    fn clerk(kind: SubcomponentKind) -> Clerk {
        MemoryBroker::new(BrokerConfig::with_total_memory(1 << 30)).register(kind)
    }

    #[test]
    fn allocate_and_free_track_live_bytes() {
        let c = clerk(SubcomponentKind::Compilation);
        c.allocate(100);
        c.allocate(50);
        assert_eq!(c.used_bytes(), 150);
        c.free(60);
        assert_eq!(c.used_bytes(), 90);
        assert_eq!(c.total_allocated(), 150);
    }

    #[test]
    fn clones_share_accounting() {
        let c = clerk(SubcomponentKind::Execution);
        let c2 = c.clone();
        c.allocate(10);
        c2.allocate(20);
        assert_eq!(c.used_bytes(), 30);
        assert_eq!(c2.used_bytes(), 30);
    }

    #[test]
    #[should_panic(expected = "freed more than allocated")]
    fn over_free_is_detected_in_debug() {
        let c = clerk(SubcomponentKind::PlanCache);
        c.allocate(5);
        c.free(10);
    }

    #[test]
    fn targets_default_to_none() {
        let broker = MemoryBroker::new(BrokerConfig::with_total_memory(1 << 30));
        let c = broker.register(SubcomponentKind::BufferPool);
        assert_eq!(c.target_bytes(), None);
        // Oversubscribed, the broker installs a target...
        c.allocate(2 << 30);
        broker.recalculate(SimTime::from_secs(1));
        assert!(c.target_bytes().is_some());
        // ...and clears it once memory is released and the trend settles.
        c.free(c.used_bytes());
        broker.recalculate(SimTime::from_secs(2));
        broker.recalculate(SimTime::from_secs(3));
        assert_eq!(c.target_bytes(), None);
    }

    #[test]
    fn shrink_priority_orders_caches_first() {
        assert!(
            SubcomponentKind::OtherCache.shrink_priority()
                < SubcomponentKind::Compilation.shrink_priority()
        );
        assert!(
            SubcomponentKind::Compilation.shrink_priority()
                < SubcomponentKind::Execution.shrink_priority()
        );
        assert!(!SubcomponentKind::Fixed.is_squeezable());
    }

    #[test]
    fn all_lists_kinds_in_declaration_order() {
        // The broker indexes per-kind tables by `kind as usize`.
        for (i, kind) in SubcomponentKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
    }

    #[test]
    fn entitlement_weights_sum_to_one() {
        let sum: f64 = SubcomponentKind::ALL
            .iter()
            .map(|k| k.entitlement_weight())
            .sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
    }

    #[test]
    fn names_default_to_kind_label() {
        let c = clerk(SubcomponentKind::Compilation);
        assert_eq!(c.name(), "compilation");
        assert_eq!(format!("{}", c.kind()), "compilation");
        assert_eq!(format!("{}", c.id()), "clerk#0");
    }
}
