//! Clerks: the per-subcomponent handles through which memory is reported.
//!
//! Every DBMS subcomponent that consumes significant memory owns a [`Clerk`].
//! Allocations and frees are reported in bytes; the clerk maintains the
//! subcomponent's live total and feeds the broker's accounting. Clerks are
//! cheap to clone (they share state behind an `Arc`) so a subcomponent can
//! hand copies to its internal workers.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

/// Shared state between a clerk and the broker.
#[derive(Debug)]
pub(crate) struct ClerkShared {
    pub(crate) id: ClerkId,
    pub(crate) kind: SubcomponentKind,
    /// Live bytes currently allocated by the subcomponent.
    pub(crate) used: AtomicU64,
    /// Monotonic total for reporting (bytes ever allocated are this plus
    /// `used`).
    pub(crate) total_freed: AtomicU64,
    /// Latest notification target installed by the broker (0 = no target).
    pub(crate) current_target: AtomicU64,
    /// Human-readable name, defaults to the kind label.
    pub(crate) name: Mutex<String>,
    /// The clerk registered next with the same broker: the chain along
    /// which the broker sums live bytes without its lock.
    pub(crate) next: OnceLock<Arc<ClerkShared>>,
}

/// A handle used by one subcomponent to report its memory use.
///
/// Cloning is cheap and clones share the same accounting.
#[derive(Debug, Clone)]
pub struct Clerk {
    pub(crate) shared: Arc<ClerkShared>,
}

impl Clerk {
    pub(crate) fn new(id: ClerkId, kind: SubcomponentKind) -> Self {
        Clerk {
            shared: Arc::new(ClerkShared {
                id,
                kind,
                used: AtomicU64::new(0),
                total_freed: AtomicU64::new(0),
                current_target: AtomicU64::new(0),
                name: Mutex::new(kind.label().to_string()),
                next: OnceLock::new(),
            }),
        }
    }

    /// This clerk's identifier.
    pub fn id(&self) -> ClerkId {
        self.shared.id
    }

    /// The subcomponent kind this clerk reports for.
    pub fn kind(&self) -> SubcomponentKind {
        self.shared.kind
    }

    /// Set a human-readable name (shown in broker snapshots).
    pub fn set_name(&self, name: impl Into<String>) {
        *self.shared.name.lock() = name.into();
    }

    /// The human-readable name.
    pub fn name(&self) -> String {
        self.shared.name.lock().clone()
    }

    /// Report that `bytes` were allocated.
    pub fn allocate(&self, bytes: u64) {
        self.shared.used.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Report that `bytes` were freed. Freeing more than is live is a
    /// subcomponent accounting bug, so it panics in every build.
    pub fn free(&self, bytes: u64) {
        let mut cur = self.shared.used.load(Ordering::Relaxed);
        loop {
            let next = cur
                .checked_sub(bytes)
                .unwrap_or_else(|| panic!("clerk {} freed more than allocated", self.shared.id));
            match self.shared.used.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        self.shared.total_freed.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Live bytes currently reported by this subcomponent.
    pub fn used_bytes(&self) -> u64 {
        self.shared.used.load(Ordering::Relaxed)
    }

    /// Total bytes ever reported allocated: the live bytes plus those
    /// freed (read apart, so a concurrent free can skew one reading).
    pub fn total_allocated(&self) -> u64 {
        self.used_bytes() + self.total_freed()
    }

    /// Total bytes ever reported freed.
    pub fn total_freed(&self) -> u64 {
        self.shared.total_freed.load(Ordering::Relaxed)
    }

    /// The most recent target installed by the broker, if any.
    ///
    /// A target of `None` means the broker has not constrained this clerk
    /// (the "system behaves as if the Memory Broker was not there" case).
    pub fn target_bytes(&self) -> Option<u64> {
        match self.shared.current_target.load(Ordering::Relaxed) {
            0 => None,
            t => Some(t),
        }
    }

    /// Convenience: how far above its target this clerk currently is.
    pub fn over_target_bytes(&self) -> u64 {
        match self.target_bytes() {
            Some(t) => self.used_bytes().saturating_sub(t),
            None => 0,
        }
    }

    pub(crate) fn install_target(&self, target: Option<u64>) {
        self.shared
            .current_target
            .store(target.unwrap_or(0), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clerk(kind: SubcomponentKind) -> Clerk {
        Clerk::new(ClerkId(0), kind)
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
        assert_eq!(c.total_freed(), 60);
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
        let c = clerk(SubcomponentKind::BufferPool);
        assert_eq!(c.target_bytes(), None);
        assert_eq!(c.over_target_bytes(), 0);
        c.install_target(Some(1000));
        c.allocate(1500);
        assert_eq!(c.target_bytes(), Some(1000));
        assert_eq!(c.over_target_bytes(), 500);
        c.install_target(None);
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
        c.set_name("optimizer pool 3");
        assert_eq!(c.name(), "optimizer pool 3");
        assert_eq!(format!("{}", c.kind()), "compilation");
        assert_eq!(format!("{}", c.id()), "clerk#0");
    }
}
