//! Byte-accurate compilation memory accounting and the governor hook.
//!
//! This module is the seam between the optimizer and the paper's throttling
//! mechanism. The optimizer charges every allocation of memo structures to a
//! [`CompilationMemory`] account; after each charge the installed
//! [`MemoryGovernor`] is consulted. Gateways (in `throttledb-core`) implement
//! the governor: when the compilation's memory crosses a monitor threshold
//! they acquire the corresponding gateway — blocking the compilation if the
//! gateway is full — and on timeout or predicted exhaustion they direct the
//! optimizer to finish with the best plan found so far or abort.
//!
//! The bytes charged here are **modelled**: the [`sizes`] a production
//! optimizer's memo objects would occupy, which is the quantity the paper
//! throttles on. They are not this process's heap — the memo holding the
//! same alternatives really costs about a hundred bytes per expression (see
//! [`crate::memo`]) — and the sequence of charges is a fixed function of
//! the query, pinned per template by `tests/compile_fingerprint.rs`, so the
//! representation can get cheaper without the ladder or the broker seeing
//! a different compilation.

use throttledb_membroker::Clerk;

/// What the governor wants the optimizer to do after a memory change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorDirective {
    /// Keep optimizing normally.
    Continue,
    /// Stop exploring and return the best complete plan found so far
    /// (§4.1: "we can return the best plan from the set of already explored
    /// plans instead of simply returning out-of-memory errors").
    FinishWithBestPlan,
    /// Abort the compilation with an error (a gateway timeout in the paper;
    /// surfaces as [`crate::OptimizerError::Aborted`]).
    Abort,
}

/// Observer of a single compilation's memory usage.
///
/// Implementations may block inside [`MemoryGovernor::on_allocation`] — that
/// is how the threaded gateway ladder slows a compilation down without the
/// optimizer knowing anything about gateways ("the only perceptible
/// difference ... is that the thread sometimes receives less time for its
/// work").
pub trait MemoryGovernor {
    /// Called after the compilation's live bytes change to `used_bytes`.
    /// `peak_bytes` is the high-water mark so far.
    fn on_allocation(&mut self, used_bytes: u64, peak_bytes: u64) -> GovernorDirective;

    /// Called once when the compilation finishes (successfully or not) with
    /// the final peak. Gateways release in reverse order here.
    fn on_completion(&mut self, peak_bytes: u64) {
        let _ = peak_bytes;
    }
}

/// A governor that never throttles: the unthrottled baseline configuration
/// in the paper's experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnlimitedGovernor;

impl MemoryGovernor for UnlimitedGovernor {
    fn on_allocation(&mut self, _used: u64, _peak: u64) -> GovernorDirective {
        GovernorDirective::Continue
    }
}

/// Byte-accurate account of one compilation's memory.
///
/// The account optionally forwards usage to a broker [`Clerk`] so that the
/// Memory Broker sees compilation memory in aggregate across all concurrent
/// compilations.
pub struct CompilationMemory {
    used: u64,
    peak: u64,
    clerk: Option<Clerk>,
    /// `None` for an ungoverned account, which then skips the dynamic call
    /// on every charge.
    governor: Option<Box<dyn MemoryGovernor + Send>>,
    /// The directive that ended normal operation, if any. Once set, it is
    /// sticky: further charges keep returning it.
    pending_directive: GovernorDirective,
}

impl std::fmt::Debug for CompilationMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompilationMemory")
            .field("used", &self.used)
            .field("peak", &self.peak)
            .field("has_clerk", &self.clerk.is_some())
            .field("pending_directive", &self.pending_directive)
            .finish()
    }
}

impl CompilationMemory {
    /// An account governed by `governor`, optionally reporting to `clerk`.
    pub fn new(governor: Box<dyn MemoryGovernor + Send>, clerk: Option<Clerk>) -> Self {
        CompilationMemory {
            used: 0,
            peak: 0,
            clerk,
            governor: Some(governor),
            pending_directive: GovernorDirective::Continue,
        }
    }

    /// An ungoverned account (unthrottled baseline, unit tests): it behaves
    /// as one governed by [`UnlimitedGovernor`] without consulting it.
    pub fn unlimited() -> Self {
        CompilationMemory {
            used: 0,
            peak: 0,
            clerk: None,
            governor: None,
            pending_directive: GovernorDirective::Continue,
        }
    }

    /// Live bytes charged to this compilation.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// High-water mark of live bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak
    }

    /// Charge `bytes` to the compilation and consult the governor.
    pub fn charge(&mut self, bytes: u64) -> GovernorDirective {
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        if let Some(clerk) = &self.clerk {
            clerk.allocate(bytes);
        }
        if self.pending_directive != GovernorDirective::Continue {
            return self.pending_directive;
        }
        let Some(governor) = &mut self.governor else {
            return GovernorDirective::Continue;
        };
        let directive = governor.on_allocation(self.used, self.peak);
        if directive != GovernorDirective::Continue {
            self.pending_directive = directive;
        }
        directive
    }

    /// Release `bytes` (e.g. transient rule bindings freed after use).
    pub fn release(&mut self, bytes: u64) {
        debug_assert!(
            self.used >= bytes,
            "compilation released more than it charged"
        );
        let bytes = bytes.min(self.used);
        self.used -= bytes;
        if let Some(clerk) = &self.clerk {
            clerk.free(bytes);
        }
    }

    /// The sticky directive, if the governor has ended normal operation.
    pub fn pending_directive(&self) -> GovernorDirective {
        self.pending_directive
    }

    /// Finish the compilation: releases all remaining live bytes from the
    /// broker clerk and notifies the governor (which releases gateways).
    /// Returns the peak usage.
    pub fn finish(&mut self) -> u64 {
        if let Some(clerk) = &self.clerk {
            clerk.free(self.used);
        }
        self.used = 0;
        if let Some(governor) = &mut self.governor {
            governor.on_completion(self.peak);
        }
        self.peak
    }
}

impl Drop for CompilationMemory {
    fn drop(&mut self) {
        // Make sure broker accounting and gateway holds never leak even if
        // the optimizer unwinds on an error path.
        if self.used > 0 || self.peak > 0 {
            if let Some(clerk) = &self.clerk {
                clerk.free(self.used);
            }
            self.used = 0;
        }
    }
}

/// Approximate sizes, in bytes, of the optimizer's internal structures.
/// These follow the magnitude of a production optimizer's memo objects
/// (a few KB per group expression once operator arguments, required
/// properties, rule state and cost vectors are included) so that the
/// *absolute* compile-memory numbers land in the paper's range: tens to
/// hundreds of MB for 15–20-join DSS queries, a few MB for TPC-H-like ones.
pub mod sizes {
    /// A memo group (logical properties, statistics, winner slots).
    pub const GROUP_BYTES: u64 = 1_536;
    /// A logical group expression (operator + child refs + rule mask).
    pub const LOGICAL_EXPR_BYTES: u64 = 2_048;
    /// A physical group expression (operator + cost vector + properties).
    pub const PHYSICAL_EXPR_BYTES: u64 = 1_280;
    /// Transient working memory charged while a transformation rule binds
    /// and fires (released afterwards).
    pub const RULE_BINDING_BYTES: u64 = 4_096;
    /// Per-query fixed overhead: parse tree copy, binding structures,
    /// statistics snapshots loaded for referenced tables.
    pub const QUERY_OVERHEAD_BYTES: u64 = 65_536;
    /// Extra overhead per referenced table (statistics snapshot, column
    /// metadata).
    pub const PER_TABLE_OVERHEAD_BYTES: u64 = 24_576;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};

    struct ThresholdGovernor {
        finish_at: u64,
        abort_at: u64,
        calls: Arc<AtomicU64>,
    }

    impl MemoryGovernor for ThresholdGovernor {
        fn on_allocation(&mut self, used: u64, _peak: u64) -> GovernorDirective {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if used >= self.abort_at {
                GovernorDirective::Abort
            } else if used >= self.finish_at {
                GovernorDirective::FinishWithBestPlan
            } else {
                GovernorDirective::Continue
            }
        }
    }

    #[test]
    fn unlimited_account_tracks_used_and_peak() {
        let mut m = CompilationMemory::unlimited();
        assert_eq!(m.charge(1000), GovernorDirective::Continue);
        assert_eq!(m.charge(500), GovernorDirective::Continue);
        m.release(700);
        assert_eq!(m.used_bytes(), 800);
        assert_eq!(m.peak_bytes(), 1500);
        assert_eq!(m.finish(), 1500);
        assert_eq!(m.used_bytes(), 0);
    }

    #[test]
    fn governor_is_consulted_on_every_charge() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut m = CompilationMemory::new(
            Box::new(ThresholdGovernor {
                finish_at: u64::MAX,
                abort_at: u64::MAX,
                calls: calls.clone(),
            }),
            None,
        );
        for _ in 0..5 {
            m.charge(10);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn directives_are_sticky() {
        let calls = Arc::new(AtomicU64::new(0));
        let mut m = CompilationMemory::new(
            Box::new(ThresholdGovernor {
                finish_at: 100,
                abort_at: u64::MAX,
                calls: calls.clone(),
            }),
            None,
        );
        assert_eq!(m.charge(50), GovernorDirective::Continue);
        assert_eq!(m.charge(60), GovernorDirective::FinishWithBestPlan);
        // Further charges keep reporting the sticky directive without
        // re-consulting the governor.
        assert_eq!(m.charge(10), GovernorDirective::FinishWithBestPlan);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(m.pending_directive(), GovernorDirective::FinishWithBestPlan);
    }

    #[test]
    fn abort_directive_reported() {
        let mut m = CompilationMemory::new(
            Box::new(ThresholdGovernor {
                finish_at: u64::MAX,
                abort_at: 100,
                calls: Arc::new(AtomicU64::new(0)),
            }),
            None,
        );
        assert_eq!(m.charge(150), GovernorDirective::Abort);
    }

    #[test]
    fn clerk_sees_allocations_and_finish_releases_them() {
        let broker = MemoryBroker::new(BrokerConfig::with_total_memory(1 << 30));
        let clerk = broker.register(SubcomponentKind::Compilation);
        let mut m = CompilationMemory::new(Box::new(UnlimitedGovernor), Some(clerk.clone()));
        m.charge(10_000);
        m.charge(5_000);
        assert_eq!(clerk.used_bytes(), 15_000);
        m.release(5_000);
        assert_eq!(clerk.used_bytes(), 10_000);
        m.finish();
        assert_eq!(clerk.used_bytes(), 0);
    }

    #[test]
    fn drop_releases_clerk_bytes() {
        let broker = MemoryBroker::new(BrokerConfig::with_total_memory(1 << 30));
        let clerk = broker.register(SubcomponentKind::Compilation);
        {
            let mut m = CompilationMemory::new(Box::new(UnlimitedGovernor), Some(clerk.clone()));
            m.charge(42_000);
            // dropped without finish(), e.g. on an error path
        }
        assert_eq!(clerk.used_bytes(), 0);
    }

    #[test]
    fn release_saturates_in_release_builds() {
        let mut m = CompilationMemory::unlimited();
        m.charge(10);
        #[cfg(not(debug_assertions))]
        {
            m.release(100);
            assert_eq!(m.used_bytes(), 0);
        }
        #[cfg(debug_assertions)]
        {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.release(100)));
            assert!(r.is_err());
        }
    }
}
