//! Execution memory grants (the "resource semaphore").
//!
//! A thin, thread-safe facade over [`throttledb_governor::ResourcePool`]:
//! the FIFO queue, budget accounting, wait statistics and the
//! [`AdmissionDecision`] vocabulary are the governor layer's — the same
//! pool every gateway-ladder level and the PID controller's slots are —
//! and this module adds grant-request identity and broker clerk
//! reporting. Every call that can admit queued requests (a release, a
//! cancel, a budget change) reports them to the clerk and appends them
//! to the caller's buffer, so no admission can be dropped.

use parking_lot::Mutex;
use throttledb_governor::{AdmissionDecision, PoolStats, PoolTag, ResourcePool};
use throttledb_membroker::Clerk;
use throttledb_sim::{SimTime, Slab, SlotRef};

/// Identifies a grant request: a packed [`SlotRef`] into the manager's
/// slab of live requests, so the id of a released or cancelled request
/// goes stale instead of naming the request that reuses its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GrantRequestId(pub u64);

impl GrantRequestId {
    /// The slab slot this id names: dense, so callers can index a side
    /// table by it.
    pub fn slot_ref(self) -> SlotRef {
        SlotRef::from_bits(self.0)
    }
}

impl PoolTag for GrantRequestId {
    fn slot(self) -> usize {
        self.slot_ref().index()
    }
}

/// A query never receives less than this fraction of its request when the
/// manager falls back to a reduced grant.
const MIN_GRANT_FRACTION: f64 = 0.25;

/// FIFO memory-grant manager over a fixed budget.
#[derive(Debug)]
pub struct GrantManager {
    inner: Mutex<Inner>,
    clerk: Option<Clerk>,
}

#[derive(Debug)]
struct Inner {
    pool: ResourcePool<GrantRequestId>,
    /// The live (queued or granted) requests: the source of their ids.
    live: Slab<()>,
}

impl GrantManager {
    /// A manager over `budget_bytes` of execution memory, optionally
    /// reporting usage to a broker clerk.
    pub fn new(budget_bytes: u64, clerk: Option<Clerk>) -> Self {
        GrantManager {
            inner: Mutex::new(Inner {
                pool: ResourcePool::new("exec-grants", budget_bytes, MIN_GRANT_FRACTION),
                live: Slab::new(),
            }),
            clerk,
        }
    }

    /// Change the budget (e.g. on a broker notification). Does not revoke
    /// outstanding grants; queued requests the new budget lets in are
    /// granted and appended to `out`, exactly as a release would.
    pub fn set_budget(
        &self,
        budget_bytes: u64,
        now: SimTime,
        out: &mut Vec<(GrantRequestId, AdmissionDecision)>,
    ) {
        self.with_admissions(out, |inner, out| {
            inner.pool.set_budget(budget_bytes, now, out)
        });
    }

    /// Bytes currently granted out.
    pub fn in_use_bytes(&self) -> u64 {
        self.inner.lock().pool.in_use()
    }

    /// A snapshot of the underlying pool's statistics, including the
    /// wait-time histogram.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.lock().pool.stats().clone()
    }

    /// Request `bytes` of execution memory at `now`. The request is
    /// admitted in full when it fits, degraded (a reduced grant: the query
    /// will spill) when at least the minimum fraction fits and nothing else
    /// is queued, and queued until `deadline` otherwise; a queued request's
    /// wait is recorded when it is later admitted.
    pub fn request_at(
        &self,
        bytes: u64,
        now: SimTime,
        deadline: SimTime,
    ) -> (GrantRequestId, AdmissionDecision) {
        let mut inner = self.inner.lock();
        let id = GrantRequestId(inner.live.insert(()).to_bits());
        let decision = inner.pool.request(id, bytes, now, deadline);
        if let (Some(c), Some(granted)) = (&self.clerk, decision.units()) {
            c.allocate(granted);
        }
        (id, decision)
    }

    /// Release the grant held by `id` (a query finished or was aborted) at
    /// `now`; the queued requests granted as a result are appended to
    /// `out`, so the engine can recycle one buffer across every release.
    pub fn release_at_into(
        &self,
        id: GrantRequestId,
        now: SimTime,
        out: &mut Vec<(GrantRequestId, AdmissionDecision)>,
    ) {
        self.with_admissions(out, |inner, out| {
            let released = inner.pool.held(id);
            inner.pool.release_into(id, now, out);
            inner.live.remove(id.slot_ref());
            if let (Some(c), Some(bytes)) = (&self.clerk, released) {
                c.free(bytes);
            }
        });
    }

    /// Abandon a queued request (the query timed out waiting for its grant —
    /// a "resource" error to the client); requests queued behind it that
    /// now fit are granted and appended to `out`. Returns true if it was
    /// queued.
    pub fn cancel(
        &self,
        id: GrantRequestId,
        now: SimTime,
        out: &mut Vec<(GrantRequestId, AdmissionDecision)>,
    ) -> bool {
        self.with_admissions(out, |inner, out| {
            let cancelled = inner.pool.cancel(id, now, out);
            if cancelled {
                inner.live.remove(id.slot_ref());
            }
            cancelled
        })
    }

    /// Run one pool mutation that appends admissions to `out`, and report
    /// the bytes of each new one to the clerk.
    fn with_admissions<R>(
        &self,
        out: &mut Vec<(GrantRequestId, AdmissionDecision)>,
        op: impl FnOnce(&mut Inner, &mut Vec<(GrantRequestId, AdmissionDecision)>) -> R,
    ) -> R {
        let mut inner = self.inner.lock();
        let first = out.len();
        let result = op(&mut inner, out);
        if let Some(c) = &self.clerk {
            for (_, decision) in &out[first..] {
                if let Some(bytes) = decision.units() {
                    c.allocate(bytes);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};

    const MB: u64 = 1 << 20;
    const QUEUED: AdmissionDecision = AdmissionDecision::Wait {
        deadline: SimTime::MAX,
    };

    fn request(m: &GrantManager, bytes: u64) -> (GrantRequestId, AdmissionDecision) {
        m.request_at(bytes, SimTime::ZERO, SimTime::MAX)
    }

    fn release(m: &GrantManager, id: GrantRequestId) -> Vec<(GrantRequestId, AdmissionDecision)> {
        let mut admitted = Vec::new();
        m.release_at_into(id, SimTime::ZERO, &mut admitted);
        admitted
    }

    #[test]
    fn grants_within_budget_are_immediate() {
        let m = GrantManager::new(100 * MB, None);
        let (a, out_a) = request(&m, 40 * MB);
        let (_b, out_b) = request(&m, 40 * MB);
        assert_eq!(out_a, AdmissionDecision::Admit { units: 40 * MB });
        assert_eq!(out_b, AdmissionDecision::Admit { units: 40 * MB });
        assert_eq!(m.in_use_bytes(), 80 * MB);
        release(&m, a);
        assert_eq!(m.in_use_bytes(), 40 * MB);
    }

    #[test]
    fn oversized_request_gets_reduced_grant() {
        let m = GrantManager::new(100 * MB, None);
        request(&m, 70 * MB);
        let (_b, out) = request(&m, 80 * MB);
        assert_eq!(
            out,
            AdmissionDecision::Degrade { units: 30 * MB },
            "gets whatever is left"
        );
    }

    #[test]
    fn request_queues_when_below_minimum_fraction() {
        let m = GrantManager::new(100 * MB, None);
        request(&m, 95 * MB);
        // 5 MB available < 25% of 80 MB -> must queue.
        let (_b, out) = request(&m, 80 * MB);
        assert_eq!(out, QUEUED);
        assert_eq!(m.pool_stats().queued, 1);
    }

    #[test]
    fn release_admits_waiters_in_fifo_order() {
        let m = GrantManager::new(100 * MB, None);
        let (a, _) = request(&m, 90 * MB);
        let (b, ob) = request(&m, 60 * MB);
        let (c, oc) = request(&m, 10 * MB);
        assert_eq!(ob, QUEUED);
        assert_eq!(oc, QUEUED);
        // b is admitted first (FIFO); c fits in the remainder.
        assert_eq!(
            release(&m, a),
            vec![
                (b, AdmissionDecision::Admit { units: 60 * MB }),
                (c, AdmissionDecision::Admit { units: 10 * MB }),
            ]
        );
    }

    #[test]
    fn fifo_prevents_starvation_of_large_requests() {
        let m = GrantManager::new(100 * MB, None);
        let (a, _) = request(&m, 90 * MB);
        let (big, out_big) = request(&m, 80 * MB);
        assert_eq!(out_big, QUEUED);
        // A small latecomer must not jump the queue.
        let (_small, out_small) = request(&m, 5 * MB);
        assert_eq!(out_small, QUEUED);
        let admitted = release(&m, a);
        assert_eq!(
            admitted[0],
            (big, AdmissionDecision::Admit { units: 80 * MB })
        );
    }

    #[test]
    fn cancel_removes_from_queue() {
        let m = GrantManager::new(10 * MB, None);
        let (a, _) = request(&m, 10 * MB);
        let (b, out) = request(&m, 10 * MB);
        assert_eq!(out, QUEUED);
        let mut admitted = Vec::new();
        assert!(m.cancel(b, SimTime::ZERO, &mut admitted));
        assert!(!m.cancel(b, SimTime::ZERO, &mut admitted));
        assert!(admitted.is_empty());
        assert!(release(&m, a).is_empty());
    }

    #[test]
    fn clerk_tracks_granted_bytes() {
        let broker = MemoryBroker::new(BrokerConfig::with_total_memory(1 << 30));
        let clerk = broker.register(SubcomponentKind::Execution);
        let m = GrantManager::new(100 * MB, Some(clerk.clone()));
        let (a, _) = request(&m, 30 * MB);
        assert_eq!(clerk.used_bytes(), 30 * MB);
        release(&m, a);
        assert_eq!(clerk.used_bytes(), 0);
    }

    #[test]
    fn budget_raise_grants_queued_requests_and_reports_them() {
        let broker = MemoryBroker::new(BrokerConfig::with_total_memory(1 << 30));
        let clerk = broker.register(SubcomponentKind::Execution);
        let m = GrantManager::new(100 * MB, Some(clerk.clone()));
        let mut admitted = Vec::new();
        m.set_budget(MB, SimTime::ZERO, &mut admitted);
        let (a, out) = request(&m, 60 * MB);
        assert_eq!(out, QUEUED);
        m.set_budget(100 * MB, SimTime::from_secs(5), &mut admitted);
        assert_eq!(
            admitted,
            vec![(a, AdmissionDecision::Admit { units: 60 * MB })]
        );
        assert_eq!(clerk.used_bytes(), 60 * MB);
    }

    #[test]
    fn budget_can_shrink_at_runtime() {
        let m = GrantManager::new(100 * MB, None);
        request(&m, 50 * MB);
        let mut admitted = Vec::new();
        m.set_budget(40 * MB, SimTime::ZERO, &mut admitted);
        assert!(admitted.is_empty());
        let (_b, out) = request(&m, 30 * MB);
        assert_eq!(out, QUEUED, "shrunken budget blocks new grants");
        let stats = m.pool_stats();
        assert_eq!((stats.admitted, stats.degraded, stats.queued), (1, 0, 1));
    }
}
