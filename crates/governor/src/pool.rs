//! A budgeted resource pool: budget + shared wait queue + statistics.
//!
//! A [`ResourcePool`] hands out units of a divisible resource (execution
//! memory bytes, per-class admission slots) against a fixed budget. When a
//! request does not fit it either receives a *degraded* allocation — the
//! caller accepts less than it asked for, e.g. a reduced memory grant that
//! will spill — or joins the pool's FIFO [`WaitQueue`]. Every call that
//! can make room — a release, a cancel, a budget change — admits waiters
//! in strict FIFO order, so large requests cannot be starved by small
//! latecomers and no waiter that fits is left queued.
//!
//! A request's bookkeeping — its allocation, or its place in the queue —
//! lives in a dense side table at its tag's [`PoolTag::slot`], so no call
//! hashes.

use crate::decision::AdmissionDecision;
use crate::queue::{WaitQueue, WaiterKey};
use serde::{Deserialize, Serialize};
use throttledb_sim::{Histogram, SimTime, SlotRef, SlotTable};

/// A [`ResourcePool`] tag: names one request, and through [`PoolTag::slot`]
/// the side-table entry its bookkeeping occupies.
///
/// Tags live in one pool at the same time must have distinct slots, and
/// the side table is as long as the highest slot seen. Tags minted from a
/// [`Slab`](throttledb_sim::Slab) — packed [`SlotRef`]s — meet both by
/// construction: the slot is the slab index, and the table stays as long
/// as the slab's peak live count.
pub trait PoolTag: Copy + Eq {
    /// The side-table slot this tag's bookkeeping occupies.
    fn slot(self) -> usize;
}

/// A bare word is a packed [`SlotRef`]: its low half is the slot.
impl PoolTag for u64 {
    fn slot(self) -> usize {
        SlotRef::from_bits(self).index()
    }
}

/// Where one live tag stands.
#[derive(Debug, Clone, Copy)]
enum Standing {
    /// Holds this many units.
    Held(u64),
    /// Waits in the queue under this key.
    Queued(WaiterKey),
}

/// Lifetime counters of one [`ResourcePool`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Requests admitted in full.
    pub admitted: u64,
    /// Requests admitted with a degraded (reduced) allocation.
    pub degraded: u64,
    /// Requests that had to queue.
    pub queued: u64,
    /// Queued requests abandoned before admission (timeouts / cancels).
    pub cancelled: u64,
    /// Time spent queued before admission, in microseconds.
    pub wait_time: Histogram,
}

impl PoolStats {
    fn new(name: &str) -> Self {
        PoolStats {
            admitted: 0,
            degraded: 0,
            queued: 0,
            cancelled: 0,
            wait_time: Histogram::new(format!("{name}-wait-us")),
        }
    }
}

/// A budgeted admission pool keyed by caller-chosen tags.
///
/// `T` identifies one request across its lifetime (request → wait → admit →
/// release); the pool keeps each live tag's allocation or queue ticket at
/// the tag's slot, so every call, cancellation included, is O(1).
#[derive(Debug)]
pub struct ResourcePool<T: PoolTag> {
    budget: u64,
    in_use: u64,
    min_fraction: f64,
    queue: WaitQueue<(T, u64)>,
    /// Each live tag, with where it stands, at its slot.
    tags: SlotTable<(T, Standing)>,
    stats: PoolStats,
}

impl<T: PoolTag> ResourcePool<T> {
    /// A pool over `budget` units. `min_fraction` is the smallest fraction
    /// of its request a degraded admission may receive (0 disables degraded
    /// admissions entirely; 1 makes every admission all-or-nothing).
    pub fn new(name: &str, budget: u64, min_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&min_fraction),
            "min_fraction must be in [0,1]"
        );
        ResourcePool {
            budget,
            in_use: 0,
            min_fraction,
            queue: WaitQueue::new(),
            tags: SlotTable::new(),
            stats: PoolStats::new(name),
        }
    }

    /// Change the budget and admit, FIFO, every queued request the new
    /// budget lets in (appended to `out`, as [`ResourcePool::release_into`]
    /// does). Outstanding allocations are not revoked when it shrinks.
    pub fn set_budget(&mut self, budget: u64, now: SimTime, out: &mut Vec<(T, AdmissionDecision)>) {
        self.budget = budget;
        self.admit_waiters_into(now, out);
    }

    /// Units currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Number of queued requests.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// The pool's lifetime counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Units held by `tag`, if it has an outstanding allocation.
    pub fn held(&self, tag: T) -> Option<u64> {
        match self.standing(tag)? {
            Standing::Held(units) => Some(units),
            Standing::Queued(_) => None,
        }
    }

    /// Where `tag` stands, if it is live here.
    fn standing(&self, tag: T) -> Option<Standing> {
        match self.tags.get(tag.slot()) {
            Some(&(live, standing)) if live == tag => Some(standing),
            _ => None,
        }
    }

    /// Record where `tag` stands, at its slot.
    fn stand(&mut self, tag: T, standing: Standing) {
        self.tags.set(tag.slot(), (tag, standing));
    }

    /// Request `units` for `tag`. Admitted in full when it fits and no one
    /// is queued ahead; admitted degraded when at least the minimum fraction
    /// fits; queued (FIFO, with `deadline`) otherwise.
    ///
    /// A tag identifies at most one request at a time; panics if `tag`, or
    /// another live tag with the same slot, already holds an allocation or
    /// is already queued (reuse would silently corrupt the budget
    /// accounting).
    pub fn request(
        &mut self,
        tag: T,
        units: u64,
        now: SimTime,
        deadline: SimTime,
    ) -> AdmissionDecision {
        assert!(
            self.tags.get(tag.slot()).is_none(),
            "tag already has an outstanding or queued request"
        );
        let wanted = units.max(1);
        let immediate = if self.queue.is_empty() {
            self.grantable(wanted)
        } else {
            None
        };
        let decision = match immediate {
            Some(decision) => {
                self.grant(tag, decision);
                decision
            }
            None => {
                let key = self.queue.push((tag, wanted), now, deadline);
                self.stand(tag, Standing::Queued(key));
                self.stats.queued += 1;
                AdmissionDecision::Wait { deadline }
            }
        };
        self.debug_check();
        decision
    }

    /// Release the allocation held by `tag` and admit queued requests FIFO
    /// while they fit, appending them to `out` so a steady-state caller can
    /// recycle one scratch buffer across every release (the engine's event
    /// loop does exactly that). `now` stamps the admitted waiters' wait
    /// times. If `tag` was still queued this cancels it instead.
    pub fn release_into(&mut self, tag: T, now: SimTime, out: &mut Vec<(T, AdmissionDecision)>) {
        if let Some(Standing::Held(units)) = self.standing(tag) {
            self.tags.take(tag.slot());
            self.in_use -= units;
        } else {
            self.unlink(tag);
        }
        self.admit_waiters_into(now, out);
    }

    /// Abandon a queued request (timeout / caller gave up) in O(1), then
    /// admit whoever queued behind it and now fits, appending them to
    /// `out`. Returns true if `tag` was actually queued.
    pub fn cancel(&mut self, tag: T, now: SimTime, out: &mut Vec<(T, AdmissionDecision)>) -> bool {
        let cancelled = self.unlink(tag);
        self.admit_waiters_into(now, out);
        cancelled
    }

    fn unlink(&mut self, tag: T) -> bool {
        let Some(Standing::Queued(key)) = self.standing(tag) else {
            return false;
        };
        self.tags.take(tag.slot());
        let cancelled = self.queue.cancel(key).is_some();
        if cancelled {
            self.stats.cancelled += 1;
        }
        cancelled
    }

    fn minimum_for(&self, wanted: u64) -> u64 {
        ((wanted as f64 * self.min_fraction) as u64).max(1)
    }

    /// What a request for `wanted` units would receive right now: all of
    /// it, everything available when that is at least its minimum
    /// fraction, or nothing.
    fn grantable(&self, wanted: u64) -> Option<AdmissionDecision> {
        let available = self.budget.saturating_sub(self.in_use);
        if wanted <= available {
            Some(AdmissionDecision::Admit { units: wanted })
        } else if self.min_fraction > 0.0 && self.minimum_for(wanted) <= available {
            Some(AdmissionDecision::Degrade { units: available })
        } else {
            None
        }
    }

    fn grant(&mut self, tag: T, decision: AdmissionDecision) {
        let units = decision.units().expect("grantable decisions carry units");
        if matches!(decision, AdmissionDecision::Admit { .. }) {
            self.stats.admitted += 1;
        } else {
            self.stats.degraded += 1;
        }
        self.in_use += units;
        self.stand(tag, Standing::Held(units));
    }

    /// The one admit loop: every mutating call ends here, so a waiter that
    /// fits is never left queued.
    fn admit_waiters_into(&mut self, now: SimTime, admitted: &mut Vec<(T, AdmissionDecision)>) {
        while let Some(&(tag, wanted)) = self.queue.front() {
            let Some(decision) = self.grantable(wanted) else {
                break;
            };
            let waiter = self.queue.pop_front().expect("front exists");
            self.stats.wait_time.record(waiter.waited(now).as_micros());
            self.grant(tag, decision);
            admitted.push((tag, decision));
        }
        self.debug_check();
    }

    /// Debug builds check the pool's two laws after every mutating call:
    /// `in_use` is the sum of the outstanding allocations, and the queue's
    /// head could not be admitted right now (work conservation).
    fn debug_check(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let held = self.tags.values().map(|&(_, standing)| match standing {
            Standing::Held(units) => units,
            Standing::Queued(_) => 0,
        });
        assert_eq!(
            self.in_use,
            held.sum::<u64>(),
            "in_use drifted from the outstanding allocations"
        );
        if let Some(head) = self.queue.iter().next() {
            let (_, wanted) = head.payload;
            assert!(
                self.grantable(wanted).is_none(),
                "lost wakeup: the queue head fits ({wanted} units, budget {}, in use {})",
                self.budget,
                self.in_use
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn pool(budget: u64) -> ResourcePool<u64> {
        ResourcePool::new("test", budget, 0.25)
    }

    fn now() -> SimTime {
        SimTime::from_secs(1)
    }

    fn release(p: &mut ResourcePool<u64>, tag: u64, now: SimTime) -> Vec<(u64, AdmissionDecision)> {
        let mut admitted = Vec::new();
        p.release_into(tag, now, &mut admitted);
        admitted
    }

    #[test]
    fn admits_within_budget() {
        let mut p = pool(100 * MB);
        assert_eq!(
            p.request(1, 40 * MB, now(), SimTime::MAX),
            AdmissionDecision::Admit { units: 40 * MB }
        );
        assert_eq!(p.in_use(), 40 * MB);
        assert_eq!(p.held(1), Some(40 * MB));
    }

    #[test]
    fn degrades_when_minimum_fraction_fits() {
        let mut p = pool(100 * MB);
        p.request(1, 70 * MB, now(), SimTime::MAX);
        assert_eq!(
            p.request(2, 80 * MB, now(), SimTime::MAX),
            AdmissionDecision::Degrade { units: 30 * MB }
        );
        assert_eq!(p.stats().degraded, 1);
    }

    #[test]
    fn queues_below_minimum_and_admits_fifo_on_release() {
        let mut p = pool(100 * MB);
        p.request(1, 90 * MB, now(), SimTime::MAX);
        let d2 = p.request(2, 60 * MB, now(), SimTime::from_secs(100));
        let d3 = p.request(3, 10 * MB, now(), SimTime::from_secs(100));
        assert!(matches!(d2, AdmissionDecision::Wait { .. }));
        assert!(matches!(d3, AdmissionDecision::Wait { .. }));
        let admitted = release(&mut p, 1, SimTime::from_secs(20));
        assert_eq!(admitted.len(), 2);
        assert_eq!(admitted[0].0, 2, "FIFO: 2 before 3");
        assert_eq!(admitted[0].1, AdmissionDecision::Admit { units: 60 * MB });
        assert_eq!(admitted[1].0, 3);
        assert_eq!(p.stats().wait_time.count(), 2);
    }

    #[test]
    fn fifo_prevents_starvation() {
        let mut p = pool(100 * MB);
        p.request(1, 90 * MB, now(), SimTime::MAX);
        assert!(matches!(
            p.request(2, 80 * MB, now(), SimTime::MAX),
            AdmissionDecision::Wait { .. }
        ));
        assert!(matches!(
            p.request(3, 5 * MB, now(), SimTime::MAX),
            AdmissionDecision::Wait { .. }
        ));
        let admitted = release(&mut p, 1, SimTime::MAX);
        assert_eq!(admitted[0].0, 2, "large waiter admitted first");
        assert_eq!(admitted[0].1, AdmissionDecision::Admit { units: 80 * MB });
    }

    #[test]
    fn cancel_removes_queued_requests() {
        let mut p = pool(10 * MB);
        let mut out = Vec::new();
        p.request(1, 10 * MB, now(), SimTime::MAX);
        p.request(2, 10 * MB, now(), SimTime::MAX);
        assert!(p.cancel(2, now(), &mut out));
        assert!(!p.cancel(2, now(), &mut out));
        assert!(out.is_empty());
        assert!(release(&mut p, 1, SimTime::MAX).is_empty());
        assert_eq!(p.queued_len(), 0);
        assert_eq!(p.stats().cancelled, 1);
    }

    #[test]
    fn release_of_queued_tag_cancels_it() {
        let mut p = pool(10 * MB);
        p.request(1, 10 * MB, now(), SimTime::MAX);
        p.request(2, 10 * MB, now(), SimTime::MAX);
        assert!(release(&mut p, 2, SimTime::MAX).is_empty());
        assert_eq!(p.queued_len(), 0);
        assert_eq!(p.in_use(), 10 * MB);
    }

    #[test]
    fn shrunken_budget_blocks_new_requests() {
        let mut p = pool(100 * MB);
        p.request(1, 50 * MB, now(), SimTime::MAX);
        let mut out = Vec::new();
        p.set_budget(40 * MB, now(), &mut out);
        assert!(out.is_empty());
        assert!(matches!(
            p.request(2, 30 * MB, now(), SimTime::MAX),
            AdmissionDecision::Wait { .. }
        ));
        assert_eq!(p.stats().admitted, 1);
        assert_eq!(p.stats().queued, 1);
    }

    #[test]
    fn zero_min_fraction_disables_degraded_admissions() {
        let mut p: ResourcePool<u64> = ResourcePool::new("strict", 100 * MB, 0.0);
        p.request(1, 99 * MB, now(), SimTime::MAX);
        // 1 MB is available, but a degraded 1 MB grant must NOT be handed
        // out: the request queues until the full amount fits.
        assert!(matches!(
            p.request(2, 80 * MB, now(), SimTime::MAX),
            AdmissionDecision::Wait { .. }
        ));
        assert_eq!(p.stats().degraded, 0);
        let admitted = release(&mut p, 1, SimTime::MAX);
        assert_eq!(
            admitted,
            vec![(2, AdmissionDecision::Admit { units: 80 * MB })]
        );
    }

    #[test]
    fn all_or_nothing_pool_never_degrades() {
        let mut p: ResourcePool<u64> = ResourcePool::new("slots", 2, 1.0);
        assert_eq!(
            p.request(1, 1, now(), SimTime::MAX),
            AdmissionDecision::Admit { units: 1 }
        );
        assert_eq!(
            p.request(2, 2, now(), SimTime::MAX),
            AdmissionDecision::Wait {
                deadline: SimTime::MAX
            }
        );
        let admitted = release(&mut p, 1, SimTime::MAX);
        assert_eq!(admitted, vec![(2, AdmissionDecision::Admit { units: 2 })]);
    }

    #[test]
    fn raising_the_budget_admits_waiters_when_nobody_holds() {
        // The grant-stage wedge: the budget was squeezed below every
        // request, nothing is held, so no release will ever come — the
        // budget raise itself must admit.
        let mut p = pool(100 * MB);
        let mut out = Vec::new();
        p.set_budget(MB, now(), &mut out);
        assert!(matches!(
            p.request(1, 60 * MB, now(), SimTime::MAX),
            AdmissionDecision::Wait { .. }
        ));
        assert!(matches!(
            p.request(2, 30 * MB, now(), SimTime::MAX),
            AdmissionDecision::Wait { .. }
        ));
        p.set_budget(100 * MB, SimTime::from_secs(5), &mut out);
        assert_eq!(
            out,
            vec![
                (1, AdmissionDecision::Admit { units: 60 * MB }),
                (2, AdmissionDecision::Admit { units: 30 * MB }),
            ]
        );
        assert_eq!(p.queued_len(), 0);
        assert_eq!(p.in_use(), 90 * MB);
        assert_eq!(p.stats().wait_time.count(), 2);
    }

    #[test]
    fn cancelling_the_head_admits_a_fitting_second_waiter() {
        let mut p = pool(100 * MB);
        let mut out = Vec::new();
        p.request(1, 90 * MB, now(), SimTime::MAX);
        p.request(2, 80 * MB, now(), SimTime::MAX); // head: 10 MB < 25% of 80
        p.request(3, 10 * MB, now(), SimTime::MAX); // fits, but FIFO holds it
        assert!(p.cancel(2, SimTime::from_secs(30), &mut out));
        assert_eq!(out, vec![(3, AdmissionDecision::Admit { units: 10 * MB })]);
        assert_eq!(p.queued_len(), 0);
    }
}
