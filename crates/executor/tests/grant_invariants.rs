//! Property tests of [`GrantManager`] invariants under arbitrary
//! grant/release/timeout interleavings:
//!
//! 1. the budget is never oversubscribed,
//! 2. waiters are admitted in strict FIFO order,
//! 3. no waiter is leaked after a cancel (abandoned waits disappear from
//!    the queue and can never be admitted later).

use proptest::prelude::*;
use std::collections::VecDeque;
use throttledb_executor::{GrantManager, GrantRequestId};
use throttledb_governor::AdmissionDecision;
use throttledb_sim::SimTime;

const MB: u64 = 1 << 20;
const BUDGET: u64 = 64 * MB;

proptest! {
    #[test]
    fn budget_fifo_and_cancel_invariants(
        ops in proptest::collection::vec((0u8..4, 1u64..32, 0usize..8), 1..200),
    ) {
        let m = GrantManager::new(BUDGET, None);
        let mut outstanding: Vec<GrantRequestId> = Vec::new();
        let mut queued: VecDeque<GrantRequestId> = VecDeque::new();
        let mut cancelled: Vec<GrantRequestId> = Vec::new();
        let mut admitted = Vec::new();
        let mut from_queue = 0u64;

        for (op, mb, pick) in ops {
            match op {
                // Request: 1..32 MB against the 64 MB budget.
                0 | 1 => {
                    let (id, outcome) = m.request_at(mb * MB, SimTime::ZERO, SimTime::MAX);
                    match outcome {
                        AdmissionDecision::Admit { units } => {
                            prop_assert_eq!(units, mb * MB, "full grants give what was asked");
                            prop_assert!(queued.is_empty(),
                                "a grant can only bypass an empty queue");
                            outstanding.push(id);
                        }
                        AdmissionDecision::Degrade { units } => {
                            prop_assert!(units < mb * MB);
                            prop_assert!(units >= 1);
                            prop_assert!(queued.is_empty());
                            outstanding.push(id);
                        }
                        AdmissionDecision::Wait { .. } => queued.push_back(id),
                        AdmissionDecision::Reject => panic!("grant pools never reject"),
                    }
                }
                // Release a random outstanding grant.
                2 => {
                    if !outstanding.is_empty() {
                        let id = outstanding.remove(pick % outstanding.len());
                        m.release_at_into(id, SimTime::ZERO, &mut admitted);
                    }
                }
                // Cancel a random queued waiter (a grant-wait timeout).
                _ => {
                    if !queued.is_empty() {
                        let idx = pick % queued.len();
                        let id = queued.remove(idx).expect("index in range");
                        prop_assert!(m.cancel(id, SimTime::ZERO, &mut admitted),
                            "queued waiter must be cancellable");
                        prop_assert!(!m.cancel(id, SimTime::ZERO, &mut admitted),
                            "double cancel is a no-op");
                        cancelled.push(id);
                    }
                }
            }
            // FIFO: a release or a cancel admits exactly a prefix of the
            // queue, and never a cancelled waiter.
            for (aid, outcome) in admitted.drain(..) {
                let front = queued.pop_front();
                prop_assert_eq!(Some(aid), front, "admissions must come from the queue head");
                prop_assert!(outcome.admitted());
                prop_assert!(!cancelled.contains(&aid),
                    "a cancelled waiter must never be admitted");
                outstanding.push(aid);
                from_queue += 1;
            }
            // Invariant 1: never oversubscribed.
            prop_assert!(m.in_use_bytes() <= BUDGET,
                "in_use {} exceeds budget {}", m.in_use_bytes(), BUDGET);
            // The manager's queue mirrors the model queue exactly: all that
            // ever queued, less the cancelled and the admitted.
            let stats = m.pool_stats();
            prop_assert_eq!(stats.queued - stats.cancelled - from_queue, queued.len() as u64);
        }

        // Drain: cancel every remaining waiter, release every grant.
        // Back to front: cancelling behind a head that does not fit admits
        // nobody, so every remaining waiter is still there to cancel.
        for id in queued.drain(..).rev() {
            prop_assert!(m.cancel(id, SimTime::ZERO, &mut admitted));
            cancelled.push(id);
        }
        let stats = m.pool_stats();
        prop_assert_eq!(stats.queued - stats.cancelled, from_queue, "no waiter leaked after cancel");
        for id in outstanding.drain(..) {
            m.release_at_into(id, SimTime::ZERO, &mut admitted);
        }
        prop_assert!(admitted.is_empty(), "a drained queue admits nothing");
        prop_assert_eq!(m.in_use_bytes(), 0, "all grants returned");
    }
}
