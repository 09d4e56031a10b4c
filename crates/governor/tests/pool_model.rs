//! Model test: [`ResourcePool`] against a naive reference under arbitrary
//! request / release / cancel / budget-change interleavings, in the two
//! shapes the system uses — unit requests that never degrade (every
//! gateway-ladder level and the PID controller's slots) and variable
//! requests that may degrade to a quarter (the execution grant pools).
//!
//! The reference states the pool's contract the obvious way: a request
//! joins the back of a FIFO, and after *every* operation the head is
//! admitted for as long as it fits. A pool that forgets to look at its
//! queue after some mutation (the grant stage's lost wakeup) disagrees
//! with it on the next comparison.

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use throttledb_governor::{AdmissionDecision, ResourcePool};
use throttledb_sim::SimTime;

type Admitted = Vec<(u64, AdmissionDecision)>;

struct Model {
    budget: u64,
    min_fraction: f64,
    held: BTreeMap<u64, u64>,
    queue: VecDeque<(u64, u64)>,
}

impl Model {
    fn admit(&mut self, out: &mut Admitted) {
        while let Some(&(tag, wanted)) = self.queue.front() {
            let available = self.budget.saturating_sub(self.held.values().sum());
            let minimum = ((wanted as f64 * self.min_fraction) as u64).max(1);
            let units = if wanted <= available {
                out.push((tag, AdmissionDecision::Admit { units: wanted }));
                wanted
            } else if self.min_fraction > 0.0 && minimum <= available {
                out.push((tag, AdmissionDecision::Degrade { units: available }));
                available
            } else {
                break;
            };
            self.queue.pop_front();
            self.held.insert(tag, units);
        }
    }

    fn remove(&mut self, tag: u64, out: &mut Admitted) -> bool {
        let queued = self.queue.len();
        self.queue.retain(|&(t, _)| t != tag);
        let cancelled = self.queue.len() < queued;
        self.admit(out);
        cancelled
    }
}

/// Drive one pool and its model through `ops` — `(op, tag pick, units,
/// budget)` — comparing every answer and the resulting state.
fn check(ops: Vec<(u8, u64, u64, u64)>, min_fraction: f64, unit: bool) {
    let budget = if unit { 3 } else { 64 };
    let mut pool: ResourcePool<u64> = ResourcePool::new("model", budget, min_fraction);
    let mut model = Model {
        budget,
        min_fraction,
        held: BTreeMap::new(),
        queue: VecDeque::new(),
    };
    let mut next = 0u64;
    let (mut got, mut want) = (Admitted::new(), Admitted::new());
    for (step, (op, pick, units, new_budget)) in ops.into_iter().enumerate() {
        let now = SimTime::from_secs(step as u64);
        let tag = next.saturating_sub(pick); // a recent tag, or one never issued
        got.clear();
        want.clear();
        match op {
            0 | 1 => {
                let units = if unit { 1 } else { units };
                let decision = pool.request(next, units, now, SimTime::MAX);
                model.queue.push_back((next, units.max(1)));
                model.admit(&mut want);
                let expected = want.pop().map_or(
                    AdmissionDecision::Wait {
                        deadline: SimTime::MAX,
                    },
                    |(_, d)| d,
                );
                prop_assert_eq!(decision, expected, "request {} at step {}", next, step);
                next += 1;
            }
            2 => {
                pool.release_into(tag, now, &mut got);
                model.held.remove(&tag);
                model.remove(tag, &mut want);
            }
            3 => {
                let cancelled = pool.cancel(tag, now, &mut got);
                prop_assert_eq!(cancelled, model.remove(tag, &mut want), "cancel {}", tag);
            }
            _ => {
                let new_budget = if unit { new_budget % 6 + 1 } else { new_budget };
                pool.set_budget(new_budget, now, &mut got);
                model.budget = new_budget;
                model.admit(&mut want);
            }
        }
        prop_assert_eq!(&got, &want, "admissions at step {}", step);
        prop_assert_eq!(pool.in_use(), model.held.values().sum::<u64>());
        prop_assert_eq!(pool.queued_len(), model.queue.len());
        for t in 0..next {
            prop_assert_eq!(pool.held(t), model.held.get(&t).copied(), "tag {}", t);
        }
    }
}

proptest! {
    /// Ladder / PID shape: one slot per request, never degraded.
    #[test]
    fn unit_requests_match_the_reference_model(
        ops in proptest::collection::vec((0u8..5, 0u64..24, 1u64..2, 0u64..6), 1..200),
    ) {
        check(ops, 1.0, true);
    }

    /// Grant shape: variable byte requests, degraded down to a quarter.
    #[test]
    fn variable_requests_match_the_reference_model(
        ops in proptest::collection::vec((0u8..5, 0u64..24, 1u64..64, 8u64..128), 1..200),
    ) {
        check(ops, 0.25, false);
    }
}
