//! Differential test: [`PlanCache`]'s buffered eviction against the O(n)
//! scan it replaced, kept here as the oracle.
//!
//! The oracle is the old cache, reduced to its bookkeeping: every eviction
//! scans all entries for the lowest `recompile_cost·(hits+1) / size`, then
//! the least recently touched. Mixed sizes and costs (zero and negative
//! zero among them, so values tie and recency decides), hits that re-rank
//! entries, replaced keys and `shrink_to` calls must leave both caches with
//! the same entries after every operation.

use proptest::prelude::*;
use std::collections::HashMap;
use throttledb_plancache::{PlanCache, PlanCacheStats};

const MB: u64 = 1 << 20;
const KEYS: u64 = 96;

/// One oracle entry: `(plan, size, cost, hits, last_touch)`.
type Entry = (u64, u64, f64, u64, u64);

/// The pre-buffer cache: a map and a scan per eviction.
struct Oracle {
    capacity: u64,
    entries: HashMap<u64, Entry>,
    used: u64,
    tick: u64,
    stats: PlanCacheStats,
}

impl Oracle {
    fn get(&mut self, key: u64) -> Option<u64> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.3 += 1;
                e.4 = self.tick;
                self.stats.hits += 1;
                Some(e.0)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u64, plan: u64, size: u64, cost: f64) {
        if size > self.capacity {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&key) {
            self.used -= old.1;
        }
        self.evict_until(self.capacity.saturating_sub(size));
        self.entries.insert(key, (plan, size, cost, 0, self.tick));
        self.used += size;
        self.stats.insertions += 1;
    }

    fn shrink_to(&mut self, target: u64) -> u64 {
        let before = self.used;
        self.evict_until(target);
        before - self.used
    }

    fn evict_until(&mut self, limit: u64) {
        while self.used > limit {
            let victim = self
                .entries
                .iter()
                .min_by(|(_, a), (_, b)| {
                    let va = a.2 * (a.3 + 1) as f64 / a.1.max(1) as f64;
                    let vb = b.2 * (b.3 + 1) as f64 / b.1.max(1) as f64;
                    va.partial_cmp(&vb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.4.cmp(&b.4))
                })
                .map(|(&k, _)| k);
            let Some(key) = victim else { break };
            let e = self.entries.remove(&key).expect("victim is live");
            self.used -= e.1;
            self.stats.evictions += 1;
        }
    }
}

/// Costs drawn from a few exact values, so that values tie often.
fn cost(pick: u64) -> f64 {
    [0.0, -0.0, 0.5, 1.0, 2.0, 30.0][pick as usize % 6]
}

proptest! {
    #[test]
    fn buffered_eviction_matches_the_scan(
        capacity_mb in 4u64..48,
        ops in proptest::collection::vec((0u8..10, 0u64..KEYS, 1u64..6, 0u64..6), 1..2_000),
    ) {
        let cache: PlanCache<u64, u64> = PlanCache::new(capacity_mb * MB, None);
        let mut oracle = Oracle {
            capacity: capacity_mb * MB,
            entries: HashMap::new(),
            used: 0,
            tick: 0,
            stats: PlanCacheStats::default(),
        };
        for (step, (op, key, size, pick)) in ops.into_iter().enumerate() {
            let plan = step as u64;
            match op {
                0..=5 => {
                    // Plans of 1–5 MB, now and then larger than the cache.
                    let size = if pick == 5 && size == 5 { 64 * MB } else { size * MB };
                    cache.insert(key, plan, size, cost(pick));
                    oracle.insert(key, plan, size, cost(pick));
                }
                6..=8 => prop_assert_eq!(cache.get(&key), oracle.get(key), "get {}", key),
                _ => {
                    let target = oracle.used * pick / 6;
                    prop_assert_eq!(cache.shrink_to(target), oracle.shrink_to(target));
                }
            }
            prop_assert_eq!(cache.used_bytes(), oracle.used, "step {}", step);
            prop_assert_eq!(cache.len(), oracle.entries.len());
            prop_assert_eq!(cache.stats(), oracle.stats);
            for k in 0..KEYS {
                prop_assert_eq!(cache.contains(&k), oracle.entries.contains_key(&k), "key {}", k);
            }
        }
    }
}
