//! # throttledb-plancache
//!
//! The compiled-plan cache. In the paper's problem statement, excessive
//! compilation memory "causes excessive eviction of compiled plans from the
//! plan cache (forcing additional compilation CPU load in the future)" — so
//! the cache matters twice: it is a memory consumer the broker can squeeze,
//! and its hit rate determines how many compilations happen at all. The
//! SALES workload deliberately defeats it by uniquifying every query (§5.1).
//!
//! The eviction policy is cost-based: each entry carries the (estimated)
//! cost of recompiling it, and eviction removes the entries with the lowest
//! `recompile_cost / size` value first — cheap-to-rebuild, memory-hungry
//! plans go first, exactly the trade-off a production cache makes.
//!
//! Victims come from a small sorted buffer of the lowest-ranked entries
//! rather than a scan per eviction: one pass over the entries refills it
//! with up to 32 of them, so a full cache evicting once per insert pays
//! one scan per up to 32 evictions.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use throttledb_membroker::Clerk;

/// A cached plan entry's metadata (the engine stores its plan separately).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry<P> {
    /// The cached payload (a compiled plan).
    pub plan: P,
    /// Size of the cached plan in bytes.
    pub size_bytes: u64,
    /// Estimated cost (seconds) to recompile if evicted.
    pub recompile_cost: f64,
    /// Number of times this entry has been reused.
    pub hits: u64,
    /// Logical insertion/last-touch tick (for LRU tie-breaks).
    last_touch: u64,
}

/// Counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCacheStats {
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room or on shrink requests.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
}

/// Most eviction candidates the cache buffers between scans.
const CANDIDATES: usize = 32;

/// A size-bounded plan cache with cost-based eviction.
///
/// Generic over the key type `K` (default `String`, the classic
/// normalized-query-text key). The engine keys its cache with a compact
/// 16-byte digest type instead, so the admission hot path never clones
/// query text — see `throttledb-engine`'s `PlanKey`.
#[derive(Debug)]
pub struct PlanCache<P, K = String> {
    capacity_bytes: Mutex<u64>,
    inner: Mutex<Inner<P, K>>,
    clerk: Option<Clerk>,
}

#[derive(Debug)]
struct Inner<P, K> {
    entries: HashMap<K, CacheEntry<P>>,
    used_bytes: u64,
    tick: u64,
    stats: PlanCacheStats,
    candidates: Candidates<K>,
}

impl<P> CacheEntry<P> {
    /// What evicting this entry would cost: recompile seconds per byte,
    /// weighted by its reuse.
    fn value(&self) -> f64 {
        self.recompile_cost * (self.hits + 1) as f64 / self.size_bytes.max(1) as f64
    }
}

/// The eviction-candidate buffer: records of the lowest-ranked entries,
/// highest rank first, so the next victim is the last.
///
/// Invariant: every live entry without a current record here ranks at or
/// above the first (worst) record; an empty buffer promises nothing. A
/// record goes stale when its entry is hit, replaced or evicted, and is
/// checked against the entry when popped. The buffer is unallocated until
/// the first eviction.
#[derive(Debug)]
struct Candidates<K> {
    records: Vec<Candidate<K>>,
}

/// An entry's eviction rank when it was buffered.
#[derive(Debug)]
struct Candidate<K> {
    value: f64,
    last_touch: u64,
    key: K,
}

impl<K> Candidate<K> {
    /// Evicted before an entry of rank `(value, last_touch)`: lower value,
    /// then touched longer ago. Values are never NaN (costs are finite and
    /// non-negative) and touches are unique, so ranks are totally ordered.
    fn ranks_below(&self, value: f64, last_touch: u64) -> bool {
        self.value < value || (self.value == value && self.last_touch < last_touch)
    }
}

impl<K> Candidates<K> {
    /// Whether a rank must be recorded to keep the invariant: it is below
    /// the worst record of a non-empty buffer.
    fn wants(&self, value: f64, last_touch: u64) -> bool {
        self.records
            .first()
            .is_some_and(|worst| !worst.ranks_below(value, last_touch))
    }

    /// Record a rank in order, dropping the worst record when full (which
    /// keeps the invariant: the dropped entry ranks above the new worst).
    fn keep(&mut self, value: f64, last_touch: u64, key: K) {
        if self.records.len() == CANDIDATES {
            self.records.remove(0);
        }
        let at = self
            .records
            .partition_point(|c| !c.ranks_below(value, last_touch));
        self.records.insert(
            at,
            Candidate {
                value,
                last_touch,
                key,
            },
        );
    }
}

impl<P, K: Eq + Hash + Clone> Inner<P, K> {
    /// The lowest-ranked entry's key: the buffer's last current record,
    /// refilled by one pass over the entries whenever it runs dry.
    fn next_victim(&mut self) -> Option<K> {
        loop {
            if self.candidates.records.is_empty() {
                self.refill();
            }
            let candidate = self.candidates.records.pop()?;
            let current = self.entries.get(&candidate.key).is_some_and(|e| {
                e.last_touch == candidate.last_touch && e.value() == candidate.value
            });
            if current {
                return Some(candidate.key);
            }
        }
    }

    /// Buffer the [`CANDIDATES`] lowest-ranked entries, in place: the
    /// buffer's only allocation is its first.
    fn refill(&mut self) {
        let candidates = &mut self.candidates;
        candidates.records.reserve_exact(CANDIDATES);
        for (key, entry) in &self.entries {
            let (value, last_touch) = (entry.value(), entry.last_touch);
            if candidates.records.len() < CANDIDATES || candidates.wants(value, last_touch) {
                candidates.keep(value, last_touch, key.clone());
            }
        }
    }
}

impl<P: Clone, K: Eq + Hash + Clone> PlanCache<P, K> {
    /// A cache bounded by `capacity_bytes`, optionally reporting memory to a
    /// broker clerk.
    pub fn new(capacity_bytes: u64, clerk: Option<Clerk>) -> Self {
        PlanCache {
            capacity_bytes: Mutex::new(capacity_bytes),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                used_bytes: 0,
                tick: 0,
                stats: PlanCacheStats::default(),
                candidates: Candidates {
                    records: Vec::new(),
                },
            }),
            clerk,
        }
    }

    /// The configured capacity.
    pub fn capacity_bytes(&self) -> u64 {
        *self.capacity_bytes.lock()
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used_bytes
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache behaviour counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.inner.lock().stats
    }

    /// True when `key` is cached. Unlike [`PlanCache::get`] this is not a
    /// use: it moves neither the entry's hit count nor its recency.
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.inner.lock().entries.contains_key(key)
    }

    /// Look up a plan by its key (e.g. normalized query text or a digest).
    pub fn get<Q>(&self, key: &Q) -> Option<P>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(e) => {
                e.hits += 1;
                e.last_touch = tick;
                let plan = e.plan.clone();
                let value = e.value();
                inner.stats.hits += 1;
                if inner.candidates.wants(value, tick) {
                    let (k, _) = inner.entries.get_key_value(key).expect("just hit");
                    let k = k.clone();
                    inner.candidates.keep(value, tick, k);
                }
                Some(plan)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a plan. Evicts lower-value entries as needed; if the plan is
    /// larger than the whole cache it is simply not cached.
    ///
    /// Panics unless `recompile_cost` is finite and non-negative: eviction
    /// ranks entries by it, and a NaN would leave them without an order.
    pub fn insert(&self, key: impl Into<K>, plan: P, size_bytes: u64, recompile_cost: f64) {
        assert!(
            recompile_cost.is_finite() && recompile_cost >= 0.0,
            "recompile cost must be finite and non-negative, got {recompile_cost}"
        );
        let capacity = *self.capacity_bytes.lock();
        if size_bytes > capacity {
            return;
        }
        let key = key.into();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // Replace an existing entry outright.
        if let Some(old) = inner.entries.remove(&key) {
            inner.used_bytes -= old.size_bytes;
            if let Some(c) = &self.clerk {
                c.free(old.size_bytes);
            }
        }
        self.evict_until(&mut inner, capacity.saturating_sub(size_bytes));
        let entry = CacheEntry {
            plan,
            size_bytes,
            recompile_cost,
            hits: 0,
            last_touch: tick,
        };
        if inner.candidates.wants(entry.value(), tick) {
            inner.candidates.keep(entry.value(), tick, key.clone());
        }
        inner.entries.insert(key, entry);
        inner.used_bytes += size_bytes;
        inner.stats.insertions += 1;
        if let Some(c) = &self.clerk {
            c.allocate(size_bytes);
        }
    }

    /// Respond to memory pressure: shrink the cache to at most
    /// `target_bytes`, evicting the lowest-value entries. Returns the number
    /// of bytes released.
    pub fn shrink_to(&self, target_bytes: u64) -> u64 {
        let mut inner = self.inner.lock();
        let before = inner.used_bytes;
        self.evict_until(&mut inner, target_bytes);
        before - inner.used_bytes
    }

    /// Evict entries (lowest `value = recompile_cost·(hits+1) / size`, then
    /// least recently touched) until `used_bytes <= limit`.
    fn evict_until(&self, inner: &mut Inner<P, K>, limit: u64) {
        while inner.used_bytes > limit {
            let Some(key) = inner.next_victim() else {
                break;
            };
            let e = inner.entries.remove(&key).expect("victims are live");
            inner.used_bytes -= e.size_bytes;
            inner.stats.evictions += 1;
            if let Some(c) = &self.clerk {
                c.free(e.size_bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};

    const MB: u64 = 1 << 20;

    #[test]
    fn hit_and_miss_accounting() {
        let cache: PlanCache<&'static str> = PlanCache::new(10 * MB, None);
        assert!(cache.get("q1").is_none());
        cache.insert("q1", "plan1", MB, 5.0);
        assert_eq!(cache.get("q1"), Some("plan1"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn capacity_is_enforced_via_eviction() {
        let cache: PlanCache<u32> = PlanCache::new(5 * MB, None);
        for i in 0..10u32 {
            cache.insert(format!("q{i}"), i, MB, 1.0);
        }
        assert!(cache.used_bytes() <= 5 * MB);
        assert!(cache.len() <= 5);
        assert!(cache.stats().evictions >= 5);
    }

    #[test]
    fn expensive_to_recompile_plans_are_kept() {
        let cache: PlanCache<&'static str> = PlanCache::new(3 * MB, None);
        cache.insert("cheap", "a", MB, 0.1);
        cache.insert("pricey", "b", MB, 100.0);
        cache.insert("newcomer1", "c", MB, 1.0);
        cache.insert("newcomer2", "d", MB, 1.0);
        // The cheap-to-recompile plan should be the one that went.
        assert!(cache.get("pricey").is_some());
        assert!(cache.get("cheap").is_none());
    }

    #[test]
    fn frequently_used_plans_are_kept() {
        let cache: PlanCache<&'static str> = PlanCache::new(3 * MB, None);
        cache.insert("hot", "a", MB, 1.0);
        for _ in 0..50 {
            cache.get("hot");
        }
        cache.insert("cold", "b", MB, 1.0);
        cache.insert("x1", "c", MB, 1.0);
        cache.insert("x2", "d", MB, 1.0);
        assert!(
            cache.get("hot").is_some(),
            "hot entry must survive eviction"
        );
    }

    #[test]
    fn shrink_to_responds_to_pressure() {
        let broker = MemoryBroker::new(BrokerConfig::with_total_memory(1 << 30));
        let clerk = broker.register(SubcomponentKind::PlanCache);
        let cache: PlanCache<u32> = PlanCache::new(100 * MB, Some(clerk.clone()));
        for i in 0..20u32 {
            cache.insert(format!("q{i}"), i, MB, 1.0);
        }
        assert_eq!(clerk.used_bytes(), 20 * MB);
        let released = cache.shrink_to(5 * MB);
        assert_eq!(released, 15 * MB);
        assert_eq!(cache.used_bytes(), 5 * MB);
        assert_eq!(clerk.used_bytes(), 5 * MB);
    }

    #[test]
    fn oversized_plans_are_not_cached() {
        let cache: PlanCache<&'static str> = PlanCache::new(MB, None);
        cache.insert("huge", "x", 10 * MB, 100.0);
        assert!(cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "recompile cost must be finite and non-negative")]
    fn nan_costs_are_rejected() {
        let cache: PlanCache<u32> = PlanCache::new(10 * MB, None);
        cache.insert("q", 1, MB, f64::NAN);
    }

    #[test]
    fn contains_is_not_a_use() {
        let cache: PlanCache<u32> = PlanCache::new(2 * MB, None);
        cache.insert("old", 1, MB, 1.0);
        cache.insert("new", 2, MB, 1.0);
        assert!(cache.contains("old"));
        // `old` stays the least recently used, so it is the one that goes.
        cache.insert("newest", 3, MB, 1.0);
        assert!(!cache.contains("old"));
        assert!(cache.contains("new"));
        assert_eq!(cache.stats().hits + cache.stats().misses, 0);
    }

    #[test]
    fn replacing_a_key_does_not_leak_bytes() {
        let cache: PlanCache<u32> = PlanCache::new(10 * MB, None);
        cache.insert("q", 1, 2 * MB, 1.0);
        cache.insert("q", 2, 3 * MB, 1.0);
        assert_eq!(cache.used_bytes(), 3 * MB);
        assert_eq!(cache.get("q"), Some(2));
        assert_eq!(cache.len(), 1);
    }
}
