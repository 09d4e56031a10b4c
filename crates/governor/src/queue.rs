//! The shared FIFO wait queue.
//!
//! Every [`ResourcePool`](crate::ResourcePool) — each gateway-ladder
//! level, the PID controller's slots, each execution memory-grant pool —
//! queues waiters here: strict FIFO with a per-waiter deadline and O(1)
//! cancellation. The queue is a [`Slab`] of waiters plus a ring of their
//! [`SlotRef`] tickets: cancelling a waiter vacates its slot in O(1) and
//! leaves a stale ticket behind, which later pops recognise by its
//! generation mismatch and skip.

use throttledb_sim::{SimDuration, SimTime, Slab, SlotRef};

/// A ticket identifying one waiter in a [`WaitQueue`].
///
/// Keys are invalidated when the waiter is popped or cancelled; a stale key
/// never aliases a later waiter because the slot's generation is bumped on
/// every vacate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WaiterKey(SlotRef);

/// A waiter handed back by [`WaitQueue::pop_front`] or [`WaitQueue::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter<T> {
    /// The caller's payload.
    pub payload: T,
    /// When the waiter joined the queue.
    pub enqueued_at: SimTime,
    /// The instant after which the waiter should be abandoned.
    pub deadline: SimTime,
}

impl<T> Waiter<T> {
    /// Time spent queued as of `now` (zero if `now` precedes the enqueue).
    pub fn waited(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.enqueued_at)
    }
}

/// FIFO wait queue with deadlines and O(1) cancellation.
///
/// All operations are O(1) amortized: `push` and `cancel` are O(1) exact;
/// `pop_front`/`front` skip tickets invalidated by earlier cancels, each of
/// which is visited at most once over the queue's lifetime.
///
/// # Examples
///
/// ```
/// use throttledb_governor::WaitQueue;
/// use throttledb_sim::SimTime;
///
/// let mut q = WaitQueue::new();
/// let now = SimTime::from_secs(10);
/// let deadline = SimTime::from_secs(40);
/// let first = q.push("q1", now, deadline);
/// let second = q.push("q2", now, deadline);
///
/// // Cancelling is O(1) and hands back the waiter...
/// let cancelled = q.cancel(first).expect("still queued");
/// assert_eq!(cancelled.payload, "q1");
///
/// // ...and pops transparently skip the vacated ticket (strict FIFO
/// // over the survivors).
/// assert!(!q.contains(first) && q.contains(second));
/// let next = q.pop_front().expect("one waiter left");
/// assert_eq!(next.payload, "q2");
/// assert_eq!(next.deadline, deadline);
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct WaitQueue<T> {
    waiters: Slab<Waiter<T>>,
    order: std::collections::VecDeque<WaiterKey>,
}

impl<T> Default for WaitQueue<T> {
    fn default() -> Self {
        WaitQueue::new()
    }
}

impl<T> WaitQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        WaitQueue {
            waiters: Slab::new(),
            order: std::collections::VecDeque::new(),
        }
    }

    /// Number of live waiters.
    pub fn len(&self) -> usize {
        self.waiters.len()
    }

    /// True when no one is waiting.
    pub fn is_empty(&self) -> bool {
        self.waiters.is_empty()
    }

    /// Enqueue a waiter; returns the key used to cancel it in O(1).
    pub fn push(&mut self, payload: T, now: SimTime, deadline: SimTime) -> WaiterKey {
        let key = WaiterKey(self.waiters.insert(Waiter {
            payload,
            enqueued_at: now,
            deadline,
        }));
        self.order.push_back(key);
        key
    }

    /// True when `key` still refers to a live waiter.
    pub fn contains(&self, key: WaiterKey) -> bool {
        self.get(key).is_some()
    }

    /// The deadline of a live waiter.
    pub fn deadline(&self, key: WaiterKey) -> Option<SimTime> {
        self.get(key).map(|w| w.deadline)
    }

    /// Remove a waiter by key in O(1). Returns it if it was still queued.
    pub fn cancel(&mut self, key: WaiterKey) -> Option<Waiter<T>> {
        self.waiters.remove(key.0)
    }

    /// Pop the longest-waiting live waiter.
    pub fn pop_front(&mut self) -> Option<Waiter<T>> {
        loop {
            // A stale ticket (cancelled or popped waiter) cancels nothing.
            let key = self.order.pop_front()?;
            if let Some(waiter) = self.cancel(key) {
                return Some(waiter);
            }
        }
    }

    /// Peek at the longest-waiting live waiter's payload (drops stale
    /// tickets encountered at the head, hence `&mut`).
    pub fn front(&mut self) -> Option<&T> {
        self.skip_stale();
        let key = *self.order.front()?;
        self.get(key).map(|w| &w.payload)
    }

    /// Iterate over live waiters in FIFO order (skipping cancelled tickets).
    pub fn iter(&self) -> impl Iterator<Item = &Waiter<T>> {
        self.order.iter().filter_map(|&key| self.get(key))
    }

    fn get(&self, key: WaiterKey) -> Option<&Waiter<T>> {
        self.waiters.get(key.0)
    }

    fn skip_stale(&mut self) {
        while let Some(&key) = self.order.front() {
            if self.get(key).is_some() {
                break;
            }
            self.order.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_fifo_order() {
        let mut q = WaitQueue::new();
        for i in 0..5u32 {
            q.push(i, at(i as u64), SimTime::MAX);
        }
        assert_eq!(q.len(), 5);
        for i in 0..5u32 {
            let w = q.pop_front().unwrap();
            assert_eq!(w.payload, i);
            assert_eq!(w.enqueued_at, at(i as u64));
        }
        assert!(q.pop_front().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_is_o1_and_preserves_order_of_the_rest() {
        let mut q = WaitQueue::new();
        let _a = q.push("a", at(0), SimTime::MAX);
        let b = q.push("b", at(1), SimTime::MAX);
        let _c = q.push("c", at(2), SimTime::MAX);
        let cancelled = q.cancel(b).unwrap();
        assert_eq!(cancelled.payload, "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(b).is_none(), "double cancel is a no-op");
        assert_eq!(q.pop_front().unwrap().payload, "a");
        assert_eq!(q.pop_front().unwrap().payload, "c");
    }

    #[test]
    fn stale_keys_never_alias_reused_slots() {
        let mut q = WaitQueue::new();
        let a = q.push(1u32, at(0), SimTime::MAX);
        q.cancel(a);
        // The slot is reused, but the old key must stay dead.
        let b = q.push(2u32, at(1), SimTime::MAX);
        assert!(!q.contains(a));
        assert!(q.cancel(a).is_none());
        assert!(q.contains(b));
        assert_eq!(q.pop_front().unwrap().payload, 2);
    }

    #[test]
    fn front_skips_cancelled_heads() {
        let mut q = WaitQueue::new();
        let a = q.push("a", at(0), SimTime::MAX);
        let _b = q.push("b", at(1), SimTime::MAX);
        q.cancel(a);
        assert_eq!(q.front(), Some(&"b"));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn deadlines_and_wait_times_are_tracked() {
        let mut q = WaitQueue::new();
        let k = q.push("x", at(10), at(70));
        assert_eq!(q.deadline(k), Some(at(70)));
        let w = q.pop_front().unwrap();
        assert_eq!(w.deadline, at(70));
        assert_eq!(w.waited(at(25)), SimDuration::from_secs(15));
        assert_eq!(w.waited(at(5)), SimDuration::ZERO);
        assert_eq!(q.deadline(k), None);
    }

    #[test]
    fn iter_walks_live_waiters_in_order() {
        let mut q = WaitQueue::new();
        let _a = q.push(1u32, at(0), SimTime::MAX);
        let b = q.push(2u32, at(1), SimTime::MAX);
        let _c = q.push(3u32, at(2), SimTime::MAX);
        q.cancel(b);
        let seen: Vec<u32> = q.iter().map(|w| w.payload).collect();
        assert_eq!(seen, vec![1, 3]);
    }

    #[test]
    fn interleaved_push_pop_cancel_keeps_len_consistent() {
        let mut q = WaitQueue::new();
        let mut keys = Vec::new();
        for round in 0..50u64 {
            keys.push(q.push(round, at(round), SimTime::MAX));
            if round % 3 == 0 {
                q.pop_front();
            }
            if round % 7 == 0 {
                let k = keys[(round / 2) as usize];
                q.cancel(k);
            }
        }
        let mut drained = 0;
        let mut last = None;
        while let Some(w) = q.pop_front() {
            if let Some(prev) = last {
                assert!(w.payload > prev, "FIFO order violated");
            }
            last = Some(w.payload);
            drained += 1;
        }
        assert_eq!(q.len(), 0);
        assert!(drained > 0);
    }
}
