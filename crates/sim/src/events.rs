//! The discrete-event queue.
//!
//! Events are ordered by their scheduled [`SimTime`]; events scheduled for the
//! same instant are dispatched in FIFO order of insertion. This stability is
//! load-bearing for determinism: the engine schedules "compilation step
//! finished" and "gateway released" events at identical timestamps and the
//! experiment figures must not depend on heap tie-breaking.
//!
//! # Implementation
//!
//! [`EventQueue`] is one [`BinaryHeap`] ordered by each event's `(time, seq)`
//! key, where `seq` is a per-queue counter that never repeats: a push or a
//! pop costs O(log n) whatever the mix of delays, and the pop order is the
//! exact `(time, seq)` order that the scenario crate's recorded golden traces
//! pin end to end. The built-in scenarios keep under a thousand events
//! pending (`docs/EXPERIMENTS.md` §8), so the heap stays small and hot.
//! Payloads ride inline and the heap only grows to its high-water mark, so a
//! steady-state simulation allocates nothing per event.

use crate::clock::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// An event that has been scheduled onto the queue.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic sequence number used to break ties FIFO.
    pub seq: u64,
    /// The caller's payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A handle to a scheduled event, returned by [`EventQueue::schedule`] and
/// accepted by [`EventQueue::cancel`].
///
/// The handle is the event's sequence number, which the queue never hands
/// out twice, so cancelling an event that has already fired or was already
/// cancelled finds nothing and is reported as a no-op instead of killing an
/// innocent event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    seq: u64,
}

impl EventId {
    /// The event's FIFO sequence number (unique per queue).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// A priority queue of events keyed by virtual time with FIFO tie-breaking
/// (the [module docs](self) explain the layout).
///
/// Cancellation removes the record at once, so the heap never holds a dead
/// record and `len`, `is_empty` and [`EventQueue::peek_stamp`] are exact.
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    last_popped: SimTime,
    /// Events pending *outside* the heap: sequence numbers reserved through
    /// [`EventQueue::reserve_seq`] whose firing is driven by an external
    /// plane (the engine's arrival plane). They count toward depth
    /// accounting but deliberately not toward [`EventQueue::len`].
    external: usize,
    /// High-water mark of `len + external` over the queue's lifetime.
    peak_live: usize,
    /// Events popped over the queue's lifetime.
    dispatched: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("external", &self.external)
            .field("peak_len", &self.peak_live)
            .field("dispatched", &self.dispatched)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            external: 0,
            peak_live: 0,
            dispatched: 0,
        }
    }

    /// Number of pending events (cancelled events are excluded).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The most events that were ever pending at once — the experiment
    /// harness reports this as the run's peak queue depth.
    pub fn peak_len(&self) -> usize {
        self.peak_live
    }

    /// Total events popped over the queue's lifetime — the experiment
    /// harness divides this by wall time for an events/sec figure.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Reserve the next sequence number for an event whose firing is
    /// driven by an external plane (it never enters the heap). The
    /// reservation counts as one pending event for depth accounting,
    /// exactly as [`EventQueue::schedule`] would, and keeps the
    /// `(time, seq)` total order shared between internal and external
    /// events: whoever reserves/schedules first fires first at equal
    /// times. Pair every reservation with one [`EventQueue::external_pop`].
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.external += 1;
        self.peak_live = self.peak_live.max(self.heap.len() + self.external);
        seq
    }

    /// Record that an externally-pending event (see
    /// [`EventQueue::reserve_seq`]) fired at `at`: the dispatch counter
    /// and pop frontier advance exactly as if the event had popped off
    /// the queue itself.
    pub fn external_pop(&mut self, at: SimTime) {
        debug_assert!(self.external > 0, "external_pop without a reservation");
        debug_assert!(at >= self.last_popped, "external event fired in the past");
        self.external -= 1;
        self.dispatched += 1;
        self.last_popped = self.last_popped.max(at);
    }

    /// The sequence number the next [`EventQueue::schedule`] or
    /// [`EventQueue::reserve_seq`] will hand out. An external merge plane
    /// uses it to enumerate a run of consecutive reservations up front
    /// (see [`EventQueue::external_batch`]) instead of reserving one at a
    /// time.
    pub fn peek_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bulk form of a pure pop/reserve run: `popped` externally-pending
    /// events fired (the last at `at`) and `reserved` fresh reservations
    /// were taken, interleaved pop-then-reserve per event exactly as the
    /// one-at-a-time [`EventQueue::external_pop`] /
    /// [`EventQueue::reserve_seq`] pair would. Because each pop precedes
    /// its reservation, outstanding external reservations never exceed
    /// their starting count mid-run, so `peak_live` cannot advance and is
    /// deliberately left untouched. `reserved` is `popped` or
    /// `popped - 1` (the final event may end its stream).
    pub fn external_batch(&mut self, popped: u64, reserved: u64, at: SimTime) {
        debug_assert!(popped >= reserved && popped - reserved <= 1);
        debug_assert!(self.external > 0, "external_batch without a reservation");
        debug_assert!(at >= self.last_popped, "external run fired in the past");
        self.external -= (popped - reserved) as usize;
        self.dispatched += popped;
        self.last_popped = self.last_popped.max(at);
        self.next_seq += reserved;
    }

    /// `(time, seq)` of the next *internal* event, if any — the key an
    /// external plane compares its own candidates against when merging
    /// two event streams into one `(time, seq)` order. Externally
    /// reserved events are invisible here; their keys live with the
    /// caller.
    pub fn peek_stamp(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.at, e.seq))
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Scheduling into the past (before the last popped event) is a logic
    /// error in the simulation and panics in debug builds; in release builds
    /// the event is clamped to the current frontier so the run can proceed.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(
            at >= self.last_popped,
            "scheduled an event in the past: {} < {}",
            at,
            self.last_popped
        );
        let at = at.max(self.last_popped);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
        self.peak_live = self.peak_live.max(self.heap.len() + self.external);
        EventId { seq }
    }

    /// Cancel a scheduled event. Returns `true` if the event was still
    /// pending (and is now gone); `false` if it already fired or was already
    /// cancelled.
    ///
    /// The record is found by sequence number and removed in place — an
    /// O(n) pass, fine for an operation the engine's own loop never issues —
    /// so `len`, `is_empty` and [`EventQueue::peek_stamp`] account for the
    /// cancellation immediately.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let before = self.heap.len();
        self.heap.retain(|e| e.seq != id.seq);
        self.heap.len() != before
    }

    /// Pop the next event only if its `(time, seq)` key precedes `bound`,
    /// leaving later events queued. A bound of `(until, 0)` is the
    /// phase-boundary primitive: a driver can advance the simulation to a
    /// boundary, mutate the model (client count, workload mix, budgets), and
    /// continue, without disturbing events already scheduled at or beyond
    /// the boundary. A full key is the merge primitive: a loop that
    /// interleaves the queue with externally driven events (see
    /// [`EventQueue::reserve_seq`]) passes the smaller of its earliest
    /// external key and its window boundary, and makes one queue call per
    /// event either way.
    pub fn pop_before_stamp(&mut self, bound: (SimTime, u64)) -> Option<ScheduledEvent<E>> {
        if self.peek_stamp()? < bound {
            self.pop()
        } else {
            None
        }
    }

    /// Pop the next event in (time, insertion) order.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let event = self.heap.pop()?;
        self.last_popped = event.at;
        self.dispatched += 1;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;
    use crate::rng::SimRng;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(3), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn pop_before_respects_the_boundary() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(5), "b");
        q.schedule(SimTime::from_secs(5), "c");
        q.schedule(SimTime::from_secs(9), "d");
        // Events strictly before the boundary pop; the boundary itself and
        // everything after stay queued.
        let boundary = SimTime::from_secs(5);
        let mut drained = Vec::new();
        while let Some(e) = q.pop_before_stamp((boundary, 0)) {
            drained.push(e.payload);
        }
        assert_eq!(drained, vec!["a"]);
        assert_eq!(q.len(), 3);
        // The next window picks up exactly where the last one stopped.
        let mut rest = Vec::new();
        while let Some(e) = q.pop_before_stamp((SimTime::from_secs(10), 0)) {
            rest.push(e.payload);
        }
        assert_eq!(rest, vec!["b", "c", "d"]);
        assert!(q.pop_before_stamp((SimTime::MAX, 0)).is_none());
    }

    #[test]
    fn pop_before_stamp_breaks_same_instant_ties_by_seq() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(3);
        let a = q.schedule(t, "a");
        let external = q.reserve_seq();
        let b = q.schedule(t, "b");
        assert!(a.seq() < external && external < b.seq());
        // Against the external key only "a" precedes it at that instant.
        assert_eq!(q.pop_before_stamp((t, external)).unwrap().payload, "a");
        assert!(q.pop_before_stamp((t, external)).is_none());
        q.external_pop(t);
        // `(t, 0)` is the window boundary at `t`: nothing at `t` itself pops.
        assert!(q.pop_before_stamp((t, 0)).is_none());
        assert_eq!(q.pop_before_stamp((t, u64::MAX)).unwrap().payload, "b");
        assert!(q.pop_before_stamp((SimTime::MAX, u64::MAX)).is_none());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), "x");
        let y = q.schedule(SimTime::from_secs(4), "y");
        assert_eq!(q.peek_stamp(), Some((SimTime::from_secs(4), y.seq())));
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime::from_secs(4));
    }

    #[test]
    fn cancel_removes_a_pending_event_exactly_once() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        let b = q.schedule(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_stamp(), Some((SimTime::from_secs(2), b.seq())));
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "b");
        assert!(!q.cancel(b), "cancelling a fired event is a no-op");
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_head_never_shows_in_peek() {
        let mut q = EventQueue::new();
        let head = q.schedule(SimTime::from_secs(1), 1);
        let rest = q.schedule(SimTime::from_secs(3600), 2);
        q.cancel(head);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_stamp(), Some((SimTime::from_secs(3600), rest.seq())));
    }

    #[test]
    fn stale_handle_never_cancels_a_later_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.cancel(a);
        // `b` takes over the storage `a` vacated; the stale handle must not
        // cancel it.
        q.schedule(SimTime::from_secs(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().payload, "b");
    }

    #[test]
    fn no_deadline_sentinel_pops_in_order() {
        // `SimTime::MAX` is the governor's "no deadline" value: events at
        // the very end of time still pop in `(time, seq)` order.
        let mut q = EventQueue::new();
        let times = [
            SimTime::from_micros(u64::MAX - 1),
            SimTime::MAX,
            SimTime::from_micros(5),
            SimTime::MAX,
        ];
        for (i, t) in times.iter().enumerate() {
            q.schedule(*t, i);
        }
        let mut popped = Vec::new();
        while let Some(stamp) = q.peek_stamp() {
            if popped.len() == 3 {
                // Scheduled while earlier sentinels wait: pops behind them.
                q.schedule(SimTime::MAX, 4);
            }
            let e = q.pop().unwrap();
            assert_eq!((e.at, e.seq), stamp);
            popped.push((e.at, e.payload));
        }
        assert_eq!(
            popped,
            vec![
                (times[2], 2),
                (times[0], 0),
                (SimTime::MAX, 1),
                (SimTime::MAX, 3),
                (SimTime::MAX, 4),
            ]
        );
        assert!(q.is_empty() && q.pop().is_none());
    }

    #[test]
    fn external_reservations_share_the_seq_space_and_depth_accounting() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        let r = q.reserve_seq();
        let b = q.schedule(SimTime::from_secs(2), "b");
        // One shared monotone sequence space across both planes.
        assert_eq!(r, a.seq() + 1);
        assert_eq!(b.seq(), r + 1);
        // The reservation counts toward depth but not toward len().
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak_len(), 3);
        // peek_stamp sees only internal events.
        assert_eq!(q.peek_stamp(), Some((SimTime::from_secs(1), a.seq())));
        assert_eq!(q.pop().unwrap().payload, "a");
        // The external event fires between the two internal ones.
        q.external_pop(SimTime::from_millis(1_500));
        assert_eq!(q.dispatched(), 2);
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.dispatched(), 3);
        // The frontier advanced through the external pop: scheduling at
        // the external fire time is not "the past".
        assert_eq!(q.peek_stamp(), None);
    }

    #[test]
    fn external_accounting_holds_past_4096_pending() {
        // The arrival plane's reservations at a depth no built-in scenario
        // reaches: depth is `len + reservations`, a bulk pop/reserve run
        // moves the counters exactly as its one-at-a-time form would, and
        // none of it disturbs the internal events' order.
        const N: u64 = 4_500;
        let mut q = EventQueue::new();
        let mut rng = SimRng::seed_from_u64(5);
        for i in 0..N {
            q.schedule(SimTime::from_millis(rng.uniform_u64(1_000, 600_000)), i);
            if i % 9 == 0 {
                q.reserve_seq();
            }
        }
        let reserved = N.div_ceil(9);
        assert_eq!(q.len() as u64, N);
        assert_eq!(q.peak_len() as u64, N + reserved);
        assert_eq!(q.peek_seq(), N + reserved);
        // 1 000 external arrivals fire before any internal event; the last
        // one ends its stream, so one reservation is not renewed.
        q.external_batch(1_000, 999, SimTime::from_millis(900));
        assert_eq!(q.dispatched(), 1_000);
        assert_eq!(q.peek_seq(), N + reserved + 999);
        q.external_pop(SimTime::from_millis(950));
        q.reserve_seq();
        assert_eq!(q.peak_len() as u64, N + reserved, "no new high-water mark");
        let mut last = (SimTime::from_millis(950), 0);
        while let Some(e) = q.pop() {
            assert!((e.at, e.seq) > last);
            last = (e.at, e.seq);
        }
        assert_eq!(q.dispatched(), 1_001 + N);
        assert_eq!(q.peak_len() as u64, N + reserved);
    }

    #[test]
    fn peek_stamp_names_the_next_pop() {
        let mut q = EventQueue::new();
        let mut rng = SimRng::seed_from_u64(7);
        for i in 0..300u64 {
            q.schedule(SimTime::from_millis(rng.uniform_u64(0, 90_000)), i);
        }
        while let Some((at, seq)) = q.peek_stamp() {
            let e = q.pop().unwrap();
            assert_eq!((e.at, e.seq), (at, seq));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn counters_track_depth_and_dispatch() {
        let mut q = EventQueue::new();
        for s in 0..10u64 {
            q.schedule(SimTime::from_secs(s), s);
        }
        assert_eq!(q.peak_len(), 10);
        for _ in 0..4 {
            q.pop();
        }
        q.schedule(SimTime::from_secs(20), 99);
        assert_eq!(q.peak_len(), 10, "peak is a high-water mark");
        assert_eq!(q.dispatched(), 4);
        while q.pop().is_some() {}
        assert_eq!(q.dispatched(), 11);
    }

    /// The naive reference model for the differential tests: a sorted vec
    /// of `(time, seq, payload)` with immediate removal on cancel.
    struct ModelQueue<P> {
        pending: Vec<(SimTime, u64, P)>,
        last_popped: SimTime,
    }

    impl<P> ModelQueue<P> {
        fn new() -> Self {
            ModelQueue {
                pending: Vec::new(),
                last_popped: SimTime::ZERO,
            }
        }
        fn schedule(&mut self, at: SimTime, seq: u64, payload: P) {
            let at = at.max(self.last_popped);
            let i = self.pending.partition_point(|e| (e.0, e.1) < (at, seq));
            self.pending.insert(i, (at, seq, payload));
        }
        fn pop(&mut self) -> Option<(SimTime, u64, P)> {
            if self.pending.is_empty() {
                return None;
            }
            let e = self.pending.remove(0);
            self.last_popped = e.0;
            Some(e)
        }
        fn pop_before_stamp(&mut self, bound: (SimTime, u64)) -> Option<(SimTime, u64, P)> {
            if self.peek_stamp()? < bound {
                self.pop()
            } else {
                None
            }
        }
        fn cancel(&mut self, seq: u64) -> bool {
            let before = self.pending.len();
            self.pending.retain(|(_, s, _)| *s != seq);
            self.pending.len() != before
        }
        fn peek_stamp(&self) -> Option<(SimTime, u64)> {
            self.pending.first().map(|(t, s, _)| (*t, *s))
        }
    }

    /// Everything observable about a popped event (`ScheduledEvent`'s own
    /// equality ignores the payload).
    fn parts<P>(e: ScheduledEvent<P>) -> (SimTime, u64, P) {
        (e.at, e.seq, e.payload)
    }

    #[test]
    fn queue_and_heap_agree_on_a_mixed_workload() {
        // Differential check against the sorted-vec model with the pending
        // set held past 4 096 events (deeper than any built-in scenario
        // runs): pops interleaved with schedules relative to the popped
        // time — same-instant, sub-second, think-time and hours-out delays —
        // plus bounded pops and cancellations of random pending events.
        const PENDING: usize = 5_000;
        let mut queue = EventQueue::new();
        let mut model = ModelQueue::new();
        let mut rng = SimRng::seed_from_u64(99);
        let mut payload = 0u64;
        fn delay(rng: &mut SimRng) -> SimDuration {
            SimDuration::from_micros(match rng.uniform_u64(0, 9) {
                0 => 0,
                1 | 2 => rng.uniform_u64(0, 50_000),
                3..=8 => rng.uniform_u64(0, 60_000_000),
                _ => rng.uniform_u64(0, 20_000_000_000),
            })
        }
        let mut cancelled = 0;
        let mut bounded_pops = 0;
        for round in 0..12_000usize {
            // Top the pending set back up, relative to the pop frontier.
            while queue.len() < PENDING {
                let at = queue.last_popped + delay(&mut rng);
                let id = queue.schedule(at, payload);
                model.schedule(at, id.seq(), payload);
                payload += 1;
            }
            assert!(queue.len() >= 4_096);
            assert_eq!(queue.peek_stamp(), model.peek_stamp());
            if round % 5 == 0 {
                // A bound at the head's own key holds it back; one seq
                // later releases exactly the head.
                let (at, seq) = model.peek_stamp().unwrap();
                assert!(queue.pop_before_stamp((at, seq)).is_none());
                let popped = queue.pop_before_stamp((at, seq + 1)).map(parts);
                assert!(popped.is_some());
                assert_eq!(popped, model.pop_before_stamp((at, seq + 1)));
                bounded_pops += 1;
            }
            if round % 7 == 0 {
                let pick = rng.uniform_u64(0, model.pending.len() as u64 - 1) as usize;
                let id = EventId {
                    seq: model.pending[pick].1,
                };
                assert!(queue.cancel(id) && model.cancel(id.seq()));
                assert!(!queue.cancel(id), "double cancel is a no-op");
                cancelled += 1;
            }
            for _ in 0..rng.uniform_u64(1, 3) {
                assert_eq!(queue.pop().map(parts), model.pop());
            }
            assert_eq!(queue.len(), model.pending.len());
        }
        assert!(
            cancelled > 1_000 && bounded_pops > 1_000,
            "the run must cancel and bound-pop: {cancelled}, {bounded_pops}"
        );
        // Drain: the two stay in lockstep down to empty.
        loop {
            assert_eq!(queue.peek_stamp(), model.peek_stamp());
            let popped = queue.pop().map(parts);
            assert_eq!(popped, model.pop());
            if popped.is_none() {
                break;
            }
        }
    }

    proptest! {
        #[test]
        fn prop_pop_order_is_monotone(
            times in proptest::collection::vec(0u64..10_000, 1..200),
        ) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some(e) = q.pop() {
                prop_assert!(e.at >= last);
                last = e.at;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        #[test]
        fn prop_equal_times_preserve_insertion_order(n in 1usize..100) {
            let mut q = EventQueue::new();
            let t = SimTime::from_secs(1) + SimDuration::from_micros(n as u64);
            for i in 0..n {
                q.schedule(t, i);
            }
            let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
            prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
        }

        /// Differential check against the sorted-vec model: a fill of
        /// times spread over minutes, then a full drain, pop for pop.
        #[test]
        fn prop_queue_matches_heap_exactly(
            times in proptest::collection::vec(0u64..200_000_000, 1..300),
        ) {
            let mut queue = EventQueue::new();
            let mut model = ModelQueue::new();
            for (i, t) in times.iter().enumerate() {
                let id = queue.schedule(SimTime::from_micros(*t), i);
                model.schedule(SimTime::from_micros(*t), id.seq(), i);
            }
            loop {
                prop_assert_eq!(queue.peek_stamp(), model.peek_stamp());
                let popped = queue.pop().map(parts);
                prop_assert_eq!(popped, model.pop());
                if popped.is_none() {
                    break;
                }
            }
        }

        /// Interleave push / pop / bounded pop / cancel against a naive
        /// sorted-vec model and require `len`, `is_empty`, `peek_stamp` and
        /// every popped event to agree — i.e. a cancelled event must vanish
        /// from the observable state at once, wherever it sat in the heap.
        ///
        /// Ops decode as: 0 = push, 1 = pop, 2 = pop before a boundary,
        /// 3 = cancel one of the previously scheduled events.
        #[test]
        fn prop_cancellations_stay_invisible(
            ops in proptest::collection::vec((0u8..4, 0u64..200_000_000), 1..250),
        ) {
            let mut q = EventQueue::new();
            let mut model = ModelQueue::new();
            let mut handles: Vec<EventId> = Vec::new();
            let mut payload = 0u32;
            // Scheduling into the past is a (debug-asserted) logic error, so
            // clamp generated times to the pop frontier like a caller would.
            let mut frontier = SimTime::ZERO;
            for (op, arg) in ops {
                match op {
                    0 => {
                        let at = SimTime::from_micros(arg).max(frontier);
                        let id = q.schedule(at, payload);
                        model.schedule(at, id.seq(), payload);
                        handles.push(id);
                        payload += 1;
                    }
                    1 => {
                        let got = q.pop().map(|e| (e.at, e.seq, e.payload));
                        if let Some((at, _, _)) = got {
                            frontier = at;
                        }
                        prop_assert_eq!(got, model.pop());
                    }
                    2 => {
                        let until = SimTime::from_micros(arg);
                        let got = q.pop_before_stamp((until, 0)).map(|e| (e.at, e.seq, e.payload));
                        if let Some((at, _, _)) = got {
                            frontier = at;
                        }
                        prop_assert_eq!(got, model.pop_before_stamp((until, 0)));
                    }
                    _ => {
                        if !handles.is_empty() {
                            let id = handles[(arg as usize) % handles.len()];
                            prop_assert_eq!(q.cancel(id), model.cancel(id.seq()));
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len());
                prop_assert_eq!(q.is_empty(), model.pending.is_empty());
                prop_assert_eq!(q.peek_stamp(), model.peek_stamp());
            }
        }
    }
}
