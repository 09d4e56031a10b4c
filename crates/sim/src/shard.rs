//! Deterministic epoch-barrier exchange primitives for sharded runs.
//!
//! A sharded simulation splits one logical event schedule across N
//! producers. Each producer emits its events in nondecreasing
//! `(time, seq)` order into its own [`EpochMailbox`] and periodically
//! **seals** the mailbox up to a barrier time — a promise that no event
//! before that time will ever arrive from it again. [`EpochMerge`] then
//! replays the union of all mailboxes in global `(time, seq, shard)`
//! order, releasing an event only once every other mailbox provably
//! cannot still produce an earlier one (its head is later, or it is
//! sealed past the candidate). The merged order is therefore identical
//! to what a single queue holding every event would produce — the
//! property the in-module proptests check against a sorted-vec oracle,
//! and the property the engine's threaded arrival feed builds on.
//!
//! Sequence numbers are expected to come from one shared counter (the
//! engine reserves them through `EventQueue::reserve_seq`), so `(time,
//! seq)` is already a total order; the shard index only breaks the
//! (impossible in practice) tie of two mailboxes claiming the same seq.

use crate::clock::SimTime;
use std::collections::VecDeque;

/// An item stamped with its global schedule key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamped<T> {
    /// Virtual time the item fires at.
    pub at: SimTime,
    /// Global FIFO tie-break (shared counter across all producers).
    pub seq: u64,
    /// The payload.
    pub item: T,
}

/// One producer's ordered, seal-able event stream.
///
/// Pushes must arrive in nondecreasing `(at, seq)` order and never
/// before the sealed frontier; both are debug-asserted. Sealing is
/// monotone.
#[derive(Debug, Clone, Default)]
pub struct EpochMailbox<T> {
    queue: VecDeque<Stamped<T>>,
    sealed_until: SimTime,
}

impl<T> EpochMailbox<T> {
    /// An empty, unsealed mailbox.
    pub fn new() -> Self {
        EpochMailbox {
            queue: VecDeque::new(),
            sealed_until: SimTime::ZERO,
        }
    }

    /// Append an event. Must not precede the mailbox tail or the sealed
    /// frontier.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        debug_assert!(
            self.queue
                .back()
                .map_or(true, |b| (b.at, b.seq) <= (at, seq)),
            "mailbox push out of (time, seq) order"
        );
        debug_assert!(at >= self.sealed_until, "push behind the sealed frontier");
        self.queue.push_back(Stamped { at, seq, item });
    }

    /// Promise that no event before `up_to` will ever be pushed again.
    /// Sealing backward is a no-op (the frontier is monotone).
    pub fn seal(&mut self, up_to: SimTime) {
        self.sealed_until = self.sealed_until.max(up_to);
    }

    /// The sealed frontier: events strictly before it can no longer
    /// arrive.
    pub fn sealed_until(&self) -> SimTime {
        self.sealed_until
    }

    /// The earliest queued event, if any.
    pub fn front(&self) -> Option<&Stamped<T>> {
        self.queue.front()
    }

    /// Remove and return the earliest queued event, if any.
    pub fn pop_front(&mut self) -> Option<Stamped<T>> {
        self.queue.pop_front()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Deterministic merge over per-shard [`EpochMailbox`]es: the exchange
/// half of the epoch-barrier protocol (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct EpochMerge<T> {
    mailboxes: Vec<EpochMailbox<T>>,
}

impl<T> EpochMerge<T> {
    /// A merge over `shards` empty mailboxes.
    pub fn new(shards: usize) -> Self {
        EpochMerge {
            mailboxes: (0..shards).map(|_| EpochMailbox::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.mailboxes.len()
    }

    /// Append an event to `shard`'s mailbox.
    pub fn push(&mut self, shard: usize, at: SimTime, seq: u64, item: T) {
        self.mailboxes[shard].push(at, seq, item);
    }

    /// Seal `shard`'s mailbox up to the barrier time `up_to`.
    pub fn seal(&mut self, shard: usize, up_to: SimTime) {
        self.mailboxes[shard].seal(up_to);
    }

    /// Total queued events across all shards.
    pub fn len(&self) -> usize {
        self.mailboxes.iter().map(|m| m.len()).sum()
    }

    /// True when no shard has queued events.
    pub fn is_empty(&self) -> bool {
        self.mailboxes.iter().all(|m| m.is_empty())
    }

    /// The key of the next event the merge would release, if one is
    /// releasable now (see [`EpochMerge::pop`]).
    pub fn peek_key(&self) -> Option<(SimTime, u64, usize)> {
        let (shard, head) = self
            .mailboxes
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.front().map(|h| (i, h)))
            .min_by_key(|(i, h)| (h.at, h.seq, *i))?;
        // Every empty mailbox must be sealed strictly past the candidate:
        // a shard sealed exactly *to* the candidate time could still push
        // an event at that time carrying an earlier seq.
        let safe = self
            .mailboxes
            .iter()
            .all(|m| !m.is_empty() || head.at < m.sealed_until());
        safe.then_some((head.at, head.seq, shard))
    }

    /// Release the globally next event — the minimum `(time, seq,
    /// shard)` over all mailbox heads — but only once no unsealed
    /// mailbox could still produce an earlier one. Returns `None` when
    /// the merge is empty *or* blocked waiting for a barrier.
    pub fn pop(&mut self) -> Option<(usize, Stamped<T>)> {
        let (_, _, shard) = self.peek_key()?;
        let stamped = self.mailboxes[shard].pop_front().expect("peeked head pops");
        Some((shard, stamped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn merge_releases_nothing_until_every_shard_is_sealed_past_the_head() {
        let mut m: EpochMerge<&str> = EpochMerge::new(3);
        m.push(0, t(10), 0, "a");
        // Shards 1 and 2 are unsealed: "a" could still be preceded.
        assert_eq!(m.pop(), None);
        m.seal(1, t(11));
        assert_eq!(m.pop(), None, "shard 2 still unsealed");
        // Sealing exactly *to* the head time is not enough: an equal-time,
        // smaller-seq event could still arrive.
        m.seal(2, t(10));
        assert_eq!(m.pop(), None);
        m.seal(2, t(11));
        assert_eq!(
            m.pop(),
            Some((
                0,
                Stamped {
                    at: t(10),
                    seq: 0,
                    item: "a"
                }
            ))
        );
        assert!(m.is_empty());
    }

    #[test]
    fn same_time_ties_break_by_seq_across_shards() {
        let mut m: EpochMerge<u32> = EpochMerge::new(2);
        // Generation order (per shard) disagrees with seq order at a tie.
        m.push(1, t(5), 1, 11);
        m.push(0, t(5), 2, 22);
        m.push(1, t(5), 3, 33);
        for s in 0..2 {
            m.seal(s, t(6));
        }
        let order: Vec<_> = std::iter::from_fn(|| m.pop()).map(|(_, e)| e.seq).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn barrier_straddling_events_wait_for_the_next_epoch() {
        let mut m: EpochMerge<&str> = EpochMerge::new(2);
        m.push(0, t(3), 0, "in-epoch");
        m.push(0, t(20), 1, "straddler");
        m.seal(0, t(10));
        m.seal(1, t(10));
        assert_eq!(m.pop().map(|(_, e)| e.item), Some("in-epoch"));
        // The straddler fires at 20 ≥ the barrier at 10: it must wait.
        assert_eq!(m.pop(), None);
        m.seal(0, t(30));
        m.seal(1, t(30));
        assert_eq!(m.pop().map(|(_, e)| e.item), Some("straddler"));
    }

    proptest! {
        /// The protocol's whole contract against a single sorted-vec
        /// queue: deal random (time ties included) events across shards,
        /// deliver them epoch by epoch (empty epochs included), and
        /// require (a) the merge never releases an event while an
        /// unsealed shard could still precede it, and (b) after the final
        /// barrier the released order equals the oracle's sorted order
        /// exactly.
        #[test]
        fn prop_epoch_merge_matches_a_single_sorted_queue(
            times in proptest::collection::vec(0u64..400, 0..120),
            shards in 1usize..5,
            epoch_us in 1u64..130,
        ) {
            // Global seq = index in time-sorted order, as one shared
            // counter reserving in schedule order would produce.
            let mut events: Vec<(u64, usize)> = times
                .iter()
                .enumerate()
                .map(|(i, &at)| (at, i))
                .collect();
            events.sort();
            let events: Vec<(u64, u64, usize)> = events
                .into_iter()
                .enumerate()
                .map(|(seq, (at, i))| (at, seq as u64, i % shards))
                .collect();
            let oracle: Vec<(u64, u64)> =
                events.iter().map(|&(at, seq, _)| (at, seq)).collect();

            let mut merge: EpochMerge<usize> = EpochMerge::new(shards);
            let mut released: Vec<(u64, u64)> = Vec::new();
            let mut barrier = 0u64;
            let horizon = times.iter().copied().max().unwrap_or(0) + 1;
            while barrier < horizon + epoch_us {
                let next = barrier + epoch_us;
                // Each shard ships the epoch's slice of its stream, then
                // seals to the barrier. Slices can be empty.
                for s in 0..shards {
                    for &(at, seq, shard) in &events {
                        if shard == s && at >= barrier && at < next {
                            merge.push(s, t(at), seq, shard);
                        }
                    }
                    merge.seal(s, t(next));
                }
                // Drain everything releasable at this barrier; nothing
                // released may fire at or after the seal frontier of an
                // empty mailbox (checked inside peek_key), and the order
                // must be a prefix of the oracle.
                while let Some((shard, e)) = merge.pop() {
                    prop_assert_eq!(e.item, shard);
                    released.push((e.at.as_micros(), e.seq));
                }
                let n = released.len();
                prop_assert_eq!(&released[..], &oracle[..n]);
                barrier = next;
            }
            prop_assert!(merge.is_empty(), "events stuck behind the last barrier");
            prop_assert_eq!(released, oracle);
        }
    }
}
