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
//! [`EventQueue`] is a **timing wheel**: near-future events hash into an
//! array of fixed-width time buckets and far-future events wait in a small
//! overflow heap, so the scheduler never pays `O(log n)` sift costs over the
//! whole pending set the way the original [`HeapEventQueue`] did. Payloads
//! live in a slab [`Arena`] with a free list; only
//! 24-byte `(time, seq, slot)` index records move through the wheel, and a
//! steady-state simulation performs no allocation per event once the arena
//! and buckets reach their high-water marks. The pop order is *exactly* the
//! `(time, seq)` order of the old heap — `sim`'s differential proptests and
//! the scenario crate's recorded golden traces both verify this byte for
//! byte.
//!
//! Below ~1k pending events the wheel's bucket bookkeeping costs more per
//! operation than a tiny binary heap, so the queue is *adaptive*: it starts
//! in a **small mode** that holds the pending set in two bands of
//! inline-payload records (no arena indirection, no buckets touched, no
//! near array allocated). Events due before a sliding horizon sit in a
//! small 4-ary min-heap; everything later is an O(1) append to an unsorted
//! parked list. When the heap drains, one scan admits the next band of
//! parked events, and the band width self-tunes so a band is a useful
//! fraction of the parked set. The heap thus stays well below the
//! pending-set size and each event pays only a constant number of scan
//! touches — both bulk fills and closed-loop churn beat the reference
//! heap, whose every push and pop sifts across the full population. The queue migrates one way onto the wheel the first time the
//! pending set exceeds `SMALL_LIMIT` events. Pop order is identical in
//! both modes and across the migration, so determinism is unaffected.
//! `BENCH_event_queue.json` records the result: ≥1× at heap-friendly
//! depths, 2–4× and growing at the 100k–1M pending events the ROADMAP's
//! millions-of-clients north star implies, where the heap's `O(log n)`
//! cache-missing sifts dominate.

use crate::arena::Arena;
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
/// The handle pairs the event's arena slot with its unique sequence number,
/// so cancelling an event that has already fired (its slot since reused) is
/// detected and reported as a no-op instead of killing an innocent event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

impl EventId {
    /// The event's FIFO sequence number (unique per queue).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// One bucket/heap index record: the payload stays in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    /// Fire time in microseconds.
    at: u64,
    /// FIFO tie-break.
    seq: u64,
    /// Arena slot holding the payload.
    slot: u32,
}

/// Small-mode record: the payload rides inline, so the hot path touches one
/// contiguous `Vec` and nothing else. Ordered by `(at, seq)` only.
#[derive(Debug)]
struct SmallEntry<E> {
    /// Fire time in microseconds.
    at: u64,
    /// FIFO tie-break.
    seq: u64,
    payload: E,
}

impl<E> SmallEntry<E> {
    /// The heap key: `(time, seq)`, matching [`Entry`]'s derived order.
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Sentinel arena slot marking an [`EventId`] issued while the queue was in
/// small mode (inline payloads have no arena slot). The arena's own NIL is
/// `u32::MAX`, so no real slot can collide with it.
const SMALL_SLOT: u32 = u32::MAX;

/// Parked sets at or below this size are banded wholesale — a scan
/// admitting only a few events would not amortize.
const SMALL_BAND_MIN: usize = 64;

/// Initial small-mode band width (µs): ≈1.05 s.
const SMALL_BAND_INIT_US: u64 = 1 << 20;
/// Band-width feedback bounds (µs): ≈65 ms to ≈67 s (the wheel's own near
/// window), so the controller can track microsecond-dense bursts and
/// minute-scale think times alike.
const SMALL_BAND_MIN_US: u64 = 1 << 16;
const SMALL_BAND_MAX_US: u64 = 1 << 26;

/// A payload slot: `None` marks an event tombstoned by
/// [`EventQueue::cancel`] whose index record has not surfaced yet.
#[derive(Debug)]
struct Stored<E> {
    seq: u64,
    payload: Option<E>,
}

/// Width of one near-future bucket: `2^TICK_BITS` microseconds (≈33 ms).
const TICK_BITS: u32 = 15;
/// Number of near-future buckets; the near window spans
/// `NEAR_SLOTS << TICK_BITS` µs ≈ 67 s of virtual time (beyond the mean
/// think time, so a closed-loop population mostly avoids the far heap).
const NEAR_SLOTS: usize = 1 << 11;
/// Words in the bucket-occupancy bitmap.
const OCC_WORDS: usize = NEAR_SLOTS / 64;
/// Staged-run length beyond which an earlier-than-cursor schedule retreats
/// the cursor (re-bucketing the run) instead of insertion-sorting into it.
const RETREAT_LIMIT: usize = 64;
/// Pending-set size beyond which the queue migrates from the small-N
/// banded mode onto the timing wheel. The switch is one-way: once the
/// population has been large, the wheel's steady-state wins dominate even
/// if the set later shrinks.
const SMALL_LIMIT: usize = 1024;

/// A priority queue of events keyed by virtual time with FIFO tie-breaking,
/// implemented as a timing wheel with an adaptive small-N heap mode (see
/// the [module docs](self)).
///
/// While `small` is set, every pending event lives in one of three sets of
/// inline-payload `SmallEntry` records: `band`, a run sorted descending
/// on `(time, seq)` holding events due before `horizon_end` (the head pops
/// O(1) off the end); `late`, a small 4-ary min-heap catching events that
/// land inside the horizon *after* the band was sorted; and `parked`, an
/// unsorted list of everything at or past the horizon. Parked events are
/// by invariant never earlier than the horizon, so the smaller of the band
/// tail and the late root is the exact queue head; when both drain, one
/// O(parked) scan plus one band-sized sort slides the horizon forward. The
/// wheel structures stay untouched (and unallocated), and small mode never
/// carries a tombstone: cancellation removes the record in place (a rare,
/// O(n)-scan path). The invariants below apply once the queue has migrated
/// onto the wheel. In both modes the head record is kept live, so
/// [`EventQueue::peek_time`] is O(1) and exact.
///
/// Structural invariants in wheel mode (checked by the differential
/// proptests):
///
/// 1. `staged` holds every pending event whose bucket index ("tick") is at
///    most `cursor`, as a run sorted *descending* on `(time, seq)` — the
///    earliest event pops O(1) off the end, and each bucket is sorted once
///    when staged instead of heap-sifted per event;
/// 2. `near[t % NEAR_SLOTS]` holds events with tick `t` for
///    `cursor < t < cursor + NEAR_SLOTS`, unsorted;
/// 3. `far` holds events with tick `≥ cursor + NEAR_SLOTS`;
/// 4. whenever the queue is non-empty, `staged` is non-empty and its head is
///    live (not cancelled) — which makes [`EventQueue::peek_time`] O(1) and
///    keeps `len`/`is_empty` exact in the face of cancellations.
pub struct EventQueue<E> {
    arena: Arena<Stored<E>>,
    staged: Vec<Entry>,
    near: Vec<Vec<Entry>>,
    occupied: [u64; OCC_WORDS],
    far: BinaryHeap<std::cmp::Reverse<Entry>>,
    /// Outstanding cancelled-but-unswept events; when zero (the common
    /// case — the engine cancels nothing), every liveness check is skipped.
    tombstones: usize,
    /// Small-N mode: `band` + `late` + `parked` hold everything, the wheel
    /// is idle.
    small: bool,
    /// Small mode only: the current band of events due before
    /// `horizon_end`, sorted descending on `(at, seq)` — the head pops O(1)
    /// off the end.
    band: Vec<SmallEntry<E>>,
    /// Small mode only: events scheduled *after* their band was built (due
    /// before `horizon_end` but not in `band`), as a small 4-ary min-heap
    /// on `(at, seq)`.
    late: Vec<SmallEntry<E>>,
    /// Small mode only: events due at or after `horizon_end`, unsorted.
    parked: Vec<SmallEntry<E>>,
    /// Small mode only: exclusive end (µs) of the active band. Monotone.
    horizon_end: u64,
    /// Small mode only: current band width (µs), adapted by feedback so
    /// each band admits a useful fraction of the parked set.
    band_width: u64,
    /// Absolute tick of the bucket currently staged.
    cursor: u64,
    next_seq: u64,
    last_popped: SimTime,
    /// Live (scheduled, not yet popped or cancelled) events.
    live: usize,
    /// Events pending *outside* the queue's own structures: sequence
    /// numbers reserved through [`EventQueue::reserve_seq`] whose firing
    /// is driven by an external plane (the engine's arrival plane). They
    /// count toward depth accounting but deliberately not
    /// toward `live`, whose value gates the small-mode migration and the
    /// wheel's "live events exist somewhere" invariants.
    external: usize,
    /// High-water mark of `live + external` over the queue's lifetime.
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
            .field("len", &self.live)
            .field("external", &self.external)
            .field("peak_len", &self.peak_live)
            .field("dispatched", &self.dispatched)
            .field("cursor_tick", &self.cursor)
            .field("staged", &self.staged.len())
            .field("far", &self.far.len())
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            arena: Arena::new(),
            staged: Vec::new(),
            // The near buckets are not allocated until the queue leaves
            // small mode: a queue that never grows past SMALL_LIMIT never
            // pays for the wheel.
            near: Vec::new(),
            occupied: [0; OCC_WORDS],
            far: BinaryHeap::new(),
            tombstones: 0,
            small: true,
            band: Vec::new(),
            late: Vec::new(),
            parked: Vec::new(),
            horizon_end: 0,
            band_width: SMALL_BAND_INIT_US,
            cursor: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
            live: 0,
            external: 0,
            peak_live: 0,
            dispatched: 0,
        }
    }

    /// Number of pending events (cancelled events are excluded).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
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
    /// driven by an external plane (it never enters the queue's own
    /// structures). The reservation counts as one pending event for
    /// depth accounting, exactly as [`EventQueue::schedule`] would, and
    /// keeps the `(time, seq)` total order shared between internal and
    /// external events: whoever reserves/schedules first fires first at
    /// equal times. Pair every reservation with one
    /// [`EventQueue::external_pop`].
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.external += 1;
        self.peak_live = self.peak_live.max(self.live + self.external);
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
        if self.small {
            // Band tail and late root are both before the horizon and every
            // parked event is at or past it, so the earlier of the two is
            // the global head; scan the parked list only in the rare moment
            // both in-horizon structures are empty.
            let in_horizon = match (self.band.last(), self.late.first()) {
                (Some(b), Some(l)) => Some(b.key().min(l.key())),
                (Some(b), None) => Some(b.key()),
                (None, Some(l)) => Some(l.key()),
                (None, None) => self.parked.iter().map(|e| e.key()).min(),
            };
            return in_horizon.map(|(at, seq)| (SimTime::from_micros(at), seq));
        }
        // Invariant 4: the earliest live event is always at the staged head.
        self.staged
            .last()
            .map(|e| (SimTime::from_micros(e.at), e.seq))
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
        if self.small {
            if self.live < SMALL_LIMIT {
                let entry = SmallEntry {
                    at: at.as_micros(),
                    seq,
                    payload,
                };
                if entry.at < self.horizon_end {
                    // Due inside the current band: the sorted run is already
                    // built, so the latecomer goes to the small overflow heap.
                    self.late.push(entry);
                    self.sift_up(self.late.len() - 1);
                } else {
                    // The common case for think-time delays: an O(1) append,
                    // banded into a sorted run only when its horizon arrives.
                    self.parked.push(entry);
                }
                self.live += 1;
                self.peak_live = self.peak_live.max(self.live + self.external);
                return EventId {
                    slot: SMALL_SLOT,
                    seq,
                };
            }
            // Crossing the limit: move everything onto the wheel, then
            // place this event through the normal wheel path below.
            self.migrate_to_wheel();
        }
        let slot = self.arena.insert(Stored {
            seq,
            payload: Some(payload),
        });
        let entry = Entry {
            at: at.as_micros(),
            seq,
            slot,
        };
        let was_empty = self.staged.is_empty();
        let tick = entry.at >> TICK_BITS;
        if tick <= self.cursor {
            // An event at or before the staged bucket joins the staged run
            // at its sorted position. If the run has grown large and the
            // event lands strictly earlier, retreat the cursor instead:
            // bulk loads (a sweep scheduling a million first submissions
            // against a parked cursor) would otherwise degrade the run
            // into an O(n²) insertion sort.
            if tick < self.cursor && self.staged.len() >= RETREAT_LIMIT {
                self.retreat(tick);
            }
            let pos = self.staged.partition_point(|x| *x > entry);
            self.staged.insert(pos, entry);
        } else if tick < self.cursor + NEAR_SLOTS as u64 {
            self.push_near(entry, tick);
        } else {
            self.far.push(std::cmp::Reverse(entry));
        }
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live + self.external);
        if was_empty {
            // Invariant 4: the earliest pending event must be staged.
            self.settle();
        }
        EventId { slot, seq }
    }

    /// Cancel a scheduled event. Returns `true` if the event was still
    /// pending (and is now gone); `false` if it already fired, was already
    /// cancelled, or the queue was cleared since.
    ///
    /// In wheel mode the index record is tombstoned in place and swept out
    /// lazily when its bucket is staged, but `len`, `is_empty` and
    /// [`EventQueue::peek_time`] account for the cancellation immediately.
    /// Handles issued in small mode carry no arena slot and are resolved by
    /// sequence number instead — an O(n) scan, fine for a rare operation
    /// over a by-construction-small pending set.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.slot == SMALL_SLOT {
            return self.cancel_by_seq(id.seq);
        }
        match self.arena.get_mut(id.slot) {
            Some(stored) if stored.seq == id.seq && stored.payload.is_some() => {
                stored.payload = None;
                self.live -= 1;
                self.tombstones += 1;
                // A tombstone must not linger at the staged head.
                self.settle();
                true
            }
            _ => false,
        }
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_stamp().map(|(at, _)| at)
    }

    /// Pop the next event only if it fires strictly before `until`, leaving
    /// later events queued. This is the phase-boundary primitive: a driver
    /// can advance the simulation to a boundary, mutate the model (client
    /// count, workload mix, budgets), and continue, without disturbing
    /// events already scheduled beyond the boundary.
    pub fn pop_before(&mut self, until: SimTime) -> Option<ScheduledEvent<E>> {
        self.pop_before_stamp((until, 0))
    }

    /// Pop the next event only if its `(time, seq)` key precedes `bound`.
    /// This is the merge primitive: a loop that interleaves the queue with
    /// externally driven events (see [`EventQueue::reserve_seq`]) passes
    /// the smaller of its earliest external key and its window boundary
    /// `(until, 0)`, and makes one queue call per event either way.
    pub fn pop_before_stamp(&mut self, bound: (SimTime, u64)) -> Option<ScheduledEvent<E>> {
        if self.peek_stamp()? < bound {
            self.pop()
        } else {
            None
        }
    }

    /// Pop the next event in (time, insertion) order.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.small {
            if self.band.is_empty() && self.late.is_empty() {
                if self.parked.is_empty() {
                    return None;
                }
                self.advance_horizon();
            }
            let from_late = match (self.band.last(), self.late.first()) {
                (Some(b), Some(l)) => l.key() < b.key(),
                (None, Some(_)) => true,
                _ => false,
            };
            let entry = if from_late {
                let n = self.late.len();
                self.late.swap(0, n - 1);
                let entry = self.late.pop().expect("late is non-empty");
                if !self.late.is_empty() {
                    self.sift_down(0);
                }
                entry
            } else {
                self.band.pop().expect("an in-horizon event exists")
            };
            self.last_popped = SimTime::from_micros(entry.at);
            self.live -= 1;
            self.dispatched += 1;
            return Some(ScheduledEvent {
                at: self.last_popped,
                seq: entry.seq,
                payload: entry.payload,
            });
        }
        let entry = self.staged.pop()?;
        let stored = self.arena.remove(entry.slot);
        let payload = stored.payload.expect("staged head is live (invariant 4)");
        self.last_popped = SimTime::from_micros(entry.at);
        self.live -= 1;
        self.dispatched += 1;
        // Fast path: more staged events and nothing cancelled anywhere.
        if self.staged.is_empty() || self.tombstones > 0 {
            self.settle();
        }
        Some(ScheduledEvent {
            at: self.last_popped,
            seq: entry.seq,
            payload,
        })
    }

    /// Drain every event scheduled at exactly the same time as the head.
    /// Useful for batch-dispatching simultaneous events.
    pub fn pop_simultaneous(&mut self) -> Vec<ScheduledEvent<E>> {
        let mut out = Vec::new();
        let Some(t) = self.peek_time() else {
            return out;
        };
        while self.peek_time() == Some(t) {
            out.push(self.pop().expect("peeked event must pop"));
        }
        out
    }

    /// Remove all pending events, returning how many were dropped.
    pub fn clear(&mut self) -> usize {
        let n = self.live;
        self.arena.clear();
        self.staged.clear();
        self.band.clear();
        self.late.clear();
        self.parked.clear();
        self.far.clear();
        for bucket in &mut self.near {
            bucket.clear();
        }
        self.occupied = [0; OCC_WORDS];
        self.live = 0;
        self.tombstones = 0;
        self.cursor = self.last_popped.as_micros() >> TICK_BITS;
        n
    }

    // --- small-mode internals ----------------------------------------------

    /// Restore the late heap's 4-ary order upward from `i`.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.late[i].key() < self.late[parent].key() {
                self.late.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Restore the late heap's 4-ary order downward from `i`.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.late.len();
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            for child in (first + 1)..(first + 4).min(len) {
                if self.late[child].key() < self.late[min].key() {
                    min = child;
                }
            }
            if self.late[min].key() < self.late[i].key() {
                self.late.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }

    /// Band and late heap both drained with parked events remaining: slide
    /// the horizon one band width past the earliest parked event, move
    /// everything the band covers out of `parked`, and sort it once into a
    /// descending run so each pop is O(1). The band width adapts by
    /// feedback — doubled when a band admits too little (the scan would not
    /// amortize), halved when it swallows too much (the sort would grow
    /// toward the full pending set) — so each admitted event pays O(1)
    /// scan touches at any event-time density.
    fn advance_horizon(&mut self) {
        debug_assert!(self.band.is_empty() && self.late.is_empty() && !self.parked.is_empty());
        let min_at = self
            .parked
            .iter()
            .map(|e| e.at)
            .min()
            .expect("parked is non-empty");
        // Parked events are all at or past the old horizon, so the new
        // horizon only ever moves forward.
        self.horizon_end = min_at.saturating_add(self.band_width);
        let mut i = 0;
        while i < self.parked.len() {
            if self.parked[i].at < self.horizon_end {
                let entry = self.parked.swap_remove(i);
                self.band.push(entry);
            } else {
                i += 1;
            }
        }
        self.band
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        let admitted = self.band.len();
        let target = ((self.parked.len() + admitted) / 8).max(SMALL_BAND_MIN);
        if admitted < target / 2 {
            self.band_width = (self.band_width * 2).min(SMALL_BAND_MAX_US);
        } else if admitted > target * 2 {
            self.band_width = (self.band_width / 2).max(SMALL_BAND_MIN_US);
        }
        debug_assert!(!self.band.is_empty());
    }

    /// Cancel an event through a small-mode handle (no arena slot): scan for
    /// its sequence number. In small mode the record is removed in place; if
    /// the queue has since migrated, the matching wheel record is tombstoned
    /// through its arena slot like any other cancellation.
    fn cancel_by_seq(&mut self, seq: u64) -> bool {
        if self.small {
            if let Some(i) = self.parked.iter().position(|e| e.seq == seq) {
                self.parked.swap_remove(i);
                self.live -= 1;
                return true;
            }
            if let Some(i) = self.band.iter().position(|e| e.seq == seq) {
                // Keep the band's descending sort: shift, don't swap.
                self.band.remove(i);
                self.live -= 1;
                return true;
            }
            let Some(i) = self.late.iter().position(|e| e.seq == seq) else {
                return false;
            };
            let n = self.late.len();
            self.late.swap(i, n - 1);
            self.late.pop();
            if i < self.late.len() {
                // The element moved into the hole may belong either way.
                if i > 0 && self.late[i].key() < self.late[(i - 1) / 4].key() {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
            self.live -= 1;
            return true;
        }
        // The handle predates the migration: find the index record the
        // migration created for this seq (absent = already fired/cancelled).
        let slot = self
            .staged
            .iter()
            .chain(self.near.iter().flatten())
            .find(|e| e.seq == seq)
            .map(|e| e.slot)
            .or_else(|| self.far.iter().find(|r| r.0.seq == seq).map(|r| r.0.slot));
        match slot {
            Some(slot) => self.cancel(EventId { slot, seq }),
            None => false,
        }
    }

    // --- wheel internals ---------------------------------------------------

    /// One-way switch out of small mode: allocate the near buckets, move
    /// every inline payload into the arena, deal the index records into
    /// their wheel homes, and restore invariant 4. Small mode never carries
    /// tombstones, so no filtering is needed.
    fn migrate_to_wheel(&mut self) {
        self.small = false;
        if self.near.is_empty() {
            self.near.resize_with(NEAR_SLOTS, Vec::new);
        }
        self.cursor = self.last_popped.as_micros() >> TICK_BITS;
        let window_end = self.cursor + NEAR_SLOTS as u64;
        let drained = std::mem::take(&mut self.band)
            .into_iter()
            .chain(std::mem::take(&mut self.late))
            .chain(std::mem::take(&mut self.parked));
        for small in drained {
            let SmallEntry { at, seq, payload } = small;
            let slot = self.arena.insert(Stored {
                seq,
                payload: Some(payload),
            });
            let entry = Entry { at, seq, slot };
            let tick = at >> TICK_BITS;
            if tick <= self.cursor {
                self.staged.push(entry);
            } else if tick < window_end {
                self.push_near(entry, tick);
            } else {
                self.far.push(std::cmp::Reverse(entry));
            }
        }
        self.staged.sort_unstable_by(|a, b| b.cmp(a));
        self.settle();
    }

    /// Force the wheel representation regardless of size — test hook so the
    /// differential suites exercise wheel placement at small populations.
    #[cfg(test)]
    fn force_wheel(&mut self) {
        if self.small {
            self.migrate_to_wheel();
        }
    }

    fn push_near(&mut self, entry: Entry, tick: u64) {
        let bucket = (tick as usize) % NEAR_SLOTS;
        self.occupied[bucket / 64] |= 1u64 << (bucket % 64);
        self.near[bucket].push(entry);
    }

    /// Restore invariant 4: drop tombstones surfacing at the staged head and
    /// stage the next bucket whenever live events remain but none is staged.
    fn settle(&mut self) {
        loop {
            while let Some(head) = self.staged.last() {
                if self.tombstones == 0 {
                    return;
                }
                let live = self
                    .arena
                    .get(head.slot)
                    .is_some_and(|s| s.payload.is_some());
                if live {
                    return;
                }
                let entry = self.staged.pop().expect("peeked entry pops");
                self.arena.remove(entry.slot);
                self.tombstones -= 1;
            }
            if self.live == 0 {
                return;
            }
            self.advance();
        }
    }

    /// Move the cursor to the next occupied bucket (or the far heap's
    /// earliest tick), migrate far events that now fall inside the near
    /// window, and stage the cursor bucket.
    fn advance(&mut self) {
        debug_assert!(self.staged.is_empty());
        let target = match self.scan_near() {
            // Invariant 3 puts every far event at or beyond cursor + NEAR_SLOTS,
            // so an occupied near bucket always precedes the far heap.
            Some(tick) => tick,
            None => {
                let std::cmp::Reverse(f) = self.far.peek().expect("live events exist somewhere");
                f.at >> TICK_BITS
            }
        };
        self.cursor = target;
        // Pull far events into the freshly uncovered window.
        let window_end = self.cursor + NEAR_SLOTS as u64;
        while let Some(std::cmp::Reverse(f)) = self.far.peek() {
            let tick = f.at >> TICK_BITS;
            if tick >= window_end {
                break;
            }
            let std::cmp::Reverse(entry) = self.far.pop().expect("peeked entry pops");
            if self.tombstoned(entry) {
                continue;
            }
            if tick == self.cursor {
                self.staged.push(entry);
            } else {
                self.push_near(entry, tick);
            }
        }
        // Stage the cursor bucket, sweeping its tombstones.
        let bucket = (self.cursor as usize) % NEAR_SLOTS;
        self.occupied[bucket / 64] &= !(1u64 << (bucket % 64));
        let mut entries = std::mem::take(&mut self.near[bucket]);
        if self.tombstones == 0 {
            self.staged.append(&mut entries);
        } else {
            for entry in entries.drain(..) {
                if !self.tombstoned(entry) {
                    self.staged.push(entry);
                }
            }
        }
        // Hand the bucket's capacity back so refills stay allocation-free.
        self.near[bucket] = entries;
        // One descending sort per staged bucket, instead of a heap
        // operation per event.
        self.staged.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// If `entry` was cancelled, free its tombstone and report `true`.
    fn tombstoned(&mut self, entry: Entry) -> bool {
        if self.tombstones == 0 {
            return false;
        }
        let live = self
            .arena
            .get(entry.slot)
            .is_some_and(|s| s.payload.is_some());
        if !live {
            self.arena.remove(entry.slot);
            self.tombstones -= 1;
        }
        !live
    }

    /// Pull the cursor back to `new_cursor`, returning staged events that
    /// now fall after it to their wheel buckets (or the far heap), and
    /// evicting near buckets that the shrunken window no longer covers
    /// (their slots would otherwise alias fresh in-window ticks).
    fn retreat(&mut self, new_cursor: u64) {
        debug_assert!(new_cursor < self.cursor);
        let window_end = new_cursor + NEAR_SLOTS as u64;
        // Evict out-of-window near buckets first, while the old cursor
        // still defines the slot → tick mapping.
        let cursor_bucket = (self.cursor as usize) % NEAR_SLOTS;
        for w in 0..OCC_WORDS {
            let mut word = self.occupied[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let slot = w * 64 + bit;
                let d = (slot + NEAR_SLOTS - cursor_bucket) % NEAR_SLOTS;
                let tick = self.cursor + d as u64;
                if tick >= window_end {
                    self.occupied[w] &= !(1u64 << bit);
                    let mut entries = std::mem::take(&mut self.near[slot]);
                    for e in entries.drain(..) {
                        self.far.push(std::cmp::Reverse(e));
                    }
                    self.near[slot] = entries;
                }
            }
        }
        // The staged run is sorted descending, so the events to move —
        // everything with tick > new_cursor — are exactly its prefix.
        let bound = (new_cursor + 1) << TICK_BITS;
        let split = self.staged.partition_point(|e| e.at >= bound);
        self.cursor = new_cursor;
        for i in 0..split {
            let entry = self.staged[i];
            let tick = entry.at >> TICK_BITS;
            if tick < window_end {
                self.push_near(entry, tick);
            } else {
                self.far.push(std::cmp::Reverse(entry));
            }
        }
        self.staged.drain(..split);
    }

    /// The absolute tick of the first occupied near bucket after the cursor,
    /// scanning the occupancy bitmap in circular order (64 buckets per
    /// word, so an empty wheel costs `NEAR_SLOTS / 64` word loads at most).
    fn scan_near(&self) -> Option<u64> {
        let cursor_bucket = (self.cursor as usize) % NEAR_SLOTS;
        let mut idx = (cursor_bucket + 1) % NEAR_SLOTS;
        let mut scanned = 0;
        while scanned < NEAR_SLOTS {
            // Mask off bits below the scan position within this word.
            let word = self.occupied[idx / 64] & (!0u64 << (idx % 64));
            if word != 0 {
                let found = (idx / 64) * 64 + word.trailing_zeros() as usize;
                // Circular distance from the cursor bucket; invariant 2 maps
                // it back to the absolute tick.
                let d = (found + NEAR_SLOTS - cursor_bucket) % NEAR_SLOTS;
                debug_assert!(d > 0, "cursor bucket must be drained");
                return Some(self.cursor + d as u64);
            }
            let step = 64 - (idx % 64);
            scanned += step;
            idx = (idx + step) % NEAR_SLOTS;
        }
        None
    }
}

/// The original binary-heap event queue, kept as the reference
/// implementation: the differential proptests check the wheel against it,
/// and `benches/event_queue.rs` measures the wheel's speedup over it.
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` to fire at absolute time `at` (clamped to the pop
    /// frontier, as in [`EventQueue::schedule`]).
    pub fn schedule(&mut self, at: SimTime, payload: E) -> u64 {
        let at = at.max(self.last_popped);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, payload });
        seq
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event only if it fires strictly before `until`.
    pub fn pop_before(&mut self, until: SimTime) -> Option<ScheduledEvent<E>> {
        if self.peek_time()? < until {
            self.pop()
        } else {
            None
        }
    }

    /// Pop the next event in (time, insertion) order.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop();
        if let Some(ref e) = ev {
            self.last_popped = e.at;
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;
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
    fn pop_simultaneous_groups_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(1), 2);
        q.schedule(SimTime::from_secs(2), 3);
        let first = q.pop_simultaneous();
        assert_eq!(
            first.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![1, 2]
        );
        let second = q.pop_simultaneous();
        assert_eq!(
            second.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![3]
        );
        assert!(q.pop_simultaneous().is_empty());
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
        while let Some(e) = q.pop_before(boundary) {
            drained.push(e.payload);
        }
        assert_eq!(drained, vec!["a"]);
        assert_eq!(q.len(), 3);
        // The next window picks up exactly where the last one stopped.
        let mut rest = Vec::new();
        while let Some(e) = q.pop_before(SimTime::from_secs(10)) {
            rest.push(e.payload);
        }
        assert_eq!(rest, vec!["b", "c", "d"]);
        assert!(q.pop_before(SimTime::MAX).is_none());
    }

    #[test]
    fn pop_before_stamp_breaks_same_instant_ties_by_seq() {
        for force in [false, true] {
            let mut q = EventQueue::new();
            if force {
                q.force_wheel();
            }
            let t = SimTime::from_secs(3);
            let a = q.schedule(t, "a");
            let external = q.reserve_seq();
            let b = q.schedule(t, "b");
            assert!(a.seq() < external && external < b.seq());
            // Against the external key only "a" precedes it at that instant.
            assert_eq!(q.pop_before_stamp((t, external)).unwrap().payload, "a");
            assert!(q.pop_before_stamp((t, external)).is_none());
            q.external_pop(t);
            // `(t, 0)` is `pop_before(t)`: nothing at `t` itself pops.
            assert!(q.pop_before_stamp((t, 0)).is_none());
            assert_eq!(q.pop_before_stamp((t, u64::MAX)).unwrap().payload, "b");
            assert!(q.pop_before_stamp((SimTime::MAX, u64::MAX)).is_none());
        }
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.clear(), 2);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // The queue keeps working after a clear.
        q.schedule(SimTime::from_secs(3), ());
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), "x");
        q.schedule(SimTime::from_secs(4), "y");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime::from_secs(4));
    }

    #[test]
    fn events_beyond_the_near_window_pop_in_order() {
        // Mix of events inside the near window, far beyond it, and in
        // between, exercising the far-heap migration path.
        let mut q = EventQueue::new();
        q.force_wheel();
        q.schedule(SimTime::from_secs(7_200), "far");
        q.schedule(SimTime::from_micros(1), "now");
        q.schedule(SimTime::from_secs(90), "mid");
        q.schedule(SimTime::from_secs(7_200), "far2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["now", "mid", "far", "far2"]);
    }

    #[test]
    fn cancel_removes_a_pending_event_exactly_once() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        let b = q.schedule(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        let e = q.pop().unwrap();
        assert_eq!(e.payload, "b");
        assert!(!q.cancel(b), "cancelling a fired event is a no-op");
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_head_never_shows_in_peek() {
        let mut q = EventQueue::new();
        let head = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(3600), 2);
        q.cancel(head);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3600)));
    }

    #[test]
    fn cancel_then_slot_reuse_does_not_confuse_handles() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.cancel(a);
        // The arena slot of `a` is recycled for `b`; the stale handle must
        // not cancel it.
        let b = q.schedule(SimTime::from_secs(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().payload, "b");
        let _ = b;
    }

    #[test]
    fn small_mode_defers_wheel_allocation_until_the_limit() {
        let mut q = EventQueue::new();
        for i in 0..SMALL_LIMIT as u64 {
            q.schedule(SimTime::from_micros(i), i);
        }
        assert!(q.small, "at the limit the queue is still a heap");
        assert!(q.near.is_empty(), "near buckets must stay unallocated");
        q.schedule(SimTime::from_micros(SMALL_LIMIT as u64), SMALL_LIMIT as u64);
        assert!(!q.small, "crossing the limit migrates onto the wheel");
        assert_eq!(q.near.len(), NEAR_SLOTS);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(popped, (0..=SMALL_LIMIT as u64).collect::<Vec<_>>());
    }

    #[test]
    fn migration_preserves_order_and_cancellations() {
        // Differential run that starts in small mode, cancels a few events
        // (leaving tombstones in the heap), pops a little, then bulk-loads
        // past SMALL_LIMIT so the migration has to deal staged, near and far
        // placements while sweeping the tombstones out.
        let mut q = EventQueue::new();
        let mut model = HeapEventQueue::new();
        let mut rng = crate::rng::SimRng::seed_from_u64(42);
        let mut cancelled = Vec::new();
        for i in 0..200u64 {
            let t = SimTime::from_millis(rng.uniform_u64(0, 300_000));
            let id = q.schedule(t, i);
            if i % 7 == 0 {
                cancelled.push(id);
            } else {
                model.schedule(t, i);
            }
        }
        for id in cancelled {
            assert!(q.cancel(id));
        }
        for _ in 0..50 {
            let (w, h) = (q.pop().unwrap(), model.pop().unwrap());
            assert_eq!((w.at, w.payload), (h.at, h.payload));
        }
        assert!(q.small);
        for i in 1_000..(1_000 + SMALL_LIMIT as u64 + 100) {
            let t = q.peek_time().unwrap() + SimDuration::from_millis(rng.uniform_u64(0, 900_000));
            q.schedule(t, i);
            model.schedule(t, i);
        }
        assert!(!q.small, "bulk load must cross the migration threshold");
        loop {
            assert_eq!(q.peek_time(), model.peek_time());
            match (q.pop(), model.pop()) {
                (Some(w), Some(h)) => assert_eq!((w.at, w.payload), (h.at, h.payload)),
                (None, None) => break,
                (w, h) => panic!("length mismatch: {w:?} vs {h:?}"),
            }
        }
    }

    #[test]
    fn pre_migration_handles_cancel_after_the_migration() {
        // Handles issued in small mode carry no arena slot; once the queue
        // migrates they must still cancel exactly once, by seq lookup.
        let mut q = EventQueue::new();
        let keep = q.schedule(SimTime::from_secs(500), u64::MAX - 1);
        let kill = q.schedule(SimTime::from_secs(600), u64::MAX);
        for i in 0..(SMALL_LIMIT as u64 + 8) {
            q.schedule(SimTime::from_micros(i), i);
        }
        assert!(!q.small, "load must cross the migration threshold");
        assert!(q.cancel(kill));
        assert!(!q.cancel(kill), "double cancel is a no-op");
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert!(popped.contains(&(u64::MAX - 1)));
        assert!(!popped.contains(&u64::MAX), "cancelled event still fired");
        assert!(!q.cancel(keep), "cancelling a fired event is a no-op");
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
    fn peek_stamp_matches_peek_time_in_both_modes() {
        for force in [false, true] {
            let mut q = EventQueue::new();
            if force {
                q.force_wheel();
            }
            let mut rng = crate::rng::SimRng::seed_from_u64(7);
            for i in 0..300u64 {
                q.schedule(SimTime::from_millis(rng.uniform_u64(0, 90_000)), i);
            }
            while let Some((at, seq)) = q.peek_stamp() {
                assert_eq!(q.peek_time(), Some(at));
                let e = q.pop().unwrap();
                assert_eq!((e.at, e.seq), (at, seq));
            }
            assert!(q.is_empty());
        }
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

    #[test]
    fn bulk_load_behind_the_cursor_stays_ordered() {
        // A parked cursor plus a flood of earlier events exercises the
        // cursor-retreat path (and the near-bucket eviction it forces).
        let mut q = EventQueue::new();
        q.force_wheel();
        let mut heap = HeapEventQueue::new();
        // Park the cursor deep into the horizon...
        for i in 0..(RETREAT_LIMIT as u64 + 8) {
            let t = SimTime::from_secs(500) + SimDuration::from_micros(i);
            q.schedule(t, i);
            heap.schedule(t, i);
        }
        // ...then bulk-load earlier and far-future events in shuffled order.
        let mut rng = crate::rng::SimRng::seed_from_u64(3);
        for i in 0..5_000u64 {
            let t = SimTime::from_millis(rng.uniform_u64(0, 900_000));
            q.schedule(t, 100 + i);
            heap.schedule(t, 100 + i);
        }
        loop {
            assert_eq!(q.peek_time(), heap.peek_time());
            match (q.pop(), heap.pop()) {
                (Some(w), Some(h)) => {
                    assert_eq!((w.at, w.seq, w.payload), (h.at, h.seq, h.payload))
                }
                (None, None) => break,
                (w, h) => panic!("length mismatch: {w:?} vs {h:?}"),
            }
        }
    }

    #[test]
    fn heap_and_wheel_agree_on_a_mixed_workload() {
        // Differential check on a closed-loop-like pattern: pops interleaved
        // with schedules relative to the popped time.
        let mut wheel = EventQueue::new();
        wheel.force_wheel();
        let mut heap = HeapEventQueue::new();
        let mut rng = crate::rng::SimRng::seed_from_u64(99);
        for i in 0..64u64 {
            let t = SimTime::from_millis(rng.uniform_u64(0, 5_000));
            wheel.schedule(t, i);
            heap.schedule(t, i);
        }
        let mut i = 64;
        while let (Some(w), Some(h)) = (wheel.pop(), heap.pop()) {
            assert_eq!((w.at, w.seq, w.payload), (h.at, h.seq, h.payload));
            if i < 4_096 {
                // Re-schedule a few events relative to the frontier, hitting
                // staged, near and far placements.
                let delay = rng.uniform_u64(0, 200_000_000);
                let t = w.at + SimDuration::from_micros(delay);
                wheel.schedule(t, i);
                heap.schedule(t, i);
                i += 1;
            }
        }
        assert!(wheel.is_empty() && heap.is_empty());
    }

    /// The naive reference model for the cancellation proptest: a sorted vec
    /// of `(time, seq, payload)` with immediate removal on cancel.
    struct ModelQueue {
        pending: Vec<(SimTime, u64, u32)>,
        last_popped: SimTime,
    }

    impl ModelQueue {
        fn new() -> Self {
            ModelQueue {
                pending: Vec::new(),
                last_popped: SimTime::ZERO,
            }
        }
        fn schedule(&mut self, at: SimTime, seq: u64, payload: u32) {
            let at = at.max(self.last_popped);
            self.pending.push((at, seq, payload));
            self.pending.sort();
        }
        fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
            if self.pending.is_empty() {
                return None;
            }
            let e = self.pending.remove(0);
            self.last_popped = e.0;
            Some(e)
        }
        fn pop_before(&mut self, until: SimTime) -> Option<(SimTime, u64, u32)> {
            if self.pending.first()?.0 < until {
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
        fn peek_time(&self) -> Option<SimTime> {
            self.pending.first().map(|(t, _, _)| *t)
        }
    }

    proptest! {
        #[test]
        fn prop_pop_order_is_monotone(
            times in proptest::collection::vec(0u64..10_000, 1..200),
            force in 0usize..2,
        ) {
            let mut q = EventQueue::new();
            if force == 1 {
                q.force_wheel();
            }
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
        fn prop_equal_times_preserve_insertion_order(n in 1usize..100, force in 0usize..2) {
            let mut q = EventQueue::new();
            if force == 1 {
                q.force_wheel();
            }
            let t = SimTime::from_secs(1) + SimDuration::from_micros(n as u64);
            for i in 0..n {
                q.schedule(t, i);
            }
            let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
            prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
        }

        /// Differential check against the old heap queue over times spanning
        /// the staged bucket, the near window and the far heap.
        #[test]
        fn prop_wheel_matches_heap_exactly(
            times in proptest::collection::vec(0u64..200_000_000, 1..300),
            force in 0usize..2,
        ) {
            let mut wheel = EventQueue::new();
            if force == 1 {
                wheel.force_wheel();
            }
            let mut heap = HeapEventQueue::new();
            for (i, t) in times.iter().enumerate() {
                wheel.schedule(SimTime::from_micros(*t), i);
                heap.schedule(SimTime::from_micros(*t), i);
            }
            loop {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                match (wheel.pop(), heap.pop()) {
                    (Some(w), Some(h)) => {
                        prop_assert_eq!(w.at, h.at);
                        prop_assert_eq!(w.seq, h.seq);
                        prop_assert_eq!(w.payload, h.payload);
                    }
                    (None, None) => break,
                    (w, h) => prop_assert!(false, "length mismatch: {w:?} vs {h:?}"),
                }
            }
        }

        /// The satellite regression: interleave push / pop / pop_before /
        /// cancel against a naive sorted-vec model and require `len`,
        /// `is_empty`, `peek_time` and every popped event to agree — i.e.
        /// cancellations (tombstones) must never leak into the observable
        /// state.
        ///
        /// Ops decode as: 0 = push, 1 = pop, 2 = pop_before, 3 = cancel one
        /// of the previously scheduled events.
        #[test]
        fn prop_cancel_tombstones_stay_invisible(
            ops in proptest::collection::vec((0u8..4, 0u64..200_000_000), 1..250),
            force in 0usize..2,
        ) {
            let mut q = EventQueue::new();
            if force == 1 {
                q.force_wheel();
            }
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
                        let got = q.pop_before(until).map(|e| (e.at, e.seq, e.payload));
                        if let Some((at, _, _)) = got {
                            frontier = at;
                        }
                        prop_assert_eq!(got, model.pop_before(until));
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
                prop_assert_eq!(q.peek_time(), model.peek_time());
            }
        }
    }
}
