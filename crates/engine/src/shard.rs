//! The arrival plane: where each open-loop source's next instant comes
//! from, and the per-source state the server's event loop merges on.
//!
//! Arrivals never sit on the event queue. [`crate::Server::run_until`]
//! is one loop that merges the queue's head with one candidate per
//! source — the source's next arrival instant, keyed by a sequence
//! number reserved from the shared event queue
//! (`EventQueue::reserve_seq`) — into one global `(time, seq)` order. The
//! reservations are taken at exactly the moments a queue-scheduled
//! arrival event would have been scheduled:
//!
//! * at [`crate::Server::begin`], after the broker tick, once per source
//!   in index order iff the source's first arrival lands inside the run;
//!   and
//! * at the *end* of processing each arrival — after `submit_query`'s
//!   own pipeline-event schedules — iff a next arrival lands inside the
//!   run.
//!
//! so the merged order is the one a single queue holding every event
//! would produce (`engine/tests/arrival_fingerprint.rs` holds values
//! recorded from exactly that arrangement). The loop is the same for
//! every configuration; what `ServerConfig::shards` selects is the
//! **feed** behind [`ArrivalPlane::front`] and [`ArrivalPlane::advance`]:
//!
//! * **inline** (`shards = 1`): the spine samples `next_gap` itself, one
//!   instant ahead per source. Nothing is buffered and a source's front
//!   is always known.
//! * **threaded** (`shards > 1`): worker threads ("generator shards")
//!   own sources `index % shards == k` and precompute their instants,
//!   which is sound because arrival generation is feedback-free — each
//!   sampler draws only from its own forked RNG stream and the previous
//!   arrival's time. Workers deliver in lockstep epochs over bounded
//!   channels and seal each epoch at its barrier; a source whose buffer
//!   ran dry is known only to fire at or after its shard's seal, and the
//!   loop pumps another epoch before releasing anything that key could
//!   precede. The merge discipline is the one
//!   `throttledb_sim::shard::EpochMerge` proves against a sorted-vec
//!   oracle (per-source slots instead of generic mailboxes, because each
//!   source's sequence number is known before its next arrival time is).
//!
//! Both feeds replay the same recurrence `t_{k+1} = t_k + next_gap(rng,
//! t_k)` from the same streams, so the shard count changes wall-clock
//! time and nothing else.
//!
//! Workers need no input from the spine, so the plane cannot deadlock:
//! a worker blocked on a full channel is released when the plane drops
//! its receivers, and it exits on the resulting send error.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use throttledb_sim::{ArrivalSampler, SimDuration, SimRng, SimTime};

/// Epochs a generator shard may run ahead of the spine before its
/// channel backpressures it.
const EPOCH_PIPELINE: usize = 8;

/// A `(time, seq)` merge key later than any event's.
const NEVER: (SimTime, u64) = (SimTime::MAX, u64::MAX);

/// One arrival on the wire: the instant in microseconds shifted left one
/// bit, with the low bit carrying `has_next` (whether the *following*
/// arrival lands inside the run). Packing halves the bytes a 10M-arrival
/// run pushes through the channels and buffers, and the shift preserves
/// the per-source time order.
fn pack_arrival(at_us: u64, has_next: bool) -> u64 {
    debug_assert!(at_us < 1 << 63, "arrival instant overflows the packing");
    (at_us << 1) | has_next as u64
}

/// Inverse of [`pack_arrival`]: `(instant, has_next)`.
fn unpack_arrival(packed: u64) -> (SimTime, bool) {
    (SimTime::from_micros(packed >> 1), packed & 1 != 0)
}

/// One sealed epoch from a generator shard to the spine.
struct Epoch {
    /// Exclusive seal frontier: no later epoch from this shard carries an
    /// arrival before it.
    until: SimTime,
    /// Per owned source (in owned order), the [`pack_arrival`]-encoded
    /// instants in `[previous barrier, until)`.
    sources: Vec<Vec<u64>>,
}

/// One source's arrival recurrence `t_{k+1} = t_k + next_gap(rng, t_k)`,
/// held one instant ahead. Both feeds step it, so they cannot draw
/// different instants from one stream.
struct Generator {
    rng: SimRng,
    sampler: ArrivalSampler,
    /// The next arrival's instant; `None` once it would land at or after
    /// the end of the run.
    next: Option<SimTime>,
}

impl Generator {
    /// Step past `next` and say whether a further arrival lands before
    /// `end`.
    fn advance(&mut self, end: SimTime) -> bool {
        let at = self.next.expect("advance past a live instant");
        let follow = at + self.sampler.next_gap(&mut self.rng, at);
        self.next = (follow < end).then_some(follow);
        self.next.is_some()
    }
}

/// Spine-side buffer of one source of the threaded feed.
#[derive(Default)]
struct SourceBuffer {
    /// Delivered batches not yet fully dispatched, consumed in place (no
    /// per-arrival copying): `head` indexes into the front batch, and the
    /// invariant is that every queued batch is non-empty with
    /// `head < front.len()`.
    batches: VecDeque<Vec<u64>>,
    head: usize,
    /// Index into the per-shard seal/receiver arrays.
    shard: usize,
}

/// The spine's handle on the generator shards.
struct Workers {
    /// Per-source buffers, indexed by source index.
    buffers: Vec<SourceBuffer>,
    /// Per-shard sealed frontier; `SimTime::MAX` once the shard's stream
    /// is complete (its worker exited).
    seals: Vec<SimTime>,
    /// Per-shard owned-source lists (`index % shards`), in index order.
    owned: Vec<Vec<usize>>,
    receivers: Vec<Option<Receiver<Epoch>>>,
    handles: Vec<JoinHandle<()>>,
}

/// Where the sources' instants come from (see the [module docs](self)).
enum Feed {
    Inline {
        sources: Vec<Generator>,
        /// End of the run: arrivals land strictly before it.
        end: SimTime,
    },
    Threaded(Workers),
}

/// Per-source merge state plus the feed behind it (see the
/// [module docs](self)). The default plane has no sources.
pub(crate) struct ArrivalPlane {
    /// Per source: the sequence number reserved for its next arrival
    /// (`None` once the source is exhausted). With the threaded feed it
    /// is known even while the arrival's *time* is still in flight from
    /// the worker.
    pub(crate) reserved: Vec<Option<u64>>,
    feed: Feed,
}

impl Default for ArrivalPlane {
    fn default() -> Self {
        ArrivalPlane {
            reserved: Vec::new(),
            feed: Feed::Inline {
                sources: Vec::new(),
                end: SimTime::ZERO,
            },
        }
    }
}

impl ArrivalPlane {
    /// Start the feed for a run over `[start, end)` and take the first
    /// reservations. `streams` holds each source's private RNG stream and
    /// sampler; `shards` picks the feed, `epoch` is the threaded feed's
    /// barrier interval, and `reserve` hands out the event queue's next
    /// sequence number — called once per source whose first arrival lands
    /// inside the run, in index order.
    pub(crate) fn start(
        shards: usize,
        streams: Vec<(SimRng, ArrivalSampler)>,
        start: SimTime,
        end: SimTime,
        epoch: SimDuration,
        mut reserve: impl FnMut() -> u64,
    ) -> Self {
        // First instants are sampled here for either feed; a worker takes
        // its sources over from the second instant on.
        let sources: Vec<Generator> = streams
            .into_iter()
            .map(|(mut rng, mut sampler)| {
                let at = start + sampler.next_gap(&mut rng, start);
                Generator {
                    rng,
                    sampler,
                    next: (at < end).then_some(at),
                }
            })
            .collect();
        let reserved = sources
            .iter()
            .map(|src| src.next.is_some().then(&mut reserve))
            .collect();
        let feed = if shards > 1 && !sources.is_empty() {
            Feed::Threaded(Workers::spawn(shards, sources, start, end, epoch))
        } else {
            Feed::Inline { sources, end }
        };
        ArrivalPlane { reserved, feed }
    }

    /// Source `s`'s next undispatched instant, if known. Always known
    /// for a live source of the inline feed; `None` with the threaded
    /// feed while the instant is still in flight from its worker.
    #[inline]
    pub(crate) fn front(&self, s: usize) -> Option<SimTime> {
        match &self.feed {
            Feed::Inline { sources, .. } => sources[s].next,
            Feed::Threaded(workers) => {
                let buffer = &workers.buffers[s];
                buffer
                    .batches
                    .front()
                    .map(|batch| unpack_arrival(batch[buffer.head]).0)
            }
        }
    }

    /// Consume source `s`'s front (it was dispatched) and say whether a
    /// next arrival lands inside the run — whether the caller owes the
    /// source a fresh reservation.
    #[inline]
    pub(crate) fn advance(&mut self, s: usize) -> bool {
        match &mut self.feed {
            Feed::Inline { sources, end } => sources[s].advance(*end),
            Feed::Threaded(workers) => {
                let buffer = &mut workers.buffers[s];
                let batch = buffer.batches.front().expect("advance past a known front");
                let (_, has_next) = unpack_arrival(batch[buffer.head]);
                buffer.head += 1;
                if buffer.head == batch.len() {
                    buffer.batches.pop_front();
                    buffer.head = 0;
                }
                has_next
            }
        }
    }

    /// The merge's view of the sources: the earliest known arrival key
    /// with its source, and the earliest key an arrival still in flight
    /// from a worker could have (it fires at or after its shard's seal,
    /// under its reserved seq). A key later than any event's stands for
    /// "none". Sources without a reservation are invisible here.
    #[inline]
    pub(crate) fn candidates(&self) -> ((SimTime, u64), usize, (SimTime, u64)) {
        let (mut best, mut source, mut unsealed) = (NEVER, 0, NEVER);
        for (s, reserved) in self.reserved.iter().enumerate() {
            let Some(seq) = *reserved else { continue };
            match (self.front(s), &self.feed) {
                (Some(at), _) if (at, seq) < best => (best, source) = ((at, seq), s),
                (Some(_), _) => {}
                (None, Feed::Threaded(workers)) => {
                    let seal = workers.seals[workers.buffers[s].shard];
                    unsealed = unsealed.min((seal, seq));
                }
                (None, Feed::Inline { .. }) => unreachable!("a reserved inline source is live"),
            }
        }
        (best, source, unsealed)
    }

    /// Receive one epoch from every live shard (lockstep), extending the
    /// per-source buffers and the sealed frontiers. A disconnected shard
    /// has shipped its whole stream: its seal moves to `SimTime::MAX`.
    pub(crate) fn pump(&mut self) {
        let Feed::Threaded(workers) = &mut self.feed else {
            unreachable!("only the threaded feed has arrivals in flight");
        };
        for shard in 0..workers.receivers.len() {
            let Some(rx) = workers.receivers[shard].as_ref() else {
                continue;
            };
            match rx.recv() {
                Ok(Epoch { until, sources }) => {
                    for (pos, batch) in sources.into_iter().enumerate() {
                        if !batch.is_empty() {
                            workers.buffers[workers.owned[shard][pos]]
                                .batches
                                .push_back(batch);
                        }
                    }
                    workers.seals[shard] = until;
                }
                Err(_) => {
                    workers.seals[shard] = SimTime::MAX;
                    workers.receivers[shard] = None;
                }
            }
        }
    }
}

impl Workers {
    /// Spawn one generator shard per non-empty `index % shards` class.
    fn spawn(
        shards: usize,
        sources: Vec<Generator>,
        start: SimTime,
        end: SimTime,
        epoch: SimDuration,
    ) -> Self {
        // The window is a pure batching knob: generation is feedback-free,
        // so widening it changes which message an arrival ships in, never
        // the arrival itself. Wide windows keep the per-epoch costs (one
        // rendezvous and one batch allocation per shard) off the hot path
        // of long runs; the bounded pipeline still caps worker run-ahead
        // at `EPOCH_PIPELINE` windows of samples.
        let epoch = epoch.max(SimDuration::from_secs(1));
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut generators: Vec<Vec<Generator>> = (0..shards).map(|_| Vec::new()).collect();
        let mut buffers = Vec::with_capacity(sources.len());
        for (index, source) in sources.into_iter().enumerate() {
            let shard = index % shards;
            owned[shard].push(index);
            generators[shard].push(source);
            buffers.push(SourceBuffer {
                shard,
                ..SourceBuffer::default()
            });
        }
        // A shard with nothing to generate stays sealed at MAX forever and
        // never blocks the merge.
        let mut seals = vec![SimTime::MAX; shards];
        let mut receivers = Vec::with_capacity(shards);
        let mut handles = Vec::new();
        for (shard, gens) in generators.into_iter().enumerate() {
            if gens.is_empty() {
                receivers.push(None);
                continue;
            }
            let (tx, rx) = sync_channel(EPOCH_PIPELINE);
            handles.push(std::thread::spawn(move || {
                generate(gens, start, end, epoch, tx);
            }));
            receivers.push(Some(rx));
            seals[shard] = start;
        }
        Workers {
            buffers,
            seals,
            owned,
            receivers,
            handles,
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Unblock workers parked on a full channel, then reap them.
        self.receivers.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Generator-shard body: step each owned source through its recurrence,
/// ship the instants epoch by epoch, and exit once every owned source is
/// exhausted — closing the channel is the final seal.
fn generate(
    mut gens: Vec<Generator>,
    start: SimTime,
    end: SimTime,
    epoch: SimDuration,
    tx: SyncSender<Epoch>,
) {
    let mut window_end = start + epoch;
    // Last window's batch sizes, as capacity hints: steady-rate sources
    // would otherwise regrow every batch from zero, and the doubling
    // copies dominate the generation loop on long runs.
    let mut hint = vec![0usize; gens.len()];
    loop {
        let mut batches: Vec<Vec<u64>> = hint
            .iter()
            .map(|&n| Vec::with_capacity(n + n / 4 + 8))
            .collect();
        for (pos, source) in gens.iter_mut().enumerate() {
            while let Some(at) = source.next.filter(|&at| at < window_end) {
                // Stepping first is the one-sample lookahead the spine
                // needs: while it processes this arrival it must know
                // whether to reserve a sequence number for a next one.
                let has_next = source.advance(end);
                batches[pos].push(pack_arrival(at.as_micros(), has_next));
            }
            hint[pos] = batches[pos].len();
        }
        let sealed = Epoch {
            until: window_end,
            sources: batches,
        };
        if tx.send(sealed).is_err() {
            return;
        }
        if window_end >= end {
            // Every arrival lands before `end`, so this epoch drained
            // them all; disconnecting seals the stream at infinity.
            return;
        }
        window_end += epoch;
    }
}
