//! The arrival plane: where each open-loop source's next instant comes
//! from, and the per-source state the server's event loop merges on.
//!
//! Arrivals never sit on the event queue. [`crate::Server::run_until`]
//! is one loop that merges the queue's head and the broker tick's key
//! with one candidate per source — the source's next arrival instant,
//! keyed by a sequence number reserved from the shared event queue
//! (`EventQueue::reserve_seq`) — into one global `(time, seq)` order. The
//! broker tick is merged the same way: its sequence number is reserved
//! where the tick would have been scheduled. The arrival reservations
//! are taken at exactly the moments a queue-scheduled arrival event
//! would have been scheduled:
//!
//! * at [`crate::Server::begin`], after the broker tick's, once per source
//!   in index order iff the source's first arrival lands inside the run;
//!   and
//! * at the *end* of processing each arrival — after `submit_query`'s
//!   own pipeline-event schedules — iff a next arrival lands inside the
//!   run.
//!
//! so the merged order is the one a single queue holding every event
//! would produce (`engine/tests/arrival_fingerprint.rs` holds values
//! recorded from exactly that arrangement).
//!
//! Each source is one [`Generator`] on the event loop's own thread: its
//! private RNG stream, its sampler, and its next instant, sampled one
//! ahead. The recurrence `t_{k+1} = t_k + next_gap(rng, t_k)` saturates
//! at the end of the clock ([`next_instant`]), so a gap too long for it
//! exhausts the source instead of wrapping into the past. A source at its
//! concurrency cap sheds a whole burst in [`ArrivalPlane::shed`], a loop
//! over a copy of its generator held in locals.

use throttledb_sim::{ArrivalSampler, SimRng, SimTime};

/// A `(time, seq)` merge key later than any event's.
pub(crate) const NEVER: (SimTime, u64) = (SimTime::MAX, u64::MAX);

/// One arrival decision's contribution to the streaming FNV-1a arrival
/// digest: 8 time bytes, 4 source bytes, 1 decision byte, little-endian.
///
/// Below 2^32 µs (71 simulated minutes) and 256 sources the high time
/// bytes and the high source bytes are zero, and xoring a zero byte is
/// the identity, so their multiplies merge into `P^5` and `P^4`: six
/// dependent multiplies instead of thirteen, with the same result.
#[inline]
pub(crate) fn fold_arrival_digest(mut h: u64, at_us: u64, source: u32, code: u8) -> u64 {
    const P: u64 = 0x0000_0100_0000_01b3;
    const P4: u64 = P.wrapping_mul(P).wrapping_mul(P).wrapping_mul(P);
    const P5: u64 = P4.wrapping_mul(P);
    if at_us >> 32 == 0 && source < 256 {
        h = (h ^ (at_us & 0xff)).wrapping_mul(P);
        h = (h ^ (at_us >> 8 & 0xff)).wrapping_mul(P);
        h = (h ^ (at_us >> 16 & 0xff)).wrapping_mul(P);
        h = (h ^ (at_us >> 24)).wrapping_mul(P5);
        h = (h ^ u64::from(source)).wrapping_mul(P4);
        return (h ^ u64::from(code)).wrapping_mul(P);
    }
    for byte in at_us.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(P);
    }
    for byte in source.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(P);
    }
    (h ^ u64::from(code)).wrapping_mul(P)
}

/// One step of a source's recurrence: the arrival after `at`, if it lands
/// before `end`. The sum saturates, so a gap past the clock's range ends
/// the source.
#[inline]
fn next_instant(
    sampler: &mut ArrivalSampler,
    rng: &mut SimRng,
    at: SimTime,
    end: SimTime,
) -> Option<SimTime> {
    let follow = at.saturating_add(sampler.next_gap(rng, at));
    (follow < end).then_some(follow)
}

/// One source's arrival recurrence, held one instant ahead.
struct Generator {
    rng: SimRng,
    sampler: ArrivalSampler,
    /// The next arrival's instant; `None` once it would land at or after
    /// the end of the run.
    next: Option<SimTime>,
}

/// Per-source merge state and generators (see the [module docs](self)).
/// The default plane has no sources.
#[derive(Default)]
pub(crate) struct ArrivalPlane {
    /// Per source: the sequence number reserved for its next arrival
    /// (`None` once the source is exhausted).
    pub(crate) reserved: Vec<Option<u64>>,
    sources: Vec<Generator>,
    /// End of the run: arrivals land strictly before it.
    end: SimTime,
}

/// What one [`ArrivalPlane::shed`] burst did.
pub(crate) struct ShedBurst {
    /// Arrivals shed.
    pub(crate) shed: u64,
    /// Sequence numbers they reserved: one per shed arrival, but none
    /// for the last if the source ran out with it.
    pub(crate) reserved: u64,
    /// The last shed arrival's instant.
    pub(crate) last: SimTime,
}

impl ArrivalPlane {
    /// Start the plane for a run over `[start, end)` and take the first
    /// reservations. `streams` holds each source's private RNG stream and
    /// sampler; `reserve` hands out the event queue's next sequence number
    /// — called once per source whose first arrival lands inside the run,
    /// in index order.
    pub(crate) fn start(
        streams: Vec<(SimRng, ArrivalSampler)>,
        start: SimTime,
        end: SimTime,
        mut reserve: impl FnMut() -> u64,
    ) -> Self {
        let sources: Vec<Generator> = streams
            .into_iter()
            .map(|(mut rng, mut sampler)| Generator {
                next: next_instant(&mut sampler, &mut rng, start, end),
                rng,
                sampler,
            })
            .collect();
        let reserved = sources
            .iter()
            .map(|src| src.next.is_some().then(&mut reserve))
            .collect();
        ArrivalPlane {
            reserved,
            sources,
            end,
        }
    }

    /// Step source `s` past its next instant (it was dispatched) and say
    /// whether a further arrival lands inside the run — whether the caller
    /// owes the source a fresh reservation.
    #[inline]
    pub(crate) fn advance(&mut self, s: usize) -> bool {
        let source = &mut self.sources[s];
        let at = source.next.expect("advance past a live instant");
        source.next = next_instant(&mut source.sampler, &mut source.rng, at, self.end);
        source.next.is_some()
    }

    /// The earliest reserved arrival's merge key and its source; a key
    /// later than any event's stands for "none". Sources without a
    /// reservation are invisible here.
    #[inline]
    pub(crate) fn candidate(&self) -> ((SimTime, u64), usize) {
        let (mut best, mut source) = (NEVER, 0);
        for (s, reserved) in self.reserved.iter().enumerate() {
            let Some(seq) = *reserved else { continue };
            let at = self.sources[s]
                .next
                .expect("a reserved source has a next arrival");
            if (at, seq) < best {
                (best, source) = ((at, seq), s);
            }
        }
        (best, source)
    }

    /// Shed source `s`'s arrivals, folding each into `digest` with code 1,
    /// while its merge key stays below `bound`, and set the source's
    /// reservation for whatever comes next. The source's reservation
    /// `first_seq` keys its next arrival; the arrival after the `i`-th
    /// shed one (`i` from 1) is keyed `base + i - 1`, the consecutive
    /// sequence numbers a run of pure sheds takes from the queue.
    ///
    /// The generator's RNG state, its next instant and the digest live in
    /// locals for the burst and are written back once.
    pub(crate) fn shed(
        &mut self,
        s: usize,
        first_seq: u64,
        base: u64,
        bound: (SimTime, u64),
        digest: &mut u64,
    ) -> ShedBurst {
        let end = self.end;
        let source = &mut self.sources[s];
        let mut rng = source.rng.clone();
        let mut at = source.next.expect("a reserved source has a next arrival");
        let (mut key_seq, mut shed, mut last) = (first_seq, 0u64, at);
        let mut h = *digest;
        let mut exhausted = false;
        while (at, key_seq) < bound {
            h = fold_arrival_digest(h, at.as_micros(), s as u32, 1);
            shed += 1;
            last = at;
            let Some(follow) = next_instant(&mut source.sampler, &mut rng, at, end) else {
                exhausted = true;
                break;
            };
            at = follow;
            key_seq = base + shed - 1;
        }
        source.rng = rng;
        source.next = (!exhausted).then_some(at);
        *digest = h;
        let reserved = shed - u64::from(exhausted);
        self.reserved[s] = match (shed, exhausted) {
            (0, _) => Some(first_seq),
            (_, true) => None,
            (_, false) => Some(base + reserved - 1),
        };
        ShedBurst {
            shed,
            reserved,
            last,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time fold `fold_arrival_digest` shortcuts, kept as its
    /// oracle.
    fn fold_bytes(mut h: u64, at_us: u64, source: u32, code: u8) -> u64 {
        const P: u64 = 0x0000_0100_0000_01b3;
        for byte in at_us
            .to_le_bytes()
            .into_iter()
            .chain(source.to_le_bytes())
            .chain([code])
        {
            h = (h ^ u64::from(byte)).wrapping_mul(P);
        }
        h
    }

    #[test]
    fn digest_fold_matches_the_byte_loop_at_the_edges() {
        for at_us in [0, 1, 0xff, 0x100, u64::from(u32::MAX), 1 << 32, u64::MAX] {
            for source in [0, 1, 255, 256, u32::MAX] {
                for code in [0, 1, 2, 0xff] {
                    let h = 0xcbf2_9ce4_8422_2325;
                    assert_eq!(
                        fold_arrival_digest(h, at_us, source, code),
                        fold_bytes(h, at_us, source, code),
                        "at {at_us:#x}, source {source}, code {code}"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_digest_fold_matches_the_byte_loop(
            h in 0u64..u64::MAX,
            at_us in (0u64..2 << 32, 0u64..u64::MAX),
            source in (0u32..512, 0u32..u32::MAX),
            code in 0u8..3,
        ) {
            for at_us in [at_us.0, at_us.1] {
                for source in [source.0, source.1] {
                    prop_assert_eq!(
                        fold_arrival_digest(h, at_us, source, code),
                        fold_bytes(h, at_us, source, code)
                    );
                }
            }
        }
    }
}
