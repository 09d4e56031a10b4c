//! `trace_plane`: the two trace codecs and the replay fold.
//!
//! Neither simulated workload touches the codecs. Primary operations push
//! one synthetic event stream through the binary v2 plane — encode, decode,
//! streaming replay; alt operations push the same streams through the v1
//! text plane. Every stream must survive both round trips unchanged and
//! replay to the same per-phase reports either way.

use crate::spans::Tracer;
use crate::workload::{digest_of, fold_words, Base, OpOutcome, Workload};
use std::time::Instant;
use throttledb_engine::{FailureKind, TraceEvent};
use throttledb_scenario::{
    replay_v2, Scale, Scenario, ScenarioRunner, Trace, TraceReaderV2, TraceWriterV2,
};
use throttledb_sim::{SimRng, SimTime};

/// Streams per primary pass: enough for a p90 with ten inputs beyond it.
const PRIMARY_INPUTS: usize = 100;
/// Streams per alt pass (the first of the primary streams).
const ALT_INPUTS: usize = 10;
/// Events per stream.
const STREAM_EVENTS: usize = 400_000;
/// Events per phase of a stream.
const PHASE_EVENTS: usize = 100_000;

/// Event mix in percent, rounded from a recorded `sim_pipeline` operation
/// (12 489 events: 2 983 submitted, 667 gateway-blocked, 2 980
/// grant-queued, 2 750 exec-started, 2 748 completed, 216 failed, 145
/// compile-peak). `CompilePeak` takes the remainder.
const MIX_SUBMITTED: u64 = 24;
const MIX_GATEWAY_BLOCKED: u64 = 5;
const MIX_GRANT_QUEUED: u64 = 24;
const MIX_EXEC_STARTED: u64 = 22;
const MIX_COMPLETED: u64 = 22;
const MIX_FAILED: u64 = 2;
/// Largest gap between two records, in simulated microseconds; that run's
/// mean gap was 11.5 s.
const MAX_GAP_US: u64 = 23_000_000;

/// The workload, set up.
pub struct TracePlane {
    seed: u64,
    /// The phase names a stream uses, which its v2 header interns.
    catalog: Vec<String>,
    setup_checks: (u64, u64),
}

/// Stream `i` of run `seed`: near-sorted query ids and microsecond
/// timestamps, like the engine emits, in the pipeline's event mix.
fn generate(seed: u64, i: usize) -> Vec<TraceEvent> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7ACE_0000_0000_0000).fork(i as u64);
    let mut events = Vec::with_capacity(STREAM_EVENTS + 1);
    let mut at_us = 0u64;
    let mut query = 0u64;
    let mut peak = 64u64 << 20;
    while events.len() < STREAM_EVENTS {
        if events.len() % PHASE_EVENTS == 0 {
            events.push(TraceEvent::PhaseStart {
                at: SimTime::from_micros(at_us),
                name: format!("phase{}", events.len() / PHASE_EVENTS),
                clients: 20,
            });
            peak = 64 << 20;
            continue;
        }
        at_us += rng.uniform_u64(0, MAX_GAP_US);
        let at = SimTime::from_micros(at_us);
        let recent = query.saturating_sub(rng.uniform_u64(0, 24));
        let mut roll = rng.uniform_u64(0, 100);
        let mut is = |share: u64| {
            let hit = roll < share;
            roll = roll.wrapping_sub(share);
            hit
        };
        events.push(if is(MIX_SUBMITTED) {
            query += 1;
            TraceEvent::Submitted {
                at,
                query,
                client: (query % 20) as u32,
                class: 0,
            }
        } else if is(MIX_GATEWAY_BLOCKED) {
            TraceEvent::GatewayBlocked {
                at,
                query: recent,
                level: (recent % 3) as usize,
            }
        } else if is(MIX_GRANT_QUEUED) {
            TraceEvent::GrantQueued {
                at,
                query: recent,
                bytes: rng.uniform_u64(64 << 20, 900 << 20),
            }
        } else if is(MIX_EXEC_STARTED) {
            TraceEvent::ExecStarted {
                at,
                query: recent,
                bytes: rng.uniform_u64(64 << 20, 900 << 20),
            }
        } else if is(MIX_COMPLETED) {
            TraceEvent::Completed { at, query: recent }
        } else if is(MIX_FAILED) {
            TraceEvent::Failed {
                at,
                query: recent,
                kind: match recent % 3 {
                    0 => FailureKind::OutOfMemory,
                    1 => FailureKind::CompileTimeout,
                    _ => FailureKind::GrantTimeout,
                },
            }
        } else {
            peak += rng.uniform_u64(0, 8 << 20);
            TraceEvent::CompilePeak { at, bytes: peak }
        });
    }
    events.push(TraceEvent::End {
        at: SimTime::from_micros(at_us + 1),
    });
    events
}

fn v2_encode(
    events: &[TraceEvent],
    catalog: &[String],
    config_digest: u64,
) -> Option<(Vec<u8>, u64)> {
    let mut bytes = Vec::with_capacity(events.len() * 6);
    let mut writer = TraceWriterV2::new(&mut bytes, catalog, config_digest).ok()?;
    for event in events {
        writer.write_event(event).ok()?;
    }
    let summary = writer.finish().ok()?;
    drop(writer);
    Some((bytes, summary.digest))
}

impl TracePlane {
    /// Set up for `seed`; also round-trips one real captured engine trace
    /// through both codecs as a checked operation, so the synthetic
    /// streams are never the only thing the codecs have seen.
    pub fn new(base: Base, seed: u64, tracer: &Tracer) -> Self {
        let ok = tracer.time("scenario.captured_round_trip", 1, || {
            captured_round_trip(&base, seed).unwrap_or(false)
        });
        TracePlane {
            seed,
            catalog: (0..STREAM_EVENTS.div_ceil(PHASE_EVENTS))
                .map(|p| format!("phase{p}"))
                .collect(),
            setup_checks: (1, u64::from(!ok)),
        }
    }
}

/// Record the built-in `compile_storm` scenario at quick scale, then check
/// that v1 and v2 both decode to the recorded events and that both replay
/// to the live run's phase reports.
fn captured_round_trip(base: &Base, seed: u64) -> Option<bool> {
    let scenario = Scenario::builtin("compile_storm", Scale::Quick)?.with_seed(seed);
    let catalog = scenario.trace_catalog();
    let config_digest = scenario.config_digest();
    let outcome = ScenarioRunner::new(scenario)
        .record_trace(true)
        .with_profiles(base.profiles.clone())
        .run();
    let trace = outcome.trace?;
    let v1 = Trace::decode(&trace.encode()).ok()?;
    let (bytes, digest) = v2_encode(trace.events(), &catalog, config_digest)?;
    let v2: Vec<TraceEvent> = TraceReaderV2::new(&bytes[..])
        .ok()?
        .collect::<Result<_, _>>()
        .ok()?;
    let replayed = replay_v2(&bytes[..]).ok()?;
    Some(
        !trace.is_empty()
            && v1.events() == trace.events()
            && v2 == trace.events()
            && trace.replay() == outcome.phases
            && replayed.reports == outcome.phases
            && replayed.digest == digest
            && replayed.config_digest == config_digest,
    )
}

impl Workload for TracePlane {
    fn primary_len(&self) -> usize {
        PRIMARY_INPUTS
    }

    fn alt_len(&self) -> usize {
        ALT_INPUTS
    }

    fn primary(&self, i: usize, tracer: &Tracer) -> OpOutcome {
        let events = generate(self.seed, i);
        let n = events.len() as u64;

        let start = Instant::now();
        let encoded = tracer.time("scenario.trace_v2.encode", n, || {
            v2_encode(&events, &self.catalog, self.seed)
        });
        let decoded = encoded.as_ref().and_then(|(bytes, _)| {
            tracer.time("scenario.trace_v2.decode", n, || {
                TraceReaderV2::new(&bytes[..])
                    .ok()?
                    .collect::<Result<Vec<TraceEvent>, _>>()
                    .ok()
            })
        });
        let replayed = encoded.as_ref().and_then(|(bytes, _)| {
            tracer.time("scenario.trace_v2.replay", n, || replay_v2(&bytes[..]).ok())
        });
        let secs = start.elapsed().as_secs_f64();

        let (Some((bytes, digest)), Some(decoded), Some(replayed)) = (encoded, decoded, replayed)
        else {
            return OpOutcome::FAILED;
        };
        tracer.count("scenario.trace_v2.bytes", bytes.len() as u64);
        tracer.count("scenario.trace_v2.events", n);
        OpOutcome {
            secs,
            work: n,
            // What the stream replays to: the value both planes must agree on.
            fingerprint: digest_of(&replayed.reports),
            ok: decoded == events
                && replayed.events == n
                && replayed.digest == digest
                && replayed.config_digest == self.seed
                && replayed.reports.len() == self.catalog.len(),
        }
    }

    fn alt(&self, i: usize, tracer: &Tracer) -> OpOutcome {
        let trace = Trace::new(generate(self.seed, i));
        let n = trace.len() as u64;

        let start = Instant::now();
        let text = tracer.time("scenario.trace_v1.encode", n, || trace.encode());
        let decoded = tracer.time("scenario.trace_v1.decode", n, || Trace::decode(&text).ok());
        let reports = decoded
            .as_ref()
            .map(|d| tracer.time("scenario.trace_v1.replay", n, || d.replay()));
        let secs = start.elapsed().as_secs_f64();

        tracer.count("scenario.trace_v1.bytes", text.len() as u64);
        tracer.count("scenario.trace_v1.events", n);
        let (Some(decoded), Some(reports)) = (decoded, reports) else {
            return OpOutcome::FAILED;
        };
        OpOutcome {
            secs,
            work: n,
            fingerprint: digest_of(&reports),
            ok: decoded.events() == trace.events(),
        }
    }

    fn unit(&self) -> &'static str {
        "trace events"
    }

    fn alt_mirrors_primary(&self) -> bool {
        true
    }

    fn config_digest(&self) -> u64 {
        fold_words(&[
            digest_of(&(PRIMARY_INPUTS, ALT_INPUTS, STREAM_EVENTS, PHASE_EVENTS)),
            digest_of(&[
                MIX_SUBMITTED,
                MIX_GATEWAY_BLOCKED,
                MIX_GRANT_QUEUED,
                MIX_EXEC_STARTED,
                MIX_COMPLETED,
                MIX_FAILED,
                MAX_GAP_US,
            ]),
        ])
    }

    fn setup_checks(&self) -> (u64, u64) {
        self.setup_checks
    }
}
