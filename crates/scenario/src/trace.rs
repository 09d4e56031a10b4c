//! Trace serialization and deterministic replay.
//!
//! A [`Trace`] wraps the engine's recorded admission/grant event stream
//! ([`TraceEvent`]) with a line-oriented text codec and a replay that
//! reconstructs per-phase [`PhaseReport`]s from the events alone, through
//! the same [`MetricsFold`] the live run counts with. The regression
//! workflow is:
//!
//! 1. run a scenario with recording on and save [`Trace::encode`]'s output
//!    as a golden file;
//! 2. later (new build, refactored engine), run the same scenario and
//!    compare — same seed and same policy code must reproduce the encoded
//!    trace byte for byte, and [`Trace::replay`] of the *old* file must
//!    match the *new* run's phase reports.
//!
//! The format is deliberately not the vendored `serde` (whose offline
//! stand-in derives no real serialization — see `vendor/serde`): it is a
//! self-contained `key value` line format that stays diffable in code
//! review and stable across serde swaps.

use throttledb_engine::{BreakerState, FailureKind, MetricsFold, PhaseReport, TraceEvent};
use throttledb_sim::SimTime;

/// Header line identifying the format and its version.
pub(crate) const HEADER: &str = "throttledb-trace v1";

/// Append the v1 text line for one event to `out` (including the trailing
/// newline). Shared by [`Trace::encode`], the streaming v1 writer paths,
/// and the v2→v1 transcoder so every producer emits byte-identical lines.
pub(crate) fn encode_event_into(out: &mut String, ev: &TraceEvent) {
    match ev {
        TraceEvent::PhaseStart { at, name, clients } => {
            // The free-form name goes last so it may contain spaces.
            out.push_str(&format!("phase {} {} {}\n", at.as_micros(), clients, name));
        }
        TraceEvent::Submitted {
            at,
            query,
            client,
            class,
        } => out.push_str(&format!(
            "submit {} {} {} {}\n",
            at.as_micros(),
            query,
            client,
            class
        )),
        TraceEvent::GatewayBlocked { at, query, level } => {
            out.push_str(&format!("gateway {} {} {}\n", at.as_micros(), query, level))
        }
        TraceEvent::BestEffort { at, query } => {
            out.push_str(&format!("besteffort {} {}\n", at.as_micros(), query));
        }
        TraceEvent::GrantQueued { at, query, bytes } => {
            out.push_str(&format!("grantq {} {} {}\n", at.as_micros(), query, bytes))
        }
        TraceEvent::ExecStarted { at, query, bytes } => {
            out.push_str(&format!("exec {} {} {}\n", at.as_micros(), query, bytes))
        }
        TraceEvent::Completed { at, query } => {
            out.push_str(&format!("done {} {}\n", at.as_micros(), query));
        }
        TraceEvent::Failed { at, query, kind } => {
            let kind = match kind {
                FailureKind::OutOfMemory => "oom",
                FailureKind::CompileTimeout => "compile_timeout",
                FailureKind::GrantTimeout => "grant_timeout",
            };
            out.push_str(&format!("fail {} {} {}\n", at.as_micros(), query, kind));
        }
        TraceEvent::CompilePeak { at, bytes } => {
            out.push_str(&format!("cpeak {} {}\n", at.as_micros(), bytes));
        }
        TraceEvent::FaultInjected { at, fault } => {
            out.push_str(&format!("fault {} {} inject\n", at.as_micros(), fault));
        }
        TraceEvent::FaultCleared { at, fault } => {
            out.push_str(&format!("fault {} {} clear\n", at.as_micros(), fault));
        }
        TraceEvent::Shed { at, query } => {
            out.push_str(&format!("shed {} {}\n", at.as_micros(), query));
        }
        TraceEvent::BreakerTransition { at, class, state } => out.push_str(&format!(
            "breaker {} {} {}\n",
            at.as_micros(),
            class,
            state.name()
        )),
        TraceEvent::End { at } => {
            out.push_str(&format!("end {}\n", at.as_micros()));
        }
    }
}

/// Parse one v1 event line; `None` on any malformed field. Shared by
/// [`Trace::decode`] and the line-streaming v1→v2 transcoder.
pub(crate) fn decode_line(line: &str) -> Option<TraceEvent> {
    let tokens: Vec<&str> = line.split(' ').collect();
    let num = |i: usize| -> Option<u64> { tokens.get(i)?.parse::<u64>().ok() };
    let at = |i: usize| -> Option<SimTime> { Some(SimTime::from_micros(num(i)?)) };
    let arity = |n: usize| -> Option<()> { (tokens.len() == n).then_some(()) };
    Some(match *tokens.first()? {
        "phase" => {
            if tokens.len() < 4 {
                return None;
            }
            TraceEvent::PhaseStart {
                at: at(1)?,
                clients: num(2)? as u32,
                // The free-form name is everything after the counts.
                name: tokens[3..].join(" "),
            }
        }
        "submit" => {
            arity(5)?;
            TraceEvent::Submitted {
                at: at(1)?,
                query: num(2)?,
                client: num(3)? as u32,
                class: num(4)? as usize,
            }
        }
        "gateway" => {
            arity(4)?;
            TraceEvent::GatewayBlocked {
                at: at(1)?,
                query: num(2)?,
                level: num(3)? as usize,
            }
        }
        "besteffort" => {
            arity(3)?;
            TraceEvent::BestEffort {
                at: at(1)?,
                query: num(2)?,
            }
        }
        "grantq" => {
            arity(4)?;
            TraceEvent::GrantQueued {
                at: at(1)?,
                query: num(2)?,
                bytes: num(3)?,
            }
        }
        "exec" => {
            arity(4)?;
            TraceEvent::ExecStarted {
                at: at(1)?,
                query: num(2)?,
                bytes: num(3)?,
            }
        }
        "done" => {
            arity(3)?;
            TraceEvent::Completed {
                at: at(1)?,
                query: num(2)?,
            }
        }
        "fail" => {
            arity(4)?;
            let kind = match tokens[3] {
                "oom" => FailureKind::OutOfMemory,
                "compile_timeout" => FailureKind::CompileTimeout,
                "grant_timeout" => FailureKind::GrantTimeout,
                _ => return None,
            };
            TraceEvent::Failed {
                at: at(1)?,
                query: num(2)?,
                kind,
            }
        }
        "cpeak" => {
            arity(3)?;
            TraceEvent::CompilePeak {
                at: at(1)?,
                bytes: num(2)?,
            }
        }
        "fault" => {
            arity(4)?;
            let at = at(1)?;
            let fault = num(2)? as u32;
            match tokens[3] {
                "inject" => TraceEvent::FaultInjected { at, fault },
                "clear" => TraceEvent::FaultCleared { at, fault },
                _ => return None,
            }
        }
        "shed" => {
            arity(3)?;
            TraceEvent::Shed {
                at: at(1)?,
                query: num(2)?,
            }
        }
        "breaker" => {
            arity(4)?;
            TraceEvent::BreakerTransition {
                at: at(1)?,
                class: num(2)? as usize,
                state: BreakerState::parse(tokens[3])?,
            }
        }
        "end" => {
            arity(2)?;
            TraceEvent::End { at: at(1)? }
        }
        _ => return None,
    })
}

/// A recorded admission/grant event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

/// Why decoding a trace failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The input did not start with the `throttledb-trace v1` header.
    BadHeader,
    /// A line (1-based index after the header) could not be parsed.
    BadLine(usize, String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadHeader => write!(f, "missing or unsupported trace header"),
            TraceError::BadLine(n, line) => write!(f, "unparseable trace line {n}: {line:?}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// A trace from recorded events.
    pub fn new(events: Vec<TraceEvent>) -> Self {
        Trace { events }
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The recorded events, by value.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize to the line-oriented text format (one event per line,
    /// preceded by the version header). Timestamps are microseconds.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 24 + HEADER.len() + 1);
        out.push_str(HEADER);
        out.push('\n');
        for ev in &self.events {
            encode_event_into(&mut out, ev);
        }
        out
    }

    /// Parse a trace previously produced by [`Trace::encode`].
    pub fn decode(text: &str) -> Result<Trace, TraceError> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(HEADER) {
            return Err(TraceError::BadHeader);
        }
        let mut events = Vec::new();
        for (idx, line) in lines.enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            events.push(
                decode_line(line).ok_or_else(|| TraceError::BadLine(idx + 1, line.to_string()))?,
            );
        }
        Ok(Trace { events })
    }

    /// A 64-bit FNV-1a digest of the encoded form — a compact fingerprint
    /// for quick "did anything change" comparisons (same hash the engine's
    /// plan-cache keys use).
    pub fn digest(&self) -> u64 {
        throttledb_workload::fnv1a_64(self.encode().as_bytes())
    }

    /// Replay the trace: fold the event stream into per-phase
    /// [`PhaseReport`]s. The live run folds the same events with the same
    /// [`MetricsFold`], so for a trace recorded by the scenario runner the
    /// result equals the run's reports — the regression contract a golden
    /// trace file enforces.
    pub fn replay(&self) -> Vec<PhaseReport> {
        let mut fold = MetricsFold::new();
        for ev in &self.events {
            fold.observe(ev);
        }
        fold.into_phases()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PhaseStart {
                at: SimTime::ZERO,
                name: "steady state".into(),
                clients: 4,
            },
            TraceEvent::Submitted {
                at: SimTime::from_secs(1),
                query: 0,
                client: 2,
                class: 0,
            },
            TraceEvent::GatewayBlocked {
                at: SimTime::from_secs(2),
                query: 0,
                level: 1,
            },
            TraceEvent::CompilePeak {
                at: SimTime::from_secs(2),
                bytes: 64 << 20,
            },
            TraceEvent::BestEffort {
                at: SimTime::from_secs(3),
                query: 0,
            },
            TraceEvent::GrantQueued {
                at: SimTime::from_secs(3),
                query: 0,
                bytes: 512 << 20,
            },
            TraceEvent::ExecStarted {
                at: SimTime::from_secs(4),
                query: 0,
                bytes: 256 << 20,
            },
            TraceEvent::Completed {
                at: SimTime::from_secs(9),
                query: 0,
            },
            TraceEvent::PhaseStart {
                at: SimTime::from_secs(10),
                name: "storm".into(),
                clients: 9,
            },
            TraceEvent::Submitted {
                at: SimTime::from_secs(11),
                query: 1,
                client: 7,
                class: 1,
            },
            TraceEvent::Failed {
                at: SimTime::from_secs(12),
                query: 1,
                kind: FailureKind::GrantTimeout,
            },
            TraceEvent::FaultInjected {
                at: SimTime::from_secs(13),
                fault: 0,
            },
            TraceEvent::BreakerTransition {
                at: SimTime::from_secs(14),
                class: 1,
                state: BreakerState::Open,
            },
            TraceEvent::Shed {
                at: SimTime::from_secs(15),
                query: 2,
            },
            TraceEvent::BreakerTransition {
                at: SimTime::from_secs(16),
                class: 1,
                state: BreakerState::HalfOpen,
            },
            TraceEvent::FaultCleared {
                at: SimTime::from_secs(17),
                fault: 0,
            },
            TraceEvent::End {
                at: SimTime::from_secs(20),
            },
        ]
    }

    #[test]
    fn codec_round_trips_every_event_kind() {
        let trace = Trace::new(sample_events());
        let encoded = trace.encode();
        let decoded = Trace::decode(&encoded).expect("decodes");
        assert_eq!(decoded, trace);
        // Encoding is stable: a second encode is byte-identical.
        assert_eq!(decoded.encode(), encoded);
    }

    #[test]
    fn phase_names_may_contain_spaces() {
        let trace = Trace::new(sample_events());
        let decoded = Trace::decode(&trace.encode()).unwrap();
        match &decoded.events()[0] {
            TraceEvent::PhaseStart { name, .. } => assert_eq!(name, "steady state"),
            other => panic!("unexpected first event {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Trace::decode("nonsense"), Err(TraceError::BadHeader));
        let bad_line = format!("{HEADER}\nsubmit not-a-number 1 2 3\n");
        assert!(matches!(
            Trace::decode(&bad_line),
            Err(TraceError::BadLine(1, _))
        ));
        let unknown_tag = format!("{HEADER}\nwibble 1 2\n");
        assert!(matches!(
            Trace::decode(&unknown_tag),
            Err(TraceError::BadLine(1, _))
        ));
    }

    #[test]
    fn replay_segments_by_phase() {
        let reports = Trace::new(sample_events()).replay();
        assert_eq!(reports.len(), 2);
        let steady = &reports[0];
        assert_eq!(steady.name, "steady state");
        assert_eq!(steady.start, SimTime::ZERO);
        assert_eq!(steady.end, SimTime::from_secs(10));
        assert_eq!(steady.clients, 4);
        assert_eq!(steady.submitted, 1);
        assert_eq!(steady.completed, 1);
        assert_eq!(steady.best_effort_plans, 1);
        assert_eq!(steady.failed, 0);
        assert_eq!(steady.peak_compile_bytes, 64 << 20);
        let storm = &reports[1];
        assert_eq!(storm.end, SimTime::from_secs(20));
        assert_eq!(storm.failed, 1);
        assert_eq!(storm.grant_timeouts, 1);
        assert_eq!(storm.shed, 1);
        assert_eq!(storm.peak_compile_bytes, 0);
        assert_eq!(steady.shed, 0);
    }

    #[test]
    fn pre_chaos_traces_still_decode_with_zero_shed() {
        // A golden recorded before the chaos layer has none of the new
        // line kinds; it must decode and replay unchanged.
        let old = format!(
            "{HEADER}\nphase 0 2 legacy\nsubmit 1000000 0 1 0\ndone 5000000 0\nend 9000000\n"
        );
        let trace = Trace::decode(&old).expect("pre-chaos trace decodes");
        let reports = trace.replay();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].completed, 1);
        assert_eq!(reports[0].shed, 0);
    }

    #[test]
    fn fault_and_breaker_lines_reject_unknown_tails() {
        let bad_fault = format!("{HEADER}\nfault 1000 0 explode\n");
        assert!(matches!(
            Trace::decode(&bad_fault),
            Err(TraceError::BadLine(1, _))
        ));
        let bad_state = format!("{HEADER}\nbreaker 1000 0 ajar\n");
        assert!(matches!(
            Trace::decode(&bad_state),
            Err(TraceError::BadLine(1, _))
        ));
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = Trace::new(sample_events());
        let b = Trace::new(sample_events());
        assert_eq!(a.digest(), b.digest());
        let mut events = sample_events();
        events.truncate(events.len() - 1);
        assert_ne!(Trace::new(events).digest(), a.digest());
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace::new(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(Trace::decode(&t.encode()), Ok(t.clone()));
        assert!(t.replay().is_empty());
    }
}
