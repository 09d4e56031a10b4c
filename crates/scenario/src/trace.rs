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
/// newline). Shared by [`Trace::encode`], [`Trace::digest`] and the v2→v1
/// transcoder, so every producer emits byte-identical lines.
/// Allocation-free: the kind word and the decimal fields are assembled on
/// the stack and appended in one copy.
pub(crate) fn encode_event_into(out: &mut String, ev: &TraceEvent) {
    let parts = LineParts::of(ev);
    let mut line = [0u8; LINE_MAX];
    let mut len = parts.kind.len();
    line[..len].copy_from_slice(parts.kind.as_bytes());
    for &value in &parts.nums[..parts.count] {
        line[len] = b' ';
        len += 1 + write_decimal(&mut line[len + 1..], value);
    }
    match parts.tail {
        None => {
            line[len] = b'\n';
            out.push_str(ascii(&line[..=len]));
        }
        Some(tail) => {
            line[len] = b' ';
            out.push_str(ascii(&line[..=len]));
            out.push_str(tail);
            out.push('\n');
        }
    }
}

/// Longest v1 line before its tail: `submit` and four 20-digit numbers,
/// each after a space, then the space or newline that ends them.
const LINE_MAX: usize = 6 + 4 * 21 + 1;

/// Bytes per event [`Trace::encode`] reserves: a little over the mean
/// line of the streams the codec carries (25 to 32 bytes). Growing past
/// it costs a doubling; counting every line's exact length first costs
/// more than the doublings it saves.
const RESERVE_PER_EVENT: usize = 32;

/// Shortest line a v1 event encodes to: `end 0` and its newline. Bounds
/// the decoder's event-vector reservation by the text's length as well as
/// by its newline count.
const SHORTEST_LINE: usize = 6;

/// One event's v1 line, as the parts its text is made of: the kind word,
/// up to four decimal fields, and an optional last word after one more
/// space (a phase name, which may hold spaces, a failure kind, a fault's
/// direction or a breaker state).
struct LineParts<'a> {
    kind: &'static str,
    nums: [u64; 4],
    count: usize,
    tail: Option<&'a str>,
}

impl<'a> LineParts<'a> {
    fn of(ev: &'a TraceEvent) -> Self {
        let parts = |kind, nums: &[u64], tail| {
            let mut fixed = [0; 4];
            fixed[..nums.len()].copy_from_slice(nums);
            LineParts {
                kind,
                nums: fixed,
                count: nums.len(),
                tail,
            }
        };
        match ev {
            TraceEvent::PhaseStart { at, name, clients } => parts(
                "phase",
                &[at.as_micros(), u64::from(*clients)],
                Some(name.as_str()),
            ),
            TraceEvent::Submitted {
                at,
                query,
                client,
                class,
            } => parts(
                "submit",
                &[at.as_micros(), *query, u64::from(*client), *class as u64],
                None,
            ),
            TraceEvent::GatewayBlocked { at, query, level } => {
                parts("gateway", &[at.as_micros(), *query, *level as u64], None)
            }
            TraceEvent::BestEffort { at, query } => {
                parts("besteffort", &[at.as_micros(), *query], None)
            }
            TraceEvent::GrantQueued { at, query, bytes } => {
                parts("grantq", &[at.as_micros(), *query, *bytes], None)
            }
            TraceEvent::ExecStarted { at, query, bytes } => {
                parts("exec", &[at.as_micros(), *query, *bytes], None)
            }
            TraceEvent::Completed { at, query } => parts("done", &[at.as_micros(), *query], None),
            TraceEvent::Failed { at, query, kind } => parts(
                "fail",
                &[at.as_micros(), *query],
                Some(match kind {
                    FailureKind::OutOfMemory => "oom",
                    FailureKind::CompileTimeout => "compile_timeout",
                    FailureKind::GrantTimeout => "grant_timeout",
                }),
            ),
            TraceEvent::CompilePeak { at, bytes } => {
                parts("cpeak", &[at.as_micros(), *bytes], None)
            }
            TraceEvent::FaultInjected { at, fault } => parts(
                "fault",
                &[at.as_micros(), u64::from(*fault)],
                Some("inject"),
            ),
            TraceEvent::FaultCleared { at, fault } => {
                parts("fault", &[at.as_micros(), u64::from(*fault)], Some("clear"))
            }
            TraceEvent::Shed { at, query } => parts("shed", &[at.as_micros(), *query], None),
            TraceEvent::BreakerTransition { at, class, state } => parts(
                "breaker",
                &[at.as_micros(), *class as u64],
                Some(state.name()),
            ),
            TraceEvent::End { at } => parts("end", &[at.as_micros()], None),
        }
    }
}

/// Digits in `value`'s decimal form.
fn decimal_len(value: u64) -> usize {
    value.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Two-digit decimal pairs `00` to `99`, for writing numbers two digits
/// per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write `value` in decimal at the start of `out`; returns the digit count.
fn write_decimal(out: &mut [u8], mut value: u64) -> usize {
    let len = decimal_len(value);
    let mut end = len;
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        end -= 2;
        out[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        out[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out[0] = b'0' + value as u8;
    }
    len
}

/// The line assembled by [`encode_event_into`]: ASCII by construction.
fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("kind words and digits are ASCII")
}

/// A decimal field, by `str::parse::<u64>`'s rules: an optional leading
/// `+`, then one or more ASCII digits, within `u64`.
fn parse_decimal(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    let mut value = 0u64;
    for &byte in digits {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
    }
    Some(value)
}

/// A cursor over one line's bytes, reading its fields left to right in
/// one pass. Fields are separated by single spaces, so two spaces in a
/// row hold an empty field, which no number parses.
struct Fields<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Fields<'a> {
    /// The kind word: everything before the first space.
    fn kind(line: &'a str) -> (&'a [u8], Self) {
        let bytes = line.as_bytes();
        let end = bytes.iter().position(|&b| b == b' ').unwrap_or(bytes.len());
        (&bytes[..end], Fields { line, pos: end })
    }

    /// The next field as a decimal (see [`parse_decimal`]). It ends at
    /// the first byte that is not a digit, which the caller then requires
    /// to be the next space or the end of the line.
    fn num(&mut self) -> Option<u64> {
        let bytes = self.line.as_bytes();
        if bytes.get(self.pos) != Some(&b' ') {
            return None;
        }
        let start = self.pos + 1;
        let digits = start + usize::from(bytes.get(start) == Some(&b'+'));
        let mut end = digits;
        let mut value = 0u64;
        while let Some(digit) = bytes.get(end).map(|b| b.wrapping_sub(b'0')) {
            if digit > 9 {
                break;
            }
            value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
            end += 1;
        }
        self.pos = end;
        // Up to 19 digits cannot overflow; longer runs take the checked
        // parse (leading zeros are legal, so length alone decides nothing).
        match end - digits {
            0 => None,
            1..=19 => Some(value),
            _ => parse_decimal(&bytes[start..end]),
        }
    }

    /// The next field as a timestamp in microseconds.
    fn at(&mut self) -> Option<SimTime> {
        self.num().map(SimTime::from_micros)
    }

    /// The last field: everything after the next space.
    fn rest(&mut self) -> Option<&'a str> {
        let rest = self.line[self.pos..].strip_prefix(' ')?;
        self.pos = self.line.len();
        Some(rest)
    }

    /// `Some` when every byte of the line was read.
    fn end(&self) -> Option<()> {
        (self.pos == self.line.len()).then_some(())
    }
}

/// Parse one v1 event line; `None` on any malformed field. Shared by
/// [`Trace::decode`] and the line-streaming v1→v2 transcoder.
///
/// Accepts exactly the lines that splitting on `' '` and parsing each
/// field with `str::parse` accepts, in one pass over the bytes and
/// without allocating (but for a phase name): each kind reads its fields
/// in order and then requires the line's end, so a missing, extra, empty
/// or non-decimal field fails. A phase name is the verbatim rest of the
/// line after its third space.
pub(crate) fn decode_line(line: &str) -> Option<TraceEvent> {
    let (kind, mut f) = Fields::kind(line);
    let ev = match kind {
        b"phase" => TraceEvent::PhaseStart {
            at: f.at()?,
            clients: f.num()? as u32,
            name: f.rest()?.to_string(),
        },
        b"submit" => TraceEvent::Submitted {
            at: f.at()?,
            query: f.num()?,
            client: f.num()? as u32,
            class: f.num()? as usize,
        },
        b"gateway" => TraceEvent::GatewayBlocked {
            at: f.at()?,
            query: f.num()?,
            level: f.num()? as usize,
        },
        b"besteffort" => TraceEvent::BestEffort {
            at: f.at()?,
            query: f.num()?,
        },
        b"grantq" => TraceEvent::GrantQueued {
            at: f.at()?,
            query: f.num()?,
            bytes: f.num()?,
        },
        b"exec" => TraceEvent::ExecStarted {
            at: f.at()?,
            query: f.num()?,
            bytes: f.num()?,
        },
        b"done" => TraceEvent::Completed {
            at: f.at()?,
            query: f.num()?,
        },
        b"fail" => TraceEvent::Failed {
            at: f.at()?,
            query: f.num()?,
            kind: match f.rest()? {
                "oom" => FailureKind::OutOfMemory,
                "compile_timeout" => FailureKind::CompileTimeout,
                "grant_timeout" => FailureKind::GrantTimeout,
                _ => return None,
            },
        },
        b"cpeak" => TraceEvent::CompilePeak {
            at: f.at()?,
            bytes: f.num()?,
        },
        b"fault" => {
            let at = f.at()?;
            let fault = f.num()? as u32;
            match f.rest()? {
                "inject" => TraceEvent::FaultInjected { at, fault },
                "clear" => TraceEvent::FaultCleared { at, fault },
                _ => return None,
            }
        }
        b"shed" => TraceEvent::Shed {
            at: f.at()?,
            query: f.num()?,
        },
        b"breaker" => TraceEvent::BreakerTransition {
            at: f.at()?,
            class: f.num()? as usize,
            state: BreakerState::parse(f.rest()?)?,
        },
        b"end" => TraceEvent::End { at: f.at()? },
        _ => return None,
    };
    f.end()?;
    Some(ev)
}

/// Index of the first `'\n'` in `bytes` at or after `from`, or the length
/// when there is none. Eight bytes per step: a byte equal to `'\n'` is a
/// zero byte of the word XOR eight newlines, and the lowest zero byte is
/// exactly the lowest byte the borrow trick flags.
fn find_newline(bytes: &[u8], from: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word =
            u64::from_le_bytes(chunk.try_into().expect("eight bytes")) ^ (ONES * u64::from(b'\n'));
        let zero = word.wrapping_sub(ONES) & !word & HIGHS;
        if zero != 0 {
            return i + (zero.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |p| i + p)
}

/// Number of `'\n'` bytes in `bytes`. A sum of at most 255 flags fits a
/// byte, which lets the compiler compare and add 16 bytes at a time.
fn count_newlines(bytes: &[u8]) -> usize {
    bytes
        .chunks(255)
        .map(|chunk| usize::from(chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
        .sum()
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
        let mut out =
            String::with_capacity(self.events.len() * RESERVE_PER_EVENT + HEADER.len() + 1);
        out.push_str(HEADER);
        out.push('\n');
        for ev in &self.events {
            encode_event_into(&mut out, ev);
        }
        out
    }

    /// Parse a trace previously produced by [`Trace::encode`].
    pub fn decode(text: &str) -> Result<Trace, TraceError> {
        // Lines end at `'\n'`; trimming each at the end also drops the
        // `'\r'` of a `"\r\n"` ending, as `str::lines` would.
        let bytes = text.as_bytes();
        let header_end = find_newline(bytes, 0);
        if text[..header_end].trim() != HEADER {
            return Err(TraceError::BadHeader);
        }
        // Every event line but the last ends in a newline, and so does the
        // header: the newline count bounds the events.
        let mut events = Vec::with_capacity(count_newlines(bytes).min(text.len() / SHORTEST_LINE));
        let mut pos = header_end + 1;
        let mut idx = 0;
        while pos < bytes.len() {
            let end = find_newline(bytes, pos);
            let line = text[pos..end].trim_end();
            pos = end + 1;
            idx += 1;
            if line.is_empty() {
                continue;
            }
            events
                .push(decode_line(line).ok_or_else(|| TraceError::BadLine(idx, line.to_string()))?);
        }
        Ok(Trace { events })
    }

    /// A 64-bit FNV-1a digest of the encoded form — a compact fingerprint
    /// for quick "did anything change" comparisons (same hash the engine's
    /// plan-cache keys use).
    ///
    /// Streamed line by line through one reused buffer: the text is never
    /// built whole.
    pub fn digest(&self) -> u64 {
        let mut hash = throttledb_workload::Fnv64::new();
        hash.update(HEADER.as_bytes());
        hash.update(b"\n");
        let mut line = String::with_capacity(LINE_MAX);
        for ev in &self.events {
            line.clear();
            encode_event_into(&mut line, ev);
            hash.update(line.as_bytes());
        }
        hash.finish()
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

/// The codec as it was before this file's allocation-free rewrite: the
/// oracle of the differential tests below.
#[cfg(test)]
#[path = "../tests/support/trace_v1_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn digest_is_the_fnv_of_the_encoded_text() {
        let trace = Trace::new(sample_events());
        assert_eq!(
            trace.digest(),
            throttledb_workload::fnv1a_64(trace.encode().as_bytes())
        );
        let empty = Trace::new(Vec::new());
        assert_eq!(
            empty.digest(),
            throttledb_workload::fnv1a_64(empty.encode().as_bytes())
        );
    }

    #[test]
    fn decimal_fields_follow_str_parse_exactly() {
        for field in [
            "",
            "+",
            "-",
            "-0",
            "+0",
            "++1",
            "+-1",
            "0",
            "007",
            "42",
            "+42",
            " 42",
            "42 ",
            "4_2",
            "\u{ff11}",
            "18446744073709551615",
            "+18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "000000000000000000000000000001",
        ] {
            assert_eq!(
                parse_decimal(field.as_bytes()),
                field.parse::<u64>().ok(),
                "{field:?}"
            );
        }
    }

    /// Phase names the differential tests draw from: spaces (single,
    /// double, leading, trailing), tabs, non-ASCII letters and whitespace,
    /// and the empty name.
    const NAMES: [&str; 8] = [
        "steady state",
        "",
        "na\u{ef}ve \u{3b4}-storm",
        "two  spaces",
        " leading",
        "trailing ",
        "tab\there",
        "nbsp\u{a0}end\u{2003}",
    ];

    /// A field value biased to the codec's edges: 0, the `u32` and `u64`
    /// limits and their neighbours, 19- and 20-digit numbers, or small.
    fn edge(v: u64) -> u64 {
        match v % 8 {
            0 => 0,
            1 => u64::MAX,
            2 => u64::MAX - (v >> 60),
            3 => u64::from(u32::MAX) + (v >> 62),
            4 => 9_999_999_999_999_999_999 + (v >> 62),
            5 => v >> 54,
            _ => v,
        }
    }

    /// One of the 14 event kinds, its fields drawn by [`edge`].
    fn event(kind: u64, a: u64, b: u64, c: u64) -> TraceEvent {
        let at = SimTime::from_micros(edge(a));
        let (b, c) = (edge(b), edge(c));
        match kind % 14 {
            0 => TraceEvent::PhaseStart {
                at,
                name: NAMES[(c % NAMES.len() as u64) as usize].to_string(),
                clients: b as u32,
            },
            1 => TraceEvent::Submitted {
                at,
                query: b,
                client: c as u32,
                class: (b ^ c) as usize,
            },
            2 => TraceEvent::GatewayBlocked {
                at,
                query: b,
                level: c as usize,
            },
            3 => TraceEvent::BestEffort { at, query: b },
            4 => TraceEvent::GrantQueued {
                at,
                query: b,
                bytes: c,
            },
            5 => TraceEvent::ExecStarted {
                at,
                query: b,
                bytes: c,
            },
            6 => TraceEvent::Completed { at, query: b },
            7 => TraceEvent::Failed {
                at,
                query: b,
                kind: [
                    FailureKind::OutOfMemory,
                    FailureKind::CompileTimeout,
                    FailureKind::GrantTimeout,
                ][(c % 3) as usize],
            },
            8 => TraceEvent::CompilePeak { at, bytes: b },
            9 => TraceEvent::FaultInjected {
                at,
                fault: b as u32,
            },
            10 => TraceEvent::FaultCleared {
                at,
                fault: b as u32,
            },
            11 => TraceEvent::Shed { at, query: b },
            12 => TraceEvent::BreakerTransition {
                at,
                class: b as usize,
                state: [
                    BreakerState::Closed,
                    BreakerState::Open,
                    BreakerState::HalfOpen,
                ][(c % 3) as usize],
            },
            _ => TraceEvent::End { at },
        }
    }

    /// Damage one line the way hand-edited or foreign text might: signs,
    /// overflow, empty fields, doubled spaces, tabs, carriage returns,
    /// trailing Unicode whitespace, missing and extra fields, other words,
    /// stray bytes inside a number.
    fn mutate(line: &str, how: u64, at: u64) -> String {
        let spaces: Vec<usize> = line.match_indices(' ').map(|(i, _)| i).collect();
        let space = spaces
            .get((at % spaces.len().max(1) as u64) as usize)
            .copied();
        let mut out = line.to_string();
        match (how % 17, space) {
            (0, _) => {}
            (1, Some(i)) => out.insert(i + 1, '+'),
            (2, Some(i)) => out.insert_str(i + 1, "++"),
            (3, Some(i)) => out.insert(i + 1, '-'),
            (4, Some(i)) => {
                let end = line[i + 1..].find(' ').map_or(line.len(), |e| i + 1 + e);
                out.replace_range(i + 1..end, "18446744073709551616");
            }
            (5, Some(i)) => {
                let end = line[i + 1..].find(' ').map_or(line.len(), |e| i + 1 + e);
                out.replace_range(i + 1..end, "");
            }
            (6, Some(i)) => out.insert(i, ' '),
            (7, Some(i)) => out.replace_range(i..=i, "\t"),
            (8, _) => out.push('\r'),
            (9, Some(i)) => out.insert(i, '\r'),
            (10, _) => out.push_str(["\u{a0}", "\u{2003}", " \t", "\u{3000}"][(at % 4) as usize]),
            (11, Some(_)) => out.truncate(spaces[spaces.len() - 1]),
            (12, _) => out.push_str(" 7"),
            (13, _) => out.push_str(" extra words"),
            (14, _) => {
                let kind =
                    ["phase", "submit", "fault", "breaker", "end", "Done", ""][(at % 7) as usize];
                let rest = space.map_or("", |_| &line[spaces[0]..]);
                out = format!("{kind}{rest}");
            }
            (15, _) => {
                out = out
                    .replacen("halfopen", "ajar", 1)
                    .replacen("oom", "OOM", 1)
            }
            (16, Some(i)) if line.is_char_boundary(i + 2) => out.insert(
                i + 2,
                ['_', 'x', '/', ':', '.', '\u{e9}'][(at % 6) as usize],
            ),
            _ => {}
        }
        out
    }

    /// [`Trace::decode`]'s verdict in the reference's terms.
    fn decode_as_reference(text: &str) -> Result<Vec<TraceEvent>, reference::Rejected> {
        Trace::decode(text)
            .map(Trace::into_events)
            .map_err(|e| match e {
                TraceError::BadHeader => reference::Rejected::BadHeader,
                TraceError::BadLine(n, line) => reference::Rejected::BadLine(n, line),
            })
    }

    proptest! {
        /// The rewrite writes the reference's bytes for every kind and
        /// edge value, its exact-length reservation is exact, and the
        /// line decodes back the way the reference decodes it.
        #[test]
        fn encoding_matches_the_reference_byte_for_byte(
            ops in proptest::collection::vec((0u64..14, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1..40),
        ) {
            let events: Vec<TraceEvent> =
                ops.iter().map(|&(k, a, b, c)| event(k, a, b, c)).collect();
            for ev in &events {
                let (mut ours, mut theirs) = (String::new(), String::new());
                encode_event_into(&mut ours, ev);
                reference::encode_event_into(&mut theirs, ev);
                prop_assert_eq!(&ours, &theirs);
                let line = ours.trim_end();
                prop_assert_eq!(decode_line(line), reference::decode_line(line));
            }
            let trace = Trace::new(events.clone());
            prop_assert_eq!(trace.encode(), reference::encode_trace(&events));
        }

        /// On damaged lines the rewrite returns what the reference
        /// returns, line by line and for a whole text: the same events,
        /// or the same error with the same 1-based line index.
        #[test]
        fn decoding_matches_the_reference_on_damaged_lines(
            ops in proptest::collection::vec((0u64..14, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1..24),
        ) {
            let mut text = format!("{HEADER}\n");
            for &(k, a, b, c) in &ops {
                let mut line = String::new();
                encode_event_into(&mut line, &event(k, a, b, c));
                let damaged = if c % 3 == 0 {
                    line.trim_end_matches('\n').to_string()
                } else {
                    mutate(line.trim_end_matches('\n'), a ^ c, b)
                };
                prop_assert_eq!(decode_line(&damaged), reference::decode_line(&damaged), "{:?}", damaged);
                text.push_str(&damaged);
                text.push_str(if b % 5 == 0 { "\r\n" } else { "\n" });
                if a % 11 == 0 {
                    text.push('\n');
                }
            }
            prop_assert_eq!(decode_as_reference(&text), reference::decode_trace(&text));
        }
    }

    #[test]
    fn fixed_damage_cases_match_the_reference() {
        for line in [
            "",
            " ",
            "phase",
            "phase 1 2",
            "phase 1 2 ",
            "phase 1 2  two  spaces ",
            "phase +1 +2 \u{3b4}",
            "phase 1 4294967296 wraps",
            "submit 1 2 3",
            "submit 1 2 3 4 5",
            "submit 1 2 4294967296 18446744073709551615",
            "submit 1  2 3 4",
            "submit\t1 2 3 4",
            "done 1 2\r",
            "done 1\r 2",
            "done 1 +",
            "end 18446744073709551616",
            "end 99999999999999999999",
            "end ",
            "end",
            "fail 1 2 oom ",
            "fault 1 4294967297 inject",
            "breaker 1 2 halfopen",
            "breaker 1 2 HalfOpen",
            "cpeak 0 0",
            "shed 00 +00",
            "besteffort 1 2 3",
            "end 1_0",
            "end 1x",
            "end x1",
            "end \u{ff11}",
            "done 1/ 2",
            "done 1 2:",
        ] {
            assert_eq!(decode_line(line), reference::decode_line(line), "{line:?}");
        }
        for text in [
            "",
            "\n",
            "throttledb-trace v1",
            " throttledb-trace v1 \r\nend 1",
            "throttledb-trace v1\r\n\r\nend 1\r\nbogus\r\n",
            "throttledb-trace v1\n\n\n\nend 1 2\n",
            "throttledb-trace v1\nend 1\u{2003}\nend 2\r",
            "throttledb-trace v2\nend 1\n",
        ] {
            assert_eq!(
                decode_as_reference(text),
                reference::decode_trace(text),
                "{text:?}"
            );
        }
    }
}
