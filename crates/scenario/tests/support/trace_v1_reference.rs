//! The v1 line codec as it stood before the allocation-free rewrite in
//! `crates/scenario/src/trace.rs`, kept verbatim as a reference: a
//! `format!` per encoded line and a `Vec<&str>` per decoded one.
//!
//! It is compiled into two places only, never into a library: the
//! differential property tests in `trace.rs` (which hold the rewrite to
//! these bytes and to this decoder's verdict on every line) and the
//! `trace_codec` bench (which measures v2 and the rewrite against it, so
//! the bench's ratios keep the meaning they were recorded with).

use throttledb_engine::{BreakerState, FailureKind, TraceEvent};
use throttledb_sim::SimTime;

/// Append the v1 text line for one event to `out`, newline included.
pub fn encode_event_into(out: &mut String, ev: &TraceEvent) {
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

/// Parse one v1 event line; `None` on any malformed field.
pub fn decode_line(line: &str) -> Option<TraceEvent> {
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

const HEADER: &str = "throttledb-trace v1";

/// Why [`decode_trace`] rejected a text: `TraceError`'s two cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The first line is not the v1 header.
    BadHeader,
    /// A line (1-based index after the header) could not be parsed.
    BadLine(usize, String),
}

/// The whole-trace encoder: header, then one line per event, into a buffer
/// reserved at 24 bytes per event.
pub fn encode_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 24 + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for ev in events {
        encode_event_into(&mut out, ev);
    }
    out
}

/// The whole-trace decoder: `lines()`, each trimmed at the end, blank
/// lines skipped, into a vector grown from empty.
pub fn decode_trace(text: &str) -> Result<Vec<TraceEvent>, Rejected> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(HEADER) {
        return Err(Rejected::BadHeader);
    }
    let mut events = Vec::new();
    for (idx, line) in lines.enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        events.push(decode_line(line).ok_or_else(|| Rejected::BadLine(idx + 1, line.to_string()))?);
    }
    Ok(events)
}
