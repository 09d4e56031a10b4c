//! The BENCH document format — its one writer, its one parser — and the
//! regression gate.
//!
//! The gate diffs a current BENCH document against a committed baseline
//! and reports every metric that regressed beyond a relative tolerance. It
//! reads five document kinds: the sweep cells, `BENCH_policies.json`,
//! `BENCH_resilience.json`, `BENCH_trace.json` and `BENCH_compile.json`. CI runs it after the sweep and bench steps and
//! fails the build on any regression; the baseline-update workflow (see
//! `README.md`) is the only way to accept an intentional change.
//!
//! The workspace `serde` is a no-op stub, so every BENCH file is written
//! by [`render`] and read back by [`parse`], a minimal recursive-descent
//! parser that is strict about everything it accepts. A document is a
//! header of scalar members followed by arrays of one-line [`Row`]s.
//!
//! Directionality is per metric: throughput-like metrics regress when they
//! *drop* below `baseline * (1 - tolerance)`; latency/failure-like metrics
//! regress when they *rise* above `baseline * (1 + tolerance)`; exact counts
//! (allocator calls per memo expression, modelled compile bytes) regress
//! when they move at all, whatever the tolerance. Each banded metric
//! also carries an absolute slack floor so zero-valued baselines stay
//! meaningful (a relative band around 0 has zero width). Neutral fields
//! (seeds, digests, wall-clock) are ignored. A cell present in the
//! baseline but missing from the current document is a coverage regression
//! and fails the gate outright.

use std::fmt::{self, Write as _};

/// One member of a BENCH document, with the formatting it is written in.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// An exact count, in decimal.
    Count(u64),
    /// A float with a fixed number of decimal places.
    Fixed(f64, usize),
    /// A 64-bit digest, as a 16-digit hex string.
    Hex(u64),
    /// A string, escaped.
    Text(String),
    /// `null`.
    Null,
    /// A mean with its 95% confidence half-width, six decimals each.
    MeanCi {
        /// Sample mean.
        mean: f64,
        /// 95% confidence half-width.
        ci95: f64,
    },
    /// A per-slice count series as `[[slice start seconds, count], ...]`.
    Slices(Vec<(u64, u64)>),
}

impl Field {
    /// The value as a number: counts and floats, `None` otherwise.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match *self {
            Field::Count(n) => Some(n as f64),
            Field::Fixed(v, _) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Field {
    /// The member's JSON text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Count(n) => write!(f, "{n}"),
            Field::Fixed(v, places) => write!(f, "{:.*}", *places, v),
            Field::Hex(d) => write!(f, "\"{d:016x}\""),
            Field::Null => f.write_str("null"),
            Field::MeanCi { mean, ci95 } => {
                write!(f, "{{\"mean\": {mean:.6}, \"ci95\": {ci95:.6}}}")
            }
            Field::Slices(slices) => {
                let pairs: Vec<String> =
                    slices.iter().map(|(s, n)| format!("[{s}, {n}]")).collect();
                write!(f, "[{}]", pairs.join(", "))
            }
            Field::Text(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\t' => f.write_str("\\t")?,
                        '\r' => f.write_str("\\r")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
        }
    }
}

/// One line of a document's array: named fields, in output order.
pub type Row = Vec<(&'static str, Field)>;

/// Render a BENCH document: the `head` members one per line, then each
/// named section as an array with one row per line.
pub fn render(head: &[(&str, Field)], sections: &[(&str, &[Row])]) -> String {
    let mut members: Vec<String> = head
        .iter()
        .map(|(name, field)| format!("\"{name}\": {field}"))
        .collect();
    for (name, rows) in sections {
        let mut section = format!("\"{name}\": [\n");
        for (i, row) in rows.iter().enumerate() {
            section.push_str("    {");
            for (j, (column, field)) in row.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(section, "{sep}\"{column}\": {field}");
            }
            section.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
        }
        section.push_str("  ]");
        members.push(section);
    }
    format!("{{\n  {}\n}}\n", members.join(",\n  "))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as f64 (the gate only compares magnitudes).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving member order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A malformed document, with a byte offset for the error message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset the parser stopped at.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!("expected '{}'", byte as char))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => self.error("expected a value"),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.error(format!("expected {text}"))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return self.error("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.error("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    self.pos += 4;
                                    c
                                }
                                None => return self.error("bad \\u escape"),
                            }
                        }
                        _ => return self.error("bad escape"),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    match std::str::from_utf8(&self.bytes[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.error("invalid UTF-8"),
                    }
                }
                None => return self.error("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or(ParseError {
                at: start,
                message: "bad number".to_string(),
            })
    }
}

/// Parse one JSON document, requiring it to be fully consumed.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.error("trailing garbage");
    }
    Ok(v)
}

/// Whether a metric regresses by dropping, by rising, or by moving at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
    /// A deterministic count: any difference is a change of behaviour, so
    /// neither the tolerance nor the floor applies.
    Exact,
}

/// The gated metrics: direction plus an absolute slack floor. Fields not
/// listed here are identity (policy/scenario/seed) or informative
/// (digests, per-machine rates) and are never gated.
///
/// The floor is what makes zero-valued baselines meaningful: a purely
/// relative band around 0 has zero width, so a lower-is-better metric at
/// 0.0 would flag any noise-scale increase (and a higher-is-better one
/// could never flag at all). The effective slack is
/// `max(tolerance * |baseline|, floor)` — floors are sized to each
/// metric's noise scale, well below any real regression.
const METRICS: &[(&str, Direction, f64)] = &[
    ("completed", Direction::HigherIsBetter, 1.0),
    ("throughput_per_slice", Direction::HigherIsBetter, 0.5),
    ("failed", Direction::LowerIsBetter, 1.0),
    ("p99_wait_us", Direction::LowerIsBetter, 1000.0),
    ("failure_rate", Direction::LowerIsBetter, 0.01),
    ("degrade_rate", Direction::LowerIsBetter, 0.01),
    // Resilience metrics (BENCH_resilience.json).
    ("goodput_under_fault", Direction::HigherIsBetter, 0.002),
    ("time_to_recovery_s", Direction::LowerIsBetter, 60.0),
    ("shed", Direction::LowerIsBetter, 2.0),
    ("retries_abandoned", Direction::LowerIsBetter, 2.0),
    ("breaker_transitions", Direction::LowerIsBetter, 2.0),
    // Event-loop and open-loop arrival counts (BENCH_sweep.json cells).
    // They are deterministic per (scenario, seed) and independent of the
    // worker count, so any movement at all is a change of behaviour.
    ("events_dispatched", Direction::Exact, 0.0),
    ("peak_queue_depth", Direction::Exact, 0.0),
    ("arrivals", Direction::Exact, 0.0),
    ("arrivals_admitted", Direction::Exact, 0.0),
    ("arrivals_shed", Direction::Exact, 0.0),
    // Trace-codec metrics (BENCH_trace.json). Sizes and ratios are
    // deterministic per (codec, scenario); the throughput rates are
    // same-machine and stay ungated, but the v2-over-v1 speedups are
    // same-machine ratios and transfer across machines.
    ("bytes_per_event", Direction::LowerIsBetter, 0.5),
    ("size_ratio", Direction::HigherIsBetter, 0.5),
    ("encode_speedup", Direction::HigherIsBetter, 0.5),
    ("decode_speedup", Direction::HigherIsBetter, 0.5),
    // Compile-path metrics (BENCH_compile.json), per template. Allocator
    // calls and the `sizes::*` model are counts that repeat exactly; the
    // real heap per memo expression is a count too but depends on the
    // standard library's growth policy, so it gets a band. Wall-clock
    // (`compile_ns`, `ns_per_transformation`) stays ungated.
    ("alloc_calls_per_expr", Direction::Exact, 0.0),
    ("modelled_peak_bytes", Direction::Exact, 0.0),
    ("heap_bytes_per_expr", Direction::LowerIsBetter, 64.0),
];

/// One extracted (cell-or-aggregate, metric) observation.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// "cell policy=pid scenario=compile_storm seed=2007" or
    /// "aggregate policy=pid scenario=compile_storm".
    pub key: String,
    /// Metric field name.
    pub metric: &'static str,
    /// The observed value (an aggregate contributes its `mean`).
    pub value: f64,
}

/// One metric that moved beyond tolerance (or a missing cell).
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The cell/aggregate and metric that regressed.
    pub what: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (`NaN` when the cell is missing entirely).
    pub current: f64,
}

fn entry_key(obj: &Value, kind: &str) -> String {
    let mut key = kind.to_string();
    for id in ["policy", "scenario", "codec", "template"] {
        if let Some(v) = obj.get(id).and_then(Value::as_str) {
            let _ = write!(key, " {id}={v}");
        }
    }
    if let Some(seed) = obj.get("seed").and_then(Value::as_f64) {
        let _ = write!(key, " seed={seed}");
    }
    // A row keyed by a shard count (the shard grid's, deleted with the
    // threaded arrival feed) runs the *same* (scenario, seed) as its
    // siblings; the count is identity there, or two cells would collide
    // on one key and a vanished shard count could hide.
    if let Some(shards) = obj.get("shards").and_then(Value::as_f64) {
        let _ = write!(key, " shards={shards}");
    }
    // Likewise the paper grid runs one scenario at several client counts.
    if let Some(clients) = obj.get("clients").and_then(Value::as_f64) {
        let _ = write!(key, " clients={clients}");
    }
    key
}

/// Extract every gated metric from a parsed BENCH document: the `cells`
/// array (flat numeric fields) and the `aggregates` array (nested
/// `{"mean": …, "ci95": …}` objects, gated on the mean).
pub fn extract(doc: &Value) -> Vec<MetricEntry> {
    let mut entries = Vec::new();
    for (section, kind) in [("cells", "cell"), ("aggregates", "aggregate")] {
        let Some(Value::Arr(items)) = doc.get(section) else {
            continue;
        };
        for obj in items {
            let key = entry_key(obj, kind);
            for &(metric, _, _) in METRICS {
                let value = match obj.get(metric) {
                    Some(v @ Value::Obj(_)) => v.get("mean").and_then(Value::as_f64),
                    Some(v) => v.as_f64(),
                    None => None,
                };
                if let Some(value) = value {
                    entries.push(MetricEntry {
                        key: key.clone(),
                        metric,
                        value,
                    });
                }
            }
        }
    }
    entries
}

fn direction_and_floor_of(metric: &str) -> (Direction, f64) {
    METRICS
        .iter()
        .find(|(m, _, _)| *m == metric)
        .map(|&(_, d, floor)| (d, floor))
        .expect("extract only yields gated metrics")
}

/// Diff `current` against `baseline` with a relative `tolerance` (0.10 =
/// ±10%). Returns every regression; an empty vector means the gate passes.
/// Cells present only in `current` (new scenarios/policies) are fine; cells
/// present only in `baseline` are failures.
pub fn compare(baseline: &Value, current: &Value, tolerance: f64) -> Vec<Regression> {
    let base_entries = extract(baseline);
    let current_entries = extract(current);
    let mut regressions = Vec::new();
    for base in &base_entries {
        let Some(cur) = current_entries
            .iter()
            .find(|e| e.key == base.key && e.metric == base.metric)
        else {
            regressions.push(Regression {
                what: format!("{} {}: missing from current results", base.key, base.metric),
                baseline: base.value,
                current: f64::NAN,
            });
            continue;
        };
        // The per-metric floor keeps zero and near-zero baselines honest:
        // the relative band collapses there, so without it a
        // lower-is-better metric at 0.0 trips on any noise-scale uptick
        // while a higher-is-better one can never trip at all.
        let (direction, floor) = direction_and_floor_of(base.metric);
        let slack = (tolerance * base.value.abs()).max(floor);
        let regressed = match direction {
            Direction::HigherIsBetter => cur.value < base.value - slack,
            Direction::LowerIsBetter => cur.value > base.value + slack,
            Direction::Exact => cur.value != base.value,
        };
        if regressed {
            regressions.push(Regression {
                what: format!(
                    "{} {}: {} -> {} (tolerance ±{:.0}%)",
                    base.key,
                    base.metric,
                    base.value,
                    cur.value,
                    tolerance * 100.0
                ),
                baseline: base.value,
                current: cur.value,
            });
        }
    }
    regressions
}

/// Like [`compare`], from raw document text.
pub fn compare_text(
    baseline: &str,
    current: &str,
    tolerance: f64,
) -> Result<Vec<Regression>, ParseError> {
    Ok(compare(&parse(baseline)?, &parse(current)?, tolerance))
}

/// The gate's self-test: a synthetic baseline against (a) itself — must
/// pass — and (b) a copy with one metric regressed well beyond tolerance —
/// must fail. Returns an error string on any violated expectation, so the
/// CI step proves the gate can actually reject before it is trusted to
/// accept.
pub fn self_test() -> Result<(), String> {
    let baseline = r#"{
  "benchmark": "policies",
  "cells": [
    {"policy": "ladder", "scenario": "compile_storm", "seed": 2007,
     "completed": 1000, "failed": 10, "p99_wait_us": 50000,
     "throughput_per_slice": 120.5},
    {"policy": "ladder", "scenario": "retry_storm", "seed": 2007,
     "completed": 400, "failed": 30, "shed": 0,
     "retries_abandoned": 5, "breaker_transitions": 4,
     "goodput_under_fault": 0.02, "time_to_recovery_s": 600.0}
  ],
  "aggregates": [
    {"policy": "ladder", "scenario": "compile_storm", "seeds": 5,
     "throughput_per_slice": {"mean": 118.0, "ci95": 4.0},
     "failure_rate": {"mean": 0.01, "ci95": 0.002}},
    {"policy": "ladder", "scenario": "retry_storm", "seeds": 5,
     "goodput_under_fault": {"mean": 0.018, "ci95": 0.003},
     "time_to_recovery_s": {"mean": 640.0, "ci95": 90.0}},
    {"scenario": "open_loop_scale", "codec": "v2",
     "bytes_per_event": 5.1, "size_ratio": 5.5,
     "encode_speedup": 9.0, "decode_speedup": 8.0},
    {"template": "sales_q01", "alloc_calls_per_expr": 0.028,
     "modelled_peak_bytes": 183889408, "heap_bytes_per_expr": 151.6}
  ]
}"#;
    let regressed = baseline.replace("\"completed\": 1000", "\"completed\": 800");
    match compare_text(baseline, baseline, 0.10) {
        Ok(r) if r.is_empty() => {}
        Ok(r) => return Err(format!("identical documents flagged: {r:?}")),
        Err(e) => return Err(format!("self-test baseline failed to parse: {e:?}")),
    }
    match compare_text(baseline, &regressed, 0.10) {
        Ok(r) if r.len() == 1 && r[0].what.contains("completed") => {}
        Ok(r) => return Err(format!("20% completed drop not caught exactly once: {r:?}")),
        Err(e) => return Err(format!("self-test regressed doc failed to parse: {e:?}")),
    }
    // A drop inside the tolerance band must pass.
    let tolerated = baseline.replace("\"completed\": 1000", "\"completed\": 950");
    match compare_text(baseline, &tolerated, 0.10) {
        Ok(r) if r.is_empty() => {}
        Ok(r) => return Err(format!("5% drop inside ±10% flagged: {r:?}")),
        Err(e) => return Err(format!("self-test tolerated doc failed to parse: {e:?}")),
    }
    // The resilience metrics are gated too: a doubled recovery time in the
    // aggregate must be rejected...
    let slow_recovery = baseline.replace("\"mean\": 640.0", "\"mean\": 1400.0");
    match compare_text(baseline, &slow_recovery, 0.10) {
        Ok(r) if r.len() == 1 && r[0].what.contains("time_to_recovery_s") => {}
        Ok(r) => return Err(format!("recovery-time jump not caught exactly once: {r:?}")),
        Err(e) => return Err(format!("self-test recovery doc failed to parse: {e:?}")),
    }
    // ...while a zero-valued shed baseline tolerates noise-scale upticks
    // (the absolute floor) but not a real shed storm.
    let shed_noise = baseline.replace("\"shed\": 0", "\"shed\": 1");
    match compare_text(baseline, &shed_noise, 0.10) {
        Ok(r) if r.is_empty() => {}
        Ok(r) => return Err(format!("noise-scale shed uptick flagged: {r:?}")),
        Err(e) => return Err(format!("self-test shed doc failed to parse: {e:?}")),
    }
    let shed_storm = baseline.replace("\"shed\": 0", "\"shed\": 40");
    match compare_text(baseline, &shed_storm, 0.10) {
        Ok(r) if r.len() == 1 && r[0].what.contains("shed") => {}
        Ok(r) => return Err(format!("shed storm over a zero baseline not caught: {r:?}")),
        Err(e) => return Err(format!("self-test shed-storm doc failed to parse: {e:?}")),
    }
    // A trace-codec compression collapse must trip size_ratio.
    let bloated = baseline.replace("\"size_ratio\": 5.5", "\"size_ratio\": 2.0");
    match compare_text(baseline, &bloated, 0.10) {
        Ok(r) if r.len() == 1 && r[0].what.contains("size_ratio") => {}
        Ok(r) => return Err(format!("codec size-ratio collapse not caught: {r:?}")),
        Err(e) => return Err(format!("self-test codec doc failed to parse: {e:?}")),
    }
    // Exact counts trip on a move far inside the band, in either direction.
    let cheaper_model = baseline.replace("183889408", "183889407");
    match compare_text(baseline, &cheaper_model, 0.10) {
        Ok(r) if r.len() == 1 && r[0].what.contains("modelled_peak_bytes") => Ok(()),
        Ok(r) => Err(format!("one-byte move of an exact count not caught: {r:?}")),
        Err(e) => Err(format!("self-test compile doc failed to parse: {e:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_the_bench_shapes() {
        let doc = parse(
            r#"{"a": [1, -2.5, 1e3], "s": "x\"y\\z\nw", "u": "\u0041", "b": true, "n": null, "o": {"mean": 1.5}}"#,
        )
        .expect("valid document");
        assert_eq!(doc.get("s"), Some(&Value::Str("x\"y\\z\nw".to_string())));
        assert_eq!(doc.get("u"), Some(&Value::Str("A".to_string())));
        assert_eq!(
            doc.get("a"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(-2.5),
                Value::Num(1000.0)
            ]))
        );
        assert_eq!(doc.get("o").unwrap().get("mean"), Some(&Value::Num(1.5)));
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} junk").is_err());
    }

    #[test]
    fn writer_round_trips_every_field_kind() {
        let text = "a\"b\\c\nd\te\r\u{1}f";
        let num = Value::Num;
        let kinds = [
            (Field::Count(10_798_973), num(10_798_973.0)),
            (Field::Fixed(0.011905, 6), num(0.011905)),
            (Field::Fixed(9.75, 2), num(9.75)),
            (Field::Fixed(15_040_348.4, 0), num(15_040_348.0)),
            (
                Field::Hex(0xcbf2_9ce4),
                Value::Str("00000000cbf29ce4".to_string()),
            ),
            (Field::Text(text.to_string()), Value::Str(text.to_string())),
            (Field::Null, Value::Null),
            (
                Field::MeanCi {
                    mean: 6.2,
                    ci95: 0.723892,
                },
                Value::Obj(vec![
                    ("mean".to_string(), num(6.2)),
                    ("ci95".to_string(), num(0.723892)),
                ]),
            ),
            (
                Field::Slices(vec![(1200, 15), (1800, 0)]),
                Value::Arr(vec![
                    Value::Arr(vec![num(1200.0), num(15.0)]),
                    Value::Arr(vec![num(1800.0), num(0.0)]),
                ]),
            ),
            (Field::Slices(Vec::new()), Value::Arr(Vec::new())),
        ];
        let row: Row = kinds.iter().map(|(f, _)| ("f", f.clone())).collect();
        assert_eq!(
            Field::Text(text.to_string()).to_string(),
            r#""a\"b\\c\nd\te\r\u0001f""#
        );
        for (field, expected) in &kinds {
            let doc = render(
                &[("h", field.clone())],
                &[("rows", &[vec![("f", field.clone())]])],
            );
            let parsed =
                parse(&doc).unwrap_or_else(|e| panic!("{field:?} renders bad JSON: {e:?}"));
            assert_eq!(parsed.get("h"), Some(expected), "{field:?} in the head");
            let Some(Value::Arr(rows)) = parsed.get("rows") else {
                panic!("rows section lost: {doc}");
            };
            assert_eq!(rows[0].get("f"), Some(expected), "{field:?} in a row");
        }
        // Rows and sections keep their order; an empty section stays an array.
        let doc = render(
            &[("benchmark", Field::Text("t".to_string()))],
            &[("cells", &[row.clone(), row]), ("aggregates", &[])],
        );
        assert!(
            doc.starts_with("{\n  \"benchmark\": \"t\",\n  \"cells\": [\n    {\"f\": 10798973, ")
        );
        assert!(
            doc.ends_with("}\n  ],\n  \"aggregates\": [\n  ]\n}\n"),
            "{doc}"
        );
        let parsed = parse(&doc).expect("own document parses");
        assert!(matches!(parsed.get("cells"), Some(Value::Arr(r)) if r.len() == 2));
        assert_eq!(parsed.get("aggregates"), Some(&Value::Arr(Vec::new())));
    }

    fn doc(completed: u64, p99: u64, mean: f64) -> String {
        format!(
            r#"{{"cells": [{{"policy": "pid", "scenario": "s", "seed": 1,
                 "completed": {completed}, "p99_wait_us": {p99},
                 "trace_digest": "ignored"}}],
                "aggregates": [{{"policy": "pid", "scenario": "s",
                 "failure_rate": {{"mean": {mean}, "ci95": 0.1}}}}]}}"#
        )
    }

    #[test]
    fn extraction_keys_cells_and_aggregates_distinctly() {
        let parsed = parse(&doc(100, 5000, 0.5)).unwrap();
        let entries = extract(&parsed);
        let keys: Vec<&str> = entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "cell policy=pid scenario=s seed=1",
                "cell policy=pid scenario=s seed=1",
                "aggregate policy=pid scenario=s",
            ]
        );
        let metrics: Vec<&str> = entries.iter().map(|e| e.metric).collect();
        assert_eq!(metrics, vec!["completed", "p99_wait_us", "failure_rate"]);
    }

    #[test]
    fn gate_is_directional() {
        let base = doc(100, 5000, 0.5);
        // completed up, p99 down, failure rate down: all improvements.
        let better = doc(200, 1000, 0.1);
        assert_eq!(compare_text(&base, &better, 0.10).unwrap(), vec![]);
        // The same magnitudes moved the other way all regress.
        let worse = doc(50, 20000, 0.9);
        let regressions = compare_text(&base, &worse, 0.10).unwrap();
        assert_eq!(regressions.len(), 3, "{regressions:?}");
    }

    #[test]
    fn gate_respects_the_tolerance_band() {
        let base = doc(100, 5000, 0.5);
        let inside = doc(91, 5400, 0.54);
        assert_eq!(compare_text(&base, &inside, 0.10).unwrap(), vec![]);
        let outside = doc(89, 5000, 0.5);
        assert_eq!(compare_text(&base, &outside, 0.10).unwrap().len(), 1);
    }

    #[test]
    fn missing_cells_fail_the_gate() {
        let base = doc(100, 5000, 0.5);
        let empty = r#"{"cells": [], "aggregates": []}"#;
        let regressions = compare_text(&base, empty, 0.10).unwrap();
        assert_eq!(regressions.len(), 3);
        assert!(regressions[0].what.contains("missing"));
        assert!(regressions[0].current.is_nan());
    }

    #[test]
    fn zero_baselines_tolerate_noise_but_not_jumps() {
        let base = doc(100, 5000, 0.0);
        let still_zero = doc(100, 5000, 0.0);
        assert_eq!(compare_text(&base, &still_zero, 0.10).unwrap(), vec![]);
        // Inside the absolute floor (failure_rate floor 0.01): noise, pass.
        let noise = doc(100, 5000, 0.005);
        assert_eq!(compare_text(&base, &noise, 0.10).unwrap(), vec![]);
        // Beyond the floor: a real jump over a zero baseline must trip even
        // though the relative band has zero width there.
        let jumped = doc(100, 5000, 0.2);
        assert_eq!(compare_text(&base, &jumped, 0.10).unwrap().len(), 1);
    }

    #[test]
    fn zero_baseline_counts_are_gated_in_both_directions() {
        // Lower-is-better over a zero baseline: the floor (shed: 2.0)
        // absorbs noise but catches a storm.
        let zero_shed = r#"{"cells": [{"scenario": "s", "seed": 1, "shed": 0}]}"#;
        let small = r#"{"cells": [{"scenario": "s", "seed": 1, "shed": 2}]}"#;
        assert_eq!(compare_text(zero_shed, small, 0.10).unwrap(), vec![]);
        let storm = r#"{"cells": [{"scenario": "s", "seed": 1, "shed": 50}]}"#;
        let trips = compare_text(zero_shed, storm, 0.10).unwrap();
        assert_eq!(trips.len(), 1, "{trips:?}");
        assert!(trips[0].what.contains("shed"));
        // Higher-is-better over a zero baseline: nonnegative metrics cannot
        // drop below zero, so equality passes and any improvement passes —
        // the gate must not manufacture a phantom regression from the
        // zero-width relative band.
        let zero_tput = r#"{"cells": [{"scenario": "s", "seed": 1, "completed": 0}]}"#;
        assert_eq!(compare_text(zero_tput, zero_tput, 0.10).unwrap(), vec![]);
        let improved = r#"{"cells": [{"scenario": "s", "seed": 1, "completed": 7}]}"#;
        assert_eq!(compare_text(zero_tput, improved, 0.10).unwrap(), vec![]);
    }

    #[test]
    fn event_loop_counts_are_exact() {
        let base = r#"{"cells": [{"scenario": "open_loop_poisson", "seed": 1,
            "events_dispatched": 4131, "peak_queue_depth": 113,
            "arrivals": 1200, "arrivals_admitted": 1100, "arrivals_shed": 100,
            "arrival_digest": "ignored"}]}"#;
        assert_eq!(compare_text(base, base, 0.10).unwrap(), vec![]);
        // One arrival more or fewer, admitted or shed, one event or one
        // queue slot: each trips its own column whatever the tolerance.
        for (metric, from, to) in [
            ("arrivals_admitted", "1100", "1101"),
            ("arrivals_shed", "100", "99"),
            ("events_dispatched", "4131", "4130"),
            ("peak_queue_depth", "113", "114"),
        ] {
            let moved = base.replace(
                &format!("\"{metric}\": {from}"),
                &format!("\"{metric}\": {to}"),
            );
            let trips = compare_text(base, &moved, 0.50).unwrap();
            assert_eq!(trips.len(), 1, "{trips:?}");
            assert!(trips[0].what.contains(metric));
        }
    }

    #[test]
    fn shard_count_is_cell_identity() {
        let base = r#"{"cells": [
            {"scenario": "open_loop_scale", "seed": 2007, "shards": 1, "arrivals": 100},
            {"scenario": "open_loop_scale", "seed": 2007, "shards": 4, "arrivals": 100}]}"#;
        assert_eq!(compare_text(base, base, 0.10).unwrap(), vec![]);
        // A row that moves at one shard count only trips that row.
        let split = base.replace(
            "\"shards\": 4, \"arrivals\": 100",
            "\"shards\": 4, \"arrivals\": 101",
        );
        let trips = compare_text(base, &split, 0.10).unwrap();
        assert_eq!(trips.len(), 1, "{trips:?}");
        assert!(trips[0].what.contains("shards=4 arrivals"));
        // Losing the 4-shard cell is a missing cell, not a silent merge
        // with its 1-shard sibling.
        let lost = base.replace(
            ",\n            {\"scenario\": \"open_loop_scale\", \"seed\": 2007, \"shards\": 4, \"arrivals\": 100}",
            "",
        );
        let trips = compare_text(base, &lost, 0.10).unwrap();
        assert_eq!(trips.len(), 1, "{trips:?}");
        assert!(trips[0].what.contains("shards=4") && trips[0].what.contains("missing"));
    }

    #[test]
    fn codec_metrics_are_keyed_and_gated() {
        let base = r#"{"cells": [
            {"scenario": "open_loop_scale", "codec": "v1", "bytes_per_event": 28.4},
            {"scenario": "open_loop_scale", "codec": "v2", "bytes_per_event": 5.1}],
          "aggregates": [
            {"scenario": "open_loop_scale", "codec": "v2",
             "size_ratio": 5.5, "encode_speedup": 9.0, "decode_speedup": 8.0}]}"#;
        assert_eq!(compare_text(base, base, 0.10).unwrap(), vec![]);
        // The codec is identity: the v1 and v2 cells must not collide, so
        // a bloat of only the v2 cell trips exactly that cell.
        let bloated = base.replace("\"bytes_per_event\": 5.1", "\"bytes_per_event\": 9.9");
        let trips = compare_text(base, &bloated, 0.10).unwrap();
        assert_eq!(trips.len(), 1, "{trips:?}");
        assert!(trips[0].what.contains("codec=v2") && trips[0].what.contains("bytes_per_event"));
        // A decode slowdown beyond tolerance trips decode_speedup.
        let slower = base.replace("\"decode_speedup\": 8.0", "\"decode_speedup\": 4.0");
        let trips = compare_text(base, &slower, 0.10).unwrap();
        assert_eq!(trips.len(), 1, "{trips:?}");
        assert!(trips[0].what.contains("decode_speedup"));
    }

    #[test]
    fn compile_counts_are_exact_and_keyed_by_template() {
        let base = r#"{"cells": [
            {"template": "sales_q01", "alloc_calls_per_expr": 0.028,
             "modelled_peak_bytes": 183889408, "heap_bytes_per_expr": 151.6,
             "ns_per_transformation": 334},
            {"template": "oltp_point_sale", "alloc_calls_per_expr": 42.0,
             "modelled_peak_bytes": 104960, "heap_bytes_per_expr": 855.5,
             "ns_per_transformation": null}]}"#;
        assert_eq!(compare_text(base, base, 0.10).unwrap(), vec![]);
        // Wall-clock is informational, and the heap column has a band.
        let slower = base.replace("334", "9000").replace("151.6", "160.0");
        assert_eq!(compare_text(base, &slower, 0.10).unwrap(), vec![]);
        // The exact columns trip on the smallest move, up or down, and name
        // the template it happened on.
        let one_more_call = base.replace("42.0", "42.5");
        let trips = compare_text(base, &one_more_call, 0.10).unwrap();
        assert_eq!(trips.len(), 1, "{trips:?}");
        assert!(trips[0]
            .what
            .contains("template=oltp_point_sale alloc_calls_per_expr"));
        let fewer_modelled = base.replace("183889408", "183889000");
        let trips = compare_text(base, &fewer_modelled, 0.10).unwrap();
        assert_eq!(trips.len(), 1, "{trips:?}");
        assert!(trips[0]
            .what
            .contains("template=sales_q01 modelled_peak_bytes"));
        // A memo that regrows per-expression heap trips the band.
        let fat = base.replace("151.6", "1245.2");
        assert_eq!(compare_text(base, &fat, 0.10).unwrap().len(), 1);
    }

    #[test]
    fn self_test_passes() {
        self_test().expect("the gate must prove it can reject");
    }
}
