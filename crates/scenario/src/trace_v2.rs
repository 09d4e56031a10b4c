//! `throttledb-trace v2`: the streaming binary frame codec.
//!
//! The v1 text format (see [`crate::trace`]) stays the golden-file format
//! — diffable, reviewable, stable — but at 10M-arrival scale a formatted
//! line per event makes recording and replay a multi-gigabyte affair. v2
//! is the same event stream as length-prefixed binary frames:
//!
//! * **magic** — the 20 bytes `"throttledb-trace v2\n"`, sniffable against
//!   v1's text header (both start `throttledb-trace v`, the version digit
//!   differs).
//! * **header frame** — varint payload length, then the run's config
//!   digest (8 bytes little-endian, see
//!   [`crate::Scenario::config_digest`]) and the interned phase-name
//!   catalog (varint count, then length-prefixed UTF-8 strings).
//! * **block frames** — varint payload length, then a batch of event
//!   records. The writer flushes a block when its bounded reuse buffer
//!   reaches `BLOCK_TARGET` (just under 4KiB), so the length prefix amortizes to a
//!   fraction of a byte per event and neither side ever buffers more than
//!   one block.
//! * **terminator** — a zero-length frame (single `0x00` byte) followed by
//!   the 8-byte little-endian FNV-1a digest of everything before it.
//!
//! Each record opens with one tag byte: the low nibble is the event kind,
//! the high nibble the time delta since the previous event —
//! `0..=11` microseconds inline, `12/13/14` a 1/2/3-byte little-endian
//! delta following, `15` a zigzag varint (negative or huge deltas; the
//! engine never records those, but arbitrary streams must round-trip).
//! The remaining fields are delta-coded against per-kind state both sides
//! keep in lock-step: query ids against the previous query *of the same
//! event kind* (completion order is near-sorted even when kinds
//! interleave), byte gauges (`grantq`/`exec`/`cpeak`) against the previous
//! value of the same gauge (workloads repeat template footprints, so the
//! common delta is 0), and small closed enums (failure kind, workload
//! class, gateway level) folded into the low two bits of the query-delta
//! varint. Phase names are catalog references (index + 1) with `0`
//! escaping to an inline string both sides then intern, so transcoded
//! streams with an empty catalog still compress repeats.
//!
//! The digest is an incremental FNV-1a fold over 64-bit little-endian
//! words of the stream (length-sealed, so any chunking of the updates
//! yields the same fingerprint), computed frame by frame as the stream is
//! written or read. Producing or checking a trace fingerprint never
//! materializes the stream — and a truncated or corrupted file fails the
//! digest check even when the damage happens to parse. Word folding
//! matters at scale: the codec moves tens of MB/s per core more than a
//! per-byte FNV chain allows.

use crate::trace::{decode_line, encode_event_into, TraceError, HEADER as V1_HEADER};
use std::io::{self, BufRead, Read, Write};
use throttledb_engine::{
    BreakerState, FailureKind, MetricsFold, PhaseReport, TraceEvent, TraceSink,
};
use throttledb_sim::SimTime;

/// Magic bytes opening every v2 trace. Shares the `throttledb-trace v`
/// prefix with the v1 text header so one sniff distinguishes versions.
pub const MAGIC_V2: &[u8] = b"throttledb-trace v2\n";

/// Writer-side flush threshold for the block reuse buffer. Kept under 4KiB
/// so a block's length prefix is at most two varint bytes; one block is
/// the most either side of the codec ever holds in memory.
const BLOCK_TARGET: usize = 3968;

/// Event-kind tags (low nibble of the record's first byte). `0` is
/// reserved so a zeroed byte can never alias a record.
mod tag {
    pub const PHASE_START: u8 = 1;
    pub const SUBMITTED: u8 = 2;
    pub const GATEWAY_BLOCKED: u8 = 3;
    pub const BEST_EFFORT: u8 = 4;
    pub const GRANT_QUEUED: u8 = 5;
    pub const EXEC_STARTED: u8 = 6;
    pub const COMPLETED: u8 = 7;
    pub const FAILED: u8 = 8;
    pub const COMPILE_PEAK: u8 = 9;
    pub const FAULT_INJECTED: u8 = 10;
    pub const FAULT_CLEARED: u8 = 11;
    pub const SHED: u8 = 12;
    pub const BREAKER: u8 = 13;
    pub const END: u8 = 14;
}

/// High-nibble time-delta codes beyond the inline `0..=11` range.
const DT_1BYTE: u8 = 12;
const DT_2BYTE: u8 = 13;
const DT_3BYTE: u8 = 14;
const DT_ESCAPE: u8 = 15;

/// Why reading or transcoding a v2 trace failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceV2Error {
    /// The input does not start with a `throttledb-trace` magic at all.
    BadMagic,
    /// The input is a throttledb trace of a version this build cannot
    /// read (the unsupported header line is carried for the diagnostic).
    UnsupportedVersion(String),
    /// The input ended mid-frame, mid-varint, or before the trailing
    /// digest.
    Truncated,
    /// A varint ran past its width limit — corrupted input.
    BadVarint,
    /// A frame decoded to something structurally invalid (unknown tag,
    /// bad catalog reference, non-UTF-8 name, trailing garbage...).
    BadFrame(String),
    /// The trailing digest does not match the frames actually read.
    DigestMismatch {
        /// Digest stored in the file.
        stored: u64,
        /// Digest recomputed from the frames.
        computed: u64,
    },
    /// The underlying reader or writer failed (message form, so the error
    /// stays comparable in tests).
    Io(String),
}

impl std::fmt::Display for TraceV2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceV2Error::BadMagic => write!(f, "missing or unsupported trace header"),
            TraceV2Error::UnsupportedVersion(header) => {
                write!(f, "unsupported trace version {header:?}")
            }
            TraceV2Error::Truncated => write!(f, "truncated v2 trace (input ended mid-frame)"),
            TraceV2Error::BadVarint => write!(f, "corrupted varint in v2 trace"),
            TraceV2Error::BadFrame(why) => write!(f, "malformed v2 frame: {why}"),
            TraceV2Error::DigestMismatch { stored, computed } => write!(
                f,
                "v2 trace digest mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            TraceV2Error::Io(msg) => write!(f, "trace I/O error: {msg}"),
        }
    }
}

impl std::error::Error for TraceV2Error {}

impl From<io::Error> for TraceV2Error {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceV2Error::Truncated
        } else {
            TraceV2Error::Io(e.to_string())
        }
    }
}

/// Why transcoding between v1 and v2 failed: either side's decode error,
/// or plain I/O.
#[derive(Debug, Clone, PartialEq)]
pub enum TranscodeError {
    /// The v1 text side failed to parse.
    V1(TraceError),
    /// The v2 binary side failed to parse or verify.
    V2(TraceV2Error),
    /// Reading or writing the underlying streams failed.
    Io(String),
}

impl std::fmt::Display for TranscodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranscodeError::V1(e) => write!(f, "{e}"),
            TranscodeError::V2(e) => write!(f, "{e}"),
            TranscodeError::Io(msg) => write!(f, "trace I/O error: {msg}"),
        }
    }
}

impl std::error::Error for TranscodeError {}

impl From<io::Error> for TranscodeError {
    fn from(e: io::Error) -> Self {
        TranscodeError::Io(e.to_string())
    }
}

// --- the stream digest ------------------------------------------------------

/// The v2 stream digest: FNV-1a folded over 64-bit little-endian words,
/// buffered so updates of any granularity (byte-at-a-time frame lengths,
/// whole blocks) produce the same fingerprint, and sealed with the total
/// length so streams differing only in trailing zero bytes differ.
///
/// The per-byte FNV chain `throttledb_workload::Fnv64` (which the v1 text
/// digest and the scenario config digest keep using) costs ~4 cycles per
/// *byte* of serial multiply latency; folding words costs the same per 8
/// bytes, which is the difference between the digest being noise and
/// being a quarter of the codec's runtime at 10M-event scale.
#[derive(Debug, Clone)]
struct Fold64 {
    state: u64,
    len: u64,
    pending: [u8; 8],
    pending_len: usize,
}

impl Fold64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fold64 {
            state: Self::OFFSET,
            len: 0,
            pending: [0; 8],
            pending_len: 0,
        }
    }

    #[inline]
    fn fold_word(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(Self::PRIME);
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            let word = u64::from_le_bytes(self.pending);
            self.fold_word(word);
            self.pending_len = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.fold_word(word);
        }
        let rest = chunks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    fn finish(&self) -> u64 {
        // Seal: zero-pad the tail word, then fold the total length, so
        // chunking never leaks into the fingerprint but the tail and the
        // stream length both do.
        let mut tail = [0u8; 8];
        tail[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
        let mut sealed = self.clone();
        sealed.fold_word(u64::from_le_bytes(tail));
        sealed.fold_word(self.len);
        sealed.state
    }
}

// --- varint primitives ------------------------------------------------------

/// Append `value` as a LEB128 varint.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a wide (up to 66-bit) value as a LEB128 varint: the encoding
/// the folded `(query delta << 2) | enum` fields use, since a full 64-bit
/// zigzag delta plus two enum bits no longer fits in `u64`.
fn put_varint_wide(out: &mut Vec<u8>, mut value: u128) {
    debug_assert!(value >> 66 == 0, "wide varint overflows 66 bits");
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Map a signed delta onto the unsigned varint space (0, -1, 1, -2, ... →
/// 0, 1, 2, 3, ...) so small negative deltas stay small.
#[inline]
fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Decode a varint from `buf[*pos..]`, advancing `pos`.
#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceV2Error> {
    // Fast path: the overwhelmingly common single-byte value.
    if let Some(&byte) = buf.get(*pos) {
        if byte & 0x80 == 0 {
            *pos += 1;
            return Ok(u64::from(byte));
        }
    }
    get_varint_slow(buf, pos)
}

fn get_varint_slow(buf: &[u8], pos: &mut usize) -> Result<u64, TraceV2Error> {
    let mut value: u64 = 0;
    for shift in 0..10 {
        let Some(&byte) = buf.get(*pos) else {
            return Err(TraceV2Error::Truncated);
        };
        *pos += 1;
        if shift == 9 && byte > 0x01 {
            return Err(TraceV2Error::BadVarint);
        }
        value |= u64::from(byte & 0x7f) << (shift * 7);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(TraceV2Error::BadVarint)
}

/// Decode a wide (up to 66-bit / 10-byte) varint from `buf[*pos..]`.
fn get_varint_wide(buf: &[u8], pos: &mut usize) -> Result<u128, TraceV2Error> {
    let mut value: u128 = 0;
    for shift in 0..10 {
        let Some(&byte) = buf.get(*pos) else {
            return Err(TraceV2Error::Truncated);
        };
        *pos += 1;
        if shift == 9 && byte > 0x07 {
            return Err(TraceV2Error::BadVarint);
        }
        value |= u128::from(byte & 0x7f) << (shift * 7);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(TraceV2Error::BadVarint)
}

/// Read a varint byte-at-a-time from `input`, folding the raw bytes into
/// `digest`. Returns `Ok(None)` on clean EOF at the first byte.
fn read_varint<R: Read>(input: &mut R, digest: &mut Fold64) -> Result<Option<u64>, TraceV2Error> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match input.read(&mut byte) {
            Ok(0) => {
                return if first {
                    Ok(None)
                } else {
                    Err(TraceV2Error::Truncated)
                }
            }
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
        digest.update(&byte);
        if shift >= 63 && byte[0] > 0x01 {
            return Err(TraceV2Error::BadVarint);
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(value));
        }
        shift += 7;
        first = false;
        if shift > 63 {
            return Err(TraceV2Error::BadVarint);
        }
    }
}

/// Read one frame's `len`-byte payload into `buf` (cleared first). The
/// buffer grows only with the bytes that actually arrive, so a corrupt
/// length prefix costs a `Truncated`, never an allocation of its size.
fn read_frame<R: Read>(input: &mut R, len: u64, buf: &mut Vec<u8>) -> Result<(), TraceV2Error> {
    buf.clear();
    input.take(len).read_to_end(buf)?;
    if buf.len() as u64 == len {
        Ok(())
    } else {
        Err(TraceV2Error::Truncated)
    }
}

/// A small enum field past its two-bit fold: the escaped varint plus 3,
/// or a `BadFrame` when that sum leaves `usize`.
fn escaped_small(value: u64, what: &str) -> Result<usize, TraceV2Error> {
    usize::try_from(value)
        .ok()
        .and_then(|v| v.checked_add(3))
        .ok_or_else(|| TraceV2Error::BadFrame(format!("{what} escape {value} out of range")))
}

// --- shared per-kind delta state --------------------------------------------

/// Delta-coding state both codec sides keep in lock-step: previous query
/// id and previous byte-gauge value per event kind, previous timestamp,
/// and the phase-name dictionary.
#[derive(Debug, Clone)]
struct DeltaState {
    prev_at: u64,
    /// Previous query id per event kind (indexed by tag).
    prev_query: [u64; 16],
    /// Previous byte-gauge value per event kind (indexed by tag).
    prev_bytes: [u64; 16],
    /// Interned phase names: the header catalog plus inline names seen
    /// since.
    names: Vec<String>,
}

impl DeltaState {
    fn new(catalog: &[String]) -> Self {
        DeltaState {
            prev_at: 0,
            prev_query: [0; 16],
            prev_bytes: [0; 16],
            names: catalog.to_vec(),
        }
    }

    /// Zigzagged delta of `query` against this kind's previous id.
    fn query_delta(&mut self, kind: u8, query: u64) -> u64 {
        let prev = &mut self.prev_query[kind as usize];
        let delta = query.wrapping_sub(*prev) as i64;
        *prev = query;
        zigzag(delta)
    }

    /// Reconstruct a query id from this kind's zigzagged delta.
    fn query_undelta(&mut self, kind: u8, delta: u64) -> u64 {
        let prev = &mut self.prev_query[kind as usize];
        let query = prev.wrapping_add(unzigzag(delta) as u64);
        *prev = query;
        query
    }

    /// Zigzagged delta of `bytes` against this kind's previous gauge.
    fn bytes_delta(&mut self, kind: u8, bytes: u64) -> u64 {
        let prev = &mut self.prev_bytes[kind as usize];
        let delta = bytes.wrapping_sub(*prev) as i64;
        *prev = bytes;
        zigzag(delta)
    }

    /// Reconstruct a byte gauge from this kind's zigzagged delta.
    fn bytes_undelta(&mut self, kind: u8, delta: u64) -> u64 {
        let prev = &mut self.prev_bytes[kind as usize];
        let bytes = prev.wrapping_add(unzigzag(delta) as u64);
        *prev = bytes;
        bytes
    }
}

/// Fold a query delta and a 2-bit enum into one wide varint value.
fn fold(query_delta: u64, bits: u8) -> u128 {
    (u128::from(query_delta) << 2) | u128::from(bits & 0x03)
}

/// Split a folded wide varint back into (query delta, enum bits).
fn unfold(value: u128) -> Result<(u64, u8), TraceV2Error> {
    let delta = value >> 2;
    if delta > u128::from(u64::MAX) {
        return Err(TraceV2Error::BadVarint);
    }
    Ok((delta as u64, (value & 0x03) as u8))
}

/// Append `(query_delta << 2) | bits` as one varint. Deltas under 62 bits
/// — every delta the engine ever produces — stay on the `u64` path; the
/// wide `u128` encoding only backs the top two bits of pathological
/// streams, and both paths emit identical bytes.
#[inline]
fn put_folded(out: &mut Vec<u8>, query_delta: u64, bits: u8) {
    if query_delta >> 62 == 0 {
        put_varint(out, (query_delta << 2) | u64::from(bits & 0x03));
    } else {
        put_varint_wide(out, fold(query_delta, bits));
    }
}

/// Decode a folded `(query delta, enum bits)` varint: single-byte fast
/// path first, then the general wide decode.
#[inline]
fn get_folded(buf: &[u8], pos: &mut usize) -> Result<(u64, u8), TraceV2Error> {
    if let Some(&byte) = buf.get(*pos) {
        if byte & 0x80 == 0 {
            *pos += 1;
            return Ok((u64::from(byte >> 2), byte & 0x03));
        }
    }
    unfold(get_varint_wide(buf, pos)?)
}

// --- writer -----------------------------------------------------------------

/// Summary of a finished v2 write: how many events were serialized, the
/// total bytes emitted (frames + trailer), and the stream digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceV2Summary {
    /// Events serialized.
    pub events: u64,
    /// Total output bytes, magic through trailing digest.
    pub bytes: u64,
    /// The incremental FNV digest of the stream (what `--replay` compares).
    pub digest: u64,
}

/// Streaming v2 writer: serializes events into block frames over any
/// `io::Write` with one bounded reuse buffer.
///
/// Implements the engine's [`TraceSink`], so it can be installed with
/// [`throttledb_engine::Server::set_trace_sink`] to record a run at O(1)
/// memory. Sink delivery is infallible by contract; the writer stashes its
/// first I/O error and [`TraceWriterV2::finish`] surfaces it.
pub struct TraceWriterV2<W: Write> {
    out: W,
    /// Current block payload (bounded by [`BLOCK_TARGET`] plus one record).
    block: Vec<u8>,
    digest: Fold64,
    state: DeltaState,
    events: u64,
    bytes: u64,
    stashed: Option<io::Error>,
    finished: bool,
}

impl<W: Write> TraceWriterV2<W> {
    /// Open a v2 stream: writes the magic and the header frame carrying
    /// `config_digest` and the interned `catalog`.
    pub fn new(mut out: W, catalog: &[String], config_digest: u64) -> io::Result<Self> {
        let mut digest = Fold64::new();
        digest.update(MAGIC_V2);
        out.write_all(MAGIC_V2)?;
        let mut payload = Vec::with_capacity(64);
        payload.extend_from_slice(&config_digest.to_le_bytes());
        put_varint(&mut payload, catalog.len() as u64);
        for name in catalog {
            put_varint(&mut payload, name.len() as u64);
            payload.extend_from_slice(name.as_bytes());
        }
        let mut frame = Vec::with_capacity(payload.len() + 2);
        put_varint(&mut frame, payload.len() as u64);
        frame.extend_from_slice(&payload);
        digest.update(&frame);
        out.write_all(&frame)?;
        Ok(TraceWriterV2 {
            out,
            block: Vec::with_capacity(BLOCK_TARGET + 64),
            digest,
            state: DeltaState::new(catalog),
            events: 0,
            bytes: (MAGIC_V2.len() + frame.len()) as u64,
            stashed: None,
            finished: false,
        })
    }

    /// Serialize one event, flushing a block frame when the reuse buffer
    /// reaches its target size.
    pub fn write_event(&mut self, ev: &TraceEvent) -> io::Result<()> {
        if let Some(e) = self.stashed.take() {
            return Err(e);
        }
        debug_assert!(!self.finished, "write_event after finish");
        self.encode_record(ev);
        self.events += 1;
        if self.block.len() >= BLOCK_TARGET {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Close the stream: flush the open block, write the zero-length
    /// terminator frame and the trailing digest, and flush the sink.
    /// Surfaces any error stashed during [`TraceSink`] delivery.
    pub fn finish(&mut self) -> io::Result<TraceV2Summary> {
        assert!(!self.finished, "v2 writer finished twice");
        self.finished = true;
        if let Some(e) = self.stashed.take() {
            return Err(e);
        }
        self.flush_block()?;
        // Terminator: an empty frame, folded into the digest like any
        // other; the digest that follows it is not.
        self.digest.update(&[0]);
        self.out.write_all(&[0])?;
        let digest = self.digest.finish();
        self.out.write_all(&digest.to_le_bytes())?;
        self.out.flush()?;
        self.bytes += 1 + 8;
        Ok(TraceV2Summary {
            events: self.events,
            bytes: self.bytes,
            digest,
        })
    }

    /// Mutable access to the underlying writer — e.g. to take back an
    /// in-memory buffer after [`TraceWriterV2::finish`].
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let mut len_bytes = [0u8; 10];
        let mut prefix = Vec::with_capacity(2);
        put_varint(&mut prefix, self.block.len() as u64);
        len_bytes[..prefix.len()].copy_from_slice(&prefix);
        let prefix = &len_bytes[..prefix.len()];
        self.digest.update(prefix);
        self.digest.update(&self.block);
        self.out.write_all(prefix)?;
        self.out.write_all(&self.block)?;
        self.bytes += (prefix.len() + self.block.len()) as u64;
        self.block.clear();
        Ok(())
    }

    /// Append one record to the block buffer. Mirrored exactly by
    /// [`TraceReaderV2::decode_record`]; any asymmetry is a codec bug the
    /// round-trip property test exists to catch.
    fn encode_record(&mut self, ev: &TraceEvent) {
        let at = ev.at().as_micros();
        let dt = at.wrapping_sub(self.state.prev_at) as i64;
        self.state.prev_at = at;
        let Self { block, state, .. } = self;
        // Tag byte: kind in the low nibble, time-delta code in the high.
        let push_tag = |block: &mut Vec<u8>, kind: u8| {
            if (0..=11).contains(&dt) {
                block.push(kind | ((dt as u8) << 4));
            } else if (0..=0xff).contains(&dt) {
                block.push(kind | (DT_1BYTE << 4));
                block.push(dt as u8);
            } else if (0..=0xffff).contains(&dt) {
                block.push(kind | (DT_2BYTE << 4));
                block.extend_from_slice(&(dt as u16).to_le_bytes());
            } else if (0..=0xff_ffff).contains(&dt) {
                block.push(kind | (DT_3BYTE << 4));
                block.extend_from_slice(&(dt as u32).to_le_bytes()[..3]);
            } else {
                block.push(kind | (DT_ESCAPE << 4));
                put_varint(block, zigzag(dt));
            }
        };
        match ev {
            TraceEvent::PhaseStart { name, clients, .. } => {
                push_tag(block, tag::PHASE_START);
                match state.names.iter().position(|n| n == name) {
                    Some(idx) => put_varint(block, idx as u64 + 1),
                    None => {
                        // Escape to an inline string, then intern it so the
                        // next occurrence is a reference on both sides.
                        put_varint(block, 0);
                        put_varint(block, name.len() as u64);
                        block.extend_from_slice(name.as_bytes());
                        state.names.push(name.clone());
                    }
                }
                put_varint(block, u64::from(*clients));
            }
            TraceEvent::Submitted {
                query,
                client,
                class,
                ..
            } => {
                push_tag(block, tag::SUBMITTED);
                // Class folds into the low bits; 3 escapes to a varint so
                // arbitrary class indexes stay lossless.
                let qd = state.query_delta(tag::SUBMITTED, *query);
                let folded = (*class).min(3) as u8;
                put_folded(block, qd, folded);
                if *class >= 3 {
                    put_varint(block, (*class - 3) as u64);
                }
                put_varint(block, u64::from(*client));
            }
            TraceEvent::GatewayBlocked { query, level, .. } => {
                push_tag(block, tag::GATEWAY_BLOCKED);
                let qd = state.query_delta(tag::GATEWAY_BLOCKED, *query);
                let folded = (*level).min(3) as u8;
                put_folded(block, qd, folded);
                if *level >= 3 {
                    put_varint(block, (*level - 3) as u64);
                }
            }
            TraceEvent::BestEffort { query, .. } => {
                push_tag(block, tag::BEST_EFFORT);
                put_varint(block, state.query_delta(tag::BEST_EFFORT, *query));
            }
            TraceEvent::GrantQueued { query, bytes, .. } => {
                push_tag(block, tag::GRANT_QUEUED);
                put_varint(block, state.query_delta(tag::GRANT_QUEUED, *query));
                put_varint(block, state.bytes_delta(tag::GRANT_QUEUED, *bytes));
            }
            TraceEvent::ExecStarted { query, bytes, .. } => {
                push_tag(block, tag::EXEC_STARTED);
                put_varint(block, state.query_delta(tag::EXEC_STARTED, *query));
                put_varint(block, state.bytes_delta(tag::EXEC_STARTED, *bytes));
            }
            TraceEvent::Completed { query, .. } => {
                push_tag(block, tag::COMPLETED);
                put_varint(block, state.query_delta(tag::COMPLETED, *query));
            }
            TraceEvent::Failed { query, kind, .. } => {
                push_tag(block, tag::FAILED);
                let qd = state.query_delta(tag::FAILED, *query);
                let code = match kind {
                    FailureKind::OutOfMemory => 0,
                    FailureKind::CompileTimeout => 1,
                    FailureKind::GrantTimeout => 2,
                };
                put_folded(block, qd, code);
            }
            TraceEvent::CompilePeak { bytes, .. } => {
                push_tag(block, tag::COMPILE_PEAK);
                put_varint(block, state.bytes_delta(tag::COMPILE_PEAK, *bytes));
            }
            TraceEvent::FaultInjected { fault, .. } => {
                push_tag(block, tag::FAULT_INJECTED);
                put_varint(block, u64::from(*fault));
            }
            TraceEvent::FaultCleared { fault, .. } => {
                push_tag(block, tag::FAULT_CLEARED);
                put_varint(block, u64::from(*fault));
            }
            TraceEvent::Shed { query, .. } => {
                push_tag(block, tag::SHED);
                put_varint(block, state.query_delta(tag::SHED, *query));
            }
            TraceEvent::BreakerTransition {
                class, state: s, ..
            } => {
                push_tag(block, tag::BREAKER);
                put_varint(block, *class as u64);
                block.push(match s {
                    BreakerState::Closed => 0,
                    BreakerState::Open => 1,
                    BreakerState::HalfOpen => 2,
                });
            }
            TraceEvent::End { .. } => {
                push_tag(block, tag::END);
            }
        }
    }
}

impl<W: Write> TraceSink for TraceWriterV2<W> {
    fn event(&mut self, event: &TraceEvent) {
        if self.stashed.is_some() {
            return;
        }
        if let Err(e) = self.write_event(event) {
            self.stashed = Some(e);
        }
    }
}

// --- reader -----------------------------------------------------------------

/// Streaming v2 reader: an iterator of [`TraceEvent`]s over any
/// `io::Read`, holding at most one block frame in memory.
///
/// The header frame is parsed eagerly in [`TraceReaderV2::new`] (so
/// `config_digest` and the catalog are available before any event); the
/// trailing digest is verified when the terminator frame is reached, and
/// a mismatch is surfaced as the iterator's final item.
pub struct TraceReaderV2<R: Read> {
    input: R,
    config_digest: u64,
    state: DeltaState,
    /// Current block payload (reused between frames).
    block: Vec<u8>,
    pos: usize,
    digest: Fold64,
    /// Set once the terminator was consumed (clean end) or an error was
    /// yielded; the iterator is fused after either.
    done: bool,
}

impl<R: Read> TraceReaderV2<R> {
    /// Open a v2 stream: checks the magic and parses the header frame.
    pub fn new(mut input: R) -> Result<Self, TraceV2Error> {
        let mut magic = [0u8; 20];
        debug_assert_eq!(MAGIC_V2.len(), magic.len());
        if let Err(e) = input.read_exact(&mut magic) {
            return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
                TraceV2Error::BadMagic
            } else {
                e.into()
            });
        }
        if magic != MAGIC_V2 {
            // A throttledb trace of some other version gets the sharper
            // diagnostic; arbitrary bytes get BadMagic.
            return Err(match std::str::from_utf8(&magic) {
                Ok(s) if s.starts_with("throttledb-trace v") => {
                    TraceV2Error::UnsupportedVersion(s.trim_end().to_string())
                }
                _ => TraceV2Error::BadMagic,
            });
        }
        let mut digest = Fold64::new();
        digest.update(&magic);
        let header_len = read_varint(&mut input, &mut digest)?.ok_or(TraceV2Error::Truncated)?;
        if header_len < 9 {
            return Err(TraceV2Error::BadFrame(format!(
                "header frame too short ({header_len} bytes)"
            )));
        }
        let mut payload = Vec::new();
        read_frame(&mut input, header_len, &mut payload)?;
        digest.update(&payload);
        let config_digest = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let mut pos = 8;
        let count = get_varint(&payload, &mut pos)?;
        // Each name takes at least its length byte, so the payload left
        // bounds the names a hostile count can make us reserve for.
        let mut names = Vec::with_capacity((count as usize).min(payload.len() - pos));
        for _ in 0..count {
            let len = get_varint(&payload, &mut pos)? as usize;
            let end = pos
                .checked_add(len)
                .filter(|&e| e <= payload.len())
                .ok_or_else(|| TraceV2Error::BadFrame("catalog string overruns header".into()))?;
            let name = std::str::from_utf8(&payload[pos..end])
                .map_err(|_| TraceV2Error::BadFrame("catalog string is not UTF-8".into()))?;
            names.push(name.to_string());
            pos = end;
        }
        if pos != payload.len() {
            return Err(TraceV2Error::BadFrame(
                "trailing bytes after header catalog".into(),
            ));
        }
        Ok(TraceReaderV2 {
            input,
            config_digest,
            state: DeltaState::new(&names),
            block: Vec::new(),
            pos: 0,
            digest,
            done: false,
        })
    }

    /// The run-config digest stored in the header frame (0 for streams
    /// produced by the v1 transcoder, which has no scenario in hand).
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// The phase-name catalog stored in the header frame, plus any inline
    /// names interned while reading.
    pub fn catalog(&self) -> &[String] {
        &self.state.names
    }

    /// Pull the next block frame. `Ok(false)` means the terminator was
    /// consumed and the trailing digest verified.
    fn next_block(&mut self) -> Result<bool, TraceV2Error> {
        let len = read_varint(&mut self.input, &mut self.digest)?.ok_or(TraceV2Error::Truncated)?;
        if len == 0 {
            // Terminator: the digest trailer follows, excluded from the
            // fold (it could hardly cover itself).
            let computed = self.digest.finish();
            let mut stored = [0u8; 8];
            self.input.read_exact(&mut stored)?;
            let stored = u64::from_le_bytes(stored);
            if stored != computed {
                return Err(TraceV2Error::DigestMismatch { stored, computed });
            }
            return Ok(false);
        }
        read_frame(&mut self.input, len, &mut self.block)?;
        self.digest.update(&self.block);
        self.pos = 0;
        Ok(true)
    }

    /// Read `n` little-endian bytes from the block as a u64.
    fn fixed_le(&mut self, n: usize) -> Result<u64, TraceV2Error> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.block.len())
            .ok_or(TraceV2Error::Truncated)?;
        let mut value = 0u64;
        for (i, &b) in self.block[self.pos..end].iter().enumerate() {
            value |= u64::from(b) << (i * 8);
        }
        self.pos = end;
        Ok(value)
    }

    /// Decode one record from the current block. Mirrors
    /// `TraceWriterV2::encode_record` exactly.
    fn decode_record(&mut self) -> Result<TraceEvent, TraceV2Error> {
        let head = self.block[self.pos];
        self.pos += 1;
        let kind = head & 0x0f;
        let dt = match head >> 4 {
            code @ 0..=11 => i64::from(code),
            DT_1BYTE => self.fixed_le(1)? as i64,
            DT_2BYTE => self.fixed_le(2)? as i64,
            DT_3BYTE => self.fixed_le(3)? as i64,
            _ => unzigzag(get_varint(&self.block, &mut self.pos)?),
        };
        let at = self.state.prev_at.wrapping_add(dt as u64);
        self.state.prev_at = at;
        let at = SimTime::from_micros(at);
        let ev = match kind {
            tag::PHASE_START => {
                let name_ref = get_varint(&self.block, &mut self.pos)?;
                let name = if name_ref == 0 {
                    let len = get_varint(&self.block, &mut self.pos)? as usize;
                    let end = self
                        .pos
                        .checked_add(len)
                        .filter(|&e| e <= self.block.len())
                        .ok_or(TraceV2Error::Truncated)?;
                    let name = std::str::from_utf8(&self.block[self.pos..end])
                        .map_err(|_| TraceV2Error::BadFrame("phase name is not UTF-8".into()))?
                        .to_string();
                    self.pos = end;
                    self.state.names.push(name.clone());
                    name
                } else {
                    self.state
                        .names
                        .get(name_ref as usize - 1)
                        .ok_or_else(|| {
                            TraceV2Error::BadFrame(format!(
                                "phase name reference {name_ref} out of catalog range {}",
                                self.state.names.len()
                            ))
                        })?
                        .clone()
                };
                let clients = get_varint(&self.block, &mut self.pos)? as u32;
                TraceEvent::PhaseStart { at, name, clients }
            }
            tag::SUBMITTED => {
                let (qd, folded) = get_folded(&self.block, &mut self.pos)?;
                let query = self.state.query_undelta(tag::SUBMITTED, qd);
                let class = if folded == 3 {
                    escaped_small(get_varint(&self.block, &mut self.pos)?, "class")?
                } else {
                    folded as usize
                };
                let client = get_varint(&self.block, &mut self.pos)? as u32;
                TraceEvent::Submitted {
                    at,
                    query,
                    client,
                    class,
                }
            }
            tag::GATEWAY_BLOCKED => {
                let (qd, folded) = get_folded(&self.block, &mut self.pos)?;
                let query = self.state.query_undelta(tag::GATEWAY_BLOCKED, qd);
                let level = if folded == 3 {
                    escaped_small(get_varint(&self.block, &mut self.pos)?, "gateway level")?
                } else {
                    folded as usize
                };
                TraceEvent::GatewayBlocked { at, query, level }
            }
            tag::BEST_EFFORT => {
                let qd = get_varint(&self.block, &mut self.pos)?;
                TraceEvent::BestEffort {
                    at,
                    query: self.state.query_undelta(tag::BEST_EFFORT, qd),
                }
            }
            tag::GRANT_QUEUED => {
                let qd = get_varint(&self.block, &mut self.pos)?;
                let bd = get_varint(&self.block, &mut self.pos)?;
                TraceEvent::GrantQueued {
                    at,
                    query: self.state.query_undelta(tag::GRANT_QUEUED, qd),
                    bytes: self.state.bytes_undelta(tag::GRANT_QUEUED, bd),
                }
            }
            tag::EXEC_STARTED => {
                let qd = get_varint(&self.block, &mut self.pos)?;
                let bd = get_varint(&self.block, &mut self.pos)?;
                TraceEvent::ExecStarted {
                    at,
                    query: self.state.query_undelta(tag::EXEC_STARTED, qd),
                    bytes: self.state.bytes_undelta(tag::EXEC_STARTED, bd),
                }
            }
            tag::COMPLETED => {
                let qd = get_varint(&self.block, &mut self.pos)?;
                TraceEvent::Completed {
                    at,
                    query: self.state.query_undelta(tag::COMPLETED, qd),
                }
            }
            tag::FAILED => {
                let (qd, code) = get_folded(&self.block, &mut self.pos)?;
                let query = self.state.query_undelta(tag::FAILED, qd);
                let kind = match code {
                    0 => FailureKind::OutOfMemory,
                    1 => FailureKind::CompileTimeout,
                    2 => FailureKind::GrantTimeout,
                    other => {
                        return Err(TraceV2Error::BadFrame(format!(
                            "unknown failure kind code {other}"
                        )))
                    }
                };
                TraceEvent::Failed { at, query, kind }
            }
            tag::COMPILE_PEAK => {
                let bd = get_varint(&self.block, &mut self.pos)?;
                TraceEvent::CompilePeak {
                    at,
                    bytes: self.state.bytes_undelta(tag::COMPILE_PEAK, bd),
                }
            }
            tag::FAULT_INJECTED => TraceEvent::FaultInjected {
                at,
                fault: get_varint(&self.block, &mut self.pos)? as u32,
            },
            tag::FAULT_CLEARED => TraceEvent::FaultCleared {
                at,
                fault: get_varint(&self.block, &mut self.pos)? as u32,
            },
            tag::SHED => {
                let qd = get_varint(&self.block, &mut self.pos)?;
                TraceEvent::Shed {
                    at,
                    query: self.state.query_undelta(tag::SHED, qd),
                }
            }
            tag::BREAKER => {
                let class = get_varint(&self.block, &mut self.pos)? as usize;
                let code = *self.block.get(self.pos).ok_or(TraceV2Error::Truncated)?;
                self.pos += 1;
                let state = match code {
                    0 => BreakerState::Closed,
                    1 => BreakerState::Open,
                    2 => BreakerState::HalfOpen,
                    other => {
                        return Err(TraceV2Error::BadFrame(format!(
                            "unknown breaker state code {other}"
                        )))
                    }
                };
                TraceEvent::BreakerTransition { at, class, state }
            }
            tag::END => TraceEvent::End { at },
            other => return Err(TraceV2Error::BadFrame(format!("unknown event tag {other}"))),
        };
        Ok(ev)
    }
}

impl<R: Read> Iterator for TraceReaderV2<R> {
    type Item = Result<TraceEvent, TraceV2Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.pos >= self.block.len() {
            match self.next_block() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        match self.decode_record() {
            Ok(ev) => Some(Ok(ev)),
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

// --- replay and transcoding -------------------------------------------------

/// The result of streaming a v2 trace end to end: the per-phase reports
/// the stream replays to, its verified digest, the header's config
/// digest, and the event count.
#[derive(Debug, Clone, PartialEq)]
pub struct V2ReplaySummary {
    /// Reports reconstructed by [`MetricsFold`].
    pub reports: Vec<PhaseReport>,
    /// The stream digest (verified against the trailer).
    pub digest: u64,
    /// The header frame's run-config digest.
    pub config_digest: u64,
    /// Events decoded.
    pub events: u64,
}

/// Stream a v2 trace from `input` and fold it straight into per-phase
/// [`PhaseReport`]s — O(1) memory in the event count, the replay half of
/// `scenario_runner --replay` for binary traces.
pub fn replay_v2<R: Read>(input: R) -> Result<V2ReplaySummary, TraceV2Error> {
    let mut reader = TraceReaderV2::new(input)?;
    let config_digest = reader.config_digest();
    let mut fold = MetricsFold::new();
    let mut events = 0u64;
    for ev in reader.by_ref() {
        fold.observe(&ev?);
        events += 1;
    }
    Ok(V2ReplaySummary {
        reports: fold.into_phases(),
        digest: reader.digest.finish(),
        config_digest,
        events,
    })
}

/// Transcode a v1 text trace to v2 frames, line by line — neither trace is
/// ever materialized. The v2 header carries config digest 0 and an empty
/// catalog (the text format stores neither); phase names intern on first
/// use instead.
pub fn transcode_v1_to_v2<R: BufRead, W: Write>(
    mut input: R,
    output: W,
) -> Result<TraceV2Summary, TranscodeError> {
    // One line buffer for the whole stream. `read_line` keeps the line's
    // `'\n'` (and a `'\r'` before it), which trimming at the end drops as
    // `BufRead::lines` would; invalid UTF-8 is the same I/O error.
    let mut buf = String::new();
    if input.read_line(&mut buf)? == 0 || buf.trim_end() != V1_HEADER {
        return Err(TranscodeError::V1(TraceError::BadHeader));
    }
    let mut writer = TraceWriterV2::new(output, &[], 0)?;
    let mut idx = 0;
    loop {
        buf.clear();
        if input.read_line(&mut buf)? == 0 {
            break;
        }
        idx += 1;
        let line = buf.trim_end();
        if line.is_empty() {
            continue;
        }
        let ev = decode_line(line)
            .ok_or_else(|| TranscodeError::V1(TraceError::BadLine(idx, line.to_string())))?;
        writer.write_event(&ev)?;
    }
    Ok(writer.finish()?)
}

/// Transcode a v2 binary trace back to v1 text, frame by frame. The
/// output is byte-identical to the v1 encoding of the same event stream —
/// the losslessness contract `--transcode` round-trip tests enforce.
pub fn transcode_v2_to_v1<R: Read, W: Write>(
    input: R,
    mut output: W,
) -> Result<u64, TranscodeError> {
    let mut reader = TraceReaderV2::new(input).map_err(TranscodeError::V2)?;
    output.write_all(V1_HEADER.as_bytes())?;
    output.write_all(b"\n")?;
    let mut events = 0u64;
    let mut line = String::with_capacity(64);
    for ev in reader.by_ref() {
        let ev = ev.map_err(TranscodeError::V2)?;
        line.clear();
        encode_event_into(&mut line, &ev);
        output.write_all(line.as_bytes())?;
        events += 1;
    }
    output.flush()?;
    Ok(events)
}

/// Sniff the first bytes of a trace file: `true` when the stream should be
/// handed to [`TraceReaderV2`] — the exact v2 magic, or a same-family
/// version stamp other than the v1 text header (a hypothetical `v3` file
/// is binary-framed, and the v2 reader turns it into a clean
/// `UnsupportedVersion` diagnostic instead of the caller misreading its
/// frames as text). `false` routes to the v1 text decoder.
pub fn is_v2(prefix: &[u8]) -> bool {
    prefix.starts_with(MAGIC_V2)
        || (prefix.starts_with(b"throttledb-trace v")
            && !prefix.starts_with(crate::trace::HEADER.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

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

    fn encode_all(
        events: &[TraceEvent],
        catalog: &[String],
        config: u64,
    ) -> (Vec<u8>, TraceV2Summary) {
        let mut out = Vec::new();
        let mut w = TraceWriterV2::new(&mut out, catalog, config).unwrap();
        for ev in events {
            w.write_event(ev).unwrap();
        }
        let summary = w.finish().unwrap();
        (out, summary)
    }

    fn decode_all(bytes: &[u8]) -> Result<Vec<TraceEvent>, TraceV2Error> {
        TraceReaderV2::new(bytes)?.collect()
    }

    #[test]
    fn v2_round_trips_every_event_kind() {
        let events = sample_events();
        let catalog = vec!["steady state".to_string()];
        let (bytes, summary) = encode_all(&events, &catalog, 77);
        assert_eq!(summary.events, events.len() as u64);
        assert_eq!(summary.bytes, bytes.len() as u64);
        let reader = TraceReaderV2::new(&bytes[..]).unwrap();
        assert_eq!(reader.config_digest(), 77);
        assert_eq!(reader.catalog(), &catalog[..]);
        let decoded: Result<Vec<_>, _> = reader.collect();
        assert_eq!(decoded.unwrap(), events);
    }

    #[test]
    fn edge_case_field_values_round_trip() {
        // Values that stress the folds and escapes: classes and levels at
        // and past the 2-bit inline range, u64-extreme queries and gauges.
        let events = vec![
            TraceEvent::Submitted {
                at: SimTime::ZERO,
                query: u64::MAX,
                client: u32::MAX,
                class: 3,
            },
            TraceEvent::Submitted {
                at: SimTime::from_micros(1),
                query: 0,
                client: 0,
                class: 17,
            },
            TraceEvent::GatewayBlocked {
                at: SimTime::from_micros(1),
                query: u64::MAX / 2,
                level: 3,
            },
            TraceEvent::GatewayBlocked {
                at: SimTime::from_micros(2),
                query: 1,
                level: 250,
            },
            TraceEvent::GrantQueued {
                at: SimTime::from_micros(3),
                query: 5,
                bytes: u64::MAX,
            },
            TraceEvent::GrantQueued {
                at: SimTime::from_micros(4),
                query: 6,
                bytes: 0,
            },
        ];
        let (bytes, _) = encode_all(&events, &[], 0);
        assert_eq!(decode_all(&bytes).unwrap(), events);
    }

    #[test]
    fn inline_phase_names_intern_on_both_sides() {
        // Empty catalog: the first "steady state" goes inline, the second
        // must come back as a reference — asserted indirectly by the
        // stream staying small and decoding identically.
        let mut events = sample_events();
        events.push(TraceEvent::PhaseStart {
            at: SimTime::from_secs(21),
            name: "steady state".into(),
            clients: 1,
        });
        let (bytes, _) = encode_all(&events, &[], 0);
        assert_eq!(decode_all(&bytes).unwrap(), events);
        // Second occurrence is a 1-varint reference, not 12 inline bytes.
        let (once, _) = encode_all(&events[..events.len() - 1], &[], 0);
        assert!(bytes.len() < once.len() + 8);
    }

    #[test]
    fn digest_matches_replay_and_detects_corruption() {
        let events = sample_events();
        let (bytes, summary) = encode_all(&events, &[], 3);
        let replay = replay_v2(&bytes[..]).unwrap();
        assert_eq!(replay.digest, summary.digest);
        assert_eq!(replay.config_digest, 3);
        assert_eq!(replay.events, events.len() as u64);
        assert_eq!(replay.reports, Trace::new(events).replay());

        // Flip a payload byte mid-stream: either the frame fails to parse
        // or the digest check catches it — silence is the only bug.
        let mut corrupted = bytes.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x40;
        assert!(replay_v2(&corrupted[..]).is_err());
    }

    #[test]
    fn truncation_fails_cleanly_at_every_length() {
        let (bytes, _) = encode_all(&sample_events(), &[], 0);
        for len in 0..bytes.len() - 1 {
            let err = match TraceReaderV2::new(&bytes[..len]) {
                Err(e) => e,
                Ok(reader) => {
                    let res: Result<Vec<_>, _> = reader.collect();
                    match res {
                        Err(e) => e,
                        Ok(_) => panic!("truncated stream of {len} bytes decoded cleanly"),
                    }
                }
            };
            assert!(
                matches!(
                    err,
                    TraceV2Error::Truncated | TraceV2Error::BadMagic | TraceV2Error::BadVarint
                ),
                "unexpected error at {len}: {err:?}"
            );
        }
    }

    /// Magic, then a header frame with config digest 0 and no catalog.
    fn empty_header() -> Vec<u8> {
        let mut bytes = MAGIC_V2.to_vec();
        put_varint(&mut bytes, 9);
        bytes.extend_from_slice(&[0; 9]);
        bytes
    }

    #[test]
    fn a_huge_header_length_is_truncated_not_an_allocation() {
        let mut bytes = MAGIC_V2.to_vec();
        put_varint(&mut bytes, 1 << 50);
        assert_eq!(bytes.len(), 28);
        assert_eq!(
            TraceReaderV2::new(&bytes[..]).err(),
            Some(TraceV2Error::Truncated)
        );
    }

    #[test]
    fn a_huge_catalog_count_reserves_nothing_it_cannot_read() {
        let mut bytes = MAGIC_V2.to_vec();
        let mut payload = vec![0; 8];
        put_varint(&mut payload, 1 << 50);
        put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        assert_eq!(
            TraceReaderV2::new(&bytes[..]).err(),
            Some(TraceV2Error::Truncated)
        );
    }

    #[test]
    fn a_huge_block_length_is_truncated_not_an_allocation() {
        let mut bytes = empty_header();
        put_varint(&mut bytes, 1 << 50);
        bytes.extend_from_slice(&[0x11, 0x22, 0x33]);
        assert_eq!(bytes.len(), 41);
        let mut reader = TraceReaderV2::new(&bytes[..]).expect("the header is valid");
        assert_eq!(reader.next(), Some(Err(TraceV2Error::Truncated)));
        assert_eq!(reader.next(), None);
    }

    #[test]
    fn an_enum_escape_past_usize_is_a_bad_frame_in_every_build() {
        for (kind, what) in [
            (tag::SUBMITTED, "class"),
            (tag::GATEWAY_BLOCKED, "gateway level"),
        ] {
            for escape in [u64::MAX - 2, u64::MAX] {
                let mut record = vec![kind];
                put_folded(&mut record, 0, 3);
                put_varint(&mut record, escape);
                put_varint(&mut record, 0);
                let mut bytes = empty_header();
                put_varint(&mut bytes, record.len() as u64);
                bytes.extend_from_slice(&record);
                let mut reader = TraceReaderV2::new(&bytes[..]).expect("the header is valid");
                match reader.next() {
                    Some(Err(TraceV2Error::BadFrame(msg))) => assert!(msg.contains(what), "{msg}"),
                    other => panic!("{what} escape {escape}: {other:?}"),
                }
            }
        }
        // The largest escape that fits still decodes.
        assert_eq!(escaped_small(u64::MAX - 3, "class"), Ok(usize::MAX));
    }

    #[test]
    fn version_sniffing_tells_v1_v2_and_garbage_apart() {
        assert!(is_v2(MAGIC_V2));
        assert!(!is_v2(b"throttledb-trace v1\n..."));
        assert!(!is_v2(b"nonsense"));
        // Future binary versions route to the v2 reader so it can name the
        // unsupported version, instead of being misread as v1 text.
        assert!(is_v2(b"throttledb-trace v3\n"));
        let v1 = b"throttledb-trace v1\nend 0\n";
        assert_eq!(
            TraceReaderV2::new(&v1[..]).err(),
            Some(TraceV2Error::UnsupportedVersion(
                "throttledb-trace v1".into()
            ))
        );
        let v9 = b"throttledb-trace v9\nwhatever";
        assert!(matches!(
            TraceReaderV2::new(&v9[..]),
            Err(TraceV2Error::UnsupportedVersion(_))
        ));
        assert_eq!(
            TraceReaderV2::new(&b"garbage"[..]).err(),
            Some(TraceV2Error::BadMagic)
        );
    }

    #[test]
    fn transcoding_v1_v2_v1_is_byte_identical() {
        let trace = Trace::new(sample_events());
        let v1_text = trace.encode();
        let mut v2_bytes = Vec::new();
        let summary = transcode_v1_to_v2(v1_text.as_bytes(), &mut v2_bytes).unwrap();
        assert_eq!(summary.events, trace.len() as u64);
        assert!(v2_bytes.len() < v1_text.len());
        let mut back = Vec::new();
        let events = transcode_v2_to_v1(&v2_bytes[..], &mut back).unwrap();
        assert_eq!(events, trace.len() as u64);
        assert_eq!(String::from_utf8(back).unwrap(), v1_text);
    }

    #[test]
    fn transcoder_rejects_bad_v1_input() {
        assert_eq!(
            transcode_v1_to_v2(&b"nonsense\n"[..], &mut Vec::new()),
            Err(TranscodeError::V1(TraceError::BadHeader))
        );
        let bad = format!("{V1_HEADER}\nwibble 1 2\n");
        assert!(matches!(
            transcode_v1_to_v2(bad.as_bytes(), &mut Vec::new()),
            Err(TranscodeError::V1(TraceError::BadLine(1, _)))
        ));
    }

    #[test]
    fn transcoder_reads_lines_as_the_text_decoder_does() {
        let header = format!("{V1_HEADER}\r\n");
        for body in [
            "end 1\n",
            "end 1",
            "\r\n\nend 1\r\n\r\n",
            "phase 0 2 two  words \r\nend 1\u{2003}\n",
            "end 1\n\nwibble 1 2\r\nend 2\n",
            "end 1\nend 2\r\nend +\n",
            "done 1 2\rdone 3 4\n",
        ] {
            let text = format!("{header}{body}");
            let mut bytes = Vec::new();
            let transcoded = transcode_v1_to_v2(text.as_bytes(), &mut bytes)
                .map(|_| decode_all(&bytes).expect("own stream decodes"));
            let decoded = Trace::decode(&text)
                .map(Trace::into_events)
                .map_err(TranscodeError::V1);
            assert_eq!(transcoded, decoded, "{body:?}");
        }
        let invalid = [V1_HEADER.as_bytes(), b"\nend 1\n\xff\n"].concat();
        assert!(matches!(
            transcode_v1_to_v2(&invalid[..], &mut Vec::new()),
            Err(TranscodeError::Io(msg)) if msg.contains("UTF-8")
        ));
    }

    #[test]
    fn multi_block_streams_round_trip() {
        // Enough events to span several BLOCK_TARGET-sized frames.
        let mut events = Vec::new();
        events.push(TraceEvent::PhaseStart {
            at: SimTime::ZERO,
            name: "bulk".into(),
            clients: 1,
        });
        for i in 0..5000u64 {
            events.push(TraceEvent::Submitted {
                at: SimTime::from_micros(i * 37),
                query: i,
                client: (i % 7) as u32,
                class: (i % 3) as usize,
            });
            events.push(TraceEvent::Completed {
                at: SimTime::from_micros(i * 37 + 11),
                query: i,
            });
        }
        events.push(TraceEvent::End {
            at: SimTime::from_secs(1),
        });
        let (bytes, summary) = encode_all(&events, &[], 0);
        // Dense delta streams should land well under 4 bytes/event.
        assert!(
            (summary.bytes as usize) < events.len() * 4,
            "v2 too large: {} bytes for {} events",
            summary.bytes,
            events.len()
        );
        assert_eq!(decode_all(&bytes).unwrap(), events);
    }

    #[test]
    fn non_monotone_times_and_query_ids_still_round_trip() {
        // The engine never records these, but the codec must not assume
        // monotonicity — arbitrary streams (property tests, future event
        // kinds) take the zigzag escape path.
        let events = vec![
            TraceEvent::Completed {
                at: SimTime::from_micros(u64::MAX),
                query: u64::MAX,
            },
            TraceEvent::Completed {
                at: SimTime::ZERO,
                query: 3,
            },
            TraceEvent::Shed {
                at: SimTime::from_micros(15),
                query: 0,
            },
        ];
        let (bytes, _) = encode_all(&events, &[], 0);
        assert_eq!(decode_all(&bytes).unwrap(), events);
    }

    #[test]
    fn wrong_catalog_reference_is_a_bad_frame() {
        // Write with a catalog, then corrupt the record's catalog
        // reference so it points past the dictionary.
        let events = vec![TraceEvent::PhaseStart {
            at: SimTime::ZERO,
            name: "only".into(),
            clients: 1,
        }];
        let catalog = vec!["only".to_string()];
        let (mut bytes, _) = encode_all(&events, &catalog, 0);
        // The record sits right after the header frame: magic(20) +
        // len(1) + payload(8 + 1 + 1 + 4) = 35; record = [tag, name_ref=1,
        // clients]. Bump the reference out of range.
        let record_start = 20 + 1 + 14 + 1;
        assert_eq!(bytes[record_start + 1], 1, "expected catalog reference 1");
        bytes[record_start + 1] = 9;
        let res = decode_all(&bytes);
        assert!(
            matches!(
                res,
                Err(TraceV2Error::BadFrame(_)) | Err(TraceV2Error::DigestMismatch { .. })
            ),
            "patched reference must not decode: {res:?}"
        );
    }

    #[test]
    fn empty_stream_is_fine() {
        let (bytes, summary) = encode_all(&[], &[], 42);
        assert_eq!(summary.events, 0);
        assert_eq!(decode_all(&bytes).unwrap(), Vec::<TraceEvent>::new());
        let replay = replay_v2(&bytes[..]).unwrap();
        assert!(replay.reports.is_empty());
        assert_eq!(replay.config_digest, 42);
    }

    #[test]
    fn varint_primitives_round_trip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
        for d in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        // The wide (folded) form carries a full 64-bit zigzag plus 2 bits.
        for (qd, bits) in [(0u64, 0u8), (1, 3), (u64::MAX, 2), (u64::MAX, 3)] {
            let mut buf = Vec::new();
            put_varint_wide(&mut buf, fold(qd, bits));
            let mut pos = 0;
            let value = get_varint_wide(&buf, &mut pos).unwrap();
            assert_eq!(unfold(value), Ok((qd, bits)));
            assert_eq!(pos, buf.len());
        }
        // Over-long varints are rejected, not wrapped.
        let mut pos = 0;
        assert_eq!(
            get_varint(&[0xff; 11], &mut pos),
            Err(TraceV2Error::BadVarint)
        );
        let mut pos = 0;
        assert_eq!(
            get_varint_wide(&[0xff; 11], &mut pos),
            Err(TraceV2Error::BadVarint)
        );
    }
}
