//! `scenario_runner --replay` must turn a damaged trace file into a clean
//! diagnostic and a nonzero exit — never a panic, and never a multi-minute
//! simulation that fails only at the end. These tests feed the real binary
//! mid-file-truncated and corrupted traces in both formats: v1 text built
//! from the committed retry-storm golden, and v2 binary built in-process
//! from the same events.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use throttledb_scenario::{Scale, Scenario, Trace, TraceWriterV2, MAGIC_V2};

fn golden() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../scenario/tests/golden/retry_storm_quick_2007.trace");
    std::fs::read_to_string(&path).expect("committed golden trace exists")
}

/// The golden events re-encoded as a v2 binary stream, stamped with the
/// config digest `config_delta` away from the one this run expects — 0
/// produces a stream the runner replays cleanly.
fn golden_v2(config_delta: u64) -> Vec<u8> {
    let scenario = Scenario::builtin("retry_storm", Scale::Quick)
        .expect("builtin exists")
        .with_seed(2007);
    let catalog = scenario.trace_catalog();
    let config_digest = scenario.config_digest().wrapping_add(config_delta);
    let events = Trace::decode(&golden())
        .expect("committed golden decodes")
        .into_events();
    let mut bytes = Vec::new();
    let mut w = TraceWriterV2::new(&mut bytes, &catalog, config_digest).expect("Vec never fails");
    for ev in &events {
        w.write_event(ev).expect("Vec never fails");
    }
    w.finish().expect("Vec never fails");
    bytes
}

fn temp_trace(name: &str, contents: &str) -> PathBuf {
    temp_trace_bytes(name, contents.as_bytes())
}

fn temp_trace_bytes(name: &str, contents: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("throttledb_replay_errors_{name}.trace"));
    std::fs::write(&path, contents).expect("can write temp trace");
    path
}

fn replay(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario_runner"))
        .args(["retry_storm", "quick", "2007", "--replay"])
        .arg(path)
        .output()
        .expect("scenario_runner launches")
}

fn assert_clean_failure(out: &Output, case: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{case}: damaged trace must exit nonzero, stderr:\n{stderr}"
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "{case}: decode failure is exit 1, stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("is not a valid trace"),
        "{case}: missing TraceError diagnostic, stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{case}: the runner panicked instead of reporting, stderr:\n{stderr}"
    );
    // Fail-fast contract: the diagnostic arrives before any simulation
    // output (the run banner goes to stderr only once a trace decodes).
    assert!(
        !stderr.contains("running scenario"),
        "{case}: runner simulated before validating the trace, stderr:\n{stderr}"
    );
}

#[test]
fn truncated_trace_is_a_diagnostic_not_a_panic() {
    let full = golden();
    // Keep the first half of the records, then cut the next line after its
    // keyword — a mid-line truncation that is a broken arity, not a shorter
    // but still well-formed record.
    let lines: Vec<&str> = full.lines().collect();
    let mid = lines.len() / 2;
    assert!(mid + 1 < lines.len(), "golden trace is non-trivial");
    let keyword = lines[mid].split(' ').next().unwrap();
    let truncated = format!("{}\n{keyword}", lines[..mid].join("\n"));
    let path = temp_trace("truncated", &truncated);
    let out = replay(&path);
    std::fs::remove_file(&path).ok();
    assert_clean_failure(&out, "truncated");
}

#[test]
fn corrupted_line_is_a_diagnostic_not_a_panic() {
    let full = golden();
    let lines: Vec<&str> = full.lines().collect();
    assert!(lines.len() > 4, "golden trace is non-trivial");
    // Replace a middle record with garbage that parses as no event kind.
    let mut corrupted: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let mid = corrupted.len() / 2;
    corrupted[mid] = "submit not-a-number 42 SALES".to_string();
    let text = corrupted.join("\n") + "\n";
    let path = temp_trace("corrupted", &text);
    let out = replay(&path);
    std::fs::remove_file(&path).ok();
    assert_clean_failure(&out, "corrupted");
}

#[test]
fn v2_intact_stream_replays_cleanly() {
    // Sanity anchor for the damage cases below: the same bytes, undamaged,
    // replay with exit 0.
    let path = temp_trace_bytes("v2_intact", &golden_v2(0));
    let out = replay(&path);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
}

#[test]
fn v2_truncated_frame_is_a_diagnostic_not_a_panic() {
    let mut bytes = golden_v2(0);
    // Cut mid-frame: past the header, short of the digest trailer.
    bytes.truncate(bytes.len() * 3 / 5);
    let path = temp_trace_bytes("v2_truncated", &bytes);
    let out = replay(&path);
    std::fs::remove_file(&path).ok();
    assert_clean_failure(&out, "v2 truncated");
}

#[test]
fn v2_corrupted_varint_is_a_diagnostic_not_a_panic() {
    let mut bytes = golden_v2(0);
    // A run of continuation bytes mid-block overflows every varint width
    // the decoder accepts.
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 12] {
        *b = 0xff;
    }
    let path = temp_trace_bytes("v2_bad_varint", &bytes);
    let out = replay(&path);
    std::fs::remove_file(&path).ok();
    assert_clean_failure(&out, "v2 corrupted varint");
}

#[test]
fn v2_flipped_payload_byte_is_a_diagnostic_not_a_panic() {
    let mut bytes = golden_v2(0);
    // One flipped bit near the end of the stream: even if the records
    // still decode, the incremental digest must catch it.
    let idx = bytes.len() - 32;
    bytes[idx] ^= 0x40;
    let path = temp_trace_bytes("v2_flipped", &bytes);
    let out = replay(&path);
    std::fs::remove_file(&path).ok();
    assert_clean_failure(&out, "v2 flipped byte");
}

#[test]
fn v2_huge_frame_length_is_a_diagnostic_not_an_abort() {
    // A valid header (config digest 0, no catalog), then a block frame
    // whose length prefix claims 2^50 bytes and three bytes of it: 41
    // bytes that must fail as truncated, not ask for a petabyte.
    let mut bytes = MAGIC_V2.to_vec();
    bytes.push(9);
    bytes.extend_from_slice(&[0; 9]);
    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
    bytes.extend_from_slice(&[0x11, 0x22, 0x33]);
    assert_eq!(bytes.len(), 41);
    let path = temp_trace_bytes("v2_huge_frame", &bytes);
    let out = replay(&path);
    std::fs::remove_file(&path).ok();
    assert_clean_failure(&out, "v2 huge frame length");
}

#[test]
fn v2_unknown_version_is_a_diagnostic_not_a_panic() {
    let mut bytes = golden_v2(0);
    // "throttledb-trace v2\n" -> "throttledb-trace v3\n": the sniffer
    // rejects it as v2 and the v1 text decoder rejects the header line,
    // so a future-format file degrades to a clean diagnostic today.
    let idx = b"throttledb-trace v".len();
    assert_eq!(bytes[idx], b'2');
    bytes[idx] = b'3';
    let path = temp_trace_bytes("v2_version", &bytes);
    let out = replay(&path);
    std::fs::remove_file(&path).ok();
    assert_clean_failure(&out, "v2 unknown version");
}

#[test]
fn v2_config_digest_mismatch_fails_before_simulating() {
    // A well-formed stream stamped with a different run-config digest: the
    // runner must refuse before it simulates anything, with a diagnostic
    // naming both digests.
    let path = temp_trace_bytes("v2_config", &golden_v2(1));
    let out = replay(&path);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("was recorded under a different configuration"),
        "config-mismatch diagnostic absent, stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(
        !stderr.contains("running scenario"),
        "runner simulated before the config check, stderr:\n{stderr}"
    );
}

#[test]
fn missing_file_is_a_diagnostic_not_a_panic() {
    let path = std::env::temp_dir().join("throttledb_replay_errors_does_not_exist.trace");
    std::fs::remove_file(&path).ok();
    let out = replay(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("cannot read trace"),
        "missing-file diagnostic absent, stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
