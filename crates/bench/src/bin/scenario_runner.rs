//! Run a named built-in scenario and print its per-phase report.
//!
//! ```text
//! scenario_runner --list
//! scenario_runner --transcode SRC DST
//! scenario_runner <name> [quick|paper] [seed]
//!                 [--trace PATH | --trace-v2 PATH | --replay PATH]
//! ```
//!
//! `--trace PATH` records the admission/grant event stream to the v1 text
//! format (the diffable golden-file codec). `--trace-v2 PATH` records the
//! same stream to the binary `throttledb-trace v2` frame format through a
//! streaming sink, so even a 10M-arrival run serializes at O(1) memory.
//! `--replay PATH` re-runs the scenario, streams the stored trace (either
//! version, sniffed from the first bytes), and fails (exit 3) if the
//! stored stream does not reproduce the live one: the engine's event fold
//! over the stored stream must equal its fold over the live stream
//! (per-phase reports), and for v2 the incremental stream digests must
//! match too.
//! `--transcode SRC DST` converts between the two formats losslessly
//! (direction sniffed from SRC). Exit codes: 0 success, 1 I/O/decode
//! error, 2 usage/empty-metrics, 3 replay mismatch.
//!
//! See `docs/EXPERIMENTS.md` for the full experiment guide.

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::process::ExitCode;
use std::rc::Rc;
use throttledb_engine::TraceSink;
use throttledb_scenario::{
    is_v2, replay_v2, transcode_v1_to_v2, transcode_v2_to_v1, Scale, Scenario, ScenarioRunner,
    Trace, TraceV2Error, TraceWriterV2, V2ReplaySummary,
};

fn usage() -> ExitCode {
    eprintln!("usage: scenario_runner --list");
    eprintln!("       scenario_runner --transcode SRC DST");
    eprintln!("       scenario_runner <name> [quick|paper] [seed]");
    eprintln!("                       [--trace PATH | --trace-v2 PATH | --replay PATH]");
    eprintln!("built-in scenarios:");
    for name in Scenario::builtin_names() {
        eprintln!("  {name}");
    }
    ExitCode::from(2)
}

/// Sniff whether `path` holds a v2 binary trace (vs v1 text or anything
/// else) from its first bytes, without reading the whole file.
fn sniff_v2(path: &str) -> Result<bool, std::io::Error> {
    let mut prefix = [0u8; 20];
    let mut file = File::open(path)?;
    let mut filled = 0;
    while filled < prefix.len() {
        match file.read(&mut prefix[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(is_v2(&prefix[..filled]))
}

/// Convert between trace formats, direction sniffed from `src`. The v1
/// side streams line by line, the v2 side frame by frame, so transcoding
/// never materializes either trace.
fn transcode(src: &str, dst: &str) -> ExitCode {
    let v2 = match sniff_v2(src) {
        Ok(v2) => v2,
        Err(e) => {
            eprintln!("error: cannot read trace from {src}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let input = match File::open(src) {
        Ok(f) => BufReader::new(f),
        Err(e) => {
            eprintln!("error: cannot read trace from {src}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let output = match File::create(dst) {
        Ok(f) => BufWriter::new(f),
        Err(e) => {
            eprintln!("error: cannot write trace to {dst}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if v2 {
        match transcode_v2_to_v1(input, output) {
            Ok(events) => {
                println!("transcoded {src} (v2) -> {dst} (v1): {events} events");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {src} is not a valid trace: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match transcode_v1_to_v2(input, output) {
            Ok(summary) => {
                println!(
                    "transcoded {src} (v1) -> {dst} (v2): {} events, {} bytes, digest {:016x}",
                    summary.events, summary.bytes, summary.digest
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {src} is not a valid trace: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

/// A stored `--replay` trace, decoded up front (v1) or streamed to its
/// replay summary (v2) before any simulation runs.
enum StoredTrace {
    V1(Trace),
    V2(V2ReplaySummary),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = None;
    let mut scale = Scale::Paper;
    let mut seed = None;
    let mut trace_out = None;
    let mut trace_v2_out = None;
    let mut replay_in = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for name in Scenario::builtin_names() {
                    let s = Scenario::builtin(name, Scale::Quick).expect("registry resolves");
                    println!("{name:<22} {}", s.description);
                }
                return ExitCode::SUCCESS;
            }
            "--transcode" => match (iter.next(), iter.next()) {
                (Some(src), Some(dst)) => return transcode(src, dst),
                _ => return usage(),
            },
            "--trace" => match iter.next() {
                Some(path) => trace_out = Some(path.clone()),
                None => return usage(),
            },
            "--trace-v2" => match iter.next() {
                Some(path) => trace_v2_out = Some(path.clone()),
                None => return usage(),
            },
            "--replay" => match iter.next() {
                Some(path) => replay_in = Some(path.clone()),
                None => return usage(),
            },
            "quick" | "paper" => scale = Scale::parse(arg).expect("matched above"),
            other if name.is_none() => name = Some(other.to_string()),
            other => match other.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(),
            },
        }
    }

    let Some(name) = name else {
        return usage();
    };
    let Some(mut scenario) = Scenario::builtin(&name, scale) else {
        eprintln!("unknown scenario {name:?}");
        return usage();
    };
    if let Some(seed) = seed {
        scenario = scenario.with_seed(seed);
    }
    let config_digest = scenario.config_digest();
    let catalog = scenario.trace_catalog();

    // Replay only compares the stored trace against the live per-phase
    // reports, so it needs no recording of its own — but decode the stored
    // file up front, so a truncated or corrupted trace is a clean
    // diagnostic and an immediate nonzero exit, not minutes of simulation
    // followed by one. v2 traces stream through the replay fold at O(1)
    // memory and carry a run-config digest checked here, before any
    // simulation, so a trace recorded under a different scenario, seed, or
    // policy fails fast too.
    let stored = match &replay_in {
        Some(path) => match sniff_v2(path) {
            Err(e) => {
                eprintln!("error: cannot read trace from {path}: {e}");
                return ExitCode::FAILURE;
            }
            Ok(true) => {
                let file = match File::open(path) {
                    Ok(f) => BufReader::new(f),
                    Err(e) => {
                        eprintln!("error: cannot read trace from {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let summary = match replay_v2(file) {
                    Ok(s) => s,
                    Err(TraceV2Error::Io(msg)) => {
                        eprintln!("error: cannot read trace from {path}: {msg}");
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("error: {path} is not a valid trace: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                // Config digest 0 marks a transcoded stream (the v1 text
                // carries no scenario identity to check against).
                if summary.config_digest != 0 && summary.config_digest != config_digest {
                    eprintln!(
                        "error: {path} was recorded under a different configuration: \
                         stored config digest {:016x}, this run is {:016x} \
                         (scenario, seed, policy, or phase schedule changed?)",
                        summary.config_digest, config_digest
                    );
                    return ExitCode::FAILURE;
                }
                Some(StoredTrace::V2(summary))
            }
            Ok(false) => {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: cannot read trace from {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match Trace::decode(&text) {
                    Ok(t) => Some(StoredTrace::V1(t)),
                    Err(e) => {
                        eprintln!("error: {path} is not a valid trace: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        },
        None => None,
    };

    let record = trace_out.is_some();
    // The v2 recording path is a streaming sink: events serialize to the
    // file as the run produces them. Replaying a v2 trace (recorded with a
    // config digest) installs the same writer over a null output, so the
    // live run's stream digest is recomputed byte-for-byte without ever
    // buffering the event stream.
    let need_live_digest = matches!(
        &stored,
        Some(StoredTrace::V2(s)) if s.config_digest != 0
    ) && trace_v2_out.is_none();
    let v2_file_writer = match &trace_v2_out {
        Some(path) => {
            let file = match File::create(path) {
                Ok(f) => BufWriter::new(f),
                Err(e) => {
                    eprintln!("error: cannot write trace to {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match TraceWriterV2::new(file, &catalog, config_digest) {
                Ok(w) => Some(Rc::new(RefCell::new(w))),
                Err(e) => {
                    eprintln!("error: cannot write trace to {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let v2_null_writer = if need_live_digest {
        match TraceWriterV2::new(std::io::sink(), &catalog, config_digest) {
            Ok(w) => Some(Rc::new(RefCell::new(w))),
            Err(_) => unreachable!("writing to io::sink() cannot fail"),
        }
    } else {
        None
    };

    eprintln!(
        "running scenario {name} ({} phases, {} clients max, {}s simulated)...",
        scenario.phases.len(),
        scenario.max_clients(),
        scenario.total_duration().as_secs()
    );
    let mut runner = ScenarioRunner::new(scenario).record_trace(record);
    if let Some(writer) = &v2_file_writer {
        runner = runner.with_trace_sink(writer.clone() as Rc<RefCell<dyn TraceSink>>);
    } else if let Some(writer) = &v2_null_writer {
        runner = runner.with_trace_sink(writer.clone() as Rc<RefCell<dyn TraceSink>>);
    }
    let outcome = runner.run();
    print!("{}", outcome.render_report());

    if outcome.total_completed() == 0 {
        eprintln!("error: scenario completed zero queries (empty metrics)");
        return ExitCode::from(2);
    }

    if let Some(path) = trace_out {
        let trace = outcome.trace.as_ref().expect("recording was enabled");
        // One encoding, written and digested: `Trace::digest` is the FNV-1a
        // of exactly this text.
        let text = trace.encode();
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("error: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "trace: {} events, digest {:016x}, written to {path}",
            trace.len(),
            throttledb_workload::fnv1a_64(text.as_bytes())
        );
    }

    // Close the v2 stream(s): the file writer surfaces any I/O error
    // stashed during the run; the null writer yields the live digest.
    let mut live_digest = None;
    if let Some(writer) = v2_file_writer {
        let path = trace_v2_out.as_deref().expect("path set with writer");
        match writer.borrow_mut().finish() {
            Ok(summary) => {
                live_digest = Some(summary.digest);
                println!(
                    "trace-v2: {} events, {} bytes, digest {:016x}, written to {path}",
                    summary.events, summary.bytes, summary.digest
                );
            }
            Err(e) => {
                eprintln!("error: cannot write trace to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(writer) = v2_null_writer {
        let summary = writer
            .borrow_mut()
            .finish()
            .expect("writing to io::sink() cannot fail");
        live_digest = Some(summary.digest);
    }

    if let (Some(path), Some(stored)) = (replay_in, stored) {
        let matched = match &stored {
            StoredTrace::V1(trace) => trace.replay() == outcome.phases,
            StoredTrace::V2(summary) => {
                let digest_ok = match (summary.config_digest, live_digest) {
                    // Same run identity: the stream must be byte-identical,
                    // and the incremental digest proves it.
                    (stored_config, Some(live)) if stored_config != 0 => live == summary.digest,
                    _ => true,
                };
                digest_ok && summary.reports == outcome.phases
            }
        };
        if matched {
            println!(
                "replay: {path} reproduces the live run ({} phases match)",
                outcome.phases.len()
            );
        } else {
            eprintln!("replay MISMATCH: stored trace {path} does not reproduce this run");
            eprintln!("(did the policy code, scenario definition, or seed change?)");
            return ExitCode::from(3);
        }
    }

    ExitCode::SUCCESS
}
