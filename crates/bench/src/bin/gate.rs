//! The BENCH regression gate CLI.
//!
//! ```text
//! gate --baseline PATH --current PATH [--tolerance 0.10]
//! gate --self-test
//! ```
//!
//! Diffs a current BENCH document — any of the five kinds: the sweep cells,
//! `BENCH_policies.json`, `BENCH_resilience.json`, `BENCH_trace.json` or
//! `BENCH_compile.json` —
//! against a committed baseline (see `crates/bench/baselines/`) and exits
//! nonzero when any gated metric regresses beyond the relative tolerance. `--self-test` runs the gate against synthetic documents —
//! one identical, one regressed — proving it can both accept and reject
//! before CI trusts its exit code.
//!
//! Exit codes: 0 pass, 1 regression (or failed self-test), 2 usage /
//! unreadable / unparsable input.

use std::process::ExitCode;
use throttledb_bench::gate;

fn usage() -> ExitCode {
    eprintln!("usage: gate --baseline PATH --current PATH [--tolerance 0.10]");
    eprintln!("       gate --self-test");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline = None;
    let mut current = None;
    let mut tolerance = 0.10f64;
    let mut self_test = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--baseline" => match iter.next() {
                Some(path) => baseline = Some(path.clone()),
                None => return usage(),
            },
            "--current" => match iter.next() {
                Some(path) => current = Some(path.clone()),
                None => return usage(),
            },
            "--tolerance" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(t) if t >= 0.0 => tolerance = t,
                _ => return usage(),
            },
            "--self-test" => self_test = true,
            _ => return usage(),
        }
    }

    if self_test {
        return match gate::self_test() {
            Ok(()) => {
                println!("gate self-test passed: accepts identical, rejects regressed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gate self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (Some(baseline_path), Some(current_path)) = (baseline, current) else {
        return usage();
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            None
        }
    };
    let (Some(base_text), Some(cur_text)) = (read(&baseline_path), read(&current_path)) else {
        return ExitCode::from(2);
    };

    match gate::compare_text(&base_text, &cur_text, tolerance) {
        Ok(regressions) if regressions.is_empty() => {
            println!(
                "gate passed: {current_path} within ±{:.0}% of {baseline_path}",
                tolerance * 100.0
            );
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            eprintln!(
                "gate FAILED: {} regression(s) vs {baseline_path}:",
                regressions.len()
            );
            for r in &regressions {
                eprintln!("  {}", r.what);
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: malformed JSON at byte {}: {}", e.at, e.message);
            ExitCode::from(2)
        }
    }
}
