//! The repository's benchmark: four workloads, six end-to-end metrics, and
//! a traced run that attributes time to layers. See `README.md` next to
//! `Cargo.toml` for why each workload, metric and bound is what it is.
//!
//! ```text
//! throttledb-benchmark run  [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--append SET.json]
//! throttledb-benchmark list
//! throttledb-benchmark agree A.json B.json
//! ```

mod agree;
mod alloc;
mod compile_real;
mod json;
mod metrics;
mod probes;
mod run;
mod sim;
mod spans;
mod stats;
mod trace_plane;
mod workload;

use run::RunArgs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

const USAGE: &str = "usage:
  run  [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--append SET.json]
       one workload in this process; without --workload, all four, one child process each
  list print every metric name with its unit
  agree A.json B.json
       compare two result sets against the bounds in BENCHMARK.json";

fn benchmark_json() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn parse_run_args(args: &[String]) -> Result<(Option<String>, RunArgs), String> {
    let mut workload = None;
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        append: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--append" => parsed.append = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload, parsed))
}

/// Run every workload, each in a child process of its own: interleaving
/// workloads in one process changes their timings through heap state.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let set = args
        .append
        .clone()
        .unwrap_or_else(|| run::out_dir().join("results.json"));
    let mut all_correct = true;
    for name in workload::NAMES {
        let status = Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--append")
            .arg(&set)
            .status()
            .map_err(|e| format!("starting the {name} run: {e}"))?;
        all_correct &= status.success();
    }
    println!("results appended to {}", set.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn list() {
    println!("end-to-end (every workload; bounds are in BENCHMARK.json):");
    for (name, unit, better) in metrics::END_TO_END {
        println!("  {name:<45} {unit:<13} {better} is better");
    }
    println!("per-layer (traced run):");
    for (name, unit, better) in metrics::PER_LAYER {
        println!("  {name:<45} {unit:<13} {better} is better");
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let (workload, mut run_args) = parse_run_args(&args[1..])?;
            let Some(workload) = workload else {
                return run_all(&run_args);
            };
            run_args.workload = workload;
            let result = run::run(&run_args)?;
            // The contract: one JSON object as the last line of stdout.
            println!("{}", result.contract_line());
            // A failed output check fails the command.
            Ok(if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("agree") => match &args[1..] {
            [a, b] => {
                agree::main(Path::new(a), Path::new(b), &benchmark_json()).map(ExitCode::from)
            }
            _ => Err("agree takes two result sets".to_string()),
        },
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seconds_is_the_contracts_run_seconds() {
        let text = std::fs::read_to_string(benchmark_json()).expect("BENCHMARK.json");
        let doc = json::Json::parse(&text).expect("BENCHMARK.json parses");
        let run_seconds = doc.get("run_seconds").and_then(json::Json::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }

    #[test]
    fn run_flags_parse_and_reject() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (workload, parsed) = parse_run_args(&args(&[
            "--workload",
            "sim_pipeline",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .expect("valid flags");
        assert_eq!(workload.as_deref(), Some("sim_pipeline"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 2.5, true));
        assert!(parse_run_args(&args(&["--trace", "2"])).is_err());
        assert!(parse_run_args(&args(&["--seed"])).is_err());
        assert!(parse_run_args(&args(&["--bogus", "1"])).is_err());
    }
}
