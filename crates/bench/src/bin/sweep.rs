//! Fan a (policy × scenario × seed) grid across worker
//! threads, deterministically, into one BENCH document.
//!
//! ```text
//! sweep [--scenarios a,b,...] [--seeds 1,2,...] [--scale quick|paper]
//!       [--workers N] [--out PATH] [--cells-out PATH]
//!       [--policies ladder,pid,cost] [--policies-out PATH]
//!       [--faults] [--resilience-out PATH]
//! sweep --list
//! ```
//!
//! Every mode is the same grid driver with a different document kind, picked
//! by the first of these that applies:
//!
//! * `--faults` — the resilience laboratory: the chaos scenarios (default:
//!   every fault-injection built-in) across the policy grid (default: all
//!   policies); `--resilience-out` receives `BENCH_resilience.json`;
//! * `--policies` — the admission-policy laboratory; `--policies-out`
//!   receives `BENCH_policies.json`;
//! * otherwise the (scenario × seed) sweep: `--out` receives the full
//!   `BENCH_sweep.json` (the cells under the sweep's totals), `--cells-out`
//!   the cells alone.
//!
//! Cell results depend only on their coordinates: `--workers` changes
//! wall-clock time and nothing else, which CI enforces by diffing the
//! documents between `--workers 4` and `--workers 1` runs. See
//! `docs/EXPERIMENTS.md` for the schemas. No file carries host time: that
//! is the repository benchmark's job (`benchmark/`).
//!
//! Exit codes: 0 success, 1 I/O error, 2 usage error.

use std::process::ExitCode;
use throttledb_bench::sweep::{run_grid, Admission, GridSpec, Kind};
use throttledb_engine::PolicyKind;
use throttledb_scenario::{Scale, Scenario};

fn usage() -> ExitCode {
    eprintln!("usage: sweep [--scenarios a,b,...] [--seeds 1,2,...] [--scale quick|paper]");
    eprintln!("             [--workers N] [--out PATH] [--cells-out PATH]");
    eprintln!("             [--policies ladder,pid,cost] [--policies-out PATH]");
    eprintln!("             [--faults] [--resilience-out PATH]");
    eprintln!("       sweep --list");
    eprintln!("defaults: --scenarios compile_storm --seeds 2007 --scale quick");
    eprintln!("          --workers <available parallelism>");
    eprintln!("          --faults alone sweeps every chaos scenario across all policies");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenarios = vec!["compile_storm".to_string()];
    let mut seeds = vec![2007u64];
    let mut scale = Scale::Quick;
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut policies: Option<Vec<Admission>> = None;
    let mut faults = false;
    let mut scenarios_set = false;
    // (flag, path) for every `--*-out` given; the last one of a flag wins.
    let mut paths: Vec<(&str, String)> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" | "--cells-out" | "--policies-out" | "--resilience-out" => match iter.next() {
                Some(path) => paths.push((arg.as_str(), path.clone())),
                None => return usage(),
            },
            "--list" => {
                for name in Scenario::builtin_names() {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--scenarios" => match iter.next() {
                Some(list) => {
                    scenarios = list.split(',').map(str::to_string).collect();
                    scenarios_set = true;
                }
                None => return usage(),
            },
            "--seeds" => match iter.next().map(|list| {
                list.split(',')
                    .map(|s| s.trim().parse::<u64>())
                    .collect::<Result<Vec<u64>, _>>()
            }) {
                Some(Ok(parsed)) if !parsed.is_empty() => seeds = parsed,
                _ => return usage(),
            },
            "--scale" => match iter.next().and_then(|s| Scale::parse(s)) {
                Some(s) => scale = s,
                None => return usage(),
            },
            "--workers" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => return usage(),
            },
            "--policies" => match iter.next().map(|list| {
                list.split(',')
                    .map(|p| PolicyKind::parse(p.trim()).map(Admission::Policy).ok_or(p))
                    .collect::<Result<Vec<_>, _>>()
            }) {
                Some(Ok(parsed)) if !parsed.is_empty() => policies = Some(parsed),
                Some(Err(bad)) => {
                    eprintln!("unknown policy {bad:?} (known: ladder, pid, cost)");
                    return usage();
                }
                _ => return usage(),
            },
            "--faults" => faults = true,
            _ => return usage(),
        }
    }

    let path_of = |flag: &str| {
        paths
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, path)| path.clone())
    };
    // The first mode that applies picks the document kind, and each kind
    // writes only its own outputs: (flag, cells section only).
    let (kind, outputs): (Kind, &[(&str, bool)]) = if faults {
        (Kind::Resilience, &[("--resilience-out", false)])
    } else if policies.is_some() {
        (Kind::Policies, &[("--policies-out", false)])
    } else {
        (Kind::Sweep, &[("--out", false), ("--cells-out", true)])
    };

    if faults && !scenarios_set {
        scenarios = Scenario::chaos_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    for name in &scenarios {
        if Scenario::builtin(name, scale).is_none() {
            eprintln!("unknown scenario {name:?} (try --list)");
            return usage();
        }
    }

    let spec = GridSpec {
        kind,
        admissions: match (kind, policies) {
            (Kind::Policies | Kind::Resilience, Some(p)) => p,
            (Kind::Resilience, None) => PolicyKind::all().map(Admission::Policy).to_vec(),
            _ => vec![Admission::Policy(PolicyKind::Ladder)],
        },
        scenarios,
        clients: vec![None],
        seeds,
        scale,
        workers,
    };
    eprintln!(
        "{} grid: {} policy(ies) x {} scenario(s) x {} seed(s) on {} worker(s)...",
        kind.name(),
        spec.admissions.len(),
        spec.scenarios.len(),
        spec.seeds.len(),
        spec.workers
    );
    let outcome = run_grid(&spec);
    print!("{}", outcome.table());
    println!(
        "total: {} cells in {:.0} ms on {} worker(s)",
        outcome.cells.len(),
        outcome.total_wall_ms,
        outcome.spec.workers
    );

    for &(flag, cells_only) in outputs {
        let Some(path) = path_of(flag) else {
            continue;
        };
        let document = if cells_only {
            outcome.cells_document()
        } else {
            outcome.document()
        };
        if let Err(e) = std::fs::write(&path, document) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
