//! Fan a (scenario × seed) sweep across worker threads, deterministically.
//!
//! ```text
//! sweep [--scenarios a,b,...] [--seeds 1,2,...] [--scale quick|paper]
//!       [--workers N] [--shards N] [--out PATH] [--cells-out PATH]
//!       [--policies ladder,pid,cost] [--policies-out PATH]
//!       [--shard-scale-out PATH]
//! sweep --list
//! ```
//!
//! Cell results depend only on (scenario, seed, scale): `--workers` and
//! `--shards` change wall-clock time and nothing else, which CI enforces by
//! diffing the `--cells-out` file between `--workers 4` and `--workers 1`
//! runs and between `--shards 4` and `--shards 1` runs. `--out` writes the
//! full `BENCH_sweep.json` (the cells under the sweep's totals); see
//! `docs/EXPERIMENTS.md` for the schema. No file carries host time: that
//! is the repository benchmark's job (`benchmark/`).
//!
//! `--shard-scale-out` switches on the shard grid: every (scenario, seed)
//! runs at 1 shard (the inline arrival feed) and at `--shards` (default 4)
//! generator shards, the run fails unless the rows are identical, and the
//! path receives `BENCH_shard_scale.json`, whose rows the regression gate
//! holds exactly.
//!
//! `--policies` switches on the admission-policy laboratory: instead of the
//! plain (scenario × seed) sweep, the full (policy × scenario × seed) grid
//! runs and `--policies-out` receives the `BENCH_policies.json` scoreboard
//! (per-cell metrics plus per-(policy, scenario) mean ± 95% CI aggregates
//! over seeds; fully deterministic, diffable across worker counts).
//!
//! `--faults` switches on the resilience laboratory: the chaos scenarios
//! (default: every fault-injection built-in) run across the policy grid,
//! and `--resilience-out` receives the `BENCH_resilience.json` scoreboard
//! (goodput under fault, time to recovery, shed/abandon counters, with the
//! same mean ± 95% CI aggregation and worker-count invariance).
//!
//! Exit codes: 0 success, 1 I/O error, 2 usage error.

use std::process::ExitCode;
use throttledb_bench::sweep::{
    run_policy_sweep, run_resilience_sweep, run_shard_scale, run_sweep, PolicySweepSpec,
    ShardScaleSpec, SweepSpec,
};
use throttledb_engine::PolicyKind;
use throttledb_scenario::{Scale, Scenario};

fn usage() -> ExitCode {
    eprintln!("usage: sweep [--scenarios a,b,...] [--seeds 1,2,...] [--scale quick|paper]");
    eprintln!("             [--workers N] [--shards N] [--out PATH] [--cells-out PATH]");
    eprintln!("             [--policies ladder,pid,cost] [--policies-out PATH]");
    eprintln!("             [--faults] [--resilience-out PATH]");
    eprintln!("             [--shard-scale-out PATH]");
    eprintln!("       sweep --list");
    eprintln!("defaults: --scenarios compile_storm --seeds 2007 --scale quick");
    eprintln!("          --workers <available parallelism> --shards 1");
    eprintln!("          --faults alone sweeps every chaos scenario across all policies");
    eprintln!("          --shard-scale-out runs 1 shard and --shards (default 4), rows must match");
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
    let mut shards = 1u32;
    let mut out = None;
    let mut cells_out = None;
    let mut shard_scale_out = None;
    let mut policies: Option<Vec<PolicyKind>> = None;
    let mut policies_out = None;
    let mut faults = false;
    let mut resilience_out = None;
    let mut scenarios_set = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
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
            "--shards" => match iter.next().and_then(|s| s.parse::<u32>().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => return usage(),
            },
            "--shard-scale-out" => match iter.next() {
                Some(path) => shard_scale_out = Some(path.clone()),
                None => return usage(),
            },
            "--out" => match iter.next() {
                Some(path) => out = Some(path.clone()),
                None => return usage(),
            },
            "--cells-out" => match iter.next() {
                Some(path) => cells_out = Some(path.clone()),
                None => return usage(),
            },
            "--policies" => match iter.next().map(|list| {
                list.split(',')
                    .map(|p| PolicyKind::parse(p.trim()).ok_or(p))
                    .collect::<Result<Vec<_>, _>>()
            }) {
                Some(Ok(parsed)) if !parsed.is_empty() => policies = Some(parsed),
                Some(Err(bad)) => {
                    eprintln!("unknown policy {bad:?} (known: ladder, pid, cost)");
                    return usage();
                }
                _ => return usage(),
            },
            "--policies-out" => match iter.next() {
                Some(path) => policies_out = Some(path.clone()),
                None => return usage(),
            },
            "--faults" => faults = true,
            "--resilience-out" => match iter.next() {
                Some(path) => resilience_out = Some(path.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

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

    if let Some(path) = shard_scale_out {
        let top = if shards > 1 { shards } else { 4 };
        let spec = ShardScaleSpec {
            scenarios,
            seeds,
            scale,
            shard_counts: vec![1, top],
            workers,
        };
        eprintln!(
            "shard grid: {} scenario(s) x {} seed(s) at 1 and {} shard(s), one cell at a time...",
            spec.scenarios.len(),
            spec.seeds.len(),
            top
        );
        let outcome = run_shard_scale(&spec);
        println!(
            "{:<22} {:>6} {:>7} {:>12} {:>12} {:>17}",
            "scenario", "seed", "shards", "events", "arrivals", "arrival-digest"
        );
        for c in &outcome.cells {
            println!(
                "{:<22} {:>6} {:>7} {:>12} {:>12} {:>17x}",
                c.cell.scenario,
                c.cell.seed,
                c.shards,
                c.cell.events_dispatched,
                c.cell.arrivals,
                c.cell.arrival_digest
            );
        }
        println!(
            "total: {} cells in {:.0} ms",
            outcome.cells.len(),
            outcome.total_wall_ms
        );
        if let Err(e) = std::fs::write(&path, outcome.shard_scale_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("shard grid written to {path}");
        if let Some(c) = outcome.divergent() {
            eprintln!(
                "error: {} seed {} at {} shard(s) differs from its first row",
                c.cell.scenario, c.cell.seed, c.shards
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if faults {
        let spec = PolicySweepSpec {
            policies: policies.unwrap_or_else(|| PolicyKind::all().to_vec()),
            scenarios,
            seeds,
            scale,
            workers,
        };
        eprintln!(
            "resilience grid: {} policy(ies) x {} chaos scenario(s) x {} seed(s) on {} worker(s)...",
            spec.policies.len(),
            spec.scenarios.len(),
            spec.seeds.len(),
            spec.workers
        );
        let outcome = run_resilience_sweep(&spec);
        println!(
            "{:<8} {:<26} {:>6} {:>6} {:>5} {:>5} {:>6} {:>10} {:>11}",
            "policy",
            "scenario",
            "seed",
            "done",
            "fail",
            "shed",
            "aband",
            "goodput/s",
            "recovery-s"
        );
        for cell in &outcome.cells {
            println!(
                "{:<8} {:<26} {:>6} {:>6} {:>5} {:>5} {:>6} {:>10.4} {:>11.0}",
                cell.policy,
                cell.scenario,
                cell.seed,
                cell.completed,
                cell.failed,
                cell.shed,
                cell.retries_abandoned,
                cell.goodput_under_fault,
                cell.time_to_recovery_s,
            );
        }
        println!(
            "total: {} cells in {:.0} ms on {} worker(s)",
            outcome.cells.len(),
            outcome.total_wall_ms,
            outcome.workers
        );
        if let Some(path) = resilience_out {
            if let Err(e) = std::fs::write(&path, outcome.resilience_json()) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("resilience scoreboard written to {path}");
        }
        return ExitCode::SUCCESS;
    }

    if let Some(policies) = policies {
        let spec = PolicySweepSpec {
            policies,
            scenarios,
            seeds,
            scale,
            workers,
        };
        eprintln!(
            "policy grid: {} policy(ies) x {} scenario(s) x {} seed(s) on {} worker(s)...",
            spec.policies.len(),
            spec.scenarios.len(),
            spec.seeds.len(),
            spec.workers
        );
        let outcome = run_policy_sweep(&spec);
        println!(
            "{:<8} {:<22} {:>6} {:>7} {:>7} {:>6} {:>12} {:>12}",
            "policy", "scenario", "seed", "subm", "done", "fail", "p99-wait-us", "tput/slice"
        );
        for cell in &outcome.cells {
            println!(
                "{:<8} {:<22} {:>6} {:>7} {:>7} {:>6} {:>12} {:>12.2}",
                cell.policy,
                cell.scenario,
                cell.seed,
                cell.submitted,
                cell.completed,
                cell.failed,
                cell.p99_wait_us,
                cell.throughput_per_slice,
            );
        }
        println!(
            "total: {} cells in {:.0} ms on {} worker(s)",
            outcome.cells.len(),
            outcome.total_wall_ms,
            outcome.workers
        );
        if let Some(path) = policies_out {
            if let Err(e) = std::fs::write(&path, outcome.policies_json()) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("policy scoreboard written to {path}");
        }
        return ExitCode::SUCCESS;
    }

    let spec = SweepSpec {
        scenarios,
        seeds,
        scale,
        workers,
        shards,
    };
    eprintln!(
        "sweeping {} scenario(s) x {} seed(s) on {} worker(s), {} shard(s) per cell...",
        spec.scenarios.len(),
        spec.seeds.len(),
        spec.workers,
        spec.shards
    );
    let outcome = run_sweep(&spec);

    println!(
        "{:<22} {:>6} {:>7} {:>7} {:>6} {:>12} {:>10} {:>12}",
        "scenario", "seed", "subm", "done", "fail", "events", "peak-q", "arrivals"
    );
    for cell in &outcome.cells {
        println!(
            "{:<22} {:>6} {:>7} {:>7} {:>6} {:>12} {:>10} {:>12}",
            cell.scenario,
            cell.seed,
            cell.submitted,
            cell.completed,
            cell.failed,
            cell.events_dispatched,
            cell.peak_queue_depth,
            cell.arrivals
        );
    }
    println!(
        "total: {} cells in {:.0} ms on {} worker(s)",
        outcome.cells.len(),
        outcome.total_wall_ms,
        outcome.workers
    );

    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, outcome.full_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("full results written to {path}");
    }
    if let Some(path) = cells_out {
        if let Err(e) = std::fs::write(&path, outcome.cells_json()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("deterministic cells written to {path}");
    }
    ExitCode::SUCCESS
}
