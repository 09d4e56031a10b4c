//! The parallel deterministic sweep driver.
//!
//! A sweep runs the cross product of (scenario × seed) at one scale, fanning
//! the cells across OS threads. Two properties make it a harness rather
//! than just a loop:
//!
//! * **Determinism** — a cell's result depends only on its (scenario, seed,
//!   scale) coordinates: every worker characterizes nothing (profiles are
//!   precomputed per scenario and shared), every run is seeded, and results
//!   land in a slot keyed by cell index, so the merged output is
//!   cell-for-cell identical whatever `--workers` or `--shards` is (CI
//!   diffs exactly that). No cell carries a wall-clock column: host-time
//!   measurements belong to the repository benchmark (`benchmark/`), which
//!   repeats and pairs its runs; here only the end-to-end sweep time is
//!   kept, for the console.
//! * **Machine-readable output** — [`SweepOutcome::full_json`] emits the
//!   `BENCH_sweep.json` schema documented in `docs/EXPERIMENTS.md`:
//!   per-cell admission counters, events dispatched and the peak
//!   event-queue depth, plus the recorded trace digest as a compact
//!   fingerprint of the run's entire admission history.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use throttledb_engine::{PolicyKind, WorkloadProfiles};
use throttledb_scenario::{Scale, Scenario, ScenarioRunner};
use throttledb_sim::{Histogram, Running};

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Built-in scenario names, in output order.
    pub scenarios: Vec<String>,
    /// Seeds, in output order.
    pub seeds: Vec<u64>,
    /// Scale every cell runs at.
    pub scale: Scale,
    /// Worker threads (clamped to at least 1). Affects wall-clock only.
    pub workers: usize,
    /// Generator shards per cell (clamped to at least 1). Like `workers`,
    /// affects wall-clock only: the threaded arrival feed replays the
    /// inline feed's schedule byte for byte, so every cell field is
    /// invariant under this knob — CI diffs `--shards 4` against
    /// `--shards 1` to prove it.
    pub shards: u32,
}

/// The deterministic result of one (scenario, seed) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Scenario name.
    pub scenario: String,
    /// RNG seed.
    pub seed: u64,
    /// Queries submitted across all phases.
    pub submitted: u64,
    /// Queries completed.
    pub completed: u64,
    /// Queries failed.
    pub failed: u64,
    /// Best-effort plans produced.
    pub best_effort: u64,
    /// Phases in the scenario.
    pub phases: usize,
    /// Simulation events dispatched by the run's event loop.
    pub events_dispatched: u64,
    /// Peak pending events in the event queue.
    pub peak_queue_depth: usize,
    /// Open-loop arrivals offered across all sources (0 for purely
    /// closed-loop scenarios).
    pub arrivals: u64,
    /// Open-loop arrivals that entered the admission pipeline.
    pub arrivals_admitted: u64,
    /// Open-loop arrivals shed at a source's concurrency cap or by an open
    /// breaker.
    pub arrivals_shed: u64,
    /// Streaming FNV-1a digest over every (time, source, decision) arrival
    /// triple — the open-loop counterpart of `trace_digest`, cheap enough
    /// to fold at tens of millions of arrivals per cell.
    pub arrival_digest: u64,
    /// FNV-1a digest of the run's recorded admission trace — a fingerprint
    /// of the entire event ordering, so any nondeterminism shows up here
    /// first.
    pub trace_digest: u64,
}

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The sweep's scale.
    pub scale: Scale,
    /// Worker threads used.
    pub workers: usize,
    /// Deterministic cell results, ordered by (scenario index, seed index).
    pub cells: Vec<SweepCell>,
    /// End-to-end sweep wall time in milliseconds, characterization
    /// included (console only; never written to a BENCH file).
    pub total_wall_ms: f64,
}

/// Run the sweep. Panics on an unknown scenario name (the CLI validates
/// names up front).
pub fn run_sweep(spec: &SweepSpec) -> SweepOutcome {
    let started = Instant::now();
    let workers = spec.workers.max(1);

    // Characterize each scenario's workload once, up front, exactly as the
    // scenario runner would: workers then share the profile tables, so no
    // cell's result can depend on which thread ran it. Characterization
    // (real optimizer compilations) dominates a quick sweep's wall-clock,
    // so the independent per-scenario characterizations fan out across the
    // worker budget too — results are deterministic per config, so this
    // changes nothing but wall time.
    let profiles = characterize_scenarios(&spec.scenarios, spec.scale, workers);

    // Cell coordinates in deterministic output order.
    let coords: Vec<(usize, u64)> = spec
        .scenarios
        .iter()
        .enumerate()
        .flat_map(|(si, _)| spec.seeds.iter().map(move |&seed| (si, seed)))
        .collect();

    let cells = fan_out(coords.len(), workers, |idx| {
        let (scenario_idx, seed) = coords[idx];
        run_cell(
            &spec.scenarios[scenario_idx],
            seed,
            spec.scale,
            profiles[scenario_idx].clone(),
            spec.shards,
        )
    });
    SweepOutcome {
        scale: spec.scale,
        workers,
        cells,
        total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

fn scale_str(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Paper => "paper",
    }
}

/// Minimal JSON string escaping (scenario names are identifiers, but stay
/// correct for arbitrary input).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize one cell object; all three JSON documents go through here so
/// the CI-diffed `--cells-out` file can never drift from the `cells`
/// section of `BENCH_sweep.json` or of `BENCH_shard_scale.json` (which
/// prepends the shard count the cell ran at).
fn write_cell(out: &mut String, c: &SweepCell, shards: Option<u32>, last: bool) {
    out.push_str("    {");
    if let Some(n) = shards {
        let _ = write!(out, "\"shards\": {n}, ");
    }
    let _ = write!(
        out,
        "\"scenario\": \"{}\", \"seed\": {}, \"submitted\": {}, \
         \"completed\": {}, \"failed\": {}, \"best_effort\": {}, \"phases\": {}, \
         \"events_dispatched\": {}, \"peak_queue_depth\": {}, \
         \"arrivals\": {}, \"arrivals_admitted\": {}, \"arrivals_shed\": {}, \
         \"arrival_digest\": \"{:016x}\", \"trace_digest\": \"{:016x}\"",
        json_escape(&c.scenario),
        c.seed,
        c.submitted,
        c.completed,
        c.failed,
        c.best_effort,
        c.phases,
        c.events_dispatched,
        c.peak_queue_depth,
        c.arrivals,
        c.arrivals_admitted,
        c.arrivals_shed,
        c.arrival_digest,
        c.trace_digest,
    );
    let _ = writeln!(out, "}}{}", if last { "" } else { "," });
}

impl SweepOutcome {
    /// The deterministic portion only: a `cells` array whose bytes are
    /// identical for any worker count. CI diffs this between `--workers 4`
    /// and `--workers 1`.
    pub fn cells_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"scale\": \"");
        out.push_str(scale_str(self.scale));
        out.push_str("\",\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            write_cell(&mut out, c, None, i + 1 == self.cells.len());
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The full `BENCH_sweep.json` document: the deterministic cells under
    /// the sweep's totals. Exact counts only — no host-time field.
    pub fn full_json(&self) -> String {
        let total_events: u64 = self.cells.iter().map(|c| c.events_dispatched).sum();
        let total_arrivals: u64 = self.cells.iter().map(|c| c.arrivals).sum();
        let mut out = String::new();
        out.push_str("{\n  \"benchmark\": \"sweep\",\n");
        let _ = write!(
            out,
            "  \"scale\": \"{}\",\n  \"total_events_dispatched\": {},\n  \
             \"total_arrivals\": {},\n",
            scale_str(self.scale),
            total_events,
            total_arrivals,
        );
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            write_cell(&mut out, c, None, i + 1 == self.cells.len());
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Run one (scenario, seed) cell at `shards` generator shards. The result
/// depends only on (scenario, seed, scale) — the shard count, like the
/// worker count, moves wall-clock time and nothing else.
fn run_cell(
    name: &str,
    seed: u64,
    scale: Scale,
    profiles: Arc<WorkloadProfiles>,
    shards: u32,
) -> SweepCell {
    let scenario = Scenario::builtin(name, scale)
        .expect("validated by the caller")
        .with_seed(seed);
    let outcome = ScenarioRunner::new(scenario)
        .record_trace(true)
        .with_profiles(profiles)
        .with_shards(shards.max(1))
        .run();
    let metrics = &outcome.metrics;
    SweepCell {
        scenario: name.to_string(),
        seed,
        submitted: outcome.phases.iter().map(|p| p.submitted).sum(),
        completed: metrics.completed.total(),
        failed: metrics.failed.total(),
        best_effort: metrics.best_effort_plans,
        phases: outcome.phases.len(),
        events_dispatched: metrics.events_dispatched,
        peak_queue_depth: metrics.peak_queue_depth,
        arrivals: metrics.arrivals,
        arrivals_admitted: metrics.arrivals_admitted,
        arrivals_shed: metrics.arrivals_shed,
        arrival_digest: metrics.arrival_digest,
        trace_digest: outcome.trace.as_ref().expect("recording enabled").digest(),
    }
}

// --- the shard-invariance grid -------------------------------------------

/// What the shard grid runs: every (scenario, seed) at every shard count.
#[derive(Debug, Clone)]
pub struct ShardScaleSpec {
    /// Built-in scenario names, in output order.
    pub scenarios: Vec<String>,
    /// Seeds, in output order.
    pub seeds: Vec<u64>,
    /// Scale every cell runs at.
    pub scale: Scale,
    /// Shard counts to run, in output order.
    pub shard_counts: Vec<u32>,
    /// Worker threads for the up-front scenario characterization; the
    /// cells themselves run one at a time (their generator shards are the
    /// parallelism).
    pub workers: usize,
}

/// One (scenario, seed, shard count) cell.
#[derive(Debug, Clone)]
pub struct ShardScaleCell {
    /// Generator shards the cell ran with.
    pub shards: u32,
    /// The result — identical across `shards` values, which
    /// [`ShardScaleOutcome::divergent`] checks and the gate re-checks
    /// against the baseline.
    pub cell: SweepCell,
}

/// Everything the shard grid produced.
#[derive(Debug, Clone)]
pub struct ShardScaleOutcome {
    /// The grid's scale.
    pub scale: Scale,
    /// Cells, ordered by (scenario, shard count, seed).
    pub cells: Vec<ShardScaleCell>,
    /// End-to-end wall time in milliseconds (console only).
    pub total_wall_ms: f64,
}

/// Run the shard grid: the same cells over the inline arrival feed
/// (1 shard) and the threaded one. How fast each feed runs is the
/// repository benchmark's question (`sim_firehose` primary vs alt); this
/// grid records that they produce the same rows.
pub fn run_shard_scale(spec: &ShardScaleSpec) -> ShardScaleOutcome {
    let started = Instant::now();
    let profiles = characterize_scenarios(&spec.scenarios, spec.scale, spec.workers.max(1));
    let mut cells = Vec::new();
    for (scenario_idx, name) in spec.scenarios.iter().enumerate() {
        for &shards in &spec.shard_counts {
            for &seed in &spec.seeds {
                let cell = run_cell(
                    name,
                    seed,
                    spec.scale,
                    profiles[scenario_idx].clone(),
                    shards,
                );
                cells.push(ShardScaleCell { shards, cell });
            }
        }
    }
    ShardScaleOutcome {
        scale: spec.scale,
        cells,
        total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

impl ShardScaleOutcome {
    /// The first cell whose row differs from the same (scenario, seed) at
    /// the grid's first shard count, if any. `None` is the only acceptable
    /// answer; the `sweep` binary fails the run otherwise.
    pub fn divergent(&self) -> Option<&ShardScaleCell> {
        self.cells.iter().find(|c| {
            self.cells
                .iter()
                .find(|r| r.cell.scenario == c.cell.scenario && r.cell.seed == c.cell.seed)
                .is_some_and(|reference| reference.cell != c.cell)
        })
    }

    /// The `BENCH_shard_scale.json` document: every cell, keyed by the
    /// shard count it ran at. Exact counts only.
    pub fn shard_scale_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"benchmark\": \"shard_scale\",\n  \"scale\": \"");
        out.push_str(scale_str(self.scale));
        out.push_str("\",\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            write_cell(&mut out, &c.cell, Some(c.shards), i + 1 == self.cells.len());
        }
        out.push_str("  ]\n}\n");
        out
    }
}

// --- the admission-policy laboratory ------------------------------------

/// What the policy laboratory sweeps: the full (policy × scenario × seed)
/// grid at one scale.
#[derive(Debug, Clone)]
pub struct PolicySweepSpec {
    /// Admission policies, in output order.
    pub policies: Vec<PolicyKind>,
    /// Built-in scenario names, in output order.
    pub scenarios: Vec<String>,
    /// Seeds, in output order.
    pub seeds: Vec<u64>,
    /// Scale every cell runs at.
    pub scale: Scale,
    /// Worker threads (clamped to at least 1). Affects wall-clock only.
    pub workers: usize,
}

/// The deterministic result of one (policy, scenario, seed) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCell {
    /// Admission policy name.
    pub policy: &'static str,
    /// Scenario name.
    pub scenario: String,
    /// RNG seed.
    pub seed: u64,
    /// Queries submitted across all phases.
    pub submitted: u64,
    /// Queries completed.
    pub completed: u64,
    /// Queries failed.
    pub failed: u64,
    /// Best-effort plans produced.
    pub best_effort: u64,
    /// Grant requests admitted with a reduced allocation, over all classes.
    pub degraded_grants: u64,
    /// Grant requests admitted at all (full + degraded), over all classes.
    pub admitted_grants: u64,
    /// p99 admission wait in microseconds, merged over every policy level.
    pub p99_wait_us: u64,
    /// The paper's sustained-throughput metric (completed per slice after
    /// warm-up).
    pub throughput_per_slice: f64,
}

impl PolicyCell {
    /// failed / submitted (0 when nothing was submitted).
    pub fn failure_rate(&self) -> f64 {
        self.failed as f64 / (self.submitted.max(1)) as f64
    }

    /// degraded / admitted grants (0 when nothing was granted).
    pub fn degrade_rate(&self) -> f64 {
        self.degraded_grants as f64 / (self.admitted_grants.max(1)) as f64
    }
}

/// A mean with its 95% confidence half-width, aggregated over seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Sample mean across seeds.
    pub mean: f64,
    /// 95% confidence half-width (Student-t for small samples).
    pub ci95: f64,
}

fn mean_ci(r: &Running) -> MeanCi {
    MeanCi {
        mean: r.mean(),
        ci95: r.ci95_half_width(),
    }
}

/// Per-(policy, scenario) metrics aggregated over the seed axis.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyAggregate {
    /// Admission policy name.
    pub policy: &'static str,
    /// Scenario name.
    pub scenario: String,
    /// Number of seeds aggregated.
    pub seeds: usize,
    /// Sustained throughput per slice.
    pub throughput_per_slice: MeanCi,
    /// p99 admission wait (µs).
    pub p99_wait_us: MeanCi,
    /// failed / submitted.
    pub failure_rate: MeanCi,
    /// degraded / admitted grants.
    pub degrade_rate: MeanCi,
}

/// Everything the policy laboratory produced.
#[derive(Debug, Clone)]
pub struct PolicySweepOutcome {
    /// The sweep's scale.
    pub scale: Scale,
    /// Worker threads used (wall-clock only; absent from the JSON).
    pub workers: usize,
    /// Deterministic cell results, ordered by (policy, scenario, seed)
    /// index.
    pub cells: Vec<PolicyCell>,
    /// Per-(policy, scenario) aggregates in the same policy-major order.
    pub aggregates: Vec<PolicyAggregate>,
    /// End-to-end wall time in milliseconds (absent from the JSON).
    pub total_wall_ms: f64,
}

/// Run the (policy × scenario × seed) grid. Panics on an unknown scenario
/// name (the CLI validates names up front).
///
/// Like [`run_sweep`], a cell's result depends only on its coordinates:
/// profiles are characterized once per scenario (the workload does not
/// depend on the policy) and shared, every run is seeded, and results land
/// in index-keyed slots — so [`PolicySweepOutcome::policies_json`] is
/// byte-identical whatever `workers` is.
pub fn run_policy_sweep(spec: &PolicySweepSpec) -> PolicySweepOutcome {
    let started = Instant::now();
    let workers = spec.workers.max(1);
    let profiles = characterize_scenarios(&spec.scenarios, spec.scale, workers);

    // Cell coordinates in deterministic output order (policy-major).
    let coords: Vec<(usize, usize, u64)> = spec
        .policies
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| {
            spec.scenarios
                .iter()
                .enumerate()
                .flat_map(move |(si, _)| spec.seeds.iter().map(move |&seed| (pi, si, seed)))
        })
        .collect();

    let cells = fan_out(coords.len(), workers, |idx| {
        let (policy_idx, scenario_idx, seed) = coords[idx];
        let policy = spec.policies[policy_idx];
        let name = &spec.scenarios[scenario_idx];
        let scenario = Scenario::builtin(name, spec.scale)
            .expect("validated above")
            .with_seed(seed)
            .with_policy(policy);
        let outcome = ScenarioRunner::new(scenario)
            .with_profiles(profiles[scenario_idx].clone())
            .run();
        let metrics = &outcome.metrics;
        let mut wait = Histogram::new("policy-wait-us");
        for h in &metrics.throttle.wait_histograms {
            wait.merge(h);
        }
        let (degraded, admitted) = metrics.classes.iter().fold((0, 0), |(d, a), c| {
            (
                d + c.grants.degraded,
                a + c.grants.admitted + c.grants.degraded,
            )
        });
        PolicyCell {
            policy: policy.name(),
            scenario: name.clone(),
            seed,
            submitted: outcome.phases.iter().map(|p| p.submitted).sum(),
            completed: metrics.completed.total(),
            failed: metrics.failed.total(),
            best_effort: metrics.best_effort_plans,
            degraded_grants: degraded,
            admitted_grants: admitted,
            p99_wait_us: wait.percentile(99.0),
            throughput_per_slice: metrics.sustained_throughput_per_slice(),
        }
    });

    // Aggregate each (policy, scenario) over its seed axis. Cells are
    // slot-ordered, so the fold order (and thus the aggregate bytes) is the
    // same for any worker count.
    let mut aggregates = Vec::with_capacity(spec.policies.len() * spec.scenarios.len());
    for policy in &spec.policies {
        for name in &spec.scenarios {
            let mut throughput = Running::new();
            let mut p99 = Running::new();
            let mut failure = Running::new();
            let mut degrade = Running::new();
            for cell in cells
                .iter()
                .filter(|c| c.policy == policy.name() && &c.scenario == name)
            {
                throughput.push(cell.throughput_per_slice);
                p99.push(cell.p99_wait_us as f64);
                failure.push(cell.failure_rate());
                degrade.push(cell.degrade_rate());
            }
            aggregates.push(PolicyAggregate {
                policy: policy.name(),
                scenario: name.clone(),
                seeds: throughput.count() as usize,
                throughput_per_slice: mean_ci(&throughput),
                p99_wait_us: mean_ci(&p99),
                failure_rate: mean_ci(&failure),
                degrade_rate: mean_ci(&degrade),
            });
        }
    }

    PolicySweepOutcome {
        scale: spec.scale,
        workers,
        cells,
        aggregates,
        total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

// --- the resilience laboratory -------------------------------------------

/// The deterministic result of one (policy, chaos-scenario, seed) cell of
/// the resilience grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceCell {
    /// Admission policy name.
    pub policy: &'static str,
    /// Chaos scenario name.
    pub scenario: String,
    /// RNG seed.
    pub seed: u64,
    /// Queries completed.
    pub completed: u64,
    /// Queries failed.
    pub failed: u64,
    /// Arrivals shed by open circuit breakers.
    pub shed: u64,
    /// Breaker state transitions over the run.
    pub breaker_transitions: u64,
    /// Small arrivals admitted in brownout while a breaker was open.
    pub brownout_admits: u64,
    /// Retry chains abandoned (budget exhausted or deadline passed).
    pub retries_abandoned: u64,
    /// Total seconds with at least one fault window open.
    pub fault_seconds: f64,
    /// Completions per second while a fault was active.
    pub goodput_under_fault: f64,
    /// Seconds from the last fault clearing until throughput regained 90%
    /// of its pre-fault baseline.
    pub time_to_recovery_s: f64,
    /// The paper's sustained-throughput metric, for cross-reference with
    /// the policy scoreboard.
    pub throughput_per_slice: f64,
}

/// Per-(policy, scenario) resilience metrics aggregated over the seed axis.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceAggregate {
    /// Admission policy name.
    pub policy: &'static str,
    /// Chaos scenario name.
    pub scenario: String,
    /// Number of seeds aggregated.
    pub seeds: usize,
    /// Completions per second under fault.
    pub goodput_under_fault: MeanCi,
    /// Seconds to regain 90% of pre-fault throughput.
    pub time_to_recovery_s: MeanCi,
    /// Breaker sheds per run.
    pub shed: MeanCi,
    /// Abandoned retry chains per run.
    pub retries_abandoned: MeanCi,
    /// Sustained throughput per slice.
    pub throughput_per_slice: MeanCi,
}

/// Everything the resilience laboratory produced.
#[derive(Debug, Clone)]
pub struct ResilienceSweepOutcome {
    /// The sweep's scale.
    pub scale: Scale,
    /// Worker threads used (wall-clock only; absent from the JSON).
    pub workers: usize,
    /// Deterministic cell results, ordered by (policy, scenario, seed)
    /// index.
    pub cells: Vec<ResilienceCell>,
    /// Per-(policy, scenario) aggregates in the same policy-major order.
    pub aggregates: Vec<ResilienceAggregate>,
    /// End-to-end wall time in milliseconds (absent from the JSON).
    pub total_wall_ms: f64,
}

/// Run the (policy × chaos-scenario × seed) resilience grid. The spec is
/// shared with the policy laboratory; scenarios are expected (but not
/// required) to carry fault plans — a fault-free scenario simply reports
/// zero fault seconds and zero recovery time.
///
/// Determinism mirrors [`run_policy_sweep`] exactly: shared per-scenario
/// profiles, seeded runs, index-keyed result slots — so
/// [`ResilienceSweepOutcome::resilience_json`] is byte-identical whatever
/// `workers` is.
pub fn run_resilience_sweep(spec: &PolicySweepSpec) -> ResilienceSweepOutcome {
    let started = Instant::now();
    let workers = spec.workers.max(1);
    let profiles = characterize_scenarios(&spec.scenarios, spec.scale, workers);

    let coords: Vec<(usize, usize, u64)> = spec
        .policies
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| {
            spec.scenarios
                .iter()
                .enumerate()
                .flat_map(move |(si, _)| spec.seeds.iter().map(move |&seed| (pi, si, seed)))
        })
        .collect();

    let cells = fan_out(coords.len(), workers, |idx| {
        let (policy_idx, scenario_idx, seed) = coords[idx];
        let policy = spec.policies[policy_idx];
        let name = &spec.scenarios[scenario_idx];
        let scenario = Scenario::builtin(name, spec.scale)
            .expect("validated above")
            .with_seed(seed)
            .with_policy(policy);
        let outcome = ScenarioRunner::new(scenario)
            .with_profiles(profiles[scenario_idx].clone())
            .run();
        let m = &outcome.metrics;
        ResilienceCell {
            policy: policy.name(),
            scenario: name.clone(),
            seed,
            completed: m.completed.total(),
            failed: m.failed.total(),
            shed: m.shed,
            breaker_transitions: m.breaker_transitions,
            brownout_admits: m.brownout_admits,
            retries_abandoned: m.retries_abandoned,
            fault_seconds: m.fault_seconds(),
            goodput_under_fault: m.goodput_under_fault(),
            time_to_recovery_s: m.time_to_recovery(),
            throughput_per_slice: m.sustained_throughput_per_slice(),
        }
    });

    let mut aggregates = Vec::with_capacity(spec.policies.len() * spec.scenarios.len());
    for policy in &spec.policies {
        for name in &spec.scenarios {
            let mut goodput = Running::new();
            let mut recovery = Running::new();
            let mut shed = Running::new();
            let mut abandoned = Running::new();
            let mut throughput = Running::new();
            for cell in cells
                .iter()
                .filter(|c| c.policy == policy.name() && &c.scenario == name)
            {
                goodput.push(cell.goodput_under_fault);
                recovery.push(cell.time_to_recovery_s);
                shed.push(cell.shed as f64);
                abandoned.push(cell.retries_abandoned as f64);
                throughput.push(cell.throughput_per_slice);
            }
            aggregates.push(ResilienceAggregate {
                policy: policy.name(),
                scenario: name.clone(),
                seeds: goodput.count() as usize,
                goodput_under_fault: mean_ci(&goodput),
                time_to_recovery_s: mean_ci(&recovery),
                shed: mean_ci(&shed),
                retries_abandoned: mean_ci(&abandoned),
                throughput_per_slice: mean_ci(&throughput),
            });
        }
    }

    ResilienceSweepOutcome {
        scale: spec.scale,
        workers,
        cells,
        aggregates,
        total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

impl ResilienceSweepOutcome {
    /// The `BENCH_resilience.json` scoreboard: the deterministic
    /// (policy × chaos-scenario × seed) grid plus per-(policy, scenario)
    /// mean ± 95% CI aggregates over seeds. No wall-clock data — CI diffs
    /// the whole document between worker counts, like `BENCH_policies.json`.
    pub fn resilience_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"benchmark\": \"resilience\",\n  \"scale\": \"");
        out.push_str(scale_str(self.scale));
        out.push_str("\",\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"policy\": \"{}\", \"scenario\": \"{}\", \"seed\": {}, \
                 \"completed\": {}, \"failed\": {}, \"shed\": {}, \
                 \"breaker_transitions\": {}, \"brownout_admits\": {}, \
                 \"retries_abandoned\": {}, \"fault_seconds\": {:.6}, \
                 \"goodput_under_fault\": {:.6}, \"time_to_recovery_s\": {:.6}, \
                 \"throughput_per_slice\": {:.6}}}",
                c.policy,
                json_escape(&c.scenario),
                c.seed,
                c.completed,
                c.failed,
                c.shed,
                c.breaker_transitions,
                c.brownout_admits,
                c.retries_abandoned,
                c.fault_seconds,
                c.goodput_under_fault,
                c.time_to_recovery_s,
                c.throughput_per_slice,
            );
            let _ = writeln!(out, "{}", if i + 1 == self.cells.len() { "" } else { "," });
        }
        out.push_str("  ],\n  \"aggregates\": [\n");
        for (i, a) in self.aggregates.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"policy\": \"{}\", \"scenario\": \"{}\", \"seeds\": {}, ",
                a.policy,
                json_escape(&a.scenario),
                a.seeds
            );
            write_mean_ci(&mut out, "goodput_under_fault", a.goodput_under_fault);
            out.push_str(", ");
            write_mean_ci(&mut out, "time_to_recovery_s", a.time_to_recovery_s);
            out.push_str(", ");
            write_mean_ci(&mut out, "shed", a.shed);
            out.push_str(", ");
            write_mean_ci(&mut out, "retries_abandoned", a.retries_abandoned);
            out.push_str(", ");
            write_mean_ci(&mut out, "throughput_per_slice", a.throughput_per_slice);
            let _ = writeln!(
                out,
                "}}{}",
                if i + 1 == self.aggregates.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Run `job` for every index in `0..n` on up to `workers` scoped threads
/// and return the results in index order. Threads claim indexes off one
/// shared cursor and each result lands in its own index-keyed slot, so the
/// output does not depend on `workers` or on which thread ran which index —
/// the property every driver's byte-identical-at-any-worker-count guarantee
/// rests on. A panicking job propagates when the scope joins.
fn fan_out<T: Send>(n: usize, workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let result = job(idx);
                slots.lock().expect("no poisoned workers")[idx] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|slot| slot.expect("every index ran"))
        .collect()
}

/// Characterize each scenario's workload once, fanned across `workers`
/// (shared by [`run_sweep`]-style drivers; deterministic per config).
fn characterize_scenarios(
    scenarios: &[String],
    scale: Scale,
    workers: usize,
) -> Vec<Arc<WorkloadProfiles>> {
    fan_out(scenarios.len(), workers, |idx| {
        let name = &scenarios[idx];
        let scenario =
            Scenario::builtin(name, scale).unwrap_or_else(|| panic!("unknown scenario {name:?}"));
        Arc::new(WorkloadProfiles::characterize_full(
            &scenario.runtime_config(),
        ))
    })
}

fn write_mean_ci(out: &mut String, name: &str, m: MeanCi) {
    let _ = write!(
        out,
        "\"{}\": {{\"mean\": {:.6}, \"ci95\": {:.6}}}",
        name, m.mean, m.ci95
    );
}

impl PolicySweepOutcome {
    /// The `BENCH_policies.json` scoreboard: the deterministic grid plus
    /// per-(policy, scenario) aggregates with 95% confidence intervals. No
    /// wall-clock data — CI diffs the whole document between worker counts.
    pub fn policies_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"benchmark\": \"policies\",\n  \"scale\": \"");
        out.push_str(scale_str(self.scale));
        out.push_str("\",\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"policy\": \"{}\", \"scenario\": \"{}\", \"seed\": {}, \
                 \"submitted\": {}, \"completed\": {}, \"failed\": {}, \
                 \"best_effort\": {}, \"degraded_grants\": {}, \
                 \"admitted_grants\": {}, \"p99_wait_us\": {}, \
                 \"throughput_per_slice\": {:.6}}}",
                c.policy,
                json_escape(&c.scenario),
                c.seed,
                c.submitted,
                c.completed,
                c.failed,
                c.best_effort,
                c.degraded_grants,
                c.admitted_grants,
                c.p99_wait_us,
                c.throughput_per_slice,
            );
            let _ = writeln!(out, "{}", if i + 1 == self.cells.len() { "" } else { "," });
        }
        out.push_str("  ],\n  \"aggregates\": [\n");
        for (i, a) in self.aggregates.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"policy\": \"{}\", \"scenario\": \"{}\", \"seeds\": {}, ",
                a.policy,
                json_escape(&a.scenario),
                a.seeds
            );
            write_mean_ci(&mut out, "throughput_per_slice", a.throughput_per_slice);
            out.push_str(", ");
            write_mean_ci(&mut out, "p99_wait_us", a.p99_wait_us);
            out.push_str(", ");
            write_mean_ci(&mut out, "failure_rate", a.failure_rate);
            out.push_str(", ");
            write_mean_ci(&mut out, "degrade_rate", a.degrade_rate);
            let _ = writeln!(
                out,
                "}}{}",
                if i + 1 == self.aggregates.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(workers: usize) -> SweepSpec {
        SweepSpec {
            scenarios: vec!["compile_storm".to_string()],
            seeds: vec![2007, 2008],
            scale: Scale::Quick,
            workers,
            shards: 1,
        }
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree_cell_for_cell() {
        let sequential = run_sweep(&tiny_spec(1));
        let parallel = run_sweep(&tiny_spec(4));
        assert_eq!(sequential.cells, parallel.cells);
        assert_eq!(sequential.cells_json(), parallel.cells_json());
        // The full document adds totals, not host time: it is
        // worker-invariant too.
        assert_eq!(sequential.full_json(), parallel.full_json());
        assert_eq!(sequential.cells.len(), 2);
        for cell in &sequential.cells {
            assert!(
                cell.completed > 0,
                "cell {}/{} idle",
                cell.scenario,
                cell.seed
            );
            assert!(cell.events_dispatched > 0);
            assert!(cell.peak_queue_depth > 0);
        }
        // Different seeds really are different runs.
        assert_ne!(
            sequential.cells[0].trace_digest,
            sequential.cells[1].trace_digest
        );
        // Closed-loop scenarios have no open-loop arrivals; the fields are
        // present (for the gate) but zero, and the digest is the FNV
        // offset basis.
        for cell in &sequential.cells {
            assert_eq!(cell.arrivals, 0);
            assert_eq!(cell.arrivals_admitted, 0);
            assert_eq!(cell.arrivals_shed, 0);
        }
    }

    #[test]
    fn open_loop_cells_account_arrivals_and_stay_worker_invariant() {
        let spec = |workers| SweepSpec {
            scenarios: vec!["open_loop_poisson".to_string()],
            seeds: vec![2007, 2008],
            scale: Scale::Quick,
            workers,
            shards: 1,
        };
        let sequential = run_sweep(&spec(1));
        let parallel = run_sweep(&spec(4));
        assert_eq!(sequential.cells, parallel.cells);
        assert_eq!(sequential.cells_json(), parallel.cells_json());
        for cell in &sequential.cells {
            assert!(cell.arrivals > 0, "source offered nothing");
            assert_eq!(cell.arrivals, cell.arrivals_admitted + cell.arrivals_shed);
            assert!(cell.submitted > 0, "no arrival reached the pipeline");
        }
        // The arrival digest separates seeds just like the trace digest.
        assert_ne!(
            sequential.cells[0].arrival_digest,
            sequential.cells[1].arrival_digest
        );
    }

    #[test]
    fn sharded_sweep_cells_match_single_shard_cells_byte_for_byte() {
        let spec = |shards| SweepSpec {
            scenarios: vec!["open_loop_poisson".to_string()],
            seeds: vec![2007],
            scale: Scale::Quick,
            workers: 1,
            shards,
        };
        let single = run_sweep(&spec(1));
        let sharded = run_sweep(&spec(4));
        assert_eq!(single.cells, sharded.cells);
        assert_eq!(single.cells_json(), sharded.cells_json());
        assert!(single.cells[0].arrivals > 0, "open loop must offer load");
    }

    #[test]
    fn shard_grid_reports_invariant_cells_keyed_by_shard_count() {
        let spec = ShardScaleSpec {
            scenarios: vec!["open_loop_poisson".to_string()],
            seeds: vec![2007],
            scale: Scale::Quick,
            shard_counts: vec![1, 2],
            workers: 4,
        };
        let mut outcome = run_shard_scale(&spec);
        assert_eq!(outcome.cells.len(), 2);
        assert_eq!(outcome.cells[0].shards, 1);
        assert_eq!(outcome.cells[1].shards, 2);
        // The result is shard-count-invariant.
        assert_eq!(outcome.cells[0].cell, outcome.cells[1].cell);
        assert!(outcome.divergent().is_none());
        // The JSON parses, carries no host-time column, and the gate keys
        // the two rows apart by shard count.
        let json = outcome.shard_scale_json();
        assert!(!json.contains("wall_ms") && !json.contains("per_sec"));
        let doc = crate::gate::parse(&json).expect("own JSON parses");
        let entries = crate::gate::extract(&doc);
        for shards in [1, 2] {
            let key = format!("cell scenario=open_loop_poisson seed=2007 shards={shards}");
            assert!(entries
                .iter()
                .any(|e| e.key == key && e.metric == "events_dispatched"));
        }
        // A row that moves with the shard count is reported.
        outcome.cells[1].cell.arrival_digest ^= 1;
        assert_eq!(outcome.divergent().map(|c| c.shards), Some(2));
    }

    #[test]
    fn sweep_documents_carry_no_host_time() {
        let outcome = run_sweep(&tiny_spec(1));
        let total_events: u64 = outcome.cells.iter().map(|c| c.events_dispatched).sum();
        let json = outcome.full_json();
        assert!(!json.contains("wall_ms") && !json.contains("per_sec"));
        let doc = crate::gate::parse(&json).expect("own JSON parses");
        let reported = doc.get("total_events_dispatched").and_then(|v| match v {
            crate::gate::Value::Num(n) => Some(*n),
            _ => None,
        });
        assert_eq!(reported, Some(total_events as f64));
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    fn tiny_policy_spec(workers: usize) -> PolicySweepSpec {
        PolicySweepSpec {
            policies: PolicyKind::all().to_vec(),
            scenarios: vec!["compile_storm".to_string()],
            seeds: vec![2007, 2008],
            scale: Scale::Quick,
            workers,
        }
    }

    fn tiny_resilience_spec(workers: usize) -> PolicySweepSpec {
        PolicySweepSpec {
            policies: vec![PolicyKind::Ladder, PolicyKind::Pid],
            scenarios: vec!["retry_storm".to_string()],
            seeds: vec![2007, 2008],
            scale: Scale::Quick,
            workers,
        }
    }

    #[test]
    fn resilience_grid_is_worker_count_invariant_and_sees_the_faults() {
        let sequential = run_resilience_sweep(&tiny_resilience_spec(1));
        let parallel = run_resilience_sweep(&tiny_resilience_spec(4));
        assert_eq!(sequential.cells, parallel.cells);
        assert_eq!(sequential.resilience_json(), parallel.resilience_json());
        // 2 policies x 1 scenario x 2 seeds.
        assert_eq!(sequential.cells.len(), 4);
        assert_eq!(sequential.aggregates.len(), 2);
        for cell in &sequential.cells {
            // The retry-storm fault window is a quarter of the run.
            assert!(
                cell.fault_seconds > 0.0,
                "cell {}/{}/{} saw no fault window",
                cell.policy,
                cell.scenario,
                cell.seed
            );
            assert!(cell.time_to_recovery_s >= 0.0);
            assert!(cell.goodput_under_fault >= 0.0);
        }
        for agg in &sequential.aggregates {
            assert_eq!(agg.seeds, 2, "{}/{} lost a seed", agg.policy, agg.scenario);
            assert!(agg.time_to_recovery_s.ci95 >= 0.0);
        }
    }

    #[test]
    fn policy_grid_is_worker_count_invariant_byte_for_byte() {
        let sequential = run_policy_sweep(&tiny_policy_spec(1));
        let parallel = run_policy_sweep(&tiny_policy_spec(4));
        assert_eq!(sequential.cells, parallel.cells);
        assert_eq!(sequential.policies_json(), parallel.policies_json());
        // 3 policies x 1 scenario x 2 seeds.
        assert_eq!(sequential.cells.len(), 6);
        assert_eq!(sequential.aggregates.len(), 3);
        for cell in &sequential.cells {
            assert!(
                cell.completed > 0,
                "cell {}/{}/{} idle",
                cell.policy,
                cell.scenario,
                cell.seed
            );
            assert!(cell.failure_rate() <= 1.0);
            assert!(cell.degrade_rate() <= 1.0);
        }
        for agg in &sequential.aggregates {
            assert_eq!(agg.seeds, 2, "{}/{} lost a seed", agg.policy, agg.scenario);
            assert!(agg.throughput_per_slice.mean > 0.0);
            assert!(agg.throughput_per_slice.ci95 >= 0.0);
        }
    }
}
