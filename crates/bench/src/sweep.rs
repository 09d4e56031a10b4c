//! The grid driver behind every document `sweep` writes and every paper
//! figure the bench binaries print ([`Kind::Paper`], [`crate::experiment`]).
//!
//! [`run_grid`] runs the ([`Admission`] × scenario × client count × seed)
//! product at one scale, fanning the cells across OS threads; any axis
//! may be a single value, and a client count of `None` keeps the
//! scenario's own schedule. A [`Kind`] says which document the
//! grid feeds: the columns each cell projects out of its run, whether runs
//! record a trace, and which columns are averaged over seeds into
//! `aggregates`.
//!
//! * **Determinism** — a cell's result depends only on its coordinates:
//!   profiles are characterized once per scenario and shared, every run is
//!   seeded, and results land in a slot keyed by cell index, so every
//!   document is byte-identical whatever `workers` is (CI diffs it). No
//!   cell carries a wall-clock column: host-time measurements belong to
//!   the repository benchmark (`benchmark/`), which repeats and pairs its
//!   runs; here only the end-to-end time is kept, for the console.
//! * **One format** — rows are [`Field`]s and every document goes through
//!   [`crate::gate::render`], the writer beside the gate's parser; the
//!   schemas are documented in `docs/EXPERIMENTS.md` §4–§6.

use crate::gate::{render, Field, Row};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use throttledb_engine::{PolicyKind, WorkloadProfiles};
use throttledb_scenario::{Scale, Scenario, ScenarioOutcome, ScenarioRunner};
use throttledb_sim::{Histogram, Running};

/// Which BENCH document a grid produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Admission and event-loop counts with the arrival and trace digests:
    /// `BENCH_sweep.json` and the `--cells-out` file.
    Sweep,
    /// The admission-policy laboratory: `BENCH_policies.json`.
    Policies,
    /// The resilience laboratory: `BENCH_resilience.json`.
    Resilience,
    /// The paper's figures: completions, failures by cause, sustained and
    /// peak levels, and the post-warm-up completions per slice.
    Paper,
}

impl Kind {
    /// The document's `benchmark` member.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Policies => "policies",
            Kind::Resilience => "resilience",
            Kind::Paper => "paper",
        }
    }

    fn records_trace(self) -> bool {
        self == Kind::Sweep
    }

    /// The columns averaged over seeds into `aggregates` (none: no section).
    fn averaged(self) -> &'static [&'static str] {
        match self {
            Kind::Sweep | Kind::Paper => &[],
            Kind::Policies => &[
                "throughput_per_slice",
                "p99_wait_us",
                "failure_rate",
                "degrade_rate",
            ],
            Kind::Resilience => &[
                "goodput_under_fault",
                "time_to_recovery_s",
                "shed",
                "retries_abandoned",
                "throughput_per_slice",
            ],
        }
    }

    /// The measured columns the console table shows after the keys.
    fn console(self) -> &'static [&'static str] {
        match self {
            Kind::Sweep => &[
                "submitted",
                "completed",
                "failed",
                "events_dispatched",
                "peak_queue_depth",
                "arrivals",
            ],
            Kind::Policies => &[
                "submitted",
                "completed",
                "failed",
                "p99_wait_us",
                "throughput_per_slice",
            ],
            Kind::Resilience => &[
                "completed",
                "failed",
                "shed",
                "retries_abandoned",
                "goodput_under_fault",
                "time_to_recovery_s",
            ],
            Kind::Paper => &["completed_after_warmup", "failed", "throughput_per_slice"],
        }
    }

    /// The cell's measured columns, in document order.
    fn project(self, outcome: &ScenarioOutcome) -> Row {
        let m = &outcome.metrics;
        let count = |column, n| (column, Field::Count(n));
        let submitted = count(
            "submitted",
            outcome.phases.iter().map(|p| p.submitted).sum(),
        );
        let completed = count("completed", m.completed.total());
        let failed = count("failed", m.failed.total());
        let best_effort = count("best_effort", m.best_effort_plans);
        let throughput = (
            "throughput_per_slice",
            Field::Fixed(m.sustained_throughput_per_slice(), 6),
        );
        match self {
            Kind::Sweep => vec![
                submitted,
                completed,
                failed,
                best_effort,
                ("phases", Field::Count(outcome.phases.len() as u64)),
                ("events_dispatched", Field::Count(m.events_dispatched)),
                ("peak_queue_depth", Field::Count(m.peak_queue_depth as u64)),
                ("arrivals", Field::Count(m.arrivals)),
                ("arrivals_admitted", Field::Count(m.arrivals_admitted)),
                ("arrivals_shed", Field::Count(m.arrivals_shed)),
                ("arrival_digest", Field::Hex(m.arrival_digest)),
                (
                    "trace_digest",
                    Field::Hex(outcome.trace.as_ref().expect("recording enabled").digest()),
                ),
            ],
            Kind::Policies => {
                let mut wait = Histogram::new("policy-wait-us");
                for h in &m.throttle.wait_histograms {
                    wait.merge(h);
                }
                let (degraded, admitted) = m.classes.iter().fold((0, 0), |(d, a), c| {
                    (
                        d + c.grants.degraded,
                        a + c.grants.admitted + c.grants.degraded,
                    )
                });
                vec![
                    submitted,
                    completed,
                    failed,
                    best_effort,
                    ("degraded_grants", Field::Count(degraded)),
                    ("admitted_grants", Field::Count(admitted)),
                    ("p99_wait_us", Field::Count(wait.percentile(99.0))),
                    throughput,
                ]
            }
            Kind::Resilience => vec![
                completed,
                failed,
                ("shed", Field::Count(m.shed)),
                ("breaker_transitions", Field::Count(m.breaker_transitions)),
                ("brownout_admits", Field::Count(m.brownout_admits)),
                ("retries_abandoned", Field::Count(m.retries_abandoned)),
                ("fault_seconds", Field::Fixed(m.fault_seconds(), 6)),
                (
                    "goodput_under_fault",
                    Field::Fixed(m.goodput_under_fault(), 6),
                ),
                ("time_to_recovery_s", Field::Fixed(m.time_to_recovery(), 6)),
                throughput,
            ],
            Kind::Paper => vec![
                count("completed_after_warmup", m.completed_after_warmup),
                failed,
                count("oom", m.oom_failures),
                count("compile_timeouts", m.compile_timeouts),
                count("grant_timeouts", m.grant_timeouts),
                best_effort,
                throughput,
                count("peak_compile_bytes", m.peak_compile_bytes),
                count("gateway_acquisitions", m.throttle.acquisitions.iter().sum()),
                ("figure_rows", Field::Slices(m.figure_rows())),
            ],
        }
    }
}

/// How a cell admits compilations: a policy over the scenario's throttle,
/// the throttle off, or one of the ablation's variants of it (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The scenario's throttle under this policy.
    Policy(PolicyKind),
    /// The throttle disabled: the paper's non-throttled baseline.
    Off,
    /// The first monitor only, holding the whole dynamic share.
    OneMonitor,
    /// The first two monitors, splitting the dynamic share 60/40.
    TwoMonitors,
    /// All monitors, static thresholds.
    StaticThresholds,
    /// All monitors, no best-effort plans.
    NoBestEffort,
}

impl Admission {
    /// The name documents key a row by; a policy keeps its own.
    pub fn name(self) -> &'static str {
        match self {
            Admission::Policy(policy) => policy.name(),
            Admission::Off => "off",
            Admission::OneMonitor => "one_monitor",
            Admission::TwoMonitors => "two_monitors",
            Admission::StaticThresholds => "static_thresholds",
            Admission::NoBestEffort => "no_best_effort",
        }
    }

    /// `scenario` admitted this way (every other setting untouched).
    fn apply(self, mut scenario: Scenario) -> Scenario {
        let throttle = &mut scenario.base.throttle;
        match self {
            Admission::Policy(policy) => return scenario.with_policy(policy),
            Admission::Off => throttle.enabled = false,
            Admission::OneMonitor => {
                throttle.monitors.truncate(1);
                throttle.monitors[0].dynamic_fraction = 1.0;
            }
            Admission::TwoMonitors => {
                throttle.monitors.truncate(2);
                throttle.monitors[0].dynamic_fraction = 0.6;
                throttle.monitors[1].dynamic_fraction = 0.4;
            }
            Admission::StaticThresholds => throttle.dynamic_thresholds = false,
            Admission::NoBestEffort => throttle.best_effort_plans = false,
        }
        scenario
    }
}

/// What to run: every (admission, scenario, client count, seed)
/// coordinate, in that order, at one scale.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// The document the grid produces.
    pub kind: Kind,
    /// Admissions, in output order.
    pub admissions: Vec<Admission>,
    /// Built-in scenario names, in output order.
    pub scenarios: Vec<String>,
    /// Client counts, in output order: `None` runs the scenario's own
    /// schedule, `Some(n)` every phase at `n` clients.
    pub clients: Vec<Option<u32>>,
    /// Seeds, in output order.
    pub seeds: Vec<u64>,
    /// Scale every cell runs at.
    pub scale: Scale,
    /// Worker threads (clamped to at least 1). Affects wall-clock only.
    pub workers: usize,
}

/// The deterministic result of one coordinate of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Admission.
    pub admission: Admission,
    /// Scenario name.
    pub scenario: String,
    /// Closed-loop clients of the run's busiest phase.
    pub clients: u32,
    /// RNG seed.
    pub seed: u64,
    /// The kind's measured columns, in document order.
    pub columns: Row,
}

impl Cell {
    /// A measured column by name.
    pub(crate) fn get(&self, column: &str) -> Option<&Field> {
        lookup(&self.columns, column)
    }

    /// A measured column, or one of the rates the policy laboratory
    /// derives from them, as a number.
    pub(crate) fn sample(&self, column: &str) -> f64 {
        let num = |c| {
            self.get(c)
                .and_then(Field::as_f64)
                .expect("a numeric column")
        };
        match column {
            "failure_rate" => num("failed") / num("submitted").max(1.0),
            "degrade_rate" => num("degraded_grants") / num("admitted_grants").max(1.0),
            c => num(c),
        }
    }
}

fn lookup<'a>(row: &'a [(&'static str, Field)], column: &str) -> Option<&'a Field> {
    row.iter().find(|(name, _)| *name == column).map(|(_, f)| f)
}

/// Everything a grid produced.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// What ran (`workers` as clamped).
    pub spec: GridSpec,
    /// Cell results in coordinate order.
    pub cells: Vec<Cell>,
    /// End-to-end wall time in milliseconds, characterization included
    /// (console only; never written to a BENCH file).
    pub total_wall_ms: f64,
}

/// Run the grid. Panics on an unknown scenario name (the CLI validates
/// names up front).
///
/// # Examples
///
/// ```
/// use throttledb_bench::experiment::count;
/// use throttledb_bench::sweep::{run_grid, Admission, GridSpec, Kind};
/// use throttledb_engine::PolicyKind;
/// use throttledb_scenario::Scale;
///
/// // Figure 3's two legs at two client counts, admissions outermost.
/// let grid = run_grid(&GridSpec {
///     kind: Kind::Paper,
///     admissions: vec![Admission::Policy(PolicyKind::Ladder), Admission::Off],
///     scenarios: vec!["paper_figure3".to_string()],
///     clients: vec![Some(2), Some(4)],
///     seeds: vec![2007],
///     scale: Scale::Quick,
///     workers: 2,
/// });
/// assert_eq!(grid.cells.len(), 4);
/// assert_eq!((grid.cells[0].clients, grid.cells[2].admission), (2, Admission::Off));
/// assert!(count(&grid.cells[1], "completed_after_warmup") > 0);
/// ```
pub fn run_grid(spec: &GridSpec) -> GridOutcome {
    let started = Instant::now();
    let spec = GridSpec {
        workers: spec.workers.max(1),
        ..spec.clone()
    };
    // Characterization (real optimizer compilations) dominates a quick
    // grid's wall-clock, so the per-scenario characterizations fan out too.
    let profiles = characterize_scenarios(&spec.scenarios, spec.scale, spec.workers);
    let mut coords = Vec::new();
    for &admission in &spec.admissions {
        for scenario in 0..spec.scenarios.len() {
            for &clients in &spec.clients {
                for &seed in &spec.seeds {
                    coords.push((admission, scenario, clients, seed));
                }
            }
        }
    }
    let cells = fan_out(coords.len(), spec.workers, |idx| {
        let (admission, scenario_idx, clients, seed) = coords[idx];
        let name = &spec.scenarios[scenario_idx];
        let mut scenario = Scenario::builtin(name, spec.scale)
            .expect("characterized above")
            .with_seed(seed);
        if let Some(clients) = clients {
            scenario = scenario.with_clients(clients);
        }
        let scenario = admission.apply(scenario);
        let clients = scenario.max_clients();
        let outcome = ScenarioRunner::new(scenario)
            .record_trace(spec.kind.records_trace())
            .with_profiles(profiles[scenario_idx].clone())
            .run();
        Cell {
            admission,
            scenario: name.clone(),
            clients,
            seed,
            columns: spec.kind.project(&outcome),
        }
    });
    GridOutcome {
        spec,
        cells,
        total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

impl GridOutcome {
    /// The identity columns the kind keys a row by, ahead of `seed(s)`.
    fn keys(&self, cell: &Cell) -> Row {
        let mut row = Row::new();
        if self.spec.kind != Kind::Sweep {
            row.push(("policy", Field::Text(cell.admission.name().to_string())));
        }
        row.push(("scenario", Field::Text(cell.scenario.clone())));
        if self.spec.kind == Kind::Paper {
            row.push(("clients", Field::Count(u64::from(cell.clients))));
        }
        row
    }

    /// Every cell as a document row.
    fn rows(&self) -> Vec<Row> {
        self.cells
            .iter()
            .map(|c| {
                let mut row = self.keys(c);
                row.push(("seed", Field::Count(c.seed)));
                row.extend(c.columns.iter().cloned());
                row
            })
            .collect()
    }

    /// One row per (admission, scenario, client count): the
    /// kind's averaged columns as mean ± 95% CI over the seed axis. Seeds
    /// are the innermost axis, so each group is a run of consecutive cells
    /// and the fold order (hence every byte) is the same for any worker
    /// count.
    fn aggregates(&self) -> Vec<Row> {
        let averaged = self.spec.kind.averaged();
        if averaged.is_empty() {
            return Vec::new();
        }
        self.cells
            .chunks(self.spec.seeds.len().max(1))
            .map(|group| {
                let mut row = self.keys(&group[0]);
                row.push(("seeds", Field::Count(group.len() as u64)));
                for &column in averaged {
                    let mut r = Running::new();
                    for cell in group {
                        r.push(cell.sample(column));
                    }
                    let (mean, ci95) = (r.mean(), r.ci95_half_width());
                    row.push((column, Field::MeanCi { mean, ci95 }));
                }
                row
            })
            .collect()
    }

    fn scale(&self) -> Field {
        Field::Text(
            match self.spec.scale {
                Scale::Quick => "quick",
                Scale::Paper => "paper",
            }
            .to_string(),
        )
    }

    /// The kind's BENCH document: cells, then aggregates when the kind
    /// averages; the sweep adds its event and arrival totals up front.
    /// Exact counts and seed statistics only — no host-time field.
    pub fn document(&self) -> String {
        let mut head = vec![
            ("benchmark", Field::Text(self.spec.kind.name().to_string())),
            ("scale", self.scale()),
        ];
        if self.spec.kind == Kind::Sweep {
            for (name, column) in [
                ("total_events_dispatched", "events_dispatched"),
                ("total_arrivals", "arrivals"),
            ] {
                let total = self.cells.iter().filter_map(|c| match c.get(column) {
                    Some(Field::Count(n)) => Some(n),
                    _ => None,
                });
                head.push((name, Field::Count(total.sum())));
            }
        }
        let (cells, aggregates) = (self.rows(), self.aggregates());
        let mut sections = vec![("cells", &cells[..])];
        if !self.spec.kind.averaged().is_empty() {
            sections.push(("aggregates", &aggregates[..]));
        }
        render(&head, &sections)
    }

    /// The scale and the cells only — the `--cells-out` file CI diffs
    /// across worker counts.
    pub fn cells_document(&self) -> String {
        render(&[("scale", self.scale())], &[("cells", &self.rows())])
    }

    /// The row keys and the kind's console columns as an aligned text
    /// table: names and digests as plain text, numbers right-aligned.
    pub fn table(&self) -> String {
        let mut columns: Vec<&str> = self.cells.first().map_or(Vec::new(), |cell| {
            self.keys(cell).iter().map(|(name, _)| *name).collect()
        });
        columns.push("seed");
        columns.extend(self.spec.kind.console());
        let rows = self.rows();
        let text: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                columns
                    .iter()
                    .map(|c| match lookup(row, c) {
                        Some(Field::Text(s)) => s.clone(),
                        Some(Field::Hex(d)) => format!("{d:016x}"),
                        Some(f) => f.to_string(),
                        None => String::new(),
                    })
                    .collect()
            })
            .collect();
        let left: Vec<bool> = columns
            .iter()
            .map(|c| {
                matches!(
                    rows.first().and_then(|r| lookup(r, c)),
                    Some(Field::Text(_))
                )
            })
            .collect();
        let widths: Vec<usize> = (0..columns.len())
            .map(|j| {
                text.iter()
                    .map(|r| r[j].len())
                    .fold(columns[j].len(), usize::max)
            })
            .collect();
        let header = columns.iter().map(|c| c.to_string()).collect();
        let mut out = String::new();
        for line in std::iter::once(&header).chain(&text) {
            let padded: Vec<String> = line
                .iter()
                .zip(widths.iter().zip(&left))
                .map(|(value, (&width, &left))| {
                    if left {
                        format!("{value:<width$}")
                    } else {
                        format!("{value:>width$}")
                    }
                })
                .collect();
            out.push_str(padded.join(" ").trim_end());
            out.push('\n');
        }
        out
    }
}

/// Run `job` for every index in `0..n` on up to `workers` scoped threads
/// and return the results in index order. Threads claim indexes off one
/// shared cursor and each result lands in its own index-keyed slot, so the
/// output does not depend on `workers` or on which thread ran which index —
/// the property the byte-identical-at-any-worker-count guarantee rests on.
/// A panicking job propagates when the scope joins.
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

/// Characterize each scenario's workload once, fanned across `workers`,
/// exactly as the scenario runner would: every cell of a scenario then
/// shares one profile table (deterministic per config), so no cell's result
/// can depend on which thread ran it.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: Kind, policies: &[PolicyKind], scenario: &str) -> GridSpec {
        GridSpec {
            kind,
            admissions: policies.iter().map(|&p| Admission::Policy(p)).collect(),
            scenarios: vec![scenario.to_string()],
            clients: vec![None],
            seeds: vec![2007, 2008],
            scale: Scale::Quick,
            workers: 1,
        }
    }

    /// Runs `spec` with one worker and with four, checks the two agree cell
    /// for cell and byte for byte, and checks the shared document shape:
    /// `cells` cells, `aggregates` aggregate rows each folding both seeds
    /// into a nonnegative interval, no host time, and a document the gate
    /// parses. Returns the four-worker outcome, its document and its rows.
    fn worker_invariant(
        spec: GridSpec,
        cells: usize,
        aggregates: usize,
    ) -> (GridOutcome, String, Vec<Row>) {
        let kind = spec.kind;
        let sequential = run_grid(&spec);
        let outcome = run_grid(&GridSpec { workers: 4, ..spec });
        assert_eq!(sequential.cells, outcome.cells, "{kind:?}");
        let document = outcome.document();
        assert_eq!(sequential.document(), document, "{kind:?}");
        assert_eq!(sequential.cells_document(), outcome.cells_document());
        assert_eq!(outcome.cells.len(), cells, "{kind:?}");

        assert!(!document.contains("wall_ms") && !document.contains("per_sec"));
        crate::gate::parse(&document).expect("own document parses");
        let rows = outcome.aggregates();
        assert_eq!(rows.len(), aggregates, "{kind:?}");
        for row in &rows {
            assert_eq!(
                lookup(row, "seeds"),
                Some(&Field::Count(2)),
                "{kind:?} lost a seed"
            );
            for (column, field) in row {
                if let Field::MeanCi { ci95, .. } = field {
                    assert!(*ci95 >= 0.0, "{kind:?} {column}");
                }
            }
        }
        (outcome, document, rows)
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree_cell_for_cell() {
        let (outcome, _, _) = worker_invariant(
            spec(Kind::Sweep, &[PolicyKind::Ladder], "compile_storm"),
            2,
            0,
        );
        for cell in &outcome.cells {
            assert!(
                cell.sample("completed") > 0.0,
                "{}/{} idle",
                cell.scenario,
                cell.seed
            );
            assert!(cell.sample("events_dispatched") > 0.0);
            assert!(cell.sample("peak_queue_depth") > 0.0);
            // Closed loop: the arrival columns are present (for the gate)
            // but zero.
            for column in ["arrivals", "arrivals_admitted", "arrivals_shed"] {
                assert_eq!(cell.get(column), Some(&Field::Count(0)));
            }
        }
        // Different seeds really are different runs.
        let digest = |c: &Cell| c.get("trace_digest").cloned();
        assert_ne!(digest(&outcome.cells[0]), digest(&outcome.cells[1]));
    }

    #[test]
    fn policy_grid_is_worker_count_invariant_byte_for_byte() {
        // 3 policies x 1 scenario x 2 seeds.
        let (outcome, _, rows) = worker_invariant(
            spec(Kind::Policies, &PolicyKind::all(), "compile_storm"),
            6,
            3,
        );
        for cell in &outcome.cells {
            assert!(
                cell.sample("completed") > 0.0,
                "{:?}/{} idle",
                cell.admission,
                cell.seed
            );
            assert!(cell.sample("failure_rate") <= 1.0);
            assert!(cell.sample("degrade_rate") <= 1.0);
        }
        for row in &rows {
            let mean = match lookup(row, "throughput_per_slice") {
                Some(Field::MeanCi { mean, .. }) => *mean,
                other => panic!("no throughput aggregate: {other:?}"),
            };
            assert!(mean > 0.0);
        }
    }

    #[test]
    fn resilience_grid_is_worker_count_invariant_and_sees_the_faults() {
        // 2 policies x 1 scenario x 2 seeds.
        let (outcome, _, _) = worker_invariant(
            spec(
                Kind::Resilience,
                &[PolicyKind::Ladder, PolicyKind::Pid],
                "retry_storm",
            ),
            4,
            2,
        );
        for cell in &outcome.cells {
            // The retry-storm fault window is a quarter of the run.
            assert!(
                cell.sample("fault_seconds") > 0.0,
                "{:?}/{} saw no fault",
                cell.admission,
                cell.seed
            );
            assert!(cell.sample("time_to_recovery_s") >= 0.0);
            assert!(cell.sample("goodput_under_fault") >= 0.0);
        }
    }

    #[test]
    fn paper_grid_is_worker_count_invariant_byte_for_byte() {
        // 2 admissions x 1 scenario x 2 client counts x 2 seeds.
        let spec = GridSpec {
            admissions: vec![Admission::Policy(PolicyKind::Ladder), Admission::Off],
            clients: vec![None, Some(10)],
            ..spec(Kind::Paper, &[], "paper_figure3")
        };
        let (outcome, document, _) = worker_invariant(spec, 8, 0);
        let clients: Vec<u32> = outcome.cells.iter().map(|c| c.clients).collect();
        assert_eq!(clients, [30, 30, 10, 10, 30, 30, 10, 10]);
        for cell in &outcome.cells {
            assert!(
                cell.sample("completed_after_warmup") > 0.0,
                "{:?}/{}/{} idle",
                cell.admission,
                cell.clients,
                cell.seed
            );
            assert!(matches!(
                cell.get("figure_rows"),
                Some(Field::Slices(rows)) if !rows.is_empty()
            ));
        }
        // Only the throttled leg acquires gateways.
        assert!(outcome.cells[..4]
            .iter()
            .all(|c| c.sample("gateway_acquisitions") > 0.0));
        assert!(outcome.cells[4..]
            .iter()
            .all(|c| c.sample("gateway_acquisitions") == 0.0));
        // The gate keys every cell apart, client count included, and skips
        // the slice series.
        let doc = crate::gate::parse(&document).expect("own document parses");
        let entries = crate::gate::extract(&doc);
        let mut keys: Vec<&str> = entries
            .iter()
            .filter(|e| e.metric == "failed")
            .map(|e| e.key.as_str())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 8);
        assert!(keys.contains(&"cell policy=off scenario=paper_figure3 seed=2008 clients=10"));
    }

    #[test]
    fn a_client_count_reruns_a_paper_figure_at_another_figures_size() {
        let run = |scenario: &str, clients| {
            run_grid(&GridSpec {
                admissions: vec![Admission::Policy(PolicyKind::Ladder), Admission::Off],
                clients: vec![clients],
                ..spec(Kind::Paper, &[], scenario)
            })
        };
        let resized = run("paper_figure3", Some(35));
        let figure4 = run("paper_figure4", None);
        assert_eq!(resized.cells.len(), 4);
        for (a, b) in resized.cells.iter().zip(&figure4.cells) {
            assert_eq!((a.admission, a.clients, a.seed), (b.admission, 35, b.seed));
            assert_eq!(a.columns, b.columns);
        }
    }

    #[test]
    fn open_loop_cells_account_arrivals_and_stay_worker_invariant() {
        let spec = spec(Kind::Sweep, &[PolicyKind::Ladder], "open_loop_poisson");
        let sequential = run_grid(&spec);
        let parallel = run_grid(&GridSpec { workers: 4, ..spec });
        assert_eq!(sequential.cells, parallel.cells);
        assert_eq!(sequential.cells_document(), parallel.cells_document());
        for cell in &sequential.cells {
            assert!(cell.sample("arrivals") > 0.0, "source offered nothing");
            assert_eq!(
                cell.sample("arrivals"),
                cell.sample("arrivals_admitted") + cell.sample("arrivals_shed")
            );
            assert!(
                cell.sample("submitted") > 0.0,
                "no arrival reached the pipeline"
            );
        }
        // The arrival digest separates seeds just like the trace digest.
        let digest = |c: &Cell| c.get("arrival_digest").cloned();
        assert_ne!(digest(&sequential.cells[0]), digest(&sequential.cells[1]));
    }

    #[test]
    fn sweep_documents_carry_no_host_time() {
        let outcome = run_grid(&spec(Kind::Sweep, &[PolicyKind::Ladder], "compile_storm"));
        let total_events: f64 = outcome
            .cells
            .iter()
            .map(|c| c.sample("events_dispatched"))
            .sum();
        let json = outcome.document();
        assert!(!json.contains("wall_ms") && !json.contains("per_sec"));
        let doc = crate::gate::parse(&json).expect("own JSON parses");
        assert_eq!(
            doc.get("total_events_dispatched"),
            Some(&crate::gate::Value::Num(total_events))
        );
        // The console table has a header and one line per cell.
        assert_eq!(outcome.table().lines().count(), 1 + outcome.cells.len());
    }
}
