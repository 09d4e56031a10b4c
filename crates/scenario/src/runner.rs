//! The scenario runner: drives the DES engine through a phase schedule.
//!
//! The runner owns the bridge between the declarative [`Scenario`] model
//! and the engine's phase hooks: it sizes the server for the largest
//! phase, then alternates phase mutations (client count, mix, overrides)
//! with [`Server::run_until`] windows at the phase boundaries, snapshotting
//! the cumulative metrics at each boundary to produce per-phase
//! [`PhaseReport`]s. With trace recording on, the run also yields a
//! [`Trace`] whose replay must reproduce the same reports — the
//! regression contract of the trace subsystem.

use crate::scenario::Scenario;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use throttledb_engine::{RunMetrics, Server, TraceSink, WorkloadProfiles};
use throttledb_sim::SimTime;

/// Admission-control counters of one phase, plus the phase's compile-memory
/// peak. Derivable both from live metrics snapshots and from a recorded
/// trace — [`Trace::replay`] must reproduce these exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase name.
    pub name: String,
    /// Phase start (virtual time).
    pub start: SimTime,
    /// Phase end (exclusive).
    pub end: SimTime,
    /// Active clients during the phase.
    pub clients: u32,
    /// Queries submitted in the phase.
    pub submitted: u64,
    /// Queries completed in the phase.
    pub completed: u64,
    /// Queries failed in the phase.
    pub failed: u64,
    /// Arrivals shed at the door by an open circuit breaker.
    pub shed: u64,
    /// Out-of-memory failures.
    pub oom_failures: u64,
    /// Compile-gateway timeout failures.
    pub compile_timeouts: u64,
    /// Grant-wait timeout failures.
    pub grant_timeouts: u64,
    /// Best-effort plans produced.
    pub best_effort_plans: u64,
    /// Peak aggregate compilation memory observed in the phase.
    pub peak_compile_bytes: u64,
}

impl PhaseReport {
    /// Completions per simulated minute (throughput at phase granularity).
    pub fn completions_per_minute(&self) -> f64 {
        let mins = self.end.saturating_since(self.start).as_secs_f64() / 60.0;
        if mins == 0.0 {
            0.0
        } else {
            self.completed as f64 / mins
        }
    }
}

impl fmt::Display for PhaseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>7} {:>7} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>9.1} {:>9.0}",
            self.name,
            format!("{}s", self.start.as_secs()),
            format!("{}s", self.end.as_secs()),
            self.clients,
            self.submitted,
            self.completed,
            self.failed,
            self.shed,
            self.best_effort_plans,
            format!(
                "{}/{}/{}",
                self.oom_failures, self.compile_timeouts, self.grant_timeouts
            ),
            self.completions_per_minute(),
            self.peak_compile_bytes as f64 / 1e6,
        )
    }
}

/// Everything a scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario's name.
    pub scenario: String,
    /// The scenario's one-line description.
    pub description: String,
    /// One report per phase, in schedule order.
    pub phases: Vec<PhaseReport>,
    /// The run's cumulative metrics (series, gauges, per-class breakdown).
    pub metrics: RunMetrics,
    /// The recorded admission/grant trace, when recording was enabled.
    pub trace: Option<Trace>,
}

impl ScenarioOutcome {
    /// Render the per-phase report as a fixed-width text table. Two
    /// outcomes with equal phase reports render byte-identically, which is
    /// what the trace-replay regression check compares.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== scenario: {} ==\n", self.scenario));
        out.push_str(&format!(
            "{:<14} {:>7} {:>7} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>9} {:>9}\n",
            "phase",
            "start",
            "end",
            "users",
            "subm",
            "done",
            "fail",
            "shed",
            "b-eff",
            "o/c/g",
            "done/min",
            "peak MB"
        ));
        for phase in &self.phases {
            out.push_str(&format!("{phase}\n"));
        }
        out
    }

    /// Total completions across all phases.
    pub fn total_completed(&self) -> u64 {
        self.phases.iter().map(|p| p.completed).sum()
    }
}

/// Cumulative-counter snapshot taken at a phase boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    submitted: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    oom: u64,
    compile_timeouts: u64,
    grant_timeouts: u64,
    best_effort: u64,
}

impl Snapshot {
    fn take(server: &Server) -> Snapshot {
        let m = server.metrics();
        Snapshot {
            submitted: server.queries_submitted(),
            completed: m.completed.total(),
            failed: m.failed.total(),
            shed: m.shed,
            oom: m.oom_failures,
            compile_timeouts: m.compile_timeouts,
            grant_timeouts: m.grant_timeouts,
            best_effort: m.best_effort_plans,
        }
    }
}

/// Runs a [`Scenario`] against the discrete-event engine.
///
/// # Examples
///
/// ```
/// use throttledb_engine::ServerConfig;
/// use throttledb_scenario::{Phase, Scenario, ScenarioRunner};
/// use throttledb_sim::SimDuration;
/// use throttledb_workload::WorkloadMix;
///
/// // Two five-minute phases: a small steady population, then a busier
/// // all-SALES window.
/// let mut base = ServerConfig::quick(4, true);
/// base.warmup = SimDuration::ZERO;
/// let phases = vec![
///     Phase::steady("warm", SimDuration::from_secs(300), 2, WorkloadMix::default()),
///     Phase::steady("busy", SimDuration::from_secs(300), 4, WorkloadMix::sales_only()),
/// ];
/// let scenario = Scenario::new("demo", "doctest scenario", base, phases);
///
/// let outcome = ScenarioRunner::new(scenario).record_trace(true).run();
/// assert_eq!(outcome.phases.len(), 2);
/// assert!(outcome.phases.iter().map(|p| p.submitted).sum::<u64>() > 0);
/// // The recorded trace replays to the same per-phase reports.
/// assert_eq!(outcome.trace.unwrap().replay(), outcome.phases);
/// ```
pub struct ScenarioRunner {
    scenario: Scenario,
    record: bool,
    profiles: Option<Arc<WorkloadProfiles>>,
    shards: u32,
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl fmt::Debug for ScenarioRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioRunner")
            .field("scenario", &self.scenario)
            .field("record", &self.record)
            .field("profiles", &self.profiles)
            .field("shards", &self.shards)
            .field("sink", &self.sink.as_ref().map(|_| "TraceSink"))
            .finish()
    }
}

impl ScenarioRunner {
    /// A runner for `scenario` (trace recording off by default).
    pub fn new(scenario: Scenario) -> Self {
        ScenarioRunner {
            scenario,
            record: false,
            profiles: None,
            shards: 1,
            sink: None,
        }
    }

    /// Enable or disable admission/grant trace recording.
    pub fn record_trace(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Install a streaming trace consumer (see
    /// [`throttledb_engine::TraceSink`]): every trace event of the run is
    /// forwarded to it as it happens, independently of the buffered
    /// recording toggled by [`ScenarioRunner::record_trace`]. This is how
    /// `scenario_runner --trace-v2` serializes a 10M-arrival run at O(1)
    /// memory — the sink is a [`crate::TraceWriterV2`] over a file.
    pub fn with_trace_sink(mut self, sink: Rc<RefCell<dyn TraceSink>>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Run across `shards` generator shards (default 1: arrival instants
    /// sampled inline). Any value produces byte-identical traces,
    /// reports and digests — the determinism tests prove it — so this
    /// only trades wall-clock time, never results.
    pub fn with_shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1, "a run needs at least one shard");
        self.shards = shards;
        self
    }

    /// Reuse already-characterized workload profiles instead of compiling
    /// every template through the optimizer again (tests and sweeps share
    /// them; profiles must cover every family the scenario's mixes use).
    pub fn with_profiles(mut self, profiles: Arc<WorkloadProfiles>) -> Self {
        self.profiles = Some(profiles);
        self
    }

    /// Run the scenario to completion.
    pub fn run(self) -> ScenarioOutcome {
        let ScenarioRunner {
            scenario,
            record,
            profiles,
            shards,
            sink,
        } = self;
        scenario.validate();

        let mut config = scenario.runtime_config();
        if shards > 1 {
            config.shards = shards;
        }
        let base_think = config.client_model.mean_think_time;
        let profiles =
            profiles.unwrap_or_else(|| Arc::new(WorkloadProfiles::characterize_full(&config)));

        let mut server = Server::new(config, profiles);
        if record {
            server.enable_trace();
        }
        if let Some(sink) = sink {
            server.set_trace_sink(sink);
        }
        // Faults are ordinary queued events: installed once, before
        // the first phase, they fire at their absolute offsets regardless
        // of the phase schedule around them.
        server.install_faults(&scenario.faults.to_specs());

        let mut phases = Vec::with_capacity(scenario.phases.len());
        let mut begun = false;
        for phase in &scenario.phases {
            // Apply the phase's bindings at the boundary...
            server.set_workload_mix(phase.mix);
            server.set_mean_think_time(phase.overrides.mean_think_time.unwrap_or(base_think));
            server.set_grant_budget_scale(phase.overrides.grant_budget_scale.unwrap_or(1.0));
            server.set_active_clients(phase.clients);
            server.trace_phase_start(&phase.name, phase.clients);
            if !begun {
                server.begin();
                begun = true;
            }
            // ...then simulate the phase window.
            let start = server.now();
            let end = start + phase.duration;
            let before = Snapshot::take(&server);
            server.run_until(end);
            let after = Snapshot::take(&server);
            phases.push(PhaseReport {
                name: phase.name.clone(),
                start,
                end,
                clients: phase.clients,
                submitted: after.submitted - before.submitted,
                completed: after.completed - before.completed,
                failed: after.failed - before.failed,
                shed: after.shed - before.shed,
                oom_failures: after.oom - before.oom,
                compile_timeouts: after.compile_timeouts - before.compile_timeouts,
                grant_timeouts: after.grant_timeouts - before.grant_timeouts,
                best_effort_plans: after.best_effort - before.best_effort,
                // The trace replay must agree.
                peak_compile_bytes: server.phase_compile_peak(),
            });
        }

        // Close the stream through the server so the buffered trace and
        // any installed sink observe the same final `End` event.
        server.trace_end();
        let trace = record.then(|| Trace::new(server.take_trace()));
        let metrics = server.finish();

        ScenarioOutcome {
            scenario: scenario.name,
            description: scenario.description,
            phases,
            metrics,
            trace,
        }
    }
}
