//! The scenario runner: drives the DES engine through a phase schedule.
//!
//! The runner owns the bridge between the declarative [`Scenario`] model
//! and the engine's phase hooks: it sizes the server for the largest
//! phase, then alternates phase mutations (client count, mix, overrides)
//! with [`Server::run_until`] windows at the phase boundaries, marking
//! each boundary with [`Server::trace_phase_start`]. The per-phase
//! [`PhaseReport`]s are the engine's event fold over the run
//! ([`Server::phase_reports`]); a recorded [`Trace`] replays through the
//! same fold, so a stored trace reproduces the reports of the run that
//! recorded it.

use crate::scenario::Scenario;
use crate::trace::Trace;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
pub use throttledb_engine::PhaseReport;
use throttledb_engine::{RunMetrics, Server, TraceSink, WorkloadProfiles};

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
    sink: Option<Rc<RefCell<dyn TraceSink>>>,
}

impl fmt::Debug for ScenarioRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioRunner")
            .field("scenario", &self.scenario)
            .field("record", &self.record)
            .field("profiles", &self.profiles)
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
            sink,
        } = self;
        scenario.validate();

        let config = scenario.runtime_config();
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
            server.run_until(server.now() + phase.duration);
        }

        // Close the stream through the server so the fold, the buffered
        // trace and any installed sink observe the same final `End` event.
        server.trace_end();
        let phases = server.phase_reports().to_vec();
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
