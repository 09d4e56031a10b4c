//! Run metrics: everything the figures and tables are built from.

use crate::trace::TraceEvent;
use serde::{Deserialize, Serialize};
use std::fmt;
use throttledb_core::ThrottleStats;
use throttledb_governor::PoolStats;
use throttledb_sim::{SimDuration, SimTime, TimeSeries};

/// Why a query failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureKind {
    /// Out-of-memory during compilation or grant acquisition.
    OutOfMemory,
    /// Aborted because a gateway wait exceeded its timeout.
    CompileTimeout,
    /// Timed out waiting for an execution memory grant.
    GrantTimeout,
}

/// Admission-control counters of one phase, plus the phase's compile-memory
/// peak. [`MetricsFold`] is the only code that produces these, for a live
/// run and for a recorded trace alike.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// The one fold from [`TraceEvent`]s to counts: per-phase
/// [`PhaseReport`]s and the run's totals.
///
/// The server feeds it every event it emits, with or without a trace
/// consumer attached, and fills [`RunMetrics`]'s counters from its totals
/// at finish; a recorded trace replays through the same fold. Memory is
/// O(phases), so a multi-gigabyte stream replays in constant space.
#[derive(Debug, Clone)]
pub struct MetricsFold {
    /// The reports in stream order. The first collects the events before
    /// any phase boundary (the whole run, when no driver marks phases);
    /// the rest are the phases. Events count into the last one.
    reports: Vec<PhaseReport>,
}

impl Default for MetricsFold {
    fn default() -> Self {
        MetricsFold {
            reports: vec![PhaseReport::default()],
        }
    }
}

impl MetricsFold {
    /// An empty fold: no events, no phases.
    pub fn new() -> Self {
        MetricsFold::default()
    }

    /// Fold one event, in stream order.
    pub fn observe(&mut self, ev: &TraceEvent) {
        let current = self
            .reports
            .last_mut()
            .expect("the fold always has a report open");
        match ev {
            TraceEvent::PhaseStart { at, name, clients } => {
                current.end = *at;
                self.reports.push(PhaseReport {
                    name: name.clone(),
                    start: *at,
                    end: *at,
                    clients: *clients,
                    ..PhaseReport::default()
                });
            }
            TraceEvent::End { at } => current.end = *at,
            TraceEvent::Submitted { .. } => current.submitted += 1,
            TraceEvent::Completed { .. } => current.completed += 1,
            TraceEvent::BestEffort { .. } => current.best_effort_plans += 1,
            TraceEvent::Failed { kind, .. } => {
                current.failed += 1;
                match kind {
                    FailureKind::OutOfMemory => current.oom_failures += 1,
                    FailureKind::CompileTimeout => current.compile_timeouts += 1,
                    FailureKind::GrantTimeout => current.grant_timeouts += 1,
                }
            }
            TraceEvent::CompilePeak { bytes, .. } => {
                current.peak_compile_bytes = current.peak_compile_bytes.max(*bytes);
            }
            // A trace recorded before the chaos layer simply has no
            // `shed` lines, so old goldens replay with `shed: 0`.
            TraceEvent::Shed { .. } => current.shed += 1,
            TraceEvent::GatewayBlocked { .. }
            | TraceEvent::GrantQueued { .. }
            | TraceEvent::ExecStarted { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::FaultCleared { .. }
            | TraceEvent::BreakerTransition { .. } => {}
        }
    }

    /// The per-phase reports so far, one per [`TraceEvent::PhaseStart`].
    pub fn phases(&self) -> &[PhaseReport] {
        &self.reports[1..]
    }

    /// Close the fold and return the per-phase reports.
    pub fn into_phases(mut self) -> Vec<PhaseReport> {
        self.reports.split_off(1)
    }

    /// The run's totals: every event's counts as one report from time 0 to
    /// the last boundary seen, with an empty name and no clients.
    pub fn totals(&self) -> PhaseReport {
        let mut run = PhaseReport::default();
        for r in &self.reports {
            run.end = r.end;
            run.submitted += r.submitted;
            run.completed += r.completed;
            run.failed += r.failed;
            run.shed += r.shed;
            run.oom_failures += r.oom_failures;
            run.compile_timeouts += r.compile_timeouts;
            run.grant_timeouts += r.grant_timeouts;
            run.best_effort_plans += r.best_effort_plans;
            run.peak_compile_bytes = run.peak_compile_bytes.max(r.peak_compile_bytes);
        }
        run
    }

    /// The compile-memory peak of the current phase (of the run so far,
    /// before the first phase boundary). A sample above it is a new
    /// [`TraceEvent::CompilePeak`].
    pub(crate) fn current_compile_peak(&self) -> u64 {
        self.reports.last().map_or(0, |r| r.peak_compile_bytes)
    }
}

/// Per-workload-class results of one run (one entry per configured class).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassMetrics {
    /// Class name.
    pub name: String,
    /// Number of clients assigned to the class.
    pub clients: u32,
    /// Successful completions (whole run).
    pub completed: u64,
    /// Successful completions after warm-up.
    pub completed_after_warmup: u64,
    /// Failed queries.
    pub failed: u64,
    /// Queries completed with a best-effort plan.
    pub best_effort_plans: u64,
    /// Arrivals shed by this class's circuit breaker.
    pub shed: u64,
    /// State transitions of this class's circuit breaker.
    pub breaker_transitions: u64,
    /// The class ladder's statistics (including per-gateway wait
    /// histograms).
    pub throttle: ThrottleStats,
    /// The class grant pool's statistics (including the grant-wait
    /// histogram).
    pub grants: PoolStats,
}

/// Per-arrival-source results of one run (one entry per configured
/// open-loop source).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrivalSourceMetrics {
    /// Source name.
    pub name: String,
    /// Size of the user population the source models.
    pub modeled_clients: u32,
    /// Total arrivals offered (admitted + shed).
    pub arrivals: u64,
    /// Arrivals admitted into the pipeline.
    pub admitted: u64,
    /// Arrivals shed at the door (concurrency cap or breaker).
    pub shed: u64,
    /// Admitted arrivals that completed.
    pub completed: u64,
    /// Admitted arrivals that failed out of the pipeline.
    pub failed: u64,
}

/// How many events of each kind the run's event loop dispatched: one
/// counter per kind of queued event, plus the broker ticks and the
/// open-loop arrivals, which the loop merges by their reserved keys and
/// which never sit on the event queue. The
/// counters sum to [`RunMetrics::events_dispatched`]; `Server::finish`
/// checks it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchCounts {
    /// Closed-loop clients' submissions, fresh work and retries.
    pub submit: u64,
    /// Compilation memory-growth steps.
    pub compile_step: u64,
    /// Timeouts of gateway waits (fired, whether or not the query still waited).
    pub compile_timeout: u64,
    /// Grant-wait timeouts (fired, whether or not the query still waited).
    pub grant_timeout: u64,
    /// Execution completions.
    pub exec_finish: u64,
    /// Broker recalculation ticks, dispatched off the queue.
    pub broker_tick: u64,
    /// Fault windows opening.
    pub fault_begin: u64,
    /// Fault windows closing.
    pub fault_end: u64,
    /// Memory-leak fault allocation steps.
    pub leak_step: u64,
    /// Open-loop arrivals (admitted + shed), dispatched off the queue.
    pub external_arrivals: u64,
}

impl DispatchCounts {
    /// Every dispatched event: the queued kinds plus the ticks and the
    /// arrivals.
    pub fn total(&self) -> u64 {
        self.submit
            + self.compile_step
            + self.compile_timeout
            + self.grant_timeout
            + self.exec_finish
            + self.broker_tick
            + self.fault_begin
            + self.fault_end
            + self.leak_step
            + self.external_arrivals
    }
}

/// Metrics collected over one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Successful completions bucketed per slice (the paper's figures 3-5).
    pub completed: TimeSeries,
    /// Failures bucketed per slice.
    pub failed: TimeSeries,
    /// Out-of-memory failures (from the event fold, at finish).
    pub oom_failures: u64,
    /// Compile-gateway timeout failures (from the event fold, at finish).
    pub compile_timeouts: u64,
    /// Grant-wait timeout failures (from the event fold, at finish).
    pub grant_timeouts: u64,
    /// Queries completed with a best-effort plan (from the event fold, at
    /// finish).
    pub best_effort_plans: u64,
    /// Total successful completions after warm-up (summed over
    /// [`RunMetrics::classes`] at finish).
    pub completed_after_warmup: u64,
    /// Peak of the compilation memory in use, total across concurrent
    /// compilations (from the event fold, at finish).
    pub peak_compile_bytes: u64,
    /// Final gateway-ladder statistics, merged across all workload classes.
    pub throttle: ThrottleStats,
    /// Per-workload-class breakdown (one entry per configured class).
    pub classes: Vec<ClassMetrics>,
    /// Warm-up boundary used by the reporting helpers.
    pub warmup: SimTime,
    /// Slice width.
    pub slice: SimDuration,
    /// Total simulation events the run's event loop dispatched.
    pub events_dispatched: u64,
    /// The same total broken down by event kind.
    pub dispatch: DispatchCounts,
    /// Peak number of simultaneously pending events in the event queue.
    pub peak_queue_depth: usize,
    /// Arrivals shed by the circuit breakers (load-shed while open; from
    /// the event fold, at finish).
    pub shed: u64,
    /// Circuit-breaker state transitions, summed across classes (flapping
    /// shows up here).
    pub breaker_transitions: u64,
    /// Arrivals admitted in brownout mode (small enough for the breaker's
    /// exemption while it was open).
    pub brownout_admits: u64,
    /// Retry chains abandoned because the per-client retry budget or the
    /// total query deadline was exhausted (the client gave up and moved on
    /// instead of churning the queue).
    pub retries_abandoned: u64,
    /// Completions that landed inside an active fault window.
    pub completed_during_fault: u64,
    /// The installed faults' active windows, clamped to the run
    /// (see [`crate::fault::FaultSpec`]); empty for fault-free runs.
    pub fault_windows: Vec<(SimTime, SimTime)>,
    /// Total configured run length (recovery measurements need the end of
    /// the observation window).
    pub run_duration: SimDuration,
    /// Total open-loop arrivals offered, across all sources (admitted +
    /// shed). 0 for purely closed-loop runs.
    pub arrivals: u64,
    /// Open-loop arrivals admitted into the pipeline.
    pub arrivals_admitted: u64,
    /// Open-loop arrivals shed at the door (concurrency cap or breaker).
    pub arrivals_shed: u64,
    /// Streaming FNV-1a digest over every arrival's admission decision
    /// (time, source, outcome). Identical digests ⇒ identical per-arrival
    /// decisions — the determinism witness for runs too large to trace.
    /// Holds the FNV offset basis for runs without sources.
    pub arrival_digest: u64,
    /// Per-source breakdown (one entry per configured arrival source).
    pub arrival_sources: Vec<ArrivalSourceMetrics>,
}

impl RunMetrics {
    /// Fresh metrics for a run with the given slice width and warm-up.
    pub fn new(slice: SimDuration, warmup: SimTime, throttle_levels: usize) -> Self {
        RunMetrics {
            completed: TimeSeries::new("completed", slice),
            failed: TimeSeries::new("failed", slice),
            oom_failures: 0,
            compile_timeouts: 0,
            grant_timeouts: 0,
            best_effort_plans: 0,
            completed_after_warmup: 0,
            peak_compile_bytes: 0,
            throttle: ThrottleStats::new(throttle_levels),
            classes: Vec::new(),
            warmup,
            slice,
            events_dispatched: 0,
            dispatch: DispatchCounts::default(),
            peak_queue_depth: 0,
            shed: 0,
            breaker_transitions: 0,
            brownout_admits: 0,
            retries_abandoned: 0,
            completed_during_fault: 0,
            fault_windows: Vec::new(),
            run_duration: SimDuration::ZERO,
            arrivals: 0,
            arrivals_admitted: 0,
            arrivals_shed: 0,
            arrival_digest: 0xcbf2_9ce4_8422_2325,
            arrival_sources: Vec::new(),
        }
    }

    /// Panic unless the run's counts agree, in every build. Three paths
    /// count how queries ended: the event fold (`run`, its totals), the
    /// per-slice series and the per-class counters. They must match for
    /// completions, failures, best-effort plans and sheds; every failure
    /// has exactly one kind; and every submission completed, failed, was
    /// shed or is one of the `in_flight` queries still in the pipeline.
    pub(crate) fn check_totals(&self, run: &PhaseReport, in_flight: u64) {
        assert_eq!(
            (run.completed, run.failed),
            (self.completed.total(), self.failed.total()),
            "the fold's completions and failures must match the per-slice series"
        );
        let classes = |count: fn(&ClassMetrics) -> u64| self.classes.iter().map(count).sum::<u64>();
        assert_eq!(
            [run.completed, run.failed, run.best_effort_plans, run.shed],
            [
                classes(|c| c.completed),
                classes(|c| c.failed),
                classes(|c| c.best_effort_plans),
                classes(|c| c.shed),
            ],
            "the fold's completions, failures, best-effort plans and sheds must match the classes'"
        );
        assert_eq!(
            run.failed,
            run.oom_failures + run.compile_timeouts + run.grant_timeouts,
            "every failure must have exactly one kind"
        );
        assert_eq!(
            run.submitted,
            run.completed + run.failed + run.shed + in_flight,
            "every submission must complete, fail, be shed or still be in flight"
        );
    }

    /// Total failures.
    pub fn total_failures(&self) -> u64 {
        self.oom_failures + self.compile_timeouts + self.grant_timeouts
    }

    /// Mean completions per slice after warm-up (the figures' sustained level).
    pub fn sustained_throughput_per_slice(&self) -> f64 {
        self.completed.mean_per_bucket_from(self.warmup)
    }

    /// Total simulated seconds during which at least the recorded fault
    /// windows were active (windows may overlap; this sums them as given).
    pub fn fault_seconds(&self) -> f64 {
        self.fault_windows
            .iter()
            .map(|(s, e)| e.as_secs_f64() - s.as_secs_f64())
            .sum()
    }

    /// Goodput under fault: successful completions per second while a
    /// fault was active. 0.0 for fault-free runs.
    pub fn goodput_under_fault(&self) -> f64 {
        let secs = self.fault_seconds();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed_during_fault as f64 / secs
        }
    }

    /// Time-to-recovery in seconds: from the instant the last fault
    /// cleared until the start of the first reporting slice whose
    /// completion count reaches 90% of the pre-fault baseline (the mean
    /// over slices fully before the first fault). Returns 0.0 for
    /// fault-free runs or when there is no pre-fault baseline to recover
    /// to, and the remaining observation window when the run never
    /// recovers — a lower bound that still ranks policies.
    pub fn time_to_recovery(&self) -> f64 {
        let Some(&(first_start, _)) = self.fault_windows.first() else {
            return 0.0;
        };
        let clear = self
            .fault_windows
            .iter()
            .map(|(_, e)| *e)
            .max()
            .unwrap_or(first_start);
        // Baseline: mean completions/slice over slices that end at or
        // before the first fault begins.
        let (mut sum, mut n) = (0u64, 0u64);
        for (t, c) in self.completed.iter() {
            if t + self.slice <= first_start {
                sum += c;
                n += 1;
            }
        }
        if n == 0 || sum == 0 {
            return 0.0;
        }
        let baseline = sum as f64 / n as f64;
        let target = 0.9 * baseline;
        for (t, c) in self.completed.iter() {
            if t >= clear && c as f64 >= target {
                return (t.as_secs_f64() - clear.as_secs_f64()).max(0.0);
            }
        }
        let end = SimTime::ZERO + self.run_duration;
        (end.as_secs_f64() - clear.as_secs_f64()).max(0.0)
    }

    /// The `(slice start seconds, completions)` rows of a throughput figure,
    /// post-warm-up only.
    pub fn figure_rows(&self) -> Vec<(u64, u64)> {
        self.completed
            .iter()
            .filter(|(t, _)| *t >= self.warmup)
            .map(|(t, c)| (t.as_secs(), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> RunMetrics {
        RunMetrics::new(SimDuration::from_secs(3600), SimTime::from_secs(7200), 3)
    }

    fn fold(events: &[TraceEvent]) -> MetricsFold {
        let mut fold = MetricsFold::new();
        for ev in events {
            fold.observe(ev);
        }
        fold
    }

    fn phase(secs: u64, name: &str) -> TraceEvent {
        TraceEvent::PhaseStart {
            at: SimTime::from_secs(secs),
            name: name.into(),
            clients: 4,
        }
    }

    fn peak(bytes: u64) -> TraceEvent {
        TraceEvent::CompilePeak {
            at: SimTime::ZERO,
            bytes,
        }
    }

    #[test]
    fn completions_split_around_warmup() {
        let mut m = metrics();
        for secs in [100, 8000, 9000] {
            m.completed.record(SimTime::from_secs(secs));
        }
        assert_eq!(m.completed.total(), 3);
        assert_eq!(m.completed.total_from(m.warmup), 2);
        assert!(m.sustained_throughput_per_slice() > 0.0);
    }

    #[test]
    fn gauge_peaks_restart_per_phase_and_keep_the_run_high() {
        let mut f = fold(&[peak(50), peak(90)]);
        assert_eq!(
            f.current_compile_peak(),
            90,
            "before any phase: the run so far"
        );
        f.observe(&phase(10, "next"));
        assert_eq!(f.current_compile_peak(), 0, "an empty phase reports 0");
        f.observe(&peak(20));
        assert_eq!(f.current_compile_peak(), 20, "a new phase measures from 0");
        assert_eq!(f.phases()[0].peak_compile_bytes, 20);
        assert_eq!(f.totals().peak_compile_bytes, 90);
    }

    #[test]
    fn failures_are_classified() {
        let failed = |secs, kind| TraceEvent::Failed {
            at: SimTime::from_secs(secs),
            query: secs,
            kind,
        };
        let run = fold(&[
            failed(10, FailureKind::OutOfMemory),
            failed(20, FailureKind::CompileTimeout),
            failed(30, FailureKind::CompileTimeout),
            failed(40, FailureKind::GrantTimeout),
        ])
        .totals();
        assert_eq!(run.oom_failures, 1);
        assert_eq!(run.compile_timeouts, 2);
        assert_eq!(run.grant_timeouts, 1);
        assert_eq!(run.failed, 4);
    }

    #[test]
    fn fold_segments_phases_and_totals_the_whole_run() {
        let submitted = |query| TraceEvent::Submitted {
            at: SimTime::from_secs(query),
            query,
            client: 0,
            class: 0,
        };
        let f = fold(&[
            submitted(0),
            phase(10, "a"),
            submitted(1),
            submitted(2),
            phase(20, "b"),
            TraceEvent::End {
                at: SimTime::from_secs(30),
            },
        ]);
        let phases = f.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(
            (phases[0].start, phases[0].end),
            (SimTime::from_secs(10), SimTime::from_secs(20))
        );
        assert_eq!(
            (phases[1].end, phases[1].submitted),
            (SimTime::from_secs(30), 0)
        );
        assert_eq!(
            phases[0].submitted, 2,
            "events before the first phase count only in the run"
        );
        let run = f.totals();
        assert_eq!(
            (run.start, run.end, run.submitted),
            (SimTime::ZERO, SimTime::from_secs(30), 3)
        );
        assert_eq!(f.into_phases().len(), 2);
    }

    /// Totals that pass every finish-time check: 10 submissions, 5
    /// completed, 3 failed, 1 shed, 1 in flight, 2 best-effort plans.
    fn consistent() -> (PhaseReport, RunMetrics) {
        let run = PhaseReport {
            submitted: 10,
            completed: 5,
            failed: 3,
            oom_failures: 1,
            compile_timeouts: 1,
            grant_timeouts: 1,
            shed: 1,
            best_effort_plans: 2,
            ..PhaseReport::default()
        };
        let mut m = metrics();
        m.completed.record_n(SimTime::from_secs(10), 5);
        m.failed.record_n(SimTime::from_secs(10), 3);
        m.classes.push(ClassMetrics {
            name: "default".into(),
            clients: 4,
            completed: 5,
            completed_after_warmup: 0,
            failed: 3,
            best_effort_plans: 2,
            shed: 1,
            breaker_transitions: 0,
            throttle: ThrottleStats::new(3),
            grants: throttledb_executor::GrantManager::new(0, None).pool_stats(),
        });
        (run, m)
    }

    #[test]
    fn finish_checks_accept_consistent_totals() {
        let (run, m) = consistent();
        m.check_totals(&run, 1);
    }

    #[test]
    #[should_panic(expected = "per-slice series")]
    fn finish_checks_catch_a_completion_the_series_missed() {
        let (run, mut m) = consistent();
        m.completed = TimeSeries::new("completed", m.slice);
        m.completed.record_n(SimTime::from_secs(10), 4);
        m.check_totals(&run, 1);
    }

    #[test]
    #[should_panic(expected = "match the classes'")]
    fn finish_checks_catch_a_shed_the_classes_missed() {
        let (run, mut m) = consistent();
        m.classes[0].shed = 0;
        m.check_totals(&run, 1);
    }

    #[test]
    #[should_panic(expected = "exactly one kind")]
    fn finish_checks_catch_a_failure_without_a_kind() {
        let (mut run, m) = consistent();
        run.grant_timeouts = 0;
        m.check_totals(&run, 1);
    }

    #[test]
    #[should_panic(expected = "still be in flight")]
    fn finish_checks_catch_a_lost_submission() {
        let (run, m) = consistent();
        m.check_totals(&run, 0);
    }

    #[test]
    fn goodput_under_fault_divides_by_fault_seconds() {
        let mut m = metrics();
        assert_eq!(m.goodput_under_fault(), 0.0, "fault-free run");
        m.fault_windows = vec![
            (SimTime::from_secs(100), SimTime::from_secs(200)),
            (SimTime::from_secs(400), SimTime::from_secs(500)),
        ];
        m.completed_during_fault = 50;
        assert!((m.fault_seconds() - 200.0).abs() < 1e-9);
        assert!((m.goodput_under_fault() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn time_to_recovery_finds_the_first_recovered_slice() {
        // 600 s slices; baseline 10/slice before the fault at 3600 s,
        // depressed during it, recovered two slices after the 7200 s clear.
        let mut m = RunMetrics::new(SimDuration::from_secs(600), SimTime::ZERO, 3);
        m.run_duration = SimDuration::from_secs(14_400);
        for slice in 0..6 {
            m.completed
                .record_n(SimTime::from_secs(slice * 600 + 1), 10);
        }
        for slice in 6..12 {
            m.completed.record_n(SimTime::from_secs(slice * 600 + 1), 2);
        }
        for slice in 14..24 {
            m.completed
                .record_n(SimTime::from_secs(slice * 600 + 1), 10);
        }
        m.fault_windows = vec![(SimTime::from_secs(3600), SimTime::from_secs(7200))];
        // Clear at 7200 s; slices 12 and 13 are still at 0, slice 14
        // (8400 s) reaches the 90% baseline again.
        assert!((m.time_to_recovery() - 1200.0).abs() < 1e-9);
        // A run that never recovers reports the remaining window.
        m.completed = TimeSeries::new("completed", SimDuration::from_secs(600));
        for slice in 0..6 {
            m.completed
                .record_n(SimTime::from_secs(slice * 600 + 1), 10);
        }
        assert!((m.time_to_recovery() - 7200.0).abs() < 1e-9);
        // No faults: trivially recovered.
        m.fault_windows.clear();
        assert_eq!(m.time_to_recovery(), 0.0);
    }

    #[test]
    fn figure_rows_exclude_warmup_slices() {
        let mut m = metrics();
        m.completed.record(SimTime::from_secs(100));
        m.completed.record(SimTime::from_secs(7300));
        let rows = m.figure_rows();
        assert!(rows.iter().all(|(t, _)| *t >= 7200));
        assert_eq!(rows.iter().map(|(_, c)| *c).sum::<u64>(), 1);
    }
}
