//! Run metrics: everything the figures and tables are built from.

use serde::{Deserialize, Serialize};
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

/// Running high-water marks of a gauge: over the whole run and since the
/// last phase boundary. Two words, however many samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugePeaks {
    run: u64,
    phase: u64,
}

impl GaugePeaks {
    /// Fold in a sample; true when it is a new high for the phase.
    pub fn record(&mut self, value: u64) -> bool {
        self.run = self.run.max(value);
        let new_high = value > self.phase;
        if new_high {
            self.phase = value;
        }
        new_high
    }

    /// Start a new phase: its peak restarts from 0.
    pub fn start_phase(&mut self) {
        self.phase = 0;
    }

    /// The highest sample of the run, or 0 if none.
    pub fn max_value(&self) -> u64 {
        self.run
    }

    /// The highest sample since the last [`GaugePeaks::start_phase`].
    pub fn phase_max(&self) -> u64 {
        self.phase
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
/// counter per kind of queued event, plus the open-loop arrivals, which
/// fire from the arrival plane and never sit on the event queue. The
/// counters sum to [`RunMetrics::events_dispatched`]; `Server::finish`
/// checks it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchCounts {
    /// Materialized clients' submissions.
    pub submit: u64,
    /// Cohort-compressed clients' submissions.
    pub cohort_submit: u64,
    /// Compilation memory-growth steps.
    pub compile_step: u64,
    /// Timeouts of gateway waits (fired, whether or not the query still waited).
    pub compile_timeout: u64,
    /// Grant-wait timeouts (fired, whether or not the query still waited).
    pub grant_timeout: u64,
    /// Execution completions.
    pub exec_finish: u64,
    /// Broker recalculation ticks.
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
    /// Every dispatched event: the queued kinds plus the arrivals.
    pub fn total(&self) -> u64 {
        self.submit
            + self.cohort_submit
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
    /// Out-of-memory failures.
    pub oom_failures: u64,
    /// Compile-gateway timeout failures.
    pub compile_timeouts: u64,
    /// Grant-wait timeout failures.
    pub grant_timeouts: u64,
    /// Queries completed with a best-effort plan.
    pub best_effort_plans: u64,
    /// Total successful completions after warm-up.
    pub completed_after_warmup: u64,
    /// Peaks of the compilation memory in use (total across concurrent
    /// compilations).
    pub compile_memory: GaugePeaks,
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
    /// Arrivals shed by the circuit breakers (load-shed while open).
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
            compile_memory: GaugePeaks::default(),
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

    /// Record a successful completion.
    pub fn record_completion(&mut self, at: SimTime) {
        self.completed.record(at);
        if at >= self.warmup {
            self.completed_after_warmup += 1;
        }
    }

    /// Record a failure.
    pub fn record_failure(&mut self, at: SimTime, kind: FailureKind) {
        self.failed.record(at);
        match kind {
            FailureKind::OutOfMemory => self.oom_failures += 1,
            FailureKind::CompileTimeout => self.compile_timeouts += 1,
            FailureKind::GrantTimeout => self.grant_timeouts += 1,
        }
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

    #[test]
    fn completions_split_around_warmup() {
        let mut m = metrics();
        m.record_completion(SimTime::from_secs(100));
        m.record_completion(SimTime::from_secs(8000));
        m.record_completion(SimTime::from_secs(9000));
        assert_eq!(m.completed.total(), 3);
        assert_eq!(m.completed_after_warmup, 2);
        assert!(m.sustained_throughput_per_slice() > 0.0);
    }

    #[test]
    fn gauge_peaks_restart_per_phase_and_keep_the_run_high() {
        let mut g = GaugePeaks::default();
        assert!(g.record(50));
        assert!(g.record(90));
        assert!(!g.record(20), "below the phase high");
        g.start_phase();
        assert_eq!(g.phase_max(), 0, "an empty phase reports 0");
        assert!(g.record(20), "a new phase measures from 0");
        assert_eq!((g.phase_max(), g.max_value()), (20, 90));
    }

    #[test]
    fn failures_are_classified() {
        let mut m = metrics();
        m.record_failure(SimTime::from_secs(10), FailureKind::OutOfMemory);
        m.record_failure(SimTime::from_secs(20), FailureKind::CompileTimeout);
        m.record_failure(SimTime::from_secs(30), FailureKind::CompileTimeout);
        m.record_failure(SimTime::from_secs(40), FailureKind::GrantTimeout);
        assert_eq!(m.oom_failures, 1);
        assert_eq!(m.compile_timeouts, 2);
        assert_eq!(m.grant_timeouts, 1);
        assert_eq!(m.total_failures(), 4);
        assert_eq!(m.failed.total(), 4);
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
        m.record_completion(SimTime::from_secs(100));
        m.record_completion(SimTime::from_secs(7300));
        let rows = m.figure_rows();
        assert!(rows.iter().all(|(t, _)| *t >= 7200));
        assert_eq!(rows.iter().map(|(_, c)| *c).sum::<u64>(), 1);
    }
}
