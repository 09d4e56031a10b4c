//! The gateway ladder: the throttling policy itself.
//!
//! The ladder is a pure, non-blocking state machine. Callers report a
//! compilation's current memory; the ladder answers *proceed*, *wait at
//! gateway k (with this timeout)*, or *finish with the best plan so far*.
//! How the wait is realised — a blocked thread
//! ([`crate::threaded::ThreadedThrottle`]) or a virtual-time event in the
//! discrete-event engine — is the caller's business, which is what lets the
//! figure-scale experiments and the real threaded deployment share exactly
//! the same policy code.

use crate::config::ThrottleConfig;
use crate::dynamic::DynamicThresholds;
use crate::stats::ThrottleStats;
use serde::{Deserialize, Serialize};
use throttledb_governor::{AdmissionDecision, PoolTag, ResourcePool};
use throttledb_sim::{SimDuration, SimTime, Slab, SlotRef};

/// Identifies one compilation task registered with the ladder: a packed
/// [`SlotRef`] into the ladder's task slab, so a finished task's id goes
/// stale instead of naming the task that reuses its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u64);

impl TaskId {
    fn slot_ref(self) -> SlotRef {
        SlotRef::from_bits(self.0)
    }
}

impl PoolTag for TaskId {
    fn slot(self) -> usize {
        self.slot_ref().index()
    }
}

/// The ladder's answer to a memory report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderDecision {
    /// Keep compiling.
    Proceed,
    /// The compilation must wait for gateway `level`; if it is still waiting
    /// after `timeout` it should be aborted with a timeout error.
    Wait {
        /// The gateway level being waited for (0-based).
        level: usize,
        /// That gateway's timeout.
        timeout: SimDuration,
    },
    /// The compilation should stop exploring and return the best plan found
    /// so far (§4.1: predicted memory exhaustion).
    FinishBestEffort,
}

impl LadderDecision {
    /// Translate into the resource-governor layer's common
    /// [`AdmissionDecision`] vocabulary: *proceed* is a (single-slot)
    /// admission, *wait* carries an absolute deadline derived from the
    /// gateway timeout, and *finish best-effort* is a degraded admission —
    /// the compilation continues, but with reduced service.
    pub fn admission(self, now: SimTime) -> throttledb_governor::AdmissionDecision {
        match self {
            LadderDecision::Proceed => throttledb_governor::AdmissionDecision::Admit { units: 1 },
            LadderDecision::Wait { timeout, .. } => throttledb_governor::AdmissionDecision::Wait {
                deadline: now.saturating_add(timeout),
            },
            LadderDecision::FinishBestEffort => {
                throttledb_governor::AdmissionDecision::Degrade { units: 1 }
            }
        }
    }
}

impl From<LadderDecision> for throttledb_governor::PolicyDecision {
    fn from(d: LadderDecision) -> Self {
        match d {
            LadderDecision::Proceed => throttledb_governor::PolicyDecision::Proceed,
            LadderDecision::Wait { level, timeout } => {
                throttledb_governor::PolicyDecision::Wait { level, timeout }
            }
            LadderDecision::FinishBestEffort => {
                throttledb_governor::PolicyDecision::FinishBestEffort
            }
        }
    }
}

#[derive(Debug, Clone, Default)]
struct TaskState {
    bytes: u64,
    /// Gateways `0..held` are currently held.
    held: usize,
    /// Level currently queued at, if any.
    waiting_at: Option<usize>,
    /// When the current wait started.
    wait_started: Option<SimTime>,
    /// Set once the task has been told to finish best-effort.
    best_effort: bool,
}

/// The ordered set of memory-monitor gateways plus per-task state.
///
/// Each gateway is a counting semaphore: a [`ResourcePool`] of unit
/// requests whose budget is the gateway's concurrency limit, with
/// `min_fraction = 1.0` so a slot is all or nothing.
#[derive(Debug)]
pub struct GatewayLadder {
    config: ThrottleConfig,
    gateways: Vec<ResourcePool<TaskId>>,
    tasks: Slab<TaskState>,
    compilation_target: Option<u64>,
    stats: ThrottleStats,
    /// Reused buffer the gateways append their admissions to, so a
    /// release allocates nothing.
    admitted: Vec<(TaskId, AdmissionDecision)>,
    /// `category_counts()`, kept up to date on every change of a task's
    /// held count so a report need not walk `tasks`.
    counts: Vec<usize>,
    /// Reused buffer for the effective thresholds of a report.
    thresholds: Vec<u64>,
}

impl GatewayLadder {
    /// Build a ladder from a configuration.
    pub fn new(config: ThrottleConfig) -> Self {
        config.validate();
        let gateways = config
            .monitors
            .iter()
            .map(|m| ResourcePool::new("gateway", m.concurrency.resolve(config.cpus).into(), 1.0))
            .collect();
        let stats = ThrottleStats::new(config.monitor_count());
        let counts = vec![0; config.monitor_count() + 1];
        GatewayLadder {
            config,
            gateways,
            tasks: Slab::new(),
            compilation_target: None,
            stats,
            admitted: Vec::new(),
            counts,
            thresholds: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ThrottleConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ThrottleStats {
        &self.stats
    }

    /// Number of live (registered, unfinished) compilations.
    pub fn active_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of holders of gateway `level`.
    pub fn holders_at(&self, level: usize) -> u32 {
        self.gateways[level].in_use() as u32
    }

    /// Number of compilations queued at gateway `level`.
    pub fn waiting_at(&self, level: usize) -> usize {
        self.gateways[level].queued_len()
    }

    /// Install (or clear) the broker's compilation-memory target used by the
    /// dynamic thresholds. The engine refreshes this after every broker
    /// recalculation.
    pub fn set_compilation_target(&mut self, target: Option<u64>) {
        self.compilation_target = target;
    }

    /// The currently effective thresholds (static, or dynamic under a target).
    pub fn effective_thresholds(&self) -> Vec<u64> {
        DynamicThresholds::effective(
            &self.config,
            self.compilation_target,
            &self.category_counts(),
        )
    }

    /// Number of active compilations per category (holding exactly `k`
    /// gateways).
    pub fn category_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.config.monitor_count() + 1];
        for t in self.tasks.values() {
            counts[t.held] += 1;
        }
        counts
    }

    /// Register a new compilation and return its task id.
    pub fn begin_task(&mut self) -> TaskId {
        let id = TaskId(self.tasks.insert(TaskState::default()).to_bits());
        self.counts[0] += 1;
        self.check_counts();
        self.stats.compilations_started += 1;
        id
    }

    /// Report the compilation's current allocated bytes and get a decision.
    ///
    /// Callers must re-invoke this after being resumed from a wait (the
    /// ladder may require the next gateway immediately).
    pub fn report_memory(&mut self, task: TaskId, bytes: u64, now: SimTime) -> LadderDecision {
        if !self.config.enabled {
            return LadderDecision::Proceed;
        }
        DynamicThresholds::effective_into(
            &self.config,
            self.compilation_target,
            &self.counts,
            &mut self.thresholds,
        );
        let Some(state) = self.tasks.get_mut(task.slot_ref()) else {
            // Unknown task: treat as unthrottled rather than panic, matching
            // the robustness stance of a production gate.
            return LadderDecision::Proceed;
        };
        state.bytes = bytes;

        // Small diagnostic queries never touch the ladder.
        if bytes <= self.config.exempt_bytes {
            return LadderDecision::Proceed;
        }

        // §4.1 extension 2: predicted memory exhaustion -> best-effort plan.
        if self.config.best_effort_plans && !state.best_effort {
            if let Some(target) = self.compilation_target {
                let limit = (target as f64 * self.config.best_effort_fraction) as u64;
                if bytes > limit.max(self.config.monitors[0].threshold_bytes) {
                    state.best_effort = true;
                    self.stats.best_effort_completions += 1;
                    return LadderDecision::FinishBestEffort;
                }
            }
        }

        // How many gateways should this compilation hold now?
        let required = self.thresholds.iter().filter(|t| bytes > **t).count();

        // Climb the ladder one gateway at a time.
        let slot = task.slot_ref();
        while {
            let held = self.tasks.get(slot).expect("task exists").held;
            held < required
        } {
            let state = self.tasks.get(slot).expect("task exists");
            let level = state.held;
            let timeout = self.config.monitors[level].timeout;
            // Re-asked while still queued here: keep its place in line.
            if state.waiting_at == Some(level) {
                return LadderDecision::Wait { level, timeout };
            }
            let decision = self.gateways[level].request(task, 1, now, now.saturating_add(timeout));
            let state = self.tasks.get_mut(slot).expect("task exists");
            if decision.admitted() {
                state.held = level + 1;
                self.counts[level] -= 1;
                self.counts[level + 1] += 1;
                self.check_counts();
                self.stats.acquisitions[level] += 1;
            } else {
                state.waiting_at = Some(level);
                state.wait_started = Some(now);
                self.stats.waits[level] += 1;
                return LadderDecision::Wait { level, timeout };
            }
        }
        LadderDecision::Proceed
    }

    /// A waiting compilation gave up (its gateway timeout expired). The
    /// caller should abort the compilation and then call
    /// [`GatewayLadder::finish_task`] to release whatever it already held.
    pub fn timeout_task(&mut self, task: TaskId, now: SimTime) {
        if let Some(state) = self.tasks.get_mut(task.slot_ref()) {
            if let Some(level) = state.waiting_at.take() {
                // Everyone behind a waiter that did not fit needs a slot
                // too, so leaving the queue never admits anyone.
                self.admitted.clear();
                self.gateways[level].cancel(task, now, &mut self.admitted);
                debug_assert!(self.admitted.is_empty(), "a unit-request cancel admitted");
                if let Some(started) = state.wait_started.take() {
                    self.stats.record_wait(level, now.saturating_since(started));
                }
                self.stats.timeouts += 1;
            }
        }
    }

    /// The compilation finished (successfully, best-effort, aborted or timed
    /// out): release every gateway it holds, in reverse order, and drop it.
    ///
    /// Returns the tasks that were admitted to a gateway as a result — the
    /// caller must resume them (unblock the thread / schedule the event) and
    /// have them re-report their memory.
    pub fn finish_task(&mut self, task: TaskId, now: SimTime) -> Vec<TaskId> {
        let mut admitted = Vec::new();
        self.finish_task_into(task, now, &mut admitted);
        admitted
    }

    /// Allocation-free variant of [`GatewayLadder::finish_task`]: admitted
    /// tasks are appended to `out` (existing contents untouched), so the
    /// engine can recycle one scratch buffer across every release instead
    /// of allocating a vector per completed query.
    pub fn finish_task_into(&mut self, task: TaskId, now: SimTime, out: &mut Vec<TaskId>) {
        self.finish(task, now);
        out.extend(self.admitted.iter().map(|&(t, _)| t));
    }

    /// Drop `task`, releasing its gateways in reverse order; the tasks this
    /// admits are left in `self.admitted`.
    fn finish(&mut self, task: TaskId, now: SimTime) {
        self.admitted.clear();
        let Some(state) = self.tasks.remove(task.slot_ref()) else {
            return;
        };
        self.counts[state.held] -= 1;
        self.stats.compilations_finished += 1;
        if state.bytes <= self.config.exempt_bytes {
            self.stats.exempt_compilations += 1;
        }
        // If it was still queued somewhere, leave the queue.
        if let Some(level) = state.waiting_at {
            self.gateways[level].cancel(task, now, &mut self.admitted);
        }
        // Release held gateways in reverse acquisition order.
        for level in (0..state.held).rev() {
            self.gateways[level].release_into(task, now, &mut self.admitted);
        }
        // Update the state of every newly admitted task.
        for &(resumed, _) in &self.admitted {
            if let Some(s) = self.tasks.get_mut(resumed.slot_ref()) {
                let level = s.waiting_at.take().unwrap_or(s.held);
                if let Some(started) = s.wait_started.take() {
                    self.stats.record_wait(level, now.saturating_since(started));
                }
                let held = s.held.max(level + 1);
                self.counts[s.held] -= 1;
                self.counts[held] += 1;
                s.held = held;
                self.stats.acquisitions[level] += 1;
            }
        }
        self.check_counts();
    }

    /// Debug builds: the incremental counts equal a full recount
    /// ([`GatewayLadder::category_counts`], done without allocating).
    fn check_counts(&self) {
        if cfg!(debug_assertions) {
            for (held, &count) in self.counts.iter().enumerate() {
                let recount = self.tasks.values().filter(|t| t.held == held).count();
                assert_eq!(count, recount, "category {held} count drifted");
            }
        }
    }
}

/// The paper's ladder as a pluggable [`Policy`](throttledb_governor::Policy):
/// the baseline every rival policy is measured against. Each trait call maps
/// 1:1 onto the corresponding inherent method (with bare `u64` ids wrapped
/// into [`TaskId`]), so a ladder driven through the trait behaves — and
/// traces — byte-identically to one driven directly.
impl throttledb_governor::Policy for GatewayLadder {
    fn name(&self) -> &'static str {
        "ladder"
    }

    fn begin(&mut self) -> u64 {
        self.begin_task().0
    }

    fn report(
        &mut self,
        task: u64,
        bytes: u64,
        _signals: &throttledb_governor::PolicySignals,
        now: SimTime,
    ) -> throttledb_governor::PolicyDecision {
        self.report_memory(TaskId(task), bytes, now).into()
    }

    fn timeout(&mut self, task: u64, now: SimTime) {
        self.timeout_task(TaskId(task), now);
    }

    fn finish_into(&mut self, task: u64, now: SimTime, resumed: &mut Vec<u64>) {
        self.finish(TaskId(task), now);
        resumed.extend(self.admitted.iter().map(|&(t, _)| t.0));
    }

    fn tick(
        &mut self,
        _now: SimTime,
        compile_target: Option<u64>,
        _pressure: f64,
        _resumed: &mut Vec<u64>,
    ) {
        self.set_compilation_target(compile_target);
    }

    fn stats(&self) -> &ThrottleStats {
        &self.stats
    }

    fn active(&self) -> usize {
        self.tasks.len()
    }

    fn waiting(&self) -> usize {
        self.gateways.iter().map(|g| g.queued_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Concurrency;

    const MB: u64 = 1 << 20;

    /// A small ladder (1 CPU) so concurrency limits are easy to hit:
    /// capacities 4 / 1 / 1, thresholds 2 MB / 24 MB / 120 MB.
    fn small_ladder() -> GatewayLadder {
        GatewayLadder::new(ThrottleConfig::for_cpus(1))
    }

    fn now(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn disabled_ladder_never_blocks() {
        let mut l = GatewayLadder::new(ThrottleConfig::disabled(1));
        let tasks: Vec<TaskId> = (0..50).map(|_| l.begin_task()).collect();
        for t in &tasks {
            assert_eq!(
                l.report_memory(*t, 500 * MB, now(0)),
                LadderDecision::Proceed
            );
        }
    }

    #[test]
    fn small_queries_are_exempt() {
        let mut l = small_ladder();
        let t = l.begin_task();
        assert_eq!(l.report_memory(t, MB, now(0)), LadderDecision::Proceed);
        assert_eq!(
            l.holders_at(0),
            0,
            "no gateway acquired below the exemption floor"
        );
        l.finish_task(t, now(1));
        assert_eq!(l.stats().exempt_compilations, 1);
    }

    #[test]
    fn growing_memory_climbs_the_ladder_in_order() {
        let mut l = small_ladder();
        let t = l.begin_task();
        assert_eq!(l.report_memory(t, 3 * MB, now(0)), LadderDecision::Proceed);
        assert_eq!(l.holders_at(0), 1);
        assert_eq!(l.holders_at(1), 0);
        assert_eq!(l.report_memory(t, 30 * MB, now(1)), LadderDecision::Proceed);
        assert_eq!(l.holders_at(1), 1);
        assert_eq!(
            l.report_memory(t, 200 * MB, now(2)),
            LadderDecision::Proceed
        );
        assert_eq!(l.holders_at(2), 1);
        // Finishing releases everything.
        l.finish_task(t, now(3));
        assert_eq!(l.holders_at(0), 0);
        assert_eq!(l.holders_at(1), 0);
        assert_eq!(l.holders_at(2), 0);
    }

    #[test]
    fn fifth_small_compilation_waits_on_one_cpu() {
        let mut l = small_ladder();
        let tasks: Vec<TaskId> = (0..5).map(|_| l.begin_task()).collect();
        for t in &tasks[..4] {
            assert_eq!(l.report_memory(*t, 5 * MB, now(0)), LadderDecision::Proceed);
        }
        match l.report_memory(tasks[4], 5 * MB, now(1)) {
            LadderDecision::Wait { level, timeout } => {
                assert_eq!(level, 0);
                assert_eq!(timeout, l.config().monitors[0].timeout);
            }
            other => panic!("expected a wait, got {other:?}"),
        }
        assert_eq!(l.waiting_at(0), 1);
        // When one of the holders finishes, the waiter is admitted.
        let resumed = l.finish_task(tasks[0], now(10));
        assert_eq!(resumed, vec![tasks[4]]);
        assert_eq!(
            l.report_memory(tasks[4], 5 * MB, now(10)),
            LadderDecision::Proceed
        );
        assert!(l.stats().total_wait[0] >= SimDuration::from_secs(9));
    }

    #[test]
    fn big_gateway_serializes_the_largest_compilations() {
        let mut l = small_ladder();
        let a = l.begin_task();
        let b = l.begin_task();
        assert_eq!(
            l.report_memory(a, 200 * MB, now(0)),
            LadderDecision::Proceed
        );
        // The second giant blocks at the big gateway (level 2)... but first it
        // must pass levels 0 and 1, which it can (capacity 4 and 1 — level 1
        // has capacity 1 and is held by `a`, so it actually blocks there).
        match l.report_memory(b, 200 * MB, now(0)) {
            LadderDecision::Wait { level, .. } => assert!(level == 1 || level == 2),
            other => panic!("expected a wait, got {other:?}"),
        }
        let resumed = l.finish_task(a, now(5));
        assert_eq!(resumed, vec![b]);
        assert_eq!(
            l.report_memory(b, 200 * MB, now(5)),
            LadderDecision::Proceed
        );
    }

    #[test]
    fn waiters_do_not_lose_already_held_gateways() {
        let mut l = small_ladder();
        let a = l.begin_task();
        let b = l.begin_task();
        assert_eq!(l.report_memory(a, 30 * MB, now(0)), LadderDecision::Proceed);
        // b passes level 0 but blocks at level 1 (capacity 1).
        assert!(matches!(
            l.report_memory(b, 30 * MB, now(0)),
            LadderDecision::Wait { level: 1, .. }
        ));
        assert_eq!(
            l.holders_at(0),
            2,
            "b keeps holding the small gateway while queued"
        );
        assert_eq!(l.waiting_at(1), 1);
    }

    #[test]
    fn rereporting_while_queued_keeps_its_place() {
        let mut l = small_ladder();
        let a = l.begin_task();
        let b = l.begin_task();
        let c = l.begin_task();
        l.report_memory(a, 30 * MB, now(0));
        for (t, at) in [(b, 1), (c, 2)] {
            assert!(matches!(
                l.report_memory(t, 30 * MB, now(at)),
                LadderDecision::Wait { level: 1, .. }
            ));
        }
        // b asks again without being resumed: the same wait, neither a
        // second queue entry nor a second counted wait.
        assert!(matches!(
            l.report_memory(b, 31 * MB, now(3)),
            LadderDecision::Wait { level: 1, .. }
        ));
        assert_eq!(l.waiting_at(1), 2);
        assert_eq!(l.stats().waits[1], 2);
        assert_eq!(l.finish_task(a, now(4)), vec![b]);
    }

    #[test]
    fn timeout_cancels_the_wait_and_counts() {
        let mut l = small_ladder();
        let a = l.begin_task();
        let b = l.begin_task();
        l.report_memory(a, 30 * MB, now(0));
        assert!(matches!(
            l.report_memory(b, 30 * MB, now(0)),
            LadderDecision::Wait { .. }
        ));
        l.timeout_task(b, now(301));
        l.finish_task(b, now(301));
        assert_eq!(l.stats().timeouts, 1);
        assert_eq!(l.waiting_at(1), 0);
        // a is unaffected.
        assert_eq!(
            l.report_memory(a, 31 * MB, now(302)),
            LadderDecision::Proceed
        );
    }

    #[test]
    fn dynamic_target_triggers_best_effort() {
        let mut l = small_ladder();
        // The broker says compilation may only use 40 MB in total.
        l.set_compilation_target(Some(40 * MB));
        let t = l.begin_task();
        assert_eq!(l.report_memory(t, 10 * MB, now(0)), LadderDecision::Proceed);
        // best_effort_fraction = 0.5 -> limit 20 MB.
        assert_eq!(
            l.report_memory(t, 25 * MB, now(1)),
            LadderDecision::FinishBestEffort
        );
        // The directive is delivered once; afterwards the task proceeds to wrap up.
        assert_eq!(l.report_memory(t, 26 * MB, now(2)), LadderDecision::Proceed);
        assert_eq!(l.stats().best_effort_completions, 1);
    }

    #[test]
    fn dynamic_threshold_pushes_hogs_into_higher_category() {
        let mut l = small_ladder();
        // Static medium threshold is 24 MB. With a 40 MB target and three
        // active small compilations, the dynamic medium threshold drops to
        // 40 * 0.45 / 3 = 6 MB.
        let tasks: Vec<TaskId> = (0..3).map(|_| l.begin_task()).collect();
        for t in &tasks {
            l.report_memory(*t, 3 * MB, now(0));
        }
        l.set_compilation_target(Some(40 * MB));
        let thresholds = l.effective_thresholds();
        assert!(
            thresholds[1] < 24 * MB,
            "medium threshold should drop under pressure: {}",
            thresholds[1]
        );
        // A 10 MB compilation now needs the medium gateway even though it is
        // below the static 24 MB threshold.
        let hog = l.begin_task();
        l.report_memory(hog, 10 * MB, now(1));
        assert_eq!(l.holders_at(1), 1);
    }

    #[test]
    fn category_counts_track_held_levels() {
        let mut l = small_ladder();
        let a = l.begin_task();
        let b = l.begin_task();
        let c = l.begin_task();
        l.report_memory(a, MB, now(0)); // exempt -> category 0
        l.report_memory(b, 5 * MB, now(0)); // small gateway -> category 1
        l.report_memory(c, 30 * MB, now(0)); // medium gateway -> category 2
        let counts = l.category_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(l.active_tasks(), 3);
    }

    #[test]
    fn finish_is_idempotent_and_unknown_tasks_are_tolerated() {
        let mut l = small_ladder();
        let t = l.begin_task();
        l.report_memory(t, 5 * MB, now(0));
        assert!(l.finish_task(t, now(1)).is_empty());
        assert!(l.finish_task(t, now(2)).is_empty());
        assert_eq!(
            l.report_memory(TaskId(999), 500 * MB, now(3)),
            LadderDecision::Proceed
        );
        // A stale id whose slot a live task now reuses finishes nothing:
        // that task keeps the one-holder gateway 1, so the next waits.
        let u = l.begin_task();
        assert_eq!(u.slot_ref().index(), t.slot_ref().index());
        assert_eq!(l.report_memory(u, 30 * MB, now(4)), LadderDecision::Proceed);
        assert!(l.finish_task(t, now(5)).is_empty());
        assert_eq!((l.active_tasks(), l.holders_at(1)), (1, 1));
        let v = l.begin_task();
        assert!(matches!(
            l.report_memory(v, 30 * MB, now(6)),
            LadderDecision::Wait { level: 1, .. }
        ));
    }

    #[test]
    fn eight_cpu_paper_config_allows_32_small_compilations() {
        let mut l = GatewayLadder::new(ThrottleConfig::paper_machine());
        let tasks: Vec<TaskId> = (0..33).map(|_| l.begin_task()).collect();
        let mut waited = 0;
        for t in &tasks {
            if matches!(
                l.report_memory(*t, 5 * MB, now(0)),
                LadderDecision::Wait { .. }
            ) {
                waited += 1;
            }
        }
        assert_eq!(waited, 1, "exactly the 33rd compilation must wait");
        assert_eq!(l.holders_at(0), 32);
    }

    #[test]
    fn decisions_translate_into_the_governor_vocabulary() {
        use throttledb_governor::AdmissionDecision;
        let at = now(10);
        assert_eq!(
            LadderDecision::Proceed.admission(at),
            AdmissionDecision::Admit { units: 1 }
        );
        assert_eq!(
            LadderDecision::FinishBestEffort.admission(at),
            AdmissionDecision::Degrade { units: 1 }
        );
        let wait = LadderDecision::Wait {
            level: 1,
            timeout: SimDuration::from_secs(300),
        };
        assert_eq!(
            wait.admission(at),
            AdmissionDecision::Wait { deadline: now(310) }
        );
    }

    #[test]
    fn waits_populate_the_per_gateway_histograms() {
        let mut l = small_ladder();
        let a = l.begin_task();
        let b = l.begin_task();
        l.report_memory(a, 30 * MB, now(0));
        assert!(matches!(
            l.report_memory(b, 30 * MB, now(0)),
            LadderDecision::Wait { level: 1, .. }
        ));
        l.finish_task(a, now(9));
        let summary = l.stats().wait_summary(1);
        assert_eq!(summary.count, 1);
        assert!(summary.min >= 8_000_000, "waited ~9 s: {summary:?}");
        assert_eq!(l.stats().wait_summary(0).count, 0);
    }

    #[test]
    fn policy_trait_drives_the_ladder_identically() {
        use throttledb_governor::{Policy, PolicyDecision, PolicySignals};
        let mut direct = small_ladder();
        let mut boxed: Box<dyn Policy> = Box::new(small_ladder());
        assert_eq!(boxed.name(), "ladder");
        let signals = PolicySignals::default();
        let mut ids = Vec::new();
        for _ in 0..5 {
            let d = direct.begin_task();
            let p = boxed.begin();
            assert_eq!(d.0, p);
            ids.push(d);
        }
        for (i, &t) in ids.iter().enumerate() {
            let want: PolicyDecision = direct.report_memory(t, 5 * MB, now(i as u64)).into();
            let got = boxed.report(t.0, 5 * MB, &signals, now(i as u64));
            assert_eq!(got, want);
        }
        assert_eq!(boxed.active(), direct.active_tasks());
        assert_eq!(boxed.waiting(), 1);
        let mut via_trait = Vec::new();
        boxed.finish_into(ids[0].0, now(10), &mut via_trait);
        let via_direct = direct.finish_task(ids[0], now(10));
        assert_eq!(
            via_trait,
            via_direct.iter().map(|t| t.0).collect::<Vec<u64>>()
        );
        assert_eq!(boxed.stats(), direct.stats());
        // tick installs the compilation target without resuming anyone.
        boxed.tick(now(11), Some(40 * MB), 1.0, &mut via_trait);
        direct.set_compilation_target(Some(40 * MB));
        let t = ids[1];
        assert_eq!(
            boxed.report(t.0, 25 * MB, &signals, now(12)),
            direct.report_memory(t, 25 * MB, now(12)).into()
        );
    }

    #[test]
    fn per_cpu_scaling_with_custom_monitor_set() {
        // Two-monitor ladder used by the ablation bench.
        let mut cfg = ThrottleConfig::for_cpus(2);
        cfg.monitors.truncate(2);
        cfg.monitors[1].concurrency = Concurrency::Global(1);
        let mut l = GatewayLadder::new(cfg);
        let a = l.begin_task();
        let b = l.begin_task();
        assert_eq!(
            l.report_memory(a, 100 * MB, now(0)),
            LadderDecision::Proceed
        );
        assert!(matches!(
            l.report_memory(b, 100 * MB, now(0)),
            LadderDecision::Wait { level: 1, .. }
        ));
    }
}
