//! Pluggable admission policies for compilation memory.
//!
//! The paper's contribution is one specific admission policy — the static
//! gateway ladder of §4 — but evaluating it requires rivals to compare
//! against. [`Policy`] is the seam that makes the engine policy-agnostic:
//! the compile stage reports each compilation's memory growth to *a*
//! policy and acts on its [`PolicyDecision`]; which policy answers is
//! chosen per run.
//!
//! Three implementations ship with the workspace:
//!
//! * the paper's ladder (`GatewayLadder` in `throttledb-core` implements
//!   this trait directly, so the baseline runs byte-identically to the
//!   pre-trait engine);
//! * [`PidPolicy`] — a PID feedback controller that servos a concurrency
//!   limit on the broker's predicted memory pressure, admitting through a
//!   unit-request [`ResourcePool`] whose budget is that limit;
//! * [`CostPolicy`] — a cost-based planner that reserves each template's
//!   profiled peak compilation bytes against the broker's compilation
//!   target before admitting.
//!
//! Task identifiers are bare `u64`s at this layer: each policy mints them
//! from its task [`Slab`], so an id is a packed [`SlotRef`] and a finished
//! task's id goes stale rather than naming its successor. `throttledb-core`
//! wraps them in its `TaskId` newtype.

use crate::decision::AdmissionDecision;
use crate::pool::ResourcePool;
use crate::stats::ThrottleStats;
use std::collections::VecDeque;
use throttledb_sim::{SimDuration, SimTime, Slab, SlotRef};

/// Per-query hints a policy may consult when deciding admission. The
/// engine fills these from the template's compile profile (the same
/// profiles the workload model draws from), so a cost-based policy can
/// reserve a compilation's expected peak before it happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicySignals {
    /// Profiled peak compilation memory of this query's template, bytes.
    pub estimated_peak_bytes: u64,
    /// Profiled compilation CPU cost, seconds.
    pub estimated_cpu_seconds: f64,
}

/// A policy's answer to a memory report — the same vocabulary as the
/// core crate's `LadderDecision`, lifted to the governor layer so every
/// policy can speak it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyDecision {
    /// Keep compiling.
    Proceed,
    /// Wait at admission `level`; abort on expiry of `timeout`.
    Wait {
        /// Level being waited at (gateway index for the ladder, 0 for the
        /// single-queue policies).
        level: usize,
        /// How long the caller may wait before timing out.
        timeout: SimDuration,
    },
    /// Stop exploring and return the best plan found so far.
    FinishBestEffort,
}

/// A pluggable compilation-admission policy.
///
/// The engine drives every policy through the same five-call protocol the
/// gateway ladder defined: `begin` registers a compilation, `report` is
/// invoked after every memory-growth step, `timeout` cancels an expired
/// wait, `finish_into` releases the task and returns resumed waiters, and
/// `tick` delivers the broker's periodic budget/pressure refresh (which
/// may also resume waiters).
pub trait Policy: std::fmt::Debug + Send {
    /// Short static name ("ladder", "pid", "cost").
    fn name(&self) -> &'static str;

    /// Register a new compilation and return its task id.
    fn begin(&mut self) -> u64;

    /// Report the compilation's current allocated bytes and get a decision.
    /// Callers must re-invoke this after being resumed from a wait.
    fn report(
        &mut self,
        task: u64,
        bytes: u64,
        signals: &PolicySignals,
        now: SimTime,
    ) -> PolicyDecision;

    /// A waiting compilation gave up (its wait timeout expired). The caller
    /// should abort the compilation and then call
    /// [`Policy::finish_into`] to release whatever it already held.
    fn timeout(&mut self, task: u64, now: SimTime);

    /// The compilation finished (successfully, best-effort, aborted or
    /// timed out): release everything it holds and drop it. Tasks admitted
    /// as a result are appended to `resumed`; the caller must resume them
    /// and have them re-report their memory.
    fn finish_into(&mut self, task: u64, now: SimTime, resumed: &mut Vec<u64>);

    /// Broker refresh: the current compilation-memory target (None when
    /// unconstrained) and the predicted pressure on that target
    /// (`predicted bytes / target`, so 1.0 means "exactly at target").
    /// Tasks admitted by a loosened policy are appended to `resumed`.
    fn tick(
        &mut self,
        now: SimTime,
        compile_target: Option<u64>,
        pressure: f64,
        resumed: &mut Vec<u64>,
    );

    /// Statistics so far.
    fn stats(&self) -> &ThrottleStats;

    /// Number of live (registered, unfinished) compilations.
    fn active(&self) -> usize;

    /// Number of compilations currently blocked waiting for admission.
    fn waiting(&self) -> usize;
}

/// Per-task state shared by the two single-queue policies.
#[derive(Debug, Clone, Copy, Default)]
struct QueuedTask {
    /// Last reported allocation.
    bytes: u64,
    /// Bytes reserved against the budget ([`CostPolicy`] only).
    reservation: u64,
    /// Peak-byte estimate captured when the task first contended.
    want: u64,
    admitted: bool,
    /// Queued for admission ([`CostPolicy`] only: for [`PidPolicy`] a set
    /// `wait_started` is the flag).
    waiting: bool,
    wait_started: Option<SimTime>,
    best_effort: bool,
}

/// A PID feedback controller servoing a compilation-concurrency limit.
///
/// The measured variable is the broker's *predicted* compilation-memory
/// pressure (trend-extrapolated usage over the target); the setpoint is
/// 1.0. Headroom raises the limit, overshoot lowers it, and the limit is
/// the budget of a pool of unit slots, so its FIFO queue admits waiters
/// whenever the limit opens up or a slot is released. The
/// integral term only winds while there is either overshoot or a
/// non-empty queue, so an idle system does not accumulate correction.
#[derive(Debug)]
pub struct PidPolicy {
    exempt_bytes: u64,
    wait_timeout: SimDuration,
    min_limit: f64,
    max_limit: f64,
    kp: f64,
    ki: f64,
    kd: f64,
    base_limit: f64,
    integral: f64,
    last_error: f64,
    last_tick: Option<SimTime>,
    limit: f64,
    tasks: Slab<QueuedTask>,
    slots: ResourcePool<u64>,
    /// Reused buffer the slot pool appends its admissions to.
    admitted: Vec<(u64, AdmissionDecision)>,
    stats: ThrottleStats,
}

impl PidPolicy {
    /// Controller for a machine with `cpus` CPUs. The limit starts at the
    /// paper ladder's small-gateway capacity (4 per CPU) and may range
    /// from 1 to 8 per CPU.
    pub fn new(cpus: u32, exempt_bytes: u64, wait_timeout: SimDuration) -> Self {
        let base = (4 * cpus.max(1)) as f64;
        PidPolicy {
            exempt_bytes,
            wait_timeout,
            min_limit: 1.0,
            max_limit: 2.0 * base,
            kp: base / 2.0,
            ki: base / 8.0,
            kd: base / 16.0,
            base_limit: base,
            integral: 0.0,
            last_error: 0.0,
            last_tick: None,
            limit: base,
            tasks: Slab::new(),
            slots: ResourcePool::new("pid-slots", base as u64, 1.0),
            admitted: Vec::new(),
            stats: ThrottleStats::new(1),
        }
    }

    /// The current concurrency limit (whole admissions).
    pub fn limit(&self) -> usize {
        self.limit.floor().max(1.0) as usize
    }

    fn admit(&mut self, task: u64, now: SimTime) {
        let state = self
            .tasks
            .get_mut(SlotRef::from_bits(task))
            .expect("task exists");
        if let Some(started) = state.wait_started.take() {
            self.stats.record_wait(0, now.saturating_since(started));
        }
        state.admitted = true;
        self.stats.acquisitions[0] += 1;
    }

    /// Admit (and resume) everyone the slot pool just let in.
    fn resume_admitted(&mut self, now: SimTime, resumed: &mut Vec<u64>) {
        let admitted = std::mem::take(&mut self.admitted);
        for &(task, _) in &admitted {
            self.admit(task, now);
            resumed.push(task);
        }
        self.admitted = admitted;
    }
}

impl Policy for PidPolicy {
    fn name(&self) -> &'static str {
        "pid"
    }

    fn begin(&mut self) -> u64 {
        self.stats.compilations_started += 1;
        self.tasks.insert(QueuedTask::default()).to_bits()
    }

    fn report(
        &mut self,
        task: u64,
        bytes: u64,
        _signals: &PolicySignals,
        now: SimTime,
    ) -> PolicyDecision {
        let Some(state) = self.tasks.get_mut(SlotRef::from_bits(task)) else {
            return PolicyDecision::Proceed;
        };
        state.bytes = bytes;
        if state.admitted || bytes <= self.exempt_bytes {
            return PolicyDecision::Proceed;
        }
        if state.wait_started.is_some() {
            // Still queued; the caller re-asked without being resumed.
            return PolicyDecision::Wait {
                level: 0,
                timeout: self.wait_timeout,
            };
        }
        let deadline = now.saturating_add(self.wait_timeout);
        if self.slots.request(task, 1, now, deadline).admitted() {
            self.admit(task, now);
            return PolicyDecision::Proceed;
        }
        state.wait_started = Some(now);
        self.stats.waits[0] += 1;
        PolicyDecision::Wait {
            level: 0,
            timeout: self.wait_timeout,
        }
    }

    fn timeout(&mut self, task: u64, now: SimTime) {
        if let Some(state) = self.tasks.get_mut(SlotRef::from_bits(task)) {
            if let Some(started) = state.wait_started.take() {
                self.stats.record_wait(0, now.saturating_since(started));
                self.stats.timeouts += 1;
                // Everyone behind a waiter that did not fit needs a slot
                // too, so leaving the queue never admits anyone.
                self.admitted.clear();
                self.slots.cancel(task, now, &mut self.admitted);
                debug_assert!(self.admitted.is_empty(), "a unit-request cancel admitted");
            }
        }
    }

    fn finish_into(&mut self, task: u64, now: SimTime, resumed: &mut Vec<u64>) {
        let Some(state) = self.tasks.remove(SlotRef::from_bits(task)) else {
            return;
        };
        self.stats.compilations_finished += 1;
        if state.bytes <= self.exempt_bytes {
            self.stats.exempt_compilations += 1;
        }
        if let Some(started) = state.wait_started {
            self.stats.record_wait(0, now.saturating_since(started));
        }
        self.admitted.clear();
        self.slots.release_into(task, now, &mut self.admitted);
        self.resume_admitted(now, resumed);
    }

    fn tick(
        &mut self,
        now: SimTime,
        _compile_target: Option<u64>,
        pressure: f64,
        resumed: &mut Vec<u64>,
    ) {
        let error = 1.0 - pressure;
        let dt = match self.last_tick {
            Some(t) => now.saturating_since(t).as_micros() as f64 / 1e6,
            None => 0.0,
        };
        self.last_tick = Some(now);
        if dt > 0.0 {
            // Anti-windup: integrate while the correction can act —
            // overshoot always, headroom while someone is waiting — and let
            // waiter-less headroom only unwind leftover negative correction
            // (never accumulate positive credit an idle system can't use).
            let waiting = self.slots.queued_len() > 0;
            if error < 0.0 || waiting || self.integral < 0.0 {
                let cap = self.base_limit / self.ki.max(1e-9);
                let mut next = (self.integral + error * dt).clamp(-cap, cap);
                if error > 0.0 && !waiting {
                    next = next.min(0.0);
                }
                self.integral = next;
            }
            let derivative = (error - self.last_error) / dt;
            self.limit = (self.base_limit
                + self.kp * error
                + self.ki * self.integral
                + self.kd * derivative)
                .clamp(self.min_limit, self.max_limit);
        }
        self.last_error = error;
        self.admitted.clear();
        self.slots
            .set_budget(self.limit() as u64, now, &mut self.admitted);
        self.resume_admitted(now, resumed);
    }

    fn stats(&self) -> &ThrottleStats {
        &self.stats
    }

    fn active(&self) -> usize {
        self.tasks.len()
    }

    fn waiting(&self) -> usize {
        self.slots.queued_len()
    }
}

/// A cost-based admission planner keyed on per-template compile profiles.
///
/// Where the ladder reacts to memory a compilation has *already*
/// allocated, this policy reserves each compilation's profiled peak
/// upfront against the broker's compilation target and only admits when
/// the reservation fits. One compilation is always admitted regardless of
/// budget so the system cannot wedge on a single oversized estimate; a
/// compilation that overruns its reservation grows it if the budget
/// allows, and is told to finish best-effort (once) if not.
#[derive(Debug)]
pub struct CostPolicy {
    exempt_bytes: u64,
    wait_timeout: SimDuration,
    static_budget: u64,
    effective_budget: u64,
    reserved: u64,
    admitted_count: usize,
    waiting_count: usize,
    tasks: Slab<QueuedTask>,
    queue: VecDeque<u64>,
    stats: ThrottleStats,
}

impl CostPolicy {
    /// Planner over `static_budget` bytes of compilation memory (used
    /// until — and whenever — the broker reports no explicit target).
    pub fn new(static_budget: u64, exempt_bytes: u64, wait_timeout: SimDuration) -> Self {
        CostPolicy {
            exempt_bytes,
            wait_timeout,
            static_budget: static_budget.max(1),
            effective_budget: static_budget.max(1),
            reserved: 0,
            admitted_count: 0,
            waiting_count: 0,
            tasks: Slab::new(),
            queue: VecDeque::new(),
            stats: ThrottleStats::new(1),
        }
    }

    /// Bytes currently reserved by admitted compilations.
    pub fn reserved_bytes(&self) -> u64 {
        self.reserved
    }

    /// The budget currently being planned against.
    pub fn effective_budget(&self) -> u64 {
        self.effective_budget
    }

    fn admit(&mut self, task: u64, now: SimTime) {
        let state = self
            .tasks
            .get_mut(SlotRef::from_bits(task))
            .expect("task exists");
        if state.waiting {
            state.waiting = false;
            self.waiting_count -= 1;
            if let Some(started) = state.wait_started.take() {
                self.stats.record_wait(0, now.saturating_since(started));
            }
        }
        state.admitted = true;
        state.reservation = state.want;
        self.reserved += state.want;
        self.admitted_count += 1;
        self.stats.acquisitions[0] += 1;
    }

    fn drain_queue(&mut self, now: SimTime, resumed: &mut Vec<u64>) {
        while let Some(&next) = self.queue.front() {
            let Some(state) = self.tasks.get(SlotRef::from_bits(next)) else {
                self.queue.pop_front();
                continue;
            };
            if !state.waiting {
                // Tombstone: the task timed out or finished while queued.
                self.queue.pop_front();
                continue;
            }
            let fits = self.admitted_count == 0
                || self.reserved.saturating_add(state.want) <= self.effective_budget;
            if !fits {
                break;
            }
            self.queue.pop_front();
            self.admit(next, now);
            resumed.push(next);
        }
    }
}

impl Policy for CostPolicy {
    fn name(&self) -> &'static str {
        "cost"
    }

    fn begin(&mut self) -> u64 {
        self.stats.compilations_started += 1;
        self.tasks.insert(QueuedTask::default()).to_bits()
    }

    fn report(
        &mut self,
        task: u64,
        bytes: u64,
        signals: &PolicySignals,
        now: SimTime,
    ) -> PolicyDecision {
        let budget = self.effective_budget;
        let Some(state) = self.tasks.get_mut(SlotRef::from_bits(task)) else {
            return PolicyDecision::Proceed;
        };
        state.bytes = bytes;
        if state.admitted {
            if bytes > state.reservation {
                // Overrun: grow the reservation if the budget allows,
                // otherwise direct the compilation to wrap up (once).
                let grow = bytes - state.reservation;
                if self.reserved.saturating_add(grow) <= budget || self.admitted_count == 1 {
                    state.reservation = bytes;
                    self.reserved += grow;
                } else if !state.best_effort {
                    state.best_effort = true;
                    self.stats.best_effort_completions += 1;
                    return PolicyDecision::FinishBestEffort;
                }
            }
            return PolicyDecision::Proceed;
        }
        if bytes <= self.exempt_bytes {
            return PolicyDecision::Proceed;
        }
        if state.waiting {
            return PolicyDecision::Wait {
                level: 0,
                timeout: self.wait_timeout,
            };
        }
        state.want = signals.estimated_peak_bytes.max(bytes);
        let fits = self.admitted_count == 0
            || self.reserved.saturating_add(state.want) <= self.effective_budget;
        if fits {
            self.admit(task, now);
            return PolicyDecision::Proceed;
        }
        let state = self
            .tasks
            .get_mut(SlotRef::from_bits(task))
            .expect("task exists");
        state.waiting = true;
        state.wait_started = Some(now);
        self.waiting_count += 1;
        self.stats.waits[0] += 1;
        self.queue.push_back(task);
        PolicyDecision::Wait {
            level: 0,
            timeout: self.wait_timeout,
        }
    }

    fn timeout(&mut self, task: u64, now: SimTime) {
        if let Some(state) = self.tasks.get_mut(SlotRef::from_bits(task)) {
            if state.waiting {
                state.waiting = false;
                self.waiting_count -= 1;
                if let Some(started) = state.wait_started.take() {
                    self.stats.record_wait(0, now.saturating_since(started));
                }
                self.stats.timeouts += 1;
            }
        }
    }

    fn finish_into(&mut self, task: u64, now: SimTime, resumed: &mut Vec<u64>) {
        let Some(state) = self.tasks.remove(SlotRef::from_bits(task)) else {
            return;
        };
        self.stats.compilations_finished += 1;
        if state.bytes <= self.exempt_bytes {
            self.stats.exempt_compilations += 1;
        }
        if state.admitted {
            self.admitted_count -= 1;
            self.reserved = self.reserved.saturating_sub(state.reservation);
        }
        if state.waiting {
            self.waiting_count -= 1;
            if let Some(started) = state.wait_started {
                self.stats.record_wait(0, now.saturating_since(started));
            }
        }
        self.drain_queue(now, resumed);
    }

    fn tick(
        &mut self,
        now: SimTime,
        compile_target: Option<u64>,
        _pressure: f64,
        resumed: &mut Vec<u64>,
    ) {
        self.effective_budget = compile_target.unwrap_or(self.static_budget).max(1);
        self.drain_queue(now, resumed);
    }

    fn stats(&self) -> &ThrottleStats {
        &self.stats
    }

    fn active(&self) -> usize {
        self.tasks.len()
    }

    fn waiting(&self) -> usize {
        self.waiting_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;
    const EXEMPT: u64 = 2 * MB;

    fn now(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn timeout() -> SimDuration {
        SimDuration::from_secs(120)
    }

    fn signals(peak: u64) -> PolicySignals {
        PolicySignals {
            estimated_peak_bytes: peak,
            estimated_cpu_seconds: 1.0,
        }
    }

    #[test]
    fn pid_admits_up_to_limit_then_queues() {
        let mut p = PidPolicy::new(1, EXEMPT, timeout());
        assert_eq!(p.limit(), 4);
        let tasks: Vec<u64> = (0..5).map(|_| p.begin()).collect();
        for &t in &tasks[..4] {
            assert_eq!(
                p.report(t, 5 * MB, &signals(0), now(0)),
                PolicyDecision::Proceed
            );
        }
        assert_eq!(
            p.report(tasks[4], 5 * MB, &signals(0), now(1)),
            PolicyDecision::Wait {
                level: 0,
                timeout: timeout()
            }
        );
        assert_eq!(p.waiting(), 1);
        // A finishing holder admits the waiter.
        let mut resumed = Vec::new();
        p.finish_into(tasks[0], now(10), &mut resumed);
        assert_eq!(resumed, vec![tasks[4]]);
        assert_eq!(p.waiting(), 0);
        assert_eq!(p.stats().wait_summary(0).count, 1);
        assert!(p.stats().wait_summary(0).min >= 8_000_000);
    }

    #[test]
    fn pid_exempt_tasks_bypass_the_queue() {
        let mut p = PidPolicy::new(1, EXEMPT, timeout());
        let tasks: Vec<u64> = (0..6).map(|_| p.begin()).collect();
        for &t in &tasks[..4] {
            p.report(t, 5 * MB, &signals(0), now(0));
        }
        let small = tasks[5];
        assert_eq!(
            p.report(small, MB, &signals(0), now(0)),
            PolicyDecision::Proceed
        );
        let mut resumed = Vec::new();
        p.finish_into(small, now(1), &mut resumed);
        assert_eq!(p.stats().exempt_compilations, 1);
    }

    #[test]
    fn pid_timeout_counts_and_tombstones_the_queue_entry() {
        let mut p = PidPolicy::new(1, EXEMPT, timeout());
        let tasks: Vec<u64> = (0..5).map(|_| p.begin()).collect();
        for &t in &tasks[..4] {
            p.report(t, 5 * MB, &signals(0), now(0));
        }
        assert!(matches!(
            p.report(tasks[4], 5 * MB, &signals(0), now(0)),
            PolicyDecision::Wait { .. }
        ));
        p.timeout(tasks[4], now(121));
        let mut resumed = Vec::new();
        p.finish_into(tasks[4], now(121), &mut resumed);
        assert_eq!(p.stats().timeouts, 1);
        // The stale queue entry must not resume the dead task.
        p.finish_into(tasks[0], now(122), &mut resumed);
        assert!(resumed.is_empty());
    }

    #[test]
    fn pid_overshoot_lowers_and_headroom_restores_the_limit() {
        let mut p = PidPolicy::new(2, EXEMPT, timeout());
        let base = p.limit();
        let mut resumed = Vec::new();
        p.tick(now(0), Some(100 * MB), 2.0, &mut resumed);
        p.tick(now(10), Some(100 * MB), 2.0, &mut resumed);
        assert!(p.limit() < base, "overshoot must shrink the limit");
        for s in 2..8 {
            p.tick(now(10 * s), Some(100 * MB), 0.2, &mut resumed);
        }
        assert!(p.limit() >= base, "sustained headroom must restore it");
    }

    #[test]
    fn pid_tick_resumes_waiters_when_the_limit_rises() {
        let mut p = PidPolicy::new(1, EXEMPT, timeout());
        let tasks: Vec<u64> = (0..6).map(|_| p.begin()).collect();
        for &t in &tasks[..4] {
            p.report(t, 5 * MB, &signals(0), now(0));
        }
        for &t in &tasks[4..] {
            assert!(matches!(
                p.report(t, 5 * MB, &signals(0), now(0)),
                PolicyDecision::Wait { .. }
            ));
        }
        // Sustained strong headroom with waiters raises the limit.
        let mut resumed = Vec::new();
        for s in 0..20 {
            p.tick(now(10 * (s + 1)), None, 0.0, &mut resumed);
        }
        assert!(!resumed.is_empty(), "a raised limit must admit waiters");
    }

    #[test]
    fn cost_reserves_profiles_and_queues_past_budget() {
        let mut p = CostPolicy::new(100 * MB, EXEMPT, timeout());
        let a = p.begin();
        let b = p.begin();
        assert_eq!(
            p.report(a, 5 * MB, &signals(60 * MB), now(0)),
            PolicyDecision::Proceed
        );
        assert_eq!(p.reserved_bytes(), 60 * MB);
        // b's 60 MB estimate does not fit the remaining 40 MB.
        assert!(matches!(
            p.report(b, 5 * MB, &signals(60 * MB), now(0)),
            PolicyDecision::Wait { .. }
        ));
        let mut resumed = Vec::new();
        p.finish_into(a, now(5), &mut resumed);
        assert_eq!(resumed, vec![b]);
        assert_eq!(p.reserved_bytes(), 60 * MB);
    }

    #[test]
    fn cost_always_admits_one_compilation() {
        let mut p = CostPolicy::new(10 * MB, EXEMPT, timeout());
        let a = p.begin();
        // Estimate far beyond the budget still admits: no wedging.
        assert_eq!(
            p.report(a, 5 * MB, &signals(500 * MB), now(0)),
            PolicyDecision::Proceed
        );
        assert_eq!(p.active(), 1);
    }

    #[test]
    fn cost_overrun_grows_or_directs_best_effort() {
        let mut p = CostPolicy::new(100 * MB, EXEMPT, timeout());
        let a = p.begin();
        let b = p.begin();
        p.report(a, 5 * MB, &signals(50 * MB), now(0));
        p.report(b, 5 * MB, &signals(45 * MB), now(0));
        // a overruns its 50 MB reservation; 5 MB of headroom remain, so a
        // small overrun grows the reservation...
        assert_eq!(
            p.report(a, 54 * MB, &signals(50 * MB), now(1)),
            PolicyDecision::Proceed
        );
        assert_eq!(p.reserved_bytes(), 99 * MB);
        // ...but the next overrun exceeds the budget: finish best-effort,
        // delivered exactly once.
        assert_eq!(
            p.report(a, 60 * MB, &signals(50 * MB), now(2)),
            PolicyDecision::FinishBestEffort
        );
        assert_eq!(
            p.report(a, 61 * MB, &signals(50 * MB), now(3)),
            PolicyDecision::Proceed
        );
        assert_eq!(p.stats().best_effort_completions, 1);
    }

    #[test]
    fn cost_tick_installs_target_and_resumes_fitting_waiters() {
        let mut p = CostPolicy::new(50 * MB, EXEMPT, timeout());
        let a = p.begin();
        let b = p.begin();
        p.report(a, 5 * MB, &signals(40 * MB), now(0));
        assert!(matches!(
            p.report(b, 5 * MB, &signals(40 * MB), now(0)),
            PolicyDecision::Wait { .. }
        ));
        // The broker grants a larger target; the waiter now fits.
        let mut resumed = Vec::new();
        p.tick(now(10), Some(100 * MB), 0.5, &mut resumed);
        assert_eq!(p.effective_budget(), 100 * MB);
        assert_eq!(resumed, vec![b]);
        // Clearing the target falls back to the static budget.
        p.tick(now(20), None, 0.5, &mut resumed);
        assert_eq!(p.effective_budget(), 50 * MB);
    }

    #[test]
    fn policies_tolerate_unknown_tasks() {
        let mut p = PidPolicy::new(1, EXEMPT, timeout());
        assert_eq!(
            p.report(999, 50 * MB, &signals(0), now(0)),
            PolicyDecision::Proceed
        );
        p.timeout(999, now(1));
        let mut resumed = Vec::new();
        p.finish_into(999, now(2), &mut resumed);
        let mut c = CostPolicy::new(MB, EXEMPT, timeout());
        assert_eq!(
            c.report(999, 50 * MB, &signals(0), now(0)),
            PolicyDecision::Proceed
        );
        c.finish_into(999, now(1), &mut resumed);
        assert!(resumed.is_empty());

        // A stale task id whose slot a live task now reuses finishes
        // nothing: the live task keeps what it holds, so the next
        // compilation waits.
        let slot = |task: u64| SlotRef::from_bits(task).index();
        let policies: [Box<dyn Policy>; 2] = [
            Box::new(PidPolicy::new(1, EXEMPT, timeout())),
            Box::new(CostPolicy::new(50 * MB, EXEMPT, timeout())),
        ];
        for mut p in policies {
            let stale = p.begin();
            p.report(stale, 5 * MB, &signals(40 * MB), now(0));
            p.finish_into(stale, now(1), &mut resumed);
            // The PID policy admits four compilations, the cost policy one
            // 40 MB reservation.
            let live: Vec<u64> = (0..4).map(|_| p.begin()).collect();
            assert_eq!(slot(live[0]), slot(stale));
            for &task in &live {
                p.report(task, 5 * MB, &signals(40 * MB), now(2));
            }
            let (active, waiting) = (p.active(), p.waiting());
            p.finish_into(stale, now(3), &mut resumed);
            assert!(resumed.is_empty());
            assert_eq!((p.active(), p.waiting()), (active, waiting));
            assert_eq!(p.stats().compilations_finished, 1);
            let next = p.begin();
            assert!(matches!(
                p.report(next, 5 * MB, &signals(40 * MB), now(4)),
                PolicyDecision::Wait { .. }
            ));
        }
    }

    #[test]
    fn stats_track_the_single_level() {
        let mut p = PidPolicy::new(1, EXEMPT, timeout());
        let t = p.begin();
        p.report(t, 5 * MB, &signals(0), now(0));
        assert_eq!(p.stats().levels(), 1);
        assert_eq!(p.stats().acquisitions[0], 1);
        assert_eq!(p.stats().compilations_started, 1);
        let mut resumed = Vec::new();
        p.finish_into(t, now(1), &mut resumed);
        assert_eq!(p.stats().compilations_finished, 1);
    }
}
