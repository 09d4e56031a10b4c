//! The simulated machine: the three resources queries compete for, one
//! station each, which the pipeline stages call directly and fault effects
//! reach through setters. Each station's model can be replaced without
//! touching a stage.
//!
//! - [`Cpu`] counts the compile steps and executions holding a processor
//!   and turns CPU demand into service time under their load.
//! - [`Disk`] turns an execution's footprint into I/O seconds through the
//!   buffer-pool hit-rate model over the memory the broker reports free.
//! - [`Memory`] owns the broker's accounts and every byte they count, and
//!   charges them where the bytes move: compilation, the per-class grant
//!   pools, the plan cache and the leak faults' ballast.

use crate::config::ServerConfig;
use crate::server::PlanKey;
use throttledb_bufferpool::HitRateModel;
use throttledb_executor::{GrantManager, GrantRequestId};
use throttledb_governor::{AdmissionDecision, PoolStats};
use throttledb_membroker::{BrokerCore, BrokerDecision, ClerkId, SubcomponentKind};
use throttledb_plancache::PlanCache;
use throttledb_sim::{SimDuration, SimTime};
use throttledb_workload::TemplateId;

/// The admissions of one grant-pool call, in the caller's reused buffer.
pub(crate) type Admitted = Vec<(GrantRequestId, AdmissionDecision)>;

/// `budget * fraction`, exact when the fraction is 1 (the default class).
pub(crate) fn scaled_budget(budget: u64, fraction: f64) -> u64 {
    if (fraction - 1.0).abs() < f64::EPSILON {
        budget
    } else {
        (budget as f64 * fraction) as u64
    }
}

/// The three stations of one simulated server.
pub(crate) struct Machine {
    pub cpu: Cpu,
    pub disk: Disk,
    pub memory: Memory,
}

impl Machine {
    /// The machine `config` describes.
    pub fn new(config: &ServerConfig) -> Self {
        let mut broker = BrokerCore::new(config.broker.clone());
        let compile = broker.register(SubcomponentKind::Compilation);
        let exec = broker.register(SubcomponentKind::Execution);
        let cache = broker.register(SubcomponentKind::PlanCache);
        let exec_budget = broker.target_for_kind(SubcomponentKind::Execution);
        let pools = config.classes.iter().map(|spec| {
            let budget = scaled_budget(exec_budget, spec.grant_fraction);
            let grants = GrantManager::new(budget, None);
            let fraction = spec.grant_fraction;
            GrantPool {
                grants,
                fraction,
                budget,
            }
        });
        let memory = Memory {
            broker,
            compile,
            exec,
            cache,
            ballast: None,
            pools: pools.collect(),
            plan_cache: PlanCache::new(256 << 20, None),
            grant_budget_scale: 1.0,
            fault_grant_scale: 1.0,
            decisions: Vec::new(),
        };
        let cpu = Cpu {
            cpus: config.cpus,
            exec_parallelism: config.exec_parallelism,
            running: 0,
            lost_slots: 0,
            compile_stall: 1.0,
        };
        let disk = Disk {
            hit_model: HitRateModel::default(),
            touched_fraction: config.io_touched_fraction,
            hot_working_set_bytes: config.hot_working_set_bytes,
            bandwidth_bytes_per_sec: config.io_bandwidth_bytes_per_sec,
        };
        Machine { cpu, disk, memory }
    }
}

/// The processors. A task starting a step is slowed by the load factor:
/// the tasks per surviving CPU, at least 1.
pub(crate) struct Cpu {
    cpus: u32,
    exec_parallelism: f64,
    /// Compile steps and executions holding a CPU.
    running: u32,
    /// CPUs lost to slot-loss faults; always fewer than `cpus`.
    lost_slots: u32,
    /// Product of the active compile-stall multipliers (1.0 = no stall).
    compile_stall: f64,
}

impl Cpu {
    /// A compilation takes a CPU; returns its first step's duration.
    pub fn start_compile(&mut self, step_cpu_seconds: f64) -> SimDuration {
        self.running += 1;
        self.compile_step(step_cpu_seconds)
    }

    /// A compilation admitted past its gateway takes a CPU again.
    pub fn resume_compile(&mut self) {
        self.running += 1;
    }

    /// The duration of a compile step by a task holding a CPU.
    pub fn compile_step(&self, step_cpu_seconds: f64) -> SimDuration {
        let seconds = step_cpu_seconds * self.load_factor() * self.compile_stall;
        SimDuration::from_secs_f64(seconds.max(0.001))
    }

    /// An execution takes a CPU; returns its CPU seconds, parallelized over
    /// the machine and inflated by CPU contention.
    pub fn start_exec(&mut self, cpu_seconds: f64) -> f64 {
        self.running += 1;
        cpu_seconds / self.exec_parallelism * self.load_factor()
    }

    /// A compile step or an execution left the CPU. An end without a start
    /// is a lifecycle bug, so this panics on underflow in every build.
    pub fn end_task(&mut self) {
        self.running = self
            .running
            .checked_sub(1)
            .expect("a CPU task ends only after it started");
    }

    /// Install the active CPU faults. At least one CPU always survives.
    pub fn set_faults(&mut self, compile_stall: f64, lost_slots: u32) {
        self.compile_stall = compile_stall;
        self.lost_slots = lost_slots.min(self.cpus - 1);
    }

    fn load_factor(&self) -> f64 {
        (self.running as f64 / (self.cpus - self.lost_slots) as f64).max(1.0)
    }

    /// The CPU law, checked at every broker tick in debug builds.
    #[cfg(debug_assertions)]
    pub fn check_law(&self, compiling_or_executing: u32) {
        assert_eq!(
            self.running, compiling_or_executing,
            "the CPU's running-task count disagrees with the queries compiling or executing"
        );
    }
}

/// The disk: an execution's reads at the array's full bandwidth, through a
/// buffer pool of the memory no clerk holds.
pub(crate) struct Disk {
    hit_model: HitRateModel,
    touched_fraction: f64,
    hot_working_set_bytes: u64,
    bandwidth_bytes_per_sec: f64,
}

impl Disk {
    /// I/O seconds of an execution whose plan spans `footprint_bytes`, with
    /// `free_bytes` of memory acting as the buffer pool.
    pub fn io_seconds(&self, footprint_bytes: u64, free_bytes: u64) -> f64 {
        let touched = (footprint_bytes as f64 * self.touched_fraction) as u64;
        self.hit_model.io_seconds(
            touched,
            free_bytes,
            self.hot_working_set_bytes,
            self.bandwidth_bytes_per_sec,
        )
    }
}

/// What a broker tick hands the class policies, grant pools and plan cache.
pub(crate) struct Reading {
    /// The compilation target, when the broker constrains.
    pub compile_target: Option<u64>,
    /// Predicted compilation demand over the recalculation horizon,
    /// relative to the kind's target. >1 means the sampled trend overshoots
    /// the entitlement, so feedback policies tighten before the memory is
    /// actually committed.
    pub pressure: f64,
    pub exec_target: u64,
    pub cache_target: Option<u64>,
}

/// One workload class's execution-grant pool.
struct GrantPool {
    grants: GrantManager,
    /// The class's fraction of the execution target.
    fraction: f64,
    /// The budget last installed on `grants`.
    budget: u64,
}

/// Physical memory: the broker's accounts, and every byte they count.
pub(crate) struct Memory {
    /// The broker's accounts, one per clerk, and their running total.
    broker: BrokerCore,
    compile: ClerkId,
    exec: ClerkId,
    cache: ClerkId,
    /// The leak faults' account: `Fixed`, so available bytes shrink and
    /// pressure rises, but the broker never asks it to shrink, as a leak.
    ballast: Option<ClerkId>,
    /// One grant pool per class.
    pools: Vec<GrantPool>,
    plan_cache: PlanCache<TemplateId, PlanKey>,
    /// Scenario knob on every grant budget (1.0 = the configured budgets).
    grant_budget_scale: f64,
    /// Product of the active grant-collapse scales (1.0 = no collapse).
    fault_grant_scale: f64,
    /// The tick's decisions, in a buffer reused across ticks.
    decisions: Vec<BrokerDecision>,
}

impl Memory {
    /// The compilation target the broker starts from.
    pub fn compile_target(&self) -> u64 {
        self.broker.target_for_kind(SubcomponentKind::Compilation)
    }

    /// Charge a compile step's `bytes` to compilation, unless the machine
    /// has no room for them: then the step fails out of memory.
    pub fn grow_compile(&mut self, bytes: u64) -> bool {
        let fits = self.broker.available_bytes() >= bytes;
        if fits {
            self.broker.allocate(self.compile, bytes);
        }
        fits
    }

    /// A compilation's `bytes` are freed.
    pub fn free_compile(&mut self, bytes: u64) {
        self.broker.free(self.compile, bytes);
    }

    /// Bytes held by compilations.
    pub fn compile_bytes(&self) -> u64 {
        self.broker.account(self.compile).used_bytes()
    }

    /// Memory no clerk holds: what acts as the buffer pool.
    pub fn free_bytes(&self) -> u64 {
        self.broker.available_bytes()
    }

    /// Open the ballast account, once.
    pub fn add_ballast(&mut self) {
        self.ballast
            .get_or_insert_with(|| self.broker.register(SubcomponentKind::Fixed));
    }

    /// A leak fault holds `bytes` more ballast.
    pub fn leak(&mut self, bytes: u64) {
        let ballast = self.ballast.expect("a leak fault opened the ballast");
        self.broker.allocate(ballast, bytes);
    }

    /// A leak fault cleared and returned its `bytes` of ballast.
    pub fn unleak(&mut self, bytes: u64) {
        let ballast = self.ballast.expect("a leak fault opened the ballast");
        self.broker.free(ballast, bytes);
    }

    /// The next tick applies `scale`.
    pub fn set_grant_budget_scale(&mut self, scale: f64) {
        self.grant_budget_scale = scale;
    }

    /// The next tick applies `scale`.
    pub fn set_fault_grant_scale(&mut self, scale: f64) {
        self.fault_grant_scale = scale;
    }

    /// Class `class`'s grant-pool statistics.
    pub fn grant_stats(&self, class: usize) -> PoolStats {
        self.pools[class].grants.pool_stats()
    }

    #[cfg(test)]
    pub fn grant_budget(&self, class: usize) -> u64 {
        self.pools[class].budget
    }

    /// Ask class `class`'s pool for a `bytes` grant; charge what it admits.
    pub fn request_grant(
        &mut self,
        class: usize,
        bytes: u64,
        now: SimTime,
        deadline: SimTime,
    ) -> (GrantRequestId, AdmissionDecision) {
        let (id, decision) = self.pools[class].grants.request_at(bytes, now, deadline);
        self.broker
            .allocate(self.exec, decision.units().unwrap_or(0));
        (id, decision)
    }

    /// Release grant `id` of class `class`: free the bytes it held, and
    /// charge each waiter the release admits (appended to `out`).
    pub fn release_grant(
        &mut self,
        class: usize,
        id: GrantRequestId,
        now: SimTime,
        out: &mut Admitted,
    ) {
        let first = out.len();
        if let Some(held) = self.pools[class].grants.release_at_into(id, now, out) {
            self.broker.free(self.exec, held);
        }
        self.charge_admissions(out, first);
    }

    /// Cancel queued grant `id` of class `class`, charging each waiter the
    /// cancel admits (appended to `out`). Returns true if it was queued.
    pub fn cancel_grant(
        &mut self,
        class: usize,
        id: GrantRequestId,
        now: SimTime,
        out: &mut Admitted,
    ) -> bool {
        let first = out.len();
        let cancelled = self.pools[class].grants.cancel(id, now, out);
        self.charge_admissions(out, first);
        cancelled
    }

    /// Charge execution with the admissions appended to `out` from `first`.
    fn charge_admissions(&mut self, out: &Admitted, first: usize) {
        let admitted = out[first..].iter().filter_map(|(_, d)| d.units()).sum();
        self.broker.allocate(self.exec, admitted);
    }

    /// Whether the submission with text key `text` has a cached plan.
    pub fn plan_cached(&self, text: u64) -> bool {
        self.plan_cache.get(&PlanKey::Text(text)).is_some()
    }

    /// Cache the `bytes` plan `template` compiled into for submission
    /// `query`, and charge the cache's growth net of what it evicted.
    pub fn cache_plan(&mut self, template: TemplateId, query: u64, bytes: u64, cost: f64) {
        let before = self.broker.account(self.cache).used_bytes();
        let key = PlanKey::Compiled(template, query);
        let after = self.plan_cache.insert(key, template, bytes, cost);
        self.broker.free(self.cache, before.saturating_sub(after));
        self.broker
            .allocate(self.cache, after.saturating_sub(before));
    }

    /// Shrink the plan cache to the tick's `target`, freeing what it evicts.
    pub fn squeeze_cache(&mut self, target: Option<u64>) {
        let held = self.broker.account(self.cache).used_bytes();
        if let Some(target) = target.filter(|&t| held > t) {
            let released = self.plan_cache.shrink_to(target);
            self.broker.free(self.cache, released);
        }
    }

    /// Recalculate the broker and read off what the tick distributes.
    pub fn tick(&mut self, now: SimTime) -> Reading {
        self.broker.recalculate_into(now, &mut self.decisions);
        #[cfg(debug_assertions)]
        self.check_law();
        let mut constrained = false;
        let (mut compile_installed, mut exec_installed) = (0u64, 0u64);
        let mut compile_predicted = 0u64;
        let mut cache_target = None;
        for d in &self.decisions {
            let n = &d.notification;
            constrained |= n.target_bytes.is_some();
            match n.kind_of_component {
                SubcomponentKind::Compilation => {
                    compile_installed += n.target_bytes.unwrap_or(0);
                    compile_predicted += n.predicted_bytes;
                }
                SubcomponentKind::Execution => exec_installed += n.target_bytes.unwrap_or(0),
                SubcomponentKind::PlanCache if cache_target.is_none() => {
                    cache_target = Some(n.target_bytes);
                }
                _ => {}
            }
        }
        let goal = |kind, installed| self.broker.installed_or_entitlement(kind, installed);
        let compile_goal = goal(SubcomponentKind::Compilation, compile_installed);
        Reading {
            compile_target: constrained.then_some(compile_goal),
            pressure: compile_predicted as f64 / compile_goal.max(1) as f64,
            exec_target: goal(SubcomponentKind::Execution, exec_installed),
            cache_target: cache_target.flatten(),
        }
    }

    /// Cut class `class`'s grant budget from `exec_target`: its fraction,
    /// times the scenario knob and the active grant collapses. A pool never
    /// leaves an admissible waiter queued (its work-conservation law,
    /// checked after every call in debug builds), so the budget it already
    /// has would admit no one: only a change is installed, charging each
    /// waiter it admits (appended to `out`).
    pub fn regrant(&mut self, class: usize, exec_target: u64, now: SimTime, out: &mut Admitted) {
        let scale = self.grant_budget_scale * self.fault_grant_scale;
        let pool = &mut self.pools[class];
        let budget = scaled_budget(scaled_budget(exec_target, pool.fraction), scale);
        if budget == pool.budget {
            return;
        }
        pool.budget = budget;
        let first = out.len();
        pool.grants.set_budget(budget, now, out);
        self.charge_admissions(out, first);
    }

    /// The memory law every broker tick checks in debug builds: the
    /// clerks' live bytes as the recalculation sampled them (one decision
    /// per clerk) and the running total both sum the accounts, execution
    /// holds what the grant pools granted out, and the plan cache's
    /// account what it caches.
    ///
    /// The law's other half, that they fit in the machine's physical
    /// memory, does not hold yet: execution grants are not checked against
    /// free memory, and `open_loop_scale` under the PID and cost policies
    /// overcommits the machine by 5–7 %.
    #[cfg(debug_assertions)]
    fn check_law(&self) {
        let accounts = self.broker.accounts().iter().map(|a| a.used_bytes()).sum();
        let sampled = self.decisions.iter().map(|d| d.notification.current_bytes);
        let granted = self.pools.iter().map(|p| p.grants.in_use_bytes()).sum();
        let held = |id| self.broker.account(id).used_bytes();
        let cached = self.plan_cache.used_bytes();
        for (what, got, want) in [
            ("sampled total", sampled.sum(), accounts),
            ("running total", self.broker.used_bytes(), accounts),
            ("execution account", held(self.exec), granted),
            ("cache account", held(self.cache), cached),
        ] {
            assert_eq!(got, want, "the memory law: the {what} disagrees");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use throttledb_workload::{oltp_templates, TemplateCatalog};

    fn machine(config: &ServerConfig) -> Machine {
        Machine::new(config)
    }

    fn template() -> TemplateId {
        let catalog = TemplateCatalog::from_templates(oltp_templates());
        catalog.oltp()[0]
    }

    /// A station whose accounts all move through its own calls: a
    /// compile step, a grant and a release that admits a waiter, cached
    /// plans with evictions and a squeeze, and leaked ballast.
    fn busy_memory() -> Memory {
        let mut memory = machine(&ServerConfig::quick(1, true)).memory;
        let (now, deadline) = (SimTime::ZERO, SimTime::from_secs(60));
        let mut out = Vec::new();
        assert!(memory.grow_compile(10 << 20));
        let budget = memory.grant_budget(0);
        let (first, _) = memory.request_grant(0, budget, now, deadline);
        let (_, queued) = memory.request_grant(0, budget / 2, now, deadline);
        assert_eq!(queued.units(), None);
        memory.release_grant(0, first, now, &mut out);
        assert_eq!(out.len(), 1, "the release admits the waiter");
        // More plans than the 256 MiB cache holds, so inserts evict too.
        let template = template();
        for id in 0..3_000 {
            memory.cache_plan(template, id, 96 << 10, 1.0);
        }
        // Replacing a cached plan with a smaller one frees bytes.
        memory.cache_plan(template, 2_999, 1 << 10, 1.0);
        memory.squeeze_cache(Some(300 << 10));
        memory.add_ballast();
        memory.leak(5 << 20);
        memory.unleak(1 << 20);
        memory
    }

    #[test]
    #[cfg(debug_assertions)]
    fn the_memory_law_holds_when_every_byte_moves_through_the_station() {
        let mut memory = busy_memory();
        memory.tick(SimTime::ZERO);
        assert_eq!(memory.grant_stats(0).queued, 1);
        // The squeeze keeps the small plan, the most valuable per byte.
        let cached = memory.broker.account(memory.cache).used_bytes();
        assert_eq!(cached, 3 * (96 << 10) + (1 << 10));
    }

    /// A broker whose total disagrees with what its tick sampled breaks
    /// the memory law.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the sampled total disagrees")]
    fn the_memory_law_bites_when_the_broker_total_drifts() {
        let mut memory = machine(&ServerConfig::quick(1, true)).memory;
        assert!(memory.grow_compile(10 << 20));
        memory.tick(SimTime::ZERO);
        memory.decisions[0].notification.current_bytes += 1;
        memory.check_law();
    }

    /// A grant admitted past the station is execution memory no account
    /// holds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the execution account disagrees")]
    fn the_memory_law_bites_on_an_uncharged_grant() {
        let mut memory = busy_memory();
        let grants = &memory.pools[0].grants;
        grants.request_at(1 << 20, SimTime::ZERO, SimTime::MAX);
        memory.tick(SimTime::ZERO);
    }

    /// A plan cached past the station is cache memory no account holds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the cache account disagrees")]
    fn the_memory_law_bites_on_an_uncharged_cache_insert() {
        let mut memory = busy_memory();
        let key = PlanKey::Compiled(template(), 3_000);
        memory.plan_cache.insert(key, template(), 96 << 10, 1.0);
        memory.tick(SimTime::ZERO);
    }

    #[test]
    fn an_unchanged_tick_leaves_every_grant_pool_as_it_was() {
        let config = ServerConfig::quick(4, true).with_standard_classes();
        let mut memory = machine(&config).memory;
        let classes = config.classes.len();
        let mut out = Vec::new();
        // A waiter in every pool, which any budget change would look at.
        let deadline = SimTime::from_secs(60);
        for class in 0..classes {
            let budget = memory.grant_budget(class);
            memory.request_grant(class, budget, SimTime::ZERO, deadline);
            memory.request_grant(class, budget, SimTime::ZERO, deadline);
        }
        memory.set_grant_budget_scale(0.5);
        let tick = |memory: &mut Memory, out: &mut Vec<_>| {
            let reading = memory.tick(SimTime::ZERO);
            for class in 0..classes {
                memory.regrant(class, reading.exec_target, SimTime::ZERO, out);
            }
            let budgets: Vec<u64> = (0..classes).map(|c| memory.grant_budget(c)).collect();
            let stats: Vec<_> = (0..classes).map(|c| memory.grant_stats(c)).collect();
            (reading.exec_target, budgets, stats)
        };
        let (target, halved, stats) = tick(&mut memory, &mut out);
        for (class, spec) in config.classes.iter().enumerate() {
            let full = scaled_budget(target, spec.grant_fraction);
            assert_eq!(halved[class], scaled_budget(full, 0.5));
        }
        assert!(out.is_empty(), "a smaller budget admits no one");
        assert_eq!(tick(&mut memory, &mut out), (target, halved, stats));
        assert!(out.is_empty());
    }

    #[test]
    fn slot_loss_of_every_cpu_leaves_one() {
        let config = ServerConfig::quick(1, true);
        for lost in [config.cpus - 1, config.cpus, config.cpus + 5, u32::MAX] {
            let mut cpu = machine(&config).cpu;
            cpu.set_faults(1.0, lost);
            cpu.start_compile(1.0);
            // Two tasks on the one surviving CPU: each runs at half speed.
            assert_eq!(cpu.start_compile(1.0), SimDuration::from_secs(2), "{lost}");
            assert_eq!(cpu.start_exec(8.0), 8.0 / config.exec_parallelism * 3.0);
        }
    }

    #[test]
    fn a_compile_stall_lengthens_compile_steps_but_not_executions() {
        let config = ServerConfig::quick(1, true);
        let (mut calm, mut stalled) = (machine(&config).cpu, machine(&config).cpu);
        stalled.set_faults(4.0, 0);
        assert_eq!(calm.start_compile(1.5), SimDuration::from_secs_f64(1.5));
        assert_eq!(stalled.start_compile(1.5), SimDuration::from_secs(6));
        assert_eq!(stalled.compile_step(0.5), SimDuration::from_secs(2));
        assert_eq!(calm.start_exec(40.0), stalled.start_exec(40.0));
        assert_eq!(calm.start_exec(40.0), 10.0);
    }
}
