//! The simulated machine: the three resources queries compete for, one
//! station each, which the pipeline stages call directly and fault effects
//! reach through setters. Each station's model can be replaced without
//! touching a stage.
//!
//! - [`Cpu`] counts the compile steps and executions holding a processor
//!   and turns CPU demand into service time under their load.
//! - [`Disk`] turns an execution's footprint into I/O seconds through the
//!   buffer-pool hit-rate model over the memory the broker reports free.
//! - [`Memory`] is the broker and its clerks: compilation, the per-class
//!   grant pools, the plan cache and the leak faults' ballast.

use crate::config::ServerConfig;
use throttledb_bufferpool::HitRateModel;
use throttledb_executor::GrantManager;
use throttledb_membroker::{BrokerDecision, Clerk, MemoryBroker, SubcomponentKind};
use throttledb_sim::{SimDuration, SimTime};

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
    /// The machine `config` describes, and the plan cache's broker clerk.
    pub fn new(config: &ServerConfig) -> (Self, Clerk) {
        let broker = MemoryBroker::unshared(config.broker.clone());
        let compile_clerk = broker.register(SubcomponentKind::Compilation);
        let exec_clerk = broker.register(SubcomponentKind::Execution);
        let cache_clerk = broker.register(SubcomponentKind::PlanCache);
        let exec_budget = broker.target_for_kind(SubcomponentKind::Execution);
        let pools = config.classes.iter().map(|spec| {
            let budget = scaled_budget(exec_budget, spec.grant_fraction);
            let grants = GrantManager::new(budget, Some(exec_clerk.clone()));
            let fraction = spec.grant_fraction;
            GrantPool {
                grants,
                fraction,
                budget,
            }
        });
        let memory = Memory {
            broker,
            compile_clerk,
            ballast_clerk: None,
            pools: pools.collect(),
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
        (Machine { cpu, disk, memory }, cache_clerk)
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

/// Physical memory: the broker and every clerk it accounts for.
pub(crate) struct Memory {
    /// The server's own broker, never shared, so its tick recalculates
    /// without the broker's lock.
    broker: MemoryBroker,
    pub compile_clerk: Clerk,
    /// The leak faults' clerk: a `Fixed` subcomponent the broker accounts
    /// for (available bytes shrink, pressure rises) but never asks to
    /// shrink, exactly how a leak behaves.
    pub ballast_clerk: Option<Clerk>,
    /// One grant pool per class, all reporting to the execution clerk.
    pools: Vec<GrantPool>,
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
    pub fn grow_compile(&self, bytes: u64) -> bool {
        let fits = self.broker.available_bytes() >= bytes;
        if fits {
            self.compile_clerk.allocate(bytes);
        }
        fits
    }

    /// Memory no clerk holds: what acts as the buffer pool.
    pub fn free_bytes(&self) -> u64 {
        self.broker.available_bytes()
    }

    /// Register the ballast clerk, once.
    pub fn add_ballast(&mut self) {
        self.ballast_clerk
            .get_or_insert_with(|| self.broker.register(SubcomponentKind::Fixed));
    }

    /// The next tick applies `scale`.
    pub fn set_grant_budget_scale(&mut self, scale: f64) {
        self.grant_budget_scale = scale;
    }

    /// The next tick applies `scale`.
    pub fn set_fault_grant_scale(&mut self, scale: f64) {
        self.fault_grant_scale = scale;
    }

    pub fn grants(&self, class: usize) -> &GrantManager {
        &self.pools[class].grants
    }

    #[cfg(test)]
    pub fn grant_budget(&self, class: usize) -> u64 {
        self.pools[class].budget
    }

    /// Recalculate the broker and read off what the tick distributes.
    pub fn tick(&mut self, now: SimTime) -> Reading {
        self.broker.recalculate_mut(now, &mut self.decisions);
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
    /// has would admit no one: only a change is returned, recorded as
    /// installed, for the caller to set on the pool.
    pub fn regrant(&mut self, class: usize, exec_target: u64) -> Option<u64> {
        let scale = self.grant_budget_scale * self.fault_grant_scale;
        let pool = &mut self.pools[class];
        let budget = scaled_budget(scaled_budget(exec_target, pool.fraction), scale);
        if budget == pool.budget {
            return None;
        }
        pool.budget = budget;
        Some(budget)
    }

    /// The memory law every broker tick checks in debug builds: the
    /// clerks' live bytes, as the recalculation sampled them (one decision
    /// per clerk), sum to the total the broker reads without its lock.
    ///
    /// The law's other half, that they fit in the machine's physical
    /// memory, does not hold yet: execution grants are not checked against
    /// free memory, and `open_loop_scale` under the PID and cost policies
    /// overcommits the machine by 5–7 %.
    #[cfg(debug_assertions)]
    fn check_law(&self) {
        let used = self.decisions.iter().map(|d| d.notification.current_bytes);
        assert_eq!(
            used.sum::<u64>(),
            self.broker.used_bytes(),
            "the broker's lock-free total disagrees with its clerks'"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(config: &ServerConfig) -> Machine {
        Machine::new(config).0
    }

    /// A broker whose lock-free total disagrees with what its tick sampled
    /// breaks the memory law.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-free total disagrees")]
    fn the_memory_law_bites_when_the_broker_total_drifts() {
        let mut memory = machine(&ServerConfig::quick(1, true)).memory;
        assert!(memory.grow_compile(10 << 20));
        memory.tick(SimTime::ZERO);
        memory.decisions[0].notification.current_bytes += 1;
        memory.check_law();
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
            memory
                .grants(class)
                .request_at(budget, SimTime::ZERO, deadline);
            memory
                .grants(class)
                .request_at(budget, SimTime::ZERO, deadline);
        }
        memory.set_grant_budget_scale(0.5);
        let tick = |memory: &mut Memory, out: &mut Vec<_>| {
            let reading = memory.tick(SimTime::ZERO);
            for class in 0..classes {
                if let Some(budget) = memory.regrant(class, reading.exec_target) {
                    memory.grants(class).set_budget(budget, SimTime::ZERO, out);
                }
            }
            let budgets: Vec<u64> = (0..classes).map(|c| memory.grant_budget(c)).collect();
            let stats: Vec<_> = (0..classes)
                .map(|c| memory.grants(c).pool_stats())
                .collect();
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
