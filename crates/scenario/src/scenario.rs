//! The declarative scenario model and the built-in scenario catalog.
//!
//! A [`Scenario`] is a base [`ServerConfig`] plus an ordered list of
//! [`Phase`]s. The built-ins come in two groups:
//!
//! * **paper scenarios** (`paper_figure3/4/5`) — the paper's own §5
//!   throughput runs, expressed as single steady phases over
//!   [`ServerConfig::paper`]; and
//! * **beyond-the-paper scenarios** (`compile_storm`,
//!   `diurnal_two_classes`, `burst_degrading_pool`, `class_mix_shift`,
//!   `ramp_to_saturation`) — workload shapes the paper never evaluated,
//!   exercising the same admission-control policy under phase-varying
//!   load; and
//! * **open-loop scenarios** (`open_loop_poisson`, `flash_crowd`,
//!   `heavy_tail_arrivals`, `diurnal_arrivals`, `open_loop_scale`) —
//!   arrival-process-driven populations with no (or only a small)
//!   closed loop, where the offered rate is set by a stochastic process
//!   instead of think times.

use crate::fault::FaultPlan;
use crate::phase::Phase;
use serde::{Deserialize, Serialize};
use throttledb_engine::{
    ArrivalSourceConfig, BreakerConfig, FaultKind, PolicyKind, ServerConfig, WorkloadClassConfig,
};
use throttledb_sim::{ArrivalProcess, SimDuration};
use throttledb_workload::WorkloadMix;

/// Experiment scale: `Quick` shrinks durations for tests and CI smoke
/// runs; `Paper` stretches the same shapes to multi-hour runs comparable
/// with the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// CI-friendly durations (minutes of virtual time per phase).
    Quick,
    /// Paper-comparable durations (6× the quick phase lengths; the paper
    /// figures use the full 8-hour [`ServerConfig::paper`] run).
    Paper,
}

impl Scale {
    /// Parse `"quick"` / `"paper"` (the figure binaries' CLI convention).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// A phase duration that is `quick_minutes` long at quick scale and
    /// 6× that at paper scale.
    fn minutes(self, quick_minutes: u64) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_secs(quick_minutes * 60),
            Scale::Paper => SimDuration::from_secs(quick_minutes * 360),
        }
    }
}

/// A declarative multi-phase workload: what to run, not how to run it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (the CLI and reports use it).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Base server configuration. The runner overwrites `clients` (to the
    /// maximum over phases) and `duration` (to the phase total); everything
    /// else — machine, throttle, classes, seed — is taken as configured.
    pub base: ServerConfig,
    /// The phase schedule, executed in order.
    pub phases: Vec<Phase>,
    /// The fault schedule (empty for a fault-free run). Offsets are
    /// relative to the run start; the runner installs them on the engine
    /// before the first phase begins.
    pub faults: FaultPlan,
}

impl Scenario {
    /// A scenario from parts.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        base: ServerConfig,
        phases: Vec<Phase>,
    ) -> Self {
        Scenario {
            name: name.into(),
            description: description.into(),
            base,
            phases,
            faults: FaultPlan::default(),
        }
    }

    /// Attach a fault schedule (every other setting untouched), so any
    /// scenario — built-in or bespoke — can run under chaos.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the RNG seed (every other setting untouched).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base.seed = seed;
        self
    }

    /// Replace the admission policy (every other setting untouched), so any
    /// built-in scenario can run under any [`PolicyKind`].
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.base.policy = policy;
        self
    }

    /// Run every phase at `clients` closed-loop clients (every other
    /// setting untouched), so any built-in scenario can run at any client
    /// count.
    pub fn with_clients(mut self, clients: u32) -> Self {
        for phase in &mut self.phases {
            phase.clients = clients;
        }
        self
    }

    /// Total virtual duration over all phases.
    pub fn total_duration(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }

    /// The largest client count any phase uses.
    pub fn max_clients(&self) -> u32 {
        self.phases.iter().map(|p| p.clients).max().unwrap_or(0)
    }

    /// The [`ServerConfig`] a driver should characterize and run this
    /// scenario against: the base config with `clients` raised to the
    /// phase maximum, `duration` set to the phase total, and a warm-up
    /// that would swallow the whole run clamped to zero. Both
    /// [`crate::ScenarioRunner`] and the sweep harness derive their
    /// configs through here, so their cells can never silently diverge.
    pub fn runtime_config(&self) -> ServerConfig {
        let mut config = self.base.clone();
        // Client-surge faults wake clients beyond the phase maximum, so the
        // server's client table needs that headroom built in up front.
        config.clients = self.max_clients() + self.faults.max_surge_clients();
        config.duration = self.total_duration();
        if config.warmup >= config.duration {
            config.warmup = SimDuration::ZERO;
        }
        config
    }

    /// A 64-bit FNV digest of the run identity a recorded trace depends
    /// on: scenario name, seed, admission policy, and the per-phase
    /// name/duration/client schedule. The v2 binary codec stores this in
    /// its header frame so `--replay` can refuse a trace recorded under a
    /// different configuration *before* simulating anything.
    pub fn config_digest(&self) -> u64 {
        let mut hash = throttledb_workload::Fnv64::new();
        let mut fold = |bytes: &[u8]| {
            hash.update(bytes);
            // NUL-separate fields so adjacent strings can't collide by
            // concatenation ("ab"+"c" vs "a"+"bc").
            hash.update(&[0]);
        };
        fold(self.name.as_bytes());
        fold(&self.base.seed.to_le_bytes());
        fold(format!("{:?}", self.base.policy).as_bytes());
        for phase in &self.phases {
            fold(phase.name.as_bytes());
            fold(&phase.duration.as_micros().to_le_bytes());
            fold(&phase.clients.to_le_bytes());
        }
        hash.finish()
    }

    /// The phase-name catalog a v2 trace header interns: every distinct
    /// phase name, in first-use order. Recording with this catalog turns
    /// each `PhaseStart` name into a small varint index instead of an
    /// inline string.
    pub fn trace_catalog(&self) -> Vec<String> {
        let mut catalog: Vec<String> = Vec::new();
        for phase in &self.phases {
            if !catalog.iter().any(|n| n == &phase.name) {
                catalog.push(phase.name.clone());
            }
        }
        catalog
    }

    /// Panics on an empty or inconsistent phase schedule, or when the
    /// scenario drives no load at all (every phase has zero closed-loop
    /// clients *and* the base configuration has no arrival sources).
    pub fn validate(&self) {
        assert!(!self.name.is_empty(), "scenario needs a name");
        assert!(!self.phases.is_empty(), "scenario needs at least one phase");
        for phase in &self.phases {
            phase.validate();
        }
        assert!(
            self.max_clients() > 0 || !self.base.arrivals.is_empty(),
            "scenario drives no load: every phase has zero clients and the base has no arrival sources"
        );
        self.faults.validate(self.total_duration());
    }

    // --- the paper's own runs, as scenarios --------------------------------

    /// Figure 3: the paper's steady 30-client throughput run (throttled).
    pub fn paper_figure3(scale: Scale) -> Self {
        Self::paper_figure(scale, "paper_figure3", 30)
    }

    /// Figure 4: the paper's steady 35-client throughput run (throttled).
    pub fn paper_figure4(scale: Scale) -> Self {
        Self::paper_figure(scale, "paper_figure4", 35)
    }

    /// Figure 5: the paper's steady 40-client throughput run (throttled).
    pub fn paper_figure5(scale: Scale) -> Self {
        Self::paper_figure(scale, "paper_figure5", 40)
    }

    fn paper_figure(scale: Scale, name: &str, clients: u32) -> Self {
        let base = match scale {
            Scale::Paper => ServerConfig::paper(clients, true),
            Scale::Quick => ServerConfig::quick(clients, true),
        };
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![Phase::steady("steady", base.duration, clients, mix)];
        Scenario::new(
            name,
            format!("§5 throughput run at {clients} clients (throttled leg)"),
            base,
            phases,
        )
    }

    // --- scenarios the paper never ran --------------------------------------

    /// An ad-hoc compile storm lands mid-run: a steady population is joined
    /// by a wave of impatient all-SALES clients (2 s think time), then the
    /// system recovers. Exercises the ladder's behaviour through a step
    /// overload and back.
    pub fn compile_storm(scale: Scale) -> Self {
        let base = Self::custom_base(scale, 2007);
        let default_mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![
            Phase::steady("steady", scale.minutes(15), 10, default_mix),
            Phase::steady("storm", scale.minutes(10), 26, WorkloadMix::sales_only())
                .with_think_time(SimDuration::from_secs(2)),
            Phase::steady("recovery", scale.minutes(15), 10, default_mix),
        ];
        Scenario::new(
            "compile_storm",
            "ad-hoc compile storm mid-run: steady → 26-client SALES storm → recovery",
            base,
            phases,
        )
    }

    /// A day/night load cycle over two workload classes: interactive
    /// sessions (tighter ladder) and scheduled reports (relaxed ladder).
    /// Night phases shift the mix toward OLTP/maintenance traffic.
    pub fn diurnal_two_classes(scale: Scale) -> Self {
        let mut base = Self::custom_base(scale, 2007);
        base.classes = vec![
            WorkloadClassConfig {
                name: "interactive".to_string(),
                client_share: 0.6,
                threshold_scale: 0.8,
                grant_fraction: 0.45,
            },
            WorkloadClassConfig {
                name: "reports".to_string(),
                client_share: 0.4,
                threshold_scale: 1.4,
                grant_fraction: 0.50,
            },
        ];
        let day_mix = WorkloadMix::new(0.85, 0.10, 0.05);
        let night_mix = WorkloadMix::new(0.45, 0.25, 0.30);
        let mut phases = Phase::diurnal("cycle", scale.minutes(10), 8, 6, 22, day_mix);
        let midpoint = (6 + 22) / 2;
        for phase in &mut phases {
            if phase.clients <= midpoint {
                phase.mix = night_mix;
            }
        }
        Scenario::new(
            "diurnal_two_classes",
            "sinusoidal day/night cycle, interactive + reports classes, night mix shift",
            base,
            phases,
        )
    }

    /// Repeated bursts arrive while the execution-grant pool degrades
    /// (70% → 45% → 25% of its budget), as if the machine were losing
    /// memory to an external consumer. Shows grant queueing and timeouts
    /// taking over as the pool shrinks.
    pub fn burst_degrading_pool(scale: Scale) -> Self {
        let base = Self::custom_base(scale, 2007);
        let default_mix = WorkloadMix::paper_default(base.oltp_fraction);
        let burst = |name: &str, grant_scale: f64| {
            Phase::steady(name, scale.minutes(8), 24, WorkloadMix::sales_only())
                .with_think_time(SimDuration::from_secs(3))
                .with_grant_budget_scale(grant_scale)
        };
        let phases = vec![
            Phase::steady("baseline", scale.minutes(10), 8, default_mix),
            burst("burst-70pct", 0.70),
            burst("burst-45pct", 0.45),
            burst("burst-25pct", 0.25),
            Phase::steady("recovery", scale.minutes(10), 8, default_mix),
        ];
        Scenario::new(
            "burst_degrading_pool",
            "burst arrivals against a degrading grant pool (100% → 25% budget)",
            base,
            phases,
        )
    }

    /// A class-mix shift at constant population: submissions move from
    /// SALES-dominated to TPC-H-like-dominated across four phases,
    /// contrasting the two families' very different compile-memory
    /// appetites under one admission policy.
    pub fn class_mix_shift(scale: Scale) -> Self {
        let base = Self::custom_base(scale, 2007);
        let mixes = [
            (0.90, 0.05, 0.05),
            (0.65, 0.30, 0.05),
            (0.40, 0.55, 0.05),
            (0.15, 0.80, 0.05),
        ];
        let phases = mixes
            .iter()
            .enumerate()
            .map(|(i, &(s, t, o))| {
                Phase::steady(
                    format!("shift-{i}"),
                    scale.minutes(12),
                    16,
                    WorkloadMix::new(s, t, o),
                )
            })
            .collect();
        Scenario::new(
            "class_mix_shift",
            "constant 16 clients; mix shifts SALES-heavy → TPC-H-like-heavy over 4 phases",
            base,
            phases,
        )
    }

    /// A client ramp across the paper's saturation knee: 8 → 40 clients in
    /// six steps (§5.2 locates maximum throughput at 30).
    pub fn ramp_to_saturation(scale: Scale) -> Self {
        let base = Self::custom_base(scale, 2007);
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = Phase::ramp("ramp", scale.minutes(8), 6, 8, 40, mix);
        Scenario::new(
            "ramp_to_saturation",
            "client ramp 8 → 40 across the §5.2 saturation knee",
            base,
            phases,
        )
    }

    // --- open-loop scenarios: arrival-process-driven load --------------------

    /// A steady open-loop Poisson stream against an empty closed loop: the
    /// offered rate is fixed by the process, not by think times, so queueing
    /// delay cannot throttle the arrivals. The textbook contrast case to
    /// the paper's closed-loop population.
    pub fn open_loop_poisson(scale: Scale) -> Self {
        let mut base = Self::custom_base(scale, 2007);
        base.arrivals = vec![ArrivalSourceConfig {
            name: "web".to_string(),
            process: ArrivalProcess::Poisson { rate_per_sec: 0.5 },
            class: 0,
            max_in_flight: 48,
            modeled_clients: 50_000,
        }];
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![Phase::steady("open-loop", scale.minutes(40), 0, mix)];
        Scenario::new(
            "open_loop_poisson",
            "steady Poisson arrivals (0.5/s, 48 in flight) with no closed-loop clients",
            base,
            phases,
        )
    }

    /// A flash crowd as a two-state MMPP: long calm stretches at a fifth of
    /// a query per second punctuated by two-minute bursts at twenty times
    /// that rate. The bursts slam into the concurrency cap and the gateway
    /// ladder together.
    pub fn flash_crowd(scale: Scale) -> Self {
        let mut base = Self::custom_base(scale, 2007);
        base.arrivals = vec![ArrivalSourceConfig {
            name: "crowd".to_string(),
            process: ArrivalProcess::Mmpp {
                calm_rate_per_sec: 0.2,
                burst_rate_per_sec: 4.0,
                mean_calm_secs: 600.0,
                mean_burst_secs: 120.0,
            },
            class: 0,
            max_in_flight: 96,
            modeled_clients: 200_000,
        }];
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![Phase::steady("open-loop", scale.minutes(40), 0, mix)];
        Scenario::new(
            "flash_crowd",
            "MMPP flash crowd: 0.2/s calm, 4/s bursts averaging two minutes",
            base,
            phases,
        )
    }

    /// Heavy-tailed inter-arrival gaps from a bounded Pareto: most gaps are
    /// near the 200 ms floor (dense arrival trains), but the tail stretches
    /// to five-minute silences — bursty in a way no Poisson stream is.
    pub fn heavy_tail_arrivals(scale: Scale) -> Self {
        let mut base = Self::custom_base(scale, 2007);
        base.arrivals = vec![ArrivalSourceConfig {
            name: "heavy-tail".to_string(),
            process: ArrivalProcess::BoundedPareto {
                alpha: 1.5,
                min_secs: 0.2,
                max_secs: 300.0,
            },
            class: 0,
            max_in_flight: 64,
            modeled_clients: 100_000,
        }];
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![Phase::steady("open-loop", scale.minutes(40), 0, mix)];
        Scenario::new(
            "heavy_tail_arrivals",
            "bounded-Pareto gaps (alpha 1.5, 0.2 s – 300 s): arrival trains and long silences",
            base,
            phases,
        )
    }

    /// A sinusoidal day/night arrival rate sampled exactly by thinning: two
    /// full cycles swinging between 0.1/s and 0.9/s. The rate varies
    /// *within* one phase — no piecewise-constant client steps involved.
    pub fn diurnal_arrivals(scale: Scale) -> Self {
        let mut base = Self::custom_base(scale, 2007);
        base.arrivals = vec![ArrivalSourceConfig {
            name: "diurnal".to_string(),
            process: ArrivalProcess::Diurnal {
                base_rate_per_sec: 0.5,
                amplitude: 0.8,
                period_secs: scale.minutes(20).as_secs_f64(),
            },
            class: 0,
            max_in_flight: 64,
            modeled_clients: 100_000,
        }];
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![Phase::steady("open-loop", scale.minutes(40), 0, mix)];
        Scenario::new(
            "diurnal_arrivals",
            "sinusoidal arrival rate (0.1/s – 0.9/s, two cycles) via exact thinning",
            base,
            phases,
        )
    }

    /// The million-user scale cell: a 4 500/s Poisson firehose standing in
    /// for a million modeled users (≥ 10 M arrivals even at quick scale)
    /// over a 64-client closed loop. Nearly all arrivals
    /// shed at the 512-slot cap — by design: each shed arrival costs one
    /// gap sample and one digest fold, so the cell measures the admission
    /// path's per-arrival overhead.
    pub fn open_loop_scale(scale: Scale) -> Self {
        let mut base = Self::custom_base(scale, 2007);
        base.arrivals = vec![ArrivalSourceConfig {
            name: "firehose".to_string(),
            process: ArrivalProcess::Poisson {
                rate_per_sec: 4_500.0,
            },
            class: 0,
            max_in_flight: 512,
            modeled_clients: 1_000_000,
        }];
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![Phase::steady("firehose", scale.minutes(40), 64, mix)];
        Scenario::new(
            "open_loop_scale",
            "million-user firehose: 4500/s Poisson + 64-client closed loop",
            base,
            phases,
        )
    }

    // --- chaos scenarios: deterministic fault injection ----------------------

    /// Ballast creeps into the machine mid-run — an external consumer leaks
    /// half the brokered memory in two dozen jittered increments, holds it,
    /// then releases it all at once. Compile targets shrink, OOM pressure
    /// rises, and the recovery phase measures how fast throughput returns.
    pub fn memory_leak_creep(scale: Scale) -> Self {
        let base = Self::chaos_base(scale, 2007);
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![
            Phase::steady("steady", scale.minutes(12), 14, mix),
            Phase::steady("leaking", scale.minutes(14), 14, mix),
            Phase::steady("recovery", scale.minutes(12), 14, mix),
        ];
        let faults = FaultPlan::new().with(
            scale.minutes(12),
            scale.minutes(14),
            FaultKind::MemoryLeak {
                total_bytes: base.broker.brokered_bytes() / 2,
                steps: 24,
            },
        );
        Scenario::new(
            "memory_leak_creep",
            "external leak ramps to half the brokered memory, holds, then clears",
            base,
            phases,
        )
        .with_faults(faults)
    }

    /// The optimizer stalls: every compile step takes 5x its normal service
    /// time for a ten-minute window. Queries pile up at the gateway, the
    /// ladder times out compiles, and the per-class breakers open until the
    /// stall clears.
    pub fn compile_stall(scale: Scale) -> Self {
        let base = Self::chaos_base(scale, 2007);
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![
            Phase::steady("steady", scale.minutes(10), 16, mix),
            Phase::steady("stalled", scale.minutes(10), 16, mix),
            Phase::steady("recovery", scale.minutes(12), 16, mix),
        ];
        let faults = FaultPlan::new().with(
            scale.minutes(10),
            scale.minutes(10),
            FaultKind::CompileStall { multiplier: 5.0 },
        );
        Scenario::new(
            "compile_stall",
            "optimizer service time 5x for ten minutes; breakers absorb the stall",
            base,
            phases,
        )
        .with_faults(faults)
    }

    /// Half the executor slots fail and later come back. Execution times
    /// inflate with the shrunken machine, grants hold longer, and the
    /// admission ladder backs up behind the slower pipeline.
    pub fn slot_failure(scale: Scale) -> Self {
        let base = Self::chaos_base(scale, 2007);
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![
            Phase::steady("steady", scale.minutes(10), 18, mix),
            Phase::steady("degraded", scale.minutes(10), 18, mix),
            Phase::steady("recovery", scale.minutes(12), 18, mix),
        ];
        let faults = FaultPlan::new().with(
            scale.minutes(10),
            scale.minutes(10),
            FaultKind::SlotLoss {
                slots: (base.cpus / 2).max(1),
            },
        );
        Scenario::new(
            "slot_failure",
            "half the executor slots fail for ten minutes, then return",
            base,
            phases,
        )
        .with_faults(faults)
    }

    /// The grant pool collapses to a quarter of its budget under an
    /// impatient all-SALES population: grant waits time out, every failed
    /// client re-arrives, and only the exponential backoff, retry budgets
    /// and breakers stand between the collapse and a retry storm.
    pub fn retry_storm(scale: Scale) -> Self {
        let base = Self::chaos_base(scale, 2007);
        let phases = vec![
            Phase::steady("steady", scale.minutes(8), 22, WorkloadMix::sales_only())
                .with_think_time(SimDuration::from_secs(5)),
            Phase::steady("collapse", scale.minutes(8), 22, WorkloadMix::sales_only())
                .with_think_time(SimDuration::from_secs(5)),
            Phase::steady("recovery", scale.minutes(8), 22, WorkloadMix::sales_only())
                .with_think_time(SimDuration::from_secs(5)),
        ];
        let faults = FaultPlan::new().with(
            scale.minutes(8),
            scale.minutes(8),
            FaultKind::GrantCollapse { scale: 0.25 },
        );
        Scenario::new(
            "retry_storm",
            "grant budget collapses to 25%; backoff and breakers damp the retry storm",
            base,
            phases,
        )
        .with_faults(faults)
    }

    /// A thundering herd: sixteen extra clients slam into a ten-client
    /// steady state for eight minutes, then vanish. Time-to-recovery after
    /// the herd leaves is the scenario's headline metric.
    pub fn thundering_herd_recovery(scale: Scale) -> Self {
        let base = Self::chaos_base(scale, 2007);
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![
            Phase::steady("steady", scale.minutes(10), 10, mix),
            Phase::steady("herd", scale.minutes(8), 10, mix),
            Phase::steady("recovery", scale.minutes(12), 10, mix),
        ];
        let faults = FaultPlan::new().with(
            scale.minutes(10),
            scale.minutes(8),
            FaultKind::ClientSurge { extra_clients: 16 },
        );
        Scenario::new(
            "thundering_herd_recovery",
            "16-client herd joins a 10-client steady state, then leaves",
            base,
            phases,
        )
        .with_faults(faults)
    }

    /// Base configuration for the chaos scenarios: [`Self::custom_base`]
    /// with the graceful-degradation machinery switched on — per-class
    /// circuit breakers, a finite retry budget, and a total query deadline
    /// — so the fault windows exercise the full resilience stack.
    fn chaos_base(scale: Scale, seed: u64) -> ServerConfig {
        let mut base = Self::custom_base(scale, seed);
        base.breaker = BreakerConfig {
            enabled: true,
            ..BreakerConfig::default()
        };
        base.retry_budget = 6;
        base.query_deadline = Some(scale.minutes(20));
        base
    }

    /// Base configuration for the beyond-the-paper scenarios: the paper's
    /// machine at quick reporting granularity, no warm-up exclusion (every
    /// phase is reported), fixed seed.
    fn custom_base(scale: Scale, seed: u64) -> ServerConfig {
        let mut base = ServerConfig::quick(1, true);
        if scale == Scale::Paper {
            base.slice = SimDuration::from_secs(3600);
        }
        base.warmup = SimDuration::ZERO;
        base.seed = seed;
        base
    }

    // --- registry -----------------------------------------------------------

    /// The names [`Scenario::builtin`] accepts.
    pub fn builtin_names() -> &'static [&'static str] {
        &[
            "paper_figure3",
            "paper_figure4",
            "paper_figure5",
            "compile_storm",
            "diurnal_two_classes",
            "burst_degrading_pool",
            "class_mix_shift",
            "ramp_to_saturation",
            "open_loop_poisson",
            "flash_crowd",
            "heavy_tail_arrivals",
            "diurnal_arrivals",
            "open_loop_scale",
            "memory_leak_creep",
            "compile_stall",
            "slot_failure",
            "retry_storm",
            "thundering_herd_recovery",
        ]
    }

    /// The names of the open-loop scenarios — the subset of
    /// [`Scenario::builtin_names`] whose load comes from arrival sources
    /// rather than (or in addition to) a closed-loop client population.
    pub fn open_loop_names() -> &'static [&'static str] {
        &[
            "open_loop_poisson",
            "flash_crowd",
            "heavy_tail_arrivals",
            "diurnal_arrivals",
            "open_loop_scale",
        ]
    }

    /// The names of the chaos (fault-injection) scenarios — the subset of
    /// [`Scenario::builtin_names`] with a non-empty [`FaultPlan`].
    pub fn chaos_names() -> &'static [&'static str] {
        &[
            "memory_leak_creep",
            "compile_stall",
            "slot_failure",
            "retry_storm",
            "thundering_herd_recovery",
        ]
    }

    /// Look up a built-in scenario by name.
    pub fn builtin(name: &str, scale: Scale) -> Option<Scenario> {
        match name {
            "paper_figure3" => Some(Self::paper_figure3(scale)),
            "paper_figure4" => Some(Self::paper_figure4(scale)),
            "paper_figure5" => Some(Self::paper_figure5(scale)),
            "compile_storm" => Some(Self::compile_storm(scale)),
            "diurnal_two_classes" => Some(Self::diurnal_two_classes(scale)),
            "burst_degrading_pool" => Some(Self::burst_degrading_pool(scale)),
            "class_mix_shift" => Some(Self::class_mix_shift(scale)),
            "ramp_to_saturation" => Some(Self::ramp_to_saturation(scale)),
            "open_loop_poisson" => Some(Self::open_loop_poisson(scale)),
            "flash_crowd" => Some(Self::flash_crowd(scale)),
            "heavy_tail_arrivals" => Some(Self::heavy_tail_arrivals(scale)),
            "diurnal_arrivals" => Some(Self::diurnal_arrivals(scale)),
            "open_loop_scale" => Some(Self::open_loop_scale(scale)),
            "memory_leak_creep" => Some(Self::memory_leak_creep(scale)),
            "compile_stall" => Some(Self::compile_stall(scale)),
            "slot_failure" => Some(Self::slot_failure(scale)),
            "retry_storm" => Some(Self::retry_storm(scale)),
            "thundering_herd_recovery" => Some(Self::thundering_herd_recovery(scale)),
            _ => None,
        }
    }

    /// Every built-in scenario at the given scale.
    pub fn all_builtins(scale: Scale) -> Vec<Scenario> {
        Self::builtin_names()
            .iter()
            .map(|n| Self::builtin(n, scale).expect("registry names resolve"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_resolves_and_validates() {
        for name in Scenario::builtin_names() {
            for scale in [Scale::Quick, Scale::Paper] {
                let s = Scenario::builtin(name, scale)
                    .unwrap_or_else(|| panic!("builtin {name} missing"));
                assert_eq!(&s.name, name);
                s.validate();
                assert!(
                    s.max_clients() > 0 || !s.base.arrivals.is_empty(),
                    "{name} drives no load"
                );
                assert!(!s.total_duration().is_zero());
            }
        }
        assert!(Scenario::builtin("no_such_scenario", Scale::Quick).is_none());
    }

    #[test]
    fn at_least_three_builtins_go_beyond_the_paper() {
        let beyond: Vec<_> = Scenario::builtin_names()
            .iter()
            .filter(|n| !n.starts_with("paper_"))
            .collect();
        assert!(beyond.len() >= 3, "only {} custom scenarios", beyond.len());
    }

    #[test]
    fn paper_figures_delegate_to_the_paper_config() {
        let s = Scenario::paper_figure3(Scale::Paper);
        let reference = ServerConfig::paper(30, true);
        assert_eq!(s.base.cpus, reference.cpus);
        assert_eq!(s.base.duration, reference.duration);
        assert!(s.base.throttle.enabled);
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].clients, 30);
        assert_eq!(s.total_duration(), reference.duration);
    }

    #[test]
    fn paper_scale_stretches_custom_phase_durations() {
        let quick = Scenario::compile_storm(Scale::Quick);
        let paper = Scenario::compile_storm(Scale::Paper);
        assert_eq!(
            paper.total_duration().as_secs(),
            quick.total_duration().as_secs() * 6
        );
    }

    #[test]
    fn degrading_pool_scenario_actually_degrades() {
        let s = Scenario::burst_degrading_pool(Scale::Quick);
        let scales: Vec<f64> = s
            .phases
            .iter()
            .filter_map(|p| p.overrides.grant_budget_scale)
            .collect();
        assert_eq!(scales, vec![0.70, 0.45, 0.25]);
        assert_eq!(s.max_clients(), 24);
    }

    #[test]
    fn chaos_builtins_carry_fault_plans_and_degradation_config() {
        for name in Scenario::chaos_names() {
            for scale in [Scale::Quick, Scale::Paper] {
                let s = Scenario::builtin(name, scale)
                    .unwrap_or_else(|| panic!("chaos builtin {name} missing"));
                assert!(!s.faults.is_empty(), "{name} schedules no faults");
                assert!(s.base.breaker.enabled, "{name} leaves the breaker off");
                assert!(s.base.retry_budget > 0, "{name} has no retry budget");
                assert!(s.base.query_deadline.is_some(), "{name} has no deadline");
                s.validate();
            }
        }
        // Everything outside the chaos set stays fault-free: the layer is
        // strictly additive for pre-existing scenarios and their goldens.
        for name in Scenario::builtin_names() {
            if !Scenario::chaos_names().contains(name) {
                let s = Scenario::builtin(name, Scale::Quick).unwrap();
                assert!(s.faults.is_empty(), "{name} unexpectedly has faults");
                assert!(!s.base.breaker.enabled, "{name} unexpectedly breakered");
            }
        }
    }

    #[test]
    fn open_loop_builtins_declare_sources_and_stay_fault_free() {
        for name in Scenario::open_loop_names() {
            for scale in [Scale::Quick, Scale::Paper] {
                let s = Scenario::builtin(name, scale)
                    .unwrap_or_else(|| panic!("open-loop builtin {name} missing"));
                assert!(!s.base.arrivals.is_empty(), "{name} declares no sources");
                assert!(s.faults.is_empty(), "{name} unexpectedly has faults");
                for src in &s.base.arrivals {
                    assert!(src.class < s.base.classes.len().max(1));
                }
                s.validate();
                s.runtime_config().validate();
            }
        }
        // The registry subset relation holds.
        for name in Scenario::open_loop_names() {
            assert!(Scenario::builtin_names().contains(name));
        }
    }

    #[test]
    fn scale_scenario_offers_ten_million_arrivals_even_at_quick_scale() {
        let s = Scenario::open_loop_scale(Scale::Quick);
        let offered: f64 = s
            .base
            .arrivals
            .iter()
            .map(|src| src.process.mean_rate_per_sec() * s.total_duration().as_secs_f64())
            .sum();
        assert!(
            offered >= 10_000_000.0,
            "scale cell offers only {offered:.0} arrivals"
        );
        let modeled: u32 = s.base.arrivals.iter().map(|src| src.modeled_clients).sum();
        assert!(modeled >= 1_000_000, "scale cell models {modeled} users");
    }

    #[test]
    #[should_panic(expected = "drives no load")]
    fn zero_load_scenario_rejected() {
        let base = Scenario::custom_base(Scale::Quick, 2007);
        let mix = WorkloadMix::paper_default(base.oltp_fraction);
        let phases = vec![Phase::steady("idle", SimDuration::from_secs(60), 0, mix)];
        Scenario::new("idle", "no clients, no sources", base, phases).validate();
    }

    #[test]
    fn surge_headroom_reaches_the_runtime_config() {
        let s = Scenario::thundering_herd_recovery(Scale::Quick);
        assert_eq!(s.max_clients(), 10, "phase population");
        assert_eq!(
            s.runtime_config().clients,
            10 + s.faults.max_surge_clients(),
            "runtime config must reserve client slots for the surge"
        );
    }

    #[test]
    fn with_seed_only_changes_the_seed() {
        let a = Scenario::compile_storm(Scale::Quick);
        let b = Scenario::compile_storm(Scale::Quick).with_seed(99);
        assert_eq!(b.base.seed, 99);
        assert_eq!(a.phases, b.phases);
    }

    #[test]
    fn with_clients_sets_every_phase_and_the_runtime_config() {
        let a = Scenario::compile_storm(Scale::Quick);
        let b = Scenario::compile_storm(Scale::Quick).with_clients(17);
        assert!(b.phases.iter().all(|p| p.clients == 17));
        assert_eq!(b.runtime_config().clients, 17);
        assert_eq!(a.total_duration(), b.total_duration());
        assert_eq!(a.base, b.base);
    }

    #[test]
    fn with_policy_reaches_the_runtime_config() {
        let a = Scenario::compile_storm(Scale::Quick);
        assert_eq!(a.base.policy, PolicyKind::Ladder, "ladder is the default");
        for kind in PolicyKind::all() {
            let s = Scenario::compile_storm(Scale::Quick).with_policy(kind);
            assert_eq!(s.runtime_config().policy, kind);
            assert_eq!(a.phases, s.phases, "policy must not perturb the phases");
        }
    }
}
