//! Server / experiment configuration.

use serde::{Deserialize, Serialize};
use throttledb_core::ThrottleConfig;
use throttledb_governor::BreakerConfig;
use throttledb_membroker::BrokerConfig;
use throttledb_sim::{ArrivalProcess, SimDuration};
use throttledb_workload::ClientModel;

/// One open-loop arrival source: an aggregate client population modeled as
/// a stochastic arrival *process* instead of per-client closed-loop state.
///
/// A source costs the server one pending next-arrival instant, held
/// beside the event queue and merged with it by `(time, seq)`,
/// regardless of how many users it models, which is what lets a single
/// sweep cell push tens of millions of arrivals through admission.
/// Arrivals beyond [`ArrivalSourceConfig::max_in_flight`] concurrent
/// queries are shed at the door — before any query content is sampled — so
/// an overloaded source stays cheap: one gap sample and one digest fold
/// per rejected arrival.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalSourceConfig {
    /// Source name ("web", "api", "batch", ...), used in per-source metrics.
    pub name: String,
    /// The stochastic process arrival instants are drawn from. Each source
    /// samples from its own forked RNG stream, so adding a source never
    /// perturbs another source's arrival sequence.
    pub process: ArrivalProcess,
    /// Workload class (index into [`ServerConfig::classes`]) this source's
    /// queries submit under.
    pub class: usize,
    /// Concurrency cap: with this many of the source's queries already in
    /// flight, further arrivals are shed immediately.
    pub max_in_flight: u32,
    /// Size of the user population this source stands in for. Reporting
    /// only — the process alone fixes the offered load.
    pub modeled_clients: u32,
}

impl ArrivalSourceConfig {
    /// Panics on inconsistent settings.
    pub fn validate(&self) {
        assert!(!self.name.is_empty(), "arrival source needs a name");
        self.process.validate();
        assert!(
            self.max_in_flight > 0,
            "arrival source needs max_in_flight >= 1"
        );
        assert!(
            self.modeled_clients > 0,
            "arrival source models at least one client"
        );
    }
}

/// One named workload class, mapped to its own per-class admission pools: a
/// gateway ladder with scaled thresholds and a slice of the execution
/// memory-grant budget. Classes let one server give interactive sessions,
/// ad-hoc analysts and scheduled reports different throttling envelopes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadClassConfig {
    /// Class name ("default", "adhoc", "report", ...).
    pub name: String,
    /// Fraction of the client population assigned to this class. Shares are
    /// normalized over all classes, so any positive weights work.
    pub client_share: f64,
    /// Multiplier applied to the base ladder's gateway thresholds: < 1
    /// throttles this class's compilations earlier, > 1 later.
    pub threshold_scale: f64,
    /// Fraction of the broker's execution-memory target given to this
    /// class's grant pool. Fractions across classes should sum to at most 1.
    pub grant_fraction: f64,
}

impl WorkloadClassConfig {
    /// The single catch-all class used when no classes are configured
    /// explicitly: the whole population, unscaled ladder, whole grant budget.
    pub fn default_class() -> Self {
        WorkloadClassConfig {
            name: "default".to_string(),
            client_share: 1.0,
            threshold_scale: 1.0,
            grant_fraction: 1.0,
        }
    }

    /// This class's ladder configuration: `base` with every gateway
    /// threshold scaled by [`WorkloadClassConfig::threshold_scale`]. The
    /// exemption floor is clamped below the first scaled threshold so the
    /// diagnostic-query exemption invariant survives aggressive
    /// down-scaling.
    pub fn scaled_throttle(&self, base: &ThrottleConfig) -> ThrottleConfig {
        let mut cfg = base.clone();
        if (self.threshold_scale - 1.0).abs() > f64::EPSILON {
            for m in &mut cfg.monitors {
                m.threshold_bytes =
                    ((m.threshold_bytes as f64 * self.threshold_scale) as u64).max(1);
            }
            cfg.exempt_bytes = cfg.exempt_bytes.min(cfg.monitors[0].threshold_bytes);
        }
        cfg
    }

    /// Panics on inconsistent settings.
    pub fn validate(&self) {
        assert!(!self.name.is_empty(), "workload class needs a name");
        assert!(self.client_share > 0.0, "client_share must be positive");
        assert!(
            self.threshold_scale > 0.0,
            "threshold_scale must be positive"
        );
        assert!(
            self.grant_fraction > 0.0 && self.grant_fraction <= 1.0,
            "grant_fraction must be in (0,1]"
        );
    }
}

/// Which compilation-admission policy a run uses.
///
/// Every built-in scenario can run under any policy (see
/// `Scenario::with_policy` in `throttledb-scenario`); the bench crate's
/// policy sweeps grid all three against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The paper's static gateway ladder (the baseline).
    Ladder,
    /// A PID feedback controller servoing a concurrency limit on the
    /// broker's predicted compilation-memory pressure.
    Pid,
    /// A cost-based planner reserving each template's profiled peak
    /// compilation bytes against the broker's compilation target.
    CostBased,
}

impl PolicyKind {
    /// All policies, in scoreboard order.
    pub fn all() -> [PolicyKind; 3] {
        [PolicyKind::Ladder, PolicyKind::Pid, PolicyKind::CostBased]
    }

    /// The short name used on CLIs and in `BENCH_policies.json`.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Ladder => "ladder",
            PolicyKind::Pid => "pid",
            PolicyKind::CostBased => "cost",
        }
    }

    /// Parse a CLI name ("ladder", "pid", "cost").
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "ladder" => Some(PolicyKind::Ladder),
            "pid" => Some(PolicyKind::Pid),
            "cost" | "cost-based" => Some(PolicyKind::CostBased),
            _ => None,
        }
    }

    /// Number of admission levels this policy's `ThrottleStats` cover under
    /// `throttle`: the ladder reports per gateway, the single-queue
    /// policies at one level. A disabled throttle always runs the (inert)
    /// ladder, whatever the configured kind.
    pub fn levels(self, throttle: &ThrottleConfig) -> usize {
        if !throttle.enabled {
            return throttle.monitor_count();
        }
        match self {
            PolicyKind::Ladder => throttle.monitor_count(),
            PolicyKind::Pid | PolicyKind::CostBased => 1,
        }
    }
}

/// Configuration of one simulated server run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// CPUs on the machine (paper: 8 × 700 MHz Xeon).
    pub cpus: u32,
    /// Memory broker configuration (paper: 4 GB).
    pub broker: BrokerConfig,
    /// The gateway ladder's configuration (enabled = throttled run).
    pub throttle: ThrottleConfig,
    /// Number of closed-loop clients. May be zero when at least one
    /// open-loop [`ArrivalSourceConfig`] supplies the load.
    pub clients: u32,
    /// Open-loop arrival sources layered on top of (or replacing) the
    /// closed-loop population. Empty reproduces the paper's purely
    /// closed-loop runs.
    pub arrivals: Vec<ArrivalSourceConfig>,
    /// No effect. Every closed-loop client already runs the one compact
    /// model: its retry chain rides in its pending submit event and its
    /// class comes from [`ServerConfig::class_bounds`]. The field stays
    /// only because the repository benchmark still assigns it; ROADMAP
    /// item 8(A) deletes it.
    pub cohort_compressed: bool,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Warm-up period excluded from reported results (the paper drops the
    /// ramp-up and starts its figures at an intermediate time index).
    pub warmup: SimDuration,
    /// Width of one reporting slice in the throughput figures.
    pub slice: SimDuration,
    /// Client think/retry behaviour.
    pub client_model: ClientModel,
    /// RNG seed (figures regenerate identically for a given seed).
    pub seed: u64,

    // --- calibration of the simulated hardware -------------------------------
    /// Seconds of compile CPU per optimizer transformation on one 700 MHz
    /// core. 35 000 transformations ≈ 50 s, matching the paper's
    /// "queries ... generally compile for 10-90 seconds".
    pub compile_seconds_per_transformation: f64,
    /// Fixed compile CPU floor (parsing/binding) in seconds.
    pub compile_seconds_base: f64,
    /// Number of discrete memory-growth steps a simulated compilation takes.
    pub compile_steps: u32,
    /// Fraction of a plan's statistical footprint that one execution actually
    /// reads (index access, partition pruning). Keeps executions in the
    /// paper's 30 s – 10 min band.
    pub io_touched_fraction: f64,
    /// Aggregate sequential I/O bandwidth of the RAID array, bytes/second
    /// (paper: 2-channel Ultra3 SCSI, 8 spindles).
    pub io_bandwidth_bytes_per_sec: f64,
    /// Size of the hot working set the buffer pool caches (dimension tables,
    /// indexes, hot fact ranges).
    pub hot_working_set_bytes: u64,
    /// CPU parallelism one query's execution can exploit.
    pub exec_parallelism: f64,
    /// Calibration factor applied to the execution model's per-row CPU cost.
    /// The optimizer's row counts describe the full-scale warehouse without
    /// the bitmap filters and vectorized execution a production engine uses;
    /// this factor brings simulated executions into the paper's observed
    /// 30 s – 10 min band.
    pub exec_cpu_calibration: f64,
    /// How long a query may wait for its execution memory grant before
    /// failing with a resource error.
    pub grant_timeout: SimDuration,
    /// Interval between broker recalculations / housekeeping ticks.
    pub broker_tick: SimDuration,
    /// Fraction of OLTP/diagnostic queries mixed into the stream.
    pub oltp_fraction: f64,
    /// Named workload classes, each with its own per-class admission pools
    /// (scaled gateway ladder + grant-budget slice). The default single
    /// "default" class reproduces the paper's undifferentiated population.
    pub classes: Vec<WorkloadClassConfig>,
    /// Which compilation-admission policy runs (default: the paper's
    /// gateway ladder). Ignored when the throttle is disabled — a baseline
    /// run admits everything under any policy.
    pub policy: PolicyKind,
    /// Per-class circuit breaker over a rolling failure-rate window
    /// (default: disabled). While open, large arrivals are shed and small
    /// ones brown out; see `throttledb_governor::CircuitBreaker`.
    pub breaker: BreakerConfig,
    /// Consecutive failed/shed attempts a client tolerates before
    /// abandoning the retry chain and moving on to fresh work (0 =
    /// unlimited, the paper's behaviour).
    pub retry_budget: u32,
    /// Total deadline for one logical query across retries, measured from
    /// the chain's first submission: once exceeded, a failed attempt is
    /// abandoned instead of requeued (fail fast). `None` disables the
    /// deadline.
    pub query_deadline: Option<SimDuration>,
    /// No effect: every run samples its arrival instants on the event
    /// loop's own thread. The field once picked a threaded arrival feed,
    /// which the inline feed now outruns; it stays (at least 1, default 1)
    /// only because the repository benchmark still assigns it.
    pub shards: u32,
}

impl ServerConfig {
    /// The paper's evaluation configuration with `clients` concurrent users
    /// and throttling enabled or disabled.
    ///
    /// # Examples
    ///
    /// ```
    /// use throttledb_engine::ServerConfig;
    ///
    /// // The §5 machine: 8 CPUs, an 8-hour run with a 3-hour warm-up and
    /// // 3600-second reporting slices, throttling on.
    /// let cfg = ServerConfig::paper(30, true);
    /// cfg.validate();
    /// assert_eq!(cfg.cpus, 8);
    /// assert_eq!(cfg.duration.as_secs(), 8 * 3600);
    /// assert!(cfg.throttle.enabled);
    ///
    /// // The baseline leg of every figure differs only in the throttle.
    /// assert!(!ServerConfig::paper(30, false).throttle.enabled);
    /// ```
    pub fn paper(clients: u32, throttled: bool) -> Self {
        let throttle = if throttled {
            ThrottleConfig::paper_machine()
        } else {
            ThrottleConfig::disabled(8)
        };
        ServerConfig {
            cpus: 8,
            broker: BrokerConfig::paper_machine(),
            throttle,
            clients,
            arrivals: Vec::new(),
            cohort_compressed: false,
            // The paper plots 10800 s .. 28800 s after warm-up; we simulate
            // 8 hours and drop the first 3 as warm-up, giving the same
            // five 3600-second slices.
            duration: SimDuration::from_secs(8 * 3600),
            warmup: SimDuration::from_secs(3 * 3600),
            slice: SimDuration::from_secs(3600),
            client_model: ClientModel::default(),
            seed: 2007,
            compile_seconds_per_transformation: 1.4e-3,
            compile_seconds_base: 2.0,
            compile_steps: 16,
            io_touched_fraction: 0.05,
            io_bandwidth_bytes_per_sec: 160.0e6,
            hot_working_set_bytes: 8 << 30,
            exec_parallelism: 4.0,
            exec_cpu_calibration: 0.04,
            grant_timeout: SimDuration::from_secs(900),
            broker_tick: SimDuration::from_secs(5),
            oltp_fraction: 0.05,
            classes: vec![WorkloadClassConfig::default_class()],
            policy: PolicyKind::Ladder,
            breaker: BreakerConfig::default(),
            retry_budget: 0,
            query_deadline: None,
            shards: 1,
        }
    }

    /// A shortened configuration for tests and quick demos: same machine,
    /// fewer clients, 1 simulated hour with a 15-minute warm-up and
    /// 10-minute slices.
    pub fn quick(clients: u32, throttled: bool) -> Self {
        ServerConfig {
            duration: SimDuration::from_secs(3600),
            warmup: SimDuration::from_secs(900),
            slice: SimDuration::from_secs(600),
            ..ServerConfig::paper(clients, throttled)
        }
    }

    /// Replace the class list with the standard three-class split used by
    /// the per-class experiments: half the population in "default"
    /// (unscaled ladder, 40% of the grant budget), 30% in "adhoc"
    /// (thresholds halved — ad-hoc exploration is throttled early — 25% of
    /// grants) and 20% in "report" (thresholds relaxed 1.5×, 35% of grants
    /// for the big scheduled reports).
    pub fn with_standard_classes(mut self) -> Self {
        self.classes = vec![
            WorkloadClassConfig {
                name: "default".to_string(),
                client_share: 0.5,
                threshold_scale: 1.0,
                grant_fraction: 0.40,
            },
            WorkloadClassConfig {
                name: "adhoc".to_string(),
                client_share: 0.3,
                threshold_scale: 0.5,
                grant_fraction: 0.25,
            },
            WorkloadClassConfig {
                name: "report".to_string(),
                client_share: 0.2,
                threshold_scale: 1.5,
                grant_fraction: 0.35,
            },
        ];
        self
    }

    /// Panics on inconsistent settings.
    pub fn validate(&self) {
        assert!(self.cpus > 0);
        assert!(
            self.clients > 0 || !self.arrivals.is_empty(),
            "need closed-loop clients or at least one arrival source"
        );
        assert!(
            self.warmup < self.duration,
            "warm-up must end before the run does"
        );
        assert!(!self.slice.is_zero());
        assert!(self.compile_steps >= 2);
        assert!(self.io_bandwidth_bytes_per_sec > 0.0);
        assert!((0.0..=1.0).contains(&self.io_touched_fraction));
        assert!(self.exec_parallelism >= 1.0);
        assert!(self.exec_cpu_calibration > 0.0);
        self.broker.validate();
        self.throttle.validate();
        assert!(!self.classes.is_empty(), "need at least one workload class");
        let mut grant_total = 0.0;
        for class in &self.classes {
            class.validate();
            class.scaled_throttle(&self.throttle).validate();
            grant_total += class.grant_fraction;
        }
        assert!(
            grant_total <= 1.0 + 1e-9,
            "class grant fractions oversubscribe the execution budget (sum = {grant_total})"
        );
        self.breaker.validate();
        for (index, source) in self.arrivals.iter().enumerate() {
            source.validate();
            assert!(
                source.class < self.classes.len(),
                "arrival source {index} ({}) names class {} but only {} classes exist",
                source.name,
                source.class,
                self.classes.len()
            );
        }
        if let Some(deadline) = self.query_deadline {
            assert!(!deadline.is_zero(), "query deadline must be positive");
        }
        assert!(self.shards >= 1, "a run needs at least one shard");
    }

    /// The deterministic order in which clients are activated when fewer
    /// than the configured maximum participate (scenario phases resize the
    /// population): classes are interleaved proportionally to their
    /// normalized shares, so any partial population still covers every
    /// class. A contiguous prefix of client ids (see
    /// [`ServerConfig::class_bounds`]) would instead starve the later classes entirely — while the
    /// broker kept reserving their grant and compile-target slices.
    pub fn activation_order(&self) -> Vec<u32> {
        let bounds = self.class_bounds();
        let class_totals: Vec<u32> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        // (position within the class, class, client id), 0-based.
        let mut keyed: Vec<(u32, usize, u32)> = Vec::with_capacity(self.clients as usize);
        for (class, range) in bounds.windows(2).enumerate() {
            keyed.extend((range[0]..range[1]).map(|client| (client - range[0], class, client)));
        }
        // Sort by fractional position within the class ((pos+1)/total,
        // compared exactly via cross-multiplication), tie-broken by class
        // then client id: the i-th activated client of a class with N
        // members arrives at fraction (i+1)/N, which interleaves classes
        // in proportion to their sizes.
        keyed.sort_by(|a, b| {
            let lhs = (a.0 as u64 + 1) * class_totals[b.1] as u64;
            let rhs = (b.0 as u64 + 1) * class_totals[a.1] as u64;
            lhs.cmp(&rhs).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
        });
        keyed.into_iter().map(|(_, _, client)| client).collect()
    }

    /// Deterministically assign clients to classes: contiguous ranges of
    /// client ids sized by the normalized
    /// [`WorkloadClassConfig::client_share`]s, with the last class absorbing
    /// the rounding remainder. Returns the `classes.len() + 1` fenceposts:
    /// class `i` owns client ids `bounds[i] .. bounds[i + 1]`.
    pub fn class_bounds(&self) -> Vec<u32> {
        let total_share: f64 = self.classes.iter().map(|c| c.client_share).sum();
        let mut bounds = Vec::with_capacity(self.classes.len() + 1);
        bounds.push(0u32);
        let mut acc = 0.0;
        for class in self.classes.iter().take(self.classes.len() - 1) {
            acc += class.client_share / total_share;
            let end = ((self.clients as f64 * acc).round() as u32).min(self.clients);
            bounds.push(end);
        }
        bounds.push(self.clients);
        bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_valid() {
        ServerConfig::paper(30, true).validate();
        ServerConfig::paper(40, false).validate();
        ServerConfig::quick(10, true).validate();
    }

    #[test]
    fn throttled_flag_controls_the_ladder() {
        assert!(ServerConfig::paper(30, true).throttle.enabled);
        assert!(!ServerConfig::paper(30, false).throttle.enabled);
    }

    #[test]
    fn paper_run_covers_the_figure_time_range() {
        let c = ServerConfig::paper(30, true);
        assert!(c.duration.as_secs() >= 28_800);
        assert_eq!(c.slice.as_secs(), 3_600);
    }

    #[test]
    #[should_panic(expected = "warm-up")]
    fn warmup_longer_than_run_rejected() {
        let mut c = ServerConfig::quick(5, true);
        c.warmup = SimDuration::from_secs(7200);
        c.validate();
    }

    #[test]
    fn default_config_has_one_catch_all_class() {
        let c = ServerConfig::quick(10, true);
        assert_eq!(c.classes.len(), 1);
        assert_eq!(c.classes[0].name, "default");
        assert_eq!(c.class_bounds(), vec![0, 10]);
        // The catch-all class uses the base ladder unchanged.
        assert_eq!(c.classes[0].scaled_throttle(&c.throttle), c.throttle);
    }

    #[test]
    fn standard_classes_validate_and_partition_clients() {
        let c = ServerConfig::quick(20, true).with_standard_classes();
        c.validate();
        let bounds = c.class_bounds();
        let count = |idx: usize| bounds[idx + 1] - bounds[idx];
        assert_eq!(count(0), 10, "50% share of 20 clients");
        assert_eq!(count(1), 6, "30% share");
        assert_eq!(count(2), 4, "20% share");
        // Assignment is deterministic and covers every client.
        assert_eq!(c.class_bounds(), bounds);
        assert_eq!(bounds, vec![0, 10, 16, 20]);
    }

    #[test]
    fn threshold_scaling_keeps_ladder_invariants() {
        let c = ServerConfig::quick(10, true).with_standard_classes();
        for class in &c.classes {
            let t = class.scaled_throttle(&c.throttle);
            t.validate();
        }
        // The "adhoc" class halves the thresholds.
        let adhoc = c.classes[1].scaled_throttle(&c.throttle);
        assert_eq!(
            adhoc.monitors[1].threshold_bytes,
            c.throttle.monitors[1].threshold_bytes / 2
        );
        // Exemption floor is clamped below the first scaled threshold.
        assert!(adhoc.exempt_bytes <= adhoc.monitors[0].threshold_bytes);
    }

    #[test]
    fn activation_order_is_identity_for_a_single_class() {
        let c = ServerConfig::quick(10, true);
        assert_eq!(c.activation_order(), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn activation_order_interleaves_classes_proportionally() {
        let c = ServerConfig::quick(20, true).with_standard_classes();
        let order = c.activation_order();
        assert_eq!(order.len(), 20);
        // Every client appears exactly once.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
        // Any partial prefix covers every class roughly by share: with
        // shares 50/30/20 over 20 clients, the first 5 activations must
        // already include all three classes.
        let bounds = c.class_bounds();
        let class_of = |client: u32| bounds.partition_point(|&b| b <= client) - 1;
        let classes_in = |n: usize| {
            let mut seen = std::collections::HashSet::new();
            for client in &order[..n] {
                seen.insert(class_of(*client));
            }
            seen.len()
        };
        assert_eq!(classes_in(5), 3, "first 5 activations miss a class");
        // And the 10-client prefix is close to the 5/3/2 share split.
        let mut counts = [0usize; 3];
        for client in &order[..10] {
            counts[class_of(*client)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!((4..=6).contains(&counts[0]), "default {counts:?}");
        assert!((2..=4).contains(&counts[1]), "adhoc {counts:?}");
        assert!((1..=3).contains(&counts[2]), "report {counts:?}");
    }

    #[test]
    fn policy_kind_parses_and_names_round_trip() {
        for kind in PolicyKind::all() {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("cost-based"), Some(PolicyKind::CostBased));
        assert_eq!(PolicyKind::parse("fifo"), None);
    }

    #[test]
    fn policy_levels_follow_the_throttle() {
        let c = ServerConfig::quick(5, true);
        assert_eq!(PolicyKind::Ladder.levels(&c.throttle), 3);
        assert_eq!(PolicyKind::Pid.levels(&c.throttle), 1);
        assert_eq!(PolicyKind::CostBased.levels(&c.throttle), 1);
        // A disabled throttle runs the inert ladder whatever the kind.
        let baseline = ServerConfig::quick(5, false);
        for kind in PolicyKind::all() {
            assert_eq!(kind.levels(&baseline.throttle), 3);
        }
    }

    #[test]
    fn default_policy_is_the_paper_ladder() {
        assert_eq!(ServerConfig::paper(10, true).policy, PolicyKind::Ladder);
        assert_eq!(ServerConfig::quick(10, true).policy, PolicyKind::Ladder);
    }

    #[test]
    fn degradation_machinery_defaults_off() {
        // The chaos layer is opt-in: stock configurations run without a
        // breaker, retry budget or deadline, so pre-existing goldens and
        // baselines are unaffected.
        let c = ServerConfig::paper(10, true);
        assert!(!c.breaker.enabled);
        assert_eq!(c.retry_budget, 0);
        assert_eq!(c.query_deadline, None);
        assert_eq!(c.shards, 1, "sharding must be opt-in");
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let mut c = ServerConfig::quick(5, true);
        c.shards = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn zero_query_deadline_rejected() {
        let mut c = ServerConfig::quick(5, true);
        c.query_deadline = Some(SimDuration::ZERO);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn oversubscribed_grant_fractions_rejected() {
        let mut c = ServerConfig::quick(5, true).with_standard_classes();
        c.classes[0].grant_fraction = 0.9;
        c.validate();
    }

    fn source(class: usize) -> ArrivalSourceConfig {
        ArrivalSourceConfig {
            name: "web".to_string(),
            process: ArrivalProcess::Poisson { rate_per_sec: 50.0 },
            class,
            max_in_flight: 64,
            modeled_clients: 100_000,
        }
    }

    #[test]
    fn class_bounds_are_monotone_fenceposts_for_any_population() {
        for clients in [0u32, 1, 7, 10, 20, 33] {
            let mut c = ServerConfig::quick(clients, true).with_standard_classes();
            c.clients = clients;
            let bounds = c.class_bounds();
            assert_eq!(bounds.len(), c.classes.len() + 1);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), clients);
            assert!(
                bounds.windows(2).all(|w| w[0] <= w[1]),
                "{clients} clients: bounds {bounds:?} not monotone"
            );
            // The activation order is a permutation of exactly these ids.
            let mut order = c.activation_order();
            order.sort_unstable();
            assert_eq!(order, (0..clients).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn arrival_sources_allow_a_zero_client_population() {
        let mut c = ServerConfig::quick(1, true);
        c.clients = 0;
        c.arrivals.push(source(0));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "arrival source")]
    fn zero_clients_without_sources_rejected() {
        let mut c = ServerConfig::quick(1, true);
        c.clients = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "classes exist")]
    fn arrival_source_with_unknown_class_rejected() {
        let mut c = ServerConfig::quick(5, true);
        c.arrivals.push(source(3));
        c.validate();
    }
}
