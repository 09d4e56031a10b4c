//! The experiments that regenerate the paper's figures and tables.

use crate::config::ServerConfig;
use crate::metrics::{ClassMetrics, RunMetrics};
use crate::profile::WorkloadProfiles;
use crate::server::Server;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use throttledb_core::{GatewayLadder, LadderDecision, ThrottleConfig};
use throttledb_sim::{GaugeTimeline, SimDuration, SimTime};

/// A throttled-vs-unthrottled pair of runs at one client count
/// (Figures 3, 4 and 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputComparison {
    /// Number of clients.
    pub clients: u32,
    /// The throttled run.
    pub throttled: RunMetrics,
    /// The baseline (non-throttled) run.
    pub unthrottled: RunMetrics,
}

impl ThroughputComparison {
    /// Relative throughput improvement of throttling
    /// (`throttled / unthrottled − 1`), using post-warm-up completions.
    /// `None` when the baseline completed nothing after warm-up: there is
    /// no ratio to report, however the throttled run did.
    pub fn improvement(&self) -> Option<f64> {
        let t = self.throttled.completed_after_warmup as f64;
        let u = self.unthrottled.completed_after_warmup as f64;
        (u > 0.0).then(|| t / u - 1.0)
    }

    /// Print the figure in the paper's format: completions per time slice.
    pub fn print(&self, figure_name: &str) {
        println!(
            "== {figure_name}: Successful Queries/Time ({} clients) ==",
            self.clients
        );
        println!(
            "{:>12} {:>12} {:>14}",
            "time (s)", "throttled", "non-throttled"
        );
        let t_rows = self.throttled.figure_rows();
        let u_rows = self.unthrottled.figure_rows();
        for (i, (secs, count)) in t_rows.iter().enumerate() {
            let u = u_rows.get(i).map(|(_, c)| *c).unwrap_or(0);
            println!("{:>12} {:>12} {:>14}", secs, count, u);
        }
        let improvement = match self.improvement() {
            Some(ratio) => format!("{:+.0}%", ratio * 100.0),
            None => "n/a (baseline completed 0)".to_string(),
        };
        println!(
            "sustained/slice: throttled {:.1} vs non-throttled {:.1}  (improvement {improvement})",
            self.throttled.sustained_throughput_per_slice(),
            self.unthrottled.sustained_throughput_per_slice(),
        );
        println!(
            "failures: throttled {} (oom {}, compile-timeout {}, grant-timeout {}) vs non-throttled {} (oom {})",
            self.throttled.total_failures(),
            self.throttled.oom_failures,
            self.throttled.compile_timeouts,
            self.throttled.grant_timeouts,
            self.unthrottled.total_failures(),
            self.unthrottled.oom_failures,
        );
    }
}

/// Run the throughput experiment (Figures 3–5) at `clients` clients using
/// `base` for everything except the throttle flag.
pub fn throughput_experiment(base: &ServerConfig, clients: u32) -> ThroughputComparison {
    let profiles = Arc::new(WorkloadProfiles::characterize_sales(base));
    throughput_experiment_with_profiles(base, clients, &profiles)
}

/// Same as [`throughput_experiment`] but reusing already-characterized
/// profiles (the client-sweep and ablation harnesses share them).
pub fn throughput_experiment_with_profiles(
    base: &ServerConfig,
    clients: u32,
    profiles: &Arc<WorkloadProfiles>,
) -> ThroughputComparison {
    let mut throttled_cfg = base.clone();
    throttled_cfg.clients = clients;
    throttled_cfg.throttle = ThrottleConfig::for_cpus(base.cpus);
    let mut unthrottled_cfg = throttled_cfg.clone();
    unthrottled_cfg.throttle = ThrottleConfig::disabled(base.cpus);

    ThroughputComparison {
        clients,
        throttled: Server::new(throttled_cfg, profiles.clone()).run(),
        unthrottled: Server::new(unthrottled_cfg, profiles.clone()).run(),
    }
}

/// One row of the client sweep (Table T2: locating the 30-client knee).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRow {
    /// Client count.
    pub clients: u32,
    /// Post-warm-up completions, throttled.
    pub throttled_completed: u64,
    /// Post-warm-up completions, non-throttled.
    pub unthrottled_completed: u64,
    /// Failures, throttled.
    pub throttled_failures: u64,
    /// Failures, non-throttled.
    pub unthrottled_failures: u64,
}

/// Sweep the client count (§5.2: "this benchmark produces maximum throughput
/// with 30 clients ... increasing the number of users beyond 30 saturates the
/// server and causes some operations to fail").
///
/// # Examples
///
/// ```
/// use throttledb_engine::{client_sweep, ServerConfig};
/// use throttledb_sim::SimDuration;
///
/// // A miniature sweep (10 simulated minutes per run) over two client
/// // counts; each row holds a throttled and an unthrottled run.
/// let mut base = ServerConfig::quick(4, true);
/// base.duration = SimDuration::from_secs(600);
/// base.warmup = SimDuration::from_secs(60);
/// base.slice = SimDuration::from_secs(60);
/// let rows = client_sweep(&base, &[2, 4]);
/// assert_eq!(rows.len(), 2);
/// assert_eq!(rows[0].clients, 2);
/// assert!(rows.iter().any(|r| r.throttled_completed > 0));
/// ```
pub fn client_sweep(base: &ServerConfig, client_counts: &[u32]) -> Vec<SweepRow> {
    let profiles = Arc::new(WorkloadProfiles::characterize_sales(base));
    client_counts
        .iter()
        .map(|&clients| {
            let cmp = throughput_experiment_with_profiles(base, clients, &profiles);
            SweepRow {
                clients,
                throttled_completed: cmp.throttled.completed_after_warmup,
                unthrottled_completed: cmp.unthrottled.completed_after_warmup,
                throttled_failures: cmp.throttled.total_failures(),
                unthrottled_failures: cmp.unthrottled.total_failures(),
            }
        })
        .collect()
}

/// One row of the per-class client sweep: the class breakdown of one
/// throttled run at a given client count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassSweepRow {
    /// Total client count of the run.
    pub clients: u32,
    /// Per-class results, in configuration order.
    pub per_class: Vec<ClassMetrics>,
}

/// Per-class variant of the client sweep: run the throttled configuration
/// of `base` (which should carry multiple workload classes, e.g. from
/// [`ServerConfig::with_standard_classes`]) at each client count and report
/// the class breakdowns. Deterministic for a given seed.
pub fn client_sweep_per_class(base: &ServerConfig, client_counts: &[u32]) -> Vec<ClassSweepRow> {
    let profiles = Arc::new(WorkloadProfiles::characterize_sales(base));
    client_counts
        .iter()
        .map(|&clients| {
            let mut cfg = base.clone();
            cfg.clients = clients;
            let metrics = Server::new(cfg, profiles.clone()).run();
            ClassSweepRow {
                clients,
                per_class: metrics.classes,
            }
        })
        .collect()
}

/// One ablation configuration result (design-choice experiments beyond the
/// paper's figures).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Post-warm-up completions.
    pub completed: u64,
    /// Total failures.
    pub failures: u64,
    /// Compile-gateway timeouts.
    pub compile_timeouts: u64,
    /// Best-effort completions.
    pub best_effort: u64,
}

/// Ablate the design choices §4.1 calls out: number of monitors, dynamic
/// thresholds, best-effort plans.
pub fn ablation(base: &ServerConfig, clients: u32) -> Vec<AblationRow> {
    let profiles = Arc::new(WorkloadProfiles::characterize_sales(base));
    let mut rows = Vec::new();
    let mut run = |label: &str, throttle: ThrottleConfig| {
        let mut cfg = base.clone();
        cfg.clients = clients;
        cfg.throttle = throttle;
        let m = Server::new(cfg, profiles.clone()).run();
        rows.push(AblationRow {
            label: label.to_string(),
            completed: m.completed_after_warmup,
            failures: m.total_failures(),
            compile_timeouts: m.compile_timeouts,
            best_effort: m.best_effort_plans,
        });
    };

    run(
        "no throttling (baseline)",
        ThrottleConfig::disabled(base.cpus),
    );
    run(
        "paper: 3 monitors + dynamic + best-effort",
        ThrottleConfig::for_cpus(base.cpus),
    );

    let mut one_monitor = ThrottleConfig::for_cpus(base.cpus);
    one_monitor.monitors.truncate(1);
    one_monitor.monitors[0].dynamic_fraction = 1.0;
    run("1 monitor only", one_monitor);

    let mut two_monitors = ThrottleConfig::for_cpus(base.cpus);
    two_monitors.monitors.truncate(2);
    two_monitors.monitors[0].dynamic_fraction = 0.6;
    two_monitors.monitors[1].dynamic_fraction = 0.4;
    run("2 monitors", two_monitors);

    let mut static_thresholds = ThrottleConfig::for_cpus(base.cpus);
    static_thresholds.dynamic_thresholds = false;
    run("3 monitors, static thresholds", static_thresholds);

    let mut no_best_effort = ThrottleConfig::for_cpus(base.cpus);
    no_best_effort.best_effort_plans = false;
    run("3 monitors, no best-effort plans", no_best_effort);

    rows
}

/// Figure 2: the compilation-throttling example — three compilations whose
/// memory growth is gated by the ladder while background compilations hold
/// gateway slots. Returns one memory timeline per query, whose flat portions
/// are the blocked spans.
pub fn figure2_timeline() -> Vec<(String, GaugeTimeline)> {
    const MB: u64 = 1 << 20;
    let mut ladder = GatewayLadder::new(ThrottleConfig::for_cpus(1));

    // Background compilations occupy three of the four small-gateway slots
    // and the single medium slot, so Q1/Q2/Q3 contend exactly as in Figure 2.
    let background: Vec<_> = (0..3).map(|_| ladder.begin_task()).collect();
    for b in &background {
        ladder.report_memory(*b, 5 * MB, SimTime::ZERO);
    }
    let blocker = ladder.begin_task();
    ladder.report_memory(blocker, 40 * MB, SimTime::ZERO);

    // Q1 grows fast, Q2 slower, Q3 arrives later and is blocked behind Q2.
    let specs = [
        ("Q1", 0u64, 12 * MB, 140 * MB),
        ("Q2", 5, 6 * MB, 70 * MB),
        ("Q3", 20, 8 * MB, 60 * MB),
    ];
    let mut timelines: Vec<(String, GaugeTimeline)> = specs
        .iter()
        .map(|(name, _, _, _)| (name.to_string(), GaugeTimeline::new(*name)))
        .collect();
    let tasks: Vec<_> = specs.iter().map(|_| ladder.begin_task()).collect();
    let mut bytes = vec![0u64; specs.len()];
    let mut blocked = vec![false; specs.len()];
    let mut done = vec![false; specs.len()];

    for second in 0..240u64 {
        let now = SimTime::from_secs(second);
        // Background holders release over time, just like the unnamed "other
        // queries" of the paper's example.
        if second == 60 {
            ladder.finish_task(blocker, now);
        }
        if second == 90 {
            ladder.finish_task(background[0], now);
        }
        for (i, (_, start, rate, peak)) in specs.iter().enumerate() {
            if done[i] || second < *start {
                continue;
            }
            if !blocked[i] {
                bytes[i] = (bytes[i] + rate).min(*peak);
            }
            match ladder.report_memory(tasks[i], bytes[i], now) {
                LadderDecision::Proceed => {
                    blocked[i] = false;
                    if bytes[i] >= *peak {
                        done[i] = true;
                        ladder.finish_task(tasks[i], now);
                        timelines[i].1.record(now, bytes[i]);
                        timelines[i].1.record(now + SimDuration::from_secs(1), 0);
                        continue;
                    }
                }
                LadderDecision::Wait { .. } => blocked[i] = true,
                LadderDecision::FinishBestEffort => {
                    done[i] = true;
                    ladder.finish_task(tasks[i], now);
                }
            }
            timelines[i].1.record(now, bytes[i]);
        }
    }
    timelines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shows_blocking_plateaus_and_release() {
        let timelines = figure2_timeline();
        assert_eq!(timelines.len(), 3);
        let q1 = &timelines[0].1;
        let q2 = &timelines[1].1;
        // Every query eventually frees its memory.
        for (name, t) in &timelines {
            assert!(t.max_value() > 0, "{name} never allocated");
            assert_eq!(
                t.samples().last().map(|(_, v)| *v),
                Some(0),
                "{name} must finish"
            );
        }
        // Q1's growth is interrupted by at least one blocked plateau of
        // several seconds (the flat portions of the paper's figure).
        assert!(
            q1.longest_plateau() >= SimDuration::from_secs(5),
            "Q1 plateau {:?}",
            q1.longest_plateau()
        );
        assert!(q2.longest_plateau() >= SimDuration::from_secs(5));
        // Q1 reaches a higher peak than Q2 (it is the bigger query).
        assert!(q1.max_value() > q2.max_value());
    }

    #[test]
    fn quick_throughput_experiment_prefers_throttling_under_overload() {
        // A shortened, overloaded configuration: 24 clients on the 1-hour
        // quick run. The full paper-scale runs live in the bench harness.
        let base = ServerConfig::quick(24, true);
        let cmp = throughput_experiment(&base, 24);
        assert!(cmp.throttled.completed_after_warmup > 0);
        assert!(cmp.unthrottled.completed_after_warmup > 0);
        // Throttling must not be materially worse, and the unthrottled run
        // must show the memory-pressure symptoms the paper describes.
        let improvement = cmp.improvement().expect("the baseline completed queries");
        assert!(
            improvement > -0.10,
            "throttling should not lose throughput: {:+.1}%",
            improvement * 100.0
        );
        assert!(
            cmp.unthrottled.compile_memory.max_value() > cmp.throttled.compile_memory.max_value()
        );
    }

    #[test]
    fn improvement_over_an_idle_baseline_is_not_a_number_to_print() {
        let metrics = |completed| {
            let mut m = RunMetrics::new(SimDuration::from_secs(600), SimTime::ZERO, 3);
            m.completed_after_warmup = completed;
            m
        };
        let cmp = |throttled, unthrottled| ThroughputComparison {
            clients: 35,
            throttled: metrics(throttled),
            unthrottled: metrics(unthrottled),
        };
        assert_eq!(cmp(12, 0).improvement(), None);
        assert_eq!(cmp(0, 0).improvement(), None);
        assert_eq!(cmp(12, 8).improvement(), Some(0.5));
        assert_eq!(cmp(0, 8).improvement(), Some(-1.0));
    }

    #[test]
    fn per_class_sweep_is_seed_stable() {
        let base = ServerConfig::quick(12, true).with_standard_classes();
        let a = client_sweep_per_class(&base, &[8, 12]);
        let b = client_sweep_per_class(&base, &[8, 12]);
        assert_eq!(a.len(), 2);
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(ra.clients, rb.clients);
            assert_eq!(ra.per_class.len(), 3);
            for (ca, cb) in ra.per_class.iter().zip(rb.per_class.iter()) {
                assert_eq!(ca.name, cb.name);
                assert_eq!(ca.completed, cb.completed, "class {} unstable", ca.name);
                assert_eq!(ca.failed, cb.failed);
            }
        }
        // The sweep covers every configured class with clients.
        assert!(a[1].per_class.iter().all(|c| c.clients > 0));
    }

    #[test]
    fn ablation_covers_the_design_choices() {
        let base = ServerConfig::quick(12, true);
        let rows = ablation(&base, 12);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.label.contains("baseline")));
        assert!(rows.iter().all(|r| r.completed > 0));
    }
}
