//! Metamorphic relations: checks that hold between two runs whatever the
//! right answer is (Chen, Cheung & Yiu 1998; Segura et al., IEEE TSE 2016).
//!
//! **M1, exact: a ladder that never blocks is `off`.** Every gateway
//! threshold of the scenario's own throttle is raised far past physical
//! memory (16 × `broker.total_memory_bytes`, then 64 MiB apart, so the
//! thresholds stay strictly increasing under every class's
//! `threshold_scale`), with dynamic thresholds and best-effort plans off.
//! No compilation can then reach a gateway, so the run must equal the same
//! scenario with `throttle.enabled = false`: the same trace digest, and
//! the same `RunMetrics` apart from the policy's own `ThrottleStats` (run
//! level and per class). The two legs can differ only through the
//! gateways' decisions; a failure is that difference.

use std::sync::Arc;
use throttledb_engine::WorkloadProfiles;
use throttledb_governor::ThrottleStats;
use throttledb_scenario::{Scale, Scenario, ScenarioRunner};

/// The scenario with a ladder whose every threshold exceeds memory.
fn never_blocking(mut scenario: Scenario) -> Scenario {
    let total = scenario.base.broker.total_memory_bytes;
    let throttle = &mut scenario.base.throttle;
    throttle.enabled = true;
    throttle.dynamic_thresholds = false;
    throttle.best_effort_plans = false;
    for (i, monitor) in throttle.monitors.iter_mut().enumerate() {
        monitor.threshold_bytes = 16 * total + i as u64 * (64 << 20);
    }
    scenario
}

/// The scenario with admission control off.
fn off(mut scenario: Scenario) -> Scenario {
    scenario.base.throttle.enabled = false;
    scenario
}

/// What the two legs must agree on: the trace digest, and the metrics
/// with every `ThrottleStats` set aside.
fn observe(scenario: Scenario, profiles: &Arc<WorkloadProfiles>) -> (u64, String) {
    let outcome = ScenarioRunner::new(scenario)
        .record_trace(true)
        .with_profiles(profiles.clone())
        .run();
    let digest = outcome.trace.expect("recording enabled").digest();
    let mut metrics = outcome.metrics;
    metrics.throttle = ThrottleStats::new(0);
    for class in &mut metrics.classes {
        class.throttle = ThrottleStats::new(0);
    }
    (digest, format!("{metrics:#?}"))
}

/// Check M1 on each named built-in at `scale`, seed 2007, characterizing
/// each scenario once for both legs.
fn check_m1(names: &[&str], scale: Scale) {
    for name in names {
        let scenario = Scenario::builtin(name, scale)
            .unwrap_or_else(|| panic!("unknown scenario {name}"))
            .with_seed(2007);
        let config = scenario.runtime_config();
        let profiles = Arc::new(WorkloadProfiles::characterize_full(&config));
        let (off_digest, off_metrics) = observe(off(scenario.clone()), &profiles);
        let (ladder_digest, ladder_metrics) = observe(never_blocking(scenario), &profiles);
        assert_eq!(
            ladder_digest, off_digest,
            "{name}: a never-blocking ladder changed the trace"
        );
        let first_difference = ladder_metrics
            .lines()
            .zip(off_metrics.lines())
            .find(|(ladder, off)| ladder != off);
        assert!(
            ladder_metrics == off_metrics,
            "{name}: a never-blocking ladder changed the metrics; first \
             difference (ladder, off): {first_difference:?}"
        );
    }
}

#[test]
fn m1_a_never_blocking_ladder_is_off_on_every_builtin() {
    check_m1(Scenario::builtin_names(), Scale::Quick);
}

#[test]
fn m1_a_never_blocking_ladder_is_off_on_the_paper_figures() {
    check_m1(
        &["paper_figure3", "paper_figure4", "paper_figure5"],
        Scale::Paper,
    );
}
