//! Scenario determinism and trace record/replay regression contracts:
//!
//! * same seed + same scenario ⇒ identical per-phase metrics and a
//!   byte-identical recorded trace;
//! * replay of a recorded trace reproduces the live run's per-phase
//!   reports (and survives an encode/decode round trip);
//! * a different seed produces a different trace;
//! * what a run reports does not depend on whether anything consumes its
//!   trace;
//! * the golden traces under `tests/golden/` — recorded on the original
//!   `BinaryHeap` event queue, before it was replaced and templates were
//!   interned — are still reproduced byte for byte.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use throttledb_engine::{ServerConfig, WorkloadProfiles};
use throttledb_scenario::{Phase, Scale, Scenario, ScenarioRunner, Trace, TraceWriterV2};
use throttledb_sim::SimDuration;
use throttledb_workload::WorkloadMix;

/// A small three-phase scenario exercising client-count changes, a mix
/// shift, and a grant-budget degradation — quick enough for CI.
fn test_scenario(seed: u64) -> Scenario {
    let mut base = ServerConfig::quick(1, true);
    base.warmup = SimDuration::ZERO;
    base.seed = seed;
    let phases = vec![
        Phase::steady(
            "steady",
            SimDuration::from_secs(420),
            6,
            WorkloadMix::paper_default(0.05),
        ),
        Phase::steady(
            "storm",
            SimDuration::from_secs(300),
            14,
            WorkloadMix::sales_only(),
        )
        .with_think_time(SimDuration::from_secs(3))
        .with_grant_budget_scale(0.5),
        Phase::steady(
            "recovery",
            SimDuration::from_secs(420),
            6,
            WorkloadMix::paper_default(0.05),
        ),
    ];
    Scenario::new("determinism_probe", "test scenario", base, phases)
}

fn profiles() -> Arc<WorkloadProfiles> {
    let mut base = ServerConfig::quick(14, true);
    base.warmup = SimDuration::ZERO;
    Arc::new(WorkloadProfiles::characterize_full(&base))
}

#[test]
fn same_seed_reproduces_reports_and_trace_bytes() {
    let profiles = profiles();
    let run = || {
        ScenarioRunner::new(test_scenario(7))
            .record_trace(true)
            .with_profiles(profiles.clone())
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.phases, b.phases, "per-phase metrics must be seed-stable");
    assert_eq!(a.render_report(), b.render_report());
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    assert_eq!(ta.encode(), tb.encode(), "trace must be byte-identical");
    assert_eq!(ta.digest(), tb.digest());
}

#[test]
fn replay_of_a_recorded_trace_reproduces_the_run() {
    let outcome = ScenarioRunner::new(test_scenario(11))
        .record_trace(true)
        .with_profiles(profiles())
        .run();
    assert_eq!(outcome.phases.len(), 3);
    // The run did real work in every phase.
    for phase in &outcome.phases {
        assert!(phase.submitted > 0, "phase {} idle", phase.name);
        assert!(
            phase.peak_compile_bytes > 0,
            "phase {} no memory",
            phase.name
        );
    }
    let trace = outcome.trace.as_ref().unwrap();

    // Replay straight from the recorded events...
    assert_eq!(trace.replay(), outcome.phases);
    // ...and through a full serialize/deserialize round trip, as a stored
    // golden file would be.
    let decoded = Trace::decode(&trace.encode()).expect("own encoding decodes");
    assert_eq!(decoded.replay(), outcome.phases);
    assert_eq!(decoded.encode(), trace.encode());
}

/// Open-loop scenarios run end to end through the scenario runner: a
/// zero-client phase schedule with a Poisson source offers load, admits
/// work, folds a non-trivial arrival digest, and stays deterministic
/// (byte-identical traces, identical digests) across repeated runs.
#[test]
fn open_loop_scenario_is_deterministic_and_accounts_arrivals() {
    let profiles = profiles();
    let run = || {
        let s = Scenario::builtin("open_loop_poisson", throttledb_scenario::Scale::Quick)
            .expect("open_loop_poisson registered");
        ScenarioRunner::new(s)
            .record_trace(true)
            .with_profiles(profiles.clone())
            .run()
    };
    let a = run();
    let b = run();
    assert!(a.metrics.arrivals > 0, "source offered no arrivals");
    assert_eq!(
        a.metrics.arrivals,
        a.metrics.arrivals_admitted + a.metrics.arrivals_shed,
        "every arrival must be admitted or shed"
    );
    assert!(
        a.phases[0].submitted > 0,
        "no source query entered the pipeline"
    );
    assert_eq!(a.metrics.arrival_digest, b.metrics.arrival_digest);
    assert_eq!(a.phases, b.phases);
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    assert_eq!(
        ta.encode(),
        tb.encode(),
        "open-loop trace must be seed-stable"
    );
    // And the recorded trace replays to the live per-phase reports, same as
    // the closed-loop contract.
    assert_eq!(ta.replay(), a.phases);
}

#[test]
fn different_seeds_diverge() {
    let profiles = profiles();
    let a = ScenarioRunner::new(test_scenario(1))
        .record_trace(true)
        .with_profiles(profiles.clone())
        .run();
    let b = ScenarioRunner::new(test_scenario(2))
        .record_trace(true)
        .with_profiles(profiles)
        .run();
    assert_ne!(
        a.trace.unwrap().encode(),
        b.trace.unwrap().encode(),
        "different seeds must produce different traces"
    );
}

/// The scheduling-semantics regression gate: any engine refactor must
/// reproduce these committed traces byte for byte — event order,
/// timestamps, ids and all — or it changed observable behaviour. The two
/// fault-free goldens date back to the `BinaryHeap`-era engine and were
/// re-recorded once, when the exponential retry backoff replaced the flat
/// retry delay (a deliberate timing change for consecutive failures); the
/// five chaos goldens pin the fault-injection layer, including the
/// recorded `fault`/`shed`/`breaker` lines. `paper_figure3`,
/// `open_loop_poisson` and `retry_storm` were re-recorded once more when
/// grant-pool budget raises and grant timeouts began admitting queued
/// grants (the lost-wakeup fix): their old bytes encoded the bug. The
/// open-loop golden pins the arrival plane's merged global order against
/// the codec-v1 bytes.
#[test]
fn golden_traces_replay_byte_identically() {
    let goldens: [(&str, &str); 8] = [
        (
            "compile_storm",
            include_str!("golden/compile_storm_quick_2007.trace"),
        ),
        (
            "open_loop_poisson",
            include_str!("golden/open_loop_poisson_quick_2007.trace"),
        ),
        (
            "paper_figure3",
            include_str!("golden/paper_figure3_quick_2007.trace"),
        ),
        (
            "memory_leak_creep",
            include_str!("golden/memory_leak_creep_quick_2007.trace"),
        ),
        (
            "compile_stall",
            include_str!("golden/compile_stall_quick_2007.trace"),
        ),
        (
            "slot_failure",
            include_str!("golden/slot_failure_quick_2007.trace"),
        ),
        (
            "retry_storm",
            include_str!("golden/retry_storm_quick_2007.trace"),
        ),
        (
            "thundering_herd_recovery",
            include_str!("golden/thundering_herd_recovery_quick_2007.trace"),
        ),
    ];
    for (name, golden) in goldens {
        // Mirror the scenario_runner CLI exactly: built-in scenario, quick
        // scale, seed 2007.
        let scenario = Scenario::builtin(name, throttledb_scenario::Scale::Quick)
            .expect("builtin exists")
            .with_seed(2007);
        let outcome = ScenarioRunner::new(scenario).record_trace(true).run();
        let live = outcome.trace.as_ref().expect("recording enabled");
        assert_eq!(
            live.encode(),
            golden,
            "{name}: live trace no longer matches the committed golden file"
        );
        // And the stored golden replays to the live run's phase reports.
        let stored = Trace::decode(golden).expect("golden decodes");
        assert_eq!(
            stored.replay(),
            outcome.phases,
            "{name}: golden replay diverges from live phase reports"
        );
    }
}

/// The engine folds every event whether or not anything consumes the
/// trace, so a run with no consumer, with the buffered recording and with
/// a v2 sink must agree on the phase reports and on every `RunMetrics`
/// counter and peak.
#[test]
fn results_do_not_depend_on_trace_consumers() {
    for name in ["compile_storm", "retry_storm"] {
        let scenario = || {
            Scenario::builtin(name, Scale::Quick)
                .expect("builtin exists")
                .with_seed(2007)
        };
        let profiles = Arc::new(WorkloadProfiles::characterize_full(
            &scenario().runtime_config(),
        ));
        let runner = || ScenarioRunner::new(scenario()).with_profiles(profiles.clone());
        let bare = runner().run();
        let recorded = runner().record_trace(true).run();
        let writer = TraceWriterV2::new(Vec::new(), &[], 0).expect("a Vec never fails");
        let streamed = runner()
            .with_trace_sink(Rc::new(RefCell::new(writer)))
            .run();
        assert!(bare.trace.is_none() && recorded.trace.is_some());
        assert!(bare.metrics.peak_compile_bytes > 0 && bare.metrics.completed.total() > 0);
        for (how, outcome) in [
            ("the buffered recording", &recorded),
            ("a v2 sink", &streamed),
        ] {
            assert_eq!(
                outcome.phases, bare.phases,
                "{name}: phase reports differ with {how}"
            );
            assert_eq!(
                format!("{:?}", outcome.metrics),
                format!("{:?}", bare.metrics),
                "{name}: run metrics differ with {how}"
            );
        }
    }
}

/// The retry-storm golden is the one chaos scenario whose fault window is
/// violent enough to open breakers: its trace must carry every new line
/// kind, and the shed count must survive decode → replay.
#[test]
fn retry_storm_golden_records_the_degradation_machinery() {
    let golden = include_str!("golden/retry_storm_quick_2007.trace");
    for prefix in ["fault ", "breaker ", "shed "] {
        assert!(
            golden.lines().any(|l| l.starts_with(prefix)),
            "golden has no {prefix:?} lines"
        );
    }
    let reports = Trace::decode(golden).expect("golden decodes").replay();
    assert!(
        reports.iter().map(|p| p.shed).sum::<u64>() > 0,
        "replay lost the shed count"
    );
}

#[test]
fn storm_phase_reports_the_overload() {
    let outcome = ScenarioRunner::new(test_scenario(7))
        .record_trace(false)
        .with_profiles(profiles())
        .run();
    assert!(outcome.trace.is_none());
    let steady = &outcome.phases[0];
    let storm = &outcome.phases[1];
    // The storm more than doubles the population with impatient all-SALES
    // clients: the submission rate must rise.
    let rate = |p: &throttledb_scenario::PhaseReport| {
        p.submitted as f64 / p.end.saturating_since(p.start).as_secs_f64()
    };
    assert!(
        rate(storm) > rate(steady),
        "storm {:.4}/s vs steady {:.4}/s",
        rate(storm),
        rate(steady)
    );
    // Cumulative metrics agree with the per-phase decomposition.
    assert_eq!(outcome.metrics.completed.total(), outcome.total_completed());
}
