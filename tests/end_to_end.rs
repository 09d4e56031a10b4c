//! End-to-end integration tests spanning the whole stack: SQL text ->
//! optimizer -> gateway ladder -> broker -> engine experiments.

use std::sync::Arc;
use throttledb_bench::experiment::{count, paper_grid, LEGS};
use throttledb_engine::{
    figure2_timeline, ArrivalSourceConfig, Server, ServerConfig, WorkloadProfiles,
};
use throttledb_scenario::Scale;
use throttledb_sim::{ArrivalProcess, SimDuration, SimTime};

#[test]
fn quick_sales_run_reproduces_the_papers_qualitative_shape() {
    let grid = paper_grid("paper_figure3", &LEGS, &[Some(20)], Scale::Quick, 2007);
    let [throttled, unthrottled] = &grid.cells[..] else {
        panic!("one throttled and one unthrottled cell")
    };
    let t = |column| count(throttled, column);
    let u = |column| count(unthrottled, column);

    // Both configurations make progress.
    assert!(t("completed_after_warmup") > 0);
    assert!(u("completed_after_warmup") > 0);
    // The unthrottled server lets concurrent compilations pile up memory.
    assert!(
        u("peak_compile_bytes") >= t("peak_compile_bytes"),
        "throttling must cap concurrent compile memory"
    );
    // The throttled server engages its gateways and never hits OOM more often
    // than the unthrottled one.
    assert!(t("gateway_acquisitions") > 0);
    assert!(t("oom") <= u("oom"));
}

/// The full stack run at `shards` 1 and 4: real optimizer
/// characterization, the gateway ladder, the broker, a mixed open-loop +
/// closed-loop population — and byte-identical results either way.
/// `ServerConfig::shards` is a no-effect field (the repository benchmark's
/// `sim_firehose` alt pass sets it to 2 and expects the primary's digest),
/// so everything the run reports (admission counters, arrival digest,
/// trace bytes, event totals) must be invariant under it.
#[test]
fn sharded_run_is_equal_to_single_threaded_across_the_whole_stack() {
    let base = {
        let mut cfg = ServerConfig::quick(6, true);
        cfg.warmup = SimDuration::ZERO;
        cfg.arrivals = vec![ArrivalSourceConfig {
            name: "web".to_string(),
            process: ArrivalProcess::Poisson { rate_per_sec: 4.0 },
            class: 0,
            max_in_flight: 8,
            modeled_clients: 10_000,
        }];
        cfg
    };
    let profiles = Arc::new(WorkloadProfiles::characterize_full(&base));
    let run = |shards: u32| {
        let mut cfg = base.clone();
        cfg.shards = shards;
        let mut server = Server::new(cfg.clone(), profiles.clone());
        server.enable_trace();
        server.set_active_clients(cfg.clients);
        server.begin();
        server.run_until(SimTime::ZERO + SimDuration::from_secs(900));
        let trace = server.take_trace();
        (trace, server.finish())
    };
    let (trace_1, m1) = run(1);
    let (trace_4, m4) = run(4);
    assert!(m1.arrivals > 100, "run too idle to prove anything");
    assert!(m1.completed.total() > 0, "nothing completed");
    assert_eq!(trace_1, trace_4, "shards changed the admission trace");
    assert_eq!(m1.arrival_digest, m4.arrival_digest);
    assert_eq!(m1.arrivals, m4.arrivals);
    assert_eq!(m1.arrivals_admitted, m4.arrivals_admitted);
    assert_eq!(m1.arrivals_shed, m4.arrivals_shed);
    assert_eq!(m1.completed.total(), m4.completed.total());
    assert_eq!(m1.failed.total(), m4.failed.total());
    assert_eq!(m1.events_dispatched, m4.events_dispatched);
    assert_eq!(m1.peak_queue_depth, m4.peak_queue_depth);
}

#[test]
fn figure2_scenario_produces_three_complete_timelines() {
    let timelines = figure2_timeline();
    assert_eq!(timelines.len(), 3);
    for (name, g) in &timelines {
        assert!(
            g.max_value() > 10 << 20,
            "{name} should allocate tens of MB"
        );
        assert_eq!(
            g.samples().last().map(|(_, v)| *v),
            Some(0),
            "{name} must release its memory"
        );
    }
}

#[test]
fn profiles_show_sales_needs_orders_of_magnitude_more_compile_memory() {
    let cfg = ServerConfig::quick(8, true);
    let profiles = WorkloadProfiles::characterize_sales(&cfg);
    let sales_min = profiles
        .dss
        .iter()
        .map(|t| profiles.profile(&t.name).peak_compile_bytes)
        .min()
        .unwrap();
    let oltp_max = profiles
        .oltp
        .iter()
        .map(|t| profiles.profile(&t.name).peak_compile_bytes)
        .max()
        .unwrap();
    assert!(
        sales_min > 50 * oltp_max,
        "SALES {sales_min} vs OLTP {oltp_max}"
    );
}
