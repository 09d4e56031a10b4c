//! Integration tests of the throttling policy against the real optimizer:
//! the threaded gateway ladder governs genuine compilations.

use std::sync::Arc;
use throttledb_catalog::{sales_schema, SalesScale};
use throttledb_core::{ThreadedThrottle, ThrottleConfig};
use throttledb_engine::{ArrivalSourceConfig, Server, ServerConfig, WorkloadProfiles};
use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};
use throttledb_optimizer::Optimizer;
use throttledb_sim::{ArrivalProcess, SimDuration, SimTime};
use throttledb_sqlparse::parse;
use throttledb_workload::{oltp_templates, sales_templates};

#[test]
fn real_sales_compilation_climbs_the_gateway_ladder() {
    let broker = MemoryBroker::new(BrokerConfig::paper_machine());
    let throttle = Arc::new(ThreadedThrottle::new(
        ThrottleConfig::paper_machine(),
        broker.clone(),
    ));
    let catalog = sales_schema(SalesScale::paper());
    let optimizer = Optimizer::new(&catalog);
    let stmt = parse(&sales_templates()[0].sql).unwrap();
    let clerk = broker.register(SubcomponentKind::Compilation);
    let out = optimizer
        .optimize_with_governor(&stmt, throttle.governor(), Some(clerk.clone()))
        .expect("compiles");
    assert!(out.stats.peak_memory_bytes > 100 << 20);
    let stats = throttle.stats();
    // A ~200 MB compilation must have passed the small, medium and big gateways.
    assert!(stats.acquisitions[0] >= 1);
    assert!(stats.acquisitions[1] >= 1);
    assert!(stats.acquisitions[2] >= 1);
    assert_eq!(clerk.used_bytes(), 0, "all compile memory released");
}

#[test]
fn diagnostic_queries_never_touch_the_gateways() {
    let broker = MemoryBroker::new(BrokerConfig::paper_machine());
    let throttle = Arc::new(ThreadedThrottle::new(
        ThrottleConfig::paper_machine(),
        broker.clone(),
    ));
    let catalog = sales_schema(SalesScale::paper());
    let optimizer = Optimizer::new(&catalog);
    for t in oltp_templates() {
        let stmt = parse(&t.sql).unwrap();
        optimizer
            .optimize_with_governor(&stmt, throttle.governor(), None)
            .expect("compiles");
    }
    let stats = throttle.stats();
    assert_eq!(
        stats.acquisitions.iter().sum::<u64>(),
        0,
        "OLTP compiles stay exempt"
    );
    assert_eq!(stats.exempt_compilations, oltp_templates().len() as u64);
}

/// Every admission the policy grants — which gateway, in what order, after
/// how long a wait — must be independent of `ServerConfig::shards`, a
/// no-effect field. The policy sees one globally ordered arrival schedule
/// either way, so its entire stats ledger (acquisitions per rung, waits,
/// timeouts, exemptions) must match field for field at 1 and 4 shards.
#[test]
fn policy_decisions_are_invariant_under_sharding() {
    let base = {
        let mut cfg = ServerConfig::quick(4, true);
        cfg.warmup = SimDuration::ZERO;
        cfg.arrivals = vec![ArrivalSourceConfig {
            name: "ingest".to_string(),
            process: ArrivalProcess::Poisson { rate_per_sec: 3.0 },
            class: 0,
            max_in_flight: 6,
            modeled_clients: 10_000,
        }];
        cfg
    };
    let profiles = Arc::new(WorkloadProfiles::characterize_full(&base));
    let run = |shards: u32| {
        let mut cfg = base.clone();
        cfg.shards = shards;
        let mut server = Server::new(cfg.clone(), profiles.clone());
        server.set_active_clients(cfg.clients);
        server.begin();
        server.run_until(SimTime::ZERO + SimDuration::from_secs(900));
        server.finish()
    };
    let m1 = run(1);
    let m4 = run(4);
    assert!(
        m1.throttle.acquisitions.iter().sum::<u64>() > 0,
        "run never engaged the ladder"
    );
    assert_eq!(m1.throttle, m4.throttle, "policy ledger diverged");
    assert_eq!(m1.arrivals_admitted, m4.arrivals_admitted);
    assert_eq!(m1.arrivals_shed, m4.arrivals_shed);
    assert_eq!(m1.oom_failures, m4.oom_failures);
    assert_eq!(m1.compile_timeouts, m4.compile_timeouts);
    assert_eq!(m1.grant_timeouts, m4.grant_timeouts);
    assert_eq!(m1.best_effort_plans, m4.best_effort_plans);
}
