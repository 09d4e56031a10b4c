//! Quickstart: build the paper's machine, throttle a burst of real
//! compilations through the gateway ladder, and print the broker's view.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;
use throttledb_catalog::{sales_schema, SalesScale};
use throttledb_core::{ThreadedThrottle, ThrottleConfig};
use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};
use throttledb_optimizer::Optimizer;
use throttledb_sqlparse::parse;
use throttledb_workload::sales_templates;

fn main() {
    // The paper's machine: 8 CPUs, 4 GB of physical memory.
    let broker = MemoryBroker::new(BrokerConfig::paper_machine());
    let throttle = Arc::new(ThreadedThrottle::new(
        ThrottleConfig::paper_machine(),
        broker.clone(),
    ));

    // A full-scale SALES warehouse and its optimizer.
    let catalog = sales_schema(SalesScale::paper());
    let optimizer = Optimizer::new(&catalog);

    // Compile three SALES templates through the gateway ladder.
    for template in sales_templates().into_iter().take(3) {
        let stmt = parse(&template.sql).expect("template parses");
        let clerk = broker.register(SubcomponentKind::Compilation);
        let governor = throttle.governor();
        let outcome = optimizer
            .optimize_with_governor(&stmt, governor, Some(clerk))
            .expect("compiles");
        println!(
            "{}: {} joins, peak compile memory {:.0} MB, plan cost {:.0}, stage {:?}",
            template.name,
            outcome.plan.join_count(),
            outcome.stats.peak_memory_bytes as f64 / 1e6,
            outcome.plan.total_cost.total(),
            outcome.stats.stage,
        );
    }
    println!("\nLadder statistics: {}", throttle.stats().summary_line());
    let snap = broker.snapshot();
    println!(
        "Broker: {} clerks, {:.0} MB live of {:.0} MB brokered, pressure {}",
        snap.clerks.len(),
        snap.used_bytes as f64 / 1e6,
        snap.brokered_bytes as f64 / 1e6,
        snap.pressure
    );
}
