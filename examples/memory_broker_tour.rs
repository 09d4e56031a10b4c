//! A tour of the Memory Broker: watch notifications change as compilation
//! memory squeezes the buffer pool, and see the dynamic gateway thresholds
//! follow the broker's compilation target.
//!
//! Run with: `cargo run --release --example memory_broker_tour`

use throttledb_core::{DynamicThresholds, ThrottleConfig};
use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};
use throttledb_sim::SimTime;

fn main() {
    let broker = MemoryBroker::new(BrokerConfig::paper_machine());
    let pool = broker.register(SubcomponentKind::BufferPool);
    let compile = broker.register(SubcomponentKind::Compilation);
    let exec = broker.register(SubcomponentKind::Execution);

    pool.allocate(2_800 << 20);
    exec.allocate(600 << 20);

    let cfg = ThrottleConfig::paper_machine();
    println!(
        "{:>6} {:>12} {:>12} {:>10} | per-clerk verdicts",
        "t(s)", "compile MB", "target MB", "pressure"
    );
    for step in 0..10u64 {
        compile.allocate(120 << 20); // a compile storm ramping up
        let decisions = broker.recalculate(SimTime::from_secs(step * 5));
        let target = broker.target_for_kind(SubcomponentKind::Compilation);
        let verdicts: Vec<String> = decisions
            .iter()
            .map(|d| {
                format!(
                    "{}={}",
                    d.notification.kind_of_component, d.notification.kind
                )
            })
            .collect();
        println!(
            "{:>6} {:>12} {:>12} {:>10} | {}",
            step * 5,
            compile.used_bytes() >> 20,
            target >> 20,
            broker.pressure(),
            verdicts.join(" ")
        );
        let thresholds = DynamicThresholds::effective(&cfg, Some(target), &[0, 6, 1, 0]);
        println!(
            "        dynamic gateway thresholds: {:?} MB",
            thresholds.iter().map(|t| t >> 20).collect::<Vec<_>>()
        );
    }
}
