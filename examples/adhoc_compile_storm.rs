//! A real multi-threaded compile storm: many OS threads compile uniquified
//! SALES queries simultaneously through the threaded gateway ladder, showing
//! that the medium/big gateways serialize the memory hogs while small
//! diagnostic queries keep flowing.
//!
//! Run with: `cargo run --release --example adhoc_compile_storm`

use std::sync::Arc;
use std::thread;
use throttledb_catalog::{sales_schema, SalesScale};
use throttledb_core::{ThreadedThrottle, ThrottleConfig};
use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};
use throttledb_optimizer::Optimizer;
use throttledb_sim::SimRng;
use throttledb_sqlparse::parse;
use throttledb_workload::{oltp_templates, sales_templates, Uniquifier};

fn main() {
    let broker = MemoryBroker::new(BrokerConfig::paper_machine());
    let throttle = Arc::new(ThreadedThrottle::new(
        ThrottleConfig::for_cpus(2),
        broker.clone(),
    ));
    let catalog = Arc::new(sales_schema(SalesScale::paper()));

    let mut handles = Vec::new();
    for worker in 0..6u64 {
        let throttle = Arc::clone(&throttle);
        let broker = Arc::clone(&broker);
        let catalog = Arc::clone(&catalog);
        handles.push(thread::spawn(move || {
            let uniquifier = Uniquifier::new();
            let mut rng = SimRng::seed_from_u64(worker);
            let optimizer = Optimizer::new(&catalog);
            let templates = if worker % 3 == 0 {
                oltp_templates()
            } else {
                sales_templates()
            };
            for i in 0..2u64 {
                let template = &templates[(worker as usize + i as usize) % templates.len()];
                let sql = uniquifier.uniquify(&template.sql, &mut rng, worker * 10 + i);
                let stmt = parse(&sql).expect("uniquified SQL parses");
                let clerk = broker.register(SubcomponentKind::Compilation);
                let governor = throttle.governor();
                match optimizer.optimize_with_governor(&stmt, governor, Some(clerk)) {
                    Ok(out) => println!(
                        "worker {worker}: {} compiled, peak {:.0} MB{}",
                        template.name,
                        out.stats.peak_memory_bytes as f64 / 1e6,
                        if out.stats.finished_best_effort {
                            " (best-effort)"
                        } else {
                            ""
                        }
                    ),
                    Err(e) => println!("worker {worker}: {} failed: {e}", template.name),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("worker thread");
    }
    println!("\nfinal ladder stats: {}", throttle.stats().summary_line());
}
