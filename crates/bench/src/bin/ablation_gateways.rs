//! Ablation A1: monitor count, dynamic thresholds and best-effort plans.
use throttledb_bench::experiment_config_or_exit;
use throttledb_engine::ablation;

fn main() {
    let cfg = experiment_config_or_exit(35);
    let rows = ablation(&cfg, 35);
    println!("== Ablation A1: gateway design choices at 35 clients ==");
    println!(
        "{:<42} {:>10} {:>10} {:>14} {:>12}",
        "configuration", "completed", "failures", "cmpl timeouts", "best-effort"
    );
    for r in rows {
        println!(
            "{:<42} {:>10} {:>10} {:>14} {:>12}",
            r.label, r.completed, r.failures, r.compile_timeouts, r.best_effort
        );
    }
}
