//! Table T2: client sweep locating the maximum-throughput point (§5.2).
use throttledb_bench::experiment_config_or_exit;
use throttledb_engine::client_sweep;

fn main() {
    let cfg = experiment_config_or_exit(30);
    let rows = client_sweep(&cfg, &[10, 20, 25, 30, 35, 40, 45]);
    println!("== Table T2: client sweep (completions after warm-up) ==");
    println!(
        "{:>8} {:>12} {:>14} {:>12} {:>14}",
        "clients", "throttled", "non-throttled", "fail (thr)", "fail (non)"
    );
    for r in rows {
        println!(
            "{:>8} {:>12} {:>14} {:>12} {:>14}",
            r.clients,
            r.throttled_completed,
            r.unthrottled_completed,
            r.throttled_failures,
            r.unthrottled_failures
        );
    }
}
