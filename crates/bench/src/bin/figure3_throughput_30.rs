//! Figure 3: throughput at 30 clients, throttled vs non-throttled.
use throttledb_bench::experiment_config_or_exit;
use throttledb_engine::throughput_experiment;

fn main() {
    let cfg = experiment_config_or_exit(30);
    let cmp = throughput_experiment(&cfg, 30);
    cmp.print("Figure 3");
}
