//! Figure 5: throughput at 40 clients, throttled vs non-throttled.
use throttledb_bench::experiment_config_or_exit;
use throttledb_engine::throughput_experiment;

fn main() {
    let cfg = experiment_config_or_exit(40);
    let cmp = throughput_experiment(&cfg, 40);
    cmp.print("Figure 5");
}
