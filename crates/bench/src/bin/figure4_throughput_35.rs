//! Figure 4: throughput at 35 clients, throttled vs non-throttled.
use throttledb_bench::experiment_config_or_exit;
use throttledb_engine::throughput_experiment;

fn main() {
    let cfg = experiment_config_or_exit(35);
    let cmp = throughput_experiment(&cfg, 35);
    cmp.print("Figure 4");
}
