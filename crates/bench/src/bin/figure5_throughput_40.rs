//! Figure 5: throughput at 40 clients, throttled vs non-throttled.
use throttledb_bench::{experiment::figure, experiment_config_or_exit};

fn main() {
    let (scale, seed) = experiment_config_or_exit();
    print!("{}", figure(5, scale, seed));
}
