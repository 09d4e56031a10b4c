//! Table T2: client sweep locating the maximum-throughput point (§5.2).
use throttledb_bench::{experiment::table2, experiment_config_or_exit};

fn main() {
    let (scale, seed) = experiment_config_or_exit();
    print!("{}", table2(scale, seed));
}
