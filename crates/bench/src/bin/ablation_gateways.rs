//! Ablation A1: monitor count, dynamic thresholds and best-effort plans.
use throttledb_bench::{experiment::ablation_table, experiment_config_or_exit};

fn main() {
    let (scale, seed) = experiment_config_or_exit();
    print!("{}", ablation_table(scale, seed));
}
