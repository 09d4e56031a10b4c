//! Run a reduced-scale SALES benchmark (the Figure 3 experiment at 1/8th
//! duration and 20 clients) and print the throughput comparison.
//!
//! Run with: `cargo run --release --example sales_benchmark`

use throttledb_bench::experiment::{comparison, count, paper_grid, LEGS};
use throttledb_scenario::Scale;

fn main() {
    let grid = paper_grid("paper_figure3", &LEGS, &[Some(20)], Scale::Quick, 2007);
    print!("{}", comparison("SALES benchmark (reduced scale)", &grid));
    println!(
        "\ngateway acquisitions (throttled run): {}",
        count(&grid.cells[0], "gateway_acquisitions")
    );
}
