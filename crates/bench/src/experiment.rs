//! The paper's throughput experiments — figures 3–5, table 2 and the
//! gateway ablation — as printers over one [`Kind::Paper`] grid each of
//! the `paper_figure*` scenarios. A printer returns what its binary
//! prints, so `tests/paper_printers.rs` pins all five byte for byte.

use crate::gate::Field;
use crate::sweep::{run_grid, Admission, Cell, GridOutcome, GridSpec, Kind};
use throttledb_engine::PolicyKind;
use throttledb_scenario::Scale;

/// The paper's throttled leg: the ladder.
const LADDER: Admission = Admission::Policy(PolicyKind::Ladder);

/// The paper's two legs, throttled then not.
pub const LEGS: [Admission; 2] = [LADDER, Admission::Off];

/// The ablation's admissions with their table labels, in table order.
const ABLATION: [(Admission, &str); 6] = [
    (Admission::Off, "no throttling (baseline)"),
    (LADDER, "paper: 3 monitors + dynamic + best-effort"),
    (Admission::OneMonitor, "1 monitor only"),
    (Admission::TwoMonitors, "2 monitors"),
    (Admission::StaticThresholds, "3 monitors, static thresholds"),
    (Admission::NoBestEffort, "3 monitors, no best-effort plans"),
];

/// Relative throughput improvement of throttling (`throttled /
/// unthrottled − 1`) from post-warm-up completions; `None` when the
/// baseline completed nothing, however the throttled run did.
fn improvement(throttled: u64, unthrottled: u64) -> Option<f64> {
    (unthrottled > 0).then(|| throttled as f64 / unthrottled as f64 - 1.0)
}

/// The [`Kind::Paper`] grid of one scenario at one seed.
pub fn paper_grid(
    scenario: &str,
    admissions: &[Admission],
    clients: &[Option<u32>],
    scale: Scale,
    seed: u64,
) -> GridOutcome {
    run_grid(&GridSpec {
        kind: Kind::Paper,
        admissions: admissions.to_vec(),
        scenarios: vec![scenario.to_string()],
        clients: clients.to_vec(),
        seeds: vec![seed],
        scale,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// A count column of a [`Kind::Paper`] cell.
pub fn count(cell: &Cell, column: &str) -> u64 {
    cell.sample(column) as u64
}

fn figure_rows(cell: &Cell) -> &[(u64, u64)] {
    match cell.get("figure_rows") {
        Some(Field::Slices(rows)) => rows,
        other => panic!("figure_rows is not a slice series: {other:?}"),
    }
}

/// Figure `number` (3, 4 or 5): completions per slice, throttled vs not,
/// at the `paper_figure{number}` scenario's client count.
pub fn figure(number: u32, scale: Scale, seed: u64) -> String {
    let scenario = format!("paper_figure{number}");
    let grid = paper_grid(&scenario, &LEGS, &[None], scale, seed);
    comparison(&format!("Figure {number}"), &grid)
}

/// A figure of a [`LEGS`] grid at one client count: completions per slice
/// of both legs, their sustained levels and their failures.
pub fn comparison(title: &str, grid: &GridOutcome) -> String {
    let [t, u] = &grid.cells[..] else {
        panic!("a comparison needs one throttled and one unthrottled cell")
    };
    let clients = t.clients;
    let mut out = format!("== {title}: Successful Queries/Time ({clients} clients) ==\n");
    out += "    time (s)    throttled  non-throttled\n";
    let u_rows = figure_rows(u);
    for (i, (secs, count)) in figure_rows(t).iter().enumerate() {
        let u = u_rows.get(i).map(|(_, c)| *c).unwrap_or(0);
        out += &format!("{:>12} {:>12} {:>14}\n", secs, count, u);
    }
    let completed = |cell| count(cell, "completed_after_warmup");
    let improvement = match improvement(completed(t), completed(u)) {
        Some(ratio) => format!("{:+.0}%", ratio * 100.0),
        None => "n/a (baseline completed 0)".to_string(),
    };
    out += &format!(
        "sustained/slice: throttled {:.1} vs non-throttled {:.1}  (improvement {improvement})\n",
        t.sample("throughput_per_slice"),
        u.sample("throughput_per_slice"),
    );
    out += &format!(
        "failures: throttled {} (oom {}, compile-timeout {}, grant-timeout {}) vs non-throttled {} (oom {})\n",
        count(t, "failed"),
        count(t, "oom"),
        count(t, "compile_timeouts"),
        count(t, "grant_timeouts"),
        count(u, "failed"),
        count(u, "oom"),
    );
    out
}

/// Table 2: post-warm-up completions and failures, throttled vs not, over
/// the client counts that locate the 30-client knee (§5.2).
pub fn table2(scale: Scale, seed: u64) -> String {
    let clients = [10, 20, 25, 30, 35, 40, 45].map(Some);
    let grid = paper_grid("paper_figure3", &LEGS, &clients, scale, seed);
    let (throttled, unthrottled) = grid.cells.split_at(clients.len());
    let mut out = "== Table T2: client sweep (completions after warm-up) ==\n".to_string();
    out += " clients    throttled  non-throttled   fail (thr)     fail (non)\n";
    for (t, u) in throttled.iter().zip(unthrottled) {
        out += &format!(
            "{:>8} {:>12} {:>14} {:>12} {:>14}\n",
            t.clients,
            count(t, "completed_after_warmup"),
            count(u, "completed_after_warmup"),
            count(t, "failed"),
            count(u, "failed")
        );
    }
    out
}

/// Ablation A1: the gateway design choices §4.1 calls out — monitor
/// count, dynamic thresholds, best-effort plans — at `paper_figure4`'s
/// 35 clients.
pub fn ablation_table(scale: Scale, seed: u64) -> String {
    let admissions = ABLATION.map(|(admission, _)| admission);
    let grid = paper_grid("paper_figure4", &admissions, &[None], scale, seed);
    let clients = grid.cells[0].clients;
    let mut out = format!("== Ablation A1: gateway design choices at {clients} clients ==\n");
    out += "configuration                               completed   failures  cmpl timeouts  best-effort\n";
    for (cell, (_, label)) in grid.cells.iter().zip(ABLATION) {
        out += &format!(
            "{:<42} {:>10} {:>10} {:>14} {:>12}\n",
            label,
            count(cell, "completed_after_warmup"),
            count(cell, "failed"),
            count(cell, "compile_timeouts"),
            count(cell, "best_effort")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_over_an_idle_baseline_is_not_a_number_to_print() {
        assert_eq!(improvement(12, 0), None);
        assert_eq!(improvement(0, 0), None);
        assert_eq!(improvement(12, 8), Some(0.5));
        assert_eq!(improvement(0, 8), Some(-1.0));
    }

    #[test]
    fn quick_paper_grid_prefers_throttling_under_overload() {
        // A shortened, overloaded configuration: 24 clients on the 1-hour
        // quick run. The full paper-scale runs are the transcript test's.
        let grid = paper_grid("paper_figure3", &LEGS, &[Some(24)], Scale::Quick, 2007);
        let [t, u] = &grid.cells[..] else {
            panic!("two admissions, one cell each")
        };
        let completed = |cell| count(cell, "completed_after_warmup");
        assert!(completed(t) > 0);
        assert!(completed(u) > 0);
        // Throttling must not be materially worse, and the unthrottled run
        // must show the memory-pressure symptoms the paper describes.
        let improvement =
            improvement(completed(t), completed(u)).expect("the baseline completed queries");
        assert!(
            improvement > -0.10,
            "throttling should not lose throughput: {:+.1}%",
            improvement * 100.0
        );
        assert!(count(u, "peak_compile_bytes") > count(t, "peak_compile_bytes"));
    }

    #[test]
    fn ablation_covers_the_design_choices() {
        let admissions = ABLATION.map(|(admission, _)| admission);
        let grid = paper_grid(
            "paper_figure4",
            &admissions,
            &[Some(12)],
            Scale::Quick,
            2007,
        );
        assert_eq!(grid.cells.len(), 6);
        assert!(ABLATION.iter().any(|(_, label)| label.contains("baseline")));
        assert!(grid
            .cells
            .iter()
            .all(|c| count(c, "completed_after_warmup") > 0));
    }
}
