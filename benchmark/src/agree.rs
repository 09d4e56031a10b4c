//! `agree A.json B.json`: do two sets of runs tell the same story?
//!
//! Applies the acceptance rule to every workload × end-to-end metric: the
//! interquartile spread of each set (as a share of its median) must stay
//! within the metric's bound in `BENCHMARK.json` — otherwise the row is
//! `unresolved`, the sets cannot say — and B's median must not be worse
//! than A's by more than the bound. `setup_s` is held to the median rule
//! only, as the acceptance rule has it.

use crate::json::Json;
use crate::stats::{median, quartile_spread};
use crate::workload::NAMES;
use std::path::Path;

/// One workload × metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Runs in each set.
    pub runs: (usize, usize),
    /// Median of each set.
    pub medians: (f64, f64),
    /// Interquartile spread ÷ median of each set.
    pub spreads: (f64, f64),
    /// How much worse B's median is than A's, as a share of A's (negative:
    /// better).
    pub worse_by: f64,
    /// The bound from `BENCHMARK.json`.
    pub bound: f64,
    /// The row's verdict.
    pub verdict: Verdict,
}

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Spreads within the bound and B no worse than A by more than it.
    Agree,
    /// A spread exceeds the bound: the sets cannot resolve the metric.
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Disagree,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the reference median.
    pub bound: f64,
}

/// The end-to-end metrics of a parsed `BENCHMARK.json`.
pub fn declared_metrics(benchmark: &Json) -> Result<Vec<Declared>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key| m.get(key).and_then(Json::as_str);
            Some(Declared {
                name: text("name")?.to_string(),
                higher_is_better: match text("better")? {
                    "higher" => true,
                    "lower" => false,
                    _ => return None,
                },
                bound: m.get("bound").and_then(Json::as_f64)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// The values of `metric` over the timed runs of `workload` in a result set.
fn values_of(set: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|run| run.get("trace") == Some(&Json::Bool(false)))
        .filter_map(|run| run.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// Compare two result sets, one row per workload × metric present in both.
pub fn compare(a: &[Json], b: &[Json], declared: &[Declared]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in NAMES {
        for metric in declared {
            let (va, vb) = (
                values_of(a, workload, &metric.name),
                values_of(b, workload, &metric.name),
            );
            if va.len() < 2 || vb.len() < 2 {
                continue;
            }
            let medians = (median(&va), median(&vb));
            let spreads = (quartile_spread(&va), quartile_spread(&vb));
            let worse_by = if metric.higher_is_better {
                (medians.0 - medians.1) / medians.0
            } else {
                (medians.1 - medians.0) / medians.0
            };
            let spread_matters = metric.name != "setup_s";
            let verdict = if worse_by > metric.bound {
                Verdict::Disagree
            } else if spread_matters && spreads.0.max(spreads.1) > metric.bound {
                Verdict::Unresolved
            } else {
                Verdict::Agree
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.name.clone(),
                runs: (va.len(), vb.len()),
                medians,
                spreads,
                worse_by,
                bound: metric.bound,
                verdict,
            });
        }
    }
    rows
}

fn load_set(path: &Path) -> Result<Vec<Json>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    match Json::parse(&text)? {
        Json::Arr(items) => Ok(items),
        _ => Err(format!("{} is not a result set", path.display())),
    }
}

/// The `agree` subcommand. Exit code 0: every row agrees; 1: some row
/// disagrees; 2: no disagreement, but some row is unresolved.
pub fn main(a: &Path, b: &Path, benchmark_json: &Path) -> Result<u8, String> {
    let benchmark = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("reading {}: {e}", benchmark_json.display()))?;
    let declared = declared_metrics(&Json::parse(&benchmark)?)?;
    let rows = compare(&load_set(a)?, &load_set(b)?, &declared);
    if rows.is_empty() {
        return Err("the two sets share no workload with at least two timed runs each".to_string());
    }
    println!(
        "{:<13} {:<15} {:>5} {:>14} {:>14} {:>8} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "runs", "median A", "median B", "iqr A", "iqr B", "B worse", "bound"
    );
    for row in &rows {
        println!(
            "{:<13} {:<15} {:>2}/{:<2} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>+8.2}% {:>5.1}%  {}",
            row.workload,
            row.metric,
            row.runs.0,
            row.runs.1,
            row.medians.0,
            row.medians.1,
            row.spreads.0 * 100.0,
            row.spreads.1 * 100.0,
            row.worse_by * 100.0,
            row.bound * 100.0,
            match row.verdict {
                Verdict::Agree => "agree",
                Verdict::Unresolved => "unresolved",
                Verdict::Disagree => "DISAGREE",
            }
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (disagree, unresolved) = (count(Verdict::Disagree), count(Verdict::Unresolved));
    println!(
        "{} rows: {} agree, {unresolved} unresolved, {disagree} disagree",
        rows.len(),
        count(Verdict::Agree)
    );
    Ok(match (disagree, unresolved) {
        (0, 0) => 0,
        (0, _) => 2,
        _ => 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, rate: f64, setup: f64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::Bool(false)),
            (
                "metrics",
                Json::obj([
                    ("work_per_s", Json::Num(rate)),
                    ("setup_s", Json::Num(setup)),
                ]),
            ),
        ])
    }

    fn declared() -> Vec<Declared> {
        vec![
            Declared {
                name: "work_per_s".into(),
                higher_is_better: true,
                bound: 0.05,
            },
            Declared {
                name: "setup_s".into(),
                higher_is_better: false,
                bound: 0.10,
            },
        ]
    }

    fn set(workload: &str, rates: &[f64], setup: f64) -> Vec<Json> {
        rates.iter().map(|r| run(workload, *r, setup)).collect()
    }

    #[test]
    fn steady_sets_agree_and_a_slower_one_disagrees() {
        let a = set("sim_pipeline", &[100.0, 101.0, 99.0, 100.5, 99.5], 1.0);
        let same = set("sim_pipeline", &[100.2, 99.8, 100.0, 101.0, 99.0], 1.05);
        let rows = compare(&a, &same, &declared());
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Agree), "{rows:?}");

        let slower = set("sim_pipeline", &[90.0, 91.0, 89.0, 90.5, 89.5], 1.2);
        let rows = compare(&a, &slower, &declared());
        assert_eq!(rows[0].verdict, Verdict::Disagree);
        assert!((rows[0].worse_by - 0.1).abs() < 1e-9);
        assert_eq!(rows[1].verdict, Verdict::Disagree, "set-up 20 % slower");

        // Faster is never a disagreement.
        let rows = compare(&slower, &a, &declared());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Agree));
    }

    #[test]
    fn a_noisy_set_is_unresolved_not_agreed() {
        let a = set("trace_plane", &[100.0, 80.0, 120.0, 70.0, 130.0], 1.0);
        let b = set("trace_plane", &[100.0, 101.0, 99.0, 100.5, 99.5], 1.0);
        let rows = compare(&a, &b, &declared());
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        // setup_s is exempt from the spread rule.
        let a = vec![
            run("trace_plane", 100.0, 1.0),
            run("trace_plane", 100.0, 2.0),
            run("trace_plane", 100.0, 3.0),
        ];
        let rows = compare(&a, &a, &declared());
        assert_eq!(rows[1].verdict, Verdict::Agree);
    }

    #[test]
    fn traced_runs_and_other_workloads_are_left_out() {
        let mut a = set("compile_real", &[10.0, 10.0], 1.0);
        a.push(Json::obj([
            ("workload", Json::str("compile_real")),
            ("trace", Json::Bool(true)),
            ("metrics", Json::obj([("work_per_s", Json::Num(1.0))])),
        ]));
        a.extend(set("sim_firehose", &[5.0], 1.0));
        let rows = compare(&a, &a, &declared());
        assert_eq!(rows.len(), 2);
        assert!(rows
            .iter()
            .all(|r| r.workload == "compile_real" && r.runs == (2, 2)));
    }
}
