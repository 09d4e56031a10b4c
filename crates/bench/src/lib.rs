//! # throttledb-bench
//!
//! Shared helpers for the benchmark harness: the criterion micro-benchmarks
//! live in `benches/`, one binary per paper figure/table lives in
//! `src/bin/`, `src/bin/scenario_runner.rs` drives the declarative
//! scenario subsystem, and `src/bin/sweep.rs` fans grids of scenario runs
//! across worker threads via the [`sweep`] module into the BENCH documents
//! that [`gate`] writes, reads and diffs. `docs/EXPERIMENTS.md` (repo root)
//! is the experiment book covering all of them.
//!
//! The figure binaries accept two optional positional arguments:
//! `quick|paper` (scale) and a seed, e.g.
//! `cargo run --release -p throttledb-bench --bin figure3_throughput_30 -- quick 7`.

#![deny(missing_docs)]

pub mod experiment;
pub mod gate;
pub mod sweep;

use std::fmt;
use throttledb_scenario::Scale;

/// An argument the figure binaries cannot use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A scale other than `quick` or `paper`.
    UnknownScale(String),
    /// A seed that is not a `u64`.
    BadSeed(String),
    /// An argument after the seed.
    Extra(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownScale(s) => write!(f, "unknown scale {s:?} (quick or paper)"),
            ArgError::BadSeed(s) => write!(f, "seed {s:?} is not an unsigned integer"),
            ArgError::Extra(s) => write!(f, "unexpected argument {s:?}"),
        }
    }
}

/// The figure binaries' arguments (program name excluded): an optional
/// `quick|paper` scale (default `paper`) and an optional seed (default
/// 2007).
pub fn experiment_config(args: &[String]) -> Result<(Scale, u64), ArgError> {
    let scale = match args.first() {
        None => Scale::Paper,
        Some(s) => Scale::parse(s).ok_or_else(|| ArgError::UnknownScale(s.clone()))?,
    };
    let seed = match args.get(1) {
        None => 2007,
        Some(s) => s.parse().map_err(|_| ArgError::BadSeed(s.clone()))?,
    };
    if let Some(extra) = args.get(2) {
        return Err(ArgError::Extra(extra.clone()));
    }
    Ok((scale, seed))
}

/// [`experiment_config`] over the process arguments. On a bad argument it
/// prints the error and the usage line and exits with status 2.
pub fn experiment_config_or_exit() -> (Scale, u64) {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    experiment_config(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: {program} [quick|paper] [seed]");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_experiment_config_is_paper_scale() {
        assert_eq!(experiment_config(&[]), Ok((Scale::Paper, 2007)));
        assert_eq!(
            experiment_config(&args(&["quick", "7"])),
            Ok((Scale::Quick, 7))
        );
    }

    #[test]
    fn experiment_config_rejects_an_unknown_scale() {
        assert_eq!(
            experiment_config(&args(&["quik", "2007"])).err(),
            Some(ArgError::UnknownScale("quik".to_string()))
        );
    }

    #[test]
    fn experiment_config_rejects_a_non_numeric_seed() {
        assert_eq!(
            experiment_config(&args(&["quick", "2OO7"])).err(),
            Some(ArgError::BadSeed("2OO7".to_string()))
        );
    }

    #[test]
    fn experiment_config_rejects_extra_arguments() {
        assert_eq!(
            experiment_config(&args(&["quick", "2007", "extra", "junk"])).err(),
            Some(ArgError::Extra("extra".to_string()))
        );
    }
}
