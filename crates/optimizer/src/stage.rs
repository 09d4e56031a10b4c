//! Optimization stages: "dynamic optimization".
//!
//! SQL Server (and therefore the paper's evaluation, §5.2) ties the effort
//! spent optimizing a query to its estimated cost: "the time spent optimizing
//! a query is a function of the estimated cost of the query. Therefore, more
//! expensive queries receive more optimization time." We reproduce that with
//! three stages, each with a budget of transformation-rule applications —
//! the quantity that drives both compile time and compile memory.

use serde::{Deserialize, Serialize};

/// The optimization stage selected for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptimizationStage {
    /// Trivial plan: no exploration at all (point lookups, tiny queries,
    /// the "small diagnostic queries" the first gateway threshold exempts).
    Trivial,
    /// Quick search: a small transformation budget (OLTP / TPC-C-class).
    Quick,
    /// Full search: budget grows with estimated cost, up to a cap
    /// (DSS / SALES-class queries).
    Full,
}

/// The effort budget derived from a stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageBudget {
    /// Selected stage.
    pub stage: OptimizationStage,
    /// Maximum transformation-rule applications.
    pub transformation_limit: u64,
}

/// Parameters of the stage-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StagePolicy {
    /// Initial-plan cost below which the trivial stage is used.
    pub trivial_cost_threshold: f64,
    /// Initial-plan cost below which the quick stage is used.
    pub quick_cost_threshold: f64,
    /// Transformation budget for the quick stage.
    pub quick_budget: u64,
    /// Transformations granted per unit of `ln(cost)` in the full stage.
    pub full_budget_per_log_cost: f64,
    /// Extra transformations granted per table in the query (bigger join
    /// graphs legitimately need more exploration).
    pub full_budget_per_table: u64,
    /// Hard cap on the full-stage budget.
    pub full_budget_cap: u64,
}

impl Default for StagePolicy {
    fn default() -> Self {
        StagePolicy {
            trivial_cost_threshold: 0.05,
            quick_cost_threshold: 50.0,
            quick_budget: 400,
            full_budget_per_log_cost: 900.0,
            full_budget_per_table: 1_500,
            full_budget_cap: 80_000,
        }
    }
}

impl StagePolicy {
    /// Choose a stage and budget for a query whose *initial* (pre-exploration)
    /// plan has estimated cost `initial_cost` and touches `table_count` tables.
    pub fn choose(&self, initial_cost: f64, table_count: usize) -> StageBudget {
        if initial_cost <= self.trivial_cost_threshold && table_count <= 2 {
            return StageBudget {
                stage: OptimizationStage::Trivial,
                transformation_limit: 0,
            };
        }
        if initial_cost <= self.quick_cost_threshold && table_count <= 6 {
            return StageBudget {
                stage: OptimizationStage::Quick,
                transformation_limit: self.quick_budget,
            };
        }
        let from_cost = self.full_budget_per_log_cost * initial_cost.max(1.0).ln();
        let from_tables = self.full_budget_per_table * table_count as u64;
        // A wide cross product costs +inf, which casts to `u64::MAX`.
        let budget = (from_cost as u64)
            .saturating_add(from_tables)
            .min(self.full_budget_cap);
        StageBudget {
            stage: OptimizationStage::Full,
            transformation_limit: budget.max(self.quick_budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_cost_gets_the_capped_budget_not_an_overflow() {
        let p = StagePolicy::default();
        let b = p.choose(f64::INFINITY, 256);
        assert_eq!(b.stage, OptimizationStage::Full);
        assert_eq!(b.transformation_limit, p.full_budget_cap);
    }

    #[test]
    fn point_lookup_is_trivial() {
        let p = StagePolicy::default();
        let b = p.choose(0.01, 1);
        assert_eq!(b.stage, OptimizationStage::Trivial);
        assert_eq!(b.transformation_limit, 0);
    }

    #[test]
    fn moderate_query_is_quick() {
        let p = StagePolicy::default();
        let b = p.choose(10.0, 3);
        assert_eq!(b.stage, OptimizationStage::Quick);
        assert_eq!(b.transformation_limit, p.quick_budget);
    }

    #[test]
    fn expensive_query_is_full_with_cost_scaled_budget() {
        let p = StagePolicy::default();
        let cheap_dss = p.choose(1_000.0, 8);
        let huge_dss = p.choose(1_000_000.0, 20);
        assert_eq!(cheap_dss.stage, OptimizationStage::Full);
        assert_eq!(huge_dss.stage, OptimizationStage::Full);
        assert!(huge_dss.transformation_limit > cheap_dss.transformation_limit);
        assert!(huge_dss.transformation_limit <= p.full_budget_cap);
    }

    #[test]
    fn budget_is_capped() {
        let p = StagePolicy::default();
        let b = p.choose(1e30, 100);
        assert_eq!(b.transformation_limit, p.full_budget_cap);
    }

    #[test]
    fn many_tables_force_full_even_when_cost_is_moderate() {
        let p = StagePolicy::default();
        let b = p.choose(20.0, 15);
        assert_eq!(b.stage, OptimizationStage::Full);
        assert!(b.transformation_limit >= 15 * p.full_budget_per_table);
    }
}
