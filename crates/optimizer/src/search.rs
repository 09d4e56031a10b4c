//! The optimizer driver: bind (every name resolved once) → seed the memo →
//! staged exploration → costing.

use crate::binder::Binder;
use crate::cardinality::CardinalityEstimator;
use crate::cost::CostModel;
use crate::error::OptimizerError;
use crate::implementation::{extract_plan, optimize_group, ImplementationContext};
use crate::memo::Memo;
use crate::memory::{sizes, CompilationMemory, GovernorDirective, MemoryGovernor};
use crate::physical::PhysicalPlan;
use crate::rules::Exploration;
use crate::stage::{OptimizationStage, StagePolicy};
use serde::{Deserialize, Serialize};
use throttledb_catalog::Catalog;
use throttledb_membroker::Clerk;
use throttledb_sqlparse::SelectStatement;

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct OptimizerConfig {
    /// Stage-selection policy (how effort scales with estimated cost).
    pub stage_policy: StagePolicy,
    /// Cost model.
    pub cost_model: CostModel,
}

/// Statistics about one compilation, used by the experiments and by the
/// engine's compile-time model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompileStats {
    /// Peak compilation memory in bytes.
    pub peak_memory_bytes: u64,
    /// Stage chosen.
    pub stage: OptimizationStage,
    /// Transformation-rule applications performed.
    pub transformations: u64,
    /// Memo groups at the end of compilation.
    pub memo_groups: usize,
    /// Memo logical expressions at the end of compilation.
    pub memo_exprs: usize,
    /// True when exploration stopped early because the governor demanded the
    /// best plan so far.
    pub finished_best_effort: bool,
}

/// The result of a successful compilation.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome {
    /// The chosen physical plan.
    pub plan: PhysicalPlan,
    /// Compilation statistics.
    pub stats: CompileStats,
}

/// The query optimizer.
#[derive(Debug)]
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    config: OptimizerConfig,
}

impl<'a> Optimizer<'a> {
    /// Create an optimizer over `catalog` with default configuration.
    pub fn new(catalog: &'a Catalog) -> Self {
        Optimizer {
            catalog,
            config: OptimizerConfig::default(),
        }
    }

    /// Create an optimizer with an explicit configuration.
    pub fn with_config(catalog: &'a Catalog, config: OptimizerConfig) -> Self {
        Optimizer { catalog, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Compile a statement with no throttling and no broker reporting
    /// (the unthrottled baseline, and the convenient entry point for tests).
    pub fn optimize(&self, stmt: &SelectStatement) -> Result<OptimizationOutcome, OptimizerError> {
        self.optimize_governed(stmt, CompilationMemory::unlimited())
    }

    /// Compile a statement, charging compilation memory to `clerk` and
    /// consulting `governor` after every allocation. This is the entry point
    /// the throttled server uses: the governor is the gateway ladder.
    pub fn optimize_with_governor(
        &self,
        stmt: &SelectStatement,
        governor: Box<dyn MemoryGovernor + Send>,
        clerk: Option<Clerk>,
    ) -> Result<OptimizationOutcome, OptimizerError> {
        self.optimize_governed(stmt, CompilationMemory::new(governor, clerk))
    }

    fn optimize_governed(
        &self,
        stmt: &SelectStatement,
        mut mem: CompilationMemory,
    ) -> Result<OptimizationOutcome, OptimizerError> {
        let estimator = CardinalityEstimator::new(self.catalog);
        let bound = Binder::new(self.catalog).bind(stmt)?;
        let table_count = bound.table_count();

        // Fixed per-query overhead: parse tree, binding, statistics loads.
        mem.charge(sizes::QUERY_OVERHEAD_BYTES);
        mem.charge(sizes::PER_TABLE_OVERHEAD_BYTES * table_count as u64);

        // Seed the memo with the initial plan and cost it, so a best-effort
        // plan exists from the earliest possible moment.
        let mut memo = Memo::new();
        let root = memo.insert_plan(bound, &estimator, &mut mem);
        let ctx = ImplementationContext {
            catalog: self.catalog,
            estimator,
            model: self.config.cost_model,
        };
        memo.clear_winners();
        optimize_group(&mut memo, root, &ctx, &mut mem);
        let initial_cost = memo
            .winner(root)
            .map(|w| w.total_cost.total())
            .unwrap_or(0.0);

        // Pick the stage ("dynamic optimization").
        let budget = self.config.stage_policy.choose(initial_cost, table_count);

        // Exploration: every (expr, rule) pair in expression order until
        // the budget is exhausted, the space is exhausted, or the governor
        // intervenes.
        let limit = budget.transformation_limit;
        let (transformations, directive) =
            Exploration::default().explore(&mut memo, limit, &estimator, &mut mem);
        if directive == GovernorDirective::Abort {
            mem.finish();
            let reason = "memory governor aborted compilation".to_string();
            return Err(OptimizerError::Aborted(reason));
        }
        let best_effort = directive == GovernorDirective::FinishWithBestPlan;
        memo.end_exploration();

        // Final costing pass over everything explored.
        memo.clear_winners();
        optimize_group(&mut memo, root, &ctx, &mut mem);
        let plan = extract_plan(&memo, root, &ctx).ok_or(OptimizerError::NoPlanAvailable)?;

        let stats = CompileStats {
            peak_memory_bytes: mem.peak_bytes(),
            stage: budget.stage,
            transformations,
            memo_groups: memo.group_count(),
            memo_exprs: memo.expr_count(),
            finished_best_effort: best_effort,
        };
        mem.finish();
        Ok(OptimizationOutcome { plan, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::UnlimitedGovernor;
    use throttledb_catalog::{sales_schema, tpch_schema, SalesScale};
    use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};
    use throttledb_sqlparse::parse;

    fn sales_query(joins: usize) -> String {
        // Join the fact table to `joins` dimensions (up to 19).
        let dims = [
            ("dim_product", "product_id", "product_key"),
            ("dim_customer", "customer_id", "customer_key"),
            ("dim_store", "store_id", "store_key"),
            ("dim_date", "date_id", "date_key"),
            ("dim_promotion", "promotion_id", "promotion_key"),
            ("dim_channel", "channel_id", "channel_key"),
            ("dim_currency", "currency_id", "currency_key"),
            ("dim_salesrep", "salesrep_id", "salesrep_key"),
            ("dim_shipmode", "shipmode_id", "shipmode_key"),
            ("dim_warehouse", "warehouse_id", "warehouse_key"),
            ("dim_region", "region_id", "region_key"),
            ("dim_category", "category_id", "category_key"),
            ("dim_brand", "brand_id", "brand_key"),
            ("dim_supplier", "supplier_id", "supplier_key"),
            ("dim_payment", "payment_id", "payment_key"),
            ("dim_segment", "segment_id", "segment_key"),
            ("dim_campaign", "campaign_id", "campaign_key"),
            ("dim_returnreason", "returnreason_id", "returnreason_key"),
        ];
        let mut sql = String::from("SELECT SUM(f.net_amount) AS total FROM fact_sales f");
        for (table, fk, key) in dims.iter().take(joins) {
            sql.push_str(&format!(" JOIN {table} ON f.{fk} = {table}.{key}"));
        }
        sql.push_str(" WHERE f.quantity > 10 GROUP BY f.channel_id");
        sql
    }

    #[test]
    fn oltp_point_query_compiles_trivially_with_small_memory() {
        let cat = tpch_schema(1.0);
        let opt = Optimizer::new(&cat);
        let stmt = parse("SELECT o_totalprice FROM orders WHERE o_orderkey = 42").unwrap();
        let out = opt.optimize(&stmt).unwrap();
        assert_eq!(out.stats.stage, OptimizationStage::Trivial);
        assert_eq!(out.stats.transformations, 0);
        // Small queries stay well under a megabyte of compile memory.
        assert!(
            out.stats.peak_memory_bytes < 1 << 20,
            "point query used {} bytes",
            out.stats.peak_memory_bytes
        );
        assert_eq!(out.plan.scan_count(), 1);
    }

    #[test]
    fn tpch_style_join_query_uses_quick_or_full_stage() {
        let cat = tpch_schema(1.0);
        let opt = Optimizer::new(&cat);
        let stmt = parse(
            "SELECT c.c_mktsegment, SUM(l.l_extendedprice) FROM lineitem l \
             JOIN orders o ON l.l_orderkey = o.o_orderkey \
             JOIN customer c ON o.o_custkey = c.c_custkey \
             WHERE o.o_orderdate BETWEEN 100 AND 400 \
             GROUP BY c.c_mktsegment",
        )
        .unwrap();
        let out = opt.optimize(&stmt).unwrap();
        assert_ne!(out.stats.stage, OptimizationStage::Trivial);
        assert!(out.stats.transformations > 0);
        assert!(out.stats.memo_exprs > out.plan.operator_count());
        assert_eq!(out.plan.join_count(), 2);
    }

    #[test]
    fn exploration_finds_a_cheaper_join_order_than_the_initial_plan() {
        // Written order joins the two big tables first; a better order
        // filters through the small customer table first. The optimizer
        // should at least not be worse than the initial left-deep plan.
        let cat = tpch_schema(1.0);
        let opt = Optimizer::new(&cat);
        let stmt = parse(
            "SELECT COUNT(*) FROM lineitem l \
             JOIN orders o ON l.l_orderkey = o.o_orderkey \
             JOIN customer c ON o.o_custkey = c.c_custkey \
             WHERE c.c_mktsegment = 'BUILDING'",
        )
        .unwrap();

        // Baseline: trivial-style compile (no exploration) via a zero-budget policy.
        let mut cfg = OptimizerConfig::default();
        cfg.stage_policy.quick_budget = 0;
        cfg.stage_policy.full_budget_per_log_cost = 0.0;
        cfg.stage_policy.full_budget_per_table = 0;
        cfg.stage_policy.full_budget_cap = 0;
        let baseline = Optimizer::with_config(&cat, cfg).optimize(&stmt).unwrap();

        let explored = opt.optimize(&stmt).unwrap();
        assert!(
            explored.plan.total_cost.total() <= baseline.plan.total_cost.total() * 1.0001,
            "exploration must not produce a worse plan: {} vs {}",
            explored.plan.total_cost.total(),
            baseline.plan.total_cost.total()
        );
    }

    #[test]
    fn sales_query_uses_one_to_two_orders_of_magnitude_more_memory_than_tpch() {
        let sales_cat = sales_schema(SalesScale::paper());
        let tpch_cat = tpch_schema(1.0);

        let sales_stmt = parse(&sales_query(16)).unwrap();
        let sales_out = Optimizer::new(&sales_cat).optimize(&sales_stmt).unwrap();

        let tpch_stmt = parse(
            "SELECT c.c_mktsegment, SUM(l.l_extendedprice) FROM lineitem l \
             JOIN orders o ON l.l_orderkey = o.o_orderkey \
             JOIN customer c ON o.o_custkey = c.c_custkey \
             JOIN nation n ON c.c_nationkey = n.n_nationkey \
             JOIN region r ON n.n_regionkey = r.r_regionkey \
             GROUP BY c.c_mktsegment",
        )
        .unwrap();
        let tpch_out = Optimizer::new(&tpch_cat).optimize(&tpch_stmt).unwrap();

        let ratio =
            sales_out.stats.peak_memory_bytes as f64 / tpch_out.stats.peak_memory_bytes as f64;
        assert!(
            ratio >= 10.0,
            "SALES compile memory should be ≥10x TPC-H (paper: 1-2 orders of magnitude), got {ratio:.1}x \
             ({} vs {} bytes)",
            sales_out.stats.peak_memory_bytes,
            tpch_out.stats.peak_memory_bytes
        );
        assert_eq!(sales_out.stats.stage, OptimizationStage::Full);
    }

    #[test]
    fn compile_memory_grows_with_join_count() {
        let cat = sales_schema(SalesScale::paper());
        let opt = Optimizer::new(&cat);
        let small = opt.optimize(&parse(&sales_query(4)).unwrap()).unwrap();
        let large = opt.optimize(&parse(&sales_query(16)).unwrap()).unwrap();
        assert!(
            large.stats.peak_memory_bytes > small.stats.peak_memory_bytes,
            "16-join query should out-consume 4-join query: {} vs {}",
            large.stats.peak_memory_bytes,
            small.stats.peak_memory_bytes
        );
    }

    #[test]
    fn governor_can_demand_best_effort_plan() {
        struct CapGovernor {
            cap: u64,
        }
        impl MemoryGovernor for CapGovernor {
            fn on_allocation(&mut self, used: u64, _peak: u64) -> GovernorDirective {
                if used > self.cap {
                    GovernorDirective::FinishWithBestPlan
                } else {
                    GovernorDirective::Continue
                }
            }
        }
        let cat = sales_schema(SalesScale::paper());
        let opt = Optimizer::new(&cat);
        let stmt = parse(&sales_query(12)).unwrap();
        let unconstrained = opt.optimize(&stmt).unwrap();
        let capped = opt
            .optimize_with_governor(&stmt, Box::new(CapGovernor { cap: 4 << 20 }), None)
            .unwrap();
        assert!(capped.stats.finished_best_effort);
        assert!(!unconstrained.stats.finished_best_effort);
        assert!(capped.stats.peak_memory_bytes < unconstrained.stats.peak_memory_bytes);
        // It still produced a usable plan covering every table.
        assert_eq!(capped.plan.scan_count(), unconstrained.plan.scan_count());
    }

    #[test]
    fn governor_abort_surfaces_as_error() {
        struct AbortGovernor;
        impl MemoryGovernor for AbortGovernor {
            fn on_allocation(&mut self, used: u64, _peak: u64) -> GovernorDirective {
                if used > 1 << 20 {
                    GovernorDirective::Abort
                } else {
                    GovernorDirective::Continue
                }
            }
        }
        let cat = sales_schema(SalesScale::paper());
        let opt = Optimizer::new(&cat);
        let stmt = parse(&sales_query(12)).unwrap();
        let err = opt
            .optimize_with_governor(&stmt, Box::new(AbortGovernor), None)
            .unwrap_err();
        assert!(matches!(err, OptimizerError::Aborted(_)));
    }

    #[test]
    fn broker_clerk_sees_compile_memory_and_is_released_at_the_end() {
        let broker = MemoryBroker::new(BrokerConfig::paper_machine());
        let clerk = broker.register(SubcomponentKind::Compilation);
        let cat = tpch_schema(1.0);
        let opt = Optimizer::new(&cat);
        let stmt =
            parse("SELECT COUNT(*) FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey")
                .unwrap();
        let out = opt
            .optimize_with_governor(&stmt, Box::new(UnlimitedGovernor), Some(clerk.clone()))
            .unwrap();
        assert!(out.stats.peak_memory_bytes > 0);
        assert_eq!(clerk.used_bytes(), 0, "all compile memory must be released");
        assert!(
            clerk.total_allocated() > 0,
            "but the broker saw the allocations"
        );
    }

    #[test]
    fn unknown_table_fails_before_any_exploration() {
        let cat = tpch_schema(1.0);
        let opt = Optimizer::new(&cat);
        let stmt = parse("SELECT x FROM missing_table").unwrap();
        assert!(matches!(
            opt.optimize(&stmt),
            Err(OptimizerError::UnknownTable(_))
        ));
    }

    #[test]
    fn from_list_wider_than_the_binding_set_is_unsupported_not_a_panic() {
        let cat = tpch_schema(1.0);
        let opt = Optimizer::new(&cat);
        let from_list = |aliases: usize| {
            let tables: Vec<String> = (0..aliases).map(|i| format!("nation n{i}")).collect();
            parse(&format!("SELECT COUNT(*) FROM {}", tables.join(", "))).unwrap()
        };
        // 256 aliases fill the binding set exactly and still compile...
        let widest = opt.optimize(&from_list(256)).unwrap();
        assert_eq!(widest.plan.scan_count(), 256);
        // ...one more is refused, through the governed path too, and the
        // refusal releases everything the compilation had been charged.
        let err = opt.optimize(&from_list(257)).unwrap_err();
        assert!(
            matches!(&err, OptimizerError::Unsupported(why) if why.contains("256")),
            "{err}"
        );
        let broker = MemoryBroker::new(BrokerConfig::paper_machine());
        let clerk = broker.register(SubcomponentKind::Compilation);
        let governed = opt.optimize_with_governor(
            &from_list(257),
            Box::new(UnlimitedGovernor),
            Some(clerk.clone()),
        );
        assert!(matches!(governed, Err(OptimizerError::Unsupported(_))));
        assert_eq!(clerk.used_bytes(), 0);
    }

    #[test]
    fn duplicate_exposed_names_fail_before_anything_is_charged() {
        let cat = tpch_schema(1.0);
        let opt = Optimizer::new(&cat);
        let broker = MemoryBroker::new(BrokerConfig::paper_machine());
        let clerk = broker.register(SubcomponentKind::Compilation);
        for sql in [
            "SELECT COUNT(*) FROM orders, orders",
            "SELECT COUNT(*) FROM orders o JOIN customer o ON o.o_custkey = o.o_custkey",
        ] {
            let stmt = parse(sql).unwrap();
            let governed =
                opt.optimize_with_governor(&stmt, Box::new(UnlimitedGovernor), Some(clerk.clone()));
            assert!(matches!(governed, Err(OptimizerError::DuplicateBinding(_))));
        }
        assert_eq!(clerk.total_allocated(), 0);
    }

    #[test]
    fn compilation_is_deterministic() {
        let cat = sales_schema(SalesScale::paper());
        let opt = Optimizer::new(&cat);
        let stmt = parse(&sales_query(10)).unwrap();
        let a = opt.optimize(&stmt).unwrap();
        let b = opt.optimize(&stmt).unwrap();
        assert_eq!(a.stats.peak_memory_bytes, b.stats.peak_memory_bytes);
        assert_eq!(a.stats.memo_exprs, b.stats.memo_exprs);
        assert_eq!(a.plan.total_cost.total(), b.plan.total_cost.total());
    }
}
