//! The execution model: from a physical plan to the profile the engine runs.

use serde::{Deserialize, Serialize};
use throttledb_catalog::Catalog;
use throttledb_optimizer::{PhysicalOp, PhysicalPlan};

/// What the simulated execution of one query looks like.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionProfile {
    /// CPU seconds on one core of the reference machine.
    pub cpu_seconds: f64,
    /// Bytes of base-table data the plan touches (buffer-pool footprint).
    pub footprint_bytes: u64,
    /// Execution memory grant the plan asks for (hash tables, sorts).
    pub requested_grant_bytes: u64,
    /// Number of base-table accesses in the plan.
    pub scan_count: usize,
}

/// Extra CPU factor applied when a query receives only
/// `granted / requested` of its memory grant and must spill. A full grant
/// costs nothing extra; a quarter grant roughly doubles the hash/sort work
/// (re-partitioning passes); a query that requested nothing never spills.
pub fn spill_slowdown(granted_bytes: u64, requested_bytes: u64) -> f64 {
    if requested_bytes == 0 {
        return 1.0;
    }
    let fraction = (granted_bytes as f64 / requested_bytes as f64).clamp(0.05, 1.0);
    // 1.0 at full grant, ~2.4 at a 25% grant, ~4.8 at a 5% grant.
    1.0 + (1.0 / fraction - 1.0) * 0.45
}

/// Builds execution profiles from optimizer plans and catalog statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionModel {
    /// CPU seconds per row flowing through one operator (reference machine:
    /// 700 MHz Xeon — a few hundred nanoseconds per row-operator).
    pub cpu_seconds_per_row: f64,
    /// Extra CPU per row for hash build/probe.
    pub cpu_seconds_per_hash_row: f64,
    /// Cap on a single query's memory grant request (fraction of grants that
    /// one query may claim; SQL Server caps a single grant similarly).
    pub max_single_grant_bytes: u64,
}

impl Default for ExecutionModel {
    fn default() -> Self {
        ExecutionModel {
            cpu_seconds_per_row: 4.0e-7,
            cpu_seconds_per_hash_row: 7.0e-7,
            max_single_grant_bytes: 900 << 20,
        }
    }
}

impl ExecutionModel {
    /// Build the execution profile of `plan` against `catalog`.
    pub fn profile(&self, plan: &PhysicalPlan, catalog: &Catalog) -> ExecutionProfile {
        let mut cpu = 0.0;
        let mut footprint = 0u64;
        plan.walk(&mut |node| {
            let rows = node.est_rows.max(1.0);
            match &node.op {
                PhysicalOp::TableScan { table, .. } => {
                    cpu += rows * self.cpu_seconds_per_row;
                    footprint += catalog.table(table).map(|t| t.total_bytes()).unwrap_or(0);
                }
                PhysicalOp::IndexSeek { table, .. } => {
                    cpu += rows * self.cpu_seconds_per_row * 2.0;
                    // A seek touches only the qualifying fraction of the table.
                    let table_bytes = catalog.table(table).map(|t| t.total_bytes()).unwrap_or(0);
                    let table_rows = catalog
                        .table(table)
                        .map(|t| t.row_count().max(1) as f64)
                        .unwrap_or(1.0);
                    let fraction = (rows / table_rows).clamp(0.0, 1.0);
                    footprint += (table_bytes as f64 * fraction) as u64;
                }
                PhysicalOp::HashJoin { .. } => {
                    let build = node.children.get(1).map(|c| c.est_rows).unwrap_or(0.0);
                    let probe = node.children.first().map(|c| c.est_rows).unwrap_or(0.0);
                    cpu += (build + probe) * self.cpu_seconds_per_hash_row
                        + rows * self.cpu_seconds_per_row;
                }
                PhysicalOp::NestedLoopJoin { .. } => {
                    let outer = node.children.first().map(|c| c.est_rows).unwrap_or(0.0);
                    let inner = node.children.get(1).map(|c| c.est_rows).unwrap_or(0.0);
                    cpu += (outer * inner.max(1.0).log2().max(1.0)) * self.cpu_seconds_per_row
                        + rows * self.cpu_seconds_per_row;
                }
                PhysicalOp::HashAggregate { .. } => {
                    let input = node.children.first().map(|c| c.est_rows).unwrap_or(0.0);
                    cpu += input * self.cpu_seconds_per_hash_row + rows * self.cpu_seconds_per_row;
                }
                PhysicalOp::Sort { .. } => {
                    let input = node
                        .children
                        .first()
                        .map(|c| c.est_rows)
                        .unwrap_or(0.0)
                        .max(2.0);
                    cpu += input * input.log2() * self.cpu_seconds_per_row * 0.3;
                }
                PhysicalOp::Filter { .. }
                | PhysicalOp::Project { .. }
                | PhysicalOp::Limit { .. } => {
                    let input = node.children.first().map(|c| c.est_rows).unwrap_or(0.0);
                    cpu += input * self.cpu_seconds_per_row * 0.3;
                }
            }
        });
        ExecutionProfile {
            cpu_seconds: cpu,
            footprint_bytes: footprint,
            requested_grant_bytes: plan
                .total_memory_requirement()
                .min(self.max_single_grant_bytes),
            scan_count: plan.scan_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use throttledb_catalog::tpch_schema;
    use throttledb_optimizer::Optimizer;
    use throttledb_sqlparse::parse;

    fn profile_of(sql: &str) -> ExecutionProfile {
        let cat = tpch_schema(1.0);
        let opt = Optimizer::new(&cat);
        let out = opt.optimize(&parse(sql).unwrap()).unwrap();
        ExecutionModel::default().profile(&out.plan, &cat)
    }

    #[test]
    fn point_query_is_cheap_in_every_dimension() {
        let p = profile_of("SELECT o_totalprice FROM orders WHERE o_orderkey = 7");
        assert!(p.cpu_seconds < 0.1, "cpu {}", p.cpu_seconds);
        assert!(
            p.footprint_bytes < 100 << 20,
            "footprint {}",
            p.footprint_bytes
        );
        assert_eq!(p.scan_count, 1);
    }

    #[test]
    fn join_aggregate_query_needs_a_real_grant_and_footprint() {
        let p = profile_of(
            "SELECT c.c_mktsegment, SUM(l.l_extendedprice) FROM lineitem l \
             JOIN orders o ON l.l_orderkey = o.o_orderkey \
             JOIN customer c ON o.o_custkey = c.c_custkey \
             GROUP BY c.c_mktsegment",
        );
        assert!(
            p.requested_grant_bytes > 10 << 20,
            "grant {}",
            p.requested_grant_bytes
        );
        assert!(
            p.footprint_bytes > 100 << 20,
            "footprint {}",
            p.footprint_bytes
        );
        assert!(p.cpu_seconds > 1.0, "cpu {}", p.cpu_seconds);
        assert!(p.scan_count >= 3);
    }

    #[test]
    fn grant_request_is_capped() {
        let model = ExecutionModel::default();
        let p = profile_of(
            "SELECT COUNT(*) FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey",
        );
        assert!(p.requested_grant_bytes <= model.max_single_grant_bytes);
    }

    #[test]
    fn spill_slowdown_grows_as_grant_shrinks() {
        let requested = 100 << 20;
        assert!((spill_slowdown(requested, requested) - 1.0).abs() < 1e-9);
        let half = spill_slowdown(50 << 20, requested);
        let quarter = spill_slowdown(25 << 20, requested);
        assert!(half > 1.0 && quarter > half);
        // Zero-request queries are immune.
        assert_eq!(spill_slowdown(0, 0), 1.0);
    }
}
