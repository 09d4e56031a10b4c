//! The binder: name resolution and lowering of parsed SQL into the
//! name-resolved operators the memo is seeded with.
//!
//! It has the shape of RisingWave's frontend binder (`Binder::bind` returns
//! a `BoundStatement`; SNIPPETS.md §3): one pass over the parsed statement
//! resolves every name as it goes, and what it returns refers to nothing by
//! name any more. A binding (table alias) becomes its FROM-list position,
//! a [`BindingId`]; an equi-join predicate becomes an oriented [`PredRef`]
//! in the compilation's [`Names`] table, its `ndv` looked up once; a scan or
//! unary operator becomes a [`PlainId`] there. The result, a [`BoundQuery`],
//! is the memo's seed as it stands.
//!
//! Beyond resolving tables and columns against the catalog, the binder does
//! the normalization the optimizer relies on:
//!
//! * WHERE and `JOIN ... ON` conjuncts are classified into **equi-join
//!   predicates** (column = column across two bindings), **single-table
//!   filters** (pushed into the `Get` of their table), and **residual
//!   predicates** (kept in a `Filter` with a guessed selectivity);
//! * the initial join tree is built left-deep in FROM-list order — the
//!   optimizer's transformation rules then explore alternative shapes inside
//!   the memo.
//!
//! A FROM list may not expose one name twice (`FROM orders, orders`), as in
//! SQL Server: a column reference could not tell the two apart.
//!
//! [`PlainId`]: crate::names::PlainId

use crate::cardinality::CardinalityEstimator;
use crate::error::OptimizerError;
use crate::logical::{ColumnRef, JoinPredicate, LogicalOp, Predicate};
use crate::memo::{MemoOp, PredList};
use crate::names::{BindingId, Names, PredRef, MAX_BINDINGS};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use throttledb_catalog::{Catalog, TableDef};
use throttledb_sqlparse::{BinaryOp, Expr, JoinKind, Literal, SelectStatement};

/// Binds parsed statements against a catalog.
#[derive(Debug)]
pub struct Binder<'a> {
    catalog: &'a Catalog,
}

/// A bound statement: the compilation's name table and the initial
/// expressions, in the order the memo inserts them — the left-deep
/// scan/join spine in FROM-list order (`Get`, `Get`, `Join`, `Get`, `Join`,
/// …), then the unary chain (residual `Filter`, `Aggregate`, HAVING
/// `Filter`, `Project`, `Sort`, `Limit`). The last expression is the root.
///
/// Only the binder builds one, so every child position names an earlier
/// expression and every predicate list lies within `preds`.
#[derive(Debug)]
pub struct BoundQuery {
    /// Every name the expressions refer to.
    pub(crate) names: Names,
    /// The expressions; each reads only expressions before it.
    pub(crate) exprs: Vec<BoundExpr>,
    /// The joins' predicate lists, back to back.
    pub(crate) preds: Vec<PredRef>,
}

/// One initial expression of a [`BoundQuery`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundExpr {
    /// The operator; a join's [`PredList`] ranges over `BoundQuery::preds`.
    pub(crate) op: MemoOp,
    /// The binding a scan reads; `None` for every other operator.
    pub(crate) scans: Option<BindingId>,
    /// Positions of its inputs in `BoundQuery::exprs`.
    pub(crate) children: [Option<usize>; 2],
}

impl BoundQuery {
    /// Number of tables the query reads.
    pub fn table_count(&self) -> usize {
        self.exprs.iter().filter(|e| e.scans.is_some()).count()
    }

    /// Append an expression and return its position.
    fn push(
        &mut self,
        op: MemoOp,
        scans: Option<BindingId>,
        children: [Option<usize>; 2],
    ) -> usize {
        self.exprs.push(BoundExpr {
            op,
            scans,
            children,
        });
        self.exprs.len() - 1
    }

    /// Append a unary operator over the current root.
    fn push_unary(&mut self, op: LogicalOp) {
        let child = self.exprs.len() - 1;
        let op = MemoOp::Plain(self.names.plain_id(op));
        self.push(op, None, [Some(child), None]);
    }
}

/// A FROM-list entry.
struct Binding<'b> {
    /// Its FROM-list position.
    id: BindingId,
    /// The name the query refers to it by (alias or table name).
    name: &'b str,
    /// The table as the query spells it.
    table: &'b str,
    /// The table's catalog entry.
    def: &'b TableDef,
    /// How it joins the entries before it.
    kind: JoinKind,
}

/// An equi-join conjunct and the bindings of its two sides.
struct EquiJoin {
    predicate: JoinPredicate,
    sides: [BindingId; 2],
}

impl EquiJoin {
    /// The later of its two bindings: the left-deep join that adds this
    /// binding is the first to see both sides.
    fn later(&self) -> BindingId {
        self.sides[0].max(self.sides[1])
    }

    /// The same conjunct with `binding` on the right.
    fn oriented_to(self, binding: BindingId) -> EquiJoin {
        if self.sides[1] == binding {
            return self;
        }
        EquiJoin {
            predicate: self.predicate.flipped(),
            sides: [self.sides[1], self.sides[0]],
        }
    }
}

/// Result of classifying one conjunct.
enum Classified {
    Join(EquiJoin),
    TableFilter(BindingId, Predicate),
    Residual(f64),
}

impl<'a> Binder<'a> {
    /// Create a binder over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Binder { catalog }
    }

    /// Bind a statement, producing the memo's seed.
    pub fn bind(&self, stmt: &SelectStatement) -> Result<BoundQuery, OptimizerError> {
        // 1. Resolve table bindings in textual order.
        let from = stmt.from.iter().map(|t| (t, JoinKind::Inner));
        let joined = stmt.joins.iter().map(|j| (&j.table, j.kind));
        let mut bindings: Vec<Binding<'_>> = Vec::new();
        for (tref, kind) in from.chain(joined) {
            let def = self.catalog.table(&tref.table);
            let def = def.ok_or_else(|| OptimizerError::UnknownTable(tref.table.clone()))?;
            let name = tref.binding_name();
            if bindings.iter().any(|b| b.name == name) {
                return Err(OptimizerError::DuplicateBinding(name.to_string()));
            }
            let id = BindingId::try_from(bindings.len()).map_err(|_| {
                OptimizerError::Unsupported(format!("more than {MAX_BINDINGS} tables in one query"))
            })?;
            bindings.push(Binding {
                id,
                name,
                table: &tref.table,
                def,
                kind,
            });
        }
        if bindings.is_empty() {
            return Err(OptimizerError::Unsupported("query without FROM".into()));
        }

        // 2. Classify all conjuncts: WHERE plus every JOIN ON clause.
        let on = stmt.joins.iter().flat_map(|j| j.on.conjuncts());
        let conjuncts = stmt.where_clause.iter().flat_map(|w| w.conjuncts());
        let mut equi_joins: Vec<EquiJoin> = Vec::new();
        let mut filters: Vec<Vec<Predicate>> = bindings.iter().map(|_| Vec::new()).collect();
        let mut residual_ppm: f64 = 1_000_000.0;
        let mut residual_count = 0u32;
        for expr in conjuncts.chain(on) {
            match self.classify(expr, &bindings)? {
                Classified::Join(equi) => equi_joins.push(equi),
                Classified::TableFilter(binding, pred) => filters[usize::from(binding)].push(pred),
                Classified::Residual(selectivity) => {
                    residual_ppm *= selectivity;
                    residual_count += 1;
                }
            }
        }

        // 3. The left-deep scan/join spine in textual order. Every equi-join
        //    predicate goes to the join that adds its later binding,
        //    oriented so that binding is on the right; a stable sort keeps
        //    each join's predicates in textual order.
        let est = CardinalityEstimator::new(self.catalog);
        equi_joins.sort_by_key(EquiJoin::later);
        let mut equi_joins = equi_joins.into_iter().peekable();
        let mut bound = BoundQuery {
            names: Names::default(),
            exprs: Vec::new(),
            preds: Vec::new(),
        };
        let mut root = None;
        for (b, predicates) in bindings.iter().zip(filters) {
            let get = LogicalOp::Get {
                table: b.table.to_string(),
                binding: b.name.to_string(),
                predicates,
            };
            let get = MemoOp::Plain(bound.names.plain_id(get));
            let scan = bound.push(get, Some(b.id), [None, None]);
            let Some(left) = root else {
                root = Some(scan);
                continue;
            };
            let usable = std::iter::from_fn(|| equi_joins.next_if(|e| e.later() == b.id));
            let usable = usable.map(|e| {
                let e = e.oriented_to(b.id);
                bound.names.pred_ref(e.predicate, e.sides, &est)
            });
            let preds = PredList::append(&mut bound.preds, usable);
            let join = MemoOp::Join {
                kind: b.kind,
                preds,
            };
            root = Some(bound.push(join, None, [Some(left), Some(scan)]));
        }

        // 4. Residual filter.
        if residual_count > 0 {
            bound.push_unary(LogicalOp::Filter {
                selectivity_ppm: residual_ppm.clamp(1.0, 1_000_000.0) as u32,
            });
        }

        // 5. Aggregation.
        if stmt.is_aggregation() {
            let group_by = stmt
                .group_by
                .iter()
                .filter_map(|g| match g {
                    Expr::Column { qualifier, name } => self
                        .resolve_column(qualifier.as_deref(), name, &bindings)
                        .ok(),
                    _ => None,
                })
                .map(|(_, column)| column)
                .collect::<Vec<_>>();
            let aggregate_count = stmt
                .items
                .iter()
                .filter(|i| i.expr.contains_aggregate())
                .count() as u32;
            bound.push_unary(LogicalOp::Aggregate {
                group_by,
                aggregate_count: aggregate_count.max(1),
            });
        }

        // 6. HAVING is a residual filter above the aggregate.
        if stmt.having.is_some() {
            bound.push_unary(LogicalOp::Filter {
                selectivity_ppm: 300_000,
            });
        }

        // 7. Projection, sort, limit.
        bound.push_unary(LogicalOp::Project {
            column_count: stmt.items.len() as u32,
        });
        if !stmt.order_by.is_empty() {
            bound.push_unary(LogicalOp::Sort {
                key_count: stmt.order_by.len() as u32,
            });
        }
        if let Some(limit) = stmt.limit {
            bound.push_unary(LogicalOp::Limit { count: limit });
        }
        Ok(bound)
    }

    /// Resolve a column reference against the bound tables, to the column
    /// and the binding it belongs to.
    fn resolve_column(
        &self,
        qualifier: Option<&str>,
        name: &str,
        bindings: &[Binding<'_>],
    ) -> Result<(BindingId, ColumnRef), OptimizerError> {
        let resolved = |b: &Binding<'_>| (b.id, ColumnRef::new(b.name, b.table, name));
        match qualifier {
            Some(q) => {
                let b = bindings
                    .iter()
                    .find(|b| b.name == q)
                    .ok_or_else(|| OptimizerError::UnknownTable(q.to_string()))?;
                if b.def.column(name).is_none() {
                    return Err(OptimizerError::UnknownColumn(format!("{q}.{name}")));
                }
                Ok(resolved(b))
            }
            None => {
                let mut matches = bindings.iter().filter(|b| b.def.column(name).is_some());
                match (matches.next(), matches.next()) {
                    (None, _) => Err(OptimizerError::UnknownColumn(name.to_string())),
                    (Some(b), None) => Ok(resolved(b)),
                    (Some(_), Some(_)) => Err(OptimizerError::AmbiguousColumn(name.to_string())),
                }
            }
        }
    }

    fn classify(
        &self,
        expr: &Expr,
        bindings: &[Binding<'_>],
    ) -> Result<Classified, OptimizerError> {
        // Equi-join: column = column over two different bindings.
        if let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = expr
        {
            if let (
                Expr::Column {
                    qualifier: ql,
                    name: nl,
                },
                Expr::Column {
                    qualifier: qr,
                    name: nr,
                },
            ) = (left.as_ref(), right.as_ref())
            {
                let (lb, left) = self.resolve_column(ql.as_deref(), nl, bindings)?;
                let (rb, right) = self.resolve_column(qr.as_deref(), nr, bindings)?;
                if lb != rb {
                    let predicate = JoinPredicate { left, right };
                    let sides = [lb, rb];
                    return Ok(Classified::Join(EquiJoin { predicate, sides }));
                }
            }
        }

        // Single-table predicates.
        if let Some((binding, pred)) = self.try_single_table(expr, bindings)? {
            return Ok(Classified::TableFilter(binding, pred));
        }

        // Fallback: a residual predicate with a guessed selectivity.
        Ok(Classified::Residual(default_selectivity(expr)))
    }

    /// Try to express `expr` as a [`Predicate`] on one binding's table.
    /// Negations (`<>`, `NOT BETWEEN`, `NOT IN`) stay residual.
    fn try_single_table(
        &self,
        expr: &Expr,
        bindings: &[Binding<'_>],
    ) -> Result<Option<(BindingId, Predicate)>, OptimizerError> {
        Ok(match expr {
            Expr::Binary { left, op, right } if op.is_comparison() => {
                let (col_expr, lit_expr, flipped) = match (left.as_ref(), right.as_ref()) {
                    (Expr::Column { .. }, Expr::Literal(_)) => {
                        (left.as_ref(), right.as_ref(), false)
                    }
                    (Expr::Literal(_), Expr::Column { .. }) => {
                        (right.as_ref(), left.as_ref(), true)
                    }
                    _ => return Ok(None),
                };
                let Expr::Column { qualifier, name } = col_expr else {
                    return Ok(None);
                };
                let Expr::Literal(lit) = lit_expr else {
                    return Ok(None);
                };
                let (binding, column) =
                    self.resolve_column(qualifier.as_deref(), name, bindings)?;
                let value = literal_to_f64(lit);
                let op = if flipped { flip_comparison(*op) } else { *op };
                let pred = match op {
                    BinaryOp::Eq => Predicate::Equals {
                        column,
                        value: value.into(),
                    },
                    BinaryOp::Lt | BinaryOp::LtEq => Predicate::Range {
                        column,
                        lo: f64::NEG_INFINITY.into(),
                        hi: value.into(),
                    },
                    BinaryOp::Gt | BinaryOp::GtEq => Predicate::Range {
                        column,
                        lo: value.into(),
                        hi: f64::INFINITY.into(),
                    },
                    BinaryOp::Like => Predicate::Like { column },
                    _ => return Ok(None),
                };
                Some((binding, pred))
            }
            Expr::Between {
                expr: inner,
                low,
                high,
                negated: false,
            } => {
                let Expr::Column { qualifier, name } = inner.as_ref() else {
                    return Ok(None);
                };
                let (Expr::Literal(lo), Expr::Literal(hi)) = (low.as_ref(), high.as_ref()) else {
                    return Ok(None);
                };
                let (binding, column) =
                    self.resolve_column(qualifier.as_deref(), name, bindings)?;
                let pred = Predicate::Range {
                    column,
                    lo: literal_to_f64(lo).into(),
                    hi: literal_to_f64(hi).into(),
                };
                Some((binding, pred))
            }
            Expr::InList {
                expr: inner,
                list,
                negated: false,
            } => {
                let Expr::Column { qualifier, name } = inner.as_ref() else {
                    return Ok(None);
                };
                let (binding, column) =
                    self.resolve_column(qualifier.as_deref(), name, bindings)?;
                let count = list.len() as u32;
                Some((binding, Predicate::InList { column, count }))
            }
            Expr::IsNull {
                expr: inner,
                negated,
            } => {
                let Expr::Column { qualifier, name } = inner.as_ref() else {
                    return Ok(None);
                };
                let (binding, column) =
                    self.resolve_column(qualifier.as_deref(), name, bindings)?;
                let negated = *negated;
                Some((binding, Predicate::IsNull { column, negated }))
            }
            Expr::Binary {
                left,
                op: BinaryOp::Or,
                right,
            } => {
                // Only a single-table OR if both sides hit the same binding.
                let l = self.try_single_table(left, bindings)?;
                let r = self.try_single_table(right, bindings)?;
                match (l, r) {
                    (Some((lb, lp)), Some((rb, rp))) if lb == rb => {
                        Some((lb, Predicate::Or(vec![lp, rp])))
                    }
                    _ => None,
                }
            }
            _ => None,
        })
    }
}

/// Literal → numeric domain used by statistics (strings hash).
fn literal_to_f64(lit: &Literal) -> f64 {
    match lit {
        Literal::Number(n) => *n,
        Literal::String(s) => {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            (h.finish() % 1_000_000) as f64
        }
        Literal::Null => 0.0,
    }
}

/// Flip a comparison when the literal was on the left (`5 < col` ⇒ `col > 5`).
fn flip_comparison(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// Default selectivity guesses for unclassifiable predicates.
fn default_selectivity(expr: &Expr) -> f64 {
    match expr {
        Expr::Binary {
            op: BinaryOp::Eq, ..
        } => 0.05,
        Expr::Binary { op, .. } if op.is_comparison() => 0.3,
        _ => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use throttledb_catalog::{sales_schema, tpch_schema, SalesScale};
    use throttledb_sqlparse::parse;

    fn bind(sql: &str) -> Result<BoundQuery, OptimizerError> {
        let cat = tpch_schema(1.0);
        let stmt = parse(sql).expect("parses");
        Binder::new(&cat).bind(&stmt)
    }

    /// The bound operators, in order.
    fn op_names(bound: &BoundQuery) -> Vec<&'static str> {
        let name = |e: &BoundExpr| match e.op {
            MemoOp::Join { .. } => "Join",
            MemoOp::Plain(id) => match bound.names.plain(id) {
                LogicalOp::Get { .. } => "Get",
                LogicalOp::Filter { .. } => "Filter",
                LogicalOp::Aggregate { .. } => "Aggregate",
                LogicalOp::Project { .. } => "Project",
                LogicalOp::Sort { .. } => "Sort",
                LogicalOp::Limit { .. } => "Limit",
            },
        };
        bound.exprs.iter().map(name).collect()
    }

    /// Each scan's table and pushed-down filters, in FROM-list order.
    fn scans(bound: &BoundQuery) -> Vec<(&str, &[Predicate])> {
        let plain = bound.exprs.iter().filter_map(|e| match e.op {
            MemoOp::Plain(id) => Some(bound.names.plain(id)),
            MemoOp::Join { .. } => None,
        });
        let scans = plain.filter_map(|op| match op {
            LogicalOp::Get {
                table, predicates, ..
            } => Some((table.as_str(), predicates.as_slice())),
            _ => None,
        });
        scans.collect()
    }

    /// Each join's equi-join predicates with owned names, in order.
    fn joins(bound: &BoundQuery) -> Vec<Vec<JoinPredicate>> {
        let lists = bound.exprs.iter().filter_map(|e| match &e.op {
            MemoOp::Join { preds, .. } => Some(preds.of(&bound.preds)),
            MemoOp::Plain(_) => None,
        });
        let owned = |list: &[PredRef]| {
            list.iter()
                .map(|p| bound.names.join_predicate(*p))
                .collect()
        };
        lists.map(owned).collect()
    }

    #[test]
    fn binds_single_table_scan_with_filter() {
        let bound = bind("SELECT o_orderkey FROM orders WHERE o_totalprice > 1000").unwrap();
        assert_eq!(bound.table_count(), 1);
        assert!(joins(&bound).is_empty());
        // Filter was pushed into the Get.
        assert_eq!(scans(&bound)[0].1.len(), 1);
    }

    #[test]
    fn binds_explicit_join_with_equi_predicate() {
        let bound =
            bind("SELECT o.o_orderkey FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey")
                .unwrap();
        assert_eq!(bound.table_count(), 2);
        let expected = JoinPredicate {
            left: ColumnRef::new("o", "orders", "o_custkey"),
            right: ColumnRef::new("c", "customer", "c_custkey"),
        };
        assert_eq!(joins(&bound), vec![vec![expected]]);
    }

    #[test]
    fn binds_implicit_comma_join_from_where() {
        let bound = bind(
            "SELECT o.o_orderkey FROM orders o, customer c \
             WHERE o.o_custkey = c.c_custkey AND c.c_mktsegment = 'BUILDING'",
        )
        .unwrap();
        assert_eq!(joins(&bound).len(), 1);
        // The segment filter should be pushed to customer's Get.
        let customer = scans(&bound).into_iter().find(|(t, _)| *t == "customer");
        assert_eq!(customer.unwrap().1.len(), 1);
    }

    #[test]
    fn join_predicates_are_oriented_toward_the_new_table() {
        // Written either way round, the predicate reads accumulated input =
        // new table, and a mirrored repeat interns to the same predicate.
        let forward = "SELECT COUNT(*) FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey";
        let backward = "SELECT COUNT(*) FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey";
        let (forward, backward) = (bind(forward).unwrap(), bind(backward).unwrap());
        assert_eq!(joins(&forward), joins(&backward));
        let both = bind(
            "SELECT COUNT(*) FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey \
             WHERE c.c_custkey = o.o_custkey",
        )
        .unwrap();
        assert_eq!(both.preds.len(), 2);
        assert_eq!(both.preds[0], both.preds[1]);
        assert_eq!(joins(&both)[0][0], joins(&forward)[0][0]);
    }

    #[test]
    fn bound_exprs_follow_the_memo_insertion_order() {
        let bound = bind(
            "SELECT COUNT(*) FROM lineitem l \
             JOIN orders o ON l.l_orderkey = o.o_orderkey \
             JOIN customer c ON o.o_custkey = c.c_custkey",
        )
        .unwrap();
        let ops = op_names(&bound);
        let spine = ["Get", "Get", "Join", "Get", "Join", "Aggregate", "Project"];
        assert_eq!(ops, spine);
        let children: Vec<_> = bound.exprs.iter().map(|e| e.children).collect();
        let (none, one, two) = (None, Some(1), Some(2));
        let expected = [
            [none, none],
            [none, none],
            [Some(0), one],
            [none, none],
            [two, Some(3)],
            [Some(4), none],
            [Some(5), none],
        ];
        assert_eq!(children, expected);
        let read: Vec<_> = bound.exprs.iter().map(|e| e.scans).collect();
        let expected = [Some(0), Some(1), None, Some(2), None, None, None];
        assert_eq!(read, expected);
    }

    #[test]
    fn duplicate_exposed_names_are_rejected() {
        assert_eq!(
            bind("SELECT COUNT(*) FROM orders, orders").unwrap_err(),
            OptimizerError::DuplicateBinding("orders".into())
        );
        assert_eq!(
            bind("SELECT COUNT(*) FROM orders o JOIN customer o ON o.o_custkey = o.o_custkey")
                .unwrap_err(),
            OptimizerError::DuplicateBinding("o".into())
        );
        // Aliases make a self-join legal.
        assert!(bind("SELECT COUNT(*) FROM orders a, orders b").is_ok());
    }

    #[test]
    fn unknown_table_is_an_error() {
        assert!(matches!(
            bind("SELECT a FROM no_such_table"),
            Err(OptimizerError::UnknownTable(_))
        ));
    }

    #[test]
    fn unknown_column_is_an_error() {
        assert!(matches!(
            bind("SELECT o_orderkey FROM orders WHERE bogus_column = 1"),
            Err(OptimizerError::UnknownColumn(_))
        ));
    }

    #[test]
    fn unqualified_ambiguous_column_is_an_error() {
        // `country` exists in both dim_region and dim_supplier in the SALES schema.
        let cat = sales_schema(SalesScale::tiny());
        let stmt =
            parse("SELECT region_name FROM dim_region, dim_supplier WHERE country = 'US'").unwrap();
        assert!(matches!(
            Binder::new(&cat).bind(&stmt),
            Err(OptimizerError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn aggregation_and_order_produce_wrapper_operators() {
        let bound = bind(
            "SELECT c.c_mktsegment, SUM(o.o_totalprice) AS t FROM orders o \
             JOIN customer c ON o.o_custkey = c.c_custkey \
             GROUP BY c.c_mktsegment HAVING SUM(o.o_totalprice) > 5 \
             ORDER BY t DESC LIMIT 10",
        )
        .unwrap();
        // HAVING shows up as a Filter above the Aggregate.
        let wrappers = ["Aggregate", "Filter", "Project", "Sort", "Limit"];
        assert_eq!(op_names(&bound)[3..], wrappers);
    }

    #[test]
    fn sales_query_with_many_joins_binds() {
        let cat = sales_schema(SalesScale::tiny());
        let sql = "SELECT d.calendar_year, SUM(f.net_amount) AS total \
                   FROM fact_sales f \
                   JOIN dim_date d ON f.date_id = d.date_key \
                   JOIN dim_store s ON f.store_id = s.store_key \
                   JOIN dim_product p ON f.product_id = p.product_key \
                   JOIN dim_customer c ON f.customer_id = c.customer_key \
                   JOIN dim_region r ON s.region_id = r.region_key \
                   WHERE d.calendar_year BETWEEN 3 AND 7 AND p.category_id IN (1, 2, 3) \
                   GROUP BY d.calendar_year";
        let stmt = parse(sql).unwrap();
        let bound = Binder::new(&cat).bind(&stmt).unwrap();
        assert_eq!(bound.table_count(), 6);
        assert_eq!(joins(&bound).len(), 5);
        assert!(joins(&bound).iter().all(|preds| preds.len() == 1));
    }

    #[test]
    fn between_and_in_become_typed_predicates() {
        let bound = bind(
            "SELECT o_orderkey FROM orders WHERE o_totalprice BETWEEN 10 AND 20 \
             AND o_orderstatus IN ('a', 'b')",
        )
        .unwrap();
        let kinds: Vec<&str> = scans(&bound)[0]
            .1
            .iter()
            .map(|pred| match pred {
                Predicate::Range { .. } => "range",
                Predicate::InList { .. } => "in",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["range", "in"]);
    }

    #[test]
    fn literal_on_left_side_is_flipped() {
        let bound = bind("SELECT o_orderkey FROM orders WHERE 1000 < o_totalprice").unwrap();
        let lo = scans(&bound)[0].1.iter().find_map(|pred| match pred {
            Predicate::Range { lo, .. } => Some(lo.0),
            _ => None,
        });
        assert_eq!(lo, Some(1000.0));
    }
}
