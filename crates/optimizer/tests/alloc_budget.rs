//! Allocator-call budgets for the compile path: counts, not times, so they
//! are exact and the same on every machine.
//!
//! * Exploring a big memo must not allocate per alternative: compiling
//!   SALES q01 (≈36 k memo expressions) may make at most 4 allocator calls
//!   per memo expression. The string-carrying memo this replaced made ≈76.
//! * The one-table path must not pay for the per-compilation tables that
//!   make the big path cheap: the trivial-stage OLTP point query may make
//!   no more calls than that memo did (156).
//! * The front end folds names once: lexing, parsing and optimizing each
//!   OLTP template stays within a budget set below the count it had while
//!   every keyword match, token and catalog lookup copied its name.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use throttledb_catalog::{sales_schema, SalesScale};
use throttledb_optimizer::{OptimizationStage, Optimizer};
use throttledb_sqlparse::{parse, Lexer, Parser};
use throttledb_workload::{oltp_templates, sales_templates};

/// Allocator calls the replaced memo made for `oltp_point_sale`.
const POINT_QUERY_CALLS_BEFORE: u64 = 156;

/// Lex + parse + optimize allocator calls per OLTP template, in
/// `oltp_templates()` order: `(template, calls while names were copied,
/// budget)`.
const FRONT_END_BUDGETS: [(&str, u64, u64); 4] = [
    ("oltp_point_sale", 104, 40),
    ("oltp_customer_lookup", 64, 40),
    ("oltp_store_join", 127, 72),
    ("diag_count_recent", 105, 40),
];

thread_local! {
    // Const-initialized and without destructors, so touching them from
    // inside the allocator cannot itself allocate.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Counts the calls that acquire or resize memory on a thread that asked.
struct CountingAlloc;

fn count() {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the blocks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls this thread makes while running `f`.
fn calls_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, CALLS.with(Cell::get))
}

#[test]
fn big_memo_allocates_at_most_four_times_per_expression() {
    let catalog = sales_schema(SalesScale::paper());
    let q01 = &sales_templates()[0];
    let stmt = parse(&q01.sql).expect("templates parse");
    let optimizer = Optimizer::new(&catalog);
    let (outcome, calls) = calls_during(|| optimizer.optimize(&stmt));
    let exprs = outcome.expect("templates compile").stats.memo_exprs as u64;
    assert!(exprs > 30_000, "{} is the big-memo case", q01.name);
    assert!(
        calls <= 4 * exprs,
        "{}: {calls} allocator calls for {exprs} memo expressions ({:.2} each)",
        q01.name,
        calls as f64 / exprs as f64
    );
}

#[test]
fn point_query_allocates_no_more_than_before_the_name_table() {
    let catalog = sales_schema(SalesScale::paper());
    let point = &oltp_templates()[0];
    let stmt = parse(&point.sql).expect("templates parse");
    let optimizer = Optimizer::new(&catalog);
    let (outcome, calls) = calls_during(|| optimizer.optimize(&stmt));
    let stats = outcome.expect("templates compile").stats;
    assert_eq!(stats.stage, OptimizationStage::Trivial);
    assert!(
        calls <= POINT_QUERY_CALLS_BEFORE,
        "{}: {calls} allocator calls, the budget is {POINT_QUERY_CALLS_BEFORE}",
        point.name
    );
}

#[test]
fn oltp_front_end_stays_within_its_budget() {
    let catalog = sales_schema(SalesScale::paper());
    let optimizer = Optimizer::new(&catalog);
    let templates = oltp_templates();
    assert_eq!(templates.len(), FRONT_END_BUDGETS.len());
    for (t, &(name, before, budget)) in templates.iter().zip(&FRONT_END_BUDGETS) {
        assert_eq!(t.name, name);
        let (tokens, lex) = calls_during(|| Lexer::new(&t.sql).tokenize());
        let tokens = tokens.expect("templates lex");
        let (stmt, parse) = calls_during(|| Parser::new(tokens).parse_select_statement());
        let stmt = stmt.expect("templates parse");
        let (outcome, optimize) = calls_during(|| optimizer.optimize(&stmt));
        outcome.expect("templates compile");
        let calls = lex + parse + optimize;
        assert!(
            calls <= budget,
            "{name}: {calls} allocator calls (lex {lex}, parse {parse}, optimize {optimize}), \
             the budget is {budget} ({before} while names were copied)"
        );
    }
}
