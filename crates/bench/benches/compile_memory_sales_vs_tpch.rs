//! Compile-path scoreboard: every workload template through the real
//! optimizer, recorded to `BENCH_compile.json` at the repo root.
//!
//! Per template the bench reports four things that must not be confused:
//!
//! * `ns_per_transformation` / `compile_ns` — wall-clock, best of five
//!   samples, informational (same-machine only, never gated);
//! * `alloc_calls_per_expr` — allocator calls (alloc, alloc_zeroed, realloc)
//!   during one compile divided by the memo expressions it created: what
//!   the memo's *representation* costs, an exact count;
//! * `heap_bytes_per_expr` — peak of real `allocated − freed` bytes during
//!   one compile over the same denominator;
//! * `modelled_peak_bytes` — `CompileStats::peak_memory_bytes`, the
//!   `sizes::*` model the gateway ladder and the broker see. It is two to
//!   three orders of magnitude above the real heap by design and does not
//!   move when the representation does.
//!
//! CI gates the two exact columns (`alloc_calls_per_expr`,
//! `modelled_peak_bytes`) and the heap column against
//! `crates/bench/baselines/BENCH_compile.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};
use throttledb_bench::gate::{render, Field};
use throttledb_catalog::{sales_schema, tpch_schema, Catalog, SalesScale};
use throttledb_optimizer::Optimizer;
use throttledb_sqlparse::parse;
use throttledb_workload::{oltp_templates, sales_templates, tpch_like_templates, QueryTemplate};

/// Counts allocator calls and tracks live bytes, only while `ON` — timed
/// samples run with counting off.
struct CountingAlloc;

// Statistics that publish no other data, hence `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn note(calls: u64, delta: i64) {
    if ON.load(Relaxed) {
        CALLS.fetch_add(calls, Relaxed);
        let now = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the blocks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with counting on: `(allocator calls, peak live-byte increment)`.
fn count_heap(f: impl FnOnce()) -> (u64, u64) {
    CALLS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    f();
    ON.store(false, Relaxed);
    (CALLS.load(Relaxed), PEAK.load(Relaxed).max(0) as u64)
}

struct Row {
    template: String,
    transformations: u64,
    memo_exprs: usize,
    modelled_peak_bytes: u64,
    compile_ns: f64,
    alloc_calls: u64,
    heap_peak_bytes: u64,
}

fn measure(catalog: &Catalog, template: &QueryTemplate) -> Row {
    let stmt = parse(&template.sql).expect("templates parse");
    let optimizer = Optimizer::new(catalog);
    let compile = || {
        black_box(
            optimizer
                .optimize(black_box(&stmt))
                .expect("templates compile"),
        )
    };

    let start = Instant::now();
    let stats = compile().stats;
    let warm = start.elapsed().max(Duration::from_nanos(1));

    let (alloc_calls, heap_peak_bytes) = count_heap(|| {
        compile();
    });

    // Five samples of ≥20 ms each; best per-compile time.
    let iterations = (Duration::from_millis(20).as_nanos() / warm.as_nanos()).clamp(1, 1000);
    let mut compile_ns = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iterations {
            compile();
        }
        compile_ns = compile_ns.min(start.elapsed().as_nanos() as f64 / iterations as f64);
    }

    Row {
        template: template.name.clone(),
        transformations: stats.transformations,
        memo_exprs: stats.memo_exprs,
        modelled_peak_bytes: stats.peak_memory_bytes,
        compile_ns,
        alloc_calls,
        heap_peak_bytes,
    }
}

fn main() {
    // The catalogs `WorkloadProfiles::characterize_full` compiles against.
    let sales = sales_schema(SalesScale::paper());
    let tpch = tpch_schema(30.0);
    let families: [(&Catalog, Vec<QueryTemplate>); 3] = [
        (&sales, sales_templates()),
        (&tpch, tpch_like_templates()),
        (&sales, oltp_templates()),
    ];
    let rows: Vec<Row> = families
        .iter()
        .flat_map(|(catalog, templates)| templates.iter().map(|t| measure(catalog, t)))
        .collect();

    println!(
        "{:<22} {:>8} {:>8} {:>11} {:>9} {:>10} {:>10} {:>13}",
        "template",
        "transf.",
        "exprs",
        "compile us",
        "ns/transf",
        "calls/expr",
        "heap B/expr",
        "modelled B"
    );
    let mut cells = Vec::new();
    for r in &rows {
        let exprs = r.memo_exprs.max(1) as f64;
        // Trivial-stage templates apply no rule; their wall-clock is the
        // whole compile.
        let ns_per_transformation = if r.transformations > 0 {
            Field::Fixed(r.compile_ns / r.transformations as f64, 0)
        } else {
            Field::Null
        };
        println!(
            "{:<22} {:>8} {:>8} {:>11.1} {:>9} {:>10.3} {:>10.1} {:>13}",
            r.template,
            r.transformations,
            r.memo_exprs,
            r.compile_ns / 1e3,
            ns_per_transformation.to_string(),
            r.alloc_calls as f64 / exprs,
            r.heap_peak_bytes as f64 / exprs,
            r.modelled_peak_bytes
        );
        cells.push(vec![
            ("template", Field::Text(r.template.clone())),
            ("transformations", Field::Count(r.transformations)),
            ("memo_exprs", Field::Count(r.memo_exprs as u64)),
            ("compile_ns", Field::Fixed(r.compile_ns, 0)),
            ("ns_per_transformation", ns_per_transformation),
            ("alloc_calls", Field::Count(r.alloc_calls)),
            (
                "alloc_calls_per_expr",
                Field::Fixed(r.alloc_calls as f64 / exprs, 3),
            ),
            ("heap_peak_bytes", Field::Count(r.heap_peak_bytes)),
            (
                "heap_bytes_per_expr",
                Field::Fixed(r.heap_peak_bytes as f64 / exprs, 1),
            ),
            ("modelled_peak_bytes", Field::Count(r.modelled_peak_bytes)),
        ]);
    }
    let json = render(
        &[("benchmark", Field::Text("compile".to_string()))],
        &[("cells", &cells)],
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compile.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nrecorded to {path}"),
        Err(e) => eprintln!("\ncannot record {path}: {e}"),
    }
}
