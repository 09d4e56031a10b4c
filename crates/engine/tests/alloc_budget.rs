//! Allocator-call budget for the simulated query path: counts, not times,
//! so the bound is exact and the same on every machine.
//!
//! Submission (template choice, uniquifier key, plan-cache lookup), the
//! compile step (ladder report with dynamic thresholds) and the broker tick
//! (recalculation, per-class targets and grant budgets) must not allocate
//! at steady state. The paper machine with 20 clients and the ladder on
//! warms up for 40 simulated hours (every table and buffer grows to its
//! working size), then the next 40 hours, ≈3k queries and ≈85k events, may
//! make at most [`STEADY_STATE_BUDGET`] allocator calls in all. The path
//! this replaced made ≈180k.
//!
//! The same allocator tracks live bytes, so the heap's peak is pinned too:
//! two runs of one seed must reach the same peak, byte for byte. A
//! `RandomState` hash map on the query path breaks that — it grows and
//! rehashes at points that depend on the process's random keys.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use throttledb_engine::{Server, ServerConfig, WorkloadProfiles};
use throttledb_sim::{SimDuration, SimTime};

/// Allocator calls allowed over hours 40–80: the occasional doubling of a
/// per-slice series or a table that found a new high-water mark.
const STEADY_STATE_BUDGET: u64 = 16;

thread_local! {
    // Const-initialized and without destructors, so touching them from
    // inside the allocator cannot itself allocate.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts the calls that acquire or resize memory on a thread that asked,
/// and the bytes they leave live.
struct CountingAlloc;

fn count() {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

/// Bytes this thread allocated (positive) or freed (negative); frees of
/// blocks allocated before counting began make `LIVE` relative, not wrong.
fn track(bytes: i64) {
    if COUNTING.with(Cell::get) {
        let live = LIVE.with(|l| {
            l.set(l.get() + bytes);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the blocks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        track(layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        track(layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        track(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls this thread makes while running `f`, and the peak of
/// the bytes it holds live meanwhile.
fn calls_during<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    CALLS.with(|c| c.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, CALLS.with(Cell::get), PEAK.with(Cell::get))
}

const HOUR: u64 = 3600;

/// The paper machine with 20 clients and the ladder on, for 80 hours.
fn paper_machine() -> (ServerConfig, Arc<WorkloadProfiles>) {
    let mut config = ServerConfig::paper(20, true);
    config.duration = SimDuration::from_secs(80 * HOUR);
    config.warmup = SimDuration::ZERO;
    let profiles = Arc::new(WorkloadProfiles::characterize_sales(&config));
    (config, profiles)
}

#[test]
fn steady_state_simulation_does_not_allocate() {
    let (config, profiles) = paper_machine();
    let mut server = Server::new(config, profiles);
    server.set_active_clients(20);
    server.begin();
    server.run_until(SimTime::from_secs(40 * HOUR));
    let events_before = server.events_dispatched();
    let queries_before = server.queries_submitted();
    let ((), calls, _) = calls_during(|| server.run_until(SimTime::from_secs(80 * HOUR)));
    let events = server.events_dispatched() - events_before;
    let queries = server.queries_submitted() - queries_before;
    assert!(
        queries > 1_000,
        "the window must exercise the pipeline: {queries} queries"
    );
    assert!(
        calls <= STEADY_STATE_BUDGET,
        "{calls} allocator calls over {events} events and {queries} queries; the budget is \
         {STEADY_STATE_BUDGET}"
    );
}

#[test]
fn same_seed_runs_reach_the_same_heap_peak() {
    let (config, profiles) = paper_machine();
    // The live bytes at the end of every simulated hour, then the peak.
    let profile = || {
        let (mut live, _, peak) = calls_during(|| {
            let mut server = Server::new(config.clone(), Arc::clone(&profiles));
            server.set_active_clients(20);
            server.begin();
            let live: Vec<i64> = (1..=80)
                .map(|hour| {
                    server.run_until(SimTime::from_secs(hour * HOUR));
                    LIVE.with(Cell::get)
                })
                .collect();
            assert!(server.queries_submitted() > 2_000);
            live
        });
        live.push(peak);
        live
    };
    let first = profile();
    for run in 1..3 {
        assert_eq!(profile(), first, "run {run} of the same seed");
    }
}
