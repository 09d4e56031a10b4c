//! Event-queue microbenchmark: `EventQueue` (the banded queue the engine
//! runs on) against `HeapEventQueue` (the reference binary heap).
//!
//! Two patterns, each at 1k / 100k / 1M scheduled events:
//!
//! * **fill_drain** — schedule every event, then pop until empty (the
//!   shape of a sweep's final drain);
//! * **churn** — a closed-loop steady state: pop one event, schedule its
//!   successor at `popped.at + think-time`, repeat (the shape of the
//!   engine's event loop, with the pending-set size held at N).
//!
//! Besides the criterion groups, running this bench (`cargo bench -p
//! throttledb-bench --bench event_queue`) rewrites `BENCH_event_queue.json`
//! at the repo root with events/sec for both implementations and the
//! queue/heap speedup. The built-in scenarios peak at a few hundred pending
//! events (`docs/EXPERIMENTS.md` §9 has the table); the 100k and 1M rows
//! show what the queue does far past that.

use criterion::{black_box, Criterion};
use std::time::Instant;
use throttledb_bench::gate::{render, Field};
use throttledb_sim::{EventQueue, HeapEventQueue, SimDuration, SimRng, SimTime};

/// Virtual horizon the fill pattern spreads its events over: ~30 s, the
/// density a "millions of users" run pushes through the queue.
const FILL_HORIZON_US: u64 = 30_000_000;

/// Think-time-like delays for the churn pattern: exponential with a 10 s
/// mean, so most successors land within a few band widths and the tail
/// parks minutes out, like the engine's own mix.
fn churn_delay(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_secs_f64(rng.exponential(10.0))
}

fn fill_times(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.uniform_u64(0, FILL_HORIZON_US))
        .collect()
}

fn fill_drain_queue(times: &[u64]) -> u64 {
    let mut q = EventQueue::new();
    for (i, &t) in times.iter().enumerate() {
        q.schedule(SimTime::from_micros(t), i as u64);
    }
    let mut popped = 0;
    while let Some(e) = q.pop() {
        black_box(e.seq);
        popped += 1;
    }
    popped
}

fn fill_drain_heap(times: &[u64]) -> u64 {
    let mut q = HeapEventQueue::new();
    for (i, &t) in times.iter().enumerate() {
        q.schedule(SimTime::from_micros(t), i as u64);
    }
    let mut popped = 0;
    while let Some(e) = q.pop() {
        black_box(e.seq);
        popped += 1;
    }
    popped
}

/// Closed-loop churn over a pending set of `n` events: `rounds` pops, each
/// immediately replaced. Returns the number of dispatched events.
fn churn_queue(n: usize, rounds: usize, seed: u64) -> u64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut q = EventQueue::new();
    for i in 0..n {
        let at = SimTime::ZERO + churn_delay(&mut rng);
        q.schedule(at, i as u64);
    }
    for _ in 0..rounds {
        let e = q.pop().expect("closed loop never drains");
        q.schedule(e.at + churn_delay(&mut rng), e.payload);
    }
    q.dispatched()
}

fn churn_heap(n: usize, rounds: usize, seed: u64) -> u64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut q = HeapEventQueue::new();
    let mut dispatched = 0;
    for i in 0..n {
        let at = SimTime::ZERO + churn_delay(&mut rng);
        q.schedule(at, i as u64);
    }
    for _ in 0..rounds {
        let e = q.pop().expect("closed loop never drains");
        dispatched += 1;
        q.schedule(e.at + churn_delay(&mut rng), e.payload);
    }
    dispatched
}

/// Best-of-`runs` events/sec for `f`, which reports how many events it
/// dispatched.
fn measure(runs: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..runs {
        let start = Instant::now();
        let events = f();
        let eps = events as f64 / start.elapsed().as_secs_f64().max(1e-12);
        best = best.max(eps);
    }
    best
}

struct Row {
    pattern: &'static str,
    events: usize,
    heap_eps: f64,
    queue_eps: f64,
}

fn main() {
    // Criterion groups for the small/medium sizes (the 1M case is measured
    // directly below; a 20-sample criterion pass over it is needlessly slow).
    let mut c = Criterion::default();
    for &n in &[1_000usize, 100_000] {
        let times = fill_times(n, 7);
        let mut group = c.benchmark_group(format!("event_queue/fill_drain_{n}"));
        group.sample_size(10);
        group.bench_function("heap", |b| b.iter(|| fill_drain_heap(black_box(&times))));
        group.bench_function("queue", |b| b.iter(|| fill_drain_queue(black_box(&times))));
        group.finish();
    }

    // The measured record: both patterns at 1k / 100k / 1M. A single run at
    // the small sizes lasts ~100 µs, well inside scheduler/turbo noise, so
    // best-of over many runs is what makes the recorded ratio meaningful.
    let best_of = |n: usize| match n {
        n if n >= 1_000_000 => 3,
        n if n >= 100_000 => 5,
        _ => 100,
    };
    let mut rows = Vec::new();
    for &n in &[1_000usize, 100_000, 1_000_000] {
        let times = fill_times(n, 7);
        let runs = best_of(n);
        rows.push(Row {
            pattern: "fill_drain",
            events: n,
            heap_eps: measure(runs, || fill_drain_heap(&times)),
            queue_eps: measure(runs, || fill_drain_queue(&times)),
        });
    }
    for &n in &[1_000usize, 100_000, 1_000_000] {
        // Dispatch 2N events against a pending set held at N.
        let rounds = n * 2;
        let runs = best_of(n);
        rows.push(Row {
            pattern: "churn",
            events: n,
            heap_eps: measure(runs, || churn_heap(n, rounds, 11)),
            queue_eps: measure(runs, || churn_queue(n, rounds, 11)),
        });
    }

    println!(
        "\n{:<12} {:>10} {:>16} {:>16} {:>9}",
        "pattern", "events", "heap ev/s", "queue ev/s", "speedup"
    );
    let mut results = Vec::new();
    for r in &rows {
        let speedup = r.queue_eps / r.heap_eps.max(1e-12);
        println!(
            "{:<12} {:>10} {:>16.0} {:>16.0} {:>8.2}x",
            r.pattern, r.events, r.heap_eps, r.queue_eps, speedup
        );
        results.push(vec![
            ("pattern", Field::Text(r.pattern.to_string())),
            ("events", Field::Count(r.events as u64)),
            ("heap_events_per_sec", Field::Fixed(r.heap_eps, 0)),
            ("queue_events_per_sec", Field::Fixed(r.queue_eps, 0)),
            ("speedup", Field::Fixed(speedup, 2)),
        ]);
    }
    let json = render(
        &[("benchmark", Field::Text("event_queue".to_string()))],
        &[("results", &results)],
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_event_queue.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nrecorded to {path}"),
        Err(e) => eprintln!("\ncannot record {path}: {e}"),
    }
}
