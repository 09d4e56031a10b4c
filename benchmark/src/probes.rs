//! Probes: each layer's public API driven alone, in nanoseconds per
//! operation, at the population sizes a simulated run reported.
//!
//! A probe is a fixed amount of work repeated [`REPEATS`] times; the
//! reported figure is the median repeat. They are per-layer numbers only —
//! nothing end-to-end depends on them — and they feed the `est_share.*`
//! ledger: probe cost × the run's own counts ÷ the run's wall time.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;
use throttledb_bufferpool::HitRateModel;
use throttledb_core::{GatewayLadder, LadderDecision, ThrottleConfig};
use throttledb_executor::GrantManager;
use throttledb_governor::{ResourcePool, WaitQueue};
use throttledb_membroker::{BrokerConfig, MemoryBroker, SubcomponentKind};
use throttledb_plancache::PlanCache;
use throttledb_sim::{
    ArrivalProcess, EventQueue, Histogram, SimDuration, SimRng, SimTime, TimeSeries,
};

const REPEATS: usize = 5;
const MB: u64 = 1 << 20;

/// Population sizes the probes run at.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Concurrent compilations / queued waiters (a run's client count).
    pub concurrent: u64,
    /// Pending events in the queue (a run's `peak_queue_depth`).
    pub queue_depth: u64,
    /// Ladder reports per compilation (a run's `compile_steps`).
    pub compile_steps: u64,
}

impl Sizes {
    /// Sizes for workloads that run no simulation: the `sim_pipeline`
    /// shape.
    pub const DEFAULT: Sizes = Sizes {
        concurrent: 20,
        queue_depth: 60,
        compile_steps: 16,
    };
}

/// Nanoseconds per operation of every probe, keyed by metric name.
pub fn run_all(sizes: Sizes) -> Vec<(&'static str, f64)> {
    vec![
        ("core.ladder.task.ns_per_task", ladder_task(sizes)),
        ("governor.wait_queue.push_pop.ns_per_op", wait_queue(sizes)),
        (
            "governor.pool.request_release.ns_per_op",
            resource_pool(sizes),
        ),
        ("membroker.recalculate.ns_per_call", broker_recalculate()),
        (
            "executor.grant.request_release.ns_per_op",
            grant_manager(sizes),
        ),
        ("bufferpool.model.io_seconds.ns_per_op", buffer_model()),
        ("plancache.miss_insert.ns_per_op", plan_cache()),
        ("sim.stats.record.ns_per_op", stats_record()),
        ("sim.event_queue.schedule_pop.ns_per_op", queue_churn(sizes)),
        ("sim.event_queue.cancel.ns_per_op", queue_cancel(sizes)),
        ("sim.arrival.next_gap.ns_per_op", arrival_gap()),
    ]
}

/// A fixed, memory-bound piece of work from the benchmark's own files — a
/// 300 k-entry hash map built and walked — in host milliseconds. Timed
/// runs take it before every round: this machine's speed on such code
/// drifts by ±10 % over minutes, which no statistic inside a run can see,
/// and a run whose reference is slow is a run that was slowed.
pub fn machine_reference_ms() -> f64 {
    let start = Instant::now();
    let mut map = std::collections::HashMap::new();
    let mut x = 88_172_645_463_325_252u64;
    for i in 0..300_000u64 {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, i);
    }
    black_box(map.iter().fold(0, |acc, (k, v)| acc ^ k ^ v));
    start.elapsed().as_secs_f64() * 1e3
}

/// Median over the repeats of `work()`'s host nanoseconds ÷ `ops`.
fn ns_per_op(ops: u64, mut work: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// One compilation's life on the ladder — begin, `compile_steps` memory
/// reports climbing to 200 MB, finish — with `concurrent` compilations in
/// flight, so gateways fill as they do in a run. A task told to wait
/// times out at once and releases what it held.
fn ladder_task(sizes: Sizes) -> f64 {
    const TASKS: u64 = 2_000;
    ns_per_op(TASKS, || {
        let mut ladder = GatewayLadder::new(ThrottleConfig::paper_machine());
        let mut live = std::collections::VecDeque::new();
        let mut admitted = Vec::new();
        let mut clock = 0u64;
        for _ in 0..TASKS {
            if live.len() as u64 >= sizes.concurrent {
                let done = live.pop_front().expect("non-empty");
                ladder.finish_task_into(done, SimTime::from_micros(clock), &mut admitted);
            }
            let task = ladder.begin_task();
            let mut waiting = false;
            for step in 1..=sizes.compile_steps {
                clock += 1;
                let bytes = 200 * MB * step / sizes.compile_steps;
                let decision = ladder.report_memory(task, bytes, SimTime::from_micros(clock));
                if matches!(decision, LadderDecision::Wait { .. }) {
                    waiting = true;
                    break;
                }
            }
            if waiting {
                let now = SimTime::from_micros(clock);
                ladder.timeout_task(task, now);
                ladder.finish_task_into(task, now, &mut admitted);
            } else {
                live.push_back(task);
            }
        }
        // Nothing ever stays queued, so no release admits anyone.
        assert!(admitted.is_empty());
        black_box(ladder.stats().compilations_started);
    })
}

fn wait_queue(sizes: Sizes) -> f64 {
    const OPS: u64 = 200_000;
    ns_per_op(OPS, || {
        let mut queue = WaitQueue::new();
        for i in 0..sizes.concurrent {
            queue.push(i, SimTime::from_micros(i), SimTime::MAX);
        }
        for i in 0..OPS {
            let front = queue.pop_front().expect("held at `concurrent` waiters");
            queue.push(front.payload, SimTime::from_micros(i), SimTime::MAX);
        }
        black_box(queue.len());
    })
}

fn resource_pool(sizes: Sizes) -> f64 {
    const OPS: u64 = 100_000;
    ns_per_op(OPS, || {
        // Half the population fits, so every release admits a queued
        // request — the grant pool's steady state under load.
        let mut pool: ResourcePool<u64> =
            ResourcePool::new("probe", sizes.concurrent / 2 * MB, 0.25);
        let mut admitted = Vec::new();
        for tag in 0..sizes.concurrent {
            pool.request(tag, MB, SimTime::ZERO, SimTime::MAX);
        }
        for i in 0..OPS {
            let oldest = i;
            admitted.clear();
            pool.release_into(oldest, SimTime::from_micros(i), &mut admitted);
            pool.request(
                i + sizes.concurrent,
                MB,
                SimTime::from_micros(i),
                SimTime::MAX,
            );
        }
        black_box(pool.in_use());
    })
}

fn broker_recalculate() -> f64 {
    const CALLS: u64 = 20_000;
    ns_per_op(CALLS, || {
        // The engine's three clerks, loaded past the brokered total so the
        // constrained path (targets, verdicts) runs.
        let broker = MemoryBroker::new(BrokerConfig::paper_machine());
        let compile = broker.register(SubcomponentKind::Compilation);
        let exec = broker.register(SubcomponentKind::Execution);
        let cache = broker.register(SubcomponentKind::PlanCache);
        compile.allocate(1_200 * MB);
        exec.allocate(2_400 * MB);
        cache.allocate(256 * MB);
        for tick in 0..CALLS {
            compile.allocate(MB);
            black_box(broker.recalculate(SimTime::from_secs(5 * tick)));
            compile.free(MB);
        }
    })
}

fn grant_manager(sizes: Sizes) -> f64 {
    const OPS: u64 = 100_000;
    ns_per_op(OPS, || {
        let grants = GrantManager::new(sizes.concurrent / 2 * 512 * MB, None);
        let mut held = std::collections::VecDeque::new();
        let mut admitted = Vec::new();
        for _ in 0..sizes.concurrent {
            held.push_back(grants.request_at(512 * MB, SimTime::ZERO, SimTime::MAX).0);
        }
        for i in 0..OPS {
            let oldest = held.pop_front().expect("held at `concurrent` requests");
            admitted.clear();
            grants.release_at_into(oldest, SimTime::from_micros(i), &mut admitted);
            held.push_back(
                grants
                    .request_at(512 * MB, SimTime::from_micros(i), SimTime::MAX)
                    .0,
            );
        }
        black_box(grants.in_use_bytes());
    })
}

fn buffer_model() -> f64 {
    const OPS: u64 = 1_000_000;
    ns_per_op(OPS, || {
        let model = HitRateModel::default();
        let mut total = 0.0;
        for i in 0..OPS {
            total += model.io_seconds((1 + i % 64) << 30, (1 + i % 3) << 30, 8 << 30, 160.0e6);
        }
        black_box(total);
    })
}

fn plan_cache() -> f64 {
    const OPS: u64 = 3_000;
    ns_per_op(OPS, || {
        // A run's worth of uniquified (never repeating) queries against the
        // engine's 256 MB cache: every lookup misses, every insert fits.
        let cache: PlanCache<u64, u64> = PlanCache::new(256 * MB, None);
        for key in 0..OPS {
            if cache.get(&key).is_none() {
                cache.insert(key, key, 64 << 10, 30.0);
            }
        }
        black_box(cache.len());
    })
}

fn stats_record() -> f64 {
    const OPS: u64 = 1_000_000;
    ns_per_op(OPS, || {
        let mut series = TimeSeries::new("probe", SimDuration::from_secs(3600));
        let mut histogram = Histogram::new("probe");
        for i in 0..OPS {
            series.record(SimTime::from_secs(i % (40 * 3600)));
            histogram.record(i * 37 % 1_000_000);
        }
        black_box((series.total(), histogram.count()));
    })
}

/// Think-time-like delays: exponential with a 10 s mean, so most successors
/// land near and the tail exercises the far structure, like the engine's
/// own mix.
fn delay(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_secs_f64(rng.exponential(10.0))
}

fn queue_churn(sizes: Sizes) -> f64 {
    const OPS: u64 = 500_000;
    ns_per_op(OPS, || {
        let mut rng = SimRng::seed_from_u64(2007);
        let mut queue = EventQueue::new();
        for i in 0..sizes.queue_depth {
            queue.schedule(SimTime::ZERO + delay(&mut rng), i);
        }
        for _ in 0..OPS {
            let event = queue.pop().expect("closed loop never drains");
            queue.schedule(event.at + delay(&mut rng), event.payload);
        }
        black_box(queue.dispatched());
    })
}

fn queue_cancel(sizes: Sizes) -> f64 {
    const OPS: u64 = 200_000;
    ns_per_op(OPS, || {
        let mut rng = SimRng::seed_from_u64(2007);
        let mut queue = EventQueue::new();
        for i in 0..sizes.queue_depth {
            queue.schedule(SimTime::ZERO + delay(&mut rng), i);
        }
        // The engine's timeout pattern: schedule a deadline, cancel it when
        // the wait ends first.
        let mut cancelled = 0u64;
        for i in 0..OPS {
            let id = queue.schedule(SimTime::ZERO + delay(&mut rng), i);
            cancelled += u64::from(queue.cancel(id));
        }
        assert_eq!(cancelled, OPS, "every fresh event cancels");
    })
}

fn arrival_gap() -> f64 {
    const OPS: u64 = 1_000_000;
    ns_per_op(OPS, || {
        let mut rng = SimRng::seed_from_u64(2007);
        let mut sampler = ArrivalProcess::Poisson {
            rate_per_sec: 4_500.0,
        }
        .sampler();
        let mut now = SimTime::ZERO;
        for _ in 0..OPS {
            now += sampler.next_gap(&mut rng, now);
        }
        black_box(now);
    })
}
