//! A real (blocking) deployment of the gateway ladder for multi-threaded
//! embedders.
//!
//! [`ThreadedThrottle`] wraps the [`GatewayLadder`] state machine in a mutex
//! plus condition variable and exposes a
//! [`throttledb_optimizer::MemoryGovernor`] per compilation.
//! From the optimizer's point of view nothing changes — "the only perceptible
//! difference ... is that the thread sometimes receives less time for its
//! work" — while the ladder decides which compilations proceed.

use crate::config::ThrottleConfig;
use crate::ladder::{GatewayLadder, LadderDecision, TaskId};
use crate::stats::ThrottleStats;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};
use throttledb_membroker::{MemoryBroker, SubcomponentKind};
use throttledb_optimizer::{GovernorDirective, MemoryGovernor};
use throttledb_sim::SimTime;

/// A thread-safe, blocking wrapper around the gateway ladder.
#[derive(Debug)]
pub struct ThreadedThrottle {
    ladder: Mutex<GatewayLadder>,
    resumed: Condvar,
    broker: Arc<MemoryBroker>,
    epoch: Instant,
}

impl ThreadedThrottle {
    /// Create a throttle over `broker` with the given configuration.
    pub fn new(config: ThrottleConfig, broker: Arc<MemoryBroker>) -> Self {
        ThreadedThrottle {
            ladder: Mutex::new(GatewayLadder::new(config)),
            resumed: Condvar::new(),
            broker,
            epoch: Instant::now(),
        }
    }

    /// Wall-clock time since the throttle was created, as virtual time for
    /// the ladder's statistics.
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// The broker's current compilation target, when it constrains memory
    /// at all. Reads the broker only; never called with the ladder locked.
    fn broker_target(&self) -> Option<u64> {
        self.broker
            .pressure()
            .is_constrained()
            .then(|| self.broker.target_for_kind(SubcomponentKind::Compilation))
    }

    /// Refresh the dynamic-threshold input from the broker. Embedders call
    /// this from a housekeeping thread; the governor applies the same
    /// refresh inside every charge.
    pub fn refresh_target(&self) {
        let target = self.broker_target();
        self.ladder.lock().set_compilation_target(target);
    }

    /// A snapshot of the throttle statistics.
    pub fn stats(&self) -> ThrottleStats {
        self.ladder.lock().stats().clone()
    }

    /// Number of live compilations.
    pub fn active_compilations(&self) -> usize {
        self.ladder.lock().active_tasks()
    }

    /// Create the governor for one compilation. Hand the result to
    /// [`Optimizer::optimize_with_governor`](throttledb_optimizer::Optimizer::optimize_with_governor).
    pub fn governor(self: &Arc<Self>) -> Box<dyn MemoryGovernor + Send> {
        let task = self.ladder.lock().begin_task();
        Box::new(ThrottledGovernor {
            throttle: Arc::clone(self),
            task,
            finished: false,
        })
    }
}

/// Per-compilation governor: blocks the compiling thread at gateways.
struct ThrottledGovernor {
    throttle: Arc<ThreadedThrottle>,
    task: TaskId,
    finished: bool,
}

impl MemoryGovernor for ThrottledGovernor {
    fn on_allocation(&mut self, used_bytes: u64, _peak_bytes: u64) -> GovernorDirective {
        // One ladder acquisition per charge: the target is read from the
        // broker first and installed under the same lock as the report.
        let target = self.throttle.broker_target();
        let mut ladder = self.throttle.ladder.lock();
        ladder.set_compilation_target(target);
        loop {
            let now = self.throttle.now();
            match ladder.report_memory(self.task, used_bytes, now) {
                LadderDecision::Proceed => return GovernorDirective::Continue,
                LadderDecision::FinishBestEffort => return GovernorDirective::FinishWithBestPlan,
                LadderDecision::Wait { timeout, .. } => {
                    let wait = Duration::from_micros(timeout.as_micros());
                    let timed_out = self
                        .throttle
                        .resumed
                        .wait_for(&mut ladder, wait)
                        .timed_out();
                    if timed_out {
                        // Re-check: we may have been admitted right at the
                        // deadline; only abort if we are genuinely still blocked.
                        let now = self.throttle.now();
                        match ladder.report_memory(self.task, used_bytes, now) {
                            LadderDecision::Proceed => return GovernorDirective::Continue,
                            LadderDecision::FinishBestEffort => {
                                return GovernorDirective::FinishWithBestPlan
                            }
                            LadderDecision::Wait { .. } => {
                                ladder.timeout_task(self.task, now);
                                return GovernorDirective::Abort;
                            }
                        }
                    }
                    // Resumed (or spurious wakeup): loop and re-report.
                }
            }
        }
    }

    fn on_completion(&mut self, _peak_bytes: u64) {
        if self.finished {
            return;
        }
        self.finished = true;
        let now = self.throttle.now();
        let resumed = self.throttle.ladder.lock().finish_task(self.task, now);
        if !resumed.is_empty() {
            self.throttle.resumed.notify_all();
        } else {
            // Still notify: waiters re-check their state on wakeup and this
            // keeps the wakeup logic simple and obviously live.
            self.throttle.resumed.notify_all();
        }
    }
}

impl Drop for ThrottledGovernor {
    fn drop(&mut self) {
        // Safety net: never leak gateway holds if the optimizer unwound
        // without calling on_completion.
        self.on_completion(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use throttledb_membroker::BrokerConfig;

    const MB: u64 = 1 << 20;

    fn throttle(cpus: u32) -> (Arc<ThreadedThrottle>, Arc<MemoryBroker>) {
        let broker = MemoryBroker::new(BrokerConfig::paper_machine());
        let t = Arc::new(ThreadedThrottle::new(
            ThrottleConfig::for_cpus(cpus),
            broker.clone(),
        ));
        (t, broker)
    }

    #[test]
    fn small_compilations_run_unimpeded() {
        let (t, _) = throttle(1);
        let mut g = t.governor();
        assert_eq!(g.on_allocation(MB, MB), GovernorDirective::Continue);
        g.on_completion(MB);
        let stats = t.stats();
        assert_eq!(stats.compilations_started, 1);
        assert_eq!(stats.compilations_finished, 1);
        assert_eq!(stats.total_waits(), 0);
    }

    #[test]
    fn concurrent_medium_compilations_serialize_on_the_medium_gateway() {
        // 1 CPU -> medium gateway capacity 1. Two threads that both cross the
        // medium threshold can never be inside the "held" section together.
        let (t, _) = throttle(1);
        let concurrently_inside = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));

        let mut handles = Vec::new();
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let inside = Arc::clone(&concurrently_inside);
            let max_seen = Arc::clone(&max_seen);
            handles.push(thread::spawn(move || {
                let mut g = t.governor();
                // Cross the small gateway, then the medium one.
                assert_eq!(g.on_allocation(5 * MB, 5 * MB), GovernorDirective::Continue);
                let d = g.on_allocation(30 * MB, 30 * MB);
                assert_eq!(d, GovernorDirective::Continue);
                let now_inside = inside.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now_inside, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(30));
                inside.fetch_sub(1, Ordering::SeqCst);
                g.on_completion(30 * MB);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            1,
            "medium gateway (capacity 1) must serialize the two compilations"
        );
        let stats = t.stats();
        assert!(
            stats.waits[1] >= 1,
            "one of the two must have waited: {stats:?}"
        );
        assert_eq!(stats.timeouts, 0);
    }

    #[test]
    fn blocked_compilation_times_out_and_aborts() {
        let (t, _) = throttle(1);
        // Shorten the timeouts so the test is fast (keep them non-decreasing).
        {
            let mut ladder = t.ladder.lock();
            let mut cfg = ladder.config().clone();
            cfg.monitors[0].timeout = throttledb_sim::SimDuration::from_millis(50);
            cfg.monitors[1].timeout = throttledb_sim::SimDuration::from_millis(50);
            *ladder = GatewayLadder::new(cfg);
        }
        // First governor holds the medium gateway and never releases during
        // the test window.
        let g1 = {
            let mut g = t.governor();
            assert_eq!(
                g.on_allocation(30 * MB, 30 * MB),
                GovernorDirective::Continue
            );
            g
        };
        // Second governor must give up after the 50 ms timeout.
        let t2 = Arc::clone(&t);
        let handle = thread::spawn(move || {
            let mut g = t2.governor();
            let d = g.on_allocation(30 * MB, 30 * MB);
            g.on_completion(30 * MB);
            d
        });
        let directive = handle.join().unwrap();
        assert_eq!(directive, GovernorDirective::Abort);
        assert_eq!(t.stats().timeouts, 1);
        drop(g1);
        assert_eq!(t.active_compilations(), 0, "drop releases every gateway");
    }

    #[test]
    fn finishing_a_holder_unblocks_the_waiter() {
        let (t, _) = throttle(1);
        let holder = Arc::clone(&t);
        let waiter = Arc::clone(&t);

        let mut g1 = holder.governor();
        assert_eq!(
            g1.on_allocation(30 * MB, 30 * MB),
            GovernorDirective::Continue
        );

        let handle = thread::spawn(move || {
            let mut g2 = waiter.governor();
            let d = g2.on_allocation(30 * MB, 30 * MB);
            g2.on_completion(30 * MB);
            d
        });
        // Give the waiter a moment to queue, then release.
        thread::sleep(Duration::from_millis(50));
        g1.on_completion(30 * MB);
        assert_eq!(handle.join().unwrap(), GovernorDirective::Continue);
        assert_eq!(t.active_compilations(), 0);
    }

    #[test]
    fn broker_pressure_enables_best_effort_completion() {
        let (t, broker) = throttle(1);
        // Saturate the machine so the broker installs a (small) compilation
        // target.
        let hog = broker.register(SubcomponentKind::BufferPool);
        hog.allocate(5 << 30);
        let compile_clerk = broker.register(SubcomponentKind::Compilation);
        compile_clerk.allocate(600 << 20);
        broker.recalculate(SimTime::from_secs(1));
        assert!(broker.pressure().is_constrained());

        let mut g = t.governor();
        // A compilation ramping to hundreds of MB should be told to wrap up.
        let mut directive = GovernorDirective::Continue;
        for step in 1..=64u64 {
            directive = g.on_allocation(step * 8 * MB, step * 8 * MB);
            if directive != GovernorDirective::Continue {
                break;
            }
        }
        g.on_completion(0);
        assert_eq!(directive, GovernorDirective::FinishWithBestPlan);
        assert_eq!(t.stats().best_effort_completions, 1);
    }

    #[test]
    fn stats_survive_many_sequential_compilations() {
        let (t, _) = throttle(4);
        for i in 0..50u64 {
            let mut g = t.governor();
            let bytes = (1 + i % 40) * MB;
            g.on_allocation(bytes, bytes);
            g.on_completion(bytes);
        }
        let stats = t.stats();
        assert_eq!(stats.compilations_started, 50);
        assert_eq!(stats.compilations_finished, 50);
        assert!(stats.exempt_compilations > 0);
        assert!(stats.acquisitions[0] > 0);
        assert_eq!(stats.timeouts, 0);
    }
}
