//! Satellite tests for the gateway ladder state machine: FIFO wait-queue
//! ordering, the timeout-versus-OOM error split (§4: a blocked compilation
//! that waits too long fails with a *timeout* error, while predicted memory
//! exhaustion yields a best-effort plan, never an out-of-memory failure),
//! and the release-in-reverse-order invariant of `finish_task`.

use throttledb_core::{GatewayLadder, LadderDecision, TaskId, ThrottleConfig};
use throttledb_governor::ResourcePool;
use throttledb_sim::SimTime;

const MB: u64 = 1 << 20;

fn now(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

/// 1-CPU ladder: gateway capacities 4 / 1 / 1 — the smallest configuration
/// where every queueing behaviour is reachable with a handful of tasks.
fn ladder() -> GatewayLadder {
    GatewayLadder::new(ThrottleConfig::for_cpus(1))
}

#[test]
fn waiters_resume_in_fifo_order_across_successive_releases() {
    // A gateway is a unit-request pool that never degrades; capacity 1.
    let mut g: ResourcePool<TaskId> = ResourcePool::new("gateway", 1, 1.0);
    let ids: Vec<TaskId> = (0..6).map(TaskId).collect();
    assert!(g.request(ids[0], 1, now(0), SimTime::MAX).admitted());
    for id in &ids[1..] {
        assert!(!g.request(*id, 1, now(0), SimTime::MAX).admitted());
    }
    // Drain: each release must admit exactly the longest-queued waiter.
    let mut resumed = Vec::new();
    let mut admitted = Vec::new();
    let mut current = ids[0];
    while g.in_use() > 0 {
        admitted.clear();
        g.release_into(current, now(1), &mut admitted);
        assert!(admitted.len() <= 1);
        if let Some(&(next, _)) = admitted.first() {
            resumed.push(next);
            current = next;
        } else {
            break;
        }
    }
    assert_eq!(
        resumed,
        ids[1..].to_vec(),
        "strict FIFO across the whole queue"
    );
}

#[test]
fn ladder_admits_small_gateway_waiters_in_arrival_order() {
    let mut l = ladder();
    // Fill the small gateway (capacity 4 on 1 CPU).
    let holders: Vec<TaskId> = (0..4).map(|_| l.begin_task()).collect();
    for t in &holders {
        assert_eq!(l.report_memory(*t, 5 * MB, now(0)), LadderDecision::Proceed);
    }
    // Three more queue up behind it, in order.
    let w1 = l.begin_task();
    let w2 = l.begin_task();
    let w3 = l.begin_task();
    for w in [w1, w2, w3] {
        assert!(matches!(
            l.report_memory(w, 5 * MB, now(1)),
            LadderDecision::Wait { level: 0, .. }
        ));
    }
    assert_eq!(l.waiting_at(0), 3);
    // Releases admit w1, then w2, then w3 — never out of order.
    assert_eq!(l.finish_task(holders[0], now(2)), vec![w1]);
    assert_eq!(l.finish_task(holders[1], now(3)), vec![w2]);
    assert_eq!(l.finish_task(holders[2], now(4)), vec![w3]);
    assert_eq!(l.waiting_at(0), 0);
}

#[test]
fn timed_out_wait_is_a_timeout_not_an_oom_and_frees_the_queue_slot() {
    let mut l = ladder();
    let holder = l.begin_task();
    assert_eq!(
        l.report_memory(holder, 30 * MB, now(0)),
        LadderDecision::Proceed
    );
    let blocked = l.begin_task();
    let LadderDecision::Wait { level, timeout } = l.report_memory(blocked, 30 * MB, now(0)) else {
        panic!("second medium compilation must wait");
    };
    assert_eq!(level, 1);
    // The caller observes the timeout expire and reports it.
    let deadline = now(0) + timeout;
    l.timeout_task(blocked, deadline);
    l.finish_task(blocked, deadline);
    let stats = l.stats();
    assert_eq!(stats.timeouts, 1, "counted as a timeout");
    assert_eq!(stats.best_effort_completions, 0, "not as memory exhaustion");
    assert_eq!(l.waiting_at(1), 0, "queue slot reclaimed");
    // The holder is unaffected and the next waiter in line is not blocked by
    // the corpse of the timed-out task.
    let next = l.begin_task();
    assert!(matches!(
        l.report_memory(next, 30 * MB, now(10)),
        LadderDecision::Wait { level: 1, .. }
    ));
    assert_eq!(l.finish_task(holder, now(11)), vec![next]);
}

#[test]
fn predicted_exhaustion_is_best_effort_not_a_failure() {
    let mut l = ladder();
    l.set_compilation_target(Some(40 * MB));
    let t = l.begin_task();
    assert_eq!(l.report_memory(t, 10 * MB, now(0)), LadderDecision::Proceed);
    // Crossing the best-effort limit asks the optimizer for its best plan so
    // far — the §4.1 alternative to returning an out-of-memory error.
    assert_eq!(
        l.report_memory(t, 30 * MB, now(1)),
        LadderDecision::FinishBestEffort
    );
    l.finish_task(t, now(2));
    let stats = l.stats();
    assert_eq!(stats.best_effort_completions, 1);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.compilations_finished, 1);
}

#[test]
fn finish_releases_every_level_and_admits_waiters_at_each() {
    let mut l = ladder();
    // `big` climbs all three gateways.
    let big = l.begin_task();
    assert_eq!(
        l.report_memory(big, 200 * MB, now(0)),
        LadderDecision::Proceed
    );
    assert_eq!(l.holders_at(0), 1);
    assert_eq!(l.holders_at(1), 1);
    assert_eq!(l.holders_at(2), 1);
    // `mid` holds the small gateway and waits at the medium one.
    let mid = l.begin_task();
    assert!(matches!(
        l.report_memory(mid, 30 * MB, now(1)),
        LadderDecision::Wait { level: 1, .. }
    ));
    // Fill the rest of the small gateway and queue one more behind it.
    let fillers: Vec<TaskId> = (0..2).map(|_| l.begin_task()).collect();
    for f in &fillers {
        assert_eq!(l.report_memory(*f, 5 * MB, now(2)), LadderDecision::Proceed);
    }
    let small_waiter = l.begin_task();
    assert!(matches!(
        l.report_memory(small_waiter, 5 * MB, now(3)),
        LadderDecision::Wait { level: 0, .. }
    ));
    // One finish releases big's three gateways in reverse order; the medium
    // waiter and the small waiter are both admitted by the same call.
    let resumed = l.finish_task(big, now(4));
    assert_eq!(resumed.len(), 2, "one waiter per freed level: {resumed:?}");
    assert!(resumed.contains(&mid));
    assert!(resumed.contains(&small_waiter));
    // Resumed tasks re-report and proceed.
    assert_eq!(
        l.report_memory(mid, 30 * MB, now(4)),
        LadderDecision::Proceed
    );
    assert_eq!(
        l.report_memory(small_waiter, 5 * MB, now(4)),
        LadderDecision::Proceed
    );
}

#[test]
fn gateways_are_fully_released_after_every_lifecycle_path() {
    // Success, timeout and best-effort terminations must all end with zero
    // holders at every level — the reverse-order release may not leak.
    for scenario in ["success", "timeout", "best_effort"] {
        let mut l = ladder();
        match scenario {
            "success" => {
                let t = l.begin_task();
                l.report_memory(t, 200 * MB, now(0));
                l.finish_task(t, now(1));
            }
            "timeout" => {
                let a = l.begin_task();
                let b = l.begin_task();
                l.report_memory(a, 30 * MB, now(0));
                l.report_memory(b, 30 * MB, now(0));
                l.timeout_task(b, now(301));
                l.finish_task(b, now(301));
                l.finish_task(a, now(302));
            }
            _ => {
                l.set_compilation_target(Some(40 * MB));
                let t = l.begin_task();
                l.report_memory(t, 30 * MB, now(0));
                l.finish_task(t, now(1));
            }
        }
        for level in 0..3 {
            assert_eq!(
                l.holders_at(level),
                0,
                "{scenario}: level {level} leaked a holder"
            );
            assert_eq!(
                l.waiting_at(level),
                0,
                "{scenario}: level {level} leaked a waiter"
            );
        }
        assert_eq!(l.active_tasks(), 0, "{scenario}: task table must drain");
    }
}

#[test]
fn held_levels_are_always_a_contiguous_prefix() {
    // A task holding gateway k must hold every gateway below k (monitors are
    // acquired in order and released in reverse), so the per-level holder
    // counts are non-increasing with level whenever tasks climb one at a time.
    let mut l = ladder();
    let sizes = [1, 5, 30, 200, 5, 30];
    let tasks: Vec<TaskId> = sizes.iter().map(|_| l.begin_task()).collect();
    for (t, size) in tasks.iter().zip(sizes) {
        let _ = l.report_memory(*t, size * MB, now(0));
        assert!(
            l.holders_at(0) >= l.holders_at(1) && l.holders_at(1) >= l.holders_at(2),
            "holder counts must be monotone across levels: {} {} {}",
            l.holders_at(0),
            l.holders_at(1),
            l.holders_at(2)
        );
    }
}
