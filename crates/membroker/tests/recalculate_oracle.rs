//! `MemoryBroker::recalculate_into` against a reference copy of the
//! recalculation it replaced: a two-pass tick over per-clerk working
//! vectors, every trend fitted by the plain `f64` loop, and every clerk's
//! target and verdict re-installed on each unconstrained tick.
//!
//! The engine's built-in workloads seldom constrain the broker (only an
//! open-loop scale scenario reaches the water-fill), so this oracle drives
//! the constrained branch directly: random clerk sets over every
//! [`SubcomponentKind`], `Fixed` included; usage that crosses the brokered
//! bytes in both directions; clerks registered mid-run; and sampling times
//! on a fixed cadence, off it, and at equal instants. After every tick the
//! decisions, each clerk's installed target, its last verdict and its count
//! of verdict changes must equal the reference's, bit for bit.

use proptest::prelude::*;
use std::collections::VecDeque;
use throttledb_membroker::{
    BrokerConfig, BrokerDecision, Clerk, MemoryBroker, Notification, NotificationKind,
    SubcomponentKind,
};
use throttledb_sim::{SimDuration, SimTime};

const MB: u64 = 1 << 20;

/// The least-squares slope as the `f64` loop computes it.
fn loop_slope(window: &VecDeque<(SimTime, u64)>) -> f64 {
    if window.len() < 2 {
        return 0.0;
    }
    let t0 = window.front().expect("non-empty").0;
    let n = window.len() as f64;
    let (mut sum_t, mut sum_y, mut sum_tt, mut sum_ty) = (0.0, 0.0, 0.0, 0.0);
    for (t, y) in window {
        let x = t.saturating_since(t0).as_secs_f64();
        let y = *y as f64;
        sum_t += x;
        sum_y += y;
        sum_tt += x * x;
        sum_ty += x * y;
    }
    let denom = n * sum_tt - sum_t * sum_t;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (n * sum_ty - sum_t * sum_y) / denom
}

fn loop_predict(window: &VecDeque<(SimTime, u64)>, horizon: SimDuration) -> u64 {
    let Some(&(_, current)) = window.back() else {
        return 0;
    };
    let slope = loop_slope(window);
    if slope <= 0.0 {
        return current;
    }
    let predicted = current as f64 + slope * horizon.as_secs_f64();
    predicted.max(current as f64).min(u64::MAX as f64) as u64
}

/// The water-fill as the broker computes it: fixed clerks keep their
/// demand, the rest split what is left by entitlement weight, slack flows
/// on, and every squeezable target is at least `min_target`.
fn water_fill(
    kinds: &[SubcomponentKind],
    demands: &[u64],
    brokered: u64,
    min_target: u64,
) -> Vec<u64> {
    let n = kinds.len();
    let mut targets = vec![0u64; n];
    let mut remaining = brokered;
    for i in 0..n {
        if !kinds[i].is_squeezable() {
            targets[i] = demands[i];
            remaining = remaining.saturating_sub(demands[i]);
        }
    }
    let mut unsatisfied: Vec<usize> = (0..n).filter(|&i| kinds[i].is_squeezable()).collect();
    let mut settled = vec![false; n];
    loop {
        let weight_sum: f64 = unsatisfied
            .iter()
            .map(|&i| kinds[i].entitlement_weight())
            .sum();
        if unsatisfied.is_empty() || weight_sum <= f64::EPSILON {
            break;
        }
        let mut progressed = false;
        let mut next_round = Vec::new();
        let pool = remaining;
        for &i in &unsatisfied {
            let share = (pool as f64 * kinds[i].entitlement_weight() / weight_sum) as u64;
            if demands[i] <= share {
                targets[i] = demands[i];
                settled[i] = true;
                remaining = remaining.saturating_sub(demands[i]);
                progressed = true;
            } else {
                next_round.push(i);
            }
        }
        if !progressed {
            let pool = remaining;
            for &i in &next_round {
                targets[i] = (pool as f64 * kinds[i].entitlement_weight() / weight_sum) as u64;
                settled[i] = true;
            }
            break;
        }
        unsatisfied = next_round;
    }
    for i in 0..n {
        if kinds[i].is_squeezable() && !settled[i] && targets[i] == 0 {
            targets[i] = min_target;
        }
        if kinds[i].is_squeezable() {
            targets[i] = targets[i].max(min_target);
        }
    }
    targets
}

/// One clerk as the reference broker keeps it.
struct RefClerk {
    clerk: Clerk,
    window: VecDeque<(SimTime, u64)>,
    target: Option<u64>,
    last_verdict: Option<NotificationKind>,
    verdict_changes: u64,
}

impl RefClerk {
    fn set_verdict(&mut self, verdict: NotificationKind) {
        if self.last_verdict != Some(verdict) {
            self.verdict_changes += 1;
        }
        self.last_verdict = Some(verdict);
    }
}

/// The reference broker: the recalculation before it ran in one pass.
struct Reference {
    config: BrokerConfig,
    clerks: Vec<RefClerk>,
}

impl Reference {
    fn recalculate(&mut self, now: SimTime) -> Vec<BrokerDecision> {
        let horizon = self.config.prediction_horizon;
        let brokered = self.config.brokered_bytes();
        let mut current = Vec::new();
        let mut predicted = Vec::new();
        for c in &mut self.clerks {
            let used = c.clerk.used_bytes();
            if c.window.len() == self.config.trend_window {
                c.window.pop_front();
            }
            c.window.push_back((now, used));
            current.push(used);
            predicted.push(loop_predict(&c.window, horizon));
        }
        let predicted_total: u64 = predicted.iter().sum();
        let mut out = Vec::new();
        if predicted_total <= brokered {
            for (i, c) in self.clerks.iter_mut().enumerate() {
                c.target = None;
                c.set_verdict(NotificationKind::Grow);
                out.push(BrokerDecision {
                    notification: Notification {
                        clerk: c.clerk.id(),
                        kind_of_component: c.clerk.kind(),
                        kind: NotificationKind::Grow,
                        current_bytes: current[i],
                        predicted_bytes: predicted[i],
                        target_bytes: None,
                    },
                });
            }
            return out;
        }
        let demands: Vec<u64> = current
            .iter()
            .zip(&predicted)
            .map(|(c, p)| (*c).max(*p))
            .collect();
        let kinds: Vec<SubcomponentKind> = self.clerks.iter().map(|c| c.clerk.kind()).collect();
        let targets = water_fill(&kinds, &demands, brokered, self.config.min_target_bytes);
        let hysteresis = self.config.target_hysteresis;
        for (i, c) in self.clerks.iter_mut().enumerate() {
            let kind = c.clerk.kind();
            let target = targets[i];
            let verdict = if !kind.is_squeezable() {
                NotificationKind::Steady
            } else if current[i] as f64 > target as f64 * (1.0 + hysteresis) {
                NotificationKind::Shrink
            } else if predicted[i] <= target && (current[i] as f64) < target as f64 * 0.90 {
                NotificationKind::Grow
            } else {
                NotificationKind::Steady
            };
            c.target = Some(target);
            c.set_verdict(verdict);
            out.push(BrokerDecision {
                notification: Notification {
                    clerk: c.clerk.id(),
                    kind_of_component: kind,
                    kind: verdict,
                    current_bytes: current[i],
                    predicted_bytes: predicted[i],
                    target_bytes: Some(target),
                },
            });
        }
        out
    }
}

/// The broker and its reference, over the same clerks.
struct Pair {
    broker: MemoryBroker,
    reference: Reference,
    decisions: Vec<BrokerDecision>,
    constrained_ticks: usize,
    unconstrained_ticks: usize,
}

impl Pair {
    fn new(config: BrokerConfig) -> Self {
        Pair {
            broker: MemoryBroker::unshared(config.clone()),
            reference: Reference {
                config,
                clerks: Vec::new(),
            },
            decisions: Vec::new(),
            constrained_ticks: 0,
            unconstrained_ticks: 0,
        }
    }

    fn register(&mut self, kind: SubcomponentKind) {
        let clerk = self.broker.register(kind);
        self.reference.clerks.push(RefClerk {
            clerk,
            window: VecDeque::new(),
            target: None,
            last_verdict: None,
            verdict_changes: 0,
        });
    }

    /// Set every clerk's live bytes, then tick both brokers and compare.
    fn tick(&mut self, now: SimTime, usage: impl Fn(usize) -> u64) {
        for (i, c) in self.reference.clerks.iter().enumerate() {
            c.clerk.free(c.clerk.used_bytes());
            c.clerk.allocate(usage(i));
        }
        // Through the lock and through exclusive access, in turn.
        if (self.constrained_ticks + self.unconstrained_ticks) % 2 == 0 {
            self.broker.recalculate_into(now, &mut self.decisions);
        } else {
            self.broker.recalculate_mut(now, &mut self.decisions);
        }
        let expected = self.reference.recalculate(now);
        assert_eq!(self.decisions, expected, "decisions at {now}");
        if expected
            .iter()
            .any(|d| d.notification.target_bytes.is_some())
        {
            self.constrained_ticks += 1;
        } else {
            self.unconstrained_ticks += 1;
        }
        let snapshot = self.broker.snapshot();
        assert_eq!(snapshot.clerks.len(), self.reference.clerks.len());
        for (got, want) in snapshot.clerks.iter().zip(&self.reference.clerks) {
            // A clerk encodes "no target" as 0.
            assert_eq!(
                got.target_bytes,
                want.target.filter(|&t| t > 0),
                "target of {} at {now}",
                got.id
            );
            assert_eq!(got.last_verdict, want.last_verdict, "verdict of {}", got.id);
            assert_eq!(
                got.verdict_changes, want.verdict_changes,
                "verdict changes of {} at {now}",
                got.id
            );
        }
        let used: u64 = self
            .reference
            .clerks
            .iter()
            .map(|c| c.clerk.used_bytes())
            .sum();
        assert_eq!(self.broker.used_bytes(), used, "the broker-wide total");
    }
}

/// A sampling gap in microseconds, by kind.
fn gap(kind: u8, r: u64) -> u64 {
    match kind {
        // The engine's cadence, a quarter-second one, and one off the
        // 1/64 s grid.
        0 | 1 => 5_000_000,
        2 => 1_250_000,
        3 => 100_000,
        // Equal times.
        4 => 0,
        // Anything up to ten seconds.
        _ => r % 10_000_000,
    }
}

#[test]
fn a_ramp_through_the_brokered_bytes_and_back_matches_the_reference() {
    let mut p = Pair::new(BrokerConfig::with_total_memory(1 << 30));
    for kind in SubcomponentKind::ALL {
        p.register(kind);
    }
    let brokered = p.broker.config().brokered_bytes();
    // Up to 150 % of the brokered bytes and back down, on the 5 s cadence.
    for tick in 0..60u64 {
        let level = if tick < 30 { tick * 5 } else { (60 - tick) * 5 };
        let total = brokered / 100 * level;
        p.tick(SimTime::from_secs(5 * tick), |i| total / 6 + i as u64 * MB);
    }
    assert!(p.constrained_ticks > 10 && p.unconstrained_ticks > 10);
}

#[test]
fn usage_exactly_at_the_brokered_bytes_stays_unconstrained() {
    let mut p = Pair::new(BrokerConfig::with_total_memory(1 << 30));
    p.register(SubcomponentKind::BufferPool);
    p.register(SubcomponentKind::Compilation);
    let brokered = p.broker.config().brokered_bytes();
    // Flat usage predicts itself: the predicted total is the brokered bytes.
    let usage = |extra: u64| move |i: usize| [brokered - 64 * MB, 64 * MB + extra][i];
    for tick in 0..3u64 {
        p.tick(SimTime::from_secs(5 * tick), usage(0));
    }
    assert_eq!((p.constrained_ticks, p.unconstrained_ticks), (0, 3));
    // One byte more and the broker constrains.
    p.tick(SimTime::from_secs(15), usage(1));
    assert_eq!(p.constrained_ticks, 1);
}

proptest! {
    #[test]
    fn prop_recalculate_matches_the_reference_bit_for_bit(
        kinds in proptest::collection::vec(0usize..6, 1..7),
        late in proptest::collection::vec((0usize..6, 0usize..40), 0..3),
        total_mb in 64u64..4096,
        min_target_mb in 0u64..16,
        trend_window in 2usize..20,
        steps in proptest::collection::vec((0u8..7, 0u64..160, 0u64..u64::MAX), 1..40),
    ) {
        let config = BrokerConfig {
            total_memory_bytes: total_mb * MB,
            min_target_bytes: min_target_mb * MB,
            trend_window,
            ..BrokerConfig::default()
        };
        let brokered = config.brokered_bytes();
        let mut p = Pair::new(config);
        for &k in &kinds {
            p.register(SubcomponentKind::ALL[k]);
        }
        let mut now = 0u64;
        for (step, &(gap_kind, level, r)) in steps.iter().enumerate() {
            for &(k, at) in &late {
                if at == step {
                    p.register(SubcomponentKind::ALL[k]);
                }
            }
            now += gap(gap_kind, r);
            // Total usage at `level` % of the brokered bytes, split by
            // weights drawn from `r`: it crosses the brokered bytes in both
            // directions as the level moves.
            let total = (brokered as u128 * level as u128 / 100) as u64;
            let weight = |i: usize| 1 + (r.rotate_left(7 * i as u32) & 0xF);
            let clerks = p.reference.clerks.len();
            let weights: u64 = (0..clerks).map(weight).sum();
            p.tick(SimTime::from_micros(now), |i| {
                (total as u128 * weight(i) as u128 / weights as u128) as u64
            });
        }
    }
}
