//! The Memory Broker itself.

use crate::accounting::ClerkAccount;
use crate::clerk::{Clerk, ClerkId, ClerkShared, SubcomponentKind};
use crate::config::BrokerConfig;
use crate::notification::{Notification, NotificationKind};
use crate::pressure::PressureLevel;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use throttledb_sim::SimTime;

/// One broker verdict for one clerk, produced by [`MemoryBroker::recalculate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BrokerDecision {
    /// The notification delivered to the clerk.
    pub notification: Notification,
}

/// Point-in-time view of one clerk for reporting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClerkSnapshot {
    /// Clerk identity.
    pub id: ClerkId,
    /// Subcomponent kind.
    pub kind: SubcomponentKind,
    /// Human-readable name.
    pub name: String,
    /// Live bytes.
    pub used_bytes: u64,
    /// Current target (None = unconstrained).
    pub target_bytes: Option<u64>,
    /// Last verdict sent.
    pub last_verdict: Option<NotificationKind>,
    /// How many times the verdict has changed.
    pub verdict_changes: u64,
}

/// Point-in-time view of the whole broker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BrokerSnapshot {
    /// Total physical memory configured.
    pub total_memory_bytes: u64,
    /// Bytes the broker is willing to distribute.
    pub brokered_bytes: u64,
    /// Sum of live usage across clerks.
    pub used_bytes: u64,
    /// Current pressure classification.
    pub pressure: PressureLevel,
    /// Per-clerk details.
    pub clerks: Vec<ClerkSnapshot>,
}

/// The central memory accountant (§3 of the paper).
///
/// Thread-safe: clerks report allocations lock-free, and
/// [`MemoryBroker::used_bytes`], [`MemoryBroker::available_bytes`] and
/// [`MemoryBroker::pressure`] sum them along the chain of registered
/// clerks, also lock-free; `recalculate` takes a short internal lock. In the
/// discrete-event engine the broker is driven on a virtual-time schedule;
/// in the threaded examples it can be called from a housekeeping thread.
#[derive(Debug)]
pub struct MemoryBroker {
    config: BrokerConfig,
    /// `config.brokered_bytes()`, computed once.
    brokered: u64,
    /// Each kind's entitlement share of `brokered`, indexed by the kind's
    /// position in [`SubcomponentKind::ALL`].
    entitlements: [u64; SubcomponentKind::ALL.len()],
    /// The first registered clerk; each links to the next.
    first: OnceLock<Arc<ClerkShared>>,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    accounts: Vec<ClerkAccount>,
    recalculations: u64,
    /// Every clerk holds the unconstrained verdict — no target, `Grow` —
    /// since the last recalculation, which left it so. A constrained
    /// recalculation or a new clerk clears it.
    unconstrained: bool,
    /// The constrained recalculation's working vectors, reused so a tick
    /// allocates nothing once they have grown to the clerk count.
    scratch: Scratch,
}

/// Working vectors of one constrained recalculation, one slot per clerk.
#[derive(Debug, Default)]
struct Scratch {
    kinds: Vec<SubcomponentKind>,
    demands: Vec<u64>,
    targets: Vec<u64>,
    fill: WaterFill,
}

impl MemoryBroker {
    /// Create a broker with the given configuration, behind an `Arc` so
    /// subcomponents and housekeeping threads can share it.
    pub fn new(config: BrokerConfig) -> Arc<Self> {
        Arc::new(MemoryBroker::unshared(config))
    }

    /// A broker with a single owner, which can recalculate through
    /// exclusive access without taking the lock
    /// ([`MemoryBroker::recalculate_mut`]). Its clerks work as any others.
    pub fn unshared(config: BrokerConfig) -> Self {
        config.validate();
        let brokered = config.brokered_bytes();
        MemoryBroker {
            config,
            brokered,
            entitlements: SubcomponentKind::ALL
                .map(|kind| (brokered as f64 * kind.entitlement_weight()) as u64),
            first: OnceLock::new(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configuration this broker was built with.
    pub fn config(&self) -> &BrokerConfig {
        &self.config
    }

    /// Register a new subcomponent clerk.
    pub fn register(&self, kind: SubcomponentKind) -> Clerk {
        let mut inner = self.inner.lock();
        let id = ClerkId(inner.accounts.len() as u32);
        let clerk = Clerk::new(id, kind);
        let link = match inner.accounts.last() {
            Some(last) => &last.clerk().shared.next,
            None => &self.first,
        };
        link.set(Arc::clone(&clerk.shared))
            .expect("a clerk is linked once, under the lock");
        inner
            .accounts
            .push(ClerkAccount::new(clerk.clone(), self.config.trend_window));
        inner.unconstrained = false;
        clerk
    }

    /// Sum of live usage across all clerks, without the broker's lock.
    pub fn used_bytes(&self) -> u64 {
        let mut used = 0;
        let mut clerk = self.first.get();
        while let Some(c) = clerk {
            used += c.used.load(Ordering::Relaxed);
            clerk = c.next.get();
        }
        used
    }

    /// Live usage for one subcomponent kind (summed over its clerks).
    pub fn used_by_kind(&self, kind: SubcomponentKind) -> u64 {
        let inner = self.inner.lock();
        inner
            .accounts
            .iter()
            .filter(|a| a.clerk().kind() == kind)
            .map(|a| a.clerk().used_bytes())
            .sum()
    }

    /// Trend-predicted near-future usage for one subcomponent kind, summed
    /// over its clerks: each clerk's usage extrapolated
    /// [`BrokerConfig::prediction_horizon`](crate::config::BrokerConfig)
    /// ahead along the trend sampled by the last
    /// [`MemoryBroker::recalculate`] (live usage when no trend exists yet).
    ///
    /// The engine's PID admission policy divides this by
    /// [`MemoryBroker::target_for_kind`] to obtain the predicted-pressure
    /// signal it servos on.
    pub fn predicted_by_kind(&self, kind: SubcomponentKind) -> u64 {
        let horizon = self.config.prediction_horizon;
        let inner = self.inner.lock();
        inner
            .accounts
            .iter()
            .filter(|a| a.clerk().kind() == kind)
            .map(|a| a.predict(horizon))
            .sum()
    }

    /// [`MemoryBroker::predicted_by_kind`] read off the `decisions` the last
    /// recalculation returned (each carries its clerk's prediction).
    pub fn predicted_in(decisions: &[BrokerDecision], kind: SubcomponentKind) -> u64 {
        decisions
            .iter()
            .filter(|d| d.notification.kind_of_component == kind)
            .map(|d| d.notification.predicted_bytes)
            .sum()
    }

    /// Bytes still available before hitting the brokered limit (saturating).
    pub fn available_bytes(&self) -> u64 {
        self.brokered.saturating_sub(self.used_bytes())
    }

    /// Current pressure based on live usage (no prediction).
    pub fn pressure(&self) -> PressureLevel {
        let brokered = self.brokered.max(1);
        let utilization = self.used_bytes() as f64 / brokered as f64;
        PressureLevel::from_utilization(
            utilization,
            self.config.medium_pressure_utilization,
            self.config.high_pressure_utilization,
        )
    }

    /// The memory target for a subcomponent kind: the sum of installed
    /// targets for its clerks when the system is constrained, or the kind's
    /// entitlement share of brokered memory when it is not.
    ///
    /// `throttledb-core` uses the value for [`SubcomponentKind::Compilation`]
    /// to compute the *dynamic gateway thresholds* described in §4.1.
    pub fn target_for_kind(&self, kind: SubcomponentKind) -> u64 {
        let inner = self.inner.lock();
        let installed: u64 = inner
            .accounts
            .iter()
            .filter(|a| a.clerk().kind() == kind)
            .filter_map(|a| a.clerk().target_bytes())
            .sum();
        self.installed_or_entitlement(kind, installed)
    }

    /// [`MemoryBroker::target_for_kind`] read off the `decisions` the last
    /// recalculation returned, without taking the broker's lock again.
    pub fn target_in(&self, decisions: &[BrokerDecision], kind: SubcomponentKind) -> u64 {
        let installed = decisions
            .iter()
            .filter(|d| d.notification.kind_of_component == kind)
            .filter_map(|d| d.notification.target_bytes)
            .sum();
        self.installed_or_entitlement(kind, installed)
    }

    /// The target for `kind` given the sum of its clerks' installed
    /// targets: that sum, or the kind's entitlement share of brokered
    /// memory when nothing is installed. [`MemoryBroker::target_in`] is
    /// this over the sum it reads off a recalculation's decisions.
    pub fn installed_or_entitlement(&self, kind: SubcomponentKind, installed: u64) -> u64 {
        if installed > 0 {
            installed
        } else {
            self.entitlements[kind as usize]
        }
    }

    /// Number of times `recalculate` has run.
    pub fn recalculations(&self) -> u64 {
        self.inner.lock().recalculations
    }

    /// Sample every clerk, predict near-future usage, and return one verdict
    /// per clerk. Targets are installed on the clerks so subcomponents that
    /// poll (rather than receive notifications) see the same numbers.
    pub fn recalculate(&self, now: SimTime) -> Vec<BrokerDecision> {
        let mut out = Vec::new();
        self.recalculate_into(now, &mut out);
        out
    }

    /// [`MemoryBroker::recalculate`] into a caller-owned buffer (cleared
    /// first). With the broker's internal working vectors reused as well,
    /// a recalculation allocates nothing at steady state.
    pub fn recalculate_into(&self, now: SimTime, out: &mut Vec<BrokerDecision>) {
        let mut inner = self.inner.lock();
        inner.recalculate(&self.config, self.brokered, now, out);
    }

    /// [`MemoryBroker::recalculate_into`] through exclusive access, which
    /// needs no lock.
    pub fn recalculate_mut(&mut self, now: SimTime, out: &mut Vec<BrokerDecision>) {
        let inner = self.inner.get_mut();
        inner.recalculate(&self.config, self.brokered, now, out);
    }

    /// A point-in-time view of the broker for reports and figures.
    pub fn snapshot(&self) -> BrokerSnapshot {
        let pressure = self.pressure();
        let inner = self.inner.lock();
        let clerks: Vec<ClerkSnapshot> = inner
            .accounts
            .iter()
            .map(|a| ClerkSnapshot {
                id: a.clerk().id(),
                kind: a.clerk().kind(),
                name: a.clerk().name(),
                used_bytes: a.clerk().used_bytes(),
                target_bytes: a.clerk().target_bytes(),
                last_verdict: a.last_verdict(),
                verdict_changes: a.verdict_changes(),
            })
            .collect();
        BrokerSnapshot {
            total_memory_bytes: self.config.total_memory_bytes,
            brokered_bytes: self.brokered,
            used_bytes: clerks.iter().map(|c| c.used_bytes).sum(),
            pressure,
            clerks,
        }
    }
}

impl Inner {
    /// The recalculation behind [`MemoryBroker::recalculate_into`], over
    /// the state the lock guards.
    fn recalculate(
        &mut self,
        config: &BrokerConfig,
        brokered: u64,
        now: SimTime,
        out: &mut Vec<BrokerDecision>,
    ) {
        out.clear();
        self.recalculations += 1;
        let horizon = config.prediction_horizon;

        // Sample and predict every clerk. Each decision starts as the
        // unconstrained one, and stays so unless the predicted total
        // exceeds the brokered bytes.
        let mut predicted_total = 0u64;
        for account in self.accounts.iter_mut() {
            let current = account.sample(now);
            let predicted = account.predict(horizon);
            predicted_total += predicted;
            out.push(BrokerDecision {
                notification: Notification {
                    clerk: account.clerk().id(),
                    kind_of_component: account.clerk().kind(),
                    kind: NotificationKind::Grow,
                    current_bytes: current,
                    predicted_bytes: predicted,
                    target_bytes: None,
                },
            });
        }

        // Unconstrained: clear targets, everyone may grow. "If the system is
        // not using all available physical memory, no action is taken."
        if predicted_total <= brokered {
            if !self.unconstrained {
                for account in self.accounts.iter_mut() {
                    account.clerk().install_target(None);
                    account.set_verdict(NotificationKind::Grow);
                }
                self.unconstrained = true;
            }
            return;
        }
        self.unconstrained = false;

        // Constrained: compute per-clerk targets by water-filling the
        // brokered bytes across squeezable clerks according to their
        // entitlement weights; unsqueezable (Fixed) clerks keep their demand.
        let Scratch {
            kinds,
            demands,
            targets,
            fill,
        } = &mut self.scratch;
        kinds.clear();
        demands.clear();
        for d in out.iter() {
            let n = &d.notification;
            kinds.push(n.kind_of_component);
            demands.push(n.current_bytes.max(n.predicted_bytes));
        }
        fill.compute(kinds, demands, brokered, config.min_target_bytes, targets);

        let hysteresis = config.target_hysteresis;
        for ((account, d), &target) in self
            .accounts
            .iter_mut()
            .zip(out.iter_mut())
            .zip(targets.iter())
        {
            let n = &mut d.notification;
            let current = n.current_bytes;
            n.kind = if !n.kind_of_component.is_squeezable() {
                NotificationKind::Steady
            } else if current as f64 > target as f64 * (1.0 + hysteresis) {
                NotificationKind::Shrink
            } else if n.predicted_bytes <= target && (current as f64) < target as f64 * 0.90 {
                NotificationKind::Grow
            } else {
                NotificationKind::Steady
            };
            n.target_bytes = Some(target);
            account.clerk().install_target(Some(target));
            account.set_verdict(n.kind);
        }
    }
}

/// The water-filling pass's own working vectors, reused across
/// recalculations.
#[derive(Debug, Default)]
struct WaterFill {
    unsatisfied: Vec<usize>,
    next_round: Vec<usize>,
    settled: Vec<bool>,
}

impl WaterFill {
    /// Water-fill `brokered` bytes across clerks into `targets` (one per
    /// clerk, overwritten).
    ///
    /// * `Fixed` clerks are satisfied first at their full demand.
    /// * The remainder is divided among squeezable clerks proportionally to
    ///   their [`SubcomponentKind::entitlement_weight`]; any clerk whose
    ///   demand is below its share is granted its demand and the slack is
    ///   redistributed to the still-unsatisfied clerks (classic
    ///   water-filling), iterating until a fixed point.
    /// * Every target is at least `min_target` (even if that oversubscribes
    ///   a pathologically tiny machine — the broker is advisory, not an
    ///   allocator).
    fn compute(
        &mut self,
        kinds: &[SubcomponentKind],
        demands: &[u64],
        brokered: u64,
        min_target: u64,
        targets: &mut Vec<u64>,
    ) {
        debug_assert_eq!(kinds.len(), demands.len());
        let n = kinds.len();
        targets.clear();
        targets.resize(n, 0);
        let mut remaining = brokered;

        // Fixed clerks first.
        for i in 0..n {
            if !kinds[i].is_squeezable() {
                targets[i] = demands[i];
                remaining = remaining.saturating_sub(demands[i]);
            }
        }

        // Water-fill the rest.
        let WaterFill {
            unsatisfied,
            next_round,
            settled,
        } = self;
        unsatisfied.clear();
        unsatisfied.extend((0..n).filter(|&i| kinds[i].is_squeezable()));
        settled.clear();
        settled.resize(n, false);
        loop {
            let weight_sum: f64 = unsatisfied
                .iter()
                .map(|&i| kinds[i].entitlement_weight())
                .sum();
            if unsatisfied.is_empty() || weight_sum <= f64::EPSILON {
                break;
            }
            let mut progressed = false;
            next_round.clear();
            let pool = remaining;
            for &i in unsatisfied.iter() {
                let share = (pool as f64 * kinds[i].entitlement_weight() / weight_sum) as u64;
                if demands[i] <= share {
                    // Fully satisfied below its share; grant demand, release slack.
                    targets[i] = demands[i];
                    settled[i] = true;
                    remaining = remaining.saturating_sub(demands[i]);
                    progressed = true;
                } else {
                    next_round.push(i);
                }
            }
            if !progressed {
                // Everyone left wants more than their share: cap them at it.
                let pool = remaining;
                for &i in next_round.iter() {
                    let share = (pool as f64 * kinds[i].entitlement_weight() / weight_sum) as u64;
                    targets[i] = share;
                    settled[i] = true;
                }
                break;
            }
            std::mem::swap(unsatisfied, next_round);
        }

        for i in 0..n {
            if kinds[i].is_squeezable() && !settled[i] && targets[i] == 0 {
                // Degenerate case (no weights left): give the minimum.
                targets[i] = min_target;
            }
            if kinds[i].is_squeezable() {
                targets[i] = targets[i].max(min_target);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MB: u64 = 1 << 20;
    const GB: u64 = 1 << 30;

    fn compute_targets(
        kinds: &[SubcomponentKind],
        demands: &[u64],
        brokered: u64,
        min_target: u64,
    ) -> Vec<u64> {
        let mut targets = Vec::new();
        WaterFill::default().compute(kinds, demands, brokered, min_target, &mut targets);
        targets
    }

    fn broker(total: u64) -> Arc<MemoryBroker> {
        MemoryBroker::new(BrokerConfig::with_total_memory(total))
    }

    #[test]
    fn unconstrained_system_gets_grow_and_no_targets() {
        let b = broker(4 * GB);
        let pool = b.register(SubcomponentKind::BufferPool);
        let compile = b.register(SubcomponentKind::Compilation);
        pool.allocate(100 * MB);
        compile.allocate(10 * MB);
        let decisions = b.recalculate(SimTime::from_secs(1));
        assert_eq!(decisions.len(), 2);
        for d in &decisions {
            assert_eq!(d.notification.kind, NotificationKind::Grow);
            assert_eq!(d.notification.target_bytes, None);
        }
        assert_eq!(pool.target_bytes(), None);
        assert_eq!(b.pressure(), PressureLevel::Low);
    }

    #[test]
    fn oversubscription_produces_shrink_for_the_hog() {
        let b = broker(GB);
        let pool = b.register(SubcomponentKind::BufferPool);
        let compile = b.register(SubcomponentKind::Compilation);
        let exec = b.register(SubcomponentKind::Execution);
        pool.allocate(800 * MB);
        compile.allocate(300 * MB);
        exec.allocate(100 * MB);
        let decisions = b.recalculate(SimTime::from_secs(1));
        // Compilation is far above its 15% entitlement of ~1 GB: must shrink.
        let comp_decision = decisions
            .iter()
            .find(|d| d.notification.kind_of_component == SubcomponentKind::Compilation)
            .unwrap();
        assert_eq!(comp_decision.notification.kind, NotificationKind::Shrink);
        assert!(comp_decision.notification.release_needed() > 0);
        assert!(compile.target_bytes().is_some());
        assert_eq!(b.pressure(), PressureLevel::High);
    }

    #[test]
    fn growth_trend_triggers_constraint_before_limit_is_hit() {
        let b = broker(GB);
        let pool = b.register(SubcomponentKind::BufferPool);
        let compile = b.register(SubcomponentKind::Compilation);
        pool.allocate(700 * MB);
        // Compilation grows 50 MB/s; at 200 MB now, predicted 10 s out is
        // ~700 MB which blows the 1 GB budget even though current total fits.
        for s in 1..=4u64 {
            compile.allocate(50 * MB);
            b.recalculate(SimTime::from_secs(s));
        }
        let decisions = b.recalculate(SimTime::from_secs(5));
        let comp = decisions
            .iter()
            .find(|d| d.notification.kind_of_component == SubcomponentKind::Compilation)
            .unwrap();
        assert!(comp.notification.predicted_bytes > comp.notification.current_bytes);
        assert!(
            comp.notification.target_bytes.is_some(),
            "should be constrained"
        );
    }

    #[test]
    fn targets_clear_when_pressure_subsides() {
        let b = broker(512 * MB);
        let pool = b.register(SubcomponentKind::BufferPool);
        let compile = b.register(SubcomponentKind::Compilation);
        pool.allocate(400 * MB);
        compile.allocate(300 * MB);
        b.recalculate(SimTime::from_secs(1));
        assert!(compile.target_bytes().is_some());
        // Memory is released; next recalculation should clear targets.
        pool.free(380 * MB);
        compile.free(290 * MB);
        // Let the shrinking trend settle over a few samples.
        b.recalculate(SimTime::from_secs(2));
        let decisions = b.recalculate(SimTime::from_secs(3));
        for d in &decisions {
            assert_eq!(d.notification.kind, NotificationKind::Grow);
        }
        assert_eq!(compile.target_bytes(), None);
    }

    #[test]
    fn fixed_clerks_are_never_asked_to_shrink() {
        let b = broker(256 * MB);
        let fixed = b.register(SubcomponentKind::Fixed);
        let pool = b.register(SubcomponentKind::BufferPool);
        fixed.allocate(64 * MB);
        pool.allocate(512 * MB);
        let decisions = b.recalculate(SimTime::from_secs(1));
        let fx = decisions
            .iter()
            .find(|d| d.notification.kind_of_component == SubcomponentKind::Fixed)
            .unwrap();
        assert_ne!(fx.notification.kind, NotificationKind::Shrink);
    }

    #[test]
    fn target_for_kind_falls_back_to_entitlement() {
        let b = broker(GB);
        let _c = b.register(SubcomponentKind::Compilation);
        let t = b.target_for_kind(SubcomponentKind::Compilation);
        let brokered = b.config().brokered_bytes();
        let expected = (brokered as f64 * 0.15) as u64;
        assert_eq!(t, expected);
    }

    #[test]
    fn target_for_kind_uses_installed_targets_under_pressure() {
        let b = broker(512 * MB);
        let pool = b.register(SubcomponentKind::BufferPool);
        let compile = b.register(SubcomponentKind::Compilation);
        pool.allocate(400 * MB);
        compile.allocate(400 * MB);
        b.recalculate(SimTime::from_secs(1));
        let t = b.target_for_kind(SubcomponentKind::Compilation);
        assert_eq!(Some(t), compile.target_bytes());
    }

    #[test]
    fn predicted_by_kind_extrapolates_the_sampled_trend() {
        let b = broker(4 * GB);
        let compile = b.register(SubcomponentKind::Compilation);
        let _pool = b.register(SubcomponentKind::BufferPool);
        // With no samples yet, prediction falls back to live usage.
        compile.allocate(100 * MB);
        assert_eq!(b.predicted_by_kind(SubcomponentKind::Compilation), 100 * MB);
        // Grow 50 MB/s across recalculations: the prediction must run ahead
        // of live usage along the trend.
        for s in 1..=4u64 {
            b.recalculate(SimTime::from_secs(s));
            compile.allocate(50 * MB);
        }
        let live = b.used_by_kind(SubcomponentKind::Compilation);
        let predicted = b.predicted_by_kind(SubcomponentKind::Compilation);
        assert!(
            predicted > live,
            "prediction {predicted} should exceed live {live} on a growth trend"
        );
        // Other kinds are excluded from the sum.
        assert_eq!(b.predicted_by_kind(SubcomponentKind::Execution), 0);
    }

    #[test]
    fn snapshot_reports_all_clerks() {
        let b = broker(GB);
        let pool = b.register(SubcomponentKind::BufferPool);
        pool.set_name("main pool");
        pool.allocate(10 * MB);
        let snap = b.snapshot();
        assert_eq!(snap.total_memory_bytes, GB);
        assert_eq!(snap.clerks.len(), 1);
        assert_eq!(snap.clerks[0].name, "main pool");
        assert_eq!(snap.used_bytes, 10 * MB);
    }

    #[test]
    fn used_bytes_follows_every_clerk_in_the_chain() {
        let b = broker(GB);
        assert_eq!(b.used_bytes(), 0);
        let clerks: Vec<_> = SubcomponentKind::ALL.map(|k| b.register(k)).into();
        for (i, c) in clerks.iter().enumerate() {
            c.allocate((i as u64 + 1) * MB);
        }
        clerks[2].free(MB);
        assert_eq!(b.used_bytes(), 20 * MB);
        assert_eq!(b.available_bytes(), b.config().brokered_bytes() - 20 * MB);
        assert_eq!(b.snapshot().used_bytes, 20 * MB);
    }

    #[test]
    fn available_bytes_saturates() {
        let b = broker(64 * MB);
        let pool = b.register(SubcomponentKind::BufferPool);
        pool.allocate(10 * GB);
        assert_eq!(b.available_bytes(), 0);
    }

    #[test]
    fn recalculations_counter_increments() {
        let b = broker(GB);
        b.recalculate(SimTime::from_secs(1));
        b.recalculate(SimTime::from_secs(2));
        assert_eq!(b.recalculations(), 2);
    }

    #[test]
    fn compute_targets_water_fills_slack() {
        // Buffer pool demands little, compilation demands a lot: the pool's
        // slack should flow to compilation rather than being wasted.
        let kinds = vec![SubcomponentKind::BufferPool, SubcomponentKind::Compilation];
        let demands = vec![100 * MB, 900 * MB];
        let targets = compute_targets(&kinds, &demands, 1000 * MB, MB);
        assert_eq!(targets[0], 100 * MB);
        assert!(
            targets[1] >= 800 * MB,
            "compilation should receive the slack: {targets:?}"
        );
        assert!(targets[1] <= 900 * MB);
    }

    #[test]
    fn compute_targets_respects_min_target() {
        let kinds = vec![SubcomponentKind::BufferPool, SubcomponentKind::PlanCache];
        let demands = vec![10_000 * MB, 10 * MB];
        let targets = compute_targets(&kinds, &demands, 100 * MB, 4 * MB);
        assert!(targets[1] >= 4 * MB);
    }

    proptest! {
        #[test]
        fn prop_targets_never_exceed_demand_for_satisfied_clerks(
            clerks in proptest::collection::vec((0usize..6, 0u64..4_000_000_000u64), 1..7),
            brokered in 1_000_000u64..4_000_000_000u64,
            min_target in 0u64..50_000_000u64,
        ) {
            let kinds: Vec<SubcomponentKind> =
                clerks.iter().map(|&(k, _)| SubcomponentKind::ALL[k]).collect();
            let demands: Vec<u64> = clerks.iter().map(|&(_, d)| d).collect();
            let targets = compute_targets(&kinds, &demands, brokered, min_target);
            prop_assert_eq!(targets.len(), demands.len());
            let fixed: u64 = (0..kinds.len())
                .filter(|&i| !kinds[i].is_squeezable())
                .map(|i| demands[i])
                .sum();
            // The first round splits what the fixed clerks leave by weight;
            // a clerk whose demand fits its share settles there.
            let pool = brokered.saturating_sub(fixed);
            let weight_sum: f64 = kinds
                .iter()
                .filter(|k| k.is_squeezable())
                .map(|k| k.entitlement_weight())
                .sum();
            let mut squeezable = 0u64;
            let mut granted = 0u64;
            for (i, (&kind, &demand)) in kinds.iter().zip(&demands).enumerate() {
                let target = targets[i];
                if !kind.is_squeezable() {
                    prop_assert_eq!(target, demand, "a fixed clerk keeps its demand");
                    continue;
                }
                squeezable += 1;
                granted += target;
                prop_assert!(target >= min_target, "target {} under the floor", target);
                prop_assert!(
                    target <= demand.max(min_target),
                    "target {} over demand {}", target, demand
                );
                let share = (pool as f64 * kind.entitlement_weight() / weight_sum) as u64;
                if demand <= share {
                    prop_assert_eq!(
                        target,
                        demand.max(min_target),
                        "settled below its share {}", share
                    );
                }
            }
            prop_assert!(
                granted <= pool + squeezable * min_target,
                "granted {} from a pool of {}", granted, pool
            );
        }

        #[test]
        fn prop_recalculate_is_deterministic(
            allocs in proptest::collection::vec(0u64..500_000_000u64, 1..8),
        ) {
            let run = |allocs: &[u64]| {
                let b = broker(GB);
                let clerks: Vec<_> = allocs
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        b.register(match i % 3 {
                            0 => SubcomponentKind::BufferPool,
                            1 => SubcomponentKind::Compilation,
                            _ => SubcomponentKind::Execution,
                        })
                    })
                    .collect();
                for (c, a) in clerks.iter().zip(allocs.iter()) {
                    c.allocate(*a);
                }
                b.recalculate(SimTime::from_secs(1))
                    .iter()
                    .map(|d| (d.notification.kind, d.notification.target_bytes))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(run(&allocs), run(&allocs));
        }

        #[test]
        fn prop_recalculate_into_matches_recalculate_and_the_kind_queries(
            steps in proptest::collection::vec(
                proptest::collection::vec(0u64..600_000_000u64, 4..5),
                1..6,
            ),
            total_mb in 256u64..4096u64,
        ) {
            // Two brokers fed identically: one through the allocating
            // wrapper, one through a reused buffer. Every tick's decisions
            // must agree, and reading targets and predictions off them must
            // agree with the lock-taking per-kind queries.
            let kinds = [
                SubcomponentKind::BufferPool,
                SubcomponentKind::Compilation,
                SubcomponentKind::Execution,
                SubcomponentKind::Fixed,
            ];
            let a = broker(total_mb * MB);
            let b = broker(total_mb * MB);
            let ca: Vec<_> = kinds.iter().map(|k| a.register(*k)).collect();
            let cb: Vec<_> = kinds.iter().map(|k| b.register(*k)).collect();
            let mut reused = Vec::new();
            for (tick, allocs) in steps.iter().enumerate() {
                for (i, bytes) in allocs.iter().enumerate() {
                    ca[i].free(ca[i].used_bytes());
                    cb[i].free(cb[i].used_bytes());
                    ca[i].allocate(*bytes);
                    cb[i].allocate(*bytes);
                }
                let now = SimTime::from_secs(5 * (tick as u64 + 1));
                let fresh = a.recalculate(now);
                b.recalculate_into(now, &mut reused);
                prop_assert_eq!(&fresh, &reused);
                for kind in SubcomponentKind::ALL {
                    prop_assert_eq!(b.target_in(&reused, kind), b.target_for_kind(kind));
                    prop_assert_eq!(
                        MemoryBroker::predicted_in(&reused, kind),
                        b.predicted_by_kind(kind)
                    );
                }
            }
        }
    }
}
