//! Per-clerk accounting kept inside the broker.
//!
//! The broker holds one [`ClerkAccount`] per registered clerk: its live
//! bytes, the trend estimator fed on every recalculation, the target last
//! installed, and the last verdict sent so that reports can show
//! notification churn.

use crate::clerk::SubcomponentKind;
use crate::notification::NotificationKind;
use crate::trend::TrendEstimator;
use throttledb_sim::{SimDuration, SimTime};

/// Broker-side record for one registered clerk.
#[derive(Debug, Clone)]
pub struct ClerkAccount {
    kind: SubcomponentKind,
    /// Live bytes.
    pub(crate) used: u64,
    /// Bytes ever allocated.
    pub(crate) allocated: u64,
    /// The target installed by the last recalculation.
    pub(crate) target: Option<u64>,
    trend: TrendEstimator,
    last_verdict: Option<NotificationKind>,
    verdict_changes: u64,
}

impl ClerkAccount {
    /// An empty account for a `kind` clerk with a trend window of
    /// `trend_window` samples.
    pub(crate) fn new(kind: SubcomponentKind, trend_window: usize) -> Self {
        ClerkAccount {
            kind,
            used: 0,
            allocated: 0,
            target: None,
            trend: TrendEstimator::new(trend_window),
            last_verdict: None,
            verdict_changes: 0,
        }
    }

    /// The subcomponent kind this account is for.
    pub fn kind(&self) -> SubcomponentKind {
        self.kind
    }

    /// Live bytes.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Total bytes ever allocated.
    pub fn total_allocated(&self) -> u64 {
        self.allocated
    }

    /// The target the last recalculation installed, if any. A target of 0
    /// reads as none.
    pub fn target_bytes(&self) -> Option<u64> {
        self.target.filter(|&t| t > 0)
    }

    /// Record a usage sample at `now` and return the live usage observed.
    pub fn sample(&mut self, now: SimTime) -> u64 {
        self.trend.record(now, self.used);
        self.used
    }

    /// Predicted usage `horizon` into the future given the recorded trend.
    pub fn predict(&self, horizon: SimDuration) -> u64 {
        // If no sample was ever recorded, fall back to the live value so a
        // clerk that registered between recalculations is still accounted.
        if self.trend.is_empty() {
            self.used
        } else {
            self.trend.predict(horizon)
        }
    }

    /// Record the verdict sent to this clerk, tracking changes for reports.
    pub fn set_verdict(&mut self, verdict: NotificationKind) {
        if self.last_verdict != Some(verdict) {
            self.verdict_changes += 1;
        }
        self.last_verdict = Some(verdict);
    }

    /// The last verdict sent, if any.
    pub fn last_verdict(&self) -> Option<NotificationKind> {
        self.last_verdict
    }

    /// How many times the verdict has changed — a proxy for the "wild
    /// swings" the paper says the broker is meant to dampen.
    pub fn verdict_changes(&self) -> u64 {
        self.verdict_changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account() -> ClerkAccount {
        ClerkAccount::new(SubcomponentKind::Compilation, 8)
    }

    #[test]
    fn sample_reads_live_usage() {
        let mut a = account();
        a.used = 500;
        assert_eq!(a.sample(SimTime::from_secs(1)), 500);
        a.used = 1000;
        assert_eq!(a.sample(SimTime::from_secs(2)), 1000);
    }

    #[test]
    fn predict_without_samples_uses_live_value() {
        let mut a = account();
        a.used = 750;
        assert_eq!(a.predict(SimDuration::from_secs(10)), 750);
    }

    #[test]
    fn predict_extrapolates_growth() {
        let mut a = account();
        for s in 1..=5u64 {
            a.used += 1000;
            a.sample(SimTime::from_secs(s));
        }
        // Growing 1000 bytes/second; prediction 10 s out should far exceed
        // the current 5000 bytes.
        assert!(a.predict(SimDuration::from_secs(10)) > 10_000);
    }

    #[test]
    fn verdict_changes_are_counted() {
        let mut a = account();
        assert_eq!(a.last_verdict(), None);
        a.set_verdict(NotificationKind::Grow);
        a.set_verdict(NotificationKind::Grow);
        a.set_verdict(NotificationKind::Shrink);
        a.set_verdict(NotificationKind::Grow);
        assert_eq!(a.verdict_changes(), 3);
        assert_eq!(a.last_verdict(), Some(NotificationKind::Grow));
    }
}
