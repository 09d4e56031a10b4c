//! Dynamic gateway thresholds (§4.1, first extension).
//!
//! "We have made the monitor memory thresholds for the larger gateways
//! dynamic. This is based on the broker memory target. ... The thresholds
//! are computed attempting to divide the overall query compilation target
//! memory across the categories identified by the monitors. For example, the
//! second monitor threshold is computed as `[target] * F / S`, where F and S
//! are respectively the fraction of the target allotted to and the current
//! number of small query compilations."

use crate::config::ThrottleConfig;

/// Computes the effective (possibly lowered) thresholds of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicThresholds;

impl DynamicThresholds {
    /// Compute effective thresholds for every monitor.
    ///
    /// * `config` — the static configuration (fractions `F`, static caps).
    /// * `compilation_target_bytes` — the broker's current target for the
    ///   whole compilation subcomponent (`None` when the system is
    ///   unconstrained → static thresholds apply).
    /// * `category_counts` — number of active compilations per category:
    ///   `category_counts[k]` is the number of compilations currently holding
    ///   exactly `k` gateways (`k = 0` are the exempt/tiny compilations,
    ///   `k = 1` are the "small" queries governed by the first monitor, ...).
    ///
    /// The first monitor threshold is always static (it exists to exempt
    /// diagnostic queries, not to partition the target). For monitor `k ≥ 1`
    /// the dynamic value is `target · F_{k-1} / S` where `S` is the number of
    /// compilations in the category directly below monitor `k` (those holding
    /// exactly `k` gateways — for the medium monitor, the "small query
    /// compilations" of the paper's formula); the effective threshold is the
    /// *minimum* of the static and dynamic values (dynamic thresholds only
    /// ever throttle more aggressively), clamped so the ladder stays strictly
    /// increasing.
    pub fn effective(
        config: &ThrottleConfig,
        compilation_target_bytes: Option<u64>,
        category_counts: &[usize],
    ) -> Vec<u64> {
        let mut out = Vec::new();
        Self::effective_into(config, compilation_target_bytes, category_counts, &mut out);
        out
    }

    /// [`DynamicThresholds::effective`] into a caller-owned buffer (cleared
    /// first), so the ladder's per-report recomputation allocates nothing.
    pub fn effective_into(
        config: &ThrottleConfig,
        compilation_target_bytes: Option<u64>,
        category_counts: &[usize],
        out: &mut Vec<u64>,
    ) {
        out.clear();
        out.extend(config.monitors.iter().map(|m| m.threshold_bytes));
        let Some(target) = compilation_target_bytes else {
            return;
        };
        if !config.dynamic_thresholds {
            return;
        }
        for level in 1..config.monitors.len() {
            let fraction = config.monitors[level - 1].dynamic_fraction;
            let occupants = category_counts.get(level).copied().unwrap_or(0).max(1) as u64;
            let dynamic = ((target as f64 * fraction) / occupants as f64) as u64;
            // Throttle-only: never raise a threshold above its static value,
            // and keep the ladder strictly increasing above the previous level.
            let floor = out[level - 1] + 1;
            out[level] = dynamic
                .min(config.monitors[level].threshold_bytes)
                .max(floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ThrottleConfig {
        ThrottleConfig::paper_machine()
    }

    #[test]
    fn without_target_thresholds_are_static() {
        let c = cfg();
        let t = DynamicThresholds::effective(&c, None, &[10, 0, 0]);
        assert_eq!(t[0], c.monitors[0].threshold_bytes);
        assert_eq!(t[1], c.monitors[1].threshold_bytes);
        assert_eq!(t[2], c.monitors[2].threshold_bytes);
    }

    #[test]
    fn disabled_dynamic_thresholds_stay_static() {
        let mut c = cfg();
        c.dynamic_thresholds = false;
        let t = DynamicThresholds::effective(&c, Some(100 << 20), &[50, 10, 1]);
        assert_eq!(t[1], c.monitors[1].threshold_bytes);
    }

    #[test]
    fn more_small_compilations_lower_the_medium_threshold() {
        let c = cfg();
        let target = Some(200 << 20);
        let few = DynamicThresholds::effective(&c, target, &[0, 2, 0, 0]);
        let many = DynamicThresholds::effective(&c, target, &[0, 30, 0, 0]);
        assert!(
            many[1] < few[1],
            "with more small compilations the medium threshold must drop: {} vs {}",
            many[1],
            few[1]
        );
    }

    #[test]
    fn formula_matches_target_times_fraction_over_count() {
        let c = cfg();
        let target = 400u64 << 20;
        let t = DynamicThresholds::effective(&c, Some(target), &[0, 10, 0, 0]);
        let expected = ((target as f64 * c.monitors[0].dynamic_fraction) / 10.0) as u64;
        // The static cap may kick in; otherwise it is exactly the formula.
        assert_eq!(
            t[1],
            expected.min(c.monitors[1].threshold_bytes).max(t[0] + 1)
        );
    }

    #[test]
    fn dynamic_never_raises_above_static() {
        let c = cfg();
        // Huge target and a single small compilation would suggest a huge
        // dynamic threshold; it must be capped at the static value.
        let t = DynamicThresholds::effective(&c, Some(100 << 30), &[0, 1, 1, 0]);
        assert!(t[1] <= c.monitors[1].threshold_bytes);
        assert!(t[2] <= c.monitors[2].threshold_bytes);
    }

    #[test]
    fn ladder_stays_strictly_increasing() {
        let c = cfg();
        // Tiny target with many occupants would collapse all thresholds to
        // nearly zero; the clamp keeps them ordered.
        let t = DynamicThresholds::effective(&c, Some(1 << 20), &[0, 500, 200, 50]);
        assert!(t[0] < t[1]);
        assert!(t[1] < t[2]);
    }

    #[test]
    fn first_threshold_is_never_dynamic() {
        let c = cfg();
        let t = DynamicThresholds::effective(&c, Some(10 << 20), &[100, 100, 100, 100]);
        assert_eq!(t[0], c.monitors[0].threshold_bytes);
    }
}
