//! The trend estimator's O(1) fit against the f64 loop it replaces.
//!
//! `TrendEstimator::slope_bytes_per_sec` reads its slope off exact integer
//! running sums whenever they provably equal the loop's `f64` sums, and
//! runs the loop otherwise. These tests drive it next to a model of its
//! window and check, after every step:
//!
//! * the slope is the loop's, bit for bit, and so is the prediction;
//! * the loop itself is the reference loop below, bit for bit;
//! * the exact path is taken exactly when the model says the sums are
//!   exact — every gap in the window the same whole number m of 1/64 s,
//!   and Σx, Σx², Σy and Σx·y, counted in units of 2^-6, 2^-12, 1 and
//!   2^-6 (m·Σk, m²·Σk², Σy and m·Σk·y), each at most 2^53.

use proptest::prelude::*;
use std::collections::VecDeque;
use throttledb_membroker::trend::TrendEstimator;
use throttledb_sim::{SimDuration, SimTime};

const SEC: u64 = 1_000_000;
const P53: u64 = 1 << 53;

/// The least-squares loop as the estimator had it before the integer sums,
/// written out again here as the oracle.
fn reference_slope(window: &VecDeque<(SimTime, u64)>) -> f64 {
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

/// The prediction `predict` makes from a given slope.
fn reference_predict(window: &VecDeque<(SimTime, u64)>, horizon: SimDuration) -> u64 {
    let Some(&(_, current)) = window.back() else {
        return 0;
    };
    let slope = reference_slope(window);
    if slope <= 0.0 {
        return current;
    }
    let predicted = current as f64 + slope * horizon.as_secs_f64();
    predicted.max(current as f64).min(u64::MAX as f64) as u64
}

/// One step of the cadence grid, 1/64 s.
const GRID: u64 = 15_625;

/// Whether the window's integer sums are the loop's `f64` sums.
fn model_is_exact(window: &VecDeque<(SimTime, u64)>) -> bool {
    let times: Vec<u64> = window.iter().map(|s| s.0.as_micros()).collect();
    let gap = match times.as_slice() {
        [first, second, ..] => second.checked_sub(*first),
        _ => Some(0),
    };
    let Some(gap) = gap else {
        return false;
    };
    if gap % GRID != 0
        || times
            .windows(2)
            .any(|w| w[1].checked_sub(w[0]) != Some(gap))
    {
        return false;
    }
    let m = u128::from(gap / GRID);
    let (mut x_sum, mut xx, mut y_sum, mut xy) = (0u128, 0u128, 0u128, 0u128);
    for (k, &(_, y)) in window.iter().enumerate() {
        let (x, y) = (m * k as u128, u128::from(y));
        x_sum += x;
        xx += x * x;
        y_sum += y;
        xy += x * y;
    }
    let limit = u128::from(P53);
    x_sum <= limit && xx <= limit && y_sum <= limit && xy <= limit
}

/// An estimator and a model of its window, stepped together.
struct Pair {
    estimator: TrendEstimator,
    model: VecDeque<(SimTime, u64)>,
    window: usize,
}

impl Pair {
    fn new(window: usize) -> Self {
        Pair {
            estimator: TrendEstimator::new(window),
            model: VecDeque::new(),
            window,
        }
    }

    fn record(&mut self, at: SimTime, bytes: u64) {
        self.estimator.record(at, bytes);
        if self.model.len() == self.window {
            self.model.pop_front();
        }
        self.model.push_back((at, bytes));
        self.check();
    }

    fn reset(&mut self) {
        self.estimator.reset();
        self.model.clear();
        self.check();
    }

    fn check(&self) {
        let e = &self.estimator;
        let reference = reference_slope(&self.model);
        assert_eq!(
            e.slope_by_loop().to_bits(),
            reference.to_bits(),
            "loop drifted from the reference on {:?}",
            self.model
        );
        assert_eq!(
            e.slope_bytes_per_sec().to_bits(),
            reference.to_bits(),
            "slope {} against the loop's {reference} on {:?}",
            e.slope_bytes_per_sec(),
            self.model
        );
        assert_eq!(
            e.fit_is_exact(),
            model_is_exact(&self.model),
            "exact-path choice on {:?}",
            self.model
        );
        for horizon in [
            SimDuration::from_secs(10),
            SimDuration::from_micros(2_500_001),
        ] {
            assert_eq!(
                e.predict(horizon),
                reference_predict(&self.model, horizon),
                "prediction on {:?}",
                self.model
            );
        }
    }
}

#[test]
fn the_exact_path_runs_up_to_two_to_the_53rd_inclusive() {
    // Σy = 2^53: exact. One more byte: the loop.
    for (bytes, exact) in [(P53, true), (P53 - 1, true), (P53 + 1, false)] {
        // The large sample sits at the front, so Σx·y stays 0.
        let mut p = Pair::new(4);
        p.record(SimTime::from_secs(3), bytes);
        p.record(SimTime::from_secs(8), 0);
        assert_eq!(p.estimator.fit_is_exact(), exact, "Σy = {bytes}");
    }
    // Two steps apart, Σx·y counts 2·bytes units of 2^-6: 2^53 with
    // Σy = 2^52 is exact, 2^53 + 2 is not.
    for (bytes, exact) in [(P53 / 2, true), (P53 / 2 + 1, false)] {
        let mut p = Pair::new(4);
        p.record(SimTime::from_secs(3), 0);
        p.record(SimTime::from_micros(3 * SEC + 2 * GRID), bytes);
        assert_eq!(p.estimator.fit_is_exact(), exact, "Σx·y = 2·{bytes}");
    }
    // Two samples m steps apart put Σx² at m² units of 2^-12: the largest
    // m with m² ≤ 2^53 is exact, the next is not.
    const ROOT: u64 = 94_906_265;
    const _: () = assert!(ROOT * ROOT <= P53 && (ROOT + 1) * (ROOT + 1) > P53);
    for (steps, exact) in [(ROOT, true), (ROOT + 1, false)] {
        let mut p = Pair::new(2);
        p.record(SimTime::ZERO, 0);
        p.record(SimTime::from_micros(steps * GRID), 0);
        assert_eq!(p.estimator.fit_is_exact(), exact, "Σx² = {steps}²");
        // The front leaves; the window is one step wide.
        p.record(SimTime::from_micros((steps + 1) * GRID), 0);
        assert!(p.estimator.fit_is_exact(), "re-anchored below 2^53");
    }
}

#[test]
fn off_grid_samples_take_the_loop_until_they_leave() {
    let mut p = Pair::new(3);
    // An off-grid start is fine: offsets count from the front.
    p.record(SimTime::from_micros(500_000), 100);
    p.record(SimTime::from_micros(1_500_000), 300);
    assert!(p.estimator.fit_is_exact());
    p.record(SimTime::from_micros(1_700_000), 700);
    assert!(!p.estimator.fit_is_exact());
    // Now the front is 1.5 s: the gaps, 0.2 s and 1 s, differ.
    p.record(SimTime::from_micros(2_700_000), 900);
    assert!(!p.estimator.fit_is_exact());
    // Front 1.7 s: one 1 s cadence.
    p.record(SimTime::from_micros(3_700_000), 1_000);
    assert!(p.estimator.fit_is_exact());
    p.reset();
    assert!(p.estimator.fit_is_exact());
    p.record(SimTime::from_micros(3_700_001), 1);
    p.record(SimTime::from_micros(3_700_001), 2);
    assert!(p.estimator.fit_is_exact(), "equal times sit at x = 0");
}

#[test]
fn the_cadence_grid_covers_tick_periods_in_sixty_fourths_of_a_second() {
    // 1.25 s, 2.5 s and 5 s are 80, 160 and 320 steps of 1/64 s: the O(1)
    // path runs. 0.1 s and 3.3 s (6.4 and 211.2 steps) run the loop.
    let periods = [
        (1_250_000, true),
        (2_500_000, true),
        (5 * SEC, true),
        (100_000, false),
        (3_300_000, false),
    ];
    for (period, exact) in periods {
        let mut p = Pair::new(16);
        for tick in 0..48u64 {
            // A compilation clerk's day: flat stretches (the O(1) path's
            // slope-0 shortcut), ramps and a release.
            let bytes = match tick % 12 {
                0..=3 => 512 << 20,
                4..=10 => (512 << 20) + tick * (3 << 20) + (tick * tick) % 977,
                _ => 96 << 20,
            };
            p.record(SimTime::from_micros(7 * SEC + tick * period), bytes);
            if p.model.len() >= 2 {
                assert_eq!(
                    p.estimator.fit_is_exact(),
                    exact,
                    "period {period} µs, tick {tick}"
                );
            }
        }
    }
}

/// Out-of-order samples, which only a release build accepts, break the
/// cadence until they leave the window.
#[cfg(not(debug_assertions))]
#[test]
fn an_out_of_order_sample_breaks_the_cadence() {
    let mut p = Pair::new(4);
    for secs in [10, 15, 20, 15, 20] {
        p.record(SimTime::from_secs(secs), secs * 100);
    }
    assert!(!p.estimator.fit_is_exact(), "gaps 5, −5, 5");
    for secs in [25, 30, 35] {
        p.record(SimTime::from_secs(secs), secs * 100);
    }
    assert!(p.estimator.fit_is_exact(), "the descent has left");
}

/// A generated time gap in microseconds, by kind.
fn gap(kind: u8, r: u64) -> u64 {
    match kind {
        // Equal times.
        0 => 0,
        // The broker's own cadence, and a quarter-second one.
        1 => 5 * SEC,
        2 => 1_250_000,
        // Whole steps of the grid, up to a day.
        3 => (r % (86_400 * 64)) * GRID,
        // Mostly off the grid.
        4 => r % (10 * SEC),
        // Far apart: drives Σx² past 2^53.
        _ => (r % (1 << 28)) * SEC,
    }
}

/// A generated byte count, by kind: zero, small, one fixed value,
/// 2^53 − 1 … 2^53 + 1, large, or anything.
fn bytes(kind: u8, r: u64) -> u64 {
    match kind {
        0 => 0,
        1 => r % (1 << 34),
        // A flat window: the slope-0 shortcut.
        2 => 3 << 30,
        3 => P53 - 1 + r % 3,
        4 => r % (1 << 50),
        _ => r,
    }
}

proptest! {
    #[test]
    fn prop_exact_fit_matches_the_loop_bit_for_bit(
        window in 2usize..33,
        start in (0u64..4, 0u64..u64::MAX),
        steps in proptest::collection::vec((0u8..8, 0u8..6, 0u64..u64::MAX, 0u8..40), 1..120),
    ) {
        let mut p = Pair::new(window);
        // Start on the grid, half a second off it, or anywhere.
        let mut now = match start.0 {
            0 => 0,
            1 => 500_000,
            2 => (start.1 % 1_000_000) * SEC,
            _ => start.1 % (1 << 40),
        };
        // Kinds 6 and 7 repeat the last gap: a cadence, on the grid or off.
        let mut last_gap = 5 * SEC;
        for &(gap_kind, bytes_kind, r, reset) in &steps {
            if reset == 0 {
                p.reset();
                continue;
            }
            if gap_kind < 6 {
                last_gap = gap(gap_kind, r);
            }
            now = now.saturating_add(last_gap);
            p.record(SimTime::from_micros(now), bytes(bytes_kind, r.rotate_left(17)));
        }
    }

    #[test]
    fn prop_sums_crossing_two_to_the_53rd_come_back_exact(
        window in 2usize..33,
        spikes in proptest::collection::vec((0u64..200, 0u8..4), 1..6),
        tail in 1usize..40,
    ) {
        // A steady ramp on the broker's 5 s cadence, with spikes that push a
        // sum past 2^53 and then leave the window.
        let mut p = Pair::new(window);
        let mut now = 0;
        for &(len, kind) in &spikes {
            for i in 0..len {
                now += 5 * SEC;
                p.record(SimTime::from_micros(now), 1_000_000 + i * 4_096);
            }
            now += 5 * SEC;
            let spike = match kind {
                0 => P53,
                1 => P53 + 1,
                2 => P53 / 4,
                _ => u64::MAX,
            };
            p.record(SimTime::from_micros(now), spike);
        }
        for i in 0..(window + tail) as u64 {
            now += 5 * SEC;
            p.record(SimTime::from_micros(now), 2_000_000 + i);
        }
        prop_assert!(p.estimator.fit_is_exact(), "a settled ramp is exact again");
    }
}
