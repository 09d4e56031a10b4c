//! Trend estimation over recent memory-usage samples.
//!
//! The paper's broker "monitors the total memory usage of each subcomponent
//! and predicts future memory usage by identifying trends". We implement the
//! prediction as an ordinary least-squares line fit over a sliding window of
//! `(time, bytes)` samples, extrapolated to a configurable horizon. The fit
//! is clamped to be non-negative and to never predict *below* the current
//! usage when the trend is downward-but-noisy — a consumer that is flat
//! should be predicted flat, not shrinking, so the broker stays conservative.
//!
//! The fit is O(1) per call. The broker samples on a fixed cadence, so the
//! sample k places behind the window's front sits at x = k·g, g the gap.
//! The estimator keeps Σy and Σk·y as exact integers, updated on each push
//! and pop; Σk and Σk² are closed forms of the sample count. When every gap
//! is the same whole number of 1/64 s (15 625 µs), each x the f64 loop
//! ([`TrendEstimator::slope_by_loop`]) computes is a multiple of 2^-6, and
//! while each of its sums, in units of the grid, is at most 2^53 the loop
//! adds without rounding: the slope then comes from the integers through
//! the loop's own closing expression, bit for bit, and a window of equal
//! samples has slope 0 with no f64 work. Any other window — a cadence off
//! the grid, uneven gaps, sums past 2^53 — runs the loop.

use std::collections::VecDeque;
use throttledb_sim::{SimDuration, SimTime};

/// 2^53: every integer up to it is an `f64`.
const EXACT_LIMIT: u128 = 1 << 53;

/// The most samples whose sums provably fit a `u128`: k stays below 2^20
/// and y below 2^64, so 2^20 terms of k·y stay below 2^104.
const EXACT_MAX_SAMPLES: usize = 1 << 20;

/// The grid, 1/64 s in microseconds: a gap of m grid steps puts the
/// sample k places behind the front at x = k·m / 64 seconds exactly.
const GRID_MICROS: u64 = 15_625;

/// The loop's Σx and Σx·y count units of 2^-6, its Σx² units of 2^-12.
const X_UNIT: f64 = 1.0 / 64.0;
const XX_UNIT: f64 = 1.0 / 4096.0;

/// A sliding-window least-squares estimator of a clerk's memory usage.
#[derive(Debug, Clone)]
pub struct TrendEstimator {
    window: usize,
    samples: VecDeque<(SimTime, u64)>,
    /// Σy over the window. Wrapping arithmetic keeps both sums exact
    /// modulo 2^128, and so exact outright (see [`EXACT_MAX_SAMPLES`]).
    sum_y: u128,
    /// Σk·y, k the sample's position from the front.
    sum_ky: u128,
    /// The gap between the two newest samples, in microseconds.
    gap: u64,
    /// Trailing gaps equal to `gap`, counted past the front: the window is
    /// on one cadence when this covers all of its gaps.
    cadence: usize,
    /// Trailing samples holding the newest sample's bytes, likewise.
    flat: usize,
    shape: Shape,
}

/// What the fit takes from the window's x values alone: functions of the
/// sample count and the gap, so a full window on a steady cadence
/// computes them once.
#[derive(Debug, Clone, Copy, Default)]
struct Shape {
    n: usize,
    gap: u64,
    /// The gap in grid steps, when it is a whole number of them and Σx and
    /// Σx² are each at most 2^53 units; `u64::MAX` otherwise.
    steps: u64,
    /// Σx and Σx², in seconds and square seconds.
    sum_t: f64,
    sum_tt: f64,
}

impl Shape {
    fn of(n: usize, gap: u64) -> Shape {
        let mut shape = Shape::default();
        (shape.n, shape.gap, shape.steps) = (n, gap, u64::MAX);
        let steps = match n {
            0 | 1 => 0,
            _ if gap % GRID_MICROS == 0 => gap / GRID_MICROS,
            _ => return shape,
        };
        // Past 2^27 steps, m²·Σk² exceeds 2^53 (Σk² ≥ 1 from two samples).
        if n > EXACT_MAX_SAMPLES || steps > 1 << 27 {
            return shape;
        }
        let (m, n128) = (u128::from(steps), n as u128);
        // Σk and Σk² over k = 0 … n − 1.
        let k = n128 * n128.saturating_sub(1) / 2;
        let kk = k * (2 * n128).saturating_sub(1) / 3;
        let (x, xx) = (m * k, m * m * kk);
        if x <= EXACT_LIMIT && xx <= EXACT_LIMIT {
            // At most 2^53 units of a power of two: exact in `f64`.
            shape.sum_t = x as u64 as f64 * X_UNIT;
            shape.sum_tt = xx as u64 as f64 * XX_UNIT;
            shape.steps = steps;
        }
        shape
    }
}

/// The closing expression of the least-squares fit, shared by both paths.
fn least_squares_slope(n: f64, sum_t: f64, sum_y: f64, sum_tt: f64, sum_ty: f64) -> f64 {
    let denom = n * sum_tt - sum_t * sum_t;
    if denom.abs() < 1e-12 {
        // All samples at the same instant: no usable slope.
        return 0.0;
    }
    (n * sum_ty - sum_t * sum_y) / denom
}

impl TrendEstimator {
    /// Create an estimator keeping the most recent `window` samples.
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "trend window must keep at least two samples");
        TrendEstimator {
            window,
            samples: VecDeque::with_capacity(window),
            sum_y: 0,
            sum_ky: 0,
            gap: 0,
            cadence: 0,
            flat: 0,
            shape: Shape::default(),
        }
    }

    /// Record a usage sample. Samples must arrive in non-decreasing time
    /// order (the broker samples on its own recalculation schedule).
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        if let Some(&(last, last_bytes)) = self.samples.back() {
            debug_assert!(last <= at, "trend samples must be time-ordered");
            if self.samples.len() == self.window {
                let (_, front) = self.samples.pop_front().expect("a full window");
                // Every sample left moves one place toward the front.
                self.sum_y = self.sum_y.wrapping_sub(u128::from(front));
                self.sum_ky = self.sum_ky.wrapping_sub(self.sum_y);
            }
            match at.as_micros().checked_sub(last.as_micros()) {
                Some(gap) if gap == self.gap => self.cadence += 1,
                Some(gap) => (self.gap, self.cadence) = (gap, 1),
                // Out of order, which only a release build accepts.
                None => self.cadence = 0,
            }
            self.flat = if bytes == last_bytes { self.flat } else { 0 } + 1;
        } else {
            // An empty window's sums are 0.
            (self.cadence, self.flat) = (0, 1);
        }
        let k = self.samples.len() as u128;
        self.sum_y = self.sum_y.wrapping_add(u128::from(bytes));
        self.sum_ky = self.sum_ky.wrapping_add(k.wrapping_mul(u128::from(bytes)));
        self.samples.push_back((at, bytes));
        let n = self.samples.len();
        if (self.shape.n, self.shape.gap) != (n, self.gap) {
            self.shape = Shape::of(n, self.gap);
        }
    }

    /// The loop's Σx·y in units of 2^-6, when the integer sums are exactly
    /// the loop's: every gap in the window the same m grid steps, and Σx,
    /// Σx², Σy and Σx·y (m·Σk, m²·Σk², Σy and m·Σk·y in units of 2^-6,
    /// 2^-12, 1 and 2^-6) each at most 2^53.
    fn exact_xy(&self) -> Option<u64> {
        let steps = self.shape.steps;
        if self.cadence + 1 < self.samples.len() || steps == u64::MAX || self.sum_y > EXACT_LIMIT {
            return None;
        }
        let xy = match steps {
            0 => 0,
            _ => u64::try_from(self.sum_ky).ok()?.checked_mul(steps)?,
        };
        (u128::from(xy) <= EXACT_LIMIT).then_some(xy)
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<(SimTime, u64)> {
        self.samples.back().copied()
    }

    /// Estimated allocation rate in bytes per second (the slope of the
    /// fitted line). Returns 0.0 with fewer than two samples.
    ///
    /// Always equal, bit for bit, to [`TrendEstimator::slope_by_loop`]; it
    /// runs that loop only when [`TrendEstimator::fit_is_exact`] is false.
    pub fn slope_bytes_per_sec(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let Some(xy) = self.exact_xy() else {
            return self.slope_by_loop();
        };
        if self.flat >= n {
            // y ≡ c: the loop's numerator n·(c·Σx) − Σx·(n·c) rounds one
            // real number twice the same way, so it is +0, and its
            // denominator is positive or the slope is 0 anyway.
            return 0.0;
        }
        // Σy and Σx·y are at most 2^53 units of a power of two, so they
        // convert to `f64` exactly — the values the loop's sums reach.
        let Shape { sum_t, sum_tt, .. } = self.shape;
        let sum_y = self.sum_y as u64 as f64;
        least_squares_slope(n as f64, sum_t, sum_y, sum_tt, xy as f64 * X_UNIT)
    }

    /// True when the integer sums are exactly the loop's: every gap in the
    /// window is the same whole number of 1/64 s, and Σx, Σx², Σy and
    /// Σx·y, in units of 2^-6, 2^-12, 1 and 2^-6, are each at most 2^53.
    pub fn fit_is_exact(&self) -> bool {
        self.exact_xy().is_some()
    }

    /// The reference fit: least squares over `(t_i, y_i)` accumulated in
    /// `f64`, with t in seconds relative to the first sample to keep the
    /// numbers well-conditioned. [`TrendEstimator::slope_bytes_per_sec`]
    /// falls back to it where the integer sums cannot be shown exact.
    pub fn slope_by_loop(&self) -> f64 {
        let Some(&(t0, _)) = self.samples.front() else {
            return 0.0;
        };
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mut sum_t = 0.0;
        let mut sum_y = 0.0;
        let mut sum_tt = 0.0;
        let mut sum_ty = 0.0;
        for (t, y) in &self.samples {
            let x = t.saturating_since(t0).as_secs_f64();
            let y = *y as f64;
            sum_t += x;
            sum_y += y;
            sum_tt += x * x;
            sum_ty += x * y;
        }
        least_squares_slope(self.samples.len() as f64, sum_t, sum_y, sum_tt, sum_ty)
    }

    /// Predict usage `horizon` after the latest sample.
    ///
    /// The prediction is `max(current, fit(now + horizon))` clamped at zero:
    /// the broker should react to growth early but should not assume memory
    /// will come back on its own.
    pub fn predict(&self, horizon: SimDuration) -> u64 {
        let Some((_, current)) = self.latest() else {
            return 0;
        };
        let slope = self.slope_bytes_per_sec();
        if slope <= 0.0 {
            return current;
        }
        let extra = slope * horizon.as_secs_f64();
        let predicted = current as f64 + extra;
        predicted.max(current as f64).min(u64::MAX as f64) as u64
    }

    /// Forget all samples (used when a subcomponent resets, e.g. the plan
    /// cache is flushed).
    pub fn reset(&mut self) {
        self.samples.clear();
        (self.sum_y, self.sum_ky) = (0, 0);
        self.shape = Shape::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_estimator_predicts_zero() {
        let e = TrendEstimator::new(8);
        assert!(e.is_empty());
        assert_eq!(e.predict(SimDuration::from_secs(10)), 0);
        assert_eq!(e.slope_bytes_per_sec(), 0.0);
    }

    #[test]
    fn single_sample_predicts_current() {
        let mut e = TrendEstimator::new(8);
        e.record(t(1), 500);
        assert_eq!(e.predict(SimDuration::from_secs(100)), 500);
    }

    #[test]
    fn linear_growth_is_extrapolated() {
        let mut e = TrendEstimator::new(8);
        // 100 bytes per second.
        for s in 0..5 {
            e.record(t(s), s * 100);
        }
        let slope = e.slope_bytes_per_sec();
        assert!((slope - 100.0).abs() < 1e-6, "slope {slope}");
        // Latest usage is 400; 10 seconds ahead should be ~1400.
        let p = e.predict(SimDuration::from_secs(10));
        assert!((1350..=1450).contains(&p), "prediction {p}");
    }

    #[test]
    fn shrinking_usage_predicts_current_not_lower() {
        let mut e = TrendEstimator::new(8);
        for s in 0..5 {
            e.record(t(s), 1000 - s * 100);
        }
        assert!(e.slope_bytes_per_sec() < 0.0);
        assert_eq!(e.predict(SimDuration::from_secs(10)), 600);
    }

    #[test]
    fn window_drops_old_samples() {
        let mut e = TrendEstimator::new(3);
        // Old history is flat, recent history grows steeply; with a window of
        // 3 the prediction should follow the steep recent slope.
        for s in 0..10 {
            e.record(t(s), 100);
        }
        e.record(t(10), 1000);
        e.record(t(11), 2000);
        e.record(t(12), 3000);
        assert_eq!(e.len(), 3);
        let p = e.predict(SimDuration::from_secs(1));
        assert!(
            p >= 3900,
            "window should expose the steep recent trend, got {p}"
        );
    }

    #[test]
    fn simultaneous_samples_do_not_divide_by_zero() {
        let mut e = TrendEstimator::new(4);
        e.record(t(5), 100);
        e.record(t(5), 300);
        assert_eq!(e.slope_bytes_per_sec(), 0.0);
        assert_eq!(e.predict(SimDuration::from_secs(5)), 300);
    }

    #[test]
    fn reset_clears_history() {
        let mut e = TrendEstimator::new(4);
        e.record(t(1), 100);
        e.reset();
        assert!(e.is_empty());
        assert_eq!(e.predict(SimDuration::from_secs(1)), 0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_window_rejected() {
        let _ = TrendEstimator::new(1);
    }
}
