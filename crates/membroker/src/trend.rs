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
//! The fit is O(1) per call. The estimator keeps exact integer running sums
//! Σx, Σx², Σy and Σx·y over its window, with x the whole seconds since the
//! window's front sample. When every sample lies on that whole-second grid
//! and every sum is at most 2^53, the f64 loop
//! ([`TrendEstimator::slope_by_loop`]) would add only integers of at most
//! 2^53 and so compute these same sums without rounding; the slope then
//! comes from the integers through the loop's own closing expression, bit
//! for bit. In every other case the loop runs, and while the window is off
//! the grid (a cadence that is not whole seconds) the sums are not kept,
//! so such a window costs the loop and no more.

use std::collections::VecDeque;
use throttledb_sim::{SimDuration, SimTime};

/// 2^53: every integer up to it is an `f64`.
const EXACT_LIMIT: u128 = 1 << 53;

/// The most samples whose sums provably fit their integer types: x stays
/// below 2^44 (a `u64` of microseconds in seconds) and y below 2^64, so
/// 2^20 terms of x·y stay below 2^128 and 2^20 of x below 2^64.
const EXACT_MAX_SAMPLES: usize = 1 << 20;

const MICROS_PER_SEC: u64 = 1_000_000;

/// A sliding-window least-squares estimator of a clerk's memory usage.
#[derive(Debug, Clone)]
pub struct TrendEstimator {
    window: usize,
    samples: VecDeque<(SimTime, u64)>,
    sums: GridSums,
}

/// Integer running sums over the window, relative to its front sample:
/// x is the whole seconds since the front, y the sample's bytes. They are
/// kept only while the window is *uniform* — in time order, with every
/// sample a whole number of seconds after the front — and left stale
/// otherwise, to be rebuilt once it is uniform again. Wrapping arithmetic
/// keeps each sum exact modulo its type's range, and so exact outright
/// while the true value fits (see [`EXACT_MAX_SAMPLES`]).
#[derive(Debug, Clone, Default)]
struct GridSums {
    /// Σx².
    xx: u128,
    /// Σy.
    y: u128,
    /// Σx·y.
    xy: u128,
    /// Σx.
    x: u64,
    /// Trailing samples a whole number of seconds apart from the back
    /// sample: the window is on one whole-second grid when this covers all
    /// of it.
    tail: u32,
    /// Adjacent sample pairs that go back in time (out-of-order input,
    /// which only a release build accepts).
    descents: u32,
}

impl GridSums {
    /// Add one sample `x` whole seconds after the front.
    fn add(&mut self, x: u64, bytes: u64) {
        self.x = self.x.wrapping_add(x);
        let (x, y) = (u128::from(x), u128::from(bytes));
        self.xx = self.xx.wrapping_add(x * x);
        self.y = self.y.wrapping_add(y);
        self.xy = self.xy.wrapping_add(x * y);
    }

    /// Move the origin `d` whole seconds later, over the `n` samples left.
    fn shift(&mut self, d: u64, n: usize) {
        let (d, n) = (u128::from(d), n as u128);
        // Σ(x − d)² = Σx² − 2d·Σx + n·d², with the old Σx.
        self.xx = self
            .xx
            .wrapping_add(n.wrapping_mul(d).wrapping_mul(d))
            .wrapping_sub(d.wrapping_mul(2).wrapping_mul(u128::from(self.x)));
        self.x = self.x.wrapping_sub(n.wrapping_mul(d) as u64);
        self.xy = self.xy.wrapping_sub(d.wrapping_mul(self.y));
    }
}

/// Whole seconds from `front` to `at`.
fn secs_since(at: SimTime, front: SimTime) -> u64 {
    at.saturating_since(front).as_micros() / MICROS_PER_SEC
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
            sums: GridSums::default(),
        }
    }

    /// Record a usage sample. Samples must arrive in non-decreasing time
    /// order (the broker samples on its own recalculation schedule).
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        let last = self.samples.back().map(|s| s.0);
        if let Some(last) = last {
            debug_assert!(last <= at, "trend samples must be time-ordered");
        }
        let was_uniform = self.is_uniform();
        if self.samples.len() == self.window {
            self.pop_front(was_uniform);
        }
        let s = &mut self.sums;
        s.tail = match last {
            Some(last) => {
                s.descents += u32::from(at < last);
                // Whole seconds apart: the same offset into the second.
                if at.as_micros().abs_diff(last.as_micros()) % MICROS_PER_SEC == 0 {
                    s.tail + 1
                } else {
                    1
                }
            }
            None => 1,
        };
        self.samples.push_back((at, bytes));
        if self.is_uniform() {
            if was_uniform {
                let front = self.samples.front().expect("non-empty").0;
                self.sums.add(secs_since(at, front), bytes);
            } else {
                self.rebuild();
            }
        }
    }

    /// In time order, every sample whole seconds after the front.
    fn is_uniform(&self) -> bool {
        self.sums.descents == 0 && self.sums.tail as usize == self.samples.len()
    }

    /// Drop the front sample; when the sums are live (`uniform`), re-anchor
    /// them on the new front.
    fn pop_front(&mut self, uniform: bool) {
        let (old, bytes) = self.samples.pop_front().expect("a full window");
        let s = &mut self.sums;
        s.tail = s.tail.min(self.samples.len() as u32);
        if !uniform && s.descents == 0 {
            return;
        }
        let Some(&(front, _)) = self.samples.front() else {
            return;
        };
        s.descents -= u32::from(front < old);
        if uniform {
            // The front sits at x = 0: it contributes to Σy alone.
            s.y = s.y.wrapping_sub(u128::from(bytes));
            s.shift(secs_since(front, old), self.samples.len());
        }
    }

    /// Recompute the sums from the samples, relative to the front.
    fn rebuild(&mut self) {
        let front = self.samples.front().map_or(SimTime::ZERO, |s| s.0);
        let s = &mut self.sums;
        (s.xx, s.y, s.xy, s.x) = (0, 0, 0, 0);
        for &(at, bytes) in &self.samples {
            s.add(secs_since(at, front), bytes);
        }
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
        if self.samples.len() < 2 {
            return 0.0;
        }
        if !self.fit_is_exact() {
            return self.slope_by_loop();
        }
        // Each sum is at most 2^53, so it converts to `f64` exactly — the
        // value the loop's running sum reaches.
        let s = &self.sums;
        least_squares_slope(
            self.samples.len() as f64,
            s.x as f64,
            s.y as u64 as f64,
            s.xx as u64 as f64,
            s.xy as u64 as f64,
        )
    }

    /// True when the integer sums are exactly the loop's: every sample lies
    /// whole seconds after the front sample and Σx, Σx², Σy and Σx·y are
    /// each at most 2^53.
    pub fn fit_is_exact(&self) -> bool {
        let s = &self.sums;
        self.is_uniform()
            && self.samples.len() <= EXACT_MAX_SAMPLES
            && u128::from(s.x) <= EXACT_LIMIT
            && s.xx <= EXACT_LIMIT
            && s.y <= EXACT_LIMIT
            && s.xy <= EXACT_LIMIT
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
        self.sums = GridSums::default();
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
