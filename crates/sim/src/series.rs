//! Time-series recorders used to regenerate the paper's figures.
//!
//! Figures 3–5 of the paper plot "completed queries per time slice" against
//! wall-clock seconds; [`TimeSeries`] implements exactly that bucketed
//! counter. Figure 2 plots per-query compilation memory over time;
//! [`GaugeTimeline`] records (time, value) samples of an arbitrary gauge.

use crate::clock::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Counts events into fixed-width time buckets ("slices" in the paper).
///
/// The bucket vector is bounded: events at or beyond bucket
/// `max_buckets` fold into a single saturating overflow bucket instead of
/// growing the vector (an event near [`SimTime::MAX`] — e.g. a timeout
/// scheduled with a saturating deadline — would otherwise demand an
/// astronomical allocation and abort the process).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    bucket_width: SimDuration,
    buckets: Vec<u64>,
    name: String,
    /// Largest number of in-range buckets the vector may grow to.
    max_buckets: usize,
    /// Events recorded at or beyond `max_buckets · bucket_width`
    /// (saturating).
    overflow: u64,
}

/// Default cap on the bucket vector: at one-hour slices this covers about
/// 120 years of virtual time; at one-second slices, about 12 days.
const DEFAULT_MAX_BUCKETS: usize = 1 << 20;

impl TimeSeries {
    /// Create a series with buckets of `bucket_width` and the default
    /// bucket cap.
    pub fn new(name: impl Into<String>, bucket_width: SimDuration) -> Self {
        Self::with_max_buckets(name, bucket_width, DEFAULT_MAX_BUCKETS)
    }

    /// Create a series capped at `max_buckets` in-range buckets; later
    /// events fold into the saturating [`TimeSeries::overflow`] bucket.
    pub fn with_max_buckets(
        name: impl Into<String>,
        bucket_width: SimDuration,
        max_buckets: usize,
    ) -> Self {
        assert!(!bucket_width.is_zero(), "bucket width must be positive");
        assert!(max_buckets > 0, "need at least one bucket");
        TimeSeries {
            bucket_width,
            buckets: Vec::new(),
            name: name.into(),
            max_buckets,
            overflow: 0,
        }
    }

    /// The series name (used when printing figure data).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Width of one bucket.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket_width
    }

    /// Record one event at time `t`.
    pub fn record(&mut self, t: SimTime) {
        self.record_n(t, 1);
    }

    /// Record `n` events at time `t`. Events past the bucket cap land in
    /// the saturating overflow bucket.
    pub fn record_n(&mut self, t: SimTime, n: u64) {
        let idx = (t.as_micros() / self.bucket_width.as_micros()) as usize;
        if idx >= self.max_buckets {
            self.overflow = self.overflow.saturating_add(n);
            return;
        }
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
    }

    /// Number of in-range buckets with data (including interior zero
    /// buckets; the overflow bucket is not counted).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when nothing has been recorded (overflow included).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty() && self.overflow == 0
    }

    /// The configured cap on in-range buckets.
    pub fn max_buckets(&self) -> usize {
        self.max_buckets
    }

    /// Events recorded at or beyond the bucket cap (saturating). These are
    /// excluded from [`TimeSeries::iter`] and the per-bucket means but are
    /// part of [`TimeSeries::total`].
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The count in bucket `idx` (0 if past the end).
    pub fn bucket(&self, idx: usize) -> u64 {
        self.buckets.get(idx).copied().unwrap_or(0)
    }

    /// Iterate `(bucket_start_time, count)` pairs over the in-range
    /// buckets (the overflow bucket has no single start time and is
    /// excluded; read it via [`TimeSeries::overflow`]).
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        let w = self.bucket_width;
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, c)| (SimTime::from_micros(i as u64 * w.as_micros()), *c))
    }

    /// Total events across all buckets, overflow included (saturating).
    pub fn total(&self) -> u64 {
        self.buckets
            .iter()
            .sum::<u64>()
            .saturating_add(self.overflow)
    }

    /// Total events recorded at or after `from` (used to drop the warm-up
    /// period, as the paper does). Overflow events all lie at or beyond the
    /// bucket cap, so they count whenever `from` is at or below it.
    pub fn total_from(&self, from: SimTime) -> u64 {
        let in_range: u64 = self
            .iter()
            .filter(|(t, _)| *t >= from)
            .map(|(_, c)| c)
            .sum();
        let cap_start = (self.max_buckets as u64).saturating_mul(self.bucket_width.as_micros());
        if from.as_micros() <= cap_start {
            in_range + self.overflow
        } else {
            in_range
        }
    }

    /// Mean events per bucket over in-range buckets starting at or after
    /// `from` (the overflow bucket is excluded: it has no defined width).
    /// Accumulates in one streaming pass (no intermediate vector).
    pub fn mean_per_bucket_from(&self, from: SimTime) -> f64 {
        let (mut sum, mut buckets) = (0u64, 0u64);
        for (t, c) in self.iter() {
            if t >= from {
                sum += c;
                buckets += 1;
            }
        }
        if buckets == 0 {
            0.0
        } else {
            sum as f64 / buckets as f64
        }
    }
}

/// Records `(time, value)` samples of a gauge such as a task's allocated
/// bytes or the buffer pool size.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GaugeTimeline {
    name: String,
    samples: Vec<(SimTime, u64)>,
}

impl GaugeTimeline {
    /// Create an empty timeline.
    pub fn new(name: impl Into<String>) -> Self {
        GaugeTimeline {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// The timeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record a sample. Samples may repeat a timestamp (e.g. a block and an
    /// unblock at the same instant); they are kept in insertion order.
    pub fn record(&mut self, t: SimTime, value: u64) {
        debug_assert!(
            self.samples.last().map_or(true, |(last, _)| *last <= t),
            "gauge samples must be recorded in time order"
        );
        self.samples.push((t, value));
    }

    /// All samples in time order.
    pub fn samples(&self) -> &[(SimTime, u64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The maximum value observed, or 0 if empty.
    pub fn max_value(&self) -> u64 {
        self.samples.iter().map(|(_, v)| *v).max().unwrap_or(0)
    }

    /// The value in effect at time `t` (last sample at or before `t`).
    pub fn value_at(&self, t: SimTime) -> Option<u64> {
        self.samples
            .iter()
            .take_while(|(st, _)| *st <= t)
            .last()
            .map(|(_, v)| *v)
    }

    /// The longest span during which the value did not change ("flat
    /// portions" in the paper's Figure 2 correspond to blocked compilations).
    pub fn longest_plateau(&self) -> SimDuration {
        let mut best = SimDuration::ZERO;
        let mut i = 0;
        while i < self.samples.len() {
            let (start, v) = self.samples[i];
            let mut j = i + 1;
            let mut end = start;
            while j < self.samples.len() && self.samples[j].1 == v {
                end = self.samples[j].0;
                j += 1;
            }
            best = best.max(end.saturating_since(start));
            i = j.max(i + 1);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice() -> SimDuration {
        SimDuration::from_secs(3600)
    }

    #[test]
    fn records_into_correct_buckets() {
        let mut s = TimeSeries::new("completed", slice());
        s.record(SimTime::from_secs(10));
        s.record(SimTime::from_secs(3599));
        s.record(SimTime::from_secs(3600));
        s.record_n(SimTime::from_secs(7200), 5);
        assert_eq!(s.bucket(0), 2);
        assert_eq!(s.bucket(1), 1);
        assert_eq!(s.bucket(2), 5);
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn total_from_skips_warmup() {
        let mut s = TimeSeries::new("completed", slice());
        s.record_n(SimTime::from_secs(100), 10); // warm-up
        s.record_n(SimTime::from_secs(10_800), 7);
        s.record_n(SimTime::from_secs(14_400), 9);
        assert_eq!(s.total_from(SimTime::from_secs(10_800)), 16);
        assert_eq!(s.total(), 26);
    }

    #[test]
    fn mean_per_bucket_from_averages() {
        let mut s = TimeSeries::new("completed", slice());
        s.record_n(SimTime::from_secs(0), 100);
        s.record_n(SimTime::from_secs(3600), 30);
        s.record_n(SimTime::from_secs(7200), 50);
        let mean = s.mean_per_bucket_from(SimTime::from_secs(3600));
        assert!((mean - 40.0).abs() < 1e-9);
    }

    #[test]
    fn iter_reports_bucket_start_times() {
        let mut s = TimeSeries::new("x", SimDuration::from_secs(10));
        s.record(SimTime::from_secs(25));
        let pts: Vec<_> = s.iter().collect();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2], (SimTime::from_secs(20), 1));
        assert_eq!(pts[0], (SimTime::from_secs(0), 0));
    }

    #[test]
    fn empty_series_is_sane() {
        let s = TimeSeries::new("x", slice());
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
        assert_eq!(s.bucket(3), 0);
        assert_eq!(s.overflow(), 0);
        assert_eq!(s.mean_per_bucket_from(SimTime::ZERO), 0.0);
    }

    #[test]
    fn far_future_event_folds_into_overflow() {
        // Regression: recording at SimTime::MAX used to resize the bucket
        // vector to ~5·10¹² entries and abort the process.
        let mut s = TimeSeries::new("completed", slice());
        s.record(SimTime::from_secs(10));
        s.record(SimTime::MAX);
        assert_eq!(s.overflow(), 1);
        assert_eq!(s.total(), 2);
        assert_eq!(s.len(), 1, "only the in-range bucket materializes");
        assert_eq!(s.total_from(SimTime::ZERO), 2);
        // The overflow bucket has no width, so per-bucket means skip it.
        assert_eq!(s.mean_per_bucket_from(SimTime::ZERO), 1.0);
        assert!(!s.is_empty());
    }

    #[test]
    fn overflow_saturates_and_respects_custom_cap() {
        let mut s = TimeSeries::with_max_buckets("x", SimDuration::from_secs(10), 2);
        assert_eq!(s.max_buckets(), 2);
        s.record(SimTime::from_secs(5)); // bucket 0
        s.record(SimTime::from_secs(15)); // bucket 1
        s.record(SimTime::from_secs(25)); // bucket 2 -> overflow
        s.record_n(SimTime::from_secs(99), u64::MAX); // saturates
        assert_eq!(s.len(), 2);
        assert_eq!(s.overflow(), u64::MAX);
        assert_eq!(s.bucket(0), 1);
        assert_eq!(s.bucket(1), 1);
        // total saturates rather than wrapping past u64::MAX.
        assert_eq!(s.total(), u64::MAX);
        // `from` at the cap start (2 buckets · 10 s = 20 s) drops the two
        // in-range buckets but keeps the overflow, which lies at or beyond
        // the cap.
        assert_eq!(s.total_from(SimTime::from_secs(20)), u64::MAX);
    }

    #[test]
    fn gauge_value_at_finds_latest_sample() {
        let mut g = GaugeTimeline::new("q1-memory");
        g.record(SimTime::from_secs(1), 100);
        g.record(SimTime::from_secs(5), 300);
        g.record(SimTime::from_secs(9), 50);
        assert_eq!(g.value_at(SimTime::from_secs(0)), None);
        assert_eq!(g.value_at(SimTime::from_secs(1)), Some(100));
        assert_eq!(g.value_at(SimTime::from_secs(6)), Some(300));
        assert_eq!(g.value_at(SimTime::from_secs(100)), Some(50));
        assert_eq!(g.max_value(), 300);
    }

    #[test]
    fn gauge_plateau_detects_blocked_span() {
        let mut g = GaugeTimeline::new("q1-memory");
        g.record(SimTime::from_secs(0), 10);
        g.record(SimTime::from_secs(1), 20);
        // blocked at 20 for 30 seconds
        g.record(SimTime::from_secs(5), 20);
        g.record(SimTime::from_secs(31), 20);
        g.record(SimTime::from_secs(32), 40);
        assert_eq!(g.longest_plateau(), SimDuration::from_secs(30));
    }

    #[test]
    fn gauge_empty_defaults() {
        let g = GaugeTimeline::new("empty");
        assert!(g.is_empty());
        assert_eq!(g.max_value(), 0);
        assert_eq!(g.longest_plateau(), SimDuration::ZERO);
    }
}
