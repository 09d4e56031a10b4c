//! The statistics every reported number goes through.

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank index of percentile `p` (0 < p <= 100) in a sorted slice
/// of `n` samples: the smallest index with at least `p` % of the samples at
/// or below it.
pub fn percentile_index(n: usize, p: f64) -> usize {
    assert!(n > 0 && p > 0.0 && p <= 100.0);
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// A percentile together with the support that says how far to trust it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile's nearest-rank index.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the index (a tail percentile is only as good
    /// as this count; ten is the usual floor).
    pub beyond: usize,
}

/// Percentile `p` of `values` with its support.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = percentile_index(sorted.len(), p);
    Percentile {
        value: sorted[index],
        samples: sorted.len(),
        beyond: sorted.len() - 1 - index,
    }
}

/// `Σ per-input max ÷ Σ per-input median − 1`: how much slower the worst
/// repeat of each input was than its typical one. Near 0 on a quiet
/// machine; a disturbed run stands out.
pub fn noise_ratio(samples_per_input: &[Vec<f64>]) -> f64 {
    let mut max_sum = 0.0;
    let mut median_sum = 0.0;
    for samples in samples_per_input {
        max_sum += samples.iter().copied().fold(f64::MIN, f64::max);
        median_sum += median(samples);
    }
    max_sum / median_sum - 1.0
}

/// The three quartile cut points of `values`, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so `agree` reproduces the acceptance rule exactly.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// Interquartile distance as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_three_drops_the_outlier() {
        assert_eq!(median(&[5.0, 900.0, 4.0]), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_index_is_nearest_rank() {
        // 100 samples: p90 is the 90th smallest, ten lie beyond it.
        assert_eq!(percentile_index(100, 90.0), 89);
        assert_eq!(percentile_index(100, 50.0), 49);
        assert_eq!(percentile_index(100, 100.0), 99);
        // 30 samples: p90 is the 27th smallest, three beyond.
        assert_eq!(percentile_index(30, 90.0), 26);
        assert_eq!(percentile_index(1, 90.0), 0);
    }

    #[test]
    fn percentile_reports_its_support() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&values, 90.0);
        assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
        let p50 = percentile(&values, 50.0);
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
    }

    #[test]
    fn noise_ratio_compares_worst_to_typical() {
        let quiet = vec![vec![1.0, 1.0, 1.0], vec![2.0, 2.0, 2.0]];
        assert_eq!(noise_ratio(&quiet), 0.0);
        let disturbed = vec![vec![1.0, 1.0, 2.5], vec![2.0, 2.0, 2.0]];
        assert!((noise_ratio(&disturbed) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
    }
}
