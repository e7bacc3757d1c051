//! Order statistics for the timing metrics.

/// Median of `samples` (mean of the two middle values for an even
/// count; 0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The best of `samples`: the lowest when `lower_is_better`, else the
/// highest (0 for an empty slice).
pub fn best(samples: &[f64], lower_is_better: bool) -> f64 {
    let pick = if lower_is_better { f64::min } else { f64::max };
    samples.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a percentile needs beyond it before it is reported: a tail
/// figure resting on fewer is one slow sample, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// True when at least [`MIN_BEYOND`] of `n` samples lie beyond
/// percentile `p`.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    // Count of samples strictly above the nearest-rank position.
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= MIN_BEYOND
}

/// Percentile `p` of an ascending slice, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    percentile_supported(sorted.len(), p).then(|| percentile(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn best_is_the_extreme_on_the_better_side() {
        let times = [30.0, 11.0, 1.5, 25.0];
        assert_eq!(best(&times, true), 1.5);
        assert_eq!(best(&times, false), 30.0);
        assert_eq!(best(&[5.0], true), 5.0);
        assert_eq!(best(&[], true), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(1000, 99.9));
        assert!(!percentile_supported(999, 99.0));
        // 30k round trips support p99.9 (30 beyond) but not p99.99 (3).
        assert!(percentile_supported(30_000, 99.9));
        assert!(!percentile_supported(30_000, 99.99));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&v, 99.0), Some(990.0));
        assert_eq!(supported_percentile(&v, 99.9), None);
    }
}
