//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples. A
//! tail percentile is only meaningful when enough samples lie beyond it,
//! so [`tail`] refuses to report one with fewer than [`TAIL_BEYOND`]
//! samples past it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Percentile `p`, but only if at least [`TAIL_BEYOND`] samples are
/// strictly greater than it would have to exclude; `None` otherwise.
pub fn tail(xs: &[f64], p: f64) -> Option<f64> {
    let beyond = xs.len() - ((p / 100.0) * xs.len() as f64).ceil() as usize;
    (beyond >= TAIL_BEYOND).then(|| percentile(xs, p))
}

/// Sum of the samples.
pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs, 90.0), None, "99 samples leave 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 90.0), Some(90.0));
        assert_eq!(tail(&xs, 99.0), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some(990.0));
    }
}
