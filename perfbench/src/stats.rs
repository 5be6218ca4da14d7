//! Order statistics over timing samples.

/// Median of `xs` (mean of the middle pair for even counts). `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` by linear interpolation between closest
/// ranks. `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// The percentile a tail of `n` samples is reported at: `nominal` if at
/// least ten samples lie beyond it, else the highest percentile of
/// [`TAIL_LADDER`] that has ten beyond it, so a tail is never one unlucky
/// sample. Each workload fixes its `nominal` so runs stay comparable.
pub fn tail_percentile(nominal: f64, n: usize) -> f64 {
    let ten_beyond = |p: f64| n as f64 * (100.0 - p) >= 1000.0;
    if ten_beyond(nominal) {
        return nominal;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&p| ten_beyond(p))
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99.0, 1000), 99.0);
        assert_eq!(tail_percentile(95.0, 5000), 95.0);
        assert_eq!(tail_percentile(99.0, 999), 95.0);
        assert_eq!(tail_percentile(99.0, 100), 90.0);
        assert_eq!(tail_percentile(99.0, 5), 50.0);
    }
}
