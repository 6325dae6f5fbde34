//! Order statistics over latency samples.

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
/// An infinite neighbour (a failed request) makes the quantile infinite.
pub(crate) fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if sorted[hi].is_infinite() {
        return f64::INFINITY;
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, sorting `v` in place; `None` for no samples.
pub(crate) fn median(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    Some(quantile(v, 0.5))
}

/// The highest whole percentile of `n` samples that leaves at least ten
/// samples beyond it; `None` when that percentile would not lie above
/// the median.
pub(crate) fn tail_percentile(n: usize) -> Option<u32> {
    (51..100u32).rev().find(|&p| n - (n * p as usize).div_ceil(100) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_failures_are_infinite() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.5), f64::INFINITY);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(300), Some(96));
    }
}
