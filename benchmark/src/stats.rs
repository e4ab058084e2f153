//! Order statistics over the harness's sample buffers.

/// The `p`-quantile (0 ≤ p ≤ 1) of sorted `xs` by linear interpolation.
pub fn quantile_sorted(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let idx = p.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let (lo, hi) = (idx.floor() as usize, idx.ceil() as usize);
    let frac = idx - lo as f64;
    xs[lo] * (1.0 - frac) + xs[hi] * frac
}

/// Sort in place and return `(p1, p25, p50, p75)`.
pub fn floor_and_quartiles(xs: &mut [f64]) -> (f64, f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    (
        quantile_sorted(xs, 0.01),
        quantile_sorted(xs, 0.25),
        quantile_sorted(xs, 0.50),
        quantile_sorted(xs, 0.75),
    )
}

/// Median of unsorted samples.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    quantile_sorted(xs, 0.5)
}

/// `(max − min) / median`: the spread `--repeat` prints beside each bound.
pub fn range_over_median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    let med = median(&mut v);
    let (lo, hi) = (v[0], v[v.len() - 1]);
    if med == 0.0 {
        if hi == lo {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (hi - lo) / med.abs()
    }
}

/// The tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of `sorted` that still has at least ten samples
/// beyond it, and the sample at it: `(percentile, value)`. With fewer than
/// twenty samples no percentile qualifies and the median is reported.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    for &pct in &TAIL_LADDER {
        // index of the first sample strictly beyond the percentile
        let idx = ((pct / 100.0) * n as f64).ceil() as usize;
        if idx < n && n - idx >= 10 {
            return (pct, sorted[idx.saturating_sub(1)]);
        }
    }
    (50.0, sorted[(n - 1) / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 0.5), 3.0);
        assert_eq!(quantile_sorted(&xs, 0.25), 2.0);
        assert_eq!(quantile_sorted(&xs, 0.9), 4.6);
        assert_eq!(median(&mut [9.0, 1.0, 5.0, 3.0]), 4.0);
    }

    #[test]
    fn range_over_median_is_relative() {
        assert_eq!(range_over_median(&[10.0, 10.0, 10.0]), 0.0);
        assert_eq!(range_over_median(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(range_over_median(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1,000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&xs), (99.0, 990));
        // 100,000 samples: p99.99 leaves 10 beyond.
        let xs: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail(&xs), (99.99, 99_990));
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&xs), (90.0, 90));
        // 24 samples (one halo run): only the median qualifies.
        let xs: Vec<u64> = (1..=24).collect();
        assert_eq!(tail(&xs), (50.0, 12));
        // too few for any percentile: the median, by definition.
        assert_eq!(tail(&[7, 8, 9]), (50.0, 8));
    }
}
