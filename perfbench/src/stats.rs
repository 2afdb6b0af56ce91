//! Exact order statistics over raw samples.
//!
//! Every timing in the benchmark is kept as raw nanoseconds and reduced
//! here, never through a bucketed histogram, so sub-microsecond steps
//! keep their resolution.

/// The nearest-rank `q` quantile (`0 < q <= 1`) of an ascending slice:
/// the smallest sample with at least `q` of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair for an even count);
/// 0 for an empty input.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The nearest-rank `q` quantile (`0 < q <= 1`) of `values`; 0 for an
/// empty input.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// The arithmetic mean of `values`; 0 for an empty input.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The `q` quantile of weighted samples `(value, weight)`: the smallest
/// value with at least `q` of the total weight at or below it. Sorts
/// `points`; returns 0 when they carry no weight.
pub fn weighted_quantile(points: &mut [(u64, f64)], q: f64) -> u64 {
    points.sort_unstable_by_key(|p| p.0);
    let total: f64 = points.iter().map(|p| p.1).sum();
    let mut seen = 0.0;
    for &(value, weight) in points.iter() {
        seen += weight;
        if seen >= q * total {
            return value;
        }
    }
    points.last().map_or(0, |p| p.0)
}

/// `num / den`, or 0 when `den` is 0, so a ratio over an empty count
/// stays finite.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.9), 90);
        assert_eq!(quantile_sorted(&v, 0.999), 100);
        assert_eq!(quantile_sorted(&[7], 0.5), 7);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn weighted_quantiles_follow_the_weights() {
        let mut v = vec![(30, 1.0), (10, 1.0), (20, 2.0)];
        assert_eq!(weighted_quantile(&mut v, 0.25), 10);
        assert_eq!(weighted_quantile(&mut v, 0.5), 20);
        assert_eq!(weighted_quantile(&mut v, 0.75), 20);
        assert_eq!(weighted_quantile(&mut v, 0.9), 30);
        assert_eq!(weighted_quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn float_quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 2.0);
        assert_eq!(quantile(&v, 0.25), 5.0);
        assert_eq!(quantile(&[5.0], 0.1), 5.0);
        assert_eq!(quantile(&[], 0.1), 0.0);
    }

    #[test]
    fn ratio_over_zero_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
