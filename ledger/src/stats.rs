//! Exact order statistics over raw samples.
//!
//! Latency percentiles are read from every request record, not from a
//! bucketed histogram, so a change to the runtime's histogram type cannot
//! move them.

/// The `q`-quantile (0 < q ≤ 1) by the nearest-rank rule: the smallest
/// sample such that at least `q·n` samples are ≤ it. `None` when `samples`
/// is empty. Reorders `samples`.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let idx = rank_index(samples.len(), q);
    Some(*samples.select_nth_unstable(idx).1)
}

/// Zero-based index of the nearest-rank `q`-quantile among `n` sorted
/// samples.
pub fn rank_index(n: usize, q: f64) -> usize {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Median of host timings (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn rank_index_clamps_to_the_sample_range() {
        assert_eq!(rank_index(1, 0.5), 0);
        assert_eq!(rank_index(1, 1.0), 0);
        assert_eq!(rank_index(10, 0.5), 4);
        assert_eq!(rank_index(10, 0.99), 9);
        assert_eq!(rank_index(1000, 0.999), 998);
    }
}
