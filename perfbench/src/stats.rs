//! Order statistics over measured samples.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule,
/// or 0 when there are no samples.
#[must_use]
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    quantile_sorted(samples, q)
}

/// The median of `values` (mean of the middle pair for an even count),
/// or 0 when empty.
#[must_use]
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

/// Freshness cost of handing out values out of real-time order: the
/// `q`-quantile of `|rank by time - rank by value|` over sampled
/// `(timestamp, value)` pairs, scaled by `every` (one pair per `every`
/// operations) to read in operations.
#[must_use]
pub fn order_deviation(pairs: &mut [(u64, u64)], every: u64, q: f64) -> f64 {
    pairs.sort_unstable();
    let mut by_value: Vec<(u64, usize)> =
        pairs.iter().enumerate().map(|(time_rank, &(_, v))| (v, time_rank)).collect();
    by_value.sort_unstable();
    let mut gaps: Vec<u64> = by_value
        .iter()
        .enumerate()
        .map(|(value_rank, &(_, time_rank))| value_rank.abs_diff(time_rank) as u64)
        .collect();
    quantile(&mut gaps, q) * every as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let mut s = vec![5, 1, 4, 2, 3];
        assert_eq!(quantile(&mut s, 0.5), 3.0);
        assert_eq!(quantile(&mut s, 1.0), 5.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn in_order_values_have_no_deviation() {
        let mut pairs: Vec<(u64, u64)> = (0..100).map(|i| (i * 10, i)).collect();
        assert_eq!(order_deviation(&mut pairs, 64, 0.99), 0.0);
        // Swap the values of the first and last samples: a gap of 99.
        pairs.sort_unstable();
        pairs[0].1 = 99;
        pairs[99].1 = 0;
        assert_eq!(order_deviation(&mut pairs, 1, 1.0), 99.0);
    }
}
