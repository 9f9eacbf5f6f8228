//! Sample statistics with an honest reporting rule.

/// Fewest samples that must lie beyond a percentile before it is
/// reported: a tail figure resting on fewer is noise.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Number of samples strictly beyond the nearest-rank `p` quantile of `n`
/// samples (`0 < p < 1`).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The nearest-rank `p` quantile, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || samples_beyond(n, p) < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted(values)[nearest_rank(n, p) - 1])
}

/// 1-based nearest rank `⌈p·n⌉`, clamped to `1..=n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90, ten beyond — reportable.
        assert_eq!(samples_beyond(100, 0.9), 10);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 0.9), Some(90.0));
        // 99 samples: rank ⌈89.1⌉ = 90, only nine beyond — withheld.
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(tail_percentile(&values[..99], 0.9), None);
        // A median always has plenty beyond it once there are 20 samples.
        assert_eq!(tail_percentile(&values[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&values[..19], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
