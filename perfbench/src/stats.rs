//! Order statistics for host timings.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly ranked beyond it.
    pub beyond: usize,
}

/// The nearest-rank `pct`-th percentile of `samples`.
///
/// The median and lower percentiles are reported for any non-empty sample.
/// A tail (`pct > 50`) is reported only when at least [`MIN_BEYOND`]
/// samples rank beyond it; with fewer, the tail is not measured and the
/// result is `None`.
pub fn percentile(samples: &[f64], pct: u32) -> Option<Percentile> {
    assert!((1..=100).contains(&pct), "percentile out of range: {pct}");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (pct as usize * n).div_ceil(100).max(1);
    let beyond = n - rank;
    if pct > 50 && beyond < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// The median of `samples`, or 0 for an empty sample (a layer the
/// workload never called).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    percentile(samples, 50).map_or(0.0, |p| p.value)
}

/// The smallest sample size whose `pct`-th percentile is reportable.
pub fn min_samples(pct: u32) -> usize {
    (1..)
        .find(|&n| n - (pct as usize * n).div_ceil(100).max(1) >= MIN_BEYOND)
        .expect("some sample size leaves ten samples beyond any percentile below 100")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order: the helper must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_reported_only_with_ten_samples_beyond() {
        assert_eq!(percentile(&ramp(99), 90), None);
        let p = percentile(&ramp(100), 90).expect("100 samples leave 10 beyond p90");
        assert_eq!(
            p,
            Percentile {
                value: 90.0,
                n: 100,
                beyond: 10
            }
        );
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        assert_eq!(percentile(&ramp(999), 99), None);
        assert!(percentile(&ramp(1000), 99).is_some());
    }

    #[test]
    fn median_always_states_its_sample_count() {
        let p = percentile(&ramp(3), 50).expect("a median needs one sample");
        assert_eq!((p.value, p.n, p.beyond), (2.0, 3, 1));
        assert_eq!(
            percentile(&[7.5], 50).map(|p| (p.value, p.n)),
            Some((7.5, 1))
        );
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median_or_zero(&[]), 0.0);
    }
}
