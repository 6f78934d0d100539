//! Order statistics for the benchmark's timings.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 100)`) of `samples`. Refuses a
/// percentile with fewer than `beyond` samples above it: a tail read off
/// a handful of samples is one slow query, not a percentile.
pub fn percentile(samples: &[f64], p: f64, beyond: usize) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || n - rank < beyond {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it, fewer than {beyond}",
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank.max(1) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        // p95 of 199 samples: rank 190, nine beyond — one short.
        assert!(percentile(&samples, 95.0, 10).is_err());
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0, 10), Ok(190.0));
        assert_eq!(percentile(&samples, 50.0, 10), Ok(100.0));
        assert!(percentile(&[], 50.0, 0).is_err());
    }
}
