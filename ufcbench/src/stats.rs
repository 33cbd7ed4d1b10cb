//! Order statistics for latency samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub pct: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Percentiles tried, highest first.
const TAIL_PCTS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of `xs` (from 99.9 down to 50) whose
/// nearest rank leaves at least `min_beyond` samples above it, or
/// `None` when even the median leaves fewer.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Tail> {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    TAIL_PCTS.iter().find_map(|&pct| {
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= min_beyond).then(|| Tail {
            pct,
            value: v[rank - 1],
            beyond: n - rank,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_min_beyond_samples() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 200);
        // 15 samples: p50 has rank 8, leaving 7 < 10 beyond it.
        assert!(tail(&xs[..15], 10).is_none());
        assert_eq!(tail(&xs[..20], 10).unwrap().pct, 50.0);
    }
}
