//! Exact order statistics.
//!
//! Latency quantiles come from raw per-frame nanosecond samples,
//! sorted, never from log₂ histogram buckets: a bucketed p50 can only
//! read 8, 16 or 32 µs, so it jumps 2× when the true value crosses a
//! bucket edge. Summaries across windows or runs use the median and
//! the quartiles exactly as Python's `statistics.quantiles(values,
//! n=4)` computes them, so spreads printed here match the spreads an
//! external check computes from the same values.

/// Nearest-rank quantile of `sorted` samples at `per_mille`/1000: the
/// smallest sample with at least that share of samples at or below it.
/// `sorted` must be non-empty and ascending.
pub fn quantile(sorted: &[u64], per_mille: u64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len() as u64;
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
    sorted[rank as usize - 1]
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles with Python's default ("exclusive")
/// method; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Per frame position within a lifetime, the median of `(frame, value)`
/// samples, where `frame` counts from 1 across back-to-back lifetimes of
/// `frames_per_lifetime` frames each. Every lifetime streams the same
/// frames, so one position always carries the same work. A position
/// without samples is NaN.
pub fn median_by_position(
    samples: impl IntoIterator<Item = (u64, f64)>,
    frames_per_lifetime: usize,
) -> Vec<f64> {
    let mut at: Vec<Vec<f64>> = vec![Vec::new(); frames_per_lifetime];
    for (frame, value) in samples {
        at[(frame - 1) as usize % frames_per_lifetime].push(value);
    }
    at.iter()
        .map(|v| if v.is_empty() { f64::NAN } else { median(v) })
        .collect()
}

/// A metric's median with its quartiles over `n` samples (windows,
/// cold starts, recovery repetitions, or runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// How many samples the summary covers.
    pub n: usize,
}

impl Summary {
    /// Summarizes a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// A single measured value.
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 500), 50);
        assert_eq!(quantile(&v, 990), 99);
        assert_eq!(quantile(&v, 999), 100);
        assert_eq!(quantile(&v, 1000), 100);
        assert_eq!(quantile(&v, 0), 1);
        assert_eq!(quantile(&[7], 990), 7);
        // Ten samples: p50 is the 5th, p99 the 10th.
        let w = [10, 20, 30, 40, 50, 60, 70, 80, 90, 1000];
        assert_eq!(quantile(&w, 500), 50);
        assert_eq!(quantile(&w, 990), 1000);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.median / statistics.quantiles(n=4) reference values.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // The exclusive method extrapolates past two points.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        let s = Summary::of(&ten);
        assert_eq!((s.median, s.q1, s.q3, s.n), (5.5, 2.75, 8.25, 10));
    }

    #[test]
    fn medians_by_position_fold_lifetimes_together() {
        // Three lifetimes of two frames; position 2 of the third is missing
        // from the second list.
        let samples = [
            (1, 10.0),
            (2, 1.0),
            (3, 30.0),
            (4, 3.0),
            (5, 20.0),
            (6, 2.0),
        ];
        assert_eq!(median_by_position(samples, 2), vec![20.0, 2.0]);
        let partial = median_by_position([(1, 4.0), (3, 6.0)], 2);
        assert_eq!(partial[0], 5.0);
        assert!(partial[1].is_nan());
    }
}
