//! Order statistics shared by every phase: medians of repeated timings and
//! the tail percentile a sample can actually support.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples. The small
/// slack keeps decimal percentiles such as 99.99 from rounding up a rank.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples that lie strictly beyond the nearest-rank percentile `p`.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest percentile a sample supports, with its value and the
/// sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub percentile: f64,
    /// The sample's value at that percentile.
    pub value: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
}

/// The percentiles a tail is reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Minimum number of samples beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn supported_tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    LADDER.iter().rev().find(|&&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND).map(|&p| Tail {
        percentile: p,
        value: percentile(sorted, p),
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let tail = supported_tail(&ramp(1000)).expect("supported");
        assert_eq!(tail.percentile, 99.0);
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.samples, 1000);
        // 999 samples: p99 leaves 9 beyond, so only p90 is supported.
        assert_eq!(supported_tail(&ramp(999)).expect("supported").percentile, 90.0);
        // 100 000 samples support p99.99.
        assert_eq!(supported_tail(&ramp(100_000)).expect("supported").percentile, 99.99);
        // 20 samples support the median; 19 support nothing.
        assert_eq!(supported_tail(&ramp(20)).expect("supported").percentile, 50.0);
        assert_eq!(supported_tail(&ramp(19)), None);
    }
}
