//! Exact order statistics over raw samples — no histogram buckets, so a
//! reported percentile is always one of the measured values (or, for
//! quartiles, an interpolation between two of them).

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples when `n` is even).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// A single measured value: its own median and quartiles.
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }
}

/// Summarize `samples` (any order). Quartiles follow the "exclusive"
/// method of Python's `statistics.quantiles(data, n=4)`, so spreads
/// computed here and by that function agree.
///
/// # Panics
/// On an empty slice or a non-finite sample.
pub fn summarize(samples: &[f64]) -> Summary {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 1 {
        return Summary::single(sorted[0]);
    }
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    // Exclusive method: position i·(n+1)/4, interpolated, with the
    // index clamped to [1, n-1] exactly as CPython does.
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Summary {
        n,
        median,
        q1: quartile(1),
        q3: quartile(3),
    }
}

/// A sorted copy of `samples`.
///
/// # Panics
/// On an empty slice or a non-finite sample.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "no samples");
    assert!(samples.iter().all(|x| x.is_finite()), "non-finite sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of `sorted` samples, with the percentile in
/// hundredths of a percent (`9900` = p99) so ranks are exact integers:
/// the smallest sample with at least that share of samples at or below
/// it.
pub fn percentile(sorted: &[f64], per_10k: usize) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    let rank = (per_10k * sorted.len())
        .div_ceil(10_000)
        .clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest percentile on the ladder p50, p90, p99, p99.9, p99.99 that
/// still has at least ten samples above its rank, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in hundredths of a percent.
    pub per_10k: usize,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
}

impl Tail {
    /// The percentile's label, e.g. `p99` or `p99.9`.
    pub fn label(&self) -> String {
        let whole = self.per_10k / 100;
        match self.per_10k % 100 {
            0 => format!("p{whole}"),
            frac if frac % 10 == 0 => format!("p{whole}.{}", frac / 10),
            frac => format!("p{whole}.{frac:02}"),
        }
    }
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {:.3} (n = {})", self.label(), self.value, self.n)
    }
}

/// Samples that must lie above a percentile's rank before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentile of `sorted` samples; `None` when even the median
/// has fewer than ten samples above it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    [5000, 9000, 9900, 9990, 9999]
        .into_iter()
        .rev()
        .find(|&p| n - (p * n).div_ceil(10_000) >= TAIL_MIN_BEYOND)
        .map(|p| Tail {
            per_10k: p,
            value: percentile(sorted, p),
            n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[4.0]), Summary::single(4.0));
    }

    #[test]
    fn percentiles_are_exact_ranks() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 5000), 500.0);
        assert_eq!(percentile(&v, 9900), 990.0);
        assert_eq!(percentile(&v, 9990), 999.0);
        assert_eq!(percentile(&v, 10_000), 1000.0);
        assert_eq!(percentile(&v, 0), 1.0);
        // Not a power-of-two bucket edge: any measured value comes back.
        let odd = [0.3, 32.768, 17.0];
        assert_eq!(percentile(&sorted(&odd), 9900), 32.768);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(19)), None);
        assert_eq!(tail(&v(20)).map(|t| t.per_10k), Some(5000));
        assert_eq!(tail(&v(100)).map(|t| t.per_10k), Some(9000));
        let t = tail(&v(1200)).expect("tail");
        assert_eq!((t.per_10k, t.value, t.n), (9900, 1188.0, 1200));
        assert_eq!(t.label(), "p99");
        assert_eq!(t.to_string(), "p99 1188.000 (n = 1200)");
        let t = tail(&v(10_000)).expect("tail");
        assert_eq!(t.label(), "p99.9");
        assert_eq!(t.value, 9990.0);
    }
}
