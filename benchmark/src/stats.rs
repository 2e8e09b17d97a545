//! Order statistics of repeated timings.

use std::time::Instant;

/// `n, min, q1, median, q3, max` of one metric's samples — the columns of a
/// result row.  No percentile above the median is claimed: every workload
/// takes fewer than 20 samples per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summary of a value that was observed once (counts, derived figures).
    pub fn single(value: f64) -> Self {
        Summary::of(&[value])
    }

    /// # Panics
    /// Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Summary {
            n,
            min: sorted[0],
            q1: quantile(&sorted, 1),
            median: quantile(&sorted, 2),
            q3: quantile(&sorted, 3),
            max: sorted[n - 1],
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// regression bounds are compared with.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th quartile cut point, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads printed here are the ones the acceptance check computes.
fn quantile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// The smallest of `samples` (infinite when there are none).
pub fn smallest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Wall seconds of one call to `f`.
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Wall seconds of the fastest of `reps` calls to `f`, after one untimed
/// call.  The fastest, not the median: the work is deterministic, so
/// everything above the minimum is the host (see README, "Noise").
pub fn fastest<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps).map(|_| time(&mut f).0).collect();
    smallest(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // -> [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) -> [1.5, 4.0, 12.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!(s.spread(), (12.0 - 1.5) / 4.0);
        let one = Summary::single(3.0);
        assert_eq!(
            (one.q1, one.median, one.q3, one.spread()),
            (3.0, 3.0, 3.0, 0.0)
        );
    }
}
