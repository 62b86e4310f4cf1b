//! Summary statistics (the min/median/average/maximum/std-dev rows shown
//! under every DiPerF figure in the paper).

/// Order statistics and moments of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SummaryStats {
    /// Number of samples.
    pub(crate) count: usize,
    /// Smallest sample (0 if empty).
    pub(crate) min: f64,
    /// Median (0 if empty).
    pub(crate) median: f64,
    /// Arithmetic mean (0 if empty).
    pub mean: f64,
    /// Largest sample (0 if empty).
    pub(crate) max: f64,
    /// Population standard deviation (0 if empty).
    pub(crate) stddev: f64,
    /// 90th percentile (nearest-rank; 0 if empty).
    pub(crate) p90: f64,
    /// 99th percentile (nearest-rank; 0 if empty).
    pub(crate) p99: f64,
}

impl SummaryStats {
    /// Computes summary statistics over a sample set.
    ///
    /// Non-finite samples are rejected with a panic — they always indicate a
    /// harness bug, and silently dropping them would skew the stats.
    pub(crate) fn from_samples(samples: &[f64]) -> Self {
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "non-finite sample in summary input"
        );
        if samples.is_empty() {
            return SummaryStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let pct = |p: f64| {
            // Nearest-rank percentile.
            let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
            sorted[rank - 1]
        };
        SummaryStats {
            count: n,
            min: sorted[0],
            median,
            mean,
            max: sorted[n - 1],
            stddev: var.sqrt(),
            p90: pct(90.0),
            p99: pct(99.0),
        }
    }

    /// Renders the paper's one-line summary row, e.g. for a response-time
    /// series: `min / median / avg / max / stddev`.
    pub fn row(&self) -> String {
        format!(
            "min {:.2}  median {:.2}  avg {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}  stddev {:.2}  (n={})",
            self.min, self.median, self.mean, self.p90, self.p99, self.max, self.stddev, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_zeroes() {
        let s = SummaryStats::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn known_values() {
        let s = SummaryStats::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.median, 4.5);
        assert!((s.stddev - 2.0).abs() < 1e-12); // classic example set
    }

    #[test]
    fn odd_median() {
        let s = SummaryStats::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!(s.median, 2.0);
    }

    #[test]
    fn single_sample() {
        let s = SummaryStats::from_samples(&[42.0]);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        SummaryStats::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn row_mentions_all_fields() {
        let row = SummaryStats::from_samples(&[1.0, 2.0]).row();
        for key in ["min", "median", "avg", "p90", "p99", "max", "stddev", "n=2"] {
            assert!(row.contains(key), "missing {key} in {row}");
        }
    }

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = SummaryStats::from_samples(&samples);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        // Small n: percentile falls on an existing sample.
        let s = SummaryStats::from_samples(&[5.0, 1.0, 3.0]);
        assert_eq!(s.p90, 5.0);
        assert_eq!(s.p99, 5.0);
    }

    proptest! {
        #[test]
        fn invariants(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = SummaryStats::from_samples(&samples);
            prop_assert!(s.min <= s.median + 1e-9);
            prop_assert!(s.median <= s.max + 1e-9);
            prop_assert!(s.median <= s.p90 + 1e-9);
            prop_assert!(s.p90 <= s.p99 + 1e-9);
            prop_assert!(s.p99 <= s.max + 1e-9);
            prop_assert!(s.min <= s.mean && s.mean <= s.max);
            prop_assert!(s.stddev >= 0.0);
            prop_assert_eq!(s.count, samples.len());
        }
    }
}
