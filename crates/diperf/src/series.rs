//! Time-series binning for the DiPerF-style figures.
//!
//! The figures in the paper plot three co-sampled series against elapsed
//! time: number of concurrent clients (load), per-request response time, and
//! throughput. [`bins`] aggregates any `(time, value)` point stream into
//! fixed windows for plotting/printing; throughput falls out of a bin's
//! point count. [`TimeSeries`] stores the one series that is sampled rather
//! than derived from request traces — the load.

use gruber_types::{SimDuration, SimTime};

/// A stored `(time, value)` point stream with fixed-window aggregation.
#[derive(Debug, Clone, Default)]
pub(crate) struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

/// One aggregated bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bin {
    /// Start of the window.
    pub(crate) start: SimTime,
    /// Number of points in the window.
    pub(crate) count: usize,
    /// Mean of point values in the window (0 if empty).
    pub(crate) mean: f64,
}

impl TimeSeries {
    /// Appends a point. Points may arrive out of order.
    pub(crate) fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// The stored points through [`bins`].
    pub(crate) fn bins(&self, width: SimDuration, horizon: SimTime) -> Vec<Bin> {
        bins(self.points.iter().copied(), width, horizon)
    }
}

/// Aggregates `points` into consecutive windows of `width` covering
/// `[0, horizon)`, summing each window's values in the order given. Empty
/// bins are included (count 0, mean 0) so plots have a continuous x-axis;
/// points at or past `horizon` are dropped.
pub(crate) fn bins(
    points: impl IntoIterator<Item = (SimTime, f64)>,
    width: SimDuration,
    horizon: SimTime,
) -> Vec<Bin> {
    assert!(!width.is_zero(), "zero bin width");
    let n_bins = horizon.as_millis().div_ceil(width.as_millis()) as usize;
    let mut sums = vec![0.0f64; n_bins];
    let mut counts = vec![0usize; n_bins];
    for (t, v) in points {
        if t >= horizon {
            continue;
        }
        let idx = (t.as_millis() / width.as_millis()) as usize;
        sums[idx] += v;
        counts[idx] += 1;
    }
    (0..n_bins)
        .map(|i| Bin {
            start: SimTime(i as u64 * width.as_millis()),
            count: counts[i],
            mean: if counts[i] == 0 {
                0.0
            } else {
                sums[i] / counts[i] as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_series_bins_are_empty() {
        let s = TimeSeries::default();
        let bins = s.bins(SimDuration::from_secs(10), t(30));
        assert_eq!(bins.len(), 3);
        assert!(bins.iter().all(|b| b.count == 0 && b.mean == 0.0));
    }

    #[test]
    fn binning_assigns_points_correctly() {
        let mut s = TimeSeries::default();
        s.push(t(1), 10.0);
        s.push(t(9), 20.0);
        s.push(t(10), 30.0); // falls in second bin
        s.push(t(25), 40.0);
        let bins = s.bins(SimDuration::from_secs(10), t(30));
        assert_eq!(bins[0].count, 2);
        assert_eq!(bins[0].mean, 15.0);
        assert_eq!(bins[1].count, 1);
        assert_eq!(bins[1].mean, 30.0);
        assert_eq!(bins[2].count, 1);
    }

    #[test]
    fn points_past_horizon_are_dropped() {
        let mut s = TimeSeries::default();
        s.push(t(100), 1.0);
        let bins = s.bins(SimDuration::from_secs(10), t(30));
        assert_eq!(bins.iter().map(|b| b.count).sum::<usize>(), 0);
    }

    #[test]
    fn horizon_not_multiple_of_width_rounds_up() {
        let s = TimeSeries::default();
        let bins = s.bins(SimDuration::from_secs(10), t(25));
        assert_eq!(bins.len(), 3);
    }

    #[test]
    fn out_of_order_points_are_fine() {
        let mut s = TimeSeries::default();
        s.push(t(15), 1.0);
        s.push(t(5), 3.0);
        let bins = s.bins(SimDuration::from_secs(10), t(20));
        assert_eq!(bins[0].count, 1);
        assert_eq!(bins[1].count, 1);
    }
}
