//! Time-series binning for the DiPerF-style figures.
//!
//! The figures in the paper plot three co-sampled series against elapsed
//! time: number of concurrent clients (load), per-request response time, and
//! throughput. [`TimeSeries`] collects `(time, value)` points and bins them
//! into fixed windows for plotting/printing; throughput falls out of binning
//! completion events with `count` aggregation.

use gruber_types::{SimDuration, SimTime};

/// A `(time, value)` point stream with fixed-window aggregation.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

/// One aggregated bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bin {
    /// Start of the window.
    pub start: SimTime,
    /// Number of points in the window.
    pub count: usize,
    /// Mean of point values in the window (0 if empty).
    pub mean: f64,
    /// Sum of point values in the window.
    pub sum: f64,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a point. Points may arrive out of order; binning sorts.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// Number of raw points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw points (unsorted, in arrival order).
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// All values, discarding timestamps.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// Aggregates into consecutive windows of `width` covering
    /// `[0, horizon)`. Empty bins are included (count 0, mean 0) so plots
    /// have a continuous x-axis.
    pub fn bins(&self, width: SimDuration, horizon: SimTime) -> Vec<Bin> {
        assert!(!width.is_zero(), "zero bin width");
        let n_bins = horizon.as_millis().div_ceil(width.as_millis()) as usize;
        let mut sums = vec![0.0f64; n_bins];
        let mut counts = vec![0usize; n_bins];
        for &(t, v) in &self.points {
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
                sum: sums[i],
            })
            .collect()
    }

    /// Per-window event rate (events/second): bin counts divided by width.
    /// This is the paper's *throughput* series when pushed points are request
    /// completions.
    pub fn rate_per_second(&self, width: SimDuration, horizon: SimTime) -> Vec<(SimTime, f64)> {
        let w = width.as_secs_f64();
        self.bins(width, horizon)
            .into_iter()
            .map(|b| (b.start, b.count as f64 / w))
            .collect()
    }

    /// Peak of the per-window mean (used for "peak response time" rows).
    pub fn peak_bin_mean(&self, width: SimDuration, horizon: SimTime) -> f64 {
        self.bins(width, horizon)
            .into_iter()
            .filter(|b| b.count > 0)
            .map(|b| b.mean)
            .fold(0.0, f64::max)
    }

    /// Peak of the per-window rate (used for "peak throughput" rows).
    pub fn peak_rate_per_second(&self, width: SimDuration, horizon: SimTime) -> f64 {
        self.rate_per_second(width, horizon)
            .into_iter()
            .map(|(_, r)| r)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_series_bins_are_empty() {
        let s = TimeSeries::new();
        let bins = s.bins(SimDuration::from_secs(10), t(30));
        assert_eq!(bins.len(), 3);
        assert!(bins.iter().all(|b| b.count == 0 && b.mean == 0.0));
        assert!(s.is_empty());
    }

    #[test]
    fn binning_assigns_points_correctly() {
        let mut s = TimeSeries::new();
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
        let mut s = TimeSeries::new();
        s.push(t(100), 1.0);
        let bins = s.bins(SimDuration::from_secs(10), t(30));
        assert_eq!(bins.iter().map(|b| b.count).sum::<usize>(), 0);
    }

    #[test]
    fn rate_counts_events_per_second() {
        let mut s = TimeSeries::new();
        for i in 0..20 {
            s.push(SimTime::from_secs(i / 2), 1.0); // 2 events/sec for 10 s
        }
        let rate = s.rate_per_second(SimDuration::from_secs(5), t(10));
        assert_eq!(rate.len(), 2);
        assert!((rate[0].1 - 2.0).abs() < 1e-12);
        assert!((rate[1].1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn peaks() {
        let mut s = TimeSeries::new();
        s.push(t(1), 5.0);
        s.push(t(11), 50.0);
        s.push(t(12), 30.0);
        let w = SimDuration::from_secs(10);
        assert_eq!(s.peak_bin_mean(w, t(30)), 40.0);
        assert!((s.peak_rate_per_second(w, t(30)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn horizon_not_multiple_of_width_rounds_up() {
        let s = TimeSeries::new();
        let bins = s.bins(SimDuration::from_secs(10), t(25));
        assert_eq!(bins.len(), 3);
    }

    #[test]
    fn out_of_order_points_are_fine() {
        let mut s = TimeSeries::new();
        s.push(t(15), 1.0);
        s.push(t(5), 3.0);
        let bins = s.bins(SimDuration::from_secs(10), t(20));
        assert_eq!(bins[0].count, 1);
        assert_eq!(bins[1].count, 1);
        assert_eq!(s.values(), vec![1.0, 3.0]);
    }
}
