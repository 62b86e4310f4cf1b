//! The controller/collector.
//!
//! Gathers request traces plus the load samples, from which it derives the
//! three co-sampled series every figure in the paper plots — load
//! (concurrent clients), per-request response time, and throughput — and
//! renders the summary block printed under each figure.

use crate::series::{bins, TimeSeries};
use crate::summary::SummaryStats;
use crate::trace::RequestTrace;
use gruber_types::{SimDuration, SimTime};

/// Aggregated results of one DiPerF run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiPerfReport {
    /// Label (e.g. "GT3 DI-GRUBER, 3 DPs").
    pub label: String,
    /// Response-time summary over answered requests, in seconds.
    pub response: SummaryStats,
    /// Peak of the per-minute mean response time, seconds.
    pub peak_response_secs: f64,
    /// Peak of the per-minute throughput, queries/second.
    pub peak_throughput_qps: f64,
    /// Mean throughput over the run, queries/second.
    pub mean_throughput_qps: f64,
    /// Requests issued.
    pub issued: usize,
    /// Requests answered in time.
    pub answered: usize,
    /// Requests that timed out client-side.
    pub timed_out: usize,
}

impl DiPerfReport {
    /// Fraction of requests the service handled in time.
    pub fn handled_fraction(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.answered as f64 / self.issued as f64
    }

    /// Renders the paper's per-figure summary block.
    pub fn render(&self) -> String {
        format!(
            "{}\n  response time (s): {}\n  peak response {:.1} s | peak throughput {:.2} q/s | mean throughput {:.2} q/s\n  requests: {} issued, {} answered, {} timed out ({:.1}% handled)\n",
            self.label,
            self.response.row(),
            self.peak_response_secs,
            self.peak_throughput_qps,
            self.mean_throughput_qps,
            self.issued,
            self.answered,
            self.timed_out,
            self.handled_fraction() * 100.0,
        )
    }
}

/// Live collector, fed by the experiment as it runs.
#[derive(Debug, Default)]
pub struct Collector {
    traces: Vec<RequestTrace>,
    /// Sampled concurrent-client counts.
    load: TimeSeries,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Records one finished request (answered or timed out).
    pub fn record(&mut self, trace: RequestTrace) {
        self.traces.push(trace);
    }

    /// Records a load sample (active clients at `t`).
    pub fn sample_load(&mut self, t: SimTime, active_clients: u32) {
        self.load.push(t, f64::from(active_clients));
    }

    /// All request traces.
    pub fn traces(&self) -> &[RequestTrace] {
        &self.traces
    }

    /// Hands the request traces over, in record order.
    pub fn into_traces(self) -> Vec<RequestTrace> {
        self.traces
    }

    /// `(completion time, response seconds)` of every request that got a
    /// response, in record order. Binned, a bin's mean is the mean
    /// response time and its count the completions (throughput × width).
    fn responses(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.traces
            .iter()
            .filter_map(|t| Some((t.completed_at()?, t.response?.as_secs_f64())))
    }

    /// Per-bin mean response and throughput plus load, for figure printing:
    /// rows of `(bin start, load, mean response s, throughput q/s)`.
    pub fn figure_rows(
        &self,
        bin: SimDuration,
        horizon: SimTime,
    ) -> Vec<(SimTime, f64, f64, f64)> {
        let width = bin.as_secs_f64();
        let resp = bins(self.responses(), bin, horizon);
        let load = self.load.bins(bin, horizon);
        resp.iter()
            .zip(&load)
            .map(|(r, l)| (r.start, l.mean, r.mean, r.count as f64 / width))
            .collect()
    }

    /// Produces the summary report.
    pub fn report(&self, label: &str, horizon: SimTime) -> DiPerfReport {
        let minute = SimDuration::MINUTE;
        let answered = self.traces.iter().filter(|t| t.handled()).count();
        let timed_out = self.traces.iter().filter(|t| t.timed_out).count();
        let mean_thr = if horizon.as_secs_f64() > 0.0 {
            answered as f64 / horizon.as_secs_f64()
        } else {
            0.0
        };
        let per_minute = bins(self.responses(), minute, horizon);
        let responses: Vec<f64> = self.responses().map(|(_, secs)| secs).collect();
        DiPerfReport {
            label: label.to_string(),
            response: SummaryStats::from_samples(&responses),
            peak_response_secs: per_minute
                .iter()
                .filter(|b| b.count > 0)
                .map(|b| b.mean)
                .fold(0.0, f64::max),
            peak_throughput_qps: per_minute
                .iter()
                .map(|b| b.count as f64 / minute.as_secs_f64())
                .fold(0.0, f64::max),
            mean_throughput_qps: mean_thr,
            issued: self.traces.len(),
            answered,
            timed_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{ClientId, DpId};

    fn answered(sent_s: u64, resp_s: u64) -> RequestTrace {
        RequestTrace::answered(
            ClientId(0),
            DpId(0),
            SimTime::from_secs(sent_s),
            SimDuration::from_secs(resp_s),
        )
    }

    #[test]
    fn report_counts_and_stats() {
        let mut c = Collector::new();
        c.record(answered(0, 2));
        c.record(answered(10, 4));
        c.record(RequestTrace::timed_out(ClientId(1), DpId(0), SimTime::from_secs(20)));
        let r = c.report("test", SimTime::from_secs(60));
        assert_eq!(r.issued, 3);
        assert_eq!(r.answered, 2);
        assert_eq!(r.timed_out, 1);
        assert_eq!(r.response.mean, 3.0);
        assert!((r.handled_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.mean_throughput_qps - 2.0 / 60.0).abs() < 1e-12);
        let text = r.render();
        assert!(text.contains("test"));
        assert!(text.contains("timed out"));
    }

    #[test]
    fn figure_rows_align_series() {
        let mut c = Collector::new();
        c.sample_load(SimTime::from_secs(0), 5);
        c.sample_load(SimTime::from_secs(70), 10);
        c.record(answered(0, 3)); // completes at t=3, first bin
        c.record(answered(65, 5)); // completes at t=70, second bin
        let rows = c.figure_rows(SimDuration::MINUTE, SimTime::from_secs(120));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, 5.0); // load
        assert_eq!(rows[0].2, 3.0); // response
        assert!((rows[0].3 - 1.0 / 60.0).abs() < 1e-12); // throughput
        assert_eq!(rows[1].1, 10.0);
        assert_eq!(rows[1].2, 5.0);
    }

    #[test]
    fn empty_collector_reports_zeroes() {
        let r = Collector::new().report("empty", SimTime::from_secs(10));
        assert_eq!(r.issued, 0);
        assert_eq!(r.handled_fraction(), 0.0);
        assert_eq!(r.peak_throughput_qps, 0.0);
    }

    #[test]
    fn timed_out_requests_do_not_pollute_response_series() {
        let mut c = Collector::new();
        c.record(RequestTrace::timed_out(ClientId(0), DpId(0), SimTime::ZERO));
        assert_eq!(c.responses().count(), 0);
        assert_eq!(c.traces().len(), 1);
    }

    /// Peaks are taken over per-minute bins of completion time: response
    /// over non-empty bins only, throughput over every bin.
    #[test]
    fn peaks_come_from_minute_bins() {
        let mut c = Collector::new();
        c.record(answered(0, 5)); // completes at 5 s
        c.record(answered(60, 50)); // 110 s
        c.record(answered(70, 30)); // 100 s
        c.record(answered(200, 100)); // 300 s: past the horizon, binned nowhere
        let r = c.report("peaks", SimTime::from_secs(180));
        assert_eq!(r.peak_response_secs, 40.0);
        assert!((r.peak_throughput_qps - 2.0 / 60.0).abs() < 1e-12);
        assert_eq!(r.response.count, 4, "the summary takes every response");
        assert_eq!(c.into_traces().len(), 4);
    }
}
