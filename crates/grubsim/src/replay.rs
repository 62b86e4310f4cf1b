//! Trace replay and decision-point provisioning.

use crate::capacity::{CapacityModel, BURST_BACKLOG};
use diperf::RequestTrace;
use gruber_types::{SimDuration, SimTime};
use obs::{Recorder, TraceEvent};

/// What GRUB-SIM concluded from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct GrubSimReport {
    /// Decision points the traced experiment ran with.
    pub initial_dps: usize,
    /// Decision points GRUB-SIM added during the replay.
    pub added_dps: usize,
    /// Saturation (overload) events observed.
    pub(crate) overload_events: usize,
    /// Replay intervals processed.
    pub intervals: usize,
    /// Peak offered load observed, queries/second.
    pub peak_offered_qps: f64,
    /// Sustainable per-point throughput of the capacity model used.
    pub(crate) model_qps: f64,
}

impl GrubSimReport {
    /// Total decision points required (`initial + added`).
    pub fn required_dps(&self) -> usize {
        self.initial_dps + self.added_dps
    }

    /// Decision points needed to sustain the *peak offered demand* of the
    /// trace — the capacity-planning answer ("how many points would this
    /// grid need?"), independent of how many the traced run started with.
    pub(crate) fn required_for_peak(&self) -> usize {
        (self.peak_offered_qps / self.model_qps).ceil().max(1.0) as usize
    }

    /// Renders a Table 3 row.
    pub fn row(&self) -> String {
        format!(
            "{:>3} initial  +{:<2} added  = {:>3} required   ({} overloads, peak {:.2} q/s)",
            self.initial_dps,
            self.added_dps,
            self.required_dps(),
            self.overload_events,
            self.peak_offered_qps
        ) + &format!("  [{} would sustain the peak demand]", self.required_for_peak())
    }
}

/// Replays a DiPerF trace against a capacity model, adding decision points
/// whenever the offered load saturates the current set.
///
/// `initial_dps` is the size of the deployment the trace was recorded on:
/// a point whose clients sent nothing still counts. The replay walks fixed
/// intervals; in each it offers the interval's requests (answered *and*
/// timed out — timeouts are demand the saturated service shed) plus any
/// backlog carried over. When the backlog exceeds the burst allowance of
/// the current decision-point set, an overload event fires and one
/// decision point is added (the paper's monitor adds points one at a time
/// as saturation signals arrive). Every overload event and addition is
/// emitted to `tracer`, timestamped at the start of the replay interval
/// that triggered it.
pub fn simulate_required_dps(
    traces: &[RequestTrace],
    initial_dps: usize,
    model: CapacityModel,
    interval: SimDuration,
    tracer: &Recorder,
) -> GrubSimReport {
    assert!(!interval.is_zero(), "zero replay interval");
    if traces.is_empty() {
        return GrubSimReport {
            initial_dps,
            added_dps: 0,
            overload_events: 0,
            intervals: 0,
            peak_offered_qps: 0.0,
            model_qps: model.qps,
        };
    }
    let horizon = traces.iter().map(|t| t.sent_at.as_millis()).max().unwrap_or(0) + 1;
    let n_bins = horizon.div_ceil(interval.as_millis()) as usize;
    let mut arrivals = vec![0u64; n_bins];
    for t in traces {
        arrivals[(t.sent_at.as_millis() / interval.as_millis()) as usize] += 1;
    }

    let secs = interval.as_secs_f64();
    let mut dps = initial_dps;
    let mut added = 0usize;
    let mut overloads = 0usize;
    let mut backlog = 0.0f64;
    let mut peak_offered = 0.0f64;

    for (idx, &a) in arrivals.iter().enumerate() {
        let offered = a as f64 + backlog;
        peak_offered = peak_offered.max(a as f64 / secs);
        let capacity = dps as f64 * model.per_interval(secs);
        backlog = (offered - capacity).max(0.0);
        let burst_allowance = (dps as u32 * BURST_BACKLOG) as f64;
        if backlog > burst_allowance {
            overloads += 1;
            dps += 1;
            added += 1;
            let at = SimTime(idx as u64 * interval.as_millis());
            tracer.emit(at, || TraceEvent::ReplayOverload {
                interval: idx as u64,
                backlog: backlog as u64,
            });
            tracer.emit(at, || TraceEvent::ReplayDpAdded {
                interval: idx as u64,
                total: dps as u32,
            });
        }
    }

    GrubSimReport {
        initial_dps,
        added_dps: added,
        overload_events: overloads,
        intervals: n_bins,
        peak_offered_qps: peak_offered,
        model_qps: model.qps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{ClientId, DpId, SimTime};

    /// Builds a trace with `rate` requests/second for `secs` seconds,
    /// spread over `n_dps` decision points.
    fn steady_trace(rate: u64, secs: u64, n_dps: u32) -> Vec<RequestTrace> {
        let mut out = Vec::new();
        for s in 0..secs {
            for k in 0..rate {
                let i = s * rate + k;
                out.push(RequestTrace::answered(
                    ClientId((i % 50) as u32),
                    DpId((i % u64::from(n_dps)) as u32),
                    SimTime::from_secs(s),
                    gruber_types::SimDuration::from_secs(1),
                ));
            }
        }
        out
    }

    /// Replays `traces` on an `initial_dps`-point deployment, untraced.
    fn replay(traces: &[RequestTrace], initial_dps: usize, model: CapacityModel) -> GrubSimReport {
        simulate_required_dps(traces, initial_dps, model, SimDuration::MINUTE, &Recorder::OFF)
    }

    #[test]
    fn underloaded_trace_needs_no_additions() {
        // 1 q/s against a 2 q/s point.
        let r = replay(&steady_trace(1, 300, 1), 1, CapacityModel::gt3());
        assert_eq!(r.added_dps, 0);
        assert_eq!(r.required_dps(), 1);
        assert_eq!(r.overload_events, 0);
    }

    #[test]
    fn overloaded_trace_provisions_until_capacity_matches() {
        // 7 q/s against 2 q/s points starting from one: needs ~4 total.
        let r = replay(&steady_trace(7, 600, 1), 1, CapacityModel::gt3());
        assert!(r.required_dps() >= 4, "{r:?}");
        assert!(r.required_dps() <= 6, "{r:?}");
        assert!(r.overload_events > 0);
        assert!((r.peak_offered_qps - 7.0).abs() < 1e-9);
    }

    #[test]
    fn weaker_service_needs_more_points() {
        // Never fewer on the same trace, whatever the load (1 q/s fits one
        // point of either stack); strictly more once GT3 itself overloads.
        for rate in [1, 2, 5, 9] {
            let traces = steady_trace(rate, 600, 1);
            let gt3 = replay(&traces, 1, CapacityModel::gt3());
            let gt4 = replay(&traces, 1, CapacityModel::gt4_prerelease());
            assert!(
                gt4.required_dps() >= gt3.required_dps() + usize::from(rate >= 5),
                "{rate} q/s: GT4-pre {} vs GT3 {}",
                gt4.required_dps(),
                gt3.required_dps()
            );
        }
    }

    #[test]
    fn a_point_whose_clients_sent_nothing_still_counts() {
        // 3 q/s, all on DP 0 of a 3-point GT3 deployment: three points
        // absorb it, so none is added, though the trace names only DP 0.
        let r = replay(&steady_trace(3, 600, 1), 3, CapacityModel::gt3());
        assert_eq!(r.initial_dps, 3);
        assert_eq!(r.added_dps, 0, "{r:?}");
        assert_eq!(r.overload_events, 0);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let r = replay(&[], 1, CapacityModel::gt3());
        assert_eq!(r.required_dps(), 1);
        assert_eq!(r.intervals, 0);
    }

    #[test]
    fn timed_out_requests_count_as_demand() {
        let mut traces = steady_trace(1, 300, 1);
        // Add 6 q/s of timed-out demand.
        for s in 0..300u64 {
            for k in 0..6 {
                traces.push(RequestTrace::timed_out(
                    ClientId(k),
                    DpId(0),
                    SimTime::from_secs(s),
                ));
            }
        }
        let r = replay(&traces, 1, CapacityModel::gt3());
        assert!(r.added_dps >= 2, "shed demand ignored: {r:?}");
    }

    #[test]
    fn row_renders() {
        let r = replay(&steady_trace(1, 60, 1), 1, CapacityModel::gt3());
        assert!(r.row().contains("required"));
    }
}
