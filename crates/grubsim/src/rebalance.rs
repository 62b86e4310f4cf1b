//! Load rebalancing across existing decision points.
//!
//! The paper's third-party observer can react to saturation "by adding
//! decision points or by rebalancing load among existing decision points
//! to avoid overloading". [`simulate_rebalancing`] replays a trace with
//! per-point arrival accounting and answers: how many overloads does
//! rebalancing alone absorb, and how many clients must move?
//!
//! Rebalancing helps exactly when the load is *skewed* — some points
//! saturated while others have slack. When the aggregate demand exceeds
//! aggregate capacity, only provisioning (see [`crate::replay`]) helps.

use crate::capacity::CapacityModel;
use diperf::RequestTrace;
use gruber_types::SimDuration;

/// Outcome of a rebalancing replay.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceReport {
    /// Decision points in the trace.
    pub dps: usize,
    /// Overload events with the trace's original static binding.
    pub overloads_static: usize,
    /// Overload events remaining after per-interval rebalancing.
    pub overloads_rebalanced: usize,
    /// Load moves performed (one per interval where traffic was shifted).
    pub moves: usize,
    /// Replay intervals processed.
    pub intervals: usize,
}

impl RebalanceReport {
    /// Fraction of static overloads that rebalancing absorbed (1.0 when
    /// there were none to begin with).
    pub fn absorbed_fraction(&self) -> f64 {
        if self.overloads_static == 0 {
            return 1.0;
        }
        1.0 - self.overloads_rebalanced as f64 / self.overloads_static as f64
    }
}

/// Replays a trace twice over fixed intervals: once with the original
/// client→point binding, once letting the observer move excess arrivals
/// from saturated points to points with slack (within the same interval).
///
/// `n_dps` is the deployment size; it must cover every point referenced in
/// the trace (points a trace never mentions are idle capacity the observer
/// can shift load onto).
pub fn simulate_rebalancing(
    traces: &[RequestTrace],
    n_dps: usize,
    model: CapacityModel,
    interval: SimDuration,
) -> RebalanceReport {
    assert!(!interval.is_zero(), "zero replay interval");
    let referenced = traces.iter().map(|t| t.dp.index() + 1).max().unwrap_or(1);
    assert!(
        n_dps >= referenced,
        "trace references {referenced} decision points, deployment claims {n_dps}"
    );
    let dps = n_dps;
    if traces.is_empty() {
        return RebalanceReport {
            dps,
            overloads_static: 0,
            overloads_rebalanced: 0,
            moves: 0,
            intervals: 0,
        };
    }
    let horizon = traces.iter().map(|t| t.sent_at.as_millis()).max().unwrap_or(0) + 1;
    let n_bins = horizon.div_ceil(interval.as_millis()) as usize;
    // arrivals[bin][dp]
    let mut arrivals = vec![vec![0.0f64; dps]; n_bins];
    for t in traces {
        let bin = (t.sent_at.as_millis() / interval.as_millis()) as usize;
        arrivals[bin][t.dp.index()] += 1.0;
    }

    let per_dp = model.per_interval(interval.as_secs_f64());
    let burst = f64::from(model.burst_backlog);

    let mut overloads_static = 0usize;
    let mut overloads_rebalanced = 0usize;
    let mut moves = 0usize;
    let mut backlog_static = vec![0.0f64; dps];
    let mut backlog_rebal = vec![0.0f64; dps];

    for bin in &arrivals {
        // Static binding: each point keeps what its clients sent.
        for d in 0..dps {
            let offered = bin[d] + backlog_static[d];
            backlog_static[d] = (offered - per_dp).max(0.0);
            if backlog_static[d] > burst {
                overloads_static += 1;
                backlog_static[d] = burst; // the observer would intervene
            }
        }
        // Rebalanced: pool the excess over points with slack.
        let mut offered: Vec<f64> = (0..dps).map(|d| bin[d] + backlog_rebal[d]).collect();
        let total_excess: f64 = offered.iter().map(|&o| (o - per_dp).max(0.0)).sum();
        let total_slack: f64 = offered.iter().map(|&o| (per_dp - o).max(0.0)).sum();
        if total_excess > 0.0 && total_slack > 0.0 {
            moves += 1;
            let shift = total_excess.min(total_slack);
            // Take proportionally from the overloaded, give to the slack.
            let mut remaining = shift;
            for o in offered.iter_mut() {
                if *o > per_dp {
                    let take = (*o - per_dp).min(remaining);
                    *o -= take;
                    remaining -= take;
                }
            }
            let mut to_give = shift;
            for o in offered.iter_mut() {
                if *o < per_dp {
                    let give = (per_dp - *o).min(to_give);
                    *o += give;
                    to_give -= give;
                }
            }
        }
        for d in 0..dps {
            backlog_rebal[d] = (offered[d] - per_dp).max(0.0);
            if backlog_rebal[d] > burst {
                overloads_rebalanced += 1;
                backlog_rebal[d] = burst;
            }
        }
    }

    RebalanceReport {
        dps,
        overloads_static,
        overloads_rebalanced,
        moves,
        intervals: n_bins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{ClientId, DpId, SimTime};

    /// `rates[d]` requests/second hitting decision point `d` for `secs`.
    fn skewed_trace(rates: &[u64], secs: u64) -> Vec<RequestTrace> {
        let mut out = Vec::new();
        for s in 0..secs {
            for (d, &rate) in rates.iter().enumerate() {
                for k in 0..rate {
                    out.push(RequestTrace::answered(
                        ClientId(k as u32),
                        DpId(d as u32),
                        SimTime::from_secs(s),
                        SimDuration::from_secs(1),
                    ));
                }
            }
        }
        out
    }

    #[test]
    fn skewed_load_is_absorbed_by_rebalancing() {
        // DP 0 gets 4 q/s (double a GT3 point's capacity), DPs 1-3 idle.
        let traces = skewed_trace(&[4, 0, 0, 0], 600);
        let r = simulate_rebalancing(&traces, 4, CapacityModel::gt3(), SimDuration::MINUTE);
        assert!(r.overloads_static > 0, "static binding should overload");
        assert_eq!(
            r.overloads_rebalanced, 0,
            "aggregate capacity (8 q/s) covers 4 q/s: {r:?}"
        );
        assert!(r.moves > 0);
        assert_eq!(r.absorbed_fraction(), 1.0);
    }

    #[test]
    fn aggregate_overload_cannot_be_rebalanced_away() {
        // Every point is past capacity: 3 q/s each against 2 q/s points.
        let traces = skewed_trace(&[3, 3], 600);
        let r = simulate_rebalancing(&traces, 2, CapacityModel::gt3(), SimDuration::MINUTE);
        assert!(r.overloads_static > 0);
        assert!(
            r.overloads_rebalanced > 0,
            "rebalancing cannot create capacity: {r:?}"
        );
        assert!(r.absorbed_fraction() < 0.5);
    }

    #[test]
    fn balanced_light_load_needs_nothing() {
        let traces = skewed_trace(&[1, 1, 1], 300);
        let r = simulate_rebalancing(&traces, 3, CapacityModel::gt3(), SimDuration::MINUTE);
        assert_eq!(r.overloads_static, 0);
        assert_eq!(r.overloads_rebalanced, 0);
        assert_eq!(r.moves, 0);
        assert_eq!(r.absorbed_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "deployment claims")]
    fn undersized_deployment_is_rejected() {
        let traces = skewed_trace(&[1, 1], 10);
        simulate_rebalancing(&traces, 1, CapacityModel::gt3(), SimDuration::MINUTE);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let r = simulate_rebalancing(&[], 1, CapacityModel::gt3(), SimDuration::MINUTE);
        assert_eq!(r.intervals, 0);
        assert_eq!(r.absorbed_fraction(), 1.0);
    }
}
