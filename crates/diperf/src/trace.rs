//! Request-level traces.

use gruber_types::{ClientId, DpId, SimDuration, SimTime};

/// The outcome of one tester request — DiPerF's unit of record, and the
/// input GRUB-SIM replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTrace {
    /// Issuing tester client.
    pub client: ClientId,
    /// Decision point the client is bound to.
    pub dp: DpId,
    /// When the client sent the request.
    pub sent_at: SimTime,
    /// Full round-trip response time, if the service answered in time.
    pub response: Option<SimDuration>,
    /// Whether the client's timeout fired first (→ random site selection).
    pub timed_out: bool,
}

impl RequestTrace {
    /// A successfully answered request.
    pub fn answered(client: ClientId, dp: DpId, sent_at: SimTime, response: SimDuration) -> Self {
        RequestTrace {
            client,
            dp,
            sent_at,
            response: Some(response),
            timed_out: false,
        }
    }

    /// A request whose client timed out and never saw a response.
    pub fn timed_out(client: ClientId, dp: DpId, sent_at: SimTime) -> Self {
        RequestTrace {
            client,
            dp,
            sent_at,
            response: None,
            timed_out: true,
        }
    }

    /// A request whose client timed out but whose response did eventually
    /// arrive (the service completed it; DiPerF's service-side throughput
    /// counts it, the client's random fallback had already happened).
    pub fn late(client: ClientId, dp: DpId, sent_at: SimTime, response: SimDuration) -> Self {
        RequestTrace {
            client,
            dp,
            sent_at,
            response: Some(response),
            timed_out: true,
        }
    }

    /// Whether a decision point served this request in time.
    pub fn handled(&self) -> bool {
        self.response.is_some() && !self.timed_out
    }

    /// When the response arrived (answered requests only).
    pub fn completed_at(&self) -> Option<SimTime> {
        self.response.map(|r| self.sent_at + r)
    }
}

/// Counts client-visible timeouts per decision point over `traces`: one
/// entry for each of the deployment's `n_dps` points, so a point no trace
/// names still gets its 0. Every trace's point must be below `n_dps`.
///
/// This is the run-summary surface of the fault layer: injected message
/// loss must show up here (`digruber::run`'s tests assert it does),
/// otherwise a degraded run is indistinguishable from a healthy one at a
/// glance.
pub fn timeouts_by_dp(traces: &[RequestTrace], n_dps: usize) -> Vec<u64> {
    let mut counts = vec![0; n_dps];
    for t in traces.iter().filter(|t| t.timed_out) {
        counts[t.dp.index()] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answered_and_timed_out_semantics() {
        let a = RequestTrace::answered(
            ClientId(1),
            DpId(0),
            SimTime::from_secs(10),
            SimDuration::from_secs(3),
        );
        assert!(a.handled());
        assert_eq!(a.completed_at(), Some(SimTime::from_secs(13)));
        let t = RequestTrace::timed_out(ClientId(1), DpId(0), SimTime::from_secs(10));
        assert!(!t.handled());
        assert_eq!(t.completed_at(), None);
        let l = RequestTrace::late(
            ClientId(1),
            DpId(0),
            SimTime::from_secs(10),
            SimDuration::from_secs(45),
        );
        assert!(!l.handled(), "late responses are not 'handled'");
        assert_eq!(l.completed_at(), Some(SimTime::from_secs(55)));
    }

    #[test]
    fn timeouts_by_dp_counts_only_timeouts() {
        let sent = SimTime::from_secs(10);
        let resp = SimDuration::from_secs(3);
        let timed_out = |dp| RequestTrace::timed_out(ClientId(0), DpId(dp), sent);
        let answered = |dp| RequestTrace::answered(ClientId(0), DpId(dp), sent, resp);
        let traces = [
            timed_out(0),
            timed_out(2),
            answered(2),
            // A late answer is still a client-visible timeout.
            RequestTrace::late(ClientId(0), DpId(2), sent, resp),
            answered(1),
        ];
        // Point 3 of the four-point deployment has no traces: it still
        // gets its 0, as does point 1, whose only request was answered.
        assert_eq!(timeouts_by_dp(&traces, 4), vec![1, 0, 2, 0]);
        assert_eq!(timeouts_by_dp(&[], 2), vec![0, 0]);
        assert!(timeouts_by_dp(&[], 0).is_empty());
    }
}
