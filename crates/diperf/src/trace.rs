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
}
