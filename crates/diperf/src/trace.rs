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

/// Serializes traces to a line format
/// (`client dp sent_ms <response_ms|T|T:response_ms>`), the hand-off format
/// between experiment runs and GRUB-SIM.
pub fn to_lines(traces: &[RequestTrace]) -> String {
    let mut out = String::new();
    for t in traces {
        let outcome = match (t.response, t.timed_out) {
            (Some(r), false) => r.as_millis().to_string(),
            (Some(r), true) => format!("T:{}", r.as_millis()),
            (None, _) => "T".to_string(),
        };
        out.push_str(&format!(
            "{} {} {} {}\n",
            t.client.0,
            t.dp.0,
            t.sent_at.as_millis(),
            outcome
        ));
    }
    out
}

/// Parses the line format back.
pub fn from_lines(input: &str) -> Result<Vec<RequestTrace>, gruber_types::GridError> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut next = || {
            it.next().ok_or_else(|| {
                gruber_types::GridError::InvalidConfig(format!("trace line {}: short", i + 1))
            })
        };
        let client: u32 = next()?.parse().map_err(|_| {
            gruber_types::GridError::InvalidConfig(format!("trace line {}: bad client", i + 1))
        })?;
        let dp: u32 = next()?.parse().map_err(|_| {
            gruber_types::GridError::InvalidConfig(format!("trace line {}: bad dp", i + 1))
        })?;
        let sent: u64 = next()?.parse().map_err(|_| {
            gruber_types::GridError::InvalidConfig(format!("trace line {}: bad time", i + 1))
        })?;
        let outcome = next()?;
        let trace = if outcome == "T" {
            RequestTrace::timed_out(ClientId(client), DpId(dp), SimTime(sent))
        } else if let Some(ms) = outcome.strip_prefix("T:") {
            let ms: u64 = ms.parse().map_err(|_| {
                gruber_types::GridError::InvalidConfig(format!(
                    "trace line {}: bad late response",
                    i + 1
                ))
            })?;
            RequestTrace::late(
                ClientId(client),
                DpId(dp),
                SimTime(sent),
                SimDuration::from_millis(ms),
            )
        } else {
            let ms: u64 = outcome.parse().map_err(|_| {
                gruber_types::GridError::InvalidConfig(format!(
                    "trace line {}: bad response",
                    i + 1
                ))
            })?;
            RequestTrace::answered(
                ClientId(client),
                DpId(dp),
                SimTime(sent),
                SimDuration::from_millis(ms),
            )
        };
        out.push(trace);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn line_roundtrip() {
        let traces = vec![
            RequestTrace::answered(ClientId(3), DpId(1), SimTime(500), SimDuration(2500)),
            RequestTrace::timed_out(ClientId(4), DpId(0), SimTime(800)),
            RequestTrace::late(ClientId(5), DpId(0), SimTime(900), SimDuration(60_000)),
        ];
        let lines = to_lines(&traces);
        assert_eq!(from_lines(&lines).unwrap(), traces);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_lines("1 2\n").is_err());
        assert!(from_lines("a 2 3 4\n").is_err());
        assert!(from_lines("1 2 3 x\n").is_err());
        assert!(from_lines("1 2 3 T:x\n").is_err());
        assert!(from_lines("\n\n").unwrap().is_empty());
    }

    proptest! {
        #[test]
        fn roundtrip_any(reqs in proptest::collection::vec(
            (0u32..500, 0u32..16, 0u64..4_000_000, proptest::option::of(0u64..200_000), proptest::bool::ANY),
            0..100,
        )) {
            let traces: Vec<RequestTrace> = reqs
                .into_iter()
                .map(|(c, d, s, r, late)| match (r, late) {
                    (Some(ms), false) => RequestTrace::answered(
                        ClientId(c), DpId(d), SimTime(s), SimDuration(ms)),
                    (Some(ms), true) => RequestTrace::late(
                        ClientId(c), DpId(d), SimTime(s), SimDuration(ms)),
                    (None, _) => RequestTrace::timed_out(ClientId(c), DpId(d), SimTime(s)),
                })
                .collect();
            prop_assert_eq!(from_lines(&to_lines(&traces)).unwrap(), traces);
        }
    }
}
