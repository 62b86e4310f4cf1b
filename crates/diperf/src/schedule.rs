//! Tester ramp schedules.

use gruber_types::{ClientId, SimDuration, SimTime};

/// When each tester client joins the experiment.
///
/// DiPerF "varies slowly the participation of clients": client `i` joins at
/// `i * ramp_span / n_clients` and stays until the end (the paper's load
/// curves climb roughly linearly and then hold).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RampSchedule {
    /// Number of tester clients.
    pub n_clients: u32,
    /// Window over which clients join.
    pub(crate) ramp_span: SimDuration,
    /// Total experiment duration (clients run from join time to here).
    pub(crate) duration: SimDuration,
    /// Window at the end of the run over which clients leave again
    /// (zero = everyone stays until the end, the paper's shape).
    pub(crate) departure_span: SimDuration,
}

impl RampSchedule {
    /// A ramp over the first `ramp_fraction` of the experiment (the
    /// paper's share, 0.6, is set by `workload::WorkloadSpec`).
    pub fn new(n_clients: u32, duration: SimDuration, ramp_fraction: f64) -> Self {
        assert!(n_clients > 0, "no clients");
        assert!((0.0..=1.0).contains(&ramp_fraction), "bad ramp fraction");
        RampSchedule {
            n_clients,
            ramp_span: SimDuration::from_millis(
                (duration.as_millis() as f64 * ramp_fraction) as u64,
            ),
            duration,
            departure_span: SimDuration::ZERO,
        }
    }

    /// Adds a departure ramp over the last `fraction` of the run: clients
    /// leave in join order, staggered across the window (DiPerF tears
    /// testers down the same way it brings them up).
    pub fn with_departure(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "bad departure fraction");
        self.departure_span = SimDuration::from_millis(
            (self.duration.as_millis() as f64 * fraction) as u64,
        );
        self
    }

    /// When `client` leaves, if a departure ramp is configured.
    pub fn leave_of(&self, client: ClientId) -> Option<SimTime> {
        assert!(client.0 < self.n_clients, "client out of schedule");
        if self.departure_span.is_zero() {
            return None;
        }
        let start = self.duration.as_millis() - self.departure_span.as_millis();
        let step = self.departure_span.as_millis() / u64::from(self.n_clients);
        Some(SimTime(start + u64::from(client.0) * step))
    }

    /// When `client` joins.
    pub fn start_of(&self, client: ClientId) -> SimTime {
        assert!(client.0 < self.n_clients, "client out of schedule");
        let step = self.ramp_span.as_millis() / u64::from(self.n_clients);
        SimTime(u64::from(client.0) * step)
    }

    /// End of the experiment.
    pub fn end(&self) -> SimTime {
        SimTime(self.duration.as_millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of clients active at `t` (joined and not yet departed).
    fn active_at(r: &RampSchedule, t: SimTime) -> u32 {
        if t >= r.end() {
            return 0;
        }
        (0..r.n_clients)
            .filter(|&c| {
                let c = ClientId(c);
                r.start_of(c) <= t && r.leave_of(c).is_none_or(|l| t < l)
            })
            .count() as u32
    }

    #[test]
    fn clients_join_in_order() {
        let r = RampSchedule::new(120, SimDuration::HOUR, 0.6);
        assert_eq!(r.start_of(ClientId(0)), SimTime::ZERO);
        let mid = r.start_of(ClientId(60));
        let last = r.start_of(ClientId(119));
        assert!(mid > SimTime::ZERO && last > mid);
        assert!(last <= SimTime(r.ramp_span.as_millis()));
    }

    #[test]
    fn active_count_monotone_during_run() {
        let r = RampSchedule::new(50, SimDuration::from_mins(10), 0.6);
        let mut prev = 0;
        for s in (0..600).step_by(30) {
            let a = active_at(&r, SimTime::from_secs(s));
            assert!(a >= prev);
            prev = a;
        }
        assert_eq!(prev, 50);
        assert_eq!(active_at(&r, r.end()), 0, "everyone leaves at the end");
    }

    #[test]
    fn zero_ramp_starts_everyone_at_zero() {
        let r = RampSchedule::new(10, SimDuration::from_mins(5), 0.0);
        for c in 0..10 {
            assert_eq!(r.start_of(ClientId(c)), SimTime::ZERO);
        }
        assert_eq!(active_at(&r, SimTime::ZERO), 10);
    }

    #[test]
    #[should_panic(expected = "out of schedule")]
    fn unknown_client_panics() {
        RampSchedule::new(5, SimDuration::HOUR, 0.6).start_of(ClientId(5));
    }

    #[test]
    fn departure_ramp_staggers_leaves() {
        let r = RampSchedule::new(10, SimDuration::from_mins(10), 0.6).with_departure(0.2);
        // Departures start at minute 8.
        let first = r.leave_of(ClientId(0)).unwrap();
        let last = r.leave_of(ClientId(9)).unwrap();
        assert_eq!(first, SimTime::from_secs(480));
        assert!(last > first);
        assert!(last < r.end());
        // Active count falls during the departure window.
        let mid_run = active_at(&r, SimTime::from_secs(420));
        let during = active_at(&r, SimTime::from_secs(530));
        assert_eq!(mid_run, 10);
        assert!(during < 10 && during > 0, "active during departure: {during}");
    }

    #[test]
    fn no_departure_means_none() {
        let r = RampSchedule::new(4, SimDuration::HOUR, 0.6);
        assert_eq!(r.leave_of(ClientId(2)), None);
    }
}
