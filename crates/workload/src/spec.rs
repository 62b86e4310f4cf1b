//! Workload specification.

use desim::Dist;
use gruber_types::SimDuration;

/// The knobs describing one experiment's workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of virtual organizations.
    pub n_vos: u32,
    /// Groups per VO.
    pub groups_per_vo: u32,
    /// Submission hosts (DiPerF tester clients).
    pub n_clients: u32,
    /// Client think time between receiving a placement and issuing the next
    /// query (closed-loop workload), in seconds.
    pub think_time: Dist,
    /// Job wall-clock runtime, in seconds.
    pub job_runtime: Dist,
    /// Experiment duration.
    pub duration: SimDuration,
    /// Fraction of the run over which clients leave again at the end
    /// (0.0 = everyone stays, the paper's figures).
    pub departure_fraction: f64,
    /// Fraction of the run over which clients join, one DiPerF ramp that
    /// every client's start is posted on before the first event. The
    /// paper's shape is 0.6, a ramp over the first 60 % of the
    /// experiment; the elastic-membership scenarios override it
    /// ([`WorkloadSpec::diurnal`], [`WorkloadSpec::flash_crowd`]).
    pub ramp_fraction: f64,
}

impl WorkloadSpec {
    /// The Section 4 configuration: 10 VOs × 10 groups, ~120 submission
    /// hosts submitting in a closed loop with ~9 s think time, 40-minute
    /// (log-normal) jobs, one hour of experiment.
    pub fn paper_default() -> Self {
        WorkloadSpec {
            n_vos: 10,
            groups_per_vo: 10,
            n_clients: 120,
            think_time: Dist::lognormal_mean_cv(9.0, 0.5),
            job_runtime: Dist::lognormal_mean_cv(2400.0, 1.0),
            duration: SimDuration::HOUR,
            departure_fraction: 0.0,
            ramp_fraction: 0.6,
        }
    }

    /// A small configuration for unit tests and the quickstart example:
    /// 2 VOs × 2 groups, 8 clients, 10 minutes.
    pub fn small() -> Self {
        WorkloadSpec {
            n_vos: 2,
            groups_per_vo: 2,
            n_clients: 8,
            think_time: Dist::lognormal_mean_cv(5.0, 0.5),
            job_runtime: Dist::lognormal_mean_cv(120.0, 0.8),
            duration: SimDuration::from_mins(10),
            departure_fraction: 0.0,
            ramp_fraction: 0.6,
        }
    }

    /// A beyond-paper client-scale configuration: `n_clients` submission
    /// hosts ramping over a two-minute experiment, 10 VOs × 10 groups.
    ///
    /// The shape is chosen so memory, not throughput, is what grows with
    /// the client count: think time (~5 min mean) is long relative to the
    /// two-minute duration, so each client issues roughly one query — its
    /// initial synchronous query on arrival — and the in-flight work per
    /// client stays O(1). That keeps 10k/100k/1M-client ramps bounded by
    /// per-client bookkeeping (client state, one job record, one dispatch
    /// observation) rather than by an ever-deepening closed loop.
    pub fn scaled(n_clients: u32) -> Self {
        WorkloadSpec {
            n_vos: 10,
            groups_per_vo: 10,
            n_clients,
            think_time: Dist::lognormal_mean_cv(300.0, 0.5),
            job_runtime: Dist::lognormal_mean_cv(2400.0, 1.0),
            duration: SimDuration::from_mins(2),
            departure_fraction: 0.0,
            ramp_fraction: 0.6,
        }
    }

    /// A diurnal-ish load curve for the elastic-membership scenarios:
    /// clients ramp up over the first ~45 % of the run, hold, then drain
    /// over the last ~45 % — the shape an autoscaler should track with
    /// one grow phase and one shrink phase.
    pub fn diurnal(n_clients: u32) -> Self {
        WorkloadSpec {
            n_clients,
            ramp_fraction: 0.45,
            departure_fraction: 0.45,
            ..WorkloadSpec::paper_default()
        }
    }

    /// A flash crowd: the whole population arrives in the first ~5 % of
    /// the run and stays — the worst case for an autoscaler's reaction
    /// time and for re-homing churn right after growth.
    pub fn flash_crowd(n_clients: u32) -> Self {
        WorkloadSpec {
            n_clients,
            ramp_fraction: 0.05,
            ..WorkloadSpec::paper_default()
        }
    }

    /// Sanity-checks the spec.
    pub fn validate(&self) -> Result<(), gruber_types::GridError> {
        let invalid = |why: String| Err(gruber_types::GridError::InvalidConfig(why));
        if self.n_vos == 0
            || self.groups_per_vo == 0
            || self.n_clients == 0
            || self.duration.is_zero()
        {
            return invalid("workload spec has a zero field".into());
        }
        let fractions = [
            ("departure", self.departure_fraction),
            ("ramp", self.ramp_fraction),
        ];
        for (name, f) in fractions {
            if !(0.0..=1.0).contains(&f) {
                return invalid(format!("{name} fraction {f} outside [0, 1]"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let w = WorkloadSpec::paper_default();
        w.validate().unwrap();
        assert_eq!(w.n_vos, 10);
        assert_eq!(w.groups_per_vo, 10);
        assert_eq!(w.n_clients, 120);
        assert_eq!(w.duration, SimDuration::HOUR);
        // Open-loop demand (every client cycling with zero response time)
        // must exceed a single GT3 decision point's ~2 q/s capacity: that
        // is what drives the paper's 1-DP saturation.
        assert!(f64::from(w.n_clients) / w.think_time.mean() > 5.0);
    }

    #[test]
    fn scaled_shape_is_memory_bounded() {
        let w = WorkloadSpec::scaled(100_000);
        w.validate().unwrap();
        assert_eq!(w.n_clients, 100_000);
        // Think time must dominate the duration so each client issues ~1
        // query and the run's footprint scales with population, not with
        // closed-loop depth.
        assert!(w.think_time.mean() > w.duration.as_secs_f64());
    }

    #[test]
    fn scenario_shapes() {
        let d = WorkloadSpec::diurnal(100);
        d.validate().unwrap();
        assert_eq!(d.ramp_fraction, 0.45);
        assert_eq!(d.departure_fraction, 0.45);
        let f = WorkloadSpec::flash_crowd(100);
        f.validate().unwrap();
        assert_eq!(f.ramp_fraction, 0.05);
        assert_eq!(f.departure_fraction, 0.0);
        let why = |w: WorkloadSpec| w.validate().unwrap_err().to_string();
        let ramp = why(WorkloadSpec {
            ramp_fraction: 1.5,
            ..WorkloadSpec::small()
        });
        assert!(ramp.contains("ramp fraction"), "{ramp}");
        let departure = why(WorkloadSpec {
            departure_fraction: 1.5,
            ..WorkloadSpec::small()
        });
        assert!(departure.contains("departure fraction"), "{departure}");
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut w = WorkloadSpec::small();
        w.validate().unwrap();
        w.n_clients = 0;
        assert!(w.validate().is_err());
        let mut w = WorkloadSpec::small();
        w.duration = SimDuration::ZERO;
        assert!(w.validate().is_err());
    }
}
