//! Decision-point capacity models.
//!
//! "We use performance models created by DiPerF to establish an upper
//! bound on the number of transactions that a decision point can handle
//! per time interval. When this upper bound is reached, a decision point
//! can trigger a saturation signal to a third party monitoring service."

/// Short bursts above a point's `qps` are absorbed by its container queue
/// up to this backlog before responses degrade past the acceptable bound
/// (the same for every service stack).
pub(crate) const BURST_BACKLOG: u32 = 8;

/// An upper bound on what one decision point absorbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityModel {
    /// Sustainable throughput, queries/second (the DiPerF plateau).
    pub(crate) qps: f64,
}

impl CapacityModel {
    /// Capacity of a GT3 decision point (DiPerF plateau ≈ 2 q/s).
    pub fn gt3() -> Self {
        CapacityModel { qps: 2.0 }
    }

    /// Capacity of a GT 3.9.4-prerelease decision point (≈ 1.2 q/s).
    pub fn gt4_prerelease() -> Self {
        CapacityModel { qps: 1.2 }
    }

    /// Requests one point absorbs in an interval of `secs` seconds.
    pub(crate) fn per_interval(&self, secs: f64) -> f64 {
        self.qps * secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_ordered() {
        assert!(CapacityModel::gt3().qps > CapacityModel::gt4_prerelease().qps);
    }

    #[test]
    fn per_interval_scales() {
        let m = CapacityModel { qps: 2.0 };
        assert_eq!(m.per_interval(60.0), 120.0);
    }
}
