//! Site policy enforcement points (S-PEPs).
//!
//! "Site policy enforcement points (S-PEPs) reside at all sites and enforce
//! site-specific policies. In our experiments, we did not take S-PEPs into
//! consideration [...] and assumed the decision points have total control
//! over scheduling decisions." We implement them anyway as an extension:
//! a site can cap any single VO's simultaneous CPU usage. The default
//! policy admits everything, reproducing the paper's assumption.

use gruber_types::{JobSpec, VoId};
use std::collections::HashMap;

/// A site-local admission policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SitePolicy {
    /// Max fraction of the site's CPUs any single VO may hold at once
    /// (`None` = unlimited — the paper's configuration).
    pub(crate) vo_cap_fraction: Option<f64>,
    /// Per-VO overrides in absolute CPUs (take precedence over the
    /// fraction).
    pub(crate) vo_cap_cpus: HashMap<VoId, u32>,
}

impl SitePolicy {
    /// The paper's configuration: no site-level enforcement.
    pub fn permissive() -> Self {
        SitePolicy::default()
    }

    /// The CPU cap for `vo` at a site with `site_cpus` CPUs
    /// (`u32::MAX` when unlimited).
    pub(crate) fn cap_for(&self, vo: VoId, site_cpus: u32) -> u32 {
        if let Some(&abs) = self.vo_cap_cpus.get(&vo) {
            return abs;
        }
        match self.vo_cap_fraction {
            Some(f) => (f * f64::from(site_cpus)).floor() as u32,
            None => u32::MAX,
        }
    }

    /// Admission check: may `job` be accepted given the VO's current CPUs
    /// in use (running + queued) at this site?
    pub(crate) fn admits(&self, job: &JobSpec, vo_cpus_in_use: u32, site_cpus: u32) -> bool {
        let cap = self.cap_for(job.vo, site_cpus);
        vo_cpus_in_use.saturating_add(job.cpus) <= cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{ClientId, GroupId, JobId, SimDuration, SimTime, UserId};

    fn fraction(f: f64) -> SitePolicy {
        SitePolicy {
            vo_cap_fraction: Some(f),
            ..SitePolicy::permissive()
        }
    }

    fn job(vo: u32, cpus: u32) -> JobSpec {
        JobSpec {
            id: JobId(0),
            vo: VoId(vo),
            group: GroupId(0),
            user: UserId(0),
            client: ClientId(0),
            cpus,
            storage_mb: 0,
            runtime: SimDuration::from_secs(60),
            submitted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn permissive_admits_everything() {
        let p = SitePolicy::permissive();
        assert!(p.admits(&job(0, 1), u32::MAX - 1, 1));
        assert_eq!(p.cap_for(VoId(3), 100), u32::MAX);
    }

    #[test]
    fn fraction_cap() {
        let p = fraction(0.25);
        assert_eq!(p.cap_for(VoId(0), 100), 25);
        assert!(p.admits(&job(0, 1), 24, 100));
        assert!(!p.admits(&job(0, 1), 25, 100));
        assert!(!p.admits(&job(0, 10), 20, 100));
    }

    #[test]
    fn absolute_override_beats_fraction() {
        let mut p = fraction(0.5);
        p.vo_cap_cpus.insert(VoId(1), 2);
        assert_eq!(p.cap_for(VoId(1), 100), 2);
        assert_eq!(p.cap_for(VoId(0), 100), 50);
        assert!(!p.admits(&job(1, 3), 0, 100));
    }
}
