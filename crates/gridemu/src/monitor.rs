//! The GRUBER site monitor.
//!
//! "The GRUBER site monitor is a data provider for the GRUBER engine. This
//! component is optional and can be replaced with various other grid
//! monitoring components that provide similar information, such as
//! MonALISA or Grid Catalog." The monitor takes periodic load snapshots of
//! the ground-truth grid; decision points fold these into their views.

use crate::grid::Grid;
use gruber_types::{SimTime, SiteId};

/// One site's load at a moment in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteLoad {
    /// Site.
    pub site: SiteId,
    /// Total CPUs.
    pub total_cpus: u32,
    /// Busy CPUs.
    pub busy_cpus: u32,
    /// Jobs queued at the site.
    pub queued_jobs: u32,
    /// Snapshot time.
    pub at: SimTime,
}

impl SiteLoad {
    /// Free CPUs at snapshot time.
    pub fn free_cpus(&self) -> u32 {
        self.total_cpus - self.busy_cpus
    }
}

/// A monitoring data provider over the ground-truth grid.
#[derive(Debug, Default)]
pub struct SiteMonitor {
    snapshots_taken: u64,
}

impl SiteMonitor {
    /// Creates a monitor.
    pub fn new() -> Self {
        SiteMonitor::default()
    }

    /// Takes a full-grid snapshot.
    pub fn snapshot(&mut self, grid: &Grid, now: SimTime) -> Vec<SiteLoad> {
        self.snapshots_taken += 1;
        grid.sites()
            .iter()
            .map(|s| SiteLoad {
                site: s.spec().id,
                total_cpus: s.spec().total_cpus(),
                busy_cpus: s.busy_cpus(),
                queued_jobs: s.queued_jobs() as u32,
                at: now,
            })
            .collect()
    }

    /// Snapshot of a single site.
    pub fn snapshot_site(&mut self, grid: &Grid, site: SiteId, now: SimTime) -> Option<SiteLoad> {
        self.snapshots_taken += 1;
        grid.site(site).ok().map(|s| SiteLoad {
            site,
            total_cpus: s.spec().total_cpus(),
            busy_cpus: s.busy_cpus(),
            queued_jobs: s.queued_jobs() as u32,
            at: now,
        })
    }

    /// How many snapshots this monitor has served.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spep::SitePolicy;
    use gruber_types::{
        ClientId, GroupId, JobId, JobSpec, SimDuration, SiteSpec, UserId, VoId,
    };

    fn grid() -> Grid {
        Grid::new(
            vec![
                SiteSpec::single_cluster(SiteId(0), 4),
                SiteSpec::single_cluster(SiteId(1), 8),
            ],
            SitePolicy::permissive(),
        )
        .unwrap()
    }

    #[test]
    fn snapshot_reflects_ground_truth() {
        let mut g = grid();
        g.submit(JobSpec {
            id: JobId(1),
            vo: VoId(0),
            group: GroupId(0),
            user: UserId(0),
            client: ClientId(0),
            cpus: 3,
            storage_mb: 0,
            runtime: SimDuration::from_secs(60),
            submitted_at: SimTime::ZERO,
        })
        .unwrap();
        g.dispatch(JobId(1), SiteId(0), SimTime::from_secs(1), true)
            .unwrap();

        let mut mon = SiteMonitor::new();
        let snap = mon.snapshot(&g, SimTime::from_secs(2));
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].busy_cpus, 3);
        assert_eq!(snap[0].free_cpus(), 1);
        assert_eq!(snap[1].free_cpus(), 8);
        assert_eq!(snap[0].at, SimTime::from_secs(2));
        assert_eq!(mon.snapshots_taken(), 1);
    }

    #[test]
    fn single_site_snapshot() {
        let g = grid();
        let mut mon = SiteMonitor::new();
        let one = mon.snapshot_site(&g, SiteId(1), SimTime::ZERO).unwrap();
        assert_eq!(one.total_cpus, 8);
        assert!(mon.snapshot_site(&g, SiteId(9), SimTime::ZERO).is_none());
    }
}
