//! Static site descriptions.
//!
//! A site is an institution's resource pool: an id and a CPU count. The
//! paper's emulated environment is "Grid3 × 10": around 300 sites
//! totalling tens of thousands of CPUs, configured after Grid3's real
//! CPU-count distribution.

use crate::id::SiteId;

/// A grid site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSpec {
    /// Unique id.
    pub id: SiteId,
    /// Number of (single-core, in the 2005 model) CPUs.
    cpus: u32,
}

impl SiteSpec {
    /// A site of `cpus` CPUs.
    pub fn single_cluster(id: SiteId, cpus: u32) -> Self {
        SiteSpec { id, cpus }
    }

    /// The site's CPUs.
    pub fn total_cpus(&self) -> u32 {
        self.cpus
    }
}

/// Sums CPUs over a set of sites (the "total grid capacity" in metrics).
pub fn total_grid_cpus(sites: &[SiteSpec]) -> u64 {
    sites.iter().map(|s| u64::from(s.total_cpus())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cluster_totals() {
        let s = SiteSpec::single_cluster(SiteId(4), 128);
        assert_eq!(s.total_cpus(), 128);
        assert_eq!(s.id, SiteId(4));
    }

    #[test]
    fn grid_totals() {
        let sites = vec![
            SiteSpec::single_cluster(SiteId(0), 10),
            SiteSpec::single_cluster(SiteId(1), 20),
        ];
        assert_eq!(total_grid_cpus(&sites), 30);
    }
}
