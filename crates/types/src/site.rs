//! Static site descriptions.
//!
//! A site is an institution's resource pool; it contains one or more
//! clusters, each with a CPU count. The paper's emulated environment is
//! "Grid3 × 10": around 300 sites totalling tens of thousands of CPUs,
//! configured after Grid3's real CPU-count distribution.

use crate::id::{ClusterId, SiteId};

/// A homogeneous cluster within a site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Id, unique within the owning site.
    pub id: ClusterId,
    /// Number of (single-core, in the 2005 model) CPUs.
    pub(crate) cpus: u32,
    /// Permanent storage the cluster contributes, in GB.
    pub(crate) storage_gb: u32,
}

/// A grid site: a named collection of clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSpec {
    /// Unique id.
    pub id: SiteId,
    /// Human-readable name (e.g. `"site-17"`).
    pub(crate) name: String,
    /// Clusters this site contributes.
    pub clusters: Vec<ClusterSpec>,
}

impl SiteSpec {
    /// Convenience constructor for a single-cluster site with the default
    /// 10 GB of storage per CPU (a 2005-era worker-node disk share).
    pub fn single_cluster(id: SiteId, cpus: u32) -> Self {
        SiteSpec {
            id,
            name: id.to_string(),
            clusters: vec![ClusterSpec {
                id: ClusterId(0),
                cpus,
                storage_gb: cpus.saturating_mul(10),
            }],
        }
    }

    /// Total CPUs across all clusters.
    pub fn total_cpus(&self) -> u32 {
        self.clusters.iter().map(|c| c.cpus).sum()
    }

    /// Total permanent storage across all clusters, in MB.
    pub fn total_storage_mb(&self) -> u64 {
        self.clusters
            .iter()
            .map(|c| u64::from(c.storage_gb) * 1024)
            .sum()
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
        assert_eq!(s.name, "site-4");
        assert_eq!(s.clusters.len(), 1);
    }

    #[test]
    fn multi_cluster_totals() {
        let s = SiteSpec {
            id: SiteId(0),
            name: "fermi".into(),
            clusters: vec![
                ClusterSpec {
                    id: ClusterId(0),
                    cpus: 64,
                    storage_gb: 100,
                },
                ClusterSpec {
                    id: ClusterId(1),
                    cpus: 200,
                    storage_gb: 400,
                },
            ],
        };
        assert_eq!(s.total_cpus(), 264);
        assert_eq!(s.total_storage_mb(), 500 * 1024);
    }

    #[test]
    fn single_cluster_storage_default() {
        let s = SiteSpec::single_cluster(SiteId(0), 16);
        assert_eq!(s.total_storage_mb(), 160 * 1024);
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
