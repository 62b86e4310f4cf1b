//! The replica catalog.
//!
//! The Euryale prescript "transfers necessary input files to that site,
//! registers transferred files with the replica mechanism"; the postscript
//! "transfers output files to the collection area, registers produced
//! files, [...] and updates file popularity". [`ReplicaCatalog`] is that
//! mechanism: logical file → set of site replicas, plus access counts.

use gruber_types::SiteId;
use std::collections::{HashMap, HashSet};

/// Logical file name.
pub(crate) type Lfn = String;

/// Logical-file → replica-locations catalog with popularity tracking.
#[derive(Debug, Default)]
pub struct ReplicaCatalog {
    replicas: HashMap<Lfn, HashSet<SiteId>>,
    popularity: HashMap<Lfn, u64>,
}

impl ReplicaCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        ReplicaCatalog::default()
    }

    /// Registers a replica of `lfn` at `site`. Returns `true` if it was
    /// new.
    pub(crate) fn register(&mut self, lfn: &str, site: SiteId) -> bool {
        self.replicas
            .entry(lfn.to_string())
            .or_default()
            .insert(site)
    }

    /// Whether `site` already holds `lfn` (the prescript skips the
    /// transfer then).
    pub(crate) fn has_replica(&self, lfn: &str, site: SiteId) -> bool {
        self.replicas.get(lfn).is_some_and(|s| s.contains(&site))
    }

    /// Records one access (the postscript's popularity update).
    pub(crate) fn touch(&mut self, lfn: &str) {
        *self.popularity.entry(lfn.to_string()).or_insert(0) += 1;
    }

    /// Access count of a file.
    pub fn popularity(&self, lfn: &str) -> u64 {
        self.popularity.get(lfn).copied().unwrap_or(0)
    }

    /// The `n` most popular files (ties broken by name).
    pub fn hottest(&self, n: usize) -> Vec<(Lfn, u64)> {
        let mut v: Vec<(Lfn, u64)> = self
            .popularity
            .iter()
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_locate_unregister() {
        let mut c = ReplicaCatalog::new();
        assert!(c.register("input.dat", SiteId(3)));
        assert!(!c.register("input.dat", SiteId(3)), "duplicate replica");
        c.register("input.dat", SiteId(1));
        assert_eq!(c.replicas["input.dat"], HashSet::from([SiteId(1), SiteId(3)]));
        assert!(c.has_replica("input.dat", SiteId(1)));
        assert!(!c.has_replica("input.dat", SiteId(2)));
        assert!(!c.has_replica("output.dat", SiteId(1)));
        assert_eq!(c.replicas.len(), 1);
    }

    #[test]
    fn popularity_ranks_hottest() {
        let mut c = ReplicaCatalog::new();
        for _ in 0..5 {
            c.touch("hot.dat");
        }
        c.touch("cold.dat");
        assert_eq!(c.popularity("hot.dat"), 5);
        assert_eq!(c.popularity("missing"), 0);
        let top = c.hottest(1);
        assert_eq!(top, vec![("hot.dat".to_string(), 5)]);
        assert_eq!(c.hottest(10).len(), 2);
    }
}
