//! A versioned USLA store.
//!
//! The paper's problem statement: "how USLAs can be stored, retrieved, and
//! disseminated efficiently in a large distributed environment". Each
//! decision point holds a [`UslaStore`]; publication bumps an epoch counter
//! so peers can cheaply detect staleness during periodic exchanges (the
//! first dissemination strategy of Section 3.5 — exchanging USLAs as well
//! as utilization — is built on `delta_since`).

use crate::agreement::{UslaEntry, UslaSet};
use gruber_types::GridError;

/// A USLA entry tagged with the epoch it was last modified in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionedEntry {
    /// The agreement goal.
    pub(crate) entry: UslaEntry,
    /// Store epoch at which this goal was published/updated.
    pub(crate) epoch: u64,
}

/// A store of USLA goals with monotonically increasing epochs.
#[derive(Debug, Clone, Default)]
pub struct UslaStore {
    entries: Vec<VersionedEntry>,
    epoch: u64,
}

impl UslaStore {
    /// Empty store at epoch 0.
    pub fn new() -> Self {
        UslaStore::default()
    }

    /// Seeds a store from a USLA set (all entries at epoch 1).
    pub fn from_set(set: &UslaSet) -> Self {
        let mut store = UslaStore::new();
        for e in set.entries() {
            store.publish(*e).expect("validated set");
        }
        store
    }

    /// Current epoch (bumped by every publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Publishes (inserts or updates) a goal, bumping the epoch.
    pub fn publish(&mut self, entry: UslaEntry) -> Result<u64, GridError> {
        entry.validate()?;
        self.epoch += 1;
        if let Some(slot) = self
            .entries
            .iter_mut()
            .find(|v| v.entry.provider == entry.provider && v.entry.consumer == entry.consumer)
        {
            slot.entry = entry;
            slot.epoch = self.epoch;
        } else {
            self.entries.push(VersionedEntry {
                entry,
                epoch: self.epoch,
            });
        }
        Ok(self.epoch)
    }

    /// All entries changed after `epoch` (dissemination delta).
    pub fn delta_since(&self, epoch: u64) -> Vec<VersionedEntry> {
        self.entries
            .iter()
            .filter(|v| v.epoch > epoch)
            .copied()
            .collect()
    }

    /// Merges a peer's delta; newer epochs win, ties keep local. Returns the
    /// number of entries applied.
    pub fn merge_delta(&mut self, delta: &[VersionedEntry]) -> usize {
        let mut applied = 0;
        for d in delta {
            match self.entries.iter_mut().find(|v| {
                v.entry.provider == d.entry.provider && v.entry.consumer == d.entry.consumer
            }) {
                Some(local) if local.epoch >= d.epoch => {}
                Some(local) => {
                    *local = *d;
                    applied += 1;
                }
                None => {
                    self.entries.push(*d);
                    applied += 1;
                }
            }
            self.epoch = self.epoch.max(d.epoch);
        }
        applied
    }

    /// A snapshot of the store as a plain USLA set (for the entitlement
    /// engine).
    pub fn snapshot(&self) -> UslaSet {
        UslaSet::from_entries(self.entries.iter().map(|v| v.entry).collect())
            .expect("store entries are validated on publish")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::Principal;
    use crate::share::FairShare;
    use gruber_types::VoId;

    fn goal(v: u32, pct: f64) -> UslaEntry {
        UslaEntry {
            provider: Principal::Grid,
            consumer: Principal::Vo(VoId(v)),
            share: FairShare::target(pct),
        }
    }

    /// VO `v`'s published CPU share, read through the snapshot a point
    /// evaluates.
    fn share_of(s: &UslaStore, v: u32) -> f64 {
        s.snapshot()
            .lookup(Principal::Grid, Principal::Vo(VoId(v)))
            .expect("published")
            .share
            .percent
    }

    #[test]
    fn publish_bumps_epoch_and_snapshot_finds() {
        let mut s = UslaStore::new();
        assert_eq!(s.publish(goal(0, 40.0)).unwrap(), 1);
        assert_eq!(s.publish(goal(1, 60.0)).unwrap(), 2);
        assert_eq!(s.epoch(), 2);
        assert_eq!(share_of(&s, 0), 40.0);
    }

    #[test]
    fn republish_updates_in_place() {
        let mut s = UslaStore::new();
        s.publish(goal(0, 40.0)).unwrap();
        s.publish(goal(0, 55.0)).unwrap();
        assert_eq!(s.snapshot().entries().len(), 1);
        assert_eq!(share_of(&s, 0), 55.0);
    }

    #[test]
    fn delta_and_merge() {
        let mut a = UslaStore::new();
        a.publish(goal(0, 40.0)).unwrap();
        a.publish(goal(1, 60.0)).unwrap();

        let mut b = UslaStore::new();
        let applied = b.merge_delta(&a.delta_since(0));
        assert_eq!(applied, 2);
        assert_eq!(b.snapshot().entries().len(), 2);
        assert_eq!(b.epoch(), a.epoch());

        // Nothing new: empty delta, nothing applied.
        assert!(a.delta_since(a.epoch()).is_empty());
        assert_eq!(b.merge_delta(&a.delta_since(b.epoch())), 0);

        // A update propagates; B's older copy loses.
        a.publish(goal(0, 70.0)).unwrap();
        let applied = b.merge_delta(&a.delta_since(b.epoch()));
        assert_eq!(applied, 1);
        assert_eq!(share_of(&b, 0), 70.0);
    }

    #[test]
    fn merge_is_idempotent() {
        let mut a = UslaStore::new();
        a.publish(goal(0, 40.0)).unwrap();
        let delta = a.delta_since(0);
        let mut b = UslaStore::new();
        b.merge_delta(&delta);
        assert_eq!(b.merge_delta(&delta), 0);
        assert_eq!(b.snapshot().entries().len(), 1);
    }

    #[test]
    fn snapshot_matches_contents() {
        let mut s = UslaStore::new();
        s.publish(goal(0, 40.0)).unwrap();
        s.publish(goal(1, 60.0)).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.entries().len(), 2);
    }

    #[test]
    fn invalid_entry_rejected() {
        use gruber_types::GroupId;
        let mut s = UslaStore::new();
        let bad = UslaEntry {
            provider: Principal::Grid,
            consumer: Principal::Group(VoId(0), GroupId(0)),
            share: FairShare::target(10.0),
        };
        assert!(s.publish(bad).is_err());
        assert_eq!(s.epoch(), 0);
    }
}
