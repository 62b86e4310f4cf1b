//! Consistent-hash client homing.
//!
//! The paper binds each submission host to a decision point "selected
//! randomly in the beginning". That static binding makes every pool
//! change a full reshuffle; the ring makes it incremental. Each live
//! decision point owns `vnodes` points on a 64-bit ring, each placed by a
//! SplitMix64 hash of `(seed, dp, replica)` — deterministic, and
//! independent of the order members joined, so every runtime that agrees
//! on the live set agrees on every client's home. A client hashes to a
//! ring position and is homed at the next vnode clockwise.
//!
//! The property the membership subsystem is built on: **inserting a
//! member only moves clients onto it; removing one only moves clients
//! off it.** All other arcs are untouched, so a join re-homes ~`1/n` of
//! clients and a leave re-homes only the leaver's share — pinned by the
//! tests below and traced in production via `client_rehomed` events.

use gruber_types::{splitmix64, ClientId, DpId};

/// The consistent-hash ring. Cheap to clone; ordered `Vec` storage so
/// lookups are a binary search and iteration order is canonical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HashRing {
    seed: u64,
    vnodes: u32,
    /// Sorted by position. Positions collide with probability ~2⁻⁶⁴; ties
    /// break by `DpId` so even then every replica agrees.
    points: Vec<(u64, DpId)>,
}

impl HashRing {
    /// An empty ring. `vnodes` is clamped to at least 1.
    pub(crate) fn new(seed: u64, vnodes: u32) -> Self {
        HashRing {
            seed,
            vnodes: vnodes.max(1),
            points: Vec::new(),
        }
    }

    /// A ring with decision points `0..n` already inserted.
    pub(crate) fn with_members(seed: u64, vnodes: u32, n: usize) -> Self {
        let mut r = HashRing::new(seed, vnodes);
        for i in 0..n {
            r.insert(DpId(i as u32));
        }
        r
    }

    fn vnode_position(&self, dp: DpId, replica: u32) -> u64 {
        // Domain-separated so client hashes and vnode hashes never alias.
        splitmix64(
            self.seed
                ^ 0x7269_6E67_0000_0000 // "ring"
                ^ (u64::from(dp.0) << 32)
                ^ u64::from(replica),
        )
    }

    fn client_position(&self, c: ClientId) -> u64 {
        splitmix64(self.seed ^ 0x636C_6965_6E74_0000 ^ u64::from(c.0)) // "client"
    }

    /// Adds `dp`'s vnodes. Panics if it is already a member.
    pub(crate) fn insert(&mut self, dp: DpId) {
        assert!(!self.contains(dp), "dp-{} inserted twice", dp.index());
        for r in 0..self.vnodes {
            let pos = self.vnode_position(dp, r);
            let at = self.points.partition_point(|&p| p < (pos, dp));
            self.points.insert(at, (pos, dp));
        }
    }

    /// Removes `dp`'s vnodes. Panics if it is not a member.
    pub(crate) fn remove(&mut self, dp: DpId) {
        assert!(self.contains(dp), "dp-{} removed twice", dp.index());
        self.points.retain(|&(_, d)| d != dp);
    }

    /// Whether `dp` currently owns vnodes.
    pub(crate) fn contains(&self, dp: DpId) -> bool {
        self.points.iter().any(|&(_, d)| d == dp)
    }

    /// The decision point homing `client`: the first vnode at or after
    /// the client's ring position, wrapping. `None` on an empty ring.
    pub(crate) fn home_of(&self, client: ClientId) -> Option<DpId> {
        if self.points.is_empty() {
            return None;
        }
        let pos = self.client_position(client);
        let i = self.points.partition_point(|&(p, _)| p < pos);
        Some(self.points[i % self.points.len()].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn homes(ring: &HashRing, n_clients: u32) -> Vec<DpId> {
        (0..n_clients)
            .map(|c| ring.home_of(ClientId(c)).unwrap())
            .collect()
    }

    #[test]
    fn empty_ring_homes_nobody() {
        assert_eq!(HashRing::new(1, 8).home_of(ClientId(0)), None);
    }

    #[test]
    fn single_member_homes_everyone() {
        let ring = HashRing::with_members(42, 16, 1);
        for c in 0..100 {
            assert_eq!(ring.home_of(ClientId(c)), Some(DpId(0)));
        }
    }

    #[test]
    fn placement_is_independent_of_insertion_order() {
        let seed = 7;
        let forward = HashRing::with_members(seed, 32, 8);
        let mut backward = HashRing::new(seed, 32);
        for i in (0..8).rev() {
            backward.insert(DpId(i));
        }
        assert_eq!(forward, backward);
        assert_eq!(homes(&forward, 500), homes(&backward, 500));
    }

    #[test]
    fn join_only_moves_clients_onto_the_newcomer() {
        let mut ring = HashRing::with_members(42, 64, 8);
        let before = homes(&ring, 2000);
        ring.insert(DpId(8));
        let after = homes(&ring, 2000);
        let mut moved = 0;
        for (b, a) in before.iter().zip(&after) {
            if b != a {
                assert_eq!(*a, DpId(8), "client moved to {a:?}, not the newcomer");
                moved += 1;
            }
        }
        // ~1/9 of 2000 ≈ 222; allow generous variance but reject both a
        // no-op ring and a full reshuffle.
        assert!((50..600).contains(&moved), "moved {moved} of 2000");
    }

    #[test]
    fn leave_only_moves_the_leavers_clients() {
        let mut ring = HashRing::with_members(42, 64, 8);
        let before = homes(&ring, 2000);
        ring.remove(DpId(3));
        let after = homes(&ring, 2000);
        for (c, (b, a)) in before.iter().zip(&after).enumerate() {
            if b != a {
                assert_eq!(*b, DpId(3), "client {c} moved off {b:?}, not the leaver");
                assert_ne!(*a, DpId(3));
            }
        }
        assert!(after.iter().all(|&d| d != DpId(3)));
    }

    #[test]
    fn leave_then_rejoin_restores_the_exact_assignment() {
        let mut ring = HashRing::with_members(9, 32, 6);
        let before = homes(&ring, 800);
        ring.remove(DpId(2));
        ring.insert(DpId(2));
        assert_eq!(homes(&ring, 800), before);
    }

    #[test]
    fn load_split_is_roughly_balanced_at_scale() {
        // 100 DPs × 64 vnodes, 100k clients: max/mean imbalance stays
        // bounded (the sizing claim of `elastic::VNODES`).
        let ring = HashRing::with_members(1234, 64, 100);
        let mut counts = vec![0u32; 100];
        for c in 0..100_000 {
            counts[ring.home_of(ClientId(c)).unwrap().index()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(min > 0, "a member got no clients");
        assert!(
            max < 2000,
            "max {max} vs mean 1000: imbalance over 2x"
        );
    }

    #[test]
    fn membership_tracks_inserts_and_removes() {
        let mut ring = HashRing::new(0, 16);
        assert!(ring.points.is_empty());
        ring.insert(DpId(0));
        ring.insert(DpId(1));
        assert_eq!(ring.points.len(), 2 * 16);
        ring.remove(DpId(0));
        assert_eq!(ring.points.len(), 16);
        assert!(!ring.contains(DpId(0)));
        assert!(ring.contains(DpId(1)));
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut ring = HashRing::with_members(0, 8, 2);
        ring.insert(DpId(1));
    }
}
