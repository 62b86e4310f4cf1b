//! The epoch-stamped membership table.
//!
//! One table per runtime, all driven by the same join/leave inputs. The
//! epoch is a plain counter bumped by every mutation: two replicas that
//! agree on the epoch agree on the whole table (mutations are applied in
//! event order, which every runtime already totally orders).

use gruber_types::DpId;

/// Lifecycle state of one decision-point slot.
///
/// Slots are indexed by [`DpId`] and never reused: a point that left
/// stays `Left` forever (its WAL, trace lines and log entries keep
/// referring to the index), and a replacement joins under a fresh index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Serving queries; a hash-ring member.
    Up,
    /// Drained and departed (graceful leave or crash-retire); not a ring
    /// member.
    Left,
}

/// The membership table: which decision points exist, which are live,
/// and how many mutations it took to get here.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MembershipTable {
    epoch: u64,
    members: Vec<Option<MemberState>>,
}

impl MembershipTable {
    /// A table with decision points `0..n` live at epoch `n` (each seed
    /// member counts as one join, so epochs stay comparable between a
    /// runtime that seeds `n` points and one that joins them one by one).
    pub fn with_initial(n: usize) -> Self {
        let mut t = MembershipTable::default();
        for i in 0..n {
            t.join(DpId(i as u32));
        }
        t
    }

    /// Current epoch: the number of mutations applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Marks `dp` live and bumps the epoch. Returns the new epoch.
    /// Idempotent joins are rejected: joining a live member is a protocol
    /// error the caller must not make.
    pub fn join(&mut self, dp: DpId) -> u64 {
        let i = dp.index();
        if i >= self.members.len() {
            self.members.resize(i + 1, None);
        }
        assert!(
            self.members[i] != Some(MemberState::Up),
            "dp-{i} joined twice"
        );
        self.members[i] = Some(MemberState::Up);
        self.epoch += 1;
        self.epoch
    }

    /// Marks `dp` departed and bumps the epoch. Returns the new epoch.
    pub fn leave(&mut self, dp: DpId) -> u64 {
        let i = dp.index();
        assert!(
            self.state(dp) == Some(MemberState::Up),
            "dp-{i} left without being live"
        );
        self.members[i] = Some(MemberState::Left);
        self.epoch += 1;
        self.epoch
    }

    /// The state of `dp`, or `None` for a never-seen index.
    pub fn state(&self, dp: DpId) -> Option<MemberState> {
        self.members.get(dp.index()).copied().flatten()
    }

    /// Whether `dp` is currently live.
    pub fn is_live(&self, dp: DpId) -> bool {
        self.state(dp) == Some(MemberState::Up)
    }

    /// Live members in index order.
    pub fn live(&self) -> Vec<DpId> {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Some(MemberState::Up))
            .map(|(i, _)| DpId(i as u32))
            .collect()
    }

    /// Number of live members.
    pub fn live_count(&self) -> usize {
        self.members
            .iter()
            .filter(|s| **s == Some(MemberState::Up))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_counts_one_epoch_per_member() {
        let t = MembershipTable::with_initial(4);
        assert_eq!(t.epoch(), 4);
        assert_eq!(t.live_count(), 4);
        assert_eq!(t.live(), vec![DpId(0), DpId(1), DpId(2), DpId(3)]);
    }

    #[test]
    fn join_leave_cycle_tracks_state_and_epoch() {
        let mut t = MembershipTable::with_initial(2);
        assert_eq!(t.join(DpId(2)), 3);
        assert!(t.is_live(DpId(2)));
        assert_eq!(t.leave(DpId(0)), 4);
        assert!(!t.is_live(DpId(0)));
        assert_eq!(t.state(DpId(0)), Some(MemberState::Left));
        assert_eq!(t.live(), vec![DpId(1), DpId(2)]);
        // Never-seen index: no state, not live.
        assert_eq!(t.state(DpId(9)), None);
        assert!(!t.is_live(DpId(9)));
    }

    #[test]
    fn identical_histories_agree_on_epoch_and_table() {
        let mut a = MembershipTable::with_initial(3);
        let mut b = MembershipTable::with_initial(3);
        for t in [&mut a, &mut b] {
            t.join(DpId(3));
            t.leave(DpId(1));
        }
        assert_eq!(a, b);
        assert_eq!(a.epoch(), b.epoch());
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn double_join_is_a_protocol_error() {
        let mut t = MembershipTable::with_initial(2);
        t.join(DpId(1));
    }

    #[test]
    #[should_panic(expected = "without being live")]
    fn leaving_a_departed_member_is_a_protocol_error() {
        let mut t = MembershipTable::with_initial(2);
        t.leave(DpId(1));
        t.leave(DpId(1));
    }
}
