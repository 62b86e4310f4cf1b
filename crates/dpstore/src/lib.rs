//! How a runtime hosts a decision point: durable storage for its state
//! (write-ahead log + snapshots) behind [`NodeHost`], and the `mailbox`
//! step ([`Point::step`]) that trace replay and the two wall-clock
//! runtimes run around that host. desim is the only runtime that calls
//! [`NodeHost::handle`] itself: its transport is the WAN model.
//!
//! DI-GRUBER's decision points originally tolerated crashes only by
//! rejoining the exchange mesh empty and waiting for the next sync round
//! — the accuracy/staleness cliff the degradation study measured. This
//! crate turns that cliff into a bounded replay cost: a persisting
//! [`dpnode::DpNode`] emits [`dpnode::Effect::Persist`] for every applied
//! record, and [`NodeHost`] — the one step every runtime wraps around its
//! node — appends each [`dpnode::WalOp`] to a [`Store`], cuts snapshots
//! when the [`SnapshotPolicy`] says so, and on restart replays
//! `snapshot + log` into a fresh node instead of rejoining with nothing.
//!
//! Two stores implement the same [`Store`] trait:
//!
//! * [`SimStore`] — in-memory, for the desim, thread and trace-replay
//!   runtimes. Every operation returns a modeled latency
//!   ([`LatencyModel`]) that desim charges to the simulated clock, so
//!   persistence has a measurable (simulated) cost without doing IO.
//! * [`FileStore`] — real files: length-prefixed, CRC-framed WAL segments
//!   reusing the `simnet::codec` record encoding, plus an atomically
//!   replaced snapshot file. Opening tolerates torn tails by truncating
//!   at the last valid frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod file;
mod host;
mod mailbox;
mod sim;

pub use file::FileStore;
pub use host::{Blueprint, NodeHost, Restored, Routed, WireInput};
pub use mailbox::{
    drive_workload, recover, since, ticker, Answer, DpStats, NodeMsg, Point, RunStats, SharedPoint,
    Transport,
};
pub use sim::{LatencyModel, SimStore};

use dpnode::WalOp;
use gruber_types::{SimDuration, SimTime};

/// Everything a recovery needs, as handed back by [`Store::recover`]: the
/// latest durable snapshot (if any), the post-snapshot WAL in append
/// order, and the modeled cost of loading both (zero for real stores,
/// which pay in wall-clock time instead).
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The latest snapshot bytes ([`dpnode::DpNode::snapshot_encode`]
    /// form), or `None` if no snapshot was ever written (or it was torn).
    pub snapshot: Option<Vec<u8>>,
    /// Every WAL operation appended since the snapshot, with its
    /// original timestamp, in append order.
    pub wal: Vec<(SimTime, WalOp)>,
    /// Modeled load + replay latency the driver should charge to its
    /// clock before the recovered point rejoins.
    pub(crate) cost: SimDuration,
}

/// A durable store for one decision point's WAL and snapshots.
///
/// Append/snapshot calls return the *modeled* latency of the operation so
/// simulation drivers can charge persistence to the simulated clock;
/// stores doing real IO return [`SimDuration::ZERO`] (their cost is real
/// time).
pub trait Store {
    /// Appends one WAL operation (with the node time it happened at).
    fn append(&mut self, at: SimTime, op: &WalOp) -> SimDuration;

    /// Replaces the durable snapshot and truncates the WAL — every
    /// appended operation is now subsumed by `bytes`.
    fn write_snapshot(&mut self, bytes: &[u8]) -> SimDuration;

    /// Loads the latest snapshot and the post-snapshot WAL for replay.
    fn recover(&mut self) -> Recovery;

    /// Number of WAL operations appended since the last snapshot.
    fn wal_len(&self) -> usize;
}

/// When [`NodeHost`] snapshots a persisting node: after `every_records`
/// WAL appends, or after `every` of sim time since the last snapshot —
/// whichever trips first. A field set to zero disables that trigger; both
/// zero ([`SnapshotPolicy::DISABLED`]) means WAL-only persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Snapshot once this many operations sit in the WAL (0 = never).
    pub every_records: u32,
    /// Snapshot once this much sim time passed since the last snapshot
    /// (zero = never).
    pub every: SimDuration,
}

impl SnapshotPolicy {
    /// Never snapshot: the WAL grows until recovery replays all of it.
    pub const DISABLED: SnapshotPolicy = SnapshotPolicy {
        every_records: 0,
        every: SimDuration::ZERO,
    };

    /// The wall-clock runtimes' policy: record count only (their time is
    /// nondeterministic, and the count is what the equivalence test can
    /// pin). `records(0)` is [`SnapshotPolicy::DISABLED`]: a
    /// `snapshot_records` of zero means *never*, in every runtime.
    pub const fn records(every_records: u32) -> SnapshotPolicy {
        SnapshotPolicy {
            every_records,
            every: SimDuration::ZERO,
        }
    }

    /// Should the host snapshot now, given the current WAL length and
    /// the sim time elapsed since the last snapshot? Time alone never
    /// triggers a snapshot of an empty WAL (there is nothing new to
    /// subsume).
    pub(crate) fn due(&self, wal_len: usize, since_last: SimDuration) -> bool {
        (self.every_records > 0 && wal_len >= self.every_records as usize)
            || (self.every > SimDuration::ZERO && since_last >= self.every && wal_len > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_triggers_on_records_or_time() {
        let p = SnapshotPolicy {
            every_records: 4,
            every: SimDuration::from_secs(60),
        };
        assert!(!p.due(3, SimDuration::from_secs(59)));
        assert!(p.due(4, SimDuration::ZERO));
        assert!(p.due(1, SimDuration::from_secs(60)));
        // Time never snapshots an empty WAL.
        assert!(!p.due(0, SimDuration::from_secs(600)));
        assert!(!SnapshotPolicy::DISABLED.due(1_000_000, SimDuration::from_secs(1_000_000)));
    }
}
