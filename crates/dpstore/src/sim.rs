//! The in-memory store with modeled IO latency, for simulation drivers.

use crate::{Recovery, Store};
use dpnode::WalOp;
use gruber_types::{SimDuration, SimTime};

/// Modeled latencies of one decision point's durable store, charged to
/// the simulated clock by the drivers. Defaults approximate a local
/// journaled disk: ~1 ms per appended-and-fsynced WAL record, ~50 ms per
/// snapshot write, and on recovery a ~20 ms open plus ~1 ms per replayed
/// record (and per KiB of snapshot loaded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cost of one WAL append incl. its fsync.
    pub(crate) append: SimDuration,
    /// Cost of writing one snapshot (and truncating the WAL).
    pub(crate) snapshot: SimDuration,
    /// Per-record replay cost during recovery.
    pub(crate) replay_per_record: SimDuration,
    /// Base cost of opening the store on recovery.
    pub(crate) load: SimDuration,
}

impl LatencyModel {
    /// A store that costs nothing: recovery from it delays no one.
    pub const FREE: LatencyModel = LatencyModel {
        append: SimDuration::ZERO,
        snapshot: SimDuration::ZERO,
        replay_per_record: SimDuration::ZERO,
        load: SimDuration::ZERO,
    };
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            append: SimDuration::from_millis(1),
            snapshot: SimDuration::from_millis(50),
            replay_per_record: SimDuration::from_millis(1),
            load: SimDuration::from_millis(20),
        }
    }
}

/// An in-memory [`Store`]: state survives a *simulated* crash (the store
/// outlives the node instance), and every operation returns its modeled
/// latency so persistence has a measurable cost without touching a disk.
#[derive(Debug, Clone, Default)]
pub struct SimStore {
    wal: Vec<(SimTime, WalOp)>,
    snapshot: Option<Vec<u8>>,
    latency: LatencyModel,
}

impl SimStore {
    /// An empty store with the default [`LatencyModel`].
    pub fn new() -> Self {
        SimStore::default()
    }

    /// An empty store with an explicit latency model.
    pub fn with_latency(latency: LatencyModel) -> Self {
        SimStore {
            latency,
            ..SimStore::default()
        }
    }
}

impl Store for SimStore {
    fn append(&mut self, at: SimTime, op: &WalOp) -> SimDuration {
        self.wal.push((at, *op));
        self.latency.append
    }

    fn write_snapshot(&mut self, bytes: &[u8]) -> SimDuration {
        self.snapshot = Some(bytes.to_vec());
        self.wal.clear();
        self.latency.snapshot
    }

    fn recover(&mut self) -> Recovery {
        let snapshot_kib = self.snapshot.as_ref().map_or(0, |s| s.len() as u64 / 1024);
        let cost = self.latency.load
            + self.latency.replay_per_record * self.wal.len() as u64
            + SimDuration::from_millis(snapshot_kib);
        Recovery {
            snapshot: self.snapshot.clone(),
            wal: self.wal.clone(),
            cost,
        }
    }

    fn wal_len(&self) -> usize {
        self.wal.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber::DispatchRecord;
    use gruber_types::{GroupId, JobId, SiteId, VoId};

    fn rec(job: u32) -> DispatchRecord {
        DispatchRecord {
            job: JobId(job),
            site: SiteId(0),
            vo: VoId(0),
            group: GroupId(0),
            cpus: 1,
            dispatched_at: SimTime::ZERO,
            est_finish: SimTime::from_secs(100),
        }
    }

    #[test]
    fn append_recover_round_trips_with_modeled_cost() {
        let mut s = SimStore::new();
        assert_eq!(s.append(SimTime::from_secs(1), &WalOp::Own(rec(1))), SimDuration::from_millis(1));
        s.append(SimTime::from_secs(2), &WalOp::Peer(rec(2)));
        assert_eq!(s.wal_len(), 2);
        let r = s.recover();
        assert_eq!(r.wal.len(), 2);
        assert!(r.snapshot.is_none());
        // load (20) + 2 records (2).
        assert_eq!(r.cost, SimDuration::from_millis(22));
        assert_eq!(r.wal[0], (SimTime::from_secs(1), WalOp::Own(rec(1))));
    }

    #[test]
    fn snapshot_truncates_wal() {
        let mut s = SimStore::new();
        s.append(SimTime::ZERO, &WalOp::Own(rec(1)));
        let cost = s.write_snapshot(&[1, 2, 3]);
        assert_eq!(cost, SimDuration::from_millis(50));
        assert_eq!(s.wal_len(), 0);
        s.append(SimTime::from_secs(3), &WalOp::Own(rec(2)));
        let r = s.recover();
        assert_eq!(r.snapshot.as_deref(), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.wal.len(), 1, "only post-snapshot ops replay");
    }
}
