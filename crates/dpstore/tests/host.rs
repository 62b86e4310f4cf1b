//! The shared runtime step ([`dpstore::NodeHost`]): journaling, snapshot
//! cadence and crash → restore, over both stores.

use dpnode::{Dissemination, DpNodeStats, Input, NodeConfig, Topology};
use dpstore::{
    Blueprint, FileStore, NodeHost, Restored, Routed, SimStore, SnapshotPolicy, Store, WireInput,
};
use gruber::DispatchRecord;
use gruber_types::{DpId, GroupId, JobId, SimDuration, SimTime, SiteId, SiteSpec, VoId};
use obs::{Recorder, TraceEvent};
use simnet::codec::encode_inform;
use workload::uslas::equal_shares;

fn blueprint(id: u32) -> Blueprint {
    Blueprint {
        cfg: NodeConfig {
            id: DpId(id),
            topology: Topology::FullMesh,
            dissemination: Dissemination::UsageOnly,
            sync_every: None,
            gossip_seed: 7,
            persist: true,
        },
        sites: (0..4)
            .map(|i| SiteSpec::single_cluster(SiteId(i), 16))
            .collect(),
        uslas: equal_shares(2, 2).unwrap().into(),
        track_live: false,
    }
}

fn host<S: Store>(store: S, policy: SnapshotPolicy) -> NodeHost<S> {
    NodeHost::new(blueprint(0), Some(store), policy, Recorder::OFF, SimTime::ZERO)
}

fn rec(job: u32) -> DispatchRecord {
    DispatchRecord {
        job: JobId(job),
        site: SiteId(job % 4),
        vo: VoId(job % 2),
        group: GroupId(0),
        cpus: 1,
        dispatched_at: SimTime::from_secs(u64::from(job)),
        est_finish: SimTime::from_secs(1_000_000),
    }
}

/// Feeds one input, returning the routed effects and the store events
/// the host reported (with their modelled costs).
fn step<S: Store>(
    h: &mut NodeHost<S>,
    at: SimTime,
    input: Input,
) -> (Vec<Routed>, Vec<(SimDuration, TraceEvent)>) {
    let (mut out, mut events) = (Vec::new(), Vec::new());
    h.handle(at, input, &mut out, |cost, event| events.push((cost, event)));
    (out, events)
}

fn snapshots(events: &[(SimDuration, TraceEvent)]) -> usize {
    events
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::SnapshotWritten { .. }))
        .count()
}

/// What a runtime can observe of a point: counters and the view.
fn observe<S: Store>(h: &mut NodeHost<S>) -> (DpNodeStats, Vec<u32>) {
    let view = h.node_mut().engine_mut().availability(SimTime::from_secs(100));
    (h.node().stats(), view)
}

/// Informs, a sync round, a peer's flood and a post-snapshot tail, under
/// a count policy small enough that recovery sees a snapshot *and* a WAL.
/// Returns the snapshots cut.
fn run_script<S: Store>(h: &mut NodeHost<S>) -> usize {
    let mut cut = 0;
    for job in 1..=4 {
        let (out, events) = step(h, SimTime::from_secs(u64::from(job)), Input::Inform(rec(job)));
        assert!(out.is_empty(), "an inform leaves nothing to route: {out:?}");
        cut += snapshots(&events);
    }
    let (out, events) = step(h, SimTime::from_secs(10), Input::SyncTick { n_dps: 3 });
    assert!(
        matches!(&out[..], [Routed::FloodTo { peers, payload }] if peers == &[1, 2] && payload.n_records == 4),
        "{out:?}"
    );
    cut += snapshots(&events);
    // A peer's flood, produced by a second (non-persisting) host.
    let mut peer = NodeHost::<SimStore>::new(
        blueprint(1),
        None,
        SnapshotPolicy::DISABLED,
        Recorder::OFF,
        SimTime::ZERO,
    );
    step(&mut peer, SimTime::from_secs(11), Input::Inform(rec(9)));
    let (out, _) = step(&mut peer, SimTime::from_secs(12), Input::SyncTick { n_dps: 3 });
    let Some(Routed::FloodTo { payload, .. }) = out.into_iter().next() else {
        panic!("peer produced no flood");
    };
    let wire = WireInput::PeerRecords(payload.records).decode().unwrap();
    cut += snapshots(&step(h, SimTime::from_secs(12), wire).1);
    let inform = WireInput::Inform(encode_inform(&rec(5)));
    cut += snapshots(&step(h, SimTime::from_secs(13), inform.decode().unwrap()).1);
    cut
}

fn crash_and_restore<S: Store>(h: &mut NodeHost<S>) -> Restored {
    h.crash();
    assert!(!h.node().up());
    let restored = h.restore(SimTime::from_secs(20)).unwrap();
    assert!(!h.node().up(), "restore leaves the point down until it rejoins");
    assert!(h.rejoin());
    assert!(h.node().up());
    restored
}

#[test]
fn sim_and_file_stores_agree_before_and_after_recovery() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("host-sim-vs-file");
    let _ = std::fs::remove_dir_all(&dir);
    let mut sim = host(SimStore::new(), SnapshotPolicy::records(3));
    let mut file = host(FileStore::open(&dir).unwrap(), SnapshotPolicy::records(3));
    let cut = run_script(&mut sim);
    assert_eq!(cut, run_script(&mut file));
    assert!(cut >= 1, "the script must cross the snapshot threshold");
    let before = observe(&mut sim);
    assert_eq!(before, observe(&mut file));
    assert_eq!(before.1, vec![15, 13, 15, 15]);

    let restored = crash_and_restore(&mut sim);
    assert_eq!(restored.records, crash_and_restore(&mut file).records);
    assert!(restored.records > 0, "a WAL tail must follow the last snapshot");
    assert!(restored.cost > SimDuration::ZERO, "SimStore models its load");
    assert_eq!(sim.wal_records_replayed(), u64::from(restored.records));
    assert_eq!((sim.recoveries(), file.recoveries()), (1, 1));
    let after = observe(&mut sim);
    assert_eq!(after, observe(&mut file));
    assert_eq!(after.1, before.1);
    // Everything the WAL journals came back (`floods_merged` counts
    // payloads, which the per-record log does not retain).
    assert_eq!(after.0.flood_hash, before.0.flood_hash);
    assert_eq!(after.0.informs, before.0.informs);
    assert_eq!(after.0.records_merged, before.0.records_merged);
    assert_eq!(after.0.floods_sent, before.0.floods_sent);
    let _ = std::fs::remove_dir_all(&dir);
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

/// The on-disk formats did not move when the dispatch record and its
/// 36-byte layout became one definition: a data directory written by the
/// commit before (two informs, a sync round, a third inform, a snapshot;
/// then an own record, a peer's record, a drain and one more own record
/// in the WAL) restores to the counters, the view and the next flood that
/// commit reported for the node that wrote it.
#[test]
fn a_data_directory_written_by_the_previous_format_owner_still_recovers() {
    const SNAPSHOT_BIN: &str = "11010000ca0ce516010000000000000000030000000000000001000000000000\
        0002000000000000000200000000000000000000000000000000000000000000\
        000000000000000000000000000000000058f86456838b7f8003000000000000\
        000000000000000000ffffffffffffffff000000000000000070000000030000\
        000100000000000000010000000100000002000000e80300000000000068f236\
        00000000000200000001000000000000000000000003000000d0070000000000\
        0050f63600000000000300000002000000010000000100000004000000b80b00\
        000000000038fa36000000000028000000010000000300000002000000010000\
        000100000004000000b80b00000000000038fa360000000000";
    const WAL_LOG: &str = "2d0000008b3d4252001027000000000000040000000300000000000000000000\
        0005000000a00f00000000000020fe3600000000002d0000008ecbaa01011027\
        0000000000000900000002000000010000000100000005000000282300000000\
        0000a8113700000000001900000027982d5d0210270000000000000200000002\
        0000002d3761214cfe63f62d000000b0bafae700102700000000000005000000\
        0000000001000000010000000100000088130000000000000802370000000000";
    const NEXT_FLOOD: &str = "0100000005000000000000000100000001000000010000008813000000000000\
        0802370000000000";
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("host-parent-fixture");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("snapshot.bin"), unhex(SNAPSHOT_BIN)).unwrap();
    std::fs::write(dir.join("wal.log"), unhex(WAL_LOG)).unwrap();

    // A process restart over that directory.
    let mut h = host(FileStore::open(&dir).unwrap(), SnapshotPolicy::DISABLED);
    assert_eq!(h.restore(SimTime::from_secs(20)).unwrap().records, 4);
    assert!(h.rejoin());
    let stats = h.node().stats();
    assert_eq!(
        (stats.informs, stats.sync_rounds, stats.floods_sent),
        (5, 2, 4)
    );
    assert_eq!((stats.records_flooded, stats.records_merged), (4, 1));
    assert_eq!(stats.flood_hash, 17_754_313_758_955_616_045);
    assert_eq!(h.node().engine().counters(), (5, 1));
    assert_eq!(
        h.node_mut().engine_mut().availability(SimTime::from_secs(20)),
        vec![13, 13, 7, 11]
    );
    let (out, _) = step(&mut h, SimTime::from_secs(20), Input::SyncTick { n_dps: 3 });
    let [Routed::FloodTo { peers, payload }] = &out[..] else {
        panic!("the unflooded record must go out: {out:?}");
    };
    assert_eq!(peers, &[1, 2]);
    assert_eq!(payload.records.as_ref(), &unhex(NEXT_FLOOD)[..]);
    assert_eq!(h.node().stats().flood_hash, 16_776_405_676_117_206_636);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_policy_never_snapshots() {
    let mut h = host(SimStore::new(), SnapshotPolicy::records(0));
    for job in 0..100 {
        let (_, events) = step(&mut h, SimTime::from_secs(3_600), Input::Inform(rec(job)));
        // SimStore's default append latency reaches the runtime.
        assert_eq!(
            events,
            vec![(SimDuration::from_millis(1), TraceEvent::WalAppended { dp: DpId(0) })]
        );
    }
    assert_eq!(crash_and_restore(&mut h).records, 100);
}

#[test]
fn time_half_of_the_policy_fires_on_the_next_append() {
    let policy = SnapshotPolicy {
        every_records: 0,
        every: SimDuration::from_secs(60),
    };
    let mut h = host(SimStore::new(), policy);
    let (_, events) = step(&mut h, SimTime::from_secs(59), Input::Inform(rec(1)));
    assert_eq!(snapshots(&events), 0);
    let (_, events) = step(&mut h, SimTime::from_secs(61), Input::Inform(rec(2)));
    assert_eq!(
        events.last(),
        Some(&(
            SimDuration::from_millis(50),
            TraceEvent::SnapshotWritten { dp: DpId(0), records: 2 }
        ))
    );
    // The clock restarts at the snapshot.
    let (_, events) = step(&mut h, SimTime::from_secs(62), Input::Inform(rec(3)));
    assert_eq!(snapshots(&events), 0);
}

#[test]
fn restoring_from_a_store_never_written_to() {
    // A crashed point over an empty store comes back empty, and up.
    let mut h = host(SimStore::new(), SnapshotPolicy::DISABLED);
    assert_eq!(crash_and_restore(&mut h).records, 0);
    assert_eq!(h.node().stats().informs, 0);
    // A point that never went down is a process's first boot: no restart.
    let mut boot = host(SimStore::new(), SnapshotPolicy::DISABLED);
    assert_eq!(boot.restore(SimTime::ZERO).unwrap(), Restored::default());
    assert!(!boot.rejoin());
    assert_eq!((boot.recoveries(), boot.node().stats().crashes), (0, 0));
}

#[test]
fn undecodable_snapshot_is_an_error_not_a_panic() {
    let mut store = SimStore::new();
    store.write_snapshot(&[0xFF, 1, 2, 3]);
    let mut h = host(store, SnapshotPolicy::DISABLED);
    step(&mut h, SimTime::from_secs(1), Input::Inform(rec(1)));
    h.crash();
    assert!(h.restore(SimTime::from_secs(2)).is_err());
    // The host is as it was: same node, still down.
    assert_eq!(h.node().stats().informs, 1);
    assert!(!h.node().up());
}

#[test]
fn malformed_wire_inform_is_dropped_whole() {
    assert!(WireInput::Inform(bytes::Bytes::from_static(b"short")).decode().is_none());
}
