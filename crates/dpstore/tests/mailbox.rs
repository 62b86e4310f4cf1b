//! The one wall-clock host ([`dpstore::SharedPoint`]), driven
//! deterministically: a script stepped on the current thread, a
//! recording transport, a `SimStore`. No sleeps and no sockets — what the
//! thread and socket runtimes share is tested without either.

use bytes::Bytes;
use dpnode::{Dissemination, DpNodeStats, Input, NodeConfig, Topology};
use dpstore::{
    Answer, Blueprint, DpStats, NodeHost, NodeMsg, Point, SharedPoint, SimStore, SnapshotPolicy,
    Store, Transport, WireInput,
};
use gruber::DispatchRecord;
use gruber_types::{DpId, GroupId, JobId, SimTime, SiteId, SiteSpec, VoId};
use obs::Recorder;
use simnet::codec::{decode_deltas, encode_deltas, encode_inform};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::uslas::equal_shares;

const N_DPS: usize = 3;

/// Records every flood the point sends out.
#[derive(Default)]
struct Recording {
    floods: Vec<(usize, Bytes)>,
}

impl Transport for Recording {
    type Peers = ();

    fn flood(&mut self, peer: usize, records: &Bytes) {
        self.floods.push((peer, records.clone()));
    }

    fn set_peers(&mut self, _peers: ()) {}

    fn n_dps(&self) -> usize {
        N_DPS
    }
}

type Msg = NodeMsg<Recording>;

fn host(persist: bool) -> NodeHost<SimStore> {
    host_over(persist.then(SimStore::new))
}

/// A point that persists exactly when it has a store.
fn host_over(store: Option<SimStore>) -> NodeHost<SimStore> {
    let persist = store.is_some();
    let blueprint = Blueprint {
        cfg: NodeConfig {
            id: DpId(0),
            topology: Topology::FullMesh,
            dissemination: Dissemination::UsageOnly,
            sync_every: None,
            gossip_seed: 0,
            persist,
        },
        sites: (0..4)
            .map(|i| SiteSpec::single_cluster(SiteId(i), 16))
            .collect(),
        uslas: equal_shares(2, 2).unwrap().into(),
        track_live: false,
    };
    NodeHost::new(
        blueprint,
        store,
        SnapshotPolicy::DISABLED,
        Recorder::OFF,
        SimTime::ZERO,
    )
}

fn record(job: u32, site: u32, cpus: u32) -> DispatchRecord {
    DispatchRecord {
        job: JobId(job),
        site: SiteId(site),
        vo: VoId(0),
        group: GroupId(0),
        cpus,
        dispatched_at: SimTime::ZERO,
        est_finish: SimTime::from_secs(1_000_000),
    }
}

fn query() -> Msg {
    Msg::Input(Input::QueryArrived { admission: None })
}

fn inform(job: u32, site: u32, cpus: u32) -> Msg {
    Msg::Wire(WireInput::Inform(encode_inform(&record(job, site, cpus))))
}

fn shared(host: NodeHost<SimStore>) -> SharedPoint<SimStore, Recording> {
    let transport = Recording::default();
    SharedPoint::new(Point::new(host, transport, Recorder::OFF), Instant::now())
}

/// What stepping a script left behind.
struct Run {
    /// Each answer, with the index of the step that gave it.
    answers: Vec<(usize, Answer)>,
    floods: Vec<(usize, Bytes)>,
    /// The node's own counters just before the shutdown.
    node: DpNodeStats,
    /// What the shutdown returned.
    stats: DpStats,
}

/// Steps `script` on this thread, then shuts the point down.
fn run(host: NodeHost<SimStore>, script: Vec<Msg>) -> Run {
    let point = shared(host);
    let answers = (script.into_iter().enumerate())
        .filter_map(|(i, msg)| Some((i, point.step(msg)?)))
        .collect();
    let (floods, node) = point
        .with(|p| (std::mem::take(&mut p.transport.floods), p.host.node().stats()))
        .expect("the point is up");
    let stats = point.shutdown().expect("no step panicked");
    Run {
        answers,
        floods,
        node,
        stats,
    }
}

#[test]
fn query_gets_exactly_one_answer_with_static_capacities() {
    let ran = run(host(false), vec![query()]);
    assert_eq!(ran.answers, vec![(0, Answer::Free(vec![16; 4]))]);
    assert!(ran.floods.is_empty());
    assert_eq!(ran.stats.queries, 1);
}

#[test]
fn sync_tick_floods_each_mesh_peer_and_stats_mirror_the_node() {
    let script = vec![inform(1, 0, 8), Msg::SyncTick, Msg::Stats];
    let Run {
        answers,
        floods,
        node,
        stats,
    } = run(host(false), script);

    let peers: Vec<usize> = floods.iter().map(|(peer, _)| *peer).collect();
    assert_eq!(peers, vec![1, 2], "one flood per mesh peer, none to self");
    assert_eq!(floods[0].1, floods[1].1, "every peer gets the same bytes");
    assert_eq!(decode_deltas(floods[0].1.clone()).unwrap().len(), 1);
    // A stats request is answered with what the shutdown returns.
    assert_eq!(answers, vec![(2, Answer::Stats(stats))]);

    assert_eq!(stats.dp, DpId(0));
    assert_eq!(stats.queries, node.queries);
    assert_eq!(stats.informs, node.informs);
    assert_eq!(stats.sync_rounds, node.sync_rounds);
    assert_eq!(stats.floods_sent, node.floods_sent);
    assert_eq!(stats.records_flooded, node.records_flooded);
    assert_eq!(stats.floods_merged, node.floods_merged);
    assert_eq!(stats.records_merged, node.records_merged);
    assert_eq!(stats.decode_failures, node.decode_failures);
    assert_eq!(stats.crashes, node.crashes);
    assert_eq!(stats.flood_hash, node.flood_hash);
    assert_eq!(
        (stats.informs, stats.sync_rounds, stats.floods_sent),
        (1, 1, 2)
    );
    assert_eq!(
        (
            stats.recoveries,
            stats.wal_records_replayed,
            stats.flood_requeues
        ),
        (0, 0, 0)
    );
}

/// The behaviour threads inherit from sockets: records a transport gave
/// up on ride the next round instead of being lost.
#[test]
fn failed_flood_is_requeued_into_the_next_round() {
    let first = run(host(false), vec![inform(1, 0, 8), Msg::SyncTick]);
    let lost = first.floods[0].1.clone();

    // A second point that never saw the inform: all it can flood is the
    // requeued payload.
    let script = vec![Msg::SyncTick, Msg::FloodFailed(lost.clone()), Msg::SyncTick];
    let ran = run(host(false), script);
    assert_eq!(ran.stats.flood_requeues, 1);
    assert_eq!(ran.stats.sync_rounds, 1, "the empty-log tick is silent");
    assert_eq!(ran.floods.len(), N_DPS - 1);
    assert_eq!(
        decode_deltas(ran.floods[0].1.clone()).unwrap(),
        decode_deltas(lost).unwrap(),
        "the requeued records are what the next flood carries"
    );
}

#[test]
fn crash_drops_inputs_and_restore_replays_the_wal() {
    let script = vec![
        inform(1, 0, 8),
        inform(2, 1, 4),
        query(),
        Msg::Crash,
        inform(3, 2, 2),
        query(),
        Msg::Restore,
        query(),
    ];
    let ran = run(host(true), script);
    let view = Answer::Free(vec![8, 12, 16, 16]);
    assert_eq!(
        ran.answers,
        vec![(2, view.clone()), (7, view)],
        "a down point answers nothing; the recovered view is the pre-crash view"
    );
    assert_eq!(ran.stats.recoveries, 1);
    assert_eq!(ran.stats.wal_records_replayed, 2, "the two journaled informs");
    assert_eq!(
        ran.stats.queries, 1,
        "the replacement node served only the last query"
    );
}

#[test]
fn malformed_inform_is_dropped_whole_and_the_point_continues() {
    let garbage = Msg::Wire(WireInput::Inform(Bytes::copy_from_slice(&[1, 2, 3])));
    let script = vec![garbage, inform(1, 0, 8), query()];
    let ran = run(host(false), script);
    assert_eq!(ran.stats.informs, 1);
    assert_eq!(ran.answers, vec![(2, Answer::Free(vec![8, 16, 16, 16]))]);
}

/// A flood is merged straight off its wire bytes, record by record, yet a
/// malformed one merges nothing: its count is held against its length
/// before the first record is read. Each counts one decode failure.
#[test]
fn a_malformed_flood_merges_nothing_and_counts_one_failure() {
    let whole = encode_deltas(&[record(1, 0, 4), record(2, 1, 4), record(3, 2, 4)]);
    // Three records claimed, two and a half there.
    let torn = Bytes::copy_from_slice(&whole.as_ref()[..whole.len() - 18]);
    // One claimed, none there.
    let empty = Bytes::copy_from_slice(&1u32.to_le_bytes());
    for bad in [torn, empty] {
        let script = vec![Msg::Wire(WireInput::PeerRecords(bad)), query()];
        let ran = run(host(false), script);
        assert_eq!(ran.answers, vec![(1, Answer::Free(vec![16; 4]))]);
        let s = ran.stats;
        assert_eq!((s.decode_failures, s.floods_merged, s.records_merged), (1, 0, 0));
    }
}

/// A well-formed frame naming a site the grid does not have — one past the
/// last, from a client and from a peer — must not take the point down:
/// nothing is counted, nothing is forwarded, the next query is answered.
#[test]
fn records_for_an_unknown_site_leave_the_views_unchanged() {
    let flood = encode_deltas(&[record(3, 4, 8)]);
    let script = vec![
        inform(1, 0, 8),
        inform(2, 4, 8),
        Msg::Wire(WireInput::PeerRecords(flood)),
        query(),
        Msg::SyncTick,
    ];
    let ran = run(host(false), script);
    assert_eq!(ran.answers, vec![(3, Answer::Free(vec![8, 16, 16, 16]))]);
    assert_eq!((ran.stats.records_merged, ran.stats.decode_failures), (0, 0));
    assert_eq!(ran.stats.records_flooded, 1, "only job 1 goes out");
}

/// After `shutdown` every step is refused and the final statistics stay
/// what they were.
#[test]
fn nothing_is_stepped_after_shutdown() {
    let point = shared(host(false));
    point.step(inform(1, 0, 8));
    let stats = point.shutdown().expect("no step panicked");
    assert!(point.stop.load(Ordering::Relaxed));
    assert_eq!(point.step(query()), None);
    assert_eq!(point.step(inform(2, 0, 8)), None);
    assert_eq!((point.shutdown(), point.join()), (Some(stats), Some(stats)));
    assert_eq!(stats.informs, 1);
}

/// A step that panics ends the point: a `join` already waiting wakes with
/// no statistics instead of waiting for a shutdown no thread will step,
/// the panicking call and every later one get `None`, and the feeding
/// threads see `stop`.
#[test]
fn a_panicking_step_ends_the_point() {
    let mut store = SimStore::new();
    // A snapshot that does not decode: restoring from it panics.
    store.write_snapshot(&[0xFF; 8]);
    let point = Arc::new(shared(host_over(Some(store))));

    let waiting = Arc::clone(&point);
    let join = std::thread::spawn(move || waiting.join());
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(point.step(Msg::Restore), None);
    assert!(point.stop.load(Ordering::Relaxed));

    let deadline = Instant::now() + Duration::from_secs(5);
    while !join.is_finished() {
        assert!(Instant::now() < deadline, "join still waits after a step panicked");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(join.join().expect("join returns"), None);
    assert_eq!(point.step(Msg::Stats), None, "a panicked point answered");
    assert_eq!(point.shutdown(), None);
}
