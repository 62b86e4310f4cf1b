//! The mailbox node loop ([`dpstore::mailbox::node_loop`]), driven
//! deterministically: a pre-filled mailbox ending in `Shutdown`, a
//! recording transport, a `SimStore`, the current thread. No sleeps, no
//! sockets, no threads — what the thread and socket runtimes share is
//! tested without either.

use bytes::Bytes;
use crossbeam::channel::unbounded;
use dpnode::{Dissemination, NodeConfig, Topology};
use dpstore::mailbox::{node_loop, Answer, DpStats, NodeMsg, Point, Transport};
use dpstore::{Blueprint, NodeHost, SimStore, SnapshotPolicy, WireInput};
use gruber::DispatchRecord;
use gruber_types::{DpId, GroupId, JobId, SimTime, SiteId, SiteSpec, VoId};
use obs::Recorder;
use simnet::codec::{decode_deltas, encode_deltas, encode_inform};
use std::time::Instant;
use workload::uslas::equal_shares;

const N_DPS: usize = 3;

/// Records everything the loop sends out.
#[derive(Default)]
struct Recording {
    replies: Vec<(&'static str, Answer)>,
    floods: Vec<(usize, Bytes)>,
}

impl Transport for Recording {
    type Reply = &'static str;
    type Peers = ();

    fn reply(&mut self, to: &'static str, answer: Answer) {
        self.replies.push((to, answer));
    }

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
    let store = persist.then(SimStore::new);
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

fn inform(job: u32, site: u32, cpus: u32) -> Msg {
    Msg::Wire(WireInput::Inform(encode_inform(&record(job, site, cpus))))
}

/// Runs the loop on this thread over `script` + `Shutdown`.
fn run(host: &mut NodeHost<SimStore>, script: Vec<Msg>) -> (Recording, DpStats) {
    let (tx, rx) = unbounded();
    for msg in script.into_iter().chain([Msg::Shutdown]) {
        assert!(tx.send(msg).is_ok(), "the receiver is alive");
    }
    // The point owns its host: lend it `host` for the run, then take it back.
    let taken = std::mem::replace(host, self::host(false));
    let transport = Recording::default();
    let mut point = Point::new(taken, transport, Recorder::OFF, Instant::now());
    let stats = node_loop(&mut point, &rx);
    *host = point.host;
    (point.transport, stats)
}

#[test]
fn query_gets_exactly_one_reply_with_static_capacities() {
    let (sent, stats) = run(&mut host(false), vec![Msg::Query { reply: "client" }]);
    assert_eq!(sent.replies, vec![("client", Answer::Free(vec![16; 4]))]);
    assert!(sent.floods.is_empty());
    assert_eq!(stats.queries, 1);
}

#[test]
fn sync_tick_floods_each_mesh_peer_and_stats_mirror_the_node() {
    let mut host = host(false);
    let script = vec![inform(1, 0, 8), Msg::SyncTick, Msg::Stats { reply: "ops" }];
    let (sent, stats) = run(&mut host, script);

    let peers: Vec<usize> = sent.floods.iter().map(|(peer, _)| *peer).collect();
    assert_eq!(peers, vec![1, 2], "one flood per mesh peer, none to self");
    assert_eq!(
        sent.floods[0].1, sent.floods[1].1,
        "every peer gets the same bytes"
    );
    assert_eq!(decode_deltas(sent.floods[0].1.clone()).unwrap().len(), 1);
    // A stats request is answered with what the loop returns at the end.
    assert_eq!(sent.replies, vec![("ops", Answer::Stats(stats))]);

    let node = host.node().stats();
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
    let (first, _) = run(&mut host(false), vec![inform(1, 0, 8), Msg::SyncTick]);
    let lost = first.floods[0].1.clone();

    // A second point that never saw the inform: all it can flood is the
    // requeued payload.
    let script = vec![Msg::SyncTick, Msg::FloodFailed(lost.clone()), Msg::SyncTick];
    let (sent, stats) = run(&mut host(false), script);
    assert_eq!(stats.flood_requeues, 1);
    assert_eq!(stats.sync_rounds, 1, "the empty-log tick is silent");
    assert_eq!(sent.floods.len(), N_DPS - 1);
    assert_eq!(
        decode_deltas(sent.floods[0].1.clone()).unwrap(),
        decode_deltas(lost).unwrap(),
        "the requeued records are what the next flood carries"
    );
}

#[test]
fn crash_drops_inputs_and_restore_replays_the_wal() {
    let mut host = host(true);
    let script = vec![
        inform(1, 0, 8),
        inform(2, 1, 4),
        Msg::Query { reply: "before" },
        Msg::Crash,
        inform(3, 2, 2),
        Msg::Query { reply: "down" },
        Msg::Restore,
        Msg::Query { reply: "after" },
    ];
    let (sent, stats) = run(&mut host, script);
    let view = Answer::Free(vec![8, 12, 16, 16]);
    assert_eq!(
        sent.replies,
        vec![("before", view.clone()), ("after", view)],
        "a down point answers nothing; the recovered view is the pre-crash view"
    );
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.wal_records_replayed, 2, "the two journaled informs");
    assert_eq!(
        stats.queries, 1,
        "the replacement node served only the last query"
    );
}

#[test]
fn malformed_inform_is_dropped_whole_and_the_loop_continues() {
    let garbage = Msg::Wire(WireInput::Inform(Bytes::copy_from_slice(&[1, 2, 3])));
    let script = vec![garbage, inform(1, 0, 8), Msg::Query { reply: "client" }];
    let (sent, stats) = run(&mut host(false), script);
    assert_eq!(stats.informs, 1);
    assert_eq!(
        sent.replies,
        vec![("client", Answer::Free(vec![8, 16, 16, 16]))]
    );
}

/// A well-formed frame naming a site the grid does not have — one past the
/// last, from a client and from a peer — must not take the node thread
/// down: nothing is counted, nothing is forwarded, the next query is
/// answered.
#[test]
fn records_for_an_unknown_site_leave_the_views_unchanged() {
    let flood = encode_deltas(&[record(3, 4, 8)]);
    let script = vec![
        inform(1, 0, 8),
        inform(2, 4, 8),
        Msg::Wire(WireInput::PeerRecords(flood)),
        Msg::Query { reply: "client" },
        Msg::SyncTick,
    ];
    let (sent, stats) = run(&mut host(false), script);
    assert_eq!(
        sent.replies,
        vec![("client", Answer::Free(vec![8, 16, 16, 16]))]
    );
    assert_eq!((stats.records_merged, stats.decode_failures), (0, 0));
    assert_eq!(stats.records_flooded, 1, "only job 1 goes out");
}
