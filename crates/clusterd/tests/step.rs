//! Every source of input steps a socket point under its one lock: each
//! connection's reader, the sync ticker and the peer flood senders, on
//! their own threads. These tests drive all of them at once against an
//! in-process pair of servers and check that the lock loses nothing,
//! counts nothing twice, keeps each connection's order, and refuses
//! every step after `Shutdown`.

use clusterd::{uniform_sites, ClusterClient, Server, ServerConfig};
use gruber::DispatchRecord;
use gruber_types::{ClientId, DpId, GroupId, JobId, SimDuration, SimTime, SiteId, VoId};
use obs::Recorder;
use std::time::{Duration, Instant};
use workload::uslas::equal_shares;

/// Client connections to point 0; each informs on a site of its own.
const CLIENTS: u32 = 4;
/// Queries, and informs, each client sends.
const ROUNDS: u32 = 1_000;
/// CPUs per site: more than any site is informed of.
const CPUS: u32 = 10_000;
const TIMEOUT: Duration = Duration::from_secs(10);

fn server(id: u32, peers: Vec<(DpId, String)>) -> Server {
    let mut cfg = ServerConfig::new(
        DpId(id),
        2,
        uniform_sites(CLIENTS + 1, CPUS),
        equal_shares(2, 2).unwrap(),
    );
    cfg.peers = peers;
    cfg.sync_interval = Some(Duration::from_millis(20));
    Server::start(cfg, Recorder::OFF).expect("server start")
}

fn record(job: u32, site: u32) -> DispatchRecord {
    DispatchRecord {
        job: JobId(job),
        site: SiteId(site),
        vo: VoId(0),
        group: GroupId(0),
        cpus: 1,
        dispatched_at: SimTime::ZERO,
        est_finish: SimTime::ZERO + SimDuration::from_secs(1_000_000),
    }
}

fn connect(server: &Server, client: u32) -> ClusterClient {
    ClusterClient::connect(&server.local_addr().to_string(), ClientId(client)).expect("client")
}

/// Polls the statistics of the point `client` talks to until `done`
/// holds of them.
fn stats_until(
    client: &mut ClusterClient,
    done: impl Fn(&clusterd::ClusterDpStats) -> bool,
) -> clusterd::ClusterDpStats {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let stats = client.stats(TIMEOUT).expect("stats");
        if done(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "never converged: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Four clients query, inform and sync point 0 while its ticker fires
/// every 20 ms and point 1 floods it its own client's informs. Counts are
/// exact, every record is merged once, nothing is requeued, and each
/// connection's order holds: by the time a client's `SYNC` has been
/// stepped, every inform it sent before is in a flood, so once point 1
/// has merged that much, its view shows all of that client's informs.
#[test]
fn one_point_takes_every_kind_of_input_at_once() {
    let first = server(0, Vec::new());
    let second = server(1, vec![(DpId(0), first.local_addr().to_string())]);
    let mut control = connect(&first, 99);
    let table = [(DpId(1), second.local_addr().to_string())];
    control.set_peers(&table).expect("peer table");
    // Stepped after the table: no flood of point 0 finds its peer unknown.
    control.stats(TIMEOUT).expect("stats");

    std::thread::scope(|scope| {
        // Point 1's own client: floods into point 0 while its clients run.
        scope.spawn(|| {
            let mut client = connect(&second, 50);
            for k in 0..ROUNDS {
                client
                    .inform(&record(CLIENTS * ROUNDS + k, CLIENTS))
                    .expect("inform");
            }
            client.sync().expect("sync");
        });
        for c in 0..CLIENTS {
            let (first, second) = (&first, &second);
            scope.spawn(move || {
                let mut client = connect(first, c);
                for k in 0..ROUNDS {
                    let view = client.query(TIMEOUT).expect("query io");
                    assert_eq!(view.map(|free| free.len()), Some(CLIENTS as usize + 1));
                    client.inform(&record(c * ROUNDS + k, c)).expect("inform");
                }
                client.sync().expect("sync");
                // Stepped after the `SYNC`, on the same connection.
                let flooded = client.stats(TIMEOUT).expect("stats").records_flooded;
                let mut peer = connect(second, 60 + c);
                stats_until(&mut peer, |s| s.records_merged >= flooded);
                let view = peer.query(TIMEOUT).expect("query io").expect("answered");
                assert_eq!(
                    view[c as usize],
                    CPUS - ROUNDS,
                    "client {c}'s informs before its sync were not all flooded by it"
                );
            });
        }
    });

    // A final round each way, then every record is merged exactly once.
    control.sync().expect("sync");
    let mut to_second = connect(&second, 98);
    to_second.sync().expect("sync");
    let informs = CLIENTS * ROUNDS;
    let a = stats_until(&mut control, |s| s.records_merged == u64::from(ROUNDS));
    let b = stats_until(&mut to_second, |s| s.records_merged == u64::from(informs));
    assert_eq!(
        (a.queries, a.informs),
        (u64::from(informs), u64::from(informs))
    );
    assert_eq!(
        (b.queries, b.informs),
        (u64::from(CLIENTS), u64::from(ROUNDS))
    );
    assert_eq!(a.records_merged + b.records_merged, a.informs + b.informs);
    assert_eq!((a.flood_requeues, b.flood_requeues), (0, 0));
    assert_eq!((a.decode_failures, b.decode_failures), (0, 0));

    first.stop();
    second.stop();
    assert_eq!(first.join(), a);
    assert_eq!(second.join(), b);
}

/// A clean shutdown right after a sync still delivers the whole flood to a
/// reachable peer: its frames are queued before `Shutdown` is stepped,
/// and a sender gives up on a stopped point's queue only once a send
/// fails.
#[test]
fn a_shutdown_right_after_a_sync_still_floods_a_reachable_peer() {
    // Four frames' worth.
    const RECORDS: u32 = 100_000;
    let peer = server(1, Vec::new());
    let mut cfg = ServerConfig::new(
        DpId(0),
        2,
        uniform_sites(CLIENTS + 1, CPUS),
        equal_shares(2, 2).unwrap(),
    );
    cfg.peers = vec![(DpId(1), peer.local_addr().to_string())];
    let point = Server::start(cfg, Recorder::OFF).expect("server start");
    let mut client = connect(&point, 0);
    for job in 0..RECORDS {
        client.inform(&record(job, job % (CLIENTS + 1))).expect("inform");
    }
    client.sync().expect("sync");
    client.shutdown().expect("shutdown");
    assert_eq!(point.join().records_flooded, u64::from(RECORDS));

    let mut to_peer = connect(&peer, 1);
    let merged = stats_until(&mut to_peer, |s| s.records_merged >= u64::from(RECORDS));
    assert_eq!(merged.records_merged, u64::from(RECORDS));
    peer.stop();
    peer.join();
}

/// `Server::stop` steps `Shutdown`; from then on every step, on any
/// connection, is refused: an inform is not counted and a query goes
/// unanswered, though the connection stays open.
#[test]
fn nothing_is_stepped_after_shutdown() {
    let point = server(0, Vec::new());
    let (mut before, mut after) = (connect(&point, 0), connect(&point, 1));
    before.inform(&record(1, 0)).expect("inform");
    assert_eq!(before.stats(TIMEOUT).expect("stats").informs, 1);

    point.stop();
    after
        .inform(&record(2, 1))
        .expect("the connection is still open");
    let view = after.query(Duration::from_millis(200)).expect("query io");
    assert_eq!(view, None, "a query was answered after Shutdown");
    assert_eq!(point.join().informs, 1);
}
