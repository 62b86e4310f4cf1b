//! A far end that stops reading — a stopped, overloaded or half-open host
//! — costs a decision point that one connection, never its other
//! connections or a flood sender: every write has a deadline, and a
//! reply is written outside the point's lock. Without those, the tests
//! here wedge or stall the point.

use clusterd::{uniform_sites, ClusterClient, Server, ServerConfig, WRITE_DEADLINE};
use gruber::DispatchRecord;
use gruber_types::{ClientId, DpId, GroupId, JobId, SimDuration, SimTime, SiteId, VoId};
use obs::Recorder;
use simnet::codec::{encode_frame, encode_hello, encode_query, Hello, PeerKind, QueryRequest};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use workload::uslas::equal_shares;

/// Exchanges hellos by hand on `stream`, as `kind` with id 0, in the
/// acceptor's order or the initiator's.
fn handshake(mut stream: TcpStream, kind: PeerKind, acceptor: bool) -> TcpStream {
    let ours = encode_hello(&Hello {
        version: simnet::codec::WIRE_VERSION,
        kind,
        dp: DpId(0),
    });
    if !acceptor {
        stream.write_all(ours.as_ref()).expect("write hello");
    }
    let mut theirs = [0u8; Hello::WIRE_LEN];
    stream.read_exact(&mut theirs).expect("read hello");
    if acceptor {
        stream.write_all(ours.as_ref()).expect("write hello");
    }
    stream
}

#[test]
fn a_client_that_never_reads_its_replies_does_not_wedge_the_point() {
    let cfg = ServerConfig::new(
        DpId(0),
        1,
        uniform_sites(300, 16),
        equal_shares(2, 2).unwrap(),
    );
    let server = Server::start(cfg, Recorder::OFF).expect("server start");
    let addr = server.local_addr();

    // 50 000 queries in one burst, 60 MB of replies, none of them read:
    // the point's writes to this client fill both socket buffers.
    let burst: Vec<u8> = (0..50_000)
        .flat_map(|job| {
            let query = encode_query(&QueryRequest {
                client: ClientId(0),
                job: JobId(job),
                cpus: 1,
            });
            encode_frame(clusterd::FRAME_QUERY, query.as_ref()).to_vec()
        })
        .collect();
    let connect = TcpStream::connect(addr).expect("connect");
    let mut silent = handshake(connect, PeerKind::Client, false);
    silent.write_all(&burst).expect("query burst");
    std::thread::sleep(Duration::from_millis(1_500));

    let mut client = ClusterClient::connect(&addr.to_string(), ClientId(1)).expect("client");
    let view = client.query(Duration::from_secs(5)).expect("query io");
    assert_eq!(
        view.map(|free| free.len()),
        Some(300),
        "the point stopped answering"
    );

    server.stop();
    server.join();
    drop(silent);
}

#[test]
fn a_peer_that_stops_reading_does_not_wedge_its_flood_sender() {
    // The peer completes one handshake, then stops: it never reads again
    // and accepts nothing more, so later dials wait in its backlog.
    let listener = TcpListener::bind("127.0.0.1:0").expect("listen");
    let peer_addr = listener.local_addr().expect("addr").to_string();
    let stopped = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("peer accept");
        (listener, handshake(stream, PeerKind::Dp, true))
    });

    let mut cfg = ServerConfig::new(
        DpId(0),
        2,
        uniform_sites(4, 16),
        equal_shares(2, 2).unwrap(),
    );
    cfg.peers = vec![(DpId(1), peer_addr)];
    let server = Server::start(cfg, Recorder::OFF).expect("server start");
    let mut client =
        ClusterClient::connect(&server.local_addr().to_string(), ClientId(0)).expect("client");
    // A 14.4 MB flood in 14 frames: more than the socket buffers hold.
    for job in 0..400_000u32 {
        let at = SimTime::from_secs(u64::from(job));
        let record = DispatchRecord {
            job: JobId(job),
            site: SiteId(job % 4),
            vo: VoId(0),
            group: GroupId(0),
            cpus: 1,
            dispatched_at: at,
            est_finish: at + SimDuration::from_secs(1_000_000),
        };
        client.inform(&record).expect("inform");
    }
    client.sync().expect("sync");

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats(Duration::from_secs(5)).expect("stats");
        if stats.flood_requeues > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the flood never requeued: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // Not joined: the sender still owes every later frame of the flood
    // its own retry budget against the stopped peer.
    server.stop();
    drop(stopped.join().expect("stopped peer"));
}

/// A reader writes its reply after it releases the point's lock, so a
/// reader stuck in a write to a client that does not read holds only
/// itself: every other client is answered well inside the write deadline
/// the stuck reader sits out. (When the point itself wrote replies, a
/// query waited behind the whole stalled burst.)
#[test]
fn a_client_that_never_reads_holds_up_no_other_client() {
    let cfg = ServerConfig::new(
        DpId(0),
        1,
        uniform_sites(300, 16),
        equal_shares(2, 2).unwrap(),
    );
    let server = Server::start(cfg, Recorder::OFF).expect("server start");
    let addr = server.local_addr();
    let mut client = ClusterClient::connect(&addr.to_string(), ClientId(1)).expect("client");

    // The same unread burst as above: its replies fill both socket buffers
    // and its reader blocks in a write until the deadline ends it.
    let burst: Vec<u8> = (0..50_000)
        .flat_map(|job| {
            let query = encode_query(&QueryRequest {
                client: ClientId(0),
                job: JobId(job),
                cpus: 1,
            });
            encode_frame(clusterd::FRAME_QUERY, query.as_ref()).to_vec()
        })
        .collect();
    let connect = TcpStream::connect(addr).expect("connect");
    let mut silent = handshake(connect, PeerKind::Client, false);
    silent.write_all(&burst).expect("query burst");

    // Query throughout the silent reader's blocked write and past its end.
    let until = Instant::now() + WRITE_DEADLINE * 3 / 2;
    let mut slowest = Duration::ZERO;
    while Instant::now() < until {
        let asked = Instant::now();
        let view = client.query(Duration::from_secs(5)).expect("query io");
        assert_eq!(
            view.map(|free| free.len()),
            Some(300),
            "the point stopped answering"
        );
        slowest = slowest.max(asked.elapsed());
    }
    assert!(
        slowest < WRITE_DEADLINE / 2,
        "a query waited {slowest:?} behind a client that does not read"
    );

    server.stop();
    server.join();
    drop(silent);
}

/// Once the point has stepped `Shutdown` there is no next round to requeue
/// into, so a flood sender drops what is still queued for a stopped peer.
/// `join` used to sit out every queued frame's retry budget first: a 1 s
/// write deadline and four 2 s redials with backoff, for each of the
/// flood's 14 frames.
#[test]
fn join_does_not_wait_out_the_retries_queued_for_a_stopped_peer() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("listen");
    let peer_addr = listener.local_addr().expect("addr").to_string();
    let stopped = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("peer accept");
        (listener, handshake(stream, PeerKind::Dp, true))
    });

    let mut cfg = ServerConfig::new(
        DpId(0),
        2,
        uniform_sites(4, 16),
        equal_shares(2, 2).unwrap(),
    );
    cfg.peers = vec![(DpId(1), peer_addr)];
    let server = Server::start(cfg, Recorder::OFF).expect("server start");
    let mut client =
        ClusterClient::connect(&server.local_addr().to_string(), ClientId(0)).expect("client");
    for job in 0..400_000u32 {
        let at = SimTime::from_secs(u64::from(job));
        let record = DispatchRecord {
            job: JobId(job),
            site: SiteId(job % 4),
            vo: VoId(0),
            group: GroupId(0),
            cpus: 1,
            dispatched_at: at,
            est_finish: at + SimDuration::from_secs(1_000_000),
        };
        client.inform(&record).expect("inform");
    }
    client.sync().expect("sync");
    // Stepped after the sync on the same connection: the flood is queued.
    let stats = client.stats(Duration::from_secs(30)).expect("stats");
    assert_eq!(stats.records_flooded, 400_000);
    // Past the first write deadline: the sender is retrying frame one.
    std::thread::sleep(WRITE_DEADLINE * 3 / 2);

    let stopping = Instant::now();
    server.stop();
    server.join();
    let took = stopping.elapsed();
    assert!(took < Duration::from_secs(5), "join took {took:?}");
    drop(stopped.join().expect("stopped peer"));
}
