//! Connection state-machine coverage for the socket runtime: handshake
//! rejection, partial-frame reassembly over a real socket, and the
//! peer-death → backoff-reconnect → flood-requeue cycle the deployment
//! guide documents. Everything runs against an in-process [`Server`] on
//! loopback — no child processes, so failures stay debuggable.

use bytes::Bytes;
use clusterd::{ClusterClient, Server, ServerConfig};
use gruber::DispatchRecord;
use gruber_types::{ClientId, DpId, GroupId, JobId, SimDuration, SimTime, SiteId, SiteSpec, VoId};
use obs::Recorder;
use simnet::codec::{
    decode_deltas, decode_hello, encode_frame, encode_hello, encode_inform, Hello, PeerKind,
    WIRE_VERSION,
};
use simnet::RetryPolicy;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use workload::uslas::equal_shares;

fn sites() -> Vec<SiteSpec> {
    (0..4)
        .map(|i| SiteSpec::single_cluster(SiteId(i), 16))
        .collect()
}

fn server(id: u32, n_dps: usize) -> Server {
    let cfg = ServerConfig::new(DpId(id), n_dps, sites(), equal_shares(2, 2).unwrap());
    Server::start(cfg, Recorder::OFF).expect("server start")
}

fn record(job: u32, site: u32, cpus: u32) -> DispatchRecord {
    let at = SimTime::from_secs(u64::from(job));
    DispatchRecord {
        job: JobId(job),
        site: SiteId(site),
        vo: VoId(0),
        group: GroupId(0),
        cpus,
        dispatched_at: at,
        est_finish: at + SimDuration::from_secs(1_000_000),
    }
}

/// Writes `hello` and returns what the far end did: `Some(n)` bytes of
/// reply, or `None` when the server dropped us without a byte (EOF).
fn handshake_outcome(addr: std::net::SocketAddr, hello: &[u8]) -> Option<usize> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(hello).expect("write hello");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 64];
    match stream.read(&mut buf) {
        Ok(0) => None,
        Ok(n) => Some(n),
        Err(e) => panic!("handshake read failed: {e}"),
    }
}

#[test]
fn handshake_version_mismatch_is_dropped_without_a_reply() {
    let server = server(0, 1);
    let addr = server.local_addr();

    // A conforming hello gets the server's hello back.
    let good = encode_hello(&Hello {
        version: WIRE_VERSION,
        kind: PeerKind::Client,
        dp: DpId(7),
    });
    assert_eq!(
        handshake_outcome(addr, good.as_ref()),
        Some(Hello::WIRE_LEN),
        "a valid handshake must be answered with the server's hello"
    );

    // A future wire version is dropped silently: EOF, not a downgrade.
    let newer = encode_hello(&Hello {
        version: WIRE_VERSION + 1,
        kind: PeerKind::Client,
        dp: DpId(7),
    });
    assert_eq!(handshake_outcome(addr, newer.as_ref()), None);

    // Garbage magic (a stray non-protocol client) is dropped the same way.
    let mut garbage = good.to_vec();
    garbage[0] ^= 0xFF;
    assert_eq!(handshake_outcome(addr, &garbage), None);

    server.stop();
    server.join();
}

#[test]
fn frames_reassemble_across_one_byte_writes() {
    let server = server(0, 1);
    let addr = server.local_addr();

    // Handshake by hand so we control every byte on the stream.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let hello = encode_hello(&Hello {
        version: WIRE_VERSION,
        kind: PeerKind::Client,
        dp: DpId(0),
    });
    stream.write_all(hello.as_ref()).unwrap();
    let mut hello_buf = [0u8; Hello::WIRE_LEN];
    stream.read_exact(&mut hello_buf).unwrap();
    decode_hello(Bytes::copy_from_slice(&hello_buf)).expect("server hello decodes");

    // An inform frame dribbled one byte per write: TCP segment boundaries
    // land in the worst possible places and the frame must still apply.
    let inform = encode_frame(
        clusterd::FRAME_INFORM,
        encode_inform(&record(1, 0, 4)).as_ref(),
    );
    for byte in inform.as_ref() {
        stream.write_all(&[*byte]).unwrap();
        stream.flush().unwrap();
    }

    // Observe the applied inform through a proper client.
    let mut client = ClusterClient::connect(&addr.to_string(), ClientId(1)).expect("client");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let view = client
            .query(Duration::from_secs(5))
            .expect("query io")
            .expect("query timed out");
        if view == vec![12, 16, 16, 16] {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "inform never applied; last view {view:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    server.stop();
    let stats = server.join();
    assert_eq!(stats.informs, 1);
    assert_eq!(stats.decode_failures, 0);
}

#[test]
fn peers_frame_with_an_inflated_count_drops_the_connection_not_the_process() {
    let server = server(0, 1);
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let hello = encode_hello(&Hello {
        version: WIRE_VERSION,
        kind: PeerKind::Client,
        dp: DpId(0),
    });
    stream.write_all(hello.as_ref()).unwrap();
    let mut hello_buf = [0u8; Hello::WIRE_LEN];
    stream.read_exact(&mut hello_buf).unwrap();

    // [05 00 00 00][05][FF FF FF FF]: a PEERS table claiming u32::MAX
    // entries in four bytes of payload.
    let hostile = encode_frame(clusterd::FRAME_PEERS, &[0xFF; 4]);
    stream.write_all(hostile.as_ref()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(
        stream.read(&mut buf).expect("read after hostile frame"),
        0,
        "a malformed frame must close the connection"
    );

    // The decision point is still serving.
    let mut client = ClusterClient::connect(&addr.to_string(), ClientId(1)).expect("client");
    let view = client
        .query(Duration::from_secs(5))
        .expect("query io")
        .expect("query timed out");
    assert_eq!(view, vec![16, 16, 16, 16]);

    server.stop();
    server.join();
}

/// One `INFORM` naming `VoId(u32::MAX)` used to grow the view's dense
/// principal table to 32 GB. The point's USLA set names VOs and groups 0
/// and 1: anything past them is counted as an inform and left out of the
/// view, and the point goes on answering.
#[test]
fn inform_naming_a_principal_past_the_usla_set_is_refused_not_allocated() {
    let server = server(0, 1);
    let addr = server.local_addr().to_string();
    let mut client = ClusterClient::connect(&addr, ClientId(0)).expect("client");

    for (job, vo, group) in [(1, u32::MAX, 0), (2, 2, 0), (3, 0, u32::MAX), (4, 0, 2)] {
        let hostile = DispatchRecord {
            vo: VoId(vo),
            group: GroupId(group),
            ..record(job, 0, 4)
        };
        client.inform(&hostile).expect("inform");
    }
    // An honest inform behind them on the same connection: once the view
    // shows it, the four before it have been handled.
    client.inform(&record(5, 1, 8)).expect("inform");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let view = client
            .query(Duration::from_secs(5))
            .expect("query io")
            .expect("query timed out");
        if view == vec![16, 8, 16, 16] {
            break; // site 0 untouched: the view took none of the four
        }
        assert_eq!(view, vec![16, 16, 16, 16], "a refused inform reached the view");
        assert!(Instant::now() < deadline, "honest inform never applied");
        std::thread::sleep(Duration::from_millis(5));
    }

    server.stop();
    let stats = server.join();
    assert_eq!(stats.informs, 5);
    assert_eq!(stats.decode_failures, 0);
}

/// The full peer-death cycle: the first flood exhausts its reconnect
/// budget against a dead address and requeues; after the peer "recovers"
/// at a new address (a rebroadcast peer table), the next sync round
/// delivers the requeued records over a fresh connection.
#[test]
fn peer_death_mid_flood_backs_off_requeues_and_redelivers() {
    // A dead peer address: bind, learn the port, drop the listener.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };

    let mut cfg = ServerConfig::new(DpId(0), 2, sites(), equal_shares(2, 2).unwrap());
    // A tight fixed policy keeps the exhaustion path under ~200 ms.
    cfg.retry = RetryPolicy::Fixed {
        interval: SimDuration::from_millis(50),
        max_retries: 2,
    };
    cfg.peers = vec![(DpId(1), dead_addr)];
    let server = Server::start(cfg, Recorder::OFF).expect("server start");
    let addr = server.local_addr().to_string();

    let mut client = ClusterClient::connect(&addr, ClientId(0)).expect("client");
    client.inform(&record(1, 0, 4)).expect("inform");
    client.sync().expect("sync");

    // The flood retries against the dead address, exhausts its budget,
    // and the records requeue into the pending log.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats(Duration::from_secs(5)).expect("stats");
        if stats.flood_requeues == 1 {
            assert_eq!(stats.floods_sent, 1, "one peer send was attempted");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "flood never requeued: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The peer comes back — at a different port, as a respawned process
    // would. A fake peer implements just enough of the acceptor to
    // capture the flood.
    let recovered = TcpListener::bind("127.0.0.1:0").unwrap();
    let new_addr = recovered.local_addr().unwrap().to_string();
    let capture = std::thread::spawn(move || -> Vec<u32> {
        let (mut stream, _) = recovered.accept().expect("peer accept");
        let mut hello_buf = [0u8; Hello::WIRE_LEN];
        stream.read_exact(&mut hello_buf).expect("initiator hello");
        let theirs = decode_hello(Bytes::copy_from_slice(&hello_buf)).expect("hello decodes");
        assert_eq!(theirs.kind, PeerKind::Dp);
        assert_eq!(theirs.dp, DpId(0), "the flood comes from dp 0");
        let ours = encode_hello(&Hello {
            version: WIRE_VERSION,
            kind: PeerKind::Dp,
            dp: DpId(1),
        });
        stream.write_all(ours.as_ref()).expect("acceptor hello");
        // One whole frame is enough: [len][kind][deltas payload].
        let mut fb = simnet::codec::FrameBuf::new();
        let mut chunk = [0u8; 4096];
        loop {
            let n = stream.read(&mut chunk).expect("frame read");
            assert!(n > 0, "sender closed before the flood arrived");
            fb.extend(&chunk[..n]);
            if let Some((kind, payload)) = fb.next_frame().expect("well-formed frame") {
                assert_eq!(kind, clusterd::FRAME_RECORDS);
                let deltas = decode_deltas(payload).expect("deltas decode");
                return deltas.iter().map(|d| d.job.0).collect();
            }
        }
    });

    client
        .set_peers(&[(DpId(1), new_addr)])
        .expect("peer table rebroadcast");
    client.sync().expect("second sync");

    let jobs = capture.join().expect("capture thread");
    assert_eq!(jobs, vec![1], "the requeued flood redelivered job 1");

    server.stop();
    let stats = server.join();
    assert_eq!(stats.flood_requeues, 1);
    assert_eq!(stats.sync_rounds, 2, "requeue made the second round non-empty");
    assert_eq!(stats.floods_sent, 2);
}

/// A flood too big for one frame (above `(MAX_FRAME_BODY - 5) / 36` =
/// 29 126 records the receiver's `FrameBuf` drops the connection) is
/// split at record boundaries: every record arrives, nothing is requeued
/// and nothing fails to decode. Sent whole it never arrived, and the
/// sender requeued the same oversized payload round after round.
#[test]
fn oversized_flood_is_split_across_frames_and_fully_merged() {
    const N: u32 = 30_000;
    let receiver = server(1, 2);
    let mut cfg = ServerConfig::new(DpId(0), 2, sites(), equal_shares(2, 2).unwrap());
    cfg.peers = vec![(DpId(1), receiver.local_addr().to_string())];
    let sender = Server::start(cfg, Recorder::OFF).expect("server start");

    let mut to_sender =
        ClusterClient::connect(&sender.local_addr().to_string(), ClientId(0)).expect("client");
    for job in 0..N {
        to_sender.inform(&record(job, job % 4, 1)).expect("inform");
    }
    to_sender.sync().expect("sync");

    let mut to_receiver =
        ClusterClient::connect(&receiver.local_addr().to_string(), ClientId(1)).expect("client");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = to_receiver.stats(Duration::from_secs(5)).expect("stats");
        if stats.records_merged == u64::from(N) {
            assert_eq!(stats.decode_failures, 0);
            break;
        }
        assert!(Instant::now() < deadline, "flood never fully merged: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    sender.stop();
    receiver.stop();
    let sent = sender.join();
    assert_eq!(sent.flood_requeues, 0);
    assert_eq!((sent.sync_rounds, sent.records_flooded), (1, u64::from(N)));
    assert_eq!(receiver.join().decode_failures, 0);
}

/// End-to-end sanity for the in-process server: queries, informs and the
/// stats control frame over one client connection.
#[test]
fn query_inform_stats_roundtrip_in_process() {
    let server = server(0, 1);
    let addr = server.local_addr().to_string();
    let mut client = ClusterClient::connect(&addr, ClientId(0)).expect("client");

    // `Duration::MAX` is no deadline; `sent + timeout` used to panic.
    let view = client
        .query(Duration::MAX)
        .expect("query io")
        .expect("query timed out");
    assert_eq!(view, vec![16, 16, 16, 16]);

    client.inform(&record(3, 2, 8)).expect("inform");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let view = client.query(Duration::from_secs(5)).unwrap().unwrap();
        if view == vec![16, 16, 8, 16] {
            break;
        }
        assert!(Instant::now() < deadline, "inform never applied");
        std::thread::sleep(Duration::from_millis(5));
    }

    let stats = client.stats(Duration::MAX).expect("stats");
    assert_eq!(stats.dp, DpId(0));
    assert_eq!(stats.informs, 1);
    assert!(stats.queries >= 2);

    client.shutdown().expect("shutdown frame");
    let final_stats = server.join();
    assert_eq!(final_stats.informs, 1);
}
