//! A client's query deadline against a point that never answers. The
//! socket's read timeout is re-armed only when the armed one could
//! overshoot the deadline, so a read can time out short of a later, longer
//! deadline; the query must read on until that deadline, not give up at the
//! first timeout.

use clusterd::ClusterClient;
use gruber_types::{ClientId, DpId};
use simnet::codec::{encode_hello, Hello, PeerKind, WIRE_VERSION};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Listens on loopback as a decision point that does the acceptor's hello,
/// then reads whatever it is sent and never replies, until the client
/// hangs up. Returns its address and its thread.
fn silent_point() -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback listener");
    let addr = listener.local_addr().expect("address").to_string();
    let point = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut theirs = [0u8; Hello::WIRE_LEN];
        stream.read_exact(&mut theirs).expect("the client's hello");
        let ours = Hello {
            version: WIRE_VERSION,
            kind: PeerKind::Dp,
            dp: DpId(0),
        };
        stream
            .write_all(encode_hello(&ours).as_ref())
            .expect("hello");
        let mut sink = [0u8; 1024];
        while stream.read(&mut sink).is_ok_and(|n| n > 0) {}
    });
    (addr, point)
}

/// Asserts an unanswered `timeout` query gives up no earlier than its
/// deadline and well before a second more.
fn times_out_on_time(client: &mut ClusterClient, timeout: Duration) {
    let sent = Instant::now();
    assert_eq!(client.query(timeout).expect("query"), None);
    let waited = sent.elapsed();
    assert!(
        waited >= timeout,
        "{timeout:?} query gave up after {waited:?}"
    );
    let late = timeout + Duration::from_secs(1);
    assert!(waited < late, "{timeout:?} query gave up after {waited:?}");
}

#[test]
fn a_query_times_out_at_its_deadline_whatever_timeout_is_armed() {
    let (addr, point) = silent_point();
    let mut client = ClusterClient::connect(&addr, ClientId(1)).expect("connect");
    times_out_on_time(&mut client, Duration::from_millis(50));
    // 50 ms is still armed and shorter than what is left: reads time out
    // early and the query reads again until its own deadline.
    times_out_on_time(&mut client, Duration::from_millis(200));
    drop(client);
    point.join().expect("the silent point");
}
