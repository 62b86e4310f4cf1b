//! Per-peer flood senders: one thread per remote decision point.
//!
//! The node loop hands each `FloodTo` effect to the target peer's
//! sender; the sender owns that peer's outbound TCP connection and its
//! lifecycle — lazy connect on first send, the handshake, and
//! reconnect-with-backoff (the `simnet::retry` policy, driven by real
//! sleeps instead of simulated timers). When the retry budget runs out
//! the flood's wire bytes go back to the node loop as a `FloodFailed`
//! message and the node requeues the records for the next sync round —
//! the same lost-then-retransmitted semantics the simulator models.
//!
//! Addresses are not fixed: a crashed-and-respawned peer rebinds on a new
//! ephemeral port, so the driver rebroadcasts the peer table and the node
//! loop forwards a [`PeerMsg::SetAddr`] here, which drops any cached
//! connection and points future sends at the new address.

use crate::server::Tcp;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use desim::DetRng;
use dpstore::NodeMsg;
use gruber_types::DpId;
use obs::{FaultMsgClass, Recorder, TraceEvent};
use simnet::codec::{decode_hello, encode_hello, Hello, PeerKind, WIRE_VERSION};
use simnet::RetryPolicy;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Messages the node loop sends a peer sender.
pub(crate) enum PeerMsg {
    /// Point future connects at a (possibly new) listen address. Drops
    /// any cached connection: after a peer respawn the old socket is
    /// dead even if the OS has not noticed yet.
    SetAddr(String),
    /// Ship one flood payload (`simnet::codec::encode_deltas` bytes).
    Send(Bytes),
    /// Stop the sender thread.
    Shutdown,
}

/// A running sender thread for one remote peer.
pub(crate) struct PeerSender {
    pub(crate) tx: Sender<PeerMsg>,
    pub(crate) handle: std::thread::JoinHandle<()>,
}

/// Spawns the sender thread for peer `to` of decision point `me`.
pub(crate) fn spawn(
    me: DpId,
    to: DpId,
    rx: Receiver<PeerMsg>,
    mailbox: Sender<NodeMsg<Tcp>>,
    retry: RetryPolicy,
    retry_seed: u64,
    recorder: Recorder,
    epoch: Instant,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("peer-{}-{}", me.0, to.0))
        .spawn(move || {
            let mut rng = DetRng::new(retry_seed, 0x5EED ^ u64::from(to.0));
            let mut addr: Option<String> = None;
            let mut conn: Option<TcpStream> = None;
            let now = || dpstore::mailbox::since(epoch);
            for msg in rx.iter() {
                match msg {
                    PeerMsg::SetAddr(a) => {
                        addr = Some(a);
                        conn = None;
                    }
                    PeerMsg::Send(bytes) => {
                        let Some(target) = addr.clone() else {
                            // Peer not discovered yet: requeue into the
                            // next round rather than guessing.
                            let _ = mailbox.send(NodeMsg::FloodFailed(bytes));
                            continue;
                        };
                        let frame =
                            simnet::codec::encode_frame(crate::proto::FRAME_RECORDS, bytes.as_ref());
                        let mut attempt = 0u32;
                        loop {
                            let sent = try_send(&mut conn, &target, me, frame.as_ref());
                            if sent {
                                break;
                            }
                            conn = None;
                            match retry.backoff(attempt, &mut rng) {
                                Some(delay) => {
                                    attempt += 1;
                                    recorder.emit(now(), || TraceEvent::RetryScheduled {
                                        class: FaultMsgClass::Exchange,
                                        dp: to,
                                        attempt,
                                    });
                                    std::thread::sleep(Duration::from_millis(delay.as_millis()));
                                }
                                None => {
                                    recorder.emit(now(), || TraceEvent::RetryExhausted {
                                        class: FaultMsgClass::Exchange,
                                        dp: to,
                                        attempts: attempt + 1,
                                    });
                                    let _ = mailbox.send(NodeMsg::FloodFailed(bytes));
                                    break;
                                }
                            }
                        }
                    }
                    PeerMsg::Shutdown => break,
                }
            }
        })
        .expect("spawn peer sender")
}

/// One send attempt: ensure a handshaken connection, write the frame.
/// Returns `false` on any failure (the caller backs off and retries).
fn try_send(conn: &mut Option<TcpStream>, target: &str, me: DpId, frame: &[u8]) -> bool {
    if conn.is_none() {
        *conn = connect(target, me);
    }
    match conn {
        Some(stream) => stream.write_all(frame).and_then(|_| stream.flush()).is_ok(),
        None => false,
    }
}

/// Dials the peer and runs the initiator side of the handshake: write our
/// hello, read and validate the acceptor's. A version-mismatched or
/// non-protocol acceptor drops us without replying, which surfaces here
/// as a short read.
fn connect(target: &str, me: DpId) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(target).ok()?;
    stream.set_nodelay(true).ok()?;
    let hello = encode_hello(&Hello {
        version: WIRE_VERSION,
        kind: PeerKind::Dp,
        dp: me,
    });
    stream.write_all(hello.as_ref()).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .ok()?;
    let mut buf = [0u8; Hello::WIRE_LEN];
    stream.read_exact(&mut buf).ok()?;
    let theirs = decode_hello(Bytes::copy_from_slice(&buf)).ok()?;
    if theirs.version != WIRE_VERSION || theirs.kind != PeerKind::Dp {
        return None;
    }
    stream.set_read_timeout(None).ok()?;
    Some(stream)
}
