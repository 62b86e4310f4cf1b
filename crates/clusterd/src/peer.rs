//! Per-peer flood senders: one thread per remote decision point.
//!
//! The point's transport hands each `FloodTo` effect to the target peer's
//! sender; the sender owns that peer's outbound TCP connection and its
//! lifecycle — lazy dial on first send (the dial, the handshake and the
//! deadlines are [`crate::conn`]'s), and reconnect-with-backoff (the
//! `simnet::retry` policy, driven by real sleeps instead of simulated
//! timers; its jitter is seeded by both the sender and the peer, so two
//! points retrying toward one restarted peer do not retry in step). A
//! peer that stops reading fails the write at its deadline, and the send
//! retries like any other loss. When the retry budget runs out the
//! sender steps the point with the flood's wire bytes as a `FloodFailed`
//! message and the node requeues the records for the next sync round —
//! the same lost-then-retransmitted semantics the simulator models. Once
//! the point has stopped, a reachable peer is still sent everything
//! queued for it, but a send that fails is neither retried nor requeued,
//! and what is queued behind it is dropped: `Server::join` waits for at
//! most the backoff in progress and one more attempt.
//!
//! Addresses are not fixed: a crashed-and-respawned peer rebinds on a new
//! ephemeral port, so the driver rebroadcasts the peer table and the
//! transport forwards a [`PeerMsg::SetAddr`] here, which drops any cached
//! connection and points future sends at the new address.

use crate::conn::{self, Conn};
use crate::server::Node;
use bytes::Bytes;
use desim::DetRng;
use dpstore::NodeMsg;
use gruber_types::DpId;
use obs::{FaultMsgClass, Recorder, TraceEvent};
use simnet::codec::PeerKind;
use simnet::RetryPolicy;
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages the transport sends a peer sender.
pub(crate) enum PeerMsg {
    /// Point future connects at a (possibly new) listen address. Drops
    /// any cached connection: after a peer respawn the old socket is
    /// dead even if the OS has not noticed yet.
    SetAddr(String),
    /// Ship one flood payload (`simnet::codec::encode_deltas` bytes).
    Send(Bytes),
}

/// Spawns the sender thread for peer `to` of decision point `me`. It ends
/// once `node` has ended, which drops the transport and with it every
/// sender of `rx`: when it has sent what is queued, or at the first send
/// that fails.
pub(crate) fn spawn(
    me: DpId,
    to: DpId,
    rx: Receiver<PeerMsg>,
    node: Arc<Node>,
    retry: RetryPolicy,
    recorder: Recorder,
    epoch: Instant,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("peer-{}-{}", me.0, to.0))
        .spawn(move || {
            let mut rng = retry_rng(me, to);
            let mut addr: Option<String> = None;
            let mut link: Option<Conn> = None;
            let now = || dpstore::since(epoch);
            for msg in rx.iter() {
                match msg {
                    PeerMsg::SetAddr(a) => {
                        addr = Some(a);
                        link = None;
                    }
                    PeerMsg::Send(bytes) => {
                        let Some(target) = addr.clone() else {
                            // Peer not discovered yet: requeue into the
                            // next round rather than guessing.
                            node.step(NodeMsg::FloodFailed(bytes));
                            continue;
                        };
                        let frame =
                            simnet::codec::encode_frame(crate::proto::FRAME_RECORDS, bytes.as_ref());
                        let mut attempt = 0u32;
                        while try_send(&mut link, &target, me, frame.as_ref()).is_none() {
                            link = None;
                            // A stopped point has no next round to requeue
                            // into: a failing peer gets nothing more.
                            if node.stop.load(Ordering::Relaxed) {
                                return;
                            }
                            let Some(delay) = retry.backoff(attempt, &mut rng) else {
                                recorder.emit(now(), || TraceEvent::RetryExhausted {
                                    class: FaultMsgClass::Exchange,
                                    dp: to,
                                    attempts: attempt + 1,
                                });
                                node.step(NodeMsg::FloodFailed(bytes));
                                break;
                            };
                            attempt += 1;
                            recorder.emit(now(), || TraceEvent::RetryScheduled {
                                class: FaultMsgClass::Exchange,
                                dp: to,
                                attempt,
                            });
                            std::thread::sleep(Duration::from_millis(delay.as_millis()));
                        }
                    }
                }
            }
        })
        .expect("spawn peer sender")
}

/// The retry jitter of `me`'s sender toward `to`: seeded by both, so
/// every sender draws its own backoffs.
fn retry_rng(me: DpId, to: DpId) -> DetRng {
    DetRng::new(u64::from(me.0), 0x5EED ^ u64::from(to.0))
}

/// One send attempt: ensure a handshaken connection, write the frame.
/// Returns `None` on any failure (the caller backs off and retries).
fn try_send(link: &mut Option<Conn>, target: &str, me: DpId, frame: &[u8]) -> Option<()> {
    if link.is_none() {
        *link = Some(conn::dial(target, conn::hello(PeerKind::Dp, me)).ok()?.1);
    }
    link.as_mut()?.stream().write_all(frame).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_senders_toward_one_peer_draw_different_backoffs() {
        let retry = crate::config::default_retry();
        let first = |me| retry.backoff(0, &mut retry_rng(DpId(me), DpId(1)));
        assert_ne!(first(0), first(2));
    }
}
