//! One decision point as a TCP server: accept loop, per-connection
//! readers, and the TCP [`Transport`] of a [`SharedPoint`].
//!
//! There is no node thread and no mailbox. The point is a
//! [`dpstore::SharedPoint`] — the host `digruber::live` uses
//! too (that module is the home of how a wall-clock runtime hosts a
//! node) — and every source of input steps it on its own thread:
//!
//! * the **accept loop** takes connections and spawns a reader per
//!   connection;
//! * each **connection reader** runs the acceptor's handshake, reads
//!   frames through [`crate::conn`] and steps each request before it
//!   reads the next, until the connection ends with a [`CloseReason`]. A
//!   client's informs therefore precede the sync control frame it sends
//!   afterwards, and a client that sends faster than the point answers
//!   is held back by TCP. A query or stats step returns its answer; the
//!   reader encodes it with the request's token and writes it after the
//!   lock is released, under the connection's write deadline, so a client
//!   that stops reading holds only its own reader and then loses its
//!   connection;
//! * the **ticker** steps each sync round; floods are cut to frame size
//!   and queued to the per-peer senders without blocking;
//! * **peer senders** (the `peer` module) own outbound flood connections
//!   and their reconnect-with-backoff lifecycle, and step a flood they
//!   give up on back in.
//!
//! The lock's order is the order of every state change. A shutdown (a
//! `SHUTDOWN` frame or [`Server::stop`]) ends the point: every later step
//! is refused. A step that panics ends it too: every later step is
//! refused, and [`Server::join`] panics instead of waiting.
//!
//! Every protocol decision — what to flood, what merges, admission —
//! happens inside [`dpnode::DpNode`]; this file is transport glue, which
//! is why a socket cluster is byte-equivalent to the simulator and the
//! thread driver (`tests/sim_live_equivalence.rs` pins it).

use crate::config::ServerConfig;
use crate::conn::{self, CloseReason, Role};
use crate::peer::{self, PeerMsg};
use crate::proto::{self, ClusterDpStats};
use bytes::{BufMut, Bytes, BytesMut};
use dpstore::{
    Answer, Blueprint, FileStore, NodeHost, NodeMsg, Point, SharedPoint, SnapshotPolicy, Transport,
};
use gruber_types::{DispatchRecord, DpId};
use obs::Recorder;
use simnet::codec::{encode_frame, PeerKind, MAX_FRAME_BODY};
use std::convert::Infallible;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The TCP transport: a flood is frame-sized chunks queued on the peer's
/// sender thread (`None` at this point's own index), which owns
/// connect/backoff and steps [`NodeMsg::FloodFailed`] when it gives up.
pub(crate) struct Tcp {
    peers: Vec<Option<Sender<PeerMsg>>>,
}

impl Transport for Tcp {
    type Peers = Vec<(DpId, String)>;

    fn flood(&mut self, peer: usize, records: &Bytes) {
        if let Some(Some(tx)) = self.peers.get(peer) {
            for chunk in frame_sized(records) {
                let _ = tx.send(PeerMsg::Send(chunk));
            }
        }
    }

    fn set_peers(&mut self, peers: Self::Peers) {
        for (dp, addr) in peers {
            if let Some(Some(tx)) = self.peers.get(dp.index()) {
                let _ = tx.send(PeerMsg::SetAddr(addr));
            }
        }
    }

    fn n_dps(&self) -> usize {
        self.peers.len()
    }
}

/// The point every source of input steps.
pub(crate) type Node = SharedPoint<FileStore, Tcp>;

/// The frame that carries `answer` back to a client: a query's reply
/// echoes the request's `token` (its job id); a stats reply carries none.
fn reply_frame(token: u32, answer: Answer) -> Bytes {
    match answer {
        Answer::Free(free) => proto::encode_free_frame(token, &free),
        Answer::Stats(stats) => encode_frame(
            proto::FRAME_STATS_REPLY,
            proto::encode_stats(&stats).as_ref(),
        ),
    }
}

/// A running socket decision point. Dropping the handle does not stop the
/// server; call [`Server::stop`] and/or [`Server::join`].
pub struct Server {
    local_addr: SocketAddr,
    node: Arc<Node>,
    /// The peer senders, the accept loop and the ticker.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers from the durable store if one is configured, and
    /// spawns the accept loop, the ticker and peer senders. The recorder
    /// receives both driver-level events (exchanges, WAL appends,
    /// recoveries, retries) and the node's own engine events.
    pub fn start(cfg: ServerConfig, recorder: Recorder) -> std::io::Result<Server> {
        let epoch = Instant::now();

        // Open the store and recover *before* accepting traffic: a
        // recovering point must not answer queries from an empty view it
        // is about to replace.
        let store = cfg.data_dir.as_deref().map(FileStore::open).transpose()?;
        let (sites, uslas) = (cfg.sites.clone().into(), Arc::new(cfg.uslas.clone()));
        let blueprint = Blueprint::paper_mesh(cfg.id, sites, uslas, store.is_some());
        let policy = SnapshotPolicy::records(cfg.snapshot_records);
        let started = dpstore::since(epoch);
        let mut host = NodeHost::new(blueprint, store, policy, recorder.clone(), started);
        // A store that holds anything means the previous incarnation of
        // this process died: rebuild from it (a first boot restores nothing).
        dpstore::recover(&mut host, started, || dpstore::since(epoch), &recorder)
            .map_err(|e| std::io::Error::other(format!("recover: {e}")))?;

        let listener = TcpListener::bind(&cfg.listen)?;
        let local_addr = listener.local_addr()?;
        let queues: Vec<_> = (0..cfg.n_dps)
            .map(|j| (j != cfg.id.index()).then(channel::<PeerMsg>))
            .collect();
        let peers = queues.iter().map(|q| q.as_ref().map(|(tx, _)| tx.clone()));
        let mut tcp = Tcp {
            peers: peers.collect(),
        };
        tcp.set_peers(cfg.peers.clone());
        let node = Arc::new(Node::new(Point::new(host, tcp, recorder.clone()), epoch));

        let mut threads: Vec<_> = (queues.into_iter().enumerate())
            .filter_map(|(j, queue)| {
                let (to, rx, node) = (DpId(j as u32), queue?.1, Arc::clone(&node));
                let recorder = recorder.clone();
                Some(peer::spawn(
                    cfg.id, to, rx, node, cfg.retry, recorder, epoch,
                ))
            })
            .collect();

        let (me, allow_exit, accepting) = (cfg.id, cfg.allow_process_exit, Arc::clone(&node));
        let accept = std::thread::Builder::new()
            .name(format!("accept-{}", me.0))
            .spawn(move || accept_loop(listener, accepting, me, allow_exit));
        threads.push(accept.expect("spawn accept loop"));

        threads.extend(cfg.sync_interval.and_then(|interval| {
            let node = Arc::clone(&node);
            dpstore::ticker(interval, Arc::clone(&node.stop), move || {
                node.step(NodeMsg::SyncTick);
            })
        }));

        Ok(Server {
            local_addr,
            node,
            threads,
        })
    }

    /// The actually-bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests a clean shutdown (same as a `shutdown` control frame).
    pub fn stop(&self) {
        self.node.shutdown();
    }

    /// Blocks until the point has ended (a `shutdown` control frame or
    /// [`Server::stop`]), joins the accept loop, the ticker and
    /// the peer senders, and returns the point's final statistics. Panics
    /// if a step panicked.
    pub fn join(self) -> ClusterDpStats {
        let stats = self.node.join().expect("a step panicked");
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        for thread in self.threads {
            let _ = thread.join();
        }
        stats
    }
}

/// Accepts connections and spawns a detached reader per connection.
/// Readers exit when their connection closes; they are not joined.
fn accept_loop(listener: TcpListener, node: Arc<Node>, me: DpId, allow_exit: bool) {
    for stream in listener.incoming() {
        if node.stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let node = Arc::clone(&node);
        let _ = std::thread::Builder::new()
            .name(format!("conn-{}", me.0))
            .spawn(move || serve_conn(stream, node, me, allow_exit));
    }
}

/// One accepted connection: the acceptor's handshake, then each frame
/// the far end sends stepped in arrival order, its reply written before
/// the next frame is read. It ends only when the connection does, with
/// the reason why.
fn serve_conn(
    stream: TcpStream,
    node: Arc<Node>,
    me: DpId,
    allow_exit: bool,
) -> Result<Infallible, CloseReason> {
    let (theirs, mut link) = conn::open(stream, conn::hello(PeerKind::Dp, me), Role::Acceptor)?;
    loop {
        let Some(frame) = link.next(None)? else {
            continue;
        };
        match conn::request(theirs.kind, frame) {
            // A hard crash: no trace flush, no WAL fsync beyond what
            // already happened, no goodbye. The respawned process proves
            // recovery works.
            Ok((NodeMsg::Crash, _)) if allow_exit => std::process::exit(9),
            Ok((msg, token)) => {
                if let Some(answer) = node.step(msg) {
                    // A missed write deadline leaves a half-written
                    // frame: the connection ends.
                    link.stream().write_all(reply_frame(token, answer).as_ref())?;
                }
            }
            Err(CloseReason::Shutdown) => {
                node.shutdown();
                return Err(CloseReason::Shutdown);
            }
            Err(reason) => return Err(reason),
        }
    }
}

/// Most records one `RECORDS` frame carries: its body is the kind byte,
/// the `u32` count and the records.
const MAX_RECORDS_PER_FRAME: usize = (MAX_FRAME_BODY - 1 - 4) / DispatchRecord::WIRE_LEN;

/// Splits a flood's wire bytes (`[u32 count][36-byte records]`) at record
/// boundaries into payloads that each fit one frame — a slice behind a new
/// count, no re-decode. A receiver's [`simnet::codec::FrameBuf`] rejects a larger frame
/// and the sender would requeue the whole payload forever; split, each
/// chunk is sent, retried and requeued on its own. The node hashed the
/// payload before the split, so flood hashes do not see it.
fn frame_sized(records: &Bytes) -> Vec<Bytes> {
    let body = records.as_ref().get(4..).unwrap_or_default();
    if body.len() <= MAX_RECORDS_PER_FRAME * DispatchRecord::WIRE_LEN {
        return vec![records.clone()];
    }
    body.chunks(MAX_RECORDS_PER_FRAME * DispatchRecord::WIRE_LEN)
        .map(|chunk| {
            let mut buf = BytesMut::with_capacity(4 + chunk.len());
            buf.put_u32_le((chunk.len() / DispatchRecord::WIRE_LEN) as u32);
            buf.put_slice(chunk);
            buf.freeze()
        })
        .collect()
}
