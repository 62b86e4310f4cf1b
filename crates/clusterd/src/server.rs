//! One decision point as a TCP server: accept loop, per-connection
//! readers, and the TCP [`Transport`] under the shared node loop.
//!
//! The structure is thread-per-connection feeding one mailbox:
//!
//! * the **accept loop** takes connections and spawns a reader per
//!   connection;
//! * each **connection reader** runs the acceptor's handshake and reads
//!   frames through [`crate::conn`], posting each request to the mailbox
//!   — FIFO per connection, so a client's informs always precede the sync
//!   control frame it sends afterwards — until the connection ends with
//!   a [`CloseReason`];
//! * the **node thread** runs [`dpstore::mailbox::node_loop`], the loop
//!   `digruber::live` runs too (that module is the home of how a
//!   wall-clock runtime hosts a node), over the `Tcp` transport: query
//!   and stats replies are written inline as frames under the connection's
//!   write deadline, so a client that stops reading loses its connection
//!   instead of stalling the point; floods are cut to frame size and
//!   handed to the per-peer senders;
//! * **peer senders** (the `peer` module) own outbound flood connections
//!   and their reconnect-with-backoff lifecycle.
//!
//! Every protocol decision — what to flood, what merges, admission —
//! happens inside [`dpnode::DpNode`]; this file is transport glue, which
//! is why a socket cluster is byte-equivalent to the simulator and the
//! thread driver (`tests/sim_live_equivalence.rs` pins it).

use crate::config::ServerConfig;
use crate::conn::{self, CloseReason, Role};
use crate::peer::{self, PeerMsg, PeerSender};
use crate::proto::{self, ClusterDpStats};
use bytes::{BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Sender};
use dpstore::mailbox::{self, node_loop, Answer, NodeMsg, Transport};
use dpstore::{Blueprint, FileStore, NodeHost, SnapshotPolicy};
use gruber_types::{DispatchRecord, DpId};
use obs::Recorder;
use parking_lot::Mutex;
use simnet::codec::{encode_frame, PeerKind, MAX_FRAME_BODY};
use std::convert::Infallible;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A connection's reply handle: the write half shared between its reader
/// (which owns the read half) and the node loop (which writes replies).
type ConnWriter = Arc<Mutex<TcpStream>>;

/// The TCP transport: a reply is a frame on the requester's connection,
/// a flood is frame-sized chunks queued on the peer's sender thread
/// (`None` at this point's own index), which owns connect/backoff and
/// posts [`NodeMsg::FloodFailed`] back when it gives up.
pub(crate) struct Tcp {
    peers: Vec<Option<Sender<PeerMsg>>>,
}

impl Transport for Tcp {
    /// The request's correlation token (a query's job id, echoed into
    /// its reply; 0 for a stats request, whose reply carries none) and
    /// the connection to answer on.
    type Reply = (u32, ConnWriter);
    type Peers = Vec<(DpId, String)>;

    fn reply(&mut self, (token, conn): Self::Reply, answer: Answer) {
        let (kind, payload) = match answer {
            Answer::Free(free) => (proto::FRAME_QUERY_REPLY, proto::encode_free(token, &free)),
            Answer::Stats(stats) => (proto::FRAME_STATS_REPLY, proto::encode_stats(&stats)),
        };
        let frame = encode_frame(kind, payload.as_ref());
        let mut stream = conn.lock();
        // A missed write deadline leaves a half-written frame: end the
        // stream, and with it the connection's reader.
        if stream.write_all(frame.as_ref()).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

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

/// A running socket decision point. Dropping the handle does not stop the
/// server; call [`Server::stop`] and/or [`Server::join`].
pub struct Server {
    local_addr: SocketAddr,
    mailbox: Sender<NodeMsg<Tcp>>,
    node: Option<JoinHandle<ClusterDpStats>>,
    accept: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
    peers: Vec<Option<PeerSender>>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds, recovers from the durable store if one is configured, and
    /// spawns the accept loop, node loop and peer senders. The recorder
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
        let started = mailbox::since(epoch);
        let mut host = NodeHost::new(blueprint, store, policy, recorder.clone(), started);
        // A store that holds anything means the previous incarnation of
        // this process died: rebuild from it (a first boot restores nothing).
        mailbox::recover(&mut host, epoch, &recorder)
            .map_err(|e| std::io::Error::other(format!("recover: {e}")))?;

        let listener = TcpListener::bind(&cfg.listen)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (mail_tx, mail_rx) = unbounded::<NodeMsg<Tcp>>();

        let peers: Vec<Option<PeerSender>> = (0..cfg.n_dps)
            .map(|j| {
                if j == cfg.id.index() {
                    return None;
                }
                let (tx, rx) = unbounded::<PeerMsg>();
                let handle = peer::spawn(
                    cfg.id,
                    DpId(j as u32),
                    rx,
                    mail_tx.clone(),
                    cfg.retry,
                    recorder.clone(),
                    epoch,
                );
                Some(PeerSender { tx, handle })
            })
            .collect();
        let mut tcp = Tcp {
            peers: peers
                .iter()
                .map(|p| p.as_ref().map(|p| p.tx.clone()))
                .collect(),
        };
        tcp.set_peers(cfg.peers.clone());

        let accept = {
            let mail_tx = mail_tx.clone();
            let stop = Arc::clone(&stop);
            let me = cfg.id;
            let allow_exit = cfg.allow_process_exit;
            std::thread::Builder::new()
                .name(format!("accept-{}", me.0))
                .spawn(move || accept_loop(listener, mail_tx, stop, me, allow_exit))
                .expect("spawn accept loop")
        };

        let ticker = cfg.sync_interval.and_then(|interval| {
            let mail_tx = mail_tx.clone();
            mailbox::ticker(interval, Arc::clone(&stop), move || {
                let _ = mail_tx.send(NodeMsg::SyncTick);
            })
        });

        let node_handle = std::thread::Builder::new()
            .name(format!("node-{}", cfg.id.0))
            .spawn(move || node_loop(&mut host, &mail_rx, &mut tcp, &recorder, epoch))
            .expect("spawn node loop");

        Ok(Server {
            local_addr,
            mailbox: mail_tx,
            node: Some(node_handle),
            accept: Some(accept),
            ticker,
            peers,
            stop,
        })
    }

    /// The actually-bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests a clean shutdown (same as a `shutdown` control frame).
    pub fn stop(&self) {
        let _ = self.mailbox.send(NodeMsg::Shutdown);
    }

    /// Blocks until the node loop exits (a `shutdown` control frame or
    /// [`Server::stop`]), tears the transport down, and returns the
    /// point's final statistics.
    pub fn join(mut self) -> ClusterDpStats {
        let stats = self
            .node
            .take()
            .expect("join called once")
            .join()
            .expect("node loop must not panic");
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        for p in self.peers.drain(..).flatten() {
            let _ = p.tx.send(PeerMsg::Shutdown);
            let _ = p.handle.join();
        }
        stats
    }
}

/// Accepts connections and spawns a detached reader per connection.
/// Readers exit when their connection closes; they are not joined.
fn accept_loop(
    listener: TcpListener,
    mailbox: Sender<NodeMsg<Tcp>>,
    stop: Arc<AtomicBool>,
    me: DpId,
    allow_exit: bool,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let mailbox = mailbox.clone();
        let _ = std::thread::Builder::new()
            .name(format!("conn-{}", me.0))
            .spawn(move || serve_conn(stream, mailbox, me, allow_exit));
    }
}

/// One accepted connection: the acceptor's handshake, then each frame
/// the far end sends handed to the mailbox in arrival order. It ends only
/// when the connection does, with the reason why.
fn serve_conn(
    stream: TcpStream,
    mailbox: Sender<NodeMsg<Tcp>>,
    me: DpId,
    allow_exit: bool,
) -> Result<Infallible, CloseReason> {
    let (theirs, mut link) = conn::open(stream, conn::hello(PeerKind::Dp, me), Role::Acceptor)?;
    let writer: ConnWriter = Arc::new(Mutex::new(link.stream().try_clone()?));
    loop {
        let Some(frame) = link.next(None)? else {
            continue;
        };
        match conn::request(theirs.kind, frame, |token| (token, Arc::clone(&writer))) {
            // A hard crash: no trace flush, no WAL fsync beyond what
            // already happened, no goodbye. The respawned process proves
            // recovery works.
            Ok(NodeMsg::Crash) if allow_exit => std::process::exit(9),
            Ok(msg) => {
                let _ = mailbox.send(msg);
            }
            Err(CloseReason::Shutdown) => {
                let _ = mailbox.send(NodeMsg::Shutdown);
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
