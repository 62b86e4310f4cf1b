//! How a wall-clock runtime hosts a node: one [`Point::step`], a
//! [`Transport`] for what leaves.
//!
//! desim and trace replay call [`NodeHost::handle`] from their own event
//! loops because they own the clock. The thread runtime
//! (`digruber::live`) and the socket runtime (`clusterd`) do not: they
//! stamp every message with the wall clock and hand it to
//! [`Point::step`], the same code in both. The runtimes differ only in
//! who steps and in the [`Transport`] the step writes to. A thread
//! point is a thread that blocks on a crossbeam mailbox ([`node_loop`]),
//! filled by client calls and peer threads; a socket point is a
//! [`Point`] behind one lock, stepped by each connection's reader, the
//! ticker and the peer senders on their own threads.
//!
//! **Ordering.** Stepping is the only code touching the [`NodeHost`], so
//! the mailbox's order, or the lock's order on sockets, is the order of
//! every state change. Either is FIFO per sender and nothing more: one
//! client's informs precede the [`NodeMsg::SyncTick`] it sends
//! afterwards, one peer's floods arrive in the order they were sent, and
//! messages of different senders interleave freely — the asynchrony the
//! paper's deployment had. A step's reply is handed to the transport
//! before the next message is stepped.
//!
//! **What a transport provides** is the outbound half only: answer the
//! requester, hand one flood to one peer, replace the peer table, and say
//! how wide the mesh is. Delivery is its business — the socket transport
//! splits a flood into frames and owns connect/backoff — and a flood it
//! gives up on comes back as a [`NodeMsg::FloodFailed`] step, so the
//! records ride the next round instead of being lost. *Receive is not in
//! the trait*: whoever holds the point steps it.
//!
//! The same reasoning makes the sync [`ticker`] and the closed-loop
//! client ([`drive_workload`]) live here: a load generator that differs
//! per deployment measures the generator.

use crate::{NodeHost, Routed, Store, WireInput};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use dpnode::{FloodPayload, Input};
use gruber::{DispatchRecord, LeastUsedSelector, SiteSelector};
use gruber_types::{
    ClientId, DpId, GridError, GroupId, JobId, JobSpec, SimDuration, SimTime, SiteId, UserId, VoId,
};
use obs::{Recorder, TraceEvent};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The outbound half of a mailbox runtime.
pub trait Transport {
    /// Where an answer goes: a channel sender, or a connection's write
    /// half plus the request's correlation token.
    type Reply;
    /// The peer table [`NodeMsg::Peers`] installs.
    type Peers;

    /// Delivers `answer` to the requester. Best effort: a requester that
    /// went away is not an error.
    fn reply(&mut self, to: Self::Reply, answer: Answer);

    /// Hands one flood's wire bytes ([`simnet::codec::encode_deltas`]) to
    /// mesh peer `peer`.
    fn flood(&mut self, peer: usize, records: &Bytes);

    /// Replaces the peer table.
    fn set_peers(&mut self, peers: Self::Peers);

    /// Decision points in the mesh, this one included (sizes
    /// [`Input::SyncTick`]).
    fn n_dps(&self) -> usize;
}

/// What [`Transport::reply`] carries back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Believed-free CPUs per site, to [`NodeMsg::Query`].
    Free(Vec<u32>),
    /// To [`NodeMsg::Stats`].
    Stats(DpStats),
}

/// Everything a decision point's mailbox carries. These are envelopes
/// only — protocol handling lives in [`dpnode::DpNode`].
pub enum NodeMsg<T: Transport> {
    /// Availability query.
    Query {
        /// Where the [`Answer::Free`] goes.
        reply: T::Reply,
    },
    /// A client's inform or a peer's flood, as the exact `simnet::codec`
    /// wire bytes.
    Wire(WireInput),
    /// Flood the pending dispatch log to the mesh.
    SyncTick,
    /// Install/replace the peer table (a peer respawned at a new
    /// address).
    Peers(T::Peers),
    /// Stats snapshot request.
    Stats {
        /// Where the [`Answer::Stats`] goes.
        reply: T::Reply,
    },
    /// The transport gave up on a flood: requeue these records into the
    /// next sync round.
    FloodFailed(Bytes),
    /// Crash the point: it drops every input until restored.
    Crash,
    /// Restart the point. Over a store, a fresh node replays snapshot +
    /// WAL; otherwise the node retains its state.
    Restore,
    /// Leave the loop.
    Shutdown,
}

/// Statistics one decision point reports: the node's own protocol
/// counters ([`dpnode::DpNodeStats`], identical across runtimes, so live
/// runs reconcile against the sim's obs timeline totals) plus the
/// durability and transport counters of its host and loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpStats {
    /// The decision point.
    pub dp: DpId,
    /// Availability queries served.
    pub queries: u64,
    /// Client informs folded into the view.
    pub informs: u64,
    /// Sync rounds that produced a flood (empty-log rounds are silent).
    pub sync_rounds: u64,
    /// Per-peer flood sends (one round to two peers counts two).
    pub floods_sent: u64,
    /// Dispatch records shipped in flood payloads.
    pub records_flooded: u64,
    /// Peer floods merged.
    pub floods_merged: u64,
    /// Peer records that were new to this point's view when merged.
    pub records_merged: u64,
    /// Incoming payloads dropped because they failed to decode.
    pub decode_failures: u64,
    /// Crash transitions observed by the node.
    pub crashes: u64,
    /// FNV-1a 64 over the wire bytes of every flood payload this point
    /// produced, in order (the cross-runtime byte-identity probe).
    pub flood_hash: u64,
    /// Restarts that recovered state from the durable store.
    pub recoveries: u64,
    /// WAL records replayed across those recoveries.
    pub wal_records_replayed: u64,
    /// Floods the transport gave up on, requeued into the next round.
    pub flood_requeues: u64,
}

/// Wall-clock milliseconds since `epoch`, as the runtime's [`SimTime`].
pub fn since(epoch: Instant) -> SimTime {
    SimTime(epoch.elapsed().as_millis() as u64)
}

/// Restores `host` from its store and brings it back up, tracing the
/// recovery with its actual replay time. A first boot (up, empty store)
/// restores and traces nothing.
pub fn recover<S: Store>(
    host: &mut NodeHost<S>,
    epoch: Instant,
    recorder: &Recorder,
) -> Result<(), GridError> {
    let start = Instant::now();
    let restored = host.restore(since(epoch))?;
    if host.rejoin() {
        let (dp, at) = (host.node().id(), since(epoch));
        recorder.emit(at, || TraceEvent::DpRecovered { dp });
        recorder.emit(at, || TraceEvent::RecoveryReplayed {
            dp,
            records: restored.records,
            dur_ms: start.elapsed().as_millis() as u32,
        });
    }
    Ok(())
}

/// One decision point as a wall-clock runtime hosts it: the host, the
/// transport its effects leave by, and what stepping keeps between
/// messages.
pub struct Point<S: Store, T: Transport> {
    /// The node and its durability.
    pub host: NodeHost<S>,
    /// Where replies and floods go.
    pub transport: T,
    fx: Vec<Routed>,
    flood_requeues: u64,
    recorder: Recorder,
    epoch: Instant,
}

impl<S: Store, T: Transport> Point<S, T> {
    /// A point stamping its inputs with wall-clock time since `epoch`.
    pub fn new(host: NodeHost<S>, transport: T, recorder: Recorder, epoch: Instant) -> Self {
        Point {
            host,
            transport,
            fx: Vec::new(),
            flood_requeues: 0,
            recorder,
            epoch,
        }
    }

    /// Turns one message into a [`NodeHost`] input and routes what the
    /// step leaves over to the transport; `false` once the message was
    /// [`NodeMsg::Shutdown`]. The one interpreter of [`NodeMsg`] and
    /// [`Routed`]: any protocol change made in [`dpnode::DpNode`] — and any
    /// durability change made in the host — is picked up here, and so by
    /// both runtimes, with no code change.
    pub fn step(&mut self, msg: NodeMsg<T>) -> bool {
        let (at, id) = (since(self.epoch), self.host.node().id());
        let (input, mut reply) = match msg {
            NodeMsg::Query { reply } => (Input::QueryArrived { admission: None }, Some(reply)),
            NodeMsg::Wire(wire) => match wire.decode() {
                Some(input) => (input, None),
                None => return true, // malformed inform: dropped whole
            },
            NodeMsg::SyncTick => {
                let n_dps = self.transport.n_dps();
                (Input::SyncTick { n_dps }, None)
            }
            NodeMsg::Peers(peers) => {
                self.transport.set_peers(peers);
                return true;
            }
            NodeMsg::Stats { reply } => {
                self.transport.reply(reply, Answer::Stats(self.stats()));
                return true;
            }
            NodeMsg::FloodFailed(bytes) => {
                self.host.node_mut().requeue(&FloodPayload::from_wire(bytes));
                self.flood_requeues += 1;
                return true;
            }
            NodeMsg::Crash => {
                self.host.crash();
                self.recorder.emit(at, || TraceEvent::DpFailed { dp: id });
                return true;
            }
            NodeMsg::Restore => {
                recover(&mut self.host, self.epoch, &self.recorder)
                    .expect("a store's own snapshot must decode");
                return true;
            }
            NodeMsg::Shutdown => return false,
        };
        let recorder = &self.recorder;
        self.host.handle(at, input, &mut self.fx, |_cost, event| {
            recorder.emit(at, || event)
        });
        for effect in self.fx.drain(..) {
            match effect {
                Routed::Reply { free, .. } => {
                    if let Some(to) = reply.take() {
                        self.transport.reply(to, Answer::Free(free));
                    }
                }
                Routed::FloodTo { peers, payload } => {
                    for j in peers {
                        recorder.emit(at, || TraceEvent::ExchangeSent {
                            from: id,
                            to: DpId(j as u32),
                            records: payload.n_records,
                        });
                        self.transport.flood(j, &payload.records);
                    }
                }
            }
        }
        true
    }

    /// The point's statistics so far.
    pub fn stats(&self) -> DpStats {
        let (host, s) = (&self.host, self.host.node().stats());
        DpStats {
            dp: host.node().id(),
            queries: s.queries,
            informs: s.informs,
            sync_rounds: s.sync_rounds,
            floods_sent: s.floods_sent,
            records_flooded: s.records_flooded,
            floods_merged: s.floods_merged,
            records_merged: s.records_merged,
            decode_failures: s.decode_failures,
            crashes: s.crashes,
            flood_hash: s.flood_hash,
            recoveries: host.recoveries(),
            wal_records_replayed: host.wal_records_replayed(),
            flood_requeues: self.flood_requeues,
        }
    }
}

/// The decision-point thread's body: steps `point` with each message off
/// `mailbox` until [`NodeMsg::Shutdown`] (or every sender is gone), then
/// returns its final statistics.
pub fn node_loop<S: Store, T: Transport>(
    point: &mut Point<S, T>,
    mailbox: &Receiver<NodeMsg<T>>,
) -> DpStats {
    while mailbox.recv().is_ok_and(|msg| point.step(msg)) {}
    point.stats()
}

/// Spawns the thread that stands in for each container's periodic sync
/// task: it calls `tick` every `interval` until `stop` is set, sleeping
/// at most 10 ms at a time so a stop is noticed promptly. Ticks keep to
/// deadlines `interval` apart from the start, so neither a late wake-up
/// nor the time spent in `tick` delays the ones after it; a tick missed
/// outright is skipped, not fired in a burst. A zero interval means no
/// ticker (`None`), not a busy loop.
pub fn ticker(
    interval: Duration,
    stop: Arc<AtomicBool>,
    mut tick: impl FnMut() + Send + 'static,
) -> Option<JoinHandle<()>> {
    if interval.is_zero() {
        return None;
    }
    let body = move || {
        let poll = Duration::from_millis(10);
        // `None`: the next deadline is past `Instant`'s range, never due.
        let mut next = Instant::now().checked_add(interval);
        while !stop.load(Ordering::Relaxed) {
            let now = Instant::now();
            let Some(due) = next.filter(|&at| at <= now) else {
                std::thread::sleep(next.map_or(poll, |at| (at - now).min(poll)));
                continue;
            };
            tick();
            let now = Instant::now();
            next = due.checked_add(interval);
            while let Some(missed) = next.filter(|&at| at <= now) {
                next = missed.checked_add(interval);
            }
        }
    };
    let spawned = std::thread::Builder::new()
        .name("sync-ticker".into())
        .spawn(body);
    Some(spawned.expect("spawn ticker"))
}

/// Statistics from [`drive_workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Jobs placed via decision-point answers.
    pub placed_via_broker: u64,
    /// Jobs placed randomly after a client-side timeout.
    pub placed_randomly: u64,
    /// Placements a site rejected.
    pub rejected: u64,
}

/// Drives a closed-loop workload from `n_threads` concurrent client
/// threads, dispatching every job into the shared ground-truth grid — the
/// whole brokering stack (views, wire codec, selectors, grid bookkeeping)
/// under real parallelism, over whatever runtime `query` and `inform`
/// reach.
///
/// Each thread behaves like a paper client: query its bound decision
/// point (static binding, thread `t` to point `t % n_dps`), select a site
/// over the response, dispatch in ground truth, inform the point. When
/// `query` returns `None` (timeout) it places the job at random. Thread
/// `t`'s `k`-th job has id `job_offset + t * jobs_per_thread + k`; times
/// are wall-clock since the call.
#[allow(clippy::too_many_arguments)]
pub fn drive_workload(
    grid: &Mutex<gridemu::Grid>,
    n_threads: u32,
    n_dps: u32,
    jobs_per_thread: u32,
    job_offset: u32,
    seed: u64,
    query: impl Fn(DpId) -> Option<Vec<u32>> + Sync,
    inform: impl Fn(DpId, DispatchRecord) + Sync,
) -> RunStats {
    let epoch = Instant::now();
    let client = |t: u32| {
        let dp = DpId(t % n_dps);
        let mut selector = LeastUsedSelector::new(seed, u64::from(t));
        let mut rng = desim::DetRng::new(seed, 0x11FE ^ u64::from(t));
        let mut local = RunStats::default();
        for k in 0..jobs_per_thread {
            let now = since(epoch);
            let job = JobSpec {
                id: JobId(job_offset + t * jobs_per_thread + k),
                vo: VoId(t % 2),
                group: GroupId(0),
                user: UserId(t),
                client: ClientId(t),
                cpus: 1,
                storage_mb: 0,
                runtime: SimDuration::from_secs(3600),
                submitted_at: now,
            };
            let (site, handled) = match query(dp) {
                Some(free) => {
                    let site = selector.select(&free, &job, now);
                    (site.expect("non-empty grid"), true)
                }
                None => {
                    let n = grid.lock().n_sites();
                    (SiteId::from_index(rng.index(n)), false)
                }
            };
            let record = DispatchRecord {
                job: job.id,
                site,
                vo: job.vo,
                group: job.group,
                cpus: job.cpus,
                dispatched_at: now,
                est_finish: now + job.runtime,
            };
            let dispatched = {
                let mut g = grid.lock();
                g.submit(job).expect("unique ids");
                g.dispatch(record.job, site, now, handled).is_ok()
            };
            if !dispatched {
                local.rejected += 1;
            } else if handled {
                local.placed_via_broker += 1;
                inform(dp, record);
            } else {
                local.placed_randomly += 1;
            }
        }
        local
    };
    std::thread::scope(|scope| {
        let client = &client;
        let threads: Vec<_> = (0..n_threads)
            .map(|t| scope.spawn(move || client(t)))
            .collect();
        threads
            .into_iter()
            .fold(RunStats::default(), |acc, thread| {
                let local = thread.join().expect("client thread panicked");
                RunStats {
                    placed_via_broker: acc.placed_via_broker + local.placed_via_broker,
                    placed_randomly: acc.placed_randomly + local.placed_randomly,
                    rejected: acc.rejected + local.rejected,
                }
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Duration::ZERO` used to make the step zero too: a thread posting
    /// ticks back-to-back into an unbounded mailbox.
    #[test]
    fn zero_interval_spawns_no_ticker() {
        let stop = Arc::new(AtomicBool::new(false));
        let spawned = ticker(Duration::ZERO, stop, || {
            panic!("a zero interval must never tick")
        });
        assert!(spawned.is_none());
    }

    /// The ticker used to add a fixed step per sleep, so every oversleep
    /// and the whole of each `tick` pushed the later ticks back: about 11
    /// ticks here where the deadlines allow about 20.
    #[test]
    fn ticks_keep_to_their_deadlines() {
        let stop = Arc::new(AtomicBool::new(false));
        let ticks = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let counted = Arc::clone(&ticks);
        let spawned = ticker(Duration::from_millis(20), Arc::clone(&stop), move || {
            counted.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(15));
        });
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        spawned.expect("a ticker").join().expect("ticker thread");
        let n = ticks.load(Ordering::Relaxed);
        assert!(n >= 15, "{n} ticks in 400 ms at a 20 ms interval");
    }
}
