//! How every runtime without a WAN model hosts a node: a [`Point`]
//! stepped with [`NodeMsg`]s and a [`Transport`] for what leaves; on a
//! wall clock, that point behind one lock ([`SharedPoint`]), stepped on
//! whatever thread holds an input.
//!
//! desim is the one runtime that calls [`NodeHost::handle`] from its own
//! event loop: its transport is the WAN model (latency, loss, partitions,
//! retries) and its restart a modeled delay, both inside its event
//! queue. The other three step a [`Point`]. GRUB-SIM's trace replay
//! (`grubsim::protocol`) steps one per decision point at each event's
//! time and hands the floods on itself. The thread runtime
//! (`digruber::live`) and the socket runtime (`clusterd`) step it through
//! [`SharedPoint::step`] — the same host, lock and [`Point::step`] in
//! both. There is no point thread and no mailbox: a thread-runtime client
//! steps the point on its own thread, as does a socket connection's
//! reader, and so do the ticker and (on sockets) the peer senders. The
//! runtimes differ only in their clock and the [`Transport`] the step
//! writes floods to.
//!
//! **Ordering.** Stepping is the only code touching the [`NodeHost`], so
//! the lock's order is the order of every state change. It is FIFO per
//! sender and nothing more: one client's informs precede the
//! [`NodeMsg::SyncTick`] it sends afterwards, one peer's floods are
//! merged in the order they were sent (the transport's business: a
//! per-peer queue drained in order), and messages of different senders
//! interleave freely — the asynchrony the paper's deployment had. A
//! step's [`Answer`] is returned to the thread that stepped it, which
//! writes or hands it on after the lock is released.
//!
//! **Ending.** [`SharedPoint::shutdown`] ends a point and keeps its final
//! statistics. A step that panics ends it too, with none: a half-stepped
//! host serves nobody. Either way every later step is refused, the
//! threads feeding the point see [`SharedPoint::stop`], and
//! [`SharedPoint::join`] wakes.
//!
//! **Time.** A [`Point`] owns no clock: its caller hands each step one,
//! which the step reads once (a restore once more, after its replay).
//! A [`SharedPoint`] reads the wall clock since its epoch, under the lock,
//! so the [`SimTime`] the node sees never goes backwards in lock order.
//! Taking the lock reads no clock: [`SharedPoint::with_waited`] tries it
//! first and reads the wall clock only when it has to block, and returns
//! that reading. A caller that times its own wait — `digruber::live`'s
//! query timeout — passes a clock that keeps the step's reading and
//! counts from the one to the other: the wait for the lock, but not the
//! node's own sub-µs work after the reading. A call that found the lock
//! free waited for nothing.
//!
//! **What a transport provides** is the outbound half only: hand one flood
//! to one peer, replace the peer table, and say how wide the mesh is.
//! Delivery is its business — the socket transport splits a flood into
//! frames and owns connect/backoff — and a flood it gives up on comes back
//! as a [`NodeMsg::FloodFailed`] step, so the records ride the next round
//! instead of being lost. *Receive is not in the trait*: whoever holds an
//! input steps the point.
//!
//! The same reasoning makes the sync [`ticker`] and the closed-loop
//! client ([`drive_workload`]) live here: a load generator that differs
//! per deployment measures the generator.

use crate::{NodeHost, Routed, Store, WireInput};
use bytes::Bytes;
use dpnode::{FloodPayload, Input};
use gruber::{DispatchRecord, LeastUsedSelector, SiteSelector};
use gruber_types::{
    ClientId, DpId, GridError, GroupId, JobId, JobSpec, SimDuration, SimTime, SiteId, UserId, VoId,
};
use obs::{Recorder, TraceEvent};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The outbound half of a runtime that steps a [`Point`].
pub trait Transport {
    /// The peer table [`NodeMsg::Peers`] installs.
    type Peers;

    /// Hands one flood's wire bytes ([`simnet::codec::encode_deltas`]) to
    /// mesh peer `peer`. Called under the point's lock, so it must not
    /// block on another point.
    fn flood(&mut self, peer: usize, records: &Bytes);

    /// Replaces the peer table.
    fn set_peers(&mut self, peers: Self::Peers);

    /// Decision points in the mesh, this one included (sizes
    /// [`Input::SyncTick`]).
    fn n_dps(&self) -> usize;
}

/// What a step answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Believed-free CPUs per site, to an [`Input::QueryArrived`].
    Free(Vec<u32>),
    /// To [`NodeMsg::Stats`].
    Stats(DpStats),
}

/// Every input a [`Point`] is stepped with. These are envelopes
/// only — protocol handling lives in [`dpnode::DpNode`].
pub enum NodeMsg<T: Transport> {
    /// A typed protocol input. An [`Input::QueryArrived`] is answered
    /// with [`Answer::Free`] (nothing while the point is crashed); a
    /// driver that holds its records typed (trace replay) steps its
    /// informs this way, and never encodes them.
    Input(Input),
    /// A client's inform or a peer's flood, as the exact `simnet::codec`
    /// wire bytes.
    Wire(WireInput),
    /// Flood the pending dispatch log to the mesh.
    SyncTick,
    /// Install/replace the peer table (a peer respawned at a new
    /// address).
    Peers(T::Peers),
    /// Stats snapshot request, answered with [`Answer::Stats`].
    Stats,
    /// The transport gave up on a flood: requeue these records into the
    /// next sync round.
    FloodFailed(Bytes),
    /// Crash the point: it drops every input until restored.
    Crash,
    /// Restart the point. Over a store, a fresh node replays snapshot +
    /// WAL; otherwise the node retains its state.
    Restore,
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

/// Restores `host` from its store at `at` and brings it back up, tracing
/// the recovery at `now()` read after the replay, with the replay's time
/// (`now() - at`). A first boot (up, empty store) restores and traces
/// nothing.
pub fn recover<S: Store>(
    host: &mut NodeHost<S>,
    at: SimTime,
    now: impl FnOnce() -> SimTime,
    recorder: &Recorder,
) -> Result<(), GridError> {
    let restored = host.restore(at)?;
    if host.rejoin() {
        let (dp, done) = (host.node().id(), now());
        recorder.emit(done, || TraceEvent::DpRecovered { dp });
        recorder.emit(done, || TraceEvent::RecoveryReplayed {
            dp,
            records: restored.records,
            dur_ms: done.since(at).as_millis() as u32,
        });
    }
    Ok(())
}

/// One decision point as a runtime without a WAN model steps it: the
/// host, the transport its floods leave by, and what stepping keeps
/// between messages. It owns no clock: each step is handed one.
pub struct Point<S: Store, T: Transport> {
    /// The node and its durability.
    pub host: NodeHost<S>,
    /// Where floods go.
    pub transport: T,
    fx: Vec<Routed>,
    flood_requeues: u64,
    recorder: Recorder,
}

impl<S: Store, T: Transport> Point<S, T> {
    /// A point whose steps trace into `recorder`.
    pub fn new(host: NodeHost<S>, transport: T, recorder: Recorder) -> Self {
        Point {
            host,
            transport,
            fx: Vec::new(),
            flood_requeues: 0,
            recorder,
        }
    }

    /// Turns one message into a [`NodeHost`] input, routes the floods the
    /// step leaves to the transport and returns its answer, if any. The
    /// one interpreter of [`NodeMsg`], and of [`Routed`] for every runtime
    /// without a WAN model: any protocol change made in
    /// [`dpnode::DpNode`] — and any durability change made in the host —
    /// is picked up here, and so by threads, sockets and trace replay,
    /// with no code change.
    ///
    /// The step reads `now` once, before anything else, and a restore
    /// reads it once more after its replay: a trace replay passes its
    /// event time (`|| at`, a replay in zero time), a wall-clock runtime
    /// the clock since its epoch.
    pub fn step(&mut self, mut now: impl FnMut() -> SimTime, msg: NodeMsg<T>) -> Option<Answer> {
        let at = now();
        let id = self.host.node().id();
        let input = match msg {
            NodeMsg::Input(input) => input,
            // `None`: a malformed inform, dropped whole.
            NodeMsg::Wire(wire) => wire.decode()?,
            NodeMsg::SyncTick => Input::SyncTick {
                n_dps: self.transport.n_dps(),
            },
            NodeMsg::Peers(peers) => {
                self.transport.set_peers(peers);
                return None;
            }
            NodeMsg::Stats => return Some(Answer::Stats(self.stats())),
            NodeMsg::FloodFailed(bytes) => {
                self.host.node_mut().requeue(&FloodPayload::from_wire(bytes));
                self.flood_requeues += 1;
                return None;
            }
            NodeMsg::Crash => {
                self.host.crash();
                self.recorder.emit(at, || TraceEvent::DpFailed { dp: id });
                return None;
            }
            NodeMsg::Restore => {
                recover(&mut self.host, at, now, &self.recorder)
                    .expect("a store's own snapshot must decode");
                return None;
            }
        };
        let recorder = &self.recorder;
        self.host.handle(at, input, &mut self.fx, |_cost, event| {
            recorder.emit(at, || event)
        });
        let mut answer = None;
        for effect in self.fx.drain(..) {
            match effect {
                Routed::Reply { free, .. } => answer = Some(Answer::Free(free)),
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
        answer
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

/// A [`Point`] behind one lock: the one way both wall-clock runtimes host
/// a decision point. Every thread that holds an input steps it.
pub struct SharedPoint<S: Store, T: Transport> {
    /// `Err` once the point has ended: its final statistics after
    /// [`SharedPoint::shutdown`], `None` after a step panicked.
    point: Mutex<Result<Point<S, T>, Option<DpStats>>>,
    /// Notified when the point ends.
    ended: Condvar,
    /// Set when the point ends: the threads feeding it stop.
    pub stop: Arc<AtomicBool>,
    /// What [`SharedPoint::step`]'s clock counts from.
    epoch: Instant,
}

impl<S: Store, T: Transport> SharedPoint<S, T> {
    /// Puts `point` behind its lock, stepped with wall-clock time since
    /// `epoch`.
    pub fn new(point: Point<S, T>, epoch: Instant) -> Self {
        SharedPoint {
            point: Mutex::new(Ok(point)),
            ended: Condvar::new(),
            stop: Arc::new(AtomicBool::new(false)),
            epoch,
        }
    }

    /// Runs `f` on the point under its lock; `None` once the point has
    /// ended. A panic in `f` ends the point, and this call returns `None`.
    pub fn with<R>(&self, f: impl FnOnce(&mut Point<S, T>) -> R) -> Option<R> {
        self.with_waited(f).map(|(done, _)| done)
    }

    /// [`SharedPoint::with`], and when the call had to wait for the lock,
    /// the wall-clock reading it began waiting at. The lock is tried
    /// first, so a call that finds it free reads no clock.
    pub fn with_waited<R>(
        &self,
        f: impl FnOnce(&mut Point<S, T>) -> R,
    ) -> Option<(R, Option<Instant>)> {
        // The lock poisons only if `stats` or a drop panicked while ending
        // the point: it has ended either way.
        let (mut slot, waited) = match self.point.try_lock() {
            Ok(slot) => (slot, None),
            Err(TryLockError::WouldBlock) => {
                let from = Instant::now();
                (self.point.lock().ok()?, Some(from))
            }
            Err(TryLockError::Poisoned(_)) => return None,
        };
        let point = slot.as_mut().ok()?;
        let done = catch_unwind(AssertUnwindSafe(|| f(point)));
        if done.is_err() {
            self.end(&mut slot, None);
        }
        Some((done.ok()?, waited))
    }

    /// Steps `msg` at the wall-clock time since the epoch, read under the
    /// lock; its answer, `None` if it has none or the point has ended.
    pub fn step(&self, msg: NodeMsg<T>) -> Option<Answer> {
        let epoch = self.epoch;
        self.with(|point| point.step(|| since(epoch), msg))
            .flatten()
    }

    /// Ends the point if it has not ended; its final statistics, `None` if
    /// a step panicked.
    pub fn shutdown(&self) -> Option<DpStats> {
        let mut slot = self.point.lock().ok()?;
        if let Ok(point) = slot.as_ref() {
            let stats = point.stats();
            self.end(&mut slot, Some(stats));
        }
        slot.as_ref().err().copied().flatten()
    }

    /// Waits until the point has ended; its final statistics, `None` if a
    /// step panicked.
    pub fn join(&self) -> Option<DpStats> {
        let slot = self.point.lock().ok()?;
        let slot = self.ended.wait_while(slot, |p| p.is_ok()).ok()?;
        slot.as_ref().err().copied().flatten()
    }

    /// Drops the point — and with it the transport, which disconnects
    /// whatever it fed — and wakes the threads waiting on the end.
    fn end(&self, slot: &mut Result<Point<S, T>, Option<DpStats>>, stats: Option<DpStats>) {
        *slot = Err(stats);
        self.stop.store(true, Ordering::Relaxed);
        self.ended.notify_all();
    }
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
                    // Poisoned only if another client panicked mid-dispatch.
                    let n = grid.lock().expect("grid lock").n_sites();
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
                // Poisoned only if another client panicked mid-dispatch.
                let mut g = grid.lock().expect("grid lock");
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
    use crate::{Blueprint, SimStore, SnapshotPolicy};
    use gruber_types::SiteSpec;

    /// A transport nothing floods through.
    struct Nowhere;

    impl Transport for Nowhere {
        type Peers = ();

        fn flood(&mut self, _peer: usize, _records: &Bytes) {}

        fn set_peers(&mut self, (): ()) {}

        fn n_dps(&self) -> usize {
            1
        }
    }

    /// A free point is taken without a clock reading; a point another
    /// thread holds is waited for from the reading returned.
    #[test]
    fn with_waited_reads_the_clock_only_when_it_blocks() {
        let sites = (0..4).map(|i| SiteSpec::single_cluster(SiteId(i), 16));
        let uslas = workload::uslas::equal_shares(2, 2).unwrap();
        let blueprint = Blueprint::paper_mesh(DpId(0), sites.collect(), uslas.into(), false);
        let host = NodeHost::<SimStore>::new(
            blueprint,
            None,
            SnapshotPolicy::DISABLED,
            Recorder::OFF,
            SimTime::ZERO,
        );
        let epoch = Instant::now();
        let point = SharedPoint::new(Point::new(host, Nowhere, Recorder::OFF), epoch);
        let (_, from) = point.with_waited(|_| ()).expect("the point is up");
        assert_eq!(from, None);

        let held = std::sync::Barrier::new(2);
        let (stepped, from) = std::thread::scope(|scope| {
            scope.spawn(|| {
                point.with(|_| {
                    held.wait();
                    std::thread::sleep(Duration::from_millis(20));
                })
            });
            held.wait();
            point.with_waited(|_| Instant::now())
        })
        .expect("the point is up");
        let waited = stepped - from.expect("the point was held");
        assert!(waited >= Duration::from_millis(10), "waited {waited:?}");
    }

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
