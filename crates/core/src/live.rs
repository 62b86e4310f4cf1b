//! Live mode: the decision-point protocol on real OS threads.
//!
//! The discrete-event simulator proves the *scaling* claims; this module
//! proves the protocol logic is transport-agnostic by running **the same
//! [`dpnode::DpNode`] state machine the simulator drives** under real
//! concurrency. Floods between points are the exact wire payloads
//! (`simnet::codec`); a client's inform is stepped typed, as desim and
//! trace replay step it, since it never leaves the address space.
//!
//! A point is a [`SharedPoint`] — the host the socket runtime
//! (`clusterd`) uses too, and `dpstore::mailbox` is the home of how a
//! wall-clock runtime hosts a node — so there is no point thread: a
//! query, an inform, a crash or a restore is a locked call on the
//! caller's thread, and the ticker steps each sync round on its own. What
//! is this module's own is the channel [`Transport`] and [`LiveCluster`],
//! the in-process harness around it: start, query/inform, crash/restore,
//! shutdown. The pool is fixed; the one join/leave path is desim's
//! (`core::elastic`). `tests/sim_live_equivalence.rs` holds the proof
//! obligation that sim and live behaviour are identical.
//!
//! **Floods.** A step floods under its point's lock, so a flood cannot
//! enter the peer there: a thread never holds two points' locks, and two
//! points flooding each other cannot deadlock. The transport queues the
//! flood on the peer's inbox instead. Only a sync round floods, and the
//! thread that ran it merges each peer's inbox right after, in queue
//! order under the peer's own lock, as shutdown does with whatever is
//! left. So one peer's floods merge in the order they were sent, and a
//! query or an inform steps nothing but itself.

use bytes::Bytes;
use dpnode::Input;
use dpstore::{
    Answer, Blueprint, NodeHost, Point, RunStats, SharedPoint, SimStore, SnapshotPolicy, Transport,
    WireInput,
};
use gruber::DispatchRecord;
use gruber_types::{ClientId, DpId, SimTime, SiteSpec};
use obs::{Recorder, TraceEvent};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use usla::UslaSet;

pub use dpstore::DpStats as LiveDpStats;

/// The channel transport: a flood goes on the peer's inbox (indexed by
/// decision-point id, the index a flood names its peers by); the sync
/// round that sent it merges it.
struct Channels {
    peers: Vec<Sender<Bytes>>,
    inbox: Receiver<Bytes>,
}

type Msg = dpstore::NodeMsg<Channels>;
type Live = SharedPoint<SimStore, Channels>;

impl Transport for Channels {
    /// The pool is fixed: there is no table to replace.
    type Peers = ();

    fn flood(&mut self, peer: usize, records: &Bytes) {
        let _ = self.peers[peer].send(records.clone());
    }

    fn set_peers(&mut self, (): ()) {}

    fn n_dps(&self) -> usize {
        self.peers.len()
    }
}

/// Merges every flood on `point`'s inbox, in the order they were sent.
fn merge_inbox(point: &mut Point<SimStore, Channels>, epoch: Instant) {
    while let Ok(records) = point.transport.inbox.try_recv() {
        point.step(
            || dpstore::since(epoch),
            Msg::Wire(WireInput::PeerRecords(records)),
        );
    }
}

/// Steps `msg` into `point`; the step's answer, if any, and how long the
/// call waited for the point: from the reading it began waiting at to
/// the one the step was stamped at, zero when it found the point free.
/// `None` once the point has ended.
fn call(point: &Live, epoch: Instant, msg: Msg) -> Option<(Option<Answer>, Duration)> {
    let ((answer, stamp), from) = point.with_waited(|point| {
        let mut stamp = epoch;
        let clock = || {
            stamp = Instant::now();
            SimTime(stamp.duration_since(epoch).as_millis() as u64)
        };
        let answer = point.step(clock, msg);
        (answer, stamp)
    })?;
    let waited = from.map_or(Duration::ZERO, |from| stamp.duration_since(from));
    Some((answer, waited))
}

/// One sync round: each point in turn floods, and its peers merge the
/// flood at once, so one flood's bytes are alive at a time.
fn sync_all(points: &[Live], epoch: Instant) {
    for point in points {
        call(point, epoch, Msg::SyncTick);
        for peer in points {
            peer.with(|peer| merge_inbox(peer, epoch));
        }
    }
}

/// A running cluster of decision points plus the sync ticker.
pub struct LiveCluster {
    points: Arc<[Live]>,
    ticker: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    recorder: Recorder,
}

impl LiveCluster {
    /// Starts `n_dps` decision points over the given sites/USLAs, flooding
    /// every `sync_interval`.
    pub fn start(
        n_dps: usize,
        sites: Vec<SiteSpec>,
        uslas: &UslaSet,
        sync_interval: Duration,
    ) -> Self {
        LiveCluster::start_inner(n_dps, sites, uslas, sync_interval, None, Recorder::OFF)
    }

    /// Like [`LiveCluster::start`], but every point and the query path
    /// emit into the given [`obs::Recorder`] — the same streaming fan-out
    /// (timeline, ring, health scorer) the simulator feeds, stamped with
    /// wall-clock milliseconds since cluster start. The recorder is also
    /// installed as each node's engine tracer, so protocol-level events
    /// (`query_accepted`, `exchange_merged`, admission decisions) flow in
    /// with no driver glue. Timestamps here are wall-clock and therefore
    /// nondeterministic; the health scorer tolerates this because its
    /// windows close on whatever order the stream actually arrives in.
    pub fn start_traced(
        n_dps: usize,
        sites: Vec<SiteSpec>,
        uslas: &UslaSet,
        sync_interval: Duration,
        recorder: Recorder,
    ) -> Self {
        LiveCluster::start_inner(n_dps, sites, uslas, sync_interval, None, recorder)
    }

    /// Like [`LiveCluster::start`], but every point journals applied
    /// records to its own [`SimStore`] and snapshots on the record-count
    /// policy [`SnapshotPolicy::records`]`(snapshot_records)`.
    pub fn start_persistent(
        n_dps: usize,
        sites: Vec<SiteSpec>,
        uslas: &UslaSet,
        sync_interval: Duration,
        snapshot_records: u32,
    ) -> Self {
        LiveCluster::start_inner(
            n_dps,
            sites,
            uslas,
            sync_interval,
            Some(snapshot_records),
            Recorder::OFF,
        )
    }

    fn start_inner(
        n_dps: usize,
        sites: Vec<SiteSpec>,
        uslas: &UslaSet,
        sync_interval: Duration,
        persist: Option<u32>,
        recorder: Recorder,
    ) -> Self {
        assert!(n_dps > 0);
        let sites: Arc<[SiteSpec]> = sites.into();
        let uslas = Arc::new(uslas.clone());
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();

        // Create every inbox first so each point can hold every peer's
        // sender (indexed by decision-point id, as `Effect::FloodTo` names
        // peers by index).
        let (senders, inboxes): (Vec<Sender<Bytes>>, Vec<Receiver<Bytes>>) =
            (0..n_dps).map(|_| channel()).unzip();
        let points: Arc<[Live]> = (inboxes.into_iter().enumerate())
            .map(|(i, inbox)| {
                let (sites, uslas) = (Arc::clone(&sites), Arc::clone(&uslas));
                let blueprint =
                    Blueprint::paper_mesh(DpId(i as u32), sites, uslas, persist.is_some());
                // With `persist` the point owns a store that outlives
                // crashed node instances.
                let host = NodeHost::new(
                    blueprint,
                    persist.map(|_| SimStore::new()),
                    SnapshotPolicy::records(persist.unwrap_or(0)),
                    recorder.clone(),
                    SimTime::ZERO,
                );
                let peers = senders.clone();
                let channels = Channels { peers, inbox };
                SharedPoint::new(Point::new(host, channels, recorder.clone()), epoch)
            })
            .collect();

        // The sync ticker stands in for each container's periodic task.
        let ticking = Arc::clone(&points);
        let ticker = dpstore::ticker(sync_interval, Arc::clone(&stop), move || {
            sync_all(&ticking, epoch)
        });

        LiveCluster {
            points,
            ticker,
            stop,
            epoch,
            recorder,
        }
    }

    /// Milliseconds since cluster start, as the shared simulated clock.
    pub fn now(&self) -> SimTime {
        dpstore::since(self.epoch)
    }

    /// Number of decision points.
    pub(crate) fn n_dps(&self) -> usize {
        self.points.len()
    }

    /// Emits a client-side event at the current time, reading the clock
    /// only on a traced cluster.
    fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        if self.recorder.is_enabled() {
            let at = self.now();
            self.recorder.emit(at, event);
        }
    }

    /// Availability query with a client-side timeout, answered on the
    /// caller's thread. `None` means no answer in time — the point is
    /// crashed or stopped (known at once), or the answer took longer than
    /// `timeout` — and the caller should fall back to a random site, like
    /// the paper's clients. `Duration::MAX` has no deadline.
    ///
    /// The wait is the wait for the point's lock, measured to the clock
    /// reading the query is stepped at (see `dpstore::mailbox`'s
    /// **Time**), not the node's own sub-µs work after the reading. A
    /// query that finds the point free waited for nothing and is answered
    /// even at `Duration::ZERO`; untraced, it reads the clock once, for
    /// its step.
    ///
    /// Traced clusters emit the client-side protocol events here —
    /// `query_issued` before the step and `response_answered` /
    /// `client_timeout` at the outcome — under the anonymous `ClientId(0)`:
    /// this handle is the client, and callers multiplex it freely across
    /// threads.
    pub fn query(&self, dp: DpId, timeout: Duration) -> Option<Vec<u32>> {
        let client = ClientId(0);
        self.trace(|| TraceEvent::QueryIssued { client, dp });
        let query = Msg::Input(Input::QueryArrived { admission: None });
        let answered = match call(&self.points[dp.index()], self.epoch, query) {
            Some((Some(Answer::Free(free)), waited)) => Some((free, waited)),
            _ => None,
        };
        match answered.filter(|(_, waited)| *waited <= timeout) {
            Some((free, waited)) => {
                let response_ms = waited.as_millis() as u64;
                self.trace(|| TraceEvent::ResponseAnswered {
                    dp,
                    client,
                    response_ms,
                });
                Some(free)
            }
            None => {
                self.trace(|| TraceEvent::ClientTimeout { client, dp });
                None
            }
        }
    }

    /// Informs a decision point of a dispatch decision. The record is
    /// stepped typed, with no wire round trip and no allocation of its
    /// own; the step's reading is the one clock read.
    pub fn inform(&self, dp: DpId, record: DispatchRecord) {
        let inform = Msg::Input(Input::Inform(record));
        call(&self.points[dp.index()], self.epoch, inform);
    }

    /// Runs a sync round now (useful in tests instead of waiting for the
    /// ticker): when it returns, every flood it sent has been merged.
    pub fn force_sync(&self) {
        sync_all(&self.points, self.epoch);
    }

    /// Crashes a decision point: it drops every input until
    /// [`LiveCluster::restore`].
    pub fn crash(&self, dp: DpId) {
        call(&self.points[dp.index()], self.epoch, Msg::Crash);
    }

    /// Restarts a crashed decision point (recovering from its store in a
    /// persistent cluster).
    pub fn restore(&self, dp: DpId) {
        call(&self.points[dp.index()], self.epoch, Msg::Restore);
    }

    /// Stops the ticker, merges what is still in flight and ends every
    /// point; their statistics, omitting any point a panicking step ended.
    pub fn shutdown(mut self) -> Vec<LiveDpStats> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        (self.points.iter())
            .filter_map(|point| {
                point.with(|point| merge_inbox(point, self.epoch));
                point.shutdown()
            })
            .collect()
    }
}

/// Drives [`dpstore::drive_workload`]'s closed-loop clients against a
/// live cluster from `n_threads` concurrent client threads (thread `t`
/// bound to point `t % n_dps`), dispatching every job into the shared
/// ground-truth grid.
pub fn drive_workload(
    cluster: &LiveCluster,
    grid: &Mutex<gridemu::Grid>,
    n_threads: u32,
    jobs_per_thread: u32,
    timeout: Duration,
    seed: u64,
) -> RunStats {
    let query = |dp| cluster.query(dp, timeout);
    let inform = |dp, record| cluster.inform(dp, record);
    let n_dps = cluster.n_dps() as u32;
    dpstore::drive_workload(
        grid,
        n_threads,
        n_dps,
        jobs_per_thread,
        0,
        seed,
        query,
        inform,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{GroupId, JobId, SiteId, VoId};
    use workload::uslas::equal_shares;

    fn sites() -> Vec<SiteSpec> {
        (0..4)
            .map(|i| SiteSpec::single_cluster(SiteId(i), 16))
            .collect()
    }

    fn record(job: u32, site: u32, cpus: u32, now: SimTime) -> DispatchRecord {
        DispatchRecord {
            job: JobId(job),
            site: SiteId(site),
            vo: VoId(0),
            group: GroupId(0),
            cpus,
            dispatched_at: now,
            est_finish: now + gruber_types::SimDuration::from_secs(3600),
        }
    }

    /// Two threads tick point 0 while point 1 is held, so both floods wait
    /// to enter it: they must merge in the order point 0 sent them (one
    /// record, then two), whichever thread takes point 1's lock first.
    #[test]
    fn floods_held_up_by_a_busy_peer_merge_in_the_order_sent() {
        for _ in 0..20 {
            let rec = Recorder::new(obs::TraceConfig::default());
            let uslas = equal_shares(2, 2).unwrap();
            let hour = Duration::from_secs(3600);
            let cluster = LiveCluster::start_traced(2, sites(), &uslas, hour, rec.clone());
            let sync_rounds = || {
                let stats = cluster.points[0].with(|p| p.stats());
                stats.expect("point 0 is up").sync_rounds
            };
            std::thread::scope(|scope| {
                cluster.points[1].with(|_| {
                    for (round, jobs) in [(1, 0..1), (2, 1..3)] {
                        for job in jobs {
                            cluster.inform(DpId(0), record(job, 0, 1, cluster.now()));
                        }
                        scope.spawn(|| cluster.force_sync());
                        while sync_rounds() < round {
                            std::thread::yield_now();
                        }
                    }
                });
            });
            let end = cluster.now();
            cluster.shutdown();
            let merged: Vec<u32> = (rec.finish(end).expect("traced").recent.iter())
                .filter_map(|(_, ev)| match ev {
                    TraceEvent::ExchangeMerged {
                        dp: DpId(1),
                        received,
                        ..
                    } => Some(*received),
                    _ => None,
                })
                .collect();
            assert_eq!(merged, [1, 2]);
        }
    }

    /// A query waits 30 ms for a point another thread holds: with a 5 ms
    /// timeout it times out (and a traced cluster says so), and with no
    /// deadline it is answered. The wait for the lock is part of what the
    /// timeout measures.
    #[test]
    fn a_query_held_up_by_the_lock_is_timed_to_the_step() {
        let rec = Recorder::new(obs::TraceConfig::default());
        let uslas = equal_shares(2, 2).unwrap();
        let hour = Duration::from_secs(3600);
        let cluster = LiveCluster::start_traced(1, sites(), &uslas, hour, rec.clone());
        let held_query = |timeout| {
            let held = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    cluster.points[0].with(|_| {
                        held.wait();
                        std::thread::sleep(Duration::from_millis(30));
                    })
                });
                held.wait();
                cluster.query(DpId(0), timeout)
            })
        };
        assert_eq!(held_query(Duration::from_millis(5)), None);
        assert_eq!(held_query(Duration::MAX), Some(vec![16; 4]));
        let end = cluster.now();
        cluster.shutdown();
        let timeline = rec.finish(end).expect("traced");
        let timeouts = (timeline.recent.iter())
            .filter(|(_, ev)| matches!(ev, TraceEvent::ClientTimeout { dp: DpId(0), .. }))
            .count();
        assert_eq!(timeouts, 1);
    }

    /// A query that finds its point free waited for nothing, so even a
    /// zero timeout is met.
    #[test]
    fn a_query_on_a_free_point_meets_a_zero_timeout() {
        let uslas = equal_shares(2, 2).unwrap();
        let cluster = LiveCluster::start(1, sites(), &uslas, Duration::from_secs(3600));
        for _ in 0..100 {
            assert_eq!(cluster.query(DpId(0), Duration::ZERO), Some(vec![16; 4]));
        }
        assert_eq!(cluster.shutdown()[0].queries, 100);
    }

    #[test]
    fn query_returns_static_capacities_when_idle() {
        let cluster = LiveCluster::start(
            2,
            sites(),
            &equal_shares(2, 2).unwrap(),
            Duration::from_secs(3600),
        );
        let free = cluster
            .query(DpId(0), Duration::from_secs(5))
            .expect("live query timed out");
        assert_eq!(free, vec![16, 16, 16, 16]);
        let stats = cluster.shutdown();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].queries, 1);
    }

    #[test]
    fn inform_updates_only_the_informed_dp_until_sync() {
        let cluster = LiveCluster::start(
            2,
            sites(),
            &equal_shares(2, 2).unwrap(),
            Duration::from_secs(3600), // ticker effectively off
        );
        cluster.inform(DpId(0), record(1, 0, 8, cluster.now()));
        // Wait until DP 0 sees it.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let free = cluster.query(DpId(0), Duration::from_secs(5)).unwrap();
            if free[0] == 8 {
                break;
            }
            assert!(Instant::now() < deadline, "inform never applied");
            std::thread::sleep(Duration::from_millis(10));
        }
        // DP 1 still believes the site is idle.
        let free1 = cluster.query(DpId(1), Duration::from_secs(5)).unwrap();
        assert_eq!(free1[0], 16);

        // After a forced sync DP 1 converges.
        cluster.force_sync();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let free1 = cluster.query(DpId(1), Duration::from_secs(5)).unwrap();
            if free1[0] == 8 {
                break;
            }
            assert!(Instant::now() < deadline, "sync never converged");
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = cluster.shutdown();
        let dp0 = &stats[0];
        assert_eq!(dp0.informs, 1);
        assert_eq!(dp0.sync_rounds, 1, "one non-empty flood round");
        assert_eq!(dp0.floods_sent, 1, "one peer in a 2-point mesh");
        assert_ne!(
            dp0.flood_hash,
            dpnode::DpNodeStats::default().flood_hash,
            "flood hash must cover the sent payload"
        );
        assert_eq!(stats[1].records_merged, 1);
        assert_eq!(stats[1].sync_rounds, 0, "nothing to flood from DP 1");
    }

    #[test]
    fn periodic_ticker_syncs_without_force() {
        let cluster = LiveCluster::start(
            3,
            sites(),
            &equal_shares(2, 2).unwrap(),
            Duration::from_millis(20),
        );
        cluster.inform(DpId(2), record(9, 3, 4, cluster.now()));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let f0 = cluster.query(DpId(0), Duration::from_secs(5)).unwrap();
            let f1 = cluster.query(DpId(1), Duration::from_secs(5)).unwrap();
            if f0[3] == 12 && f1[3] == 12 {
                break;
            }
            assert!(Instant::now() < deadline, "ticker sync never converged");
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = cluster.shutdown();
        // Both peers merged DP 2's single record, surfaced per point.
        assert_eq!(stats[0].records_merged, 1);
        assert_eq!(stats[1].records_merged, 1);
        assert_eq!(stats[2].floods_sent, 2, "one flood to each mesh peer");
    }

    /// The full streaming obs path on real threads: a traced cluster
    /// feeds the recorder from the query path, the crash/restore driver
    /// glue, and the nodes' own engine tracers — and the online health
    /// scoring flags the crashed point. Assertions are deliberately loose
    /// (wall-clock timestamps are nondeterministic); the deterministic
    /// scoring behaviour is pinned by `obs::health`'s own tests.
    #[test]
    fn traced_cluster_scores_a_crashed_dp_as_degrading() {
        let rec = Recorder::new(obs::TraceConfig {
            // Tiny bins (= scoring windows) so a ~300 ms run spans several.
            cadence: gruber_types::SimDuration(50),
        });
        let cluster = LiveCluster::start_traced(
            2,
            sites(),
            &equal_shares(2, 2).unwrap(),
            Duration::from_millis(20),
            rec.clone(),
        );
        cluster.crash(DpId(1));
        // An inform exercises the node-internal engine tracer (it emits
        // `query_accepted` when the view takes the record).
        cluster.inform(DpId(0), record(1, 0, 8, cluster.now()));
        let deadline = Instant::now() + Duration::from_millis(300);
        while Instant::now() < deadline {
            // dp0 answers; dp1 is down, so these time out quickly and
            // keep the trace stream (and scoring windows) advancing.
            let _ = cluster.query(DpId(0), Duration::from_millis(50));
            let _ = cluster.query(DpId(1), Duration::from_millis(5));
            std::thread::sleep(Duration::from_millis(10));
        }
        let end = cluster.now();
        cluster.shutdown();
        let tl = rec.finish(end).unwrap();
        let health = &tl.health;
        assert!(
            health
                .flags
                .iter()
                .any(|f| f.dp == DpId(1) && f.degrading),
            "crashed dp1 must be flagged Degrading; flags: {:?}",
            health.flags
        );
        assert!(
            health.samples.iter().any(|s| s.dp == DpId(0) && s.score > 0),
            "live dp0 must score above zero"
        );
        // The engine tracer was installed: dp0 served traced queries.
        assert!(tl.totals.accepted > 0, "engine-level events must flow");
        // Flag counters reconcile between report and timeline totals.
        let degrades = health.flags.iter().filter(|f| f.degrading).count() as u64;
        assert_eq!(tl.totals.health_degrades, degrades);
    }

    #[test]
    fn shutdown_is_clean_and_counts_queries() {
        let cluster = LiveCluster::start(
            1,
            sites(),
            &equal_shares(2, 2).unwrap(),
            Duration::from_millis(50),
        );
        for _ in 0..5 {
            cluster.query(DpId(0), Duration::from_secs(5)).unwrap();
        }
        let stats = cluster.shutdown();
        assert_eq!(stats[0].queries, 5);
    }
}
