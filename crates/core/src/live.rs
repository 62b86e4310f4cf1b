//! Live mode: the decision-point protocol on real OS threads.
//!
//! The discrete-event simulator proves the *scaling* claims; this module
//! proves the protocol logic is transport-agnostic by running **the same
//! [`dpnode::DpNode`] state machine the simulator drives** on one thread
//! per decision point, exchanging the exact wire payloads
//! (`simnet::codec`) over crossbeam channels. Queries block the caller
//! with a real timeout (`recv_timeout`), mirroring the paper's client
//! behaviour.
//!
//! Each thread runs [`dpstore::mailbox::node_loop`], a loop of the
//! `Point::step` the socket runtime (`clusterd`) runs too; that module is
//! the home of how a wall-clock runtime hosts a node. What is this
//! module's own is the channel [`Transport`] (a reply is a `Sender`, a
//! peer is another thread's mailbox) and [`LiveCluster`], the in-process
//! harness around it: start, query/inform, crash/restore, shutdown. The pool is fixed;
//! the one join/leave path is desim's (`core::elastic`).
//! `tests/sim_live_equivalence.rs` holds the proof obligation that sim
//! and live behaviour are identical.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use dpstore::mailbox::{self, node_loop, Answer, Point, Transport};
use dpstore::{Blueprint, NodeHost, SimStore, SnapshotPolicy, WireInput};
use gruber::DispatchRecord;
use gruber_types::{ClientId, DpId, SimTime, SiteSpec};
use obs::{Recorder, TraceEvent};
use parking_lot::Mutex;
use simnet::codec::encode_inform;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use usla::UslaSet;

pub use dpstore::{DpStats as LiveDpStats, RunStats};

/// The channel transport: replies go down the requester's one-shot
/// channel, floods into the peers' mailboxes (indexed by decision-point
/// id, the index a flood names its peers by).
struct Channels {
    peers: Vec<Sender<Msg>>,
}

type Msg = dpstore::NodeMsg<Channels>;

impl Transport for Channels {
    type Reply = Sender<Answer>;
    type Peers = Vec<Sender<Msg>>;

    fn reply(&mut self, to: Sender<Answer>, answer: Answer) {
        let _ = to.send(answer);
    }

    fn flood(&mut self, peer: usize, records: &bytes::Bytes) {
        let wire = WireInput::PeerRecords(records.clone());
        let _ = self.peers[peer].send(Msg::Wire(wire));
    }

    fn set_peers(&mut self, peers: Vec<Sender<Msg>>) {
        self.peers = peers;
    }

    fn n_dps(&self) -> usize {
        self.peers.len()
    }
}

struct DpThread {
    sender: Sender<Msg>,
    handle: JoinHandle<LiveDpStats>,
}

/// A running cluster of decision-point threads plus the sync ticker.
pub struct LiveCluster {
    dps: Vec<DpThread>,
    ticker: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    recorder: Recorder,
}

impl LiveCluster {
    /// Spawns `n_dps` decision points over the given sites/USLAs, flooding
    /// every `sync_interval`.
    pub fn start(
        n_dps: usize,
        sites: Vec<SiteSpec>,
        uslas: &UslaSet,
        sync_interval: Duration,
    ) -> Self {
        LiveCluster::start_inner(n_dps, sites, uslas, sync_interval, None, Recorder::OFF)
    }

    /// Like [`LiveCluster::start`], but every thread and the query path
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
    /// records to an in-thread [`SimStore`] and snapshots on the
    /// record-count policy [`SnapshotPolicy::records`]`(snapshot_records)`.
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

        // Create all channels first so every thread can hold every peer's
        // sender (indexed by decision-point id, as `Effect::FloodTo`
        // names peers by index).
        let channels: Vec<(Sender<Msg>, Receiver<Msg>)> =
            (0..n_dps).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Msg>> = channels.iter().map(|(s, _)| s.clone()).collect();

        let dps = channels
            .into_iter()
            .enumerate()
            .map(|(i, (sender, receiver))| {
                let (sites, uslas) = (Arc::clone(&sites), Arc::clone(&uslas));
                let blueprint =
                    Blueprint::paper_mesh(DpId(i as u32), sites, uslas, persist.is_some());
                // With `persist` the thread owns a store that outlives
                // crashed node instances.
                let host = NodeHost::new(
                    blueprint,
                    persist.map(|_| SimStore::new()),
                    SnapshotPolicy::records(persist.unwrap_or(0)),
                    recorder.clone(),
                    SimTime::ZERO,
                );
                let channels = Channels {
                    peers: senders.clone(),
                };
                let mut point = Point::new(host, channels, recorder.clone(), epoch);
                let handle = std::thread::Builder::new()
                    .name(format!("dp-{i}"))
                    .spawn(move || node_loop(&mut point, &receiver))
                    .expect("spawn dp thread");
                DpThread { sender, handle }
            })
            .collect::<Vec<_>>();

        // The sync ticker stands in for each container's periodic task.
        let ticker = mailbox::ticker(sync_interval, Arc::clone(&stop), move || {
            for s in &senders {
                let _ = s.send(Msg::SyncTick);
            }
        });

        LiveCluster {
            dps,
            ticker,
            stop,
            epoch,
            recorder,
        }
    }

    /// Milliseconds since cluster start, as the shared simulated clock.
    pub fn now(&self) -> SimTime {
        mailbox::since(self.epoch)
    }

    /// Number of decision points.
    pub fn n_dps(&self) -> usize {
        self.dps.len()
    }

    /// Blocking availability query with a client-side timeout. `None`
    /// means the timeout fired (the caller should fall back to a random
    /// site, like the paper's clients). `Duration::MAX` waits without a
    /// deadline.
    ///
    /// Traced clusters emit the client-side protocol events here —
    /// `query_issued` at send and `response_answered` / `client_timeout`
    /// at the outcome — under the anonymous `ClientId(0)`: this handle is
    /// the client, and callers multiplex it freely across threads.
    pub fn query(&self, dp: DpId, timeout: Duration) -> Option<Vec<u32>> {
        self.recorder.emit(self.now(), || TraceEvent::QueryIssued {
            client: ClientId(0),
            dp,
        });
        let sent = Instant::now();
        let (reply_tx, reply_rx) = bounded(1);
        let sent_ok = self.dps[dp.index()]
            .sender
            .send(Msg::Query { reply: reply_tx })
            .is_ok();
        let reply = match sent_ok.then(|| reply_rx.recv_timeout(timeout)) {
            Some(Ok(Answer::Free(free))) => Some(free),
            _ => None,
        };
        match &reply {
            Some(_) => self.recorder.emit(self.now(), || TraceEvent::ResponseAnswered {
                dp,
                client: ClientId(0),
                response_ms: sent.elapsed().as_millis() as u64,
            }),
            None => self.recorder.emit(self.now(), || TraceEvent::ClientTimeout {
                client: ClientId(0),
                dp,
            }),
        }
        reply
    }

    /// Informs a decision point of a dispatch decision. The record
    /// crosses the channel in its wire form
    /// ([`simnet::codec::encode_inform`]).
    pub fn inform(&self, dp: DpId, record: DispatchRecord) {
        let bytes = encode_inform(&record);
        let _ = self.dps[dp.index()]
            .sender
            .send(Msg::Wire(WireInput::Inform(bytes)));
    }

    /// Forces an immediate sync round (useful in tests instead of waiting
    /// for the ticker).
    pub fn force_sync(&self) {
        for dp in &self.dps {
            let _ = dp.sender.send(Msg::SyncTick);
        }
    }

    /// Crashes a decision point: it drops every input until
    /// [`LiveCluster::restore`].
    pub fn crash(&self, dp: DpId) {
        let _ = self.dps[dp.index()].sender.send(Msg::Crash);
    }

    /// Restarts a crashed decision point (recovering from its store in a
    /// persistent cluster).
    pub fn restore(&self, dp: DpId) {
        let _ = self.dps[dp.index()].sender.send(Msg::Restore);
    }

    /// Stops every thread and returns their statistics.
    pub fn shutdown(mut self) -> Vec<LiveDpStats> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        let mut stats = Vec::new();
        for dp in self.dps.drain(..) {
            let _ = dp.sender.send(Msg::Shutdown);
            if let Ok(s) = dp.handle.join() {
                stats.push(s);
            }
        }
        stats
    }
}

/// Drives [`mailbox::drive_workload`]'s closed-loop clients against a
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
    mailbox::drive_workload(
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
        let health = tl.health.as_ref().expect("health scorer was on");
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
