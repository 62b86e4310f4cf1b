//! Protocol replay: GRUB-SIM's runtime over the shared decision-point core.
//!
//! `super::replay` answers the capacity question ("how many decision
//! points?") with a fluid model. This module answers the *state* question:
//! replay a DiPerF request trace through real [`dpnode::DpNode`] state
//! machines — the exact code the discrete-event simulator and the live
//! thread cluster drive — and report what each point believed at the end.
//!
//! The driver here is the simplest of the runtimes: one pass over the trace
//! in time order, zero-latency flood delivery, no loss/partitions/retries.
//! Every answered request becomes a query to its bound decision point plus
//! a synthetic dispatch inform (the client told the point where the job
//! landed); a sync round fires on every point each `sync_interval`. After
//! the trace horizon the driver runs `n_dps` barrier sync rounds so sparse
//! topologies (ring, star) finish propagating transitively-forwarded
//! records, then compares the final availability views for convergence.
//!
//! # One step
//!
//! Each decision point is a [`dpstore::Point`], the host the thread and
//! socket runtimes step too, over a transport that only collects floods.
//! Every query, inform, sync round, crash and restore is one
//! [`Point::step`] at the event's time; after a sync step the driver hands
//! each collected flood to its peer, or, if the peer is down, back to the
//! sender as [`NodeMsg::FloodFailed`] for its next round. So the flood
//! fan-out, the requeue and the exchange, crash and recovery trace events
//! are the point's, as on threads and sockets; the driver adds only the
//! client side the trace records. Its clock is the event time, so a
//! restore replays in zero time (`recovery_replayed` has `dur_ms: 0`).
//! Records stay typed: an inform or a query is stepped as a
//! [`dpnode::Input`], and only a flood crosses as wire bytes.
//!
//! # Order
//!
//! The trace need not be sorted. The driver replays its events in
//! ascending `(at, seq)` key order, where `seq` both names the event —
//! `2·i` is entry `i`'s query, `2·i + 1` its inform, `2·n` and `2·n + 1`
//! the [`CrashPlan`]'s crash and restore — and breaks ties, so events at
//! one instant replay in trace order, an entry's query before its inform,
//! the crash plan last. Each query, and each inform with its synthetic
//! dispatch record, is built from `traces[seq / 2]` at the moment it is
//! replayed. The keys are streamed, not stored: queries come off the
//! trace in `(sent_at, i)` order (through a `u32` index sorted by
//! `sent_at` only if the trace is not already sorted), and an entry's
//! inform joins a min-heap when its query is handed out, which is never
//! too late, since the inform's key is the larger. The heap holds only
//! the informs in flight, so a replay's peak memory is the trace and the
//! views, not the driver.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use bytes::Bytes;
use diperf::RequestTrace;
use dpnode::{Dissemination, DpNodeStats, Input, NodeConfig, Topology};
use dpstore::{Blueprint, NodeHost, NodeMsg, Point, SimStore, SnapshotPolicy, Transport, WireInput};
use gruber::DispatchRecord;
use gruber_types::{DpId, GroupId, JobId, SimDuration, SimTime, SiteId, SiteSpec, VoId};
use obs::{Recorder, TraceEvent};
use usla::UslaSet;

/// Crash one decision point mid-replay and restore it later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// When the point crashes.
    pub(crate) at: SimTime,
    /// Which point crashes (wrapped modulo `n_dps`).
    pub(crate) dp: u32,
    /// How long it stays down before restoring.
    pub(crate) down_for: SimDuration,
}

/// How to replay a trace through the protocol core.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolReplayConfig {
    /// Decision points to instantiate. Trace entries bound to points at
    /// or beyond this count are redirected modulo `n_dps`.
    pub n_dps: usize,
    /// Exchange topology between the points.
    pub topology: Topology,
    /// Sync-round period: every point ticks each `sync_interval`.
    pub sync_interval: SimDuration,
    /// Runtime assumed for every synthetic dispatched job.
    pub job_runtime: SimDuration,
    /// Seed for gossip peer selection (unused by deterministic topologies).
    pub seed: u64,
    /// Log every applied record to a per-node WAL ([`dpstore::SimStore`])
    /// and rebuild a restored point from snapshot + log. Off, a restored
    /// point simply resumes with the state it held when it went down.
    pub persist: bool,
    /// Snapshot (and truncate the WAL) once it holds this many records
    /// ([`SnapshotPolicy::records`]). Only meaningful with `persist`.
    pub snapshot_records: u32,
    /// Optional mid-replay crash/restore of one point.
    pub crash: Option<CrashPlan>,
}

/// What the protocol replay concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolReplayReport {
    /// Per-point protocol counters, indexed by decision point.
    pub per_dp: Vec<DpNodeStats>,
    /// Each point's final believed free CPUs per site.
    pub(crate) final_views: Vec<Vec<u32>>,
    /// Whether every point ended with the identical view.
    pub converged: bool,
    /// Queries replayed (every trace entry).
    pub queries_replayed: u64,
    /// Synthetic informs replayed (answered entries only).
    pub informs_replayed: u64,
    /// Crash restorations performed (0 or 1 with a single [`CrashPlan`]).
    pub recoveries: u64,
    /// WAL records replayed into fresh nodes during recovery.
    pub wal_records_replayed: u64,
}

/// The replay's [`Transport`]: delivery takes no time, so a sync step's
/// floods wait here, `(peer, wire bytes)`, until the driver hands them on.
struct Outbox {
    n_dps: usize,
    sent: Vec<(usize, Bytes)>,
}

impl Transport for Outbox {
    /// The mesh is fixed for the whole replay.
    type Peers = ();

    fn flood(&mut self, peer: usize, records: &Bytes) {
        self.sent.push((peer, records.clone()));
    }

    fn set_peers(&mut self, (): ()) {}

    fn n_dps(&self) -> usize {
        self.n_dps
    }
}

type SimPoint = Point<SimStore, Outbox>;

/// A driver event's `(at, seq)` key (module docs, *Order*).
type Key = (SimTime, u64);

/// Above every key a replay can hold: what an exhausted source offers.
const END: Key = (SimTime(u64::MAX), u64::MAX);

/// The replay order (module docs, *Order*): every driver event's
/// `(at, seq)` key, ascending, merged from three sources — the trace's
/// queries, the informs in flight and the crash plan — each offering its
/// least key, or [`END`] once it is exhausted.
struct ReplayOrder<'a> {
    traces: &'a [RequestTrace],
    /// Entry indices in `(sent_at, i)` order; `None` when the trace is
    /// already sorted by `sent_at`.
    by_sent: Option<Vec<u32>>,
    /// Queries handed out so far.
    queried: usize,
    /// Informs of the entries already queried, not yet handed out.
    informs: BinaryHeap<Reverse<Key>>,
    /// The crash plan's keys not yet handed out, the earliest last.
    plan: Vec<Key>,
}

impl Iterator for ReplayOrder<'_> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        let entry = match &self.by_sent {
            Some(order) => order.get(self.queried).map(|&i| i as usize),
            None => Some(self.queried).filter(|&i| i < self.traces.len()),
        };
        let query = entry.map_or(END, |i| (self.traces[i].sent_at, 2 * i as u64));
        let inform = self.informs.peek().map_or(END, |r| r.0);
        let plan = self.plan.last().copied().unwrap_or(END);
        if query < inform && query < plan {
            // An inform comes after its query: a response is never
            // negative, and at a tie `2·i + 1 > 2·i`.
            let i = entry.expect("a query key names an entry");
            let t = &self.traces[i];
            if let Some(at) = t.completed_at().filter(|_| t.handled()) {
                self.informs.push(Reverse((at, 2 * i as u64 + 1)));
            }
            self.queried += 1;
            Some(query)
        } else if inform < plan {
            self.informs.pop();
            Some(inform)
        } else {
            self.plan.pop()
        }
    }
}

/// The order in which `traces` and the `crash` plan replay.
fn replay_order(traces: &[RequestTrace], crash: Option<CrashPlan>) -> ReplayOrder<'_> {
    let by_sent = (!traces.is_sorted_by_key(|t| t.sent_at)).then(|| {
        let n = u32::try_from(traces.len()).expect("a trace of at most 2^32 entries");
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by_key(|&i| traces[i as usize].sent_at);
        order
    });
    let n = traces.len() as u64;
    let plan = crash.map_or(Vec::new(), |p| vec![(p.at + p.down_for, 2 * n + 1), (p.at, 2 * n)]);
    ReplayOrder { traces, by_sent, queried: 0, informs: BinaryHeap::new(), plan }
}

/// Replays a DiPerF trace through `n_dps` real decision-point state
/// machines and reports their final statistics and views.
pub fn replay_protocol(
    traces: &[RequestTrace],
    sites: &[SiteSpec],
    uslas: &UslaSet,
    cfg: ProtocolReplayConfig,
) -> ProtocolReplayReport {
    replay_protocol_traced(traces, sites, uslas, cfg, &Recorder::OFF)
}

/// [`replay_protocol`] with an [`obs::Recorder`] over the replay: the
/// driver emits the client side from the trace outcomes (`query_issued`,
/// `response_answered` / `client_timeout`), each point's step adds
/// `exchange_sent`, crash/recovery and persistence events, and each
/// node's engine tracer `query_accepted` / `exchange_merged` — so a
/// replayed trace gets the same timeline and online health scoring as a
/// simulated or live run.
///
/// One timestamp caveat: the trace records *when the client gave up* only
/// implicitly, so `client_timeout` is emitted at the request's `sent_at`
/// (slightly early) rather than at the unknown expiry instant.
pub fn replay_protocol_traced(
    traces: &[RequestTrace],
    sites: &[SiteSpec],
    uslas: &UslaSet,
    cfg: ProtocolReplayConfig,
    tracer: &Recorder,
) -> ProtocolReplayReport {
    assert!(cfg.n_dps > 0, "protocol replay needs at least one point");
    assert!(!cfg.sync_interval.is_zero(), "zero sync interval");
    let n_dps = cfg.n_dps;
    let n_sites = sites.len().max(1);

    let sites: Arc<[SiteSpec]> = sites.into();
    let uslas = Arc::new(uslas.clone());
    let mut points: Vec<SimPoint> = (0..n_dps)
        .map(|i| {
            let blueprint = Blueprint {
                cfg: NodeConfig {
                    id: DpId(i as u32),
                    topology: cfg.topology,
                    dissemination: Dissemination::UsageOnly,
                    sync_every: None,
                    gossip_seed: cfg.seed,
                    persist: cfg.persist,
                },
                sites: Arc::clone(&sites),
                uslas: Arc::clone(&uslas),
                track_live: false,
            };
            let host = NodeHost::new(
                blueprint,
                cfg.persist.then(SimStore::new),
                SnapshotPolicy::records(cfg.snapshot_records),
                tracer.clone(),
                SimTime::ZERO,
            );
            let outbox = Outbox { n_dps, sent: Vec::new() };
            Point::new(host, outbox, tracer.clone())
        })
        .collect();

    let n = traces.len() as u64;
    let crash_dp = cfg.crash.map_or(0, |plan| plan.dp as usize % n_dps);
    let mut queries = 0u64;
    let mut informs = 0u64;

    // Every point ticks each `sync_interval` (a down point's tick floods
    // nothing) until the horizon. A round due at the instant of a trace
    // event runs after it.
    let mut next_tick = SimTime(0) + cfg.sync_interval;
    let timer_round = |points: &mut [SimPoint], at: SimTime| {
        for dp in 0..n_dps {
            sync(points, dp, at);
        }
    };

    let mut last_event = SimTime(0);
    for (at, seq) in replay_order(traces, cfg.crash) {
        last_event = at;
        while next_tick < at {
            timer_round(&mut points, next_tick);
            next_tick += cfg.sync_interval;
        }
        if seq >= 2 * n {
            // The crash plan. Its restore replays in driver time: the
            // recovery takes none.
            let msg = if seq == 2 * n { NodeMsg::Crash } else { NodeMsg::Restore };
            points[crash_dp].step(|| at, msg);
            continue;
        }
        // Entry `seq / 2`'s query or synthetic inform (job id = entry
        // index, round-robin site).
        let i = (seq / 2) as usize;
        let t = &traces[i];
        let (dp, client) = (DpId((t.dp.index() % n_dps) as u32), t.client);
        let input = if seq.is_multiple_of(2) {
            queries += 1;
            tracer.emit(at, || TraceEvent::QueryIssued { client, dp });
            if t.timed_out {
                // Emitted at `sent_at`: the trace does not record the
                // expiry instant (see `replay_protocol_traced` docs).
                tracer.emit(at, || TraceEvent::ClientTimeout { client, dp });
            }
            // The answer has no consumer in a trace replay.
            Input::QueryArrived { admission: None }
        } else {
            informs += 1;
            let response_ms = t.response.map_or(0, |r| r.as_millis());
            tracer.emit(at, || TraceEvent::ResponseAnswered { dp, client, response_ms });
            Input::Inform(DispatchRecord {
                job: JobId(i as u32),
                site: SiteId((i % n_sites) as u32),
                vo: VoId((i % 2) as u32),
                group: GroupId(0),
                cpus: 1,
                dispatched_at: at,
                est_finish: at + cfg.job_runtime,
            })
        };
        points[dp.index()].step(|| at, NodeMsg::Input(input));
    }
    let horizon = last_event + cfg.sync_interval + cfg.sync_interval;
    while next_tick <= horizon {
        timer_round(&mut points, next_tick);
        next_tick += cfg.sync_interval;
    }

    // Barrier rounds: in a ring, a record crosses one hop per sync round,
    // so n_dps extra rounds flush anything still in flight.
    let mut t = horizon;
    for _ in 0..n_dps {
        t += cfg.sync_interval;
        for dp in 0..n_dps {
            sync(&mut points, dp, t);
        }
    }

    let final_views: Vec<Vec<u32>> = points
        .iter_mut()
        .map(|p| p.host.node_mut().engine_mut().availability(t))
        .collect();
    let converged = final_views.windows(2).all(|w| w[0] == w[1]);
    let hosts = || points.iter().map(|p| &p.host);
    ProtocolReplayReport {
        per_dp: hosts().map(|h| h.node().stats()).collect(),
        final_views,
        converged,
        queries_replayed: queries,
        informs_replayed: informs,
        recoveries: hosts().map(|h| h.recoveries()).sum(),
        wal_records_replayed: hosts().map(|h| h.wal_records_replayed()).sum(),
    }
}

/// One exchange round of point `dp` (a timed round or a barrier round),
/// every flood delivered at once. A flood merged never floods in turn
/// (forwarded records wait for the peer's own next round), so one pass
/// over the outbox delivers the round. A down peer cannot receive: the
/// sender takes the flood back as [`NodeMsg::FloodFailed`], and its next
/// round retransmits it — a crash delays state, it must not destroy it.
fn sync(points: &mut [SimPoint], dp: usize, at: SimTime) {
    points[dp].step(|| at, NodeMsg::SyncTick);
    let mut sent = std::mem::take(&mut points[dp].transport.sent);
    for (peer, records) in sent.drain(..) {
        let (to, msg) = if points[peer].host.node().up() {
            (peer, NodeMsg::Wire(WireInput::PeerRecords(records)))
        } else {
            (dp, NodeMsg::FloodFailed(records))
        };
        points[to].step(|| at, msg);
    }
    points[dp].transport.sent = sent;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::ClientId;
    use workload::uslas::equal_shares;

    fn sites(n: u32, cpus: u32) -> Vec<SiteSpec> {
        (0..n).map(|i| SiteSpec::single_cluster(SiteId(i), cpus)).collect()
    }

    fn cfg(n_dps: usize, topology: Topology) -> ProtocolReplayConfig {
        ProtocolReplayConfig {
            n_dps,
            topology,
            sync_interval: SimDuration::from_secs(10),
            job_runtime: SimDuration::from_secs(100_000),
            seed: 7,
            persist: false,
            snapshot_records: 0,
            crash: None,
        }
    }

    /// Crash point 1 at t=12s for 10s, with persistence on.
    fn crashy_cfg(n_dps: usize, snapshot_records: u32) -> ProtocolReplayConfig {
        ProtocolReplayConfig {
            persist: true,
            snapshot_records,
            crash: Some(CrashPlan {
                at: SimTime::from_secs(12),
                dp: 1,
                down_for: SimDuration::from_secs(10),
            }),
            ..cfg(n_dps, Topology::FullMesh)
        }
    }

    /// `n` answered requests, one per second, round-robin over `n_dps`.
    fn answered_trace(n: u32, n_dps: u32) -> Vec<RequestTrace> {
        (0..n)
            .map(|i| {
                RequestTrace::answered(
                    ClientId(i % 50),
                    DpId(i % n_dps),
                    SimTime::from_secs(u64::from(i)),
                    SimDuration::from_secs(1),
                )
            })
            .collect()
    }

    #[test]
    fn empty_trace_is_harmless_and_converged() {
        let r = replay_protocol(&[], &sites(4, 16), &equal_shares(2, 2).unwrap(), cfg(3, Topology::FullMesh));
        assert_eq!(r.queries_replayed, 0);
        assert_eq!(r.informs_replayed, 0);
        assert!(r.converged);
        assert_eq!(r.final_views[0], vec![16, 16, 16, 16]);
    }

    #[test]
    fn full_mesh_replay_converges_to_identical_views() {
        let r = replay_protocol(
            &answered_trace(30, 3),
            &sites(4, 64),
            &equal_shares(2, 2).unwrap(),
            cfg(3, Topology::FullMesh),
        );
        assert!(r.converged, "views diverged: {:?}", r.final_views);
        assert_eq!(r.queries_replayed, 30);
        assert_eq!(r.informs_replayed, 30);
        // All 30 informs applied everywhere: 30 cpus consumed over 4 sites.
        let consumed: u32 = r.final_views[0].iter().map(|f| 64 - f).sum();
        assert_eq!(consumed, 30);
        // Each point merged everything the other two dispatched.
        for s in &r.per_dp {
            assert_eq!(s.records_merged, 20, "{s:?}");
            assert!(s.sync_rounds >= 1);
        }
    }

    #[test]
    fn ring_replay_converges_after_barrier_rounds() {
        let r = replay_protocol(
            &answered_trace(24, 4),
            &sites(4, 64),
            &equal_shares(2, 2).unwrap(),
            cfg(4, Topology::Ring),
        );
        assert!(r.converged, "ring never converged: {:?}", r.final_views);
        let consumed: u32 = r.final_views[0].iter().map(|f| 64 - f).sum();
        assert_eq!(consumed, 24);
    }

    #[test]
    fn timed_out_requests_query_but_never_inform() {
        let traces: Vec<RequestTrace> = (0..10)
            .map(|i| RequestTrace::timed_out(ClientId(i), DpId(0), SimTime::from_secs(u64::from(i))))
            .collect();
        let r = replay_protocol(&traces, &sites(2, 8), &equal_shares(2, 2).unwrap(), cfg(2, Topology::FullMesh));
        assert_eq!(r.queries_replayed, 10);
        assert_eq!(r.informs_replayed, 0);
        assert_eq!(r.per_dp[0].queries, 10);
        assert_eq!(r.per_dp[0].informs, 0);
        assert!(r.converged);
    }

    #[test]
    fn out_of_range_dp_binding_wraps() {
        let traces = vec![RequestTrace::answered(
            ClientId(0),
            DpId(9),
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
        )];
        let r = replay_protocol(&traces, &sites(2, 8), &equal_shares(2, 2).unwrap(), cfg(2, Topology::FullMesh));
        // DpId(9) % 2 == point 1.
        assert_eq!(r.per_dp[1].queries, 1);
        assert_eq!(r.per_dp[1].informs, 1);
    }

    #[test]
    fn crash_with_persistence_replays_wal_and_still_converges() {
        let r = replay_protocol(
            &answered_trace(30, 3),
            &sites(4, 64),
            &equal_shares(2, 2).unwrap(),
            crashy_cfg(3, 0), // never snapshot: recovery is pure WAL replay
        );
        assert_eq!(r.recoveries, 1);
        assert!(r.wal_records_replayed > 0, "nothing replayed: {r:?}");
        assert!(r.converged, "views diverged after recovery: {:?}", r.final_views);
        // The crashed point dropped its own traffic while down, so fewer
        // than 30 records survive — but everyone agrees on the survivors.
        let consumed: u32 = r.final_views[0].iter().map(|f| 64 - f).sum();
        assert!(consumed < 30 && consumed > 0, "consumed {consumed}");
    }

    #[test]
    fn snapshots_shrink_the_replayed_wal() {
        let full = replay_protocol(
            &answered_trace(30, 3),
            &sites(4, 64),
            &equal_shares(2, 2).unwrap(),
            crashy_cfg(3, 0),
        );
        let snapped = replay_protocol(
            &answered_trace(30, 3),
            &sites(4, 64),
            &equal_shares(2, 2).unwrap(),
            crashy_cfg(3, 2), // snapshot every 2 records
        );
        assert!(
            snapped.wal_records_replayed < full.wal_records_replayed,
            "snapshots did not shorten replay: {} vs {}",
            snapped.wal_records_replayed,
            full.wal_records_replayed
        );
        assert!(snapped.converged);
        assert_eq!(snapped.final_views, full.final_views);
    }

    #[test]
    fn crash_without_persistence_resumes_with_retained_state() {
        let mut c = crashy_cfg(3, 0);
        c.persist = false;
        let r = replay_protocol(&answered_trace(30, 3), &sites(4, 64), &equal_shares(2, 2).unwrap(), c);
        assert_eq!(r.recoveries, 1);
        assert_eq!(r.wal_records_replayed, 0);
        assert!(r.converged, "views diverged: {:?}", r.final_views);
    }

    /// A traced replay produces a full timeline — driver-level protocol
    /// events, engine-level merges, crash/recovery — and the health
    /// scorer's flag totals reconcile with the timeline counters.
    #[test]
    fn traced_replay_builds_a_timeline_with_health() {
        let rec = Recorder::new(obs::TraceConfig::default());
        let r = replay_protocol_traced(
            &answered_trace(30, 3),
            &sites(4, 64),
            &equal_shares(2, 2).unwrap(),
            crashy_cfg(3, 0),
            &rec,
        );
        assert_eq!(r.recoveries, 1);
        let tl = rec.finish(SimTime::from_secs(120)).unwrap();
        assert_eq!(tl.totals.issued, r.queries_replayed);
        assert_eq!(tl.totals.answered, r.informs_replayed);
        assert_eq!(tl.totals.failures, 1);
        assert_eq!(tl.totals.recoveries, 1);
        assert_eq!(tl.totals.wal_replayed, r.wal_records_replayed);
        let out: u64 = tl.dp_totals.iter().map(|d| d.exchanges_out).sum();
        let merged: u64 = tl.dp_totals.iter().map(|d| d.exchange_records_in).sum();
        assert!(out > 0, "floods must be traced");
        assert!(merged > 0, "merges must be traced");
        let health = &tl.health;
        assert!(!health.samples.is_empty(), "scored windows must exist");
        let degrades = health.flags.iter().filter(|f| f.degrading).count() as u64;
        assert_eq!(tl.totals.health_degrades, degrades);
    }

    /// A traced replay's timeline reconciles with the counters its points
    /// report: on a ring with no crash, every `exchange_sent` a point's
    /// step traced is a flood its node counted, and a restore replays in
    /// driver time, so no recovery takes a millisecond.
    #[test]
    fn traced_replay_reconciles_with_its_points() {
        let uslas = equal_shares(2, 2).unwrap();
        let rec = Recorder::new(obs::TraceConfig::default());
        let ring = cfg(4, Topology::Ring);
        let r = replay_protocol_traced(&answered_trace(40, 4), &sites(4, 64), &uslas, ring, &rec);
        let tl = rec.finish(SimTime::from_secs(200)).unwrap();
        let traced: Vec<(DpId, u64)> = tl.dp_totals.iter().map(|d| (d.dp, d.exchanges_out)).collect();
        let counted: Vec<(DpId, u64)> =
            r.per_dp.iter().enumerate().map(|(i, s)| (DpId(i as u32), s.floods_sent)).collect();
        assert_eq!(traced, counted);
        assert!(counted.iter().all(|&(_, floods)| floods > 0), "{counted:?}");

        let rec = Recorder::new(obs::TraceConfig::default());
        let r = replay_protocol_traced(&answered_trace(30, 3), &sites(4, 64), &uslas, crashy_cfg(3, 0), &rec);
        let tl = rec.finish(SimTime::from_secs(120)).unwrap();
        assert_eq!((r.recoveries, tl.totals.recoveries), (1, 1));
        assert_eq!(tl.totals.max_recovery_ms, 0);
    }

    /// The untraced entry point is byte-identical to a traced replay's
    /// report: tracing observes, it must not perturb.
    #[test]
    fn tracing_does_not_perturb_the_replay() {
        let traces = answered_trace(30, 3);
        let s = sites(4, 64);
        let u = equal_shares(2, 2).unwrap();
        let plain = replay_protocol(&traces, &s, &u, crashy_cfg(3, 2));
        let rec = Recorder::new(obs::TraceConfig::default());
        let traced = replay_protocol_traced(&traces, &s, &u, crashy_cfg(3, 2), &rec);
        assert_eq!(plain, traced);
    }

    /// Pins the order of `handle` calls (values recorded when every sync
    /// round still went through an event heap): trace entries land on exact
    /// multiples of the sync interval, where the round due then runs after
    /// them; point 1 crashes between two rounds and recovers from
    /// snapshot + WAL.
    #[test]
    fn ring_crash_replay_is_pinned() {
        let c = ProtocolReplayConfig { topology: Topology::Ring, ..crashy_cfg(4, 16) };
        let r = replay_protocol(&answered_trace(200, 4), &sites(4, 64), &equal_shares(2, 2).unwrap(), c);
        let per_dp: Vec<(u64, u64, u64)> = r
            .per_dp
            .iter()
            .map(|s| (s.flood_hash, s.records_merged, s.sync_rounds))
            .collect();
        assert_eq!(
            per_dp,
            [
                (0x6bdd1521a6a827a5, 147, 21),
                (0x0cd585de0a46dce3, 150, 20),
                (0xeaafb29f65fcc439, 147, 21),
                (0xf83a1284a38103fb, 147, 20),
            ]
        );
        assert_eq!((r.recoveries, r.wal_records_replayed), (1, 7));
    }

    /// What one driver event is, whichever way the order was built.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Query(usize),
        Inform(usize),
        Crash,
        Restore,
    }

    /// The driver's event list as it was built before the key sort: every
    /// event materialised, `seq` its position at insertion.
    struct TimedEv {
        at: SimTime,
        seq: u64,
        step: Step,
    }

    /// The reference order: push in trace order (query, then inform if
    /// answered), then the crash plan, and sort by `(at, insertion seq)`.
    fn reference_order(traces: &[RequestTrace], crash: Option<CrashPlan>) -> Vec<(SimTime, Step)> {
        let mut events: Vec<TimedEv> = Vec::new();
        for (i, t) in traces.iter().enumerate() {
            events.push(TimedEv { at: t.sent_at, seq: events.len() as u64, step: Step::Query(i) });
            if !t.handled() {
                continue;
            }
            let at = t.completed_at().unwrap_or(t.sent_at);
            events.push(TimedEv { at, seq: events.len() as u64, step: Step::Inform(i) });
        }
        if let Some(plan) = crash {
            events.push(TimedEv { at: plan.at, seq: events.len() as u64, step: Step::Crash });
            let back = plan.at + plan.down_for;
            events.push(TimedEv { at: back, seq: events.len() as u64, step: Step::Restore });
        }
        events.sort_unstable_by_key(|e| (e.at, e.seq));
        events.into_iter().map(|e| (e.at, e.step)).collect()
    }

    /// [`replay_order`]'s keys, decoded the way the driver decodes them.
    fn key_order(traces: &[RequestTrace], crash: Option<CrashPlan>) -> Vec<(SimTime, Step)> {
        let n = traces.len() as u64;
        replay_order(traces, crash)
            .map(|(at, seq)| {
                let step = match seq {
                    s if s == 2 * n => Step::Crash,
                    s if s == 2 * n + 1 => Step::Restore,
                    s if s % 2 == 0 => Step::Query((s / 2) as usize),
                    s => Step::Inform((s / 2) as usize),
                };
                (at, step)
            })
            .collect()
    }

    fn answered(client: u32, dp: u32, sent_ms: u64, response_ms: u64) -> RequestTrace {
        RequestTrace::answered(ClientId(client), DpId(dp), SimTime(sent_ms), SimDuration(response_ms))
    }

    /// Entry 0's inform and entry 1's query fall in the same millisecond
    /// on the same point; entry 2 was sent before both (unsorted trace).
    fn tied_trace() -> Vec<RequestTrace> {
        vec![answered(0, 0, 1_000, 500), answered(1, 0, 1_500, 250), answered(2, 1, 400, 1_100)]
    }

    #[test]
    fn key_order_is_the_old_insertion_order() {
        // (i) unsorted, with duplicates of one instant.
        let unsorted: Vec<RequestTrace> = (0..40u64)
            .map(|i| answered(i as u32, (i % 3) as u32, (i * 7_919) % 10_000, (i * 31) % 2_000))
            .collect();
        assert!(unsorted.windows(2).any(|w| w[0].sent_at > w[1].sent_at));
        assert_eq!(key_order(&unsorted, None), reference_order(&unsorted, None));

        // (ii) inform of one entry ties with the query of a later one.
        let tied = tied_trace();
        assert_eq!(key_order(&tied, None), reference_order(&tied, None));
        assert_eq!(
            key_order(&tied, None),
            [
                (SimTime(400), Step::Query(2)),
                (SimTime(1_000), Step::Query(0)),
                (SimTime(1_500), Step::Inform(0)),
                (SimTime(1_500), Step::Query(1)),
                (SimTime(1_500), Step::Inform(2)),
                (SimTime(1_750), Step::Inform(1)),
            ]
        );

        // (iii) timed-out entries query and never inform, late responses
        // included; the seq numbering keeps its gap.
        let mut gaps = tied_trace();
        gaps.insert(1, RequestTrace::timed_out(ClientId(9), DpId(0), SimTime(1_500)));
        gaps.push(RequestTrace::late(ClientId(8), DpId(1), SimTime(1_000), SimDuration(500)));
        let order = key_order(&gaps, None);
        assert_eq!(order, reference_order(&gaps, None));
        assert_eq!(order.len(), 2 * gaps.len() - 2);
        assert!(!order.iter().any(|&(_, s)| s == Step::Inform(1) || s == Step::Inform(4)));

        // (iv) crash and restore coincide with trace events: the plan
        // goes last at its instant.
        let plan = CrashPlan { at: SimTime(1_000), dp: 0, down_for: SimDuration(500) };
        let order = key_order(&tied, Some(plan));
        assert_eq!(order, reference_order(&tied, Some(plan)));
        assert_eq!(order[1..3], [(SimTime(1_000), Step::Query(0)), (SimTime(1_000), Step::Crash)]);
        assert_eq!(order[5..7], [(SimTime(1_500), Step::Inform(2)), (SimTime(1_500), Step::Restore)]);
        // A restore at the crash instant (down for zero) still follows it.
        let blip = CrashPlan { down_for: SimDuration(0), ..plan };
        assert_eq!(key_order(&unsorted, Some(blip)), reference_order(&unsorted, Some(blip)));
    }

    /// One trace entry from `(sent_at, outcome, response)`, in ms:
    /// outcome 0 answered, 1 timed out, 2 late.
    fn entry((sent, outcome, response): (u64, u8, u64)) -> RequestTrace {
        let (sent, response) = (SimTime(sent), SimDuration(response));
        match outcome {
            0 => RequestTrace::answered(ClientId(0), DpId(0), sent, response),
            1 => RequestTrace::timed_out(ClientId(0), DpId(0), sent),
            _ => RequestTrace::late(ClientId(0), DpId(0), sent, response),
        }
    }

    proptest::proptest! {
        /// The streamed order is the materialised one: sorted or unsorted
        /// traces, ties at every instant, zero responses, and a crash plan
        /// that may be down for zero and tie with entries.
        #[test]
        fn prop_streamed_order_is_the_reference_order(
            raw in proptest::collection::vec((0u64..50, 0u8..3, 0u64..20), 0..60),
            sorted in proptest::bool::ANY,
            crash in proptest::option::of((0u64..70, 0u64..20)),
        ) {
            let mut traces: Vec<RequestTrace> = raw.into_iter().map(entry).collect();
            if sorted {
                traces.sort_by_key(|t| t.sent_at);
            }
            let plan = crash.map(|(at, down)| CrashPlan {
                at: SimTime(at),
                dp: 0,
                down_for: SimDuration(down),
            });
            proptest::prop_assert_eq!(key_order(&traces, plan), reference_order(&traces, plan));
        }
    }

    /// The tie of `tied_trace`, as the recorder saw it: issue and answer
    /// events in replay order, literally.
    #[test]
    fn traced_replay_of_a_tie_is_in_key_order() {
        let rec = Recorder::new(obs::TraceConfig::default());
        replay_protocol_traced(
            &tied_trace(),
            &sites(4, 64),
            &equal_shares(2, 2).unwrap(),
            cfg(2, Topology::FullMesh),
            &rec,
        );
        let tl = rec.finish(SimTime::from_secs(60)).unwrap();
        assert_eq!(tl.dropped_raw, 0, "the raw ring must hold the whole replay");
        let seen: Vec<(u64, &str, u32)> = tl
            .recent
            .iter()
            .filter_map(|&(at_ms, ref event)| match *event {
                TraceEvent::QueryIssued { client, .. } => Some((at_ms, "issued", client.0)),
                TraceEvent::ResponseAnswered { client, .. } => Some((at_ms, "answered", client.0)),
                _ => None,
            })
            .collect();
        assert_eq!(
            seen,
            [
                (400, "issued", 2),
                (1_000, "issued", 0),
                (1_500, "answered", 0),
                (1_500, "issued", 1),
                (1_500, "answered", 2),
                (1_750, "answered", 1),
            ]
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let traces = answered_trace(40, 3);
        let s = sites(4, 64);
        let u = equal_shares(2, 2).unwrap();
        let a = replay_protocol(&traces, &s, &u, cfg(3, Topology::Gossip { fanout: 1 }));
        let b = replay_protocol(&traces, &s, &u, cfg(3, Topology::Gossip { fanout: 1 }));
        assert_eq!(a, b);
    }
}
