//! The [`DpNode`] state machine: inputs in, effects out, no IO.

use crate::topology::{sync_peers_of, Dissemination, Topology};
use bytes::Bytes;
use desim::DetRng;
use gruber::GruberEngine;
use gruber_types::{
    DispatchRecord, DpId, Fnv1a, GridError, JobId, JobSpec, SimDuration, SimTime, SiteSpec,
};
use simnet::codec::{encode_deltas, iter_deltas, Reader};
use std::collections::BTreeMap;
use std::hash::Hasher;
use usla::{UslaSet, VersionedEntry};

/// Identity: `perf/src/kernels.rs` (frozen) still calls it; ROADMAP item 4(a) drops it.
pub fn record_to_delta(r: &DispatchRecord) -> DispatchRecord { *r }

/// One exchange flood, as it leaves a node: the dispatch records already
/// in wire form (every runtime ships these exact bytes), plus the typed
/// USLA deltas of `UsageAndUslas` dissemination.
#[derive(Debug, Clone)]
pub struct FloodPayload {
    /// Wire-encoded dispatch records ([`simnet::codec::encode_deltas`]).
    pub records: Bytes,
    /// Record count, read from the payload's length header.
    pub n_records: u32,
    /// USLA deltas riding along (empty under `UsageOnly`/`NoExchange`).
    pub uslas: Vec<VersionedEntry>,
}

impl FloodPayload {
    /// Wraps raw wire bytes received from a peer (no USLA deltas). The
    /// count header is read opportunistically for accounting; a malformed
    /// payload still fails, whole, when the node reads it.
    pub fn from_wire(records: Bytes) -> Self {
        let n_records = Reader::new("deltas", records.as_ref()).u32().unwrap_or(0);
        FloodPayload {
            records,
            n_records,
            uslas: Vec::new(),
        }
    }
}

/// Everything that can happen *to* a decision point.
///
/// The driver is responsible for delivery semantics (latency, loss,
/// retries, partitions); by the time an input reaches the node, it has
/// arrived.
#[derive(Debug, Clone)]
pub enum Input {
    /// An availability query reached the container and was served.
    /// `admission` carries the job when the deployment enforces USLAs
    /// (`None` reproduces the paper's recommender-only mode).
    QueryArrived {
        /// Job to run the USLA admission check against, if enforcing.
        admission: Option<JobSpec>,
    },
    /// A client informs the point of the dispatch it just performed.
    Inform(DispatchRecord),
    /// An exchange round fired, clocked by the driver (the sim's
    /// `sync_round` event, live mode's ticker thread, a replay's round).
    SyncTick {
        /// Current deployment size (dynamic mode grows it at runtime).
        n_dps: usize,
    },
    /// A peer's exchange flood arrived.
    PeerRecords(FloodPayload),
}

/// Everything a decision point asks its driver to do.
#[derive(Debug, Clone)]
pub enum Effect {
    /// Ship the availability response back to the querying client.
    Reply {
        /// Believed free CPUs per site.
        free: Vec<u32>,
        /// USLA admission denied the job (enforcing deployments only).
        denied: bool,
    },
    /// Send one flood to each listed peer. The driver owns latency, loss,
    /// retry and partition checks per leg.
    FloodTo {
        /// Peer indices chosen by [`sync_peers_of`].
        peers: Vec<usize>,
        /// The payload every peer receives (identical bytes).
        payload: FloodPayload,
    },
    /// Append one operation to the node's write-ahead log. Only emitted
    /// when [`NodeConfig::persist`] is set; the driver owns the store and
    /// charges its append/fsync cost — the node never does IO.
    Persist(WalOp),
}

/// One durable write-ahead-log operation, surfaced via
/// [`Effect::Persist`] when [`NodeConfig::persist`] is set. Replaying a
/// WAL (after restoring the latest snapshot) through
/// `DpNode::replay_wal` reconstructs the node's view, outgoing flood
/// log and protocol counters — except `floods_merged` and
/// `decode_failures`, which count per-payload events the per-record log
/// does not retain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalOp {
    /// A client inform this node processed. Logged whether or not the
    /// view accepted it, so the `informs` counter replays exactly;
    /// duplicates are re-rejected deterministically on replay.
    Own(DispatchRecord),
    /// A peer record that was fresh for this node's view when merged.
    /// Stale duplicates are not logged: replay re-accepts exactly the
    /// records the live node accepted.
    Peer(DispatchRecord),
    /// A sync round drained the outgoing log into a flood. Carries the
    /// post-flood state needed to replay the drain without re-encoding.
    Drained {
        /// Dispatch records in the drained payload.
        records: u32,
        /// Peers the flood was addressed to (0 when a single-point
        /// deployment flooded into the void).
        peers: u32,
        /// The node's running flood hash *after* folding this payload.
        flood_hash: u64,
    },
}

/// Protocol counters a node keeps about itself, identical across
/// runtimes — the basis of the sim/live equivalence test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpNodeStats {
    /// Availability queries served.
    pub queries: u64,
    /// Client informs folded into the view.
    pub informs: u64,
    /// Sync rounds that actually produced a flood payload (empty-log
    /// rounds are silent).
    pub sync_rounds: u64,
    /// Per-peer flood sends requested (one `FloodTo` to three peers
    /// counts three).
    pub floods_sent: u64,
    /// Dispatch records shipped in flood payloads (per payload, not per
    /// peer copy).
    pub records_flooded: u64,
    /// Peer floods merged.
    pub floods_merged: u64,
    /// Peer records that were new to this node's view when merged.
    pub records_merged: u64,
    /// Incoming payloads dropped because they failed to decode.
    pub decode_failures: u64,
    /// Crash transitions observed.
    pub crashes: u64,
    /// FNV-1a 64 over the wire bytes of every flood payload this node
    /// produced, in order — byte-identical protocol behaviour across
    /// runtimes shows up as equal hashes.
    pub flood_hash: u64,
}

impl Default for DpNodeStats {
    fn default() -> Self {
        DpNodeStats {
            queries: 0,
            informs: 0,
            sync_rounds: 0,
            floods_sent: 0,
            records_flooded: 0,
            floods_merged: 0,
            records_merged: 0,
            decode_failures: 0,
            crashes: 0,
            flood_hash: Fnv1a::default().finish(),
        }
    }
}

/// Static configuration of one [`DpNode`].
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// The decision point's identity (also its peer index).
    pub id: DpId,
    /// Exchange topology this node selects peers under.
    pub topology: Topology,
    /// What the node disseminates each round.
    pub dissemination: Dissemination,
    /// Read by nothing; `perf/src/kernels.rs` (frozen) still writes it; ROADMAP item 4(a) drops it.
    pub sync_every: Option<SimDuration>,
    /// Seed for the gossip peer-selection stream (only drawn from under
    /// `Topology::Gossip` with a sub-mesh fanout).
    pub gossip_seed: u64,
    /// When true, the node emits [`Effect::Persist`] for every applied
    /// record and drained flood, and tracks the live record set backing
    /// its view so [`DpNode::snapshot_encode`] can serialise it.
    /// Persistence is strictly opt-in: a `persist: false` node emits no
    /// extra effects and keeps no extra state.
    pub persist: bool,
}

/// One decision point's protocol state machine: the GRUBER engine (view +
/// USLA store + outgoing flood log) plus topology, liveness and counters.
/// Pure sans-IO — see the crate docs for the driver contract.
#[derive(Debug)]
pub struct DpNode {
    id: DpId,
    engine: GruberEngine,
    topology: Topology,
    dissemination: Dissemination,
    gossip_rng: DetRng,
    monitor_free: Option<Vec<u32>>,
    up: bool,
    stats: DpNodeStats,
    persist: bool,
    /// Maintain [`DpNode::state_transfer`]'s live-record map even without
    /// durability (desim's elastic pool needs it to bootstrap joiners).
    track_live: bool,
    /// The unexpired dispatch records currently backing the view —
    /// maintained only under [`NodeConfig::persist`] (always empty
    /// otherwise) so snapshots can rebuild the view without `GridView`
    /// exposing its internals. A `BTreeMap` keeps snapshot encoding
    /// order deterministic (sorted by job id).
    live: BTreeMap<JobId, DispatchRecord>,
    /// How many records survived the last prune of `live`; the map is
    /// pruned again on the insert that doubles it.
    live_floor: usize,
}

impl DpNode {
    /// Builds a node over full static site knowledge and a USLA set.
    pub fn new(cfg: NodeConfig, sites: &[SiteSpec], uslas: &UslaSet) -> Self {
        DpNode {
            id: cfg.id,
            engine: GruberEngine::new(sites, uslas),
            topology: cfg.topology,
            dissemination: cfg.dissemination,
            gossip_rng: DetRng::new(cfg.gossip_seed, 0xD15C ^ u64::from(cfg.id.0)),
            monitor_free: None,
            up: true,
            stats: DpNodeStats::default(),
            persist: cfg.persist,
            track_live: cfg.persist,
            live: BTreeMap::new(),
            live_floor: 0,
        }
    }

    /// The node's identity.
    pub fn id(&self) -> DpId {
        self.id
    }

    /// Maintains the live-record map behind [`DpNode::state_transfer`]
    /// even without durability. Only desim's elastic pool switches this
    /// on, so any member can sponsor a joiner; it is implied by `persist`.
    pub fn set_track_live(&mut self, on: bool) {
        self.track_live = on || self.persist;
    }

    /// Drops the records of `live` that have expired by `now`.
    fn prune_live(&mut self, now: SimTime) {
        self.live.retain(|_, rec| rec.est_finish > now);
        self.live_floor = self.live.len();
    }

    /// Adds an accepted record to `live`, pruning once the map has doubled
    /// since the last prune (amortised O(1) per record): nothing else
    /// bounds it on a node that never snapshots or sponsors a joiner.
    fn keep_live(&mut self, rec: DispatchRecord, now: SimTime) {
        // Below this size a prune is not worth its walk.
        const MIN_PRUNE_LEN: usize = 64;
        self.live.insert(rec.job, rec);
        if self.live.len() >= (2 * self.live_floor).max(MIN_PRUNE_LEN) {
            self.prune_live(now);
        }
    }

    /// Whether the point is currently alive.
    pub fn up(&self) -> bool {
        self.up
    }

    /// Liveness toggle: the point crashed (`false`) or restarted (`true`).
    /// What survives the crash is the host's recovery policy: keep this
    /// node instance, or swap in a fresh one and replay a durable
    /// snapshot + WAL via [`DpNode::recover`].
    pub fn set_up(&mut self, up: bool) {
        if self.up && !up {
            self.stats.crashes += 1;
        }
        self.up = up;
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> DpNodeStats {
        self.stats
    }

    /// Read access to the brokering engine (counters, staleness probes).
    pub fn engine(&self) -> &GruberEngine {
        &self.engine
    }

    /// Mutable access to the brokering engine. Driver glue and tests
    /// only — protocol steps must go through [`DpNode::handle`].
    pub fn engine_mut(&mut self) -> &mut GruberEngine {
        &mut self.engine
    }

    /// Installs a trace recorder on the engine, attributed to this node.
    pub fn set_tracer(&mut self, tracer: obs::Recorder) {
        self.engine.set_tracer(tracer, self.id);
    }

    /// Installs a fresh site-monitor snapshot; subsequent queries answer
    /// from it instead of from dispatch tracking (monitor-mode
    /// deployments).
    pub fn set_monitor_snapshot(&mut self, free: Vec<u32>) {
        self.monitor_free = Some(free);
    }

    /// Puts an undeliverable flood back on the outgoing log so the next
    /// round retransmits it (the driver calls this when its delivery of a
    /// [`Effect::FloodTo`] was blocked by a partition and the retry
    /// budget ran out — a partition delays state, it must not destroy
    /// it).
    pub fn requeue(&mut self, payload: &FloodPayload) {
        if let Ok(records) = iter_deltas(payload.records.as_ref()) {
            self.engine.requeue_outgoing(records);
        }
    }

    /// Feeds one input at time `now`; effects are appended to `out`.
    ///
    /// A down node consumes nothing.
    pub fn handle(&mut self, now: SimTime, input: Input, out: &mut Vec<Effect>) {
        match input {
            Input::QueryArrived { admission } => {
                if !self.up {
                    return;
                }
                self.stats.queries += 1;
                let denied = match admission {
                    Some(job) => !self.engine.admission(&job, now).admitted(),
                    None => false,
                };
                let free = match &self.monitor_free {
                    // Monitor mode: answer from the latest snapshot.
                    Some(snapshot) => snapshot.clone(),
                    // Paper mode: answer from dispatch tracking.
                    None => self.engine.availability(now),
                };
                out.push(Effect::Reply { free, denied });
            }
            Input::Inform(record) => {
                if !self.up {
                    return; // an inform reaching a crashed point is lost
                }
                self.stats.informs += 1;
                let accepted = self.engine.record_dispatch(record, now);
                if accepted && self.track_live {
                    self.keep_live(record, now);
                }
                if self.persist {
                    out.push(Effect::Persist(WalOp::Own(record)));
                }
            }
            Input::SyncTick { n_dps } => self.flood(now, n_dps, out),
            Input::PeerRecords(payload) => {
                if !self.up {
                    return; // flood arrived at a crashed point
                }
                // The count is checked against the bytes before the first
                // record is read, so a malformed flood merges nothing.
                let Ok(records) = iter_deltas(payload.records.as_ref()) else {
                    self.stats.decode_failures += 1;
                    return;
                };
                // Non-mesh topologies forward transitively: records new to
                // this node re-enter its own outgoing log (de-duplication
                // by job id terminates forwarding loops).
                let forward = self.topology != Topology::FullMesh;
                let mut fresh_recs = Vec::new();
                let sink = self.track_live.then_some(&mut fresh_recs);
                let fresh = self.engine.merge_peer_records(records, now, forward, sink);
                for rec in fresh_recs {
                    self.keep_live(rec, now);
                    if self.persist {
                        out.push(Effect::Persist(WalOp::Peer(rec)));
                    }
                }
                self.stats.floods_merged += 1;
                self.stats.records_merged += fresh as u64;
                self.engine.uslas_mut().merge_delta(&payload.uslas);
            }
        }
    }

    /// One exchange round: drain the log (and, under `UsageAndUslas`, the
    /// USLA deltas), pick peers, emit a single [`Effect::FloodTo`] with
    /// the wire payload every peer receives. Silent when there is nothing
    /// to send; records are discarded when there are no peers to send to
    /// (a single-point deployment floods into the void).
    fn flood(&mut self, _now: SimTime, n_dps: usize, out: &mut Vec<Effect>) {
        if !self.up || self.dissemination == Dissemination::NoExchange {
            // A crashed point neither floods nor drains its log; what it
            // brokered before the crash goes out when it rejoins.
            return;
        }
        let n_records = self.engine.pending_log_len() as u32;
        let uslas = if self.dissemination == Dissemination::UsageAndUslas {
            self.engine.uslas().delta_since(0)
        } else {
            Vec::new()
        };
        if n_records == 0 && uslas.is_empty() {
            return;
        }
        let records = self.engine.drain_log();
        self.stats.sync_rounds += 1;
        self.stats.records_flooded += u64::from(n_records);
        let mut hash = Fnv1a::resume(self.stats.flood_hash);
        hash.write(records.as_ref());
        self.stats.flood_hash = hash.finish();
        let peers = sync_peers_of(self.topology, self.id.index(), n_dps, &mut self.gossip_rng);
        if self.persist {
            // Logged even into-the-void: the drain itself must replay so
            // a recovered log does not resurrect already-flooded records.
            out.push(Effect::Persist(WalOp::Drained {
                records: n_records,
                peers: peers.len() as u32,
                flood_hash: self.stats.flood_hash,
            }));
        }
        if peers.is_empty() {
            return;
        }
        self.stats.floods_sent += peers.len() as u64;
        out.push(Effect::FloodTo {
            peers,
            payload: FloodPayload {
                n_records,
                records,
                uslas,
            },
        });
    }

    /// Serialises the node's durable state: protocol counters, engine
    /// counters, the live (unexpired) dispatch records backing the view
    /// and the pending outgoing flood log — both record blocks in
    /// [`simnet::codec::encode_deltas`] wire form. Expired live records
    /// are pruned first, so snapshot size tracks the working set, not
    /// history. Returns the encoded bytes and the number of live records
    /// included. Only meaningful under [`NodeConfig::persist`].
    pub fn snapshot_encode(&mut self, now: SimTime) -> (Vec<u8>, u32) {
        self.prune_live(now);
        let s = &self.stats;
        let (dispatched, merged) = self.engine.counters();
        let mut buf = Vec::with_capacity(128 + DispatchRecord::WIRE_LEN * self.live.len());
        buf.push(SNAPSHOT_VERSION);
        for v in [
            s.queries,
            s.informs,
            s.sync_rounds,
            s.floods_sent,
            s.records_flooded,
            s.floods_merged,
            s.records_merged,
            s.decode_failures,
            s.crashes,
            s.flood_hash,
            dispatched,
            merged,
            self.engine.last_merge_at().map_or(u64::MAX, |t| t.0),
            self.engine.max_merge_gap().0,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let live = encode_deltas(self.live.values());
        for block in [live.as_ref(), self.engine.outgoing()] {
            buf.extend_from_slice(&(block.len() as u32).to_le_bytes());
            buf.extend_from_slice(block);
        }
        (buf, self.live.len() as u32)
    }

    /// Packages the node's live (unexpired) dispatch records as a
    /// [`FloodPayload`] suitable for bootstrapping a newly joined peer
    /// through the ordinary [`Input::PeerRecords`] path. Unlike
    /// [`DpNode::snapshot_encode`]/[`DpNode::snapshot_decode`] — which
    /// restore protocol counters and the merge gap and are only correct
    /// when replayed into the *same* identity — this carries records
    /// only, so the newcomer's own counters and staleness accounting
    /// start from its join time. Expired records are pruned first.
    pub fn state_transfer(&mut self, now: SimTime) -> FloodPayload {
        self.prune_live(now);
        FloodPayload {
            n_records: self.live.len() as u32,
            records: encode_deltas(self.live.values()),
            uslas: Vec::new(),
        }
    }

    /// Restores state serialised by [`DpNode::snapshot_encode`] into this
    /// (freshly built) node. Parsing is all-or-nothing: a truncated or
    /// malformed snapshot errors without half-restoring. Live records
    /// that expired while the point was down (`est_finish <= now`) are
    /// dropped on restore. Returns how many live records were restored.
    pub fn snapshot_decode(&mut self, bytes: &[u8], now: SimTime) -> Result<u32, GridError> {
        let mut r = Reader::new("snapshot", bytes);
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(r.malformed(format!("unknown version {version}")));
        }
        let mut words = [0u64; 14];
        for w in &mut words {
            *w = r.u64()?;
        }
        let live_len = r.u32()? as usize;
        let live = iter_deltas(r.take(live_len)?)?;
        let out_len = r.u32()? as usize;
        let outgoing = iter_deltas(r.take(out_len)?)?;
        r.finish()?;
        self.stats = DpNodeStats {
            queries: words[0],
            informs: words[1],
            sync_rounds: words[2],
            floods_sent: words[3],
            records_flooded: words[4],
            floods_merged: words[5],
            records_merged: words[6],
            decode_failures: words[7],
            crashes: words[8],
            flood_hash: words[9],
        };
        let last_merge = (words[12] != u64::MAX).then_some(SimTime(words[12]));
        self.engine
            .restore_counters(words[10], words[11], last_merge, SimDuration(words[13]));
        let mut restored = 0u32;
        for rec in live {
            if self.engine.view_mut().observe(&rec, now) {
                self.keep_live(rec, now);
                restored += 1;
            }
        }
        self.engine.requeue_outgoing(outgoing);
        Ok(restored)
    }

    /// Replays a write-ahead log (the [`WalOp`]s this node emitted via
    /// [`Effect::Persist`] since its last snapshot, in order, with their
    /// original timestamps). Emits no effects and draws no randomness:
    /// replay is pure state reconstruction. Returns the number of
    /// operations replayed.
    pub(crate) fn replay_wal(&mut self, wal: &[(SimTime, WalOp)]) -> u32 {
        for &(at, op) in wal {
            match op {
                WalOp::Own(rec) => {
                    self.stats.informs += 1;
                    if self.engine.record_dispatch(rec, at) {
                        self.keep_live(rec, at);
                    }
                }
                WalOp::Peer(rec) => {
                    let forward = self.topology != Topology::FullMesh;
                    if self.engine.merge_peer_records([rec], at, forward, None) == 1 {
                        self.stats.records_merged += 1;
                        self.keep_live(rec, at);
                    }
                }
                WalOp::Drained {
                    records,
                    peers,
                    flood_hash,
                } => {
                    let _ = self.engine.drain_log();
                    self.stats.sync_rounds += 1;
                    self.stats.records_flooded += u64::from(records);
                    self.stats.floods_sent += u64::from(peers);
                    self.stats.flood_hash = flood_hash;
                }
            }
        }
        wal.len() as u32
    }

    /// Crash recovery in one call: restore the latest snapshot (if any),
    /// then replay the post-snapshot WAL. Call on a freshly built node
    /// *before* installing a tracer, so replay does not re-emit trace
    /// events the original run already recorded. Returns the number of
    /// WAL operations replayed.
    pub fn recover(
        &mut self,
        snapshot: Option<&[u8]>,
        wal: &[(SimTime, WalOp)],
        now: SimTime,
    ) -> Result<u32, GridError> {
        if let Some(bytes) = snapshot {
            self.snapshot_decode(bytes, now)?;
        }
        Ok(self.replay_wal(wal))
    }
}

/// Snapshot wire-format version ([`DpNode::snapshot_encode`]).
const SNAPSHOT_VERSION: u8 = 1;

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

    fn node(id: u32) -> DpNode {
        DpNode::new(
            NodeConfig {
                id: DpId(id),
                topology: Topology::FullMesh,
                dissemination: Dissemination::UsageOnly,
                sync_every: None,
                gossip_seed: 7,
                persist: false,
            },
            &sites(),
            &equal_shares(2, 2).unwrap(),
        )
    }

    fn rec(job: u32, site: u32, cpus: u32) -> DispatchRecord {
        DispatchRecord {
            job: JobId(job),
            site: SiteId(site),
            vo: VoId(0),
            group: GroupId(0),
            cpus,
            dispatched_at: SimTime::ZERO,
            est_finish: SimTime::from_secs(3600),
        }
    }

    fn drive(n: &mut DpNode, input: Input) -> Vec<Effect> {
        let mut out = Vec::new();
        n.handle(SimTime::from_secs(1), input, &mut out);
        out
    }

    #[test]
    fn query_replies_with_availability() {
        let mut n = node(0);
        drive(&mut n, Input::Inform(rec(1, 0, 8)));
        let fx = drive(&mut n, Input::QueryArrived { admission: None });
        match &fx[..] {
            [Effect::Reply { free, denied }] => {
                assert_eq!(free, &vec![8, 16, 16, 16]);
                assert!(!denied);
            }
            other => panic!("expected one Reply, got {other:?}"),
        }
        assert_eq!(n.stats().queries, 1);
        assert_eq!(n.stats().informs, 1);
    }

    #[test]
    fn monitor_snapshot_overrides_dispatch_tracking() {
        let mut n = node(0);
        drive(&mut n, Input::Inform(rec(1, 0, 8)));
        n.set_monitor_snapshot(vec![5, 5, 5, 5]);
        let fx = drive(&mut n, Input::QueryArrived { admission: None });
        match &fx[..] {
            [Effect::Reply { free, .. }] => assert_eq!(free, &vec![5, 5, 5, 5]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sync_tick_floods_drained_log_to_mesh_peers() {
        let mut n = node(0);
        drive(&mut n, Input::Inform(rec(1, 0, 2)));
        drive(&mut n, Input::Inform(rec(2, 1, 3)));
        let fx = drive(&mut n, Input::SyncTick { n_dps: 3 });
        let flood = fx.iter().find_map(|e| match e {
            Effect::FloodTo { peers, payload } => Some((peers.clone(), payload.clone())),
            _ => None,
        });
        let (peers, payload) = flood.expect("no FloodTo");
        assert_eq!(peers, vec![1, 2]);
        assert_eq!(payload.n_records, 2);
        let records: Vec<_> = iter_deltas(payload.records.as_ref()).unwrap().collect();
        assert_eq!(records, vec![rec(1, 0, 2), rec(2, 1, 3)]);
        assert_eq!(n.stats().sync_rounds, 1);
        assert_eq!(n.stats().floods_sent, 2);
        assert_eq!(n.stats().records_flooded, 2);
        // Empty log: the next tick is silent.
        assert!(drive(&mut n, Input::SyncTick { n_dps: 3 }).is_empty());
    }

    #[test]
    fn single_node_discards_flood_into_the_void() {
        let mut n = node(0);
        drive(&mut n, Input::Inform(rec(1, 0, 2)));
        let fx = drive(&mut n, Input::SyncTick { n_dps: 1 });
        assert!(
            !fx.iter().any(|e| matches!(e, Effect::FloodTo { .. })),
            "{fx:?}"
        );
        // The log was drained anyway: next round has nothing to send.
        assert!(drive(&mut n, Input::SyncTick { n_dps: 1 }).is_empty());
    }

    #[test]
    fn peer_records_merge_without_reflooding_under_mesh() {
        let mut a = node(0);
        let mut b = node(1);
        drive(&mut a, Input::Inform(rec(1, 0, 4)));
        let fx = drive(&mut a, Input::SyncTick { n_dps: 2 });
        let payload = fx
            .iter()
            .find_map(|e| match e {
                Effect::FloodTo { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .unwrap();
        drive(&mut b, Input::PeerRecords(payload));
        assert_eq!(b.stats().floods_merged, 1);
        assert_eq!(b.stats().records_merged, 1);
        // b must NOT re-flood what it merged from a.
        assert!(drive(&mut b, Input::SyncTick { n_dps: 2 }).is_empty());
    }

    #[test]
    fn non_mesh_topologies_forward_fresh_records() {
        let mk = |id| {
            DpNode::new(
                NodeConfig {
                    id: DpId(id),
                    topology: Topology::Ring,
                    dissemination: Dissemination::UsageOnly,
                    sync_every: None,
                    gossip_seed: 7,
                    persist: false,
                },
                &sites(),
                &equal_shares(2, 2).unwrap(),
            )
        };
        let mut a = mk(0);
        let mut b = mk(1);
        drive(&mut a, Input::Inform(rec(1, 0, 4)));
        let fx = drive(&mut a, Input::SyncTick { n_dps: 3 });
        let payload = fx
            .iter()
            .find_map(|e| match e {
                Effect::FloodTo { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .unwrap();
        drive(&mut b, Input::PeerRecords(payload));
        // Under ring, b forwards a's record onward next round.
        let fx = drive(&mut b, Input::SyncTick { n_dps: 3 });
        let flood = fx.iter().find_map(|e| match e {
            Effect::FloodTo { peers, payload } => Some((peers.clone(), payload.n_records)),
            _ => None,
        });
        assert_eq!(flood, Some((vec![2], 1)));
    }

    #[test]
    fn truncated_payload_is_rejected_whole() {
        let mut n = node(0);
        let bad = FloodPayload::from_wire(Bytes::from_static(b"\x02\x00\x00\x00"));
        assert!(drive(&mut n, Input::PeerRecords(bad)).is_empty());
        assert_eq!(n.stats().decode_failures, 1);
        assert_eq!(n.stats().records_merged, 0);
    }

    #[test]
    fn down_node_consumes_nothing_but_restart() {
        let mut n = node(0);
        drive(&mut n, Input::Inform(rec(1, 0, 4)));
        n.set_up(false);
        assert!(!n.up());
        assert_eq!(n.stats().crashes, 1);
        assert!(drive(&mut n, Input::QueryArrived { admission: None }).is_empty());
        assert!(drive(&mut n, Input::SyncTick { n_dps: 2 }).is_empty());
        drive(&mut n, Input::Inform(rec(2, 1, 4)));
        assert_eq!(n.stats().informs, 1, "inform to a crashed point is lost");
        // Engine state persists across the crash: the pre-crash record
        // floods out after the restart.
        n.set_up(true);
        let fx = drive(&mut n, Input::SyncTick { n_dps: 2 });
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::FloodTo { payload, .. } if payload.n_records == 1
        )));
    }

    #[test]
    fn requeue_retransmits_next_round() {
        let mut n = node(0);
        drive(&mut n, Input::Inform(rec(1, 0, 4)));
        let fx = drive(&mut n, Input::SyncTick { n_dps: 2 });
        let payload = fx
            .iter()
            .find_map(|e| match e {
                Effect::FloodTo { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .unwrap();
        n.requeue(&payload);
        let fx = drive(&mut n, Input::SyncTick { n_dps: 2 });
        assert!(fx.iter().any(|e| matches!(
            e,
            Effect::FloodTo { payload, .. } if payload.n_records == 1
        )));
    }

    #[test]
    fn flood_hash_tracks_payload_bytes() {
        let mut a = node(0);
        let mut b = node(0);
        for n in [&mut a, &mut b] {
            drive(n, Input::Inform(rec(1, 0, 4)));
            drive(n, Input::SyncTick { n_dps: 2 });
        }
        assert_eq!(a.stats().flood_hash, b.stats().flood_hash);
        assert_ne!(a.stats().flood_hash, DpNodeStats::default().flood_hash);
        // A different payload diverges the hash.
        let mut c = node(0);
        drive(&mut c, Input::Inform(rec(2, 1, 4)));
        drive(&mut c, Input::SyncTick { n_dps: 2 });
        assert_ne!(c.stats().flood_hash, a.stats().flood_hash);
    }

    #[test]
    fn usage_and_uslas_rides_usla_deltas_on_the_flood() {
        let mut n = DpNode::new(
            NodeConfig {
                id: DpId(0),
                topology: Topology::FullMesh,
                dissemination: Dissemination::UsageAndUslas,
                sync_every: None,
                gossip_seed: 7,
                persist: false,
            },
            &sites(),
            &equal_shares(2, 2).unwrap(),
        );
        let fx = drive(&mut n, Input::SyncTick { n_dps: 2 });
        let payload = fx
            .iter()
            .find_map(|e| match e {
                Effect::FloodTo { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .expect("USLA-only flood still goes out");
        assert_eq!(payload.n_records, 0);
        assert!(!payload.uslas.is_empty());
    }

    // --- persistence -----------------------------------------------------

    fn pnode(id: u32) -> DpNode {
        DpNode::new(
            NodeConfig {
                id: DpId(id),
                topology: Topology::FullMesh,
                dissemination: Dissemination::UsageOnly,
                sync_every: None,
                gossip_seed: 7,
                persist: true,
            },
            &sites(),
            &equal_shares(2, 2).unwrap(),
        )
    }

    /// Drives one input and appends any emitted WAL ops (with the drive
    /// timestamp) to `wal`, as a persisting driver would.
    fn drive_logged(n: &mut DpNode, input: Input, wal: &mut Vec<(SimTime, WalOp)>) -> Vec<Effect> {
        let fx = drive(n, input);
        for e in &fx {
            if let Effect::Persist(op) = e {
                wal.push((SimTime::from_secs(1), *op));
            }
        }
        fx
    }

    #[test]
    fn persist_off_emits_no_persist_effects() {
        let mut n = node(0);
        let mut fx = drive(&mut n, Input::Inform(rec(1, 0, 2)));
        fx.extend(drive(&mut n, Input::SyncTick { n_dps: 3 }));
        assert!(
            !fx.iter().any(|e| matches!(e, Effect::Persist(_))),
            "{fx:?}"
        );
    }

    #[test]
    fn wal_ops_cover_informs_merges_and_drains() {
        let mut a = pnode(0);
        let mut wal = Vec::new();
        drive_logged(&mut a, Input::Inform(rec(1, 0, 2)), &mut wal);
        // Duplicate informs are logged too: `informs` must replay exactly.
        drive_logged(&mut a, Input::Inform(rec(1, 0, 2)), &mut wal);
        drive_logged(&mut a, Input::SyncTick { n_dps: 3 }, &mut wal);
        let mut c = node(1);
        drive(&mut c, Input::Inform(rec(9, 2, 5)));
        let fx = drive(&mut c, Input::SyncTick { n_dps: 3 });
        let payload = fx
            .iter()
            .find_map(|e| match e {
                Effect::FloodTo { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .unwrap();
        drive_logged(&mut a, Input::PeerRecords(payload), &mut wal);
        let ops: Vec<&WalOp> = wal.iter().map(|(_, op)| op).collect();
        assert!(matches!(ops[0], WalOp::Own(r) if r.job == JobId(1)));
        assert!(matches!(ops[1], WalOp::Own(r) if r.job == JobId(1)));
        assert!(
            matches!(ops[2], WalOp::Drained { records: 1, peers: 2, .. }),
            "{:?}",
            ops[2]
        );
        assert!(matches!(ops[3], WalOp::Peer(r) if r.job == JobId(9)));
        assert_eq!(ops.len(), 4);
    }

    #[test]
    fn snapshot_plus_wal_recovers_to_identical_node() {
        let mut a = pnode(0);
        let mut wal = Vec::new();
        drive_logged(&mut a, Input::Inform(rec(1, 0, 2)), &mut wal);
        drive_logged(&mut a, Input::Inform(rec(2, 1, 3)), &mut wal);
        drive_logged(&mut a, Input::SyncTick { n_dps: 3 }, &mut wal);
        drive_logged(&mut a, Input::Inform(rec(3, 2, 4)), &mut wal);
        // Snapshot with a non-empty outgoing log (rec 3 not yet flooded);
        // the WAL from here on is what a store would hold post-truncation.
        let (snap, live_records) = a.snapshot_encode(SimTime::from_secs(1));
        assert_eq!(live_records, 3);
        wal.clear();
        drive_logged(&mut a, Input::Inform(rec(4, 3, 5)), &mut wal);
        let mut c = node(1);
        drive(&mut c, Input::Inform(rec(9, 2, 5)));
        let fx = drive(&mut c, Input::SyncTick { n_dps: 3 });
        let payload = fx
            .iter()
            .find_map(|e| match e {
                Effect::FloodTo { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .unwrap();
        drive_logged(&mut a, Input::PeerRecords(payload), &mut wal);

        let mut b = pnode(0);
        let replayed = b
            .recover(Some(&snap), &wal, SimTime::from_secs(2))
            .unwrap();
        assert_eq!(replayed, 2);
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.informs, sb.informs);
        assert_eq!(sa.sync_rounds, sb.sync_rounds);
        assert_eq!(sa.floods_sent, sb.floods_sent);
        assert_eq!(sa.records_flooded, sb.records_flooded);
        assert_eq!(sa.records_merged, sb.records_merged);
        assert_eq!(sa.flood_hash, sb.flood_hash);
        assert_eq!(a.engine().counters(), b.engine().counters());
        assert_eq!(a.engine().last_merge_at(), b.engine().last_merge_at());
        assert_eq!(
            a.engine_mut().availability(SimTime::from_secs(2)),
            b.engine_mut().availability(SimTime::from_secs(2))
        );
        // The next flood is byte-identical: rec 3 (requeued from the
        // snapshot's outgoing log) then rec 4 (replayed WAL inform).
        let fa = drive(&mut a, Input::SyncTick { n_dps: 3 });
        let fb = drive(&mut b, Input::SyncTick { n_dps: 3 });
        let bytes = |fx: &[Effect]| {
            fx.iter()
                .find_map(|e| match e {
                    Effect::FloodTo { payload, .. } => Some(payload.records.clone()),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(bytes(&fa).as_ref(), bytes(&fb).as_ref());
        assert_eq!(bytes(&fa).len(), 4 + 2 * 36);
        assert_eq!(a.stats().flood_hash, b.stats().flood_hash);
    }

    #[test]
    fn recover_without_snapshot_replays_full_wal() {
        let mut a = pnode(0);
        let mut wal = Vec::new();
        drive_logged(&mut a, Input::Inform(rec(1, 0, 2)), &mut wal);
        drive_logged(&mut a, Input::SyncTick { n_dps: 3 }, &mut wal);
        let mut b = pnode(0);
        assert_eq!(b.recover(None, &wal, SimTime::from_secs(2)).unwrap(), 2);
        assert_eq!(b.stats().flood_hash, a.stats().flood_hash);
        assert_eq!(b.stats().records_flooded, 1);
        // The drain replayed: nothing to re-flood.
        assert!(drive(&mut b, Input::SyncTick { n_dps: 3 }).is_empty());
    }

    #[test]
    fn snapshot_prunes_expired_records() {
        let mut a = pnode(0);
        drive(&mut a, Input::Inform(rec(1, 0, 2))); // est_finish = 3600 s
        drive(&mut a, Input::SyncTick { n_dps: 3 });
        let (snap, live_records) = a.snapshot_encode(SimTime::from_secs(7200));
        assert_eq!(live_records, 0, "expired record must not be snapshot");
        let mut b = pnode(0);
        b.recover(Some(&snap), &[], SimTime::from_secs(7200)).unwrap();
        assert_eq!(
            b.engine_mut().availability(SimTime::from_secs(7200)),
            vec![16, 16, 16, 16]
        );
    }

    #[test]
    fn corrupt_snapshot_errors_without_panicking() {
        let mut a = pnode(0);
        drive(&mut a, Input::Inform(rec(1, 0, 2)));
        let (snap, _) = a.snapshot_encode(SimTime::from_secs(1));
        for end in 0..snap.len() {
            let mut b = pnode(0);
            assert!(
                b.snapshot_decode(&snap[..end], SimTime::from_secs(1)).is_err(),
                "truncation at {end} must error"
            );
        }
        let mut bad = snap.clone();
        bad[0] = 0xFF; // unknown version
        assert!(pnode(0).snapshot_decode(&bad, SimTime::from_secs(1)).is_err());
        let mut trailing = snap;
        trailing.push(0);
        assert!(pnode(0)
            .snapshot_decode(&trailing, SimTime::from_secs(1))
            .is_err());
    }

    #[test]
    fn live_map_is_pruned_without_a_snapshot() {
        // A thread cluster without persistence, or an elastic run between
        // joins: nothing ever calls snapshot_encode / state_transfer.
        let mut n = node(0);
        n.set_track_live(true);
        let inputs: Vec<DispatchRecord> = (0..20_000u32)
            .map(|i| DispatchRecord {
                dispatched_at: SimTime::from_secs(u64::from(i)),
                est_finish: SimTime::from_secs(u64::from(i) + 1),
                ..rec(i, i % 4, 1)
            })
            .collect();
        let mut out = Vec::new();
        for r in &inputs {
            n.handle(r.dispatched_at, Input::Inform(*r), &mut out);
            assert!(n.live.len() <= 64, "live map grew to {}", n.live.len());
        }
        // Pruning early must not change what a joiner is sent.
        for now in [SimTime::from_secs(19_999), SimTime::from_secs(20_000)] {
            let oracle: Vec<DispatchRecord> = inputs
                .iter()
                .filter(|r| r.est_finish > now)
                .copied()
                .collect();
            let sent = n.state_transfer(now);
            assert_eq!(sent.n_records as usize, oracle.len());
            assert_eq!(sent.records.as_ref(), encode_deltas(&oracle).as_ref());
        }
    }
}
