//! The one step every runtime wraps around a [`DpNode`].
//!
//! A runtime is its transport and its clock. What happens to
//! [`Effect::Persist`], when a snapshot is cut and how a crashed point
//! comes back are the same on desim, threads, trace replay and sockets, so
//! they are written once, here: [`NodeHost`] owns the node, its optional
//! [`Store`], the [`SnapshotPolicy`] and the [`Blueprint`] for a fresh
//! node. A runtime feeds it inputs and routes the [`Routed`] effects that
//! come back — delivery (latency, loss, partitions, retry, TCP) is all it
//! has left to decide.

use crate::{SnapshotPolicy, Store};
use bytes::Bytes;
use dpnode::{Dissemination, DpNode, Effect, FloodPayload, Input, NodeConfig, Topology};
use gruber_types::{DpId, GridError, SimDuration, SimTime, SiteSpec};
use obs::{Recorder, TraceEvent};
use simnet::codec::decode_inform;
use std::sync::Arc;
use usla::UslaSet;

/// Everything needed to build a decision point's node: the initial node
/// and every post-crash replacement come from the same blueprint, so they
/// are configured identically.
#[derive(Debug, Clone)]
pub struct Blueprint {
    /// The node's static configuration.
    pub cfg: NodeConfig,
    /// Static site knowledge (shared: every point of a deployment and
    /// every replacement node reads the same specs).
    pub sites: Arc<[SiteSpec]>,
    /// The USLA set the node starts from.
    pub uslas: Arc<UslaSet>,
    /// [`DpNode::set_track_live`]: keep the live-record map even without
    /// durability. Only desim's elastic pool sets it, so any member can
    /// sponsor a joiner; the wall-clock runtimes' pools are fixed.
    pub track_live: bool,
}

impl Blueprint {
    /// The paper's deployment as both wall-clock runtimes host it: full
    /// mesh, usage-only dissemination, sync rounds clocked from outside
    /// the node (a ticker or a control frame).
    pub fn paper_mesh(
        id: DpId,
        sites: Arc<[SiteSpec]>,
        uslas: Arc<UslaSet>,
        persist: bool,
    ) -> Blueprint {
        let cfg = NodeConfig {
            id,
            topology: Topology::FullMesh,
            dissemination: Dissemination::UsageOnly,
            sync_every: None,
            gossip_seed: 0,
            persist,
        };
        Blueprint {
            cfg,
            sites,
            uslas,
            track_live: false,
        }
    }

    fn build(&self) -> DpNode {
        let mut node = DpNode::new(self.cfg, &self.sites, &self.uslas);
        node.set_track_live(self.track_live);
        node
    }
}

/// What [`NodeHost::handle`] leaves for the runtime: [`Effect`] minus the
/// durability effects the host consumed (fields as in [`Effect`]). A new
/// [`Effect`] variant fails to compile in the host, and one added here in
/// both interpreters' `match`: [`crate::Point::step`] and desim's.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum Routed {
    /// Ship the availability response back to the querying client.
    Reply { free: Vec<u32>, denied: bool },
    /// Send one flood to each listed peer.
    FloodTo { peers: Vec<usize>, payload: FloodPayload },
}

/// A protocol input as a wall-clock runtime receives it: `simnet::codec` wire
/// bytes off a channel or a socket.
#[derive(Debug, Clone)]
pub enum WireInput {
    /// A client's dispatch inform ([`simnet::codec::encode_inform`]).
    Inform(Bytes),
    /// A peer's flooded records ([`simnet::codec::encode_deltas`]).
    PeerRecords(Bytes),
}

impl WireInput {
    /// The node input these bytes stand for. `None` is a malformed inform,
    /// dropped whole; a malformed flood is the node's to reject (it counts
    /// `decode_failures`).
    pub fn decode(self) -> Option<Input> {
        Some(match self {
            WireInput::Inform(bytes) => Input::Inform(decode_inform(bytes).ok()?),
            WireInput::PeerRecords(bytes) => Input::PeerRecords(FloodPayload::from_wire(bytes)),
        })
    }
}

/// What [`NodeHost::restore`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Restored {
    /// WAL operations replayed into the fresh node.
    pub records: u32,
    /// The store's modelled load + replay latency (zero for real stores,
    /// which pay in wall-clock time).
    pub cost: SimDuration,
}

/// One decision point as every runtime hosts it: the node plus everything
/// about its durability.
#[derive(Debug)]
pub struct NodeHost<S: Store> {
    node: DpNode,
    store: Option<S>,
    policy: SnapshotPolicy,
    last_snapshot: SimTime,
    blueprint: Blueprint,
    tracer: Recorder,
    recoveries: u64,
    wal_records_replayed: u64,
    scratch: Vec<Effect>,
}

impl<S: Store> NodeHost<S> {
    /// Builds the node from `blueprint` and installs `tracer` on it. With
    /// `store: None` nothing is journaled and a crashed point resumes with
    /// the state it held; `started` is when the snapshot policy's clock
    /// starts.
    pub fn new(
        blueprint: Blueprint,
        store: Option<S>,
        policy: SnapshotPolicy,
        tracer: Recorder,
        started: SimTime,
    ) -> Self {
        let mut node = blueprint.build();
        node.set_tracer(tracer.clone());
        NodeHost {
            node,
            store,
            policy,
            last_snapshot: started,
            blueprint,
            tracer,
            recoveries: 0,
            wal_records_replayed: 0,
            scratch: Vec::new(),
        }
    }

    /// The hosted node.
    pub fn node(&self) -> &DpNode {
        &self.node
    }

    /// Mutable access for driver glue (requeue, monitor snapshots, state
    /// transfer). Protocol inputs go through [`NodeHost::handle`].
    pub fn node_mut(&mut self) -> &mut DpNode {
        &mut self.node
    }

    /// Restarts completed ([`NodeHost::rejoin`]).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// WAL operations replayed across all restores.
    pub fn wal_records_replayed(&self) -> u64 {
        self.wal_records_replayed
    }

    /// Feeds one input to the node at `now` and appends what is left for
    /// the runtime to `out`. Every [`Effect::Persist`] is appended to the
    /// store; if that leaves a snapshot due (`SnapshotPolicy::due`) the
    /// node's state replaces the log. The snapshot is cut before the
    /// runtime routes this step's floods, so a flood it later has to
    /// [`DpNode::requeue`] is not in it (requeues are not journaled).
    ///
    /// `emit` receives each store operation's modelled cost and its trace
    /// event: desim emits at `now + cost`, a [`crate::Point`] at once.
    pub fn handle(
        &mut self,
        now: SimTime,
        input: Input,
        out: &mut Vec<Routed>,
        mut emit: impl FnMut(SimDuration, TraceEvent),
    ) {
        self.node.handle(now, input, &mut self.scratch);
        let dp = self.node.id();
        let mut appended = false;
        for effect in self.scratch.drain(..) {
            out.push(match effect {
                Effect::Reply { free, denied } => Routed::Reply { free, denied },
                Effect::FloodTo { peers, payload } => Routed::FloodTo { peers, payload },
                Effect::Persist(op) => {
                    if let Some(store) = &mut self.store {
                        emit(store.append(now, &op), TraceEvent::WalAppended { dp });
                        appended = true;
                    }
                    continue;
                }
            });
        }
        let (true, Some(store)) = (appended, &mut self.store) else {
            return;
        };
        if self.policy.due(store.wal_len(), now.since(self.last_snapshot)) {
            let records = store.wal_len() as u32;
            let (bytes, _live) = self.node.snapshot_encode(now);
            self.last_snapshot = now;
            emit(store.write_snapshot(&bytes), TraceEvent::SnapshotWritten { dp, records });
        }
    }

    /// Takes the point down: it drops every input until it rejoins.
    pub fn crash(&mut self) {
        self.node.set_up(false);
    }

    /// Rebuilds a crashed point's state: a fresh node from the blueprint,
    /// marked down, restores the store's snapshot and replays its WAL; the
    /// tracer goes in *after* the replay so recovered records are not
    /// re-emitted as protocol events. The point stays down until
    /// [`NodeHost::rejoin`], so a simulator can charge [`Restored::cost`]
    /// to its clock first.
    ///
    /// Without a store the node simply keeps what it held. A snapshot that
    /// does not decode is an error and leaves the host as it was. A point
    /// that is up over a store never written to is a process's first
    /// boot, not a restart: nothing is rebuilt.
    pub fn restore(&mut self, now: SimTime) -> Result<Restored, GridError> {
        let Some(store) = &mut self.store else {
            return Ok(Restored::default());
        };
        let recovery = store.recover();
        if self.node.up() && recovery.snapshot.is_none() && recovery.wal.is_empty() {
            return Ok(Restored::default());
        }
        let mut fresh = self.blueprint.build();
        fresh.set_up(false);
        let records = fresh.recover(recovery.snapshot.as_deref(), &recovery.wal, now)?;
        fresh.set_tracer(self.tracer.clone());
        self.node = fresh;
        self.wal_records_replayed += u64::from(records);
        Ok(Restored {
            records,
            cost: recovery.cost,
        })
    }

    /// Brings a down point back up and counts the recovery. Returns
    /// whether it was down.
    pub fn rejoin(&mut self) -> bool {
        let was_down = !self.node.up();
        if was_down {
            self.node.set_up(true);
            self.recoveries += 1;
        }
        was_down
    }
}
