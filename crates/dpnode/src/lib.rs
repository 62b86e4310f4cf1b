//! The decision-point protocol, as a pure state machine.
//!
//! The paper's central claim is that DI-GRUBER's *protocol* — query →
//! availability → dispatch → inform, plus the periodic peer flooding of
//! recent dispatch records — is what scales, independent of the GT3/GT4
//! transport it rides on. This crate is that protocol with the transport
//! removed: a [`DpNode`] consumes typed [`Input`]s and returns typed
//! [`Effect`]s, and owns **no** clock, channel, scheduler or socket. The
//! caller supplies `now` with every input and executes the effects however
//! it likes (sans-IO).
//!
//! Three runtimes drive the same node:
//!
//! ```text
//!                      ┌───────────────────────────┐
//!   desim events ────▶ │                           │ ────▶ scheduled events
//!   (digruber::events) │                           │       (retry/faults in driver)
//!                      │   DpNode::handle(now,     │
//!   locked calls ────▶ │        Input) -> Effects  │ ────▶ peer inboxes
//!   (digruber::live)   │                           │
//!                      │  (engine + topology +     │
//!   trace records ───▶ │   flood log + stats)      │ ────▶ replay report
//!   (grubsim::protocol)└───────────────────────────┘
//! ```
//!
//! What stays *outside* the node, by design:
//!
//! * **Time** — every [`DpNode::handle`] call takes `now: SimTime`.
//! * **Delivery** — [`Effect::FloodTo`] names peer indices; the driver
//!   decides latency, loss, retry/backoff, partitions (`simnet::retry`
//!   and `digruber::faults` live at the driver layer).
//! * **Timers** — the node never clocks itself: every driver runs its own
//!   cadence (the sim's `sync_round` event, the wall-clock runtimes' ticker,
//!   a replay's rounds) and feeds [`Input::SyncTick`].
//! * **Durability** — a persisting node ([`NodeConfig::persist`]) emits
//!   [`Effect::Persist`] write-ahead-log operations and serialises
//!   snapshots on request ([`DpNode::snapshot_encode`]); the store, its
//!   fsync/latency cost and the snapshot cadence belong to
//!   `dpstore::NodeHost`, the one step every runtime wraps around its
//!   node. Crash recovery is [`DpNode::recover`]: restore the snapshot,
//!   replay the [`WalOp`] log.
//!
//! Peer selection ([`sync_peers_of`]) lives here too, so FullMesh / Ring /
//! Star / Gossip / Hierarchical / HybridEpidemic behave identically in every
//! runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod topology;

pub use node::{
    record_to_delta, DpNode, DpNodeStats, Effect, FloodPayload, Input, NodeConfig, WalOp,
};
pub use topology::{convergence_bound, sync_peers_of, Dissemination, Topology};
