//! Real-socket multi-process decision-point cluster: the fourth runtime.
//!
//! DI-GRUBER's headline claim is that decision points are *deployed
//! services* — the paper measures 1–10 of them on real Grid3/PlanetLab
//! hosts, over the wire. The other three runtimes in this workspace
//! drive the same sans-IO [`dpnode::DpNode`] from a discrete-event
//! simulator (`desim`), from OS threads over channels
//! (`digruber::live`), and from recorded traces (`grubsim`); this crate
//! drives it from **TCP sockets between OS processes**, hand-rolled on
//! `std::net` — no async runtime, no registry dependencies.
//!
//! ## Shape
//!
//! * `server` — one decision point as a TCP server: an accept loop and
//!   thread-per-connection readers that step a [`dpstore::Point`]
//!   — the step `digruber::live` runs too, which owns the
//!   [`dpnode::DpNode`] and its `dpstore::FileStore` WAL — behind one
//!   lock, over the TCP transport.
//! * `conn` — the connection edge the server, `peer` and `client`
//!   share: the hello exchange for both roles, the handshake and write
//!   deadlines, the one frame reader, the frame → `NodeMsg` mapping, and
//!   the [`conn::CloseReason`] every connection ends with.
//! * `peer` (internal) — per-peer flood senders with lazy connect and
//!   reconnect-with-backoff (`simnet::retry` policies on real sleeps);
//!   a send that exhausts its budget requeues into the next sync round.
//! * `client` — the synchronous client: queries with real timeouts,
//!   informs, and the operator control frames (sync, peers, stats,
//!   crash, shutdown).
//! * `harness` — the `--spawn-local n` driver: forks an n-process
//!   loopback cluster, broadcasts the peer table, drives a ground-truth
//!   workload, injects crashes, respawns, and collects stats.
//! * `proto` — frame kinds and the socket-only payloads; the hello and
//!   frame envelope encodings live in [`simnet::codec`], and every
//!   shared payload (informs, floods, queries) reuses the existing
//!   codec byte-for-byte.
//!
//! ## Guarantees
//!
//! The point's lock orders every state change, and each connection's
//! frames are stepped in FIFO order — the same per-link ordering the
//! simulator and thread drivers provide. That is why
//! `tests/sim_live_equivalence.rs` can demand byte-identical flood
//! hashes across all three interactive drivers, crash-and-WAL-recovery
//! included. A crashed process (`exit(9)`, no goodbye) recovers by
//! replaying its own snapshot + WAL on restart, then rejoins the mesh
//! at a fresh port once the driver rebroadcasts the peer table.
//!
//! Operations guide: `DEPLOYMENT.md` at the repo root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod config;
mod conn;
mod harness;
mod peer;
mod proto;
mod server;

pub use client::ClusterClient;
pub use config::{uniform_sites, ServerConfig};
pub use conn::{check_hello, hello, pop, request, CloseReason, Role, WRITE_DEADLINE};
pub use harness::{dev_binary, drive_workload, LocalCluster, SpawnOpts};
pub use proto::{
    decode_free, decode_peers, decode_stats, encode_free_frame, encode_peers, encode_stats,
    ClusterDpStats, FRAME_INFORM, FRAME_PEERS, FRAME_QUERY, FRAME_RECORDS,
};
pub use server::Server;
