//! Configuration of one socket decision point.
//!
//! The `clusterd` binary builds a [`ServerConfig`] from its flags, read
//! by `gruber_types::CommandLine`; in-process servers (tests, the
//! spawn-local harness) build it directly.

use gruber_types::{DpId, SiteId, SiteSpec};
use simnet::RetryPolicy;
use std::path::PathBuf;
use std::time::Duration;
use usla::UslaSet;

/// Everything one socket decision point needs to serve.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// This decision point's id (also its index in the peer mesh).
    pub(crate) id: DpId,
    /// Total decision points in the cluster (sizes `SyncTick`'s mesh).
    pub(crate) n_dps: usize,
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub listen: String,
    /// Initial peer address table. Usually empty — the driver broadcasts
    /// the table with a `peers` control frame once every process has
    /// bound and reported its actual address.
    pub peers: Vec<(DpId, String)>,
    /// The grid the point brokers over (must be identical cluster-wide).
    pub(crate) sites: Vec<SiteSpec>,
    /// The USLA allocations (must be identical cluster-wide).
    pub(crate) uslas: UslaSet,
    /// Durable WAL/snapshot directory. `None` disables persistence (the
    /// point rejoins empty after a crash, the paper's seed behaviour).
    pub data_dir: Option<PathBuf>,
    /// Snapshot cadence: [`dpstore::SnapshotPolicy::records`] of this.
    pub snapshot_records: u32,
    /// Self-clocked sync cadence. `None` floods only on `sync` control
    /// frames — what the deterministic tests use.
    pub sync_interval: Option<Duration>,
    /// Reconnect/retransmit policy for peer flood sends.
    pub retry: RetryPolicy,
    /// Whether a `crash` control frame hard-kills the process
    /// (`exit(9)`). Only the binary sets this; in-process servers mark
    /// the node down instead so tests survive.
    pub allow_process_exit: bool,
}

impl ServerConfig {
    /// A config with the deployment defaults: loopback ephemeral port,
    /// no persistence, ticker off, and the clusterd reconnect policy
    /// (jittered exponential backoff, 100 ms base, 1 s cap, 4 retries).
    pub fn new(id: DpId, n_dps: usize, sites: Vec<SiteSpec>, uslas: UslaSet) -> ServerConfig {
        ServerConfig {
            id,
            n_dps,
            listen: "127.0.0.1:0".to_string(),
            peers: Vec::new(),
            sites,
            uslas,
            data_dir: None,
            snapshot_records: 0,
            sync_interval: None,
            retry: default_retry(),
            allow_process_exit: false,
        }
    }
}

/// The default peer reconnect policy: exponential backoff with jitter,
/// 100 ms base, 1 s cap, 4 retransmissions — a dead peer costs a flood
/// under two seconds of retrying before it requeues.
pub(crate) fn default_retry() -> RetryPolicy {
    RetryPolicy::ExpJitter {
        base: gruber_types::SimDuration::from_millis(100),
        cap: gruber_types::SimDuration::from_secs(1),
        max_retries: 4,
    }
}

/// Builds a homogeneous site list: `n_sites` single-cluster sites of
/// `cpus` CPUs each — the shape every experiment in this repo uses.
pub fn uniform_sites(n_sites: u32, cpus: u32) -> Vec<SiteSpec> {
    (0..n_sites)
        .map(|i| SiteSpec::single_cluster(SiteId(i), cpus))
        .collect()
}
