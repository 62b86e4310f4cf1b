//! Configuration of one socket decision point.
//!
//! The `clusterd` binary reads a flat TOML file (`--config`), then lets
//! command-line flags override individual keys; in-process servers
//! (tests, the spawn-local harness) build [`ServerConfig`] directly. The
//! TOML support is a deliberate subset — `key = value` lines with
//! integers, booleans and quoted strings — parsed by hand so the runtime
//! stays registry-free (see `vendor/README.md`).

use gruber_types::{DpId, GridError, SiteId, SiteSpec};
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

/// One parsed `key = value` from the TOML subset.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// An unquoted integer.
    Int(u64),
    /// A `true`/`false` literal.
    Bool(bool),
    /// A double-quoted string (no escapes).
    Str(String),
}

/// Parses the flat TOML subset: one `key = value` per line, `#` comments,
/// blank lines ignored. Section headers, arrays, escapes, floats and a key
/// given twice are rejected — the config format is intentionally boring.
pub fn parse_toml(text: &str) -> Result<Vec<(String, TomlValue)>, GridError> {
    let mut out: Vec<(String, TomlValue)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let malformed = |why: String| GridError::Malformed {
            what: "config file",
            why: format!("line {}: {why}", lineno + 1),
        };
        // A comment starts at the first '#' outside a quoted value; a '#'
        // inside one is part of the value.
        let mut quoted = false;
        let end = raw
            .find(|c| {
                quoted ^= c == '"';
                c == '#' && !quoted
            })
            .unwrap_or(raw.len());
        let line = raw[..end].trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| malformed("expected key = value".into()))?;
        let key = key.trim().to_string();
        if out.iter().any(|(k, _)| *k == key) {
            return Err(malformed(format!("{key} given twice")));
        }
        let value = value.trim();
        let parsed = if let Some(stripped) = value.strip_prefix('"') {
            let inner = stripped
                .strip_suffix('"')
                .ok_or_else(|| malformed("unterminated string".into()))?;
            TomlValue::Str(inner.to_string())
        } else if value == "true" {
            TomlValue::Bool(true)
        } else if value == "false" {
            TomlValue::Bool(false)
        } else {
            TomlValue::Int(
                value
                    .parse::<u64>()
                    .map_err(|_| malformed(format!("bad value {value:?}")))?,
            )
        };
        out.push((key, parsed));
    }
    Ok(out)
}

/// Builds a homogeneous site list: `n_sites` single-cluster sites of
/// `cpus` CPUs each — the shape every experiment in this repo uses.
pub fn uniform_sites(n_sites: u32, cpus: u32) -> Vec<SiteSpec> {
    (0..n_sites)
        .map(|i| SiteSpec::single_cluster(SiteId(i), cpus))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_subset_parses_ints_bools_strings_and_comments() {
        let text = r#"
            # a comment
            id = 2
            listen = "127.0.0.1:4002"  # trailing comment
            allow_crash_exit = true
            data_dir = "/tmp/run#1" # scratch
        "#;
        let kv = parse_toml(text).unwrap();
        assert_eq!(
            kv,
            vec![
                ("id".to_string(), TomlValue::Int(2)),
                (
                    "listen".to_string(),
                    TomlValue::Str("127.0.0.1:4002".to_string())
                ),
                ("allow_crash_exit".to_string(), TomlValue::Bool(true)),
                (
                    "data_dir".to_string(),
                    TomlValue::Str("/tmp/run#1".to_string())
                ),
            ]
        );
    }

    #[test]
    fn toml_subset_rejects_garbage() {
        assert!(parse_toml("id 2").is_err());
        assert!(parse_toml("id = 2.5").is_err());
        assert!(parse_toml("listen = \"unterminated").is_err());
        assert!(parse_toml("id = 1\nid = 2").is_err());
    }
}
