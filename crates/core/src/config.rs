//! Experiment and deployment configuration.

use gruber_types::SimDuration;
use simnet::{ServiceProfile, WanTopology};

/// Which Globus Toolkit service stack a decision point runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// GT3 (the paper's first implementation).
    Gt3,
    /// The GT 3.9.4 prerelease of GT4 (the paper's port — slower than GT3).
    Gt4Prerelease,
    /// Bare service-instance creation (Figure 1's micro-benchmark).
    Gt3InstanceCreation,
}

impl ServiceKind {
    /// The calibrated cost profile.
    pub fn profile(self) -> ServiceProfile {
        match self {
            ServiceKind::Gt3 => ServiceProfile::gt3(),
            ServiceKind::Gt4Prerelease => ServiceProfile::gt4_prerelease(),
            ServiceKind::Gt3InstanceCreation => ServiceProfile::gt3_instance_creation(),
        }
    }
}

/// Which network the deployment runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WanKind {
    /// PlanetLab-like WAN (the paper's testbed).
    PlanetLab,
    /// LAN (the paper's conclusion expects much better performance here;
    /// used by the ablation bench).
    Lan,
}

impl WanKind {
    /// Builds the topology for this network kind.
    pub fn topology(self, seed: u64) -> WanTopology {
        match self {
            WanKind::PlanetLab => WanTopology::planetlab(seed),
            WanKind::Lan => WanTopology::lan(seed),
        }
    }
}

/// Client-side query timeout (the paper's 30 s): on expiry the client
/// selects a site at random without considering USLAs.
pub const CLIENT_TIMEOUT: SimDuration = SimDuration::from_secs(30);

// The dissemination strategy and exchange topology are protocol-level
// concepts and live in the sans-IO protocol core, shared by every runtime;
// re-exported here so `digruber::SyncTopology` / `digruber::Dissemination`
// keep working.
pub use dpnode::Dissemination;
pub use dpnode::Topology as SyncTopology;

/// Decision-point failure injection (paper Section 2.2: "another problem
/// often encountered in large distributed environments concerns service
/// reliability and availability [...] We cannot afford for this
/// infrastructure to fail").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureConfig {
    /// Mean time between failures per decision point (exponential).
    pub dp_mtbf: SimDuration,
    /// Mean repair time (exponential).
    pub dp_repair: SimDuration,
    /// Consecutive client timeouts before the client re-binds to another
    /// decision point (`0` disables failover: clients stay with their dead
    /// point, as a strictly static binding would).
    pub failover_after: u32,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            dp_mtbf: SimDuration::from_mins(20),
            dp_repair: SimDuration::from_mins(10),
            failover_after: 2,
        }
    }
}

/// What a crashed decision point does with its state when it restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// The restarted point keeps its in-memory state (the pre-PR-5
    /// behaviour and the default): a crash pauses the point but loses
    /// nothing. Zero-cost — runs are byte-identical to builds without
    /// persistence.
    Retain,
    /// The restarted point comes back empty and rejoins the mesh with a
    /// fresh view (the PR 3 graceful-degradation baseline).
    EmptyRejoin,
    /// The point journals every applied record to a write-ahead log and
    /// snapshots per [`PersistenceConfig::policy`]; on restart it replays
    /// snapshot + log (charging the modeled IO cost to the clock) instead
    /// of rejoining empty.
    Persist,
}

/// Durability configuration for decision-point state (the `dpstore` WAL +
/// snapshot subsystem).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistenceConfig {
    /// What restarted decision points recover from.
    pub mode: RecoveryMode,
    /// When to fold the WAL into a snapshot (ignored unless
    /// [`RecoveryMode::Persist`]).
    pub policy: dpstore::SnapshotPolicy,
}

impl Default for PersistenceConfig {
    fn default() -> Self {
        PersistenceConfig {
            mode: RecoveryMode::Retain,
            policy: dpstore::SnapshotPolicy {
                every_records: 64,
                every: SimDuration::from_secs(60),
            },
        }
    }
}

/// Full configuration of a DI-GRUBER deployment/experiment.
#[derive(Debug, Clone)]
pub struct DigruberConfig {
    /// Initial number of decision points.
    pub n_dps: usize,
    /// Peer state-exchange interval (the paper's default is 3 minutes).
    pub sync_interval: SimDuration,
    /// Service stack of the decision points.
    pub service: ServiceKind,
    /// Network the deployment runs over.
    pub wan: WanKind,
    /// Dissemination strategy.
    pub dissemination: Dissemination,
    /// Exchange topology.
    pub topology: SyncTopology,
    /// Whether decision points enforce USLA admission verdicts (the
    /// paper's experiments use GRUBER "only as a site recommender" —
    /// `false`).
    pub enforce_uslas: bool,
    /// Optional decision-point failure injection (reliability study).
    pub failures: Option<FailureConfig>,
    /// Crash-recovery mode and snapshot policy (default
    /// [`RecoveryMode::Retain`], the pre-durability behaviour).
    pub persistence: PersistenceConfig,
    /// Optional deterministic fault schedule: timed partitions, loss /
    /// duplication / reorder windows, slowdowns and planned crash-restarts
    /// (see `FAULTS.md` and [`crate::faults::FaultPlan::parse`]).
    pub fault_plan: Option<crate::faults::FaultPlan>,
    /// Retry/timeout/backoff policies per message class, applied to
    /// client→DP queries and DP↔DP exchange legs. The default
    /// ([`simnet::RetryConfig::NONE`]) reproduces the paper's
    /// fire-and-forget behaviour.
    pub retry: simnet::RetryConfig,
    /// Optional GRUBER queue-manager limit: max jobs a submission host may
    /// have in flight (dispatched but unfinished). `None` reproduces the
    /// paper's experiments, which bypass the queue manager.
    pub max_jobs_in_flight: Option<u32>,
    /// Optional custom USLA set (defaults to equal fair shares over the
    /// workload's VOs and groups, the symmetric configuration of the
    /// scalability runs).
    pub uslas: Option<usla::UslaSet>,
    /// Optional site-monitor refresh interval. When set, decision points
    /// answer availability queries from periodic ground-truth monitoring
    /// snapshots (the paper's "GRUBER site monitor [...] can be replaced
    /// with various other grid monitoring components, such as MonALISA")
    /// instead of from dispatch tracking. `None` reproduces the paper's
    /// experiments.
    pub monitor_refresh: Option<SimDuration>,
    /// Grid scale factor (10 = the paper's "ten times larger than Grid3").
    pub grid_factor: usize,
    /// Experiment RNG seed.
    pub seed: u64,
    /// Optional structured tracing: when set, the run installs an
    /// `obs::Recorder` into every scheduler, engine and service station
    /// and the output carries a per-decision-point timeline. `None` (the
    /// default) costs one untaken branch per instrumented call.
    pub trace: Option<obs::TraceConfig>,
    /// Optional elastic membership: consistent-hash client homing plus
    /// the [`crate::elastic`] autoscaler control loop driving dynamic
    /// decision point join/leave. `None` (the default) keeps the paper's
    /// static random binding and a fixed pool — runs are byte-identical
    /// to builds without the subsystem.
    pub membership: Option<crate::elastic::MembershipConfig>,
}

impl DigruberConfig {
    /// The paper's Section 4 setup with `n_dps` decision points on the
    /// given service stack: 3-minute exchanges, PlanetLab WAN, least-used
    /// selection, usage-only dissemination, Grid3×10 (the 30 s client
    /// timeout is [`CLIENT_TIMEOUT`]).
    pub fn paper(n_dps: usize, service: ServiceKind, seed: u64) -> Self {
        DigruberConfig {
            n_dps,
            sync_interval: SimDuration::from_mins(3),
            service,
            wan: WanKind::PlanetLab,
            dissemination: Dissemination::UsageOnly,
            topology: SyncTopology::FullMesh,
            enforce_uslas: false,
            failures: None,
            persistence: PersistenceConfig::default(),
            fault_plan: None,
            retry: simnet::RetryConfig::NONE,
            max_jobs_in_flight: None,
            uslas: None,
            monitor_refresh: None,
            grid_factor: 10,
            seed,
            trace: None,
            membership: None,
        }
    }

    /// A small, fast configuration for tests and the quickstart example.
    pub fn small(n_dps: usize, seed: u64) -> Self {
        DigruberConfig {
            grid_factor: 1,
            ..DigruberConfig::paper(n_dps, ServiceKind::Gt3, seed)
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), gruber_types::GridError> {
        if self.n_dps == 0 {
            return Err(gruber_types::GridError::InvalidConfig(
                "need at least one decision point".into(),
            ));
        }
        if self.sync_interval.is_zero() && self.dissemination != Dissemination::NoExchange {
            return Err(gruber_types::GridError::InvalidConfig(
                "zero sync interval".into(),
            ));
        }
        if self.grid_factor == 0 {
            return Err(gruber_types::GridError::InvalidConfig(
                "zero grid factor".into(),
            ));
        }
        match self.topology {
            SyncTopology::Gossip { fanout: 0 } => {
                return Err(gruber_types::GridError::InvalidConfig(
                    "gossip with zero fanout".into(),
                ));
            }
            SyncTopology::Hierarchical { branching: 0 } => {
                return Err(gruber_types::GridError::InvalidConfig(
                    "hierarchical with zero branching".into(),
                ));
            }
            SyncTopology::HybridEpidemic { fanout: 0 } => {
                return Err(gruber_types::GridError::InvalidConfig(
                    "hybrid epidemic with zero fanout".into(),
                ));
            }
            // Star hubs beyond the pool clamp to the last point by design
            // (see `dpnode::Topology::Star`), so any hub index is valid.
            _ => {}
        }
        if let Some(m) = &self.membership {
            m.validate()?;
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(self.n_dps)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_prose() {
        let c = DigruberConfig::paper(3, ServiceKind::Gt3, 1);
        c.validate().unwrap();
        assert_eq!(c.sync_interval, SimDuration::from_mins(3));
        assert_eq!(c.grid_factor, 10);
        assert_eq!(c.dissemination, Dissemination::UsageOnly);
        assert!(!c.enforce_uslas);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = DigruberConfig::paper(0, ServiceKind::Gt3, 1);
        assert!(c.validate().is_err());
        c.n_dps = 1;
        c.grid_factor = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_sync_allowed_only_without_exchange() {
        let mut c = DigruberConfig::paper(2, ServiceKind::Gt3, 1);
        c.sync_interval = SimDuration::ZERO;
        assert!(c.validate().is_err());
        c.dissemination = Dissemination::NoExchange;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fault_plan_is_validated_against_deployment_size() {
        let mut c = DigruberConfig::paper(2, ServiceKind::Gt3, 1);
        c.fault_plan = Some(crate::faults::FaultPlan::parse("crash@10=5+10").unwrap());
        assert!(c.validate().is_err(), "crash dp 5 with only 2 dps");
        c.fault_plan = Some(crate::faults::FaultPlan::parse("crash@10=1+10").unwrap());
        c.validate().unwrap();
    }

    #[test]
    fn service_kinds_map_to_profiles() {
        assert_eq!(ServiceKind::Gt3.profile().name, "GT3");
        assert_eq!(ServiceKind::Gt4Prerelease.profile().name, "GT4-prerelease");
        assert!(ServiceKind::Gt3InstanceCreation
            .profile()
            .name
            .contains("instance"));
    }
}
