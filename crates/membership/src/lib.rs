//! Elastic membership for a DI-GRUBER deployment.
//!
//! The paper connects decision points in a static mesh and binds each
//! submission host to one decision point "in the beginning"; its Section 5
//! proposes — but never implements — a third-party observer that
//! reconfigures the infrastructure as load changes. This crate is that
//! observer's state, kept **sans-IO** in the `dpnode` style: pure state
//! machines a runtime drives with observations and whose decisions the
//! runtime executes. Nothing here schedules events, touches sockets, or
//! reads clocks — the desim driver, the thread runtime, and tests all
//! drive the same three pieces:
//!
//! * [`MembershipTable`] — the epoch-stamped member list. Joins and
//!   leaves are first-class protocol inputs: each bumps the epoch, so two
//!   runtimes can compare tables by `(epoch, members)` alone.
//! * [`HashRing`] — consistent hashing with virtual nodes, replacing the
//!   paper's static client→DP binding. Vnode positions are deterministic
//!   in `(seed, dp, replica)` and independent of insertion order, so a
//!   join re-homes only the ~`1/n` clients whose arc the newcomer claims
//!   and a leave re-homes only the leaver's own clients.
//! * [`Autoscaler`] — the observer's control loop: it consumes pool
//!   samples (backlog per decision point, degraded-point counts from the
//!   `obs` health scorer) and answers grow / shrink / hold with
//!   hysteresis and a post-action cooldown, so a noisy minute never flaps
//!   the pool.
//!
//! This crate is the workspace's only pool-sizing mechanism. The desim
//! integration (ring-based client homing, join bootstrap from a peer
//! snapshot, drain-then-leave, the autoscaler tick) lives in
//! `digruber::elastic`; the thread-runtime integration in
//! `digruber::live`; ARCHITECTURE.md "Elastic membership" describes both.
//! `BENCH_topology.json` pins the measured behaviour by exchange
//! topology × DP count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ring;
pub mod scaler;
pub mod table;

pub use ring::HashRing;
pub use scaler::{Autoscaler, PoolSample, ScaleDecision, ScalerConfig};
pub use table::{MemberState, MembershipTable};

use gruber_types::SimDuration;

/// Configuration for the elastic-membership subsystem. `None` at the
/// deployment level (the default everywhere) reproduces the paper: static
/// binding, fixed pool, byte-identical fingerprints with pre-membership
/// builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipConfig {
    /// Virtual nodes per decision point on the consistent-hash ring.
    /// More vnodes smooth the load split at the cost of ring size; 64
    /// keeps the max/mean client imbalance under ~30 % at 100 DPs.
    pub vnodes: u32,
    /// How often the runtime samples the pool and consults the
    /// autoscaler. Ignored when `scaler` is `None`.
    pub check_interval: SimDuration,
    /// The autoscaler policy; `None` keeps the pool fixed (ring homing
    /// and explicit join/leave still work).
    pub scaler: Option<ScalerConfig>,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            vnodes: 64,
            check_interval: SimDuration::from_secs(30),
            scaler: Some(ScalerConfig::default()),
        }
    }
}

impl MembershipConfig {
    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), gruber_types::GridError> {
        if self.vnodes == 0 {
            return Err(gruber_types::GridError::InvalidConfig(
                "membership with zero vnodes".into(),
            ));
        }
        if self.scaler.is_some() && self.check_interval.is_zero() {
            return Err(gruber_types::GridError::InvalidConfig(
                "autoscaler with zero check interval".into(),
            ));
        }
        if let Some(s) = &self.scaler {
            s.validate()?;
        }
        Ok(())
    }
}
