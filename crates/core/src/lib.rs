//! DI-GRUBER: the distributed grid USLA resource broker.
//!
//! This crate is the paper's primary contribution: a two-layer scheduling
//! infrastructure in which multiple GRUBER decision points coexist, each
//! serving a statically-bound subset of submission hosts, loosely
//! synchronized by periodic flooding of recent job-dispatch information
//! over a full mesh.
//!
//! * [`config`] — experiment/deployment configuration (number of decision
//!   points, exchange interval, client timeout, GT3 vs GT4 service
//!   profile, WAN vs LAN, dissemination strategy, elastic membership);
//! * [`world`] — the discrete-event world wiring clients, decision points,
//!   the simulated WAN and the emulated grid together;
//! * [`events`] — [`events::Ev`], the catalogue of every event a run
//!   schedules, and the handlers implementing the protocol: query →
//!   service queue → availability response → client-side site selection →
//!   dispatch + inform, with client-side timeouts falling back to random
//!   USLA-blind selection;
//! * [`run`] — one-call experiment execution producing the paper's
//!   figures/tables inputs ([`run::ExperimentOutput`]);
//! * [`metrics`] — the paper's job-level metrics (QTime, Util, Accuracy)
//!   and the Table 1–2 rows [`run`] reduces them into;
//! * [`elastic`] — the paper's Section 5 third-party observer: the
//!   sans-IO member table, hash ring and autoscaler, and their desim
//!   driver (pool join/leave, ring re-homing, the autoscaler tick);
//! * [`live`] — the same decision-point protocol under real OS-thread
//!   concurrency, each call a locked step on the caller's thread
//!   (transport-agnosticism proof; used by integration tests and one
//!   example).

//! # Example
//!
//! ```
//! use digruber::{config::DigruberConfig, run_experiment};
//! use workload::WorkloadSpec;
//!
//! // Three decision points over a Grid3-sized emulated grid, ten
//! // simulated minutes; everything is deterministic per seed.
//! let out = run_experiment(
//!     DigruberConfig::small(3, 42),
//!     WorkloadSpec::small(),
//!     "doc example",
//! )?;
//! assert!(out.report.issued > 0);
//! assert!(out.report.handled_fraction() > 0.5);
//! # Ok::<(), gruber_types::GridError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod elastic;
pub mod events;
pub mod faults;
pub mod live;
pub mod metrics;
pub mod run;
pub mod world;

pub use config::{DigruberConfig, Dissemination, ServiceKind, SyncTopology, WanKind};
pub use run::{run_experiment, ExperimentOutput, RunSpec};
pub use world::World;
