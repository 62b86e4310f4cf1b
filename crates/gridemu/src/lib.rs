//! The emulated grid.
//!
//! The paper could not run on a real grid ten times the size of Grid3, so
//! it *emulated* one: "the emulated environment was composed of [~300]
//! sites representing [~30,000+] nodes [...] based on Grid3 configuration
//! settings in terms of CPU counts, network connectivity, etc.". This crate
//! is that emulation:
//!
//! * `config` — Grid3-shaped site configuration generator (`grid3_times`);
//! * `site` — one site's runtime state: a FIFO batch scheduler over the
//!   site's CPUs. Sites admit every job: the paper leaves site policy
//!   enforcement points (S-PEPs) out and "assumed the decision points have
//!   total control over scheduling decisions";
//! * `grid` — ground truth: all sites plus the job ledger, driving the
//!   four-state job lifecycle.

//! # Example
//!
//! ```
//! use gridemu::{Grid, SitePolicy};
//! use gruber_types::*;
//!
//! let mut grid = Grid::new(
//!     vec![SiteSpec::single_cluster(SiteId(0), 4)],
//!     SitePolicy::permissive(),
//! )?;
//! grid.submit(JobSpec {
//!     id: JobId(1), vo: VoId(0), group: GroupId(0), user: UserId(0),
//!     client: ClientId(0), cpus: 2, storage_mb: 0,
//!     runtime: SimDuration::from_secs(100), submitted_at: SimTime::ZERO,
//! })?;
//! let started = grid.dispatch(JobId(1), SiteId(0), SimTime::ZERO, true)?;
//! assert_eq!(started[0].finish_at, SimTime::from_secs(100));
//! grid.complete(JobId(1), SimTime::from_secs(100))?;
//! assert_eq!(grid.idle_cpus(), 4);
//! # Ok::<(), GridError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod grid;
mod site;

pub use config::grid3_times;
pub use grid::{Grid, SitePolicy};
