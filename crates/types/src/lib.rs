//! Shared domain vocabulary for the DI-GRUBER reproduction.
//!
//! This crate defines the types every other crate in the workspace speaks:
//! strongly-typed identifiers ([`SiteId`], [`VoId`], [`JobId`], ...), the
//! simulated clock ([`SimTime`], [`SimDuration`]), job and site descriptions,
//! the four-state job lifecycle from the paper, the shared error type, the
//! one command-line reader the binaries share ([`CommandLine`]), the one
//! hash every pin is taken with ([`Fnv1a`]) and the one seed mixer
//! ([`splitmix64`]).
//!
//! Nothing here contains behaviour beyond simple arithmetic and validation;
//! the point is that `gridemu`, `gruber`, `digruber`, `diperf` and `grubsim`
//! all agree on what a job, a site and a timestamp are.

//! # Example
//!
//! ```
//! use gruber_types::{SimDuration, SimTime, SiteId};
//!
//! let t = SimTime::from_secs(10) + SimDuration::MINUTE;
//! assert_eq!(t.as_secs(), 70);
//! assert_eq!(SiteId(3).to_string(), "site-3");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cli;
mod error;
mod hash;
mod id;
mod job;
mod site;
mod time;

pub use cli::{refuse, CommandLine};
pub use error::{GridError, GridResult};
pub use hash::{splitmix64, Fnv1a, SPLITMIX_GAMMA};
pub use id::{ClientId, DpId, GroupId, JobId, SiteId, UserId, VoId};
pub use job::{DispatchRecord, JobRecord, JobSpec, JobState};
pub use site::{total_grid_cpus, SiteSpec};
pub use time::{SimDuration, SimTime};
