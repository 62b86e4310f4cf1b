//! Workload and USLA generation.
//!
//! The paper "used composite workloads that overlay work for \[10\] VOs and
//! \[10\] groups per VO"; each of ~120 submission hosts maintained a
//! connection to one decision point, and the experiment ran for one hour.
//! This crate generates those workloads deterministically:
//!
//! * [`spec::WorkloadSpec`] — the experiment's workload knobs, with
//!   [`spec::WorkloadSpec::paper_default`] capturing the Section 4
//!   configuration;
//! * [`gen::JobFactory`] — allocates jobs with unique ids, VO/group/user
//!   assignment and sampled runtimes, one independent random stream per
//!   submission host;
//! * [`uslas`] — USLA-set generators (equal or weighted fair shares over
//!   VOs and groups).

//! # Example
//!
//! ```
//! use workload::{JobFactory, WorkloadSpec};
//! use gruber_types::{ClientId, SimTime};
//!
//! let mut factory = JobFactory::new(WorkloadSpec::small(), 42);
//! let a = factory.make_job(ClientId(0), SimTime::ZERO);
//! let b = factory.make_job(ClientId(1), SimTime::ZERO);
//! assert_ne!(a.id, b.id);
//! assert_ne!(a.vo, b.vo); // round-robin VO binding
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod spec;
pub mod uslas;

pub use gen::JobFactory;
pub use spec::WorkloadSpec;
