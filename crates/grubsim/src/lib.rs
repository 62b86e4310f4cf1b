//! GRUB-SIM: the trace-driven decision-point requirement simulator.
//!
//! "In order to validate the proposed enhancements, we have developed a
//! simple simulator (GRUB-SIM) capable of simulating DI-GRUBER decision
//! points. [...] In essence, GRUB-SIM took the traces from the tests
//! presented in the previous section, and attempted to identify the
//! saturation points and the optimum number of decision points needed.
//! GRUB-SIM automatically traces the Response metric and all overload
//! events, and simulates new decision points on the fly."
//!
//! The inputs are DiPerF request traces ([`diperf::RequestTrace`]); the
//! capacity model (requests a point can absorb per interval before its
//! response degrades) comes from the DiPerF performance models of the
//! service profiles. The output is Table 3: how many decision points each
//! trace requires.

//! # Example
//!
//! ```
//! use diperf::RequestTrace;
//! use gruber_types::*;
//! use grubsim::{simulate_required_dps, CapacityModel};
//! use obs::Recorder;
//!
//! // 5 q/s of demand on a one-point deployment of 2 q/s GT3 decision points.
//! let traces: Vec<RequestTrace> = (0..3000u32)
//!     .map(|i| RequestTrace::answered(
//!         ClientId(i % 50), DpId(0),
//!         SimTime(u64::from(i) * 200),
//!         SimDuration::from_secs(1),
//!     ))
//!     .collect();
//! let report =
//!     simulate_required_dps(&traces, 1, CapacityModel::gt3(), SimDuration::MINUTE, &Recorder::OFF);
//! assert!(report.required_dps() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;
pub mod protocol;
mod replay;

pub use capacity::CapacityModel;
pub use replay::{simulate_required_dps, GrubSimReport};
