//! DiPerF: the distributed performance-testing framework.
//!
//! "DiPerF coordinates several machines in executing a performance service
//! client and collects various metrics about the performance of the tested
//! service. The framework is composed of a controller/collector, several
//! submitter modules and a tester component. [...] For the experiments
//! reported here, we extended it to enable testing of distributed services
//! such as DI-GRUBER."
//!
//! Our reimplementation keeps the same decomposition:
//!
//! * [`schedule::RampSchedule`] — the submitter: "we used DiPerF to vary
//!   slowly the participation of clients"; each tester client joins at its
//!   scheduled time and runs to the end of the experiment;
//! * [`trace::RequestTrace`] — one tester request's outcome (also the input
//!   format of GRUB-SIM);
//! * [`collector::Collector`] — the controller/collector: gathers request
//!   traces and co-sampled load/response/throughput series, bins them into
//!   fixed windows, and renders the paper's figure summaries
//!   ([`summary::SummaryStats`]: min/median/avg/max/stddev; peak response,
//!   peak throughput) — the paper's Response and Throughput metrics.

//! # Example
//!
//! ```
//! use diperf::{Collector, RampSchedule, RequestTrace};
//! use gruber_types::*;
//!
//! let ramp = RampSchedule::paper_default(10, SimDuration::from_mins(10));
//! assert_eq!(ramp.start_of(ClientId(0)), SimTime::ZERO);
//!
//! let mut collector = Collector::new();
//! collector.record(RequestTrace::answered(
//!     ClientId(0), DpId(0), SimTime::ZERO, SimDuration::from_secs(3),
//! ));
//! let report = collector.report("doc", ramp.end());
//! assert_eq!(report.answered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod schedule;
mod series;
pub mod summary;
pub mod trace;

pub use collector::{Collector, DiPerfReport};
pub use schedule::RampSchedule;
pub use summary::SummaryStats;
pub use trace::RequestTrace;
