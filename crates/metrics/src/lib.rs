//! The paper's evaluation metrics.
//!
//! Section 4.2 of the paper defines five metrics used throughout the
//! evaluation:
//!
//! * **Response** — mean service response time over all requests,
//!   `Σ RTᵢ / N`;
//! * **Throughput** — requests completed successfully per unit time;
//! * **QTime** — mean job queue time (dispatch to a site → execution start),
//!   `Σ QTᵢ / N`, plus the *Normalized QTime* (`QTime / #requests`) used in
//!   Tables 1–2 to correct for the 1-DP run admitting fewer jobs;
//! * **Util** — consumed CPU time ÷ available CPU time over the window,
//!   `Σ ETᵢ / (#cpus × t)`;
//! * **Accuracy** — mean per-job scheduling accuracy, where a job's accuracy
//!   `SAᵢ` compares free resources at the selected site against the best
//!   available choice over the whole grid at decision time (see
//!   [`accuracy::schedule_accuracy`] for the normalization discussion).
//!
//! This crate provides the accumulators and summary statistics; the
//! experiment harnesses feed them from job records and request traces.

//! # Example
//!
//! ```
//! use gruber_metrics::{schedule_accuracy, SummaryStats};
//!
//! // Picking a site with 8 free CPUs when the best had 10: accuracy 0.8.
//! assert_eq!(schedule_accuracy(8, &[3, 10, 8]), 0.8);
//!
//! let stats = SummaryStats::from_samples(&[1.0, 2.0, 3.0]);
//! assert_eq!(stats.median, 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod jobs;
pub mod series;
pub mod summary;

pub use accuracy::{accuracy_vs_best, schedule_accuracy};
pub use jobs::{JobAggregate, JobMetricsAccumulator};
pub use series::TimeSeries;
pub use summary::{timeouts_by_dp, SummaryStats};
