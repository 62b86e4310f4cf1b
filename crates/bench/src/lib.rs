//! Experiment drivers for the paper's tables and figures, and the
//! post-paper studies.
//!
//! [`drivers`] holds the specs and row extractors of the paper's
//! artifacts; [`study`] is the one framework the five studies
//! ([`STUDIES`]) are entries of. The `experiments` binary exposes both
//! behind a small CLI
//! (`cargo run --release -p bench --bin experiments -- <id>`), and the
//! Criterion benches reuse the same drivers on scaled-down configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degradation;
pub mod drivers;
pub mod health;
pub mod parallel;
pub mod recovery;
pub mod render;
pub mod scale;
pub mod snapshot;
pub mod study;
pub mod topology;

pub use drivers::*;
pub use parallel::{default_jobs, run_specs, RunMeasurement};
pub use snapshot::{output_fingerprint, SweepSnapshot};
pub use study::{Study, STUDIES};
