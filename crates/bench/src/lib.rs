//! Experiment drivers for the paper's tables and figures, and the
//! post-paper studies.
//!
//! [`drivers`] holds the specs and row extractors of the paper's
//! artifacts; [`study`] is the one framework the five studies
//! ([`STUDIES`]) are entries of. The `experiments` binary exposes both
//! behind a small CLI
//! (`cargo run --release -p bench --bin experiments -- <id>`).
//!
//! Everything this crate writes is a function of specs and seeds: no
//! module reads a clock or the process's memory. Timing and memory are
//! measured by the `perf/` harness (`perf/README.md`: `sim-paper`,
//! `sim-clients`, and the per-layer kernels), with repetitions and a
//! bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degradation;
pub mod drivers;
pub mod health;
pub mod parallel;
pub mod recovery;
pub mod render;
pub mod scale;
pub mod study;
pub mod topology;

pub use drivers::*;
pub use parallel::{default_jobs, run_specs};
pub use study::{output_fingerprint, Study, STUDIES};
