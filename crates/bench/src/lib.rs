//! Experiment drivers for the paper's tables and figures, and the
//! post-paper studies.
//!
//! `drivers` holds the specs and row extractors of the paper's
//! artifacts; `study` is the one framework the five studies
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

mod degradation;
mod drivers;
mod health;
mod parallel;
mod recovery;
mod render;
mod scale;
mod study;
mod topology;

pub use drivers::{
    accuracy_rows, accuracy_specs, capacity_model, crossover_rows, dp_scaling_spec, fig1_spec,
    SEED,
};
pub use parallel::{default_jobs, run_specs};
pub use render::{render_accuracy, render_figure, render_table_block};
pub use study::{output_pins, Fields, Pins, Study, STUDIES};
