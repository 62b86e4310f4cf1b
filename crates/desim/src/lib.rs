//! Deterministic discrete-event simulation engine.
//!
//! All DI-GRUBER experiments run on this engine: a priority queue of timed
//! events over a generic *world* type `W`. The queue is a hierarchical
//! timing wheel, private to the crate: the scheduler is its one user, and
//! the binary heap it replaced lives on only in its tests, as the
//! reference it is checked against. Event handlers receive `&mut W`
//! plus a [`Scheduler`] through which they enqueue further events. What
//! an event is — its *payload* — is the caller's choice: any type that
//! implements [`Event`] (a world's own `enum`, posted with
//! [`Scheduler::post_at`]), or the default `Closure`, a boxed `FnOnce`
//! that [`Scheduler::schedule_at`] builds, as in the example below. Two
//! properties matter for reproducibility:
//!
//! 1. **Total event order.** Events fire in `(time, sequence)` order; the
//!    sequence number is assigned at scheduling time, so simultaneous events
//!    fire in FIFO scheduling order. Runs are bit-identical across machines.
//! 2. **Deterministic randomness.** [`rng::DetRng`] derives independent
//!    seeded streams per component (see the `dist` module for the
//!    distributions the workloads need), so adding a random draw in one
//!    component never perturbs another component's stream.
//!
//! The engine is intentionally single-threaded: experiments parallelize at a
//! coarser grain (one independent simulation per OS thread), which is both
//! faster and exactly reproducible — the hpc-parallel way of scaling
//! embarrassingly parallel parameter sweeps.

//! # Example
//!
//! ```
//! use desim::Simulation;
//! use gruber_types::{SimDuration, SimTime};
//!
//! // World = a plain counter; events increment it.
//! let mut sim = Simulation::new(0u32);
//! sim.scheduler().schedule_at(SimTime::from_secs(5), |w: &mut u32, s| {
//!     *w += 1;
//!     // Handlers can schedule follow-up events.
//!     s.schedule_in(SimDuration::from_secs(10), |w: &mut u32, _| *w += 10);
//! });
//! sim.run_until(SimTime::from_secs(60));
//! assert_eq!(*sim.world(), 11);
//! assert_eq!(sim.now(), SimTime::from_secs(60));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod engine;
mod rng;
mod wheel;

pub use dist::Dist;
pub use engine::{Event, EventToken, Scheduler, Simulation};
pub use rng::DetRng;
