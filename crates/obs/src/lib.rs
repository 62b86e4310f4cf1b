//! Structured simulation tracing and per-decision-point observability.
//!
//! The paper's evaluation is entirely *observational*: DiPerF-style time
//! series of throughput, response time and accuracy, per decision point.
//! The rest of the workspace computes end-of-run aggregates; this crate
//! adds the missing middle layer — a way to see *when* a decision point
//! saturated, *which* exchange round went stale, and *what* a client did
//! after a failover — without perturbing the simulation it observes.
//!
//! ## Design
//!
//! * [`TraceEvent`] is a flat, integer-only enum covering the hot paths of
//!   every instrumented crate: `desim` (event execute/cancel), `simnet`
//!   (container enqueue/start/reject/drop), `gruber` (query accept /
//!   admission decide / reject, peer exchange), `digruber`'s protocol and
//!   fault layers (issue/response/timeout, dp_fail/recover, client
//!   re-bind) and `grubsim` replay (overload, point added) — plus the
//!   derived [`TraceEvent::HealthFlag`] the health scoring raises.
//! * [`Recorder`] is the handle the instrumented code holds. It is a
//!   cloneable reference to a shared sink, or — the common case — the
//!   `static`-constructible no-op [`Recorder::OFF`]. Emission takes a
//!   closure, so when no sink is installed the cost is one branch and the
//!   event is never even constructed. The `perf/` harness measures
//!   what that costs (`obs.emit_off_ns`, `obs.trace_overhead_share`).
//! * The sink has **one clock**: the online
//!   `TimelineBuilder` closes fixed-cadence
//!   bins as the stream advances, and each closing bin yields both the
//!   timeline samples and the health scores; next to it sits the bounded
//!   `RawRing` of recent raw events (see `consume`). Aggregates are
//!   exact even when the ring has rotated, and nothing assumes a single
//!   end-of-run exporter.
//! * `health` holds the scoring formula: per-bin feature vectors
//!   (timeout share, view staleness, retries, queue depth, recovery time)
//!   folded into 0–100 scores with hysteresis-gated `Degrading` /
//!   `Recovered` flags, written into the ring as `health_flag` events and
//!   readable live through [`Recorder::degraded`]. See `OBSERVABILITY.md`
//!   for the operator guide.
//! * Everything is keyed by simulated time and derives `PartialEq`:
//!   a seeded run produces one byte-identical [`RunTimeline`] no matter
//!   which worker thread executed it (`--jobs N` determinism).
//!
//! ## Output
//!
//! [`RunTimeline`] carries per-bin samples (fixed sim-time cadence:
//! queries served, response-time log-histogram, queue depth, staleness of
//! the last peer exchange), whole-run totals, and the [`HealthReport`]
//! scored on the same bins. [`RunTimeline::to_jsonl`] renders the
//! machine-readable JSONL (schema `digruber-trace/5`) consumed by
//! `--trace out.jsonl` on the `sweep`/`experiments` binaries;
//! [`RunTimeline::render`] produces the human-readable timeline summary
//! written under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod consume;
mod event;
mod export;
mod health;
mod sink;
mod timeline;

pub use event::{FaultMsgClass, TraceEvent, TraceVerdict};
pub use export::json_escape;
pub use health::HealthReport;
pub use sink::{Recorder, TraceConfig};
pub use timeline::{DpSample, RunTimeline};
