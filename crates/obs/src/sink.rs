//! The recorder handle and the shared trace sink.
//!
//! Instrumented code holds a [`Recorder`] — either the `static`-constructible
//! no-op [`Recorder::OFF`] (the default everywhere) or a cloneable reference
//! to one run's shared sink. Emission takes a closure so the
//! disabled path costs a single branch and never constructs the event.
//!
//! The sink is two fields it calls directly: the online
//! [`TimelineBuilder`] — the run's one clock, whose cadence bins are both
//! the timeline samples and the health scoring windows — and the
//! [`RawRing`] of recent raw events. A bin closed by an emission may raise
//! *derived* [`TraceEvent::HealthFlag`]s, stamped at the bin boundary;
//! the sink writes them into the ring ahead of the emission that closed
//! the bin, so the ring stays in nondecreasing time order. Whether a point
//! is flagged right now is [`Recorder::degraded`].
//!
//! The sink is `Arc<Mutex<..>>` only because the live-mode harness moves
//! engines across threads (`GruberEngine` must stay `Send`); within a
//! simulated run there is exactly one thread touching it, so the lock is
//! uncontended and the sweep's `--jobs N` parallelism — one recorder per
//! run — never shares a sink between workers.

use crate::consume::RawRing;
use crate::event::TraceEvent;
use crate::timeline::{RunTimeline, TimelineBuilder};
use gruber_types::{DpId, SimDuration, SimTime};
use std::sync::{Arc, Mutex};

/// Raw events the ring keeps for debugging. Aggregates are exact
/// regardless of ring size.
const RING_CAPACITY: usize = 512;

/// Configuration for one run's trace sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sampling cadence for per-decision-point metrics, in sim-time; also
    /// the health scoring window.
    pub cadence: SimDuration,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            cadence: SimDuration::MINUTE,
        }
    }
}

/// The shared sink one traced run appends into.
struct TraceLog {
    ring: RawRing,
    timeline: TimelineBuilder,
}

impl TraceLog {
    fn push(&mut self, at_ms: u64, ev: TraceEvent) {
        let raised = self.timeline.flags().len();
        self.timeline.observe(at_ms, &ev);
        for flag in &self.timeline.flags()[raised..] {
            self.ring.observe(flag.t_ms, &flag.event());
        }
        self.ring.observe(at_ms, &ev);
    }
}

/// Handle to a run's trace sink; the no-op [`Recorder::OFF`] when tracing
/// is disabled.
///
/// Cloning shares the sink: the world hands clones to every scheduler,
/// engine and service station of one run, and they all append to the same
/// timeline and ring.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<Mutex<TraceLog>>>,
}

impl Recorder {
    /// The disabled recorder: `emit` is a single branch, no allocation,
    /// usable in `static`/`const` position.
    pub const OFF: Recorder = Recorder { inner: None };

    /// A live recorder backed by a fresh sink.
    pub fn new(cfg: TraceConfig) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Mutex::new(TraceLog {
                ring: RawRing::new(RING_CAPACITY),
                timeline: TimelineBuilder::new(cfg.cadence.as_millis()),
            }))),
        }
    }

    /// Builds a recorder from an optional config: `None` yields
    /// [`Recorder::OFF`].
    pub fn from_config(cfg: Option<TraceConfig>) -> Recorder {
        match cfg {
            Some(c) => Recorder::new(c),
            None => Recorder::OFF,
        }
    }

    /// Whether a sink is installed.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn log(&self) -> Option<std::sync::MutexGuard<'_, TraceLog>> {
        let log = self.inner.as_ref()?;
        Some(log.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Records one event at simulated time `at`. The closure only runs —
    /// and the event is only constructed — when a sink is installed.
    #[inline]
    pub fn emit(&self, at: SimTime, build: impl FnOnce() -> TraceEvent) {
        // The disabled check stays here, inlined at every call site.
        if let Some(log) = &self.inner {
            let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
            log.push(at.as_millis(), build());
        }
    }

    /// Whether `dp` is flagged `Degrading` as of the last emission: raised
    /// and not yet `Recovered`. `false` on a disabled recorder.
    pub fn degraded(&self, dp: DpId) -> bool {
        self.log().is_some_and(|log| log.timeline.degraded(dp))
    }

    /// Snapshots the run's timeline through `end`. `None` when disabled.
    ///
    /// Non-destructive: the sink keeps accepting events and `finish` may
    /// be called again.
    pub fn finish(&self, end: SimTime) -> Option<RunTimeline> {
        let log = self.log()?;
        let mut tl = log.timeline.finish(end.as_millis());
        tl.recent = log.ring.snapshot();
        tl.dropped_raw = log.ring.dropped();
        Some(tl)
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::OFF
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() {
            "Recorder(on)"
        } else {
            "Recorder(off)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::ClientId;

    #[test]
    fn off_recorder_never_runs_the_closure() {
        let rec = Recorder::OFF;
        assert!(!rec.is_enabled());
        rec.emit(SimTime(5), || panic!("closure must not run when off"));
        assert!(rec.finish(SimTime(10)).is_none());
    }

    #[test]
    fn clones_share_one_sink() {
        let rec = Recorder::new(TraceConfig::default());
        let other = rec.clone();
        rec.emit(SimTime(1), || TraceEvent::QueryIssued {
            client: ClientId(0),
            dp: DpId(0),
        });
        other.emit(SimTime(2), || TraceEvent::QueryIssued {
            client: ClientId(1),
            dp: DpId(0),
        });
        let tl = rec.finish(SimTime(1000)).unwrap();
        assert_eq!(tl.totals.issued, 2);
        assert_eq!(tl.recent.len(), 2);
    }

    #[test]
    fn ring_is_bounded_but_aggregates_are_exact() {
        let rec = Recorder::new(TraceConfig::default());
        for i in 0..RING_CAPACITY as u64 + 6 {
            rec.emit(SimTime(i), || TraceEvent::QueryIssued {
                client: ClientId(0),
                dp: DpId(0),
            });
        }
        let tl = rec.finish(SimTime(1000)).unwrap();
        assert_eq!(tl.recent.len(), RING_CAPACITY);
        assert_eq!(tl.dropped_raw, 6);
        assert_eq!(
            tl.totals.issued,
            RING_CAPACITY as u64 + 6,
            "aggregates survive ring eviction"
        );
        assert_eq!(tl.recent[0].0, 6, "ring keeps the most recent events");
    }

    #[test]
    fn finish_is_non_destructive() {
        let rec = Recorder::new(TraceConfig::default());
        rec.emit(SimTime(1), || TraceEvent::DpFailed { dp: DpId(0) });
        let a = rec.finish(SimTime(50)).unwrap();
        let b = rec.finish(SimTime(50)).unwrap();
        assert_eq!(a, b);
        rec.emit(SimTime(2), || TraceEvent::DpRecovered { dp: DpId(0) });
        assert_eq!(rec.finish(SimTime(50)).unwrap().totals.recoveries, 1);
    }

    /// A derived flag enters the ring at its window boundary, ahead of the
    /// event that closed the window, and reaches the counters and report.
    #[test]
    fn derived_flags_enter_the_ring_before_the_closing_event() {
        let rec = Recorder::new(TraceConfig::default());
        rec.emit(SimTime(1_000), || TraceEvent::DpFailed { dp: DpId(0) });
        // Advance the stream across two 60 s scoring windows so the
        // downed point is flagged Degrading.
        rec.emit(SimTime(130_000), || TraceEvent::QueryIssued {
            client: ClientId(0),
            dp: DpId(1),
        });
        let tl = rec.finish(SimTime(130_000)).unwrap();
        let times: Vec<u64> = tl.recent.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![1_000, 120_000, 130_000]);
        assert!(matches!(
            tl.recent[0].1,
            TraceEvent::DpFailed { dp: DpId(0) }
        ));
        assert!(matches!(
            tl.recent[1].1,
            TraceEvent::HealthFlag {
                dp: DpId(0),
                degrading: true,
                ..
            }
        ));
        assert!(matches!(tl.recent[2].1, TraceEvent::QueryIssued { .. }));
        assert_eq!(tl.totals.health_degrades, 1);
        assert_eq!(tl.health.flags.len(), 1);
    }

    /// The flag the autoscaler reads: off is never degraded; a point is
    /// degraded from its `Degrading` flag until its `Recovered` one.
    #[test]
    fn degraded_follows_the_flags() {
        assert!(!Recorder::OFF.degraded(DpId(0)));
        let rec = Recorder::new(TraceConfig::default());
        let answered = |t: u64| {
            rec.emit(SimTime(t), || TraceEvent::ResponseAnswered {
                dp: DpId(0),
                client: ClientId(0),
                response_ms: 5,
            });
            rec.emit(SimTime(t), || TraceEvent::ExchangeMerged {
                dp: DpId(0),
                received: 1,
                fresh: 1,
            });
        };
        rec.emit(SimTime(0), || TraceEvent::DpFailed { dp: DpId(0) });
        assert!(!rec.degraded(DpId(0)));
        // Windows closing at 60 s and 120 s score the downed point 0.
        answered(120_000);
        assert!(rec.degraded(DpId(0)));
        assert!(!rec.degraded(DpId(1)), "an unknown point is not degraded");
        rec.emit(SimTime(120_000), || TraceEvent::DpRecovered { dp: DpId(0) });
        answered(180_000);
        assert!(rec.degraded(DpId(0)), "one good window is not a recovery");
        answered(240_000);
        assert!(!rec.degraded(DpId(0)));
        let flags = rec.finish(SimTime(240_000)).unwrap().health.flags;
        assert_eq!(
            flags
                .iter()
                .map(|f| (f.t_ms, f.degrading))
                .collect::<Vec<_>>(),
            vec![(120_000, true), (240_000, false)]
        );
    }
}
