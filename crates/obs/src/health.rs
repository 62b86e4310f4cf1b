//! Online per-DP health scoring over the trace stream.
//!
//! The paper evaluates decision points only after the fact; this scoring
//! flags a degrading point *while the run is going*, from the trace stream
//! alone — no access to simulator internals. It runs on the timeline's
//! own clock: every cadence bin [`crate::timeline::TimelineBuilder`]
//! closes is one scoring window (60 s by default), and the bin's counters
//! and gauges are the point's **feature vector**:
//!
//! | feature          | fed by                                   |
//! |------------------|------------------------------------------|
//! | timeout share    | `response_answered` / `response_late` / `client_timeout` |
//! | view staleness   | `exchange_merged` (ms since the last one) |
//! | retry/exhaustion | `retry_scheduled` / `retry_exhausted`     |
//! | queue depth      | `svc_queued` / `svc_completed` (gauge)    |
//! | recovery time    | `recovery_replayed` (modeled latency)     |
//! | liveness         | `dp_failed` / `dp_recovered`              |
//!
//! A point is scored from the first of those events (or a `query_issued`
//! against it) on, until it leaves the pool (`dp_left`); a point that
//! joins again is scored afresh. When a window closes, each scored point
//! gets a **score** in 0–100 (integer arithmetic only — scoring is
//! bit-deterministic across `--jobs` and platforms): a point that is down
//! scores 0; otherwise penalties are subtracted from 100, saturating:
//!
//! ```text
//! p_timeout = min(60, 200·timeouts / (answered+late+timeouts))
//! p_stale   = 40·min(staleness, budget) / budget      (budget: 360 s)
//! p_retry   = min(20, retries + 5·exhausted)
//! p_queue   = min(10, queue_depth at window close)
//! p_recover = min(15, recovery_ms / 30)
//! score     = 100 − p_timeout − p_stale − p_retry − p_queue − p_recover
//! ```
//!
//! Flag transitions use hysteresis so a point never flaps at a window
//! edge: `Degrading` is raised only after [`DEGRADE_WINDOWS`]
//! *consecutive* windows score below [`DEGRADE_BELOW`], and `Recovered`
//! only after [`RECOVER_WINDOWS`] consecutive windows score at or above
//! [`RECOVER_AT`]. Scores in the dead band between the two thresholds
//! reset both streaks. Each transition enters the stream as a derived
//! [`TraceEvent::HealthFlag`] stamped at the window boundary, so the
//! timeline counts it (`health_degrades` / `health_recovers`) and the ring
//! and JSONL export carry it like any first-class event.
//!
//! Windows close when the event stream advances past their boundary
//! (there is no wall-clock inside the timeline). At `finish` the full
//! windows of the stream tail are scored into trailing [`HealthSample`]s,
//! but **no flag transitions** are evaluated there, and the partial last
//! bin is not a window: flags are live signals and exist only where the
//! stream itself crossed the boundary — which is also what keeps
//! `HealthReport::flags` reconciling ±0 with the timeline counters.
//!
//! The operator-facing walkthrough (worked scores from a fault run,
//! window sizing vs the 180 s sync interval) lives in `OBSERVABILITY.md`.

use gruber_types::DpId;

use crate::event::TraceEvent;
use crate::timeline::DpSample;

/// Staleness that earns the full 40-point penalty, ms: two of the paper's
/// 180 s sync intervals. Healthy points peak at half this budget, i.e. a
/// 20-point penalty — never enough to flag on its own.
pub(crate) const STALENESS_BUDGET_MS: u64 = 360_000;
/// Scores strictly below this are "bad" windows.
pub(crate) const DEGRADE_BELOW: u32 = 65;
/// Scores at or above this are "good" windows.
pub(crate) const RECOVER_AT: u32 = 80;
/// Consecutive bad windows before `Degrading` is raised.
pub(crate) const DEGRADE_WINDOWS: u32 = 2;
/// Consecutive good windows before `Recovered` clears the flag.
pub(crate) const RECOVER_WINDOWS: u32 = 2;

/// One point's score for one closed window, with the penalty breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSample {
    /// Window close time (the boundary), milliseconds.
    pub(crate) t_ms: u64,
    /// The scored decision point.
    pub dp: DpId,
    /// The score, 0–100.
    pub score: u32,
    /// Timeout-share penalty applied.
    pub p_timeout: u32,
    /// View-staleness penalty applied.
    pub p_stale: u32,
    /// Retry/exhaustion penalty applied.
    pub p_retry: u32,
    /// Queue-depth penalty applied.
    pub p_queue: u32,
    /// Recovery-latency penalty applied.
    pub p_recover: u32,
    /// The point was down when the window closed (forces score 0).
    pub down: bool,
}

/// One flag transition, as carried in the [`HealthReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthFlagRow {
    /// Window boundary at which the flag flipped, milliseconds.
    pub t_ms: u64,
    /// The flagged decision point.
    pub dp: DpId,
    /// `true` = `Degrading` raised; `false` = `Recovered`.
    pub degrading: bool,
    /// The score that tripped the transition.
    pub(crate) score: u32,
}

impl HealthFlagRow {
    /// The derived event this transition puts into the stream.
    pub(crate) fn event(&self) -> TraceEvent {
        TraceEvent::HealthFlag {
            dp: self.dp,
            degrading: self.degrading,
            score: self.score,
        }
    }
}

/// Everything the scoring concluded, carried on [`crate::RunTimeline`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Scoring window length, milliseconds (the timeline's cadence).
    pub(crate) window_ms: u64,
    /// Every windowed score, ordered by `(t_ms, dp)`.
    pub samples: Vec<HealthSample>,
    /// Every flag transition, in emission order. Exactly the
    /// `health_flag` events that entered the stream: the degrading /
    /// recovered counts here reconcile ±0 with the timeline's
    /// `health_degrades` / `health_recovers` totals.
    pub flags: Vec<HealthFlagRow>,
}

impl HealthReport {
    /// Points still flagged `Degrading` at the end of the run.
    pub fn still_degraded(&self) -> Vec<DpId> {
        let mut state: Vec<(DpId, bool)> = Vec::new();
        for f in &self.flags {
            match state.iter_mut().find(|(dp, _)| *dp == f.dp) {
                Some((_, d)) => *d = f.degrading,
                None => state.push((f.dp, f.degrading)),
            }
        }
        state.into_iter().filter(|&(_, d)| d).map(|(dp, _)| dp).collect()
    }

    /// First `Degrading` flag for `dp` at or after `t_ms`, if any.
    pub fn first_degrading_at_or_after(&self, dp: DpId, t_ms: u64) -> Option<u64> {
        self.flags
            .iter()
            .find(|f| f.dp == dp && f.degrading && f.t_ms >= t_ms)
            .map(|f| f.t_ms)
    }
}

/// Scores one point's closed bin: the sample's counters and gauges, plus
/// the two inputs the sample does not export — the bin's retry
/// exhaustions and its largest recovery latency — and liveness.
pub(crate) fn score(s: &DpSample, exhausted: u64, recovery_ms: u64, down: bool) -> HealthSample {
    let demand = s.answered + s.late + s.timeouts;
    let p_timeout = (200 * s.timeouts)
        .checked_div(demand)
        .map_or(0, |p| p.min(60) as u32);
    // A point that never merged has been stale since the run began.
    let staleness = s.staleness_ms.unwrap_or(s.t_ms);
    let p_stale = ((40 * staleness.min(STALENESS_BUDGET_MS)) / STALENESS_BUDGET_MS) as u32;
    let p_retry = (s.retries + 5 * exhausted).min(20) as u32;
    let p_queue = s.queue_depth.min(10);
    let p_recover = (recovery_ms / 30).min(15) as u32;
    let score = if down {
        0
    } else {
        100u32.saturating_sub(p_timeout + p_stale + p_retry + p_queue + p_recover)
    };
    HealthSample {
        t_ms: s.t_ms,
        dp: s.dp,
        score,
        p_timeout,
        p_stale,
        p_retry,
        p_queue,
        p_recover,
        down,
    }
}

/// One point's flag state: the two streaks and whether it is flagged.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Hysteresis {
    bad_streak: u32,
    good_streak: u32,
    pub(crate) degraded: bool,
}

impl Hysteresis {
    /// Folds one window's score into the streaks. With `raise` (the stream
    /// crossed the boundary), returns the transition it trips, if any:
    /// `Some(true)` = `Degrading`, `Some(false)` = `Recovered`.
    pub(crate) fn step(&mut self, score: u32, raise: bool) -> Option<bool> {
        if score < DEGRADE_BELOW {
            self.bad_streak += 1;
            self.good_streak = 0;
        } else if score >= RECOVER_AT {
            self.good_streak += 1;
            self.bad_streak = 0;
        } else {
            // Dead band: evidence for neither edge.
            self.bad_streak = 0;
            self.good_streak = 0;
        }
        if !raise {
            None
        } else if !self.degraded && self.bad_streak >= DEGRADE_WINDOWS {
            self.degraded = true;
            Some(true)
        } else if self.degraded && self.good_streak >= RECOVER_WINDOWS {
            self.degraded = false;
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultMsgClass;
    use crate::sink::{Recorder, TraceConfig};
    use crate::timeline::TimelineBuilder;
    use gruber_types::{ClientId, SimTime};
    use proptest::prelude::*;

    /// The standalone scorer this module replaced, kept verbatim (its
    /// tuning fixed at the old defaults, its consumer trait gone) as the
    /// reference the timeline's scoring is held to — plus one rule it
    /// never had: a point that left the pool is not scored until it
    /// joins again, and then from scratch.
    #[derive(Debug, Clone, Default)]
    struct DpHealth {
        seen: bool,
        left: bool,
        answered: u32,
        late: u32,
        timeouts: u32,
        retries: u32,
        exhausted: u32,
        recovery_ms: u32,
        queue_depth: u32,
        last_exchange_ms: Option<u64>,
        down: bool,
        bad_streak: u32,
        good_streak: u32,
        degraded: bool,
    }

    #[derive(Debug, Clone)]
    struct RefScorer {
        window_ms: u64,
        staleness_budget_ms: u64,
        degrade_below: u32,
        recover_at: u32,
        degrade_windows: u32,
        recover_windows: u32,
        window_start_ms: u64,
        dps: Vec<DpHealth>,
        samples: Vec<HealthSample>,
        flags: Vec<HealthFlagRow>,
        pending: Vec<(u64, TraceEvent)>,
    }

    impl RefScorer {
        fn new() -> Self {
            RefScorer {
                window_ms: 60_000,
                staleness_budget_ms: 360_000,
                degrade_below: 65,
                recover_at: 80,
                degrade_windows: 2,
                recover_windows: 2,
                window_start_ms: 0,
                dps: Vec::new(),
                samples: Vec::new(),
                flags: Vec::new(),
                pending: Vec::new(),
            }
        }

        fn slot(&mut self, dp: DpId) -> &mut DpHealth {
            let i = dp.index();
            if i >= self.dps.len() {
                self.dps.resize_with(i + 1, DpHealth::default);
            }
            &mut self.dps[i]
        }

        fn dp(&mut self, dp: DpId) -> &mut DpHealth {
            let slot = self.slot(dp);
            slot.seen |= !slot.left;
            slot
        }

        fn set_left(&mut self, dp: DpId, left: bool) {
            let d = self.slot(dp);
            (d.left, d.seen) = (left, false);
            (d.bad_streak, d.good_streak, d.degraded) = (0, 0, false);
        }

        fn score(&self, d: &DpHealth, end_ms: u64) -> HealthSample {
            let demand = u64::from(d.answered) + u64::from(d.late) + u64::from(d.timeouts);
            let p_timeout =
                (200 * u64::from(d.timeouts)).checked_div(demand).unwrap_or(0).min(60) as u32;
            let staleness = end_ms.saturating_sub(d.last_exchange_ms.unwrap_or(0));
            let p_stale =
                ((40 * staleness.min(self.staleness_budget_ms)) / self.staleness_budget_ms) as u32;
            let p_retry = (d.retries + 5 * d.exhausted).min(20);
            let p_queue = d.queue_depth.min(10);
            let p_recover = (d.recovery_ms / 30).min(15);
            let score = if d.down {
                0
            } else {
                100u32.saturating_sub(p_timeout + p_stale + p_retry + p_queue + p_recover)
            };
            HealthSample {
                t_ms: end_ms,
                dp: DpId(0),
                score,
                p_timeout,
                p_stale,
                p_retry,
                p_queue,
                p_recover,
                down: d.down,
            }
        }

        fn close_windows_until(&mut self, at_ms: u64, emit_flags: bool) {
            while at_ms >= self.window_start_ms + self.window_ms {
                let end_ms = self.window_start_ms + self.window_ms;
                for i in 0..self.dps.len() {
                    if !self.dps[i].seen {
                        // Unscored, but its window closes all the same: a
                        // departed point's late events do not carry over.
                        let d = &mut self.dps[i];
                        (d.answered, d.late, d.timeouts) = (0, 0, 0);
                        (d.retries, d.exhausted, d.recovery_ms) = (0, 0, 0);
                        continue;
                    }
                    let mut sample = self.score(&self.dps[i], end_ms);
                    sample.dp = DpId(i as u32);
                    self.samples.push(sample);
                    let d = &mut self.dps[i];
                    if sample.score < self.degrade_below {
                        d.bad_streak += 1;
                        d.good_streak = 0;
                    } else if sample.score >= self.recover_at {
                        d.good_streak += 1;
                        d.bad_streak = 0;
                    } else {
                        d.bad_streak = 0;
                        d.good_streak = 0;
                    }
                    if emit_flags {
                        let transition = if !d.degraded && d.bad_streak >= self.degrade_windows {
                            d.degraded = true;
                            Some(true)
                        } else if d.degraded && d.good_streak >= self.recover_windows {
                            d.degraded = false;
                            Some(false)
                        } else {
                            None
                        };
                        if let Some(degrading) = transition {
                            let row = HealthFlagRow {
                                t_ms: end_ms,
                                dp: sample.dp,
                                degrading,
                                score: sample.score,
                            };
                            self.flags.push(row);
                            self.pending.push((
                                end_ms,
                                TraceEvent::HealthFlag {
                                    dp: row.dp,
                                    degrading,
                                    score: row.score,
                                },
                            ));
                        }
                    }
                    let d = &mut self.dps[i];
                    d.answered = 0;
                    d.late = 0;
                    d.timeouts = 0;
                    d.retries = 0;
                    d.exhausted = 0;
                    d.recovery_ms = 0;
                }
                self.window_start_ms = end_ms;
            }
        }

        fn take_pending(&mut self) -> Vec<(u64, TraceEvent)> {
            std::mem::take(&mut self.pending)
        }

        fn finish(&self, end_ms: u64) -> HealthReport {
            let mut tail = self.clone();
            tail.close_windows_until(end_ms, false);
            HealthReport {
                window_ms: self.window_ms,
                samples: tail.samples,
                flags: tail.flags,
            }
        }

        fn observe(&mut self, at_ms: u64, ev: &TraceEvent) {
            self.close_windows_until(at_ms, true);
            match *ev {
                TraceEvent::ResponseAnswered { dp, .. } => self.dp(dp).answered += 1,
                TraceEvent::ResponseLate { dp, .. } => self.dp(dp).late += 1,
                TraceEvent::ClientTimeout { dp, .. } => self.dp(dp).timeouts += 1,
                TraceEvent::RetryScheduled { dp, .. } => self.dp(dp).retries += 1,
                TraceEvent::RetryExhausted { dp, .. } => self.dp(dp).exhausted += 1,
                TraceEvent::SvcQueued { dp, depth, .. } => self.dp(dp).queue_depth = depth,
                TraceEvent::SvcCompleted { dp, depth, .. } => self.dp(dp).queue_depth = depth,
                TraceEvent::SvcCrashDropped { dp, .. } => self.dp(dp).queue_depth = 0,
                TraceEvent::ExchangeMerged { dp, .. } => self.dp(dp).last_exchange_ms = Some(at_ms),
                TraceEvent::DpFailed { dp } => self.dp(dp).down = true,
                TraceEvent::DpRecovered { dp } => self.dp(dp).down = false,
                TraceEvent::RecoveryReplayed { dp, dur_ms, .. } => {
                    let d = self.dp(dp);
                    d.recovery_ms = d.recovery_ms.max(dur_ms);
                }
                TraceEvent::QueryIssued { dp, .. } => {
                    self.dp(dp);
                }
                TraceEvent::DpJoined { dp, .. } => self.set_left(dp, false),
                TraceEvent::DpLeft { dp, .. } => self.set_left(dp, true),
                _ => {}
            }
        }
    }

    fn scorer() -> TimelineBuilder {
        TimelineBuilder::new(60_000)
    }

    fn report(s: &TimelineBuilder, end_ms: u64) -> HealthReport {
        s.finish(end_ms).health
    }

    fn merged(dp: u32) -> TraceEvent {
        TraceEvent::ExchangeMerged {
            dp: DpId(dp),
            received: 1,
            fresh: 1,
        }
    }

    fn answered(dp: u32) -> TraceEvent {
        TraceEvent::ResponseAnswered {
            dp: DpId(dp),
            client: ClientId(0),
            response_ms: 5,
        }
    }

    fn timeout(dp: u32) -> TraceEvent {
        TraceEvent::ClientTimeout {
            client: ClientId(0),
            dp: DpId(dp),
        }
    }

    /// Drives `ev` every second from `from_s` to `to_s` (exclusive).
    fn drive(s: &mut TimelineBuilder, from_s: u64, to_s: u64, ev: TraceEvent) {
        for t in from_s..to_s {
            s.observe(t * 1000, &ev);
        }
    }

    #[test]
    fn healthy_point_never_flags() {
        let mut s = scorer();
        for t in 0..720u64 {
            s.observe(t * 1000, &answered(0));
            if t % 60 == 0 {
                s.observe(t * 1000, &merged(0));
            }
        }
        assert!(s.flags().is_empty());
        let rep = report(&s, 720_000);
        assert!(rep.flags.is_empty(), "{:?}", rep.flags);
        assert!(rep.samples.iter().all(|x| x.score >= 80), "{:?}", rep.samples);
    }

    #[test]
    fn down_point_flags_after_exactly_two_bad_windows() {
        let mut s = scorer();
        drive(&mut s, 0, 100, answered(0));
        s.observe(100_000, &merged(0));
        s.observe(100_000, &TraceEvent::DpFailed { dp: DpId(0) });
        // Keep the stream moving via a healthy sibling.
        s.observe(100_000, &merged(1));
        drive(&mut s, 100, 300, answered(1));
        let rep = report(&s, 300_000);
        // Windows close at 120 s and 180 s with dp0 down → flag at 180 s.
        let flag = rep.flags.iter().find(|f| f.dp == DpId(0)).expect("no flag");
        assert!(flag.degrading);
        assert_eq!(flag.t_ms, 180_000);
        assert_eq!(flag.score, 0);
        // One transition only: no re-raising while it stays down.
        assert_eq!(rep.flags.iter().filter(|f| f.dp == DpId(0)).count(), 1);
    }

    #[test]
    fn recovery_clears_the_flag_with_hysteresis() {
        let mut s = scorer();
        s.observe(0, &TraceEvent::DpFailed { dp: DpId(0) });
        s.observe(0, &merged(1));
        drive(&mut s, 0, 200, answered(1));
        s.observe(200_000, &TraceEvent::DpRecovered { dp: DpId(0) });
        s.observe(200_000, &merged(0));
        // Healthy again: answers + fresh merges every minute.
        for t in 200..600u64 {
            s.observe(t * 1000, &answered(0));
            s.observe(t * 1000, &answered(1));
            if t % 60 == 0 {
                s.observe(t * 1000, &merged(0));
                s.observe(t * 1000, &merged(1));
            }
        }
        let rep = report(&s, 600_000);
        let flags: Vec<_> = rep.flags.iter().filter(|f| f.dp == DpId(0)).collect();
        assert_eq!(flags.len(), 2, "{flags:?}");
        assert!(flags[0].degrading);
        assert!(!flags[1].degrading, "never recovered: {flags:?}");
        // Recovery needs two consecutive good windows after the repair.
        assert!(flags[1].t_ms >= flags[0].t_ms + 2 * 60_000);
        assert!(rep.still_degraded().is_empty());
    }

    #[test]
    fn single_bad_window_does_not_flap_at_the_edge() {
        let mut s = scorer();
        // dp0 merges every window; one isolated window of pure timeouts.
        for t in 0..600u64 {
            if t % 50 == 0 {
                s.observe(t * 1000, &merged(0));
            }
            if (120..180).contains(&t) {
                s.observe(t * 1000, &timeout(0));
            } else {
                s.observe(t * 1000, &answered(0));
            }
        }
        let rep = report(&s, 600_000);
        assert!(
            rep.flags.is_empty(),
            "one bad window must not flag: {:?}",
            rep.flags
        );
        // The bad window really did score badly (p_timeout = 60).
        let bad = rep
            .samples
            .iter()
            .find(|x| x.t_ms == 180_000 && x.dp == DpId(0))
            .unwrap();
        assert!(bad.score < 65, "{bad:?}");
    }

    #[test]
    fn staleness_alone_flags_a_partitioned_point() {
        let mut s = scorer();
        // Both points merge at 180 s; dp1 never merges again (isolated).
        s.observe(180_000, &merged(0));
        s.observe(180_000, &merged(1));
        for t in 180..900u64 {
            s.observe(t * 1000, &answered(0));
            s.observe(t * 1000, &answered(1));
            if t % 180 == 0 {
                s.observe(t * 1000, &merged(0));
            }
        }
        let rep = report(&s, 900_000);
        assert!(rep.flags.iter().all(|f| f.dp != DpId(0)), "{:?}", rep.flags);
        let when = rep
            .first_degrading_at_or_after(DpId(1), 180_000)
            .expect("partitioned point never flagged");
        // Penalty crosses 35 once staleness exceeds 315 s, i.e. windows
        // closing ≥ 540 s score < 65; second bad window flags at 600 s.
        assert_eq!(when, 600_000);
    }

    #[test]
    fn finish_is_idempotent_and_emits_no_tail_flags() {
        let mut s = scorer();
        s.observe(0, &TraceEvent::DpFailed { dp: DpId(0) });
        s.observe(30_000, &answered(1));
        // The stream never crosses a boundary → no live flags possible.
        assert!(s.flags().is_empty());
        let a = report(&s, 600_000);
        let b = report(&s, 600_000);
        assert_eq!(a, b);
        assert!(a.flags.is_empty());
        // But the tail was scored: dp0 sampled down in every window.
        assert!(a.samples.iter().filter(|x| x.dp == DpId(0)).all(|x| x.down && x.score == 0));
        assert_eq!(a.samples.iter().filter(|x| x.dp == DpId(0)).count(), 10);
    }

    /// The 13 kinds the reference scorer marks a point on, then four the
    /// timeline alone marks a point on.
    #[rustfmt::skip]
    fn event(kind: u32, dp: DpId, x: u32) -> TraceEvent {
        let client = ClientId(0);
        let (depth, response_ms) = (x % 16, u64::from(x));
        let (query, exchange) = (FaultMsgClass::Query, FaultMsgClass::Exchange);
        match kind {
            0 => TraceEvent::ResponseAnswered { dp, client, response_ms },
            1 => TraceEvent::ResponseLate { dp, client, response_ms },
            2 => TraceEvent::ClientTimeout { client, dp },
            3 => TraceEvent::RetryScheduled { class: query, dp, attempt: 1 },
            4 => TraceEvent::RetryExhausted { class: exchange, dp, attempts: 3 },
            5 => TraceEvent::SvcQueued { dp, tag: 0, depth },
            6 => TraceEvent::SvcCompleted { dp, tag: 0, depth },
            7 => TraceEvent::SvcCrashDropped { dp, in_service: 1, queued: depth },
            8 => TraceEvent::ExchangeMerged { dp, received: x, fresh: x },
            9 => TraceEvent::DpFailed { dp },
            10 => TraceEvent::DpRecovered { dp },
            11 => TraceEvent::RecoveryReplayed { dp, records: x, dur_ms: x },
            12 => TraceEvent::QueryIssued { client, dp },
            13 => TraceEvent::ExchangeSent { from: dp, to: DpId(0), records: x },
            14 => TraceEvent::DpJoined { dp, epoch: x },
            15 => TraceEvent::DpLeft { dp, epoch: x },
            _ => TraceEvent::WalAppended { dp },
        }
    }

    proptest! {
        /// Scoring on the timeline's bins reproduces the standalone
        /// scorer: the same report, and every derived flag in the ring
        /// exactly where the old sink put it — before the event that
        /// closed its window.
        #[test]
        fn timeline_scoring_matches_the_reference_scorer(
            stream in proptest::collection::vec(
                (0u64..40_000, 0u32..17, 0u32..6, 0u32..700),
                1..600,
            ),
            tail_ms in 0u64..400_000,
        ) {
            let rec = Recorder::new(TraceConfig::default());
            let mut reference = RefScorer::new();
            let mut ring = Vec::new();
            let mut at_ms = 0u64;
            for &(step, kind, dp, x) in &stream {
                // Mostly small steps, now and then a jump over windows.
                at_ms += if step < 38_000 { step / 100 } else { step * 9 };
                let ev = event(kind, DpId(dp), x);
                rec.emit(SimTime(at_ms), || ev);
                reference.observe(at_ms, &ev);
                ring.extend(reference.take_pending());
                ring.push((at_ms, ev));
            }
            let end_ms = at_ms + tail_ms;
            let tl = rec.finish(SimTime(end_ms)).unwrap();
            prop_assert_eq!(&tl.health, &reference.finish(end_ms));
            let kept = ring.len().min(512);
            prop_assert_eq!(&tl.recent[..], &ring[ring.len() - kept..]);
            prop_assert_eq!(tl.dropped_raw, (ring.len() - kept) as u64);
            let flags = &tl.health.flags;
            let degrades = flags.iter().filter(|f| f.degrading).count() as u64;
            prop_assert_eq!(tl.totals.health_degrades, degrades);
            prop_assert_eq!(tl.totals.health_recovers, flags.len() as u64 - degrades);
        }
    }
}
