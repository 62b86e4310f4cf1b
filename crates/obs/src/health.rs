//! Online per-DP health scoring over the trace stream.
//!
//! The paper evaluates decision points only after the fact; this consumer
//! flags a degrading point *while the run is going*, from the trace stream
//! alone — no access to simulator internals. [`HealthScorer`] folds the
//! per-DP events into a rolling **feature vector** per fixed scoring
//! window (default 60 s):
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
//! When a window closes, each seen point gets a **score** in 0–100
//! (integer arithmetic only — scoring is bit-deterministic across `--jobs`
//! and platforms): a point that is down scores 0; otherwise penalties are
//! subtracted from 100, saturating:
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
//! edge: `Degrading` is raised only after [`HealthConfig::degrade_windows`]
//! *consecutive* windows score below [`HealthConfig::degrade_below`], and
//! `Recovered` only after [`HealthConfig::recover_windows`] consecutive
//! windows score at or above [`HealthConfig::recover_at`]. Scores in the
//! dead band between the two thresholds reset both streaks. Each
//! transition is emitted back into the stream as a derived
//! [`TraceEvent::HealthFlag`] stamped at the window boundary, so the
//! timeline counts it (`health_degrades` / `health_recovers`) and the ring
//! and JSONL export carry it like any first-class event.
//!
//! Windows close when the event stream advances past their boundary
//! (there is no wall-clock inside the scorer). At `finish` the remaining
//! stream tail is scored into trailing [`HealthSample`]s, but **no flag
//! transitions** are evaluated there: flags are live signals and exist
//! only where the stream itself crossed the boundary — which is also what
//! keeps `HealthReport::flags` reconciling ±0 with the timeline counters.
//!
//! The operator-facing walkthrough (worked scores from a fault run,
//! window sizing vs the 180 s sync interval) lives in `OBSERVABILITY.md`.

use gruber_types::{DpId, SimDuration};

use crate::consume::TraceConsumer;
use crate::event::TraceEvent;

/// Tuning for the online scorer. The defaults are sized for the paper
/// deployment (180 s sync interval, 30 s client timeout): one scoring
/// window per third of a sync interval, a staleness budget of two sync
/// intervals, and two-window hysteresis on both edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Scoring window length. Every seen point is scored once per window.
    pub window: SimDuration,
    /// Staleness that earns the full 40-point penalty. Healthy points
    /// under the paper's 180 s sync interval peak at half this budget,
    /// i.e. a 20-point penalty — never enough to flag on its own.
    pub staleness_budget: SimDuration,
    /// Scores strictly below this are "bad" windows.
    pub degrade_below: u32,
    /// Scores at or above this are "good" windows.
    pub recover_at: u32,
    /// Consecutive bad windows before `Degrading` is raised.
    pub degrade_windows: u32,
    /// Consecutive good windows before `Recovered` clears the flag.
    pub recover_windows: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: SimDuration::from_secs(60),
            staleness_budget: SimDuration::from_secs(360),
            degrade_below: 65,
            recover_at: 80,
            degrade_windows: 2,
            recover_windows: 2,
        }
    }
}

/// One point's score for one closed window, with the penalty breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSample {
    /// Window close time (the boundary), milliseconds.
    pub t_ms: u64,
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
    pub score: u32,
}

/// Everything the scorer concluded, carried on [`crate::RunTimeline`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Scoring window length, milliseconds.
    pub window_ms: u64,
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

/// Per-point rolling state: window accumulators + gauges + hysteresis.
#[derive(Debug, Clone, Default)]
struct DpHealth {
    seen: bool,
    // Window accumulators (reset when a window closes).
    answered: u32,
    late: u32,
    timeouts: u32,
    retries: u32,
    exhausted: u32,
    recovery_ms: u32,
    // Gauges (carried across windows).
    queue_depth: u32,
    last_exchange_ms: Option<u64>,
    down: bool,
    // Hysteresis.
    bad_streak: u32,
    good_streak: u32,
    degraded: bool,
}

/// The online health consumer. Feed it the stream (it is wired into the
/// recorder's fan-out whenever [`crate::TraceConfig::health`] is set);
/// read windowed scores and flags back via [`HealthScorer::finish`].
#[derive(Debug, Clone)]
pub struct HealthScorer {
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

impl HealthScorer {
    /// A scorer with windows starting at t=0.
    pub fn new(cfg: HealthConfig) -> Self {
        let window_ms = cfg.window.as_millis().max(1);
        HealthScorer {
            window_ms,
            staleness_budget_ms: cfg.staleness_budget.as_millis().max(1),
            degrade_below: cfg.degrade_below,
            recover_at: cfg.recover_at,
            degrade_windows: cfg.degrade_windows.max(1),
            recover_windows: cfg.recover_windows.max(1),
            window_start_ms: 0,
            dps: Vec::new(),
            samples: Vec::new(),
            flags: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn dp(&mut self, dp: DpId) -> &mut DpHealth {
        let i = dp.index();
        if i >= self.dps.len() {
            self.dps.resize_with(i + 1, DpHealth::default);
        }
        let slot = &mut self.dps[i];
        slot.seen = true;
        slot
    }

    /// Scores one point against the window closing at `end_ms`.
    fn score(&self, d: &DpHealth, end_ms: u64) -> HealthSample {
        let demand = u64::from(d.answered) + u64::from(d.late) + u64::from(d.timeouts);
        let p_timeout = if demand > 0 {
            ((200 * u64::from(d.timeouts)) / demand).min(60) as u32
        } else {
            0
        };
        // A point that never merged has been stale since the run began.
        let staleness = end_ms.saturating_sub(d.last_exchange_ms.unwrap_or(0));
        let p_stale = ((40 * staleness.min(self.staleness_budget_ms)) / self.staleness_budget_ms) as u32;
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
            dp: DpId(0), // caller fills in
            score,
            p_timeout,
            p_stale,
            p_retry,
            p_queue,
            p_recover,
            down: d.down,
        }
    }

    /// Closes every window whose boundary is at or before `at_ms`. With
    /// `emit_flags`, hysteresis runs and transitions are queued as derived
    /// events; without (the `finish` tail), only samples are recorded.
    fn close_windows_until(&mut self, at_ms: u64, emit_flags: bool) {
        while at_ms >= self.window_start_ms + self.window_ms {
            let end_ms = self.window_start_ms + self.window_ms;
            for i in 0..self.dps.len() {
                if !self.dps[i].seen {
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
                    // Dead band: evidence for neither edge.
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
                // Reset window accumulators; gauges carry over.
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

    /// Derived [`TraceEvent::HealthFlag`] events queued by window closes
    /// since the last drain. The sink re-feeds these to every other
    /// consumer, stamped at their window boundary.
    pub fn take_pending(&mut self) -> Vec<(u64, TraceEvent)> {
        std::mem::take(&mut self.pending)
    }

    /// Scores the stream tail (samples only — see the module docs for why
    /// no flags fire here) and returns the report. Non-destructive: works
    /// on a clone, so repeated calls agree.
    pub fn finish(&self, end_ms: u64) -> HealthReport {
        let mut tail = self.clone();
        tail.close_windows_until(end_ms, false);
        HealthReport {
            window_ms: self.window_ms,
            samples: tail.samples,
            flags: tail.flags,
        }
    }
}

impl TraceConsumer for HealthScorer {
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
            // A query against a point marks it as under observation even
            // before any response resolves (so a point that only ever
            // times out is still scored).
            TraceEvent::QueryIssued { dp, .. } => {
                self.dp(dp);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::ClientId;

    fn scorer() -> HealthScorer {
        HealthScorer::new(HealthConfig::default())
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
    fn drive(s: &mut HealthScorer, from_s: u64, to_s: u64, ev: TraceEvent) {
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
        assert!(s.take_pending().is_empty());
        let rep = s.finish(720_000);
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
        let rep = s.finish(300_000);
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
        let rep = s.finish(600_000);
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
        let rep = s.finish(600_000);
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
        let rep = s.finish(900_000);
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
        assert!(s.take_pending().is_empty());
        let a = s.finish(600_000);
        let b = s.finish(600_000);
        assert_eq!(a, b);
        assert!(a.flags.is_empty());
        // But the tail was scored: dp0 sampled down in every window.
        assert!(a.samples.iter().filter(|x| x.dp == DpId(0)).all(|x| x.down && x.score == 0));
        assert_eq!(a.samples.iter().filter(|x| x.dp == DpId(0)).count(), 10);
    }
}
