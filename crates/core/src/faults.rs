//! Fault injection: the deterministic [`FaultPlan`] schedule and client
//! failover.
//!
//! The paper's problem statement (Section 2.2) singles out reliability:
//! "USLA service providers are subject to high load [...] We cannot afford
//! for this infrastructure to fail." DI-GRUBER's answer is redundancy —
//! multiple decision points — but the paper never *measures* what happens
//! when a point dies or the mesh partitions. This module does, through one
//! fault vocabulary ([`FaultPlan`] / [`seed_plan`]): network partitions
//! between groups of decision points, per-leg message loss / duplication /
//! reorder windows, per-point service slowdowns, planned crash-restarts,
//! and churn — every initial point failing and restarting on exponential
//! MTBF / repair clocks. Both kinds of crash take the same path: one
//! crash event and one restart event. Every injected fault emits an
//! [`obs::TraceEvent`] so the timeline can bin it; the graceful-degradation
//! bench (`experiments degradation`) and the operator guide (`FAULTS.md`)
//! are built on this.
//!
//! Client failover is a client policy, not a fault: with
//! `DigruberConfig::failover_after` above zero a client re-binds to another
//! point after that many consecutive timeouts, and a restarted point pulls
//! back its share of clients.
//!
//! Fault plans can be constructed programmatically or parsed from the
//! compact clause DSL accepted by the `--faults` flag ([`FaultPlan::parse`]).

use crate::events::{Ev, Sched};
use crate::world::World;
use desim::Dist;
use gruber_types::{ClientId, DpId, GridError, SimDuration, SimTime};
use obs::TraceEvent;

// ---------------------------------------------------------------------------
// FaultPlan: the deterministic fault schedule
// ---------------------------------------------------------------------------

/// Which message legs a [`LinkFaultWindow`] disturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkScope {
    /// Every leg: client→DP queries, DP→client responses and informs, and
    /// DP↔DP exchange floods.
    All,
    /// Only the client↔DP legs (queries, responses, informs).
    ClientDp,
    /// Only the DP↔DP exchange legs.
    DpDp,
}

impl LinkScope {
    fn covers(self, leg: LinkScope) -> bool {
        self == LinkScope::All || self == leg
    }
}

/// The combined link disturbance in effect on one leg at one instant.
///
/// Produced by [`FaultPlan::disturbance`] and read through
/// `World::leg_disturbance`. All three fields are probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinkDisturbance {
    /// Per-message loss probability.
    pub(crate) loss: f64,
    /// Probability that a delivered message arrives twice.
    pub(crate) duplicate: f64,
    /// Probability that a delivered message is held back and re-jittered
    /// (arrives after messages sent later — reordering).
    pub(crate) reorder: f64,
}

impl LinkDisturbance {
    /// A clean link: no loss, no duplication, no reordering. A clean leg
    /// makes *no* RNG draw, preserving seed-for-seed draw order with
    /// fault-free configurations: each of `core::events`' draws is guarded
    /// by its own probability's `== 0.0` / `> 0.0` test.
    pub(crate) const NONE: LinkDisturbance = LinkDisturbance {
        loss: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
    };

    /// Stacks another disturbance onto this one. Probabilities compose as
    /// independent events: `p = 1 − (1−p₁)(1−p₂)`.
    pub(crate) fn combine(&mut self, other: &LinkDisturbance) {
        self.loss = 1.0 - (1.0 - self.loss) * (1.0 - other.loss);
        self.duplicate = 1.0 - (1.0 - self.duplicate) * (1.0 - other.duplicate);
        self.reorder = 1.0 - (1.0 - self.reorder) * (1.0 - other.reorder);
    }
}

/// A timed network partition between groups ("islands") of decision
/// points. While active, *no exchange flood crosses an island boundary*
/// (in either direction — floods already in flight when the window opens
/// are dropped on arrival). Client↔DP traffic is unaffected: the paper's
/// clients bind to one point and partitions model the *mesh* splitting.
///
/// Decision points not listed in any island form one implicit residual
/// island of their own.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PartitionWindow {
    /// When the partition takes effect.
    pub(crate) start: SimTime,
    /// When the partition heals (exclusive).
    pub(crate) end: SimTime,
    /// Explicit islands; each inner vec lists decision-point indices.
    pub(crate) islands: Vec<Vec<u32>>,
}

/// A timed window of link disturbance (loss, duplication, reorder) on a
/// subset of message legs. Windows overlap freely; overlapping
/// probabilities compose as independent events.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinkFaultWindow {
    /// When the window opens.
    pub(crate) start: SimTime,
    /// When the window closes (exclusive).
    pub(crate) end: SimTime,
    /// Which legs it disturbs.
    pub(crate) scope: LinkScope,
    /// Per-message loss probability added during the window.
    pub(crate) loss: f64,
    /// Per-message duplication probability added during the window.
    pub(crate) duplicate: f64,
    /// Per-message reorder probability added during the window.
    pub(crate) reorder: f64,
}

/// A timed service slowdown: one decision point's container serves every
/// request `factor`× slower (degraded `ServiceProfile`), modelling an
/// overloaded or resource-starved host.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SlowdownWindow {
    /// When the slowdown starts.
    pub(crate) start: SimTime,
    /// When the point returns to full speed.
    pub(crate) end: SimTime,
    /// The degraded decision point.
    pub(crate) dp: u32,
    /// Service-time multiplier (≥ 1).
    pub(crate) factor: f64,
}

/// A planned crash-restart: the decision point crashes at `at` (dropping
/// its in-flight container state, exactly like a churn failure) and
/// restarts `down_for` later.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CrashEvent {
    /// Crash instant.
    pub(crate) at: SimTime,
    /// The decision point to crash.
    pub(crate) dp: u32,
    /// Outage duration before the planned restart.
    pub(crate) down_for: SimDuration,
}

/// A `churn@` clause: from `start` on, every initial decision point fails
/// after an exponential `mtbf` and restarts after an exponential `repair`,
/// for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Churn {
    /// When the clocks start.
    pub(crate) start: SimTime,
    /// Mean time between failures per decision point.
    pub(crate) mtbf: SimDuration,
    /// Mean outage before the restart.
    pub(crate) repair: SimDuration,
}

/// A deterministic, declarative schedule of faults to inject into one run.
///
/// Same plan + same seed + same `--jobs` ⇒ byte-identical traces: the plan
/// holds no randomness of its own; windows merely change which
/// probabilities the (deterministic, per-component) RNG streams are asked
/// about, and a clean leg makes no draw at all. Churn draws its clocks
/// from the world's seeded `misc_rng`.
///
/// # Example
///
/// ```
/// use digruber::FaultPlan;
///
/// let plan = FaultPlan::parse(
///     "partition@120..300=0,1|2; loss.client@60..240=0.3; \
///      slow@100..200=1x2.5; crash@150=2+60",
/// )?;
/// plan.validate(3)?;
/// assert!(plan.partitioned(0, 2, gruber_types::SimTime::from_secs(150)));
/// assert!(!plan.partitioned(0, 1, gruber_types::SimTime::from_secs(150)));
/// # Ok::<(), gruber_types::GridError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Timed partitions of the decision-point mesh.
    pub(crate) partitions: Vec<PartitionWindow>,
    /// Timed loss / duplication / reorder windows.
    pub(crate) link_faults: Vec<LinkFaultWindow>,
    /// Timed per-point service slowdowns.
    pub(crate) slowdowns: Vec<SlowdownWindow>,
    /// Planned crash-restarts.
    pub(crate) crashes: Vec<CrashEvent>,
    /// Exponential failure and repair clocks on every initial point.
    pub(crate) churn: Option<Churn>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub(crate) fn empty() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.partitions.is_empty()
            && self.link_faults.is_empty()
            && self.slowdowns.is_empty()
            && self.crashes.is_empty()
            && self.churn.is_none()
    }

    /// Checks internal consistency against the deployment size.
    pub fn validate(&self, n_dps: usize) -> Result<(), GridError> {
        let bad = |msg: String| Err(GridError::InvalidConfig(msg));
        for (i, p) in self.partitions.iter().enumerate() {
            if p.start >= p.end {
                return bad(format!("partition window {i}: start must precede end"));
            }
            if p.islands.is_empty() {
                return bad(format!("partition window {i}: no islands"));
            }
            let mut seen = vec![false; n_dps];
            for g in &p.islands {
                if g.is_empty() {
                    return bad(format!("partition window {i}: empty island"));
                }
                for &dp in g {
                    if dp as usize >= n_dps {
                        return bad(format!(
                            "partition window {i}: dp {dp} out of range (n_dps={n_dps})"
                        ));
                    }
                    if seen[dp as usize] {
                        return bad(format!("partition window {i}: dp {dp} in two islands"));
                    }
                    seen[dp as usize] = true;
                }
            }
        }
        for (i, lf) in self.link_faults.iter().enumerate() {
            if lf.start >= lf.end {
                return bad(format!("link-fault window {i}: start must precede end"));
            }
            for (p, what) in [
                (lf.loss, "loss"),
                (lf.duplicate, "duplicate"),
                (lf.reorder, "reorder"),
            ] {
                if !(0.0..1.0).contains(&p) {
                    return bad(format!(
                        "link-fault window {i}: {what} probability {p} outside [0,1)"
                    ));
                }
            }
            if lf.loss == 0.0 && lf.duplicate == 0.0 && lf.reorder == 0.0 {
                return bad(format!("link-fault window {i}: all probabilities zero"));
            }
        }
        for (i, sl) in self.slowdowns.iter().enumerate() {
            if sl.start >= sl.end {
                return bad(format!("slowdown window {i}: start must precede end"));
            }
            if sl.dp as usize >= n_dps {
                return bad(format!("slowdown window {i}: dp {} out of range", sl.dp));
            }
            if !sl.factor.is_finite() || sl.factor < 1.0 {
                return bad(format!(
                    "slowdown window {i}: factor {} must be ≥ 1",
                    sl.factor
                ));
            }
        }
        for (i, c) in self.crashes.iter().enumerate() {
            if c.dp as usize >= n_dps {
                return bad(format!("crash event {i}: dp {} out of range", c.dp));
            }
            if c.down_for == SimDuration::ZERO {
                return bad(format!("crash event {i}: zero outage duration"));
            }
            if c.at.0.checked_add(c.down_for.0).is_none() {
                return bad(format!("crash event {i}: restart time out of range"));
            }
        }
        Ok(())
    }

    /// True when an active partition separates decision points `a` and
    /// `b` at `now`. Unlisted points share the implicit residual island.
    pub fn partitioned(&self, a: usize, b: usize, now: SimTime) -> bool {
        if a == b {
            return false;
        }
        self.partitions.iter().any(|p| {
            now >= p.start && now < p.end && island_of(p, a) != island_of(p, b)
        })
    }

    /// The combined disturbance active on one leg class at `now`. Clean
    /// (all-zero) when no window covers the leg — callers must then make
    /// no RNG draw.
    pub(crate) fn disturbance(&self, leg: LinkScope, now: SimTime) -> LinkDisturbance {
        let mut d = LinkDisturbance::NONE;
        for w in &self.link_faults {
            if now >= w.start && now < w.end && w.scope.covers(leg) {
                d.combine(&LinkDisturbance {
                    loss: w.loss,
                    duplicate: w.duplicate,
                    reorder: w.reorder,
                });
            }
        }
        d
    }

    /// Parses the compact clause DSL accepted by the `--faults` flag.
    ///
    /// Clauses are `;`-separated; every time is in whole simulated
    /// seconds; `start..end` windows are half-open:
    ///
    /// | clause | meaning |
    /// |---|---|
    /// | `partition@120..300=0,1\|2` | From t=120 s to t=300 s, DPs {0,1} and {2} cannot exchange (unlisted DPs form a third island). |
    /// | `loss@60..240=0.3` | 30 % message loss on every leg during the window. |
    /// | `loss.client@…=p` / `loss.dpdp@…=p` | Loss scoped to client↔DP or DP↔DP legs only. |
    /// | `dup@60..240=0.1` | 10 % of delivered messages arrive twice (same scope suffixes). |
    /// | `reorder@60..240=0.2` | 20 % of delivered messages are held back and re-jittered. |
    /// | `slow@100..200=1x2.5` | DP 1 serves 2.5× slower from t=100 s to t=200 s. |
    /// | `crash@150=2+60` | DP 2 crashes at t=150 s and restarts 60 s later. |
    /// | `churn@0=1200+600` | From t=0 s on, every initial DP fails after an exponential 1200 s and restarts after an exponential 600 s (one clause per plan). |
    ///
    /// A scope suffix belongs to the clauses with message legs (`loss`,
    /// `dup`, `reorder`); any other clause with one is refused.
    pub fn parse(spec: &str) -> Result<FaultPlan, GridError> {
        let mut plan = FaultPlan::empty();
        for raw in spec.split(';') {
            let clause = raw.trim();
            if clause.is_empty() {
                continue;
            }
            plan.parse_clause(clause)?;
        }
        if plan.is_empty() {
            return Err(GridError::InvalidConfig(format!(
                "fault plan {spec:?} contains no clauses"
            )));
        }
        Ok(plan)
    }

    fn parse_clause(&mut self, clause: &str) -> Result<(), GridError> {
        let bad = |msg: String| GridError::InvalidConfig(msg);
        let (head, rest) = clause
            .split_once('@')
            .ok_or_else(|| bad(format!("clause {clause:?}: missing '@'")))?;
        let (timespec, args) = rest
            .split_once('=')
            .ok_or_else(|| bad(format!("clause {clause:?}: missing '='")))?;
        let (kind, scope) = match head.split_once('.') {
            Some((k, s)) => (k, Some(s)),
            None => (head, None),
        };
        if scope.is_some() && !matches!(kind, "loss" | "dup" | "reorder") {
            return Err(bad(format!("clause {clause:?}: {kind:?} takes no scope suffix")));
        }
        let scope = match scope {
            None | Some("all") => LinkScope::All,
            Some("client") => LinkScope::ClientDp,
            Some("dpdp") => LinkScope::DpDp,
            Some(other) => {
                return Err(bad(format!(
                    "clause {clause:?}: unknown scope {other:?} (use all/client/dpdp)"
                )))
            }
        };
        match kind {
            "partition" => {
                let (start, end) = parse_range(timespec, clause)?;
                let mut islands = Vec::new();
                for group in args.split('|') {
                    let mut g = Vec::new();
                    for dp in group.split(',') {
                        g.push(parse_num(dp.trim(), clause, "dp index")?);
                    }
                    islands.push(g);
                }
                self.partitions.push(PartitionWindow { start, end, islands });
            }
            "loss" | "dup" | "reorder" => {
                let (start, end) = parse_range(timespec, clause)?;
                let p = parse_prob(args.trim(), clause)?;
                let mut w = LinkFaultWindow {
                    start,
                    end,
                    scope,
                    loss: 0.0,
                    duplicate: 0.0,
                    reorder: 0.0,
                };
                match kind {
                    "loss" => w.loss = p,
                    "dup" => w.duplicate = p,
                    _ => w.reorder = p,
                }
                self.link_faults.push(w);
            }
            "slow" => {
                let (start, end) = parse_range(timespec, clause)?;
                let (dp, factor) = args
                    .split_once('x')
                    .ok_or_else(|| bad(format!("clause {clause:?}: expected DPxFACTOR")))?;
                self.slowdowns.push(SlowdownWindow {
                    start,
                    end,
                    dp: parse_num(dp.trim(), clause, "dp index")?,
                    factor: factor.trim().parse().map_err(|_| {
                        bad(format!("clause {clause:?}: bad factor {factor:?}"))
                    })?,
                });
            }
            "crash" => {
                let at = SimTime(parse_ms(timespec.trim(), clause, "time")?);
                let (dp, down) = args
                    .split_once('+')
                    .ok_or_else(|| bad(format!("clause {clause:?}: expected DP+SECS")))?;
                self.crashes.push(CrashEvent {
                    at,
                    dp: parse_num(dp.trim(), clause, "dp index")?,
                    down_for: SimDuration(parse_ms(down.trim(), clause, "outage seconds")?),
                });
            }
            "churn" => {
                if self.churn.is_some() {
                    return Err(bad(format!("clause {clause:?}: a plan has one churn clause")));
                }
                let (mtbf, repair) = args
                    .split_once('+')
                    .ok_or_else(|| bad(format!("clause {clause:?}: expected MTBF+REPAIR")))?;
                let mean = |s: &str, what: &str| match parse_ms(s.trim(), clause, what)? {
                    0 => Err(bad(format!("clause {clause:?}: zero {what}"))),
                    ms => Ok(SimDuration(ms)),
                };
                self.churn = Some(Churn {
                    start: SimTime(parse_ms(timespec.trim(), clause, "time")?),
                    mtbf: mean(mtbf, "MTBF seconds")?,
                    repair: mean(repair, "repair seconds")?,
                });
            }
            other => {
                return Err(bad(format!(
                    "clause {clause:?}: unknown kind {other:?} \
                     (use partition/loss/dup/reorder/slow/crash/churn)"
                )))
            }
        }
        Ok(())
    }
}

fn island_of(p: &PartitionWindow, dp: usize) -> usize {
    p.islands
        .iter()
        .position(|g| g.contains(&(dp as u32)))
        .unwrap_or(usize::MAX)
}

fn parse_num<T: std::str::FromStr>(s: &str, clause: &str, what: &str) -> Result<T, GridError> {
    s.parse()
        .map_err(|_| GridError::InvalidConfig(format!("clause {clause:?}: bad {what} {s:?}")))
}

/// Parses whole seconds into milliseconds. Seconds whose milliseconds do
/// not fit in a `u64` are an error, not a wrapped time.
fn parse_ms(s: &str, clause: &str, what: &str) -> Result<u64, GridError> {
    parse_num::<u64>(s, clause, what)?
        .checked_mul(1000)
        .ok_or_else(|| GridError::InvalidConfig(format!("clause {clause:?}: {what} {s:?} out of range")))
}

fn parse_prob(s: &str, clause: &str) -> Result<f64, GridError> {
    let p: f64 = s.parse().map_err(|_| {
        GridError::InvalidConfig(format!("clause {clause:?}: bad probability {s:?}"))
    })?;
    if !(0.0..1.0).contains(&p) {
        return Err(GridError::InvalidConfig(format!(
            "clause {clause:?}: probability {p} outside [0,1)"
        )));
    }
    Ok(p)
}

fn parse_range(s: &str, clause: &str) -> Result<(SimTime, SimTime), GridError> {
    let (a, b) = s.split_once("..").ok_or_else(|| {
        GridError::InvalidConfig(format!("clause {clause:?}: expected START..END seconds"))
    })?;
    Ok((
        SimTime(parse_ms(a.trim(), clause, "start time")?),
        SimTime(parse_ms(b.trim(), clause, "end time")?),
    ))
}

/// Schedules everything in the world's [`FaultPlan`]: the churn clocks
/// first (each initial point's first failure, drawn in point order),
/// then partition and link-window marker events (the timeline flips state
/// on these), slowdown application/reset, and planned crash-restarts.
/// No-op when no plan is configured.
pub(crate) fn seed_plan(w: &mut World, s: &mut Sched) {
    let Some(plan) = w.cfg.fault_plan.clone() else {
        return;
    };
    if let Some(churn) = plan.churn {
        for dp in 0..w.dps.len() {
            let first = exp_delay(churn.mtbf, w);
            s.post_at(after(churn.start, first), Ev::Crash { dp, down_for: None });
        }
    }
    for (idx, p) in plan.partitions.iter().enumerate() {
        let window = idx as u32;
        let islands = p.islands.len() as u32;
        s.post_at(p.start, Ev::Emit(TraceEvent::PartitionStarted { window, islands }));
        s.post_at(p.end, Ev::Emit(TraceEvent::PartitionHealed { window }));
    }
    for (idx, lf) in plan.link_faults.iter().enumerate() {
        let window = idx as u32;
        s.post_at(lf.start, Ev::Emit(TraceEvent::LinkFaultStarted { window }));
        s.post_at(lf.end, Ev::Emit(TraceEvent::LinkFaultEnded { window }));
    }
    for sl in &plan.slowdowns {
        let dp = sl.dp as usize;
        s.post_at(sl.start, Ev::Slowdown { dp, factor: Some(sl.factor) });
        s.post_at(sl.end, Ev::Slowdown { dp, factor: None });
    }
    for c in &plan.crashes {
        let (dp, down_for) = (c.dp as usize, Some(c.down_for));
        s.post_at(c.at, Ev::Crash { dp, down_for });
    }
}

/// A `slow@` window opens (the point's container serves `factor`× slower)
/// or, on `None`, closes (back to full speed).
pub(crate) fn set_slowdown(w: &mut World, s: &mut Sched, dp: usize, factor: Option<f64>) {
    if dp >= w.dps.len() {
        return;
    }
    w.dps[dp].station.set_slowdown(factor.unwrap_or(1.0));
    let dp = DpId(dp as u32);
    w.trace.emit(s.now(), || match factor {
        Some(f) => TraceEvent::DpSlowdown { dp, permille: (f * 1000.0).round() as u32 },
        None => TraceEvent::DpSlowdownEnded { dp },
    });
}

// ---------------------------------------------------------------------------
// The crash path: one crash event, one restart event
// ---------------------------------------------------------------------------

/// A decision point crashes and schedules its restart. A `crash@` clause
/// carries its outage; a churn failure (`down_for == None`) draws one from
/// the `churn@` REPAIR when the crash takes. A churn failure that finds
/// its point already down (a `crash@` outage or a modeled restore) keeps
/// the point's clock running; one that finds it gone from an elastic pool,
/// or the run over, ends it.
pub(crate) fn crash(w: &mut World, s: &mut Sched, dp: usize, down_for: Option<SimDuration>) {
    let now = s.now();
    let churn = down_for.is_none();
    if crash_dp_now(w, now, dp) {
        let down_for = down_for.unwrap_or_else(|| {
            let repair = churn_clause(w).repair;
            exp_delay(repair, w)
        });
        s.post_at(after(now, down_for), Ev::Restart { dp, churn });
    } else if churn && now < w.end && !departed(w, dp) {
        next_failure(w, s, dp);
    }
}

/// A crashed decision point restarts through [`begin_restore_dp`].
///
/// When failover is on, the third-party observer also *rebalances on
/// restart*: roughly `1/n` of all clients re-bind to the restarted point,
/// undoing the pile-up failover caused on the survivors (without this,
/// a restarted point sits idle while the rest stay saturated). `n` counts
/// live members: points that left an elastic pool stay in `w.dps`. A
/// churn point's restart then posts its next failure.
pub(crate) fn restart(w: &mut World, s: &mut Sched, dp: usize, churn: bool) {
    let now = s.now();
    if !begin_restore_dp(w, s, dp) {
        return;
    }
    if w.cfg.failover_after > 0 {
        let n = w.membership.as_ref().map_or(w.dps.len(), |m| m.table.live_count());
        let share = 1.0 / n as f64;
        for ci in 0..w.clients.len() {
            let c = &mut w.clients[ci];
            if c.dp.index() != dp && c.fallback_rng.chance(share) {
                rebind(w, now, ClientId(ci as u32), DpId(dp as u32));
            }
        }
    }
    if churn && now < w.end {
        next_failure(w, s, dp);
    }
}

/// Takes a decision point down right now: its container loses all
/// in-flight requests (the station's crash emits `SvcCrashDropped` with
/// the exact counts; `DpFailed` is the marker the timeline uses to flip
/// the point's up/down state). Returns whether the point actually
/// crashed (it may already be down, or the run may be over).
pub(crate) fn crash_dp_now(w: &mut World, now: SimTime, dp_idx: usize) -> bool {
    if now >= w.end || dp_idx >= w.dps.len() || !w.dps[dp_idx].up() {
        return false;
    }
    w.dps[dp_idx].host.crash();
    w.dps[dp_idx].station.crash_at(now);
    w.trace.emit(now, || TraceEvent::DpFailed {
        dp: DpId(dp_idx as u32),
    });
    w.dp_failures += 1;
    true
}

/// Brings a crashed decision point back up *right now* with whatever node
/// state it currently holds. This is the final step of every restart;
/// what the node knows at this moment was decided by
/// [`begin_restore_dp`]. A point that is already up (or not there) is
/// left alone.
pub(crate) fn restore_dp_now(w: &mut World, now: SimTime, dp_idx: usize) {
    if dp_idx < w.dps.len() && w.dps[dp_idx].host.rejoin() {
        w.trace.emit(now, || TraceEvent::DpRecovered {
            dp: DpId(dp_idx as u32),
        });
    }
}

/// Begins a crashed decision point's restart through the shared
/// [`dpstore::NodeHost::restore`]. What the point comes back knowing is
/// decided by the store its [`crate::config::RecoveryMode`] gave it
/// ([`crate::world::DecisionPoint::new`]); a store with a modeled cost
/// *delays the moment the point comes back up* by that cost, and a
/// `RecoveryReplayed` trace records the replay size and duration at
/// restart begin.
///
/// Returns whether a restart actually began (the point may already be
/// up, or — in an elastic pool — may have left while it was down: a
/// departed point's pending restart must not bring a non-member back).
pub(crate) fn begin_restore_dp(w: &mut World, s: &mut Sched, dp_idx: usize) -> bool {
    if dp_idx >= w.dps.len() || w.dps[dp_idx].up() || departed(w, dp_idx) {
        return false;
    }
    let now = s.now();
    let restored = w.dps[dp_idx]
        .host
        .restore(now)
        .expect("a store's own snapshot must decode");
    if restored.cost.is_zero() {
        // Nothing was loaded from a disk, modeled or otherwise.
        restore_dp_now(w, now, dp_idx);
        return true;
    }
    let dur_ms = restored.cost.as_millis();
    w.max_recovery_ms = w.max_recovery_ms.max(dur_ms);
    w.trace.emit(now, || TraceEvent::RecoveryReplayed {
        dp: DpId(dp_idx as u32),
        records: restored.records,
        dur_ms: dur_ms as u32,
    });
    s.post_in(restored.cost, Ev::FinishRestore(dp_idx));
    true
}

/// Whether the point has left an elastic pool (it stays in `w.dps`, down
/// for good).
fn departed(w: &World, dp_idx: usize) -> bool {
    w.membership.as_ref().is_some_and(|m| !m.table.is_live(DpId(dp_idx as u32)))
}

// ---------------------------------------------------------------------------
// Churn clocks
// ---------------------------------------------------------------------------

/// The plan's `churn@` clause.
fn churn_clause(w: &World) -> Churn {
    w.cfg
        .fault_plan
        .as_ref()
        .and_then(|p| p.churn)
        .expect("a churn failure implies a churn@ clause")
}

fn exp_delay(mean: SimDuration, w: &mut World) -> SimDuration {
    let d = Dist::Exponential {
        mean: mean.as_secs_f64(),
    };
    // At least one second so failure/repair events cannot pile up at t=0.
    SimDuration::from_secs_f64(d.sample(&mut w.misc_rng).max(1.0))
}

/// `at + delay`, pinned at the end of time: a draw from a huge churn mean
/// lands past any run's end instead of wrapping.
fn after(at: SimTime, delay: SimDuration) -> SimTime {
    SimTime(at.0.saturating_add(delay.0))
}

/// Posts a churn point's next failure, an exponential MTBF from now.
fn next_failure(w: &mut World, s: &mut Sched, dp: usize) {
    let mtbf = churn_clause(w).mtbf;
    let next = exp_delay(mtbf, w);
    s.post_at(after(s.now(), next), Ev::Crash { dp, down_for: None });
}

/// Called on every client timeout: counts consecutive timeouts and
/// re-binds the client to a random *other* decision point once the
/// failover threshold is reached.
pub(crate) fn note_client_timeout(w: &mut World, client: ClientId, now: SimTime) {
    let c = &mut w.clients[client.index()];
    c.consecutive_timeouts += 1;
    let threshold = w.cfg.failover_after;
    if threshold == 0 || c.consecutive_timeouts < threshold || w.dps.len() < 2 {
        return;
    }
    let old = c.dp;
    let n = w.dps.len();
    // Pick a different decision point, preferring ones currently up.
    let candidates: Vec<usize> = (0..n)
        .filter(|&j| j != old.index() && w.dps[j].up())
        .collect();
    if candidates.is_empty() && w.membership.is_some() {
        // Blind rotation could land on a point that has left the pool (left
        // points stay in `w.dps`, down for good). The client keeps its down
        // member and retries failover on its next timeout.
        return;
    }
    let c = &mut w.clients[client.index()];
    let pick = if candidates.is_empty() {
        // Everything else looks down too; rotate blindly.
        (old.index() + 1 + c.fallback_rng.index(n - 1)) % n
    } else {
        candidates[c.fallback_rng.index(candidates.len())]
    };
    rebind(w, now, client, DpId(pick as u32));
}

/// One failover re-binding: the client forgets its timeouts against the
/// point it leaves.
fn rebind(w: &mut World, now: SimTime, client: ClientId, to: DpId) {
    let c = &mut w.clients[client.index()];
    let from = std::mem::replace(&mut c.dp, to);
    c.consecutive_timeouts = 0;
    w.failovers += 1;
    w.trace
        .emit(now, || TraceEvent::ClientRebound { client, from, to });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DigruberConfig;
    use crate::events::Sim;
    use crate::{run_experiment, ServiceKind};
    use gruber::DispatchRecord;
    use gruber_types::{GroupId, JobId, SiteId, VoId};
    use workload::WorkloadSpec;

    fn rec(job: u32) -> DispatchRecord {
        DispatchRecord {
            job: JobId(job),
            site: SiteId(0),
            vo: VoId(0),
            group: GroupId(0),
            cpus: 1,
            dispatched_at: SimTime::ZERO,
            est_finish: SimTime::from_secs(4000),
        }
    }

    /// Runs up to `at_secs`, then has dp0 broker the dispatch of `job`.
    fn broker_at(sim: &mut Sim, at_secs: u64, job: u32) {
        sim.run_until(SimTime::from_secs(at_secs));
        let now = sim.now();
        sim.world_mut().dps[0].host.node_mut().engine_mut().record_dispatch(rec(job), now);
    }

    fn faulty_cfg(failover_after: u32, seed: u64) -> DigruberConfig {
        let mut cfg = DigruberConfig::paper(3, ServiceKind::Gt3, seed);
        cfg.grid_factor = 1;
        cfg.fault_plan = Some(FaultPlan::parse("churn@0=480+360").unwrap());
        cfg.failover_after = failover_after;
        cfg
    }

    fn wl() -> WorkloadSpec {
        WorkloadSpec {
            n_clients: 30,
            duration: SimDuration::from_mins(30),
            ..WorkloadSpec::paper_default()
        }
    }

    #[test]
    fn failures_are_injected_and_counted() {
        let out = run_experiment(faulty_cfg(2, 5), wl(), "faults").unwrap();
        assert!(out.dp_failures > 0, "no failures over 30 min at 8-min MTBF");
        // The run still makes progress.
        assert!(out.report.answered > 100);
    }

    #[test]
    fn failover_improves_handled_fraction() {
        let with = run_experiment(faulty_cfg(2, 5), wl(), "failover on").unwrap();
        let without = run_experiment(faulty_cfg(0, 5), wl(), "failover off").unwrap();
        assert!(with.failovers > 0, "failover never triggered");
        assert_eq!(without.failovers, 0);
        assert!(
            with.report.handled_fraction() > without.report.handled_fraction(),
            "failover {:.3} !> static {:.3}",
            with.report.handled_fraction(),
            without.report.handled_fraction()
        );
    }

    #[test]
    fn no_failure_config_is_inert() {
        let mut cfg = DigruberConfig::paper(2, ServiceKind::Gt3, 5);
        cfg.grid_factor = 1;
        let out = run_experiment(cfg, wl(), "clean").unwrap();
        assert_eq!(out.dp_failures, 0);
        assert_eq!(out.failovers, 0);
    }

    #[test]
    fn crash_drops_exactly_the_inflight_requests() {
        use gruber_types::SimTime;
        // Saturate one decision point's container (4 workers + 3 queued),
        // then crash it: the timeline must charge exactly those 7 requests
        // as dropped, and the station must be empty afterwards.
        let mut cfg = faulty_cfg(2, 5);
        cfg.trace = Some(obs::TraceConfig::default());
        let mut w = crate::world::World::new(cfg, wl()).unwrap();
        for t in 0..7u64 {
            w.dps[0].station.arrive(t, 1.0, &mut w.svc_rng);
        }
        assert_eq!(w.dps[0].station.load(), 7);
        let mut sim = Sim::with_events(w);
        sim.scheduler().post_at(SimTime::from_secs(1), Ev::Crash { dp: 0, down_for: None });
        sim.run_until(SimTime::from_secs(2));
        let w = sim.world();
        assert_eq!(w.dps[0].station.load(), 0);
        assert!(!w.dps[0].up());
        let tl = w.trace.finish(SimTime::from_secs(2)).unwrap();
        assert_eq!(tl.totals.failures, 1);
        assert_eq!(tl.totals.dropped_requests, 7);
        let t0 = tl
            .dp_totals
            .iter()
            .find(|t| t.dp == gruber_types::DpId(0))
            .unwrap();
        assert_eq!(t0.dropped_requests, 7, "drop count must match in-flight");
        assert_eq!(t0.started, 4);
        assert_eq!(t0.queued, 3);
    }

    #[test]
    fn recovered_dp_rejoins_the_next_exchange_round() {
        let mut cfg = faulty_cfg(2, 5);
        cfg.n_dps = 2;
        cfg.trace = Some(obs::TraceConfig::default());
        let mut sim = Sim::with_events(crate::world::World::new(cfg, wl()).unwrap());
        let tracer = sim.world().trace.clone();
        sim.scheduler().set_tracer(tracer);
        // dp0 brokers a dispatch, then a sync round floods it — but dp1
        // crashes at the same instant (FIFO: the crash fires before the
        // flood's WAN delivery), so the in-flight exchange is lost.
        sim.scheduler().post_at(SimTime::from_secs(10), Ev::SyncRound);
        sim.scheduler().post_at(SimTime::from_secs(10), Ev::Crash { dp: 1, down_for: None });
        // Repair well before the next (auto-rescheduled) round at t=190 s.
        sim.scheduler().post_at(SimTime::from_secs(60), Ev::Restart { dp: 1, churn: true });
        broker_at(&mut sim, 5, 1);
        broker_at(&mut sim, 100, 2);
        sim.run_until(SimTime::from_secs(200));
        let w = sim.world();
        assert!(w.dps[1].up());
        // The crashed round's record never arrived; the post-recovery round
        // did. Exactly one merged record, and it is job 2's.
        let (_, merged) = w.dps[1].host.node().engine().counters();
        assert_eq!(merged, 1, "recovered DP must rejoin the next round");
        let tl = w.trace.finish(SimTime::from_secs(200)).unwrap();
        let t1 = tl.dp_totals.iter().find(|t| t.dp == DpId(1)).unwrap();
        assert_eq!(t1.exchanges_in, 1, "only the post-recovery flood merges");
        assert_eq!(t1.exchange_records_in, 1);
        assert_eq!(t1.failures, 1);
        assert_eq!(t1.recoveries, 1);
    }

    #[test]
    fn persist_mode_recovers_state_where_empty_rejoin_loses_it() {
        use crate::config::RecoveryMode;

        let mut base = DigruberConfig::paper(2, ServiceKind::Gt3, 5);
        base.grid_factor = 1;
        base.fault_plan = Some(FaultPlan::parse("crash@240=1+60").unwrap());
        let mut empty = base.clone();
        empty.persistence.mode = RecoveryMode::EmptyRejoin;
        let mut persist = base;
        persist.persistence.mode = RecoveryMode::Persist;
        // Snapshots off: everything the point knew must come back from
        // the WAL alone.
        persist.persistence.policy = dpstore::SnapshotPolicy::DISABLED;
        let e = run_experiment(empty, wl(), "empty").unwrap();
        let p = run_experiment(persist, wl(), "persist").unwrap();
        assert_eq!(e.recoveries, 1);
        assert_eq!(p.recoveries, 1);
        assert_eq!(e.wal_records_replayed, 0, "empty rejoin replays nothing");
        assert!(p.wal_records_replayed > 0, "no WAL records replayed");
        assert!(p.max_recovery_ms > 0, "replay must cost modeled time");
        // The restored point remembers its merge history; the empty one
        // looks like it never merged, so its staleness spans the run.
        let stale_e = e.max_view_staleness_ms[1];
        let stale_p = p.max_view_staleness_ms[1];
        assert!(stale_p < stale_e, "persist {stale_p} !< empty {stale_e}");
    }

    #[test]
    fn retain_mode_counts_recoveries_and_replays_nothing() {
        // The default (Retain) reports a crashy run's recoveries with no
        // WAL replay and no modeled replay cost; a clean run reports none.
        let out = run_experiment(faulty_cfg(2, 5), wl(), "faults").unwrap();
        assert!(out.recoveries > 0);
        assert_eq!(out.wal_records_replayed, 0);
        assert_eq!(out.max_recovery_ms, 0);
        let clean = {
            let mut cfg = DigruberConfig::paper(2, ServiceKind::Gt3, 5);
            cfg.grid_factor = 1;
            run_experiment(cfg, wl(), "clean").unwrap()
        };
        assert_eq!(clean.recoveries, 0);
        assert_eq!(clean.wal_records_replayed + clean.max_recovery_ms, 0);
    }

    #[test]
    fn single_dp_with_failures_survives_without_failover_target() {
        let mut cfg = faulty_cfg(2, 9);
        cfg.n_dps = 1;
        let out = run_experiment(cfg, wl(), "lonely").unwrap();
        // Nowhere to fail over to; the run must still complete.
        assert_eq!(out.failovers, 0);
        assert!(out.dp_failures > 0);
    }

    #[test]
    fn planned_restart_rebalances_clients_only_with_failover() {
        for failover_after in [0, 2] {
            let mut cfg = DigruberConfig::paper(2, ServiceKind::Gt3, 5);
            cfg.grid_factor = 1;
            cfg.failover_after = failover_after;
            cfg.fault_plan = Some(FaultPlan::parse("crash@10=1+20").unwrap());
            let mut sim = Sim::with_events(crate::world::World::new(cfg, wl()).unwrap());
            sim.scheduler().post_at(SimTime::ZERO, Ev::SeedPlan);
            sim.run_until(SimTime::from_secs(5));
            for c in &mut sim.world_mut().clients {
                c.dp = DpId(0);
            }
            sim.run_until(SimTime::from_secs(40));
            let w = sim.world();
            assert!(w.dps[1].up());
            let back = w.clients.iter().filter(|c| c.dp == DpId(1)).count();
            if failover_after == 0 {
                assert_eq!(back, 0, "static binding moved clients");
            } else {
                // Half of 30 clients, give or take the coin flips.
                assert!(back >= 8, "restart pulled back only {back} of 30");
                assert_eq!(w.failovers, back as u64);
            }
        }
    }

    #[test]
    fn churn_clock_outlives_a_planned_outage() {
        // dp0's first churn failure lands inside the planned 600 s outage;
        // its clock must keep running after the planned restart.
        let mut cfg = DigruberConfig::paper(1, ServiceKind::Gt3, 5);
        cfg.grid_factor = 1;
        cfg.fault_plan = Some(FaultPlan::parse("crash@1=0+600; churn@0=60+10").unwrap());
        let mut sim = Sim::with_events(crate::world::World::new(cfg, wl()).unwrap());
        sim.scheduler().post_at(SimTime::ZERO, Ev::SeedPlan);
        let end = sim.world().end;
        sim.run_until(end);
        let failures = sim.world().dp_failures;
        assert!(failures >= 5, "churn stopped after the planned crash: {failures} failures");
    }

    #[test]
    fn partition_blocks_exchange_then_reconverges_after_heal() {
        let mut cfg = DigruberConfig::paper(2, ServiceKind::Gt3, 11);
        cfg.grid_factor = 1;
        cfg.trace = Some(obs::TraceConfig::default());
        cfg.fault_plan = Some(FaultPlan::parse("partition@0..100=0|1").unwrap());
        let mut sim = Sim::with_events(crate::world::World::new(cfg, wl()).unwrap());
        let tracer = sim.world().trace.clone();
        sim.scheduler().set_tracer(tracer);
        sim.scheduler().post_at(SimTime::ZERO, Ev::SeedPlan);
        // dp0 brokers a dispatch, then the t=10 s sync round tries to flood
        // it into an active partition.
        sim.scheduler().post_at(SimTime::from_secs(10), Ev::SyncRound);
        broker_at(&mut sim, 5, 1);
        // Mid-partition probe: nothing crossed the boundary — the views
        // have diverged (dp1 knows nothing of job 1).
        sim.run_until(SimTime::from_secs(90));
        let (_, merged) = sim.world().dps[1].host.node().engine().counters();
        assert_eq!(merged, 0, "exchange crossed an active partition");
        sim.run_until(SimTime::from_secs(300));
        let w = sim.world();
        // The blocked flood's records were requeued, so the first post-heal
        // round (t=190 s; heal at t=100 s) retransmits and reconverges.
        let (_, merged) = w.dps[1].host.node().engine().counters();
        assert_eq!(merged, 1, "views must reconverge within one post-heal round");
        assert!(
            w.dps[1].host.node().engine().last_merge_at().expect("merged post-heal")
                >= SimTime::from_secs(190)
        );
        let tl = w.trace.finish(SimTime::from_secs(300)).unwrap();
        assert_eq!(tl.totals.partitions_started, 1);
        assert_eq!(tl.totals.partition_drops, 1, "the blocked send must be traced");
    }

    // -- FaultPlan ----------------------------------------------------------

    #[test]
    fn parse_round_trips_every_clause_kind() {
        let plan = FaultPlan::parse(
            "partition@120..300=0,1|2; loss@60..240=0.3; dup.dpdp@10..20=0.1; \
             reorder.client@30..40=0.2; slow@100..200=1x2.5; crash@150=2+60; \
             churn@30=1200+600",
        )
        .unwrap();
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.partitions[0].islands, vec![vec![0, 1], vec![2]]);
        assert_eq!(plan.link_faults.len(), 3);
        assert_eq!(plan.link_faults[0].scope, LinkScope::All);
        assert_eq!(plan.link_faults[0].loss, 0.3);
        assert_eq!(plan.link_faults[1].scope, LinkScope::DpDp);
        assert_eq!(plan.link_faults[1].duplicate, 0.1);
        assert_eq!(plan.link_faults[2].scope, LinkScope::ClientDp);
        assert_eq!(plan.link_faults[2].reorder, 0.2);
        assert_eq!(plan.slowdowns.len(), 1);
        assert_eq!(plan.slowdowns[0].dp, 1);
        assert_eq!(plan.slowdowns[0].factor, 2.5);
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.crashes[0].at, SimTime::from_secs(150));
        assert_eq!(plan.crashes[0].down_for, SimDuration::from_secs(60));
        let churn = Churn {
            start: SimTime::from_secs(30),
            mtbf: SimDuration::from_secs(1200),
            repair: SimDuration::from_secs(600),
        };
        assert_eq!(plan.churn, Some(churn));
        plan.validate(3).unwrap();
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for spec in [
            "",
            "nonsense@1..2=3",
            "loss@60..240",      // missing '='
            "loss.wan@1..2=0.5", // bad scope
            "loss@1..2=1.5",     // probability out of range
            "slow@1..2=x2.5",    // bad dp
            "crash@10=1",        // missing '+'
            "partition@1..2",    // missing '='
            "crash.client@150=2+60",     // scope on a clause with no legs
            "slow.dpdp@1..2=1x2.5",      // likewise
            "partition.all@1..2=0|1",    // likewise
            "churn.client@0=1200+600",   // likewise
            "churn@0=1200",              // missing '+'
            "churn@0=0+600",             // zero MTBF
            "churn@0=1200+0",            // zero REPAIR
            "churn@0=60+10; churn@5=1+1", // a second churn clause
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "{spec} should fail");
        }
        // Range inversion is a validate()-time error, not parse-time.
        let plan = FaultPlan::parse("partition@5..2=0|1").unwrap();
        assert!(plan.validate(2).is_err());
    }

    #[test]
    fn parse_rejects_seconds_whose_milliseconds_overflow() {
        // u64::MAX / 1000 + 1 seconds: `s * 1000` used to wrap to 384 ms.
        for spec in [
            "crash@18446744073709552=0+5",
            "crash@10=0+18446744073709552",
            "loss@0..18446744073709552=0.5",
        ] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.to_string().contains("out of range"), "{spec}: {err}");
        }
        // The largest whole-second time still parses; the restart it
        // would need does not fit, which validate() refuses.
        let plan = FaultPlan::parse("crash@18446744073709551=0+5").unwrap();
        assert_eq!(plan.crashes[0].at, SimTime(18_446_744_073_709_551_000));
        assert!(plan.validate(1).is_err());
    }

    #[test]
    fn validate_catches_out_of_range_and_overlap() {
        let mut plan = FaultPlan::parse("partition@1..2=0,1|2").unwrap();
        assert!(plan.validate(2).is_err(), "dp 2 out of range for n_dps=2");
        plan.validate(3).unwrap();
        plan.partitions[0].islands = vec![vec![0], vec![0]];
        assert!(plan.validate(3).is_err(), "dp in two islands");
        let plan = FaultPlan::parse("slow@1..2=0x0.5").unwrap();
        assert!(plan.validate(1).is_err(), "factor < 1");
        let plan = FaultPlan::parse("crash@1=5+10").unwrap();
        assert!(plan.validate(3).is_err(), "crash dp out of range");
    }

    #[test]
    fn partitioned_respects_islands_windows_and_residual() {
        let plan = FaultPlan::parse("partition@100..200=0,1|2").unwrap();
        let mid = SimTime::from_secs(150);
        // Severed across islands, connected within one.
        assert!(plan.partitioned(0, 2, mid));
        assert!(plan.partitioned(1, 2, mid));
        assert!(!plan.partitioned(0, 1, mid));
        // Unlisted DPs share the residual island with each other but are
        // cut off from every explicit island.
        assert!(plan.partitioned(0, 3, mid));
        assert!(!plan.partitioned(3, 4, mid));
        // Outside the window nothing is severed; end is exclusive.
        assert!(!plan.partitioned(0, 2, SimTime::from_secs(99)));
        assert!(!plan.partitioned(0, 2, SimTime::from_secs(200)));
        assert!(plan.partitioned(0, 2, SimTime::from_secs(100)));
    }

    #[test]
    fn disturbance_composes_overlapping_windows() {
        let plan = FaultPlan::parse("loss@0..100=0.5; loss.client@0..100=0.5").unwrap();
        let now = SimTime::from_secs(50);
        let client = plan.disturbance(LinkScope::ClientDp, now);
        assert!((client.loss - 0.75).abs() < 1e-12, "{}", client.loss);
        let dpdp = plan.disturbance(LinkScope::DpDp, now);
        assert_eq!(dpdp.loss, 0.5);
        assert_eq!(
            plan.disturbance(LinkScope::DpDp, SimTime::from_secs(100)),
            LinkDisturbance::NONE
        );
        let mut d = LinkDisturbance::NONE;
        d.combine(&LinkDisturbance {
            loss: 0.0,
            duplicate: 0.2,
            reorder: 0.0,
        });
        assert_ne!(d, LinkDisturbance::NONE);
        assert!((d.duplicate - 0.2).abs() < 1e-12, "{}", d.duplicate);
    }

    /// The clause DSL's tokens, from which arbitrary text is drawn.
    const TOKENS: [&str; 23] = [
        "partition", "loss", ".client", "crash", "slow", "churn", "@", "..", "=", ";", "|", ",",
        "+", "x", " ", "0", "1", "0.5", "2.5", "18446744073709552", "-", "\u{e9}", "\n",
    ];

    proptest::proptest! {
        /// Hostile text: arbitrary text, or a valid plan with one byte
        /// replaced, removed or inserted, never panics and fails only as
        /// `InvalidConfig`.
        #[test]
        fn hostile_text_is_refused((picks, at, byte) in (
            proptest::collection::vec(0..TOKENS.len(), 0..40),
            0..usize::MAX,
            0u8..=255,
        )) {
            let valid =
                "partition@120..300=0|1,2; loss.client@0..600=0.2; slow@1..2=1x2.5; crash@10=1+5; \
                 churn@0=60+30";
            proptest::prop_assert!(FaultPlan::parse(valid).is_ok(), "the sample itself must parse");
            let garbage: String = picks.into_iter().map(|i| TOKENS[i]).collect();
            let at = at % valid.len();
            let mut replaced = valid.as_bytes().to_vec();
            replaced[at] = byte;
            let mut removed = valid.as_bytes().to_vec();
            removed.remove(at);
            let mut inserted = valid.as_bytes().to_vec();
            inserted.insert(at, byte);
            for bytes in [garbage.as_bytes(), &replaced, &removed, &inserted] {
                let text = String::from_utf8_lossy(bytes);
                if let Err(e) = FaultPlan::parse(&text) {
                    let typed = matches!(e, GridError::InvalidConfig(_));
                    proptest::prop_assert!(typed, "{text:?}: {e:?}");
                }
            }
        }
    }
}
