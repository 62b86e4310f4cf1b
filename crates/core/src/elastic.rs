//! Elastic membership: the paper's Section 5 observer, and its desim
//! driver.
//!
//! The paper's deployment is static: a fixed pool of decision points and
//! clients "selected randomly in the beginning". Its Section 5 proposes —
//! "we do not have a DI-GRUBER implementation for such an approach" — a
//! third-party observer that adds decision points or rebalances load as
//! the points saturate. This module is that observer, the only
//! pool-sizing mechanism in the workspace, in two layers.
//!
//! Its state is kept **sans-IO** in the `dpnode` style, in three
//! submodules that import only `gruber_types` and `std`: pure state
//! machines that are driven with observations and whose decisions the
//! driver executes. Nothing in them schedules events, touches sockets or
//! reads clocks.
//!
//! * [`MembershipTable`] — the epoch-stamped member list. Joins and
//!   leaves are first-class protocol inputs: each bumps the epoch, so two
//!   runs can compare tables by `(epoch, members)` alone.
//! * [`HashRing`] — consistent hashing with virtual nodes, replacing the
//!   paper's static client→DP binding. Vnode positions are deterministic
//!   in `(seed, dp, replica)` and independent of insertion order, so a
//!   join re-homes only the ~`1/n` clients whose arc the newcomer claims
//!   and a leave re-homes only the leaver's own clients.
//! * [`Autoscaler`] — the observer's control loop: it consumes pool
//!   samples (backlog per decision point, degraded-point counts from the
//!   `obs` health scorer) and answers grow / shrink / hold with
//!   hysteresis and a post-action cooldown, so a noisy minute never flaps
//!   the pool.
//!
//! The rest of this module executes those decisions on the simulated
//! deployment:
//!
//! * **Epoch-stamped membership** — every join/leave bumps the table's
//!   epoch; the traced
//!   [`obs::TraceEvent::DpJoined`]/[`obs::TraceEvent::DpLeft`] events carry
//!   it, so a timeline can be replayed into the exact pool history.
//! * **Consistent-hash client homing** — clients bind to
//!   [`HashRing::home_of`] instead of the paper's static random draw.
//!   Every move is traced as [`obs::TraceEvent::ClientRehomed`].
//! * **Join bootstrap** — a newcomer receives a sponsor's live dispatch
//!   records as an ordinary [`dpnode::Input::PeerRecords`] flood
//!   ([`dpnode::DpNode::state_transfer`]), over the simulated WAN like any
//!   exchange, so its view starts warm without inheriting the sponsor's
//!   protocol counters.
//! * **Drain-then-leave** — a leaver flushes its outgoing flood log with a
//!   final sync tick (routed through the normal exchange path, so latency,
//!   loss and partitions all apply) before going dark; records it learned
//!   are not lost with it.
//! * **Autoscaler** — [`membership_tick`] samples the pool (service
//!   backlogs plus the `obs` health flags, read in place through
//!   [`obs::Recorder::degraded`]) and executes [`Autoscaler`] decisions.
//!
//! Everything here is gated on [`crate::config::DigruberConfig::membership`]
//! — `None` (the default) runs the paper's static binding with a byte-
//! identical event stream to pre-membership builds. `BENCH_topology.json`
//! pins the measured behaviour by exchange topology × DP count.

mod ring;
mod scaler;
mod table;

pub use ring::HashRing;
pub use scaler::{Autoscaler, PoolSample, ScaleDecision, ScalerConfig};
pub use table::{MemberState, MembershipTable};

use crate::events::{send_exchange, sync_dp, Ev, Sched};
use crate::world::{DecisionPoint, World};
use gruber_types::{ClientId, DpId, GridError, SimDuration};

/// Configuration for the elastic-membership subsystem. `None` at the
/// deployment level (the default everywhere) reproduces the paper: static
/// binding, fixed pool, byte-identical fingerprints with pre-membership
/// builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipConfig {
    /// Virtual nodes per decision point on the consistent-hash ring.
    /// More vnodes smooth the load split at the cost of ring size; 64
    /// keeps the max/mean client imbalance under ~30 % at 100 DPs.
    pub vnodes: u32,
    /// How often the runtime samples the pool and consults the
    /// autoscaler. Ignored when `scaler` is `None`.
    pub check_interval: SimDuration,
    /// The autoscaler policy; `None` keeps the pool fixed (ring homing
    /// and explicit join/leave still work).
    pub scaler: Option<ScalerConfig>,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            vnodes: 64,
            check_interval: SimDuration::from_secs(30),
            scaler: Some(ScalerConfig::default()),
        }
    }
}

impl MembershipConfig {
    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), GridError> {
        if self.vnodes == 0 {
            return Err(GridError::InvalidConfig(
                "membership with zero vnodes".into(),
            ));
        }
        if self.scaler.is_some() && self.check_interval.is_zero() {
            return Err(GridError::InvalidConfig(
                "autoscaler with zero check interval".into(),
            ));
        }
        if let Some(s) = &self.scaler {
            s.validate()?;
        }
        Ok(())
    }
}

/// The elastic-membership state a [`World`] carries when
/// [`crate::config::DigruberConfig::membership`] is set.
pub struct MembershipRuntime {
    /// The subsystem configuration.
    pub cfg: MembershipConfig,
    /// Epoch-stamped member list.
    pub table: MembershipTable,
    /// Consistent-hash client homing.
    pub ring: HashRing,
    /// The control loop (`None` keeps the pool fixed; explicit
    /// [`join_decision_point`]/[`leave_decision_point`] still work).
    pub scaler: Option<Autoscaler>,
    /// Joins executed.
    pub dp_joins: u64,
    /// Leaves executed.
    pub dp_leaves: u64,
    /// Client re-homings executed (join and leave combined).
    pub clients_rehomed: u64,
}

impl MembershipRuntime {
    /// Builds the runtime for an initial pool of `n_dps` points.
    pub fn new(cfg: MembershipConfig, seed: u64, n_dps: usize) -> Self {
        MembershipRuntime {
            table: MembershipTable::with_initial(n_dps),
            ring: HashRing::with_members(seed, cfg.vnodes, n_dps),
            scaler: cfg.scaler.map(Autoscaler::new),
            dp_joins: 0,
            dp_leaves: 0,
            clients_rehomed: 0,
            cfg,
        }
    }

    /// The ring's home for a client (initial binding and re-homing use
    /// the same lookup). Panics only on an empty ring, which
    /// [`MembershipConfig::validate`] plus a non-empty
    /// deployment rule out.
    pub fn home_of(&self, c: ClientId) -> DpId {
        self.ring.home_of(c).expect("non-empty ring")
    }
}

/// Reads one [`PoolSample`] off the world: live membership count, service
/// backlogs over live-and-up points, and how many of those points the
/// trace's health scoring currently flags (none when tracing is off, so
/// the scaler then runs on backlog alone).
pub fn pool_sample(w: &World) -> PoolSample {
    let Some(m) = &w.membership else {
        return PoolSample::default();
    };
    let mut max_backlog = 0u32;
    let mut total_backlog = 0u32;
    let mut degraded = 0u32;
    for dp in m.table.live() {
        let i = dp.index();
        if i >= w.dps.len() || !w.dps[i].up() {
            continue;
        }
        let b = w.dps[i].station.backlog_len() as u32;
        max_backlog = max_backlog.max(b);
        total_backlog += b;
        if w.trace.degraded(dp) {
            degraded += 1;
        }
    }
    PoolSample {
        live: m.table.live_count() as u32,
        max_backlog,
        total_backlog,
        degraded,
    }
}

/// Joins one fresh decision point into the elastic pool: spins up the
/// node, bootstraps its view from the lowest-indexed live sponsor's
/// records (over the WAN, through the ordinary exchange path), claims its
/// arcs on the ring and re-homes exactly the clients whose home the ring
/// now maps to the newcomer. Returns the new id, or `None` when
/// membership is off.
pub fn join_decision_point(w: &mut World, s: &mut Sched) -> Option<DpId> {
    w.membership.as_ref()?;
    let now = s.now();
    let new_id = DpId(w.dps.len() as u32);
    w.dps.push(DecisionPoint::new(&w.cfg, &w.site_specs, &w.uslas, new_id, &w.trace, now));
    let sponsor = (0..w.dps.len() - 1).find(|&i| {
        w.dps[i].up() && w.membership.as_ref().is_some_and(|m| m.table.is_live(DpId(i as u32)))
    });
    let m = w.membership.as_mut().expect("checked above");
    let epoch = m.table.join(new_id);
    m.ring.insert(new_id);
    m.dp_joins += 1;
    w.trace.emit(now, || obs::TraceEvent::DpJoined {
        dp: new_id,
        epoch: epoch as u32,
    });
    // Re-home exactly the clients whose arc the newcomer claimed.
    rehome(w, now, |from, home| home == new_id && from != new_id);
    w.reconfig_log.push((now, new_id));
    // Warm the newcomer's view from a sponsor, as a normal peer flood.
    if let Some(sp) = sponsor {
        if w.exchanges_state() {
            let payload = w.dps[sp].host.node_mut().state_transfer(now);
            if payload.n_records > 0 {
                send_exchange(w, s, sp, new_id.index(), payload, 0);
            }
        }
    }
    Some(new_id)
}

/// Moves every client for which `moves(current point, ring home)` holds to
/// its ring home, traced and counted. Membership must be on.
fn rehome(w: &mut World, now: gruber_types::SimTime, moves: impl Fn(DpId, DpId) -> bool) {
    let mut moved = 0u64;
    for ci in 0..w.clients.len() {
        let (client, from) = (w.clients[ci].id, w.clients[ci].dp);
        let to = w.membership.as_ref().expect("membership on").home_of(client);
        if moves(from, to) {
            w.clients[ci].dp = to;
            moved += 1;
            w.trace
                .emit(now, || obs::TraceEvent::ClientRehomed { client, from, to });
        }
    }
    w.membership.as_mut().expect("membership on").clients_rehomed += moved;
}

/// Drains and removes the highest-indexed live member: its outgoing flood
/// log is flushed with a final sync tick (through the normal exchange
/// path — latency, loss and partitions apply), the point goes dark, its
/// arcs leave the ring and its clients re-home to their new ring homes.
/// Returns the leaver, or `None` when membership is off or the pool is a
/// single point.
pub fn leave_decision_point(w: &mut World, s: &mut Sched) -> Option<DpId> {
    let m = w.membership.as_ref()?;
    if m.table.live_count() <= 1 {
        return None;
    }
    let leaver = *m.table.live().last()?;
    let now = s.now();
    let idx = leaver.index();
    if w.dps[idx].up() {
        // Final drain: flush the outgoing flood log before going dark.
        sync_dp(w, s, idx);
    }
    w.dps[idx].host.crash();
    w.dps[idx].station.crash_at(now);
    let m = w.membership.as_mut().expect("checked above");
    let epoch = m.table.leave(leaver);
    m.ring.remove(leaver);
    m.dp_leaves += 1;
    w.trace.emit(now, || obs::TraceEvent::DpLeft {
        dp: leaver,
        epoch: epoch as u32,
    });
    // Only the leaver's own clients move; everyone else's home is stable.
    rehome(w, now, |from, _| from == leaver);
    w.retire_log.push((now, leaver));
    Some(leaver)
}

/// The autoscaler's periodic tick: sample the pool, consult the policy,
/// execute the decision, reschedule. Seeded by the runner iff
/// [`crate::config::DigruberConfig::membership`] carries a scaler.
pub fn membership_tick(w: &mut World, s: &mut Sched) {
    let Some(m) = &w.membership else {
        return;
    };
    if m.scaler.is_none() {
        return;
    }
    let interval = m.cfg.check_interval;
    let sample = pool_sample(w);
    let decision = w
        .membership
        .as_mut()
        .expect("checked above")
        .scaler
        .as_mut()
        .expect("checked above")
        .observe(sample);
    match decision {
        ScaleDecision::Hold => {}
        ScaleDecision::Grow => {
            join_decision_point(w, s);
        }
        ScaleDecision::Shrink => {
            leave_decision_point(w, s);
        }
    }
    if s.now() < w.end {
        s.post_in(interval, Ev::MembershipTick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DigruberConfig;
    use crate::events::Sim;
    use gruber_types::SimTime;
    use workload::WorkloadSpec;

    fn elastic_cfg(n_dps: usize, scaler: Option<ScalerConfig>) -> DigruberConfig {
        let mut cfg = DigruberConfig::small(n_dps, 11);
        cfg.membership = Some(MembershipConfig {
            scaler,
            ..MembershipConfig::default()
        });
        cfg
    }

    fn elastic_world(n_dps: usize, n_clients: u32) -> World {
        World::new(
            elastic_cfg(n_dps, None),
            WorkloadSpec {
                n_clients,
                ..WorkloadSpec::small()
            },
        )
        .unwrap()
    }

    #[test]
    fn ring_binding_is_deterministic_and_covers_the_pool() {
        let a = elastic_world(4, 64);
        let b = elastic_world(4, 64);
        let mut used = std::collections::HashSet::new();
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(x.dp, y.dp);
            assert!(x.dp.index() < 4);
            used.insert(x.dp);
        }
        assert_eq!(used.len(), 4, "ring binding should cover all DPs");
    }

    #[test]
    fn join_rehomes_a_minority_and_counts_them() {
        let mut sim = Sim::with_events(elastic_world(4, 64));
        sim.run_until(SimTime::from_secs(5));
        let (w, s) = sim.parts();
        let id = join_decision_point(w, s).unwrap();
        assert_eq!(id, DpId(4));
        sim.run_until(SimTime::from_secs(6));
        let w = sim.world();
        assert_eq!(w.dps.len(), 5);
        let m = w.membership.as_ref().unwrap();
        assert_eq!(m.dp_joins, 1);
        assert_eq!(m.table.live_count(), 5);
        let moved = w.clients.iter().filter(|c| c.dp == DpId(4)).count() as u64;
        assert_eq!(m.clients_rehomed, moved);
        assert!(moved > 0, "newcomer claimed no clients");
        assert!(
            moved < 64 / 2,
            "a join must re-home a minority, moved {moved}"
        );
        // Everyone sits at their ring home.
        for c in &w.clients {
            assert_eq!(c.dp, m.home_of(c.id));
        }
    }

    /// The sponsor's records reach the newcomer as an ordinary flood over
    /// the WAN, so its first view already matches the sponsor's.
    #[test]
    fn join_warms_the_newcomer_from_a_sponsor() {
        use gruber::DispatchRecord;
        use gruber_types::{GroupId, JobId, SiteId, VoId};
        let mut sim = Sim::with_events(elastic_world(2, 8));
        let (w, s) = sim.parts();
        let record = DispatchRecord {
            job: JobId(1),
            site: SiteId(0),
            vo: VoId(0),
            group: GroupId(0),
            cpus: 1,
            dispatched_at: SimTime::ZERO,
            est_finish: SimTime::from_secs(3600),
        };
        crate::events::inform_arrives(w, s, DpId(0), record);
        let id = join_decision_point(w, s).unwrap();
        // Past WAN delivery; nothing else is scheduled.
        let now = SimTime::from_secs(60);
        sim.run_until(now);
        let w = sim.world_mut();
        assert!(w.dps[id.index()].host.node().stats().records_merged >= 1);
        let mut free = |i: usize| w.dps[i].host.node_mut().engine_mut().availability(now);
        let (sponsor, newcomer, untouched) = (free(0), free(id.index()), free(1));
        assert_eq!(newcomer, sponsor);
        assert_ne!(untouched, sponsor, "the record must move availability");
    }

    #[test]
    fn leave_moves_only_the_leavers_clients() {
        let mut sim = Sim::with_events(elastic_world(4, 64));
        let before: Vec<DpId> = sim.world().clients.iter().map(|c| c.dp).collect();
        sim.run_until(SimTime::from_secs(5));
        let (w, s) = sim.parts();
        assert_eq!(leave_decision_point(w, s), Some(DpId(3)));
        sim.run_until(SimTime::from_secs(6));
        let w = sim.world();
        let m = w.membership.as_ref().unwrap();
        assert_eq!(m.dp_leaves, 1);
        assert_eq!(m.table.live_count(), 3);
        assert!(!w.dps[3].up(), "leaver still up");
        for (c, &was) in w.clients.iter().zip(&before) {
            assert_ne!(c.dp, DpId(3), "client still bound to the leaver");
            if was != DpId(3) {
                assert_eq!(c.dp, was, "non-leaver client moved");
            }
        }
        assert_eq!(
            m.clients_rehomed,
            before.iter().filter(|&&d| d == DpId(3)).count() as u64
        );
    }

    #[test]
    fn departed_point_is_not_resurrected_by_its_pending_restart() {
        let mut cfg = elastic_cfg(3, None);
        cfg.fault_plan = Some(crate::faults::FaultPlan::parse("crash@5=2+20").unwrap());
        let mut sim = Sim::with_events(World::new(cfg, WorkloadSpec::small()).unwrap());
        sim.scheduler().post_at(SimTime::ZERO, Ev::SeedPlan);
        // dp-2 is down (5 s..25 s) when it leaves the pool.
        sim.run_until(SimTime::from_secs(10));
        let (w, s) = sim.parts();
        assert!(!w.dps[2].up());
        assert_eq!(leave_decision_point(w, s), Some(DpId(2)));
        sim.run_until(SimTime::from_secs(40));
        let w = sim.world();
        assert!(!w.membership.as_ref().unwrap().table.is_live(DpId(2)));
        assert!(!w.dps[2].up(), "planned restart brought a non-member back");
    }

    #[test]
    fn repair_rebalances_over_live_members_only() {
        let mut world = elastic_world(4, 64);
        world.cfg.failures = Some(crate::config::FailureConfig::default());
        let mut sim = Sim::with_events(world);
        sim.run_until(SimTime::from_secs(5));
        let (w, s) = sim.parts();
        // 4 -> 2: the leavers stay in `w.dps`, down for good.
        assert_eq!(leave_decision_point(w, s), Some(DpId(3)));
        assert_eq!(leave_decision_point(w, s), Some(DpId(2)));
        for c in &mut w.clients {
            c.dp = DpId(0);
        }
        assert!(crate::faults::crash_dp_now(w, s.now(), 1));
        crate::faults::dp_repair(w, s, 1);
        sim.run_until(SimTime::from_secs(6));
        let w = sim.world();
        assert!(w.dps[1].up());
        // Half of a two-member pool's 64 clients, not a quarter.
        let rebound = w.clients.iter().filter(|c| c.dp == DpId(1)).count();
        assert!(rebound >= 24, "repair pulled back only {rebound} of 64");
    }

    #[test]
    fn leave_refuses_to_empty_the_pool() {
        let mut sim = Sim::with_events(elastic_world(1, 8));
        sim.run_until(SimTime::from_secs(5));
        let (w, s) = sim.parts();
        assert_eq!(leave_decision_point(w, s), None);
        sim.run_until(SimTime::from_secs(6));
        assert!(sim.world().dps[0].up());
    }

    #[test]
    fn saturation_grows_the_pool_through_the_tick() {
        let mut cfg = elastic_cfg(
            1,
            Some(ScalerConfig {
                grow_backlog: 2,
                grow_windows: 2,
                cooldown: 0,
                ..ScalerConfig::default()
            }),
        );
        cfg.membership.as_mut().unwrap().check_interval =
            gruber_types::SimDuration::from_secs(10);
        let mut sim = Sim::with_events(World::new(cfg, WorkloadSpec::small()).unwrap());
        {
            let w = sim.world_mut();
            for t in 0..10 {
                w.dps[0].station.arrive(t, 1.0, &mut w.svc_rng);
            }
        }
        sim.scheduler().post_at(SimTime::ZERO, Ev::MembershipTick);
        sim.run_until(SimTime::from_secs(45));
        let w = sim.world();
        assert!(
            w.dps.len() >= 2,
            "sustained backlog did not grow the pool ({} DPs)",
            w.dps.len()
        );
        assert!(w.membership.as_ref().unwrap().dp_joins >= 1);
    }

    #[test]
    fn idleness_shrinks_back_to_min() {
        let mut cfg = elastic_cfg(
            3,
            Some(ScalerConfig {
                shrink_windows: 2,
                cooldown: 0,
                min_dps: 2,
                ..ScalerConfig::default()
            }),
        );
        cfg.membership.as_mut().unwrap().check_interval =
            gruber_types::SimDuration::from_secs(10);
        let mut sim = Sim::with_events(
            World::new(
                cfg,
                WorkloadSpec {
                    n_clients: 16,
                    ..WorkloadSpec::small()
                },
            )
            .unwrap(),
        );
        sim.scheduler().post_at(SimTime::ZERO, Ev::MembershipTick);
        sim.run_until(SimTime::from_secs(120));
        let w = sim.world();
        let m = w.membership.as_ref().unwrap();
        assert_eq!(m.table.live_count(), 2, "idle pool should shrink to min_dps");
        assert_eq!(m.dp_leaves, 1);
        assert!(w.clients.iter().all(|c| w.dps[c.dp.index()].up()));
    }

    #[test]
    fn pool_sample_reads_backlogs() {
        let mut w = elastic_world(2, 8);
        for t in 0..6 {
            w.dps[1].station.arrive(t, 1.0, &mut w.svc_rng);
        }
        let s = pool_sample(&w);
        assert_eq!(s.live, 2);
        assert!(s.max_backlog > 0);
        assert_eq!(s.degraded, 0);
    }
}
