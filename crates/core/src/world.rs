//! The discrete-event world: clients, decision points, WAN and grid.

use crate::config::{DigruberConfig, Dissemination, RecoveryMode};
use desim::DetRng;
use diperf::{Collector, RampSchedule};
use dpnode::NodeConfig;
use dpstore::{Blueprint, LatencyModel, NodeHost, SimStore};
use gridemu::{grid3_times, Grid, SitePolicy};
use gruber::SiteSelector;
use gruber_types::{
    ClientId, DpId, GridResult, JobId, JobSpec, SimTime, SiteSpec,
};
use simnet::latency::NetNode;
use simnet::{ServiceStation, WanTopology};
use std::collections::HashMap;
use std::sync::Arc;
use usla::UslaSet;
use workload::{uslas::equal_shares, JobFactory, WorkloadSpec};

/// One decision point: the shared protocol state machine behind a
/// web-service station. The simulation drives the [`NodeHost`] exactly
/// like the other runtimes do; only delivery (latency, loss, retries,
/// partitions) is simulated out here in the driver.
pub struct DecisionPoint {
    /// The decision point's id.
    pub id: DpId,
    /// The sans-IO protocol core (engine + topology + flood log +
    /// liveness) and its durable store, which outlives crashed node
    /// instances.
    pub host: NodeHost<SimStore>,
    /// The GT service container in front of it.
    pub station: ServiceStation,
}

impl DecisionPoint {
    /// Builds one decision point for this configuration. Shared by
    /// initial construction and elastic joins; the host's blueprint makes
    /// every post-crash replacement identical to the node built here.
    ///
    /// The [`RecoveryMode`] is nothing but which store the point gets:
    /// none (a restarted node keeps what it held), one its non-persisting
    /// node never writes to (the replacement comes back empty, free of
    /// charge), or a journaled one with modeled IO cost.
    pub fn new(
        cfg: &DigruberConfig,
        site_specs: &Arc<[SiteSpec]>,
        uslas: &Arc<UslaSet>,
        id: DpId,
        trace: &obs::Recorder,
        now: SimTime,
    ) -> Self {
        let blueprint = Blueprint {
            cfg: NodeConfig {
                id,
                topology: cfg.topology,
                dissemination: cfg.dissemination,
                // The sim clocks exchanges itself (the `sync_round`
                // event), so nodes never request timers.
                sync_every: None,
                gossip_seed: cfg.seed,
                persist: cfg.persistence.mode == RecoveryMode::Persist,
            },
            sites: Arc::clone(site_specs),
            uslas: Arc::clone(uslas),
            // Elastic pools keep the live-record map on every node so any
            // member can sponsor a joiner's state transfer.
            track_live: cfg.membership.is_some(),
        };
        let store = match cfg.persistence.mode {
            RecoveryMode::Retain => None,
            RecoveryMode::EmptyRejoin => Some(SimStore::with_latency(LatencyModel::FREE)),
            RecoveryMode::Persist => Some(SimStore::new()),
        };
        let mut station = ServiceStation::new(cfg.service.profile());
        station.set_tracer(trace.clone(), id);
        DecisionPoint {
            id,
            host: NodeHost::new(blueprint, store, cfg.persistence.policy, trace.clone(), now),
            station,
        }
    }

    /// Whether the point is currently alive (failure injection).
    pub fn up(&self) -> bool {
        self.host.node().up()
    }
}

/// One submission host / tester client.
pub struct ClientState {
    /// The client's id.
    pub id: ClientId,
    /// The decision point this client is statically bound to.
    pub dp: DpId,
    /// Client-side site selector (runs over availability responses).
    pub selector: Box<dyn SiteSelector>,
    /// Random stream for the timeout fallback ("selects a site at random,
    /// without considering USLAs").
    pub fallback_rng: DetRng,
    /// Whether the client has joined the experiment.
    pub active: bool,
    /// Consecutive timeouts against the bound decision point (failover
    /// trigger).
    pub consecutive_timeouts: u32,
    /// Jobs this host has dispatched that have not finished (queue-manager
    /// accounting).
    pub jobs_in_flight: u32,
    /// The host is waiting for a job slot before issuing its next query.
    pub blocked_on_queue: bool,
}

/// In-flight query bookkeeping.
pub struct RequestState {
    /// Issuing client.
    pub client: ClientId,
    /// Bound decision point.
    pub dp: DpId,
    /// The job awaiting placement.
    pub job: JobSpec,
    /// Send time.
    pub sent_at: SimTime,
    /// The client's timeout fired before a response arrived.
    pub timed_out: bool,
    /// Token of the scheduled timeout event (cancelled on response).
    pub timeout_token: desim::EventToken,
}

/// The full simulation state.
pub struct World {
    /// Experiment configuration.
    pub cfg: DigruberConfig,
    /// Workload configuration.
    pub workload: WorkloadSpec,
    /// Ground truth.
    pub grid: Grid,
    /// Static site specs (needed to spin up new decision points).
    pub site_specs: Arc<[SiteSpec]>,
    /// The USLA set all decision points start from.
    pub uslas: Arc<UslaSet>,
    /// Job generator.
    pub factory: JobFactory,
    /// Decision points, indexed by `DpId`.
    pub dps: Vec<DecisionPoint>,
    /// Clients, indexed by `ClientId`.
    pub clients: Vec<ClientState>,
    /// The WAN.
    pub wan: WanTopology,
    /// DiPerF collector.
    pub collector: Collector,
    /// Tester ramp schedule.
    pub schedule: RampSchedule,
    /// Scheduling accuracy recorded at each handled dispatch.
    pub accuracy_by_job: HashMap<JobId, f64>,
    /// In-flight requests by tag.
    pub requests: HashMap<u64, RequestState>,
    /// Next request tag.
    pub next_req: u64,
    /// Network jitter stream.
    pub net_rng: DetRng,
    /// Service-time stream.
    pub svc_rng: DetRng,
    /// Miscellaneous stream (client→DP binding, failure clocks).
    pub misc_rng: DetRng,
    /// Experiment end.
    pub end: SimTime,
    /// Currently joined clients.
    pub active_clients: u32,
    /// Pool joins: `(when, new decision point)`.
    pub reconfig_log: Vec<(SimTime, DpId)>,
    /// Pool leaves: `(when, departed decision point)`.
    pub retire_log: Vec<(SimTime, DpId)>,
    /// Requests denied by USLA enforcement.
    pub denied_requests: u64,
    /// Placements rejected by sites (S-PEP or oversized).
    pub rejected_dispatches: u64,
    /// Decision-point crashes injected.
    pub dp_failures: u64,
    /// Client failover re-bindings performed.
    pub failovers: u64,
    /// Slowest single recovery (modeled IO cost), in milliseconds.
    pub max_recovery_ms: u64,
    /// Structured trace recorder ([`obs::Recorder::OFF`] unless
    /// `cfg.trace` is set); clones of it live in every scheduler, engine
    /// and service station of this run.
    pub trace: obs::Recorder,
    /// Elastic-membership state (`None` unless `cfg.membership` is set):
    /// the epoch-stamped table, the consistent-hash ring the clients are
    /// homed on, the autoscaler, and the join/leave/re-home counters.
    pub membership: Option<crate::elastic::MembershipRuntime>,
}

/// WAN address of a client.
pub fn client_node(c: ClientId) -> NetNode {
    NetNode(c.0)
}

/// WAN address of a decision point.
pub fn dp_node(dp: DpId) -> NetNode {
    NetNode(1_000_000 + dp.0)
}

impl World {
    /// Builds a world from an experiment and a workload configuration.
    pub fn new(cfg: DigruberConfig, workload: WorkloadSpec) -> GridResult<Self> {
        cfg.validate()?;
        workload.validate()?;
        let site_specs: Arc<[SiteSpec]> = grid3_times(cfg.grid_factor, cfg.seed).into();
        let grid = Grid::with_discipline(
            site_specs.to_vec(),
            SitePolicy::permissive(),
            cfg.site_discipline,
        )?;
        let uslas = Arc::new(match &cfg.uslas {
            Some(set) => set.clone(),
            None => equal_shares(workload.n_vos, workload.groups_per_vo)?,
        });
        let trace = obs::Recorder::from_config(cfg.trace);
        let dps: Vec<DecisionPoint> = (0..cfg.n_dps)
            .map(|i| {
                let id = DpId(i as u32);
                DecisionPoint::new(&cfg, &site_specs, &uslas, id, &trace, SimTime::ZERO)
            })
            .collect();
        let membership = cfg
            .membership
            .map(|mc| crate::elastic::MembershipRuntime::new(mc, cfg.seed, cfg.n_dps));
        if let Some(m) = &membership {
            // Mirror the health scorer's degraded flags into the bitmap
            // the autoscaler samples (no-op on a disabled recorder).
            trace.attach(Box::new(crate::elastic::HealthWatch::new(
                m.degraded.clone(),
            )));
        }
        let mut misc_rng = DetRng::new(cfg.seed, 0xB1AD);
        let clients: Vec<ClientState> = (0..workload.n_clients)
            .map(|c| ClientState {
                id: ClientId(c),
                // "selected randomly in the beginning — simulating a
                // scenario in which each submission site is associated
                // statically with a single decision point" — or, under
                // elastic membership, the consistent-hash ring home.
                dp: match &membership {
                    Some(m) => m.home_of(ClientId(c)),
                    None => DpId(misc_rng.index(cfg.n_dps) as u32),
                },
                selector: cfg.selector.build(cfg.seed, u64::from(c)),
                fallback_rng: DetRng::new(cfg.seed, 0xFA11 ^ (u64::from(c) << 16)),
                active: false,
                consecutive_timeouts: 0,
                jobs_in_flight: 0,
                blocked_on_queue: false,
            })
            .collect();
        let schedule = match workload.ramp_fraction {
            Some(f) => RampSchedule::new(workload.n_clients, workload.duration, f),
            None => RampSchedule::paper_default(workload.n_clients, workload.duration),
        }
        .with_departure(workload.departure_fraction);
        let end = schedule.end();
        Ok(World {
            wan: cfg.wan.topology(cfg.seed).with_loss(cfg.message_loss),
            factory: JobFactory::new(workload.clone(), cfg.seed),
            net_rng: DetRng::new(cfg.seed, 0x4E77),
            svc_rng: DetRng::new(cfg.seed, 0x5E2C),
            misc_rng,
            cfg,
            workload,
            grid,
            site_specs,
            uslas,
            dps,
            clients,
            collector: Collector::new(),
            schedule,
            accuracy_by_job: HashMap::new(),
            requests: HashMap::new(),
            next_req: 0,
            end,
            active_clients: 0,
            reconfig_log: Vec::new(),
            retire_log: Vec::new(),
            denied_requests: 0,
            rejected_dispatches: 0,
            dp_failures: 0,
            failovers: 0,
            max_recovery_ms: 0,
            trace,
            membership,
        })
    }

    /// Whether decision points exchange anything at all.
    pub fn exchanges_state(&self) -> bool {
        self.cfg.dissemination != Dissemination::NoExchange
    }

    /// The combined disturbance on one message-leg class right now: the
    /// base WAN loss stacked with every active fault-plan window covering
    /// the leg. Clean (zero-probability) legs must make no RNG draw —
    /// [`crate::faults::LinkDisturbance::is_clean`] is the guard — so a
    /// run without faults consumes exactly the RNG stream it always did.
    pub fn leg_disturbance(
        &self,
        leg: crate::faults::LinkScope,
        now: SimTime,
    ) -> crate::faults::LinkDisturbance {
        let mut d = crate::faults::LinkDisturbance {
            loss: self.wan.loss(),
            duplicate: 0.0,
            reorder: 0.0,
        };
        if let Some(plan) = &self.cfg.fault_plan {
            d.combine(&plan.disturbance(leg, now));
        }
        d
    }

    /// True when an active fault-plan partition separates decision points
    /// `a` and `b` at `now`.
    pub fn partitioned(&self, a: usize, b: usize, now: SimTime) -> bool {
        self.cfg
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.partitioned(a, b, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n_dps: usize) -> World {
        World::new(DigruberConfig::small(n_dps, 7), WorkloadSpec::small()).unwrap()
    }

    #[test]
    fn construction_wires_everything() {
        let w = world(3);
        assert_eq!(w.dps.len(), 3);
        assert_eq!(w.clients.len(), 8);
        assert_eq!(w.grid.n_sites(), 30);
        assert!(w.exchanges_state());
        assert_eq!(w.end, SimTime(w.workload.duration.as_millis()));
    }

    #[test]
    fn clients_bound_across_all_dps() {
        let w = World::new(
            DigruberConfig::small(4, 7),
            WorkloadSpec {
                n_clients: 64,
                ..WorkloadSpec::small()
            },
        )
        .unwrap();
        let mut used = std::collections::HashSet::new();
        for c in &w.clients {
            assert!(c.dp.index() < 4);
            used.insert(c.dp);
        }
        assert_eq!(used.len(), 4, "random binding should cover all DPs");
    }

    #[test]
    fn binding_is_deterministic_per_seed() {
        let a = world(3);
        let b = world(3);
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(x.dp, y.dp);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(World::new(DigruberConfig::small(0, 7), WorkloadSpec::small()).is_err());
        let mut wl = WorkloadSpec::small();
        wl.n_clients = 0;
        assert!(World::new(DigruberConfig::small(1, 7), wl).is_err());
    }

    #[test]
    fn node_addressing_is_disjoint() {
        assert_ne!(client_node(ClientId(0)), dp_node(DpId(0)));
        assert_ne!(client_node(ClientId(999_999)), dp_node(DpId(0)));
    }
}
