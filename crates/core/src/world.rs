//! The discrete-event world: clients, decision points, WAN and grid.

use crate::config::{DigruberConfig, Dissemination, RecoveryMode};
use desim::DetRng;
use diperf::{Collector, RampSchedule};
use dpnode::NodeConfig;
use dpstore::{Blueprint, LatencyModel, NodeHost, SimStore};
use gridemu::{grid3_times, Grid, SitePolicy};
use gruber::LeastUsedSelector;
use gruber_types::{ClientId, DpId, GridResult, JobId, SimTime, SiteSpec};
use simnet::{NetNode, ServiceStation, WanTopology};
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
    pub(crate) host: NodeHost<SimStore>,
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
    /// Index of the client's site selector in [`World::selectors`], or
    /// [`NO_SELECTOR`] until its first answered response builds it.
    pub(crate) selector: u32,
    /// Random stream for the timeout fallback ("selects a site at random,
    /// without considering USLAs").
    pub(crate) fallback_rng: DetRng,
    /// Whether the client has joined the experiment.
    pub(crate) active: bool,
    /// Consecutive timeouts against the bound decision point (failover
    /// trigger).
    pub(crate) consecutive_timeouts: u32,
    /// Jobs this host has dispatched that have not finished (queue-manager
    /// accounting).
    pub(crate) jobs_in_flight: u32,
    /// The host is waiting for a job slot before issuing its next query.
    pub(crate) blocked_on_queue: bool,
}

/// [`ClientState::selector`] of a client that has not selected a site yet.
const NO_SELECTOR: u32 = u32::MAX;

/// In-flight query bookkeeping.
pub(crate) struct RequestState {
    /// Issuing client.
    pub(crate) client: ClientId,
    /// Bound decision point.
    pub(crate) dp: DpId,
    /// The job awaiting placement. Its spec lives in the grid ledger,
    /// which holds it from issue (state 1, at the submission host) on.
    pub(crate) job: JobId,
    /// Send time.
    pub(crate) sent_at: SimTime,
    /// The client's timeout fired before a response arrived.
    pub(crate) timed_out: bool,
    /// Token of the scheduled timeout event (cancelled on response).
    pub(crate) timeout_token: desim::EventToken,
}

/// Index entry of a tag whose request has retired.
const RETIRED: u32 = u32::MAX;

/// The in-flight requests, by tag: a dense ledger instead of a hashed map.
///
/// Tags are a never-reused counter the table hands out ([`insert`]), so a
/// tag is an index — into `index`, four bytes per tag ever issued, which
/// names the slab slot holding the request's state or says `RETIRED`.
/// The states themselves sit in a slab whose slots are reused through a
/// free list, so the slab is as long as the most requests ever in flight
/// at once, not as long as the run.
///
/// *Why tags are not slab slots.* A tag must outlive its request: a
/// duplicated response, a query retry still backing off, or a timeout that
/// lost its race all look their tag up after [`remove`] and must miss. A
/// slot is reused by a later request, so a stale event holding a slot
/// number would find a stranger's state (ABA) unless every slot carried a
/// generation. The index entry is that tombstone: an old tag reads
/// `RETIRED` forever, and a reused slot is reachable only through the tag
/// that now owns it.
///
/// *Why not a tag-indexed `Vec<Option<RequestState>>`.* It needs no
/// indirection and is as fast, but keeps a full state-sized hole for
/// every request ever answered; on a long run where requests retire as
/// fast as they are issued that is the whole memory footprint of the
/// table, for nothing.
///
/// [`insert`]: RequestTable::insert
/// [`remove`]: RequestTable::remove
#[derive(Default)]
pub(crate) struct RequestTable {
    /// Per issued tag: the slab slot of its live state, or `RETIRED`.
    index: Vec<u32>,
    /// Request states; `None` slots are on the free list.
    slab: Vec<Option<RequestState>>,
    /// Vacant slab slots, reused last-freed-first.
    free: Vec<u32>,
}

impl RequestTable {
    /// The tag the next [`insert`](RequestTable::insert) will return (the
    /// number of tags issued so far) — for the caller that must name the
    /// tag in the state it is about to insert.
    pub(crate) fn next_tag(&self) -> u64 {
        self.index.len() as u64
    }

    /// Files a new request and returns its tag.
    pub(crate) fn insert(&mut self, state: RequestState) -> u64 {
        let tag = self.next_tag();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(state);
                slot
            }
            None => {
                let slot = self.slab.len();
                assert!(slot < RETIRED as usize, "u32::MAX requests in flight");
                self.slab.push(Some(state));
                slot as u32
            }
        };
        self.index.push(slot);
        tag
    }

    /// The slab slot of a live tag; `None` for a retired tag and for one
    /// never issued.
    fn slot_of(&self, tag: u64) -> Option<usize> {
        let slot = *self.index.get(usize::try_from(tag).ok()?)?;
        (slot != RETIRED).then_some(slot as usize)
    }

    /// Whether `tag` names an in-flight request: a read of the index
    /// alone, for the caller that needs nothing from the state itself.
    pub(crate) fn is_live(&self, tag: u64) -> bool {
        self.slot_of(tag).is_some()
    }

    /// The state of an in-flight request.
    pub(crate) fn get(&self, tag: u64) -> Option<&RequestState> {
        self.slab[self.slot_of(tag)?].as_ref()
    }

    /// The state of an in-flight request, mutably.
    pub(crate) fn get_mut(&mut self, tag: u64) -> Option<&mut RequestState> {
        let slot = self.slot_of(tag)?;
        self.slab[slot].as_mut()
    }

    /// Retires a tag for good and returns its request's state; `None` if
    /// it had retired already or was never issued.
    pub(crate) fn remove(&mut self, tag: u64) -> Option<RequestState> {
        let slot = self.slot_of(tag)?;
        self.index[tag as usize] = RETIRED;
        self.free.push(slot as u32);
        self.slab[slot].take()
    }

    /// The in-flight requests, in tag (= issue) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &RequestState)> {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != RETIRED)
            .map(|(tag, &slot)| {
                let state = self.slab[slot as usize].as_ref();
                (tag as u64, state.expect("a live tag's slot is occupied"))
            })
    }
}

/// Scheduling accuracy per job: a dense table over the job factory's
/// sequential ids (the argument `gridemu`'s job ledger makes), with NaN
/// for "not recorded" — timed-out placements never are.
#[derive(Default)]
pub(crate) struct AccuracyLedger {
    by_job: Vec<f64>,
}

impl AccuracyLedger {
    /// Records the accuracy of one handled dispatch.
    ///
    /// # Panics
    /// If `accuracy` is NaN, which would read back as "not recorded".
    pub(crate) fn record(&mut self, job: JobId, accuracy: f64) {
        assert!(!accuracy.is_nan(), "NaN accuracy for {job}");
        let idx = job.index();
        if idx >= self.by_job.len() {
            self.by_job.resize(idx + 1, f64::NAN);
        }
        self.by_job[idx] = accuracy;
    }

    /// The accuracy recorded for `job`, if any.
    pub(crate) fn get(&self, job: JobId) -> Option<f64> {
        self.by_job
            .get(job.index())
            .copied()
            .filter(|a| !a.is_nan())
    }
}

/// The full simulation state.
pub struct World {
    /// Experiment configuration.
    pub(crate) cfg: DigruberConfig,
    /// Workload configuration.
    pub(crate) workload: WorkloadSpec,
    /// Ground truth.
    pub grid: Grid,
    /// Static site specs (needed to spin up new decision points).
    pub(crate) site_specs: Arc<[SiteSpec]>,
    /// The USLA set all decision points start from.
    pub(crate) uslas: Arc<UslaSet>,
    /// Job generator.
    pub(crate) factory: JobFactory,
    /// Decision points, indexed by `DpId`.
    pub dps: Vec<DecisionPoint>,
    /// Clients, indexed by `ClientId`.
    pub clients: Vec<ClientState>,
    /// Client-side site selectors (run over availability responses), in
    /// the order clients first selected a site. A selector is built at its
    /// client's first answered response: most clients of a large ramp are
    /// never answered, and each selector holds a 32-byte random stream.
    pub(crate) selectors: Vec<LeastUsedSelector>,
    /// The WAN.
    pub(crate) wan: WanTopology,
    /// DiPerF collector.
    pub(crate) collector: Collector,
    /// Tester ramp schedule.
    pub(crate) schedule: RampSchedule,
    /// Scheduling accuracy recorded at each handled dispatch.
    pub(crate) accuracy_by_job: AccuracyLedger,
    /// In-flight requests by tag; the table issues the tags.
    pub(crate) requests: RequestTable,
    /// Network jitter stream.
    pub(crate) net_rng: DetRng,
    /// Service-time stream.
    pub svc_rng: DetRng,
    /// Miscellaneous stream (client→DP binding, failure clocks).
    pub(crate) misc_rng: DetRng,
    /// Experiment end.
    pub(crate) end: SimTime,
    /// Currently joined clients.
    pub(crate) active_clients: u32,
    /// Pool joins: `(when, new decision point)`.
    pub(crate) reconfig_log: Vec<(SimTime, DpId)>,
    /// Pool leaves: `(when, departed decision point)`.
    pub(crate) retire_log: Vec<(SimTime, DpId)>,
    /// Requests denied by USLA enforcement.
    pub(crate) denied_requests: u64,
    /// Decision-point crashes injected.
    pub dp_failures: u64,
    /// Client failover re-bindings performed.
    pub(crate) failovers: u64,
    /// Slowest single recovery (modeled IO cost), in milliseconds.
    pub(crate) max_recovery_ms: u64,
    /// Structured trace recorder ([`obs::Recorder::OFF`] unless
    /// `cfg.trace` is set or an autoscaler reads its health flags); clones
    /// of it live in every scheduler, engine and service station of this
    /// run.
    pub(crate) trace: obs::Recorder,
    /// Elastic-membership state (`None` unless `cfg.membership` is set):
    /// the epoch-stamped table, the consistent-hash ring the clients are
    /// homed on, the autoscaler, and the re-home counter (joins and leaves
    /// are counted by `reconfig_log` and `retire_log`).
    pub membership: Option<crate::elastic::MembershipRuntime>,
}

/// WAN address of a client.
pub(crate) fn client_node(c: ClientId) -> NetNode {
    NetNode(c.0)
}

/// WAN address of a decision point.
pub(crate) fn dp_node(dp: DpId) -> NetNode {
    NetNode(1_000_000 + dp.0)
}

impl World {
    /// Builds a world from an experiment and a workload configuration.
    pub fn new(cfg: DigruberConfig, workload: WorkloadSpec) -> GridResult<Self> {
        cfg.validate()?;
        workload.validate()?;
        let site_specs: Arc<[SiteSpec]> = grid3_times(cfg.grid_factor, cfg.seed).into();
        let grid = Grid::new(site_specs.to_vec(), SitePolicy::permissive())?;
        let uslas = Arc::new(match &cfg.uslas {
            Some(set) => set.clone(),
            None => equal_shares(workload.n_vos, workload.groups_per_vo)?,
        });
        // The autoscaler reads the recorder's degraded flags, so an elastic
        // pool records whether or not the run exports a timeline.
        let elastic_trace = cfg.membership.map(|_| obs::TraceConfig::default());
        let trace = obs::Recorder::from_config(cfg.trace.or(elastic_trace));
        let dps: Vec<DecisionPoint> = (0..cfg.n_dps)
            .map(|i| {
                let id = DpId(i as u32);
                DecisionPoint::new(&cfg, &site_specs, &uslas, id, &trace, SimTime::ZERO)
            })
            .collect();
        let membership = cfg
            .membership
            .map(|mc| crate::elastic::MembershipRuntime::new(mc, cfg.seed, cfg.n_dps));
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
                selector: NO_SELECTOR,
                fallback_rng: DetRng::new(cfg.seed, 0xFA11 ^ (u64::from(c) << 16)),
                active: false,
                consecutive_timeouts: 0,
                jobs_in_flight: 0,
                blocked_on_queue: false,
            })
            .collect();
        let schedule = RampSchedule::new(
            workload.n_clients,
            workload.duration,
            workload.ramp_fraction,
        )
        .with_departure(workload.departure_fraction);
        let end = schedule.end();
        Ok(World {
            wan: cfg.wan.topology(cfg.seed),
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
            selectors: Vec::new(),
            collector: Collector::new(),
            schedule,
            accuracy_by_job: AccuracyLedger::default(),
            requests: RequestTable::default(),
            end,
            active_clients: 0,
            reconfig_log: Vec::new(),
            retire_log: Vec::new(),
            denied_requests: 0,
            dp_failures: 0,
            failovers: 0,
            max_recovery_ms: 0,
            trace,
            membership,
        })
    }

    /// `client`'s site selector, built on first use with the client's own
    /// tie-breaking stream: the same stream, and so the same picks, as a
    /// selector built with the world.
    pub(crate) fn selector(&mut self, client: ClientId) -> &mut LeastUsedSelector {
        let c = &mut self.clients[client.index()];
        if c.selector == NO_SELECTOR {
            let idx = u32::try_from(self.selectors.len()).expect("fewer than u32::MAX clients");
            c.selector = idx;
            let selector = LeastUsedSelector::new(self.cfg.seed, u64::from(client.0));
            self.selectors.push(selector);
        }
        &mut self.selectors[c.selector as usize]
    }

    /// Whether decision points exchange anything at all.
    pub(crate) fn exchanges_state(&self) -> bool {
        self.cfg.dissemination != Dissemination::NoExchange
    }

    /// The combined disturbance on one message-leg class right now: every
    /// active fault-plan window covering the leg, stacked. Clean
    /// (zero-probability) legs must make no RNG draw — each draw in
    /// `core::events` is guarded by its own probability's `== 0.0` /
    /// `> 0.0` test — so a run without faults consumes exactly the RNG
    /// stream it always did.
    /// The plan's disturbance is folded into `NONE` rather than returned
    /// as is: `combine` computes `1 - (1 - 0)(1 - p)`, which is not `p`
    /// to the last bit, and the traced fingerprints run through it.
    pub(crate) fn leg_disturbance(
        &self,
        leg: crate::faults::LinkScope,
        now: SimTime,
    ) -> crate::faults::LinkDisturbance {
        let mut d = crate::faults::LinkDisturbance::NONE;
        if let Some(plan) = &self.cfg.fault_plan {
            d.combine(&plan.disturbance(leg, now));
        }
        d
    }

    /// True when an active fault-plan partition separates decision points
    /// `a` and `b` at `now`.
    pub(crate) fn partitioned(&self, a: usize, b: usize, now: SimTime) -> bool {
        self.cfg
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.partitioned(a, b, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

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

    /// A request state recognisable by `n`. The timeout token is a real
    /// one (only a scheduler mints them); the table never looks at it.
    fn state(n: u32) -> RequestState {
        let mut sim = desim::Simulation::new(());
        let timeout_token = sim.scheduler().schedule_at(SimTime::ZERO, |_, _| {});
        RequestState {
            client: ClientId(n),
            dp: DpId(0),
            job: JobId(n),
            sent_at: SimTime::ZERO,
            timed_out: false,
            timeout_token,
        }
    }

    #[test]
    fn retired_tag_misses_after_its_slot_is_reused() {
        let mut t = RequestTable::default();
        let old = t.insert(state(10));
        assert_eq!(t.remove(old).map(|r| r.client), Some(ClientId(10)));
        let new = t.insert(state(11));
        assert_ne!(old, new, "tags are never reused");
        assert_eq!(t.slab.len(), 1, "the freed slot was reused");
        assert!(!t.is_live(old));
        assert!(t.get(old).is_none());
        assert!(t.get_mut(old).is_none());
        assert!(t.remove(old).is_none(), "a second remove is a miss");
        // The stale tag's misses left the slot's new owner alone.
        assert_eq!(t.get(new).map(|r| r.client), Some(ClientId(11)));
        assert_eq!(t.iter().map(|(tag, _)| tag).collect::<Vec<_>>(), [new]);
    }

    #[test]
    fn never_issued_tag_misses() {
        let mut t = RequestTable::default();
        assert!(t.get(0).is_none());
        let tag = t.insert(state(1));
        for unissued in [tag + 1, t.next_tag(), u64::from(RETIRED), u64::MAX] {
            assert!(!t.is_live(unissued));
            assert!(t.get(unissued).is_none());
            assert!(t.get_mut(unissued).is_none());
            assert!(t.remove(unissued).is_none());
        }
        assert!(t.get(tag).is_some());
    }

    #[test]
    fn answered_requests_leave_no_slab_behind() {
        // One client, every query answered: the slab is as long as the most
        // requests ever in flight at once (one per client), however many
        // were issued. Only the four-byte index grows with the run.
        use crate::events::{Ev, Sim};
        let wl = WorkloadSpec {
            n_clients: 1,
            duration: gruber_types::SimDuration::from_mins(5),
            ..WorkloadSpec::small()
        };
        let n_clients = wl.n_clients as usize;
        let mut sim = Sim::with_events(World::new(DigruberConfig::small(1, 3), wl).unwrap());
        sim.scheduler()
            .post_at(SimTime::ZERO, Ev::ClientStart(ClientId(0)));
        let end = sim.world().end;
        sim.run_until(end);
        let w = sim.world();
        let issued = w.requests.next_tag();
        assert!(issued >= 10, "only {issued} requests");
        assert!(w.collector.traces().iter().all(|t| t.handled()));
        assert_eq!(w.requests.index.len() as u64, issued);
        let slots = w.requests.slab.len();
        assert!(slots <= n_clients, "{slots} slab slots");
        assert!(w.requests.iter().count() <= n_clients);
    }

    #[test]
    fn request_slots_and_events_are_small() {
        // Pinned sizes of the per-client allocations on the `sim-clients`
        // workload (half a million clients and requests in flight, a
        // million pending events). The job's spec is in the grid ledger,
        // not here; the availability vector, the dispatch record and the
        // flood are boxed inside their event variants; a client's site
        // selector is built at its first answer, outside its state.
        assert_eq!(std::mem::size_of::<Option<RequestState>>(), 32);
        assert!(std::mem::size_of::<crate::events::Ev>() <= 32);
        assert!(std::mem::size_of::<ClientState>() <= 56);
    }

    #[test]
    fn accuracy_ledger_counts_what_it_holds() {
        let mut a = AccuracyLedger::default();
        assert!(a.by_job.is_empty());
        a.record(JobId(5), 0.25);
        a.record(JobId(2), 0.0);
        assert_eq!(a.by_job.iter().filter(|x| !x.is_nan()).count(), 2);
        assert_eq!(a.get(JobId(5)), Some(0.25));
        assert_eq!(a.get(JobId(2)), Some(0.0));
        // Holes below the highest id, and ids beyond it, are unrecorded.
        assert_eq!(a.get(JobId(3)), None);
        assert_eq!(a.get(JobId(6)), None);
    }

    proptest! {
        /// The table against the map it replaced: any sequence of inserts,
        /// lookups, mutations and (repeated) removes over issued and
        /// unissued tags gets the same answers from both.
        #[test]
        fn request_table_matches_a_hash_map(
            ops in proptest::collection::vec((0u8..5, 0u64..1000), 0..200),
        ) {
            let mut table = RequestTable::default();
            let mut model: HashMap<u64, (ClientId, bool)> = HashMap::new();
            let mut next = 0u64;
            let view = |r: &RequestState| (r.client, r.timed_out);
            for (n, (op, pick)) in ops.into_iter().enumerate() {
                // Mostly issued tags (live or retired), sometimes one or
                // two past the last.
                let tag = pick % (next + 2);
                match op {
                    0 | 1 => {
                        prop_assert_eq!(table.next_tag(), next);
                        prop_assert_eq!(table.insert(state(n as u32)), next);
                        model.insert(next, (ClientId(n as u32), false));
                        next += 1;
                    }
                    2 => {
                        prop_assert_eq!(table.get(tag).map(view), model.get(&tag).copied());
                        prop_assert_eq!(table.is_live(tag), model.contains_key(&tag));
                    }
                    3 => {
                        let (got, want) = (table.get_mut(tag), model.get_mut(&tag));
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(got), Some(want)) = (got, want) {
                            got.timed_out = true;
                            want.1 = true;
                        }
                    }
                    _ => prop_assert_eq!(
                        table.remove(tag).as_ref().map(view),
                        model.remove(&tag)
                    ),
                }
                prop_assert_eq!(table.slab.len() - table.free.len(), model.len());
            }
            let mut want: Vec<_> = model.into_iter().collect();
            want.sort_unstable_by_key(|&(tag, _)| tag);
            let got: Vec<_> = table.iter().map(|(tag, r)| (tag, view(r))).collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn node_addressing_is_disjoint() {
        assert_ne!(client_node(ClientId(0)), dp_node(DpId(0)));
        assert_ne!(client_node(ClientId(999_999)), dp_node(DpId(0)));
    }
}
