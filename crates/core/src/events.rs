//! The protocol, as discrete-event handlers.
//!
//! A GRUBER query "involves several round trips, and the transport of
//! significant state, as the site selector first requests information about
//! current site availabilities and then informs the decision point about
//! its site selection". The handlers below implement exactly that exchange:
//!
//! ```text
//! client             decision point                 site
//!   |--- query ---------->|  (queues in the GT container)
//!   |<-- availabilities --|  (per-site believed free CPUs)
//!   | select site (client-side policy)
//!   |--- dispatch --------------------------------->|  (ground truth)
//!   |--- inform --------->|  (fold into view + flood log)
//!   |<-- ack -------------|  (query complete)
//!   | think, then next query
//! ```
//!
//! If the client's timeout fires first it "selects a site at random,
//! without considering USLAs" and moves on; the decision point may still
//! burn service time on the stale request (its response is dropped),
//! which is what makes saturation self-reinforcing.
//!
//! Since the sans-IO refactor the protocol itself lives in
//! [`dpnode::DpNode`]; the handlers below are the *driver*: they map desim
//! events to node inputs and node effects back to scheduled events, and
//! own everything about delivery — WAN latency, loss/duplication/reorder,
//! retry/backoff ([`simnet::retry`]) and partition checks
//! ([`crate::faults`]).
//!
//! What gets scheduled is data: every pending event is an [`Ev`] value,
//! and [`World::fire`] maps each variant to its handler.

use crate::config::CLIENT_TIMEOUT;
use crate::faults::{self, LinkDisturbance, LinkScope};
use crate::metrics::accuracy_vs_best;
use crate::world::{client_node, dp_node, RequestState, World};
use diperf::RequestTrace;
use dpnode::{FloodPayload, Input};
use dpstore::Routed;
use gridemu::Grid;
use gruber::{DispatchRecord, SiteSelector};
use gruber_types::{ClientId, DpId, JobId, JobSpec, SimDuration, SiteId};
use obs::{FaultMsgClass, TraceEvent};
use simnet::{MessageClass, NetNode};

/// Every event the simulated deployment schedules. A pending event is one
/// of these values in desim's slab — the large payloads are boxed inside
/// their variants so the slot stays small — and `World::fire` is the
/// only place a variant is matched.
#[derive(Debug, Clone)]
pub enum Ev {
    /// A tester joins the experiment: `client_start`.
    ClientStart(ClientId),
    /// A client's think time is over: `client_issue`.
    ClientIssue(ClientId),
    /// Retry `attempt` of a lost query: `send_query`.
    SendQuery {
        /// Request tag.
        tag: u64,
        /// Transmission attempt (≥ 1; the original send is a direct call).
        attempt: u32,
    },
    /// A query reaches its decision point's container: `request_arrives`.
    RequestArrives {
        /// Request tag.
        tag: u64,
        /// The decision point the query was sent to, so admission reads
        /// nothing of the request's state but whether its tag is live.
        dp: DpId,
    },
    /// A container worker finishes a request: `service_done`.
    ServiceDone {
        /// Index of the serving decision point.
        dp_idx: usize,
        /// Request tag.
        tag: u64,
        /// Container generation at admission (stale after a crash).
        gen: u64,
    },
    /// The availability response reaches the client: `response_arrives`.
    ResponseArrives {
        /// Request tag.
        tag: u64,
        /// Believed free CPUs per site.
        free: Box<[u32]>,
        /// USLA enforcement refused the placement.
        denied: bool,
    },
    /// The client's timeout expires: `request_timeout`.
    RequestTimeout(u64),
    /// The client's inform reaches the decision point: `inform_arrives`.
    InformArrives {
        /// The informed decision point.
        dp: DpId,
        /// The dispatch it is told about.
        record: Box<DispatchRecord>,
    },
    /// A running job finishes at its site: `job_complete`.
    JobComplete(JobId),
    /// The periodic exchange round: `sync_round`.
    SyncRound,
    /// Retry `attempt` of a lost or blocked flood: `send_exchange`.
    SendExchange {
        /// Sending decision point.
        i: usize,
        /// Receiving decision point.
        j: usize,
        /// The flood.
        payload: Box<FloodPayload>,
        /// Transmission attempt (≥ 1).
        attempt: u32,
    },
    /// A flood reaches its receiver: `exchange_arrives`.
    ExchangeArrives {
        /// Sending decision point.
        i: usize,
        /// Receiving decision point.
        j: usize,
        /// The flood.
        payload: Box<FloodPayload>,
    },
    /// The periodic site-monitor feed: `monitor_refresh`.
    MonitorRefresh,
    /// The periodic DiPerF load sample: `load_sample`.
    LoadSample,
    /// A trace marker due at a set time: a store operation's modeled cost
    /// has elapsed, or a fault-plan window opens or closes.
    Emit(TraceEvent),
    /// Schedule the fault plan's clauses: `faults::seed_plan`.
    SeedPlan,
    /// A `slow@` window opens or closes: `faults::set_slowdown`.
    Slowdown {
        /// The degraded decision point.
        dp: usize,
        /// Service-time multiplier while the window is open; `None`
        /// closes it.
        factor: Option<f64>,
    },
    /// A decision point crashes: `faults::crash`.
    Crash {
        /// The decision point to crash.
        dp: usize,
        /// A `crash@` clause's outage; `None` for a churn failure, whose
        /// outage is drawn from the `churn@` REPAIR when the crash takes.
        down_for: Option<SimDuration>,
    },
    /// A crashed decision point restarts: `faults::restart`.
    Restart {
        /// The restarting decision point.
        dp: usize,
        /// Whether a churn failure took it down, so the restart posts
        /// its next failure.
        churn: bool,
    },
    /// A restart's modeled replay cost has elapsed:
    /// `faults::restore_dp_now`.
    FinishRestore(usize),
    /// The autoscaler's periodic tick: `crate::elastic::membership_tick`.
    MembershipTick,
}

/// The scheduler every handler is handed, storing [`Ev`] values (it has
/// no closure-taking methods).
pub(crate) type Sched = desim::Scheduler<World, Ev>;

/// A [`World`] and its `Sched`.
pub type Sim = desim::Simulation<World, Ev>;

impl desim::Event<World> for Ev {
    fn fire(self, w: &mut World, s: &mut Sched) {
        w.fire(self, s)
    }
}

impl World {
    /// Fires one event: the event catalogue's dispatch table.
    pub(crate) fn fire(&mut self, ev: Ev, s: &mut Sched) {
        match ev {
            Ev::ClientStart(client) => client_start(self, s, client),
            Ev::ClientIssue(client) => client_issue(self, s, client),
            Ev::SendQuery { tag, attempt } => send_query(self, s, tag, attempt),
            Ev::RequestArrives { tag, dp } => request_arrives(self, s, tag, dp),
            Ev::ServiceDone { dp_idx, tag, gen } => service_done(self, s, dp_idx, tag, gen),
            Ev::ResponseArrives { tag, free, denied } => {
                response_arrives(self, s, tag, free, denied)
            }
            Ev::RequestTimeout(tag) => request_timeout(self, s, tag),
            Ev::InformArrives { dp, record } => inform_arrives(self, s, dp, *record),
            Ev::JobComplete(job) => job_complete(self, s, job),
            Ev::SyncRound => sync_round(self, s),
            Ev::SendExchange { i, j, payload, attempt } => {
                send_exchange(self, s, i, j, *payload, attempt)
            }
            Ev::ExchangeArrives { i, j, payload } => exchange_arrives(self, s, i, j, *payload),
            Ev::MonitorRefresh => monitor_refresh(self, s),
            Ev::LoadSample => load_sample(self, s),
            Ev::Emit(event) => self.trace.emit(s.now(), || event),
            Ev::SeedPlan => faults::seed_plan(self, s),
            Ev::Slowdown { dp, factor } => faults::set_slowdown(self, s, dp, factor),
            Ev::Crash { dp, down_for } => faults::crash(self, s, dp, down_for),
            Ev::Restart { dp, churn } => faults::restart(self, s, dp, churn),
            Ev::FinishRestore(dp) => faults::restore_dp_now(self, s.now(), dp),
            Ev::MembershipTick => crate::elastic::membership_tick(self, s),
        }
    }
}

/// Feeds one input to a decision point through the shared
/// [`dpstore::NodeHost`] step. Store IO is modeled as group-committed: the
/// protocol path is not blocked, but each append's or snapshot's trace
/// lands on a scheduled event at `now + cost`, so the desim clock carries
/// the modeled fsync latency. (The snapshot itself is atomic at trigger
/// time — a crash never sees half of one, as `FileStore`'s tmp+rename
/// guarantees on disk.)
pub(crate) fn step_dp(
    w: &mut World,
    s: &mut Sched,
    dp_idx: usize,
    input: Input,
    out: &mut Vec<Routed>,
) {
    w.dps[dp_idx].host.handle(s.now(), input, out, |cost, event| {
        s.post_in(cost, Ev::Emit(event));
    });
}

/// One decision point's exchange tick: the node drains its log and every
/// resulting flood fans out over the WAN, one transmission per peer.
pub(crate) fn sync_dp(w: &mut World, s: &mut Sched, i: usize) {
    let n_dps = w.dps.len();
    let mut fx = Vec::new();
    step_dp(w, s, i, Input::SyncTick { n_dps }, &mut fx);
    for effect in fx {
        match effect {
            Routed::FloodTo { peers, payload } => {
                for j in peers {
                    send_exchange(w, s, i, j, payload.clone(), 0);
                }
            }
            Routed::Reply { .. } => {} // a tick answers no query
        }
    }
}

/// A client joins the experiment and issues its first query.
pub(crate) fn client_start(w: &mut World, s: &mut Sched, client: ClientId) {
    let c = &mut w.clients[client.index()];
    debug_assert!(!c.active, "client started twice");
    c.active = true;
    w.active_clients += 1;
    client_issue(w, s, client);
}

/// The closed loop: build the next job, hand it to the grid ledger (state
/// 1, at the submission host) and query the bound decision point.
pub(crate) fn client_issue(w: &mut World, s: &mut Sched, client: ClientId) {
    let now = s.now();
    if now >= w.end || !w.clients[client.index()].active {
        return;
    }
    if let Some(leave) = w.schedule.leave_of(client) {
        if now >= leave {
            w.clients[client.index()].active = false;
            w.active_clients -= 1;
            return;
        }
    }
    if let Some(max) = w.cfg.max_jobs_in_flight {
        // Queue-manager mode: "this component monitors VO policies and
        // decides how many jobs to start and when" — here, cap the jobs a
        // host keeps in flight; the host resumes when one finishes.
        let c = &mut w.clients[client.index()];
        if c.jobs_in_flight >= max {
            c.blocked_on_queue = true;
            return;
        }
    }
    let job = w.factory.make_job(client, now);
    let id = job.id;
    w.grid.submit(job).expect("job ids are unique");
    let dp = w.clients[client.index()].dp;
    let tag = w.requests.next_tag();
    let timeout_token = s.post_in(CLIENT_TIMEOUT, Ev::RequestTimeout(tag));
    w.requests.insert(RequestState {
        client,
        dp,
        job: id,
        sent_at: now,
        timed_out: false,
        timeout_token,
    });
    w.trace
        .emit(now, || obs::TraceEvent::QueryIssued { client, dp });

    send_query(w, s, tag, 0);
}

/// One transmission attempt of a client→DP query (`attempt` 0 is the
/// original send). The loss draw composes every active fault-plan window
/// on the client↔DP leg; a lost attempt consults the query retry policy
/// for a backoff.
pub(crate) fn send_query(w: &mut World, s: &mut Sched, tag: u64, attempt: u32) {
    let now = s.now();
    let Some(req) = w.requests.get(tag) else {
        return;
    };
    if req.timed_out {
        return; // a retry outlived the request's patience
    }
    let (client, dp) = (req.client, req.dp);
    let d = w.leg_disturbance(LinkScope::ClientDp, now);
    if d.loss == 0.0 || !w.net_rng.chance(d.loss) {
        // A query is a small control message: no serialization delay.
        let (dup, leg) = ((FaultMsgClass::Query, dp), (client_node(client), dp_node(dp)));
        deliver(w, s, &d, dup, leg, 0, Ev::RequestArrives { tag, dp });
        return;
    }
    // Lost in transit.
    w.trace.emit(now, || obs::TraceEvent::MsgLost {
        class: FaultMsgClass::Query,
        dp,
        attempt,
    });
    // Under fire-and-forget, or with the budget spent, the client's timeout
    // is the only thing that notices.
    schedule_retry(w, s, MessageClass::Query, dp, attempt, |attempt| Ev::SendQuery { tag, attempt });
}

/// Puts `ev` on the wire across `leg` (sender, receiver): transit time for
/// `bytes` of payload, plus whatever reordering and duplication `d` holds
/// for the leg — a duplicate is traced as `dup` (message class, decision
/// point) and is the same event posted twice. The loss draw stays with
/// the caller: what a lost message means differs by leg.
fn deliver(
    w: &mut World,
    s: &mut Sched,
    d: &LinkDisturbance,
    dup: (FaultMsgClass, DpId),
    (from, to): (NetNode, NetNode),
    bytes: u64,
    ev: Ev,
) {
    let mut lat = w.wan.transfer_time(from, to, bytes, &mut w.net_rng);
    if d.reorder > 0.0 && w.net_rng.chance(d.reorder) {
        // Held back and re-jittered: this message can now arrive after
        // ones sent later (reordering).
        lat += w.wan.sample(from, to, &mut w.net_rng);
    }
    if d.duplicate > 0.0 && w.net_rng.chance(d.duplicate) {
        let (class, dp) = dup;
        w.trace
            .emit(s.now(), || TraceEvent::MsgDuplicated { class, dp });
        let lat2 = w.wan.transfer_time(from, to, bytes, &mut w.net_rng);
        s.post_in(lat2, ev.clone());
    }
    s.post_in(lat, ev);
}

/// The query reaches the decision point's service container. Only the
/// tag's liveness is read from the request table: a duplicate or a
/// retry delivered after its request retired is never admitted.
pub(crate) fn request_arrives(w: &mut World, s: &mut Sched, tag: u64, dp: DpId) {
    if !w.requests.is_live(tag) {
        return;
    }
    let dp_idx = dp.index();
    if !w.dps[dp_idx].up() {
        // The decision point is down: the connection fails silently and
        // the client only learns of it through its timeout.
        return;
    }
    let payload_kb = simnet::codec::availability_payload_kb(w.grid.n_sites());
    let gen = w.dps[dp_idx].station.generation();
    let admission = w.dps[dp_idx]
        .station
        .arrive_at(s.now(), tag, payload_kb, &mut w.svc_rng);
    // Queued waits for a worker. Rejected: the container refused the
    // connection; the client will only notice through its timeout, and
    // nothing more happens server-side.
    if let simnet::Admission::Started(started) = admission {
        let tag = started.tag;
        s.post_in(started.service_time, Ev::ServiceDone { dp_idx, tag, gen });
    }
}

/// The container finished serving a request: free the worker, start the
/// next queued request, and ship the availability response back.
///
/// `gen` is the container generation at scheduling time; completions from
/// before a crash are stale and ignored.
pub(crate) fn service_done(w: &mut World, s: &mut Sched, dp_idx: usize, tag: u64, gen: u64) {
    if w.dps[dp_idx].station.generation() != gen {
        return; // the container crashed since; this request was lost
    }
    let now = s.now();
    if let Some(next) = w.dps[dp_idx].station.finish_at(now, &mut w.svc_rng) {
        let tag = next.tag;
        s.post_in(next.service_time, Ev::ServiceDone { dp_idx, tag, gen });
    }
    let Some(req) = w.requests.get(tag) else {
        return; // request state already retired
    };
    let client = req.client;
    let dp = req.dp;
    let admission = if w.cfg.enforce_uslas {
        Some(job_spec(&w.grid, req.job))
    } else {
        None
    };
    let mut fx = Vec::new();
    step_dp(w, s, dp_idx, Input::QueryArrived { admission }, &mut fx);
    let Some(Routed::Reply { free, denied }) = fx.pop() else {
        return; // the point went down; the client's timeout covers it
    };
    let d = w.leg_disturbance(LinkScope::ClientDp, now);
    if d.loss > 0.0 && w.net_rng.chance(d.loss) {
        // Response lost; the client's timeout covers it. Responses are
        // never retried — the client cannot distinguish a lost response
        // from a slow decision point, so the timeout is the protocol.
        w.trace.emit(now, || obs::TraceEvent::MsgLost {
            class: FaultMsgClass::Response,
            dp,
            attempt: 0,
        });
        return;
    }
    // The availability response is the big payload ("the transport of
    // significant state"): charge its serialization over the link.
    let payload_bytes =
        (simnet::codec::availability_payload_kb(free.len()) * 1024.0) as u64;
    let (dup, leg) = ((FaultMsgClass::Response, dp), (dp_node(dp), client_node(client)));
    let free = free.into_boxed_slice();
    // A duplicate finds the request already retired and is ignored.
    let arrives = Ev::ResponseArrives { tag, free, denied };
    deliver(w, s, &d, dup, leg, payload_bytes, arrives);
}

/// The availability response reaches the client: select a site, dispatch
/// the job, inform the decision point.
pub(crate) fn response_arrives(
    w: &mut World,
    s: &mut Sched,
    tag: u64,
    free: Box<[u32]>,
    denied: bool,
) {
    let now = s.now();
    // Either way the request retires here: a duplicate response, or a
    // retry still in flight, finds its tag gone and is ignored.
    let Some(req) = w.requests.remove(tag) else {
        return;
    };
    let (client, dp, job, sent_at) = (req.client, req.dp, req.job, req.sent_at);
    if req.timed_out {
        // The client gave up long ago and placed the job randomly; the
        // service still completed the request, so DiPerF's service-side
        // throughput counts it as a (late) completion.
        let late_by = now - sent_at;
        w.collector
            .record(RequestTrace::late(client, dp, sent_at, late_by));
        w.trace.emit(now, || obs::TraceEvent::ResponseLate {
            dp,
            client,
            response_ms: late_by.as_millis(),
        });
        return;
    }
    w.clients[client.index()].consecutive_timeouts = 0;
    s.cancel(req.timeout_token);

    if denied {
        // USLA enforcement refused the placement; the client backs off and
        // retries with its next job after thinking. This one stays at the
        // submission host, undispatched, which `finalize` skips.
        w.denied_requests += 1;
        w.collector
            .record(RequestTrace::answered(client, dp, sent_at, now - sent_at));
        w.trace.emit(now, || obs::TraceEvent::ResponseAnswered {
            dp,
            client,
            response_ms: (now - sent_at).as_millis(),
        });
        let think = w.factory.think_time(client);
        s.post_in(think, Ev::ClientIssue(client));
        return;
    }

    let spec = job_spec(&w.grid, job);
    let site = w.selector(client).select(&free, &spec, now);
    let Some(site) = site else {
        // Empty grid view — configuration error territory; retry later.
        let think = w.factory.think_time(client);
        s.post_in(think, Ev::ClientIssue(client));
        return;
    };

    // Ground-truth dispatch happens client-side (the submission host sends
    // the job straight to the site).
    let record = DispatchRecord {
        job,
        site,
        vo: spec.vo,
        group: spec.group,
        cpus: spec.cpus,
        dispatched_at: now,
        est_finish: now + spec.runtime,
    };
    dispatch_job(w, s, client, job, site, true);

    // Inform leg: tell the decision point, which folds the dispatch into
    // its view and its flood log; the ack closes the query.
    let l_inform = w.wan.sample(client_node(client), dp_node(dp), &mut w.net_rng);
    let l_ack = w.wan.sample(dp_node(dp), client_node(client), &mut w.net_rng);
    let d = w.leg_disturbance(LinkScope::ClientDp, now);
    if d.loss == 0.0 || !w.net_rng.chance(d.loss) {
        let record = Box::new(record);
        s.post_in(l_inform, Ev::InformArrives { dp, record });
    } else {
        w.trace.emit(now, || obs::TraceEvent::MsgLost {
            class: FaultMsgClass::Response,
            dp,
            attempt: 0,
        });
    }
    // A lost inform leaves the decision point blind to this dispatch; the
    // ack path is modelled as reliable so trace accounting stays simple.
    let response_time = (now + l_inform + l_ack) - sent_at;
    w.collector
        .record(RequestTrace::answered(client, dp, sent_at, response_time));
    w.trace.emit(now, || obs::TraceEvent::ResponseAnswered {
        dp,
        client,
        response_ms: response_time.as_millis(),
    });

    let think = w.factory.think_time(client);
    s.post_in(l_inform + l_ack + think, Ev::ClientIssue(client));
}

/// The inform reaches the decision point, which folds the dispatch into
/// its view and its flood log. An inform reaching a crashed point is lost
/// with it (the node drops inputs while down); the client never knows.
pub(crate) fn inform_arrives(w: &mut World, s: &mut Sched, dp: DpId, record: DispatchRecord) {
    if dp.index() < w.dps.len() {
        step_dp(w, s, dp.index(), Input::Inform(record), &mut Vec::new());
    }
}

/// The client's timeout fired before the response: random USLA-blind site.
pub(crate) fn request_timeout(w: &mut World, s: &mut Sched, tag: u64) {
    let Some(req) = w.requests.get_mut(tag) else {
        return;
    };
    req.timed_out = true;
    let now = s.now();
    let (client, dp, job) = (req.client, req.dp, req.job);
    w.trace
        .emit(now, || obs::TraceEvent::ClientTimeout { client, dp });
    // The request state stays in the table: if the service completes the
    // request later, `response_arrives` records it as a late completion;
    // requests the service never finishes are recorded as pure timeouts
    // when the run is finalized.
    crate::faults::note_client_timeout(w, client, now);
    let n_sites = w.grid.n_sites();
    let site = SiteId::from_index(w.clients[client.index()].fallback_rng.index(n_sites));
    dispatch_job(w, s, client, job, site, false);
    let think = w.factory.think_time(client);
    s.post_in(think, Ev::ClientIssue(client));
}

/// The spec of a job issued by [`client_issue`], from the grid ledger.
fn job_spec(grid: &Grid, job: JobId) -> JobSpec {
    grid.job_spec(job).expect("issued jobs are in the ledger")
}

/// Sends `client`'s submitted job to a site in ground truth, recording
/// scheduling accuracy for placements a decision point produced.
pub(crate) fn dispatch_job(
    w: &mut World,
    s: &mut Sched,
    client: ClientId,
    job: JobId,
    site: SiteId,
    handled: bool,
) {
    let now = s.now();
    if handled {
        let at_site = w.grid.sites()[site.index()].free_cpus();
        let acc = accuracy_vs_best(at_site, w.grid.max_free_cpus());
        w.accuracy_by_job.record(job, acc);
    }
    match w.grid.dispatch(job, site, now, handled) {
        Ok(started) => {
            w.clients[client.index()].jobs_in_flight += 1;
            for st in started {
                s.post_at(st.finish_at, Ev::JobComplete(st.job));
            }
        }
        Err(_) => {
            // Unreachable: every job takes 1 CPU and every site has at least 8.
        }
    }
}

/// A running job finished; queued jobs may start in its place, and a
/// queue-manager-blocked host gets its slot back.
pub(crate) fn job_complete(w: &mut World, s: &mut Sched, job: JobId) {
    let now = s.now();
    let client = w.grid.job_client(job).expect("scheduled completion");
    match w.grid.complete(job, now) {
        Ok(started) => {
            for st in started {
                s.post_at(st.finish_at, Ev::JobComplete(st.job));
            }
        }
        Err(e) => unreachable!("completion of {job} failed: {e}"),
    }
    let c = &mut w.clients[client.index()];
    c.jobs_in_flight = c.jobs_in_flight.saturating_sub(1);
    if c.blocked_on_queue {
        c.blocked_on_queue = false;
        let think = w.factory.think_time(client);
        s.post_in(think, Ev::ClientIssue(client));
    }
}

/// One exchange round: every decision point sends its dispatch log (and,
/// in `UsageAndUslas` mode, its USLA deltas) to its topology peers.
///
/// Peer selection and payload assembly live in the node
/// ([`dpnode::sync_peers_of`] — shared with the other runtimes); this
/// event only turns each flood into per-peer transmissions
/// ([`sync_dp`]). A crashed point neither floods nor drains its
/// log (the node checks its own liveness); what it brokered before the
/// crash goes out when it recovers and rejoins the next round.
///
/// Under the paper's full mesh, receivers merge without re-flooding; under
/// ring/star/gossip they forward transitively so records still reach every
/// point within a few rounds.
pub(crate) fn sync_round(w: &mut World, s: &mut Sched) {
    let now = s.now();
    if w.exchanges_state() {
        for i in 0..w.dps.len() {
            sync_dp(w, s, i);
        }
    }
    if now < w.end {
        s.post_in(w.cfg.sync_interval.max(SimDuration::SECOND), Ev::SyncRound);
    }
}

/// One transmission attempt of a DP→DP exchange flood (`attempt` 0 is the
/// round's original send). Partitions sever the leg at *both* ends: a
/// flood blocked at send time may retry (it looks like a refused
/// connection), and a flood already in flight when the window opens is
/// dropped on arrival — no exchange ever crosses a partition boundary.
/// `ExchangeSent` is emitted only for delivered sends, so the exchange
/// counters keep their pre-fault meaning.
pub(crate) fn send_exchange(
    w: &mut World,
    s: &mut Sched,
    i: usize,
    j: usize,
    payload: FloodPayload,
    attempt: u32,
) {
    let now = s.now();
    if w.dps.get(i).is_none_or(|d| !d.up()) {
        return; // the sender crashed while this retry waited
    }
    let from = DpId(i as u32);
    let to = DpId(j as u32);
    let resend = |attempt| {
        let payload = Box::new(payload.clone());
        Ev::SendExchange { i, j, payload, attempt }
    };
    if w.partitioned(i, j, now) {
        w.trace
            .emit(now, || obs::TraceEvent::ExchangeBlocked { from, to });
        // A partition looks like a refused connection: consult the retry
        // policy, and once the budget is out (or under fire-and-forget)
        // put the records back on the sender's log so the next round
        // retransmits them — a partition delays state, it must not
        // destroy it, which is what lets views reconverge within one
        // post-heal exchange round.
        if !schedule_retry(w, s, MessageClass::Exchange, to, attempt, resend) {
            w.dps[i].host.node_mut().requeue(&payload);
        }
        return;
    }
    let d = w.leg_disturbance(LinkScope::DpDp, now);
    if d.loss > 0.0 && w.net_rng.chance(d.loss) {
        w.trace.emit(now, || obs::TraceEvent::MsgLost {
            class: FaultMsgClass::Exchange,
            dp: to,
            attempt,
        });
        // A lost flood stays lost once the budget is out: the paper's
        // fire-and-forget staleness hit.
        schedule_retry(w, s, MessageClass::Exchange, to, attempt, resend);
        return;
    }
    let flood_bytes =
        (simnet::codec::deltas_payload_kb(payload.n_records as usize) * 1024.0) as u64;
    let records = payload.n_records;
    w.trace
        .emit(now, || obs::TraceEvent::ExchangeSent { from, to, records });
    // A duplicate's merge is idempotent (views de-duplicate by job id);
    // its cost is the second container-side merge.
    let arrives = Ev::ExchangeArrives { i, j, payload: Box::new(payload) };
    let (dup, leg) = ((FaultMsgClass::Exchange, to), (dp_node(from), dp_node(to)));
    deliver(w, s, &d, dup, leg, flood_bytes, arrives);
}

/// A flood reaches its receiver — unless a partition window opened while
/// it was in flight, in which case it is dropped at the boundary. The
/// receiving node owns the rest (liveness check, decode, merge,
/// transitive forwarding under non-mesh topologies).
fn exchange_arrives(
    w: &mut World,
    s: &mut Sched,
    i: usize,
    j: usize,
    payload: FloodPayload,
) {
    let now = s.now();
    if w.partitioned(i, j, now) {
        w.trace.emit(now, || obs::TraceEvent::ExchangeBlocked {
            from: DpId(i as u32),
            to: DpId(j as u32),
        });
        return;
    }
    if j < w.dps.len() {
        step_dp(w, s, j, Input::PeerRecords(payload), &mut Vec::new());
    }
}

/// Consults `class`'s retry policy after a failed transmission attempt
/// to `dp` and, if it grants a backoff, posts `next(attempt + 1)` after
/// it. Returns whether a retry was scheduled; on `false` the caller
/// decides the message's fate.
fn schedule_retry(
    w: &mut World,
    s: &mut Sched,
    class: MessageClass,
    dp: DpId,
    attempt: u32,
    next: impl FnOnce(u32) -> Ev,
) -> bool {
    let now = s.now();
    let traced = match class {
        MessageClass::Query => FaultMsgClass::Query,
        MessageClass::Exchange => FaultMsgClass::Exchange,
    };
    let policy = w.cfg.retry.policy(class);
    match policy.backoff(attempt, &mut w.net_rng) {
        Some(wait) => {
            let attempt = attempt + 1;
            w.trace.emit(now, || TraceEvent::RetryScheduled {
                class: traced,
                dp,
                attempt,
            });
            s.post_in(wait, next(attempt));
            true
        }
        None => {
            if policy.retries() {
                let attempts = attempt + 1;
                w.trace.emit(now, || TraceEvent::RetryExhausted {
                    class: traced,
                    dp,
                    attempts,
                });
            }
            false
        }
    }
}

/// Periodic site-monitor refresh (monitor-mode deployments): every
/// decision point receives a fresh ground-truth snapshot. Modeled as an
/// out-of-band data feed (MonALISA-style publish/subscribe), so it does
/// not occupy the GT container.
pub(crate) fn monitor_refresh(w: &mut World, s: &mut Sched) {
    let Some(interval) = w.cfg.monitor_refresh else {
        return;
    };
    let now = s.now();
    let snapshot = w.grid.free_cpus_per_site();
    for dp in &mut w.dps {
        dp.host.node_mut().set_monitor_snapshot(snapshot.clone());
    }
    if now < w.end {
        s.post_in(interval.max(SimDuration::SECOND), Ev::MonitorRefresh);
    }
}

/// Periodic load sampling for the DiPerF load series.
pub(crate) fn load_sample(w: &mut World, s: &mut Sched) {
    let now = s.now();
    w.collector.sample_load(now, w.active_clients);
    if now < w.end {
        s.post_in(SimDuration::from_secs(10), Ev::LoadSample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DigruberConfig;
    use gruber_types::{JobState, SimTime};
    use workload::WorkloadSpec;

    fn tiny_world(n_dps: usize) -> World {
        let wl = WorkloadSpec {
            n_clients: 1,
            duration: SimDuration::from_mins(5),
            ..WorkloadSpec::small()
        };
        World::new(DigruberConfig::small(n_dps, 3), wl).unwrap()
    }

    /// Jobs in the grid ledger with a recorded accuracy.
    fn recorded_accuracies(w: &World) -> usize {
        w.grid
            .records()
            .filter(|r| w.accuracy_by_job.get(r.spec.id).is_some())
            .count()
    }

    #[test]
    fn single_query_walkthrough() {
        let mut sim = Sim::with_events(tiny_world(1));
        sim.scheduler()
            .post_at(SimTime::ZERO, Ev::ClientStart(ClientId(0)));
        // One full protocol exchange comfortably fits in 30 s.
        sim.run_until(SimTime::from_secs(30));
        let w = sim.world();

        // The closed loop ran a few full cycles; inspect the first.
        let traces = w.collector.traces();
        assert!(!traces.is_empty());
        assert!(traces.iter().all(|t| t.handled()));
        let resp = traces[0].response.unwrap();
        // Response covers 4 one-way WAN legs plus service time: > 0.5 s,
        // well under the 30 s timeout on an idle station.
        assert!(resp > SimDuration::from_millis(500), "{resp}");
        assert!(resp < SimDuration::from_secs(15), "{resp}");

        // Every handled query dispatched exactly one job via the broker.
        // The job of a query still awaiting its answer is in the ledger
        // too, at the submission host (state 1).
        let dispatched: Vec<_> = w.grid.records().filter(|r| r.dispatched_at.is_some()).collect();
        assert_eq!(dispatched.len(), traces.len());
        assert!(dispatched.iter().all(|r| r.handled_by_gruber
            && matches!(r.state, JobState::Running | JobState::Completed)));
        assert!(w.grid.n_jobs() <= traces.len() + 1);

        // The decision point learned about each dispatch via the inform leg
        // (the last inform may still be in flight when the clock stops).
        let (own, merged) = w.dps[0].host.node().engine().counters();
        assert!(own >= traces.len() as u64 - 1, "{own} informs for {} traces", traces.len());
        assert_eq!(merged, 0);
        // Accuracy was recorded for every handled placement.
        assert_eq!(recorded_accuracies(w), traces.len());
    }

    #[test]
    fn dead_decision_point_forces_timeout_and_random_placement() {
        let mut sim = Sim::with_events(tiny_world(1));
        sim.world_mut().dps[0].host.crash();
        sim.scheduler()
            .post_at(SimTime::ZERO, Ev::ClientStart(ClientId(0)));
        // Run past the 30 s timeout.
        sim.run_until(SimTime::from_secs(40));
        let w = sim.world();
        // The job was still placed — randomly, not via the broker. The
        // next query's job, issued after the fallback, waits at the host.
        assert_eq!(w.grid.records().filter(|r| r.dispatched_at.is_some()).count(), 1);
        let rec = w.grid.records().next().unwrap();
        assert!(rec.dispatched_at.is_some());
        assert!(!rec.handled_by_gruber);
        assert_eq!(recorded_accuracies(w), 0, "random placements have no accuracy");
        // The station never saw the request.
        assert_eq!(w.dps[0].station.counters().0, 0);
    }

    #[test]
    fn duplicated_responses_retire_each_tag_once() {
        // Every message on the client↔DP leg arrives twice: each query is
        // served twice and each response is delivered twice, so up to
        // three late `ResponseArrives` per tag find it retired — while
        // other clients' newer requests are re-using its slab slot.
        let mut w = World::new(DigruberConfig::small(1, 3), WorkloadSpec::small()).unwrap();
        // Past `FaultPlan::validate` (probabilities in [0, 1)) on purpose:
        // at exactly 1 the counts below are exact for any seed.
        w.cfg.fault_plan = Some(faults::FaultPlan {
            link_faults: vec![faults::LinkFaultWindow {
                start: SimTime::ZERO,
                end: w.end,
                scope: LinkScope::ClientDp,
                loss: 0.0,
                duplicate: 1.0,
                reorder: 0.0,
            }],
            ..faults::FaultPlan::empty()
        });
        let mut sim = Sim::with_events(w);
        for c in 0..sim.world().clients.len() as u32 {
            sim.scheduler()
                .post_at(SimTime::ZERO, Ev::ClientStart(ClientId(c)));
        }
        let end = sim.world().end;
        sim.run_until(end);
        let w = sim.world();

        let issued = w.requests.next_tag();
        let in_flight = w.requests.iter().count() as u64;
        assert!(issued > 100, "only {issued} requests");
        assert!(in_flight <= w.clients.len() as u64);
        // The duplicates really happened: the station served every
        // answered query twice.
        let traces = w.collector.traces();
        assert!(w.dps[0].station.counters().1 >= 2 * traces.len() as u64);
        // One trace and one brokered job per answered tag, no more.
        assert_eq!(traces.len() as u64, issued - in_flight);
        assert!(traces.iter().all(|t| t.handled()));
        assert_eq!(w.grid.n_jobs() as u64, issued, "every issued job is in the ledger");
        let dispatched = w.grid.records().filter(|r| r.dispatched_at.is_some()).count();
        assert_eq!(dispatched, traces.len());
        assert_eq!(recorded_accuracies(w), traces.len());
    }

    #[test]
    fn duplicated_query_delivered_after_retirement_is_not_admitted() {
        // A `dup` clause on the client↔DP leg posts the query twice. While
        // the request is in flight both copies reach the station; once it
        // has retired, neither does: the tag's index entry alone decides,
        // and the station's admissions and rejections do not move.
        let station_counts = |retire: bool| {
            let mut w = tiny_world(1);
            w.cfg.fault_plan = Some(faults::FaultPlan {
                link_faults: vec![faults::LinkFaultWindow {
                    start: SimTime::ZERO,
                    end: w.end,
                    scope: LinkScope::ClientDp,
                    loss: 0.0,
                    duplicate: 1.0,
                    reorder: 0.0,
                }],
                ..faults::FaultPlan::empty()
            });
            let mut sim = Sim::with_events(w);
            sim.scheduler()
                .post_at(SimTime::ZERO, Ev::ClientStart(ClientId(0)));
            sim.run_until(SimTime::ZERO);
            // Tag 0 is issued: its timeout and both copies are pending.
            assert_eq!(sim.scheduler().pending(), 3);
            let (w, s) = sim.parts();
            w.clients[0].active = false; // no query after this one
            if retire {
                // A denied answer retires the tag before either copy lands.
                response_arrives(w, s, 0, Box::new([]), true);
                assert!(!w.requests.is_live(0));
            }
            sim.run_until(SimTime::from_secs(60));
            let station = &sim.world().dps[0].station;
            (station.counters().0, station.rejected())
        };
        assert_eq!(station_counts(false), (2, 0));
        assert_eq!(station_counts(true), (0, 0));
    }

    #[test]
    fn closed_loop_issues_repeatedly() {
        let mut sim = Sim::with_events(tiny_world(1));
        sim.scheduler()
            .post_at(SimTime::ZERO, Ev::ClientStart(ClientId(0)));
        let end = sim.world().end;
        sim.run_until(end);
        let w = sim.world();
        // ~5 minutes at (response + ~5 s think) per cycle: many queries.
        assert!(w.collector.traces().len() >= 10, "{}", w.collector.traces().len());
        // Every trace is from our single client and every one was handled.
        assert!(w.collector.traces().iter().all(|t| t.client == ClientId(0)));
        assert!(w.collector.traces().iter().all(|t| t.handled()));
    }

    #[test]
    fn sync_round_carries_dispatches_between_points() {
        // Two DPs; client 0 is bound to one of them. After a sync round the
        // OTHER point must know the dispatch too.
        let mut sim = Sim::with_events(tiny_world(2));
        sim.scheduler()
            .post_at(SimTime::ZERO, Ev::ClientStart(ClientId(0)));
        sim.scheduler()
            .post_at(SimTime::from_secs(30), Ev::SyncRound);
        sim.run_until(SimTime::from_secs(60));
        let w = sim.world();
        let bound = w.clients[0].dp.index();
        let other = 1 - bound;
        let (own_b, merged_b) = w.dps[bound].host.node().engine().counters();
        let (own_o, merged_o) = w.dps[other].host.node().engine().counters();
        assert!(own_b >= 1);
        assert_eq!(own_o, 0);
        assert!(merged_o >= 1, "peer never learned of the dispatch");
        assert_eq!(merged_b, 0);
    }

    // Peer selection moved into the shared protocol core with the sans-IO
    // refactor; `dpnode::topology` carries the per-topology unit tests
    // (including the gossip fanout clamp and single-point edge cases).
}
