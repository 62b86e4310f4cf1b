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

use crate::faults::LinkScope;
use crate::world::{client_node, dp_node, RequestState, World};
use desim::Scheduler;
use diperf::RequestTrace;
use dpnode::{FloodPayload, Input};
use dpstore::Routed;
use gruber::DispatchRecord;
use gruber_metrics::schedule_accuracy;
use gruber_types::{ClientId, DpId, JobId, JobSpec, SiteId};
use obs::FaultMsgClass;
use simnet::MessageClass;

/// Feeds one input to a decision point through the shared
/// [`dpstore::NodeHost`] step. Store IO is modeled as group-committed: the
/// protocol path is not blocked, but each append's or snapshot's trace
/// lands on a scheduled event at `now + cost`, so the desim clock carries
/// the modeled fsync latency. (The snapshot itself is atomic at trigger
/// time — a crash never sees half of one, as `FileStore`'s tmp+rename
/// guarantees on disk.)
pub fn step_dp(
    w: &mut World,
    s: &mut Scheduler<World>,
    dp_idx: usize,
    input: Input,
    out: &mut Vec<Routed>,
) {
    w.dps[dp_idx].host.handle(s.now(), input, out, |cost, event| {
        s.schedule_in(cost, move |w: &mut World, s: &mut Scheduler<World>| {
            w.trace.emit(s.now(), || event);
        });
    });
}

/// One decision point's exchange tick: the node drains its log and every
/// resulting flood fans out over the WAN, one transmission per peer.
pub fn sync_dp(w: &mut World, s: &mut Scheduler<World>, i: usize) {
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
            // A tick answers no query, and the sim clocks its own rounds.
            Routed::Reply { .. } | Routed::SetTimer { .. } => {}
        }
    }
}

/// A client joins the experiment and issues its first query.
pub fn client_start(w: &mut World, s: &mut Scheduler<World>, client: ClientId) {
    let c = &mut w.clients[client.index()];
    debug_assert!(!c.active, "client started twice");
    c.active = true;
    w.active_clients += 1;
    client_issue(w, s, client);
}

/// The closed loop: build the next job and query the bound decision point.
pub fn client_issue(w: &mut World, s: &mut Scheduler<World>, client: ClientId) {
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
    let dp = w.clients[client.index()].dp;
    let tag = w.alloc_request(RequestState {
        client,
        dp,
        job,
        sent_at: now,
        timed_out: false,
        responded: false,
        timeout_token: None,
    });
    w.trace
        .emit(now, || obs::TraceEvent::QueryIssued { client, dp });
    let timeout_token = s.schedule_in(w.cfg.client_timeout, move |w, s| request_timeout(w, s, tag));
    w.requests.get_mut(&tag).expect("just inserted").timeout_token = Some(timeout_token);

    send_query(w, s, tag, 0);
}

/// One transmission attempt of a client→DP query (`attempt` 0 is the
/// original send). The loss draw composes the base WAN loss with every
/// active fault-plan window on the client↔DP leg; a lost attempt consults
/// the query retry policy for a backoff, so under `RetryPolicy::None`
/// (the paper's fire-and-forget default) this reduces to exactly the old
/// single `delivered()` check — same RNG draws, same trace.
pub fn send_query(w: &mut World, s: &mut Scheduler<World>, tag: u64, attempt: u32) {
    let now = s.now();
    let Some(req) = w.requests.get(&tag) else {
        return;
    };
    if req.responded || req.timed_out {
        return; // a retry outlived the request
    }
    let (client, dp) = (req.client, req.dp);
    let d = w.leg_disturbance(LinkScope::ClientDp, now);
    if d.loss == 0.0 || !w.net_rng.chance(d.loss) {
        let mut lat = w.wan.sample(client_node(client), dp_node(dp), &mut w.net_rng);
        if d.reorder > 0.0 && w.net_rng.chance(d.reorder) {
            // Held back and re-jittered: this query can now arrive after
            // ones sent later (reordering).
            lat = lat + w.wan.sample(client_node(client), dp_node(dp), &mut w.net_rng);
        }
        if d.duplicate > 0.0 && w.net_rng.chance(d.duplicate) {
            w.trace.emit(now, || obs::TraceEvent::MsgDuplicated {
                class: FaultMsgClass::Query,
                dp,
            });
            let lat2 = w.wan.sample(client_node(client), dp_node(dp), &mut w.net_rng);
            s.schedule_in(lat2, move |w, s| request_arrives(w, s, tag));
        }
        s.schedule_in(lat, move |w, s| request_arrives(w, s, tag));
        return;
    }
    // Lost in transit.
    w.trace.emit(now, || obs::TraceEvent::MsgLost {
        class: FaultMsgClass::Query,
        dp,
        attempt,
    });
    let policy = w.cfg.retry.policy(MessageClass::Query);
    match policy.backoff(attempt, &mut w.net_rng) {
        Some(wait) => {
            let next = attempt + 1;
            w.trace.emit(now, || obs::TraceEvent::RetryScheduled {
                class: FaultMsgClass::Query,
                dp,
                attempt: next,
            });
            s.schedule_in(wait, move |w, s| send_query(w, s, tag, next));
        }
        None => {
            if policy.retries() {
                w.trace.emit(now, || obs::TraceEvent::RetryExhausted {
                    class: FaultMsgClass::Query,
                    dp,
                    attempts: attempt + 1,
                });
            }
            // Fire-and-forget (or budget spent): the client's timeout is
            // the only thing that notices.
        }
    }
}

/// The query reaches the decision point's service container.
pub fn request_arrives(w: &mut World, s: &mut Scheduler<World>, tag: u64) {
    let Some(req) = w.requests.get(&tag) else {
        return;
    };
    let dp_idx = req.dp.index();
    if !w.dps[dp_idx].up() {
        // The decision point is down: the connection fails silently and
        // the client only learns of it through its timeout.
        return;
    }
    let payload_kb = simnet::codec::availability_payload_kb(w.grid.n_sites());
    let gen = w.dps[dp_idx].station.generation();
    match w.dps[dp_idx]
        .station
        .arrive_at(s.now(), tag, payload_kb, &mut w.svc_rng)
    {
        simnet::service::Admission::Started(started) => {
            s.schedule_in(started.service_time, move |w, s| {
                service_done(w, s, dp_idx, started.tag, gen)
            });
        }
        simnet::service::Admission::Queued => {}
        simnet::service::Admission::Rejected => {
            // The container refused the connection; the client will only
            // notice through its timeout. Nothing more happens server-side.
        }
    }
}

/// The container finished serving a request: free the worker, start the
/// next queued request, and ship the availability response back.
///
/// `gen` is the container generation at scheduling time; completions from
/// before a crash are stale and ignored.
pub fn service_done(w: &mut World, s: &mut Scheduler<World>, dp_idx: usize, tag: u64, gen: u64) {
    if w.dps[dp_idx].station.generation() != gen {
        return; // the container crashed since; this request was lost
    }
    let now = s.now();
    if let Some(next) = w.dps[dp_idx].station.finish_at(now, &mut w.svc_rng) {
        s.schedule_in(next.service_time, move |w, s| {
            service_done(w, s, dp_idx, next.tag, gen)
        });
    }
    let Some(req) = w.requests.get(&tag) else {
        return; // request state already retired
    };
    let client = req.client;
    let dp = req.dp;
    let admission = if w.cfg.enforce_uslas {
        Some(req.job.clone())
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
    let mut lat = w
        .wan
        .transfer_time(dp_node(dp), client_node(client), payload_bytes, &mut w.net_rng);
    if d.reorder > 0.0 && w.net_rng.chance(d.reorder) {
        lat = lat + w.wan.sample(dp_node(dp), client_node(client), &mut w.net_rng);
    }
    if d.duplicate > 0.0 && w.net_rng.chance(d.duplicate) {
        w.trace.emit(now, || obs::TraceEvent::MsgDuplicated {
            class: FaultMsgClass::Response,
            dp,
        });
        let free2 = free.clone();
        let lat2 = w
            .wan
            .transfer_time(dp_node(dp), client_node(client), payload_bytes, &mut w.net_rng);
        // The duplicate finds the request already retired and is ignored.
        s.schedule_in(lat2, move |w, s| response_arrives(w, s, tag, free2, denied));
    }
    s.schedule_in(lat, move |w, s| response_arrives(w, s, tag, free, denied));
}

/// The availability response reaches the client: select a site, dispatch
/// the job, inform the decision point.
pub fn response_arrives(
    w: &mut World,
    s: &mut Scheduler<World>,
    tag: u64,
    free: Vec<u32>,
    denied: bool,
) {
    let now = s.now();
    let Some(req) = w.requests.get_mut(&tag) else {
        return;
    };
    if req.timed_out {
        // The client gave up long ago and placed the job randomly; the
        // service still completed the request, so DiPerF's service-side
        // throughput counts it as a (late) completion.
        let trace = RequestTrace::late(req.client, req.dp, req.sent_at, now - req.sent_at);
        let (client, dp, late_by) = (req.client, req.dp, now - req.sent_at);
        w.requests.remove(&tag);
        w.collector.record(trace);
        w.trace.emit(now, || obs::TraceEvent::ResponseLate {
            dp,
            client,
            response_ms: late_by.as_millis(),
        });
        return;
    }
    req.responded = true;
    let timeout_token = req.timeout_token;
    let client = req.client;
    let dp = req.dp;
    let job = req.job.clone();
    let sent_at = req.sent_at;
    w.requests.remove(&tag);
    w.clients[client.index()].consecutive_timeouts = 0;
    if let Some(token) = timeout_token {
        s.cancel(token);
    }

    if denied {
        // USLA enforcement refused the placement; the client backs off and
        // retries with its next job after thinking.
        w.denied_requests += 1;
        w.collector
            .record(RequestTrace::answered(client, dp, sent_at, now - sent_at));
        w.trace.emit(now, || obs::TraceEvent::ResponseAnswered {
            dp,
            client,
            response_ms: (now - sent_at).as_millis(),
        });
        let think = w.factory.think_time(client);
        s.schedule_in(think, move |w, s| client_issue(w, s, client));
        return;
    }

    let site = w.clients[client.index()]
        .selector
        .select(&free, &job, now);
    let Some(site) = site else {
        // Empty grid view — configuration error territory; retry later.
        let think = w.factory.think_time(client);
        s.schedule_in(think, move |w, s| client_issue(w, s, client));
        return;
    };

    // Ground-truth dispatch happens client-side (the submission host sends
    // the job straight to the site).
    let est_finish = now + job.runtime;
    let record = DispatchRecord {
        job: job.id,
        site,
        vo: job.vo,
        group: job.group,
        cpus: job.cpus,
        dispatched_at: now,
        est_finish,
    };
    dispatch_job(w, s, job, site, true);

    // Inform leg: tell the decision point, which folds the dispatch into
    // its view and its flood log; the ack closes the query.
    let l_inform = w.wan.sample(client_node(client), dp_node(dp), &mut w.net_rng);
    let l_ack = w.wan.sample(dp_node(dp), client_node(client), &mut w.net_rng);
    let d = w.leg_disturbance(LinkScope::ClientDp, now);
    if d.loss == 0.0 || !w.net_rng.chance(d.loss) {
        s.schedule_in(l_inform, move |w, s| {
            if dp.index() < w.dps.len() {
                // An inform reaching a crashed point is lost with it (the
                // node drops inputs while down); the client never knows.
                step_dp(w, s, dp.index(), Input::Inform(record), &mut Vec::new());
            }
        });
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
    s.schedule_in(l_inform + l_ack + think, move |w, s| {
        client_issue(w, s, client)
    });
}

/// The client's timeout fired before the response: random USLA-blind site.
pub fn request_timeout(w: &mut World, s: &mut Scheduler<World>, tag: u64) {
    let Some(req) = w.requests.get_mut(&tag) else {
        return;
    };
    if req.responded {
        return;
    }
    req.timed_out = true;
    let now = s.now();
    let client = req.client;
    let dp = req.dp;
    let job = req.job.clone();
    w.trace
        .emit(now, || obs::TraceEvent::ClientTimeout { client, dp });
    // The request state stays in the map: if the service completes the
    // request later, `response_arrives` records it as a late completion;
    // requests the service never finishes are recorded as pure timeouts
    // when the run is finalized.
    crate::faults::note_client_timeout(w, client, now);
    let n_sites = w.grid.n_sites();
    let site = SiteId::from_index(w.clients[client.index()].fallback_rng.index(n_sites));
    dispatch_job(w, s, job, site, false);
    let think = w.factory.think_time(client);
    s.schedule_in(think, move |w, s| client_issue(w, s, client));
}

/// Sends a job to a site in ground truth, recording scheduling accuracy
/// for placements a decision point produced.
pub fn dispatch_job(
    w: &mut World,
    s: &mut Scheduler<World>,
    job: JobSpec,
    site: SiteId,
    handled: bool,
) {
    let now = s.now();
    if handled {
        let truth = w.grid.free_cpus_per_site();
        let acc = schedule_accuracy(truth[site.index()], &truth);
        w.accuracy_by_job.insert(job.id, acc);
    }
    let id = job.id;
    let client = job.client;
    w.grid.submit(job).expect("job ids are unique");
    match w.grid.dispatch(id, site, now, handled) {
        Ok(started) => {
            w.clients[client.index()].jobs_in_flight += 1;
            for st in started {
                s.schedule_at(st.finish_at, move |w, s| job_complete(w, s, st.job));
            }
        }
        Err(_) => {
            // Site rejected the placement (S-PEP denial or oversized job).
            w.rejected_dispatches += 1;
        }
    }
}

/// A running job finished; queued jobs may start in its place, and a
/// queue-manager-blocked host gets its slot back.
pub fn job_complete(w: &mut World, s: &mut Scheduler<World>, job: JobId) {
    let now = s.now();
    let client = w.grid.record(job).expect("scheduled completion").spec.client;
    match w.grid.complete(job, now) {
        Ok(started) => {
            for st in started {
                s.schedule_at(st.finish_at, move |w, s| job_complete(w, s, st.job));
            }
        }
        Err(e) => unreachable!("completion of {job} failed: {e}"),
    }
    let c = &mut w.clients[client.index()];
    c.jobs_in_flight = c.jobs_in_flight.saturating_sub(1);
    if c.blocked_on_queue {
        c.blocked_on_queue = false;
        let think = w.factory.think_time(client);
        s.schedule_in(think, move |w, s| client_issue(w, s, client));
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
pub fn sync_round(w: &mut World, s: &mut Scheduler<World>) {
    let now = s.now();
    if w.exchanges_state() {
        for i in 0..w.dps.len() {
            sync_dp(w, s, i);
        }
    }
    if now < w.end {
        s.schedule_in(w.cfg.sync_interval.max(gruber_types::SimDuration::SECOND), sync_round);
    }
}

/// One transmission attempt of a DP→DP exchange flood (`attempt` 0 is the
/// round's original send). Partitions sever the leg at *both* ends: a
/// flood blocked at send time may retry (it looks like a refused
/// connection), and a flood already in flight when the window opens is
/// dropped on arrival — no exchange ever crosses a partition boundary.
/// `ExchangeSent` is emitted only for delivered sends, so the exchange
/// counters keep their pre-fault meaning.
pub fn send_exchange(
    w: &mut World,
    s: &mut Scheduler<World>,
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
    if w.partitioned(i, j, now) {
        w.trace
            .emit(now, || obs::TraceEvent::ExchangeBlocked { from, to });
        // A partition looks like a refused connection: consult the retry
        // policy, and once the budget is out (or under fire-and-forget)
        // put the records back on the sender's log so the next round
        // retransmits them — a partition delays state, it must not
        // destroy it, which is what lets views reconverge within one
        // post-heal exchange round.
        if !retry_exchange(w, s, i, j, payload.clone(), attempt) {
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
        retry_exchange(w, s, i, j, payload, attempt);
        return;
    }
    let flood_bytes =
        (simnet::codec::deltas_payload_kb(payload.n_records as usize) * 1024.0) as u64;
    let mut lat = w
        .wan
        .transfer_time(dp_node(from), dp_node(to), flood_bytes, &mut w.net_rng);
    if d.reorder > 0.0 && w.net_rng.chance(d.reorder) {
        lat = lat + w.wan.sample(dp_node(from), dp_node(to), &mut w.net_rng);
    }
    let records = payload.n_records;
    w.trace
        .emit(now, || obs::TraceEvent::ExchangeSent { from, to, records });
    if d.duplicate > 0.0 && w.net_rng.chance(d.duplicate) {
        w.trace.emit(now, || obs::TraceEvent::MsgDuplicated {
            class: FaultMsgClass::Exchange,
            dp: to,
        });
        let payload2 = payload.clone();
        let lat2 = w
            .wan
            .transfer_time(dp_node(from), dp_node(to), flood_bytes, &mut w.net_rng);
        // The duplicate merge is idempotent (views de-duplicate by job
        // id); its cost is the second container-side merge.
        s.schedule_in(lat2, move |w, s| exchange_arrives(w, s, i, j, payload2));
    }
    s.schedule_in(lat, move |w, s| exchange_arrives(w, s, i, j, payload));
}

/// A flood reaches its receiver — unless a partition window opened while
/// it was in flight, in which case it is dropped at the boundary. The
/// receiving node owns the rest (liveness check, decode, merge,
/// transitive forwarding under non-mesh topologies).
fn exchange_arrives(
    w: &mut World,
    s: &mut Scheduler<World>,
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

/// Consults the exchange retry policy after a failed transmission
/// attempt. Returns whether a retry was scheduled; on `false` the caller
/// decides the payload's fate (a lost flood stays lost — the paper's
/// fire-and-forget staleness hit — while a partition-blocked one is
/// requeued for the next round).
fn retry_exchange(
    w: &mut World,
    s: &mut Scheduler<World>,
    i: usize,
    j: usize,
    payload: FloodPayload,
    attempt: u32,
) -> bool {
    let now = s.now();
    let to = DpId(j as u32);
    let policy = w.cfg.retry.policy(MessageClass::Exchange);
    match policy.backoff(attempt, &mut w.net_rng) {
        Some(wait) => {
            let next = attempt + 1;
            w.trace.emit(now, || obs::TraceEvent::RetryScheduled {
                class: FaultMsgClass::Exchange,
                dp: to,
                attempt: next,
            });
            s.schedule_in(wait, move |w, s| send_exchange(w, s, i, j, payload, next));
            true
        }
        None => {
            if policy.retries() {
                w.trace.emit(now, || obs::TraceEvent::RetryExhausted {
                    class: FaultMsgClass::Exchange,
                    dp: to,
                    attempts: attempt + 1,
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
pub fn monitor_refresh(w: &mut World, s: &mut Scheduler<World>) {
    let Some(interval) = w.cfg.monitor_refresh else {
        return;
    };
    let now = s.now();
    let snapshot = w.grid.free_cpus_per_site();
    for dp in &mut w.dps {
        dp.host.node_mut().set_monitor_snapshot(snapshot.clone());
    }
    if now < w.end {
        s.schedule_in(interval.max(gruber_types::SimDuration::SECOND), monitor_refresh);
    }
}

/// Periodic load sampling for the DiPerF load series.
pub fn load_sample(w: &mut World, s: &mut Scheduler<World>) {
    let now = s.now();
    w.collector.sample_load(now, w.active_clients);
    if now < w.end {
        s.schedule_in(gruber_types::SimDuration::from_secs(10), load_sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DigruberConfig;
    use desim::Simulation;
    use gruber_types::{JobState, SimDuration, SimTime};
    use workload::WorkloadSpec;

    fn tiny_world(n_dps: usize) -> World {
        let wl = WorkloadSpec {
            n_clients: 1,
            duration: SimDuration::from_mins(5),
            ..WorkloadSpec::small()
        };
        World::new(DigruberConfig::small(n_dps, 3), wl).unwrap()
    }

    #[test]
    fn single_query_walkthrough() {
        let mut sim = Simulation::new(tiny_world(1));
        sim.scheduler()
            .schedule_at(SimTime::ZERO, |w: &mut World, s| client_start(w, s, ClientId(0)));
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
        assert_eq!(w.grid.n_jobs(), traces.len());
        assert!(w.grid.records().all(|r| r.handled_by_gruber
            && matches!(r.state, JobState::Running | JobState::Completed)));

        // The decision point learned about each dispatch via the inform leg
        // (the last inform may still be in flight when the clock stops).
        let (own, merged) = w.dps[0].host.node().engine().counters();
        assert!(own >= traces.len() as u64 - 1, "{own} informs for {} traces", traces.len());
        assert_eq!(merged, 0);
        // Accuracy was recorded for every handled placement.
        assert_eq!(w.accuracy_by_job.len(), traces.len());
    }

    #[test]
    fn dead_decision_point_forces_timeout_and_random_placement() {
        let mut sim = Simulation::new(tiny_world(1));
        sim.world_mut().dps[0].host.crash();
        sim.scheduler()
            .schedule_at(SimTime::ZERO, |w: &mut World, s| client_start(w, s, ClientId(0)));
        // Run past the 30 s timeout.
        sim.run_until(SimTime::from_secs(40));
        let w = sim.world();
        // The job was still placed — randomly, not via the broker.
        assert_eq!(w.grid.n_jobs(), 1);
        let rec = w.grid.records().next().unwrap();
        assert!(!rec.handled_by_gruber);
        assert!(w.accuracy_by_job.is_empty(), "random placements have no accuracy");
        // The station never saw the request.
        assert_eq!(w.dps[0].station.counters().0, 0);
    }

    #[test]
    fn closed_loop_issues_repeatedly() {
        let mut sim = Simulation::new(tiny_world(1));
        sim.scheduler()
            .schedule_at(SimTime::ZERO, |w: &mut World, s| client_start(w, s, ClientId(0)));
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
        let mut sim = Simulation::new(tiny_world(2));
        sim.scheduler()
            .schedule_at(SimTime::ZERO, |w: &mut World, s| client_start(w, s, ClientId(0)));
        sim.scheduler()
            .schedule_at(SimTime::from_secs(30), sync_round);
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
