//! The GRUBER engine.
//!
//! One engine instance backs one decision point. It owns the point's
//! [`GridView`], its USLA store, and the outgoing dispatch log that the
//! DI-GRUBER layer floods to peers, kept in the flood's wire form
//! ([`DeltaLog`]) so a flood is the log itself. The engine answers two
//! questions:
//!
//! * *availability* — the believed free CPUs per site (the "significant
//!   state" shipped back to the client's site selector);
//! * *admission* — may this job start another CPU, under the USLAs, given
//!   the believed per-VO/group usage?

use crate::view::GridView;
use bytes::Bytes;
use gruber_types::{DispatchRecord, DpId, JobSpec, SimDuration, SimTime, SiteSpec};
use obs::{Recorder, TraceEvent, TraceVerdict};
use simnet::codec::DeltaLog;
use usla::{AdmissionVerdict, EntitlementEngine, Principal, UslaSet, UslaStore};

/// A decision point's brokering core.
#[derive(Debug)]
pub struct GruberEngine {
    view: GridView,
    uslas: UslaStore,
    outgoing: DeltaLog,
    dispatches_recorded: u64,
    peers_merged: u64,
    /// When the last peer exchange was folded in (`None` until the first).
    last_merge_at: Option<SimTime>,
    /// Largest observed gap between consecutive merges — the engine's
    /// worst view staleness, which partitions stretch and the
    /// degradation study reports.
    max_merge_gap: SimDuration,
    tracer: Recorder,
    dp: DpId,
}

impl GruberEngine {
    /// Builds an engine with full static site knowledge and a USLA set.
    /// The view accounts for the VO and group ids the set names (one past
    /// the highest of each; [`GridView::DEFAULT_PRINCIPALS`] for a level
    /// the set is silent on) and refuses dispatch records naming any other.
    pub fn new(sites: &[SiteSpec], uslas: &UslaSet) -> Self {
        let (mut n_vos, mut n_groups) = (None, None);
        for p in uslas.entries().iter().flat_map(|e| [e.provider, e.consumer]) {
            let (vo, group) = match p {
                Principal::Grid => continue,
                Principal::Vo(v) => (v, None),
                Principal::Group(v, g) => (v, Some(g)),
            };
            n_vos = n_vos.max(Some(vo.index() + 1));
            n_groups = n_groups.max(group.map(|g| g.index() + 1));
        }
        GruberEngine {
            view: GridView::with_principals(
                sites,
                n_vos.unwrap_or(GridView::DEFAULT_PRINCIPALS),
                n_groups.unwrap_or(GridView::DEFAULT_PRINCIPALS),
            ),
            uslas: UslaStore::from_set(uslas),
            outgoing: DeltaLog::default(),
            dispatches_recorded: 0,
            peers_merged: 0,
            last_merge_at: None,
            max_merge_gap: SimDuration::ZERO,
            tracer: Recorder::OFF,
            dp: DpId(0),
        }
    }

    /// Installs a trace recorder, attributing this engine's events to
    /// decision point `dp`.
    pub fn set_tracer(&mut self, tracer: Recorder, dp: DpId) {
        self.tracer = tracer;
        self.dp = dp;
    }

    /// Believed free CPUs per site — the availability response payload.
    pub fn availability(&mut self, now: SimTime) -> Vec<u32> {
        self.view.free_per_site(now)
    }

    /// Records a dispatch this decision point just brokered: folds it into
    /// the local view immediately and queues it for the next peer exchange.
    /// Returns whether the view accepted the record (false for duplicates
    /// and already-expired records).
    pub fn record_dispatch(&mut self, rec: DispatchRecord, now: SimTime) -> bool {
        if self.view.observe(&rec, now) {
            self.tracer.emit(now, || TraceEvent::QueryAccepted {
                dp: self.dp,
                job: rec.job,
            });
            self.outgoing.push(&rec);
            self.dispatches_recorded += 1;
            true
        } else {
            self.tracer.emit(now, || TraceEvent::QueryDuplicate {
                dp: self.dp,
                job: rec.job,
            });
            false
        }
    }

    /// Folds a batch of peer dispatch records (received in a sync round)
    /// into the view, one at a time as `records` yields them — a flood is
    /// merged straight off its wire bytes (`simnet::codec::iter_deltas`),
    /// never collected first. Returns how many were new.
    ///
    /// With `forward`, the records that were new for this engine are also
    /// queued onto its own outgoing log — transitive forwarding for
    /// non-mesh exchange topologies (ring, star, gossip). Forwarding loops
    /// terminate because the view de-duplicates by job id: a record seen
    /// before is not "new" and is not re-queued.
    ///
    /// With a `fresh_out` sink, the new records are collected there too:
    /// drivers that persist applied records need the exact accepted set —
    /// the count alone is not enough to rebuild the view on recovery.
    pub fn merge_peer_records(
        &mut self,
        records: impl IntoIterator<Item = DispatchRecord>,
        now: SimTime,
        forward: bool,
        mut fresh_out: Option<&mut Vec<DispatchRecord>>,
    ) -> usize {
        let (mut received, mut new) = (0, 0);
        for rec in records {
            received += 1;
            if self.view.observe(&rec, now) {
                if forward {
                    self.outgoing.push(&rec);
                }
                if let Some(sink) = fresh_out.as_deref_mut() {
                    sink.push(rec);
                }
                new += 1;
            }
        }
        self.note_merge(now);
        self.peers_merged += new as u64;
        self.tracer.emit(now, || TraceEvent::ExchangeMerged {
            dp: self.dp,
            received,
            fresh: new as u32,
        });
        new
    }

    /// Drains the outgoing dispatch log (called once per sync round), as
    /// the flood's wire bytes ([`simnet::codec::encode_deltas`] form).
    pub fn drain_log(&mut self) -> Bytes {
        self.outgoing.take()
    }

    /// Puts undeliverable records back on the outgoing log so the next
    /// exchange round retransmits them. Used when a network partition
    /// blocks a flood: a partition delays state, it must not destroy it.
    /// (Receivers de-duplicate by job id, so peers that already hold a
    /// record pay only the merge cost of seeing it again.)
    pub fn requeue_outgoing(&mut self, records: impl IntoIterator<Item = DispatchRecord>) {
        for rec in records {
            self.outgoing.push(&rec);
        }
    }

    /// Size of the pending outgoing log.
    pub fn pending_log_len(&self) -> usize {
        self.outgoing.len()
    }

    /// USLA admission check for `job`, evaluated against the believed
    /// (view) usage of the job's VO and group.
    pub fn admission(&mut self, job: &JobSpec, now: SimTime) -> AdmissionVerdict {
        let vo_usage = self.view.vo_demand(job.vo, now) as f64;
        let group_usage = self.view.group_demand(job.vo, job.group, now) as f64;
        let idle = self.view.idle_cpus(now) as f64;
        let snapshot = self.uslas.snapshot();
        let engine = EntitlementEngine::new(&snapshot, self.view.grid_cpus() as f64);
        let group = Principal::Group(job.vo, job.group);
        let verdict = engine.check_admission(group, f64::from(job.cpus), idle, |p| match p {
            Principal::Vo(_) => vo_usage,
            Principal::Group(..) => group_usage,
            _ => 0.0,
        });
        self.tracer.emit(now, || TraceEvent::Decision {
            dp: self.dp,
            job: job.id,
            verdict: match verdict {
                AdmissionVerdict::Guaranteed | AdmissionVerdict::UnderEntitlement => {
                    TraceVerdict::Admitted
                }
                AdmissionVerdict::Opportunistic => TraceVerdict::Opportunistic,
                AdmissionVerdict::Denied => TraceVerdict::Denied,
            },
        });
        verdict
    }

    /// The engine's USLA store (publication / discovery / dissemination).
    pub fn uslas_mut(&mut self) -> &mut UslaStore {
        &mut self.uslas
    }

    /// Read access to the USLA store.
    pub fn uslas(&self) -> &UslaStore {
        &self.uslas
    }

    /// The underlying grid view.
    pub fn view_mut(&mut self) -> &mut GridView {
        &mut self.view
    }

    /// Lifetime counters `(own dispatches, peer records merged)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.dispatches_recorded, self.peers_merged)
    }

    /// The pending outgoing dispatch log, in queue order, as a sync
    /// payload ([`simnet::codec::encode_deltas`] form). Snapshots capture
    /// this so a recovered point retransmits records it had accepted but
    /// not yet flooded.
    pub fn outgoing(&self) -> &[u8] {
        self.outgoing.as_bytes()
    }

    /// Restores lifetime counters and merge-gap bookkeeping from a
    /// snapshot. Only recovery paths call this; normal operation derives
    /// these from observed traffic.
    pub fn restore_counters(
        &mut self,
        dispatches_recorded: u64,
        peers_merged: u64,
        last_merge_at: Option<SimTime>,
        max_merge_gap: SimDuration,
    ) {
        self.dispatches_recorded = dispatches_recorded;
        self.peers_merged = peers_merged;
        self.last_merge_at = last_merge_at;
        self.max_merge_gap = max_merge_gap;
    }

    fn note_merge(&mut self, now: SimTime) {
        let prev = self.last_merge_at.unwrap_or(SimTime::ZERO);
        self.max_merge_gap = self.max_merge_gap.max(now.since(prev));
        self.last_merge_at = Some(now);
    }

    /// When the last peer exchange was folded in (`None` before the
    /// first merge — e.g. a single-point deployment never merges).
    pub fn last_merge_at(&self) -> Option<SimTime> {
        self.last_merge_at
    }

    /// The largest gap between consecutive peer merges seen so far — the
    /// engine's worst view staleness. Partitions stretch this: while
    /// severed, nothing merges, so the gap grows until one post-heal
    /// exchange round closes it.
    pub fn max_merge_gap(&self) -> SimDuration {
        self.max_merge_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{ClientId, GroupId, JobId, SimDuration, SiteId, UserId, VoId};
    use simnet::codec::{decode_deltas, iter_deltas};
    use workload::uslas::equal_shares;

    fn sites() -> Vec<SiteSpec> {
        vec![
            SiteSpec::single_cluster(SiteId(0), 10),
            SiteSpec::single_cluster(SiteId(1), 10),
        ]
    }

    fn engine() -> GruberEngine {
        GruberEngine::new(&sites(), &equal_shares(2, 2).unwrap())
    }

    #[test]
    fn merge_gap_tracks_worst_staleness() {
        let mut e = engine();
        assert_eq!(e.last_merge_at(), None);
        assert_eq!(e.max_merge_gap(), SimDuration::ZERO);
        e.merge_peer_records([], SimTime::from_secs(10), false, None);
        assert_eq!(e.last_merge_at(), Some(SimTime::from_secs(10)));
        assert_eq!(e.max_merge_gap(), SimDuration::from_secs(10));
        // A long quiet spell (a partition, say) stretches the gap…
        e.merge_peer_records([], SimTime::from_secs(400), false, None);
        assert_eq!(e.max_merge_gap(), SimDuration::from_secs(390));
        // …and prompt merges afterwards never shrink the high-water mark.
        e.merge_peer_records([], SimTime::from_secs(401), false, None);
        assert_eq!(e.max_merge_gap(), SimDuration::from_secs(390));
        assert_eq!(e.last_merge_at(), Some(SimTime::from_secs(401)));
    }

    fn rec(job: u32, site: u32, cpus: u32, end_s: u64) -> DispatchRecord {
        DispatchRecord {
            job: JobId(job),
            site: SiteId(site),
            vo: VoId(0),
            group: GroupId(0),
            cpus,
            dispatched_at: SimTime::ZERO,
            est_finish: SimTime::from_secs(end_s),
        }
    }

    fn job(vo: u32, group: u32) -> JobSpec {
        JobSpec {
            id: JobId(99),
            vo: VoId(vo),
            group: GroupId(group),
            user: UserId(0),
            client: ClientId(0),
            cpus: 1,
            storage_mb: 0,
            runtime: SimDuration::from_secs(60),
            submitted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn dispatch_log_accumulates_and_drains() {
        let mut e = engine();
        let now = SimTime::ZERO;
        e.record_dispatch(rec(1, 0, 2, 100), now);
        e.record_dispatch(rec(2, 1, 3, 100), now);
        assert_eq!(e.pending_log_len(), 2);
        assert_eq!(e.availability(now), vec![8, 7]);
        let log = decode_deltas(e.drain_log()).unwrap();
        assert_eq!(log, [rec(1, 0, 2, 100), rec(2, 1, 3, 100)]);
        assert_eq!(e.pending_log_len(), 0);
        // Draining does not forget the view.
        assert_eq!(e.availability(now), vec![8, 7]);
    }

    #[test]
    fn duplicate_dispatch_not_logged_twice() {
        let mut e = engine();
        e.record_dispatch(rec(1, 0, 2, 100), SimTime::ZERO);
        e.record_dispatch(rec(1, 0, 2, 100), SimTime::ZERO);
        assert_eq!(e.pending_log_len(), 1);
        assert_eq!(e.counters().0, 1);
    }

    #[test]
    fn peer_merge_updates_view_without_relogging() {
        let mut a = engine();
        let mut b = engine();
        let now = SimTime::ZERO;
        a.record_dispatch(rec(1, 0, 4, 100), now);
        let log = a.drain_log();
        let flood = || iter_deltas(log.as_ref()).unwrap();
        assert_eq!(b.merge_peer_records(flood(), now, false, None), 1);
        assert_eq!(b.availability(now), vec![6, 10]);
        // b must NOT re-flood what it learned from a.
        assert_eq!(b.pending_log_len(), 0);
        assert_eq!(b.counters(), (0, 1));
        // Merging the same log again is a no-op.
        assert_eq!(b.merge_peer_records(flood(), now, false, None), 0);
    }

    #[test]
    fn merge_forward_and_sink_are_independent() {
        // One duplicate (job 1 again) and one record already expired at
        // `now` (job 3): two of the four are fresh, in batch order.
        let now = SimTime::from_secs(50);
        let batch = [rec(1, 0, 2, 100), rec(2, 1, 3, 100), rec(1, 0, 2, 100), rec(3, 0, 1, 40)];
        let fresh = [batch[0], batch[1]];
        for (forward, with_sink) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut e = engine();
            let tracer = Recorder::new(obs::TraceConfig::default());
            e.set_tracer(tracer.clone(), DpId(7));
            let mut sink = Vec::new();
            let sink_or_not = with_sink.then_some(&mut sink);
            let n = e.merge_peer_records(batch.iter().copied(), now, forward, sink_or_not);
            assert_eq!(n, 2);
            assert_eq!(e.counters(), (0, 2));
            let logged = decode_deltas(Bytes::copy_from_slice(e.outgoing())).unwrap();
            assert_eq!(logged, if forward { &fresh[..] } else { &[] });
            assert_eq!(sink, if with_sink { &fresh[..] } else { &[] });
            assert_eq!(e.max_merge_gap(), SimDuration::from_secs(50));
            let merged = TraceEvent::ExchangeMerged {
                dp: DpId(7),
                received: 4,
                fresh: 2,
            };
            assert_eq!(tracer.finish(now).unwrap().recent, vec![(50_000, merged)]);
        }
    }

    #[test]
    fn admission_under_entitlement() {
        let mut e = engine();
        // 20 CPUs total, VO 0 entitled to 10, group 0.0 to 5. No usage yet.
        let v = e.admission(&job(0, 0), SimTime::ZERO);
        assert!(v.admitted());
    }

    #[test]
    fn admission_opportunistic_when_over_entitlement() {
        let mut e = engine();
        let now = SimTime::ZERO;
        // Put 6 CPUs of VO-0/group-0 work in the view (entitlement is 5).
        for j in 0..6 {
            e.record_dispatch(rec(j, j % 2, 1, 1000), now);
        }
        let v = e.admission(&job(0, 0), now);
        assert_eq!(v, AdmissionVerdict::Opportunistic);
        assert!(v.admitted());
    }

    #[test]
    fn admission_denied_when_grid_full() {
        let mut e = engine();
        let now = SimTime::ZERO;
        // Saturate the believed grid.
        for j in 0..20 {
            e.record_dispatch(rec(j, j % 2, 1, 1000), now);
        }
        let v = e.admission(&job(1, 1), now);
        assert_eq!(v, AdmissionVerdict::Denied);
    }

    #[test]
    fn the_usla_set_bounds_the_principals_the_view_accounts_for() {
        use usla::{FairShare, UslaEntry};
        let named = |job, vo, group| DispatchRecord {
            vo: VoId(vo),
            group: GroupId(group),
            ..rec(job, 0, 1, 1000)
        };
        let now = SimTime::ZERO;
        // VOs 0-1 with groups 0-1: one past either is nobody's.
        let mut e = engine();
        assert!(e.record_dispatch(named(1, 1, 1), now));
        assert!(!e.record_dispatch(named(2, 2, 0), now));
        assert!(!e.record_dispatch(named(3, 0, 2), now));
        assert!(!e.record_dispatch(named(4, u32::MAX, u32::MAX), now));
        assert_eq!((e.availability(now), e.pending_log_len()), (vec![9, 10], 1));
        // A set that grants VOs and says nothing of groups bounds the VOs
        // only; an empty set bounds neither past the view's default.
        let vo_only = UslaSet::from_entries(vec![UslaEntry {
            provider: Principal::Grid,
            consumer: Principal::Vo(VoId(4)),
            share: FairShare::target(100.0),
        }])
        .unwrap();
        let mut e = GruberEngine::new(&sites(), &vo_only);
        assert!(e.record_dispatch(named(1, 4, 900), now));
        assert!(!e.record_dispatch(named(2, 5, 0), now));
        let mut e = GruberEngine::new(&sites(), &UslaSet::new());
        assert!(e.record_dispatch(named(1, 900, 900), now));
        assert!(!e.record_dispatch(named(2, GridView::DEFAULT_PRINCIPALS as u32, 0), now));
    }

    #[test]
    fn usla_publication_flows_into_admission() {
        use usla::{FairShare, UslaEntry};
        let mut e = engine();
        // Cap VO 1 at 0%: every request for it must be denied.
        e.uslas_mut()
            .publish(UslaEntry {
                provider: Principal::Grid,
                consumer: Principal::Vo(VoId(1)),
                share: FairShare::upper(0.0),
            })
            .unwrap();
        let v = e.admission(&job(1, 0), SimTime::ZERO);
        assert_eq!(v, AdmissionVerdict::Denied);
    }
}
