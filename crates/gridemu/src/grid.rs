//! Ground truth: all sites plus the job ledger.
//!
//! [`Grid`] owns every [`SiteState`] and every [`JobRecord`], and is the
//! single place where the four-state lifecycle transitions happen. The
//! experiment world drives it from discrete events (dispatches from
//! submission hosts, completions scheduled when jobs start); decision
//! points only ever see *views* of it (their own bookkeeping plus periodic
//! peer exchanges) — the gap between view and ground truth is exactly what
//! the paper's Accuracy metric measures.

use crate::site::{SiteStarted, SiteState};
use gruber_types::{
    ClientId, GridError, GridResult, GroupId, JobId, JobRecord, JobSpec, JobState, SimDuration,
    SimTime, SiteId, SiteSpec, UserId, VoId,
};

/// A job that began executing; the caller schedules its completion event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Started {
    /// The job.
    pub job: JobId,
    /// The site it runs at.
    pub(crate) site: SiteId,
    /// When it will finish.
    pub finish_at: SimTime,
}

/// [`Slot::flags`] bits: which of the record's optional fields are set,
/// and `handled_by_gruber`. A flag, not a sentinel value, says "unset",
/// so every site id and every time (`SimTime(0)`, `SimTime(u64::MAX)`)
/// stays a real value.
const SITE: u8 = 1;
const DISPATCHED: u8 = 1 << 1;
const STARTED: u8 = 1 << 2;
const COMPLETED: u8 = 1 << 3;
const HANDLED: u8 = 1 << 4;

/// One job's [`JobRecord`] as the ledger stores it: the spec's fields
/// without its id (the slot's index is the id), the optional fields
/// without their `Option` wrappers, and one flags byte — 72 bytes where
/// the record is 112. Unset fields hold whatever they last held; only
/// the flags are read.
#[derive(Debug, Clone)]
struct Slot {
    vo: VoId,
    group: GroupId,
    user: UserId,
    client: ClientId,
    cpus: u32,
    runtime: SimDuration,
    submitted_at: SimTime,
    site: SiteId,
    dispatched_at: SimTime,
    started_at: SimTime,
    completed_at: SimTime,
    state: JobState,
    flags: u8,
}

impl Slot {
    fn pack(r: &JobRecord) -> Self {
        let s = &r.spec;
        let flag = |bit, set: bool| if set { bit } else { 0 };
        Slot {
            vo: s.vo,
            group: s.group,
            user: s.user,
            client: s.client,
            cpus: s.cpus,
            runtime: s.runtime,
            submitted_at: s.submitted_at,
            site: r.site.unwrap_or_default(),
            dispatched_at: r.dispatched_at.unwrap_or_default(),
            started_at: r.started_at.unwrap_or_default(),
            completed_at: r.completed_at.unwrap_or_default(),
            state: r.state,
            flags: flag(SITE, r.site.is_some())
                | flag(DISPATCHED, r.dispatched_at.is_some())
                | flag(STARTED, r.started_at.is_some())
                | flag(COMPLETED, r.completed_at.is_some())
                | flag(HANDLED, r.handled_by_gruber),
        }
    }

    /// The record of job `id`, which this slot holds.
    fn unpack(&self, id: JobId) -> JobRecord {
        JobRecord {
            spec: self.spec(id),
            state: self.state,
            site: self.get(SITE, self.site),
            dispatched_at: self.get(DISPATCHED, self.dispatched_at),
            started_at: self.get(STARTED, self.started_at),
            completed_at: self.get(COMPLETED, self.completed_at),
            handled_by_gruber: self.flags & HANDLED != 0,
        }
    }

    fn spec(&self, id: JobId) -> JobSpec {
        JobSpec {
            id,
            vo: self.vo,
            group: self.group,
            user: self.user,
            client: self.client,
            cpus: self.cpus,
            storage_mb: 0,
            runtime: self.runtime,
            submitted_at: self.submitted_at,
        }
    }

    fn get<T>(&self, bit: u8, value: T) -> Option<T> {
        (self.flags & bit != 0).then_some(value)
    }

    fn set(&mut self, bits: u8, on: bool) {
        if on {
            self.flags |= bits;
        } else {
            self.flags &= !bits;
        }
    }
}

/// Dense job ledger: packed records live in a `Vec` slot indexed by job
/// id. Job ids are sequential (the workload factory hands them out in
/// order), so this is an exact-fit slab with no hashing on the
/// per-dispatch hot path, at 72 bytes per job, which is what keeps
/// million-job runs resident. Iteration is id-ordered (deterministic).
#[derive(Debug, Default)]
struct JobLedger {
    slots: Vec<Option<Slot>>,
    len: usize,
}

impl JobLedger {
    fn contains(&self, job: JobId) -> bool {
        matches!(self.slots.get(job.index()), Some(Some(_)))
    }

    /// Inserts a fresh record; the caller has checked for duplicates.
    fn insert(&mut self, record: &JobRecord) {
        let idx = record.spec.id.index();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        debug_assert!(self.slots[idx].is_none());
        self.slots[idx] = Some(Slot::pack(record));
        self.len += 1;
    }

    fn get(&self, job: JobId) -> Option<&Slot> {
        self.slots.get(job.index()).and_then(|s| s.as_ref())
    }

    fn get_mut(&mut self, job: JobId) -> Option<&mut Slot> {
        self.slots.get_mut(job.index()).and_then(|s| s.as_mut())
    }

    /// Occupied slots with their job ids, in id order.
    fn iter(&self) -> impl Iterator<Item = (JobId, &Slot)> {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(i, s)| Some((JobId::from_index(i), s.as_ref()?)))
    }
}

/// Sites admit every job a decision point sends them: the paper "did not
/// take S-PEPs into consideration". `perf/src/kernels.rs` (frozen) still
/// passes this to [`Grid::new`]; ROADMAP item 4(a) drops it.
#[derive(Debug, Clone, Copy)]
pub struct SitePolicy;

impl SitePolicy {
    /// The one policy: no site-level enforcement.
    pub fn permissive() -> Self {
        SitePolicy
    }
}

/// The emulated grid: sites + job ledger.
#[derive(Debug)]
pub struct Grid {
    sites: Vec<SiteState>,
    /// `sites[i].free_cpus()`, dense: the per-dispatch accuracy scan
    /// reads 4 bytes a site instead of a whole [`SiteState`].
    free: Vec<u32>,
    jobs: JobLedger,
    total_cpus: u64,
}

impl Grid {
    /// Builds a grid of FIFO sites that admit every job.
    pub fn new(specs: Vec<SiteSpec>, _policy: SitePolicy) -> GridResult<Self> {
        if specs.is_empty() {
            return Err(GridError::InvalidConfig("grid with no sites".into()));
        }
        for (i, s) in specs.iter().enumerate() {
            if s.id.index() != i {
                return Err(GridError::InvalidConfig(format!(
                    "site ids must be dense indices; slot {i} holds {}",
                    s.id
                )));
            }
        }
        let total_cpus = gruber_types::total_grid_cpus(&specs);
        let sites: Vec<SiteState> = specs.into_iter().map(SiteState::new).collect();
        Ok(Grid {
            free: sites.iter().map(SiteState::free_cpus).collect(),
            sites,
            jobs: JobLedger::default(),
            total_cpus,
        })
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Total CPUs across the grid.
    pub fn total_cpus(&self) -> u64 {
        self.total_cpus
    }

    /// CPUs idle right now (ground truth).
    pub fn idle_cpus(&self) -> u64 {
        self.free.iter().map(|&f| u64::from(f)).sum()
    }

    /// Ground-truth free CPUs per site (indexed by site id).
    pub fn free_cpus_per_site(&self) -> Vec<u32> {
        self.free.clone()
    }

    /// The largest ground-truth free-CPU count over all sites: the best
    /// single placement right now, without building the per-site list.
    pub fn max_free_cpus(&self) -> u32 {
        self.free.iter().copied().max().unwrap_or(0)
    }

    /// All site states.
    pub fn sites(&self) -> &[SiteState] {
        &self.sites
    }

    /// Registers a newly submitted job (state 1: at the submission host).
    pub fn submit(&mut self, spec: JobSpec) -> GridResult<()> {
        if self.jobs.contains(spec.id) {
            return Err(GridError::InvalidConfig(format!(
                "duplicate job id {}",
                spec.id
            )));
        }
        self.jobs.insert(&JobRecord::new(spec));
        Ok(())
    }

    /// Dispatches a job to a site (state 1 → 2, possibly immediately → 3).
    ///
    /// `handled_by_gruber` tags whether a decision point produced this
    /// placement or a client timeout forced a random choice.
    pub fn dispatch(
        &mut self,
        job: JobId,
        site: SiteId,
        now: SimTime,
        handled_by_gruber: bool,
    ) -> GridResult<Vec<Started>> {
        let slot = self.jobs.get(job).ok_or(GridError::UnknownJob(job))?;
        if slot.state != JobState::AtSubmissionHost {
            return Err(GridError::InvalidTransition {
                job,
                detail: format!("dispatch from {:?}", slot.state),
            });
        }
        let spec = slot.spec(job);
        let site_state = self
            .sites
            .get_mut(site.index())
            .ok_or(GridError::UnknownSite(site))?;
        let started = site_state.enqueue(&spec, now)?;

        let slot = self.jobs.get_mut(job).expect("checked");
        slot.state = JobState::QueuedAtSite;
        slot.site = site;
        slot.dispatched_at = now;
        slot.set(SITE | DISPATCHED, true);
        slot.set(HANDLED, handled_by_gruber);

        Ok(self.apply_started(site, started, now))
    }

    /// Marks a running job finished (state 3 → 4) and returns newly started
    /// queued jobs.
    pub fn complete(&mut self, job: JobId, now: SimTime) -> GridResult<Vec<Started>> {
        let slot = self.jobs.get(job).ok_or(GridError::UnknownJob(job))?;
        if slot.state != JobState::Running {
            return Err(GridError::InvalidTransition {
                job,
                detail: format!("complete from {:?}", slot.state),
            });
        }
        let site = slot.get(SITE, slot.site).expect("running job has a site");
        let started = self.sites[site.index()].complete(job, now)?;
        let slot = self.jobs.get_mut(job).expect("checked");
        slot.state = JobState::Completed;
        slot.completed_at = now;
        slot.set(COMPLETED, true);
        Ok(self.apply_started(site, started, now))
    }

    /// Ends every change to `site` — a dispatch or a completion:
    /// refreshes its free-CPU column entry and marks the jobs it
    /// started running.
    fn apply_started(&mut self, site: SiteId, started: Vec<SiteStarted>, now: SimTime) -> Vec<Started> {
        self.free[site.index()] = self.sites[site.index()].free_cpus();
        started
            .into_iter()
            .map(|s| {
                let slot = self.jobs.get_mut(s.job).expect("site knows this job");
                debug_assert_eq!(slot.state, JobState::QueuedAtSite);
                slot.state = JobState::Running;
                slot.started_at = now;
                slot.set(STARTED, true);
                Started {
                    job: s.job,
                    site,
                    finish_at: s.finish_at,
                }
            })
            .collect()
    }

    /// One job's record.
    pub fn record(&self, job: JobId) -> GridResult<JobRecord> {
        let slot = self.jobs.get(job).ok_or(GridError::UnknownJob(job))?;
        Ok(slot.unpack(job))
    }

    /// One job's spec, without the rest of its record.
    pub fn job_spec(&self, job: JobId) -> GridResult<JobSpec> {
        let slot = self.jobs.get(job).ok_or(GridError::UnknownJob(job))?;
        Ok(slot.spec(job))
    }

    /// The submission host of one job, without the rest of its record.
    pub fn job_client(&self, job: JobId) -> GridResult<ClientId> {
        let slot = self.jobs.get(job).ok_or(GridError::UnknownJob(job))?;
        Ok(slot.client)
    }

    /// All records, in job-id order.
    pub fn records(&self) -> impl Iterator<Item = JobRecord> + '_ {
        self.jobs.iter().map(|(id, slot)| slot.unpack(id))
    }

    /// Number of registered jobs.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len
    }

    /// Checks cross-site invariants (CPU conservation everywhere).
    pub fn check_invariants(&self) {
        for s in &self.sites {
            s.check_invariants();
        }
        let busy: u64 = self.sites.iter().map(|s| u64::from(s.busy_cpus())).sum();
        let running: u64 = self
            .jobs
            .iter()
            .filter(|(_, s)| s.state == JobState::Running)
            .map(|(_, s)| u64::from(s.cpus))
            .sum();
        assert_eq!(busy, running, "busy CPUs diverge from running jobs");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{ClientId, GroupId, SimDuration, UserId, VoId};

    fn grid(cpus_per_site: &[u32]) -> Grid {
        let specs = cpus_per_site
            .iter()
            .enumerate()
            .map(|(i, &c)| SiteSpec::single_cluster(SiteId::from_index(i), c))
            .collect();
        Grid::new(specs, SitePolicy::permissive()).unwrap()
    }

    fn job(id: u32, cpus: u32, runtime_s: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            vo: VoId(id % 2),
            group: GroupId(0),
            user: UserId(0),
            client: ClientId(0),
            cpus,
            storage_mb: 0,
            runtime: SimDuration::from_secs(runtime_s),
            submitted_at: SimTime::ZERO,
        }
    }

    #[test]
    fn full_lifecycle() {
        let mut g = grid(&[4]);
        g.submit(job(1, 2, 100)).unwrap();
        assert_eq!(g.record(JobId(1)).unwrap().state, JobState::AtSubmissionHost);

        let started = g
            .dispatch(JobId(1), SiteId(0), SimTime::from_secs(5), true)
            .unwrap();
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].finish_at, SimTime::from_secs(105));
        let r = g.record(JobId(1)).unwrap();
        assert_eq!(r.state, JobState::Running);
        assert_eq!(r.dispatched_at, Some(SimTime::from_secs(5)));
        assert_eq!(r.started_at, Some(SimTime::from_secs(5)));
        assert!(r.handled_by_gruber);

        g.complete(JobId(1), SimTime::from_secs(105)).unwrap();
        let r = g.record(JobId(1)).unwrap();
        assert_eq!(r.state, JobState::Completed);
        assert_eq!(r.queue_time(), Some(SimDuration::ZERO));
        assert_eq!(r.consumed_cpu_time(), Some(SimDuration::from_secs(200)));
        g.check_invariants();
    }

    #[test]
    fn queueing_records_qtime() {
        let mut g = grid(&[1]);
        g.submit(job(1, 1, 100)).unwrap();
        g.submit(job(2, 1, 50)).unwrap();
        g.dispatch(JobId(1), SiteId(0), SimTime::ZERO, true).unwrap();
        let started = g
            .dispatch(JobId(2), SiteId(0), SimTime::from_secs(10), true)
            .unwrap();
        assert!(started.is_empty());

        let started = g.complete(JobId(1), SimTime::from_secs(100)).unwrap();
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, JobId(2));
        g.complete(JobId(2), SimTime::from_secs(150)).unwrap();
        assert_eq!(
            g.record(JobId(2)).unwrap().queue_time(),
            Some(SimDuration::from_secs(90))
        );
    }

    #[test]
    fn illegal_transitions_error() {
        let mut g = grid(&[2]);
        g.submit(job(1, 1, 10)).unwrap();
        assert!(g.complete(JobId(1), SimTime::ZERO).is_err());
        g.dispatch(JobId(1), SiteId(0), SimTime::ZERO, true).unwrap();
        assert!(g
            .dispatch(JobId(1), SiteId(0), SimTime::ZERO, true)
            .is_err());
        assert!(g.dispatch(JobId(9), SiteId(0), SimTime::ZERO, true).is_err());
        assert!(g.submit(job(1, 1, 10)).is_err());
    }

    #[test]
    fn vo_usage_aggregation() {
        let mut g = grid(&[4, 4]);
        for id in 1..=4 {
            g.submit(job(id, 1, 100)).unwrap();
            g.dispatch(JobId(id), SiteId(id % 2), SimTime::ZERO, true)
                .unwrap();
        }
        assert_eq!(g.idle_cpus(), 4);
    }

    #[test]
    fn free_cpus_ground_truth() {
        let mut g = grid(&[2, 3]);
        g.submit(job(1, 2, 10)).unwrap();
        g.dispatch(JobId(1), SiteId(0), SimTime::ZERO, true).unwrap();
        assert_eq!(g.free_cpus_per_site(), vec![0, 3]);
        assert_eq!(g.max_free_cpus(), 3);
        assert_eq!(g.total_cpus(), 5);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Grid::new(vec![], SitePolicy::permissive()).is_err());
        let bad = vec![SiteSpec::single_cluster(SiteId(5), 4)];
        assert!(Grid::new(bad, SitePolicy::permissive()).is_err());
    }
    #[test]
    fn ledger_slot_is_packed() {
        // 524 288 of these at the peak of a half-million client run.
        assert!(std::mem::size_of::<Option<Slot>>() <= 72);
    }

    mod proptests {
        use super::*;
        use proptest::option;
        use proptest::prelude::*;
        use std::ops::{Range, RangeInclusive};

        /// A `u32` that is 0, `u32::MAX` or anything, a third each.
        fn word() -> (Range<u8>, RangeInclusive<u32>) {
            (0..3, 0..=u32::MAX)
        }

        fn w((edge, any): (u8, u32)) -> u32 {
            [0, u32::MAX, any][usize::from(edge)]
        }

        /// A time that is 0, `u64::MAX` or anything, a third each.
        fn time() -> (Range<u8>, RangeInclusive<u64>) {
            (0..3, 0..=u64::MAX)
        }

        fn t((edge, any): (u8, u64)) -> SimTime {
            SimTime([0, u64::MAX, any][usize::from(edge)])
        }

        proptest! {
            /// Packing a record into a ledger slot and unpacking it under
            /// its id gives the record back: every state, every optional
            /// field set or not, times and ids at both ends of their range.
            #[test]
            fn slot_roundtrips_any_record(
                ids in (word(), word(), word(), word(), word(), word()),
                (runtime, submitted_at) in (time(), time()),
                state in 0usize..4,
                site in option::of(word()),
                (dispatched_at, started_at, completed_at)
                    in (option::of(time()), option::of(time()), option::of(time())),
                handled_by_gruber in proptest::bool::ANY,
            ) {
                let (id, vo, group, user, client, cpus) = ids;
                let r = JobRecord {
                    spec: JobSpec {
                        id: JobId(w(id)),
                        vo: VoId(w(vo)),
                        group: GroupId(w(group)),
                        user: UserId(w(user)),
                        client: ClientId(w(client)),
                        cpus: w(cpus),
                        storage_mb: 0,
                        runtime: SimDuration(t(runtime).0),
                        submitted_at: t(submitted_at),
                    },
                    state: [
                        JobState::AtSubmissionHost,
                        JobState::QueuedAtSite,
                        JobState::Running,
                        JobState::Completed,
                    ][state],
                    site: site.map(|s| SiteId(w(s))),
                    dispatched_at: dispatched_at.map(t),
                    started_at: started_at.map(t),
                    completed_at: completed_at.map(t),
                    handled_by_gruber,
                };
                prop_assert_eq!(Slot::pack(&r).unpack(r.spec.id), r);
            }

            /// The dense free-CPU column is each site's own count after
            /// any dispatch/complete script, refused transitions and an
            /// unknown site included, and the three readers agree with it.
            #[test]
            fn free_column_tracks_the_sites(
                ops in proptest::collection::vec((0u8..2, 0u32..12, 0u32..4), 1..80),
            ) {
                let mut g = grid(&[4, 2, 7]);
                for id in 0..12 {
                    g.submit(job(id, 1 + id % 3, 100)).unwrap();
                }
                for (step, &(kind, id, site)) in (0u64..).zip(&ops) {
                    let (job, now) = (JobId(id), SimTime::from_secs(step));
                    // A refused transition is part of the script too.
                    let _ = match kind {
                        0 => g.dispatch(job, SiteId(site), now, true),
                        _ => g.complete(job, now),
                    };
                    let truth: Vec<u32> = g.sites().iter().map(SiteState::free_cpus).collect();
                    prop_assert_eq!(&g.free, &truth);
                    prop_assert_eq!(g.max_free_cpus(), truth.iter().copied().max().unwrap());
                    prop_assert_eq!(g.idle_cpus(), truth.iter().map(|&f| u64::from(f)).sum::<u64>());
                    prop_assert_eq!(g.free_cpus_per_site(), truth);
                }
                g.check_invariants();
            }
        }
    }
}
