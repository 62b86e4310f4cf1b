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
use crate::spep::SitePolicy;
use gruber_types::{
    GridError, GridResult, JobId, JobRecord, JobSpec, JobState, SimTime, SiteId, SiteSpec,
};

/// A job that began executing; the caller schedules its completion event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Started {
    /// The job.
    pub job: JobId,
    /// The site it runs at.
    pub site: SiteId,
    /// When it will finish.
    pub finish_at: SimTime,
}

/// Dense job ledger: records live in a `Vec` slot indexed by job id.
/// Job ids are sequential (the workload factory hands them out in order),
/// so this is an exact-fit slab — no hashing on the per-dispatch hot path
/// and ~half the bytes per job of a `HashMap` entry, which is what keeps
/// million-job runs resident. Iteration is id-ordered (deterministic),
/// where the old map's order was unspecified.
#[derive(Debug, Default)]
struct JobLedger {
    slots: Vec<Option<JobRecord>>,
    len: usize,
}

impl JobLedger {
    fn contains(&self, job: JobId) -> bool {
        matches!(self.slots.get(job.index()), Some(Some(_)))
    }

    /// Inserts a fresh record; the caller has checked for duplicates.
    fn insert(&mut self, job: JobId, record: JobRecord) {
        let idx = job.index();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        debug_assert!(self.slots[idx].is_none());
        self.slots[idx] = Some(record);
        self.len += 1;
    }

    fn get(&self, job: JobId) -> Option<&JobRecord> {
        self.slots.get(job.index()).and_then(|s| s.as_ref())
    }

    fn get_mut(&mut self, job: JobId) -> Option<&mut JobRecord> {
        self.slots.get_mut(job.index()).and_then(|s| s.as_mut())
    }

    fn values(&self) -> impl Iterator<Item = &JobRecord> {
        self.slots.iter().flatten()
    }
}

/// The emulated grid: sites + job ledger.
#[derive(Debug)]
pub struct Grid {
    sites: Vec<SiteState>,
    jobs: JobLedger,
    total_cpus: u64,
}

impl Grid {
    /// Builds a grid with one shared site policy and FIFO local scheduling.
    pub fn new(specs: Vec<SiteSpec>, policy: SitePolicy) -> GridResult<Self> {
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
        let total_cpus = gruber_types::site::total_grid_cpus(&specs);
        Ok(Grid {
            sites: specs
                .into_iter()
                .map(|s| SiteState::new(s, policy.clone()))
                .collect(),
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
        self.sites.iter().map(|s| u64::from(s.free_cpus())).sum()
    }

    /// Ground-truth free CPUs per site (indexed by site id).
    pub fn free_cpus_per_site(&self) -> Vec<u32> {
        self.sites.iter().map(|s| s.free_cpus()).collect()
    }

    /// The largest ground-truth free-CPU count over all sites: the best
    /// single placement right now, without building the per-site list.
    pub fn max_free_cpus(&self) -> u32 {
        self.sites.iter().map(|s| s.free_cpus()).max().unwrap_or(0)
    }

    /// Access to one site's state.
    pub fn site(&self, id: SiteId) -> GridResult<&SiteState> {
        self.sites.get(id.index()).ok_or(GridError::UnknownSite(id))
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
        let id = spec.id;
        self.jobs.insert(id, JobRecord::new(spec));
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
        let record = self.jobs.get(job).ok_or(GridError::UnknownJob(job))?;
        if record.state != JobState::AtSubmissionHost {
            return Err(GridError::InvalidTransition {
                job,
                detail: format!("dispatch from {:?}", record.state),
            });
        }
        let spec = record.spec.clone();
        let site_state = self
            .sites
            .get_mut(site.index())
            .ok_or(GridError::UnknownSite(site))?;
        let started = site_state.enqueue(&spec, now)?;

        let record = self.jobs.get_mut(job).expect("checked");
        record.state = JobState::QueuedAtSite;
        record.site = Some(site);
        record.dispatched_at = Some(now);
        record.handled_by_gruber = handled_by_gruber;

        Ok(self.apply_started(site, started, now))
    }

    /// Marks a running job finished (state 3 → 4) and returns newly started
    /// queued jobs.
    pub fn complete(&mut self, job: JobId, now: SimTime) -> GridResult<Vec<Started>> {
        let record = self.jobs.get(job).ok_or(GridError::UnknownJob(job))?;
        if record.state != JobState::Running {
            return Err(GridError::InvalidTransition {
                job,
                detail: format!("complete from {:?}", record.state),
            });
        }
        let site = record.site.expect("running job has a site");
        let started = self.sites[site.index()].complete(job, now)?;
        let record = self.jobs.get_mut(job).expect("checked");
        record.state = JobState::Completed;
        record.completed_at = Some(now);
        Ok(self.apply_started(site, started, now))
    }

    /// Fails a dispatched job (queued or running), freeing its resources.
    /// Euryale replans failed jobs via [`Grid::resubmit`].
    pub fn fail(&mut self, job: JobId, now: SimTime) -> GridResult<Vec<Started>> {
        let record = self.jobs.get(job).ok_or(GridError::UnknownJob(job))?;
        if !matches!(record.state, JobState::QueuedAtSite | JobState::Running) {
            return Err(GridError::InvalidTransition {
                job,
                detail: format!("fail from {:?}", record.state),
            });
        }
        let site = record.site.expect("dispatched job has a site");
        let started = self.sites[site.index()].kill(job, now)?;
        let record = self.jobs.get_mut(job).expect("checked");
        record.state = JobState::Failed;
        Ok(self.apply_started(site, started, now))
    }

    /// Returns a failed job to its submission host for replanning
    /// (state Failed → 1), clearing placement bookkeeping.
    pub fn resubmit(&mut self, job: JobId, now: SimTime) -> GridResult<()> {
        let record = self.jobs.get_mut(job).ok_or(GridError::UnknownJob(job))?;
        if record.state != JobState::Failed {
            return Err(GridError::InvalidTransition {
                job,
                detail: format!("resubmit from {:?}", record.state),
            });
        }
        record.state = JobState::AtSubmissionHost;
        record.site = None;
        record.dispatched_at = None;
        record.started_at = None;
        record.spec.submitted_at = now;
        Ok(())
    }

    fn apply_started(&mut self, site: SiteId, started: Vec<SiteStarted>, now: SimTime) -> Vec<Started> {
        started
            .into_iter()
            .map(|s| {
                let record = self.jobs.get_mut(s.job).expect("site knows this job");
                debug_assert_eq!(record.state, JobState::QueuedAtSite);
                record.state = JobState::Running;
                record.started_at = Some(now);
                Started {
                    job: s.job,
                    site,
                    finish_at: s.finish_at,
                }
            })
            .collect()
    }

    /// One job's record.
    pub fn record(&self, job: JobId) -> GridResult<&JobRecord> {
        self.jobs.get(job).ok_or(GridError::UnknownJob(job))
    }

    /// All records, in job-id order.
    pub fn records(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.values()
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
            .values()
            .filter(|r| r.state == JobState::Running)
            .map(|r| u64::from(r.spec.cpus))
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
    fn failure_and_replanning() {
        let mut g = grid(&[1]);
        g.submit(job(1, 1, 100)).unwrap();
        g.dispatch(JobId(1), SiteId(0), SimTime::ZERO, true).unwrap();
        g.fail(JobId(1), SimTime::from_secs(10)).unwrap();
        assert_eq!(g.record(JobId(1)).unwrap().state, JobState::Failed);
        assert_eq!(g.idle_cpus(), 1);

        g.resubmit(JobId(1), SimTime::from_secs(11)).unwrap();
        let r = g.record(JobId(1)).unwrap();
        assert_eq!(r.state, JobState::AtSubmissionHost);
        assert_eq!(r.site, None);
        // And it can be dispatched again.
        g.dispatch(JobId(1), SiteId(0), SimTime::from_secs(12), false)
            .unwrap();
        assert!(!g.record(JobId(1)).unwrap().handled_by_gruber);
        g.check_invariants();
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
}
