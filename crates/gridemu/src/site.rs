//! One site's runtime state: a space-shared batch scheduler.
//!
//! Jobs dispatched to a site queue up and start in strict FIFO order
//! whenever CPUs free; no job overtakes the queue head. That is the
//! per-site FIFO scheduler `PAPER.md` maps the paper's Grid3 sites onto,
//! and the one space-shared queue GridSim puts under a broker.

use gruber_types::{GridError, GridResult, JobId, JobSpec, SimTime, SiteSpec};
use std::collections::VecDeque;

/// A job occupying CPUs at the site.
#[derive(Debug, Clone)]
struct RunningJob {
    job: JobId,
    cpus: u32,
    storage_mb: u32,
}

/// A queued dispatch.
#[derive(Debug, Clone)]
struct QueuedJob {
    job: JobId,
    cpus: u32,
    storage_mb: u32,
    runtime_ms: u64,
}

/// A job the site just started; the caller schedules its completion event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SiteStarted {
    /// The job.
    pub(crate) job: JobId,
    /// When it will finish.
    pub(crate) finish_at: SimTime,
}

/// Runtime state of one site.
#[derive(Debug)]
pub struct SiteState {
    spec: SiteSpec,
    free_cpus: u32,
    /// Storage not currently reserved, in MB. Storage is reserved from
    /// dispatch (the prescript stages inputs before the job runs) until
    /// completion.
    free_storage_mb: u64,
    running: Vec<RunningJob>,
    queue: VecDeque<QueuedJob>,
}

impl SiteState {
    /// Builds an idle FIFO site.
    pub fn new(spec: SiteSpec) -> Self {
        let free = spec.total_cpus();
        let free_storage = spec.total_storage_mb();
        SiteState {
            spec,
            free_cpus: free,
            free_storage_mb: free_storage,
            running: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// CPUs currently idle.
    pub fn free_cpus(&self) -> u32 {
        self.free_cpus
    }

    /// CPUs currently busy.
    pub(crate) fn busy_cpus(&self) -> u32 {
        self.spec.total_cpus() - self.free_cpus
    }

    /// Accepts a dispatch, queues it, and starts whatever
    /// now fits. Returns the jobs that started immediately.
    pub(crate) fn enqueue(&mut self, job: &JobSpec, now: SimTime) -> GridResult<Vec<SiteStarted>> {
        if job.cpus == 0 || job.cpus > self.spec.total_cpus() {
            return Err(GridError::Rejected {
                site: self.spec.id,
                reason: format!(
                    "job {} needs {} CPUs, site has {}",
                    job.id,
                    job.cpus,
                    self.spec.total_cpus()
                ),
            });
        }
        if u64::from(job.storage_mb) > self.free_storage_mb {
            return Err(GridError::Rejected {
                site: self.spec.id,
                reason: format!(
                    "job {} needs {} MB storage, site has {} MB free",
                    job.id, job.storage_mb, self.free_storage_mb
                ),
            });
        }
        // Storage is staged at dispatch time (the Euryale prescript moves
        // inputs before the job runs), so it is reserved immediately.
        self.free_storage_mb -= u64::from(job.storage_mb);
        self.queue.push_back(QueuedJob {
            job: job.id,
            cpus: job.cpus,
            storage_mb: job.storage_mb,
            runtime_ms: job.runtime.as_millis(),
        });
        Ok(self.start_ready(now))
    }

    fn launch(&mut self, q: QueuedJob, now: SimTime) -> SiteStarted {
        let finish_at = now + gruber_types::SimDuration::from_millis(q.runtime_ms);
        self.free_cpus -= q.cpus;
        self.running.push(RunningJob {
            job: q.job,
            cpus: q.cpus,
            storage_mb: q.storage_mb,
        });
        SiteStarted {
            job: q.job,
            finish_at,
        }
    }

    /// Starts queued jobs from the head while it fits.
    fn start_ready(&mut self, now: SimTime) -> Vec<SiteStarted> {
        let mut started = Vec::new();
        while let Some(head) = self.queue.front() {
            if head.cpus > self.free_cpus {
                break;
            }
            let head = self.queue.pop_front().expect("peeked");
            started.push(self.launch(head, now));
        }
        started
    }

    /// Completes a running job, freeing its CPUs and starting queued work.
    pub(crate) fn complete(&mut self, job: JobId, now: SimTime) -> GridResult<Vec<SiteStarted>> {
        let idx = self
            .running
            .iter()
            .position(|r| r.job == job)
            .ok_or(GridError::UnknownJob(job))?;
        let done = self.running.swap_remove(idx);
        self.free_cpus += done.cpus;
        self.free_storage_mb += u64::from(done.storage_mb);
        Ok(self.start_ready(now))
    }

    /// Kills a job (running or queued) — used for failure injection.
    /// Returns jobs that started as a result of freed CPUs.
    pub(crate) fn kill(&mut self, job: JobId, now: SimTime) -> GridResult<Vec<SiteStarted>> {
        if self.running.iter().any(|r| r.job == job) {
            return self.complete(job, now);
        }
        let idx = self
            .queue
            .iter()
            .position(|q| q.job == job)
            .ok_or(GridError::UnknownJob(job))?;
        let q = self.queue.remove(idx).expect("indexed");
        self.free_storage_mb += u64::from(q.storage_mb);
        Ok(self.start_ready(now))
    }

    /// Internal consistency check, used by property tests.
    pub(crate) fn check_invariants(&self) {
        let running_cpus: u32 = self.running.iter().map(|r| r.cpus).sum();
        assert_eq!(
            running_cpus + self.free_cpus,
            self.spec.total_cpus(),
            "CPU conservation violated"
        );
        let reserved_storage: u64 = self
            .running
            .iter()
            .map(|r| u64::from(r.storage_mb))
            .chain(self.queue.iter().map(|q| u64::from(q.storage_mb)))
            .sum();
        assert_eq!(
            reserved_storage + self.free_storage_mb,
            self.spec.total_storage_mb(),
            "storage conservation violated"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{ClientId, GroupId, SimDuration, SiteId, UserId, VoId};
    use proptest::prelude::*;

    fn site(cpus: u32) -> SiteState {
        SiteState::new(SiteSpec::single_cluster(SiteId(0), cpus))
    }

    fn job(id: u32, cpus: u32, runtime_s: u64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            vo: VoId(id % 3),
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
    fn job_starts_immediately_when_cpus_free() {
        let mut s = site(4);
        let started = s.enqueue(&job(1, 2, 100), SimTime::from_secs(10)).unwrap();
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, JobId(1));
        assert_eq!(started[0].finish_at, SimTime::from_secs(110));
        assert_eq!(s.free_cpus(), 2);
        assert_eq!(s.busy_cpus(), 2);
    }

    #[test]
    fn jobs_queue_when_full_and_start_on_completion() {
        let mut s = site(2);
        s.enqueue(&job(1, 2, 100), SimTime::ZERO).unwrap();
        let started = s.enqueue(&job(2, 1, 50), SimTime::from_secs(1)).unwrap();
        assert!(started.is_empty());
        assert_eq!(s.queue.len(), 1);

        let started = s.complete(JobId(1), SimTime::from_secs(100)).unwrap();
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, JobId(2));
        assert_eq!(started[0].finish_at, SimTime::from_secs(150));
        assert_eq!(s.queue.len(), 0);
        s.check_invariants();
    }

    #[test]
    fn fifo_no_backfill() {
        let mut s = site(4);
        s.enqueue(&job(1, 4, 100), SimTime::ZERO).unwrap();
        s.enqueue(&job(2, 4, 10), SimTime::ZERO).unwrap(); // head, doesn't fit
        s.enqueue(&job(3, 1, 10), SimTime::ZERO).unwrap(); // would fit, but FIFO
        assert_eq!(s.queue.len(), 2);
        let started = s.complete(JobId(1), SimTime::from_secs(100)).unwrap();
        // Head (job 2) starts; job 3 still behind it? Job 2 takes all 4 CPUs.
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job, JobId(2));
        assert_eq!(s.queue.len(), 1);
    }

    #[test]
    fn oversized_job_rejected() {
        let mut s = site(4);
        assert!(matches!(
            s.enqueue(&job(1, 8, 10), SimTime::ZERO),
            Err(GridError::Rejected { .. })
        ));
        assert!(s.enqueue(&job(2, 0, 10), SimTime::ZERO).is_err());
    }

    #[test]
    fn kill_running_and_queued() {
        let mut s = site(2);
        s.enqueue(&job(1, 2, 100), SimTime::ZERO).unwrap();
        s.enqueue(&job(2, 2, 100), SimTime::ZERO).unwrap();
        // Kill the queued job: nothing can start (site still full).
        let started = s.kill(JobId(2), SimTime::from_secs(1)).unwrap();
        assert!(started.is_empty());
        assert_eq!(s.queue.len(), 0);
        // Kill the running job.
        let started = s.kill(JobId(1), SimTime::from_secs(2)).unwrap();
        assert!(started.is_empty());
        assert_eq!(s.free_cpus(), 2);
        assert!(s.kill(JobId(99), SimTime::ZERO).is_err());
        s.check_invariants();
    }

    #[test]
    fn unknown_completion_errors() {
        let mut s = site(2);
        assert!(matches!(
            s.complete(JobId(9), SimTime::ZERO),
            Err(GridError::UnknownJob(_))
        ));
    }

    #[test]
    fn storage_is_reserved_and_released() {
        // 4 CPUs -> 40 GB = 40960 MB storage.
        let mut s = site(4);
        assert_eq!(s.free_storage_mb, 40 * 1024);
        let mut j = job(1, 1, 100);
        j.storage_mb = 10_000;
        s.enqueue(&j, SimTime::ZERO).unwrap();
        assert_eq!(s.free_storage_mb, 40 * 1024 - 10_000);
        s.check_invariants();
        s.complete(JobId(1), SimTime::from_secs(100)).unwrap();
        assert_eq!(s.free_storage_mb, 40 * 1024);
    }

    #[test]
    fn storage_exhaustion_rejects_dispatch() {
        let mut s = site(4);
        let mut j = job(1, 1, 100);
        j.storage_mb = 39_000;
        s.enqueue(&j, SimTime::ZERO).unwrap();
        let mut j2 = job(2, 1, 100);
        j2.storage_mb = 5_000;
        assert!(matches!(
            s.enqueue(&j2, SimTime::ZERO),
            Err(GridError::Rejected { .. })
        ));
        // Killing the hog releases its reservation.
        s.kill(JobId(1), SimTime::from_secs(1)).unwrap();
        assert!(s.enqueue(&j2, SimTime::from_secs(2)).is_ok());
        s.check_invariants();
    }

    #[test]
    fn queued_jobs_hold_storage_reservations() {
        let mut s = site(1);
        let mut j1 = job(1, 1, 100);
        j1.storage_mb = 4_000;
        let mut j2 = job(2, 1, 100);
        j2.storage_mb = 4_000;
        s.enqueue(&j1, SimTime::ZERO).unwrap(); // running
        s.enqueue(&j2, SimTime::ZERO).unwrap(); // queued, storage staged
        assert_eq!(s.free_storage_mb, 10 * 1024 - 8_000);
        s.check_invariants();
    }

    #[test]
    fn fifo_never_backfills_in_same_scenario() {
        let mut s = site(4);
        s.enqueue(&job(10, 3, 100), SimTime::ZERO).unwrap();
        s.enqueue(&job(11, 4, 50), SimTime::ZERO).unwrap();
        let started = s.enqueue(&job(12, 1, 50), SimTime::from_secs(10)).unwrap();
        assert!(started.is_empty(), "FIFO must not backfill");
    }

    proptest! {
        #[test]
        fn invariants_hold_under_random_ops(
            ops in proptest::collection::vec((0u8..2, 1u32..5, 1u64..100), 1..60),
        ) {
            let mut s = site(8);
            let mut next_id = 0u32;
            let mut live: Vec<JobId> = Vec::new();
            let mut now = SimTime::ZERO;
            for (op, cpus, rt) in ops {
                now += SimDuration::from_secs(1);
                match op {
                    0 => {
                        next_id += 1;
                        let j = job(next_id, cpus.min(8), rt);
                        if s.enqueue(&j, now).is_ok() {
                            live.push(j.id);
                        }
                    }
                    _ => {
                        if let Some(id) = live.pop() {
                            // May be running or queued; kill handles both.
                            let _ = s.kill(id, now);
                        }
                    }
                }
                s.check_invariants();
            }
        }
    }
}
