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
}

/// A queued dispatch.
#[derive(Debug, Clone)]
struct QueuedJob {
    job: JobId,
    cpus: u32,
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
    running: Vec<RunningJob>,
    queue: VecDeque<QueuedJob>,
}

impl SiteState {
    /// Builds an idle FIFO site.
    pub fn new(spec: SiteSpec) -> Self {
        let free = spec.total_cpus();
        SiteState {
            spec,
            free_cpus: free,
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
        self.queue.push_back(QueuedJob {
            job: job.id,
            cpus: job.cpus,
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
    fn unknown_completion_errors() {
        let mut s = site(2);
        assert!(matches!(
            s.complete(JobId(9), SimTime::ZERO),
            Err(GridError::UnknownJob(_))
        ));
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
            let mut now = SimTime::ZERO;
            for (op, cpus, rt) in ops {
                now += SimDuration::from_secs(1);
                match op {
                    0 => {
                        next_id += 1;
                        s.enqueue(&job(next_id, cpus.min(8), rt), now).unwrap();
                    }
                    _ => {
                        // Complete a running job, releasing its CPUs.
                        if let Some(id) = s.running.first().map(|r| r.job) {
                            s.complete(id, now).unwrap();
                        }
                    }
                }
                s.check_invariants();
            }
        }
    }
}
