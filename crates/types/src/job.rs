//! Jobs and their lifecycle.
//!
//! The paper models workload executions with jobs passing through four
//! states: (1) submitted by a user to a submission host, (2) submitted by a
//! submission host to a site but queued or held, (3) running at a site, and
//! (4) completed. [`JobState`] captures exactly that progression.
//! [`DispatchRecord`] is what the brokers tell each other about a job once
//! it has been dispatched, and the one place its wire layout is written.

use crate::id::{ClientId, GroupId, JobId, SiteId, UserId, VoId};
use crate::time::{SimDuration, SimTime};

/// Immutable description of a job as produced by the workload generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique id.
    pub id: JobId,
    /// Owning virtual organization.
    pub vo: VoId,
    /// Owning group within the VO.
    pub group: GroupId,
    /// Submitting user.
    pub user: UserId,
    /// Submission host the user handed the job to.
    pub client: ClientId,
    /// CPUs required (the paper's workloads are single-CPU jobs).
    pub cpus: u32,
    /// Read by nothing; `perf/src/kernels.rs` (frozen) still writes it; ROADMAP item 4(a) drops it.
    pub storage_mb: u32,
    /// Wall-clock execution time once the job starts running.
    pub runtime: SimDuration,
    /// Instant the user submitted the job to the submission host.
    pub submitted_at: SimTime,
}

/// The paper's four-state job lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// (1) Submitted by a user to a submission host; awaiting site selection.
    AtSubmissionHost,
    /// (2) Dispatched by the submission host to a site, but queued or held.
    QueuedAtSite,
    /// (3) Running at a site.
    Running,
    /// (4) Completed successfully.
    Completed,
}

/// Mutable bookkeeping for a job as it progresses through the grid.
///
/// The timestamps feed the paper's metrics: `dispatched_at → started_at` is
/// the per-job queue time (QTime), `started_at → completed_at` the execution
/// time used for utilization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// The job's immutable spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Site the job was dispatched to, once selected.
    pub site: Option<SiteId>,
    /// Instant the submission host dispatched the job to a site.
    pub dispatched_at: Option<SimTime>,
    /// Instant the site scheduler started the job.
    pub started_at: Option<SimTime>,
    /// Instant the job completed.
    pub completed_at: Option<SimTime>,
    /// Whether the site-selection decision was served by a decision point
    /// (`true`) or made randomly after a client timeout (`false`).
    pub handled_by_gruber: bool,
}

impl JobRecord {
    /// Fresh record for a newly submitted job.
    pub fn new(spec: JobSpec) -> Self {
        JobRecord {
            spec,
            state: JobState::AtSubmissionHost,
            site: None,
            dispatched_at: None,
            started_at: None,
            completed_at: None,
            handled_by_gruber: false,
        }
    }

    /// Per-job queue time: dispatch to a site until execution start.
    ///
    /// `None` until the job has started.
    pub fn queue_time(&self) -> Option<SimDuration> {
        Some(self.started_at?.since(self.dispatched_at?))
    }

    /// CPU time actually consumed (for utilization); `None` until completed.
    pub fn consumed_cpu_time(&self) -> Option<SimDuration> {
        let run = self.completed_at?.since(self.started_at?);
        Some(run * u64::from(self.spec.cpus))
    }
}

/// One observed dispatch: the unit of inter-decision-point exchange — "the
/// periodic exchange with other decision points of information about
/// recent job dispatch operations" (§3.5). The same record is what a client
/// informs its point of, what points flood to each other, and what the WAL
/// and snapshots store. Peers expire records independently at
/// `est_finish`, so no completion messages are needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchRecord {
    /// The dispatched job (used for de-duplication across floods).
    pub job: JobId,
    /// Destination site.
    pub site: SiteId,
    /// Job's VO.
    pub vo: VoId,
    /// Job's group.
    pub group: GroupId,
    /// CPUs occupied.
    pub cpus: u32,
    /// Dispatch time.
    pub dispatched_at: SimTime,
    /// Estimated completion time (dispatch + declared runtime).
    pub est_finish: SimTime,
}

impl DispatchRecord {
    /// Encoded size: `job, site, vo, group, cpus` as `u32`, then
    /// `dispatched_at, est_finish` as `u64` milliseconds, little-endian
    /// (DEPLOYMENT.md, *Frames*). Every socket payload, WAL frame and
    /// snapshot block that carries a record carries these bytes.
    pub const WIRE_LEN: usize = 36;

    /// The record's wire bytes.
    pub fn to_wire(&self) -> [u8; Self::WIRE_LEN] {
        let mut wire = [0u8; Self::WIRE_LEN];
        wire[0..4].copy_from_slice(&self.job.0.to_le_bytes());
        wire[4..8].copy_from_slice(&self.site.0.to_le_bytes());
        wire[8..12].copy_from_slice(&self.vo.0.to_le_bytes());
        wire[12..16].copy_from_slice(&self.group.0.to_le_bytes());
        wire[16..20].copy_from_slice(&self.cpus.to_le_bytes());
        wire[20..28].copy_from_slice(&self.dispatched_at.0.to_le_bytes());
        wire[28..36].copy_from_slice(&self.est_finish.0.to_le_bytes());
        wire
    }

    /// Reads a record back from its wire bytes. Any 36 bytes are a
    /// record: whether its ids name anything is the view's to judge.
    pub fn from_wire(wire: &[u8; Self::WIRE_LEN]) -> Self {
        let word =
            |at: usize| u32::from_le_bytes([wire[at], wire[at + 1], wire[at + 2], wire[at + 3]]);
        let long = |at: usize| u64::from(word(at)) | u64::from(word(at + 4)) << 32;
        DispatchRecord {
            job: JobId(word(0)),
            site: SiteId(word(4)),
            vo: VoId(word(8)),
            group: GroupId(word(12)),
            cpus: word(16),
            dispatched_at: SimTime(long(20)),
            est_finish: SimTime(long(28)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            id: JobId(1),
            vo: VoId(0),
            group: GroupId(0),
            user: UserId(0),
            client: ClientId(0),
            cpus: 2,
            storage_mb: 0,
            runtime: SimDuration::from_secs(100),
            submitted_at: SimTime::from_secs(5),
        }
    }

    #[test]
    fn record_timings() {
        let mut r = JobRecord::new(spec());
        assert_eq!(r.queue_time(), None);
        r.dispatched_at = Some(SimTime::from_secs(10));
        r.started_at = Some(SimTime::from_secs(25));
        r.completed_at = Some(SimTime::from_secs(125));
        assert_eq!(r.queue_time(), Some(SimDuration::from_secs(15)));
        // 100 s of wall time on 2 CPUs.
        assert_eq!(r.consumed_cpu_time(), Some(SimDuration::from_secs(200)));
    }

    /// The layout every socket payload, WAL frame and snapshot block
    /// shares, against bytes written out by hand.
    #[test]
    fn dispatch_record_wire_layout_is_pinned() {
        let rec = DispatchRecord {
            job: JobId(0x0403_0201),
            site: SiteId(7),
            vo: VoId(2),
            group: GroupId(u32::MAX),
            cpus: 3,
            dispatched_at: SimTime(0x0807_0605_0403_0201),
            est_finish: SimTime::from_secs(917),
        };
        let wire: [u8; 36] = [
            1, 2, 3, 4, // job
            7, 0, 0, 0, // site
            2, 0, 0, 0, // vo
            0xFF, 0xFF, 0xFF, 0xFF, // group
            3, 0, 0, 0, // cpus
            1, 2, 3, 4, 5, 6, 7, 8, // dispatched_at, ms
            0x08, 0xFE, 0x0D, 0, 0, 0, 0, 0, // est_finish = 917 000 ms
        ];
        assert_eq!(DispatchRecord::WIRE_LEN, wire.len());
        assert_eq!(rec.to_wire(), wire);
        assert_eq!(DispatchRecord::from_wire(&wire), rec);
    }
}
