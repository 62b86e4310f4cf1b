//! The DagMan stand-in.
//!
//! "A tool called DagMan executes the Euryale prescript and postscript."
//! [`JobDag`] tracks a DAG of jobs; the planner asks it which jobs are
//! *ready* (all parents completed) and reports completions/failures back.

use gruber_types::{GridError, GridResult, JobId};
use std::collections::HashMap;

/// Per-node state in the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    Waiting,
    Ready,
    InFlight,
    Done,
}

/// A DAG of jobs with parent→child dependencies.
#[derive(Debug, Default)]
pub struct JobDag {
    parents: HashMap<JobId, Vec<JobId>>,
    children: HashMap<JobId, Vec<JobId>>,
    state: HashMap<JobId, NodeState>,
}

impl JobDag {
    /// An empty DAG.
    pub fn new() -> Self {
        JobDag::default()
    }

    /// Adds a job with the given parents. Parents must already be in the
    /// DAG; cycles are impossible by construction (edges only point from
    /// existing nodes to new ones).
    pub(crate) fn add_job(&mut self, job: JobId, parents: &[JobId]) -> GridResult<()> {
        if self.state.contains_key(&job) {
            return Err(GridError::InvalidConfig(format!("duplicate DAG node {job}")));
        }
        for p in parents {
            if !self.state.contains_key(p) {
                return Err(GridError::UnknownJob(*p));
            }
        }
        let unfinished: Vec<JobId> = parents
            .iter()
            .copied()
            .filter(|p| self.state[p] != NodeState::Done)
            .collect();
        self.state.insert(
            job,
            if unfinished.is_empty() {
                NodeState::Ready
            } else {
                NodeState::Waiting
            },
        );
        for p in &unfinished {
            self.children.entry(*p).or_default().push(job);
        }
        self.parents.insert(job, unfinished);
        Ok(())
    }

    /// Jobs ready to run (all parents done, not yet claimed).
    pub fn ready(&self) -> Vec<JobId> {
        let mut r: Vec<JobId> = self
            .state
            .iter()
            .filter(|(_, &s)| s == NodeState::Ready)
            .map(|(&j, _)| j)
            .collect();
        r.sort_unstable();
        r
    }

    /// Claims a ready job for execution.
    pub(crate) fn claim(&mut self, job: JobId) -> GridResult<()> {
        match self.state.get_mut(&job) {
            Some(s @ NodeState::Ready) => {
                *s = NodeState::InFlight;
                Ok(())
            }
            Some(_) => Err(GridError::InvalidTransition {
                job,
                detail: "claim of non-ready DAG node".into(),
            }),
            None => Err(GridError::UnknownJob(job)),
        }
    }

    /// Marks an in-flight job completed, releasing children whose parents
    /// are now all done. Returns the newly ready children.
    pub fn complete(&mut self, job: JobId) -> GridResult<Vec<JobId>> {
        match self.state.get_mut(&job) {
            Some(s @ NodeState::InFlight) => *s = NodeState::Done,
            Some(_) => {
                return Err(GridError::InvalidTransition {
                    job,
                    detail: "complete of non-in-flight DAG node".into(),
                })
            }
            None => return Err(GridError::UnknownJob(job)),
        }
        let mut released = Vec::new();
        for child in self.children.remove(&job).unwrap_or_default() {
            let ps = self.parents.get_mut(&child).expect("child has parent list");
            ps.retain(|&p| p != job);
            if ps.is_empty() && self.state[&child] == NodeState::Waiting {
                self.state.insert(child, NodeState::Ready);
                released.push(child);
            }
        }
        released.sort_unstable();
        Ok(released)
    }

    /// Returns an in-flight job to ready (re-planning after failure).
    pub(crate) fn requeue(&mut self, job: JobId) -> GridResult<()> {
        match self.state.get_mut(&job) {
            Some(s @ NodeState::InFlight) => {
                *s = NodeState::Ready;
                Ok(())
            }
            Some(_) => Err(GridError::InvalidTransition {
                job,
                detail: "requeue of non-in-flight DAG node".into(),
            }),
            None => Err(GridError::UnknownJob(job)),
        }
    }

    /// Abandons a job permanently (retry budget exhausted): it counts as
    /// done for dependency purposes so the DAG can drain, but is reported
    /// in `abandoned`.
    pub(crate) fn abandon(&mut self, job: JobId) -> GridResult<Vec<JobId>> {
        self.complete(job)
    }

    /// True when every node is done.
    pub fn is_drained(&self) -> bool {
        self.state.values().all(|&s| s == NodeState::Done)
    }

    /// Builds a linear chain (common pipeline shape).
    pub fn chain(ids: &[JobId]) -> GridResult<Self> {
        let mut dag = JobDag::new();
        let mut prev: Option<JobId> = None;
        for &id in ids {
            match prev {
                None => dag.add_job(id, &[])?,
                Some(p) => dag.add_job(id, &[p])?,
            }
            prev = Some(id);
        }
        Ok(dag)
    }

    /// Builds a fan-out/fan-in (map-reduce shape): `root → N workers →
    /// sink`. Ids are `root, workers..., sink`.
    pub fn fan(root: JobId, workers: &[JobId], sink: JobId) -> GridResult<Self> {
        let mut dag = JobDag::new();
        dag.add_job(root, &[])?;
        for &w in workers {
            dag.add_job(w, &[root])?;
        }
        dag.add_job(sink, workers)?;
        Ok(dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn j(i: u32) -> JobId {
        JobId(i)
    }

    /// No node is Ready while it still has unfinished parents, and every
    /// parent is a node.
    fn check_invariants(dag: &JobDag) {
        for (job, parents) in &dag.parents {
            if !parents.is_empty() {
                assert_ne!(
                    dag.state[job],
                    NodeState::Ready,
                    "{job} ready with unfinished parents"
                );
            }
        }
        let all: HashSet<_> = dag.state.keys().collect();
        for ps in dag.parents.values() {
            for p in ps {
                assert!(all.contains(p), "dangling parent {p}");
            }
        }
    }

    #[test]
    fn chain_releases_in_order() {
        let mut dag = JobDag::chain(&[j(1), j(2), j(3)]).unwrap();
        assert_eq!(dag.ready(), vec![j(1)]);
        dag.claim(j(1)).unwrap();
        assert!(dag.ready().is_empty());
        assert_eq!(dag.complete(j(1)).unwrap(), vec![j(2)]);
        dag.claim(j(2)).unwrap();
        assert_eq!(dag.complete(j(2)).unwrap(), vec![j(3)]);
        dag.claim(j(3)).unwrap();
        assert_eq!(dag.complete(j(3)).unwrap(), vec![]);
        assert!(dag.is_drained());
    }

    #[test]
    fn fan_out_fan_in() {
        let workers: Vec<JobId> = (10..14).map(JobId).collect();
        let mut dag = JobDag::fan(j(1), &workers, j(99)).unwrap();
        dag.claim(j(1)).unwrap();
        let released = dag.complete(j(1)).unwrap();
        assert_eq!(released, workers);
        for &w in &workers {
            dag.claim(w).unwrap();
        }
        // Sink not released until the last worker finishes.
        for &w in &workers[..3] {
            assert!(dag.complete(w).unwrap().is_empty());
        }
        assert_eq!(dag.complete(workers[3]).unwrap(), vec![j(99)]);
        check_invariants(&dag);
    }

    #[test]
    fn requeue_for_replanning() {
        let mut dag = JobDag::chain(&[j(1), j(2)]).unwrap();
        dag.claim(j(1)).unwrap();
        dag.requeue(j(1)).unwrap();
        assert_eq!(dag.ready(), vec![j(1)]);
        // Child stays blocked.
        dag.claim(j(1)).unwrap();
        dag.complete(j(1)).unwrap();
        assert_eq!(dag.ready(), vec![j(2)]);
    }

    #[test]
    fn illegal_operations_error() {
        let mut dag = JobDag::chain(&[j(1), j(2)]).unwrap();
        assert!(dag.claim(j(2)).is_err()); // waiting, not ready
        assert!(dag.claim(j(9)).is_err()); // unknown
        assert!(dag.complete(j(1)).is_err()); // not claimed
        assert!(dag.requeue(j(1)).is_err()); // not in flight
        assert!(dag.add_job(j(1), &[]).is_err()); // duplicate
        assert!(dag.add_job(j(5), &[j(9)]).is_err()); // unknown parent
    }

    #[test]
    fn parents_already_done_make_child_ready() {
        let mut dag = JobDag::new();
        dag.add_job(j(1), &[]).unwrap();
        dag.claim(j(1)).unwrap();
        dag.complete(j(1)).unwrap();
        dag.add_job(j(2), &[j(1)]).unwrap();
        assert_eq!(dag.ready(), vec![j(2)]);
    }
}
