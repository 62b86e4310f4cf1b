//! The prescript/postscript state machine.
//!
//! "The prescript calls out to the external site selector (i.e., in our
//! case, GRUBER) to identify the site on which the job should run,
//! rewrites the job submit file to specify that site, transfers necessary
//! input files to that site, registers transferred files with the replica
//! mechanism, and deals with replanning. The postscript file transfers
//! output files to the collection area, registers produced files, checks
//! on successful job execution, and updates file popularity."
//!
//! The planner is execution-agnostic: the caller supplies the site
//! selector (a GRUBER client, a `digruber` query, or a stub) and runs the
//! job however it likes, then reports the outcome to the postscript.

use super::dag::JobDag;
use super::replica::{Lfn, ReplicaCatalog};
use gruber_types::{GridError, GridResult, JobId, SiteId};
use std::collections::HashMap;

/// A Condor-G submit file, as much of it as the prescript rewrites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitFile {
    /// The job this file submits.
    pub job: JobId,
    /// The execution site — `None` until the prescript binds it
    /// (late binding: "site placement decisions are made immediately prior
    /// to running the job").
    pub site: Option<SiteId>,
    /// Input files to stage in.
    pub inputs: Vec<Lfn>,
    /// Output files the job produces.
    pub outputs: Vec<Lfn>,
}

impl SubmitFile {
    /// An unbound submit file.
    pub fn new(job: JobId, inputs: Vec<Lfn>, outputs: Vec<Lfn>) -> Self {
        SubmitFile {
            job,
            site: None,
            inputs,
            outputs,
        }
    }
}

/// What the postscript decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostAction {
    /// Job succeeded; outputs registered; children may be released.
    Completed {
        /// DAG children that became ready.
        released: usize,
    },
    /// Job failed; it was requeued for another attempt.
    Replanned {
        /// Attempts so far.
        attempt: u32,
    },
    /// Job failed and the retry budget is exhausted.
    Abandoned,
}

/// Counters the planner accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerStats {
    /// Prescript executions (site bindings).
    pub planned: u64,
    /// Re-planning events after failures.
    pub replanned: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs abandoned after exhausting retries.
    pub abandoned: u64,
    /// Input transfers skipped thanks to an existing replica.
    pub transfers_skipped: u64,
    /// Input transfers performed.
    pub transfers_done: u64,
}

/// The Euryale planner: DAG + replica catalog + retry bookkeeping.
#[derive(Debug)]
pub struct EuryalePlanner {
    dag: JobDag,
    catalog: ReplicaCatalog,
    max_retries: u32,
    attempts: HashMap<JobId, u32>,
    stats: PlannerStats,
}

impl EuryalePlanner {
    /// Wraps a DAG with a retry budget per job.
    pub fn new(dag: JobDag, max_retries: u32) -> Self {
        EuryalePlanner {
            dag,
            catalog: ReplicaCatalog::new(),
            max_retries,
            attempts: HashMap::new(),
            stats: PlannerStats::default(),
        }
    }

    /// Jobs whose parents are all done and that are not in flight.
    pub fn ready(&self) -> Vec<JobId> {
        self.dag.ready()
    }

    /// The prescript: binds a ready job to a site, stages inputs and
    /// registers replicas. `select` is the external site selector callout.
    pub fn prescript(
        &mut self,
        submit: &mut SubmitFile,
        select: impl FnOnce() -> Option<SiteId>,
    ) -> GridResult<SiteId> {
        self.dag.claim(submit.job)?;
        let Some(site) = select() else {
            // Selector came up empty — undo the claim and report.
            self.dag.requeue(submit.job)?;
            return Err(GridError::InvalidConfig(
                "site selector returned no site".into(),
            ));
        };
        // Rewrite the submit file.
        submit.site = Some(site);
        // Stage inputs, skipping files the site already holds.
        for lfn in &submit.inputs {
            if self.catalog.has_replica(lfn, site) {
                self.stats.transfers_skipped += 1;
            } else {
                self.stats.transfers_done += 1;
                self.catalog.register(lfn, site);
            }
            self.catalog.touch(lfn);
        }
        *self.attempts.entry(submit.job).or_insert(0) += 1;
        self.stats.planned += 1;
        Ok(site)
    }

    /// The postscript: verifies the outcome, registers outputs on success,
    /// replans (or abandons) on failure.
    pub fn postscript(&mut self, submit: &SubmitFile, success: bool) -> GridResult<PostAction> {
        let site = submit.site.ok_or_else(|| GridError::InvalidTransition {
            job: submit.job,
            detail: "postscript before prescript".into(),
        })?;
        if success {
            for lfn in &submit.outputs {
                self.catalog.register(lfn, site);
                self.catalog.touch(lfn);
            }
            let released = self.dag.complete(submit.job)?.len();
            self.stats.completed += 1;
            return Ok(PostAction::Completed { released });
        }
        let attempt = self.attempts.get(&submit.job).copied().unwrap_or(0);
        if attempt > self.max_retries {
            self.dag.abandon(submit.job)?;
            self.stats.abandoned += 1;
            Ok(PostAction::Abandoned)
        } else {
            self.dag.requeue(submit.job)?;
            self.stats.replanned += 1;
            Ok(PostAction::Replanned { attempt })
        }
    }

    /// The replica catalog (inspection).
    pub fn catalog(&self) -> &ReplicaCatalog {
        &self.catalog
    }

    /// Accumulated counters.
    pub fn stats(&self) -> PlannerStats {
        self.stats
    }

    /// True once every DAG node is finished or abandoned.
    pub fn is_drained(&self) -> bool {
        self.dag.is_drained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(i: u32) -> JobId {
        JobId(i)
    }

    fn submit(i: u32) -> SubmitFile {
        SubmitFile::new(j(i), vec![format!("in{i}.dat")], vec![format!("out{i}.dat")])
    }

    #[test]
    fn happy_path_chain() {
        let dag = JobDag::chain(&[j(1), j(2)]).unwrap();
        let mut p = EuryalePlanner::new(dag, 2);

        let mut s1 = submit(1);
        let site = p.prescript(&mut s1, || Some(SiteId(4))).unwrap();
        assert_eq!(site, SiteId(4));
        assert_eq!(s1.site, Some(SiteId(4)), "submit file rewritten");
        assert_eq!(
            p.postscript(&s1, true).unwrap(),
            PostAction::Completed { released: 1 }
        );
        // Output registered at the execution site.
        assert!(p.catalog().has_replica("out1.dat", SiteId(4)));

        let mut s2 = submit(2);
        p.prescript(&mut s2, || Some(SiteId(4))).unwrap();
        p.postscript(&s2, true).unwrap();
        assert!(p.is_drained());
        assert_eq!(p.stats().completed, 2);
        assert_eq!(p.stats().transfers_done, 2);
    }

    #[test]
    fn replanning_until_budget_exhausted() {
        let dag = JobDag::chain(&[j(1)]).unwrap();
        let mut p = EuryalePlanner::new(dag, 2); // 1 try + 2 retries

        for attempt in 1..=3u32 {
            let mut s = submit(1);
            p.prescript(&mut s, || Some(SiteId(0))).unwrap();
            let action = p.postscript(&s, false).unwrap();
            if attempt <= 2 {
                assert_eq!(action, PostAction::Replanned { attempt });
            } else {
                assert_eq!(action, PostAction::Abandoned);
            }
        }
        assert!(p.is_drained(), "abandoned job must not wedge the DAG");
        assert_eq!(p.stats().replanned, 2);
        assert_eq!(p.stats().abandoned, 1);
    }

    #[test]
    fn input_transfer_skipped_when_replica_exists() {
        let mut dag = JobDag::new();
        dag.add_job(j(1), &[]).unwrap();
        dag.add_job(j(2), &[]).unwrap();
        let mut p = EuryalePlanner::new(dag, 0);

        let mut s1 = SubmitFile::new(j(1), vec!["shared.dat".into()], vec![]);
        p.prescript(&mut s1, || Some(SiteId(7))).unwrap();
        p.postscript(&s1, true).unwrap();

        // Second job staging the same input to the same site: skipped.
        let mut s2 = SubmitFile::new(j(2), vec!["shared.dat".into()], vec![]);
        p.prescript(&mut s2, || Some(SiteId(7))).unwrap();
        assert_eq!(p.stats().transfers_done, 1);
        assert_eq!(p.stats().transfers_skipped, 1);
        assert_eq!(p.catalog().popularity("shared.dat"), 2);
    }

    #[test]
    fn selector_failure_leaves_job_ready() {
        let dag = JobDag::chain(&[j(1)]).unwrap();
        let mut p = EuryalePlanner::new(dag, 0);
        let mut s = submit(1);
        assert!(p.prescript(&mut s, || None).is_err());
        assert_eq!(p.ready(), vec![j(1)], "failed selection must not lose the job");
        assert_eq!(s.site, None);
    }

    #[test]
    fn postscript_before_prescript_errors() {
        let dag = JobDag::chain(&[j(1)]).unwrap();
        let mut p = EuryalePlanner::new(dag, 0);
        let s = submit(1);
        assert!(p.postscript(&s, true).is_err());
    }
}
