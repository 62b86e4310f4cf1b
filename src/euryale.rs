//! Euryale: the concrete planner.
//!
//! "Euryale is a system designed to run jobs over large grids such as OSG.
//! Euryale uses Condor-G (and thus the Globus Toolkit GRAM) to submit and
//! monitor jobs at sites. It takes a late binding approach in assigning
//! jobs to sites, meaning that site placement decisions are made
//! immediately prior to running the job [...] Euryale also implements a
//! simple fault tolerance mechanism by means of job re-planning when a
//! failure is discovered."
//!
//! The module layout mirrors the tool chain the paper describes:
//!
//! * [`dag`] — the DagMan stand-in: a DAG of jobs with dependencies; a job
//!   becomes *ready* when all parents completed;
//! * [`replica`] — the replica catalog the prescript registers transferred
//!   files with;
//! * [`planner`] — the prescript/postscript state machine: prescript calls
//!   the external site selector (GRUBER), rewrites the submit file,
//!   transfers inputs and registers them; postscript transfers outputs,
//!   registers them, verifies success and triggers re-planning on failure
//!   (bounded retries).

//! # Example
//!
//! ```
//! use di_gruber_repro::{EuryalePlanner, JobDag, SubmitFile};
//! use gruber_types::{JobId, SiteId};
//!
//! let dag = JobDag::chain(&[JobId(1), JobId(2)])?;
//! let mut planner = EuryalePlanner::new(dag, 2);
//! let mut submit = SubmitFile::new(JobId(1), vec!["in.dat".into()], vec!["out.dat".into()]);
//!
//! // Prescript: late-bind the site, stage inputs.
//! let site = planner.prescript(&mut submit, || Some(SiteId(4)))?;
//! assert_eq!(submit.site, Some(site));
//! // ... run the job ... then the postscript verifies and releases children.
//! planner.postscript(&submit, true)?;
//! assert_eq!(planner.ready(), vec![JobId(2)]);
//! # Ok::<(), gruber_types::GridError>(())
//! ```

mod dag;
mod planner;
mod replica;

pub use dag::JobDag;
pub use planner::{EuryalePlanner, PostAction, SubmitFile};
