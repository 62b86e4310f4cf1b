//! The GRUBER broker engine.
//!
//! GRUBER's "main four principal components" (paper Section 3.2):
//!
//! * the **engine** ([`engine::GruberEngine`]) — "implements various
//!   algorithms for detecting available resources and maintains a generic
//!   view of resource utilization in the grid";
//! * the **site monitor** — a data provider. Not in this crate: in
//!   monitor-mode runs `digruber::events::monitor_refresh` hands each
//!   decision point the grid's ground-truth free CPUs per site
//!   (`gridemu::Grid::free_cpus_per_site`);
//! * **clients** — standard GT clients talking to the engine (the
//!   client-side selector logic lives in [`selectors`]; transport is the
//!   caller's concern — `digruber` drives it over the simulated WAN);
//! * **site selectors** ([`selectors`]) — answer "which is the best site at
//!   which I can run this job?": the [`SiteSelector`] trait is the
//!   extension point, and least-used is the policy every experiment runs;
//! * the **queue manager** — sits on a submission host, "monitors VO
//!   policies and decides how many jobs to start and when". Not in this
//!   crate: the simulated submission hosts throttle themselves with
//!   `max_jobs_in_flight` (`digruber::events::client_issue`).
//!
//! [`view::GridView`] is the engine's model of the grid: complete static
//! knowledge of site capacities (the paper's dissemination assumption) plus
//! a decaying set of observed dispatches — its divergence from ground truth
//! is what the Accuracy metric measures.

//! # Example
//!
//! ```
//! use gruber::{DispatchRecord, GruberEngine, LeastUsedSelector, SiteSelector};
//! use gruber_types::*;
//! use workload::uslas::equal_shares;
//!
//! let sites = vec![
//!     SiteSpec::single_cluster(SiteId(0), 10),
//!     SiteSpec::single_cluster(SiteId(1), 20),
//! ];
//! let mut engine = GruberEngine::new(&sites, &equal_shares(2, 2)?);
//!
//! // A dispatch is observed; the view reflects it until its estimated end.
//! engine.record_dispatch(
//!     DispatchRecord {
//!         job: JobId(1), site: SiteId(1), vo: VoId(0), group: GroupId(0),
//!         cpus: 5, dispatched_at: SimTime::ZERO,
//!         est_finish: SimTime::from_secs(600),
//!     },
//!     SimTime::ZERO,
//! );
//! let free = engine.availability(SimTime::from_secs(10));
//! assert_eq!(free, vec![10, 15]);
//! # Ok::<(), GridError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod selectors;
pub mod view;

pub use engine::GruberEngine;
pub use selectors::{LeastUsedSelector, SiteSelector};
pub use gruber_types::DispatchRecord;
pub use view::GridView;
