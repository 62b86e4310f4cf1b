//! Shared error type.

use crate::id::{DpId, JobId, SiteId};
use std::fmt;

/// Errors surfaced across the brokering stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A referenced site does not exist.
    UnknownSite(SiteId),
    /// A referenced job does not exist.
    UnknownJob(JobId),
    /// A referenced decision point does not exist.
    UnknownDp(DpId),
    /// An illegal job lifecycle transition was attempted.
    InvalidTransition {
        /// Job involved.
        job: JobId,
        /// Human-readable description of the attempted transition.
        detail: String,
    },
    /// A decision-point query timed out at the client.
    Timeout {
        /// Decision point that failed to answer in time.
        dp: DpId,
    },
    /// A site rejected a dispatch (a job larger than the site).
    Rejected {
        /// Site that rejected.
        site: SiteId,
        /// Reason string.
        reason: String,
    },
    /// Configuration is inconsistent (empty grid, zero clients, ...).
    InvalidConfig(String),
    /// Bytes from a socket or a disk do not decode: the peer, the file or
    /// the link is at fault, never this process's configuration.
    Malformed {
        /// Which payload was being read ("query", "snapshot", ...).
        what: &'static str,
        /// What was wrong with it.
        why: String,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::UnknownSite(s) => write!(f, "unknown site {s}"),
            GridError::UnknownJob(j) => write!(f, "unknown job {j}"),
            GridError::UnknownDp(d) => write!(f, "unknown decision point {d}"),
            GridError::InvalidTransition { job, detail } => {
                write!(f, "invalid transition for {job}: {detail}")
            }
            GridError::Timeout { dp } => write!(f, "query to {dp} timed out"),
            GridError::Rejected { site, reason } => {
                write!(f, "dispatch rejected by {site}: {reason}")
            }
            GridError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            GridError::Malformed { what, why } => write!(f, "malformed {what}: {why}"),
        }
    }
}

impl std::error::Error for GridError {}

/// Convenience alias.
pub type GridResult<T> = Result<T, GridError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GridError::Rejected {
            site: SiteId(2),
            reason: "over quota".into(),
        };
        assert_eq!(e.to_string(), "dispatch rejected by site-2: over quota");
        assert!(GridError::Timeout { dp: DpId(1) }.to_string().contains("dp-1"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&GridError::UnknownJob(JobId(0)));
    }
}
