//! Umbrella package for the DI-GRUBER reproduction: the examples, the
//! cross-crate integration tests, and `euryale`, the paper's client-side
//! tool chain, which only they drive. The examples and tests name each
//! workspace crate directly; `digruber` is the paper's primary
//! contribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod euryale;

pub use self::euryale::{EuryalePlanner, JobDag, PostAction, SubmitFile};
