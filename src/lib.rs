//! Umbrella package for the DI-GRUBER reproduction: the examples and the
//! cross-crate integration tests. They name each workspace crate
//! directly; `digruber` is the paper's primary contribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
